"""Restricted model operators built on the Walsh time-frequency sum, the
exceptional-set constructions, the operator-norm decay in the measure ratio,
and the vector-valued bound with adversarial choice functions.

The restricted operator localizes the model sum between two sets: the input
is cut to B before the sum, the output to A after it.  On the grid the
exceptional sets are exact maximal-function level sets, so the size and mass
caps they force hold as stated, with explicit constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSet, GridSignal, VectorSignal, array_lp_norm, cell_width, measure
from .maximal import exceptional_complement
from .principle import power_iteration
from .reports import BucketStat, DecayReport, LadderPoint, RatioReport, safe_ratio
from .tiles import (
    BiTile,
    ChoiceFunction,
    ModelSumPlan,
    TileCollection,
    full_decompose,
    member_coefficients,
    model_sum,
    packet_coefficients,
)
from .walsh import bit_reversal


@dataclass(frozen=True)
class RestrictedOp:
    """Model sum localized between two sets: f -> 1_A T(f 1_B), with the
    model-sum plan of its (choice, collection) built once."""

    a: GridSet
    b: GridSet
    choice: ChoiceFunction
    collection: TileCollection
    plan: ModelSumPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (
            self.a.resolution
            == self.b.resolution
            == self.choice.resolution
            == self.collection.resolution
        ):
            raise ValueError("restricted operator pieces must share one resolution")
        object.__setattr__(self, "plan", ModelSumPlan(self.choice, self.collection))


def apply_restricted(f: GridSignal, op: RestrictedOp) -> GridSignal:
    masked = GridSignal(f.resolution, f.values * op.b.mask)
    out = op.plan.apply(masked)
    return GridSignal(f.resolution, out.values * op.a.mask)


def adjoint_restricted(g: GridSignal, op: RestrictedOp) -> GridSignal:
    masked = GridSignal(g.resolution, g.values * op.a.mask)
    out = op.plan.adjoint(masked)
    return GridSignal(g.resolution, out.values * op.b.mask)


def carve_h(h: GridSet, g: GridSet, c: float = 4.0) -> GridSet:
    """H minus {M 1_G >= c |G| / |H|}; keeps at least half of H for c >= 4."""
    return exceptional_complement(h, g, c)


def carve_g(g: GridSet, h: GridSet, c: float = 4.0) -> GridSet:
    """G minus {M 1_H >= c |H| / |G|}; mirror of carve_h."""
    return exceptional_complement(g, h, c)


def retain_meeting(collection: TileCollection, keep: GridSet) -> TileCollection:
    """Bi-tiles whose spatial interval meets the surviving set."""
    L = collection.resolution
    kept = tuple(
        mask & keep.mask.reshape(1 << k, 1 << (L - k)).any(axis=1)[:, None]
        for k, mask in enumerate(collection.masks)
    )
    return TileCollection(L, kept, convex=False)


def restricted_norm(
    op: RestrictedOp, iters: int = 200, tol: float = 1e-9, seed: int = 0
):
    """L2 -> L2 norm of the restricted operator for its fixed choice
    function, via power iteration with the exact adjoint."""
    n = 1 << op.a.resolution

    def fwd(v):
        return apply_restricted(GridSignal(op.a.resolution, v), op).values

    def adj(v):
        return adjoint_restricted(GridSignal(op.a.resolution, v), op).values

    return power_iteration(fwd, adj, (n,), iters=iters, tol=tol, seed=seed)


def greedy_choice(f: GridSignal, collection: TileCollection) -> ChoiceFunction:
    """Adversarial choice function: at each cell, the frequency maximizing the
    magnitude of the partial model sum, scanning the finitely many upper
    frequency halves that can contain the candidate."""
    L = f.resolution
    n_cells = 1 << L
    cells = np.arange(n_cells)
    total = np.zeros((n_cells, n_cells), dtype=np.complex128)
    nu = np.arange(n_cells)
    for k, present in enumerate(collection.masks):
        if not present.any():
            continue
        coef = packet_coefficients(f.values, L, k)
        n_idx = cells >> (L - k)
        u = cells & ((1 << (L - k)) - 1)
        rev_u = bit_reversal(L - k)[u]
        mm = np.arange(1 << (L - k - 1))
        # packet value of the upper tile at every (cell, freq-index) pair
        signs = 1.0 - 2.0 * (np.bitwise_count((2 * mm[None, :] + 1) & rev_u[:, None]) & 1)
        table = (
            coef[n_idx[:, None], 2 * mm[None, :]]
            * (2.0 ** (k / 2.0))
            * signs
            * present[n_idx[:, None], mm[None, :]]
        )
        upper_bit = ((nu >> k) & 1) == 1
        col = nu >> (k + 1)
        total[:, upper_bit] += table[:, col[upper_bit]]
    return ChoiceFunction(L, np.argmax(np.abs(total), axis=1).astype(np.int64))


def restricted_pairing(
    f: GridSignal,
    g: GridSignal,
    e_set: GridSet,
    f_set: GridSet,
    op: RestrictedOp,
    t: float,
    retain: GridSet | None = None,
) -> RatioReport:
    """The pairing <S(f), g> against its bucketed double-sum majorants.

    Requires |f| <= 1_E and |g| <= 1_F.  The collection is restricted to
    bi-tiles meeting the surviving set (default: the input localization B);
    the triangle majorant dominates the pairing term by term, and the model
    majorant sums 2**(-n-m) (2**m |F|)**(1/t') (2**(2n) |E|)**(1/t) over the
    decomposition buckets.
    """
    if not t > 2:
        raise ValueError(f"t must exceed 2, got {t}")
    L = f.resolution
    if np.any(np.abs(f.values) > e_set.mask + 1e-12):
        raise ValueError("f must be dominated by the indicator of E")
    if np.any(np.abs(g.values) > f_set.mask + 1e-12):
        raise ValueError("g must be dominated by the indicator of F")
    keep = retain if retain is not None else op.b
    surviving = retain_meeting(op.collection, keep)
    op0 = RestrictedOp(op.a, op.b, op.choice, surviving)

    sf = apply_restricted(f, op0)
    pairing = abs(complex(np.sum(sf.values * np.conj(g.values)) * cell_width(L)))

    masked_f = GridSignal(L, f.values * op.b.mask)
    mass_target = GridSet(L, f_set.mask & op.a.mask)
    decomposition = full_decompose(surviving, masked_f, mass_target, op.choice)

    coeffs = member_coefficients(surviving, masked_f)
    g_in_a = np.abs(g.values) * f_set.mask * op.a.mask
    width = cell_width(L)
    freqs = op.choice.freqs

    def member_majorant(p: BiTile) -> float:
        sel_slice = p.spatial.cell_slice(L)
        sel = (freqs[sel_slice] >= p.upper.freq.lo) & (freqs[sel_slice] < p.upper.freq.hi)
        weight = float(np.sum((g_in_a[sel_slice] > 0)[sel]) * width)
        return abs(coeffs[p]) * 2.0 ** (p.scale / 2.0) * weight

    t_conj = t / (t - 1.0)
    e_measure, f_measure = measure(e_set), measure(f_set)
    stats = []
    majorant = 0.0
    model_majorant = 0.0
    for (n, m), bucket in sorted(decomposition.buckets.items()):
        bucket_sum = 0.0
        for tree in bucket.trees:
            bucket_sum += sum(member_majorant(p) for p in tree.members)
        majorant += bucket_sum
        model_term = (
            2.0 ** (-n - m)
            * (2.0**m * f_measure) ** (1.0 / t_conj)
            * (2.0 ** (2 * n) * e_measure) ** (1.0 / t)
        )
        model_majorant += model_term
        stats.append(BucketStat(n, m, bucket_sum, bucket.count_ratio))

    report = RatioReport.from_sides(pairing, majorant, buckets=stats)
    report.extra["model_majorant"] = model_majorant
    report.extra["model_ratio"] = safe_ratio(majorant, model_majorant)
    report.extra["surviving"] = len(surviving)
    report.extra["t"] = t
    return report


def collection_caps(
    collection: TileCollection,
    h: GridSet,
    g: GridSet,
    h_prime: GridSet,
    e_for_mass: GridSet,
    choice: ChoiceFunction,
    c: float = 4.0,
) -> dict:
    """Measured size/mass of the collection surviving the H' carving, against
    the caps forced by the construction (mass <= c |G| / |H| exactly)."""
    from .tiles import mass as tile_mass
    from .tiles import size_bound, mass_bound

    surviving = retain_meeting(collection, h_prime)
    ratio = safe_ratio(measure(g), measure(h))
    return {
        "mass": tile_mass(surviving, e_for_mass, choice),
        "mass_cap": c * ratio,
        "mass_bound": mass_bound(surviving, e_for_mass),
        "size_bound": size_bound(surviving, GridSignal(h.resolution, h.mask.astype(complex))),
        "surviving": len(surviving),
    }


def _choice_family(
    op_collection: TileCollection,
    resolution: int,
    rng: np.random.Generator,
    extra_signal: GridSignal | None = None,
    randoms: int = 2,
) -> list[ChoiceFunction]:
    n = 1 << resolution
    family = [ChoiceFunction.constant(resolution, n // 2)]
    for _ in range(randoms):
        family.append(ChoiceFunction(resolution, rng.integers(0, n, size=n)))
    if extra_signal is not None:
        family.append(greedy_choice(extra_signal, op_collection))
    return family


def norm_decay_point(
    h: GridSet,
    g: GridSet,
    collection: TileCollection,
    seed: int = 0,
    c: float = 4.0,
    iters: int = 150,
    adversary_rounds: int = 2,
    branch: str = "h",
) -> dict:
    """Measured norm of the restricted operator for one (G, H) pair, taking
    the worst choice function over a family that includes a greedy adversary
    re-fit to the current top singular vector.

    Besides the norm, reports the iteration count and convergence flag of
    the power iteration that gave it, and `unconverged`, the number of power
    iterations of the point that stopped at the cap `iters` unconverged."""
    L = h.resolution
    rng = np.random.default_rng(seed)
    if branch == "h":
        h_prime = carve_h(h, g, c)
        a_set, b_set, keep = g, h_prime, h_prime
        ratio = safe_ratio(measure(g), measure(h))
    elif branch == "g":
        g_prime = carve_g(g, h, c)
        a_set, b_set, keep = g_prime, h, g_prime
        ratio = safe_ratio(measure(h), measure(g))
    else:
        raise ValueError(f"unknown branch {branch!r}")
    surviving = retain_meeting(collection, keep)
    winner = None
    best_choice = None
    unconverged = 0
    probe = GridSignal(L, rng.standard_normal(1 << L))
    for idx, choice in enumerate(_choice_family(surviving, L, rng, extra_signal=probe)):
        op = RestrictedOp(a_set, b_set, choice, surviving)
        res = restricted_norm(op, iters=iters, seed=seed + idx)
        unconverged += not res.converged
        vec = res.top_vector
        for round_ in range(adversary_rounds):
            if vec is None:
                break
            refit = greedy_choice(GridSignal(L, np.asarray(vec) * b_set.mask), surviving)
            op = RestrictedOp(a_set, b_set, refit, surviving)
            res2 = restricted_norm(op, iters=iters, seed=seed + 131 + round_)
            unconverged += not res2.converged
            if res2.norm > res.norm:
                res, choice, vec = res2, refit, res2.top_vector
            else:
                break
        if winner is None or res.norm > winner.norm:
            winner, best_choice = res, choice
    return {
        "norm": winner.norm,
        "ratio": ratio,
        "choice": best_choice,
        "kept": measure(keep),
        "iterations": winner.iterations,
        "converged": winner.converged,
        "unconverged": unconverged,
    }


def norm_decay_ladder(
    resolution: int,
    ratios,
    seed: int = 0,
    branch: str = "h",
    c: float = 4.0,
    iters: int = 150,
    collection: TileCollection | None = None,
) -> DecayReport:
    """Norm decay along a ladder of measure ratios, with the fitted log-log
    slope.  The large set is the whole grid; the small set is drawn at the
    exact ladder measure; for the g branch the roles are swapped.  The
    report's `unconverged` counts the power iterations of the whole ladder
    that stopped unconverged."""
    rng = np.random.default_rng(seed)
    n = 1 << resolution
    collection = collection or TileCollection.all(resolution)
    points = []
    unconverged = 0
    for i, ratio in enumerate(ratios):
        count = max(1, round(ratio * n))
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=count, replace=False)] = True
        small = GridSet(resolution, mask)
        big = GridSet.full(resolution)
        if branch == "h":
            point = norm_decay_point(big, small, collection, seed=seed + 7 * i, c=c, iters=iters, branch="h")
        else:
            point = norm_decay_point(small, big, collection, seed=seed + 7 * i, c=c, iters=iters, branch="g")
        points.append(LadderPoint(math.log2(point["ratio"]), math.log2(max(point["norm"], 1e-300))))
        unconverged += point["unconverged"]
    xs = np.array([pt.log_ratio for pt in points])
    ys = np.array([pt.log_norm for pt in points])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return DecayReport(
        ratio_ladder=points,
        slope=float(slope),
        intercept=float(intercept),
        thm71=None,
        extra={"branch": branch, "resolution": resolution, "unconverged": unconverged},
    )


def verify_vector_carleson(
    fams: VectorSignal,
    choices: list[ChoiceFunction] | None,
    p: float,
    collection: TileCollection | None = None,
    seed: int = 0,
) -> RatioReport:
    """Both sides of the vector model-operator bound with per-member choice
    functions; when none are supplied each member gets the greedy adversary
    fitted to itself."""
    if not 1 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    L = fams.resolution
    collection = collection or TileCollection.all(L)
    if choices is None:
        choices = [greedy_choice(fams.member(j), collection) for j in range(len(fams))]
    stack = np.vstack(
        [
            model_sum(fams.member(j), choices[j % len(choices)], collection).values
            for j in range(len(fams))
        ]
    )
    lhs = array_lp_norm(np.sqrt(np.sum(np.abs(stack) ** 2, axis=0)), p, L)
    rhs = array_lp_norm(fams.pointwise_l2(), p, L)
    return RatioReport.from_sides(lhs, rhs, p=p, family_size=len(fams))
