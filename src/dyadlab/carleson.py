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
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSet,
    GridSignal,
    VectorSignal,
    bundle_norm,
    cell_width,
    check_exponent,
    check_same_grid,
    conjugate_exponent,
    measure,
    stack_slices,
)
from .maximal import CARVING, exceptional_complement
from .principle import STEP_CAP, OperatorFamily, TopSingularResult, top_singular
from .reports import ratio_report, safe_ratio
from .tiles import (
    ChoiceFunction,
    ModelSumPlan,
    TileCollection,
    full_decompose,
    lower_coefficients,
    member_weights,
    packet_heights,
    tree_sum,
    upper_cells,
)
from .walsh import walsh_matrix


@dataclass(frozen=True)
class RestrictedOp:
    """Model sum localized between two sets: f -> 1_A T(f 1_B)."""

    a: GridSet
    b: GridSet
    choice: ChoiceFunction
    collection: TileCollection

    def __post_init__(self):
        check_same_grid(a=self.a, b=self.b, choice=self.choice, collection=self.collection)


def retain_meeting(collection: TileCollection, keep: GridSet) -> TileCollection:
    """Bi-tiles whose spatial interval meets the surviving set."""
    L = check_same_grid(collection=collection, keep=keep)
    kept = tuple(
        mask & keep.mask.reshape(1 << k, 1 << (L - k)).any(axis=1)[:, None]
        for k, mask in enumerate(collection.masks)
    )
    return TileCollection.from_masks(L, kept)


# The largest resolution at which restricted_norm writes the operators out
# and takes their SVD; above it the Krylov engine runs. Full estimate-22
# ladders of both branches at seed 1, best of 3 with one BLAS thread on a
# 2-core AMD EPYC, dense against Krylov: 0.02 against 0.05 s at L=6, 0.05
# against 0.08 s at L=7, 0.21 against 0.19 s at L=8 and, at ladder 4, 0.67
# against 0.36 s at L=9
DENSE_RESOLUTION = 7


def restricted_norm(
    a: GridSet, b: GridSet, collection: TileCollection, choices, seeds, iters: int = STEP_CAP
) -> list[TopSingularResult]:
    """L2 -> L2 norms of the restricted operators f -> 1_A T_N(f 1_B) over
    one collection, one for each choice function N, with their top right
    singular vectors.

    Up to `DENSE_RESOLUTION` the norms are exact: `restricted_matrices`
    writes the operators out and one batched SVD measures them (see
    `_dense_norms`); the results take 0 steps, converge and carry
    `norm_upper`, and `seeds` and `iters` are not read.  Above it,
    Golub-Kahan-Lanczos (`top_singular`) with the exact adjoint runs,
    capped at `iters` steps, operator i from seeds[i] (see `_krylov_norms`)."""
    choices, seeds = list(choices), list(seeds)
    if len(seeds) != len(choices):
        raise ValueError(f"expected one seed per operator, got {len(seeds)} for {len(choices)}")
    if not choices:
        return []
    if check_same_grid(a=a, b=b, collection=collection) <= DENSE_RESOLUTION:
        return _dense_norms(a, b, collection, choices)
    return _krylov_norms(a, b, collection, choices, seeds, iters)


def restricted_matrices(a: GridSet, b: GridSet, collection: TileCollection, choices) -> np.ndarray:
    """The restricted operators f -> 1_A T_N(f 1_B) written out, one real
    (|A|, |B|) matrix per choice function N, stacked: row x and column y
    run over the cells of A and of B in ascending order.

    Entry [x, y] sums, over the scales k < L, 2**(k-L) W_{2m+1}(x) W_{2m}(y)
    for the member P whose upper tile holds N(x), when P is in the
    collection and y lies in its interval, m being P's frequency index and
    each W read on the interval's 2**(L-k) cells.  So every entry is a sum
    of at most L distinct signed powers of two, exact in float64, and a
    model-sum plan on the unit vectors gives it byte for byte."""
    L = check_same_grid(*choices, a=a, b=b, collection=collection)
    member, scale, cell, slot, sign = upper_cells(choices)
    keep = collection.occupied.ravel()[slot] & a.mask[cell]
    # the terms by scale, each scale's a slice
    at = np.flatnonzero(keep)[np.argsort(scale[keep], kind="stable")]
    member, scale, cell, slot, sign = (x[at] for x in (member, scale, cell, slot, sign))
    bounds = np.cumsum(np.bincount(scale, minlength=L)).tolist()
    rows = int(np.count_nonzero(a.mask))
    # per term: its (member, row of x, block) among the 2**(L-k)-cell
    # blocks of the output, P's frequency index m (the slot's low L - k - 1
    # bits) and the exact power of two sign * 2**(k-L)
    target = ((member * rows + (np.cumsum(a.mask) - 1)[cell]) << scale) + (cell >> (L - scale))
    freq = slot & ((1 << (L - 1 - scale)) - 1)
    factor = np.ldexp(sign, scale - L)
    out = np.zeros((len(choices), rows, 1 << L))
    for k, (lo, hi) in enumerate(zip([0] + bounds, bounds)):
        # no (member, row) pair repeats within one scale
        lower = walsh_matrix(L - k)[0::2][freq[lo:hi]]
        out.reshape(-1, 1 << (L - k))[target[lo:hi]] += factor[lo:hi, None] * lower
    return out[:, :, b.mask]


def _dense_norms(a: GridSet, b: GridSet, collection: TileCollection, choices) -> list[TopSingularResult]:
    """`restricted_norm` by one batched LAPACK SVD of `restricted_matrices`
    (G. Golub and W. Kahan, SIAM J. Numer. Anal. B 2, 1965; J. Demmel and
    W. Kahan, SIAM J. Sci. Stat. Comput. 11, 1990): the norm is sigma_1,
    the top vector the first right singular vector placed on B (none when
    sigma_1 is 0), with 0 steps and converged.

    `norm_upper` is sigma_1 + p eps ||S||_F, rounded up one ulp (sigma_1
    itself for the zero matrix, whose SVD is exact).  The
    computed SVD is the exact one of S + E with ||E||_2 <= p(m, n) eps
    ||S||_2, so by Weyl's inequality sigma_1 lies within that of its
    computed value (LAPACK Users' Guide, 3rd ed., 1999, section 4.9); the
    guide names p only a modestly growing function of the shape m x n,
    and this bound takes p = max(m, n).  ||S||_F bounds ||S||_2 and is
    exact up to its square root: each entry is a multiple of 2**-L below
    1 in magnitude, so the squares and their sum, a multiple of 2**-2L
    below 4**L, need at most 4L <= 48 bits."""
    matrices = restricted_matrices(a, b, collection, choices)
    if matrices.size == 0:
        # an empty A or B: the operators are zero
        return [TopSingularResult(0.0, 0, True, None, 0.0) for _ in choices]
    _, sigma, vh = np.linalg.svd(matrices, full_matrices=False)
    flat = matrices.reshape(len(matrices), -1)
    slack = max(matrices.shape[1:]) * np.finfo(np.float64).eps * np.sqrt(np.vecdot(flat, flat))
    top = sigma[:, 0]
    # a zero matrix has the exact sigma_1 0, and nothing to round
    upper = np.where(slack > 0.0, np.nextafter(top + slack, math.inf), top)
    vectors = np.zeros((len(matrices), b.mask.size))
    vectors[:, b.mask] = vh[:, 0]
    return [
        TopSingularResult(t, 0, True, vector if t > 0.0 else None, u)
        for t, vector, u in zip(top.tolist(), vectors, upper.tolist())
    ]


def _krylov_norms(
    a: GridSet, b: GridSet, collection: TileCollection, choices: list, seeds: list, iters: int
) -> list[TopSingularResult]:
    """`restricted_norm` by Golub-Kahan-Lanczos: the operators run as
    stacks, each over one model-sum plan of its choices, so each result is
    the one a run of that operator alone gives, bit for bit."""
    L = collection.resolution
    results: list[TopSingularResult] = []
    # the array of one numpy call is the plan's block stack, up to L rows
    # of 2**(L-1) cells per member (and none at L = 0); the cap still
    # counts 2**L cells a row, the figure it was measured at, and is not
    # re-tuned for the half spectrum. Each slice is one engine stack
    for s in stack_slices(len(choices), max(L, 1) << L):
        family = _stack_family(ModelSumPlan(choices[s], collection))
        results += top_singular(family, a.mask, b.mask, seeds[s], max_steps=iters, vectors=True)
    return results


def _stack_family(plan: ModelSumPlan) -> OperatorFamily:
    """The members of the plan as one family.

    A call on every member runs the plan's kernels on the engine's stack
    itself; a call on fewer, after members left, runs them on a buffer
    whose rows of the members that left are never read.  A member's output
    row depends on its input row alone, so its results are those of a stack
    without the others, bit for bit."""
    # the engine's stacks are complex (m, 2**L) arrays of its own, so the
    # plan's unchecked kernels serve
    apply, adjoint = plan.kernels()
    count = len(plan)
    full = np.zeros((count, 1 << plan.resolution), dtype=np.complex128)

    def padded(kernel):
        def run(rows, x):
            if len(rows) == count:
                return kernel(x)
            full[rows] = x
            return kernel(full)[rows]

        return run

    return OperatorFamily(count, padded(apply), padded(adjoint))


# Bytes of one chunk of greedy_choice's complex (pair, frequency) sums at
# most, 64 (member, cell) pairs at L = 12; a chunk holds more pairs than
# one member's grid only within STACK_CHUNK_BYTES, so a stacked fit takes
# no more memory than a fit of one member from L = 8 up, and a refit round
# of the decay ladder at L = 6 is one chunk
CHUNK_BYTES = 1 << 22
STACK_CHUNK_BYTES = 1 << 20


def greedy_choice(f: VectorSignal, collection: TileCollection, where: GridSet) -> list[ChoiceFunction]:
    """Adversarial choice functions, one per member of the stack f: at each
    cell, the frequency maximizing the magnitude of the member's partial
    model sum, scanning the finitely many upper frequency halves that can
    contain the candidate.

    Only the cells of `where` are fitted and every other cell gets
    frequency 0, which lies in no upper tile, so it adds no term to a model
    sum: an operator read only on `where`, as f -> 1_A T_N(f 1_B) is on A,
    is that of the choice fitted at every cell.

    One butterfly gives every member's coefficients, and the sums are built
    a chunk of at most `CHUNK_BYTES` of (pair, frequency) entries at a
    time, the (member, cell) pairs taken member by member, so memory does
    not grow as 4**L, nor with the members past `STACK_CHUNK_BYTES`.  At
    scale k a cell u' + t 2**(L-k-1) of its block has the upper packet
    signs W_{2m+1}(cell) = (-1)**t W_m(u') on L - k - 1 bits, so a scale's
    table is the coefficient row of the cell's block in its member's
    coefficients, negated when t is 1, times row u' of
    `walsh_matrix(L - k - 1)`, added into the strided view of the
    frequencies whose bit k is set.  A pair's sums depend on that member
    and cell alone, so each member's choice is the one of a stack of that
    member alone, fitted on any set holding the cell, bit for bit."""
    L = check_same_grid(f=f, collection=collection, where=where)
    n, members = 1 << L, len(f)
    scales = np.flatnonzero(collection.occupied.any(axis=1))
    # row i holds scale k = scales[i], each member's 2**(k+1) blocks of
    # 2**(L-k-1) coefficients in turn: its 2**k blocks, then their negatives
    half = n >> 1
    signed = np.empty((scales.size, members, 2 * half), dtype=np.complex128)
    coefs = signed[:, :, :half]
    weights = packet_heights(L)[scales, None] * collection.occupied[scales]
    np.multiply(lower_coefficients(f.stack, L)[:, scales].transpose(1, 0, 2), weights[:, None], coefs)
    np.negative(coefs, signed[:, :, half:])
    shifts = (L - scales)[:, None]
    chunk = max(1, min(CHUNK_BYTES // (16 * n), max(n, STACK_CHUNK_BYTES // (16 * n))))
    # the (member, cell) pairs, member by member, as member 2**L + cell
    pairs = (np.arange(members)[:, None] * n + np.flatnonzero(where.mask)).ravel()
    freqs = np.zeros((members, n), dtype=np.int64)
    # one buffer of sums serves every chunk, so no chunk's sums are
    # allocated while the last chunk's are held
    sums = np.empty((min(chunk, pairs.size), n), dtype=np.complex128)
    for lo in range(0, pairs.size, chunk):
        pair = pairs[lo : lo + chunk]
        cells = pair & (n - 1)
        # per scale, each pair's row: the cell's block among its member's
        # 2**(k+1), moved to the negatives when t is 1
        rows = (cells >> shifts) + ((((pair >> L) << 1) + ((cells >> (shifts - 1)) & 1)) << scales[:, None])
        # per scale, each cell's place u' in its half block
        places = cells & ((1 << (shifts - 1)) - 1)
        total = sums[: pair.size]
        total.fill(0.0)
        for k, coef, row, place in zip(scales.tolist(), signed, rows, places):
            # the mask (0/1), with the heights, and the negation multiplied
            # coef before the signs (+-1): exact products, which differ at
            # most in the sign of a zero, and no zero sign survives in the
            # total, a sum from +0; the gathered rows are a copy, so the
            # signs multiply them in place
            width = 1 << (L - k - 1)
            table = coef.reshape(-1, width)[row]
            table *= walsh_matrix(L - k - 1)[place]
            upper = total.reshape(cells.size, width, 2, 1 << k)[:, :, 1, :]
            if 1 << k < min(width, 16):
                # runs of 2**k frequencies are short: one add per place in
                # the run, each over the width, costs fewer loop steps
                for j in range(1 << k):
                    upper[:, :, j] += table
            else:
                upper += table[:, :, None]
        freqs.reshape(-1)[pair] = np.argmax(np.abs(total), axis=1)
    return [ChoiceFunction(L, row) for row in freqs]


def restricted_pairing(
    f: GridSignal,
    g: GridSignal,
    e_set: GridSet,
    f_set: GridSet,
    op: RestrictedOp,
    t: float,
    retain: GridSet | None = None,
) -> dict:
    """The pairing <S(f), g> against its bucketed double-sum majorants.

    Requires |f| <= 1_E and |g| <= 1_F.  The collection is restricted to
    bi-tiles meeting the surviving set (default: the input localization B);
    the triangle majorant dominates the pairing term by term, and the model
    majorant sums 2**(-n-m) (2**m |F|)**(1/t') (2**(2n) |E|)**(1/t) over the
    decomposition buckets.
    """
    if not t > 2:
        raise ValueError(f"t must exceed 2, got {t}")
    L = check_same_grid(f=f, g=g, e_set=e_set, f_set=f_set, op=op.collection)
    if np.any(np.abs(f.values) > e_set.mask + 1e-12):
        raise ValueError("f must be dominated by the indicator of E")
    if np.any(np.abs(g.values) > f_set.mask + 1e-12):
        raise ValueError("g must be dominated by the indicator of F")
    keep = retain if retain is not None else op.b
    surviving = retain_meeting(op.collection, keep)
    sf = ModelSumPlan([op.choice], surviving).apply(f.values * op.b.mask) * op.a.mask
    pairing = abs(complex(np.sum(sf * np.conj(g.values)) * cell_width(L)))

    masked_f = GridSignal(L, f.values * op.b.mask)
    mass_target = GridSet(L, f_set.mask & op.a.mask)
    decomposition = full_decompose(surviving, masked_f, mass_target, op.choice)

    # a member P's term is |<f 1_B, P1>| 2**(k/2) |cell| times the count of
    # the cells of I_P in F ∩ A where g is nonzero and N lies in P2
    _, _, cell, slot, _ = upper_cells([op.choice])
    hit = (np.abs(g.values) * f_set.mask * op.a.mask > 0)[cell]
    counts = np.bincount(slot[hit], minlength=surviving.occupied.size)
    member_majorant = member_weights(surviving, masked_f, counts * cell_width(L))

    t_conj = conjugate_exponent(t)
    e_measure, f_measure = measure(e_set), measure(f_set)
    stats = []
    majorant = 0.0
    model_majorant = 0.0
    for (n, m), bucket in sorted(decomposition.buckets.items()):
        bucket_sum = 0.0
        for tree in bucket.trees:
            bucket_sum += tree_sum(tree, member_majorant)
        majorant += bucket_sum
        model_term = (
            2.0 ** (-n - m)
            * (2.0**m * f_measure) ** (1.0 / t_conj)
            * (2.0 ** (2 * n) * e_measure) ** (1.0 / t)
        )
        model_majorant += model_term
        stats.append({"n": n, "m": m, "sum": bucket_sum, "count_bound_ratio": bucket.count_ratio})

    return ratio_report(
        pairing,
        majorant,
        buckets=stats,
        model_majorant=model_majorant,
        model_ratio=safe_ratio(majorant, model_majorant),
        surviving=len(surviving),
        t=t,
    )


def collection_caps(
    collection: TileCollection,
    h: GridSet,
    g: GridSet,
    h_prime: GridSet,
    e_for_mass: GridSet,
    choice: ChoiceFunction,
) -> dict:
    """Measured size/mass of the collection surviving the H' carving, against
    the caps forced by the construction (mass <= c |G| / |H| exactly, for the
    carving constant c = `CARVING` of `norm_decay_point`)."""
    from .tiles import mass as tile_mass
    from .tiles import size_bound, mass_bound

    surviving = retain_meeting(collection, h_prime)
    ratio = safe_ratio(measure(g), measure(h))
    return {
        "mass": tile_mass(surviving, e_for_mass, choice),
        "mass_cap": CARVING * ratio,
        "mass_bound": mass_bound(surviving, e_for_mass),
        "size_bound": size_bound(surviving, GridSignal(h.resolution, h.mask.astype(complex))),
        "surviving": len(surviving),
    }


def _choice_family(
    op_collection: TileCollection, resolution: int, rng: np.random.Generator, probes: VectorSignal, a_set: GridSet
) -> list[ChoiceFunction]:
    """A constant choice, two random ones and the greedy ones of the probes,
    fitted on A, the only cells the restricted operator reads them at."""
    n = 1 << resolution
    family = [ChoiceFunction.constant(resolution, n // 2)]
    for _ in range(2):
        family.append(ChoiceFunction(resolution, rng.integers(0, n, size=n)))
    return family + greedy_choice(probes, op_collection, a_set)


def norm_decay_point(
    h: GridSet,
    g: GridSet,
    collection: TileCollection,
    seed: int = 0,
    iters: int = STEP_CAP,
    branch: str = "h",
) -> dict:
    """Measured norm of the restricted operator for one (G, H) pair, taking
    the worst choice function over a family that includes a greedy adversary
    re-fit, for up to two rounds, to the current top right Ritz vector.  The
    h branch carves H to H minus {M 1_G >= c |G| / |H|}, the g branch G to
    G minus {M 1_H >= c |H| / |G|}, c = `CARVING`; each keeps at least half
    of its set.

    Besides the norm, reports as `iterations` the Lanczos steps and the
    convergence flag of the `restricted_norm` run that gave it (0 steps and
    converged on the dense path), its upper bound `norm_upper` (None on the
    Krylov path) and `unconverged`, the number of runs of the point that
    stopped at the cap `iters` unconverged.  The greedy choices are fitted
    on A alone, so a returned greedy `choice` is 0 off A."""
    L = h.resolution
    rng = np.random.default_rng(seed)
    if branch == "h":
        h_prime = exceptional_complement(h, g)
        a_set, b_set, keep = g, h_prime, h_prime
        ratio = safe_ratio(measure(g), measure(h))
    elif branch == "g":
        g_prime = exceptional_complement(g, h)
        a_set, b_set, keep = g_prime, h, g_prime
        ratio = safe_ratio(measure(h), measure(g))
    else:
        raise ValueError(f"unknown branch {branch!r}")
    surviving = retain_meeting(collection, keep)
    probe = VectorSignal(L, rng.standard_normal((1, 1 << L)))
    family = _choice_family(surviving, L, rng, probe, a_set)
    # chain i: the best (result, choice) so far for family member i, refit
    # while a round raises its norm; each round fits its greedy choices and
    # runs its norms as one stack each
    results = restricted_norm(
        a_set, b_set, surviving, family, [seed + idx for idx in range(len(family))], iters=iters
    )
    chains = list(zip(results, family))
    unconverged = sum(not res.converged for res in results)
    active = [i for i, res in enumerate(results) if res.top_vector is not None]
    for round_ in range(2):
        if not active:
            break
        tops = np.array([chains[i][0].top_vector for i in active]) * b_set.mask
        refits = greedy_choice(VectorSignal(L, tops), surviving, a_set)
        results = restricted_norm(
            a_set, b_set, surviving, refits, [seed + 131 + round_] * len(active), iters=iters
        )
        unconverged += sum(not res.converged for res in results)
        improving = []
        for i, refit, res in zip(active, refits, results):
            if res.norm > chains[i][0].norm:
                chains[i] = (res, refit)
                if res.top_vector is not None:
                    improving.append(i)
        active = improving
    winner, best_choice = chains[0]
    for res, choice in chains[1:]:
        if res.norm > winner.norm:
            winner, best_choice = res, choice
    return {
        "norm": winner.norm,
        "ratio": ratio,
        "choice": best_choice,
        "kept": measure(keep),
        "iterations": winner.steps,
        "converged": winner.converged,
        "norm_upper": winner.norm_upper,
        "unconverged": unconverged,
    }


def norm_decay_ladder(resolution: int, ratios, seed: int = 0, branch: str = "h") -> dict:
    """Norm decay along a ladder of measure ratios, with the fitted log-log
    slope, over every bi-tile of the grid.  The large set is the whole grid;
    the small set is drawn at the exact ladder measure (a ratio that rounds
    to no cell is rejected); for the g branch the roles are swapped.  The
    report's `unconverged` counts the norm runs of the whole ladder that
    stopped unconverged."""
    rng = np.random.default_rng(seed)
    n = 1 << resolution
    counts = [round(ratio * n) for ratio in ratios]
    if any(count < 1 for count in counts):
        raise ValueError(f"ratio {min(ratios)} draws no cell at resolution {resolution}")
    collection = TileCollection.all(resolution)
    points = []
    unconverged = 0
    for i, count in enumerate(counts):
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=count, replace=False)] = True
        small = GridSet(resolution, mask)
        big = GridSet.full(resolution)
        if branch == "h":
            point = norm_decay_point(big, small, collection, seed=seed + 7 * i, branch="h")
        else:
            point = norm_decay_point(small, big, collection, seed=seed + 7 * i, branch="g")
        points.append({"log_ratio": math.log2(point["ratio"]), "log_norm": math.log2(max(point["norm"], 1e-300))})
        unconverged += point["unconverged"]
    xs = np.array([pt["log_ratio"] for pt in points])
    ys = np.array([pt["log_norm"] for pt in points])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return {
        "ratio_ladder": points,
        "slope": float(slope),
        "intercept": float(intercept),
        "branch": branch,
        "resolution": resolution,
        "unconverged": unconverged,
    }


def verify_vector_carleson(
    fams: VectorSignal,
    choices: list[ChoiceFunction] | None,
    p: float,
) -> dict:
    """Both sides of the vector model-operator bound with per-member choice
    functions, member j taking choice j modulo their number, over every
    bi-tile of the grid; when none are supplied each member gets the greedy
    adversary fitted to itself.  One model-sum plan holds every member, and
    each member's output is the one `model_sum` gives it, bit for bit."""
    check_exponent(p)
    if choices is not None and not choices:
        raise ValueError("choices must name at least one choice function")
    L = fams.resolution
    collection = TileCollection.all(L)
    if choices is None:
        choices = greedy_choice(fams, collection, GridSet.full(L))
    plan = ModelSumPlan([choices[j % len(choices)] for j in range(len(fams))], collection)
    lhs = bundle_norm(plan.apply(fams.stack), p, L)
    rhs = bundle_norm(fams.stack, p, fams.resolution)
    return ratio_report(lhs, rhs, p=p, family_size=len(fams))
