"""Restricted-type interpolation engine.

The engine certifies, on the grid, the hypotheses and bookkeeping of the
two-set localization argument: the subset builders keep at least half the
measure of each set, the localized operators have measured L2 -> L2 norms
(Golub-Kahan-Lanczos with exact adjoints), the recursive three-way splitting
loses a factor of at least two in product measure per level, and the
geometric error budget halves per level: its factor
3 * 6**(-max(p, p') * min(1/p, 1/p')) is 3 * 6**-1 = 1/2 at every p, since
max(p, p') * min(1/p, 1/p') = 1, so the budget of level k is exactly 2**-k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import GridSet, VectorSignal, bundle_norm, check_positive_measure, conjugate_exponent, measure, ordered_sum, stack_slices
from .maximal import exceptional_complement
from .reports import ratio_report


@dataclass(frozen=True)
class OperatorFamily:
    """A finite family of linear maps on cell arrays, with their adjoints,
    applied to stacks: `apply(rows, x)` maps slab i of the stack x by member
    rows[i], and `adjoint(rows, x)` by that member's adjoint."""

    size: int
    apply: Callable[[Sequence[int], np.ndarray], np.ndarray]
    adjoint: Callable[[Sequence[int], np.ndarray], np.ndarray]

    def __len__(self) -> int:
        return self.size

    @classmethod
    def of(cls, maps: list, adjoints: list) -> "OperatorFamily":
        """The family of maps[i] with adjoint adjoints[i], each run on its
        own slab."""

        def slabwise(fns):
            return lambda rows, x: np.stack([fns[i](slab) for i, slab in zip(rows, x)])

        return cls(len(maps), slabwise(maps), slabwise(adjoints))


@dataclass
class SubsetBuilder:
    """Rule (H, G) -> (H', G') with each output keeping at least half the
    measure of its input; violations raise immediately."""

    build: Callable[[GridSet, GridSet], tuple[GridSet, GridSet]]
    label: str = ""

    def __call__(self, h: GridSet, g: GridSet) -> tuple[GridSet, GridSet]:
        h_sub, g_sub = self.build(h, g)
        if measure(h_sub) < 0.5 * measure(h) or measure(g_sub) < 0.5 * measure(g):
            raise ValueError(f"subset builder {self.label!r} lost more than half a set")
        if np.any(h_sub.mask & ~h.mask) or np.any(g_sub.mask & ~g.mask):
            raise ValueError(f"subset builder {self.label!r} left the input sets")
        return h_sub, g_sub


def trim_builder(c: float, sides: str) -> SubsetBuilder:
    """Prune the dyadic intervals dense in the other set from H (sides "h"),
    from G ("g"), or from both against each other ("both"); an unpruned set
    is kept whole.

    `exceptional_complement(base, marker, c)` removes nothing unless
    c |marker| / |base| <= 1, since no density exceeds 1. So with c =
    `CARVING` = 4, one "both" split carves H only when |G| <= |H| / 4 and
    G only when |H| <= |G| / 4: never both sets at once."""
    if sides not in ("h", "g", "both"):
        raise ValueError(f"sides must be 'h', 'g' or 'both', got {sides!r}")

    def build(h: GridSet, g: GridSet):
        h_sub = exceptional_complement(h, g, c) if sides != "g" and measure(h) > 0 else h
        g_sub = exceptional_complement(g, h, c) if sides != "h" and measure(g) > 0 else g
        return h_sub, g_sub

    return SubsetBuilder(build, label=f"trim-{sides}(c={c})")


# the step cap of every norm run of the library: the engine grows its arrays
# toward it and stops there, so a run that settles earlier takes the same
# steps, and gives the same bytes, under any larger cap. The slowest runs
# measured take 69-70 steps (verify cordoba at L = 6, 7) and 75 (verify
# biparam at L = 7)
STEP_CAP = 200


@dataclass
class PowerIterationResult:
    norm: float
    iterations: int
    converged: bool
    top_vector: np.ndarray | None = None


def _check_loop(cap_name: str, cap: int, tol: float) -> None:
    if cap < 1:
        raise ValueError(f"{cap_name} must be at least 1, got {cap}")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")


def _start_vector(seed, shape) -> np.ndarray:
    """The unit complex Gaussian vector both norm loops start a member from."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(np.ravel(v))


def power_iteration(
    family: OperatorFamily,
    shape,
    iters: int = STEP_CAP,
    tol: float = 1e-9,
    seed: int = 0,
) -> PowerIterationResult:
    """Largest singular value of a family's member 0 by power iteration on
    A*A, on a one-slab stack of `shape` cells.

    The library's norms run on `top_singular`; this plain loop is kept as
    a reference.  The Rayleigh quotient is monotone nondecreasing along
    the iteration; the flag records whether its relative increment fell
    below tol.
    """
    _check_loop("iters", iters, tol)
    v = _start_vector(seed, (1, *shape))
    lam_prev, lam = -1.0, 0.0
    for it in range(1, iters + 1):
        # a copy: a family may overwrite its input, and v is the top vector returned
        w = family.apply([0], v.copy())
        lam = float(np.vdot(np.ravel(w), np.ravel(w)).real)
        if lam == 0.0:
            return PowerIterationResult(0.0, it, True, None)
        if lam_prev >= 0 and abs(lam - lam_prev) <= tol * lam:
            return PowerIterationResult(math.sqrt(lam), it, True, v[0])
        lam_prev = lam
        v = family.adjoint([0], w)
        nv = np.linalg.norm(np.ravel(v))
        if nv == 0.0:
            return PowerIterationResult(math.sqrt(lam), it, True, None)
        v = v / nv
    return PowerIterationResult(math.sqrt(lam), iters, False, v[0])


@dataclass(frozen=True)
class TopSingularResult:
    """One member's measurement by `top_singular`: the largest Ritz value,
    the steps taken (one apply and, after the first, one adjoint each),
    whether the Ritz value settled before the step cap and, when asked
    for and the norm is positive, the top right Ritz vector.  A dense
    measurement (`carleson.restricted_norm` at small resolutions) takes no
    step, and also carries `norm_upper`, an upper bound on the norm from
    the SVD's stated backward error; a Ritz value is only a lower bound."""

    norm: float
    steps: int
    converged: bool
    top_vector: np.ndarray | None = field(default=None, compare=False)
    norm_upper: float | None = None


def top_singular(
    family: OperatorFamily,
    out_mask: np.ndarray,
    in_mask: np.ndarray,
    seeds,
    tol: float = 1e-9,
    max_steps: int = STEP_CAP,
    vectors: bool = False,
) -> list[TopSingularResult]:
    """Largest singular values of a family's members localized by the
    masks, v -> T_i(v 1_in) 1_out with adjoint v -> T_i*(v 1_out) 1_in, by
    Golub-Kahan-Lanczos bidiagonalization, run on stacks of members.

    Member i starts from the unit complex Gaussian vector of seeds[i], and
    members leave their stack as they stop.  Every per-member reduction
    runs on that member's slab alone, so each result equals a one-member
    run bit for bit.  Step k extends the bidiagonal B of A on the Krylov
    space of A*A by one column; the norm is the square root of the largest
    eigenvalue of B^T B (the top Ritz value), which A attains on that
    space, so in exact arithmetic it is never below the power iterate
    after as many applies (G. Golub and W. Kahan, SIAM J. Numer. Anal. B 2,
    1965; J. Kuczynski and H. Wozniakowski, SIAM J. Matrix Anal. Appl. 13,
    1992).  A member stops when its Ritz value moves by at most tol
    relative, or when the recurrence breaks down on an invariant space,
    where the value is exact.  Only an exact breakdown stops it (alpha or
    beta exactly 0.0): at a near-breakdown, beta about 1e-16, the next
    Lanczos vector is the rounding residue normalized and the run goes on,
    so where the top singular value is repeated the top vector depends on
    the operator's last bits.  There is no reorthogonalization: rounding
    may let a copy of the top value reappear, but the top Ritz value still
    converges to the norm.  With `vectors`, the right Lanczos vectors V_k
    are kept and each positive result carries V_k y, y the top eigenvector
    of B^T B.

    A member may overwrite the array it is given: `family.apply` and
    `family.adjoint` get the engine's masked copy, which the engine does
    not read again.  The engine masks the array a member returns in
    place, so that array must be held nowhere else.
    """
    _check_loop("max_steps", max_steps, tol)
    seeds = list(seeds)
    if len(seeds) != len(family):
        raise ValueError(f"expected one seed per family member, got {len(seeds)} for {len(family)}")
    # cast once: the product of a complex array and a bool mask casts the
    # mask to complex128 itself, so the products keep their bits
    out_mask, in_mask = out_mask.astype(np.complex128), in_mask.astype(np.complex128)
    results: list[TopSingularResult] = []
    for s in stack_slices(len(seeds), in_mask.size):
        members = list(range(s.start, s.stop))
        results.extend(_lanczos_stack(family, out_mask, in_mask, members, seeds, tol, max_steps, vectors))
    return results


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Each slab's 2-norm, reduced as a power iteration's Rayleigh quotient
    is, so the first Ritz value is the first power iterate: `vecdot`
    conjugates its first argument and takes the `vdot` of each row."""
    x = x.reshape(len(x), -1)
    return np.sqrt(np.vecdot(x, x).real)


def _ritz_vectors(ritz: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """V_k y per row, y the top eigenvector of the row's k x k B^T B in
    `ritz` and V_k the row's first k Lanczos vectors in `basis`; the sum
    runs in step order, one elementwise product and add per step, so each
    row's bytes are its own."""
    y = np.linalg.eigh(ritz)[1][:, :, -1:]
    x = basis[:, 0] * y[:, 0]
    for j in range(1, y.shape[1]):
        x += basis[:, j] * y[:, j]
    return x


def _lanczos_stack(family, out_mask, in_mask, members, seeds, tol, max_steps, vectors) -> list[TopSingularResult]:
    shape = in_mask.shape
    slab = (-1,) + (1,) * len(shape)
    done: dict[int, TopSingularResult] = {}
    # per-row state of the members still in the stack: the Lanczos vectors
    # v and u, the last alpha and beta, B^T B so far, the last Ritz value
    # and the row of the member's kept vectors; v and u are this loop's own,
    # so each recurrence writes into the vector it replaces and leaves alone
    # whatever the family hands back. Members that share a seed share its
    # start vector, drawn once
    starts = {seed: _start_vector(seed, shape) for seed in {seeds[i] for i in members}}
    v = np.stack([starts[seeds[i]] for i in members])
    u = np.empty_like(v)
    lam = np.zeros(len(members))
    place = np.arange(len(members))
    # B^T B is tridiagonal: step k writes its k-th diagonal entry and the
    # entry left of it, in the lower triangle that `eigvalsh` and `eigh`
    # read, and every other entry stays zero. Its steps and those of V_k,
    # kept by the row of the member in the first stack, double when full,
    # since most members stop long before the cap
    ritz = np.zeros((len(members), min(8, max_steps), min(8, max_steps)))
    basis = np.empty((len(members), min(8, max_steps), v[0].size), complex) if vectors else None

    def stop(rows, k, converged):
        """Record the rows' results after k steps."""
        tops = dict.fromkeys(rows)
        positive = [row for row in rows if lam[row] > 0.0]
        if vectors and positive:
            x = _ritz_vectors(ritz[positive, :k, :k], basis[place[positive], :k])
            tops.update(zip(positive, x.reshape(len(positive), *shape)))
        for row in rows:
            done[members[row]] = TopSingularResult(math.sqrt(lam[row]), k, converged, tops[row])

    def leave(rows, *stacks):
        nonlocal members
        keep = [r for r in range(len(members)) if r not in rows]
        members = [members[r] for r in keep]
        return [s[keep] for s in stacks]

    def masked(run, x, mask):
        """run(members, x), masked in place."""
        image = run(members, x)
        return np.multiply(image, mask, out=image)

    def extend(image, coef, last):
        """last = image - coef * last in place, row by row; its row norms."""
        np.subtract(image, np.multiply(last, coef.reshape(slab), out=last), out=last)
        return _row_norms(last)

    def scale(stack, norms):
        """stack /= norms by row, in place, on a contiguous complex stack: as
        numpy's complex division by a real, each part times 1 / norm (bar
        the sign of a zero part, which no norm or modulus reads)."""
        rows = stack.view(np.float64).reshape(len(stack), -1)
        np.multiply(rows, (1.0 / norms)[:, None], out=rows)

    for k in range(1, max_steps + 1):
        if k > 1:
            beta = extend(masked(family.adjoint, u * out_mask, in_mask), alpha, v)
            if 0.0 in beta:
                # A*A maps the Krylov space into itself: the last value is exact
                stopped = np.flatnonzero(beta == 0.0)
                stop(stopped, k - 1, True)
                v, u, alpha, beta, ritz, lam, place = leave(stopped, v, u, alpha, beta, ritz, lam, place)
                if not members:
                    break
            scale(v, beta)
        if k > ritz.shape[1]:
            grow = min(k - 1, max_steps - k + 1)
            ritz = np.pad(ritz, ((0, 0), (0, grow), (0, grow)))
            if vectors:
                basis = np.pad(basis, ((0, 0), (0, grow), (0, 0)))
        if vectors:
            basis[place, k - 1] = v.reshape(len(v), -1)
        if k == 1:
            np.copyto(u, masked(family.apply, v * in_mask, out_mask))
            alpha = _row_norms(u)
            ritz[:, 0, 0] = alpha**2
        else:
            # B has the alphas on its diagonal and the betas above it
            ritz[:, k - 1, k - 2] = alpha * beta
            alpha = extend(masked(family.apply, v * in_mask, out_mask), beta, u)
            ritz[:, k - 1, k - 1] = alpha**2 + beta**2
        lam_prev, lam = lam, np.linalg.eigvalsh(ritz[:, :k, :k])[:, -1]
        settled = alpha == 0.0
        if k > 1:
            settled |= np.abs(lam - lam_prev) <= tol * lam
        stopped = np.flatnonzero(settled)
        if len(stopped):
            stop(stopped, k, True)
            v, u, alpha, ritz, lam, place = leave(stopped, v, u, alpha, ritz, lam, place)
            if not members:
                break
        scale(u, alpha)
    stop(range(len(members)), max_steps, False)
    return [done[i] for i in sorted(done)]


def condition_constant(norms: list[float], ratio: float, p: float) -> float:
    """The two-set constant max_j ||T_j||**2 / (|G|/|H|)**(1 - 2/p) of
    measured localized norms at exponent p, with ratio = |G|/|H|."""
    return max((nm**2 for nm in norms), default=0.0) / ratio ** (1.0 - 2.0 / p)


def measure_condition(
    family: OperatorFamily,
    h: GridSet,
    g: GridSet,
    builder: SubsetBuilder,
    p: float,
    seed: int = 0,
) -> dict:
    """Measured constant of the localized two-set bound at exponent p.

    For each family member j, the norm of f -> T_j(f 1_{H'}) 1_{G'} is
    measured by `top_singular` from seed `seed + j`, all members in one
    stack at the engine's step cap and tolerance, and normalized by
    (|G|/|H|)**(1 - 2/p); the report carries the largest observed constant,
    a probe-measured restricted weak-type constant, and its summed series.
    It also has each member's norm and Lanczos steps, and `unconverged`,
    the runs that stopped at the cap.
    """
    if not len(family):
        raise ValueError("the operator family is empty")
    check_positive_measure(h=h, g=g)
    conjugate_exponent(p)
    h_sub, g_sub = builder(h, g)
    ratio = measure(g) / measure(h)

    j_count = len(family)
    seeds = [seed + j for j in range(j_count)]
    results = top_singular(family, g_sub.mask, h_sub.mask, seeds, vectors=True)
    norms = [res.norm for res in results]
    top_vectors = [res.top_vector for res in results]
    unconverged = sum(not res.converged for res in results)

    c_p = condition_constant(norms, ratio, p)

    # restricted weak-type probe: vector input with pointwise l2 at most 1_{H'}
    probes = []
    flat = h_sub.mask.astype(np.complex128) / math.sqrt(j_count)
    probes.append([flat] * j_count)
    if any(v is not None for v in top_vectors):
        row = []
        for v in top_vectors:
            base = flat if v is None else np.asarray(v) * h_sub.mask
            sup = float(np.max(np.abs(base)))
            row.append(base / (sup * math.sqrt(j_count)) if sup > 0 else flat)
        probes.append(row)
    resolution = h.resolution
    denom = measure(h) ** (1.0 / p) * measure(g) ** (1.0 / conjugate_exponent(p))
    b_p = 0.0
    for row in probes:
        stack = family.apply(range(j_count), np.stack(row))
        # the integral over G' of the l2 bundle of the outputs
        integral = bundle_norm(stack * g_sub.mask, 1.0, resolution)
        b_p = max(b_p, integral / denom)
    series = ordered_sum([b_p * 0.5**k for k in range(64)])

    return {
        "p": p,
        "C_p": c_p,
        "B_p": b_p,
        "A_p": series,
        "norms": norms,
        "iterations": [res.steps for res in results],
        "converged": unconverged == 0,
        "unconverged": unconverged,
        "h_kept": measure(h_sub) / measure(h),
        "g_kept": measure(g_sub) / measure(g),
        "measure_ratio": ratio,
    }


def splitting_cascade(
    h: GridSet,
    g: GridSet,
    builder: SubsetBuilder,
    k_max: int,
) -> list[dict]:
    """Run the recursive three-way splitting for k_max levels.

    Each pair (G*, H*) splits into (G*-G', H'), (G', H*-H'), (G*-G', H*-H');
    by the half-measure guarantee every child loses at least half the product
    measure, so level k is bounded by 2**-k |G||H|.  The level budget is the
    exact scalar (1/2)**k.  Pairs with an empty side are not split further
    (every descendant has product measure zero).
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    base_product = measure(g) * measure(h)
    pairs: list[tuple[GridSet, GridSet]] = [(g, h)]
    levels = []
    for k in range(1, k_max + 1):
        children: list[tuple[GridSet, GridSet]] = []
        max_product = 0.0
        for g_star, h_star in pairs:
            if measure(g_star) == 0.0 or measure(h_star) == 0.0:
                continue
            h_sub, g_sub = builder(h_star, g_star)
            for pair in (
                (g_star - g_sub, h_sub),
                (g_sub, h_star - h_sub),
                (g_star - g_sub, h_star - h_sub),
            ):
                product = measure(pair[0]) * measure(pair[1])
                max_product = max(max_product, product)
                if product > 0.0:
                    children.append(pair)
        bound = base_product * 0.5**k
        if max_product > bound:
            raise AssertionError(
                f"level {k} product measure {max_product} exceeds bound {bound}"
            )
        levels.append({"k": k, "max_product_measure": max_product, "budget": 0.5**k})
        pairs = children
        if not pairs:
            # remaining levels are exactly zero
            for kk in range(k + 1, k_max + 1):
                levels.append({"k": kk, "max_product_measure": 0.0, "budget": 0.5**kk})
            break
    return levels


def vector_inequality_ratio(family: OperatorFamily, fams: VectorSignal, q: float) -> dict:
    """Both sides of the vector conclusion at exponent q: the l2 bundle of
    T_j f_j against the l2 bundle of f_j, in L^q; f_j goes to member j
    modulo the family's size."""
    if not len(family):
        raise ValueError("the operator family is empty")
    stack = family.apply([j % len(family) for j in range(len(fams))], fams.stack)
    lhs = bundle_norm(stack, q, fams.resolution)
    rhs = bundle_norm(fams.stack, q, fams.resolution)
    return ratio_report(lhs, rhs, q=q, family_size=len(fams))
