"""Dyadic maximal function, its stopping-scale linearization, the interval
size/mass counting machinery behind the vector-valued maximal inequality,
and the size/mass bucket loop that tile and rectangle decompositions share.

The grid makes every statement exact: level sets of the dyadic maximal
function are disjoint unions of dyadic intervals, the weak (1,1) bound holds
with constant 1, and the stopping-scale operators are literal finite sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (
    GridSet,
    GridSignal,
    VectorSignal,
    bundle_norm,
    check_exponent,
    check_positive_measure,
    check_resolution,
    check_same_grid,
    conjugate_exponent,
    lp_norm,
    measure,
)
from .reports import ratio_report


def scale_averages(values: np.ndarray, resolution: int) -> list[np.ndarray]:
    """avgs[k][n] = average of `values` over the scale-k interval at offset n."""
    avgs = [None] * (resolution + 1)
    cur = np.asarray(values)
    avgs[resolution] = cur
    for k in range(resolution - 1, -1, -1):
        cur = 0.5 * (cur[0::2] + cur[1::2])
        avgs[k] = cur
    return avgs


def dyadic_maximal(f: GridSignal) -> GridSignal:
    """Mf(x) = max over dyadic intervals I containing x of the average of |f|."""
    L = f.resolution
    avgs = scale_averages(np.abs(f.values), L)
    out = avgs[L].copy()
    for k in range(L):
        np.maximum(out, np.repeat(avgs[k], 1 << (L - k)), out=out)
    return GridSignal(L, out)


def slot_scales(resolution: int) -> np.ndarray:
    """Scale of every interval in `all_intervals` order: 2**k entries k."""
    return np.repeat(np.arange(resolution + 1), 1 << np.arange(resolution + 1))


@dataclass(frozen=True, eq=False)
class ScaleChoice:
    """Cellwise constant stopping scale: kappa(x) = 2**-scales[x]."""

    resolution: int
    scales: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_resolution(self.resolution)
        scales = np.array(self.scales, dtype=np.int64)
        n = 1 << self.resolution
        if scales.shape != (n,):
            raise ValueError(f"expected {n} scale entries, got shape {scales.shape}")
        if scales.min(initial=0) < 0 or scales.max(initial=0) > self.resolution:
            raise ValueError("scales must lie in [0, resolution]")
        scales.flags.writeable = False
        object.__setattr__(self, "scales", scales)

    @classmethod
    def constant(cls, resolution: int, scale: int) -> "ScaleChoice":
        return cls(resolution, np.full(1 << resolution, scale, dtype=np.int64))

    @classmethod
    def from_lengths(cls, resolution: int, lengths) -> "ScaleChoice":
        lengths = np.asarray(lengths, dtype=float)
        scales = np.round(-np.log2(lengths)).astype(np.int64)
        if not np.all(2.0**-scales == lengths):
            raise ValueError("every length must be a dyadic 2**-k at the grid resolution")
        return cls(resolution, scales)

    @cached_property
    def slot(self) -> np.ndarray:
        """Per cell x, the position of its stopping interval in
        `all_intervals` order: 2**k - 1 + (x >> (L - k)) with k = scales[x]."""
        L, k = self.resolution, self.scales
        slot = (1 << k) - 1 + (np.arange(1 << L) >> (L - k))
        slot.flags.writeable = False
        return slot

    def average(self, values: np.ndarray) -> np.ndarray:
        """The cell values of `linearized_maximal` for these."""
        values = np.asarray(values, dtype=np.complex128)
        return np.concatenate(scale_averages(values, self.resolution))[self.slot]

    def average_adjoint(self, values: np.ndarray) -> np.ndarray:
        """T* g = sum over dyadic I of (1/|I|) <g, 1_{V_I}> 1_I, the adjoint
        of `average`: one `bincount` of g over the slots, real and imaginary
        parts apart, spread back over the intervals scale by scale (a scale
        no cell stops at adds +0.0, which changes no bit of a sum that
        started at +0.0)."""
        L, values = self.resolution, np.asarray(values, dtype=np.complex128)
        sums = np.bincount(self.slot, values.real, minlength=(2 << L) - 1).astype(np.complex128)
        sums.imag = np.bincount(self.slot, values.imag, minlength=(2 << L) - 1)
        out = np.zeros(1 << L, dtype=np.complex128)
        for k in range(L + 1):
            out += np.repeat(sums[(1 << k) - 1 : (2 << k) - 1], 1 << (L - k)) * 2.0 ** (k - L)
        return out


def greedy_scales(f: GridSignal) -> ScaleChoice:
    """Stopping scales that make the linearized operator attain M|f|: per
    cell, the coarsest scale whose average of |f| attains the maximum."""
    L = f.resolution
    avgs = scale_averages(np.abs(f.values), L)
    stack = [np.repeat(avg, 1 << (L - k)) for k, avg in enumerate(avgs)]
    return ScaleChoice(L, np.argmax(stack, axis=0))


def linearized_maximal(f: GridSignal, choice: ScaleChoice) -> GridSignal:
    """T f(x) = average of f over the interval of length kappa(x) containing x.

    Equals sum over dyadic I of (1/|I|) <f, 1_I> 1_{V_I}; each cell receives
    exactly one term because the stopping sets V_I tile the grid, so T is one
    gather from the averages pyramid at the cells' slots.
    """
    return GridSignal(check_same_grid(f=f, choice=choice), choice.average(f.values))


def maximal_level_set(marker: GridSet, threshold: float) -> GridSet:
    """{M 1_marker >= threshold}; equals the union of all dyadic intervals
    whose marker density is at least the threshold, since M takes the exact
    maximum of those densities."""
    return GridSet(marker.resolution, dyadic_maximal(marker.indicator()).values.real >= threshold)


# the carving constant of every exceptional set on the line: the decay
# points, the principle's subset builders and the mass cap they force
CARVING = 4.0


def exceptional_complement(base: GridSet, marker: GridSet, c: float = CARVING) -> GridSet:
    """base minus the union of dyadic intervals where the marker density is at
    least c * |marker| / |base|.

    For c >= 4 the weak (1,1) bound (constant 1) removes at most |base|/c, so
    the remainder keeps at least half the measure of the base.
    """
    check_same_grid(base=base, marker=marker)
    if measure(marker) == 0.0:
        return base
    check_positive_measure(base=base)
    threshold = c * measure(marker) / measure(base)
    return base - maximal_level_set(marker, threshold)


def interval_size_mass(
    e: GridSet,
    h_prime: GridSet,
    f_set: GridSet,
    g: GridSet,
    choice: ScaleChoice,
) -> tuple[np.ndarray, np.ndarray]:
    """size(I) = |E ∩ H' ∩ I| / |I| and mass(I) = |F ∩ G ∩ V_I| / |I| for
    every dyadic I, as pyramids in `all_intervals` (slot) order."""
    L = check_same_grid(e=e, h_prime=h_prime, f_set=f_set, g=g, choice=choice)
    sizes = np.concatenate(scale_averages((e.mask & h_prime.mask).astype(float), L))
    counts = np.bincount(choice.slot[f_set.mask & g.mask], minlength=(2 << L) - 1)
    return sizes, counts / (1 << (L - slot_scales(L)))


def dyadic_class(value: float) -> int:
    """Class index n with 2**-(n+1) < value <= 2**-n; exact powers go to n.
    Negative for values above one (sizes can exceed one; densities cannot)."""
    if not 0 < value < math.inf:
        raise ValueError(f"class index needs a positive finite value, got {value}")
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent, 0.5 <= mantissa < 1
    return 1 - exponent if mantissa == 0.5 else -exponent


def next_class(value: float, prev: int | None) -> int:
    """Class index of one round of a size or mass decomposition: the dyadic
    class of the value, strictly above the previous round's index (halving
    guarantees it for positive values; a zero value takes the next slot)."""
    n = dyadic_class(value) if value > 0 else (0 if prev is None else prev + 1)
    return n if prev is None else max(n, prev + 1)


@dataclass
class ForestBucket:
    """The trees split off in one round of a size and mass decomposition,
    with their certified caps size <= 2**-n and mass <= 2**-m."""

    n: int
    m: int
    trees: list
    size_cap: float
    mass_cap: float
    tops_measure: float
    count_ratio: float


@dataclass
class Decomposition:
    buckets: dict[tuple[int, int], ForestBucket]
    remainder: object


def bucket_decompose(
    collection, f: GridSignal, e: GridSet, size, mass, split_size, split_mass
) -> Decomposition:
    """Iterate the size and mass splittings into (n, m) buckets of trees with
    certified caps size <= 2**-n and mass <= 2**-m, for tiles on the line and
    rectangles in the plane alike.

    `size(c)` and `mass(c)` measure a collection; `split_size(c, thr)` and
    `split_mass(c, thr)` return the remainder, whose size (mass) is at most
    thr, and the list of trees split off. Members with exactly zero size and
    mass can never be selected and are returned as the remainder. Per bucket
    the counting ratio sum |top| / min(2**(2n) ||f||_2^2, 2**m |e|) is
    recorded, with |top| the trees' `top_measure`.
    """
    current = collection
    buckets: dict[tuple[int, int], ForestBucket] = {}
    norm_sq = lp_norm(f.values, 2.0, f.resolution) ** 2
    e_measure = measure(e)
    n_prev: int | None = None
    m_prev: int | None = None

    while len(current):
        sigma, mu = size(current), mass(current)
        if sigma == 0.0 and mu == 0.0:
            break
        n, m = next_class(sigma, n_prev), next_class(mu, m_prev)
        trees = []
        if sigma > 0:
            current, forest = split_size(current, 2.0 ** -(n + 1))
            trees.extend(forest)
        if mu > 0:
            current, forest = split_mass(current, 2.0 ** -(m + 1))
            trees.extend(forest)
        tops_measure = sum(t.top_measure for t in trees)
        cap = min(2.0 ** (2 * n) * norm_sq, 2.0**m * e_measure)
        buckets[(n, m)] = ForestBucket(
            n=n,
            m=m,
            trees=trees,
            size_cap=2.0**-n,
            mass_cap=2.0**-m,
            tops_measure=tops_measure,
            count_ratio=tops_measure / cap if cap > 0 else math.inf,
        )
        n_prev, m_prev = n, m

    return Decomposition(buckets=buckets, remainder=current)


def _ordered_sum(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., added left to right."""
    return float(np.cumsum(np.append(0.0, values))[-1])


def restricted_double_sum(
    e: GridSet,
    f_set: GridSet,
    h_prime: GridSet,
    g: GridSet,
    choice: ScaleChoice,
    s: float,
    h: GridSet | None = None,
) -> dict:
    """Full double sum over dyadic intervals meeting H' of
    size(I) * mass(I) * |I|, bucketed by the dyadic classes of size and mass.

    Reports per-bucket sums, the maximal-interval counting ratio
    sum |J| / min(2**n |E|, 2**m |F|), and the total against
    (|G|/|H|)**(1/s) * |E|**(1/s) * |F|**(1/s').
    """
    check_exponent(s, "s")
    L = e.resolution if h is None else check_same_grid(e=e, h=h)
    sizes, masses = interval_size_mass(e, h_prime, f_set, g, choice)
    lengths = np.ldexp(1.0, -slot_scales(L))
    terms = sizes * masses * lengths
    # an interval missing H' has size 0, so the live terms are those of
    # intervals meeting H'; every sum runs in slot order
    live = np.flatnonzero(terms)
    pairs = [(dyadic_class(a), dyadic_class(b)) for a, b in zip(sizes[live], masses[live])]
    classes, label = np.unique(np.reshape(pairs, (-1, 2)), axis=0, return_inverse=True)
    members = np.zeros((len(classes), terms.size), dtype=bool)
    members[label.ravel(), live] = True
    # a class's maximal intervals: its members with no ancestor in the class
    tops, covered = members.copy(), np.zeros((len(classes), 1), dtype=bool)
    for k in range(L + 1):
        row = slice((1 << k) - 1, (2 << k) - 1)
        tops[:, row] &= ~covered
        covered = np.repeat(covered | members[:, row], 2, axis=1)
    e_measure, f_measure = measure(e), measure(f_set)
    stats = []
    for (n, m), in_class, top in zip(classes.tolist(), members, tops):
        cap = min(2.0**n * e_measure, 2.0**m * f_measure)
        ratio = _ordered_sum(lengths[top]) / cap if cap > 0 else math.inf
        stats.append({"n": n, "m": m, "sum": _ordered_sum(terms[in_class]), "count_bound_ratio": ratio})

    h_measure = measure(h) if h is not None else measure(h_prime)
    rhs = 0.0
    if h_measure > 0 and e_measure > 0 and f_measure > 0:
        rhs = (measure(g) / h_measure) ** (1.0 / s) * e_measure ** (1.0 / s)
        rhs *= f_measure ** (1.0 / conjugate_exponent(s))
    classes = {f"{b['n']},{b['m']}": b["sum"] for b in stats}
    return ratio_report(_ordered_sum(terms[live]), rhs, buckets=stats, h_measure_used=h_measure, classes=classes)


def verify_vector_maximal(fam: VectorSignal, p: float) -> dict:
    """Both sides of the vector maximal inequality at exponent p.

    lhs = || (sum_j |M f_j|^2)^(1/2) ||_p, rhs the same with f_j in place of
    M f_j; the ratio is the quantity whose uniform boundedness in the family
    size is the content of the inequality.
    """
    check_exponent(p)
    maximal_stack = np.vstack(
        [dyadic_maximal(fam.member(j)).values.real for j in range(len(fam))]
    )
    lhs = bundle_norm(maximal_stack, p, fam.resolution)
    rhs = bundle_norm(fam.stack, p, fam.resolution)
    return ratio_report(lhs, rhs, family_size=len(fam), p=p)
