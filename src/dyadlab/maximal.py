"""Dyadic maximal function, its stopping-scale linearization, and the
interval size/mass counting machinery behind the vector-valued maximal
inequality.

The grid makes every statement exact: level sets of the dyadic maximal
function are disjoint unions of dyadic intervals, the weak (1,1) bound holds
with constant 1, and the stopping-scale operators are literal finite sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DyadicInterval,
    GridSet,
    GridSignal,
    VectorSignal,
    all_intervals,
    array_lp_norm,
    check_resolution,
    measure,
)
from .reports import BucketStat, RatioReport


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


def maximal_argmax_scales(f: GridSignal) -> np.ndarray:
    """Per cell, the coarsest scale whose average of |f| attains the maximum."""
    L = f.resolution
    avgs = scale_averages(np.abs(f.values), L)
    best = np.repeat(avgs[0], 1 << L).astype(float)
    scales = np.zeros(1 << L, dtype=np.int64)
    for k in range(1, L + 1):
        cand = np.repeat(avgs[k], 1 << (L - k))
        better = cand > best
        best[better] = cand[better]
        scales[better] = k
    return scales


@dataclass(frozen=True)
class ScaleChoice:
    """Cellwise constant stopping scale: kappa(x) = 2**-scales[x]."""

    resolution: int
    scales: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_resolution(self.resolution)
        scales = np.asarray(self.scales, dtype=np.int64)
        n = 1 << self.resolution
        if scales.shape != (n,):
            raise ValueError(f"expected {n} scale entries, got shape {scales.shape}")
        if scales.min(initial=0) < 0 or scales.max(initial=0) > self.resolution:
            raise ValueError("scales must lie in [0, resolution]")
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

    @property
    def lengths(self) -> np.ndarray:
        return 2.0**-self.scales

    def stopping_mask(self, interval: DyadicInterval) -> np.ndarray:
        """V_I = {x in I : kappa(x) = |I|} as a boolean cell mask."""
        mask = np.zeros(1 << self.resolution, dtype=bool)
        sl = interval.cell_slice(self.resolution)
        mask[sl] = self.scales[sl] == interval.scale
        return mask


def greedy_scales(f: GridSignal) -> ScaleChoice:
    """Stopping scales that make the linearized operator attain M|f|."""
    return ScaleChoice(f.resolution, maximal_argmax_scales(f))


def linearized_maximal(f: GridSignal, choice: ScaleChoice) -> GridSignal:
    """T f(x) = average of f over the interval of length kappa(x) containing x.

    Equals sum over dyadic I of (1/|I|) <f, 1_I> 1_{V_I}; each cell receives
    exactly one term because the stopping sets V_I tile the grid.
    """
    if f.resolution != choice.resolution:
        raise ValueError("resolution mismatch between signal and scale choice")
    L = f.resolution
    avgs = scale_averages(f.values, L)
    cells = np.arange(1 << L)
    out = np.empty(1 << L, dtype=np.complex128)
    for k in range(L + 1):
        sel = choice.scales == k
        if np.any(sel):
            out[sel] = avgs[k][cells[sel] >> (L - k)]
    return GridSignal(L, out)


def maximal_level_set(marker: GridSet, threshold: float) -> GridSet:
    """{M 1_marker >= threshold}; equals the union of all dyadic intervals
    whose marker density is at least the threshold."""
    L = marker.resolution
    avgs = scale_averages(marker.mask.astype(float), L)
    hit = np.zeros(1 << L, dtype=bool)
    for k in range(L + 1):
        hit |= np.repeat(avgs[k] >= threshold, 1 << (L - k))
    return GridSet(L, hit)


def exceptional_complement(base: GridSet, marker: GridSet, c: float = 4.0) -> GridSet:
    """base minus the union of dyadic intervals where the marker density is at
    least c * |marker| / |base|.

    For c >= 4 the weak (1,1) bound (constant 1) removes at most |base|/c, so
    the remainder keeps at least half the measure of the base.
    """
    if measure(marker) == 0.0:
        return base
    base_measure = measure(base)
    if base_measure == 0.0:
        raise ValueError("base set must have positive measure")
    threshold = c * measure(marker) / base_measure
    return base - maximal_level_set(marker, threshold)


def stopping_partition_ok(choice: ScaleChoice) -> bool:
    """Each cell lies in exactly one stopping set V_I."""
    total = np.zeros(1 << choice.resolution, dtype=np.int64)
    for interval in all_intervals(choice.resolution):
        total += choice.stopping_mask(interval)
    return bool(np.all(total == 1))


def interval_size_mass(
    interval: DyadicInterval,
    e: GridSet,
    h_prime: GridSet,
    f_set: GridSet,
    g: GridSet,
    choice: ScaleChoice,
) -> tuple[float, float]:
    """size(I) = |E ∩ H' ∩ I| / |I| and mass(I) = |F ∩ G ∩ V_I| / |I|."""
    L = e.resolution
    sl = interval.cell_slice(L)
    width = 1 << (L - interval.scale)
    source = (e.mask & h_prime.mask)[sl]
    target = (f_set.mask & g.mask)[sl] & (choice.scales[sl] == interval.scale)
    return (
        int(np.count_nonzero(source)) / width,
        int(np.count_nonzero(target)) / width,
    )


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


def _maximal_members(intervals: list[DyadicInterval]) -> list[DyadicInterval]:
    kept: set[DyadicInterval] = set()
    for interval in sorted(intervals, key=lambda i: (i.scale, i.offset)):
        if not any(
            interval.ancestor(s) in kept for s in range(interval.scale + 1)
        ):
            kept.add(interval)
    return sorted(kept, key=lambda i: (i.scale, i.offset))


@dataclass
class IntervalClass:
    """One (n, m) size/mass bucket with its member and maximal intervals."""

    n: int
    m: int
    intervals: list[DyadicInterval] = field(default_factory=list)
    maximal: list[DyadicInterval] = field(default_factory=list)
    sum: float = 0.0
    count_bound_ratio: float = 0.0


def restricted_double_sum(
    e: GridSet,
    f_set: GridSet,
    h_prime: GridSet,
    g: GridSet,
    choice: ScaleChoice,
    s: float,
    h: GridSet | None = None,
) -> RatioReport:
    """Full double sum over dyadic intervals meeting H' of
    size(I) * mass(I) * |I|, bucketed by the dyadic classes of size and mass.

    Reports per-bucket sums, the maximal-interval counting ratio
    sum |J| / min(2**n |E|, 2**m |F|), and the total against
    (|G|/|H|)**(1/s) * |E|**(1/s) * |F|**(1/s').
    """
    if not 1 < s < math.inf:
        raise ValueError(f"s must lie in (1, inf), got {s}")
    L = e.resolution
    buckets: dict[tuple[int, int], IntervalClass] = {}
    total = 0.0
    for interval in all_intervals(L):
        sl = interval.cell_slice(L)
        if not np.any(h_prime.mask[sl]):
            continue
        size_i, mass_i = interval_size_mass(interval, e, h_prime, f_set, g, choice)
        term = size_i * mass_i * interval.length
        if term == 0.0:
            continue
        key = (dyadic_class(size_i), dyadic_class(mass_i))
        bucket = buckets.setdefault(key, IntervalClass(n=key[0], m=key[1]))
        bucket.intervals.append(interval)
        bucket.sum += term
        total += term

    e_measure, f_measure = measure(e), measure(f_set)
    stats = []
    for key in sorted(buckets):
        bucket = buckets[key]
        bucket.maximal = _maximal_members(bucket.intervals)
        tops_length = sum(j.length for j in bucket.maximal)
        cap = min(2.0 ** bucket.n * e_measure, 2.0 ** bucket.m * f_measure)
        bucket.count_bound_ratio = tops_length / cap if cap > 0 else math.inf
        stats.append(
            BucketStat(bucket.n, bucket.m, bucket.sum, bucket.count_bound_ratio)
        )

    h_measure = measure(h) if h is not None else measure(h_prime)
    g_measure = measure(g)
    rhs = 0.0
    if h_measure > 0 and e_measure > 0 and f_measure > 0:
        s_conj = s / (s - 1.0)
        rhs = (
            (g_measure / h_measure) ** (1.0 / s)
            * e_measure ** (1.0 / s)
            * f_measure ** (1.0 / s_conj)
        )
    report = RatioReport.from_sides(total, rhs, buckets=stats)
    report.extra["h_measure_used"] = h_measure
    report.extra["classes"] = {f"{n},{m}": buckets[(n, m)].sum for (n, m) in sorted(buckets)}
    return report


def verify_vector_maximal(fam: VectorSignal, p: float) -> RatioReport:
    """Both sides of the vector maximal inequality at exponent p.

    lhs = || (sum_j |M f_j|^2)^(1/2) ||_p, rhs the same with f_j in place of
    M f_j; the ratio is the quantity whose uniform boundedness in the family
    size is the content of the inequality.
    """
    if not 1 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    maximal_stack = np.vstack(
        [dyadic_maximal(fam.member(j)).values.real for j in range(len(fam))]
    )
    lhs = array_lp_norm(
        np.sqrt(np.sum(maximal_stack**2, axis=0)), p, fam.resolution
    )
    rhs = array_lp_norm(fam.pointwise_l2(), p, fam.resolution)
    return RatioReport.from_sides(lhs, rhs, family_size=len(fam), p=p)
