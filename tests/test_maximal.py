import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dyadlab.grid import (
    DyadicInterval,
    GridSet,
    GridSignal,
    VectorSignal,
    all_intervals,
    lp_norm,
    measure,
)
from dyadlab.harness import random_grid_set, random_scale_choice, random_signal
from dyadlab.maximal import (
    ScaleChoice,
    dyadic_class,
    dyadic_maximal,
    exceptional_complement,
    greedy_scales,
    interval_size_mass,
    linearized_maximal,
    maximal_level_set,
    restricted_double_sum,
    scale_averages,
    verify_vector_maximal,
)
from dyadlab.io import json_text
from dyadlab.reports import ratio_report
from oracles import densify


def tree_average(values: np.ndarray) -> float:
    """Perfect binary-tree mean; halving is exact, so this reproduces the
    cascade-of-averages rounding bit for bit."""
    acc = np.array(values, dtype=float)
    while acc.size > 1:
        acc = acc[0::2] + acc[1::2]
    return float(acc[0]) / values.size


def brute_force_maximal(f: GridSignal) -> np.ndarray:
    """Independent oracle: scan every dyadic interval directly."""
    out = np.zeros(len(f))
    a = np.abs(f.values)
    for interval in all_intervals(f.resolution):
        sl = interval.cell_slice(f.resolution)
        out[sl] = np.maximum(out[sl], tree_average(a[sl]))
    return out


def loop_level_set(marker: GridSet, threshold: float) -> GridSet:
    """maximal_level_set as first written: the union, scale by scale, of
    the dyadic intervals whose marker density is at least the threshold."""
    L = marker.resolution
    avgs = scale_averages(marker.mask.astype(float), L)
    hit = np.zeros(1 << L, dtype=bool)
    for k in range(L + 1):
        hit |= np.repeat(avgs[k] >= threshold, 1 << (L - k))
    return GridSet(L, hit)


def random_bits_set(rng, resolution: int) -> GridSet:
    """Cells drawn at a random density, so sets may be empty or full."""
    return GridSet(resolution, rng.random(1 << resolution) < rng.random())


def weak_11_sup(f: GridSignal) -> float:
    """sup over lam > 0 of lam * |{Mf > lam}| equals the max over achieved
    values v of v * |{Mf >= v}|."""
    mf = dyadic_maximal(f).values.real
    width = 2.0**-f.resolution
    best = 0.0
    for v in np.unique(mf):
        if v > 0:
            best = max(best, v * np.count_nonzero(mf >= v) * width)
    return best


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def slot_of(interval: DyadicInterval) -> int:
    """Position of an interval in `all_intervals` order."""
    return (1 << interval.scale) - 1 + interval.offset


def signed_zero_inputs(rng, resolution: int):
    """A random complex vector, an all -0.0 one and a mix of +-0.0 with a
    few nonzero entries."""
    n = 1 << resolution
    yield rng.standard_normal(n) + 1j * rng.standard_normal(n)
    yield np.full(n, complex(-0.0, -0.0))
    mixed = np.zeros(n, dtype=np.complex128)
    mixed.real = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    mixed.imag = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    hit = rng.random(n) < 0.3
    mixed[hit] = rng.standard_normal(int(hit.sum())) - 1j * rng.standard_normal(int(hit.sum()))
    yield mixed


# Oracles: the per-scale mask loop, the per-scale add.at adjoint and the
# per-interval double sum that the slot array replaced.


def oracle_linearized_maximal(values: np.ndarray, choice: ScaleChoice) -> np.ndarray:
    L = choice.resolution
    avgs = scale_averages(values, L)
    cells = np.arange(1 << L)
    out = np.empty(1 << L, dtype=np.complex128)
    for k in range(L + 1):
        sel = choice.scales == k
        if np.any(sel):
            out[sel] = avgs[k][cells[sel] >> (L - k)]
    return out


def oracle_adjoint(values: np.ndarray, choice: ScaleChoice) -> np.ndarray:
    L = choice.resolution
    out = np.zeros(1 << L, dtype=np.complex128)
    vals = np.asarray(values)
    for k in range(L + 1):
        sel = choice.scales == k
        if not np.any(sel):
            continue
        sums = np.zeros(1 << k, dtype=np.complex128)
        np.add.at(sums, np.arange(1 << L)[sel] >> (L - k), vals[sel])
        out += np.repeat(sums, 1 << (L - k)) * 2.0 ** (k - L)
    return out


def oracle_size_mass(interval, e, h_prime, f_set, g, choice):
    L = e.resolution
    sl = interval.cell_slice(L)
    width = 1 << (L - interval.scale)
    source = (e.mask & h_prime.mask)[sl]
    target = (f_set.mask & g.mask)[sl] & (choice.scales[sl] == interval.scale)
    return (
        int(np.count_nonzero(source)) / width,
        int(np.count_nonzero(target)) / width,
    )


def oracle_maximal_members(intervals):
    kept = set()
    for interval in sorted(intervals, key=lambda i: (i.scale, i.offset)):
        if not any(interval.ancestor(s) in kept for s in range(interval.scale + 1)):
            kept.add(interval)
    return sorted(kept, key=lambda i: (i.scale, i.offset))


def oracle_double_sum(e, f_set, h_prime, g, choice, s, h=None) -> dict:
    L = e.resolution
    members: dict = {}
    sums: dict = {}
    total = 0.0
    for interval in all_intervals(L):
        if not np.any(h_prime.mask[interval.cell_slice(L)]):
            continue
        size_i, mass_i = oracle_size_mass(interval, e, h_prime, f_set, g, choice)
        term = size_i * mass_i * interval.length
        if term == 0.0:
            continue
        key = (dyadic_class(size_i), dyadic_class(mass_i))
        members.setdefault(key, []).append(interval)
        sums[key] = sums.get(key, 0.0) + term
        total += term
    e_measure, f_measure = measure(e), measure(f_set)
    stats = []
    for n, m in sorted(sums):
        tops_length = sum(j.length for j in oracle_maximal_members(members[(n, m)]))
        cap = min(2.0**n * e_measure, 2.0**m * f_measure)
        ratio = tops_length / cap if cap > 0 else math.inf
        stats.append({"n": n, "m": m, "sum": sums[(n, m)], "count_bound_ratio": ratio})
    h_measure = measure(h) if h is not None else measure(h_prime)
    rhs = 0.0
    if h_measure > 0 and e_measure > 0 and f_measure > 0:
        rhs = (
            (measure(g) / h_measure) ** (1.0 / s)
            * e_measure ** (1.0 / s)
            * f_measure ** (1.0 / (s / (s - 1.0)))
        )
    classes = {f"{n},{m}": sums[(n, m)] for (n, m) in sorted(sums)}
    return ratio_report(total, rhs, buckets=stats, h_measure_used=h_measure, classes=classes)


class TestDyadicMaximal:
    def test_constant(self):
        f = GridSignal.constant(4, 1.0)
        assert np.all(dyadic_maximal(f).values.real == 1.0)

    def test_zero(self):
        f = GridSignal.zeros(4)
        assert np.all(dyadic_maximal(f).values.real == 0.0)

    def test_quarter_indicator(self):
        f = GridSignal.indicator(2, DyadicInterval(2, 0))
        expected = np.array([1.0, 0.5, 0.25, 0.25])
        assert np.array_equal(dyadic_maximal(f).values.real, expected)

    @pytest.mark.parametrize("resolution", [3, 5, 7])
    def test_matches_brute_force(self, resolution):
        rng = np.random.default_rng(resolution)
        for _ in range(20):
            f = random_signal(rng, resolution, complex_values=True)
            assert np.array_equal(
                dyadic_maximal(f).values.real, brute_force_maximal(f)
            )

    def test_weak_11_constant_one(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            f = random_signal(rng, 6)
            assert weak_11_sup(f) <= lp_norm(f.values, 1.0, f.resolution) * (1 + 1e-12)

    def test_sublinear_and_monotone(self):
        rng = np.random.default_rng(9)
        n = 1 << 5
        f = GridSignal(5, rng.standard_normal(n))
        g = GridSignal(5, rng.standard_normal(n))
        both = GridSignal(5, f.values + g.values)
        lhs = dyadic_maximal(both).values.real
        rhs = dyadic_maximal(f).values.real + dyadic_maximal(g).values.real
        assert np.all(lhs <= rhs + 1e-14)
        bigger = GridSignal(5, np.abs(f.values) + np.abs(g.values))
        assert np.all(
            dyadic_maximal(f).values.real <= dyadic_maximal(bigger).values.real + 1e-14
        )


class TestLinearizedMaximal:
    def test_constant_scale_gives_average(self):
        rng = np.random.default_rng(3)
        f = GridSignal(4, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        out = linearized_maximal(f, ScaleChoice.constant(4, 0))
        assert np.allclose(out.values, f.values.mean())

    def test_pinned_example(self):
        f = GridSignal.indicator(2, DyadicInterval(2, 0))
        choice = ScaleChoice.from_lengths(2, [0.25, 1.0, 1.0, 1.0])
        expected = np.array([1.0, 0.25, 0.25, 0.25])
        assert np.array_equal(linearized_maximal(f, choice).values.real, expected)

    def test_greedy_scales_are_coarsest_argmax(self):
        # the old per-scale update: move to a finer scale only on a strictly
        # larger average
        rng = np.random.default_rng(4)
        for resolution in (0, 1, 5):
            for _ in range(5):
                f = random_signal(rng, resolution, complex_values=True)
                f = GridSignal(resolution, np.round(f.values, 1))  # ties across scales
                avgs = scale_averages(np.abs(f.values), resolution)
                best = np.repeat(avgs[0], 1 << resolution)
                expected = np.zeros(1 << resolution, dtype=np.int64)
                for k in range(1, resolution + 1):
                    cand = np.repeat(avgs[k], 1 << (resolution - k))
                    expected[cand > best] = k
                    best = np.maximum(best, cand)
                assert np.array_equal(greedy_scales(f).scales, expected)

    def test_greedy_attains_maximal(self):
        rng = np.random.default_rng(5)
        for resolution in (3, 5, 6):
            f = random_signal(rng, resolution, complex_values=True)
            absf = GridSignal(resolution, np.abs(f.values))
            out = linearized_maximal(absf, greedy_scales(f))
            assert np.allclose(out.values.real, dyadic_maximal(f).values.real)

    def test_dominated_by_maximal(self):
        rng = np.random.default_rng(6)
        f = GridSignal(5, np.abs(rng.standard_normal(32)))
        mf = dyadic_maximal(f).values.real
        for _ in range(20):
            choice = random_scale_choice(rng, 5)
            out = linearized_maximal(f, choice).values.real
            assert np.all(out <= mf + 1e-14)

    def test_stopping_partition(self):
        # V_I = {x in I : kappa(x) = |I|}: each cell lies in exactly one V_I,
        # the one its slot names
        rng = np.random.default_rng(8)
        for _ in range(10):
            choice = random_scale_choice(rng, 5)
            total = np.zeros(32, dtype=np.int64)
            for position, interval in enumerate(all_intervals(5)):
                v_i = interval.indicator(5) & (choice.scales == interval.scale)
                assert np.array_equal(v_i, choice.slot == position)
                total += v_i
            assert np.all(total == 1)

    def test_slot_order_is_all_intervals_order(self):
        rng = np.random.default_rng(10)
        for resolution in (0, 1, 4):
            choice = random_scale_choice(rng, resolution)
            for position, interval in enumerate(all_intervals(resolution)):
                assert slot_of(interval) == position
                v_i = interval.indicator(resolution) & (choice.scales == interval.scale)
                assert np.array_equal(choice.slot == position, v_i)
        with pytest.raises(ValueError):
            choice.slot[0] = 0
        with pytest.raises(ValueError):
            choice.scales[0] = 0

    @pytest.mark.parametrize("resolution", range(9))
    def test_forward_matches_mask_loop_bits(self, resolution):
        rng = np.random.default_rng(40 + resolution)
        for _ in range(4):
            choice = random_scale_choice(rng, resolution)
            for values in signed_zero_inputs(rng, resolution):
                out = linearized_maximal(GridSignal(resolution, values), choice).values
                assert same_bits(out, oracle_linearized_maximal(values, choice))

    @pytest.mark.parametrize("resolution", range(9))
    def test_adjoint_matches_add_at_bits(self, resolution):
        rng = np.random.default_rng(50 + resolution)
        for _ in range(4):
            choice = random_scale_choice(rng, resolution)
            for values in signed_zero_inputs(rng, resolution):
                out = choice.average_adjoint(values)
                assert same_bits(out, oracle_adjoint(values, choice))

    @pytest.mark.parametrize("resolution", range(6))
    def test_adjoint_is_conjugate_transpose(self, resolution):
        rng = np.random.default_rng(60 + resolution)
        for _ in range(3):
            choice = random_scale_choice(rng, resolution)
            n = 1 << resolution
            fwd = densify(lambda v: linearized_maximal(GridSignal(resolution, v), choice).values, n)
            adj = densify(choice.average_adjoint, n)
            assert np.array_equal(adj, fwd.conj().T)

    def test_resolution_mismatch_rejected(self):
        choice = ScaleChoice.constant(3, 1)
        with pytest.raises(ValueError, match="resolution mismatch"):
            linearized_maximal(GridSignal.zeros(2), choice)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            ScaleChoice.from_lengths(2, [0.3, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("length", [0.0, -0.25, math.nan, math.inf, 2.0, 1.7e308])
    def test_non_positive_and_non_finite_lengths_rejected(self, length):
        # under -W error, as the suite runs, log2, the int cast or the power
        # raised a RuntimeWarning on 0.0, -0.25, nan, inf and 1.7e308 before
        # any check, and 0.0 and 2.0 otherwise got the message of the scale
        # range
        with pytest.raises(ValueError, match=r"^every length must be a dyadic 2\*\*-k at the grid resolution$"):
            ScaleChoice.from_lengths(2, [1.0, length, 0.5, 0.25])


class TestExceptionalComplement:
    def test_empty_marker(self):
        h = GridSet.full(3)
        assert measure(exceptional_complement(h, GridSet.empty(3), 4.0)) == 1.0

    def test_pinned_instance(self):
        # whole space against a 1/8 marker at c = 4: threshold 1/2 removes
        # exactly [0, 1/4)
        h = GridSet.full(3)
        g = GridSet.from_interval(3, DyadicInterval(3, 0))
        kept = exceptional_complement(h, g, 4.0)
        assert np.array_equal(kept.mask, np.array([0, 0, 1, 1, 1, 1, 1, 1], dtype=bool))
        assert measure(kept) == 0.75

    def test_half_measure_guarantee(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = random_grid_set(rng, 6)
            g = random_grid_set(rng, 6)
            kept = exceptional_complement(h, g, 4.0)
            assert measure(kept) >= 0.5 * measure(h)
            kept_swapped = exceptional_complement(g, h, 4.0)
            assert measure(kept_swapped) >= 0.5 * measure(g)

    def test_level_set_union_of_intervals(self):
        # the removed region is a disjoint union of dyadic intervals: its
        # indicator must equal the union of maximal intervals above threshold
        rng = np.random.default_rng(12)
        g = random_grid_set(rng, 5)
        level = maximal_level_set(g, 0.5)
        dens = {i: g.mask[i.cell_slice(5)].mean() for i in all_intervals(5)}
        expected = np.zeros(32, dtype=bool)
        for interval, d in dens.items():
            if d >= 0.5:
                expected[interval.cell_slice(5)] = True
        assert np.array_equal(level.mask, expected)

    def test_level_set_equals_interval_loop(self):
        """{M 1_marker >= t} picks what the union of the intervals at or
        above t picked, for densities from 0 to 1 and thresholds at 0, one
        cell's share, 1/2, 1, 1.5 and random ones: the maximal function
        takes their exact maximum."""
        rng = np.random.default_rng(13)
        for resolution in range(9):
            for density in (0.0, 0.1, 0.5, 0.9, 1.0, rng.random()):
                marker = GridSet(resolution, rng.random(1 << resolution) < density)
                for threshold in (0.0, 2.0**-resolution, 0.5, 1.0, 1.5, *rng.random(2)):
                    level = maximal_level_set(marker, threshold)
                    assert np.array_equal(level.mask, loop_level_set(marker, threshold).mask)

    def test_requires_positive_base(self):
        with pytest.raises(ValueError):
            exceptional_complement(GridSet.empty(3), GridSet.full(3), 4.0)


class TestSizeMass:
    def test_full_source(self):
        e = GridSet.full(3)
        h = GridSet.full(3)
        choice = ScaleChoice.constant(3, 1)
        sizes, _ = interval_size_mass(e, h, e, h, choice)
        assert sizes[slot_of(DyadicInterval(1, 0))] == 1.0

    def test_empty_target(self):
        e = GridSet.full(3)
        f_set = GridSet.empty(3)
        choice = ScaleChoice.constant(3, 1)
        _, masses = interval_size_mass(e, e, f_set, e, choice)
        assert masses[slot_of(DyadicInterval(1, 0))] == 0.0

    def test_half_source(self):
        e = GridSet.from_interval(3, DyadicInterval(2, 0))
        h = GridSet.full(3)
        choice = ScaleChoice.constant(3, 1)
        sizes, _ = interval_size_mass(e, h, e, h, choice)
        assert sizes[slot_of(DyadicInterval(1, 0))] == 0.5

    @pytest.mark.parametrize("resolution", [0, 3, 6])
    def test_pyramids_match_per_interval_counts(self, resolution):
        rng = np.random.default_rng(70 + resolution)
        for _ in range(5):
            e, h, f_set, g = (random_bits_set(rng, resolution) for _ in range(4))
            choice = random_scale_choice(rng, resolution)
            sizes, masses = interval_size_mass(e, h, f_set, g, choice)
            assert sizes.shape == masses.shape == ((2 << resolution) - 1,)
            for interval in all_intervals(resolution):
                expected = oracle_size_mass(interval, e, h, f_set, g, choice)
                assert (sizes[slot_of(interval)], masses[slot_of(interval)]) == expected

    def test_class_index(self):
        assert dyadic_class(1.0) == 0
        assert dyadic_class(0.5) == 1
        assert dyadic_class(0.3) == 1
        assert dyadic_class(0.25) == 2
        assert dyadic_class(3.0) == -2
        assert dyadic_class(0.125 * (1 + 1e-12)) == 2
        assert dyadic_class(4.0 * (1 + 1e-12)) == -3
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                dyadic_class(bad)

    @given(st.integers(-1022, 1073), st.sampled_from([-1, 0, 1]))
    @example(1073, -1)
    def test_class_index_exact_at_powers_of_two(self, n, ulps):
        value = math.ldexp(1.0, -n)
        if ulps:
            value = math.nextafter(value, math.inf if ulps > 0 else 0.0)
        k = dyadic_class(value)
        assert math.ldexp(1.0, -(k + 1)) < value <= math.ldexp(1.0, -k)
        # one ulp below 2**-1073 is 2**-1074, itself a power of two
        below_is_power = ulps < 0 and value == math.ldexp(1.0, -(n + 1))
        assert k == (n + 1 if below_is_power else n if ulps <= 0 else n - 1)

    @given(st.floats(min_value=5e-324, max_value=1e300))
    def test_class_index_contract(self, value):
        k = dyadic_class(value)
        assert math.ldexp(1.0, -(k + 1)) < value <= math.ldexp(1.0, -k)


class TestRestrictedDoubleSum:
    def test_empty_source(self):
        full = GridSet.full(4)
        report = restricted_double_sum(
            GridSet.empty(4), full, full, full, ScaleChoice.constant(4, 2), 2.0
        )
        assert report["lhs"] == 0.0

    def test_single_active_interval(self):
        # kappa == 1 everywhere: only the unit interval carries mass, so the
        # sum is size([0,1)) * mass([0,1))
        resolution = 3
        e = GridSet.from_interval(resolution, DyadicInterval(1, 0))
        f_set = GridSet.from_interval(resolution, DyadicInterval(2, 1))
        full = GridSet.full(resolution)
        choice = ScaleChoice.constant(resolution, 0)
        report = restricted_double_sum(e, f_set, full, full, choice, 2.0, h=full)
        assert report["lhs"] == pytest.approx(0.5 * 0.25, abs=1e-15)

    def test_bucket_counting_bound(self):
        # maximal intervals in each class obey the disjointness counting
        # bound; 2 is the sharp grid constant, 4 leaves margin
        rng = np.random.default_rng(21)
        for _ in range(10):
            resolution = 6
            e = random_grid_set(rng, resolution)
            f_set = random_grid_set(rng, resolution)
            h = random_grid_set(rng, resolution)
            g = random_grid_set(rng, resolution)
            h_prime = exceptional_complement(h, g, 4.0)
            choice = random_scale_choice(rng, resolution)
            report = restricted_double_sum(e, f_set, h_prime, g, choice, 2.0, h=h)
            for bucket in report["buckets"]:
                assert bucket["count_bound_ratio"] <= 2.0 + 1e-9
                assert bucket["count_bound_ratio"] <= 4.0

    def test_bucket_sum_estimate(self):
        # per-bucket sums against 2^-n-m min(2^n|E|, 2^m|F|): the measured
        # constant never exceeds L + 1 (scale-overlap worst case)
        rng = np.random.default_rng(22)
        resolution = 6
        for _ in range(10):
            e = random_grid_set(rng, resolution)
            f_set = random_grid_set(rng, resolution)
            g = random_grid_set(rng, resolution)
            h = random_grid_set(rng, resolution)
            h_prime = exceptional_complement(h, g, 4.0)
            choice = random_scale_choice(rng, resolution)
            report = restricted_double_sum(e, f_set, h_prime, g, choice, 2.0, h=h)
            for bucket in report["buckets"]:
                cap = 2.0 ** (-bucket["n"] - bucket["m"]) * min(
                    2.0**bucket["n"] * measure(e), 2.0**bucket["m"] * measure(f_set)
                )
                assert bucket["sum"] <= (resolution + 1) * cap * (1 + 1e-9)

    @pytest.mark.parametrize("resolution", range(8))
    def test_matches_per_interval_loop(self, resolution):
        rng = np.random.default_rng(80 + resolution)
        for trial in range(12):
            e, f_set, h_prime, g, h = (random_bits_set(rng, resolution) for _ in range(5))
            choice = random_scale_choice(rng, resolution)
            s = 1.0 + float(rng.uniform(0.1, 3.0))
            h = h if trial % 2 else None
            report = restricted_double_sum(e, f_set, h_prime, g, choice, s, h=h)
            expected = oracle_double_sum(e, f_set, h_prime, g, choice, s, h=h)
            assert json_text(report) == json_text(expected)

    def test_maximal_members_skip_nested_classmates(self):
        # E = F = G = H' full and kappa = (1, 1, 1/2, 1/4): [0, 1) and
        # [1/2, 1) both have size 1 and mass 1/2, so class (0, 1) counts only
        # [0, 1) among its maximal members; the last cell alone is class (0, 0)
        full = GridSet.full(2)
        choice = ScaleChoice(2, [0, 0, 1, 2])
        report = restricted_double_sum(full, full, full, full, choice, 2.0)
        assert [(b["n"], b["m"], b["sum"], b["count_bound_ratio"]) for b in report["buckets"]] == [
            (0, 0, 0.25, 0.25),
            (0, 1, 0.75, 1.0),
        ]
        assert report["lhs"] == 1.0

    def test_requires_valid_s(self):
        full = GridSet.full(3)
        with pytest.raises(ValueError):
            restricted_double_sum(full, full, full, full, ScaleChoice.constant(3, 0), 1.0)


class TestVectorMaximal:
    def test_single_member_finite(self):
        rng = np.random.default_rng(31)
        fam = VectorSignal.from_signals([random_signal(rng, 6)])
        report = verify_vector_maximal(fam, 2.5)
        assert math.isfinite(report["ratio"]) and report["ratio"] > 0

    def test_copies_invariant(self):
        rng = np.random.default_rng(32)
        f = random_signal(rng, 6)
        one = verify_vector_maximal(VectorSignal.from_signals([f]), 3.0)
        many = verify_vector_maximal(VectorSignal.from_signals([f] * 16), 3.0)
        assert many["ratio"] == pytest.approx(one["ratio"], rel=1e-12)

    def test_requires_p_range(self):
        rng = np.random.default_rng(33)
        fam = VectorSignal.from_signals([random_signal(rng, 4)])
        with pytest.raises(ValueError):
            verify_vector_maximal(fam, 1.0)


@pytest.mark.parametrize("scales", [[0.5] * 4, [np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]])
def test_scale_choice_rejects_entries_that_are_no_integers(scales):
    with pytest.raises(ValueError, match="^scales must be integers, got "):
        ScaleChoice(2, scales)
    # integral values of any dtype are scales
    for dtype in (np.float64, np.uint8, np.int32):
        choice = ScaleChoice(2, np.array([0, 1, 2, 2], dtype=dtype))
        assert choice.scales.dtype == np.int64 and choice.scales.tolist() == [0, 1, 2, 2]


# the guards of ScaleChoice: a call each rejects, and its message
SCALE_CHOICE_GUARDS = {
    "shape": (lambda: ScaleChoice(2, [0, 0, 0]), "expected 4 scale entries, got shape (3,)"),
    "range": (lambda: ScaleChoice(2, [0, 0, 0, 3]), "scales must lie in [0, resolution]"),
}


@pytest.mark.parametrize("call, message", SCALE_CHOICE_GUARDS.values(), ids=SCALE_CHOICE_GUARDS)
def test_input_guards_keep_their_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
