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
    stopping_partition_ok,
    verify_vector_maximal,
)


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
            assert weak_11_sup(f) <= lp_norm(f, 1.0) * (1 + 1e-12)

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
        rng = np.random.default_rng(8)
        for _ in range(10):
            assert stopping_partition_ok(random_scale_choice(rng, 5))

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            ScaleChoice.from_lengths(2, [0.3, 1.0, 1.0, 1.0])


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

    def test_requires_positive_base(self):
        with pytest.raises(ValueError):
            exceptional_complement(GridSet.empty(3), GridSet.full(3), 4.0)


class TestSizeMass:
    def test_full_source(self):
        e = GridSet.full(3)
        h = GridSet.full(3)
        choice = ScaleChoice.constant(3, 1)
        size, _ = interval_size_mass(DyadicInterval(1, 0), e, h, e, h, choice)
        assert size == 1.0

    def test_empty_target(self):
        e = GridSet.full(3)
        f_set = GridSet.empty(3)
        choice = ScaleChoice.constant(3, 1)
        _, mass = interval_size_mass(DyadicInterval(1, 0), e, e, f_set, e, choice)
        assert mass == 0.0

    def test_half_source(self):
        e = GridSet.from_interval(3, DyadicInterval(2, 0))
        h = GridSet.full(3)
        choice = ScaleChoice.constant(3, 1)
        size, _ = interval_size_mass(DyadicInterval(1, 0), e, h, e, h, choice)
        assert size == 0.5

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
        assert report.lhs == 0.0

    def test_single_active_interval(self):
        # kappa == 1 everywhere: only the unit interval carries mass, so the
        # sum is size([0,1)) * mass([0,1))
        resolution = 3
        e = GridSet.from_interval(resolution, DyadicInterval(1, 0))
        f_set = GridSet.from_interval(resolution, DyadicInterval(2, 1))
        full = GridSet.full(resolution)
        choice = ScaleChoice.constant(resolution, 0)
        report = restricted_double_sum(e, f_set, full, full, choice, 2.0, h=full)
        assert report.lhs == pytest.approx(0.5 * 0.25, abs=1e-15)

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
            for bucket in report.buckets:
                assert bucket.count_bound_ratio <= 2.0 + 1e-9
                assert bucket.count_bound_ratio <= 4.0

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
            for bucket in report.buckets:
                cap = 2.0 ** (-bucket.n - bucket.m) * min(
                    2.0**bucket.n * measure(e), 2.0**bucket.m * measure(f_set)
                )
                assert bucket.sum <= (resolution + 1) * cap * (1 + 1e-9)

    def test_requires_valid_s(self):
        full = GridSet.full(3)
        with pytest.raises(ValueError):
            restricted_double_sum(full, full, full, full, ScaleChoice.constant(3, 0), 1.0)


class TestVectorMaximal:
    def test_single_member_finite(self):
        rng = np.random.default_rng(31)
        fam = VectorSignal.from_signals([random_signal(rng, 6)])
        report = verify_vector_maximal(fam, 2.5)
        assert math.isfinite(report.ratio) and report.ratio > 0

    def test_copies_invariant(self):
        rng = np.random.default_rng(32)
        f = random_signal(rng, 6)
        one = verify_vector_maximal(VectorSignal.from_signals([f]), 3.0)
        many = verify_vector_maximal(VectorSignal.from_signals([f] * 16), 3.0)
        assert many.ratio == pytest.approx(one.ratio, rel=1e-12)

    def test_requires_p_range(self):
        rng = np.random.default_rng(33)
        fam = VectorSignal.from_signals([random_signal(rng, 4)])
        with pytest.raises(ValueError):
            verify_vector_maximal(fam, 1.0)
