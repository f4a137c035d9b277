import json
import math

import numpy as np
import pytest

from dyadlab.carleson import (
    RestrictedOp,
    apply_restricted,
    carve_g,
    carve_h,
    collection_caps,
    greedy_choice,
    norm_decay_ladder,
    norm_decay_point,
    restricted_norm,
    restricted_pairing,
    retain_meeting,
    verify_vector_carleson,
)
from dyadlab.grid import (
    DyadicInterval,
    GridSet,
    GridSignal,
    VectorSignal,
    inner_product,
    measure,
)
from dyadlab.harness import random_choice, random_grid_set, random_signal, random_vector
from dyadlab.tiles import ChoiceFunction, TileCollection, mass, model_sum, size_bound


class TestRestrictedOperator:
    def test_empty_sets_kill(self):
        rng = np.random.default_rng(0)
        resolution = 4
        collection = TileCollection.all(resolution)
        f = random_signal(rng, resolution)
        choice = random_choice(rng, resolution)
        empty = GridSet.empty(resolution)
        full = GridSet.full(resolution)
        for a, b in ((empty, full), (full, empty)):
            out = apply_restricted(f, RestrictedOp(a, b, choice, collection))
            assert np.all(out.values == 0.0)

    def test_full_sets_recover_model_sum(self):
        rng = np.random.default_rng(1)
        resolution = 5
        collection = TileCollection.all(resolution)
        f = random_signal(rng, resolution, complex_values=True)
        choice = random_choice(rng, resolution)
        full = GridSet.full(resolution)
        out = apply_restricted(f, RestrictedOp(full, full, choice, collection))
        assert np.array_equal(out.values, model_sum(f, choice, collection).values)

    def test_unfolds_identically(self):
        rng = np.random.default_rng(2)
        resolution = 5
        collection = TileCollection.all(resolution)
        f = random_signal(rng, resolution, complex_values=True)
        choice = random_choice(rng, resolution)
        a = random_grid_set(rng, resolution)
        b = random_grid_set(rng, resolution)
        op = RestrictedOp(a, b, choice, collection)
        direct = model_sum(
            GridSignal(resolution, f.values * b.mask), choice, collection
        ).values * a.mask
        assert np.array_equal(apply_restricted(f, op).values, direct)


class TestCarving:
    def test_empty_marker(self):
        h = GridSet.full(3)
        assert np.array_equal(carve_h(h, GridSet.empty(3)).mask, h.mask)

    def test_pinned_level_set(self):
        h = GridSet.full(3)
        g = GridSet.from_interval(3, DyadicInterval(3, 0))
        kept = carve_h(h, g, 4.0)
        assert np.array_equal(kept.mask, np.array([0, 0, 1, 1, 1, 1, 1, 1], dtype=bool))

    def test_half_measure_both_sides(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            h = random_grid_set(rng, 6)
            g = random_grid_set(rng, 6)
            assert measure(carve_h(h, g, 4.0)) >= 0.5 * measure(h)
            assert measure(carve_g(g, h, 4.0)) >= 0.5 * measure(g)

    def test_mass_cap_exact(self):
        # surviving collection after the H carve has mass at most 4 |G|/|H|
        rng = np.random.default_rng(4)
        resolution = 6
        collection = TileCollection.all(resolution)
        for _ in range(10):
            h = GridSet.full(resolution)
            g = random_grid_set(rng, resolution)
            choice = random_choice(rng, resolution)
            h_prime = carve_h(h, g, 4.0)
            surviving = retain_meeting(collection, h_prime)
            cap = 4.0 * measure(g) / measure(h)
            assert mass(surviving, g, choice) <= cap * (1 + 1e-12)

    @pytest.mark.parametrize("resolution", [5, 7])
    def test_size_cap_g_branch(self, resolution):
        # tiles meeting G' see H with small maximal density, so the size of
        # 1_H-bounded inputs is capped by sqrt(L+1) * 4 |H|/|G| at every
        # resolution (the measured constant is resolution-stable)
        rng = np.random.default_rng(5)
        collection = TileCollection.all(resolution)
        for _ in range(10):
            g = GridSet.full(resolution)
            h = random_grid_set(rng, resolution)
            g_prime = carve_g(g, h, 4.0)
            surviving = retain_meeting(collection, g_prime)
            f = GridSignal.indicator(resolution, h)
            bound = size_bound(surviving, f)
            assert bound <= 4.0 * measure(h) / measure(g) * (1 + 1e-12)

    def test_caps_helper(self):
        rng = np.random.default_rng(6)
        resolution = 5
        collection = TileCollection.all(resolution)
        h = GridSet.full(resolution)
        g = random_grid_set(rng, resolution)
        h_prime = carve_h(h, g, 4.0)
        caps = collection_caps(collection, h, g, h_prime, g, random_choice(rng, resolution))
        assert caps["mass"] <= caps["mass_cap"] * (1 + 1e-12)


class TestRestrictedPairing:
    def test_zero_signal(self):
        rng = np.random.default_rng(7)
        resolution = 5
        collection = TileCollection.all(resolution)
        full = GridSet.full(resolution)
        op = RestrictedOp(full, full, random_choice(rng, resolution), collection)
        report = restricted_pairing(
            GridSignal.zeros(resolution),
            GridSignal.indicator(resolution, full),
            full,
            full,
            op,
            t=2.5,
        )
        assert report.lhs == 0.0

    def test_pairing_below_majorant(self):
        rng = np.random.default_rng(8)
        resolution = 6
        collection = TileCollection.all(resolution)
        for _ in range(8):
            e = random_grid_set(rng, resolution)
            f_set = random_grid_set(rng, resolution)
            g = random_grid_set(rng, resolution)
            h = GridSet.full(resolution)
            h_prime = carve_h(h, g, 4.0)
            op = RestrictedOp(g, h_prime, random_choice(rng, resolution), collection)
            report = restricted_pairing(
                GridSignal.indicator(resolution, e),
                GridSignal.indicator(resolution, f_set),
                e,
                f_set,
                op,
                t=2.5,
            )
            assert report.lhs <= report.rhs * (1 + 1e-9) + 1e-12
            assert report.extra["model_majorant"] >= 0.0

    def test_one_bitile_matches_tree_sum(self):
        from dyadlab.tiles import BiTile, walsh_packet

        resolution = 4
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(resolution, [p])
        e = GridSet.from_interval(resolution, p.spatial)
        f_set = GridSet(resolution, np.arange(16) < 2)
        choice = ChoiceFunction.constant(resolution, p.upper.freq.lo)
        full = GridSet.full(resolution)
        f = GridSignal.indicator(resolution, e)
        g = GridSignal.indicator(resolution, f_set)
        op = RestrictedOp(full, full, choice, collection)
        report = restricted_pairing(f, g, e, f_set, op, t=2.5)
        coef = inner_product(f, walsh_packet(p.lower, resolution))
        psi = walsh_packet(p.upper, resolution).values.real
        pairing = abs(coef * float(np.sum(psi * f_set.mask) * 2.0**-resolution))
        assert report.lhs == pytest.approx(pairing, abs=1e-13)

    def test_requires_domination(self):
        resolution = 4
        collection = TileCollection.all(resolution)
        full = GridSet.full(resolution)
        op = RestrictedOp(full, full, ChoiceFunction.constant(resolution, 0), collection)
        with pytest.raises(ValueError):
            restricted_pairing(
                GridSignal.constant(resolution, 2.0),
                GridSignal.constant(resolution, 1.0),
                full,
                full,
                op,
                t=2.5,
            )


class TestNormDecay:
    def test_full_sets_below_unrestricted(self):
        rng = np.random.default_rng(9)
        resolution = 5
        collection = TileCollection.all(resolution)
        full = GridSet.full(resolution)
        choice = random_choice(rng, resolution)
        restricted = restricted_norm(
            RestrictedOp(full, full, choice, collection), iters=100, seed=1
        ).norm
        h = random_grid_set(rng, resolution)
        h_prime = carve_h(full, h, 4.0)
        localized = restricted_norm(
            RestrictedOp(h, h_prime, choice, collection), iters=100, seed=1
        ).norm
        assert localized <= restricted * (1 + 1e-9)

    def test_monotone_in_localization(self):
        rng = np.random.default_rng(10)
        resolution = 5
        collection = TileCollection.all(resolution)
        choice = random_choice(rng, resolution)
        small = random_grid_set(rng, resolution)
        big = GridSet(resolution, small.mask | random_grid_set(rng, resolution).mask)
        full = GridSet.full(resolution)
        for a_side in (True, False):
            def op(localized):
                if a_side:
                    return RestrictedOp(localized, full, choice, collection)
                return RestrictedOp(full, localized, choice, collection)

            norm_small = restricted_norm(op(small), iters=400, tol=1e-12, seed=2).norm
            norm_big = restricted_norm(op(big), iters=400, tol=1e-12, seed=2).norm
            assert norm_small <= norm_big * (1 + 1e-6)

    def test_greedy_dominates_alternatives_pointwise(self):
        rng = np.random.default_rng(11)
        resolution = 5
        collection = TileCollection.all(resolution)
        f = random_signal(rng, resolution, complex_values=True)
        adversary = greedy_choice(f, collection)
        out_best = np.abs(model_sum(f, adversary, collection).values)
        for _ in range(10):
            other = random_choice(rng, resolution)
            out_other = np.abs(model_sum(f, other, collection).values)
            assert np.all(out_best >= out_other - 1e-9)

    def test_decay_point_and_short_ladder(self):
        rng = np.random.default_rng(12)
        resolution = 6
        collection = TileCollection.all(resolution)
        h = GridSet.full(resolution)
        g = random_grid_set(rng, resolution)
        point = norm_decay_point(h, g, collection, seed=3, iters=60)
        assert point["norm"] > 0 and point["kept"] >= 0.5 * measure(h)
        assert 1 <= point["iterations"] <= 60
        assert point["unconverged"] >= int(not point["converged"])
        ladder = norm_decay_ladder(
            resolution, [0.5, 0.25, 0.125], seed=4, iters=50, collection=collection
        )
        assert len(ladder.ratio_ladder) == 3
        assert math.isfinite(ladder.slope)
        assert ladder.extra["unconverged"] >= 0

    def test_decay_reports_unconverged_runs(self):
        # two iterations never meet the 1e-9 tolerance: every power iteration
        # of the point (four choice functions, plus adversary refits) stops
        # at the cap, and the norm is reported anyway
        rng = np.random.default_rng(16)
        resolution = 5
        collection = TileCollection.all(resolution)
        h = GridSet.full(resolution)
        g = random_grid_set(rng, resolution)
        point = norm_decay_point(h, g, collection, seed=3, iters=2)
        assert point["norm"] > 0
        assert point["iterations"] == 2 and not point["converged"]
        assert point["unconverged"] >= 4
        ladder = norm_decay_ladder(resolution, [0.5, 0.25], seed=5, iters=2, collection=collection)
        assert ladder.extra["unconverged"] >= 8
        assert json.loads(ladder.to_json())["unconverged"] == ladder.extra["unconverged"]

    def test_g_branch_runs(self):
        resolution = 5
        ladder = norm_decay_ladder(resolution, [0.5, 0.25], seed=5, branch="g", iters=40)
        assert len(ladder.ratio_ladder) == 2


class TestVectorCarleson:
    def test_single_member(self):
        rng = np.random.default_rng(13)
        fam = random_vector(rng, 5, 1)
        report = verify_vector_carleson(fam, None, 2.5)
        assert math.isfinite(report.ratio)

    def test_duplicates_invariant(self):
        rng = np.random.default_rng(14)
        resolution = 5
        f = random_signal(rng, resolution)
        collection = TileCollection.all(resolution)
        choice = [greedy_choice(f, collection)]
        one = verify_vector_carleson(
            VectorSignal.from_signals([f]), choice, 3.0, collection=collection
        )
        many = verify_vector_carleson(
            VectorSignal.from_signals([f] * 9), choice * 9, 3.0, collection=collection
        )
        assert many.ratio == pytest.approx(one.ratio, rel=1e-12)

    def test_rejects_bad_p(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError):
            verify_vector_carleson(random_vector(rng, 4, 2), None, 1.0)
