import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from dyadlab import harness, principle
from dyadlab.grid import STACK_CELLS, GridSet, GridSignal, VectorSignal, measure, stack_slices
from dyadlab.harness import (
    ExperimentConfig,
    maximal_operator_family,
    random_grid2d,
    random_grid_set,
    random_signal,
    random_vector,
)
from dyadlab.maximal import (
    CARVING,
    exceptional_complement,
    linearized_maximal,
)
from dyadlab.principle import (
    STEP_CAP,
    OperatorFamily,
    SubsetBuilder,
    condition_constant,
    measure_condition,
    PowerIterationResult,
    TopSingularResult,
    _check_loop,
    _row_norms,
    _start_vector,
    power_iteration,
    splitting_cascade,
    top_singular,
    trim_builder,
    vector_inequality_ratio,
)
from oracles import densify


class MapPair(NamedTuple):
    """A linear map with its adjoint, as the oracles below take it: on lone
    arrays, or on stacks where an `op_for(members)` returns one."""

    apply: Callable
    adjoint: Callable


def lone(op) -> OperatorFamily:
    """The one-member family of a map on lone arrays and its adjoint."""
    return OperatorFamily.of([op.apply], [op.adjoint])


def member_of(family, i) -> OperatorFamily:
    """Member i of a family as a one-member family."""
    return OperatorFamily(1, lambda rows, x: family.apply([i], x), lambda rows, x: family.adjoint([i], x))


def member_pair(family, i) -> MapPair:
    """Member i of a family as a map on lone arrays."""
    return MapPair(lambda v: family.apply([i], v[None])[0], lambda v: family.adjoint([i], v[None])[0])


def rowwise(op) -> MapPair:
    """A map on lone arrays run on each slab of a stack."""
    return MapPair(
        lambda v: np.stack([op.apply(row) for row in v]),
        lambda w: np.stack([op.adjoint(row) for row in w]),
    )


def family_op_for(family, out_mask, in_mask):
    """A family as the `op_for(members)` the old engines take: the stacked
    map v -> T(v 1_in) 1_out of the listed members, with its adjoint."""

    def op_for(members):
        return MapPair(
            lambda v: family.apply(members, v * in_mask) * out_mask,
            lambda w: family.adjoint(members, w * out_mask) * in_mask,
        )

    return op_for


def old_localized(op, h_mask, g_mask):
    """The closure pair measure_condition built before the engine masked:
    v -> T(v 1_H) 1_G and v -> T*(v 1_G) 1_H, on lone arrays."""
    return MapPair(lambda v: op.apply(v * h_mask) * g_mask, lambda v: op.adjoint(v * g_mask) * h_mask)


def old_power_iteration(op, shape, iters=200, tol=1e-9, seed=0):
    """The one-operator loop power_iteration ran before the stacked engine."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nv = np.linalg.norm(np.ravel(v))
    v = v / nv
    lam_prev = -1.0
    lam = 0.0
    for it in range(1, iters + 1):
        w = op.apply(v)
        lam = float(np.real(np.vdot(np.ravel(w), np.ravel(w))))
        if lam == 0.0:
            return PowerIterationResult(0.0, it, True, None)
        if lam_prev >= 0 and abs(lam - lam_prev) <= tol * lam:
            return PowerIterationResult(math.sqrt(lam), it, True, v)
        lam_prev = lam
        v = op.adjoint(w)
        nv = np.linalg.norm(np.ravel(v))
        if nv == 0.0:
            return PowerIterationResult(math.sqrt(lam), it, True, None)
        v = v / nv
    return PowerIterationResult(math.sqrt(lam), iters, False, v)


def old_power_iterations(op_for, shape, seeds, iters=200, tol=1e-9):
    """power_iterations with the stack loop it ran before it read rows
    through one reshaped view and wrote np.linalg.norm's sum out inline."""
    shape, seeds = tuple(shape), list(seeds)
    results = []
    for s in stack_slices(len(seeds), math.prod(shape)):
        results.extend(old_power_stack(op_for, shape, list(range(s.start, s.stop)), seeds, iters, tol))
    return results


def old_power_stack(op_for, shape, members, seeds, iters, tol):
    v = np.stack([_start_vector(seeds[i], shape) for i in members])
    slab = (-1,) + (1,) * len(shape)
    done = {}
    lam = [0.0] * len(members)
    lam_prev = [-1.0] * len(members)
    op = op_for(members)

    def leave(rows, *stacks):
        nonlocal members, lam, lam_prev, op
        keep = [r for r in range(len(members)) if r not in rows]
        members = [members[r] for r in keep]
        lam = [lam[r] for r in keep]
        lam_prev = [lam_prev[r] for r in keep]
        if members:
            op = op_for(members)
        return [s[keep] for s in stacks]

    for it in range(1, iters + 1):
        w = op.apply(v)
        stopped = []
        for row in range(len(members)):
            wr = w[row].ravel()
            lam_r = lam[row] = float(np.vdot(wr, wr).real)
            if lam_r == 0.0:
                done[members[row]] = PowerIterationResult(0.0, it, True, None)
            elif lam_prev[row] >= 0 and abs(lam_r - lam_prev[row]) <= tol * lam_r:
                done[members[row]] = PowerIterationResult(math.sqrt(lam_r), it, True, v[row].copy())
            else:
                lam_prev[row] = lam_r
                continue
            stopped.append(row)
        if stopped:
            v, w = leave(stopped, v, w)
            if not members:
                break
        v = op.adjoint(w)
        nv = [np.linalg.norm(v[row].ravel()) for row in range(len(members))]
        if 0.0 in nv:
            stopped = [row for row, norm in enumerate(nv) if norm == 0.0]
            for row in stopped:
                done[members[row]] = PowerIterationResult(math.sqrt(lam[row]), it, True, None)
            v, nv = leave(stopped, v, np.array(nv))
            if not members:
                break
        v = v / (nv[0] if len(nv) == 1 else np.array(nv).reshape(slab))
    for row in range(len(members)):
        done[members[row]] = PowerIterationResult(math.sqrt(lam[row]), iters, False, v[row].copy())
    return [done[i] for i in sorted(done)]


def power_iterations(op_for, shape, seeds, iters=200, tol=1e-9):
    """Largest singular values of a family of operators by power iteration
    on A*A, run on stacks of members: the stacked loop the decay and
    principle norms ran before `top_singular`, kept as an oracle.

    Member i starts from its own seed and `op_for(members)` returns the
    operator acting on a `(len(members), *shape)` stack of the listed
    members, one slab each; it is called again only when the membership
    changes.  Every per-member reduction (Rayleigh quotient, norm) runs on
    that member's slab alone and the normalization is elementwise, so each
    result is the one a single-member run with that seed gives, bit for
    bit.  A member leaves its stack as soon as it stops; the stacks are the
    consecutive runs of members that `grid.stack_slices` gives.

    The Rayleigh quotient is monotone nondecreasing along the iteration; the
    returned flag records whether the relative increment fell below tol.
    """
    _check_loop("iters", iters, tol)
    shape, seeds = tuple(shape), list(seeds)
    results = []
    for s in stack_slices(len(seeds), math.prod(shape)):
        members = list(range(s.start, s.stop))
        results.extend(_power_stack(op_for, shape, members, seeds, iters, tol))
    return results


def _power_stack(op_for, shape, members, seeds, iters, tol):
    v = np.stack([_start_vector(seeds[i], shape) for i in members])
    slab = (-1,) + (1,) * len(shape)
    done = {}
    # per-row state of the members still in the stack
    lam = [0.0] * len(members)
    lam_prev = [-1.0] * len(members)
    op = op_for(members)

    def leave(rows, *stacks):
        nonlocal members, lam, lam_prev, op
        keep = [r for r in range(len(members)) if r not in rows]
        members = [members[r] for r in keep]
        lam = [lam[r] for r in keep]
        lam_prev = [lam_prev[r] for r in keep]
        if members:
            op = op_for(members)
        return [s[keep] for s in stacks]

    for it in range(1, iters + 1):
        w = op.apply(v)
        stopped = []
        # one contiguous row per slab, the bytes raveling the slab alone
        # gives: BLAS sums a strided vector in another order
        for row, wr in enumerate(np.ascontiguousarray(w).reshape(len(members), -1)):
            lam_r = lam[row] = float(np.vdot(wr, wr).real)
            if lam_r == 0.0:
                done[members[row]] = PowerIterationResult(0.0, it, True, None)
            elif lam_prev[row] >= 0 and abs(lam_r - lam_prev[row]) <= tol * lam_r:
                top = v[row].copy()
                done[members[row]] = PowerIterationResult(math.sqrt(lam_r), it, True, top)
            else:
                lam_prev[row] = lam_r
                continue
            stopped.append(row)
        if stopped:
            v, w = leave(stopped, v, w)
            if not members:
                break
        v = op.adjoint(w)
        # np.linalg.norm's formula for a complex vector (numpy 2.4.6), inline
        rows = np.ascontiguousarray(v).reshape(len(members), -1)
        nv = [math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)) for x in rows]
        if 0.0 in nv:
            stopped = [row for row, norm in enumerate(nv) if norm == 0.0]
            for row in stopped:
                done[members[row]] = PowerIterationResult(math.sqrt(lam[row]), it, True, None)
            v, nv = leave(stopped, v, np.array(nv))
            if not members:
                break
        # one divisor per slab; a lone slab divides by the scalar itself
        v = v / (nv[0] if len(nv) == 1 else np.array(nv).reshape(slab))
    for row in range(len(members)):
        done[members[row]] = PowerIterationResult(math.sqrt(lam[row]), iters, False, v[row].copy())
    return [done[i] for i in sorted(done)]


def assert_same_bits(new, old):
    """Equal results, the top vector compared on raw bytes."""
    assert (new.norm, new.iterations, new.converged) == (old.norm, old.iterations, old.converged)
    assert (new.top_vector is None) == (old.top_vector is None)
    if old.top_vector is not None:
        assert new.top_vector.shape == old.top_vector.shape
        assert np.array_equal(new.top_vector.view(np.uint64), old.top_vector.view(np.uint64))


def assert_same_result(new, old):
    assert new.norm == old.norm
    assert new.iterations == old.iterations
    assert new.converged == old.converged
    if old.top_vector is None:
        assert new.top_vector is None
    else:
        assert new.top_vector.shape == old.top_vector.shape
        assert np.array_equal(new.top_vector, old.top_vector)


def assert_krylov_oracles(res, op, shape, seed, dense):
    """The engine's oracles for one member's result: never below the power
    iterate after as many steps from the same seed, and, when `dense`,
    within [s (1 - 1e-8), s (1 + 1e-12)] of the top singular value s of the
    written-out matrix.

    Both loops round, so where both have reached s (a 4-cell operator at
    L = 1 does so in three steps) the Ritz value may sit an ulp below the
    power iterate: the first bound allows 4 ulps, relative, and no more."""
    power = power_iteration(lone(op), shape, iters=res.steps, tol=0.0, seed=seed)
    assert res.norm >= power.norm * (1.0 - 4.0 * np.finfo(float).eps)
    if dense:
        matrix = densify(lambda x: op.apply(x.reshape(shape)), math.prod(shape))
        top = float(np.linalg.svd(matrix, compute_uv=False)[0])
        assert top * (1.0 - 1e-8) <= res.norm <= top * (1.0 + 1e-12)


def capture_top_singular(monkeypatch, module):
    """Record what `module` hands `top_singular`: its family, masks, seeds
    and keywords, the members of each stack the family is applied to, as
    they change, and the results."""
    captured = {"stacks": []}

    def recording(family, out_mask, in_mask, seeds, **kwargs):
        def apply(rows, x):
            if captured["stacks"][-1:] != [list(rows)]:
                captured["stacks"].append(list(rows))
            return family.apply(rows, x)

        spy = OperatorFamily(len(family), apply, family.adjoint)
        captured.update(family=family, out_mask=out_mask, in_mask=in_mask, seeds=list(seeds), kwargs=kwargs)
        captured["results"] = top_singular(spy, out_mask, in_mask, seeds, **kwargs)
        return captured["results"]

    monkeypatch.setattr(module, "top_singular", recording)
    return captured


def assert_one_member_runs_match(captured):
    """Each captured stacked result equals the one-member run of that
    member, bit for bit, top vector included."""
    family, kwargs = captured["family"], captured["kwargs"]
    masks = captured["out_mask"], captured["in_mask"]
    for i, (res, seed) in enumerate(zip(captured["results"], captured["seeds"])):
        [alone] = top_singular(member_of(family, i), *masks, [seed], **kwargs)
        assert_same_krylov(res, alone)


def assert_closure_runs_match(captured, closures):
    """Each captured result equals the old engine's run of the member's
    hand-written localized closure pair on lone arrays, closures(i), bit
    for bit: the engine's masking is the closures'."""
    kwargs, shape = captured["kwargs"], captured["in_mask"].shape
    for i, (res, seed) in enumerate(zip(captured["results"], captured["seeds"])):
        op = rowwise(closures(i))
        [old] = old_top_singular(lambda members: op, shape, [seed], **kwargs)
        assert_same_krylov(res, old)


def one_member_run(op, out_mask, in_mask, seed, **kwargs):
    """`top_singular` of one map on lone arrays, localized by the masks."""
    return top_singular(lone(op), out_mask, in_mask, [seed], **kwargs)[0]


def assert_same_krylov(new, old):
    """Equal `top_singular` results, the top vector compared on raw bytes."""
    assert new == old
    assert (new.top_vector is None) == (old.top_vector is None)
    if old.top_vector is not None:
        assert new.top_vector.shape == old.top_vector.shape
        assert np.array_equal(new.top_vector.view(np.uint64), old.top_vector.view(np.uint64))


def old_trim_builders(c):
    """The three builders trim_builder replaces, keyed by their sides."""

    def trim_h(h, g):
        return (exceptional_complement(h, g, c) if measure(h) > 0 else h), g

    def trim_g(h, g):
        return h, (exceptional_complement(g, h, c) if measure(g) > 0 else g)

    def trim_both(h, g):
        return trim_h(h, g)[0], trim_g(h, g)[1]

    return {"h": trim_h, "g": trim_g, "both": trim_both}


def identity_family(count=1):
    return OperatorFamily.of([lambda v: v] * count, [lambda v: v] * count)


def zero_family():
    return OperatorFamily.of([np.zeros_like], [np.zeros_like])


class TestDecayScalars:
    """The error budget of splitting level k is exactly 2**-k at every p0,
    near 1 and far above it too, where 6**max(p0, p0') overflows a float:
    the report's levels hold it, and A_p sums B_p times it."""

    @pytest.mark.parametrize("p", [1.0001, 1.002, 1.07, 1.1, 1.5, 2.0, 3.0, 10.0, 400.0])
    def test_budget_halves(self, p):
        _, report = harness.run(ExperimentConfig("principle", resolution=4, trials=1, p=p, q=p + 1.0))
        stats = report["principle"]
        assert [level["budget"] for level in stats["levels"]] == [2.0**-k for k in range(1, 11)]
        assert stats["A_p"] == sum(stats["B_p"] * 2.0**-k for k in range(64))


class TestPowerIteration:
    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_matches_dense_svd(self, n):
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = power_iteration(
            lone(MapPair(lambda v: matrix @ v, lambda v: matrix.conj().T @ v)),
            (n,),
            iters=2000,
            tol=1e-14,
            seed=1,
        )
        top = np.linalg.svd(matrix, compute_uv=False)[0]
        assert res.norm == pytest.approx(top, abs=1e-6 * top)

    def test_monotone_in_iterations(self):
        rng = np.random.default_rng(3)
        n = 32
        matrix = rng.standard_normal((n, n))
        norms = []
        for iters in (1, 2, 4, 8, 16, 32, 64):
            res = power_iteration(
                lone(MapPair(lambda v: matrix @ v, lambda v: matrix.T @ v)),
                (n,),
                iters=iters,
                tol=0.0,
                seed=5,
            )
            norms.append(res.norm)
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_in_place_family_keeps_the_top_vector(self):
        # verify_directional's multipliers transform the array they are
        # handed; the run returns the top vector of a family that copies
        from dyadlab.directional import DirectionSet, _multiplier_family

        family = _multiplier_family(3, DirectionSet.uniform(8), np.ones((8, 8), dtype=bool))
        copying = OperatorFamily(
            len(family), lambda rows, x: family.apply(rows, x.copy()), lambda rows, x: family.adjoint(rows, x.copy())
        )
        in_place, copied = (power_iteration(member_of(f, 9), (8, 8), seed=1) for f in (family, copying))
        assert (in_place.norm, in_place.iterations) == (copied.norm, copied.iterations)
        assert np.array_equal(in_place.top_vector, copied.top_vector)

    def test_zero_operator(self):
        res = power_iteration(zero_family(), (16,), seed=0)
        assert res.norm == 0.0 and res.converged

    def test_densify_oracle(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((10, 10))
        rebuilt = densify(lambda v: matrix @ v, 10)
        assert np.allclose(rebuilt, matrix)


class TestSubsetBuilders:
    def test_trim_builders_keep_half(self):
        rng = np.random.default_rng(6)
        for sides in ("h", "g", "both"):
            builder = trim_builder(4.0, sides)
            for _ in range(20):
                h = random_grid_set(rng, 6)
                g = random_grid_set(rng, 6)
                h_sub, g_sub = builder(h, g)
                assert measure(h_sub) >= 0.5 * measure(h)
                assert measure(g_sub) >= 0.5 * measure(g)
                assert not np.any(h_sub.mask & ~h.mask)
                assert not np.any(g_sub.mask & ~g.mask)

    def test_trim_builder_matches_separate_builders(self):
        rng = np.random.default_rng(61)
        for c in (4.0, 8.0):
            for sides, oracle in old_trim_builders(c).items():
                builder = trim_builder(c, sides)
                assert builder.label == f"trim-{sides}(c={c})"
                for _ in range(10):
                    h = random_grid_set(rng, 6)
                    g = random_grid_set(rng, 6)
                    got, want = builder(h, g), oracle(h, g)
                    assert np.array_equal(got[0].mask, want[0].mask)
                    assert np.array_equal(got[1].mask, want[1].mask)
        with pytest.raises(ValueError, match="sides"):
            trim_builder(4.0, "hg")

    def test_both_sides_never_carve_both_sets(self):
        # exceptional_complement carves only where c |marker| / |base| <= 1,
        # so at c = CARVING one split carves H or G, never both
        rng = np.random.default_rng(20)
        builder = trim_builder(CARVING, "both")
        carved = {"h": 0, "g": 0}
        for _ in range(600):
            resolution = int(rng.integers(1, 7))
            n = 1 << resolution
            h, g = (GridSet(resolution, rng.random(n) < rng.random()) for _ in range(2))
            if not (h.mask.any() and g.mask.any()):
                continue
            h_sub, g_sub = builder(h, g)
            h_carved = not np.array_equal(h_sub.mask, h.mask)
            g_carved = not np.array_equal(g_sub.mask, g.mask)
            assert not (h_carved and g_carved)
            carved["h"] += h_carved
            carved["g"] += g_carved
        # both branches are reached, so the property is not vacuous
        assert carved["h"] > 0 and carved["g"] > 0

    def test_violating_builder_raises(self):
        bad = SubsetBuilder(lambda h, g: (GridSet.empty(h.resolution), g), label="bad")
        with pytest.raises(ValueError):
            bad(GridSet.full(4), GridSet.full(4))

    def test_escaping_builder_raises(self):
        swap = SubsetBuilder(lambda h, g: (g, g), label="swap")
        h = GridSet(3, np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool))
        g = GridSet(3, np.array([0, 0, 1, 1, 1, 1, 0, 0], dtype=bool))
        with pytest.raises(ValueError):
            swap(h, g)


class TestMeasureCondition:
    def test_identity_equal_measures(self):
        h = GridSet(4, np.arange(16) < 8)
        g = GridSet(4, np.arange(16) >= 8)
        keep_all = SubsetBuilder(lambda h, g: (h, g), label="keep")
        report = measure_condition(identity_family(), h, g, keep_all, p=3.0)
        # localized identity between disjoint equal-measure sets has norm 0;
        # with overlapping sets the norm is 1
        assert report["C_p"] == 0.0
        overlap = measure_condition(identity_family(), h, h, keep_all, p=3.0)
        assert overlap["C_p"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_family(self):
        h = GridSet.full(4)
        g = GridSet.full(4)
        keep_all = SubsetBuilder(lambda h, g: (h, g), label="keep")
        report = measure_condition(zero_family(), h, g, keep_all, p=2.5)
        assert report["C_p"] == 0.0 and report["B_p"] == 0.0

    def test_power_iteration_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        resolution = 5
        family, _ = maximal_operator_family(rng, resolution, 3)
        h = random_grid_set(rng, resolution)
        g = random_grid_set(rng, resolution)
        builder = trim_builder(4.0, "h")
        report = measure_condition(family, h, g, builder, p=3.0)
        h_sub, g_sub = builder(h, g)
        dense_best = 0.0
        for j in range(len(family)):
            op = member_pair(family, j)
            matrix = densify(lambda v: op.apply(v * h_sub.mask) * g_sub.mask, 1 << resolution)
            dense_best = max(dense_best, float(np.linalg.svd(matrix, compute_uv=False)[0]))
        ratio_pow = (measure(g) / measure(h)) ** (1.0 - 2.0 / 3.0)
        assert report["C_p"] == pytest.approx(dense_best**2 / ratio_pow, abs=1e-6)

    def test_series_doubles_b(self):
        rng = np.random.default_rng(9)
        family, _ = maximal_operator_family(rng, 5, 2)
        h = random_grid_set(rng, 5)
        g = random_grid_set(rng, 5)
        report = measure_condition(family, h, g, trim_builder(4.0, "h"), p=2.5)
        assert report["A_p"] == pytest.approx(2.0 * report["B_p"], rel=1e-12)

    def test_requires_positive_measures(self):
        keep_all = SubsetBuilder(lambda h, g: (h, g), label="keep")
        with pytest.raises(ValueError):
            measure_condition(identity_family(), GridSet.empty(4), GridSet.full(4), keep_all, 2.5)

    def test_empty_family_is_rejected(self):
        # it used to raise ZeroDivisionError from the probe's member cycle
        keep_all = SubsetBuilder(lambda h, g: (h, g), label="keep")
        empty = OperatorFamily.of([], [])
        with pytest.raises(ValueError, match="operator family is empty"):
            measure_condition(empty, GridSet.full(4), GridSet.full(4), keep_all, 2.5)
        fam = random_vector(np.random.default_rng(24), 4, 2)
        with pytest.raises(ValueError, match="operator family is empty"):
            vector_inequality_ratio(empty, fam, 2.5)


class TestSplittingCascade:
    def test_level_one_three_pairs(self):
        rng = np.random.default_rng(10)
        h = random_grid_set(rng, 6)
        g = random_grid_set(rng, 6)
        levels = splitting_cascade(h, g, trim_builder(4.0, "both"), k_max=1)
        assert levels[0]["k"] == 1
        assert levels[0]["max_product_measure"] <= 0.5 * measure(g) * measure(h) + 1e-15
        assert levels[0]["budget"] == 0.5

    def test_ten_levels_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_grid_set(rng, 6)
            g = random_grid_set(rng, 6)
            levels = splitting_cascade(h, g, trim_builder(4.0, "both"), k_max=10)
            assert len(levels) == 10
            base = measure(g) * measure(h)
            for stat in levels:
                assert stat["max_product_measure"] <= base * 0.5**stat["k"] + 1e-15
                assert stat["budget"] == 2.0 ** -stat["k"]

    def test_one_sided_builder_chain(self):
        rng = np.random.default_rng(12)
        h = random_grid_set(rng, 5)
        g = random_grid_set(rng, 5)
        levels = splitting_cascade(h, g, trim_builder(4.0, "h"), k_max=6)
        assert len(levels) == 6

    def test_requires_depth(self):
        with pytest.raises(ValueError):
            splitting_cascade(GridSet.full(3), GridSet.full(3), trim_builder(4.0, "h"), 0)


class TestVectorConclusion:
    def test_identity_single(self):
        rng = np.random.default_rng(13)
        fam = random_vector(rng, 5, 1)
        report = vector_inequality_ratio(identity_family(), fam, 2.5)
        assert report["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_duplicates_invariant(self):
        rng = np.random.default_rng(14)
        resolution = 5
        family, _ = maximal_operator_family(rng, resolution, 1)
        f = random_signal(rng, resolution)
        one = vector_inequality_ratio(family, VectorSignal.from_signals([f]), 2.5)
        many = vector_inequality_ratio(family, VectorSignal.from_signals([f] * 9), 2.5)
        assert many["ratio"] == pytest.approx(one["ratio"], rel=1e-12)

    def test_family_adjoints_are_transposes(self):
        rng = np.random.default_rng(16)
        family, _ = maximal_operator_family(rng, 4, 3)
        for op in (member_pair(family, j) for j in range(len(family))):
            forward = densify(op.apply, 16)
            backward = densify(op.adjoint, 16)
            assert np.allclose(backward, forward.conj().T, atol=1e-12)


    def test_family_runs_the_library_pair(self):
        rng = np.random.default_rng(20)
        resolution = 5
        family, choices = maximal_operator_family(rng, resolution, 3)
        for j, choice in enumerate(choices):
            op = member_pair(family, j)
            v = rng.standard_normal(1 << resolution) + 1j * rng.standard_normal(1 << resolution)
            f = GridSignal(resolution, v)
            assert op.apply(v).tobytes() == linearized_maximal(f, choice).values.tobytes()
            assert op.adjoint(v).tobytes() == choice.average_adjoint(v).tobytes()


class TestConditionConstant:
    def test_second_exponent_from_the_first_measurement(self):
        rng = np.random.default_rng(21)
        resolution = 5
        family, _ = maximal_operator_family(rng, resolution, 3)
        h, g = random_grid_set(rng, resolution), random_grid_set(rng, resolution)
        builder = trim_builder(4.0, "h")
        first = measure_condition(family, h, g, builder, 2.0, seed=3)
        norms, ratio = first["norms"], first["measure_ratio"]
        assert condition_constant(norms, ratio, 2.0) == first["C_p"]
        for p1 in (2.5, 3.0, 7.0):
            again = measure_condition(family, h, g, builder, p1, seed=3)
            assert condition_constant(norms, ratio, p1) == again["C_p"]

    def test_verify_principle_measures_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[4])
            return measure_condition(*args, **kwargs)

        # run_principle imports the engine's functions when it runs
        monkeypatch.setattr(principle, "measure_condition", counting)
        _, report = harness.run(ExperimentConfig("principle", resolution=4, trials=1, p=2.0, q=2.5))
        assert calls == [2.0]
        assert report["principle"]["p1"] == 3.0

class TestLocalizedOperator:
    """The engine localizes a family by itself: its runs equal the old
    engine's runs of the hand-written closure pairs, bit for bit."""

    def test_adjoint_is_required(self):
        with pytest.raises(TypeError):
            OperatorFamily(1, lambda rows, x: x)

    def test_maximal_family_matches_closure_oracle(self):
        rng = np.random.default_rng(17)
        resolution = 5
        n = 1 << resolution
        family, choices = maximal_operator_family(rng, resolution, 4)
        for j, choice in enumerate(choices):
            h_mask = rng.random(n) < 0.5
            g_mask = rng.random(n) < 0.5
            closures = rowwise(old_localized(MapPair(choice.average, choice.average_adjoint), h_mask, g_mask))
            for max_steps in (3, 200):
                [new] = top_singular(member_of(family, j), g_mask, h_mask, [j], max_steps=max_steps, vectors=True)
                [old] = old_top_singular(lambda members: closures, (n,), [j], max_steps=max_steps, vectors=True)
                assert_same_krylov(new, old)

    def test_adjoint_is_conjugate_transpose(self):
        # the engine's localized adjoint is the conjugate transpose of its
        # localized apply, member by member
        rng = np.random.default_rng(18)
        resolution = 4
        n = 1 << resolution
        _, choices = maximal_operator_family(rng, resolution, 3)
        matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        family = OperatorFamily.of(
            [*(ch.average for ch in choices), lambda v: matrix @ v],
            [*(ch.average_adjoint for ch in choices), lambda v: matrix.conj().T @ v],
        )
        for j in range(len(family)):
            local = family_op_for(family, rng.random(n) < 0.5, rng.random(n) < 0.5)([j])
            forward = densify(lambda v: local.apply(v[None])[0], n)
            backward = densify(lambda v: local.adjoint(v[None])[0], n)
            assert np.allclose(backward, forward.conj().T, rtol=0.0, atol=1e-12)

    def test_measure_condition_runs_the_localized_operator(self):
        rng = np.random.default_rng(19)
        resolution = 5
        family, choices = maximal_operator_family(rng, resolution, 3)
        h = random_grid_set(rng, resolution)
        g = random_grid_set(rng, resolution)
        builder = trim_builder(4.0, "h")
        report = measure_condition(family, h, g, builder, p=2.5, seed=4)
        h_sub, g_sub = builder(h, g)
        for j, choice in enumerate(choices):
            closures = rowwise(old_localized(MapPair(choice.average, choice.average_adjoint), h_sub.mask, g_sub.mask))
            [res] = old_top_singular(lambda members: closures, (1 << resolution,), [4 + j], vectors=True)
            assert report["norms"][j] == res.norm
            assert report["steps"][j] == res.steps


class TestMeasureConditionEngine:
    """measure_condition runs every member as one stack of top_singular
    runs and reports the runs that stopped at the cap."""

    def test_stacked_runs_equal_one_member_runs(self, monkeypatch):
        import dyadlab.principle as principle

        rng = np.random.default_rng(22)
        resolution = 5
        family, _ = maximal_operator_family(rng, resolution, 3)
        h, g = random_grid_set(rng, resolution), random_grid_set(rng, resolution)
        captured = capture_top_singular(monkeypatch, principle)
        report = measure_condition(family, h, g, trim_builder(4.0, "h"), p=2.5, seed=6)
        # member j is seeded 6 + j
        assert captured["seeds"] == [6, 7, 8]
        assert captured["stacks"][0] == [0, 1, 2]
        assert captured["kwargs"] == {"vectors": True}
        assert_one_member_runs_match(captured)
        results = captured["results"]
        assert all(res.top_vector is not None for res in results)
        assert report["norms"] == [res.norm for res in results]
        assert report["steps"] == [res.steps for res in results]
        assert report["unconverged"] == 0 and report["converged"]

    def test_capped_runs_are_reported(self, monkeypatch):
        import functools

        import dyadlab.principle as principle

        config = ExperimentConfig("principle", resolution=4, trials=2, p=1.5, q=2.0)
        _, report = harness.run(config)
        assert report["ok"] and report["unconverged"] == 0

        # an engine capped at 2 steps stops every run unconverged
        monkeypatch.setattr(principle, "top_singular", functools.partial(top_singular, max_steps=2))
        rng = np.random.default_rng(23)
        family, _ = maximal_operator_family(rng, 5, 2)
        h, g = random_grid_set(rng, 5), random_grid_set(rng, 5)
        capped = measure_condition(family, h, g, trim_builder(4.0, "h"), p=2.5)
        assert capped["unconverged"] > 0 and not capped["converged"]
        _, report = harness.run(config)
        assert report["unconverged"] > 0
        assert report["ok"] is False


class TestExactCascadeBound:
    """splitting_cascade compares the level's product measure with its
    bound exactly: a product at the bound passes, one ulp above fails."""

    @staticmethod
    def run(monkeypatch, nudge):
        import dyadlab.principle as principle

        # H = G = [0, 1) at L = 1; the builder keeps G and the left half of
        # H, so the pair (G', H - H') has product 1 * 1/2, the level-1 bound
        half = np.array([True, False])
        builder = SubsetBuilder(lambda h, g: (GridSet(1, h.mask & half), g), label="left")
        if nudge:
            exact = principle.measure
            monkeypatch.setattr(
                principle,
                "measure",
                lambda s: np.nextafter(exact(s), 1.0) if np.array_equal(s.mask, ~half) else exact(s),
            )
        return splitting_cascade(GridSet.full(1), GridSet.full(1), builder, k_max=1)

    def test_at_the_bound_passes(self, monkeypatch):
        [level] = self.run(monkeypatch, nudge=False)
        assert level["max_product_measure"] == 0.5

    def test_one_ulp_above_fails(self, monkeypatch):
        with pytest.raises(AssertionError, match="exceeds bound"):
            self.run(monkeypatch, nudge=True)


def multiplier_family(rng, resolution, count):
    """Fourier multipliers on the plane whose spectral gaps differ, so their
    power iterations stop at different steps; member 1 is the zero
    multiplier (the lam == 0 exit)."""
    n = 1 << resolution
    spectra = rng.random((count, n, n)) * 0.9
    for i in range(count):
        spectra[i].flat[i % (n * n)] = 1.0
        spectra[i].flat[(i + 1) % (n * n)] = 1.0 - 0.5 ** (i % 7 + 2)
    if count > 1:
        spectra[1] = 0.0
    return spectra


def spectral_family(spectra, calls=None):
    """The multipliers as a family; `calls` records the members of each
    apply, once per change."""

    def apply(rows, x):
        if calls is not None and calls[-1:] != [list(rows)]:
            calls.append(list(rows))
        return np.fft.ifft2(np.fft.fft2(x) * spectra[rows])

    return OperatorFamily(len(spectra), apply, lambda rows, x: np.fft.ifft2(np.fft.fft2(x) * np.conj(spectra[rows])))


def single_multiplier(spectrum, out_mask, in_mask):
    """One multiplier localized by the masks, on lone arrays."""
    op = MapPair(
        lambda x: np.fft.ifft2(np.fft.fft2(x) * spectrum),
        lambda x: np.fft.ifft2(np.fft.fft2(x) * np.conj(spectrum)),
    )
    return old_localized(op, in_mask, out_mask)


def old_row_norms(x):
    """The row norms top_singular took before one `vecdot`: a loop of vdots."""
    return np.sqrt([np.vdot(row, row).real for row in x.reshape(len(x), -1)])


def old_ritz_matrix(alphas, betas):
    """B^T B per row as top_singular rebuilt it twice a step before it grew
    one matrix in place."""
    m, k = alphas.shape
    i = np.arange(k)
    t = np.zeros((m, k, k))
    t[:, i, i] = alphas**2
    t[:, i[1:], i[1:]] += betas**2
    t[:, i[1:], i[:-1]] = alphas[:, :-1] * betas
    return t


def old_ritz_vectors(alphas, betas, basis):
    y = np.linalg.eigh(old_ritz_matrix(alphas, betas))[1][:, :, -1:]
    x = basis[:, 0] * y[:, 0]
    for j in range(1, y.shape[1]):
        x += basis[:, j] * y[:, j]
    return x


def old_top_singular(op_for, shape, seeds, tol=1e-9, max_steps=200, vectors=False):
    """top_singular with the stack loop it ran before it grew B^T B in place,
    drew one start vector per distinct seed and took row norms by vecdot."""
    shape, seeds = tuple(shape), list(seeds)
    results = []
    for s in stack_slices(len(seeds), math.prod(shape)):
        members = list(range(s.start, s.stop))
        results.extend(old_lanczos_stack(op_for, shape, members, seeds, tol, max_steps, vectors))
    return results


def old_lanczos_stack(op_for, shape, members, seeds, tol, max_steps, vectors):
    slab = (-1,) + (1,) * len(shape)
    op = op_for(members)
    done = {}
    v = np.stack([_start_vector(seeds[i], shape) for i in members])
    u = np.empty_like(v)
    alphas = np.zeros((len(members), max_steps))
    betas = np.zeros((len(members), max_steps))
    lam = np.zeros(len(members))
    place = np.arange(len(members))
    basis = np.empty((len(members), min(8, max_steps), v[0].size), complex) if vectors else None

    def stop(rows, k, converged):
        tops = dict.fromkeys(rows)
        positive = [row for row in rows if lam[row] > 0.0]
        if vectors and positive:
            x = old_ritz_vectors(alphas[positive, :k], betas[positive, : k - 1], basis[place[positive], :k])
            tops.update(zip(positive, x.reshape(len(positive), *shape)))
        for row in rows:
            done[members[row]] = TopSingularResult(math.sqrt(lam[row]), k, converged, tops[row])

    def leave(rows, *stacks):
        nonlocal members, op
        keep = [r for r in range(len(members)) if r not in rows]
        members = [members[r] for r in keep]
        if members:
            op = op_for(members)
        return [s[keep] for s in stacks]

    def extend(image, coef, last):
        np.subtract(image, np.multiply(last, coef.reshape(slab), out=last), out=last)
        return old_row_norms(last)

    for k in range(1, max_steps + 1):
        if k > 1:
            beta = betas[:, k - 2] = extend(op.adjoint(u), alphas[:, k - 2], v)
            if 0.0 in beta:
                stopped = np.flatnonzero(beta == 0.0)
                stop(stopped, k - 1, True)
                v, u, alphas, betas, lam, place = leave(stopped, v, u, alphas, betas, lam, place)
                if not members:
                    break
            np.divide(v, betas[:, k - 2].reshape(slab), out=v)
        if vectors:
            if k > basis.shape[1]:
                grown = np.empty((len(basis), min(2 * basis.shape[1], max_steps), basis.shape[2]), complex)
                grown[:, : k - 1] = basis
                basis = grown
            basis[place, k - 1] = v.reshape(len(v), -1)
        if k == 1:
            np.copyto(u, op.apply(v))
            alpha = old_row_norms(u)
        else:
            alpha = extend(op.apply(v), betas[:, k - 2], u)
        alphas[:, k - 1] = alpha
        lam_prev, lam = lam, np.linalg.eigvalsh(old_ritz_matrix(alphas[:, :k], betas[:, : k - 1]))[:, -1]
        settled = alpha == 0.0
        if k > 1:
            settled |= np.abs(lam - lam_prev) <= tol * lam
        stopped = np.flatnonzero(settled)
        if len(stopped):
            stop(stopped, k, True)
            v, u, alphas, betas, lam, place = leave(stopped, v, u, alphas, betas, lam, place)
            if not members:
                break
        np.divide(u, alphas[:, k - 1].reshape(slab), out=u)
    stop(range(len(members)), max_steps, False)
    return [done[i] for i in sorted(done)]


def assert_matches_old_engine(family, out_mask, in_mask, seeds, **kwargs):
    """top_singular equals the old engine on every member, top vectors by
    their bytes; returns the results."""
    new = top_singular(family, out_mask, in_mask, seeds, **kwargs)
    old = old_top_singular(family_op_for(family, out_mask, in_mask), in_mask.shape, seeds, **kwargs)
    assert len(new) == len(old) == len(seeds)
    for res, expected in zip(new, old):
        assert_same_krylov(res, expected)
    return new


class TestStackedPowerIteration:
    """power_iterations against the one-operator loop, member by member."""

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
    def test_matches_per_member_loop(self, resolution):
        rng = np.random.default_rng(40 + resolution)
        n = 1 << resolution
        cap = max(1, STACK_CELLS // (n * n))
        # one member, a full stack, and a count that is not a multiple of the cap
        for count in sorted({1, min(cap, 20), min(cap, 20) + 3}):
            spectra = multiplier_family(rng, resolution, count)
            out_mask, in_mask = rng.random((n, n)) < 0.6, rng.random((n, n)) < 0.6
            seeds = [7 + 3 * i for i in range(count)]
            calls = []
            op_for = family_op_for(spectral_family(spectra, calls), out_mask, in_mask)
            results = power_iterations(op_for, (n, n), seeds, iters=60, tol=1e-6)
            assert len(results) == count
            assert all(len(members) <= cap for members in calls)
            for i, res in enumerate(results):
                old = old_power_iteration(
                    single_multiplier(spectra[i], out_mask, in_mask),
                    (n, n),
                    iters=60,
                    tol=1e-6,
                    seed=seeds[i],
                )
                assert_same_result(res, old)

    def test_members_stop_at_different_iterations(self):
        rng = np.random.default_rng(50)
        resolution, n = 5, 32
        spectra = multiplier_family(rng, resolution, STACK_CELLS // (n * n))
        ones = np.ones((n, n), dtype=bool)
        calls = []
        results = power_iterations(
            family_op_for(spectral_family(spectra, calls), ones, ones), (n, n), range(len(spectra)),
            iters=80, tol=1e-8,
        )
        iterations = [r.iterations for r in results]
        assert results[1].norm == 0.0 and results[1].iterations == 1
        assert len(set(iterations)) > 3
        assert any(r.converged for r in results) and not all(r.converged for r in results)
        # the members change only when some leave, over shrinking stacks
        assert calls[0] == list(range(len(spectra)))
        assert all(set(b) < set(a) for a, b in zip(calls, calls[1:]))
        for i, res in enumerate(results):
            old = old_power_iteration(
                single_multiplier(spectra[i], ones, ones), (n, n), iters=80, tol=1e-8, seed=i
            )
            assert_same_result(res, old)

    def test_zero_adjoint_leaves_the_stack(self):
        # a member whose (deliberately wrong) adjoint vanishes takes the
        # nv == 0 exit of the loop; its neighbours carry on unchanged
        rng = np.random.default_rng(51)
        n = 16
        diagonals = rng.standard_normal((3, n))

        def op_for(members):
            d = diagonals[members]
            dead = np.array([0.0 if i == 1 else 1.0 for i in members])[:, None]
            return MapPair(lambda v: v * d, lambda w: w * d * dead)

        results = power_iterations(op_for, (n,), [1, 2, 3], iters=50)
        for i, res in enumerate(results):
            d = diagonals[i]
            adjoint = (lambda w: w * 0.0) if i == 1 else (lambda w, d=d: w * d * 1.0)
            old = old_power_iteration(
                MapPair(lambda v, d=d: v * d, adjoint), (n,), iters=50, seed=i + 1
            )
            assert_same_result(res, old)
        assert results[1].iterations == 1 and results[1].top_vector is None

    @pytest.mark.parametrize("iters", [2, 60])
    def test_matches_old_stack_loop(self, iters):
        """The same bytes as the stack loop before its row view and inline
        norm: plane stacks with a zero member, members whose adjoint
        vanishes, and operators that return strided or F-ordered stacks."""
        rng = np.random.default_rng(53)
        for resolution in (2, 3, 4):
            n = 1 << resolution
            spectra = multiplier_family(rng, resolution, 6)
            out_mask, in_mask = rng.random((n, n)) < 0.7, rng.random((n, n)) < 0.7
            op_for = family_op_for(spectral_family(spectra), out_mask, in_mask)
            seeds = range(4, 10)
            for new, old in zip(
                power_iterations(op_for, (n, n), seeds, iters=iters, tol=1e-6),
                old_power_iterations(op_for, (n, n), seeds, iters=iters, tol=1e-6),
                strict=True,
            ):
                assert_same_bits(new, old)
        n = 32
        diagonals = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))

        def op_for(members):
            d = diagonals[members]
            dead = np.array([0.0 if i == 2 else 1.0 for i in members])[:, None]
            # a strided apply and an F-ordered adjoint
            return MapPair(
                lambda v: np.repeat(v * d, 2, axis=1)[:, ::2],
                lambda w: np.asfortranarray(w * np.conj(d) * dead),
            )

        seeds = [3, 1, 4, 1, 5]
        for new, old in zip(
            power_iterations(op_for, (n,), seeds, iters=iters),
            old_power_iterations(op_for, (n,), seeds, iters=iters),
            strict=True,
        ):
            assert_same_bits(new, old)

    @pytest.mark.parametrize("iters", [1, 2, 200])
    def test_one_member_call_matches_old_loop(self, iters):
        rng = np.random.default_rng(52)
        resolution = 6
        n = 1 << resolution
        _, choices = maximal_operator_family(rng, resolution, 3)
        h, g = random_grid_set(rng, resolution), random_grid_set(rng, resolution)
        for j, choice in enumerate(choices):
            local = old_localized(MapPair(choice.average, choice.average_adjoint), h.mask, g.mask)
            new = power_iteration(lone(local), (n,), iters=iters, seed=9 + j)
            assert_same_result(new, old_power_iteration(local, (n,), iters=iters, seed=9 + j))


class TestLoopSettings:
    """Both norm loops reject a step cap below one and a negative or NaN
    tolerance, naming the argument; a cap of 0 used to return norm 0.0."""

    ones = np.ones(4, dtype=bool)

    @staticmethod
    def diagonal():
        d = np.arange(1.0, 5.0)
        return MapPair(lambda v: v * d, lambda v: v * d)

    @pytest.mark.parametrize("iters", [0, -3])
    def test_power_iteration_rejects_cap(self, iters):
        op = self.diagonal()
        with pytest.raises(ValueError, match="iters"):
            power_iteration(lone(op), (4,), iters=iters)
        with pytest.raises(ValueError, match="iters"):
            power_iterations(lambda members: op, (4,), [0], iters=iters)

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_top_singular_rejects_cap(self, max_steps):
        with pytest.raises(ValueError, match="max_steps"):
            top_singular(lone(self.diagonal()), self.ones, self.ones, [0], max_steps=max_steps)

    @pytest.mark.parametrize("tol", [-1e-9, math.nan])
    def test_rejects_tolerance(self, tol):
        op = self.diagonal()
        with pytest.raises(ValueError, match="tol"):
            power_iteration(lone(op), (4,), tol=tol)
        with pytest.raises(ValueError, match="tol"):
            top_singular(lone(op), self.ones, self.ones, [0], tol=tol)

    def test_smallest_settings_run(self):
        op = self.diagonal()
        assert power_iteration(lone(op), (4,), iters=1, tol=0.0).iterations == 1
        assert top_singular(lone(op), self.ones, self.ones, [0], tol=0.0, max_steps=1)[0].steps == 1

    @pytest.mark.parametrize("seeds", [[], [0, 1]])
    def test_top_singular_rejects_seed_count(self, seeds):
        with pytest.raises(ValueError, match="one seed per family member, got"):
            top_singular(lone(self.diagonal()), self.ones, self.ones, seeds)

    def test_power_iteration_runs_member_zero(self):
        d = np.arange(1.0, 5.0)
        pair = OperatorFamily.of([lambda v: v * d, np.zeros_like], [lambda v: v * d, np.zeros_like])
        res = power_iteration(pair, (4,), tol=0.0, iters=5, seed=2)
        assert_same_result(res, power_iteration(lone(self.diagonal()), (4,), tol=0.0, iters=5, seed=2))
        assert res.norm > 0.0


class TestTopSingular:
    """The stacked Golub-Kahan-Lanczos engine against dense SVD, against
    power iteration at equal steps, and against its own one-member runs."""

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4])
    def test_oracles_on_multipliers(self, resolution):
        rng = np.random.default_rng(60 + resolution)
        n = 1 << resolution
        spectra = multiplier_family(rng, resolution, 9)
        out_mask, in_mask = rng.random((n, n)) < 0.6, rng.random((n, n)) < 0.6
        seeds = [11 + i for i in range(len(spectra))]
        results = top_singular(spectral_family(spectra), out_mask, in_mask, seeds)
        assert all(res.converged for res in results)
        for i, res in enumerate(results):
            local = single_multiplier(spectra[i], out_mask, in_mask)
            assert_krylov_oracles(res, local, (n, n), seeds[i], dense=True)

    @pytest.mark.parametrize("steps", [1, 2, 3, 5, 10, 30])
    def test_never_below_power_at_equal_steps(self, steps):
        rng = np.random.default_rng(70)
        resolution, n = 4, 16
        spectra = multiplier_family(rng, resolution, 12)
        out_mask, in_mask = rng.random((n, n)) < 0.5, rng.random((n, n)) < 0.5
        results = top_singular(spectral_family(spectra), out_mask, in_mask, range(12), tol=0.0, max_steps=steps)
        for i, res in enumerate(results):
            power = power_iteration(
                lone(single_multiplier(spectra[i], out_mask, in_mask)), (n, n),
                iters=steps, tol=0.0, seed=i,
            )
            assert res.steps <= steps
            assert res.norm >= power.norm

    @pytest.mark.parametrize("resolution", [2, 4, 5, 6])
    def test_stacked_equals_one_member(self, resolution):
        rng = np.random.default_rng(80 + resolution)
        n = 1 << resolution
        cap = max(1, STACK_CELLS // (n * n))
        spectra = multiplier_family(rng, resolution, min(cap, 20) + 3)
        out_mask, in_mask = rng.random((n, n)) < 0.6, rng.random((n, n)) < 0.6
        seeds = [5 + 2 * i for i in range(len(spectra))]
        calls = []
        family = spectral_family(spectra, calls)
        results = top_singular(family, out_mask, in_mask, seeds, max_steps=40)
        assert len(results) == len(spectra)
        assert all(len(members) <= cap for members in calls)
        for i, res in enumerate(results):
            alone = top_singular(member_of(family, i), out_mask, in_mask, [seeds[i]], max_steps=40)
            assert alone == [res]

    @pytest.mark.parametrize("resolution", [2, 4, 5])
    def test_top_vectors(self, resolution):
        # asking for vectors leaves norms, steps and flags as they are; the
        # stacked vectors equal the one-member runs' bytes, past the first
        # growth of the kept basis; each vector attains its Ritz value
        rng = np.random.default_rng(95 + resolution)
        n = 1 << resolution
        spectra = multiplier_family(rng, resolution, 7)
        out_mask, in_mask = rng.random((n, n)) < 0.6, rng.random((n, n)) < 0.6
        family = spectral_family(spectra)
        seeds = [3 + i for i in range(len(spectra))]
        plain = top_singular(family, out_mask, in_mask, seeds, max_steps=40)
        results = top_singular(family, out_mask, in_mask, seeds, max_steps=40, vectors=True)
        assert results == plain and all(res.top_vector is None for res in plain)
        assert max(res.steps for res in results) > 8
        for i, res in enumerate(results):
            [alone] = top_singular(member_of(family, i), out_mask, in_mask, [seeds[i]], max_steps=40, vectors=True)
            assert_same_krylov(res, alone)
            if res.norm == 0.0:
                assert res.top_vector is None
                continue
            x = res.top_vector
            assert x.shape == (n, n)
            attained = np.linalg.norm(single_multiplier(spectra[i], out_mask, in_mask).apply(x)) / np.linalg.norm(x)
            assert abs(attained - res.norm) <= 1e-9 * res.norm

    @pytest.mark.parametrize("resolution", [2, 4, 5])
    def test_family_may_overwrite_its_input(self, resolution):
        # the engine reads no array after handing it to a member and masks
        # what a member returns in place: a family that transforms its input
        # in place and returns it gives the bytes of one that copies first
        rng = np.random.default_rng(110 + resolution)
        n = 1 << resolution
        spectra = multiplier_family(rng, resolution, 7)
        out_mask, in_mask = rng.random((n, n)) < 0.6, rng.random((n, n)) < 0.6

        def in_place(spectra):
            def run(rows, x):
                spectrum = np.fft.fftn(x, axes=(-2, -1), out=x)
                np.multiply(spectrum, spectra[rows], out=spectrum)
                return np.fft.ifftn(spectrum, axes=(-2, -1), out=spectrum)

            return run

        apply, adjoint = in_place(spectra), in_place(np.conj(spectra))
        overwriting = OperatorFamily(len(spectra), apply, adjoint)
        copying = OperatorFamily(len(spectra), lambda rows, x: apply(rows, x.copy()), lambda rows, x: adjoint(rows, x.copy()))
        seeds = [7 + i for i in range(len(spectra))]
        got = top_singular(overwriting, out_mask, in_mask, seeds, max_steps=40, vectors=True)
        want = top_singular(copying, out_mask, in_mask, seeds, max_steps=40, vectors=True)
        assert max(res.steps for res in want) > 8
        for new, old in zip(got, want, strict=True):
            assert_same_krylov(new, old)

    def test_members_leave_when_they_converge(self):
        rng = np.random.default_rng(90)
        resolution, n = 5, 32
        spectra = multiplier_family(rng, resolution, STACK_CELLS // (n * n))
        ones = np.ones((n, n), dtype=bool)
        calls = []
        results = top_singular(spectral_family(spectra, calls), ones, ones, range(len(spectra)))
        # member 1 is the zero multiplier: A v = 0 at the first step
        assert results[1] == TopSingularResult(0.0, 1, True)
        assert all(res.converged for res in results)
        assert len({res.steps for res in results}) > 3
        # the members change only when some leave, over shrinking stacks
        assert calls[0] == list(range(len(spectra)))
        assert all(set(b) < set(a) for a, b in zip(calls, calls[1:]))
        # a multiplier's norm is its largest modulus: 1 at the planted cell
        for i, res in enumerate(results):
            if i != 1:
                assert res.norm == pytest.approx(1.0, rel=1e-8, abs=0.0)

    def test_invariant_space_is_exact(self):
        # 2 x identity on one cell from seed 0: A*A maps the start vector to
        # itself, the recurrence meets beta == 0 after one step, and the
        # norm is exact; over 4 cells the next step settles instead
        one, four = np.ones(1, dtype=bool), np.ones(4, dtype=bool)
        double = OperatorFamily(8, lambda rows, v: v * 2.0, lambda rows, w: w * 2.0)
        [res] = top_singular(member_of(double, 0), one, one, [0])
        assert res == TopSingularResult(2.0, 1, True)
        for res in top_singular(double, four, four, range(8)):
            assert res.converged and res.steps <= 2
            assert res.norm == pytest.approx(2.0, rel=1e-15, abs=0.0)

    def test_cap_reports_unconverged(self):
        rng = np.random.default_rng(91)
        resolution, n = 4, 16
        spectra = multiplier_family(rng, resolution, 6)
        ones = np.ones((n, n), dtype=bool)
        results = top_singular(spectral_family(spectra), ones, ones, range(6), max_steps=2)
        assert results[1].converged and results[1].norm == 0.0
        unconverged = [res for i, res in enumerate(results) if i != 1]
        assert all(not res.converged and res.steps == 2 for res in unconverged)


class TestEngineOracle:
    """top_singular against the loop it replaced, bit for bit."""

    @pytest.mark.parametrize("resolution", [2, 4, 5])
    def test_plane_multiplier_stack(self, resolution):
        # members stop at different steps, member 1 is the zero multiplier,
        # seeds repeat, and a cap of 20 runs past the first growth of B^T B
        rng = np.random.default_rng(130 + resolution)
        n = 1 << resolution
        spectra = multiplier_family(rng, resolution, 9)
        out_mask, in_mask = rng.random((n, n)) < 0.6, rng.random((n, n)) < 0.6
        family = spectral_family(spectra)
        seeds = [4, 4, 9, 4, 2, 9, 7, 7, 1]
        for max_steps in (200, 20, 8, 9, 1):
            for vectors in (False, True):
                results = assert_matches_old_engine(
                    family, out_mask, in_mask, seeds, max_steps=max_steps, vectors=vectors
                )
                assert results[1].norm == 0.0
                if max_steps == 200:
                    assert len({res.steps for res in results}) > 1
                    assert max(res.steps for res in results) > 8

    def test_cap_past_the_first_growth(self):
        # at tol 0 a member settles only when its Ritz value stops moving
        # at all, past 16 steps here, so the Ritz matrix and the kept basis
        # grow from 8 to 16 and 32 steps
        rng = np.random.default_rng(140)
        n = 8
        spectra = multiplier_family(rng, 3, 5)
        ones = np.ones((n, n), dtype=bool)
        results = assert_matches_old_engine(
            spectral_family(spectra), ones, ones, [3, 3, 5, 6, 3],
            tol=0.0, max_steps=40, vectors=True,
        )
        assert all(res.steps > 16 for i, res in enumerate(results) if i != 1)

    def test_breakdown_and_zero_norm(self):
        # beta == 0 after one step on one cell, alpha == 0 on the zero map
        double = OperatorFamily(3, lambda rows, v: v * 2.0, lambda rows, w: w * 2.0)
        zero = OperatorFamily(3, lambda rows, v: v * 0.0, lambda rows, w: w * 0.0)
        for family in (double, zero):
            for cells in (1, 4):
                ones = np.ones(cells, dtype=bool)
                assert_matches_old_engine(family, ones, ones, [0, 0, 1], vectors=True)


class TestStepCap:
    """The engine's one step cap: a run that settles before a cap takes the
    same steps and gives the same bytes under any larger one, and no run of
    a golden configuration comes near it."""

    def test_settled_runs_keep_their_bytes_under_larger_caps(self, monkeypatch):
        # the band-times-half-plane multipliers of verify_directional at L=6
        # from seed 1 settle at up to 69 steps: past 64, where caps of 80 and
        # 200 grow B^T B and the kept basis to different widths; its four
        # slowest members run under each cap
        from dyadlab import directional

        rng = np.random.default_rng(3)
        fams = [random_grid2d(rng, 6) for _ in range(2)]
        averager = directional.DirectionalAverager(6, directional.DirectionSet.uniform(8))
        captured = capture_top_singular(monkeypatch, directional)
        directional.verify_directional(fams, averager, q=2.5, p=2.0, norm=averager.estimate_norm(2.0, seed=1), seed=1)
        family, masks, results = captured["family"], (captured["out_mask"], captured["in_mask"]), captured["results"]
        assert all(res.converged for res in results)
        slowest = sorted(range(len(results)), key=lambda i: results[i].steps)[-4:]
        assert results[slowest[-1]].steps > 64
        for i in slowest:
            caps = (results[i].steps, 80, 120, 150, STEP_CAP)
            member, seed = member_of(family, i), captured["seeds"][i]
            runs = [top_singular(member, *masks, [seed], max_steps=cap, vectors=True)[0] for cap in caps]
            for run in runs:
                assert run == results[i]
                assert_same_krylov(run, runs[-1])

    def test_golden_runs_take_at_most_half_the_cap(self, monkeypatch):
        from dyadlab import biparam, carleson, directional
        from test_golden import CLI_CASES, _cli_report

        runs = []

        def recording(*args, **kwargs):
            results = top_singular(*args, **kwargs)
            runs.append((kwargs.get("max_steps", STEP_CAP), max(res.steps for res in results)))
            return results

        for module in (principle, carleson, biparam, directional):
            monkeypatch.setattr(module, "top_singular", recording)
        for argv in CLI_CASES.values():
            _cli_report(argv)
        assert {cap for cap, _ in runs} == {STEP_CAP}
        assert max(steps for _, steps in runs) > 32
        assert all(2 * steps <= cap for cap, steps in runs)


class TestRowNorms:
    """`_row_norms` is one vecdot; it must keep the bytes of the vdot loop
    at the engine's shapes, so a numpy whose vecdot reduces otherwise fails
    here instead of moving every norm."""

    @pytest.mark.parametrize(
        "shape",
        [(1 << L,) for L in range(1, 10)] + [(1 << L, 1 << L) for L in range(4, 7)],
    )
    def test_equals_vdot_loop(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        for m in (1, 3, 8):
            x = rng.standard_normal((m, *shape)) + 1j * rng.standard_normal((m, *shape))
            x *= 10.0 ** rng.integers(-3, 4, size=(m,) + (1,) * len(shape))
            assert _row_norms(x).tobytes() == old_row_norms(x).tobytes()
