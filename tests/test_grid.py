import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.grid import (
    DyadicInterval,
    Grid2D,
    GridSet,
    GridSet2D,
    GridSignal,
    VectorSignal,
    all_intervals,
    bundle_norm,
    check_same_grid,
    conjugate_exponent,
    inner_product,
    interval_cutoff,
    lp_norm,
    measure,
)
from dyadlab.biparam import verify_biparam
from dyadlab.carleson import (
    RestrictedOp,
    greedy_choice,
    restricted_matrices,
    restricted_norm,
    restricted_pairing,
    retain_meeting,
    verify_vector_carleson,
)
from dyadlab.directional import (
    DirectionalAverager,
    DirectionSet,
    build_majorant_weight,
    directional_level_complement,
    verify_directional,
)
from dyadlab.harness import maximal_operator_family, run_decompose
from dyadlab.maximal import (
    ScaleChoice,
    exceptional_complement,
    interval_size_mass,
    linearized_maximal,
    restricted_double_sum,
    verify_vector_maximal,
)
from dyadlab.plane import certified_rectangle_threshold, exceptional_complement_2d
from dyadlab.principle import measure_condition, trim_builder
from dyadlab.tiles import BiTile, ChoiceFunction, ModelSumPlan, TileCollection, Tree, mass, size, tree_estimate
from oracles import walsh_values


def interval_strategy(max_scale=6):
    return st.integers(0, max_scale).flatmap(
        lambda k: st.integers(0, (1 << k) - 1).map(lambda n: DyadicInterval(k, n))
    )


class TestDyadicInterval:
    def test_geometry(self):
        i = DyadicInterval(2, 1)
        assert i.length == 0.25
        assert i.left == 0.25
        assert i.right == 0.5
        assert i.center == 0.375

    def test_invalid(self):
        with pytest.raises(ValueError):
            DyadicInterval(2, 4)
        with pytest.raises(ValueError):
            DyadicInterval(-1, 0)

    def test_nesting_law_exhaustive(self):
        # exactly one of {disjoint, first in second, second in first} for
        # distinct intervals, at every resolution up to 6
        intervals = list(all_intervals(6))
        for a in intervals:
            for b in intervals:
                flags = (a.disjoint(b), b.contains(a), a.contains(b))
                if a == b:
                    assert flags == (False, True, True)
                else:
                    assert sum(flags) == 1

    @given(interval_strategy(), interval_strategy())
    def test_nesting_law_random(self, a, b):
        if a == b:
            assert a.contains(b) and b.contains(a)
        else:
            assert (a.disjoint(b) + a.contains(b) + b.contains(a)) == 1

    def test_cell_slice(self):
        assert DyadicInterval(1, 1).cell_slice(3) == slice(4, 8)
        with pytest.raises(ValueError):
            DyadicInterval(4, 0).cell_slice(3)


class TestMeasure:
    def test_full_grid(self):
        assert measure(GridSet.full(3)) == 1.0

    def test_empty(self):
        assert measure(GridSet.empty(3)) == 0.0

    def test_three_cells(self):
        mask = np.zeros(8, dtype=bool)
        mask[[0, 3, 5]] = True
        assert measure(GridSet(3, mask)) == 0.375

    @given(st.integers(0, 6), st.data())
    def test_additive_over_disjoint(self, resolution, data):
        n = 1 << resolution
        split = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        mask = np.array(keep, dtype=bool)
        part = np.array(split, dtype=bool)
        a = GridSet(resolution, mask & part)
        b = GridSet(resolution, mask & ~part)
        assert measure(a) + measure(b) == measure(GridSet(resolution, mask))

    @pytest.mark.parametrize("resolution", range(8))
    def test_plane_bit_identical_to_cell_area(self, resolution):
        # the plane measure and inner product that measure and inner_product
        # replace, with the cell area 4**-L
        rng = np.random.default_rng(resolution)
        n = 1 << resolution
        mask = rng.random((n, n)) < 0.4
        assert measure(GridSet2D(resolution, mask)) == np.count_nonzero(mask) * 4.0**-resolution
        f, g = (
            Grid2D(resolution, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for _ in range(2)
        )
        expected = complex(np.sum(f.values * np.conj(g.values)) * 4.0**-resolution)
        assert inner_product(f, g) == expected


class TestInnerProduct:
    def test_constants(self):
        f = GridSignal.constant(3, 1.0)
        assert inner_product(f, f) == 1.0

    def test_overlap(self):
        f = GridSignal.indicator(3, DyadicInterval(1, 0))
        g = GridSignal(3, np.array([0, 0, 1, 1, 1, 1, 0, 0], dtype=complex))
        assert inner_product(f, g) == 0.25

    def test_walsh_orthogonality(self):
        f = GridSignal.constant(3, 1.0)
        w1 = GridSignal(3, walsh_values(1, 3))
        assert inner_product(f, w1) == 0.0

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(GridSignal.constant(2, 1.0), GridSignal.constant(3, 1.0))
        with pytest.raises(ValueError):
            inner_product(Grid2D.constant(2, 1.0), Grid2D.constant(3, 1.0))

    def test_line_against_plane_rejected(self):
        # 4 line cells would broadcast against 4 x 4 plane cells
        with pytest.raises(ValueError):
            inner_product(GridSignal.constant(2, 1.0), Grid2D.constant(2, 1.0))

    def test_conjugates_second_slot(self):
        f = GridSignal.constant(2, 1j)
        g = GridSignal.constant(2, 1j)
        assert inner_product(f, g) == 1.0

    @settings(max_examples=50)
    @given(st.integers(0, 6), st.integers(0, 2**31 - 1))
    def test_parseval(self, resolution, seed):
        rng = np.random.default_rng(seed)
        n = 1 << resolution
        f = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert abs(inner_product(f, f) - lp_norm(f.values, 2.0, f.resolution) ** 2) < 1e-12


class TestLpNorm:
    def test_constant_any_p(self):
        f = GridSignal.constant(4, 1.0)
        for p in (0.5, 1.0, 2.0, 3.7, math.inf):
            assert lp_norm(f.values, p, f.resolution) == 1.0

    def test_single_cell(self):
        f = GridSignal.indicator(2, DyadicInterval(2, 1))
        assert lp_norm(f.values, 1.0, f.resolution) == 0.25
        assert lp_norm(f.values, 2.0, f.resolution) == 0.5

    def test_single_plane_cell(self):
        values = np.zeros((4, 4))
        values[1, 2] = 3.0
        assert lp_norm(values, 1.0, 2) == 3.0 / 16
        assert lp_norm(values, 2.0, 2) == 0.75
        assert lp_norm(values, math.inf, 2) == 3.0

    def test_invalid_p(self):
        for p in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError):
                lp_norm(GridSignal.constant(2, 1.0).values, p, 2)
            with pytest.raises(ValueError):
                lp_norm(np.ones((4, 4)), p, 2)
            with pytest.raises(ValueError):
                bundle_norm(np.ones((2, 8)), p, 3)

    @pytest.mark.parametrize("resolution", range(7))
    def test_bit_identical_to_line_and_plane_norms(self, resolution):
        # the separate line and plane norms lp_norm replaces, with their cell
        # measures 2**-L and 4**-L
        rng = np.random.default_rng(resolution)
        n = 1 << resolution
        for shape, measure in (((n,), 2.0**-resolution), ((n, n), 4.0**-resolution)):
            values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            stack = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal((3, *shape))
            bundle = np.sqrt(np.sum(np.abs(stack) ** 2, axis=0))
            for p in (1.0, 1.5, 2.0, 3.7):
                assert lp_norm(values, p, resolution) == float(
                    np.sum(np.abs(values) ** p) * measure
                ) ** (1.0 / p)
                assert bundle_norm(stack, p, resolution) == float(
                    np.sum(bundle**p) * measure
                ) ** (1.0 / p)


class TestVectorLqNorm:
    def test_single_member(self):
        rng = np.random.default_rng(0)
        f = GridSignal(4, rng.standard_normal(16))
        fam = VectorSignal.from_signals([f])
        for q in (1.5, 2.0, 3.0):
            assert abs(bundle_norm(fam.stack, q, fam.resolution) - lp_norm(f.values, q, f.resolution)) < 1e-12

    def test_copies_scale_by_sqrt(self):
        rng = np.random.default_rng(1)
        f = GridSignal(4, rng.standard_normal(16))
        fam = VectorSignal.from_signals([f] * 9)
        assert abs(bundle_norm(fam.stack, 2.5, fam.resolution) - 3.0 * lp_norm(f.values, 2.5, f.resolution)) < 1e-12

    def test_disjoint_indicators(self):
        a = GridSignal.indicator(3, DyadicInterval(2, 0))
        b = GridSignal.indicator(3, DyadicInterval(1, 1))
        fam = VectorSignal.from_signals([a, b])
        expected = math.sqrt(0.25 + 0.5)
        assert abs(bundle_norm(fam.stack, 2.0, fam.resolution) - expected) < 1e-12

    def test_needs_members(self):
        with pytest.raises(ValueError):
            VectorSignal.from_signals([])
        with pytest.raises(ValueError):
            VectorSignal.from_signals(
                [GridSignal.constant(2, 1.0), GridSignal.constant(3, 1.0)]
            )


class TestIntervalCutoff:
    def test_at_center(self):
        i = DyadicInterval(2, 1)
        assert interval_cutoff(i, i.center) == 1.0

    def test_one_length_out(self):
        i = DyadicInterval(2, 1)
        assert abs(interval_cutoff(i, i.center + i.length) - 2**-0.5) < 1e-15

    def test_monotone_decay(self):
        i = DyadicInterval(1, 0)
        xs = i.center + np.linspace(0.0, 50.0, 400)
        vals = interval_cutoff(i, xs)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 0.02

    @given(st.integers(1, 40), interval_strategy(4))
    def test_powers_even_and_decreasing(self, power, interval):
        offsets = np.linspace(1e-3, 3.0, 50)
        right = interval_cutoff(interval, interval.center + offsets, power=power)
        left = interval_cutoff(interval, interval.center - offsets, power=power)
        assert np.allclose(left, right, rtol=1e-12)
        assert np.all(np.diff(right) < 0)


class TestValidation:
    def test_signal_length(self):
        with pytest.raises(ValueError):
            GridSignal(3, np.zeros(7))

    def test_signal_finite(self):
        bad = np.zeros(8)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            GridSignal(3, bad)

    def test_set_ops(self):
        a = GridSet.from_interval(3, DyadicInterval(1, 0))
        b = GridSet.from_interval(3, DyadicInterval(2, 1))
        assert measure(a & b) == 0.25
        assert measure(a | b) == 0.5
        assert measure(a - b) == 0.25
        assert measure(~a) == 0.5

    def test_line_and_plane_shapes_rejected(self):
        for grid in (GridSignal, GridSet):
            with pytest.raises(ValueError, match="shaped"):
                grid(2, np.zeros((4, 4)))
        for grid in (Grid2D, GridSet2D):
            with pytest.raises(ValueError, match="shaped"):
                grid(2, np.zeros(4))
            with pytest.raises(ValueError, match="shaped"):
                grid(2, np.zeros((4, 8)))
            with pytest.raises(ValueError, match="resolution"):
                grid(13, np.zeros((1, 1)))

    def test_plane_signal_finite(self):
        for bad in (np.inf, 1j * np.nan):
            values = np.zeros((4, 4), dtype=complex)
            values[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                Grid2D(2, values)

    def test_plane_constructors(self):
        assert np.array_equal(Grid2D.zeros(2).values, np.zeros((4, 4)))
        assert np.array_equal(Grid2D.constant(2, 3.0).values, np.full((4, 4), 3.0))
        assert measure(GridSet2D.empty(2)) == 0.0 and measure(GridSet2D.full(2)) == 1.0
        ones = GridSet2D.full(2).indicator()
        assert type(ones) is Grid2D and np.array_equal(ones.values, np.ones((4, 4)))

    def test_plane_set_ops(self):
        a = GridSet2D(2, np.arange(16).reshape(4, 4) < 8)
        b = GridSet2D(2, np.arange(16).reshape(4, 4) % 4 == 0)
        for result, expected in ((a & b, 0.125), (a | b, 0.625), (a - b, 0.375), (~a, 0.5)):
            assert type(result) is GridSet2D and measure(result) == expected
        with pytest.raises(ValueError):
            a & GridSet2D.full(3)
        with pytest.raises(ValueError):
            GridSet.full(2) | GridSet2D.full(2)
        with pytest.raises(ValueError):
            a - GridSet.full(2)


# one of each type that holds an array field, with a function making an
# equal copy of it
EQUALITY_CASES = [
    (GridSignal.constant(3, 1.0), lambda x: GridSignal(3, x.values.copy())),
    (Grid2D.constant(2, 1.0), lambda x: Grid2D(2, x.values.copy())),
    (GridSet.full(3), lambda x: GridSet(3, x.mask.copy())),
    (GridSet2D.full(2), lambda x: GridSet2D(2, x.mask.copy())),
    (VectorSignal(3, np.ones((2, 8))), lambda x: VectorSignal(3, x.stack.copy())),
    (ScaleChoice.constant(2, 1), lambda x: ScaleChoice(2, x.scales.copy())),
    (ChoiceFunction.constant(2, 1), lambda x: ChoiceFunction(2, x.freqs.copy())),
]


@pytest.mark.parametrize("x, copy", EQUALITY_CASES, ids=[type(x).__name__ for x, _ in EQUALITY_CASES])
def test_array_holders_compare_by_identity(x, copy):
    # the generated __eq__ would compare the array fields and raise on the
    # ambiguous truth value of an array
    other = copy(x)
    assert x == x
    assert (x == other) is False and (x != other) is True
    assert x in [x] and x not in [other]
    assert hash(x) == hash(x)
    assert len({x, other}) == 2



def _biparam(p, resolution):
    return verify_biparam([Grid2D.constant(resolution, 1.0)], p, GridSet2D.full(resolution), eps=0.1)


_FAM, _FULL = VectorSignal(2, np.ones((1, 4))), GridSet.full(2)

# every library guard of an exponent's open range, and verify_biparam's
# lowest resolution, which its theorem row holds: a call it rejects and the
# exact message
GUARDS = {
    "conjugate_exponent": (lambda: conjugate_exponent(1.0), "exponent must lie in (1, inf), got 1.0"),
    "estimate_norm": (
        lambda: DirectionalAverager(2, DirectionSet.uniform(2)).estimate_norm(math.inf),
        "p must lie in (1, inf), got inf",
    ),
    "verify_vector_carleson": (lambda: verify_vector_carleson(_FAM, None, 1.0), "p must lie in (1, inf), got 1.0"),
    "verify_vector_maximal": (lambda: verify_vector_maximal(_FAM, math.nan), "p must lie in (1, inf), got nan"),
    "restricted_double_sum": (
        lambda: restricted_double_sum(_FULL, _FULL, _FULL, _FULL, ScaleChoice.constant(2, 0), 1.0),
        "s must lie in (1, inf), got 1.0",
    ),
    "verify_biparam-p": (lambda: _biparam(2.0, 2), "p must lie in (2, inf), got 2.0"),
    "verify_biparam-resolution": (lambda: _biparam(3.0, 0), "biparam needs resolution L >= 1, got 0"),
}


@pytest.mark.parametrize("call, message", GUARDS.values(), ids=GUARDS)
def test_exponent_guards_keep_their_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


# every entry point that combines grids, called with one argument a level
# finer than the others, and every one that needs a set of positive measure,
# called with an empty one: the guard's error, and no other
C, F = 3, 4
_LINE, _LINE_F, _PLANE, _PLANE_F = GridSet.full(C), GridSet.full(F), GridSet2D.full(C), GridSet2D.full(F)
_F, _TILES = GridSignal.constant(C, 1.0), TileCollection.all(C)
_CHOICE, _CHOICE_F = ChoiceFunction.constant(C, 1), ChoiceFunction.constant(F, 1)
_AVERAGER = DirectionalAverager(C, DirectionSet.uniform(2))
_TREE = Tree.from_members(DyadicInterval(0, 0), 0, TileCollection.from_bitiles(C, [BiTile(0, 0, 0)]))
_FORMATS = Path(__file__).with_name("formats")

GRID_GUARDS = {
    "GridSet.__and__": lambda: _LINE & _LINE_F,
    "GridSet.__or__": lambda: _PLANE | _PLANE_F,
    "GridSet.__sub__": lambda: _LINE - _LINE_F,
    "VectorSignal.from_signals": lambda: VectorSignal.from_signals([_F, GridSignal.constant(F, 1.0)]),
    "inner_product": lambda: inner_product(_F, GridSignal.constant(F, 1.0)),
    "RestrictedOp": lambda: RestrictedOp(_LINE, _LINE, _CHOICE, TileCollection.all(F)),
    "retain_meeting": lambda: retain_meeting(_TILES, _LINE_F),
    "restricted_pairing": lambda: restricted_pairing(
        GridSignal.constant(F, 0.5), _F, _LINE, _LINE, RestrictedOp(_LINE, _LINE, _CHOICE, _TILES), 3.0
    ),
    "restricted_norm": lambda: restricted_norm(_LINE, _LINE_F, _TILES, [_CHOICE], [0]),
    "restricted_matrices": lambda: restricted_matrices(_LINE, _LINE, _TILES, [_CHOICE_F]),
    "greedy_choice": lambda: greedy_choice(VectorSignal(C, np.ones((1, 1 << C))), _TILES, _LINE_F),
    "build_majorant_weight": lambda: build_majorant_weight(Grid2D.constant(F, 1.0), _AVERAGER, 2.0, 4, 1.5),
    "directional_level_complement": lambda: directional_level_complement(_PLANE, _PLANE_F, _AVERAGER, 0.5),
    "verify_directional": lambda: verify_directional([Grid2D.constant(F, 1.0)], _AVERAGER, q=2.5, p=2.0, norm=1.5),
    "linearized_maximal": lambda: linearized_maximal(_F, ScaleChoice.constant(F, 0)),
    "exceptional_complement": lambda: exceptional_complement(_LINE, GridSet.empty(F)),
    "interval_size_mass": lambda: interval_size_mass(_LINE, _LINE, _LINE, _LINE, ScaleChoice.constant(F, 0)),
    "restricted_double_sum": lambda: restricted_double_sum(
        _LINE, _LINE, _LINE, _LINE, ScaleChoice.constant(C, 0), 3.0, h=GridSet.empty(F)
    ),
    "exceptional_complement_2d": lambda: exceptional_complement_2d(_PLANE, GridSet2D.empty(F), 0.5),
    "certified_rectangle_threshold": lambda: certified_rectangle_threshold(_PLANE, _PLANE_F, 0.1),
    "verify_biparam": lambda: verify_biparam([Grid2D.constant(C, 1.0)], 3.0, _PLANE_F, eps=0.1),
    "verify_biparam-family": lambda: verify_biparam(
        [Grid2D.constant(C, 1.0), Grid2D.constant(F, 1.0)], 3.0, _PLANE, eps=0.1
    ),
    "size": lambda: size(_TILES, GridSignal.constant(F, 1.0)),
    "ModelSumPlan": lambda: ModelSumPlan([_CHOICE_F], _TILES),
    "mass": lambda: mass(_TILES, _LINE_F, _CHOICE),
    "tree_estimate": lambda: tree_estimate(_TREE, _F, _LINE, _CHOICE_F),
    "run_decompose": lambda: run_decompose(_FORMATS / "tiles.csv", _FORMATS / "signal.csv", F, os.devnull),
}


@pytest.mark.parametrize("call", GRID_GUARDS.values(), ids=GRID_GUARDS)
def test_grid_guard_rejects_a_finer_argument(call):
    with pytest.raises(ValueError) as raised:
        call()
    message = str(raised.value)
    assert message.startswith("resolution mismatch: ")
    assert f"at L={C}" in message and f"at L={F}" in message


MEASURE_GUARDS = {
    "exceptional_complement": (lambda: exceptional_complement(GridSet.empty(C), _LINE), "base"),
    "certified_rectangle_threshold": (lambda: certified_rectangle_threshold(GridSet2D.empty(C), _PLANE, 0.1), "base"),
    "measure_condition": (
        lambda: measure_condition(
            maximal_operator_family(np.random.default_rng(0), C, 1)[0],
            GridSet.empty(C),
            _LINE,
            trim_builder(4.0, "h"),
            2.5,
        ),
        "h",
    ),
    "verify_biparam": (lambda: verify_biparam([Grid2D.constant(C, 1.0)], 3.0, GridSet2D.empty(C), eps=0.1), "g"),
}


@pytest.mark.parametrize("call, name", MEASURE_GUARDS.values(), ids=MEASURE_GUARDS)
def test_measure_guard_rejects_an_empty_set(call, name):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == f"set {name} needs positive measure"


def test_grid_guard_names_each_argument():
    with pytest.raises(ValueError) as raised:
        GridSet.full(2) | GridSet2D.full(2)
    assert str(raised.value) == "resolution mismatch: GridSet 0 at L=2 on 1 axes, GridSet2D 1 at L=2 on 2 axes"
    with pytest.raises(ValueError) as raised:
        check_same_grid(_CHOICE, e=_LINE_F)
    assert str(raised.value) == f"resolution mismatch: ChoiceFunction 0 at L={C}, e at L={F}"
    assert check_same_grid(_F, f=_LINE, choice=_CHOICE) == C


# the guards of the grid types: a call each rejects, and its message
GRID_TYPE_GUARDS = {
    "DyadicInterval.ancestor": (lambda: DyadicInterval(1, 0).ancestor(2), "ancestor scale must be coarser"),
    "VectorSignal-shape": (lambda: VectorSignal(2, np.ones((0, 4))), "expected nonempty (J, 4) stack, got shape (0, 4)"),
    "VectorSignal-finite": (lambda: VectorSignal(2, [[math.nan, 0, 0, 0]]), "signal values must be finite"),
}


@pytest.mark.parametrize("call, message", GRID_TYPE_GUARDS.values(), ids=GRID_TYPE_GUARDS)
def test_input_guards_keep_their_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
