import itertools
import math

import numpy as np
import pytest

from dyadlab.grid import (
    DyadicInterval,
    GridSet,
    GridSignal,
    cell_width,
    inner_product,
    lp_norm,
    measure,
)
from dyadlab.harness import (
    random_choice,
    random_convex_collection,
    random_grid_set,
    random_signal,
)
from dyadlab.tiles import (
    BiTile,
    ChoiceFunction,
    FreqInterval,
    ModelSumPlan,
    Tile,
    TileCollection,
    Tree,
    adjoint_model_sum,
    all_bitiles,
    bitile_key,
    collection_is_convex,
    full_decompose,
    mass,
    mass_bound,
    mass_decompose,
    member_coefficients,
    model_sum,
    packet_coefficients,
    packet_synthesis,
    size,
    size_bound,
    size_decompose,
    tree_estimate,
    walsh_packet,
)
from dyadlab.principle import densify
from dyadlab.walsh import (
    bit_reversal,
    bit_reverse,
    block_hadamard,
    hadamard,
    walsh_analysis,
    walsh_synthesis,
    walsh_values_at,
)


def order_interval(lo: BiTile, hi: BiTile) -> list[BiTile]:
    """All bi-tiles P with lo <= P <= hi (one per intermediate scale)."""
    if not lo <= hi:
        return []
    out = []
    for scale in range(hi.scale, lo.scale + 1):
        offset = lo.offset >> (lo.scale - scale)
        freq_index = hi.freq.lo >> (scale + 1)
        out.append(BiTile(scale, offset, freq_index))
    return out


def pairwise_is_convex(bitiles) -> bool:
    """Reference convexity check over every comparable pair of members."""
    tiles = set(bitiles)
    for p in tiles:
        for q in tiles:
            if p <= q:
                for mid in order_interval(p, q):
                    if mid not in tiles:
                        return False
    return True


def pairwise_closure(bitiles) -> set[BiTile]:
    """Reference convex closure: add order intervals until nothing grows."""
    tiles = set(bitiles)
    grown = True
    while grown:
        grown = False
        pairs = [(p, q) for p in tiles for q in tiles if p <= q]
        for p, q in pairs:
            for mid in order_interval(p, q):
                if mid not in tiles:
                    tiles.add(mid)
                    grown = True
    return tiles


def oracle_size(collection: TileCollection, f: GridSignal) -> float:
    """Exhaustive enumeration over every admissible 2-overlapping tree: all
    member subsets with a common top frequency, best top interval being the
    smallest dyadic hull of the spatial intervals."""
    members = sorted(collection.bitiles, key=lambda p: (p.scale, p.offset, p.freq_index))
    if not members:
        return 0.0
    L = collection.resolution
    coeffs = member_coefficients(collection, f)
    weights = np.array([abs(coeffs[p]) ** 2 for p in members])
    lo = np.array([p.upper.freq.lo for p in members])
    hi = np.array([p.upper.freq.hi for p in members])
    starts = np.array([p.spatial.cell_slice(L).start for p in members])
    stops = np.array([p.spatial.cell_slice(L).stop for p in members])
    best = 0.0
    for mask_bits in range(1, 1 << len(members)):
        sel = [(mask_bits >> i) & 1 for i in range(len(members))]
        sel = np.array(sel, dtype=bool)
        xi_lo, xi_hi = lo[sel].max(), hi[sel].min()
        if xi_lo >= xi_hi:
            continue  # no common top frequency
        a, b = int(starts[sel].min()), int(stops[sel].max()) - 1
        hull_scale = L - (a ^ b).bit_length()
        value = weights[sel].sum() / 2.0**-hull_scale
        best = max(best, value)
    return math.sqrt(best)


def _oracle_upper_hits(choice: ChoiceFunction, collection: TileCollection):
    """Per-call derivation of the cells each scale's members reach, as the
    model sum did before plans."""
    L = collection.resolution
    cells = np.arange(1 << L)
    for k, present in enumerate(collection.masks):
        tile_idx = choice.freqs >> k
        m = tile_idx >> 1
        n = cells >> (L - k)
        valid = ((tile_idx & 1) == 1) & present[n, m]
        if not np.any(valid):
            continue
        u = cells & ((1 << (L - k)) - 1)
        w = walsh_values_at(2 * m[valid] + 1, u[valid], L - k)
        yield k, valid, n[valid], m[valid], w


def oracle_model_sum(f: GridSignal, choice: ChoiceFunction, collection: TileCollection):
    """Reference model sum, evaluated anew on every call."""
    L = f.resolution
    out = np.zeros(1 << L, dtype=np.complex128)
    for k, valid, n, m, w in _oracle_upper_hits(choice, collection):
        coef = packet_coefficients(f.values, L, k)
        out[valid] += coef[n, 2 * m] * (2.0 ** (k / 2.0)) * w
    return out


def oracle_adjoint_model_sum(g: GridSignal, choice: ChoiceFunction, collection: TileCollection):
    """Reference adjoint model sum, evaluated anew on every call."""
    L = g.resolution
    out = np.zeros(1 << L, dtype=np.complex128)
    for k, valid, n, m, w in _oracle_upper_hits(choice, collection):
        pair = np.zeros((1 << k, 1 << (L - k - 1)), dtype=np.complex128)
        np.add.at(pair, (n, m), g.values[valid] * (2.0 ** (k / 2.0)) * w * cell_width(L))
        coef = np.zeros((1 << k, 1 << (L - k)), dtype=np.complex128)
        coef[:, 0::2] = pair
        out += packet_synthesis(coef, L, k)
    return out


def reference_hadamard(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stage-by-stage butterflies on a moved-axis copy, as the transform
    was first written; the stages and their additions are the same."""
    a = np.moveaxis(np.asarray(a), axis, -1)
    n = a.shape[-1]
    out = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64).copy()
    h = 1
    while h < n:
        v = out.reshape(out.shape[:-1] + (n // (2 * h), 2, h))
        top = v[..., 0, :] + v[..., 1, :]
        bot = v[..., 0, :] - v[..., 1, :]
        v[..., 0, :] = top
        v[..., 1, :] = bot
        h *= 2
    return np.moveaxis(out, -1, axis)


def plan_cases(rng, resolution):
    """(choice, collection) pairs: a random convex collection, random subsets
    with some scales left empty, the full and the empty collection."""
    shapes = [(1 << k, 1 << (resolution - k - 1)) for k in range(resolution)]
    collections = [
        random_convex_collection(rng, resolution),
        TileCollection.all(resolution),
        TileCollection.from_bitiles(resolution, []),
    ]
    for density in (0.1, 0.6):
        empty_scales = rng.random(resolution) < 0.4
        masks = [
            (rng.random(shape) < density) & ~empty
            for shape, empty in zip(shapes, empty_scales)
        ]
        collections.append(TileCollection(resolution, masks))
    for collection in collections:
        yield random_choice(rng, resolution), collection
    # a constant choice sends every cell to one upper tile per scale
    yield ChoiceFunction.constant(resolution, (1 << resolution) - 1), collections[1]


def random_small_convex(rng, resolution, max_members=12):
    while True:
        collection = random_convex_collection(rng, resolution, seeds=2, cap=max_members)
        if len(collection) >= 1:
            return collection


def random_tree(rng, resolution):
    """Random 1-overlapping tree: top data plus a subset of the compatible
    bi-tiles."""
    while True:
        scale = int(rng.integers(0, resolution))
        top = DyadicInterval(scale, int(rng.integers(0, 1 << scale)))
        xi = int(rng.integers(0, 1 << resolution))
        compatible = [
            p
            for p in all_bitiles(resolution)
            if top.contains(p.spatial) and p.freq.contains_point(xi)
        ]
        if not compatible:
            continue
        keep = [p for p in compatible if rng.random() < 0.7]
        if keep:
            return Tree(top, xi, frozenset(keep))


class TestTilesAndOrder:
    def test_area_one(self):
        t = Tile(2, 1, 3)
        assert t.spatial.length * t.freq.length == 1.0

    def test_walsh_packet_examples(self):
        assert np.array_equal(walsh_packet(Tile(0, 0, 0), 3).values.real, np.ones(8))
        w1 = walsh_packet(Tile(0, 0, 1), 3).values.real
        assert np.array_equal(w1, np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=float))

    def test_packet_norm_exact(self):
        for k in range(4):
            for q in range(1 << (4 - k)):
                assert lp_norm(walsh_packet(Tile(k, 0, q), 4), 2.0) == 1.0

    def test_disjoint_tiles_orthogonal(self):
        resolution = 4
        tiles = [
            Tile(k, n, q)
            for k in range(resolution + 1)
            for n in range(1 << k)
            for q in range(1 << (resolution - k))
        ]
        for a, b in itertools.combinations(tiles, 2):
            overlap = not a.spatial.disjoint(b.spatial) and (
                a.freq.contains(b.freq) or b.freq.contains(a.freq)
            )
            ip = inner_product(walsh_packet(a, resolution), walsh_packet(b, resolution))
            if not overlap:
                assert abs(ip) <= 1e-12

    def test_order_reflexive(self):
        p = BiTile(1, 0, 1)
        assert p <= p and not p < p

    def test_order_pinned_example(self):
        # spatial [0,1/2) with frequency [0,4) sits below spatial [0,1) with
        # frequency [0,2)
        p = BiTile(1, 0, 0)
        q = BiTile(0, 0, 0)
        assert p.freq == FreqInterval(2, 0) and q.freq == FreqInterval(1, 0)
        assert p <= q and not q <= p

    def test_disjoint_spatial_incomparable(self):
        p = BiTile(1, 0, 0)
        q = BiTile(1, 1, 0)
        assert not p <= q and not q <= p

    def test_partial_order_axioms_exhaustive(self):
        tiles = all_bitiles(4)
        for a in tiles:
            assert a <= a
        for a, b in itertools.permutations(tiles, 2):
            if a <= b and b <= a:
                pytest.fail("antisymmetry violated")
        for a, b, c in itertools.product(tiles, repeat=3):
            if a <= b and b <= c:
                assert a <= c


class TestModelSum:
    def test_empty_collection(self):
        f = GridSignal.constant(4, 1.0)
        empty = TileCollection.from_bitiles(4, [])
        out = model_sum(f, ChoiceFunction.constant(4, 0), empty)
        assert np.all(out.values == 0.0)

    def test_single_bitile_reproduces_upper(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(3, [p])
        f = walsh_packet(p.lower, 3)
        choice = ChoiceFunction.constant(3, p.upper.freq.lo)
        out = model_sum(f, choice, collection)
        assert np.allclose(out.values, walsh_packet(p.upper, 3).values, atol=1e-12)

    def test_choice_outside_kills(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(3, [p])
        f = walsh_packet(p.lower, 3)
        choice = ChoiceFunction.constant(3, p.lower.freq.lo)  # lower half only
        out = model_sum(f, choice, collection)
        assert np.all(out.values == 0.0)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(5)
        for resolution in (3, 5):
            n = 1 << resolution
            collection = random_convex_collection(rng, resolution)
            choice = random_choice(rng, resolution)
            f = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            g = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            lhs = inner_product(model_sum(f, choice, collection), g)
            rhs = inner_product(f, adjoint_model_sum(g, choice, collection))
            assert abs(lhs - rhs) < 1e-12

    def test_model_sum_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        resolution = 4
        collection = random_convex_collection(rng, resolution)
        choice = random_choice(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        direct = np.zeros(1 << resolution, dtype=complex)
        for p in collection.bitiles:
            coef = inner_product(f, walsh_packet(p.lower, resolution))
            psi = walsh_packet(p.upper, resolution).values
            sel = (choice.freqs >= p.upper.freq.lo) & (choice.freqs < p.upper.freq.hi)
            direct += coef * psi * sel
        out = model_sum(f, choice, collection)
        assert np.allclose(out.values, direct, atol=1e-12)


class TestModelSumPlan:
    @pytest.mark.parametrize("resolution", range(1, 8))
    def test_equals_per_call_evaluation(self, resolution):
        rng = np.random.default_rng(100 + resolution)
        n = 1 << resolution
        for choice, collection in plan_cases(rng, resolution):
            plan = ModelSumPlan(choice, collection)
            for _ in range(3):
                f = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
                assert np.array_equal(plan.apply(f).values, oracle_model_sum(f, choice, collection))
                assert np.array_equal(
                    plan.adjoint(f).values, oracle_adjoint_model_sum(f, choice, collection)
                )
                assert np.array_equal(model_sum(f, choice, collection).values, plan.apply(f).values)
                assert np.array_equal(
                    adjoint_model_sum(f, choice, collection).values, plan.adjoint(f).values
                )

    @pytest.mark.parametrize("resolution", range(1, 8))
    def test_adjoint_identity(self, resolution):
        rng = np.random.default_rng(200 + resolution)
        n = 1 << resolution
        for choice, collection in plan_cases(rng, resolution):
            plan = ModelSumPlan(choice, collection)
            f = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            g = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            lhs = inner_product(plan.apply(f), g)
            rhs = inner_product(f, plan.adjoint(g))
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("resolution", range(1, 5))
    def test_dense_matrix_is_sum_of_packet_terms(self, resolution):
        rng = np.random.default_rng(300 + resolution)
        n = 1 << resolution
        for choice, collection in plan_cases(rng, resolution):
            plan = ModelSumPlan(choice, collection)
            expected = np.zeros((n, n), dtype=np.complex128)
            for p in collection.bitiles:
                lower = walsh_packet(p.lower, resolution).values
                upper = walsh_packet(p.upper, resolution).values
                hit = (choice.freqs >= p.upper.freq.lo) & (choice.freqs < p.upper.freq.hi)
                expected += np.outer(upper * hit, np.conj(lower)) * cell_width(resolution)
            dense = densify(lambda v: plan.apply(GridSignal(resolution, v)).values, n)
            assert np.allclose(dense, expected, rtol=0.0, atol=1e-12)
            dense_adj = densify(lambda v: plan.adjoint(GridSignal(resolution, v)).values, n)
            assert np.allclose(dense_adj, expected.conj().T, rtol=0.0, atol=1e-12)

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError):
            ModelSumPlan(ChoiceFunction.constant(3, 0), TileCollection.all(4))
        plan = ModelSumPlan(ChoiceFunction.constant(4, 0), TileCollection.all(4))
        with pytest.raises(ValueError):
            plan.apply(GridSignal.zeros(3))
        with pytest.raises(ValueError):
            plan.adjoint(GridSignal.zeros(5))

    @pytest.mark.parametrize(
        "shape, axis", [((64,), -1), ((4, 16), 1), ((16, 4), 0), ((2, 8, 4), 1), ((1,), 0)]
    )
    def test_transforms_equal_reference_butterflies(self, shape, axis):
        rng = np.random.default_rng(sum(shape))
        real = rng.standard_normal(shape)
        for values in (real, real + 1j * rng.standard_normal(shape)):
            rev = bit_reverse(np.arange(shape[axis]), shape[axis].bit_length() - 1)
            moved = np.moveaxis(values, axis, -1)
            analysis = np.moveaxis(reference_hadamard(moved[..., rev]), -1, axis)
            synthesis = np.moveaxis(reference_hadamard(moved)[..., rev], -1, axis)
            assert np.array_equal(hadamard(values, axis), reference_hadamard(values, axis))
            assert np.array_equal(walsh_analysis(values, axis), analysis)
            assert np.array_equal(walsh_synthesis(values, axis), synthesis)

    def test_block_hadamard_rows(self):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        expected = [
            reference_hadamard(row.reshape(-1, 1 << b)).ravel() for row, b in zip(stack, (4, 2, 1))
        ]
        assert np.array_equal(block_hadamard(stack.copy(), (4, 2, 1)), np.array(expected))
        with pytest.raises(ValueError):
            block_hadamard(stack.T, (2, 1))
        with pytest.raises(ValueError):
            hadamard(np.ones(6))
        with pytest.raises(ValueError):
            walsh_analysis(np.ones(6))

    def test_cached_bit_reversal(self):
        for bits in range(0, 13):
            rev = bit_reversal(bits)
            assert np.array_equal(rev, bit_reverse(np.arange(1 << bits), bits))
            assert bit_reversal(bits) is rev
            assert not rev.flags.writeable
            with pytest.raises(ValueError):
                rev[0] = 1


class TestSizeAndMass:
    def test_zero_signal(self):
        rng = np.random.default_rng(7)
        collection = random_convex_collection(rng, 4)
        assert size(collection, GridSignal.zeros(4)) == 0.0

    def test_single_bitile_value(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(3, [p])
        f = walsh_packet(p.lower, 3)
        assert size(collection, f) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_equivalence(self, seed):
        rng = np.random.default_rng(100 + seed)
        resolution = 5
        collection = random_small_convex(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        assert size(collection, f) == pytest.approx(
            oracle_size(collection, f), abs=1e-13
        )

    def test_mass_empty(self):
        rng = np.random.default_rng(8)
        collection = random_convex_collection(rng, 4)
        choice = random_choice(rng, 4)
        assert mass(collection, GridSet.empty(4), choice) == 0.0

    def test_mass_full_density(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(3, [p])
        e = GridSet.from_interval(3, p.spatial)
        choice = ChoiceFunction.constant(3, p.freq.lo)
        assert mass(collection, e, choice) == 1.0

    def test_mass_half_density(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(3, [p])
        e = GridSet.from_interval(3, p.spatial)
        # choice hits the frequency interval on exactly half the cells of I_P
        freqs = np.zeros(8, dtype=np.int64)
        freqs[0] = p.freq.lo
        freqs[1] = p.freq.lo
        choice = ChoiceFunction(3, freqs)
        assert mass(collection, e, choice) == 0.5

    def test_size_bound_and_mass_bound(self):
        rng = np.random.default_rng(9)
        resolution = 6
        for _ in range(10):
            collection = random_convex_collection(rng, resolution)
            f = random_signal(rng, resolution, complex_values=True)
            e = random_grid_set(rng, resolution)
            choice = random_choice(rng, resolution)
            cap = math.sqrt(resolution + 1) * size_bound(collection, f)
            assert size(collection, f) <= cap * (1 + 1e-12)
            assert mass(collection, e, choice) <= mass_bound(collection, e) * (1 + 1e-12)

    def test_constant_signal_bound(self):
        rng = np.random.default_rng(10)
        collection = random_convex_collection(rng, 5)
        f = GridSignal.constant(5, 1.0)
        assert size_bound(collection, f) == 1.0
        assert size(collection, f) <= math.sqrt(6.0)


class TestDecompositions:
    def test_empty_collection(self):
        empty = TileCollection.from_bitiles(5, [])
        small, forest, stats = size_decompose(empty, GridSignal.zeros(5))
        assert not forest and len(small) == 0

    def test_single_tree_selection(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(4, [p])
        f = walsh_packet(p.lower, 4)
        small, forest, stats = size_decompose(collection, f)
        assert len(forest) == 1 and len(small) == 0
        # the largest admissible top exceeding the threshold is the unit
        # interval (value 1 > (sqrt(2)/2)^2), so that tree is selected
        assert forest[0].top_interval == DyadicInterval(0, 0)
        assert stats.tops_length == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_size_postconditions(self, seed):
        rng = np.random.default_rng(200 + seed)
        resolution = 6
        collection = random_convex_collection(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        small, forest, stats = size_decompose(collection, f)
        # halving holds exactly as computed
        assert size(small, f) <= stats.initial / 2 + 1e-13
        # partition: removed members and remainder tile the input
        removed = set().union(*(t.members for t in forest)) if forest else set()
        assert removed | set(small.bitiles) == set(collection.bitiles)
        assert not removed & set(small.bitiles)
        # remainder and every stored tree are convex
        assert collection_is_convex(small.masks)
        for tree in forest:
            assert TileCollection.from_bitiles(resolution, tree.members).convex

    @pytest.mark.parametrize("seed", range(6))
    def test_mass_postconditions(self, seed):
        rng = np.random.default_rng(300 + seed)
        resolution = 6
        collection = random_convex_collection(rng, resolution)
        e = random_grid_set(rng, resolution)
        choice = random_choice(rng, resolution)
        small, forest, stats = mass_decompose(collection, e, choice)
        assert mass(small, e, choice) <= stats.initial / 2 + 1e-15
        removed = set().union(*(t.members for t in forest)) if forest else set()
        assert removed | set(small.bitiles) == set(collection.bitiles)
        assert collection_is_convex(small.masks)
        for tree in forest:
            assert TileCollection.from_bitiles(resolution, tree.members).convex
        # incomparable-top counting: sum |I_T| < |E| / threshold exactly
        if stats.initial > 0 and measure(e) > 0:
            assert stats.tops_length <= measure(e) / stats.threshold * (1 + 1e-12)

    def test_mass_empty_set_keeps_everything(self):
        rng = np.random.default_rng(11)
        collection = random_convex_collection(rng, 5)
        choice = random_choice(rng, 5)
        small, forest, stats = mass_decompose(collection, GridSet.empty(5), choice)
        assert len(small) == len(collection) and not forest

    @pytest.mark.parametrize("seed", range(4))
    def test_full_decompose_partition_and_caps(self, seed):
        rng = np.random.default_rng(400 + seed)
        resolution = 6
        collection = random_convex_collection(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        e = random_grid_set(rng, resolution)
        choice = random_choice(rng, resolution)
        decomposition = full_decompose(collection, f, e, choice)
        covered = decomposition.covered()
        assert covered | set(decomposition.remainder.bitiles) == set(collection.bitiles)
        assert not covered & set(decomposition.remainder.bitiles)
        seen = []
        for (n, m), bucket in decomposition.buckets.items():
            union = set().union(*(t.members for t in bucket.trees)) if bucket.trees else set()
            for p in union:
                assert p not in seen
            seen.extend(union)
            if union:
                as_collection = TileCollection.from_bitiles(resolution, union)
                assert size(as_collection, f) <= bucket.size_cap * (1 + 1e-12)
                assert mass(as_collection, e, choice) <= bucket.mass_cap * (1 + 1e-12)
        # remainder carries no coefficient or stopping mass at all
        if len(decomposition.remainder):
            assert size(decomposition.remainder, f) == 0.0
            assert mass(decomposition.remainder, e, choice) == 0.0


class TestTreeEstimate:
    def test_zero_signal(self):
        rng = np.random.default_rng(12)
        tree = random_tree(rng, 5)
        report = tree_estimate(tree, GridSignal.zeros(5), GridSet.full(5), random_choice(rng, 5))
        assert report.lhs == 0.0

    def test_single_bitile_oscillation_cancels(self):
        # E covering the whole spatial interval pairs the indicator with a
        # mean-zero packet, so the pairing vanishes identically
        p = BiTile(1, 0, 1)
        tree = Tree(p.spatial, p.upper.freq.lo, frozenset([p]))
        f = walsh_packet(p.lower, 3)
        e = GridSet.from_interval(3, p.spatial)
        choice = ChoiceFunction.constant(3, p.upper.freq.lo)
        report = tree_estimate(tree, f, e, choice)
        assert report.lhs == pytest.approx(0.0, abs=1e-15)
        assert report.rhs == pytest.approx(p.spatial.length * math.sqrt(2.0), abs=1e-12)

    def test_single_bitile_half_set(self):
        p = BiTile(1, 0, 1)
        tree = Tree(p.spatial, p.upper.freq.lo, frozenset([p]))
        f = walsh_packet(p.lower, 3)
        e = GridSet(3, np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=bool))
        choice = ChoiceFunction.constant(3, p.upper.freq.lo)
        psi = walsh_packet(p.upper, 3).values.real
        expected = abs(psi[0]) * 0.125
        report = tree_estimate(tree, f, e, choice)
        assert report.lhs == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_sum(self, seed):
        rng = np.random.default_rng(500 + seed)
        resolution = 5
        tree = random_tree(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        e = random_grid_set(rng, resolution)
        choice = random_choice(rng, resolution)
        direct = 0.0
        for p in tree.members:
            coef = inner_product(f, walsh_packet(p.lower, resolution))
            psi = walsh_packet(p.upper, resolution).values.real
            sel = e.mask & (choice.freqs >= p.upper.freq.lo) & (choice.freqs < p.upper.freq.hi)
            direct += abs(coef) * abs(float(np.sum(psi[sel]) * 2.0**-resolution))
        report = tree_estimate(tree, f, e, choice)
        assert report.lhs == pytest.approx(direct, abs=1e-12)


class TestCollections:
    def test_convex_closure_is_convex(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            collection = random_convex_collection(rng, 5)
            assert collection.convex
            assert collection_is_convex(collection.masks)
            assert pairwise_is_convex(collection.bitiles)

    def test_all_bitiles_count(self):
        # L * 2^(L-1) bi-tiles at resolution L
        for resolution in (2, 3, 4, 5):
            assert len(all_bitiles(resolution)) == resolution * (1 << (resolution - 1))

    def test_non_convex_detected(self):
        lo = BiTile(2, 0, 0)
        hi = BiTile(0, 0, 0)
        assert lo <= hi
        assert not pairwise_is_convex({lo, hi})
        assert not TileCollection.from_bitiles(3, {lo, hi}).convex

    @pytest.mark.parametrize("resolution", [1, 2, 3])
    def test_convexity_and_closure_match_pairwise_on_every_subset(self, resolution):
        tiles = all_bitiles(resolution)
        for bits in range(1 << len(tiles)):
            subset = [p for i, p in enumerate(tiles) if (bits >> i) & 1]
            collection = TileCollection.from_bitiles(resolution, subset)
            assert collection.convex == pairwise_is_convex(subset)
            closure = TileCollection.convex_closure(resolution, subset)
            assert closure.bitiles == pairwise_closure(subset)

    @pytest.mark.parametrize("resolution", [4, 5])
    def test_convexity_and_closure_match_pairwise_on_random_subsets(self, resolution):
        rng = np.random.default_rng(14 + resolution)
        tiles = all_bitiles(resolution)
        verdicts = set()
        for _ in range(150):
            density = rng.choice([0.05, 0.15, 0.4])
            subset = [p for p in tiles if rng.random() < density]
            collection = TileCollection.from_bitiles(resolution, subset)
            verdicts.add(collection.convex)
            assert collection.convex == pairwise_is_convex(subset)
            closure = TileCollection.convex_closure(resolution, subset)
            assert closure.bitiles == pairwise_closure(subset)
        assert verdicts == {True, False}

    def test_masks_enumerate_in_bitile_key_order(self):
        rng = np.random.default_rng(15)
        collection = random_convex_collection(rng, 5)
        members = list(member_coefficients(collection, random_signal(rng, 5)))
        assert members == sorted(collection.bitiles, key=bitile_key)
        assert len(members) == len(collection)

    def test_masks_are_read_only(self):
        collection = TileCollection.all(3)
        with pytest.raises(ValueError):
            collection.masks[0][0, 0] = False

    def test_bitile_outside_resolution_rejected(self):
        with pytest.raises(ValueError):
            TileCollection.from_bitiles(3, [BiTile(3, 0, 0)])
        with pytest.raises(ValueError):
            TileCollection.from_bitiles(3, [BiTile(1, 0, 2)])
        with pytest.raises(ValueError):
            TileCollection(3, (np.ones((1, 4), dtype=bool),))

    def test_tree_validation(self):
        p = BiTile(1, 0, 1)
        with pytest.raises(ValueError):
            Tree(DyadicInterval(2, 0), p.freq.lo, frozenset([p]))
        with pytest.raises(ValueError):
            Tree(p.spatial, p.freq.hi + 5, frozenset([p]))
