"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with `pytest tests/test_acceptance.py -s`)."""

import functools
import math
import time

import numpy as np
import pytest

from dyadlab.grid import (
    DyadicInterval,
    GridSignal,
    all_intervals,
    lp_norm,
    measure,
)
from dyadlab.harness import (
    maximal_operator_family,
    random_grid2d,
    random_grid_set,
    random_set2d,
    random_signal,
    random_vector,
)
from dyadlab.maximal import dyadic_maximal, verify_vector_maximal
from dyadlab.principle import (
    measure_condition,
    splitting_cascade,
    trim_builder,
    vector_inequality_ratio,
)
from dyadlab.tiles import (
    TileCollection,
    Tree,
    mass,
    mass_decompose,
    member_coefficients,
    size,
    size_decompose,
    tree_estimate,
)
from oracles import (
    all_bitiles,
    collection_adapted_choice,
    collection_spanning_signal,
    random_choice,
    random_convex_collection,
)


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {number} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def tree_average(values: np.ndarray) -> float:
    acc = np.array(values, dtype=float)
    while acc.size > 1:
        acc = acc[0::2] + acc[1::2]
    return float(acc[0]) / values.size


def test_criterion_1_maximal_oracle():
    start = time.time()
    rng = np.random.default_rng(1001)
    checked = 0
    exact = True
    weak_ok = True
    for trial in range(1000):
        resolution = (4, 6, 8, 10)[trial % 4]
        f = random_signal(rng, resolution, complex_values=bool(trial % 2))
        mf = dyadic_maximal(f).values.real
        oracle = np.zeros_like(mf)
        a = np.abs(f.values)
        for interval in all_intervals(resolution):
            sl = interval.cell_slice(resolution)
            oracle[sl] = np.maximum(oracle[sl], tree_average(a[sl]))
        exact = exact and bool(np.array_equal(mf, oracle))
        width = 2.0**-resolution
        norm1 = lp_norm(f.values, 1.0, f.resolution)
        for v in np.unique(mf):
            if v > 0 and v * np.count_nonzero(mf >= v) * width > norm1 * (1 + 1e-12):
                weak_ok = False
        checked += 1
    elapsed = time.time() - start
    ok = exact and weak_ok and checked == 1000 and elapsed < 30
    report_line(
        1,
        "maximal-function oracle",
        ok,
        f"1000 signals exact={exact}, weak-(1,1)={weak_ok}, {elapsed:.1f}s",
    )


def oracle_size_vectorized(collection: TileCollection, f: GridSignal) -> float:
    """Exhaustive 2-overlapping-tree enumeration, vectorized over subsets."""
    members = sorted(collection.bitiles, key=lambda p: (p.scale, p.offset, p.freq_index))
    count = len(members)
    if count == 0:
        return 0.0
    L = collection.resolution
    coeffs = member_coefficients(collection, f)
    weights = np.array([abs(coeffs[p]) ** 2 for p in members])
    lo = np.array([float(p.upper.freq.lo) for p in members])
    hi = np.array([float(p.upper.freq.hi) for p in members])
    starts = np.array([p.spatial.cell_slice(L).start for p in members], dtype=np.int64)
    stops = np.array([p.spatial.cell_slice(L).stop for p in members], dtype=np.int64)
    masks = np.arange(1, 1 << count)[:, None]
    sel = (masks >> np.arange(count)[None, :]) & 1 == 1
    xi_lo = np.where(sel, lo[None, :], -np.inf).max(axis=1)
    xi_hi = np.where(sel, hi[None, :], np.inf).min(axis=1)
    admissible = xi_lo < xi_hi
    a = np.where(sel, starts[None, :], np.iinfo(np.int64).max).min(axis=1)
    b = np.where(sel, stops[None, :], 0).max(axis=1) - 1
    xor = np.bitwise_xor(a, b)
    bits = np.zeros_like(xor)
    positive = xor > 0
    bits[positive] = np.floor(np.log2(xor[positive])).astype(np.int64) + 1
    hull_length = 2.0 ** -(L - bits)
    total = sel @ weights
    values = np.where(admissible, total / hull_length, 0.0)
    return math.sqrt(float(values.max(initial=0.0)))


def test_criterion_2_size_oracle():
    start = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for trial in range(500):
        resolution = (5, 6)[trial % 2]
        while True:
            collection = random_convex_collection(rng, resolution, seeds=2, cap=12)
            if len(collection) >= 1:
                break
        f = random_signal(rng, resolution, complex_values=True)
        greedy = size(collection, f)
        oracle = oracle_size_vectorized(collection, f)
        scale = max(greedy, oracle, 1e-30)
        worst = max(worst, abs(greedy - oracle) / scale)
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 60
    report_line(
        2,
        "size oracle",
        ok,
        f"500 collections, worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_lemma_postconditions():
    # trials are adapted to each collection (signal in the span of its
    # packets, choice function sampling its frequency intervals); otherwise
    # the measured constants decay like 2**-L and stability is vacuous
    start = time.time()
    rng = np.random.default_rng(1003)
    size_constants = {}
    mass_constants = {}
    halving_ok = True
    for resolution in (5, 6, 7, 8):
        worst_size_c = 0.0
        worst_mass_c = 0.0
        for _ in range(200):
            collection = random_convex_collection(rng, resolution)
            f = collection_spanning_signal(rng, collection)
            e = random_grid_set(rng, resolution)
            choice = collection_adapted_choice(rng, collection)
            small, _, stats = size_decompose(collection, f)
            halving_ok = halving_ok and size(small, f) <= stats.initial / 2 + 1e-12
            if stats.initial > 0:
                worst_size_c = max(worst_size_c, stats.counting_constant)
            small2, _, stats2 = mass_decompose(collection, e, choice)
            halving_ok = halving_ok and mass(small2, e, choice) <= stats2.initial / 2 + 1e-15
            if stats2.initial > 0:
                worst_mass_c = max(worst_mass_c, stats2.counting_constant)
        size_constants[resolution] = worst_size_c
        mass_constants[resolution] = worst_mass_c
    size_drift = max(size_constants.values()) / min(size_constants.values())
    mass_drift = max(mass_constants.values()) / min(mass_constants.values())
    elapsed = time.time() - start
    ok = halving_ok and size_drift < 4.0 and mass_drift < 4.0 and elapsed < 300
    report_line(
        3,
        "size/mass splitting postconditions",
        ok,
        f"halving={halving_ok}, size drift {size_drift:.2f}, mass drift {mass_drift:.2f}, {elapsed:.1f}s",
    )


def old_random_tile_tree(rng, resolution):
    """Reference sampler: every bi-tile of `all_bitiles` tested with
    `contains`/`contains_point`, and one draw per compatible bi-tile in that
    order."""
    while True:
        scale = int(rng.integers(0, resolution))
        top = DyadicInterval(scale, int(rng.integers(0, 1 << scale)))
        xi = int(rng.integers(0, 1 << resolution))
        compatible = [
            p
            for p in all_bitiles(resolution)
            if top.contains(p.spatial) and p.freq.contains_point(xi)
        ]
        keep = [p for p in compatible if rng.random() < 0.6]
        if keep:
            return Tree.from_members(top, xi, TileCollection.from_bitiles(resolution, keep))


@functools.lru_cache(maxsize=None)
def bitile_listing(resolution):
    """Every bi-tile in `all_bitiles` order, with its (scale, offset,
    freq_index) as integer arrays."""
    bitiles = all_bitiles(resolution)
    coords = np.array([(p.scale, p.offset, p.freq_index) for p in bitiles])
    return bitiles, coords[:, 0], coords[:, 1], coords[:, 2]


def random_tile_tree(rng, resolution):
    """`old_random_tile_tree` with the compatibility test on integer arrays:
    the same draws in the same order, so the same trees and generator state.
    A bi-tile is compatible when its spatial interval lies in the top and
    its frequency interval [q 2**(k+1), (q+1) 2**(k+1)) holds xi."""
    bitiles, ks, ns, qs = bitile_listing(resolution)
    while True:
        scale = int(rng.integers(0, resolution))
        offset = int(rng.integers(0, 1 << scale))
        xi = int(rng.integers(0, 1 << resolution))
        inside = (ks >= scale) & ((ns >> np.maximum(ks - scale, 0)) == offset) & ((xi >> (ks + 1)) == qs)
        compatible = np.flatnonzero(inside)
        draws = rng.random(compatible.size)
        keep = [bitiles[i] for i in compatible[draws < 0.6]]
        if keep:
            return Tree.from_members(DyadicInterval(scale, offset), xi, TileCollection.from_bitiles(resolution, keep))


@pytest.mark.parametrize("resolution", [6, 8])
def test_tile_tree_sampler_matches_reference(resolution):
    # the samplers consume the same draws from any generator state, so
    # criterion 4's seed-1004 trees are unchanged
    fast, slow = np.random.default_rng(1004), np.random.default_rng(1004)
    for _ in range(200):
        tree, expected = random_tile_tree(fast, resolution), old_random_tile_tree(slow, resolution)
        assert (tree.top_interval, tree.top_freq) == (expected.top_interval, expected.top_freq)
        assert tree.members.bitiles == expected.members.bitiles
    assert fast.bit_generator.state == slow.bit_generator.state


def old_random_rect_tree(rng, resolution):
    """Reference sampler: one `DyadicRectangle.contains` test per rectangle
    at the scale, and one draw per contained rectangle in `.rects` order."""
    from dyadlab.biparam import RectCollection, RectTree
    from dyadlab.plane import DyadicRectangle

    while True:
        vscale = int(rng.integers(0, resolution))
        kx = int(rng.integers(0, resolution))
        top = DyadicRectangle(
            DyadicInterval(kx, int(rng.integers(0, 1 << kx))),
            DyadicInterval(vscale, int(rng.integers(0, 1 << vscale))),
        )
        members = [
            r
            for r in RectCollection.all_at_scale(resolution, vscale).rects
            if top.contains(r) and rng.random() < 0.7
        ]
        if members:
            return RectTree(top, RectCollection.from_rects(resolution, vscale, members))


@functools.lru_cache(maxsize=None)
def rect_listing(resolution, vscale):
    """Every rectangle at the vertical scale in `.rects` order, with its
    (kx, nx, ny) as integer arrays."""
    from dyadlab.biparam import RectCollection

    rects = list(RectCollection.all_at_scale(resolution, vscale).rects)
    coords = np.array(
        [(r.horizontal.scale, r.horizontal.offset, r.vertical.offset) for r in rects]
    )
    return rects, coords[:, 0], coords[:, 1], coords[:, 2]


def random_rect_tree(rng, resolution):
    """`old_random_rect_tree` with the containment test on integer arrays:
    the same draws in the same order, so the same trees and generator state."""
    from dyadlab.biparam import RectCollection, RectTree
    from dyadlab.plane import DyadicRectangle

    while True:
        vscale = int(rng.integers(0, resolution))
        kx = int(rng.integers(0, resolution))
        nx = int(rng.integers(0, 1 << kx))
        ny = int(rng.integers(0, 1 << vscale))
        rects, kxs, nxs, nys = rect_listing(resolution, vscale)
        inside = (kxs >= kx) & ((nxs >> np.maximum(kxs - kx, 0)) == nx) & (nys == ny)
        contained = np.flatnonzero(inside)
        draws = rng.random(contained.size)
        members = [rects[i] for i in contained[draws < 0.7]]
        if members:
            top = DyadicRectangle(DyadicInterval(kx, nx), DyadicInterval(vscale, ny))
            return RectTree(top, RectCollection.from_rects(resolution, vscale, members))


@pytest.mark.parametrize("resolution", [6, 8])
def test_rect_tree_sampler_matches_reference(resolution):
    fast, slow = np.random.default_rng(1004), np.random.default_rng(1004)
    for _ in range(60):
        tree, expected = random_rect_tree(fast, resolution), old_random_rect_tree(slow, resolution)
        assert tree.top == expected.top
        assert tree.members.rects == expected.members.rects
    assert fast.bit_generator.state == slow.bit_generator.state


def test_criterion_4_tree_estimates():
    from dyadlab.biparam import rect_tree_estimate

    start = time.time()
    rng = np.random.default_rng(1004)
    tile_max = {}
    rect_max = {}
    for resolution in (6, 8):
        worst_tile = 0.0
        for _ in range(500):
            tree = random_tile_tree(rng, resolution)
            f = random_signal(rng, resolution, complex_values=True)
            e = random_grid_set(rng, resolution)
            choice = random_choice(rng, resolution)
            worst_tile = max(worst_tile, tree_estimate(tree, f, e, choice)["ratio"])
        tile_max[resolution] = worst_tile
        worst_rect = 0.0
        for _ in range(500):
            tree = random_rect_tree(rng, resolution)
            f = random_grid2d(rng, resolution)
            g = random_grid2d(rng, resolution)
            h_prime = random_set2d(rng, resolution, 0.7)
            g_set = random_set2d(rng, resolution, 0.7)
            worst_rect = max(worst_rect, rect_tree_estimate(tree, f, g, h_prime, g_set)["ratio"])
        rect_max[resolution] = worst_rect
    tile_drift = max(tile_max.values()) / min(tile_max.values())
    rect_drift = max(rect_max.values()) / min(rect_max.values())
    finite = all(math.isfinite(v) for v in (*tile_max.values(), *rect_max.values()))
    elapsed = time.time() - start
    ok = finite and tile_drift < 2.0 and rect_drift < 2.0 and elapsed < 300
    report_line(
        4,
        "tree estimates",
        ok,
        f"tile C={max(tile_max.values()):.3f} drift {tile_drift:.2f}, "
        f"rect C={max(rect_max.values()):.3f} drift {rect_drift:.2f}, {elapsed:.1f}s",
    )


def test_criterion_5_principle_internals():
    start = time.time()
    rng = np.random.default_rng(1005)
    builder = trim_builder(4.0, "both")
    identity_ok = cascade_ok = True
    for _ in range(100):
        h = random_grid_set(rng, 6)
        g = random_grid_set(rng, 6)
        levels = splitting_cascade(h, g, builder, k_max=10)
        base = measure(g) * measure(h)
        for stat in levels:
            cascade_ok = cascade_ok and stat["max_product_measure"] <= base * 0.5**stat["k"] + 1e-15
            identity_ok = identity_ok and stat["budget"] == 2.0 ** -stat["k"]
    elapsed = time.time() - start
    ok = identity_ok and cascade_ok and elapsed < 10
    report_line(
        5,
        "interpolation engine internals",
        ok,
        f"identity={identity_ok}, cascade={cascade_ok}, {elapsed:.1f}s",
    )


def test_criterion_6_fs_uniformity():
    start = time.time()
    rng = np.random.default_rng(1006)
    ok = True
    detail = []
    for p in (1.5, 3.0):
        for resolution in (6, 8, 10):
            sups = {}
            for members in (1, 4, 16, 64):
                worst = 0.0
                for _ in range(50):
                    fam = random_vector(rng, resolution, members)
                    worst = max(worst, verify_vector_maximal(fam, p)["ratio"])
                sups[members] = worst
            uniform = max(sups.values()) <= 2.0 * sups[1]
            ok = ok and uniform
            detail.append(f"p={p},L={resolution}: sup {max(sups.values()):.3f} vs J=1 {sups[1]:.3f}")
    elapsed = time.time() - start
    ok = ok and elapsed < 600
    report_line(6, "vector maximal uniformity", ok, "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_7_biparam():
    from dyadlab.biparam import verify_biparam

    start = time.time()
    rng = np.random.default_rng(1007)
    resolution = 5
    caps_ok = True
    # the J = 1 baseline takes the worst single vertical scale, since one
    # member can only exercise one fixed-scale operator at a time
    baseline = 0.0
    for scale in range(resolution):
        for trial in range(4):
            fams = [random_grid2d(rng, resolution)]
            rep = verify_biparam(
                fams,
                p=3.0,
                eps=0.1,
                seed=7000 + 31 * scale + trial,
                g=random_set2d(rng, resolution, 0.25),
                scales=[scale],
            )
            caps_ok = caps_ok and all(c <= 1.0 + 1e-12 for c in rep["mass_cap_ratios"])
            caps_ok = caps_ok and rep["h_kept"] >= 0.5
            baseline = max(baseline, rep["ratio"])
    sups = {1: baseline}
    for members in (4, 8):
        worst = 0.0
        for trial in range(8):
            fams = [random_grid2d(rng, resolution) for _ in range(members)]
            rep = verify_biparam(
                fams,
                p=3.0,
                eps=0.1,
                seed=7500 + trial,
                g=random_set2d(rng, resolution, 0.25),
            )
            caps_ok = caps_ok and all(c <= 1.0 + 1e-12 for c in rep["mass_cap_ratios"])
            caps_ok = caps_ok and rep["h_kept"] >= 0.5
            worst = max(worst, rep["ratio"])
        sups[members] = worst
    uniform = max(sups.values()) <= 2.0 * sups[1]
    elapsed = time.time() - start
    ok = caps_ok and uniform and elapsed < 600
    report_line(
        7,
        "fixed-vertical-scale pipeline",
        ok,
        f"mass caps by construction={caps_ok}, sups={ {k: round(v, 3) for k, v in sups.items()} }, {elapsed:.1f}s",
    )


def test_criterion_8_cordoba():
    from dyadlab.directional import (
        Direction,
        DirectionalAverager,
        DirectionSet,
        build_majorant_weight,
        halfplane_project,
        muckenhoupt_constants,
        verify_weighted_directional,
    )
    from dyadlab.plane import Grid2D

    start = time.time()
    rng = np.random.default_rng(1008)
    resolution, n = 4, 16

    projection_ok = True
    for _ in range(100):
        f = Grid2D(resolution, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        v = Direction.from_angle(rng.uniform(0, 2 * math.pi))
        once = halfplane_project(f, v)
        twice = halfplane_project(once, v)
        other = halfplane_project(f, v.negated)
        projection_ok = projection_ok and bool(
            np.allclose(once.values, twice.values, atol=1e-10)
            and np.allclose(once.values + other.values, f.values, atol=1e-10)
        )

    averager = DirectionalAverager(resolution, DirectionSet.uniform(8))
    norm = averager.estimate_norm(2.0)
    weight_ok = True
    for _ in range(5):
        g = Grid2D(resolution, np.abs(rng.standard_normal((n, n))))
        weight = build_majorant_weight(g, averager, 2.0, 40, norm)
        weight_ok = weight_ok and bool(np.all(g.values.real <= weight.values + 1e-15))
        weight_ok = weight_ok and weight.weight_norm <= 2.0 * weight.input_norm * (1 + 1e-12)
        weight_ok = weight_ok and all(cert["holds"] for cert in weight.checks()) and weight.tail_bound < 1e-6

    a2_ok = True
    for _ in range(100):
        u = GridSignal(5, np.exp(0.8 * rng.standard_normal(32)))
        a1, a2 = muckenhoupt_constants(u)
        a2_ok = a2_ok and a2 <= 2.0 * a1 * (1 + 1e-12)

    constants = []
    for trial in range(10):
        fams = [random_grid2d(rng, resolution) for _ in range(8)]
        rep, _ = verify_weighted_directional(fams, averager, p=2.0, norm=norm)
        constants.append(rep["ratio"])
    stable = max(constants) / min(constants) < 4.0 and all(map(math.isfinite, constants))

    elapsed = time.time() - start
    ok = projection_ok and weight_ok and a2_ok and stable and elapsed < 600
    report_line(
        8,
        "directional projections and weights",
        ok,
        f"projections={projection_ok}, weights={weight_ok}, A2<=2A1={a2_ok}, "
        f"endpoint constants [{min(constants):.3f},{max(constants):.3f}], {elapsed:.1f}s",
    )


def test_criterion_9_carleson_decay():
    from dyadlab.carleson import norm_decay_ladder

    start = time.time()
    ratios = [2.0**-i for i in range(1, 9)]
    slopes = {}
    for branch in ("h", "g"):
        decay = norm_decay_ladder(9, ratios, seed=1009, branch=branch)
        slopes[branch] = decay["slope"]
    elapsed = time.time() - start
    ok = all(s >= 0.5 - 0.1 for s in slopes.values()) and elapsed < 900
    report_line(
        9,
        "restricted-norm decay",
        ok,
        f"slopes h={slopes['h']:.3f}, g={slopes['g']:.3f} (>= 0.4), {elapsed:.1f}s",
    )


def test_criterion_10_principle_end_to_end():
    start = time.time()
    rng = np.random.default_rng(1010)
    resolution = 6
    family, _ = maximal_operator_family(rng, resolution, 4)
    h = random_grid_set(rng, resolution)
    g = random_grid_set(rng, resolution)
    builder = trim_builder(4.0, "h")
    p0, p1, q = 1.5, 3.0, 2.0
    cond0 = measure_condition(family, h, g, builder, p0, seed=10)
    cond1 = measure_condition(family, h, g, builder, p1, seed=11)
    conditions_ok = (
        math.isfinite(cond0["C_p"])
        and math.isfinite(cond1["C_p"])
        and cond0["converged"]
        and cond1["converged"]
        and cond0["h_kept"] >= 0.5
    )
    sups = {}
    for members in (1, 4, 16):
        worst = 0.0
        for _ in range(30):
            fam = random_vector(rng, resolution, members)
            worst = max(worst, vector_inequality_ratio(family, fam, q)["ratio"])
        sups[members] = worst
    uniform = max(sups.values()) <= 2.0 * sups[1] and all(
        math.isfinite(v) for v in sups.values()
    )
    elapsed = time.time() - start
    ok = conditions_ok and uniform and elapsed < 300
    report_line(
        10,
        "end-to-end interpolation engine",
        ok,
        f"C_p0={cond0['C_p']:.3f}, C_p1={cond1['C_p']:.3f}, sups={ {k: round(v, 3) for k, v in sups.items()} }, {elapsed:.1f}s",
    )
