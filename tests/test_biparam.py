import math

import numpy as np
import pytest

from dyadlab.biparam import (
    RectCollection,
    RectTree,
    fixed_scale_operator,
    haar_coefficients,
    haar_synthesis,
    rect_full_decompose,
    rect_is_convex,
    rect_mass,
    rect_size,
    rect_tree_estimate,
    tensor_packet,
    verify_biparam,
    vertical_band_project,
)
from dyadlab.grid import DyadicInterval, lp_norm
from dyadlab.harness import random_grid2d, random_set2d
from dyadlab.principle import LinearOperator
from dyadlab.plane import (
    DyadicRectangle,
    Grid2D,
    GridSet2D,
    all_rectangles,
    certified_rectangle_threshold,
    exceptional_complement_2d,
    inner2,
    measure2,
    rectangle_level_set,
    strong_maximal,
)
from test_principle import assert_same_result, old_power_iteration


def old_block_sums(values, scale, axis):
    v = np.moveaxis(np.asarray(values), axis, 0)
    n = v.shape[0]
    v = v.reshape(1 << scale, n >> scale, *v.shape[1:]).sum(axis=1)
    return np.moveaxis(v, 0, axis)


def old_haar_details(values, scale, axis):
    child = old_block_sums(values, scale + 1, axis)
    child = np.moveaxis(child, axis, 0)
    out = (child[0::2] - child[1::2]) * 2.0 ** (scale / 2.0)
    return np.moveaxis(out, 0, axis)


def old_haar_coefficients(values, resolution, kx, ky):
    """The moveaxis Haar analysis that preceded the fixed-scale plan."""
    return old_haar_details(old_haar_details(values, kx, 0), ky, 1) * 4.0**-resolution


def old_haar_synthesis(coeffs, resolution, kx, ky):
    """The repeat-and-sign Haar synthesis that preceded the fixed-scale plan."""

    def signs(scale):
        half = (1 << resolution) >> (scale + 1)
        return np.tile(np.concatenate([np.ones(half), -np.ones(half)]), 1 << scale)

    rx, ry = 1 << (resolution - kx), 1 << (resolution - ky)
    expanded = np.repeat(np.repeat(coeffs, rx, axis=0), ry, axis=1)
    return expanded * 2.0 ** ((kx + ky) / 2.0) * signs(kx)[:, None] * signs(ky)[None, :]


def old_fixed_scale_operator(values, resolution, j):
    out = np.zeros_like(values)
    for kx in range(resolution):
        coef = old_haar_coefficients(values, resolution, kx, j)
        out += old_haar_synthesis(coef, resolution, kx, j)
    return out


def old_all_at_scale(resolution, vscale):
    """The insertion loop RectCollection.all_at_scale ran on every call."""
    rects = set()
    for kx in range(resolution):
        for nx in range(1 << kx):
            for ny in range(1 << vscale):
                rects.add(rect(kx, nx, vscale, ny))
    return RectCollection(resolution, vscale, frozenset(rects))


def rect(kx, nx, ky, ny):
    return DyadicRectangle(DyadicInterval(kx, nx), DyadicInterval(ky, ny))


def oracle_strong_maximal(f: Grid2D) -> np.ndarray:
    out = np.zeros((1 << f.resolution,) * 2)
    a = np.abs(f.values)
    for r in all_rectangles(f.resolution):
        sx, sy = r.cell_slices(f.resolution)
        out[sx, sy] = np.maximum(out[sx, sy], a[sx, sy].mean())
    return out


def oracle_rect_size(collection, f, h_prime) -> float:
    """Exhaustive subset enumeration with the smallest in-strip hull."""
    from dyadlab.biparam import rect_coefficients

    masked = Grid2D(f.resolution, f.values * h_prime.mask)
    coeffs = rect_coefficients(collection, masked)
    members = sorted(collection.rects)
    best = 0.0
    L = f.resolution
    for bits in range(1, 1 << len(members)):
        sel = [members[i] for i in range(len(members)) if (bits >> i) & 1]
        strips = {r.vertical for r in sel}
        if len(strips) != 1:
            continue
        starts = [r.horizontal.cell_slice(L).start for r in sel]
        stops = [r.horizontal.cell_slice(L).stop for r in sel]
        a, b = min(starts), max(stops) - 1
        hull_scale = L - (a ^ b).bit_length()
        area = 2.0**-hull_scale * next(iter(strips)).length
        best = max(best, sum(abs(coeffs[r]) ** 2 for r in sel) / area)
    return math.sqrt(best)


class TestStrongMaximal:
    def test_constant(self):
        f = Grid2D.constant(3, 1.0)
        assert np.allclose(strong_maximal(f).values.real, 1.0)

    def test_single_cell_corner(self):
        vals = np.zeros((4, 4), dtype=complex)
        vals[0, 0] = 1.0
        out = strong_maximal(Grid2D(2, vals)).values.real
        # only the full square contains both corners
        assert out[3, 3] == 1.0 / 16.0
        assert out[0, 0] == 1.0

    @pytest.mark.parametrize("resolution", [2, 3, 4])
    def test_matches_oracle(self, resolution):
        rng = np.random.default_rng(resolution)
        for _ in range(5):
            f = random_grid2d(rng, resolution)
            got = strong_maximal(f).values.real
            assert np.allclose(got, oracle_strong_maximal(f), atol=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        f = random_grid2d(rng, 3)
        g = Grid2D(3, np.abs(f.values) + np.abs(random_grid2d(rng, 3).values))
        assert np.all(
            strong_maximal(f).values.real <= strong_maximal(g).values.real + 1e-12
        )


class TestTensorPackets:
    def test_orthonormal_family(self):
        resolution = 3
        packets = []
        for kx in range(resolution):
            for nx in range(1 << kx):
                for ky in range(resolution):
                    for ny in range(1 << ky):
                        packets.append(tensor_packet(rect(kx, nx, ky, ny), resolution))
        gram = np.array([[inner2(a, b) for b in packets] for a in packets])
        assert np.allclose(gram, np.eye(len(packets)), atol=1e-12)

    def test_coefficients_match_inner_products(self):
        rng = np.random.default_rng(6)
        resolution = 3
        f = random_grid2d(rng, resolution)
        for kx in range(resolution):
            for ky in range(resolution):
                coef = haar_coefficients(f, kx, ky)
                for nx in range(1 << kx):
                    for ny in range(1 << ky):
                        direct = inner2(f, tensor_packet(rect(kx, nx, ky, ny), resolution))
                        assert coef[nx, ny] == pytest.approx(direct, abs=1e-13)


class TestModelOperator:
    def test_zero(self):
        assert np.all(fixed_scale_operator(Grid2D.zeros(4), 1).values == 0.0)

    def test_single_packet_reproduced(self):
        resolution = 4
        packet = tensor_packet(rect(2, 1, 1, 0), resolution)
        out = fixed_scale_operator(packet, 1)
        assert np.allclose(out.values, packet.values, atol=1e-12)
        assert np.allclose(fixed_scale_operator(packet, 2).values, 0.0, atol=1e-12)

    def test_projection_and_bessel(self):
        rng = np.random.default_rng(7)
        f = random_grid2d(rng, 4)
        for j in range(4):
            tj = fixed_scale_operator(f, j)
            assert lp_norm(tj.values, 2.0, 4) <= lp_norm(f.values, 2.0, 4) * (1 + 1e-12)
            twice = fixed_scale_operator(tj, j)
            assert np.allclose(twice.values, tj.values, atol=1e-12)

    def test_band_partition_and_parseval(self):
        rng = np.random.default_rng(8)
        resolution = 4
        f = random_grid2d(rng, resolution)
        total = np.zeros_like(f.values)
        sq = 0.0
        for band in range(resolution + 1):
            piece = vertical_band_project(f, band)
            total += piece.values
            sq += lp_norm(piece.values, 2.0, resolution) ** 2
        assert np.allclose(total, f.values, atol=1e-10)
        assert sq == pytest.approx(lp_norm(f.values, 2.0, resolution) ** 2, rel=1e-10)

    def test_band_reduction_exact(self):
        # the scale-j operator only sees the matching vertical band
        rng = np.random.default_rng(9)
        f = random_grid2d(rng, 4)
        for j in range(4):
            direct = fixed_scale_operator(f, j)
            banded = fixed_scale_operator(vertical_band_project(f, j + 1), j)
            assert np.allclose(direct.values, banded.values, atol=1e-10)


class TestFixedScalePlan:
    """The cached per-(L, j) plan against the moveaxis/repeat formulas."""

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_moveaxis_path(self, resolution):
        rng = np.random.default_rng(60 + resolution)
        f = random_grid2d(rng, resolution)
        for j in range(resolution):
            for kx in range(resolution):
                coef = haar_coefficients(f, kx, j)
                assert np.array_equal(coef, old_haar_coefficients(f.values, resolution, kx, j))
                shape = (1 << kx, 1 << j)
                c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                assert np.array_equal(
                    haar_synthesis(c, resolution, kx, j), old_haar_synthesis(c, resolution, kx, j)
                )
            assert np.array_equal(
                fixed_scale_operator(f, j).values, old_fixed_scale_operator(f.values, resolution, j)
            )

    def test_plan_is_built_once_per_scale(self):
        from dyadlab.biparam import _plan

        assert _plan(5, 2) is _plan(5, 2)
        assert _plan(5, 2) is not _plan(5, 3)

    @pytest.mark.parametrize("resolution", [4, 5])
    def test_localized_norms_match_closure_loop(self, monkeypatch, resolution):
        import dyadlab.biparam as biparam

        rng = np.random.default_rng(64 + resolution)
        L, n, seed, eps = resolution, 1 << resolution, 11, 0.45
        fams = [random_grid2d(rng, L) for _ in range(L)]
        h = GridSet2D.full(L)
        g = random_set2d(rng, L, 0.25)
        h_prime = exceptional_complement_2d(h, g, certified_rectangle_threshold(h, g, eps))
        assert 0 < measure2(h_prime) < 1
        results = []
        real = biparam.power_iteration

        def recording(op, shape, **kwargs):
            results.append((kwargs["seed"] - seed, real(op, shape, **kwargs)))
            return results[-1][1]

        monkeypatch.setattr(biparam, "power_iteration", recording)
        verify_biparam(fams, p=3.0, eps=eps, seed=seed, h=h, g=g, power_iters=60)
        assert [j for j, _ in results] == list(range(L))
        for j, res in results:

            def fwd(v, j=j):
                return old_fixed_scale_operator(v * h_prime.mask, L, j) * g.mask

            def adj(v, j=j):
                return old_fixed_scale_operator(v * g.mask, L, j) * h_prime.mask

            old = old_power_iteration(LinearOperator(fwd, adj), (n, n), iters=60, seed=seed + j)
            assert_same_result(res, old)


class TestExceptionalSet2D:
    def test_empty_marker(self):
        base = GridSet2D.full(3)
        marker = GridSet2D.empty(3)
        assert measure2(exceptional_complement_2d(base, marker, 0.5)) == 1.0

    def test_pinned_small_instance(self):
        # marker on one full row at L=3; rectangle enumeration oracle
        resolution = 3
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, :] = True
        marker = GridSet2D(resolution, mask)
        threshold = 0.4
        level = rectangle_level_set(marker, threshold, strict=True)
        expected = np.zeros((8, 8), dtype=bool)
        for r in all_rectangles(resolution):
            sx, sy = r.cell_slices(resolution)
            if mask[sx, sy].mean() > threshold:
                expected[sx, sy] = True
        assert np.array_equal(level.mask, expected)

    def test_threshold_at_one_removes_nothing(self):
        base = GridSet2D.full(3)
        marker = GridSet2D.full(3)
        assert np.array_equal(
            exceptional_complement_2d(base, marker, 1.0).mask, base.mask
        )

    def test_certified_threshold_keeps_half(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            base = GridSet2D.full(4)
            marker = random_set2d(rng, 4, 0.2)
            threshold = certified_rectangle_threshold(base, marker, 0.1)
            kept = exceptional_complement_2d(base, marker, threshold)
            assert measure2(kept) >= 0.5 * measure2(base)


class TestRectCombinatorics:
    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
    def test_all_at_scale_shared_in_insertion_order(self, resolution):
        # random_rect_tree draws one number per rectangle in .rects order, so
        # the shared collection must iterate exactly as a fresh build does
        for vscale in range(resolution):
            cached = RectCollection.all_at_scale(resolution, vscale)
            assert RectCollection.all_at_scale(resolution, vscale) is cached
            assert list(cached.rects) == list(old_all_at_scale(resolution, vscale).rects)

    def test_collection_requires_uniform_vscale(self):
        with pytest.raises(ValueError):
            RectCollection(3, 1, frozenset([rect(1, 0, 2, 0)]))

    @pytest.mark.parametrize("seed", range(4))
    def test_size_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        resolution = 3
        full = RectCollection.all_at_scale(resolution, 1)
        members = [r for r in full.rects if rng.random() < 0.35]
        if not members:
            members = [next(iter(full.rects))]
        collection = RectCollection(resolution, 1, frozenset(members[:10]))
        f = random_grid2d(rng, resolution)
        h_prime = GridSet2D.full(resolution)
        assert rect_size(collection, f, h_prime) == pytest.approx(
            oracle_rect_size(collection, f, h_prime), abs=1e-12
        )

    def test_mass_examples(self):
        resolution = 3
        collection = RectCollection(resolution, 1, frozenset([rect(1, 0, 1, 0)]))
        empty = GridSet2D.empty(resolution)
        full = GridSet2D.full(resolution)
        assert rect_mass(collection, empty, full) == 0.0
        assert rect_mass(collection, full, full) == 1.0

    def test_tree_estimate_zero_and_random(self):
        rng = np.random.default_rng(11)
        resolution = 3
        top = rect(0, 0, 1, 0)
        members = frozenset(
            r for r in RectCollection.all_at_scale(resolution, 1).rects if top.contains(r)
        )
        tree = RectTree(top, members)
        zero = rect_tree_estimate(
            tree, Grid2D.zeros(resolution), Grid2D.zeros(resolution),
            GridSet2D.full(resolution), GridSet2D.full(resolution),
        )
        assert zero.lhs == 0.0
        f = random_grid2d(rng, resolution)
        g = random_grid2d(rng, resolution)
        report = rect_tree_estimate(
            tree, f, g, GridSet2D.full(resolution), GridSet2D.full(resolution)
        )
        assert math.isfinite(report.ratio)

    def test_full_decompose_partition_and_caps(self):
        rng = np.random.default_rng(12)
        resolution = 4
        collection = RectCollection.all_at_scale(resolution, 1)
        f = random_grid2d(rng, resolution)
        h_prime = GridSet2D.full(resolution)
        e2 = random_set2d(rng, resolution, 0.4)
        f2 = random_set2d(rng, resolution, 0.4)
        decomposition = rect_full_decompose(collection, f, h_prime, e2, f2)
        covered = set()
        for (n, m), trees in decomposition.buckets.items():
            union = set().union(*(t.members for t in trees)) if trees else set()
            assert not covered & union
            covered |= union
            if union:
                sub = RectCollection(resolution, 1, frozenset(union))
                size_cap, mass_cap = decomposition.caps[(n, m)]
                assert rect_size(sub, f, h_prime) <= size_cap * (1 + 1e-12)
                assert rect_mass(sub, e2, f2) <= mass_cap * (1 + 1e-12)
        assert covered | set(decomposition.remainder.rects) == set(collection.rects)

    def test_decomposition_preserves_convexity(self):
        rng = np.random.default_rng(13)
        resolution = 4
        collection = RectCollection.all_at_scale(resolution, 2)
        f = random_grid2d(rng, resolution)
        h_prime = GridSet2D.full(resolution)
        e2 = random_set2d(rng, resolution, 0.4)
        f2 = random_set2d(rng, resolution, 0.4)
        decomposition = rect_full_decompose(collection, f, h_prime, e2, f2)
        assert rect_is_convex(decomposition.remainder.rects)
        for trees in decomposition.buckets.values():
            for tree in trees:
                assert rect_is_convex(tree.members)


class TestPipeline:
    def test_mass_cap_by_construction(self):
        rng = np.random.default_rng(14)
        fams = [random_grid2d(rng, 4) for _ in range(4)]
        report = verify_biparam(fams, p=3.0, eps=0.1, seed=2, g=random_set2d(rng, 4, 0.25))
        assert all(c <= 1.0 + 1e-12 for c in report.extra["mass_cap_ratios"])
        assert report.extra["h_kept"] >= 0.5
        assert math.isfinite(report.ratio)

    def test_copies_scale_invariance(self):
        rng = np.random.default_rng(15)
        f = random_grid2d(rng, 4)
        g = random_set2d(rng, 4, 0.25)
        one = verify_biparam([f], p=3.0, seed=3, g=g)
        four = verify_biparam([f] * 4, p=3.0, seed=3, g=g)
        assert math.isfinite(one.ratio) and math.isfinite(four.ratio)

    def test_localized_projection_matches_closure_oracle(self, monkeypatch):
        import dyadlab.biparam as biparam

        rng = np.random.default_rng(17)
        L, n, seed, eps = 4, 16, 40, 0.45
        fams = [random_grid2d(rng, L) for _ in range(4)]
        h = GridSet2D.full(L)
        g = random_set2d(rng, L, 0.25)
        h_prime = exceptional_complement_2d(h, g, certified_rectangle_threshold(h, g, eps))
        assert 0 < measure2(h_prime) < 1
        captured = []
        real = biparam.power_iteration

        def recording(op, shape, **kwargs):
            captured.append((op, kwargs["seed"] - seed))
            return real(op, shape, **kwargs)

        monkeypatch.setattr(biparam, "power_iteration", recording)
        verify_biparam(fams, p=3.0, eps=eps, seed=seed, h=h, g=g, power_iters=5)
        assert [j for _, j in captured] == [0, 1, 2, 3]
        for local, j in captured:
            # the closure pair verify_biparam built before the localized projection
            def fwd(v, jj=j):
                masked = Grid2D(L, np.asarray(v).reshape(n, n) * h_prime.mask)
                return fixed_scale_operator(masked, jj).values * g.mask

            def adj(v, jj=j):
                masked = Grid2D(L, np.asarray(v).reshape(n, n) * g.mask)
                return fixed_scale_operator(masked, jj).values * h_prime.mask

            for _ in range(3):
                v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                assert np.array_equal(local.apply(v), fwd(v))
                assert np.array_equal(local.adjoint(v), adj(v))

    def test_requires_resolution_one(self):
        with pytest.raises(ValueError, match="L >= 1"):
            verify_biparam([Grid2D.zeros(0)], p=3.0)

    def test_requires_p_above_two(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            verify_biparam([random_grid2d(rng, 3)], p=2.0)
