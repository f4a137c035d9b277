import functools
import math

import numpy as np
import pytest

from dyadlab.biparam import (
    RectCollection,
    RectTree,
    _tree_sums,
    fixed_scale_operator,
    haar_coefficients,
    haar_synthesis,
    rect_coefficients,
    rect_full_decompose,
    rect_mass,
    rect_mass_decompose,
    rect_size,
    rect_size_decompose,
    rect_tree_estimate,
    tensor_packet,
    verify_biparam,
    vertical_band_project,
)
from dyadlab.grid import DyadicInterval, Grid2D, GridSet2D, all_intervals, inner_product, lp_norm, measure
from dyadlab.harness import random_grid2d, random_set2d
from dyadlab.walsh import walsh_analysis, walsh_synthesis
from dyadlab.plane import (
    DyadicRectangle,
    all_rectangles,
    certified_rectangle_threshold,
    exceptional_complement_2d,
    rectangle_averages,
    rectangle_level_set,
    strong_maximal,
)
from test_principle import (
    MapPair,
    assert_closure_runs_match,
    assert_krylov_oracles,
    assert_one_member_runs_match,
    capture_top_singular,
)


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


def old_vertical_band_project(values, resolution, band):
    """The Walsh analysis/synthesis band restriction that preceded the closed
    form: zero every vertical frequency outside the band."""
    spectrum = walsh_analysis(values, axis=1)
    eta = np.arange(1 << resolution)
    keep = (eta == 0) if band == 0 else (eta >= 1 << (band - 1)) & (eta < 1 << band)
    spectrum[:, ~keep] = 0.0
    return walsh_synthesis(spectrum, axis=1) * 2.0**-resolution


def exact_expectation_numerators(values, s):
    """n E_s f as integers, for an integer array f on an n x n grid: E_s
    averages along y (axis 1) over the dyadic intervals of length 2**-s,
    n >> s cells each, so n times an average is the block sum times 2**s."""
    n = values.shape[1]
    sums = values.reshape(n, 1 << s, n >> s).sum(axis=2)
    return np.repeat(sums, n >> s, axis=1) << s


def exact_fixed_scale_numerators(values, j):
    """n**2 (I - E_0) (x) (E_{j+1} - E_j) f as integers: the scale-j model
    operator as a tensor of conditional expectations, with the mean along
    x (axis 0) taken last."""
    n = values.shape[0]
    band = exact_expectation_numerators(values, j + 1) - exact_expectation_numerators(values, j)
    return n * band - band.sum(axis=0)


def exact_band_numerators(values, band):
    """n times vertical band `band` of an integer array: E_0 f for band 0,
    (E_b - E_{b-1}) f for band b >= 1."""
    if band == 0:
        return exact_expectation_numerators(values, 0)
    return exact_expectation_numerators(values, band) - exact_expectation_numerators(values, band - 1)


def small_integer_grid(rng, resolution):
    """A complex grid with integer parts in [-8, 8]: every sum the
    projections take is an exact integer, and every quotient an exact
    dyadic rational."""
    n = 1 << resolution
    re, im = rng.integers(-8, 9, size=(2, n, n))
    return re, im, Grid2D(resolution, re + 1j * im)


def old_all_at_scale(resolution, vscale):
    """The insertion loop RectCollection.all_at_scale ran on every call."""
    rects = set()
    for kx in range(resolution):
        for nx in range(1 << kx):
            for ny in range(1 << vscale):
                rects.add(rect(kx, nx, vscale, ny))
    return frozenset(rects)


def rect(kx, nx, ky, ny):
    return DyadicRectangle(DyadicInterval(kx, nx), DyadicInterval(ky, ny))


# The dict and frozenset rectangle code that preceded the per-scale masks,
# kept as the oracle: every function takes the members as a set of
# DyadicRectangle objects.


def rect_key(r):
    return (r.horizontal.scale, r.horizontal.offset, r.vertical.offset)


def rect_is_convex(rects) -> bool:
    rects = set(rects)
    for a in rects:
        for b in rects:
            if b.contains(a) and a != b:
                for s in range(b.horizontal.scale, a.horizontal.scale + 1):
                    mid = DyadicRectangle(a.horizontal.ancestor(s), a.vertical)
                    if mid not in rects:
                        return False
    return True


def oracle_restrict(rects, keep, resolution):
    return {r for r in rects if np.any(keep.mask[r.cell_slices(resolution)])}


def oracle_rect_coefficients(rects, vscale, f):
    out = {}
    for r in rects:
        coef = haar_coefficients(f, r.horizontal.scale, vscale)
        out[r] = complex(coef[r.horizontal.offset, r.vertical.offset])
    return out


def oracle_top_sums(coeffs):
    sums = {}
    for r, c in coeffs.items():
        w = abs(c) ** 2
        for s in range(r.horizontal.scale + 1):
            top = DyadicRectangle(r.horizontal.ancestor(s), r.vertical)
            sums[top] = sums.get(top, 0.0) + w
    return sums


def oracle_size(rects, vscale, f, h_prime):
    masked = Grid2D(f.resolution, f.values * h_prime.mask)
    coeffs = oracle_rect_coefficients(rects, vscale, masked)
    best = 0.0
    for top, total in oracle_top_sums(coeffs).items():
        best = max(best, total / top.area)
    return math.sqrt(best)


def row_sweep_sums(collection, coeffs):
    """Tree sums over |R| of coefficients in the occupancy layout, by a
    row-by-row fine-to-coarse sweep that adds to each row its left child's
    sum and then its right child's, the order the size sweep keeps."""
    sums = np.where(collection.occupied, np.abs(coeffs) ** 2, 0.0)
    for s in reversed(range(len(sums) // 2)):
        sums[s] = sums[s] + sums[2 * s + 1] + sums[2 * s + 2]
    for s in range(len(sums)):
        sums[s] *= 2.0 ** ((s + 1).bit_length() - 1 + collection.vscale)
    return sums


def oracle_mass(rects, f_set, g_set):
    target = f_set.mask & g_set.mask
    L = f_set.resolution
    best = 0.0
    for r in rects:
        count = int(np.count_nonzero(target[r.cell_slices(L)]))
        best = max(best, count * 4.0**-L / r.area)
    return best


def oracle_size_decompose(rects, coeffs, threshold):
    current = set(rects)
    forest = []
    while True:
        sums = oracle_top_sums({r: coeffs[r] for r in current})
        selection = None
        for top in sorted(sums, key=rect_key):
            if sums[top] > threshold**2 * top.area:
                selection = top
                break
        if selection is None:
            break
        removed = {r for r in current if selection.contains(r)}
        current -= removed
        forest.append((selection, frozenset(removed)))
    return current, forest


def oracle_mass_decompose(rects, f_set, g_set, threshold):
    target = f_set.mask & g_set.mask
    L = f_set.resolution
    current = set(rects)
    dens = {
        r: int(np.count_nonzero(target[r.cell_slices(L)])) * 4.0**-L / r.area for r in current
    }
    forest = []
    for top in sorted((r for r in current if dens[r] > threshold), key=rect_key):
        if top not in current:
            continue
        removed = {r for r in current if top.contains(r)}
        current -= removed
        forest.append((top, frozenset(removed)))
    return current, forest


def random_rect_collection(rng, resolution, vscale, density):
    """One draw per scale kx, shaped (2**kx, 2**vscale), stacked as the
    occupancy rows of that scale."""
    rows = [rng.random((1 << kx, 1 << vscale)) < density for kx in range(resolution)]
    return RectCollection(resolution, vscale, np.concatenate(rows))


def oracle_cases():
    """Random collections at L = 3..5 and every vertical scale, each with a
    signal and mass sets, and the collection restricted to a random set."""
    rng = np.random.default_rng(900)
    for resolution in (3, 4, 5):
        for vscale in range(resolution):
            for density in (0.3, 0.7, 1.0):
                collection = random_rect_collection(rng, resolution, vscale, density)
                f = random_grid2d(rng, resolution)
                h_prime = random_set2d(rng, resolution, 0.6)
                f_set = random_set2d(rng, resolution, 0.5)
                g_set = random_set2d(rng, resolution, 0.5)
                keep = random_set2d(rng, resolution, 0.02)
                yield collection, f, h_prime, f_set, g_set
                yield collection.restrict_to_meeting(keep), f, h_prime, f_set, g_set


def oracle_strong_maximal(f: Grid2D) -> np.ndarray:
    out = np.zeros((1 << f.resolution,) * 2)
    a = np.abs(f.values)
    for r in all_rectangles(f.resolution):
        sx, sy = r.cell_slices(f.resolution)
        out[sx, sy] = np.maximum(out[sx, sy], a[sx, sy].mean())
    return out


def loop_rectangle_level_set(marker: GridSet2D, threshold: float) -> GridSet2D:
    """rectangle_level_set as first written: the union, scale pair by scale
    pair, of the dyadic rectangles whose marker density exceeds the
    threshold."""
    L = marker.resolution
    dens = marker.mask.astype(float)
    hit = np.zeros_like(marker.mask)
    for kx in range(L + 1):
        for ky in range(L + 1):
            sel = rectangle_averages(dens, L, kx, ky) > threshold
            hit |= np.repeat(np.repeat(sel, 1 << (L - kx), axis=0), 1 << (L - ky), axis=1)
    return GridSet2D(L, hit)


def oracle_rect_size(collection, f, h_prime) -> float:
    """Exhaustive subset enumeration with the smallest in-strip hull."""
    masked = Grid2D(f.resolution, f.values * h_prime.mask)
    coeffs = oracle_rect_coefficients(collection.rects, collection.vscale, masked)
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
        gram = np.array([[inner_product(a, b) for b in packets] for a in packets])
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
                        direct = inner_product(f, tensor_packet(rect(kx, nx, ky, ny), resolution))
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


class TestClosedFormProjections:
    """The fixed-scale operator and the vertical bands as tensors of
    conditional expectations, against exact integer oracles and the Haar and
    Walsh expansions they replaced."""

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6, 7])
    def test_fixed_scale_operator_is_exact(self, resolution):
        # |numerator| <= 32 n**2 < 2**53 and n**2 is a power of two, so the
        # oracle's quotient is the exact rational, and the closed form must
        # equal it bit for bit
        n = 1 << resolution
        re, im, f = small_integer_grid(np.random.default_rng(90 + resolution), resolution)
        for j in range(resolution):
            out = fixed_scale_operator(f, j).values
            assert np.array_equal(out.real, exact_fixed_scale_numerators(re, j) / n**2)
            assert np.array_equal(out.imag, exact_fixed_scale_numerators(im, j) / n**2)

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6, 7])
    def test_vertical_bands_are_exact(self, resolution):
        n = 1 << resolution
        re, im, f = small_integer_grid(np.random.default_rng(100 + resolution), resolution)
        for band in range(resolution + 1):
            out = vertical_band_project(f, band).values
            assert np.array_equal(out.real, exact_band_numerators(re, band) / n)
            assert np.array_equal(out.imag, exact_band_numerators(im, band) / n)

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_within_rounding_of_the_expansions(self, resolution):
        # the closed form against the sum of L Haar analysis/synthesis pairs
        # and the Walsh band restriction, within 2 L eps max|f|; the largest
        # deviation seen over L = 1..8 is 0.36 L eps max|f|
        eps = np.finfo(float).eps
        rng = np.random.default_rng(110 + resolution)
        n = 1 << resolution
        for f in (
            random_grid2d(rng, resolution),
            Grid2D(resolution, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))),
        ):
            bound = 2 * resolution * eps * np.abs(f.values).max()
            for j in range(resolution):
                old = old_fixed_scale_operator(f.values, resolution, j)
                assert np.abs(fixed_scale_operator(f, j).values - old).max() <= bound
            for band in range(resolution + 1):
                old = old_vertical_band_project(f.values, resolution, band)
                assert np.abs(vertical_band_project(f, band).values - old).max() <= bound


class TestFixedScalePlan:
    """The strided Haar analysis and the broadcast synthesis against the
    moveaxis/repeat formulas."""

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

    def test_synthesis_rejects_transposed_coefficients(self):
        # at L=3, kx=1, ky=2 the coefficients are (2, 4); a (4, 2) array
        # would broadcast into an 8 x 8 result
        with pytest.raises(ValueError, match=r"\(2, 4\)"):
            haar_synthesis(np.ones((4, 2)), 3, 1, 2)
        assert haar_synthesis(np.ones((2, 4)), 3, 1, 2).shape == (8, 8)

    @pytest.mark.parametrize("resolution", [4, 5])
    def test_localized_norms_meet_the_oracles(self, monkeypatch, resolution):
        # each scale's norm is never below power iteration of its closure
        # pair at equal steps from its seed, within the dense SVD bounds at
        # L = 4, and equal to its one-member run bit for bit
        import dyadlab.biparam as biparam

        rng = np.random.default_rng(64 + resolution)
        L, n, seed, eps = resolution, 1 << resolution, 11, 0.45
        fams = [random_grid2d(rng, L) for _ in range(L)]
        h = GridSet2D.full(L)
        g = random_set2d(rng, L, 0.25)
        h_prime = exceptional_complement_2d(h, g, certified_rectangle_threshold(h, g, eps))
        assert 0 < measure(h_prime) < 1
        captured = capture_top_singular(monkeypatch, biparam)
        monkeypatch.setattr(biparam, "top_singular", functools.partial(biparam.top_singular, max_steps=60))
        report = verify_biparam(fams, p=3.0, eps=eps, seed=seed, g=g)
        assert captured["seeds"] == [seed + j for j in range(L)]
        assert captured["kwargs"] == {"max_steps": 60}
        for j, res in enumerate(captured["results"]):

            def fwd(v, j=j):
                return old_fixed_scale_operator(v * h_prime.mask, L, j) * g.mask

            def adj(v, j=j):
                return old_fixed_scale_operator(v * g.mask, L, j) * h_prime.mask

            assert_krylov_oracles(res, MapPair(fwd, adj), (n, n), seed + j, dense=L <= 4)
        assert_one_member_runs_match(captured)
        assert report.extra["localized_norms"] == [r.norm for r in captured["results"]]
        assert report.extra["localized_unconverged"] == 0


class TestExceptionalSet2D:
    def test_empty_marker(self):
        base = GridSet2D.full(3)
        marker = GridSet2D.empty(3)
        assert measure(exceptional_complement_2d(base, marker, 0.5)) == 1.0

    def test_pinned_small_instance(self):
        # marker on one full row at L=3; rectangle enumeration oracle
        resolution = 3
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, :] = True
        marker = GridSet2D(resolution, mask)
        threshold = 0.4
        level = rectangle_level_set(marker, threshold)
        expected = np.zeros((8, 8), dtype=bool)
        for r in all_rectangles(resolution):
            sx, sy = r.cell_slices(resolution)
            if mask[sx, sy].mean() > threshold:
                expected[sx, sy] = True
        assert np.array_equal(level.mask, expected)

    def test_level_set_equals_rectangle_loop(self):
        """{M* 1_marker > t} picks what the union of the rectangles above t
        picked, for densities from 0 to 1 and thresholds at 0, one cell's
        share, 1/2, 1, 1.5 and random ones: the strong maximal function
        takes their exact maximum."""
        rng = np.random.default_rng(14)
        for resolution in range(8):
            n = 1 << resolution
            for density in (0.0, 0.1, 0.5, 0.9, 1.0, rng.random()):
                marker = GridSet2D(resolution, rng.random((n, n)) < density)
                for threshold in (0.0, 4.0**-resolution, 0.5, 1.0, 1.5, *rng.random(2)):
                    level = rectangle_level_set(marker, threshold)
                    assert np.array_equal(level.mask, loop_rectangle_level_set(marker, threshold).mask)

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
            assert measure(kept) >= 0.5 * measure(base)


class TestRectCombinatorics:
    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
    def test_all_at_scale_shared_in_insertion_order(self, resolution):
        # random_rect_tree draws one number per rectangle in .rects order, so
        # the shared collection must iterate exactly as a fresh build does
        for vscale in range(resolution):
            cached = RectCollection.all_at_scale(resolution, vscale)
            assert RectCollection.all_at_scale(resolution, vscale) is cached
            assert list(cached.rects) == list(old_all_at_scale(resolution, vscale))

    def test_collection_requires_uniform_vscale(self):
        with pytest.raises(ValueError):
            RectCollection.from_rects(3, 1, frozenset([rect(1, 0, 2, 0)]))

    @pytest.mark.parametrize("vscale", [-1, 3, 4])
    def test_collection_rejects_vscale_out_of_range(self, vscale):
        occupied = np.zeros((7, 1 << max(vscale, 0)), dtype=bool)
        with pytest.raises(ValueError, match="out of range"):
            RectCollection(3, vscale, occupied)
        with pytest.raises(ValueError, match="out of range"):
            RectCollection.from_rects(3, vscale, [])

    @pytest.mark.parametrize("shape", [(3, 2), (15, 2), (7, 4), (7, 1), (2, 7), (7,), (1, 7, 2)])
    def test_collection_rejects_occupancy_shapes(self, shape):
        with pytest.raises(ValueError, match=r"shaped \(7, 2\)"):
            RectCollection(3, 1, np.ones(shape, dtype=bool))

    def test_occupancy_is_read_only_and_rects_derived(self):
        collection = RectCollection.from_rects(3, 1, [rect(0, 0, 1, 1), rect(2, 3, 1, 0)])
        assert len(collection) == 2
        assert collection.rects == {rect(0, 0, 1, 1), rect(2, 3, 1, 0)}
        assert collection.rects is collection.rects
        with pytest.raises(ValueError):
            collection.occupied[0, 0] = True

    @pytest.mark.parametrize("resolution", [1, 2, 3, 5])
    def test_from_rects_places_members_at_interval_slots(self, resolution):
        # the row of (kx, nx, ny) is the all_intervals slot of (kx, nx)
        slots = list(all_intervals(resolution))
        for vscale in range(resolution):
            for r in RectCollection.all_at_scale(resolution, vscale).rects:
                occupied = RectCollection.from_rects(resolution, vscale, [r]).occupied
                row = slots.index(DyadicInterval(r.horizontal.scale, r.horizontal.offset))
                assert np.argwhere(occupied).tolist() == [[row, r.vertical.offset]]

    def test_restrict_and_mass_match_oracle(self):
        for collection, f, h_prime, f_set, g_set in oracle_cases():
            rects = collection.rects
            assert collection.restrict_to_meeting(h_prime).rects == oracle_restrict(
                rects, h_prime, collection.resolution
            )
            assert rect_mass(collection, f_set, g_set) == oracle_mass(rects, f_set, g_set)

    def test_size_matches_oracle(self):
        for collection, f, h_prime, _, _ in oracle_cases():
            got = rect_size(collection, f, h_prime)
            assert got == pytest.approx(
                oracle_size(collection.rects, collection.vscale, f, h_prime), rel=1e-12, abs=1e-12
            )
            coeffs = rect_coefficients(collection, Grid2D(f.resolution, f.values * h_prime.mask))
            sums = _tree_sums(collection, collection.occupied, coeffs)
            assert np.array_equal(sums, row_sweep_sums(collection, coeffs))

    def test_coefficients_match_oracle(self):
        for collection, f, _, _, _ in oracle_cases():
            coeffs = rect_coefficients(collection, f)
            expected = oracle_rect_coefficients(collection.rects, collection.vscale, f)
            slot = (1 << np.arange(collection.resolution)) - 1
            got = {
                r: coeffs[slot[r.horizontal.scale] + r.horizontal.offset, r.vertical.offset]
                for r in collection.rects
            }
            assert got == expected
            assert np.count_nonzero(coeffs) <= len(collection)

    def test_decompositions_match_oracle(self):
        trees = 0
        for collection, f, h_prime, f_set, g_set in oracle_cases():
            rects, j = collection.rects, collection.vscale
            masked = Grid2D(f.resolution, f.values * h_prime.mask)
            coeffs = rect_coefficients(collection, masked)
            sigma = rect_size(collection, f, h_prime)
            for threshold in (sigma / 2, sigma / 1.1):
                remainder, forest = rect_size_decompose(collection, coeffs, threshold)
                rest, expected = oracle_size_decompose(
                    rects, oracle_rect_coefficients(rects, j, masked), threshold
                )
                assert remainder.rects == rest
                assert [(t.top, t.members.rects) for t in forest] == expected
                trees += len(forest)
            mu = rect_mass(collection, f_set, g_set)
            for threshold in (mu / 2, mu / 1.1):
                remainder, forest = rect_mass_decompose(collection, f_set, g_set, threshold)
                rest, expected = oracle_mass_decompose(rects, f_set, g_set, threshold)
                assert remainder.rects == rest
                assert [(t.top, t.members.rects) for t in forest] == expected
                trees += len(forest)
        assert trees > 500

    def test_tree_estimate_pairs_in_ascending_order(self):
        rng = np.random.default_rng(901)
        for collection, f, h_prime, f_set, g_set in oracle_cases():
            L, j = collection.resolution, collection.vscale
            kx = int(rng.integers(0, L))
            top = rect(kx, int(rng.integers(0, 1 << kx)), j, int(rng.integers(0, 1 << j)))
            members = frozenset(r for r in collection.rects if top.contains(r))
            if not members:
                continue
            g = random_grid2d(rng, L)
            tree = RectTree(top, RectCollection.from_rects(L, j, members))
            report = rect_tree_estimate(tree, f, g, h_prime, g_set)
            cf = oracle_rect_coefficients(members, j, Grid2D(L, f.values * h_prime.mask))
            cg = oracle_rect_coefficients(members, j, Grid2D(L, g.values * g_set.mask))
            ascending = sum(abs(cf[r]) * abs(cg[r]) for r in sorted(members, key=rect_key))
            assert report.lhs == ascending
            # the frozenset order that the pairing followed before
            unordered = sum(abs(cf[r]) * abs(cg[r]) for r in members)
            assert report.lhs == pytest.approx(unordered, rel=1e-14)
            assert report.extra["size"] == pytest.approx(
                oracle_size(members, j, f, h_prime), rel=1e-12, abs=1e-12
            )
            support = GridSet2D(L, np.abs(g.values) > 0)
            assert report.extra["mass"] == oracle_mass(members, support, g_set)

    def test_full_decompose_computes_coefficients_once(self, monkeypatch):
        import dyadlab.biparam as biparam

        calls = []
        real = biparam.rect_coefficients
        monkeypatch.setattr(biparam, "rect_coefficients", lambda *a: calls.append(a) or real(*a))
        rng = np.random.default_rng(902)
        collection = RectCollection.all_at_scale(4, 1)
        f = random_grid2d(rng, 4)
        sets = [random_set2d(rng, 4, 0.4) for _ in range(3)]
        decomposition = rect_full_decompose(collection, f, *sets)
        assert len(decomposition.buckets) > 1 and len(calls) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_size_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        resolution = 3
        full = RectCollection.all_at_scale(resolution, 1)
        members = [r for r in full.rects if rng.random() < 0.35]
        if not members:
            members = [next(iter(full.rects))]
        collection = RectCollection.from_rects(resolution, 1, frozenset(members[:10]))
        f = random_grid2d(rng, resolution)
        h_prime = GridSet2D.full(resolution)
        assert rect_size(collection, f, h_prime) == pytest.approx(
            oracle_rect_size(collection, f, h_prime), abs=1e-12
        )

    def test_mass_examples(self):
        resolution = 3
        collection = RectCollection.from_rects(resolution, 1, frozenset([rect(1, 0, 1, 0)]))
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
        tree = RectTree(top, RectCollection.from_rects(resolution, 1, members))
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
        for bucket in decomposition.buckets.values():
            trees = bucket.trees
            union = set().union(*(t.members.rects for t in trees))
            assert not covered & union
            covered |= union
            if union:
                sub = RectCollection.from_rects(resolution, 1, frozenset(union))
                assert rect_size(sub, f, h_prime) <= bucket.size_cap * (1 + 1e-12)
                assert rect_mass(sub, e2, f2) <= bucket.mass_cap * (1 + 1e-12)
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
        for bucket in decomposition.buckets.values():
            for tree in bucket.trees:
                assert rect_is_convex(tree.members.rects)


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
        one = verify_biparam([f], p=3.0, eps=0.1, seed=3, g=g)
        four = verify_biparam([f] * 4, p=3.0, eps=0.1, seed=3, g=g)
        assert math.isfinite(one.ratio) and math.isfinite(four.ratio)

    def test_localized_projection_matches_closure_oracle(self, monkeypatch):
        import dyadlab.biparam as biparam

        rng = np.random.default_rng(17)
        L, seed, eps = 4, 40, 0.45
        fams = [random_grid2d(rng, L) for _ in range(4)]
        h = GridSet2D.full(L)
        g = random_set2d(rng, L, 0.25)
        h_prime = exceptional_complement_2d(h, g, certified_rectangle_threshold(h, g, eps))
        assert 0 < measure(h_prime) < 1
        captured = capture_top_singular(monkeypatch, biparam)
        monkeypatch.setattr(biparam, "top_singular", functools.partial(biparam.top_singular, max_steps=5))
        verify_biparam(fams, p=3.0, eps=eps, seed=seed, g=g)
        assert captured["seeds"] == [seed + j for j in range(L)]
        # every scale runs in one stack, which shrinks as scales converge
        assert captured["stacks"][0] == [0, 1, 2, 3]
        assert np.array_equal(captured["out_mask"], g.mask)
        assert np.array_equal(captured["in_mask"], h_prime.mask)

        def closures(j):
            # the closure pair verify_biparam built before the engine masked
            return MapPair(
                lambda v: fixed_scale_operator(Grid2D(L, v * h_prime.mask), j).values * g.mask,
                lambda v: fixed_scale_operator(Grid2D(L, v * g.mask), j).values * h_prime.mask,
            )

        assert_closure_runs_match(captured, closures)

    def test_step_cap_reaches_ok(self, monkeypatch):
        # at a cap of 2 steps the projections stop unconverged; the count
        # reaches the report, and `verify biparam` fails its postcondition
        import dyadlab.biparam as biparam
        from dyadlab.harness import ExperimentConfig, run

        rng = np.random.default_rng(18)
        fams = [random_grid2d(rng, 4) for _ in range(4)]
        g = random_set2d(rng, 4, 0.25)
        full = verify_biparam(fams, p=3.0, eps=0.45, seed=2, g=g)
        assert full.extra["localized_unconverged"] == 0
        config = ExperimentConfig(theorem="biparam", resolution=4, trials=2, eps=0.45)
        assert run(config)[2] is True

        monkeypatch.setattr(biparam, "top_singular", functools.partial(biparam.top_singular, max_steps=2))
        capped = verify_biparam(fams, p=3.0, eps=0.45, seed=2, g=g)
        assert capped.extra["localized_unconverged"] > 0
        _, report, ok = run(config)
        assert ok is False and report["ok"] is False

    def test_requires_resolution_one(self):
        with pytest.raises(ValueError, match="L >= 1"):
            verify_biparam([Grid2D.zeros(0)], p=3.0, eps=0.1, g=GridSet2D.full(0))

    def test_requires_p_above_two(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            verify_biparam([random_grid2d(rng, 3)], p=2.0, eps=0.1, g=GridSet2D.full(3))
