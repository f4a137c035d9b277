import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import directional
from dyadlab.directional import (
    RECURSION_MARGIN,
    WEIGHT_TERMS,
    Direction,
    DirectionSet,
    DirectionalAverager,
    MajorantWeight,
    _projection_stacks,
    band_window,
    build_majorant_weight,
    halfplane_mask,
    halfplane_project,
    muckenhoupt_constants,
    running_max,
    verify_directional,
    verify_weighted_directional,
)
from dyadlab.grid import (
    Grid2D,
    GridSet2D,
    GridSignal,
    all_intervals,
    bundle_norm,
    lp_norm,
    measure,
    stack_slices,
)
from dyadlab.harness import random_grid2d
from dyadlab.io import json_text, read_directions
from dyadlab.maximal import dyadic_maximal
from dyadlab.principle import OperatorFamily, top_singular
from oracles import annular_band, box_kernels
from test_principle import (
    MapPair,
    assert_closure_runs_match,
    assert_krylov_oracles,
    assert_one_member_runs_match,
    capture_top_singular,
)
from test_tiles import same_bits


def random_plane(rng, resolution):
    n = 1 << resolution
    return Grid2D(resolution, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def localization_sets(resolution, dirs, seed):
    """The sets (G, H') verify_directional localizes between, drawn the same way."""
    from dyadlab.directional import directional_level_complement

    n = 1 << resolution
    averager = DirectionalAverager(resolution, dirs)
    norm_l2 = averager.estimate_norm(2.0, seed=seed)
    g_mask = np.random.default_rng(seed).random((n, n)) < 0.25
    if not np.any(g_mask):
        g_mask[0, 0] = True
    g = GridSet2D(resolution, g_mask)
    h = GridSet2D.full(resolution)
    ratio = measure(g) / measure(h)
    h_prime, _ = directional_level_complement(h, g, averager, math.sqrt(ratio) * norm_l2)
    return g, h_prime


def old_multiplier_closures(resolution, direction, k, g_mask, h_mask):
    """The closure pair verify_directional built before the engine masked."""
    m = band_window(resolution, k) * halfplane_mask(resolution, direction)

    def fwd(x):
        return np.fft.ifft2(np.fft.fft2(np.asarray(x) * h_mask) * m) * g_mask

    def adj(x):
        return np.fft.ifft2(np.fft.fft2(np.asarray(x) * g_mask) * np.conj(m)) * h_mask

    return fwd, adj


def frequency_closures(resolution, direction, k, g_mask):
    """The frequency-space member on the whole square, 1_G U* M with
    adjoint M U 1_G, written out on lone arrays."""
    m = band_window(resolution, k) * halfplane_mask(resolution, direction)

    def fwd(y):
        return np.fft.ifft2(m * np.asarray(y), norm="ortho") * g_mask

    def adj(z):
        return m * np.fft.fft2(np.asarray(z) * g_mask, norm="ortho")

    return fwd, adj


def old_kernel_ffts(resolution, directions, transform=np.fft.rfft2):
    """The per-kernel normalized spectra: real half spectra, or with
    `np.fft.fft2` the full complex spectra the averager kept before."""
    return [
        transform(k.astype(float)) / int(np.count_nonzero(k))
        for k in box_kernels(resolution, directions)
    ]


def old_all_averages(kernel_ffts, values, full=False):
    """The averages kernel by kernel: rfft2/irfft2 on half spectra, or with
    `full` fft2/ifft2 on full spectra."""
    values = np.abs(np.asarray(values))
    out = np.empty((len(kernel_ffts),) + values.shape)
    if full:
        spectrum = np.fft.fft2(values)
        for i, kf in enumerate(kernel_ffts):
            out[i] = np.fft.ifft2(spectrum * np.conj(kf)).real
    else:
        spectrum = np.fft.rfft2(values)
        for i, kf in enumerate(kernel_ffts):
            out[i] = np.fft.irfft2(spectrum * np.conj(kf), s=values.shape)
    np.clip(out, 0.0, None, out)
    return out


def average_stack(averager, values):
    """The (K, n, n) stack of clipped box averages, one slab per kernel,
    from the averager's kernel stacks: each stack is clipped in a copy,
    since the next one rewrites its buffer."""
    out = np.empty((len(averager.kernel_ffts),) + np.shape(values))
    for s, work in averager._average_stacks(values):
        out[s] = np.clip(work, 0.0, None)
    return out


def old_estimate_norm(kernel_ffts, resolution, p, iters, seed, full=False):
    """The kernel-by-kernel loop of estimate_norm: on half spectra, the
    winners' parts summed in kernel order before one inverse transform, or
    with `full` on full spectra, one inverse per winning kernel."""
    n = 1 << resolution
    rng = np.random.default_rng(seed)
    v = np.abs(rng.standard_normal((n, n))) + 0.1
    best = 0.0
    for _ in range(iters):
        vn = lp_norm(v, p, resolution)
        if vn == 0:
            break
        v = v / vn
        slabs = old_all_averages(kernel_ffts, v, full)
        u = slabs.max(axis=0)
        best = max(best, lp_norm(u, p, resolution))
        choice = slabs.argmax(axis=0)
        z = u ** (p - 1.0)
        back = np.zeros((n, n)) if full else np.zeros(kernel_ffts[0].shape, np.complex128)
        for i, kf in enumerate(kernel_ffts):
            sel = choice == i
            if not np.any(sel):
                continue
            if full:
                back += np.fft.ifft2(np.fft.fft2(z * sel) * kf).real
            else:
                back += np.fft.rfft2(z * sel) * kf
        if not full:
            back = np.fft.irfft2(back, s=(n, n))
        back = np.clip(back, 0.0, None)
        v = back ** (1.0 / (p - 1.0))
        if not np.any(v > 0):
            break
    return max(best, 1.0)


def exact_box_sums(kernels, values):
    """Sums of integer-valued `values` over every kernel's box at every
    cell, exact: each partial sum is an integer far below 2**53, so the
    float products summed in any order are exact."""
    n = values.shape[0]
    flat = np.stack(kernels).reshape(len(kernels), -1).astype(float)
    d0, d1 = np.divmod(np.arange(n * n), n)
    out = np.empty((len(kernels), n * n))
    for start in range(0, n * n, 512):
        x0, x1 = np.divmod(np.arange(start, min(start + 512, n * n)), n)
        shifted = values[(d0[:, None] + x0) % n, (d1[:, None] + x1) % n]
        out[:, start : start + len(x0)] = flat @ shifted
    return out.reshape(len(kernels), n, n)


def rounding_bound(resolution, scale):
    """The stated roundoff bound of the half-spectrum averages: a few ulps
    per level of the length-2**L transforms, with room, at `scale`."""
    return 64 * resolution * np.finfo(float).eps * scale


class TestStackedAverager:
    """The (K, n, n//2+1) half-spectrum stack and its chunked transforms
    against the kernel-by-kernel loops."""

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
    def test_matches_kernel_loop(self, resolution):
        dirs = DirectionSet.uniform(8)
        averager = DirectionalAverager(resolution, dirs)
        old = old_kernel_ffts(resolution, dirs)
        assert np.array_equal(averager.kernel_ffts, np.stack(old))
        rng = np.random.default_rng(30 + resolution)
        n = 1 << resolution
        values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        slabs = average_stack(averager, values)
        assert np.array_equal(slabs, old_all_averages(old, values))
        top, winners = averager.all_averages(values)
        assert np.array_equal(top, slabs.max(axis=0))
        assert np.array_equal(winners, slabs.argmax(axis=0))
        for p in (2.0, 1.5):
            assert averager.estimate_norm(p, seed=resolution) == old_estimate_norm(
                old, resolution, p, 12, resolution
            )

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("source", ["uniform-8", "directions.csv"])
    def test_kernels_match_the_box_loop(self, resolution, source):
        # the broadcast construction of the boxes against the box-by-box
        # loop, byte for byte: the counts, and the spectra of the kernels
        # the loop keeps, in its order
        if source == "uniform-8":
            dirs = DirectionSet.uniform(8)
        else:
            dirs = read_directions(Path(__file__).parent / "formats" / source)
        averager = DirectionalAverager(resolution, dirs)
        assert averager.kernel_counts == [int(np.count_nonzero(k)) for k in box_kernels(resolution, dirs)]
        assert averager.kernel_ffts.tobytes() == np.stack(old_kernel_ffts(resolution, dirs)).tobytes()

    @pytest.mark.parametrize("resolution", [1, 3, 5, 6])
    def test_full_spectrum_loop_within_rounding(self, resolution):
        # the complex fft2/ifft2 loop the averager ran before its half
        # spectra: the same averages and norm estimates up to rounding
        dirs = DirectionSet.uniform(8)
        averager = DirectionalAverager(resolution, dirs)
        full = old_kernel_ffts(resolution, dirs, np.fft.fft2)
        rng = np.random.default_rng(50 + resolution)
        n = 1 << resolution
        values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gap = np.abs(average_stack(averager, values) - old_all_averages(full, values, full=True))
        assert gap.max() <= rounding_bound(resolution, np.abs(values).max())
        for p in (2.0, 1.5):
            half = averager.estimate_norm(p, seed=resolution)
            assert half == pytest.approx(
                old_estimate_norm(full, resolution, p, 12, resolution, full=True),
                rel=rounding_bound(resolution, 1.0),
                abs=0,
            )

    @pytest.mark.parametrize("resolution", [2, 4, 5, 6])
    def test_integer_inputs_meet_exact_averages(self, resolution):
        # integer values make every box sum an exact integer, so sum / count
        # is the exact average up to its own last-bit rounding
        dirs = DirectionSet.uniform(8)
        averager = DirectionalAverager(resolution, dirs)
        n = 1 << resolution
        values = np.random.default_rng(resolution).integers(0, 9, size=(n, n)).astype(float)
        counts = np.array(averager.kernel_counts, dtype=float)[:, None, None]
        exact = exact_box_sums(box_kernels(resolution, dirs), values) / counts
        bound = rounding_bound(resolution, values.max())
        assert np.abs(average_stack(averager, values) - exact).max() <= bound
        # three orders of magnitude below build_majorant_weight's recursion
        # margin
        assert 1000 * bound <= RECURSION_MARGIN

    def test_back_projection_is_the_adjoint(self):
        # some kernels are not point-symmetric on the torus (the wrapped
        # row and column): 12 of 129 at L = 5, 12 of 181 at L = 6
        for resolution, count in ((5, 12), (6, 12)):
            kernels = box_kernels(resolution, DirectionSet.uniform(8))
            asymmetric = [
                i
                for i, k in enumerate(kernels)
                if not np.array_equal(k, np.roll(k[::-1, ::-1], 1, axis=(0, 1)))
            ]
            assert len(asymmetric) == count
        # <avg_k f, z> = <f, back_k z> on one at L = 6: the averages
        # correlate with the kernel, and the back-projection of
        # estimate_norm, its adjoint, convolves with it
        averager = DirectionalAverager(6, DirectionSet.uniform(8))
        k = asymmetric[0]
        rng = np.random.default_rng(9)
        f = rng.random((64, 64)) + 0.5
        z = rng.random((64, 64)) + 0.5
        avg_f = average_stack(averager, f)[k]
        back_z = np.fft.irfft2(np.fft.rfft2(z) * averager.kernel_ffts[k], s=(64, 64))
        bound = rounding_bound(6, f.sum() * z.max())
        assert abs(np.vdot(avg_f, z) - np.vdot(f, back_z)) <= bound
        # treating the kernel as symmetric, the average as its own adjoint, misses
        assert abs(np.vdot(avg_f, z) - np.vdot(f, average_stack(averager, z)[k])) > 1000 * bound

    def test_kernel_stacks_cover_uneven_counts(self):
        # 129 kernels in stacks of 16 at L = 5, 181 in stacks of 4 at L = 6
        for resolution, cap in ((5, 16), (6, 4)):
            n = 1 << resolution
            count = len(DirectionalAverager(resolution, DirectionSet.uniform(8)).kernel_ffts)
            assert count % cap != 0
            stacks = stack_slices(count, n * n)
            assert stacks[0].start == 0 and stacks[-1].stop == count
            assert all(a.stop == b.start for a, b in zip(stacks, stacks[1:]))
            assert max(s.stop - s.start for s in stacks) == cap
        # from L = 7 up a stack holds one plane
        assert stack_slices(3, 1 << 14) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert stack_slices(2, 1 << 24) == [slice(0, 1), slice(1, 2)]


class TestBufferedTransforms:
    """The work-buffer transforms against numpy's allocating ones, bit for
    bit. Every buffer starts as NaN, so a transform that drops `out` fails."""

    @staticmethod
    def assert_same_array(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("stack", [1, 5, 16])
    @pytest.mark.parametrize("real", [False, True])
    def test_fft2_pair_matches_allocating_transforms(self, resolution, stack, real):
        from dyadlab.directional import _ifft2_into

        rng = np.random.default_rng(100 * resolution + stack)
        n = 1 << resolution
        x = rng.standard_normal((stack, n, n))
        if not real:
            x = x + 1j * rng.standard_normal((stack, n, n))
        buf = np.full((stack, n, n), complex(math.nan, math.nan))
        spectrum = np.fft.fft2(x, out=buf)
        assert spectrum is buf
        self.assert_same_array(buf, np.fft.fft2(x))
        inverse = _ifft2_into(buf)
        assert inverse is buf
        self.assert_same_array(buf, np.fft.ifft2(np.fft.fft2(x)))
        # a spectrum the transform did not make: the inverse alone
        noise = rng.standard_normal((stack, n, n)) + 1j * rng.standard_normal((stack, n, n))
        buf[...] = noise
        self.assert_same_array(_ifft2_into(buf), np.fft.ifft2(noise))

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("stack", [1, 5, 16])
    def test_rfft2_pair_matches_allocating_transforms(self, resolution, stack):
        # the averager's half-spectrum pair: rfft2 keeps `out`, and so does
        # irfftn over the last two axes, where irfft2 drops it
        rng = np.random.default_rng(200 * resolution + stack)
        n = 1 << resolution
        x = rng.standard_normal((stack, n, n))
        buf = np.full((stack, n, n // 2 + 1), complex(math.nan, math.nan))
        assert np.fft.rfft2(x, out=buf) is buf
        self.assert_same_array(buf, np.fft.rfft2(x))
        real = np.full((stack, n, n), math.nan)
        assert np.fft.irfftn(buf, s=(n, n), axes=(-2, -1), out=real) is real
        self.assert_same_array(real, np.fft.irfft2(np.fft.rfft2(x), s=(n, n)))

    def test_buffer_prefix_of_a_larger_stack(self):
        # the averager writes a shorter last stack into a prefix of its buffers
        from dyadlab.directional import _ifft2_into

        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
        buf = np.full((16, 8, 8), complex(math.nan, math.nan))
        part = np.fft.fft2(x, out=buf[:3])
        self.assert_same_array(_ifft2_into(part), np.fft.ifft2(np.fft.fft2(x)))
        assert np.isnan(buf[3:]).all()
        half = np.full((16, 8, 5), complex(math.nan, math.nan))
        part = np.fft.rfft2(x.real, out=half[:3])
        real = np.full((16, 8, 8), math.nan)
        inverse = np.fft.irfftn(part, s=(8, 8), axes=(-2, -1), out=real[:3])
        self.assert_same_array(inverse, np.fft.irfft2(np.fft.rfft2(x.real), s=(8, 8)))
        assert np.isnan(half[3:]).all() and np.isnan(real[3:]).all()


class TestRunningMax:
    """The one-pass maximum and winner scan against `max(axis=0)` and
    `argmax(axis=0)` of the stacked slabs."""

    @staticmethod
    def assert_same_max(slabs):
        top = running_max(iter(slabs))[0]
        want = slabs.max(axis=0)
        assert top.dtype == want.dtype and top.strides == want.strides
        assert top.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 7, 181])
    def test_ties_keep_the_first_slab(self, count):
        rng = np.random.default_rng(count)
        slabs = rng.integers(0, 3, size=(count, 16, 16)).astype(float)
        top, got = running_max(slabs)
        assert got.dtype == slabs.argmax(axis=0).dtype
        assert np.array_equal(got, slabs.argmax(axis=0))
        self.assert_same_max(slabs)

    def test_signed_zero_ties(self):
        rng = np.random.default_rng(1)
        slabs = np.where(rng.random((9, 8, 8)) < 0.5, -0.0, 0.0)
        assert np.signbit(slabs).any() and not np.signbit(slabs).all()
        winners = running_max(slabs)[1]
        assert np.array_equal(winners, np.zeros((8, 8), dtype=np.intp))
        assert np.array_equal(winners, slabs.argmax(axis=0))
        self.assert_same_max(slabs)
        # a zero of either sign after a tie of the other sign does not win
        slabs[4, 2, 3] = 1.0
        slabs[6, 2, 3] = 1.0
        winners = running_max(slabs)[1]
        assert np.array_equal(winners, slabs.argmax(axis=0))
        assert winners[2, 3] == 4
        self.assert_same_max(slabs)

    def test_averages_of_the_estimator(self):
        averager = DirectionalAverager(5, DirectionSet.uniform(8))
        rng = np.random.default_rng(2)
        values = np.abs(rng.standard_normal((32, 32)))
        slabs = average_stack(averager, values)
        assert np.array_equal(running_max(slabs)[1], slabs.argmax(axis=0))
        self.assert_same_max(slabs)
        top, winners = averager.all_averages(values)
        assert top.tobytes() == slabs.max(axis=0).tobytes()
        assert np.array_equal(winners, slabs.argmax(axis=0))

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
    def test_apply_is_the_stack_maximum(self, resolution):
        # bytes of the maximum over every kernel's averages and of the
        # running-max fold of the clipped slabs, on inputs with zero regions
        # (half the grid, a sparse input, an indicator with exact zeros) and
        # the zero input: their averages reach zero and below, of either
        # sign, so a clip that kept -0.0 or a maximum that picked the other
        # zero would show in the bytes, which `np.array_equal` does not see
        averager = DirectionalAverager(resolution, DirectionSet.uniform(8))
        rng = np.random.default_rng(40 + resolution)
        n = 1 << resolution
        half = np.zeros((n, n))
        half[: n // 2] = rng.random((n // 2, n))
        for values in (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            half,
            np.where(rng.random((n, n)) < 0.1, rng.standard_normal((n, n)), 0.0),
            (rng.random((n, n)) < 0.25).astype(float),
            np.zeros((n, n)),
        ):
            got = averager.apply(values)
            assert not np.signbit(got).any()
            for want in (average_stack(averager, values).max(axis=0), averager.all_averages(values)[0]):
                assert got.dtype == want.dtype and got.strides == want.strides
                assert got.tobytes() == want.tobytes()
        raw = np.concatenate([work.copy() for _, work in averager._average_stacks(half)])
        assert (raw <= 0.0).any()

    def test_apply_on_signed_zeros(self, monkeypatch):
        # raw averages of either sign at and around zero over three kernel
        # stacks, cell (0, 0) -0.0 in every one: the single clip after the
        # maximum must give the bytes of the clipped slabs' maximum
        averager = DirectionalAverager(2, DirectionSet.uniform(4))
        count = len(averager.kernel_ffts)
        rng = np.random.default_rng(3)
        raw = rng.choice(np.array([-0.0, 0.0, -1e-17, 1e-17, 0.5]), size=(count, 4, 4))
        raw[:, 0, 0] = -0.0

        def stacks(values):
            for s in (slice(0, 2), slice(2, count - 1), slice(count - 1, count)):
                yield s, raw[s].copy()

        monkeypatch.setattr(averager, "_average_stacks", stacks)
        values = np.zeros((4, 4))
        got = averager.apply(values).tobytes()
        assert got == averager.all_averages(values)[0].tobytes()
        assert got == average_stack(averager, values).max(axis=0).tobytes()

class TestHalfplane:
    def test_direction_validation(self):
        with pytest.raises(ValueError):
            Direction(1.0, 1.0)
        for bad in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (1.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                Direction(*bad)
        with pytest.raises(ValueError):
            DirectionSet(())
        with pytest.raises(ValueError):
            DirectionSet((Direction(1.0, 0.0), Direction(1.0, 0.0)))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 2 * math.pi), st.integers(0, 2**31 - 1))
    def test_idempotent_partition_contraction(self, theta, seed):
        rng = np.random.default_rng(seed)
        f = random_plane(rng, 3)
        v = Direction.from_angle(theta)
        once = halfplane_project(f, v)
        twice = halfplane_project(once, v)
        other = halfplane_project(f, v.negated)
        assert np.allclose(once.values, twice.values, atol=1e-10)
        assert np.allclose(once.values + other.values, f.values, atol=1e-10)
        assert lp_norm(once.values, 2.0, 3) <= lp_norm(f.values, 2.0, 3) + 1e-12

    def test_mask_partition_exact(self):
        for theta in (0.0, 0.3, math.pi / 4, math.pi / 2, 2.0):
            v = Direction.from_angle(theta)
            a = halfplane_mask(4, v)
            b = halfplane_mask(4, v.negated)
            assert np.array_equal(a ^ b, np.ones_like(a))

    @pytest.mark.parametrize("resolution", [4, 5, 6])
    def test_projection_stacks_are_c_ordered_member_projections(self, resolution):
        """The projected stack is C-ordered and each slab is byte-equal to
        its member's own projection, for the real families the Córdoba
        runners draw and for complex ones, with more members than
        directions. Full reductions over the stack add in memory order.
        The drawn families are F-ordered, and so is each slab of their
        stack; numpy's ifft2 of that stack's masked spectra returns C-ordered
        slabs at L=4 and 5 but F-ordered ones at L=6, and with the same
        values in that order cordoba-weighted's max_ratio at L=6 moved in
        its last digit."""
        rng = np.random.default_rng(490 + resolution)
        dirs = DirectionSet.uniform(8)
        averager = DirectionalAverager(resolution, dirs)
        real = [random_grid2d(rng, resolution) for _ in range(10)]
        for fams in (real, [random_plane(rng, resolution) for _ in range(10)]):
            L, stack_in, stack_out = directional._projection_stacks(fams, averager)
            assert L == resolution
            assert stack_out.flags.c_contiguous
            members = dirs.members
            for j, (f, row_in, row_out) in enumerate(zip(fams, stack_in, stack_out, strict=True)):
                assert same_bits(row_in, f.values)
                assert same_bits(row_out, halfplane_project(f, members[j % len(members)]).values)

    def test_pure_wave_inside_kept(self):
        resolution, n = 3, 8
        v = Direction(1.0, 0.0)
        wave = np.exp(2j * np.pi * 2 * np.arange(n) / n)[:, None] * np.ones((1, n))
        f = Grid2D(resolution, wave)
        kept = halfplane_project(f, v)
        assert np.allclose(kept.values, f.values, atol=1e-10)
        killed = halfplane_project(f, v.negated)
        assert np.allclose(killed.values, 0.0, atol=1e-10)


class TestAnnularBands:
    def test_partition(self):
        rng = np.random.default_rng(1)
        f = random_plane(rng, 4)
        total = sum(annular_band(f, k).values for k in range(5))
        assert np.allclose(total, f.values, atol=1e-10)

    def test_window_sums_to_one(self):
        resolution = 5
        total = sum(band_window(resolution, k) for k in range(resolution + 1))
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_single_wave_fixed(self):
        resolution, n = 4, 16
        wave = np.exp(2j * np.pi * 4 * np.arange(n) / n)[:, None] * np.ones((1, n))
        f = Grid2D(resolution, wave)
        fixed = annular_band(f, 2)
        assert np.allclose(fixed.values, f.values, atol=1e-10)
        for k in (0, 1, 4):
            assert np.allclose(annular_band(f, k).values, 0.0, atol=1e-10)

    def test_square_function_comparable(self):
        rng = np.random.default_rng(2)
        resolution = 4
        for q in (2.0, 3.0):
            ratios = []
            for _ in range(5):
                f = random_plane(rng, resolution)
                pieces = np.stack(
                    [annular_band(f, k).values for k in range(resolution + 1)]
                )
                sq = bundle_norm(pieces, q, resolution)
                ratios.append(sq / lp_norm(f.values, q, f.resolution))
            assert 0.2 <= min(ratios) and max(ratios) <= 5.0


class TestDirectionalMaximal:
    def test_constant_is_one(self):
        out = DirectionalAverager(4, DirectionSet.uniform(4)).apply(Grid2D.constant(4, 1.0).values)
        assert np.allclose(out, 1.0, atol=1e-10)

    def test_axis_matches_restricted_family_oracle(self):
        # for the x axis the family is centered axis-parallel boxes; compute
        # those averages directly by rolling windows
        rng = np.random.default_rng(3)
        resolution, n = 3, 8
        f = Grid2D(resolution, np.abs(rng.standard_normal((n, n))))
        dirs = DirectionSet((Direction(1.0, 0.0),))
        got = DirectionalAverager(resolution, dirs).apply(f.values)
        best = np.zeros((n, n))
        a = np.abs(f.values)
        # direct oracle over explicit rolled kernels
        idx = np.arange(n)
        delta = (((idx + n // 2) % n) - n // 2) / n
        for ia in range(resolution + 1):
            for ib in range(resolution + 1):
                box_a, box_b = 2.0**-ia, 2.0**-ib
                kx = np.abs(delta) <= box_a / 2 + 1e-12
                ky = np.abs(delta) <= box_b / 2 + 1e-12
                kernel = np.outer(kx, ky).astype(float)
                count = kernel.sum()
                avg = np.zeros((n, n))
                for dx in range(n):
                    for dy in range(n):
                        if kernel[dx, dy]:
                            avg += np.roll(np.roll(a, -((dx + n // 2) % n - n // 2), axis=0),
                                           -((dy + n // 2) % n - n // 2), axis=1)
                best = np.maximum(best, avg / count)
        assert np.allclose(got, best, atol=1e-9)

    def test_monotone_in_direction_set(self):
        rng = np.random.default_rng(4)
        f = Grid2D(4, np.abs(rng.standard_normal((16, 16))))
        small = DirectionSet.uniform(2)
        large = DirectionSet.uniform(4)
        assert np.all(
            DirectionalAverager(4, large).apply(f.values)
            >= DirectionalAverager(4, small).apply(f.values) - 1e-10
        )

    def test_norm_estimate_at_least_one(self):
        averager = DirectionalAverager(4, DirectionSet.uniform(4))
        assert averager.estimate_norm(2.0, seed=0) >= 1.0

    @pytest.mark.parametrize("p", [1.0, 0.5, math.inf, -2.0, math.nan])
    def test_norm_estimate_rejects_exponent(self, p):
        averager = DirectionalAverager(3, DirectionSet.uniform(2))
        with pytest.raises(ValueError, match="p must lie in"):
            averager.estimate_norm(p)


def fixed_series_weight(g, averager, p, terms, norm):
    """The majorant weight summed over a fixed `terms + 1` iterates, with N
    over every step ratio up to h_{terms+1}: the series before it stopped at
    its certified tail, kept as the oracle."""
    L = g.resolution
    vals = g.values.real
    iterates = [vals]
    for _ in range(terms + 1):
        iterates.append(averager.apply(iterates[-1]))
    norms = [lp_norm(h, p, L) for h in iterates]
    step_ratios = [norms[k + 1] / norms[k] for k in range(terms + 1) if norms[k] > 0]
    n_used = max([norm, 1.0] + step_ratios)
    w = np.zeros_like(vals)
    for k in range(terms + 1):
        w += (2.0 * n_used) ** -k * iterates[k]
    mw = averager.apply(w)
    excess = float(np.max(mw - 2.0 * n_used * w))
    tail = (2.0 * n_used) ** -terms * float(np.max(iterates[terms + 1])) + RECURSION_MARGIN
    return MajorantWeight(
        values=w,
        terms=terms,
        p=p,
        norm_used=n_used,
        tail_bound=tail,
        excess=excess,
        input_norm=lp_norm(vals, p, L),
        weight_norm=lp_norm(w, p, L),
    )


def weight_seed(rng, resolution, p):
    """A nonnegative seed normalized in L^p, as the dual extremal is."""
    n = 1 << resolution
    vals = np.abs(rng.standard_normal((n, n))) ** 2
    return Grid2D(resolution, vals / lp_norm(vals, p, resolution))


# (resolution, p, seed) of the stopped-series cases
SERIES_CASES = [(3, 2.0, 0), (4, 2.0, 1), (4, 1.5, 2), (5, 2.0, 3), (5, 3.0, 4)]


class TestStoppedSeries:
    @pytest.mark.parametrize("resolution, p, seed", SERIES_CASES)
    def test_matches_fixed_series(self, resolution, p, seed):
        averager = DirectionalAverager(resolution, DirectionSet.uniform(8))
        norm = averager.estimate_norm(p, seed=seed)
        g = weight_seed(np.random.default_rng(seed), resolution, p)
        stopped = build_majorant_weight(g, averager, p, WEIGHT_TERMS, norm)
        full = fixed_series_weight(g, averager, p, WEIGHT_TERMS, norm)
        assert stopped.terms < WEIGHT_TERMS
        assert stopped.norm_used == full.norm_used
        # the terms past T sum to at most (2N)**-T max h_{T+1} / (2N - 1),
        # since the averages never exceed their input's maximum
        assert np.all(np.abs(stopped.values - full.values) <= stopped.tail_bound)
        assert np.all(g.values.real <= stopped.values)
        assert stopped.series["terms"] == stopped.terms
        assert all(cert["holds"] for cert in stopped.checks())

    @pytest.mark.parametrize("resolution, p, seed", SERIES_CASES)
    @pytest.mark.parametrize("given_norm", [False, True])
    def test_stops_at_first_certified_tail(self, resolution, p, seed, given_norm):
        # with norm 1, N is set by the step ratios alone
        averager = DirectionalAverager(resolution, DirectionSet.uniform(8))
        norm = averager.estimate_norm(p, seed=seed) if given_norm else 1.0
        g = weight_seed(np.random.default_rng(seed), resolution, p)
        weight = build_majorant_weight(g, averager, p, WEIGHT_TERMS, norm)
        iterates = [g.values.real]
        for _ in range(WEIGHT_TERMS + 1):
            iterates.append(averager.apply(iterates[-1]))
        norms = [lp_norm(h, p, resolution) for h in iterates]
        tails = []
        for k in range(WEIGHT_TERMS + 1):
            n_k = max([norm, 1.0] + [norms[j + 1] / norms[j] for j in range(k + 1)])
            tails.append((2.0 * n_k) ** -k * float(np.max(iterates[k + 1])))
        T = weight.terms
        assert 0 < T < WEIGHT_TERMS
        assert tails[T] <= RECURSION_MARGIN < tails[T - 1]
        assert weight.tail_bound == tails[T] + RECURSION_MARGIN

    @pytest.mark.parametrize("resolution, p, seed", SERIES_CASES)
    @pytest.mark.parametrize("cap", [0, 1, 5, 12])
    def test_cap_below_stop_is_fixed_series(self, resolution, p, seed, cap):
        averager = DirectionalAverager(resolution, DirectionSet.uniform(8))
        norm = averager.estimate_norm(p, seed=seed)
        g = weight_seed(np.random.default_rng(seed), resolution, p)
        capped = build_majorant_weight(g, averager, p, cap, norm)
        full = fixed_series_weight(g, averager, p, cap, norm)
        assert capped.terms == cap
        assert capped.values.tobytes() == full.values.tobytes()
        assert capped.series == full.series

    @pytest.mark.parametrize("resolution", [3, 4])
    def test_verify_with_fixed_series(self, resolution, monkeypatch):
        rng = np.random.default_rng(40 + resolution)
        fams = [random_plane(rng, resolution) for _ in range(4)]
        averager = DirectionalAverager(resolution, DirectionSet.uniform(8))
        norm = averager.estimate_norm(2.0, seed=resolution)
        stopped, _ = verify_weighted_directional(fams, averager, 2.0, norm)
        monkeypatch.setattr(directional, "build_majorant_weight", fixed_series_weight)
        full, _ = verify_weighted_directional(fams, averager, 2.0, norm)
        assert full["weight"]["terms"] == WEIGHT_TERMS
        assert stopped["weight"]["terms"] < WEIGHT_TERMS
        for key in ("ratio", "lhs", "rhs"):
            assert stopped[key] == full[key]
        assert stopped["norm_MSigma"] == full["norm_MSigma"]


class TestWeights:
    def test_constant_seed(self):
        averager = DirectionalAverager(4, DirectionSet.uniform(4))
        norm = averager.estimate_norm(2.0)
        weight = build_majorant_weight(Grid2D.constant(4, 1.0), averager, 2.0, 10, norm)
        assert np.all(weight.values <= 2.0 + 1e-12)
        assert np.allclose(weight.values, weight.values[0, 0])

    def test_certificates(self):
        rng = np.random.default_rng(5)
        averager = DirectionalAverager(4, DirectionSet.uniform(4))
        g = Grid2D(4, np.abs(rng.standard_normal((16, 16))))
        weight = build_majorant_weight(g, averager, 2.0, 25, averager.estimate_norm(2.0))
        assert np.all(g.values.real <= weight.values + 1e-15)
        assert all(cert["holds"] for cert in weight.checks())
        assert weight.weight_norm <= 2.0 * weight.input_norm * (1 + 1e-12)

    def test_tail_shrinks_with_terms(self):
        rng = np.random.default_rng(6)
        averager = DirectionalAverager(3, DirectionSet.uniform(2))
        g = Grid2D(3, np.abs(rng.standard_normal((8, 8))))
        norm = averager.estimate_norm(2.0)
        t10 = build_majorant_weight(g, averager, 2.0, 10, norm).tail_bound
        t30 = build_majorant_weight(g, averager, 2.0, 30, norm).tail_bound
        assert t30 <= t10

    def test_rejects_bad_seed(self):
        averager = DirectionalAverager(3, DirectionSet.uniform(2))
        with pytest.raises(ValueError):
            build_majorant_weight(Grid2D.zeros(3), averager, 2.0, 5, 1.5)

    def test_rejects_complex_seed(self):
        # the imaginary part used to be dropped and the certificates
        # reported for the real part alone
        averager = DirectionalAverager(3, DirectionSet.uniform(2))
        v = np.abs(np.random.default_rng(3).standard_normal((8, 8)))
        with pytest.raises(ValueError, match="weight seed must be real"):
            build_majorant_weight(Grid2D(3, v + 1j * v), averager, 2.0, 5, 1.5)
        tiny = v.astype(complex)
        tiny[2, 5] += 1e-300j
        with pytest.raises(ValueError, match="weight seed must be real"):
            build_majorant_weight(Grid2D(3, tiny), averager, 2.0, 5, 1.5)

    def test_rejects_negative_terms(self):
        averager = DirectionalAverager(3, DirectionSet.uniform(2))
        with pytest.raises(ValueError, match="terms must be nonnegative"):
            build_majorant_weight(Grid2D.constant(3, 1.0), averager, 2.0, -1, 1.5)

    @pytest.mark.parametrize("p", [0.5, 1.0, math.inf])
    def test_rejects_exponent(self, p):
        averager = DirectionalAverager(3, DirectionSet.uniform(2))
        g = Grid2D.constant(3, 1.0)
        with pytest.raises(ValueError, match="p must lie in"):
            build_majorant_weight(g, averager, p, 5, 1.5)

    def test_given_norm_is_used(self, monkeypatch):
        rng = np.random.default_rng(5)
        g = Grid2D(3, np.abs(rng.standard_normal((8, 8))))
        averager = DirectionalAverager(3, DirectionSet.uniform(4))

        def no_ascent(*args, **kwargs):
            raise AssertionError("estimate_norm called although the norm was given")

        monkeypatch.setattr(DirectionalAverager, "estimate_norm", no_ascent)
        large = build_majorant_weight(g, averager, 2.0, 8, 50.0)
        assert large.norm_used == 50.0


class TestMuckenhoupt:
    def test_constant_weight(self):
        assert muckenhoupt_constants(GridSignal.constant(4, 1.0)) == (1.0, 1.0)

    def test_step_weight(self):
        u = GridSignal(3, np.array([2, 2, 2, 2, 1, 1, 1, 1], dtype=complex))
        a1, a2 = muckenhoupt_constants(u)
        assert a2 == pytest.approx(9.0 / 8.0, abs=1e-12)
        assert a2 <= 2.0 * a1

    def test_a2_below_twice_a1_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = GridSignal(5, np.exp(0.7 * rng.standard_normal(32)))
            a1, a2 = muckenhoupt_constants(u)
            assert a2 <= 2.0 * a1 * (1 + 1e-12)

    def test_chain_holds_per_interval(self):
        rng = np.random.default_rng(8)
        u = GridSignal(4, np.exp(rng.standard_normal(16)))
        vals = u.values.real
        mu = dyadic_maximal(u).values.real
        a1 = float(np.max(mu / vals))
        for interval in all_intervals(4):
            sl = interval.cell_slice(4)
            avg_u = vals[sl].mean()
            avg_inv = (1.0 / vals[sl]).mean()
            chain = 2.0 * mu[sl].min() * (1.0 / vals[sl]).max()
            assert avg_u * avg_inv <= chain * (1 + 1e-12)
            assert chain <= 2.0 * a1 * (1 + 1e-12)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            muckenhoupt_constants(GridSignal.zeros(3))

    def test_complex_weight_rejected(self):
        v = np.exp(np.random.default_rng(11).standard_normal(16))
        with pytest.raises(ValueError, match="weight must be real"):
            muckenhoupt_constants(GridSignal(4, v + 1j * v))


class TestEquivalenceAndTheorems:
    @pytest.mark.parametrize("q", [5.0, 0.0, math.nan])
    def test_directional_exponent_range(self, q):
        rng = np.random.default_rng(14)
        fams = [random_plane(rng, 3)]
        averager = DirectionalAverager(3, DirectionSet.uniform(2))
        with pytest.raises(ValueError, match=r"cordoba needs \|1 - 2/q\| < 1/p"):
            verify_directional(fams, averager, q=q, p=2.0, norm=1.5)

    @pytest.mark.parametrize("p", [0.0, math.nan, -1.0])
    def test_directional_rejects_p_first(self, p):
        # a bad p is named before the q window, which divides by p
        rng = np.random.default_rng(14)
        fams = [random_plane(rng, 3)]
        averager = DirectionalAverager(3, DirectionSet.uniform(2))
        with pytest.raises(ValueError, match=r"p must lie in \(1, inf\)"):
            verify_directional(fams, averager, q=2.5, p=p, norm=1.5)

    def test_directional_near_l2_contraction(self):
        rng = np.random.default_rng(15)
        fams = [random_plane(rng, 3) for _ in range(3)]
        averager = DirectionalAverager(3, DirectionSet.uniform(4))
        norm = averager.estimate_norm(2.0, seed=1)
        report = verify_directional(fams, averager, q=2.0 + 1e-9, p=2.0, norm=norm, seed=1)
        assert report["ratio"] <= 1.0 + 1e-6
        assert report["h_kept"] >= 0.5

    def test_localized_multiplier_matches_closure_oracle(self, monkeypatch):
        import dyadlab.directional as directional

        rng = np.random.default_rng(16)
        L, seed = 4, 7
        dirs = DirectionSet.uniform(4)
        fams = [random_plane(rng, L) for _ in range(2)]
        captured = capture_top_singular(monkeypatch, directional)
        monkeypatch.setattr(directional, "top_singular", functools.partial(directional.top_singular, max_steps=3))
        averager = DirectionalAverager(L, dirs)
        verify_directional(fams, averager, q=2.5, p=2.0, norm=averager.estimate_norm(2.0, seed=seed), seed=seed)
        g, h_prime = localization_sets(L, dirs, seed)
        assert 0 < h_prime.mask.mean() < 1
        members = len(dirs) * (L + 1)
        # band-major: member k * len(dirs) + j is band k of direction j
        assert captured["seeds"] == [seed + 31 * j + k for k in range(L + 1) for j in range(len(dirs))]
        assert captured["kwargs"] == {"max_steps": 3}
        assert set().union(*captured["stacks"]) == set(range(members))
        assert np.array_equal(captured["out_mask"], g.mask)
        assert np.array_equal(captured["in_mask"], h_prime.mask)

        def closures(index):
            k, j = divmod(index, len(dirs))
            return MapPair(*old_multiplier_closures(L, dirs.members[j], k, g.mask, h_prime.mask))

        assert_closure_runs_match(captured, closures)

    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
    def test_localized_norms_meet_the_oracles(self, monkeypatch, resolution):
        # each multiplier's norm is never below power iteration of its
        # closure pair at equal steps from its seed, within the dense SVD
        # bounds up to L = 4, and equal to its one-member run bit for bit;
        # the pair is the form that ran, in frequency space on the whole
        # square (here at L = 5 and 6), so both start from the same vector
        import dyadlab.directional as directional

        rng = np.random.default_rng(20 + resolution)
        L, n, seed = resolution, 1 << resolution, 3
        dirs = DirectionSet.uniform(8)
        fams = [random_plane(rng, L) for _ in range(2)]
        captured = capture_top_singular(monkeypatch, directional)
        monkeypatch.setattr(directional, "top_singular", functools.partial(directional.top_singular, max_steps=40))
        averager = DirectionalAverager(L, dirs)
        norm = averager.estimate_norm(2.0, seed=seed)
        report = verify_directional(fams, averager, q=2.5, p=2.0, norm=norm, seed=seed)
        g, h_prime = localization_sets(L, dirs, seed)
        results = captured["results"]
        assert len(results) == len(dirs) * (L + 1)
        whole = bool(h_prime.mask.all())
        assert whole == (L >= 5)
        for index, res in enumerate(results):
            k, j = divmod(index, len(dirs))
            if whole:
                pair = frequency_closures(L, dirs.members[j], k, g.mask)
            else:
                pair = old_multiplier_closures(L, dirs.members[j], k, g.mask, h_prime.mask)
            assert_krylov_oracles(res, MapPair(*pair), (n, n), seed + 31 * j + k, dense=L <= 4)
        assert_one_member_runs_match(captured)
        assert report["localized_norm_max"] == max(r.norm for r in results)
        unconverged = sum(not r.converged for r in results)
        assert report["localized_unconverged"] == unconverged

    def test_step_cap_reaches_ok(self, monkeypatch):
        # at a cap of 2 steps the multipliers stop unconverged; the count
        # reaches the report, and `verify cordoba` fails its postcondition
        import dyadlab.directional as directional
        from dyadlab.harness import ExperimentConfig, run

        rng = np.random.default_rng(23)
        averager = DirectionalAverager(4, DirectionSet.uniform(8))
        fams = [random_plane(rng, 4) for _ in range(2)]
        norm = averager.estimate_norm(2.0, seed=1)
        full = verify_directional(fams, averager, q=2.5, p=2.0, norm=norm, seed=1)
        assert full["localized_unconverged"] == 0
        config = ExperimentConfig(theorem="cordoba", resolution=4, trials=2, p=2.0, q=2.5)
        assert run(config)[1]["ok"] is True

        monkeypatch.setattr(directional, "top_singular", functools.partial(directional.top_singular, max_steps=2))
        capped = verify_directional(fams, averager, q=2.5, p=2.0, norm=norm, seed=1)
        assert capped["localized_unconverged"] > 0
        _, report = run(config)
        assert report["ok"] is False

    def test_one_averager_serves_every_trial(self, monkeypatch):
        import dyadlab.directional as directional

        monkeypatch.setattr(directional, "top_singular", functools.partial(directional.top_singular, max_steps=10))
        rng = np.random.default_rng(21)
        dirs = DirectionSet.uniform(8)
        fams = [random_plane(rng, 4) for _ in range(2)]
        shared = DirectionalAverager(4, dirs)
        for seed in (0, 1):
            own_averager = DirectionalAverager(4, dirs)
            own_norm = own_averager.estimate_norm(2.0, seed=seed)
            own = verify_directional(fams, own_averager, q=2.5, p=2.0, norm=own_norm, seed=seed)
            norm = shared.estimate_norm(2.0, seed=seed)
            reused = verify_directional(fams, shared, q=2.5, p=2.0, norm=norm, seed=seed)
            assert json_text(own) == json_text(reused)

    @pytest.mark.parametrize(
        "call",
        [
            lambda fams, other: verify_directional(fams, other, q=2.5, p=2.0, norm=1.5),
            lambda fams, other: verify_weighted_directional(fams, other, p=2.0, norm=1.5),
            lambda fams, other: build_majorant_weight(Grid2D.constant(3, 1.0), other, 2.0, 4, 1.5),
        ],
        ids=["verify_directional", "verify_weighted_directional", "build_majorant_weight"],
    )
    def test_averager_at_another_resolution_rejected(self, call):
        rng = np.random.default_rng(22)
        fams = [random_plane(rng, 3) for _ in range(2)]
        other = DirectionalAverager(4, DirectionSet.uniform(2))
        with pytest.raises(ValueError, match="resolution mismatch: .*averager at L=4"):
            call(fams, other)

    def test_weighted_directional_report(self):
        rng = np.random.default_rng(16)
        fams = [random_plane(rng, 3) for _ in range(4)]
        averager = DirectionalAverager(3, DirectionSet.uniform(4))
        report, weight = verify_weighted_directional(fams, averager, 2.0, averager.estimate_norm(2.0, seed=2))
        assert report["weight"] == weight.series
        assert all(cert["holds"] for cert in weight.checks())
        # the duality pairing is dominated by the weighted pairing, which the
        # per-direction constants control
        assert report["duality_pairing"] <= report["weighted_pairing"] * (1 + 1e-9)
        assert report["chain_constant"] <= 1.0 + 1e-9
        assert math.isfinite(report["ratio"])

    def test_no_ascent_per_call(self, monkeypatch):
        # both theorems read the norm their caller measured, and report it
        rng = np.random.default_rng(18)
        fams = [random_plane(rng, 3) for _ in range(2)]
        averager = DirectionalAverager(3, DirectionSet.uniform(4))

        def no_ascent(*args, **kwargs):
            raise AssertionError("estimate_norm called although the norm was given")

        monkeypatch.setattr(DirectionalAverager, "estimate_norm", no_ascent)
        plain = verify_directional(fams, averager, q=2.5, p=2.0, norm=1.75, seed=3)
        weighted, _ = verify_weighted_directional(fams, averager, p=1.5, norm=1.25)
        assert plain["norm_MSigma"] == 1.75
        assert weighted["norm_MSigma"] == 1.25 <= weighted["weight"]["norm_used"]

    def test_weighted_exponent_range(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError, match="p must lie in"):
            verify_weighted_directional(
                [random_plane(rng, 3)], DirectionalAverager(3, DirectionSet.uniform(2)), p=1.0, norm=1.5
            )

    def test_level_complement_dense_marker(self):
        # a marker covering most of the base: the exceptional threshold must
        # climb past one (removing nothing) rather than carve out the marker
        from dyadlab.directional import directional_level_complement

        resolution, n = 3, 8
        mask = np.ones((n, n), dtype=bool)
        mask[0, 0] = False
        g = GridSet2D(resolution, mask)
        h = GridSet2D.full(resolution)
        averager = DirectionalAverager(resolution, DirectionSet.uniform(2))
        kept, c = directional_level_complement(h, g, averager, 0.9)
        assert measure(kept) >= 0.5 * measure(h)


def count_transforms(monkeypatch) -> dict:
    """Count, from here on, the calls of numpy's complex 2D transforms
    under `np.fft`, the names the multiplier families call."""
    counts = {"calls": 0}
    for name in ("fft2", "ifft2", "fftn", "ifftn"):

        def counted(*args, _real=getattr(np.fft, name), **kwargs):
            counts["calls"] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


class TestFrequencySpaceFamily:
    """On the whole square the multipliers run as 1_G U* M, in frequency
    space, with the singular values of the spatial 1_G U* M U."""

    @staticmethod
    def input_mask(resolution, whole):
        n = 1 << resolution
        if whole:
            return np.ones((n, n), dtype=bool)
        return np.random.default_rng(resolution).random((n, n)) < 0.75

    @pytest.mark.parametrize("resolution", [1, 3, 5])
    @pytest.mark.parametrize("whole", [True, False])
    def test_adjoint_pairing(self, resolution, whole):
        # <A x, y> = <x, A* y> to rounding, member by member, in one stack
        dirs = DirectionSet.uniform(8)
        family = directional._multiplier_family(resolution, dirs, self.input_mask(resolution, whole))
        rows = list(range(len(family)))
        rng = np.random.default_rng(40 + resolution)
        n = 1 << resolution
        x, y = (rng.standard_normal((len(rows), n, n)) + 1j * rng.standard_normal((len(rows), n, n)) for _ in "xy")
        ax, ay = family.apply(rows, x.copy()), family.adjoint(rows, y.copy())
        for i in rows:
            gap = abs(np.vdot(y[i], ax[i]) - np.vdot(ay[i], x[i]))
            assert gap <= 1e-13 * np.linalg.norm(x[i]) * np.linalg.norm(y[i])

    @pytest.mark.parametrize("resolution", [3, 4, 5])
    def test_norms_meet_the_spatial_family(self, resolution):
        # every member's norm within the engine's tolerance of the spatial
        # closure pair's, and, at as many steps from the same seed, never
        # below the power iterate of the frequency-space pair; up to L = 4
        # within the dense SVD bounds of that pair, whose singular values
        # are the spatial ones
        L, n, seed = resolution, 1 << resolution, 3
        dirs = DirectionSet.uniform(8)
        whole = self.input_mask(L, True)
        g_mask = np.random.default_rng(seed).random((n, n)) < 0.25
        seeds = [seed + 31 * j + k for k in range(L + 1) for j in range(len(dirs))]
        freq = top_singular(directional._multiplier_family(L, dirs, whole), g_mask, whole, seeds)
        pairs = [old_multiplier_closures(L, dirs.members[j], k, g_mask, whole) for k in range(L + 1) for j in range(len(dirs))]
        spatial = top_singular(OperatorFamily.of(*zip(*pairs)), whole, whole, seeds)
        assert all(res.converged for res in freq + spatial)
        for index, (res, other) in enumerate(zip(freq, spatial)):
            k, j = divmod(index, len(dirs))
            assert res.norm == pytest.approx(other.norm, rel=1e-9, abs=0)
            pair = MapPair(*frequency_closures(L, dirs.members[j], k, g_mask))
            assert_krylov_oracles(res, pair, (n, n), seeds[index], dense=L <= 4)

    @pytest.mark.parametrize("whole", [True, False])
    def test_overwriting_maps_match_copying_ones(self, whole):
        # both families transform the engine's array in place: the results
        # are those of maps that copy their input first, bit for bit
        L, n = 4, 16
        dirs = DirectionSet.uniform(8)
        in_mask = self.input_mask(L, whole)
        g_mask = np.random.default_rng(5).random((n, n)) < 0.25
        family = directional._multiplier_family(L, dirs, in_mask)
        copying = OperatorFamily(
            len(family),
            lambda rows, x: family.apply(rows, x.copy()),
            lambda rows, x: family.adjoint(rows, x.copy()),
        )
        seeds = list(range(len(family)))
        got = top_singular(family, g_mask, in_mask, seeds, max_steps=30)
        want = top_singular(copying, g_mask, in_mask, seeds, max_steps=30)
        assert got == want

    @pytest.mark.parametrize("seed, whole", [(2, [True, True]), (8, [False, False]), (14, [False, False])])
    def test_branch_follows_the_exceptional_set(self, monkeypatch, seed, whole):
        # the benchmark's cordoba ops at L = 5 with seeds 2, 8 and 14: per
        # Lanczos step, one apply and one adjoint, two transforms when the
        # exceptional set is empty and four when it is not
        from dyadlab.harness import ExperimentConfig, run
        transforms = count_transforms(monkeypatch)
        real_top_singular = directional.top_singular
        trials = []

        def recording(family, out_mask, in_mask, seeds, **kwargs):
            counts = {"apply": set(), "adjoint": set()}

            def counted(name, call):
                def run_counted(rows, x):
                    before = transforms["calls"]
                    out = call(rows, x)
                    counts[name].add(transforms["calls"] - before)
                    return out

                return run_counted

            spy = OperatorFamily(len(family), counted("apply", family.apply), counted("adjoint", family.adjoint))
            trials.append((bool(in_mask.all()), counts))
            return real_top_singular(spy, out_mask, in_mask, seeds, **kwargs)

        monkeypatch.setattr(directional, "top_singular", recording)
        ok = run(ExperimentConfig(theorem="cordoba", resolution=5, trials=2, seed=seed))[1]["ok"]
        assert ok is True
        assert [on_whole for on_whole, _ in trials] == whole
        for on_whole, counts in trials:
            each = 1 if on_whole else 2
            assert counts == {"apply": {each}, "adjoint": {each}}


class TestOneAscentPerRun:
    """The Cordoba runners measure ||M_Sigma|| once per run, from the run's
    seed, and pass it to every trial; trial 0 reads the run's seed too, so
    it keeps the bytes of a one-trial run."""

    @staticmethod
    def run_recorded(theorem, trials, p=3.0):
        """(each estimate_norm call as (p, seed, value), each trial's report,
        the run's report) of `verify <theorem>` at L=3 from seed 5."""
        from dyadlab.harness import ExperimentConfig, run

        name = {"cordoba": "verify_directional", "cordoba-weighted": "verify_weighted_directional"}[theorem]
        real_norm, real_verify = DirectionalAverager.estimate_norm, getattr(directional, name)
        calls, reports = [], []

        def counted(self, p, seed=0):
            calls.append((p, seed, real_norm(self, p, seed=seed)))
            return calls[-1][2]

        def recorded(*args, **kwargs):
            result = real_verify(*args, **kwargs)
            # the weighted theorem returns its weight with the report
            reports.append(result[0] if theorem == "cordoba-weighted" else result)
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DirectionalAverager, "estimate_norm", counted)
            mp.setattr(directional, name, recorded)
            _, report = run(ExperimentConfig(theorem=theorem, resolution=3, trials=trials, seed=5, p=p))
        return calls, reports, report

    # cordoba's exceptional set reads the L^2 norm whatever its p
    @pytest.mark.parametrize("theorem, ascent_p", [("cordoba", 2.0), ("cordoba-weighted", 3.0)])
    def test_one_ascent_per_run(self, theorem, ascent_p):
        calls, reports, _ = self.run_recorded(theorem, 3)
        assert [(p, seed) for p, seed, _ in calls] == [(ascent_p, 5)]
        assert len(reports) == 3
        assert [rep["norm_MSigma"] for rep in reports] == [calls[0][2]] * 3

    @pytest.mark.parametrize("theorem", ["cordoba", "cordoba-weighted"])
    def test_trial_zero_matches_a_one_trial_run(self, theorem):
        _, three, report3 = self.run_recorded(theorem, 3)
        _, one, report1 = self.run_recorded(theorem, 1)
        assert json_text(three[0]) == json_text(one[0])
        if theorem == "cordoba-weighted":
            assert json_text(report3["weights"][0]) == json_text(report1["weights"][0])


# the guards of the band windows and the projected family: a call each
# rejects, and its message
DIRECTIONAL_GUARDS = {
    "band_window": (lambda: band_window(2, 3), "band index 3 out of range for resolution 2"),
    "_projection_stacks": (
        lambda: _projection_stacks([], DirectionalAverager(2, DirectionSet.uniform(2))),
        "need at least one family member",
    ),
}


@pytest.mark.parametrize("call, message", DIRECTIONAL_GUARDS.values(), ids=DIRECTIONAL_GUARDS)
def test_input_guards_keep_their_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
