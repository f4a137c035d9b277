"""Fixtures the goldens draw their inputs through, and the oracles that tests check the library against."""

from typing import Callable

import numpy as np

from dyadlab.biparam import _check_scales, _haar_half_signs
from dyadlab.directional import band_window
from dyadlab.grid import DyadicInterval, Grid2D, GridSignal, lp_norm
from dyadlab.harness import random_signal
from dyadlab.plane import DyadicRectangle
from dyadlab.tiles import BiTile, ChoiceFunction, Tile, TileCollection, member_indices, packet_heights, tile_slot
from dyadlab.walsh import _hadamard_moved, bit_reversal, block_gathers


def walsh_values(m, bits: int) -> np.ndarray:
    """W_m sampled on the 2**bits cells of [0, 1), values in {-1, +1}; for
    an array of indices, one row per index."""
    m = np.asarray(m, dtype=np.int64)
    if np.any((m < 0) | (m >= (1 << bits))):
        raise ValueError(f"Walsh index {m} out of range for {bits} bits")
    signs = np.bitwise_count(m[..., None] & bit_reversal(bits)) & 1
    return 1.0 - 2.0 * signs


def hadamard(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized Hadamard butterfly along one axis (length a power of two)."""
    return np.moveaxis(_hadamard_moved(a, axis), -1, axis)


def bitile_key(p: BiTile) -> tuple[int, int, int]:
    """Deterministic total order used wherever bi-tiles are enumerated."""
    return (p.scale, p.offset, p.freq_index)


def all_bitiles(resolution: int) -> list[BiTile]:
    """Every bi-tile at the resolution, in `bitile_key` order."""
    return [BiTile(*index) for index in member_indices(TileCollection.all(resolution).occupied)]


def walsh_packet(tile: Tile, resolution: int) -> GridSignal:
    """L2-normalized Walsh wave packet of the tile: supported on the spatial
    interval, Walsh spectrum exactly the frequency interval, norm one."""
    if not tile.fits(resolution):
        raise ValueError(f"tile {tile} does not fit resolution {resolution}")
    L = resolution
    k = tile.scale
    values = np.zeros(1 << L, dtype=np.complex128)
    values[tile.spatial.cell_slice(L)] = walsh_values(tile.freq_index, L - k) * packet_heights(L)[k]
    return GridSignal(L, values)


def random_choice(rng: np.random.Generator, resolution: int) -> ChoiceFunction:
    n = 1 << resolution
    return ChoiceFunction(resolution, rng.integers(0, n, size=n))


def oracle_upper_cells(choices):
    """`tiles.upper_cells` from a tile-index stack and the block gathers,
    without `tiles.term_tables`: every (member i, scale k < L, cell x) at
    which N_i(x) lies in the upper tile of a bi-tile, that is N_i(x) >> k
    is odd, by member, then scale, then cell: the arrays i, k, x, the
    bi-tile's slot and W(x) = +-1, the sign of its upper packet at x."""
    L = choices[0].resolution
    tile_idx = np.stack([choice.freqs for choice in choices])[:, None, :] >> np.arange(L)[:, None]
    member, scale, cell = np.nonzero(tile_idx & 1)
    odd = tile_idx[member, scale, cell]
    slot = tile_slot(L, scale, cell >> (L - scale), odd >> 1)
    # W_{2m+1} at the cell's place u in its block is the parity of
    # (2m + 1) & bit_reverse(u), and the block gather holds bit_reverse(u)
    # in its low L - k bits, the only bits 2m + 1 has
    sign = 1.0 - 2.0 * (np.bitwise_count(odd & block_gathers(L)[scale, cell]) & 1)
    return member, scale, cell, slot, sign


def random_convex_collection(
    rng: np.random.Generator,
    resolution: int,
    seeds: int = 3,
    cap: int = 400,
) -> TileCollection:
    """Convex closure of random tops with random descendant chains below
    them, resampled if the closure overflows the cap.

    Top scales are drawn from the fixed coarse range 0..3 so collections
    occupy a comparable portion of the grid at every resolution, while the
    chains reach down to the finest scales; this keeps measured
    decomposition constants scale-comparable.
    """
    top_hi = min(3, resolution - 1)
    while True:
        picks = []
        for _ in range(seeds):
            k = int(rng.integers(0, top_hi + 1))
            top = BiTile(
                k,
                int(rng.integers(0, 1 << k)),
                int(rng.integers(0, 1 << (resolution - k - 1))),
            )
            picks.append(top)
            for _ in range(int(rng.integers(1, 4))):
                k2 = int(rng.integers(k, resolution))
                offset = (top.offset << (k2 - k)) + int(rng.integers(0, 1 << (k2 - k)))
                picks.append(BiTile(k2, offset, top.freq.lo >> (k2 + 1)))
        collection = TileCollection.convex_closure(resolution, picks)
        if len(collection) <= cap:
            return collection


def collection_spanning_signal(
    rng: np.random.Generator, collection: TileCollection
) -> GridSignal:
    """Gaussian combination of the collection's own lower packets, unit L2
    norm; keeps decomposition constants scale-comparable because the signal
    energy lives where the collection can see it."""
    values = np.zeros(1 << collection.resolution, dtype=np.complex128)
    for k, offset, freq_index in member_indices(collection.occupied):
        g = complex(rng.standard_normal(), rng.standard_normal())
        values += g * walsh_packet(Tile(k, offset, 2 * freq_index), collection.resolution).values
    norm = lp_norm(values, 2.0, collection.resolution)
    if norm == 0.0:
        return random_signal(rng, collection.resolution)
    return GridSignal(collection.resolution, values / norm)


def collection_adapted_choice(
    rng: np.random.Generator, collection: TileCollection
) -> ChoiceFunction:
    """Choice function sampling the collection's own frequency intervals: at
    each cell, a uniform frequency from a random member whose spatial
    interval covers the cell (uniform over the lattice elsewhere)."""
    L, n = collection.resolution, 1 << collection.resolution
    freqs = rng.integers(0, n, size=n)
    members = np.array(list(member_indices(collection.occupied)), dtype=np.int64).reshape(-1, 3)
    for cell in range(n):
        # the members covering the cell, in `bitile_key` order
        candidates = members[cell >> (L - members[:, 0]) == members[:, 1]]
        if len(candidates):
            k, _, m = candidates[int(rng.integers(0, len(candidates)))].tolist()
            freqs[cell] = int(rng.integers(m << (k + 1), (m + 1) << (k + 1)))
    return ChoiceFunction(L, freqs)


def all_rectangles(resolution: int):
    for kx in range(resolution + 1):
        for nx in range(1 << kx):
            for ky in range(resolution + 1):
                for ny in range(1 << ky):
                    yield DyadicRectangle(DyadicInterval(kx, nx), DyadicInterval(ky, ny))


def haar_synthesis(coeffs: np.ndarray, resolution: int, kx: int, ky: int) -> np.ndarray:
    """sum over (nx, ny) of coeffs[nx, ny] times the tensor Haar packet.

    One broadcast product of the scaled coefficients with the sign tensor
    sx (x) sy of the packets, shaped (rx, 1, ry) against blocks (2**kx, rx,
    2**ky, ry): repetition commutes with elementwise products and the signs
    are +-1, so every nonzero value equals repeating the coefficients and
    multiplying by each sign in turn."""
    _check_scales(resolution, kx, ky)
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (1 << kx, 1 << ky):
        raise ValueError(f"expected coefficients shaped {(1 << kx, 1 << ky)}, got {coeffs.shape}")
    n = 1 << resolution
    signs = _haar_half_signs(1 << (resolution - kx))[:, None, None] * _haar_half_signs(1 << (resolution - ky))
    scaled = coeffs * 2.0 ** ((kx + ky) / 2.0)
    return (scaled[:, None, :, None] * signs).reshape(n, n)


def tensor_packet(rect: DyadicRectangle, resolution: int) -> Grid2D:
    """Tensor Haar packet of one rectangle, unit L2 norm."""
    kx, ky = rect.horizontal.scale, rect.vertical.scale
    coeffs = np.zeros((1 << kx, 1 << ky), dtype=np.complex128)
    coeffs[rect.horizontal.offset, rect.vertical.offset] = 1.0
    return Grid2D(resolution, haar_synthesis(coeffs, resolution, kx, ky))


def annular_band(f: Grid2D, k: int) -> Grid2D:
    spectrum = np.fft.fft2(f.values)
    return Grid2D(f.resolution, np.fft.ifft2(spectrum * band_window(f.resolution, k)))


def box_kernels(resolution, directions):
    """The distinct 0/1 box kernels of DirectionalAverager, in its order,
    built box by box."""
    n = 1 << resolution
    idx = np.arange(n)
    delta = (((idx + n // 2) % n) - n // 2) / n
    dx, dy = delta[:, None], delta[None, :]
    kernels, seen = [], set()
    for v in directions:
        px, py = v.perp
        along = dx * v.vx + dy * v.vy
        across = dx * px + dy * py
        for ia in range(resolution + 1):
            for ib in range(resolution + 1):
                a, b = 2.0**-ia, 2.0**-ib
                kernel = (np.abs(along) <= a / 2 + 1e-12) & (np.abs(across) <= b / 2 + 1e-12)
                if kernel.tobytes() in seen:
                    continue
                seen.add(kernel.tobytes())
                kernels.append(kernel)
    return kernels


def densify(apply: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """Matrix of a linear map on C^n in the cell basis; oracle for small grids."""
    cols = []
    for i in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[i] = 1.0
        cols.append(np.ravel(apply(e)))
    return np.stack(cols, axis=1)
