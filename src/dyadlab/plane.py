"""Two-dimensional substrate: square grids on [0,1)^2, dyadic rectangles,
and the strong maximal function.

Cell (ix, iy) covers [ix 2**-L, (ix+1) 2**-L) x [iy 2**-L, (iy+1) 2**-L);
the cell area 4**-L weights all integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import DyadicInterval, check_resolution


def cell_area(resolution: int) -> float:
    return 4.0 ** -resolution


@dataclass(frozen=True)
class Grid2D:
    """Complex-valued function on the 2**L x 2**L cells of the unit square."""

    resolution: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_resolution(self.resolution)
        values = np.asarray(self.values, dtype=np.complex128)
        n = 1 << self.resolution
        if values.shape != (n, n):
            raise ValueError(f"expected ({n}, {n}) values, got shape {values.shape}")
        if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, resolution: int) -> "Grid2D":
        n = 1 << resolution
        return cls(resolution, np.zeros((n, n), dtype=np.complex128))

    @classmethod
    def constant(cls, resolution: int, value=1.0) -> "Grid2D":
        n = 1 << resolution
        return cls(resolution, np.full((n, n), value, dtype=np.complex128))


@dataclass(frozen=True)
class GridSet2D:
    """Boolean mask over the square grid."""

    resolution: int
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_resolution(self.resolution)
        mask = np.asarray(self.mask, dtype=bool)
        n = 1 << self.resolution
        if mask.shape != (n, n):
            raise ValueError(f"expected ({n}, {n}) mask, got shape {mask.shape}")
        object.__setattr__(self, "mask", mask)

    @classmethod
    def empty(cls, resolution: int) -> "GridSet2D":
        n = 1 << resolution
        return cls(resolution, np.zeros((n, n), dtype=bool))

    @classmethod
    def full(cls, resolution: int) -> "GridSet2D":
        n = 1 << resolution
        return cls(resolution, np.ones((n, n), dtype=bool))

    def _check_mate(self, other: "GridSet2D"):
        if self.resolution != other.resolution:
            raise ValueError("resolution mismatch between plane sets")

    def __and__(self, other):
        self._check_mate(other)
        return GridSet2D(self.resolution, self.mask & other.mask)

    def __or__(self, other):
        self._check_mate(other)
        return GridSet2D(self.resolution, self.mask | other.mask)

    def __sub__(self, other):
        self._check_mate(other)
        return GridSet2D(self.resolution, self.mask & ~other.mask)


def measure2(s: GridSet2D) -> float:
    return int(np.count_nonzero(s.mask)) * cell_area(s.resolution)


def inner2(f: Grid2D, g: Grid2D) -> complex:
    if f.resolution != g.resolution:
        raise ValueError("resolution mismatch")
    return complex(np.sum(f.values * np.conj(g.values)) * cell_area(f.resolution))


@dataclass(frozen=True, order=True)
class DyadicRectangle:
    """Product of a horizontal and a vertical dyadic interval."""

    horizontal: DyadicInterval
    vertical: DyadicInterval

    @property
    def area(self) -> float:
        return self.horizontal.length * self.vertical.length

    def contains(self, other: "DyadicRectangle") -> bool:
        return self.horizontal.contains(other.horizontal) and self.vertical.contains(
            other.vertical
        )

    def cell_slices(self, resolution: int) -> tuple[slice, slice]:
        return (
            self.horizontal.cell_slice(resolution),
            self.vertical.cell_slice(resolution),
        )


def all_rectangles(resolution: int):
    for kx in range(resolution + 1):
        for nx in range(1 << kx):
            for ky in range(resolution + 1):
                for ny in range(1 << ky):
                    yield DyadicRectangle(DyadicInterval(kx, nx), DyadicInterval(ky, ny))


def rectangle_averages(values: np.ndarray, resolution: int, kx: int, ky: int) -> np.ndarray:
    """Averages over every dyadic rectangle at scale pair (kx, ky)."""
    n = 1 << resolution
    v = np.asarray(values).reshape(1 << kx, n >> kx, 1 << ky, n >> ky)
    return v.mean(axis=(1, 3))


def strong_maximal(f: Grid2D) -> Grid2D:
    """M* f(x,y) = max over dyadic rectangles containing (x,y) of avg |f|."""
    L = f.resolution
    a = np.abs(f.values)
    out = np.zeros_like(a)
    for kx in range(L + 1):
        for ky in range(L + 1):
            avg = rectangle_averages(a, L, kx, ky)
            np.maximum(
                out,
                np.repeat(np.repeat(avg, 1 << (L - kx), axis=0), 1 << (L - ky), axis=1),
                out=out,
            )
    return Grid2D(L, out)


def rectangle_level_set(marker: GridSet2D, threshold: float, strict: bool = True) -> GridSet2D:
    """Union of all dyadic rectangles whose marker density exceeds (or, with
    strict=False, reaches) the threshold."""
    L = marker.resolution
    dens = marker.mask.astype(float)
    hit = np.zeros_like(marker.mask)
    for kx in range(L + 1):
        for ky in range(L + 1):
            avg = rectangle_averages(dens, L, kx, ky)
            sel = avg > threshold if strict else avg >= threshold
            hit |= np.repeat(np.repeat(sel, 1 << (L - kx), axis=0), 1 << (L - ky), axis=1)
    return GridSet2D(L, hit)


def exceptional_complement_2d(base: GridSet2D, marker: GridSet2D, threshold: float) -> GridSet2D:
    """base minus the union of dyadic rectangles with marker density strictly
    above the threshold; thresholds at or above 1 remove nothing."""
    if measure2(marker) == 0.0 or threshold >= 1.0:
        return base
    return base - rectangle_level_set(marker, threshold, strict=True)


def certified_rectangle_threshold(base: GridSet2D, marker: GridSet2D, eps: float) -> float:
    """Smallest Chebyshev-certified density threshold t with
    |{M* 1_marker > t}| <= |base| / 2, using the exponent p = 1/(1-eps).

    Follows from integrating (M* 1_marker)**p exactly on the grid, so the
    half-measure guarantee holds on every instance by construction.
    """
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    base_measure = measure2(base)
    if base_measure <= 0:
        raise ValueError("base set must have positive measure")
    p = 1.0 / (1.0 - eps)
    field_vals = strong_maximal(Grid2D(marker.resolution, marker.mask.astype(np.complex128)))
    integral = float(np.sum(field_vals.values.real**p) * cell_area(marker.resolution))
    return (2.0 * integral / base_measure) ** (1.0 / p)
