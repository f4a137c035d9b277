"""Two-dimensional substrate: dyadic rectangles, rectangle averages and the
strong maximal function on the square grids `Grid2D` and `GridSet2D` of
[0,1)^2, whose cell area 4**-L weights all integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DyadicInterval, Grid2D, GridSet2D, cell_width, check_positive_measure, check_same_grid, measure


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


def rectangle_level_set(marker: GridSet2D, threshold: float) -> GridSet2D:
    """Union of all dyadic rectangles whose marker density exceeds the
    threshold: {M* 1_marker > threshold}, since M* takes the exact maximum
    of those densities."""
    return GridSet2D(marker.resolution, strong_maximal(marker.indicator()).values.real > threshold)


def exceptional_complement_2d(base: GridSet2D, marker: GridSet2D, threshold: float) -> GridSet2D:
    """base minus the union of dyadic rectangles with marker density strictly
    above the threshold; thresholds at or above 1 remove nothing."""
    check_same_grid(base=base, marker=marker)
    if measure(marker) == 0.0 or threshold >= 1.0:
        return base
    return base - rectangle_level_set(marker, threshold)


def certified_rectangle_threshold(base: GridSet2D, marker: GridSet2D, eps: float) -> float:
    """Smallest Chebyshev-certified density threshold t with
    |{M* 1_marker > t}| <= |base| / 2, using the exponent p = 1/(1-eps).

    Follows from integrating (M* 1_marker)**p exactly on the grid, so the
    half-measure guarantee holds on every instance by construction.
    """
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    check_same_grid(base=base, marker=marker)
    check_positive_measure(base=base)
    base_measure = measure(base)
    p = 1.0 / (1.0 - eps)
    field_vals = strong_maximal(Grid2D(marker.resolution, marker.mask.astype(np.complex128)))
    integral = float(np.sum(field_vals.values.real**p) * cell_width(marker.resolution) ** 2)
    return (2.0 * integral / base_measure) ** (1.0 / p)
