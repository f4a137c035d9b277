"""Dyadic grids on the unit circle and the unit square.

Everything downstream acts on functions and sets defined on the 2**L cells of
[0, 1), or on the 2**L x 2**L cells of [0, 1)^2.  Cell i covers
[i * 2**-L, (i + 1) * 2**-L).  One signal type and one set type serve both:
the plane cases `Grid2D` and `GridSet2D` differ only in their number of axes.
Measures, inner products and norms carry the cell measure 2**-L per axis, so
counting-measure identities on the grid reproduce the Lebesgue ones exactly
(all quantities are dyadic rationals in double precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

MAX_RESOLUTION = 12

# Cells in one stack of same-shape arrays sent through a single numpy call
# (norm-engine members, averaging kernels).  Stacking amortizes per-call
# overhead on small grids and was measured to lose from 2**14-cell planes
# (L = 7) up, where a stack holds one member: 16 members at L = 5, 4 at L = 6.
STACK_CELLS = 1 << 14


def stack_slices(count: int, cells: int) -> list[slice]:
    """Consecutive stacks covering `count` members of `cells` cells each,
    as many members per stack as fit (at least one)."""
    step = max(1, STACK_CELLS // cells)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def check_resolution(resolution) -> int:
    resolution = int(resolution)
    if not 0 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must satisfy 0 <= L <= {MAX_RESOLUTION}, got {resolution}")
    return resolution


def integer_entries(values, name: str) -> np.ndarray:
    """`values` as a new int64 array. numpy's cast would truncate 0.5 to 0
    and turn nan or inf into some integer, so an entry that the cast
    changes is rejected, by value; integral values of any dtype pass."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):
        ints = values.astype(np.int64)
    changed = ints != values
    if changed.any():
        raise ValueError(f"{name} must be integers, got {values[changed][0].item()!r}")
    return ints


def check_exponent(value: float, name: str = "p", above: float = 1) -> None:
    """Reject an exponent outside the open range (above, inf)."""
    if not above < value < math.inf:
        raise ValueError(f"{name} must lie in ({above}, inf), got {value}")


def conjugate_exponent(p: float) -> float:
    """The exponent p' = p/(p - 1) with 1/p + 1/p' = 1, for p in (1, inf)."""
    check_exponent(p, "exponent")
    return p / (p - 1.0)


def check_q_window(q: float, p: float) -> None:
    """Reject a q outside the Cordoba window: q > 0 and |1 - 2/q| < 1/p."""
    if not (q > 0 and abs(1.0 - 2.0 / q) < 1.0 / p):
        raise ValueError(f"cordoba needs |1 - 2/q| < 1/p, got q={q}, p={p}")


def check_same_grid(*objs, **named) -> int:
    """Reject arguments on different grids: each must have the same
    `resolution`, and the same `ndim` where it has one. Returns that
    resolution. The error names each argument with its L, a positional one
    by its type and place."""
    every = (*objs, *named.values())
    resolution = every[0].resolution
    ndims = {obj.ndim for obj in every if hasattr(obj, "ndim")}
    if len(ndims) > 1 or any(obj.resolution != resolution for obj in every):
        labels = [f"{type(obj).__name__} {i}" for i, obj in enumerate(objs)] + list(named)
        grids = [
            f"{label} at L={obj.resolution}" + (f" on {obj.ndim} axes" if len(ndims) > 1 and hasattr(obj, "ndim") else "")
            for label, obj in zip(labels, every)
        ]
        raise ValueError(f"resolution mismatch: {', '.join(grids)}")
    return resolution


def check_positive_measure(**sets) -> None:
    """Reject a set of measure 0, naming it."""
    for name, s in sets.items():
        if not s.mask.any():
            raise ValueError(f"set {name} needs positive measure")


def cell_width(resolution: int) -> float:
    return 2.0 ** -resolution


def ordered_sum(values) -> float:
    """0.0 + values[0] + values[1] + ..., added left to right: the package's
    one float sum. The builtin `sum` adds floats with compensation from
    Python 3.12 on, so its last digit depends on the interpreter."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Half-open interval [offset * 2**-scale, (offset + 1) * 2**-scale).

    Two dyadic intervals are always nested or disjoint; ``contains`` and
    ``disjoint`` exhaust the possibilities.
    """

    scale: int
    offset: int

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")
        if not 0 <= self.offset < (1 << self.scale):
            raise ValueError(f"offset {self.offset} out of range at scale {self.scale}")

    @property
    def length(self) -> float:
        return 2.0 ** -self.scale

    @property
    def left(self) -> float:
        return self.offset * 2.0 ** -self.scale

    @property
    def right(self) -> float:
        return (self.offset + 1) * 2.0 ** -self.scale

    @property
    def center(self) -> float:
        return (self.offset + 0.5) * 2.0 ** -self.scale

    def contains(self, other: "DyadicInterval") -> bool:
        if other.scale < self.scale:
            return False
        return (other.offset >> (other.scale - self.scale)) == self.offset

    def disjoint(self, other: "DyadicInterval") -> bool:
        return not (self.contains(other) or other.contains(self))

    def ancestor(self, scale: int) -> "DyadicInterval":
        if scale > self.scale:
            raise ValueError("ancestor scale must be coarser")
        return DyadicInterval(scale, self.offset >> (self.scale - scale))

    def cell_slice(self, resolution: int) -> slice:
        """Index range of the grid cells making up the interval."""
        if self.scale > resolution:
            raise ValueError(f"interval scale {self.scale} finer than resolution {resolution}")
        width = 1 << (resolution - self.scale)
        return slice(self.offset * width, (self.offset + 1) * width)

    def indicator(self, resolution: int) -> np.ndarray:
        mask = np.zeros(1 << resolution, dtype=bool)
        mask[self.cell_slice(resolution)] = True
        return mask


def all_intervals(resolution: int):
    """All dyadic intervals of [0,1) down to single cells, coarse to fine."""
    return (DyadicInterval(scale, offset) for scale in range(resolution + 1) for offset in range(1 << scale))


def _shape(resolution: int, ndim: int) -> tuple[int, ...]:
    """Cell array shape of a line (ndim 1) or plane (ndim 2) grid."""
    return (1 << resolution,) * ndim


def _check_cells(grid, array: np.ndarray) -> None:
    check_resolution(grid.resolution)
    shape = _shape(grid.resolution, grid.ndim)
    if array.shape != shape:
        raise ValueError(f"expected cells shaped {shape}, got shape {array.shape}")


@dataclass(frozen=True, eq=False)
class GridSignal:
    """Complex-valued function on the 2**resolution cells of [0, 1); its
    plane case `Grid2D` lives on the 2**L x 2**L cells of the unit square."""

    ndim: ClassVar[int] = 1
    resolution: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        _check_cells(self, values)
        if not np.isfinite(values).all():
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, resolution: int) -> "GridSignal":
        return cls(resolution, np.zeros(_shape(resolution, cls.ndim), dtype=np.complex128))

    @classmethod
    def constant(cls, resolution: int, value=1.0) -> "GridSignal":
        return cls(resolution, np.full(_shape(resolution, cls.ndim), value, dtype=np.complex128))

    @classmethod
    def indicator(cls, resolution: int, where) -> "GridSignal":
        """Indicator of a GridSet, DyadicInterval or boolean mask."""
        if isinstance(where, GridSet):
            mask = where.mask
        elif isinstance(where, DyadicInterval):
            mask = where.indicator(resolution)
        else:
            mask = np.asarray(where, dtype=bool)
        return cls(resolution, mask.astype(np.complex128))

    def __len__(self) -> int:
        return self.values.size


class Grid2D(GridSignal):
    """Complex-valued function on the 2**L x 2**L cells of the unit square;
    cell (ix, iy) covers [ix 2**-L, (ix+1) 2**-L) x [iy 2**-L, (iy+1) 2**-L)."""

    ndim = 2


@dataclass(frozen=True, eq=False)
class GridSet:
    """Boolean mask over the cells of a line grid, or of a plane grid for its
    plane case `GridSet2D`; measure is the cell count times the cell measure."""

    ndim: ClassVar[int] = 1
    signal_type: ClassVar[type] = GridSignal
    resolution: int
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        _check_cells(self, mask)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def empty(cls, resolution: int) -> "GridSet":
        return cls(resolution, np.zeros(_shape(resolution, cls.ndim), dtype=bool))

    @classmethod
    def full(cls, resolution: int) -> "GridSet":
        return cls(resolution, np.ones(_shape(resolution, cls.ndim), dtype=bool))

    @classmethod
    def from_interval(cls, resolution: int, interval: DyadicInterval) -> "GridSet":
        return cls(resolution, interval.indicator(resolution))

    def __and__(self, other: "GridSet") -> "GridSet":
        check_same_grid(self, other)
        return type(self)(self.resolution, self.mask & other.mask)

    def __or__(self, other: "GridSet") -> "GridSet":
        check_same_grid(self, other)
        return type(self)(self.resolution, self.mask | other.mask)

    def __sub__(self, other: "GridSet") -> "GridSet":
        check_same_grid(self, other)
        return type(self)(self.resolution, self.mask & ~other.mask)

    def __invert__(self) -> "GridSet":
        return type(self)(self.resolution, ~self.mask)

    def indicator(self) -> GridSignal:
        return self.signal_type.indicator(self.resolution, self)


class GridSet2D(GridSet):
    """Boolean mask over the 2**L x 2**L cells of the unit square."""

    ndim = 2
    signal_type = Grid2D


def measure(s: GridSet) -> float:
    """Lebesgue measure of a line or plane set: true-cell count times the
    cell measure cell_width(L) ** ndim (an exact power of two)."""
    return int(np.count_nonzero(s.mask)) * cell_width(s.resolution) ** s.ndim


@dataclass(frozen=True, eq=False)
class VectorSignal:
    """Finite ordered family of signals at one resolution, stored as a matrix."""

    resolution: int
    stack: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_resolution(self.resolution)
        stack = np.asarray(self.stack, dtype=np.complex128)
        n = 1 << self.resolution
        if stack.ndim != 2 or stack.shape[1] != n or stack.shape[0] == 0:
            raise ValueError(f"expected nonempty (J, {n}) stack, got shape {stack.shape}")
        if not np.all(np.isfinite(stack.real)) or not np.all(np.isfinite(stack.imag)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "stack", stack)

    @classmethod
    def from_signals(cls, signals) -> "VectorSignal":
        signals = list(signals)
        if not signals:
            raise ValueError("vector signal needs at least one member")
        return cls(check_same_grid(*signals), np.vstack([s.values for s in signals]))

    def __len__(self) -> int:
        return self.stack.shape[0]

    def member(self, j: int) -> GridSignal:
        return GridSignal(self.resolution, self.stack[j])


def inner_product(f: GridSignal, g: GridSignal) -> complex:
    """sum over cells of f * conj(g) * cell measure, for two line or two
    plane signals; conjugation is on the second slot."""
    check_same_grid(f=f, g=g)
    return complex(np.sum(f.values * np.conj(g.values)) * cell_width(f.resolution) ** f.ndim)


def lp_norm(values, p: float, resolution: int) -> float:
    """(sum_i |v_i|**p * cell measure)**(1/p) over the cells of a line or
    plane grid, with cell measure cell_width(resolution) ** values.ndim;
    sup-norm when p is infinite."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    a = np.abs(np.asarray(values))
    if np.isinf(p):
        return float(a.max(initial=0.0))
    return float(np.sum(a**p) * cell_width(resolution) ** a.ndim) ** (1.0 / p)


def bundle_norm(stack, q: float, resolution: int) -> float:
    """L^q norm of the pointwise l2 bundle sqrt(sum_j |stack_j|**2) of a
    family stacked along the first axis."""
    return lp_norm(np.sqrt(np.sum(np.abs(stack) ** 2, axis=0)), q, resolution)


def interval_cutoff(interval: DyadicInterval, x, power: float = 1.0):
    """(1 + ((x - c(I)) / |I|)**2)**(-power/2); even about c(I), peak 1."""
    x = np.asarray(x, dtype=float)
    t = (x - interval.center) / interval.length
    out = (1.0 + t * t) ** (-0.5 * power)
    return float(out) if out.ndim == 0 else out
