"""Dyadic grids on the unit circle.

Everything downstream acts on functions and sets defined on the 2**L cells of
[0, 1).  Cell i covers [i * 2**-L, (i + 1) * 2**-L).  Measures, inner products
and norms carry the cell weight 2**-L, so counting-measure identities on the
grid reproduce the Lebesgue ones exactly (all quantities are dyadic rationals
in double precision).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_RESOLUTION = 12


def check_resolution(resolution) -> int:
    resolution = int(resolution)
    if not 0 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [0, {MAX_RESOLUTION}], got {resolution}")
    return resolution


def cell_width(resolution: int) -> float:
    return 2.0 ** -resolution


def cell_centers(resolution: int) -> np.ndarray:
    n = 1 << resolution
    return (np.arange(n) + 0.5) / n


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

    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        return (
            DyadicInterval(self.scale + 1, 2 * self.offset),
            DyadicInterval(self.scale + 1, 2 * self.offset + 1),
        )

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


def intervals_at_scale(scale: int):
    return (DyadicInterval(scale, n) for n in range(1 << scale))


def all_intervals(resolution: int):
    """All dyadic intervals of [0,1) down to single cells, coarse to fine."""
    for scale in range(resolution + 1):
        yield from intervals_at_scale(scale)


@dataclass(frozen=True)
class GridSignal:
    """Complex-valued function on the 2**resolution cells of [0, 1)."""

    resolution: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_resolution(self.resolution)
        values = np.asarray(self.values, dtype=np.complex128)
        n = 1 << self.resolution
        if values.shape != (n,):
            raise ValueError(f"expected {n} values, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, resolution: int) -> "GridSignal":
        return cls(resolution, np.zeros(1 << resolution, dtype=np.complex128))

    @classmethod
    def constant(cls, resolution: int, value=1.0) -> "GridSignal":
        return cls(resolution, np.full(1 << resolution, value, dtype=np.complex128))

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

    def abs(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass(frozen=True)
class GridSet:
    """Boolean mask over grid cells; measure is the cell count times 2**-L."""

    resolution: int
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_resolution(self.resolution)
        mask = np.asarray(self.mask, dtype=bool)
        n = 1 << self.resolution
        if mask.shape != (n,):
            raise ValueError(f"expected mask of {n} cells, got shape {mask.shape}")
        object.__setattr__(self, "mask", mask)

    @classmethod
    def empty(cls, resolution: int) -> "GridSet":
        return cls(resolution, np.zeros(1 << resolution, dtype=bool))

    @classmethod
    def full(cls, resolution: int) -> "GridSet":
        return cls(resolution, np.ones(1 << resolution, dtype=bool))

    @classmethod
    def from_interval(cls, resolution: int, interval: DyadicInterval) -> "GridSet":
        return cls(resolution, interval.indicator(resolution))

    def _check_mate(self, other: "GridSet"):
        if self.resolution != other.resolution:
            raise ValueError("resolution mismatch between grid sets")

    def __and__(self, other: "GridSet") -> "GridSet":
        self._check_mate(other)
        return GridSet(self.resolution, self.mask & other.mask)

    def __or__(self, other: "GridSet") -> "GridSet":
        self._check_mate(other)
        return GridSet(self.resolution, self.mask | other.mask)

    def __sub__(self, other: "GridSet") -> "GridSet":
        self._check_mate(other)
        return GridSet(self.resolution, self.mask & ~other.mask)

    def __invert__(self) -> "GridSet":
        return GridSet(self.resolution, ~self.mask)

    def indicator(self) -> GridSignal:
        return GridSignal.indicator(self.resolution, self)


def measure(s: GridSet) -> float:
    """Lebesgue measure of the set: true-cell count times the cell width."""
    return int(np.count_nonzero(s.mask)) * cell_width(s.resolution)


@dataclass(frozen=True)
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
        resolution = signals[0].resolution
        for s in signals:
            if s.resolution != resolution:
                raise ValueError("vector signal members must share one resolution")
        return cls(resolution, np.vstack([s.values for s in signals]))

    def __len__(self) -> int:
        return self.stack.shape[0]

    def member(self, j: int) -> GridSignal:
        return GridSignal(self.resolution, self.stack[j])

    def pointwise_l2(self) -> np.ndarray:
        """sqrt(sum_j |f_j|^2) cell by cell."""
        return np.sqrt(np.sum(np.abs(self.stack) ** 2, axis=0))


def inner_product(f: GridSignal, g: GridSignal) -> complex:
    """sum_i f_i * conj(g_i) * 2**-L; conjugation is on the second slot."""
    if f.resolution != g.resolution:
        raise ValueError("resolution mismatch in inner product")
    return complex(np.sum(f.values * np.conj(g.values)) * cell_width(f.resolution))


def lp_norm(f: GridSignal, p: float) -> float:
    """(sum_i |f_i|^p * 2**-L)**(1/p); sup-norm when p is infinite."""
    a = np.abs(f.values)
    if np.isinf(p):
        return float(a.max(initial=0.0))
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return float(np.sum(a**p) * cell_width(f.resolution)) ** (1.0 / p)


def array_lp_norm(values: np.ndarray, p: float, resolution: int) -> float:
    """lp_norm on a bare array; used where signals stay unwrapped."""
    a = np.abs(np.asarray(values))
    if np.isinf(p):
        return float(a.max(initial=0.0))
    return float(np.sum(a**p) * cell_width(resolution)) ** (1.0 / p)


def vector_lq_norm(fam: VectorSignal, q: float) -> float:
    """L^q norm of the pointwise l2 bundle (squares inside)."""
    return array_lp_norm(fam.pointwise_l2(), q, fam.resolution)


def interval_cutoff(interval: DyadicInterval, x, power: float = 1.0):
    """(1 + ((x - c(I)) / |I|)**2)**(-power/2); even about c(I), peak 1."""
    x = np.asarray(x, dtype=float)
    t = (x - interval.center) / interval.length
    out = (1.0 + t * t) ** (-0.5 * power)
    return float(out) if out.ndim == 0 else out
