"""Walsh phase-plane tiles, bi-tiles, trees, and the size/mass machinery.

A tile pairs a spatial dyadic interval of length 2**-k with a frequency
dyadic interval of length 2**k inside [0, 2**L); its packet is the
L2-normalized Walsh function of the frequency index, supported exactly on the
spatial interval.  Packets of disjoint tiles are exactly orthogonal, which is
what lets every estimate here be tested to machine precision.

Frequencies are integers: a choice function picks an integer frequency per
cell, and tree top frequencies are left endpoints of frequency cells.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DyadicInterval,
    GridSet,
    GridSignal,
    cell_width,
    check_resolution,
    check_same_grid,
    integer_entries,
    lp_norm,
    measure,
    ordered_sum,
    stack_slices,
)
from .maximal import Decomposition, bucket_decompose, dyadic_maximal
from .reports import ratio_report
from .walsh import (
    bit_reversal,
    block_gathers,
    butterfly_layout,
    butterfly_stages,
    butterfly_views,
)


@dataclass(frozen=True, order=True)
class FreqInterval:
    """Dyadic frequency interval [index * 2**bits, (index + 1) * 2**bits)."""

    bits: int
    index: int

    def __post_init__(self):
        if self.bits < 0 or self.index < 0:
            raise ValueError("frequency interval needs nonnegative bits and index")

    @property
    def lo(self) -> int:
        return self.index << self.bits

    @property
    def hi(self) -> int:
        return (self.index + 1) << self.bits

    @property
    def length(self) -> int:
        return 1 << self.bits

    def contains(self, other: "FreqInterval") -> bool:
        if other.bits > self.bits:
            return False
        return (other.index >> (self.bits - other.bits)) == self.index

    def contains_point(self, xi: int) -> bool:
        return self.lo <= xi < self.hi


@dataclass(frozen=True, order=True)
class Tile:
    """Spatial scale k, spatial offset n, frequency interval of length 2**k."""

    scale: int
    offset: int
    freq_index: int

    def __post_init__(self):
        if self.scale < 0 or not 0 <= self.offset < (1 << self.scale):
            raise ValueError("bad tile spatial data")
        if self.freq_index < 0:
            raise ValueError("bad tile frequency index")

    @property
    def spatial(self) -> DyadicInterval:
        return DyadicInterval(self.scale, self.offset)

    @property
    def freq(self) -> FreqInterval:
        return FreqInterval(self.scale, self.freq_index)

    def fits(self, resolution: int) -> bool:
        return self.scale <= resolution and self.freq.hi <= (1 << resolution)


@dataclass(frozen=True)
class BiTile:
    """Two frequency-sibling tiles over one spatial interval.

    The frequency interval has length 2**(scale+1); its dyadic children are
    the lower and upper tiles.  The partial order `P <= Q` means the spatial
    interval of P sits inside that of Q while the frequency interval of Q
    sits inside that of P.
    """

    scale: int
    offset: int
    freq_index: int

    def __post_init__(self):
        if self.scale < 0 or not 0 <= self.offset < (1 << self.scale):
            raise ValueError("bad bi-tile spatial data")
        if self.freq_index < 0:
            raise ValueError("bad bi-tile frequency index")

    @property
    def spatial(self) -> DyadicInterval:
        return DyadicInterval(self.scale, self.offset)

    @property
    def freq(self) -> FreqInterval:
        return FreqInterval(self.scale + 1, self.freq_index)

    @property
    def lower(self) -> Tile:
        return Tile(self.scale, self.offset, 2 * self.freq_index)

    @property
    def upper(self) -> Tile:
        return Tile(self.scale, self.offset, 2 * self.freq_index + 1)

    def fits(self, resolution: int) -> bool:
        return self.scale < resolution and self.freq.hi <= (1 << resolution)

    def __le__(self, other: "BiTile") -> bool:
        return other.spatial.contains(self.spatial) and self.freq.contains(other.freq)

    def __lt__(self, other: "BiTile") -> bool:
        return self != other and self <= other


def _mask_shape(resolution: int, scale: int) -> tuple[int, int]:
    return (1 << scale, 1 << (resolution - scale - 1))


def tile_slot(resolution: int, scale, offset, freq_index):
    """Position of the bi-tile (scale k, offset n, freq_index m) in a flat
    occupancy array: k 2**(L-1) + n 2**(L-k-1) + m, so row k of the
    (L, 2**(L-1)) array is scale k's (2**k, 2**(L-k-1)) mask flattened, and
    ascending slots are (k, n, m) order. Takes ints or integer arrays."""
    L = resolution
    return scale * ((1 << L) >> 1) + (offset << (L - 1 - scale)) + freq_index


@functools.cache
def term_tables(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The model sum's terms as read-only (2**L, L) tables, built once per
    resolution: at scale k, the term of frequency N at cell x is present
    when bit k of N, bits[N, k], is 1; its bi-tile, whose upper tile holds
    N, sits at `tile_slot` cell_slots[x, k] + freq_slots[N, k]; and
    signed[N & rev(x), k] is 2**k times its upper packet's sign W_{N >> k}
    at x's place u in its block, (-1)**popcount((N & rev(x)) >> k), since
    the block's bit reversal of u is rev(x) >> k.  `bits` and `signed` are
    int16; the four take 983,040 bytes at L = 12, written a scale at a
    time from int32 values, so that no temporary is as large as a table."""
    L, n = resolution, 1 << resolution
    values = np.arange(n, dtype=np.int32)
    tables = tuple(np.empty((n, L), dtype=dtype) for dtype in (np.int64, np.int64, np.int16, np.int16))
    for k in range(L):
        tables[0][:, k] = tile_slot(L, k, values >> (L - k), 0)
        tables[1][:, k] = values >> (k + 1)
        tables[2][:, k] = (values >> k) & 1
        tables[3][:, k] = (1 - 2 * (np.bitwise_count(values >> k) & 1).astype(np.int16)) << k
    for table in tables:
        table.setflags(write=False)
    return tables


@dataclass(frozen=True, eq=False)
class TileCollection:
    """Finite set of bi-tiles at one resolution.

    The members are stored only as one read-only boolean array `occupied`
    shaped (L, 2**(L-1)), set at each member's `tile_slot`; `masks` views
    row k as scale k's mask, shaped (2**k, 2**(L-k-1)) and indexed
    [offset, freq_index].
    """

    resolution: int
    occupied: np.ndarray = field(repr=False)

    def __post_init__(self):
        L = check_resolution(self.resolution)
        occupied = np.array(self.occupied, dtype=bool)
        if occupied.shape != (L, (1 << L) >> 1):
            raise ValueError(f"expected an occupancy array shaped {(L, (1 << L) >> 1)}, got {occupied.shape}")
        occupied.setflags(write=False)
        object.__setattr__(self, "occupied", occupied)

    @classmethod
    def from_masks(cls, resolution: int, masks) -> "TileCollection":
        """The collection with scale k's (2**k, 2**(L-k-1)) mask as row k."""
        L = check_resolution(resolution)
        if [np.shape(m) for m in masks] != (expected := [_mask_shape(L, k) for k in range(L)]):
            raise ValueError(f"expected occupancy masks shaped {expected}")
        return cls(L, np.concatenate([np.zeros(0, dtype=bool), *map(np.ravel, masks)]).reshape(L, (1 << L) >> 1))

    @classmethod
    def from_slots(cls, resolution: int, slots) -> "TileCollection":
        """The collection whose members sit at the given `tile_slot`s, each
        in range(L 2**(L-1))."""
        L = check_resolution(resolution)
        occupied = np.zeros((L, (1 << L) >> 1), dtype=bool)
        slots = integer_entries(slots, "slots")
        outside = slots[(slots < 0) | (slots >= occupied.size)]
        if outside.size:
            raise ValueError(f"slot {outside[0]} outside range({occupied.size}) at resolution {L}")
        occupied.reshape(-1)[slots] = True
        return cls(L, occupied)

    @classmethod
    def from_bitiles(cls, resolution: int, bitiles) -> "TileCollection":
        L = check_resolution(resolution)
        slots = []
        for p in bitiles:
            if not p.fits(L):
                raise ValueError(f"bi-tile {p} does not fit resolution {L}")
            slots.append(tile_slot(L, p.scale, p.offset, p.freq_index))
        return cls.from_slots(L, slots)

    @classmethod
    def all(cls, resolution: int) -> "TileCollection":
        return cls(resolution, np.ones((resolution, (1 << resolution) >> 1), dtype=bool))

    @classmethod
    def convex_closure(cls, resolution: int, seed) -> "TileCollection":
        return cls.from_masks(resolution, _hull(cls.from_bitiles(resolution, seed).masks))

    @functools.cached_property
    def masks(self) -> tuple[np.ndarray, ...]:
        """Per scale k, row k of `occupied` viewed as scale k's mask."""
        return tuple(row.reshape(_mask_shape(self.resolution, k)) for k, row in enumerate(self.occupied))

    @property
    def bitiles(self) -> frozenset[BiTile]:
        """The members as bi-tile objects, built from the occupancy array."""
        return frozenset(BiTile(*index) for index in member_indices(self.occupied))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.occupied))


def member_indices(occupied: np.ndarray):
    """(scale, offset, freq_index) of every set slot of an (L, 2**(L-1))
    occupancy array, as ints in ascending `tile_slot` order."""
    L = len(occupied)
    for k, row in enumerate(occupied):
        offsets, freqs = np.nonzero(row.reshape(_mask_shape(L, k)))
        yield from zip(itertools.repeat(k), offsets.tolist(), freqs.tolist())


def _hull(masks) -> tuple[np.ndarray, ...]:
    """Order-convex hull: every bi-tile R with P <= R <= Q for members P, Q,
    that is the down-set of the members intersected with their up-set.

    The bi-tiles directly below (offset n, freq f) at scale k are (2n, f >> 1)
    and (2n + 1, f >> 1) at scale k + 1, so one coarse-to-fine sweep builds
    the down-set and one fine-to-coarse sweep the up-set.
    """
    if not masks:
        return ()
    down = [masks[0]]
    for mask in masks[1:]:
        above = down[-1][:, 0::2] | down[-1][:, 1::2]
        down.append(mask | np.repeat(above, 2, axis=0))
    up = [masks[-1]]
    for mask in masks[-2::-1]:
        below = up[-1][0::2] | up[-1][1::2]
        up.append(mask | np.repeat(below, 2, axis=1))
    return tuple(d & u for d, u in zip(down, reversed(up)))


def collection_is_convex(masks) -> bool:
    """Whether per-scale occupancy masks hold every bi-tile between two of
    their members, i.e. equal their order-convex hull."""
    return all(np.array_equal(h, m) for h, m in zip(_hull(masks), masks))


@dataclass(frozen=True, eq=False)
class ChoiceFunction:
    """Cellwise constant integer frequency assignment N : cells -> [0, 2**L)."""

    resolution: int
    freqs: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_resolution(self.resolution)
        freqs = integer_entries(self.freqs, "frequencies")
        n = 1 << self.resolution
        if freqs.shape != (n,):
            raise ValueError(f"expected {n} frequency entries, got shape {freqs.shape}")
        if freqs.min(initial=0) < 0 or freqs.max(initial=0) >= n:
            raise ValueError("frequencies must lie in [0, 2**L)")
        object.__setattr__(self, "freqs", freqs)

    @classmethod
    def constant(cls, resolution: int, freq: int) -> "ChoiceFunction":
        return cls(resolution, np.full(1 << resolution, freq, dtype=np.int64))


# ---------------------------------------------------------------------------
# packets and transforms


@functools.cache
def packet_heights(resolution: int) -> np.ndarray:
    """2**(k/2), the height of a packet of scale k, for k = 0, ...,
    resolution, read-only. Each is Python's scalar pow, which numpy's
    vector power (SIMD on some CPUs) need not round the same, so every
    packet, coefficient and weight scales by the same bytes on any host."""
    heights = np.array([2.0 ** (k / 2.0) for k in range(resolution + 1)])
    heights.setflags(write=False)
    return heights


@functools.lru_cache(maxsize=64)
def _packet_layout(resolution: int, members: int) -> tuple:
    """The butterfly layout of the packet coefficients of an (m, 2**L)
    stack: the block of scale k of member i is row k m + i of 2**(L-1)
    half-block entries, scale-major, so the blocks are longest first and
    each stage runs on a prefix of the rows.

    Returns the stage-0 gathers `even` and `odd` into the flat stack, the
    stage lengths `active` of `butterfly_views`, and for each coefficient
    (k m + i) 2**(L-1) + j, its place `start` in the first buffer before
    stage 0 and its flat place `final` in the two buffers after the last
    stage of its row. The arrays are read-only and depend on (L, m)
    alone, so plans and `packet_sums` of one shape share them;
    the cache keeps 64 shapes."""
    L, n = resolution, 1 << resolution
    # a scale lies below L, so every block has an even length 2**(L-k) and
    # L-k-1 butterfly stages at half length
    order, start, active, final = butterfly_layout(tuple(L - 1 - k for k in range(L) for _ in range(members)), n >> 1)
    perm = (np.arange(members)[:, None] * n + block_gathers(L)[:, None, :]).ravel()
    even, odd = perm[0::2][order], perm[1::2][order]
    for a in (even, odd):
        a.setflags(write=False)
    return even, odd, active, start, final


def packet_sums(stack: np.ndarray, resolution: int) -> np.ndarray:
    """The raw Walsh sums of every bi-tile's lower packet, for each row of
    an (m, 2**L) stack of signals, as an (m, L, 2**(L-1)) array whose row
    i is in `tile_slot` order: [i, k, n 2**(L-k-1) + q] is <row i,
    packet(scale k, offset n, frequency index 2q)> over 2**(k/2) |cell|,
    a factor a model-sum term folds with its other packet's into 2**(k-L).
    The rows run through the `_packet_layout` of a plan, in the stacks
    `stack_slices` gives at L rows of 2**L cells a member, as the Krylov
    plans do, and every stack runs in one work buffer, allocated once per
    call for the largest; each scale's sums, in order, are those of a
    Walsh analysis of its blocks, so this is that transform's even
    entries, bit for bit. Real values give float64, others complex128."""
    L, n = resolution, 1 << resolution
    stack = np.asarray(stack)
    if stack.ndim != 2 or stack.shape[1] != n:
        raise ValueError(f"expected an (m, 2**{L}) stack of signals, got shape {stack.shape}")
    stack = stack.astype(np.float64 if np.isrealobj(stack) else np.complex128, copy=False)
    out = np.empty((len(stack), L, n >> 1), dtype=stack.dtype)
    slices = stack_slices(len(stack), max(L, 1) << L)
    # the first stack is the largest
    buffer = np.empty(2 * (slices[0].stop if slices else 0) * L * (n >> 1), dtype=stack.dtype)
    for s in slices:
        part = stack[s]
        even, odd, active, _, final = _packet_layout(L, len(part))
        flat = part.ravel()
        work = buffer[: 2 * even.size].reshape(2, even.size)
        np.add(np.take(flat, even, out=work[1]), flat[odd], work[0])
        butterfly_stages(butterfly_views(work, active))
        # the layout is scale-major, the output member-major
        out[s] = work.ravel()[final.reshape(L, len(part), n >> 1).swapaxes(0, 1)]
    return out


def _coefficients(collection: TileCollection, f: GridSignal) -> tuple[np.ndarray, ...]:
    """Every member's scale, offset and frequency index, in `tile_slot`
    order, and <f, lower-packet> at each, its `packet_sums` entry times
    2**(k/2) |cell|: the only place these inner products are formed."""
    L = check_same_grid(f=f, collection=collection)
    scale, within = np.nonzero(collection.occupied)
    bits = L - 1 - scale
    coef = packet_sums(f.values[None], L)[0, scale, within] * (packet_heights(L)[:L] * cell_width(L))[scale]
    return scale, within >> bits, within & ((1 << bits) - 1), coef


def member_coefficients(collection: TileCollection, f: GridSignal) -> dict[BiTile, complex]:
    """<f, lower-packet of P> for every member, via one all-scale transform,
    in `tile_slot` order."""
    scale, offset, freq, coef = (a.tolist() for a in _coefficients(collection, f))
    return dict(zip(map(BiTile, scale, offset, freq), coef))


def upper_cells(choices):
    """Every (member i, scale k < L, cell x) at which N_i(x) lies in the
    upper tile of a bi-tile, for choice functions at one resolution, by
    member, then scale, then cell, read from `term_tables`: the arrays i,
    k, x, the bi-tile's slot and W(x) = +-1, its upper packet's sign at x."""
    L = choices[0].resolution
    cell_slots, freq_slots, bits, signed = term_tables(L)
    freqs = np.stack([choice.freqs for choice in choices])
    member, scale, cell = np.nonzero(bits[freqs].transpose(0, 2, 1))
    freq = freqs[member, cell]
    slot = cell_slots[cell, scale] + freq_slots[freq, scale]
    sign = (signed[freq & bit_reversal(L)[cell], scale] >> scale).astype(np.float64)
    return member, scale, cell, slot, sign


class ModelSumPlan:
    """The model sum and its adjoint for a stack of choice functions over
    one tile collection, laid out once in the constructor, so that each
    apply is one stacked fast transform, gathers and sums.

    `ModelSumPlan(choices, collection)` has one member per choice, in
    order. `apply` and `adjoint` take and return a complex (m, 2**L) stack
    whose row i holds the cell values of member i; any other shape raises
    `ValueError`.

    At scale k, a cell x receives the term of the member P whose upper tile
    holds N(x), if there is one. The plan lists its terms from `upper_cells`,
    by member, then scale, then cell, each with its cell, the place of the
    lower-tile coefficient it reads in the `_packet_layout` of the stack's
    shape, and the factor W(x) 2**(k-L) of every model-sum term, which
    apply and adjoint share, so the plan gives the entries of
    `carleson.restricted_matrices` byte for byte on unit vectors.

    The layout holds every (scale, member) block of the stack, with terms
    or without, and plans of one shape share it. Each member's arithmetic
    and its order are those of its own per-scale evaluation, so outputs
    are equal bit for bit: every sum starts from zero and adds its terms
    by ascending scale, and within one scale by ascending cell. The sum
    reads only the lower-tile coefficients, at the even positions 2m of a
    block, so the layout keeps the half spectrum: position m of a
    half-length block. The butterflies run on one-dimensional views of two
    work buffers the plan owns, so a plan must not be applied from two
    threads at once; `apply` and `adjoint` return fresh arrays.
    """

    def __init__(self, choices, collection: TileCollection):
        L, n = collection.resolution, 1 << collection.resolution
        half = n >> 1
        if not choices:
            raise ValueError("a model-sum plan needs at least one choice function")
        check_same_grid(*choices, collection=collection)
        member, scale, cell, slot, sign = upper_cells(choices)
        present = collection.occupied.ravel()[slot]
        member, scale, cell, slot, sign = (a[present] for a in (member, scale, cell, slot, sign))
        self.resolution = L
        self._count = m = len(choices)
        self._even, self._odd, active, start, final = _packet_layout(L, m)
        size = self._even.size
        self._work = np.zeros(2 * size, dtype=np.complex128)
        buffers = self._work.reshape(2, size)
        self._start = buffers[0]
        self._stages = butterfly_views(buffers, active)
        # a term reads its slot's place in the scale's row of 2**(L-1) in
        # the layout's row k m + i, for scale k of member i
        coef = (scale * m + member) * half + (slot & (half - 1))
        self._coef_final = final[coef]
        self._hit = member * n + cell
        self._term_factor = np.ldexp(sign, scale - L)
        # bins 2i and 2i + 1 take the real and imaginary parts of a term for
        # bin i: one bincount over the terms' float view adds as two did
        self._hit_parts = (2 * self._hit[:, None] + np.arange(2)).ravel()
        self._coef_start_parts = (2 * start[coef][:, None] + np.arange(2)).ravel()
        # the adjoint's part k of member i is row k m + i, where full-length
        # position p of a block reads half position p >> 1
        rows = np.arange(L)[:, None, None] * m + np.arange(m)[:, None]
        self._gather = final[rows * half + (block_gathers(L)[:, None, :] >> 1)]

    def __len__(self) -> int:
        """The number of members, one per choice function."""
        return self._count

    def _stack(self, values: np.ndarray) -> np.ndarray:
        """The values as a complex128 (m, 2**L) stack, without a copy when
        they are one."""
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (self._count, 1 << self.resolution):
            raise ValueError(
                f"expected 2**{self.resolution} cell values for each of {self._count} members, "
                f"got shape {values.shape}"
            )
        return values

    def apply(self, f: np.ndarray) -> np.ndarray:
        """sum over members P of <f, packet(P1)> packet(P2)(x) 1{N(x) in freq(P2)}."""
        f = self._stack(f)
        flat = f.ravel()
        # per member and scale: the packet sums of f, as `packet_sums`
        # gives them, normalized by the terms' factor after the gather.
        # Butterfly stage 0 pairs the gathered entries 2i and 2i+1,
        # and its sums are the half spectrum's input
        np.add(flat[self._even], flat[self._odd], self._start)
        butterfly_stages(self._stages)
        terms = self._work[self._coef_final] * self._term_factor
        out = np.bincount(self._hit_parts, terms.view(np.float64), minlength=2 * f.size)
        return out.view(np.complex128).reshape(f.shape)

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """sum over P of <g, psi_P> packet(P1), where psi_P = packet(P2)
        restricted to the choice-function preimage."""
        terms = self._stack(g).ravel()[self._hit] * self._term_factor
        start = self._start.view(np.float64)
        start[:] = np.bincount(self._coef_start_parts, terms.view(np.float64), minlength=start.size)
        # the full transform would hold each coefficient c at an even
        # position beside a +0 at the odd one, and its stage 0 maps (c, +0)
        # to (c + 0, c - 0) = (c, c) exactly: x + 0 equals x for every x but
        # -0, and a bincount sum starts at +0 and never returns -0. Both
        # halves then run the same stages, so the full transform's entry p
        # is the half transform's entry p >> 1. A power of two scales the
        # terms as exactly before the stages' sums as after them
        butterfly_stages(self._stages)
        # the reduce over the outer axis adds the scale rows one after
        # another, in ascending scale order, onto +0. A row without terms
        # holds +0s, and adding +0 changes no value but -0, which a sum that
        # starts at +0 never becomes, so such rows leave every sum unchanged
        # bit for bit
        return np.add.reduce(self._work[self._gather], axis=0, initial=0.0)


def model_sum(f: GridSignal, choice: ChoiceFunction, collection: TileCollection) -> GridSignal:
    """sum over members P of <f, packet(P1)> packet(P2)(x) 1{N(x) in freq(P2)}.

    Each cell can receive at most one term per spatial scale, because the
    choice function pins down a single upper-half frequency interval there.
    Build a `ModelSumPlan` instead when applying one operator repeatedly.
    """
    return GridSignal(f.resolution, ModelSumPlan([choice], collection).apply(f.values[None])[0])


def adjoint_model_sum(g: GridSignal, choice: ChoiceFunction, collection: TileCollection) -> GridSignal:
    """Adjoint of the model sum: sum over P of <g, psi_P> packet(P1), where
    psi_P = packet(P2) restricted to the choice-function preimage."""
    return GridSignal(g.resolution, ModelSumPlan([choice], collection).adjoint(g.values[None])[0])


# ---------------------------------------------------------------------------
# trees, size and mass


@functools.lru_cache(maxsize=None)
def _tree_layout(resolution: int, top_scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Per offset of a top at scale s < L <= 12, the ascending slots under it
    with frequency index 0; and per slot, at scale k, the shift k + 1 that
    takes a top frequency to the slot's column."""
    L, s = resolution, top_scale
    scale = np.repeat(np.arange(s, L), 1 << np.arange(L - s))
    row = np.arange(scale.size) + 1 - (1 << (scale - s))
    slots = tile_slot(L, scale, (np.arange(1 << s)[:, None] << (scale - s)) + row, 0)
    slots.setflags(write=False)
    return slots, scale + 1


def _tree_slots(resolution: int, top: DyadicInterval, xi: int) -> np.ndarray:
    """Ascending slots of every bi-tile whose spatial interval lies in the top
    interval and whose frequency interval holds xi."""
    if top.scale >= resolution or not 0 <= xi < 1 << resolution:
        return np.zeros(0, dtype=np.int64)
    slots, shift = _tree_layout(resolution, top.scale)
    return slots[top.offset] + (xi >> shift)


@dataclass(frozen=True, eq=False)
class Tree:
    """Bi-tiles dominated by one top: spatial intervals inside the top
    interval, top frequency inside every member's frequency interval. The
    members are held only as their ascending `tile_slot`s at the resolution,
    that is in (k, n, m) order, in a read-only array: a subset of
    `_tree_slots(resolution, top_interval, top_freq)`. `from_members` builds
    a tree from a collection and checks that it is one; `members` builds
    the collection back on each call."""

    top_interval: DyadicInterval
    top_freq: int
    resolution: int
    slots: np.ndarray = field(repr=False)

    @classmethod
    def from_members(cls, top_interval: DyadicInterval, top_freq: int, members: TileCollection) -> "Tree":
        stray = members.occupied.copy()
        stray.reshape(-1)[_tree_slots(members.resolution, top_interval, top_freq)] = False
        if stray.any():
            k, offset, freq_index = next(member_indices(stray))
            p, s = BiTile(k, offset, freq_index), top_interval.scale
            if k < s or offset >> (k - s) != top_interval.offset:
                raise ValueError(f"member {p} escapes the top interval")
            raise ValueError(f"top frequency misses member {p}")
        slots = np.flatnonzero(members.occupied)
        slots.setflags(write=False)
        return cls(top_interval, top_freq, members.resolution, slots)

    @property
    def members(self) -> TileCollection:
        """The members as a collection, built on each call."""
        return TileCollection.from_slots(self.resolution, self.slots)

    @property
    def top_measure(self) -> float:
        return self.top_interval.length


class _SizeTable:
    """Covering weights of every admissible top of a collection's members.

    An entry is one (member P, ancestor top I) pair: members in `tile_slot`
    order, then ancestor scales s = 0..k. It carries the weight
    w = |<f, P1>|**2 of its member on the upper frequency interval
    [lo, hi) = [(2m+1) 2**k, (2m+2) 2**k). Every endpoint of an entry whose
    top has scale s is a multiple of 2**s, so the tops at scale s share one
    block shaped (2**s, 2**(L-s) + 1), row the top's offset and column c
    standing for xi = c * 2**s; the blocks lie one after another in one flat
    array. `_summed` scatter-adds +w at lo and -w at hi, entry by entry, and
    `_block` takes the running sum along each row of one block: at column c
    it holds the total weight of the top's entries whose interval covers xi.

    Results equal bit for bit those of accumulating the events per endpoint
    and walking the endpoints in ascending order, one top at a time (the
    reference in the tests): each endpoint receives its additions in entry
    order, starting from zero, and a column that is no endpoint adds an
    exact zero. For the same reason the weights are Python floats, abs of
    the Python complex gathered from the packet transforms, squared; numpy's
    `np.abs(c) ** 2` rounds differently.

    A block's running sums read only that block's events, so a scan that
    stops at the first scale with a hit (`first_exceeding`) and the blocks
    over every entry kept from the first call (`full`) give the same bits
    as summing every block afresh.

    A member's weight and entries do not depend on the members around it, so
    the table of a sub-collection is this table with only that
    sub-collection's entries, in the same order (`restricted`); it sums its
    own full blocks.

    Both `restricted` and a scan over the remaining members pick entries
    with `a.compress(keep, axis=0)`: the same rows, in the same order, as
    `a[keep]`, so every key meets its events in the same order, but without
    the cost of boolean row indexing of the (E, 2) arrays (at L=8, E =
    4,608: 3.7 us per array against 22-25 us on a 2-core EPYC). Most scans
    hit at scale 0 and cost a few numpy calls, not a pass over the data, so
    the scan calls the ndarray methods itself and finds its first hit with
    one `argmax` of the comparison.
    """

    def __init__(self, collection: TileCollection, f: GridSignal):
        L = collection.resolution
        scale, offset, freq, coef = _coefficients(collection, f)
        weights = [abs(c) ** 2 for c in coef.tolist()]
        widths = np.array([(1 << (L - s)) + 1 for s in range(L)], dtype=np.int64)
        bases = np.concatenate([[0], np.cumsum(widths << np.arange(L))])
        reps = scale + 1
        member = np.repeat(np.arange(scale.size), reps)
        s = np.arange(member.size) - np.repeat(np.cumsum(reps) - reps, reps)
        shift = scale[member] - s
        row = bases[s] + (offset[member] >> shift) * widths[s]
        lo = row + ((2 * freq[member] + 1) << shift)
        w = np.array(weights, dtype=np.float64)[member]
        self._slots = np.flatnonzero(collection.occupied)[member]
        # interleaved per entry: (lo, +w), (hi, -w)
        self._keys = np.stack([lo, lo + (1 << shift)], axis=1)
        self._weights = np.stack([w, -w], axis=1)
        self._bases, self._widths = bases.tolist(), widths.tolist()
        self._full = None

    def restricted(self, collection: TileCollection) -> "_SizeTable":
        """The table of a sub-collection: the entries of its members, in the
        same order."""
        keep = collection.occupied.ravel()[self._slots]
        sub = copy.copy(self)
        entries = self._slots, self._keys, self._weights
        sub._slots, sub._keys, sub._weights = (a.compress(keep, axis=0) for a in entries)
        sub._full = None
        return sub

    def _summed(self, keep=None) -> np.ndarray:
        """The flat float array of per-endpoint event sums over the entries
        selected by the boolean array `keep` (default: every entry); with no
        entry `bincount` gives integers."""
        keys, weights = self._keys, self._weights
        if keep is not None:
            keys, weights = keys.compress(keep, axis=0), weights.compress(keep, axis=0)
        flat = np.bincount(keys.ravel(), weights.ravel(), minlength=self._bases[-1])
        return flat.astype(np.float64, copy=False)

    def _block(self, flat: np.ndarray, s: int) -> np.ndarray:
        """Scale s's block of `flat`, running-summed along each row in place."""
        block = flat[self._bases[s] : self._bases[s + 1]].reshape(1 << s, self._widths[s])
        block.cumsum(axis=1, out=block)
        return block

    def full(self) -> tuple[list[np.ndarray], float]:
        """The read-only blocks over every entry, and their peak: the max
        over tops and xi of the covering weight over the top length. Built
        on the first call and kept; `size` and `size_decompose` share them."""
        if self._full is None:
            flat, blocks, peak = self._summed(), [], 0.0
            for s in range(len(self._widths)):
                block = self._block(flat, s)
                block.setflags(write=False)
                blocks.append(block)
                peak = max(peak, float(block.max()) / 2.0**-s)
            self._full = blocks, peak
        return self._full

    def first_exceeding(self, thr: float, present=None) -> tuple[DyadicInterval, int] | None:
        """The first top in (scale, offset) order, and its lowest xi, at which
        the covering weight over the entries whose member is set in
        `present`, a flat occupancy array (default: every entry, from the
        kept blocks), exceeds thr**2 times the top length. Each scale is
        summed only when the scan reaches it."""
        cap = thr * thr
        if present is None:
            blocks = self.full()[0]
        else:
            flat = self._summed(present.take(self._slots))
        for s in range(len(self._widths)):
            block = blocks[s] if present is None else self._block(flat, s)
            hit = block > cap * 2.0**-s
            first = int(hit.argmax())
            if hit.item(first):
                offset, col = divmod(first, block.shape[1])
                return DyadicInterval(s, offset), col << s
        return None


def size(collection: TileCollection, f: GridSignal, table: _SizeTable | None = None) -> float:
    """Largest normalized l2 coefficient mass over 2-overlapping trees:
    max over tops (I_T, xi) of ((1/|I_T|) sum over members with spatial
    interval in I_T and xi in the upper frequency half of |<f, P1>|^2)**0.5.

    `table` is the collection's size table for f, built here when omitted.
    """
    table = _SizeTable(collection, f) if table is None else table
    return math.sqrt(table.full()[1])


def member_mass_table(collection: TileCollection, e: GridSet, choice: ChoiceFunction) -> np.ndarray:
    """|E ∩ {N in freq(P)} ∩ I_P| / |I_P| at each member P's slot, zero
    elsewhere: an array shaped like the collection's `occupied`."""
    L = check_same_grid(collection=collection, e=e, choice=choice)
    cell_slots, freq_slots, _, _ = term_tables(L)
    cells = np.flatnonzero(e.mask)
    slots = cell_slots[cells] + freq_slots[choice.freqs[cells]]
    counts = np.bincount(slots.ravel(), minlength=collection.occupied.size).reshape(collection.occupied.shape)
    return np.where(collection.occupied, counts * 2.0 ** (np.arange(L)[:, None] - L), 0.0)


def _restricted_masses(table: np.ndarray, collection: TileCollection) -> np.ndarray:
    """The member mass table of a sub-collection, from that of a collection
    holding it: a member's density does not depend on the other members."""
    return np.where(collection.occupied, table, 0.0)


def mass(collection: TileCollection, e: GridSet, choice: ChoiceFunction, table: np.ndarray | None = None) -> float:
    """max over members of the stopping density |E_P ∩ I_P| / |I_P|.

    `table` is the collection's `member_mass_table`, built here when omitted.
    """
    table = member_mass_table(collection, e, choice) if table is None else table
    return float(table.max(initial=0.0))


def _sup_of_interval_min(collection: TileCollection, values: np.ndarray) -> float:
    """sup over members P of min over the cells of I_P of the values."""
    mins = (values.reshape(1 << k, -1).min(axis=1)[mask.any(axis=1)] for k, mask in enumerate(collection.masks))
    return max((float(m.max()) for m in mins if m.size), default=0.0)


def size_bound(collection: TileCollection, f: GridSignal) -> float:
    """sup over members of inf over the spatial interval of M f; the computed
    size never exceeds sqrt(L + 1) times this quantity."""
    return _sup_of_interval_min(collection, dyadic_maximal(f).values.real)


def mass_bound(collection: TileCollection, e: GridSet) -> float:
    """sup over members of inf over the spatial interval of M 1_E; the
    computed mass never exceeds this quantity."""
    return _sup_of_interval_min(collection, dyadic_maximal(e.indicator()).values.real)


# ---------------------------------------------------------------------------
# greedy decompositions


@dataclass
class DecompositionStats:
    initial: float
    threshold: float
    tops_length: float
    trees: int
    counting_constant: float


def _check_threshold(threshold: float | None) -> None:
    if threshold is not None and not threshold >= 0.0:
        raise ValueError(f"threshold must be a non-negative number, got {threshold!r}")


def _take_tree(present: np.ndarray, resolution: int, top: DyadicInterval, xi: int) -> Tree:
    """Clear from the flat occupancy array `present`, and return as a tree,
    every member whose spatial interval lies in the top interval and whose
    frequency interval contains xi."""
    slots = _tree_slots(resolution, top, xi)
    slots = slots.compress(present.take(slots))
    present[slots] = False
    slots.setflags(write=False)
    return Tree(top, xi, resolution, slots)


def size_decompose(
    collection: TileCollection,
    f: GridSignal,
    threshold: float | None = None,
    table: _SizeTable | None = None,
) -> tuple[TileCollection, list[Tree], DecompositionStats]:
    """Split off a forest of trees so the remainder has size at most the
    threshold (default: half the input size).

    Tops exceeding the threshold are selected largest interval first, ties
    leftmost then lowest frequency; each selection removes the full
    1-overlapping tree under its top, which keeps the remainder convex.
    `table` is the collection's size table for f, built here when omitted;
    the first scan reads its full blocks, and each scan after a removal sums
    the weights of its entries whose member remains.
    """
    _check_threshold(threshold)
    table = _SizeTable(collection, f) if table is None else table
    sigma = math.sqrt(table.full()[1])
    thr = sigma / 2.0 if threshold is None else threshold
    present = collection.occupied.flatten()
    forest: list[Tree] = []
    tops_length = 0.0

    selection = table.first_exceeding(thr)
    while selection is not None:
        top, xi = selection
        forest.append(_take_tree(present, collection.resolution, top, xi))
        tops_length += top.length
        selection = table.first_exceeding(thr, present)

    norm_sq = lp_norm(f.values, 2.0, f.resolution) ** 2
    constant = tops_length * sigma**2 / norm_sq if norm_sq > 0 else 0.0
    stats = DecompositionStats(sigma, thr, tops_length, len(forest), constant)
    return TileCollection(collection.resolution, present.reshape(collection.occupied.shape)), forest, stats


def mass_decompose(
    collection: TileCollection,
    e: GridSet,
    choice: ChoiceFunction,
    threshold: float | None = None,
    table: np.ndarray | None = None,
) -> tuple[TileCollection, list[Tree], DecompositionStats]:
    """Split off trees topped by heavy bi-tiles so the remainder has mass at
    most the threshold (default: half the input mass).

    Heavy bi-tiles are taken largest interval first; removing the full order
    down-set under each selected top keeps the remainder convex and makes the
    selected tops pairwise incomparable, which gives the counting bound
    sum |I_T| <= |E| / threshold exactly. `table` is the collection's
    `member_mass_table`, built here when omitted.
    """
    _check_threshold(threshold)
    table = member_mass_table(collection, e, choice) if table is None else table
    mu = float(table.max(initial=0.0))
    thr = mu / 2.0 if threshold is None else threshold
    L = collection.resolution
    present = collection.occupied.flatten()
    forest: list[Tree] = []
    tops_length = 0.0

    for k, offset, freq_index in member_indices(collection.occupied & (table > thr)):
        if not present[tile_slot(L, k, offset, freq_index)]:
            continue
        # the members below a top are the tree under its interval and its
        # lowest frequency
        top = DyadicInterval(k, offset)
        forest.append(_take_tree(present, L, top, freq_index << (k + 1)))
        tops_length += top.length

    e_measure = measure(e)
    constant = tops_length * mu / e_measure if e_measure > 0 else 0.0
    stats = DecompositionStats(mu, thr, tops_length, len(forest), constant)
    return TileCollection(L, present.reshape(collection.occupied.shape)), forest, stats


def full_decompose(
    collection: TileCollection,
    f: GridSignal,
    e: GridSet,
    choice: ChoiceFunction,
) -> Decomposition:
    """Iterate the size and mass splittings into (n, m) buckets of trees with
    certified caps size <= 2**-n and mass <= 2**-m, by `bucket_decompose`;
    bi-tiles with zero size and mass contribute nothing to any pairing and
    are the remainder.

    The size and mass tables are built once, for the whole collection; each
    collection met is given its tables restricted from those, which is bit
    for bit the same as building them for it. A bucket measures and splits
    one collection by size, so its restricted size table, with its full
    blocks and peak, is kept for the split.
    """
    sizes = _SizeTable(collection, f)
    masses = member_mass_table(collection, e, choice)
    size_table = functools.lru_cache(maxsize=1)(sizes.restricted)
    return bucket_decompose(
        collection,
        f,
        e,
        size=lambda c: size(c, f, size_table(c)),
        mass=lambda c: mass(c, e, choice, _restricted_masses(masses, c)),
        split_size=lambda c, thr: size_decompose(c, f, thr, size_table(c))[:2],
        split_mass=lambda c, thr: mass_decompose(c, e, choice, thr, _restricted_masses(masses, c))[:2],
    )


def member_weights(collection: TileCollection, f: GridSignal, per_slot: np.ndarray) -> np.ndarray:
    """|<f, P1>| 2**(k/2) per_slot[s], that is |`packet_sums` entry|
    2**(k-L) per_slot[s], at the slot s of every member P, at scale k, and
    zero elsewhere, as a flat array."""
    L = check_same_grid(f=f, collection=collection)
    factors = np.where(collection.occupied, np.ldexp(1.0, np.arange(L) - L)[:, None], 0.0)
    return (np.abs(packet_sums(f.values[None], L)[0]) * factors).ravel() * per_slot


def tree_estimate(
    tree: Tree,
    f: GridSignal,
    e: GridSet,
    choice: ChoiceFunction,
) -> dict:
    """Single tree estimate: the absolute coefficient pairing against
    |I_T| * size(tree) * mass(tree). A member's pairing is 2**(k/2) |cell|
    times the count of the cells of E whose N(x) lies in its upper tile,
    each signed by the upper packet; one `bincount` gives every count."""
    L = check_same_grid(tree=tree, f=f, e=e, choice=choice)
    collection = tree.members
    _, _, cell, slot, sign = upper_cells([choice])
    hit = e.mask[cell]
    signed = np.bincount(slot[hit], sign[hit], minlength=collection.occupied.size)
    lhs = ordered_sum(member_weights(collection, f, np.abs(signed) * cell_width(L))[tree.slots])
    tree_size = size(collection, f)
    tree_mass = mass(collection, e, choice)
    rhs = tree.top_measure * tree_size * tree_mass
    return ratio_report(lhs, rhs, size=tree_size, mass=tree_mass, top_length=tree.top_measure)
