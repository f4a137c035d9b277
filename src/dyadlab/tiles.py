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

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DyadicInterval,
    GridSet,
    GridSignal,
    cell_width,
    check_resolution,
    lp_norm,
    measure,
)
from .maximal import dyadic_maximal, next_class
from .reports import RatioReport
from .walsh import (
    bit_reversal,
    block_hadamard,
    walsh_analysis,
    walsh_synthesis,
    walsh_values,
    walsh_values_at,
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

    def __ge__(self, other: "BiTile") -> bool:
        return other <= self

    def __gt__(self, other: "BiTile") -> bool:
        return other < self


def all_bitiles(resolution: int) -> list[BiTile]:
    out = []
    for scale in range(resolution):
        for offset in range(1 << scale):
            for freq_index in range(1 << (resolution - scale - 1)):
                out.append(BiTile(scale, offset, freq_index))
    return out


def _mask_shape(resolution: int, scale: int) -> tuple[int, int]:
    return (1 << scale, 1 << (resolution - scale - 1))


@dataclass(frozen=True, eq=False)
class TileCollection:
    """Finite set of bi-tiles at one resolution, with a convexity flag.

    The members are stored only as one read-only boolean occupancy mask per
    scale k < L, shaped (2**k, 2**(L-k-1)) and indexed [offset, freq_index].
    """

    resolution: int
    masks: tuple[np.ndarray, ...] = field(repr=False)
    convex: bool = False

    def __post_init__(self):
        check_resolution(self.resolution)
        masks = tuple(np.array(m, dtype=bool) for m in self.masks)
        expected = [_mask_shape(self.resolution, k) for k in range(self.resolution)]
        if [m.shape for m in masks] != expected:
            raise ValueError(f"expected occupancy masks shaped {expected}")
        for m in masks:
            m.setflags(write=False)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def from_bitiles(cls, resolution: int, bitiles) -> "TileCollection":
        masks = _masks_of(resolution, bitiles)
        return cls(resolution, masks, collection_is_convex(masks))

    @classmethod
    def all(cls, resolution: int) -> "TileCollection":
        shapes = (_mask_shape(resolution, k) for k in range(resolution))
        return cls(resolution, tuple(np.ones(shape, dtype=bool) for shape in shapes), convex=True)

    @classmethod
    def convex_closure(cls, resolution: int, seed) -> "TileCollection":
        return cls(resolution, _hull(_masks_of(resolution, seed)), convex=True)

    @property
    def bitiles(self) -> frozenset[BiTile]:
        """The members as bi-tile objects, built from the masks."""
        return frozenset(_members(self.masks))

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(m)) for m in self.masks)


def _masks_of(resolution: int, bitiles) -> list[np.ndarray]:
    check_resolution(resolution)
    masks = [np.zeros(_mask_shape(resolution, k), dtype=bool) for k in range(resolution)]
    for p in bitiles:
        if not p.fits(resolution):
            raise ValueError(f"bi-tile {p} does not fit resolution {resolution}")
        masks[p.scale][p.offset, p.freq_index] = True
    return masks


def _members(masks):
    """Members of per-scale masks as bi-tiles, in `bitile_key` order."""
    for k, mask in enumerate(masks):
        for offset, freq_index in zip(*np.nonzero(mask)):
            yield BiTile(k, int(offset), int(freq_index))


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


@dataclass(frozen=True)
class ChoiceFunction:
    """Cellwise constant integer frequency assignment N : cells -> [0, 2**L)."""

    resolution: int
    freqs: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_resolution(self.resolution)
        freqs = np.asarray(self.freqs, dtype=np.int64)
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


def walsh_packet(tile: Tile, resolution: int) -> GridSignal:
    """L2-normalized Walsh wave packet of the tile: supported on the spatial
    interval, Walsh spectrum exactly the frequency interval, norm one."""
    if not tile.fits(resolution):
        raise ValueError(f"tile {tile} does not fit resolution {resolution}")
    L = resolution
    k = tile.scale
    values = np.zeros(1 << L, dtype=np.complex128)
    block = walsh_values(tile.freq_index, L - k) * 2.0 ** (k / 2.0)
    values[tile.spatial.cell_slice(L)] = block
    return GridSignal(L, values)


def packet_coefficients(values: np.ndarray, resolution: int, scale: int) -> np.ndarray:
    """coef[n, q] = <values, packet(scale, n, q)> for every offset and tile
    frequency index at the given spatial scale."""
    L, k = resolution, scale
    blocks = np.asarray(values).reshape(1 << k, 1 << (L - k))
    return walsh_analysis(blocks, axis=1) * (2.0 ** (k / 2.0) * cell_width(L))


def packet_synthesis(coeffs: np.ndarray, resolution: int, scale: int) -> np.ndarray:
    """sum over (n, q) of coeffs[n, q] * packet(scale, n, q), as cell values."""
    L, k = resolution, scale
    blocks = walsh_synthesis(np.asarray(coeffs), axis=1) * (2.0 ** (k / 2.0))
    return blocks.reshape(1 << L)


def bitile_key(p: BiTile) -> tuple[int, int, int]:
    """Deterministic total order used wherever bi-tiles are enumerated."""
    return (p.scale, p.offset, p.freq_index)


def member_coefficients(collection: TileCollection, f: GridSignal) -> dict[BiTile, complex]:
    """<f, lower-packet of P> for every member, via per-scale fast transforms,
    in `bitile_key` order."""
    if f.resolution != collection.resolution:
        raise ValueError("resolution mismatch")
    out: dict[BiTile, complex] = {}
    for k, mask in enumerate(collection.masks):
        if not mask.any():
            continue
        coef = packet_coefficients(f.values, f.resolution, k)
        for offset, freq_index in zip(*np.nonzero(mask)):
            out[BiTile(k, int(offset), int(freq_index))] = complex(coef[offset, 2 * freq_index])
    return out


def _joined(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


class ModelSumPlan:
    """The model sum and its adjoint for one (choice, collection), with
    everything that depends only on those two computed once, so that each
    apply is one stacked fast transform, gathers and sums.

    At scale k, a cell x receives the term of the member P whose upper tile
    holds N(x), if there is one: P sits at offset n = x >> (L - k) and
    frequency index m = N(x) >> (k + 1), and N(x) >> k must be odd. Per
    scale with at least one such cell the plan keeps one row of a stack of
    packet-coefficient blocks, shaped (2**k, 2**(L-k)) and flattened, and
    for the cells it hits: the cells, the flat indices n * 2**(L-k) + 2m of
    their lower-tile coefficients in the stack, and the upper-packet values
    2**(k/2) W(x) there. The arithmetic and its order are those of the
    per-scale evaluation, so outputs are equal bit for bit: every sum starts
    from zero and adds its terms by ascending scale, and within one scale by
    ascending cell.
    """

    def __init__(self, choice: ChoiceFunction, collection: TileCollection):
        L = collection.resolution
        if choice.resolution != L:
            raise ValueError("resolution mismatch")
        self.resolution = L
        cells = np.arange(1 << L)
        bits, factors, perms, hits, coef_index, norms, uppers = [], [], [], [], [], [], []
        for k, present in enumerate(collection.masks):
            tile_idx = choice.freqs >> k
            m = tile_idx >> 1
            n = cells >> (L - k)
            hit = np.flatnonzero(((tile_idx & 1) == 1) & present[n, m])
            if not hit.size:
                continue
            row = len(bits) << L
            within = (1 << (L - k)) - 1
            factor = 2.0 ** (k / 2.0)
            bits.append(L - k)
            factors.append(factor)
            # bit reversal within each block, the gather of walsh_analysis
            perms.append((cells & ~within) + bit_reversal(L - k)[cells & within])
            hits.append(hit)
            coef_index.append(row + (n[hit] << (L - k)) + 2 * m[hit])
            norms.append(np.full(hit.size, factor * cell_width(L)))
            # the signs are +-1, so one multiply by factor * sign equals the
            # two multiplies, by the factor and then the sign
            uppers.append(factor * walsh_values_at(2 * m[hit] + 1, hit & within, L - k))
        self._bits = tuple(bits)
        self._perm = _joined(perms, np.int64)
        self._stack_perm = self._perm + np.repeat(np.arange(len(bits)) << L, 1 << L)
        self._hit = _joined(hits, np.int64)
        self._coef_index = _joined(coef_index, np.int64)
        self._norm = _joined(norms, np.float64)
        self._upper = _joined(uppers, np.float64)
        self._factor = np.array(factors).reshape(-1, 1)

    def _check(self, f: GridSignal) -> int:
        if f.resolution != self.resolution:
            raise ValueError("resolution mismatch")
        return f.resolution

    def apply(self, f: GridSignal) -> GridSignal:
        """sum over members P of <f, packet(P1)> packet(P2)(x) 1{N(x) in freq(P2)}."""
        L = self._check(f)
        n = 1 << L
        # per scale: the packet coefficients of f, up to the normalization
        # that packet_coefficients applies, here after the gather
        stack = f.values[self._perm].reshape(-1, n)
        coef = block_hadamard(stack, self._bits).ravel()[self._coef_index] * self._norm
        terms = coef * self._upper
        out = np.empty(n, dtype=np.complex128)
        out.real = np.bincount(self._hit, terms.real, minlength=n)
        out.imag = np.bincount(self._hit, terms.imag, minlength=n)
        return GridSignal(L, out)

    def adjoint(self, g: GridSignal) -> GridSignal:
        """sum over P of <g, psi_P> packet(P1), where psi_P = packet(P2)
        restricted to the choice-function preimage."""
        L = self._check(g)
        n = 1 << L
        terms = g.values[self._hit] * self._upper * cell_width(L)
        size = len(self._bits) << L
        coef = np.empty(size, dtype=np.complex128)
        coef.real = np.bincount(self._coef_index, terms.real, minlength=size)
        coef.imag = np.bincount(self._coef_index, terms.imag, minlength=size)
        stack = block_hadamard(coef.reshape(-1, n), self._bits)
        parts = stack.ravel()[self._stack_perm].reshape(-1, n) * self._factor
        out = np.zeros(n, dtype=np.complex128)
        for part in parts:
            out += part
        return GridSignal(L, out)


def model_sum(f: GridSignal, choice: ChoiceFunction, collection: TileCollection) -> GridSignal:
    """sum over members P of <f, packet(P1)> packet(P2)(x) 1{N(x) in freq(P2)}.

    Each cell can receive at most one term per spatial scale, because the
    choice function pins down a single upper-half frequency interval there.
    Build a `ModelSumPlan` instead when applying one operator repeatedly.
    """
    return ModelSumPlan(choice, collection).apply(f)


def adjoint_model_sum(g: GridSignal, choice: ChoiceFunction, collection: TileCollection) -> GridSignal:
    """Adjoint of the model sum: sum over P of <g, psi_P> packet(P1), where
    psi_P = packet(P2) restricted to the choice-function preimage."""
    return ModelSumPlan(choice, collection).adjoint(g)


# ---------------------------------------------------------------------------
# trees, size and mass


@dataclass(frozen=True)
class Tree:
    """Bi-tiles dominated by one top: spatial intervals inside the top
    interval, top frequency inside every member's frequency interval."""

    top_interval: DyadicInterval
    top_freq: int
    members: frozenset[BiTile]

    def __post_init__(self):
        for p in self.members:
            if not self.top_interval.contains(p.spatial):
                raise ValueError(f"member {p} escapes the top interval")
            if not p.freq.contains_point(self.top_freq):
                raise ValueError(f"top frequency misses member {p}")

    @property
    def top_length(self) -> float:
        return self.top_interval.length


def _top_tables(members_with_weight) -> dict[DyadicInterval, list[tuple[int, int, float]]]:
    """Group (upper-frequency interval, weight) by every admissible top interval."""
    tables: dict[DyadicInterval, list[tuple[int, int, float]]] = {}
    for p, w in members_with_weight:
        upper = p.upper.freq
        for s in range(p.scale + 1):
            top = p.spatial.ancestor(s)
            tables.setdefault(top, []).append((upper.lo, upper.hi, w))
    return tables


def _covering_weights(entries):
    """(xi, total weight of the entries whose interval covers xi) at every
    interval endpoint xi, in ascending order of xi."""
    events: dict[int, float] = {}
    for lo, hi, w in entries:
        events[lo] = events.get(lo, 0.0) + w
        events[hi] = events.get(hi, 0.0) - w
    running = 0.0
    for xi in sorted(events):
        running += events[xi]
        yield xi, running


def size(collection: TileCollection, f: GridSignal) -> float:
    """Largest normalized l2 coefficient mass over 2-overlapping trees:
    max over tops (I_T, xi) of ((1/|I_T|) sum over members with spatial
    interval in I_T and xi in the upper frequency half of |<f, P1>|^2)**0.5.
    """
    coeffs = member_coefficients(collection, f)
    weighted = [(p, abs(c) ** 2) for p, c in coeffs.items()]
    best = 0.0
    for top, entries in _top_tables(weighted).items():
        value = max(w for _, w in _covering_weights(entries))
        best = max(best, value / top.length)
    return math.sqrt(best)


def member_mass_table(collection: TileCollection, e: GridSet, choice: ChoiceFunction) -> tuple[np.ndarray, ...]:
    """Per scale k, the array over [offset, freq_index] of
    |E ∩ {N in freq(P)} ∩ I_P| / |I_P| at members P, zero elsewhere."""
    L = collection.resolution
    cells = np.arange(1 << L)
    out = []
    for k, mask in enumerate(collection.masks):
        counts = np.zeros(_mask_shape(L, k), dtype=np.int64)
        n = cells >> (L - k)
        t = choice.freqs >> (k + 1)
        np.add.at(counts, (n[e.mask], t[e.mask]), 1)
        out.append(np.where(mask, counts * 2.0 ** (k - L), 0.0))
    return tuple(out)


def mass(collection: TileCollection, e: GridSet, choice: ChoiceFunction) -> float:
    """max over members of the stopping density |E_P ∩ I_P| / |I_P|."""
    table = member_mass_table(collection, e, choice)
    return max((float(t.max()) for t in table), default=0.0)


def _sup_of_interval_min(collection: TileCollection, values: np.ndarray) -> float:
    """sup over members P of min over the cells of I_P of the values."""
    L = collection.resolution
    best = 0.0
    for k, mask in enumerate(collection.masks):
        occupied = mask.any(axis=1)
        if occupied.any():
            mins = values.reshape(1 << k, 1 << (L - k)).min(axis=1)
            best = max(best, float(mins[occupied].max()))
    return best


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


def _take_tree(masks: list[np.ndarray], top: DyadicInterval, xi: int) -> frozenset[BiTile]:
    """Clear from the per-scale masks, and return, every member whose spatial
    interval lies in the top interval and whose frequency interval contains
    xi: at each scale k those sit in one column, xi >> (k + 1)."""
    picked = []
    for k in range(top.scale, len(masks)):
        rows = slice(top.offset << (k - top.scale), (top.offset + 1) << (k - top.scale))
        col = xi >> (k + 1)
        hits = np.flatnonzero(masks[k][rows, col])
        picked.extend(BiTile(k, rows.start + int(i), col) for i in hits)
        masks[k][rows, col] = False
    return frozenset(picked)


def size_decompose(
    collection: TileCollection,
    f: GridSignal,
    threshold: float | None = None,
) -> tuple[TileCollection, list[Tree], DecompositionStats]:
    """Split off a forest of trees so the remainder has size at most the
    threshold (default: half the input size).

    Tops exceeding the threshold are selected largest interval first, ties
    leftmost then lowest frequency; each selection removes the full
    1-overlapping tree under its top, which keeps the remainder convex.
    """
    sigma = size(collection, f)
    thr = sigma / 2.0 if threshold is None else threshold
    current = [m.copy() for m in collection.masks]
    coeffs = member_coefficients(collection, f)
    forest: list[Tree] = []
    tops_length = 0.0

    while True:
        weighted = [(p, abs(coeffs[p]) ** 2) for p in _members(current)]
        tables = _top_tables(weighted)
        selection = None
        for top in sorted(tables, key=lambda t: (t.scale, t.offset)):
            cap = thr * thr * top.length
            xi = next((xi for xi, w in _covering_weights(tables[top]) if w > cap), None)
            if xi is not None:
                selection = (top, xi)
                break
        if selection is None:
            break
        top, xi = selection
        forest.append(Tree(top, xi, _take_tree(current, top, xi)))
        tops_length += top.length

    norm_sq = lp_norm(f, 2.0) ** 2
    constant = tops_length * sigma**2 / norm_sq if norm_sq > 0 else 0.0
    stats = DecompositionStats(sigma, thr, tops_length, len(forest), constant)
    return TileCollection(collection.resolution, current, collection.convex), forest, stats


def mass_decompose(
    collection: TileCollection,
    e: GridSet,
    choice: ChoiceFunction,
    threshold: float | None = None,
) -> tuple[TileCollection, list[Tree], DecompositionStats]:
    """Split off trees topped by heavy bi-tiles so the remainder has mass at
    most the threshold (default: half the input mass).

    Heavy bi-tiles are taken largest interval first; removing the full order
    down-set under each selected top keeps the remainder convex and makes the
    selected tops pairwise incomparable, which gives the counting bound
    sum |I_T| <= |E| / threshold exactly.
    """
    table = member_mass_table(collection, e, choice)
    mu = max((float(t.max()) for t in table), default=0.0)
    thr = mu / 2.0 if threshold is None else threshold
    current = [m.copy() for m in collection.masks]
    forest: list[Tree] = []
    tops_length = 0.0

    heavy = list(_members(tuple(m & (t > thr) for m, t in zip(current, table))))
    for top in heavy:
        if not current[top.scale][top.offset, top.freq_index]:
            continue
        # the members below a top are the tree under its interval and its
        # lowest frequency
        forest.append(Tree(top.spatial, top.freq.lo, _take_tree(current, top.spatial, top.freq.lo)))
        tops_length += top.spatial.length

    e_measure = measure(e)
    constant = tops_length * mu / e_measure if e_measure > 0 else 0.0
    stats = DecompositionStats(mu, thr, tops_length, len(forest), constant)
    return TileCollection(collection.resolution, current, collection.convex), forest, stats


@dataclass
class ForestBucket:
    n: int
    m: int
    trees: list[Tree]
    size_cap: float
    mass_cap: float
    tops_length: float
    count_ratio: float


@dataclass
class Decomposition:
    buckets: dict[tuple[int, int], ForestBucket]
    remainder: TileCollection

    def covered(self) -> set[BiTile]:
        out: set[BiTile] = set()
        for bucket in self.buckets.values():
            for tree in bucket.trees:
                out |= tree.members
        return out


def full_decompose(
    collection: TileCollection,
    f: GridSignal,
    e: GridSet,
    choice: ChoiceFunction,
) -> Decomposition:
    """Iterate the size and mass splittings into (n, m) buckets of trees with
    certified caps size <= 2**-n and mass <= 2**-m.

    Bi-tiles with exactly zero size and mass can never be selected (they
    contribute nothing to any pairing) and are returned as the remainder.
    Per bucket the counting ratio sum |I_T| / min(2**(2n) ||f||_2^2, 2**m |E|)
    is recorded.
    """
    current = collection
    buckets: dict[tuple[int, int], ForestBucket] = {}
    norm_sq = lp_norm(f, 2.0) ** 2
    e_measure = measure(e)
    n_prev: int | None = None
    m_prev: int | None = None

    while len(current):
        sigma = size(current, f)
        mu = mass(current, e, choice)
        if sigma == 0.0 and mu == 0.0:
            break
        n, m = next_class(sigma, n_prev), next_class(mu, m_prev)
        trees: list[Tree] = []
        if sigma > 0:
            current, forest, _ = size_decompose(current, f, threshold=2.0 ** -(n + 1))
            trees.extend(forest)
        if mu > 0:
            current, forest, _ = mass_decompose(current, e, choice, threshold=2.0 ** -(m + 1))
            trees.extend(forest)
        tops_length = sum(t.top_length for t in trees)
        cap = min(2.0 ** (2 * n) * norm_sq, 2.0**m * e_measure)
        buckets[(n, m)] = ForestBucket(
            n=n,
            m=m,
            trees=trees,
            size_cap=2.0**-n,
            mass_cap=2.0**-m,
            tops_length=tops_length,
            count_ratio=tops_length / cap if cap > 0 else math.inf,
        )
        n_prev, m_prev = n, m

    return Decomposition(buckets=buckets, remainder=current)


def tree_estimate(
    tree: Tree,
    f: GridSignal,
    e: GridSet,
    choice: ChoiceFunction,
) -> RatioReport:
    """Single tree estimate: the absolute coefficient pairing against
    |I_T| * size(tree) * mass(tree)."""
    L = f.resolution
    as_collection = TileCollection.from_bitiles(L, tree.members)
    coeffs = member_coefficients(as_collection, f)
    lhs = 0.0
    for p in tree.members:
        psi = walsh_packet(p.upper, L).values.real
        sel = e.mask & (p.upper.freq.lo <= choice.freqs) & (choice.freqs < p.upper.freq.hi)
        pairing = float(np.sum(psi[sel]) * cell_width(L))
        lhs += abs(coeffs[p]) * abs(pairing)
    tree_size = size(as_collection, f)
    tree_mass = mass(as_collection, e, choice)
    rhs = tree.top_length * tree_size * tree_mass
    return RatioReport.from_sides(lhs, rhs, size=tree_size, mass=tree_mass, top_length=tree.top_length)
