import dataclasses
import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from dyadlab.carleson import greedy_choice
from dyadlab.grid import (
    DyadicInterval,
    GridSet,
    GridSignal,
    VectorSignal,
    cell_width,
    inner_product,
    lp_norm,
    measure,
)
from dyadlab.harness import random_grid_set, random_signal
from dyadlab import tiles as tiles_module
from dyadlab.tiles import (
    BiTile,
    ChoiceFunction,
    DecompositionStats,
    FreqInterval,
    ModelSumPlan,
    Tile,
    TileCollection,
    Tree,
    adjoint_model_sum,
    collection_is_convex,
    full_decompose,
    mass,
    mass_bound,
    mass_decompose,
    member_coefficients,
    model_sum,
    packet_sums,
    size,
    size_bound,
    size_decompose,
    term_tables,
    tile_slot,
    tree_estimate,
    upper_cells,
)
from dyadlab.walsh import (
    bit_reversal,
    bit_reverse,
    block_gathers,
    butterfly_layout,
    butterfly_stages,
    butterfly_views,
    walsh_analysis,
    walsh_matrix,
    walsh_synthesis,
)
from oracles import (
    all_bitiles,
    bitile_key,
    densify,
    hadamard,
    oracle_upper_cells,
    random_choice,
    random_convex_collection,
    walsh_packet,
    walsh_values,
)
from test_principle import MapPair


def packet_coefficients(values: np.ndarray, resolution: int, scale: int) -> np.ndarray:
    """coef[n, q] = <values, packet(scale, n, q)> for every offset and tile
    frequency index at one spatial scale: the per-scale transform the
    library ran before `packet_sums`, kept as the oracle."""
    L, k = resolution, scale
    blocks = np.asarray(values).reshape(1 << k, 1 << (L - k))
    return walsh_analysis(blocks, axis=1) * (2.0 ** (k / 2.0) * cell_width(L))


def order_interval(lo: BiTile, hi: BiTile) -> list[BiTile]:
    """All bi-tiles P with lo <= P <= hi (one per intermediate scale)."""
    if not lo <= hi:
        return []
    out = []
    for scale in range(hi.scale, lo.scale + 1):
        offset = lo.offset >> (lo.scale - scale)
        freq_index = hi.freq.lo >> (scale + 1)
        out.append(BiTile(scale, offset, freq_index))
    return out


def pairwise_is_convex(bitiles) -> bool:
    """Reference convexity check over every comparable pair of members."""
    tiles = set(bitiles)
    for p in tiles:
        for q in tiles:
            if p <= q:
                for mid in order_interval(p, q):
                    if mid not in tiles:
                        return False
    return True


def pairwise_closure(bitiles) -> set[BiTile]:
    """Reference convex closure: add order intervals until nothing grows."""
    tiles = set(bitiles)
    grown = True
    while grown:
        grown = False
        pairs = [(p, q) for p in tiles for q in tiles if p <= q]
        for p, q in pairs:
            for mid in order_interval(p, q):
                if mid not in tiles:
                    tiles.add(mid)
                    grown = True
    return tiles


def oracle_size(collection: TileCollection, f: GridSignal) -> float:
    """Exhaustive enumeration over every admissible 2-overlapping tree: all
    member subsets with a common top frequency, best top interval being the
    smallest dyadic hull of the spatial intervals."""
    members = sorted(collection.bitiles, key=lambda p: (p.scale, p.offset, p.freq_index))
    if not members:
        return 0.0
    L = collection.resolution
    coeffs = member_coefficients(collection, f)
    weights = np.array([abs(coeffs[p]) ** 2 for p in members])
    lo = np.array([p.upper.freq.lo for p in members])
    hi = np.array([p.upper.freq.hi for p in members])
    starts = np.array([p.spatial.cell_slice(L).start for p in members])
    stops = np.array([p.spatial.cell_slice(L).stop for p in members])
    best = 0.0
    for mask_bits in range(1, 1 << len(members)):
        sel = [(mask_bits >> i) & 1 for i in range(len(members))]
        sel = np.array(sel, dtype=bool)
        xi_lo, xi_hi = lo[sel].max(), hi[sel].min()
        if xi_lo >= xi_hi:
            continue  # no common top frequency
        a, b = int(starts[sel].min()), int(stops[sel].max()) - 1
        hull_scale = L - (a ^ b).bit_length()
        value = weights[sel].sum() / 2.0**-hull_scale
        best = max(best, value)
    return math.sqrt(best)


def _dict_top_tables(members_with_weight):
    """Group (upper-frequency interval, weight) by every admissible top
    interval, as size and size_decompose did before the array tables."""
    tables: dict[DyadicInterval, list[tuple[int, int, float]]] = {}
    for p, w in members_with_weight:
        upper = p.upper.freq
        for s in range(p.scale + 1):
            top = p.spatial.ancestor(s)
            tables.setdefault(top, []).append((upper.lo, upper.hi, w))
    return tables


def _dict_covering_weights(entries):
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


def dict_size(collection: TileCollection, f: GridSignal, table=None) -> float:
    """Reference size over per-top dicts of covering weights; a size table
    passed in, as `full_decompose` does, is ignored."""
    coeffs = member_coefficients(collection, f)
    weighted = [(p, abs(c) ** 2) for p, c in coeffs.items()]
    best = 0.0
    for top, entries in _dict_top_tables(weighted).items():
        value = max(w for _, w in _dict_covering_weights(entries))
        best = max(best, value / top.length)
    return math.sqrt(best)


def dict_size_decompose(collection: TileCollection, f: GridSignal, threshold=None, table=None):
    """Reference size decomposition: rebuild every top table after each
    selection and take the first top, in (scale, offset) order, whose
    covering weight exceeds the threshold; a size table passed in is
    ignored."""
    sigma = dict_size(collection, f)
    thr = sigma / 2.0 if threshold is None else threshold
    coeffs = member_coefficients(collection, f)
    remaining = sorted(collection.bitiles, key=bitile_key)
    forest = []
    tops_length = 0.0
    while True:
        tables = _dict_top_tables((p, abs(coeffs[p]) ** 2) for p in remaining)
        selection = None
        for top in sorted(tables, key=lambda t: (t.scale, t.offset)):
            cap = thr * thr * top.length
            xi = next((xi for xi, w in _dict_covering_weights(tables[top]) if w > cap), None)
            if xi is not None:
                selection = (top, xi)
                break
        if selection is None:
            break
        top, xi = selection
        members = frozenset(
            p for p in remaining if top.contains(p.spatial) and p.freq.contains_point(xi)
        )
        remaining = [p for p in remaining if p not in members]
        forest.append(Tree.from_members(top, xi, TileCollection.from_bitiles(collection.resolution, members)))
        tops_length += top.length
    norm_sq = lp_norm(f.values, 2.0, f.resolution) ** 2
    constant = tops_length * sigma**2 / norm_sq if norm_sq > 0 else 0.0
    stats = DecompositionStats(sigma, thr, tops_length, len(forest), constant)
    return TileCollection.from_bitiles(collection.resolution, remaining), forest, stats


def members_of(tree) -> list[BiTile]:
    """A tree's members in `bitile_key` order, held as a collection or, by
    the oracles, as a frozenset."""
    members = tree.members.bitiles if isinstance(tree.members, TileCollection) else tree.members
    return sorted(members, key=bitile_key)


def forest_of(forest) -> list:
    return [(t.top_interval, t.top_freq, members_of(t)) for t in forest]


def buckets_of(decomposition) -> list:
    """Every bucket's key, fields and trees, member for member, in order."""
    return [
        (key, b.n, b.m, b.size_cap, b.mass_cap, b.tops_measure, b.count_ratio, forest_of(b.trees))
        for key, b in decomposition.buckets.items()
    ]


def size_cases(rng, resolution):
    """Collections for the size oracle: full, empty, random masks with some
    scales left empty, and convex closures of random seeds at four
    densities."""
    shapes = [(1 << k, 1 << (resolution - k - 1)) for k in range(resolution)]
    yield TileCollection.all(resolution)
    yield TileCollection.from_bitiles(resolution, [])
    empty_scales = np.arange(resolution) % 2 == rng.integers(0, 2)
    masks = [(rng.random(shape) < 0.3) & ~empty for shape, empty in zip(shapes, empty_scales)]
    yield TileCollection.from_masks(resolution, masks)
    for density in (0.01, 0.05, 0.2, 0.5):
        seed = TileCollection.from_masks(resolution, [rng.random(shape) < density for shape in shapes])
        yield TileCollection.convex_closure(resolution, seed.bitiles)


def oracle_running(table, present=None) -> list[np.ndarray]:
    """Per scale s the block of running covering weights of a size table,
    over the entries whose member is set in `present`, a flat occupancy
    array (default: every entry): every scale summed, as `size_decompose`
    did after each removal before its scan stopped at the first hit."""
    keys, weights = table._keys, table._weights
    if present is not None:
        keep = present[table._slots]
        keys, weights = keys[keep], weights[keep]
    flat = np.bincount(keys.ravel(), weights.ravel(), minlength=int(table._bases[-1]))
    flat = flat.astype(np.float64, copy=False)
    blocks = []
    for s, width in enumerate(table._widths):
        block = flat[table._bases[s] : table._bases[s + 1]].reshape(1 << s, width)
        np.cumsum(block, axis=1, out=block)
        blocks.append(block)
    return blocks


def oracle_peak(running: list[np.ndarray]) -> float:
    """max over tops and xi of the covering weight over the top length."""
    best = 0.0
    for s, block in enumerate(running):
        best = max(best, float(block.max()) / 2.0**-s)
    return best


def oracle_first_exceeding(running: list[np.ndarray], thr: float):
    """The first top in (scale, offset) order, and its lowest xi, at which
    the covering weight exceeds thr**2 times the top length."""
    for s, block in enumerate(running):
        hit = np.flatnonzero(block > thr * thr * 2.0**-s)
        if hit.size:
            offset, col = divmod(int(hit[0]), block.shape[1])
            return DyadicInterval(s, offset), col << s
    return None


def masks_equal(a: TileCollection, b: TileCollection) -> bool:
    return len(a.masks) == len(b.masks) and all(
        np.array_equal(x, y) for x, y in zip(a.masks, b.masks)
    )


def walsh_values_at(m_per_cell: np.ndarray, rel_cell: np.ndarray, bits: int) -> np.ndarray:
    """W_{m[i]}(cell u[i]) for paired arrays of indices and relative cells."""
    rev = bit_reversal(bits)[np.asarray(rel_cell, dtype=np.int64)]
    signs = np.bitwise_count(np.asarray(m_per_cell, dtype=np.int64) & rev) & 1
    return 1.0 - 2.0 * signs


def _oracle_upper_hits(choice: ChoiceFunction, collection: TileCollection):
    """Per-call derivation of the cells each scale's members reach, as the
    model sum did before plans."""
    L = collection.resolution
    cells = np.arange(1 << L)
    for k, present in enumerate(collection.masks):
        tile_idx = choice.freqs >> k
        m = tile_idx >> 1
        n = cells >> (L - k)
        valid = ((tile_idx & 1) == 1) & present[n, m]
        if not np.any(valid):
            continue
        u = cells & ((1 << (L - k)) - 1)
        w = walsh_values_at(2 * m[valid] + 1, u[valid], L - k)
        yield k, valid, n[valid], m[valid], w


def oracle_model_sum(f: GridSignal, choice: ChoiceFunction, collection: TileCollection):
    """Reference model sum, evaluated anew on every call: each term is an
    unnormalized Walsh coefficient times W(x) 2**(k-L), the two packet
    heights and the cell width in one exact power of two."""
    L = f.resolution
    out = np.zeros(1 << L, dtype=np.complex128)
    for k, valid, n, m, w in _oracle_upper_hits(choice, collection):
        coef = walsh_analysis(f.values.reshape(1 << k, 1 << (L - k)), axis=1)
        out[valid] += coef[n, 2 * m] * np.ldexp(w, k - L)
    return out


def oracle_adjoint_model_sum(g: GridSignal, choice: ChoiceFunction, collection: TileCollection):
    """Reference adjoint model sum, evaluated anew on every call, with the
    model sum's one factor W(x) 2**(k-L) per term."""
    L = g.resolution
    out = np.zeros(1 << L, dtype=np.complex128)
    for k, valid, n, m, w in _oracle_upper_hits(choice, collection):
        pair = np.zeros((1 << k, 1 << (L - k - 1)), dtype=np.complex128)
        np.add.at(pair, (n, m), g.values[valid] * np.ldexp(w, k - L))
        coef = np.zeros((1 << k, 1 << (L - k)), dtype=np.complex128)
        coef[:, 0::2] = pair
        out += walsh_synthesis(coef, axis=1).reshape(1 << L)
    return out


def reference_hadamard(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stage-by-stage butterflies on a moved-axis copy, as the transform
    was first written; the stages and their additions are the same."""
    a = np.moveaxis(np.asarray(a), axis, -1)
    n = a.shape[-1]
    out = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64).copy()
    h = 1
    while h < n:
        v = out.reshape(out.shape[:-1] + (n // (2 * h), 2, h))
        top = v[..., 0, :] + v[..., 1, :]
        bot = v[..., 0, :] - v[..., 1, :]
        v[..., 0, :] = top
        v[..., 1, :] = bot
        h *= 2
    return np.moveaxis(out, -1, axis)


def block_hadamard_rows(stack: np.ndarray, bits, stages=None) -> np.ndarray:
    """The in-place block transform of a stack of rows, as the model-sum plan
    first ran it: row r holds aligned blocks of 2**bits[r] entries, with
    `bits` nonincreasing, and stage j pairs entries 2**j apart on the rows
    whose blocks are longer than that, a prefix of the stack. Runs the first
    `stages` stages (all by default); returns the array."""
    if not stack.flags.c_contiguous:
        raise ValueError("block_hadamard_rows works in place on a C-contiguous array")
    rows = len(bits)
    for j in range(bits[0] if rows else 0):
        if stages is not None and j >= stages:
            break
        while bits[rows - 1] <= j:
            rows -= 1
        x = stack[:rows].reshape(-1, 2, 1 << j)
        top = x[:, 0] + x[:, 1]
        np.subtract(x[:, 0], x[:, 1], out=x[:, 1])
        x[:, 0] = top
    return stack


def same_bits(a, b) -> bool:
    """Equal shapes and equal raw bytes. Unlike np.array_equal this tells
    -0.0 from +0.0 (and compares NaNs by payload)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def signed_stacks(rng, m: int, n: int):
    """(m, n) complex inputs: random values, random values with some parts
    set to -0.0 and the first row all -0.0, and stacks whose parts are all
    +0.0, all -0.0 or a random mix of the two."""
    values = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    yield values
    signed = values.copy()
    signed.real[rng.random((m, n)) < 0.3] = -0.0
    signed.imag[rng.random((m, n)) < 0.3] = -0.0
    signed.real[:1] = signed.imag[:1] = -0.0
    yield signed
    for negative in (0.0, 1.0, 0.5):
        zeros = np.zeros((m, n), dtype=np.complex128)
        zeros.real[rng.random((m, n)) < negative] = -0.0
        zeros.imag[rng.random((m, n)) < negative] = -0.0
        yield zeros


def exact_cases(rng, resolution):
    """`plan_cases`, and at L = 0, where a plan has no rows, the full
    collection under the one choice there is."""
    if resolution == 0:
        yield ChoiceFunction.constant(0, 0), TileCollection.all(0)
    else:
        yield from plan_cases(rng, resolution)


def plan_cases(rng, resolution):
    """(choice, collection) pairs: a random convex collection, random subsets
    with some scales left empty, the full and the empty collection."""
    shapes = [(1 << k, 1 << (resolution - k - 1)) for k in range(resolution)]
    collections = [
        random_convex_collection(rng, resolution),
        TileCollection.all(resolution),
        TileCollection.from_bitiles(resolution, []),
    ]
    for density in (0.1, 0.6):
        empty_scales = rng.random(resolution) < 0.4
        masks = [
            (rng.random(shape) < density) & ~empty
            for shape, empty in zip(shapes, empty_scales)
        ]
        collections.append(TileCollection.from_masks(resolution, masks))
    for collection in collections:
        yield random_choice(rng, resolution), collection
    # a constant choice sends every cell to one upper tile per scale
    yield ChoiceFunction.constant(resolution, (1 << resolution) - 1), collections[1]


def oracle_scale_terms(choice: ChoiceFunction, collection: TileCollection):
    """Per scale with a hit, the (scale, hit cells, coefficient indices,
    factors W(x) 2**(k-L)) of one member, as the plan built them scale by
    scale."""
    L = collection.resolution
    cells = np.arange(1 << L)
    terms = []
    for k, present in enumerate(collection.masks):
        tile_idx = choice.freqs >> k
        m = tile_idx >> 1
        n = cells >> (L - k)
        hit = np.flatnonzero(((tile_idx & 1) == 1) & present[n, m])
        if not hit.size:
            continue
        within = (1 << (L - k)) - 1
        factor = np.ldexp(walsh_values_at(2 * m[hit] + 1, hit & within, L - k), k - L)
        terms.append((k, hit, (n[hit] << (L - k - 1)) + m[hit], factor))
    return tuple(terms)


def oracle_block_gather(resolution: int, scale: int) -> np.ndarray:
    L, k = resolution, scale
    cells = np.arange(1 << L)
    within = (1 << (L - k)) - 1
    return (cells & ~within) + bit_reversal(L - k)[cells & within]


def _joined(parts, dtype):
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def oracle_layout(resolution: int, members) -> dict[str, np.ndarray]:
    """The plan arrays of a stack of (choice, collection) members, laid out
    term by term: the block of scale k of member i is row k m + i, with
    terms or without, and the adjoint reads every scale's row."""
    L, n = resolution, 1 << resolution
    half = n >> 1
    members = [oracle_scale_terms(choice, collection) for choice, collection in members]
    rows = [(k, i) for k in range(L) for i in range(len(members))]
    order, start, active, final = butterfly_layout(tuple(L - k - 1 for k, _ in rows), half)
    perm = _joined([i * n + oracle_block_gather(L, k) for k, i in rows], np.int64)
    gather = np.zeros((L, len(members), n), dtype=np.int64)
    for r, (k, i) in enumerate(rows):
        gather[k, i] = r * half + (oracle_block_gather(L, k) >> 1)
    out = {"_even": perm[0::2][order], "_odd": perm[1::2][order]}
    hits, coef, factors = [], [], []
    for i, terms in enumerate(members):
        for k, hit, index, factor in terms:
            hits.append(i * n + hit)
            coef.append((k * len(members) + i) * half + index)
            factors.append(factor)
    coef = _joined(coef, np.int64)
    hit = _joined(hits, np.int64)
    out.update(
        _hit=hit,
        _hit_parts=np.stack([2 * hit, 2 * hit + 1], axis=1).ravel(),
        _coef_start_parts=np.stack([2 * start[coef], 2 * start[coef] + 1], axis=1).ravel(),
        _coef_final=final[coef],
        _gather=final[gather],
        _term_factor=_joined(factors, np.float64),
    )
    return out


def lone_maps(plan: ModelSumPlan) -> MapPair:
    """A one-member plan's apply and adjoint on lone arrays: each passes its
    array as a (1, 2**L) stack and returns row 0."""
    return MapPair(lambda v: plan.apply(v[None])[0], lambda v: plan.adjoint(v[None])[0])


def loop_adjoint(plan: ModelSumPlan, g: np.ndarray) -> np.ndarray:
    """plan.adjoint with one bincount per part of the terms and the scale
    parts added in a Python loop onto +0, as the plan did before its
    interleaved bincount and its reduce."""
    g = plan._stack(g)
    terms = g.ravel()[plan._hit] * plan._term_factor
    coef_start = plan._coef_start_parts[0::2] >> 1
    start = plan._start
    start.real = np.bincount(coef_start, terms.real, minlength=start.size)
    start.imag = np.bincount(coef_start, terms.imag, minlength=start.size)
    butterfly_stages(plan._stages)
    parts = plan._work[plan._gather]
    out = np.zeros(g.shape, dtype=np.complex128)
    for part in parts:
        out += part
    return out


def stacked_member_plan(choices, collection) -> ModelSumPlan:
    """A plan built as before one constructor took every choice: a
    one-member plan's arrays per choice, joined with their member and entry
    offsets, then laid out over its entries alone, the (member, scale)
    pairs with a term, with a padded adjoint gather whose missing scales
    read a zero past the work buffers. It runs under the plan's methods."""
    L, n = collection.resolution, 1 << collection.resolution
    half = n >> 1
    members = []
    for choice in choices:
        tile_idx = choice.freqs >> np.arange(L)[:, None]
        scale, cell = np.nonzero(tile_idx & 1)
        odd = tile_idx[scale, cell]
        slot = tile_slot(L, scale, cell >> (L - scale), odd >> 1)
        sign = 1.0 - 2.0 * (np.bitwise_count(odd & block_gathers(L)[scale, cell]) & 1)
        present = collection.occupied.ravel()[slot]
        scale, cell, slot, sign = scale[present], cell[present], slot[present], sign[present]
        entry_scale = np.flatnonzero(np.bincount(scale, minlength=L))
        members.append(
            dict(
                _entry_scale=entry_scale,
                _entry_member=np.zeros(entry_scale.size, dtype=np.int64),
                _term_entry=np.searchsorted(entry_scale, scale),
                _cell=cell,
                _index=slot & (half - 1),
                _term_factor=np.ldexp(sign, scale - L),
            )
        )
    plan = ModelSumPlan.__new__(ModelSumPlan)
    plan.resolution, plan._count = L, len(members)
    entries = np.cumsum([0] + [m["_entry_scale"].size for m in members])
    for name in ("_entry_scale", "_cell", "_index", "_term_factor"):
        setattr(plan, name, np.concatenate([m[name] for m in members]))
    plan._entry_member = np.concatenate([m["_entry_member"] + i for i, m in enumerate(members)])
    plan._term_entry = np.concatenate([m["_term_entry"] + e for m, e in zip(members, entries)])

    member, scale = plan._entry_member, plan._entry_scale
    rows = np.lexsort((member, scale))
    row_of = np.empty_like(rows)
    row_of[rows] = np.arange(rows.size)
    order, start, active, final = butterfly_layout(tuple((L - 1 - scale[rows]).tolist()), half)
    gathers = block_gathers(L)
    perm = (member[rows, None] * n + gathers[scale[rows]]).ravel()
    plan._even, plan._odd = perm[0::2][order], perm[1::2][order]
    size = order.size
    plan._work = np.zeros(2 * size + 1, dtype=np.complex128)
    buffers = plan._work[:-1].reshape(2, size)
    plan._start = buffers[0]
    plan._stages = butterfly_views(buffers, active)
    part = np.arange(member.size) - np.searchsorted(member, member)
    gather = np.full((int(part.max(initial=-1)) + 1, len(plan), n), size)
    gather[part, member] = row_of[:, None] * half + (gathers[scale] >> 1)
    plan._gather = np.append(final, 2 * size)[gather]
    plan._hit = member[plan._term_entry] * n + plan._cell
    coef = row_of[plan._term_entry] * half + plan._index
    plan._coef_final = final[coef]
    plan._hit_parts = (2 * plan._hit[:, None] + np.arange(2)).ravel()
    plan._coef_start_parts = (2 * start[coef][:, None] + np.arange(2)).ravel()
    return plan


def random_small_convex(rng, resolution, max_members=12):
    while True:
        collection = random_convex_collection(rng, resolution, seeds=2, cap=max_members)
        if len(collection) >= 1:
            return collection


def random_tree(rng, resolution):
    """Random 1-overlapping tree: top data plus a subset of the compatible
    bi-tiles."""
    while True:
        scale = int(rng.integers(0, resolution))
        top = DyadicInterval(scale, int(rng.integers(0, 1 << scale)))
        xi = int(rng.integers(0, 1 << resolution))
        compatible = [
            p
            for p in all_bitiles(resolution)
            if top.contains(p.spatial) and p.freq.contains_point(xi)
        ]
        if not compatible:
            continue
        keep = [p for p in compatible if rng.random() < 0.7]
        if keep:
            return Tree.from_members(top, xi, TileCollection.from_bitiles(resolution, keep))


class TestTilesAndOrder:
    def test_area_one(self):
        t = Tile(2, 1, 3)
        assert t.spatial.length * t.freq.length == 1.0

    def test_walsh_packet_examples(self):
        assert np.array_equal(walsh_packet(Tile(0, 0, 0), 3).values.real, np.ones(8))
        w1 = walsh_packet(Tile(0, 0, 1), 3).values.real
        assert np.array_equal(w1, np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=float))

    def test_packet_norm_exact(self):
        for k in range(4):
            for q in range(1 << (4 - k)):
                assert lp_norm(walsh_packet(Tile(k, 0, q), 4).values, 2.0, 4) == 1.0

    def test_disjoint_tiles_orthogonal(self):
        resolution = 4
        tiles = [
            Tile(k, n, q)
            for k in range(resolution + 1)
            for n in range(1 << k)
            for q in range(1 << (resolution - k))
        ]
        for a, b in itertools.combinations(tiles, 2):
            overlap = not a.spatial.disjoint(b.spatial) and (
                a.freq.contains(b.freq) or b.freq.contains(a.freq)
            )
            ip = inner_product(walsh_packet(a, resolution), walsh_packet(b, resolution))
            if not overlap:
                assert abs(ip) <= 1e-12

    def test_order_reflexive(self):
        p = BiTile(1, 0, 1)
        assert p <= p and not p < p

    def test_order_pinned_example(self):
        # spatial [0,1/2) with frequency [0,4) sits below spatial [0,1) with
        # frequency [0,2)
        p = BiTile(1, 0, 0)
        q = BiTile(0, 0, 0)
        assert p.freq == FreqInterval(2, 0) and q.freq == FreqInterval(1, 0)
        assert p <= q and not q <= p

    def test_disjoint_spatial_incomparable(self):
        p = BiTile(1, 0, 0)
        q = BiTile(1, 1, 0)
        assert not p <= q and not q <= p

    def test_partial_order_axioms_exhaustive(self):
        tiles = all_bitiles(4)
        for a in tiles:
            assert a <= a
        for a, b in itertools.permutations(tiles, 2):
            if a <= b and b <= a:
                pytest.fail("antisymmetry violated")
        for a, b, c in itertools.product(tiles, repeat=3):
            if a <= b and b <= c:
                assert a <= c


class TestLowerCoefficients:
    """The all-scale transform against the per-scale packet transforms it
    replaced, on raw bytes."""

    @staticmethod
    def inputs(rng, n):
        """Real and complex values, values that are all +-0, and values
        with zeros of both signs among nonzero entries."""
        real = rng.standard_normal(n)
        yield real
        yield real + 1j * rng.standard_normal(n)
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        yield zeros
        yield zeros + 1j * np.where(rng.random(n) < 0.5, -0.0, 0.0)
        mixed = np.where(rng.random(n) < 0.4, zeros, real)
        yield mixed
        yield mixed + 1j * np.where(rng.random(n) < 0.4, np.copysign(0.0, -real), real[::-1])
        yield np.full(n, -0.0) + 1j * np.full(n, -0.0)

    @pytest.mark.parametrize("resolution", range(0, 11))
    def test_equals_per_scale_transforms(self, resolution):
        rng = np.random.default_rng(1100 + resolution)
        L, n = resolution, 1 << resolution
        for values in self.inputs(rng, n):
            got = packet_sums(values[None], L)
            assert got.shape == (1, L, n >> 1)
            for k in range(L):
                expected = walsh_analysis(values.reshape(1 << k, 1 << (L - k)), axis=1)[:, 0::2]
                assert same_bits(got[0, k], expected.ravel()), (k, values.dtype)
            # the inner products, formed in `_coefficients` alone
            coef = tiles_module._coefficients(TileCollection.all(L), GridSignal(L, values))[3]
            expected = [packet_coefficients(values, L, k)[:, 0::2].ravel() for k in range(L)]
            assert same_bits(coef, np.concatenate([np.zeros(0, coef.dtype), *expected]))

    @pytest.mark.parametrize("resolution", [*range(0, 11), 12])
    def test_stack_rows_equal_single_signals(self, resolution):
        """Each row of a stacked transform is the transform of that row
        alone, bit for bit, for stacks of one, two and seven signals of
        every input kind, real and complex. From L=10 up each row is a
        stack of its own, and the stacks of one call share a work
        buffer."""
        rng = np.random.default_rng(1120 + resolution)
        L, n = resolution, 1 << resolution
        rows = list(self.inputs(rng, n))
        for members in (1, 2, 7):
            picked = [rows[i] for i in rng.integers(len(rows), size=members)]
            for stack in (np.array([row.real for row in picked]), np.array(picked, dtype=np.complex128)):
                got = packet_sums(stack, L)
                assert got.shape == (members, L, n >> 1)
                for row, coef in zip(stack, got, strict=True):
                    assert same_bits(coef, packet_sums(row[None], L)[0])

    def test_packet_heights_are_one_cached_scalar_pow_table(self):
        for resolution in range(0, 13):
            heights = tiles_module.packet_heights(resolution)
            assert heights is tiles_module.packet_heights(resolution)
            assert not heights.flags.writeable
            assert heights.tolist() == [2.0 ** (k / 2.0) for k in range(resolution + 1)]

    def test_reads_any_real_or_complex_input(self):
        values = np.arange(8)[None]
        assert same_bits(packet_sums(values, 3), packet_sums(values.astype(float), 3))
        assert packet_sums(values.astype(np.complex64), 3).dtype == np.complex128
        assert packet_sums(np.zeros((0, 8)), 3).shape == (0, 3, 4)
        # a lone signal is no stack
        for shape in ((8,), (6,), (2, 4), (1, 2, 8), ()):
            with pytest.raises(ValueError, match=r"expected an \(m, 2\*\*3\) stack of signals"):
                packet_sums(np.zeros(shape), 3)


class TestModelSum:
    def test_empty_collection(self):
        f = GridSignal.constant(4, 1.0)
        empty = TileCollection.from_bitiles(4, [])
        out = model_sum(f, ChoiceFunction.constant(4, 0), empty)
        assert np.all(out.values == 0.0)

    def test_single_bitile_reproduces_upper(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(3, [p])
        f = walsh_packet(p.lower, 3)
        choice = ChoiceFunction.constant(3, p.upper.freq.lo)
        out = model_sum(f, choice, collection)
        assert np.allclose(out.values, walsh_packet(p.upper, 3).values, atol=1e-12)

    def test_choice_outside_kills(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(3, [p])
        f = walsh_packet(p.lower, 3)
        choice = ChoiceFunction.constant(3, p.lower.freq.lo)  # lower half only
        out = model_sum(f, choice, collection)
        assert np.all(out.values == 0.0)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(5)
        for resolution in (3, 5):
            n = 1 << resolution
            collection = random_convex_collection(rng, resolution)
            choice = random_choice(rng, resolution)
            f = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            g = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            lhs = inner_product(model_sum(f, choice, collection), g)
            rhs = inner_product(f, adjoint_model_sum(g, choice, collection))
            assert abs(lhs - rhs) < 1e-12

    def test_model_sum_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        resolution = 4
        collection = random_convex_collection(rng, resolution)
        choice = random_choice(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        direct = np.zeros(1 << resolution, dtype=complex)
        for p in collection.bitiles:
            coef = inner_product(f, walsh_packet(p.lower, resolution))
            psi = walsh_packet(p.upper, resolution).values
            sel = (choice.freqs >= p.upper.freq.lo) & (choice.freqs < p.upper.freq.hi)
            direct += coef * psi * sel
        out = model_sum(f, choice, collection)
        assert np.allclose(out.values, direct, atol=1e-12)


class TestModelSumPlan:
    @pytest.mark.parametrize("resolution", range(0, 8))
    def test_equals_per_call_evaluation(self, resolution):
        # bit for bit, signed zeros included: the adjoint's half spectrum
        # rests on its coefficient sums never being -0.0
        rng = np.random.default_rng(100 + resolution)
        n = 1 << resolution
        for choice, collection in exact_cases(rng, resolution):
            plan = lone_maps(ModelSumPlan([choice], collection))
            for (values,) in signed_stacks(rng, 1, n):
                f = GridSignal(resolution, values)
                assert same_bits(plan.apply(f.values), oracle_model_sum(f, choice, collection))
                assert same_bits(plan.adjoint(f.values), oracle_adjoint_model_sum(f, choice, collection))
                assert same_bits(model_sum(f, choice, collection).values, plan.apply(f.values))
                assert same_bits(adjoint_model_sum(f, choice, collection).values, plan.adjoint(f.values))

    @pytest.mark.parametrize("resolution", range(1, 8))
    def test_adjoint_identity(self, resolution):
        rng = np.random.default_rng(200 + resolution)
        n = 1 << resolution
        for choice, collection in plan_cases(rng, resolution):
            plan = lone_maps(ModelSumPlan([choice], collection))
            f = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            g = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            lhs = inner_product(GridSignal(resolution, plan.apply(f.values)), g)
            rhs = inner_product(f, GridSignal(resolution, plan.adjoint(g.values)))
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("resolution", range(1, 5))
    def test_dense_matrix_is_sum_of_packet_terms(self, resolution):
        rng = np.random.default_rng(300 + resolution)
        n = 1 << resolution
        for choice, collection in plan_cases(rng, resolution):
            plan = lone_maps(ModelSumPlan([choice], collection))
            expected = np.zeros((n, n), dtype=np.complex128)
            for p in collection.bitiles:
                lower = walsh_packet(p.lower, resolution).values
                upper = walsh_packet(p.upper, resolution).values
                hit = (choice.freqs >= p.upper.freq.lo) & (choice.freqs < p.upper.freq.hi)
                expected += np.outer(upper * hit, np.conj(lower)) * cell_width(resolution)
            dense = densify(plan.apply, n)
            assert np.allclose(dense, expected, rtol=0.0, atol=1e-12)
            dense_adj = densify(plan.adjoint, n)
            assert np.allclose(dense_adj, expected.conj().T, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("resolution", range(0, 8))
    def test_stacked_plan_equals_per_choice_plans(self, resolution):
        rng = np.random.default_rng(400 + resolution)
        n = 1 << resolution
        for _, collection in exact_cases(rng, resolution):
            choices = [
                random_choice(rng, resolution),
                # frequency 0 lies in a lower tile at every scale: no hit at all
                ChoiceFunction.constant(resolution, 0),
                # n/2 lies in an upper tile at scale L-1 only
                ChoiceFunction.constant(resolution, n // 2),
                random_choice(rng, resolution),
                # n-1 lies in an upper tile at every scale
                ChoiceFunction.constant(resolution, n - 1),
            ]
            plans = [ModelSumPlan([choice], collection) for choice in choices]
            stacked = ModelSumPlan(choices, collection)
            for f in signed_stacks(rng, len(plans), n):
                forward, backward = stacked.apply(f), stacked.adjoint(f)
                assert forward.shape == backward.shape == f.shape
                for row, member in enumerate(plans):
                    assert same_bits(forward[row], member.apply(f[row][None])[0])
                    assert same_bits(backward[row], member.adjoint(f[row][None])[0])

    @pytest.mark.parametrize("resolution", range(0, 8))
    def test_layout_equals_per_term_oracle(self, resolution):
        """Every array of the vectorized layout, as the constructor leaves
        it, equals the per-term one bit for bit, on one-member plans, whole
        stacks, subsets of their members in order, and random stacks with
        repeated members over every case's collection (the empty one
        included); and the adjoint's reduce gives the bytes of the loop it
        replaced."""
        rng = np.random.default_rng(420 + resolution)
        n = 1 << resolution
        cases = list(exact_cases(rng, resolution))
        collection = cases[0][1]
        choices = [
            random_choice(rng, resolution),
            ChoiceFunction.constant(resolution, 0),  # no term at any scale
            ChoiceFunction.constant(resolution, n // 2),
            random_choice(rng, resolution),
            ChoiceFunction.constant(resolution, n - 1),
        ]
        stacks = [[choice] for choice in choices]
        for kept in ([0, 1, 2, 3, 4], [1, 2, 3, 4], [0, 2, 4], [1, 3]):
            stacks.append([choices[i] for i in kept])
        stacks = [(stack, collection) for stack in stacks]
        for choice, other in cases:
            picked = rng.integers(0, len(choices), size=int(rng.integers(1, 7)))
            stacks.append(([choice] + [choices[i] for i in picked], other))
        for stack, members in stacks:
            plan = ModelSumPlan(stack, members)
            stacked = [(choice, members) for choice in stack]
            for name, expected in oracle_layout(resolution, stacked).items():
                assert same_bits(getattr(plan, name), expected), name
            for g in signed_stacks(rng, len(stacked), n):
                assert same_bits(plan.adjoint(g), loop_adjoint(plan, g))

    @pytest.mark.parametrize("resolution", range(0, 10))
    def test_construction_equals_stacked_member_plans(self, resolution):
        """One vectorized pass over every choice builds the term arrays
        and the outputs of one-member plans joined in order and laid out
        over their entries alone, byte for byte: over the empty, the full
        and random collections, with constant, random and repeated
        choices."""
        rng = np.random.default_rng(520 + resolution)
        n = 1 << resolution
        collections = [TileCollection.from_bitiles(resolution, []), TileCollection.all(resolution)]
        if resolution:
            masks = [rng.random(mask.shape) < 0.5 for mask in collections[1].masks]
            collections += [random_convex_collection(rng, resolution), TileCollection.from_masks(resolution, masks)]
        constants = [ChoiceFunction.constant(resolution, q) for q in sorted({0, n // 2, n - 1})]
        for collection in collections:
            randoms = [random_choice(rng, resolution) for _ in range(3)]
            stacks = [[choice] for choice in constants + randoms[:1]]
            stacks += [constants + randoms, randoms + randoms[:1] + randoms, [randoms[0]] * 4]
            picked = rng.integers(0, len(constants + randoms), size=6)
            stacks.append([(constants + randoms)[i] for i in picked])
            for choices in stacks:
                plan = ModelSumPlan(choices, collection)
                expected = stacked_member_plan(choices, collection)
                assert len(plan) == len(expected) == len(choices)
                # the term arrays, which do not depend on the layout
                for name in ("_hit", "_hit_parts", "_term_factor"):
                    assert same_bits(getattr(plan, name), getattr(expected, name)), name
                for f in signed_stacks(rng, len(choices), n):
                    assert same_bits(plan.apply(f), expected.apply(f))
                    assert same_bits(plan.adjoint(f), expected.adjoint(f))

    @pytest.mark.parametrize("resolution", [0, 1, 6, 12])
    def test_adjoint_reduce_adds_like_the_loop(self, resolution):
        """np.add.reduce over the outer axis adds the parts one by one in
        order onto +0, as the loop did, signed zeros included, for every
        depth a plan can have; and a depth-L plan's adjoint at L = 12."""
        rng = np.random.default_rng(470 + resolution)
        n = 1 << resolution
        for depth in sorted({0, min(1, resolution), resolution}):
            for m in (1, 3):
                for parts in signed_stacks(rng, depth * m, n):
                    parts = parts.reshape(depth, m, n)
                    loop = np.zeros((m, n), dtype=np.complex128)
                    for part in parts:
                        loop += part
                    assert same_bits(np.add.reduce(parts, axis=0, initial=0.0), loop)
        if resolution == 12:
            collection = TileCollection.all(resolution)
            choices = [ChoiceFunction.constant(resolution, n - 1), random_choice(rng, resolution)]
            plan = ModelSumPlan(choices, collection)
            for g in signed_stacks(rng, 2, n):
                assert same_bits(plan.adjoint(g), loop_adjoint(plan, g))
            assert plan._gather.shape == (resolution, 2, n)

    @pytest.mark.parametrize("resolution", range(0, 8))
    def test_planned_stages_follow_the_row_oracle(self, resolution):
        """Each butterfly stage of the plan's layout, row k m + i for scale
        k of member i, computes the even entries of the in-place multi-row
        transform after as many stages, bit for bit, and a plan's work holds
        that transform after an apply."""
        rng = np.random.default_rng(450 + resolution)
        n, half = 1 << resolution, (1 << resolution) >> 1
        for choice, collection in exact_cases(rng, resolution):
            choices = [choice, random_choice(rng, resolution), ChoiceFunction.constant(resolution, n - 1)]
            plan = ModelSumPlan(choices, collection)
            rows = [(k, i) for k in range(resolution) for i in range(len(choices))]
            bits = [resolution - k for k, _ in rows]
            order, start, active, final = butterfly_layout(tuple(b - 1 for b in bits), half)
            assert same_bits(start[order], np.arange(order.size))
            layout = tiles_module._packet_layout(resolution, len(choices))
            assert layout[2] == active
            for got, expected in zip(layout[3:], (start, final)):
                assert same_bits(got, expected)
            for stack in signed_stacks(rng, len(rows), n):
                work = np.zeros((2, order.size), dtype=np.complex128)
                labels = np.zeros((2, order.size), dtype=np.int64)
                work[0] = block_hadamard_rows(stack.copy(), bits, stages=1)[:, 0::2].ravel()[order]
                labels[0] = order
                views = butterfly_views(work, active)
                label_views = butterfly_views(labels, active)
                for j, ((a, b, top, bottom), (la, lb, ltop, lbottom)) in enumerate(zip(views, label_views)):
                    # each pair is an entry with bit j of its row position
                    # clear and the entry 2**j after it
                    assert np.array_equal(lb, la + (1 << j))
                    assert not np.any((la % half) >> j & 1)
                    np.add(a, b, out=top)
                    np.subtract(a, b, out=bottom)
                    ltop[:], lbottom[:] = la, lb
                    expected = block_hadamard_rows(stack.copy(), bits, stages=j + 2)[:, 0::2].ravel()
                    written = ~j & 1, slice(0, active[j])
                    assert same_bits(work[written], expected[labels[written]])
                expected = block_hadamard_rows(stack.copy(), bits)[:, 0::2].ravel()
                assert same_bits(work.ravel()[final], expected)
            # the plan's own apply: its gather, then the same stages
            f = rng.standard_normal((len(choices), n)) + 1j * rng.standard_normal((len(choices), n))
            gathered = np.zeros((len(rows), n), dtype=np.complex128)
            for r, (k, i) in enumerate(rows):
                gathered[r] = f[i][block_gathers(resolution)[k]]
            plan.apply(f)
            expected = block_hadamard_rows(gathered, bits)[:, 0::2].ravel()
            assert same_bits(plan._work[final], expected)

    @pytest.mark.parametrize("bits", range(0, 6))
    def test_equal_lines_follow_the_layout(self, bits):
        """For lines of one block each, the layout puts entry q of line r at
        rev(q) * lines + r before stage 0 and at r * 2**bits + rev(q) of
        buffer bits % 2 after the last: the transpose and the bit reversal
        that the generic transforms gather through."""
        n, rev = 1 << bits, bit_reversal(bits)
        for lines in (0, 1, 2, 3, 5, 8):
            order, start, active, final = butterfly_layout((bits,) * lines, n)
            r, q = np.divmod(np.arange(lines * n), n)
            assert np.array_equal(start, rev[q] * lines + r)
            assert np.array_equal(final, (bits & 1) * lines * n + r * n + rev[q])
            assert active == ((lines * n,) * bits if lines else ())

    def test_plans_and_lower_coefficients_share_one_layout(self):
        """The layout depends on (L, members) alone: two plans of one shape
        over other collections and choices, and `packet_sums` of a
        stack of that many rows, build it once and read the same arrays."""
        rng = np.random.default_rng(490)
        L, members = 5, 3
        tiles_module._packet_layout.cache_clear()
        plans = [
            ModelSumPlan([random_choice(rng, L) for _ in range(members)], collection)
            for collection in (random_convex_collection(rng, L), TileCollection.all(L))
        ]
        packet_sums(rng.standard_normal((members, 1 << L)), L)
        info = tiles_module._packet_layout.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        even, odd, _, start, final = tiles_module._packet_layout(L, members)
        for plan in plans:
            assert plan._even is even and plan._odd is odd
        for a in (even, odd, start, final):
            assert not a.flags.writeable

    def test_greedy_fit_at_l12_caches_only_one_member_layouts(self):
        """`packet_sums` runs a 4-member stack at L=12 in the stacks
        of `stack_slices`, one member each, so the only layout it caches
        holds one member."""
        rng = np.random.default_rng(12)
        L, n = 12, 1 << 12
        stack = VectorSignal(L, rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
        where = GridSet(L, np.arange(n) % 1024 == 0)
        tiles_module._packet_layout.cache_clear()
        greedy_choice(stack, TileCollection.all(L), where)
        info = tiles_module._packet_layout.cache_info()
        assert info.currsize == 1
        tiles_module._packet_layout(L, 1)
        assert tiles_module._packet_layout.cache_info().hits == info.hits + 1

    @pytest.mark.parametrize("members", [1, 3])
    def test_returned_arrays_do_not_alias_the_work(self, members):
        rng = np.random.default_rng(480 + members)
        L, n = 5, 32
        collection = TileCollection.all(L)
        plan = ModelSumPlan([random_choice(rng, L) for _ in range(members)], collection)
        shape = (members, n)
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        outs = [plan.apply(f), plan.adjoint(f)]
        kept = [out.copy() for out in outs]
        for _ in range(3):
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            plan.apply(g)
            plan.adjoint(g)
        for out, copy in zip(outs, kept):
            assert same_bits(out, copy)
            assert not np.shares_memory(out, plan._work)

    def test_apply_and_adjoint_reject_a_lone_array(self):
        """A plan of one member or of three takes an (m, 2**L) stack only:
        a lone 2**L array, the one-member case included, raises the shape
        error, and a stack the engine made is read without a copy."""
        rng = np.random.default_rng(495)
        L, n = 5, 32
        collection = random_convex_collection(rng, L)
        for members in (1, 3):
            plan = ModelSumPlan([random_choice(rng, L) for _ in range(members)], collection)
            message = rf"expected 2\*\*5 cell values for each of {members} members"
            for shape in ((n,), (members * n,), (2, n), (members, n // 2)):
                with pytest.raises(ValueError, match=message):
                    plan.apply(np.zeros(shape))
                with pytest.raises(ValueError, match=message):
                    plan.adjoint(np.zeros(shape))
            stack = np.zeros((members, n), dtype=np.complex128)
            assert plan._stack(stack) is stack

    def test_stacked_plan_rejects_other_shapes(self):
        choices = [ChoiceFunction.constant(4, q) for q in (0, 8, 15)]
        stacked = ModelSumPlan(choices, TileCollection.all(4))
        for shape in ((16,), (48,), (2, 16), (4, 16), (3, 8), (3, 16, 1), (1, 3, 16)):
            with pytest.raises(ValueError, match=r"expected 2\*\*4 cell values for each of 3 members"):
                stacked.apply(np.zeros(shape))
            with pytest.raises(ValueError, match=r"expected 2\*\*4 cell values for each of 3 members"):
                stacked.adjoint(np.zeros(shape))
        with pytest.raises(ValueError, match="resolution mismatch"):
            ModelSumPlan(choices + [ChoiceFunction.constant(3, 0)], TileCollection.all(4))
        with pytest.raises(ValueError, match="at least one choice function"):
            ModelSumPlan([], TileCollection.all(4))

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError):
            ModelSumPlan([ChoiceFunction.constant(3, 0)], TileCollection.all(4))
        choice, collection = ChoiceFunction.constant(4, 0), TileCollection.all(4)
        plan = ModelSumPlan([choice], collection)
        with pytest.raises(ValueError, match=r"expected 2\*\*4 cell values"):
            plan.apply(np.zeros(8))
        with pytest.raises(ValueError, match=r"expected 2\*\*4 cell values"):
            plan.adjoint(np.zeros(32))
        with pytest.raises(ValueError, match=r"expected 2\*\*4 cell values"):
            plan.apply(np.zeros((4, 4)))
        # the GridSignal entry points reject a signal of another resolution
        with pytest.raises(ValueError):
            model_sum(GridSignal.zeros(3), choice, collection)
        with pytest.raises(ValueError):
            adjoint_model_sum(GridSignal.zeros(5), choice, collection)

    @pytest.mark.parametrize(
        "shape, axis",
        [
            ((64,), -1),
            ((4, 16), 1),
            ((16, 4), 0),
            ((2, 8, 4), 1),
            ((1,), 0),
            ((2, 8, 4), 0),
            ((2, 8, 4), 2),
            ((2,), 0),
            ((4, 1), 1),
            ((1, 4), 0),
            ((2, 4), 0),
        ],
    )
    def test_transforms_equal_reference_butterflies(self, shape, axis):
        """Each transform equals the stage loop on a moved-axis copy, with
        analysis reading and synthesis writing through the bit reversal, in
        raw bytes and in strides: for real, complex, signed-zero, int, bool
        and float32 inputs (the last three become float64), each also
        transposed, so not contiguous."""
        rng = np.random.default_rng(sum(shape))
        real = rng.standard_normal(shape)
        signed = np.zeros(shape, dtype=np.complex128)
        signed.real = np.where(rng.random(shape) < 0.5, -0.0, real)
        signed.imag = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        inputs = [
            real,
            real + 1j * rng.standard_normal(shape),
            signed.real.copy(),
            signed,
            np.full(shape, -0.0),
            rng.integers(-9, 10, shape),
            rng.random(shape) < 0.5,
            real.astype(np.float32),
        ]
        n = shape[axis]
        rev = bit_reverse(np.arange(n), n.bit_length() - 1)
        for values in inputs:
            for v, ax in ((values, axis), (values.T, values.ndim - 1 - axis % values.ndim)):
                moved = np.moveaxis(v, ax, -1)
                expected = {
                    hadamard: reference_hadamard(v, ax),
                    walsh_analysis: np.moveaxis(reference_hadamard(moved[..., rev]), -1, ax),
                    walsh_synthesis: np.moveaxis(reference_hadamard(moved)[..., rev], -1, ax),
                }
                for transform, oracle in expected.items():
                    out = transform(v, ax)
                    assert out.dtype == (np.complex128 if np.iscomplexobj(v) else np.float64)
                    assert same_bits(out, oracle), transform.__name__
                    assert out.strides == oracle.strides, transform.__name__

    def test_block_hadamard_rows(self):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        expected = [
            reference_hadamard(row.reshape(-1, 1 << b)).ravel() for row, b in zip(stack, (4, 2, 1))
        ]
        assert np.array_equal(block_hadamard_rows(stack.copy(), (4, 2, 1)), np.array(expected))
        with pytest.raises(ValueError):
            block_hadamard_rows(stack.T, (2, 1))
        # the library's transform of rows of 2**b entries is the
        # one-block-size case
        for b in range(5):
            assert same_bits(
                hadamard(stack.reshape(-1, 1 << b)).reshape(stack.shape),
                block_hadamard_rows(stack.copy(), (b, b, b)),
            )
        with pytest.raises(ValueError):
            hadamard(np.ones(6))
        with pytest.raises(ValueError):
            walsh_analysis(np.ones(6))

    @pytest.mark.parametrize("transform", [hadamard, walsh_analysis, walsh_synthesis])
    def test_zero_length_axes_are_rejected(self, transform):
        for shape, axis in (((0,), -1), ((3, 0), 1), ((0, 4), 0), ((2, 0, 4), 1)):
            with pytest.raises(ValueError, match="length must be a power of two, got 0"):
                transform(np.zeros(shape), axis)
        # no lines at all is an empty transform
        for shape, axis in (((0, 4), 1), ((4, 0), 0)):
            out = transform(np.zeros(shape), axis)
            assert out.shape == shape and out.dtype == np.float64

    def test_cached_bit_reversal(self):
        for bits in range(0, 13):
            rev = bit_reversal(bits)
            assert np.array_equal(rev, bit_reverse(np.arange(1 << bits), bits))
            assert bit_reversal(bits) is rev
            assert not rev.flags.writeable
            with pytest.raises(ValueError):
                rev[0] = 1

    def test_walsh_matrix(self):
        """The doubled int8 matrix is W_m(cell u) at [m, u], symmetric,
        read-only, 4**bits bytes and built once per bit count."""
        for bits in range(0, 11):
            table = walsh_matrix(bits)
            assert np.array_equal(table, walsh_values(np.arange(1 << bits), bits))
            assert np.array_equal(table, table.T)
            assert table.dtype == np.int8 and table.nbytes == 4**bits
            assert walsh_matrix(bits) is table
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = -1


class TestSizeAndMass:
    def test_zero_signal(self):
        rng = np.random.default_rng(7)
        collection = random_convex_collection(rng, 4)
        assert size(collection, GridSignal.zeros(4)) == 0.0

    def test_single_bitile_value(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(3, [p])
        f = walsh_packet(p.lower, 3)
        assert size(collection, f) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_equivalence(self, seed):
        rng = np.random.default_rng(100 + seed)
        resolution = 5
        collection = random_small_convex(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        assert size(collection, f) == pytest.approx(
            oracle_size(collection, f), abs=1e-13
        )

    @pytest.mark.parametrize("resolution", range(9))
    def test_equals_dict_tables(self, resolution):
        rng = np.random.default_rng(700 + resolution)
        for collection in size_cases(rng, resolution):
            for f in (random_signal(rng, resolution, complex_values=True), GridSignal.zeros(resolution)):
                assert size(collection, f) == dict_size(collection, f)

    def test_mass_empty(self):
        rng = np.random.default_rng(8)
        collection = random_convex_collection(rng, 4)
        choice = random_choice(rng, 4)
        assert mass(collection, GridSet.empty(4), choice) == 0.0

    def test_mass_full_density(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(3, [p])
        e = GridSet.from_interval(3, p.spatial)
        choice = ChoiceFunction.constant(3, p.freq.lo)
        assert mass(collection, e, choice) == 1.0

    def test_mass_half_density(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(3, [p])
        e = GridSet.from_interval(3, p.spatial)
        # choice hits the frequency interval on exactly half the cells of I_P
        freqs = np.zeros(8, dtype=np.int64)
        freqs[0] = p.freq.lo
        freqs[1] = p.freq.lo
        choice = ChoiceFunction(3, freqs)
        assert mass(collection, e, choice) == 0.5

    def test_mass_rejects_set_or_choice_at_other_resolution(self):
        collection = TileCollection.all(3)
        for e, choice in (
            (GridSet.full(4), ChoiceFunction.constant(3, 0)),
            (GridSet.full(3), ChoiceFunction.constant(4, 0)),
        ):
            with pytest.raises(ValueError, match="resolution mismatch"):
                mass(collection, e, choice)

    def test_size_bound_and_mass_bound(self):
        rng = np.random.default_rng(9)
        resolution = 6
        for _ in range(10):
            collection = random_convex_collection(rng, resolution)
            f = random_signal(rng, resolution, complex_values=True)
            e = random_grid_set(rng, resolution)
            choice = random_choice(rng, resolution)
            cap = math.sqrt(resolution + 1) * size_bound(collection, f)
            assert size(collection, f) <= cap * (1 + 1e-12)
            assert mass(collection, e, choice) <= mass_bound(collection, e) * (1 + 1e-12)

    def test_constant_signal_bound(self):
        rng = np.random.default_rng(10)
        collection = random_convex_collection(rng, 5)
        f = GridSignal.constant(5, 1.0)
        assert size_bound(collection, f) == 1.0
        assert size(collection, f) <= math.sqrt(6.0)


class TestDecompositions:
    def test_empty_collection(self):
        empty = TileCollection.from_bitiles(5, [])
        small, forest, stats = size_decompose(empty, GridSignal.zeros(5))
        assert not forest and len(small) == 0

    def test_single_tree_selection(self):
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(4, [p])
        f = walsh_packet(p.lower, 4)
        small, forest, stats = size_decompose(collection, f)
        assert len(forest) == 1 and len(small) == 0
        # the largest admissible top exceeding the threshold is the unit
        # interval (value 1 > (sqrt(2)/2)^2), so that tree is selected
        assert forest[0].top_interval == DyadicInterval(0, 0)
        assert stats.tops_length == 1.0

    @pytest.mark.parametrize("resolution", range(9))
    def test_size_decompose_equals_dict_tables(self, resolution):
        rng = np.random.default_rng(800 + resolution)
        for collection in size_cases(rng, resolution):
            f = random_signal(rng, resolution, complex_values=True)
            cases = [(f, None), (f, dict_size(collection, f) / 6.0), (f, 0.0)]
            cases.append((GridSignal.zeros(resolution), None))
            for signal, threshold in cases:
                small, forest, stats = size_decompose(collection, signal, threshold)
                ref_small, ref_forest, ref_stats = dict_size_decompose(collection, signal, threshold)
                assert stats == ref_stats
                assert [(t.top_interval, t.top_freq) for t in forest] == [
                    (t.top_interval, t.top_freq) for t in ref_forest
                ]
                assert [t.members.bitiles for t in forest] == [t.members.bitiles for t in ref_forest]
                assert masks_equal(small, ref_small)

    @pytest.mark.parametrize("resolution", range(1, 8))
    def test_full_decompose_equals_dict_tables(self, resolution, monkeypatch):
        rng = np.random.default_rng(900 + resolution)
        for collection in size_cases(rng, resolution):
            f = random_signal(rng, resolution, complex_values=True)
            e = random_grid_set(rng, resolution)
            choice = random_choice(rng, resolution)
            decomposition = full_decompose(collection, f, e, choice)
            with monkeypatch.context() as patch:
                patch.setattr(tiles_module, "size", dict_size)
                patch.setattr(tiles_module, "size_decompose", dict_size_decompose)
                reference = full_decompose(collection, f, e, choice)
            assert buckets_of(decomposition) == buckets_of(reference)
            assert masks_equal(decomposition.remainder, reference.remainder)

    @pytest.mark.parametrize("seed", range(6))
    def test_size_postconditions(self, seed):
        rng = np.random.default_rng(200 + seed)
        resolution = 6
        collection = random_convex_collection(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        small, forest, stats = size_decompose(collection, f)
        # halving holds exactly as computed
        assert size(small, f) <= stats.initial / 2 + 1e-13
        # partition: removed members and remainder tile the input
        removed = set().union(*(t.members.bitiles for t in forest)) if forest else set()
        assert removed | set(small.bitiles) == set(collection.bitiles)
        assert not removed & set(small.bitiles)
        # remainder and every stored tree are convex
        assert collection_is_convex(small.masks)
        for tree in forest:
            assert collection_is_convex(tree.members.masks)

    @pytest.mark.parametrize("seed", range(6))
    def test_mass_postconditions(self, seed):
        rng = np.random.default_rng(300 + seed)
        resolution = 6
        collection = random_convex_collection(rng, resolution)
        e = random_grid_set(rng, resolution)
        choice = random_choice(rng, resolution)
        small, forest, stats = mass_decompose(collection, e, choice)
        assert mass(small, e, choice) <= stats.initial / 2 + 1e-15
        removed = set().union(*(t.members.bitiles for t in forest)) if forest else set()
        assert removed | set(small.bitiles) == set(collection.bitiles)
        assert collection_is_convex(small.masks)
        for tree in forest:
            assert collection_is_convex(tree.members.masks)
        # incomparable-top counting: sum |I_T| < |E| / threshold exactly
        if stats.initial > 0 and measure(e) > 0:
            assert stats.tops_length <= measure(e) / stats.threshold * (1 + 1e-12)

    def test_mass_empty_set_keeps_everything(self):
        rng = np.random.default_rng(11)
        collection = random_convex_collection(rng, 5)
        choice = random_choice(rng, 5)
        small, forest, stats = mass_decompose(collection, GridSet.empty(5), choice)
        assert len(small) == len(collection) and not forest

    @pytest.mark.parametrize("seed", range(4))
    def test_full_decompose_partition_and_caps(self, seed):
        rng = np.random.default_rng(400 + seed)
        resolution = 6
        collection = random_convex_collection(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        e = random_grid_set(rng, resolution)
        choice = random_choice(rng, resolution)
        decomposition = full_decompose(collection, f, e, choice)
        trees = [t for bucket in decomposition.buckets.values() for t in bucket.trees]
        covered = set().union(*(t.members.bitiles for t in trees))
        assert covered | set(decomposition.remainder.bitiles) == set(collection.bitiles)
        assert not covered & set(decomposition.remainder.bitiles)
        seen = []
        for (n, m), bucket in decomposition.buckets.items():
            union = set().union(*(t.members.bitiles for t in bucket.trees))
            for p in union:
                assert p not in seen
            seen.extend(union)
            if union:
                as_collection = TileCollection.from_bitiles(resolution, union)
                assert size(as_collection, f) <= bucket.size_cap * (1 + 1e-12)
                assert mass(as_collection, e, choice) <= bucket.mass_cap * (1 + 1e-12)
        # remainder carries no coefficient or stopping mass at all
        if len(decomposition.remainder):
            assert size(decomposition.remainder, f) == 0.0
            assert mass(decomposition.remainder, e, choice) == 0.0


def zero_coefficient_signals(rng, resolution):
    """Signals with exact zero packet coefficients: the zero signal, a
    constant, and one lower packet of a random member plus a constant."""
    yield GridSignal.zeros(resolution)
    yield GridSignal.constant(resolution, 1.0)
    if resolution:
        k = int(rng.integers(resolution))
        tile = BiTile(k, int(rng.integers(1 << k)), int(rng.integers(1 << (resolution - k - 1)))).lower
        yield GridSignal(resolution, walsh_packet(tile, resolution).values + 0.5)


class TestSharedTables:
    """`full_decompose` builds the size and mass tables once and restricts
    them to every collection it meets; the oracles build them afresh."""

    @staticmethod
    def _tables_met(monkeypatch, collection, f, e, choice):
        """(collection, table) for every size, size_decompose, mass and
        mass_decompose call of one `full_decompose`."""
        met = {"size": [], "mass": []}
        for name in ("size", "size_decompose", "mass", "mass_decompose"):
            real = getattr(tiles_module, name)

            def spy(c, *args, _real=real, _kind=name.split("_")[0]):
                met[_kind].append((c, args[-1]))
                return _real(c, *args)

            monkeypatch.setattr(tiles_module, name, spy)
        decomposition = full_decompose(collection, f, e, choice)
        monkeypatch.undo()
        return met, decomposition

    @pytest.mark.parametrize("resolution", range(9))
    def test_restricted_size_table_equals_fresh_table(self, resolution, monkeypatch):
        rng = np.random.default_rng(1200 + resolution)
        for collection in size_cases(rng, resolution):
            signals = [random_signal(rng, resolution, complex_values=True)]
            signals += zero_coefficient_signals(rng, resolution)
            for f in signals:
                e, choice = GridSet.full(resolution), ChoiceFunction.constant(resolution, 0)
                if resolution:
                    e, choice = random_grid_set(rng, resolution), random_choice(rng, resolution)
                met, _ = self._tables_met(monkeypatch, collection, f, e, choice)
                # one restriction per bucket: size and size_decompose share it
                tables = {}
                for c, table in met["size"]:
                    assert tables.setdefault(id(c), table) is table
                for c, table in met["size"]:
                    fresh = tiles_module._SizeTable(c, f)
                    blocks, peak = table.full()
                    assert all(same_bits(a, b) for a, b in zip(blocks, oracle_running(fresh), strict=True))
                    assert same_bits(peak, oracle_peak(oracle_running(fresh)))
                    # a further subset, as size_decompose filters after a removal
                    masks = [m & (rng.random(m.shape) < 0.6) for m in c.masks]
                    sub_collection = TileCollection.from_masks(resolution, masks)
                    present = sub_collection.occupied.flatten()
                    sub = tiles_module._SizeTable(sub_collection, f)
                    assert all(
                        same_bits(a, b) for a, b in zip(oracle_running(table, present), oracle_running(sub), strict=True)
                    )

    @pytest.mark.parametrize("resolution", [9, 10, 11])
    def test_compressed_entries_equal_oracle_above_l8(self, resolution):
        # the scans and restrictions pick entries with np.compress; the
        # oracle picks them by boolean row indexing
        rng = np.random.default_rng(1500 + resolution)
        collection = TileCollection.all(resolution)
        table = tiles_module._SizeTable(collection, random_signal(rng, resolution, complex_values=True))
        for density in (0.02, 0.5, 0.98):
            present = collection.occupied.flatten() & (rng.random(collection.occupied.size) < density)
            running = oracle_running(table, present)
            flat = table._summed(present.take(table._slots))
            blocks = [table._block(flat, s) for s in range(resolution)]
            assert all(same_bits(a, b) for a, b in zip(blocks, running, strict=True))
            for thr in (0.0, *tie_thresholds(running, rng)[:6]):
                assert table.first_exceeding(thr, present) == oracle_first_exceeding(running, thr)
            sub = table.restricted(TileCollection(resolution, present.reshape(collection.occupied.shape)))
            blocks, peak = sub.full()
            assert all(same_bits(a, b) for a, b in zip(blocks, running, strict=True))
            assert same_bits(peak, oracle_peak(running))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("resolution", [9, 10, 11])
    def test_size_decompose_equals_oracle_above_l8(self, resolution, seed):
        rng = np.random.default_rng([1600 + resolution, seed])
        collection = TileCollection.all(resolution)
        f = random_signal(rng, resolution, complex_values=True)
        table = tiles_module._SizeTable(collection, f)
        small, forest, _ = size_decompose(collection, f, table=table)
        # the oracle sums every entry whose member remains, after every
        # removal, and takes occupancy trees
        thr = math.sqrt(oracle_peak(oracle_running(table))) / 2.0
        present = collection.occupied.flatten()
        tops = []
        while (selection := oracle_first_exceeding(oracle_running(table, present), thr)) is not None:
            tree = occupancy_take_tree(present, resolution, *selection)
            tops.append((selection, member_slots(tree)))
        assert [((t.top_interval, t.top_freq), member_slots(t)) for t in forest] == tops
        assert small.occupied.tobytes() == present.tobytes()

    @pytest.mark.parametrize("resolution", range(9))
    def test_gathered_weights_equal_member_coefficients(self, resolution):
        rng = np.random.default_rng(1300 + resolution)
        for collection in size_cases(rng, resolution):
            for f in [random_signal(rng, resolution, complex_values=True), *zero_coefficient_signals(rng, resolution)]:
                table = tiles_module._SizeTable(collection, f)
                weights = [abs(c) ** 2 for c in member_coefficients(collection, f).values()]
                reps = [p.scale + 1 for p in sorted(collection.bitiles, key=bitile_key)]
                expected = np.repeat(np.array(weights, dtype=np.float64), reps)
                assert same_bits(table._weights[:, 0], expected)
                assert same_bits(table._weights[:, 1], -expected)

    @pytest.mark.parametrize("resolution", range(1, 9))
    def test_shared_mass_table_equals_member_mass_table(self, resolution, monkeypatch):
        rng = np.random.default_rng(1400 + resolution)
        for collection in size_cases(rng, resolution):
            f = random_signal(rng, resolution, complex_values=True)
            e, choice = random_grid_set(rng, resolution), random_choice(rng, resolution)
            met, _ = self._tables_met(monkeypatch, collection, f, e, choice)
            for c, table in met["mass"]:
                fresh = tiles_module.member_mass_table(c, e, choice)
                assert all(same_bits(a, b) for a, b in zip(table, fresh, strict=True))


def exact_root(value: float) -> float | None:
    """A threshold t with t * t == value exactly, when sqrt(value) or one of
    its two neighbours is one."""
    if not value > 0.0:
        return None
    root = math.sqrt(value)
    return next((t for t in (root, math.nextafter(root, 0.0), math.nextafter(root, math.inf)) if t * t == value), None)


def tie_thresholds(blocks: list[np.ndarray], rng) -> list[float]:
    """Thresholds t whose square times 2**-s equals a value of the block at
    scale s exactly: the block's maximum and one random value, per scale."""
    out = []
    for s, block in enumerate(blocks):
        for value in (float(block.max()), float(rng.choice(block.ravel()))):
            t = exact_root(value / 2.0**-s)
            if t is not None and t * t * 2.0**-s == value:
                out.append(t)
    return out


class TestEarlyStoppingScan:
    """`size_decompose` sums the scales of its size table only until the
    scan finds a hit, and each table keeps its blocks over every entry; the
    oracles sum every scale after every removal."""

    @pytest.mark.parametrize("resolution", range(10))
    def test_each_selection_equals_full_sum_oracle(self, resolution):
        rng = np.random.default_rng(2000 + resolution)
        peak_ties = 0
        for collection in size_cases(rng, resolution):
            for f in (random_signal(rng, resolution), random_signal(rng, resolution, complex_values=True)):
                table = tiles_module._SizeTable(collection, f)
                running = oracle_running(table)
                sigma = math.sqrt(oracle_peak(running))
                ties = tie_thresholds(running, rng)
                ties = [ties[i] for i in rng.permutation(len(ties))[:4]]
                for thr in (sigma / 2.0, 0.0, sigma * 1.5, math.nextafter(sigma, math.inf), *ties):
                    present = collection.occupied.flatten()
                    selection = table.first_exceeding(thr)
                    while True:
                        assert selection == oracle_first_exceeding(oracle_running(table, present), thr)
                        if selection is None:
                            break
                        tiles_module._take_tree(present, resolution, *selection)
                        selection = table.first_exceeding(thr, present)
                    small, forest, stats = size_decompose(collection, f, thr, table)
                    ref_small, ref_forest, ref_stats = frozenset_size_decompose(collection, f, thr)
                    assert stats == ref_stats
                    assert forest_of(forest) == forest_of(ref_forest)
                    assert masks_equal(small, ref_small)
                # a tie never selects: at the peak nothing is taken
                peak_tie = exact_root(oracle_peak(running))
                if peak_tie is not None:
                    peak_ties += 1
                    assert table.first_exceeding(peak_tie) is None
                    assert not size_decompose(collection, f, peak_tie, table)[1]
        assert peak_ties or resolution == 0

    def test_restricted_table_sums_its_own_blocks(self):
        rng = np.random.default_rng(2100)
        f = random_signal(rng, 6, complex_values=True)
        parent = tiles_module._SizeTable(TileCollection.all(6), f)
        parent_blocks, _ = parent.full()
        assert parent.full()[0] is parent_blocks
        collection = random_convex_collection(rng, 6)
        blocks, peak = parent.restricted(collection).full()
        fresh = oracle_running(tiles_module._SizeTable(collection, f))
        assert all(same_bits(a, b) for a, b in zip(blocks, fresh, strict=True))
        assert peak == oracle_peak(fresh)
        assert not any(np.shares_memory(a, b) for a, b in zip(blocks, parent_blocks))
        assert not all(same_bits(a, b) for a, b in zip(blocks, parent_blocks))

    def test_kept_blocks_are_read_only(self):
        rng = np.random.default_rng(2200)
        table = tiles_module._SizeTable(TileCollection.all(5), random_signal(rng, 5))
        for block in table.full()[0]:
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                np.cumsum(block, axis=1, out=block)

    @pytest.mark.parametrize("resolution", range(1, 8))
    def test_full_blocks_summed_once_per_bucket(self, resolution, monkeypatch):
        rng = np.random.default_rng(2300 + resolution)
        collection = random_convex_collection(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        e, choice = random_grid_set(rng, resolution), random_choice(rng, resolution)
        calls = {"size": 0, "full sums": 0}
        real_size, real_summed = tiles_module.size, tiles_module._SizeTable._summed

        def count_size(*args):
            calls["size"] += 1
            return real_size(*args)

        def count_summed(table, keep=None):
            calls["full sums"] += keep is None
            return real_summed(table, keep)

        monkeypatch.setattr(tiles_module, "size", count_size)
        monkeypatch.setattr(tiles_module._SizeTable, "_summed", count_summed)
        decomposition = full_decompose(collection, f, e, choice)
        assert decomposition.buckets
        # size and the split of one bucket share its table's blocks
        assert calls["full sums"] == calls["size"]

    @pytest.mark.parametrize("threshold", [-0.05, -math.inf, math.nan])
    def test_negative_or_nan_threshold_rejected(self, threshold):
        rng = np.random.default_rng(2400)
        collection = random_convex_collection(rng, 5)
        f = random_signal(rng, 5, complex_values=True)
        e, choice = random_grid_set(rng, 5), random_choice(rng, 5)
        with pytest.raises(ValueError, match="threshold"):
            size_decompose(collection, f, threshold)
        with pytest.raises(ValueError, match="threshold"):
            mass_decompose(collection, e, choice, threshold)


class TestTreeEstimate:
    def test_zero_signal(self):
        rng = np.random.default_rng(12)
        tree = random_tree(rng, 5)
        report = tree_estimate(tree, GridSignal.zeros(5), GridSet.full(5), random_choice(rng, 5))
        assert report["lhs"] == 0.0

    def test_single_bitile_oscillation_cancels(self):
        # E covering the whole spatial interval pairs the indicator with a
        # mean-zero packet, so the pairing vanishes identically
        p = BiTile(1, 0, 1)
        tree = Tree.from_members(p.spatial, p.upper.freq.lo, TileCollection.from_bitiles(3, [p]))
        f = walsh_packet(p.lower, 3)
        e = GridSet.from_interval(3, p.spatial)
        choice = ChoiceFunction.constant(3, p.upper.freq.lo)
        report = tree_estimate(tree, f, e, choice)
        assert report["lhs"] == pytest.approx(0.0, abs=1e-15)
        assert report["rhs"] == pytest.approx(p.spatial.length * math.sqrt(2.0), abs=1e-12)

    def test_single_bitile_half_set(self):
        p = BiTile(1, 0, 1)
        tree = Tree.from_members(p.spatial, p.upper.freq.lo, TileCollection.from_bitiles(3, [p]))
        f = walsh_packet(p.lower, 3)
        e = GridSet(3, np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=bool))
        choice = ChoiceFunction.constant(3, p.upper.freq.lo)
        psi = walsh_packet(p.upper, 3).values.real
        expected = abs(psi[0]) * 0.125
        report = tree_estimate(tree, f, e, choice)
        assert report["lhs"] == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_sum(self, seed):
        rng = np.random.default_rng(500 + seed)
        resolution = 5
        tree = random_tree(rng, resolution)
        f = random_signal(rng, resolution, complex_values=True)
        e = random_grid_set(rng, resolution)
        choice = random_choice(rng, resolution)
        direct = 0.0
        for p in tree.members.bitiles:
            coef = inner_product(f, walsh_packet(p.lower, resolution))
            psi = walsh_packet(p.upper, resolution).values.real
            sel = e.mask & (choice.freqs >= p.upper.freq.lo) & (choice.freqs < p.upper.freq.hi)
            direct += abs(coef) * abs(float(np.sum(psi[sel]) * 2.0**-resolution))
        report = tree_estimate(tree, f, e, choice)
        assert report["lhs"] == pytest.approx(direct, abs=1e-12)


class TestCollections:
    def test_convex_closure_is_convex(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            collection = random_convex_collection(rng, 5)
            assert collection_is_convex(collection.masks)
            assert pairwise_is_convex(collection.bitiles)

    def test_all_bitiles_count(self):
        # L * 2^(L-1) bi-tiles at resolution L
        for resolution in (2, 3, 4, 5):
            assert len(all_bitiles(resolution)) == resolution * (1 << (resolution - 1))

    def test_non_convex_detected(self):
        lo = BiTile(2, 0, 0)
        hi = BiTile(0, 0, 0)
        assert lo <= hi
        assert not pairwise_is_convex({lo, hi})
        assert not collection_is_convex(TileCollection.from_bitiles(3, {lo, hi}).masks)

    @pytest.mark.parametrize("resolution", [1, 2, 3])
    def test_convexity_and_closure_match_pairwise_on_every_subset(self, resolution):
        tiles = all_bitiles(resolution)
        for bits in range(1 << len(tiles)):
            subset = [p for i, p in enumerate(tiles) if (bits >> i) & 1]
            collection = TileCollection.from_bitiles(resolution, subset)
            assert collection_is_convex(collection.masks) == pairwise_is_convex(subset)
            closure = TileCollection.convex_closure(resolution, subset)
            assert closure.bitiles == pairwise_closure(subset)

    @pytest.mark.parametrize("resolution", [4, 5])
    def test_convexity_and_closure_match_pairwise_on_random_subsets(self, resolution):
        rng = np.random.default_rng(14 + resolution)
        tiles = all_bitiles(resolution)
        verdicts = set()
        for _ in range(150):
            density = rng.choice([0.05, 0.15, 0.4])
            subset = [p for p in tiles if rng.random() < density]
            collection = TileCollection.from_bitiles(resolution, subset)
            verdicts.add(collection_is_convex(collection.masks))
            assert collection_is_convex(collection.masks) == pairwise_is_convex(subset)
            closure = TileCollection.convex_closure(resolution, subset)
            assert closure.bitiles == pairwise_closure(subset)
        assert verdicts == {True, False}

    def test_masks_enumerate_in_bitile_key_order(self):
        rng = np.random.default_rng(15)
        collection = random_convex_collection(rng, 5)
        members = list(member_coefficients(collection, random_signal(rng, 5)))
        assert members == sorted(collection.bitiles, key=bitile_key)
        assert len(members) == len(collection)

    def test_member_coefficients_are_packet_inner_products(self):
        rng = np.random.default_rng(16)
        collection = random_convex_collection(rng, 5)
        f = random_signal(rng, 5, complex_values=True)
        for p, c in member_coefficients(collection, f).items():
            assert type(c) is complex
            assert abs(c - inner_product(f, walsh_packet(p.lower, 5))) <= 1e-12

    def test_masks_are_read_only(self):
        collection = TileCollection.all(3)
        with pytest.raises(ValueError):
            collection.masks[0][0, 0] = False

    def test_bitile_outside_resolution_rejected(self):
        with pytest.raises(ValueError):
            TileCollection.from_bitiles(3, [BiTile(3, 0, 0)])
        with pytest.raises(ValueError):
            TileCollection.from_bitiles(3, [BiTile(1, 0, 2)])
        with pytest.raises(ValueError):
            TileCollection.from_masks(3, (np.ones((1, 4), dtype=bool),))
        with pytest.raises(ValueError):
            TileCollection(3, np.ones((3, 8), dtype=bool))

    def test_tree_check_matches_interval_containment(self):
        # the integer check accepts a member exactly when its spatial
        # interval lies in the top and its frequency interval holds top_freq
        resolution = 3
        tops = [DyadicInterval(k, n) for k in range(resolution + 1) for n in range(1 << k)]
        for top in tops:
            for top_freq in [-9, -1, *range(10), (1 << 20) + 3]:
                for p in all_bitiles(resolution):
                    fits = top.contains(p.spatial) and p.freq.contains_point(top_freq)
                    try:
                        Tree.from_members(top, top_freq, TileCollection.from_bitiles(resolution, [p]))
                    except ValueError:
                        assert not fits
                    else:
                        assert fits

    def test_tree_validation(self):
        p = BiTile(1, 0, 1)
        with pytest.raises(ValueError):
            Tree.from_members(DyadicInterval(2, 0), p.freq.lo, TileCollection.from_bitiles(3, [p]))
        with pytest.raises(ValueError):
            Tree.from_members(p.spatial, p.freq.hi + 5, TileCollection.from_bitiles(3, [p]))


# ---------------------------------------------------------------------------
# frozenset oracles: trees as `Tree` held them before their members became a
# collection, the per-scale take that built them, and the per-member loops
# over them


@dataclass(frozen=True)
class FrozensetTree:
    """A tree whose members are a frozenset of `BiTile` objects, checked
    member by member."""

    top_interval: DyadicInterval
    top_freq: int
    members: frozenset

    def __post_init__(self):
        s, offset = self.top_interval.scale, self.top_interval.offset
        for p in self.members:
            if p.scale < s or p.offset >> (p.scale - s) != offset:
                raise ValueError(f"member {p} escapes the top interval")
            if self.top_freq >> (p.scale + 1) != p.freq_index:
                raise ValueError(f"top frequency misses member {p}")

    @property
    def top_measure(self) -> float:
        return self.top_interval.length


def flat_copy(masks) -> tuple[np.ndarray, list[np.ndarray]]:
    """A writable copy of per-scale masks laid end to end in one flat array,
    and per-scale views into it."""
    flat = np.concatenate([m.ravel() for m in masks]) if masks else np.zeros(0, dtype=bool)
    views, start = [], 0
    for m in masks:
        views.append(flat[start : start + m.size].reshape(m.shape))
        start += m.size
    return flat, views


def frozenset_take_tree(masks, top: DyadicInterval, xi: int) -> frozenset:
    """Clear from the per-scale masks, and return, every member under the top
    interval whose frequency interval contains xi, scale by scale."""
    picked = []
    for k in range(top.scale, len(masks)):
        rows = slice(top.offset << (k - top.scale), (top.offset + 1) << (k - top.scale))
        col = xi >> (k + 1)
        hits = np.flatnonzero(masks[k][rows, col])
        picked.extend(BiTile(k, rows.start + int(i), col) for i in hits)
        masks[k][rows, col] = False
    return frozenset(picked)


def frozenset_size_decompose(collection, f, threshold=None, table=None):
    """`size_decompose` over per-scale masks, taking frozenset trees."""
    table = tiles_module._SizeTable(collection, f) if table is None else table
    running = oracle_running(table)
    sigma = math.sqrt(oracle_peak(running))
    thr = sigma / 2.0 if threshold is None else threshold
    present, current = flat_copy(collection.masks)
    forest, tops_length = [], 0.0
    while (selection := oracle_first_exceeding(running, thr)) is not None:
        top, xi = selection
        forest.append(FrozensetTree(top, xi, frozenset_take_tree(current, top, xi)))
        tops_length += top.length
        running = oracle_running(table, present)
    norm_sq = lp_norm(f.values, 2.0, f.resolution) ** 2
    constant = tops_length * sigma**2 / norm_sq if norm_sq > 0 else 0.0
    stats = DecompositionStats(sigma, thr, tops_length, len(forest), constant)
    return TileCollection.from_masks(collection.resolution, current), forest, stats


def per_scale_mass_table(collection, e, choice) -> tuple[np.ndarray, ...]:
    """The member mass table as one (2**k, 2**(L-k-1)) array per scale,
    counted with `np.add.at`."""
    L = collection.resolution
    cells = np.arange(1 << L)
    out = []
    for k, mask in enumerate(collection.masks):
        counts = np.zeros(mask.shape, dtype=np.int64)
        np.add.at(counts, ((cells >> (L - k))[e.mask], (choice.freqs >> (k + 1))[e.mask]), 1)
        out.append(np.where(mask, counts * 2.0 ** (k - L), 0.0))
    return tuple(out)


def frozenset_mass_decompose(collection, e, choice, threshold=None, table=None):
    """`mass_decompose` over per-scale masks and tables, taking frozenset
    trees under the heavy members, as `BiTile` objects in `bitile_key`
    order; a table passed in is ignored."""
    L = collection.resolution
    table = per_scale_mass_table(collection, e, choice)
    mu = max((float(t.max()) for t in table), default=0.0)
    thr = mu / 2.0 if threshold is None else threshold
    current = [m.copy() for m in collection.masks]
    heavy = TileCollection.from_masks(L, [m & (t > thr) for m, t in zip(current, table)])
    forest, tops_length = [], 0.0
    for top in sorted(heavy.bitiles, key=bitile_key):
        if current[top.scale][top.offset, top.freq_index]:
            taken = frozenset_take_tree(current, top.spatial, top.freq.lo)
            forest.append(FrozensetTree(top.spatial, top.freq.lo, taken))
            tops_length += top.spatial.length
    e_measure = measure(e)
    constant = tops_length * mu / e_measure if e_measure > 0 else 0.0
    stats = DecompositionStats(mu, thr, tops_length, len(forest), constant)
    return TileCollection.from_masks(L, current), forest, stats


def frozenset_tree_estimate(tree, f, e, choice) -> tuple[float, float]:
    """(lhs, rhs) of `tree_estimate` by the per-member loop over the members
    as a frozenset, each pairing summed over the packet's cells."""
    L = f.resolution
    coeffs = member_coefficients(tree.members, f)
    lhs = 0.0
    for p in tree.members.bitiles:
        psi = walsh_packet(p.upper, L).values.real
        sel = e.mask & (p.upper.freq.lo <= choice.freqs) & (choice.freqs < p.upper.freq.hi)
        lhs += abs(coeffs[p]) * abs(float(np.sum(psi[sel]) * cell_width(L)))
    return lhs, tree.top_measure * size(tree.members, f) * mass(tree.members, e, choice)


def within(value: float, expected: float, rel: float = 1e-14) -> bool:
    return abs(value - expected) <= rel * abs(expected)


def mass_cases(rng, resolution):
    """(set, choice) pairs: random ones, and the only ones at L = 0."""
    if resolution == 0:
        return [(GridSet.full(0), ChoiceFunction.constant(0, 0))]
    return [(random_grid_set(rng, resolution), random_choice(rng, resolution)) for _ in range(2)]


class TestFrozensetOracles:
    @pytest.mark.parametrize("resolution", range(9))
    def test_forests_equal_frozenset_oracles(self, resolution):
        rng = np.random.default_rng(1500 + resolution)
        convexity = set()
        # a member below another L - 1 >= 2 scales up, with nothing between
        gap = [BiTile(0, 0, 0), BiTile(resolution - 1, 0, 0)] if resolution >= 3 else []
        for collection in [*size_cases(rng, resolution), TileCollection.from_bitiles(resolution, gap)]:
            convexity.add(collection_is_convex(collection.masks))
            f = random_signal(rng, resolution, complex_values=True)
            for threshold in (None, size(collection, f) / 5.0, 0.0):
                small, forest, stats = size_decompose(collection, f, threshold)
                ref_small, ref_forest, ref_stats = frozenset_size_decompose(collection, f, threshold)
                assert stats == ref_stats
                assert forest_of(forest) == forest_of(ref_forest)
                assert masks_equal(small, ref_small)
            for e, choice in mass_cases(rng, resolution):
                for threshold in (None, mass(collection, e, choice) / 5.0, 0.0):
                    small, forest, stats = mass_decompose(collection, e, choice, threshold)
                    ref_small, ref_forest, ref_stats = frozenset_mass_decompose(collection, e, choice, threshold)
                    assert stats == ref_stats
                    assert forest_of(forest) == forest_of(ref_forest)
                    assert masks_equal(small, ref_small)
        # at L <= 2 every collection is convex: a member lies at most one
        # scale below another
        assert convexity == ({True, False} if resolution >= 3 else {True})

    @pytest.mark.parametrize("resolution", range(9))
    def test_full_decompose_equals_frozenset_oracles(self, resolution, monkeypatch):
        rng = np.random.default_rng(1600 + resolution)
        for collection in size_cases(rng, resolution):
            f = random_signal(rng, resolution, complex_values=True)
            for e, choice in mass_cases(rng, resolution):
                decomposition = full_decompose(collection, f, e, choice)
                with monkeypatch.context() as patch:
                    patch.setattr(tiles_module, "size_decompose", frozenset_size_decompose)
                    patch.setattr(tiles_module, "mass_decompose", frozenset_mass_decompose)
                    reference = full_decompose(collection, f, e, choice)
                assert buckets_of(decomposition) == buckets_of(reference)
                assert masks_equal(decomposition.remainder, reference.remainder)

    @pytest.mark.parametrize("resolution", range(9))
    def test_mass_table_equals_per_scale_counts(self, resolution):
        rng = np.random.default_rng(1700 + resolution)
        for collection in size_cases(rng, resolution):
            for e, choice in mass_cases(rng, resolution):
                table = tiles_module.member_mass_table(collection, e, choice)
                assert table.shape == collection.occupied.shape
                expected = per_scale_mass_table(collection, e, choice)
                assert all(same_bits(row.reshape(t.shape), t) for row, t in zip(table, expected, strict=True))

    @pytest.mark.parametrize("resolution", range(1, 9))
    def test_tree_estimate_equals_member_loop(self, resolution):
        rng = np.random.default_rng(1800 + resolution)
        trees = [random_tree(rng, resolution) for _ in range(6)]
        collection = TileCollection.all(resolution)
        f = random_signal(rng, resolution, complex_values=True)
        e, choice = random_grid_set(rng, resolution), random_choice(rng, resolution)
        for bucket in full_decompose(collection, f, e, choice).buckets.values():
            trees += bucket.trees
        for tree in trees:
            f = random_signal(rng, resolution, complex_values=True)
            e, choice = random_grid_set(rng, resolution), random_choice(rng, resolution)
            report = tree_estimate(tree, f, e, choice)
            lhs, rhs = frozenset_tree_estimate(tree, f, e, choice)
            assert within(report["lhs"], lhs) and report["rhs"] == rhs

    def test_array_tree_check_equals_member_loop(self):
        rng = np.random.default_rng(19)
        resolution = 4
        tiles = all_bitiles(resolution)
        verdicts = set()
        for _ in range(400):
            scale = int(rng.integers(0, resolution + 1))
            top = DyadicInterval(scale, int(rng.integers(0, 1 << scale)))
            xi = int(rng.integers(-2, (1 << resolution) + 2))
            # mostly bi-tiles under the top, now and then one anywhere
            under = [p for p in tiles if top.contains(p.spatial) and p.freq.contains_point(xi)]
            members = [p for p in tiles if (p in under and rng.random() < 0.5) or rng.random() < 0.02]
            outcomes = []
            for build in (
                lambda: Tree.from_members(top, xi, TileCollection.from_bitiles(resolution, members)),
                lambda: OccupancyTree(top, xi, TileCollection.from_bitiles(resolution, members)),
                lambda: FrozensetTree(top, xi, frozenset(members)),
            ):
                try:
                    build()
                except ValueError:
                    outcomes.append(False)
                else:
                    outcomes.append(True)
            assert outcomes[0] == outcomes[1] == outcomes[2]
            verdicts.add(outcomes[0])
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "member, message",
        [
            (BiTile(0, 0, 1), "member BiTile\\(scale=0, offset=0, freq_index=1\\) escapes the top interval"),
            (BiTile(2, 0, 1), "member BiTile\\(scale=2, offset=0, freq_index=1\\) escapes the top interval"),
            (BiTile(2, 3, 0), "top frequency misses member BiTile\\(scale=2, offset=3, freq_index=0\\)"),
        ],
        ids=["above-the-top-scale", "outside-its-rows", "off-its-column"],
    )
    def test_escaping_member_raises(self, member, message):
        # the top [1/2, 1) at scale 1 with xi = 12 holds, at each scale k from
        # 1 to 3, the rows under [1/2, 1) in column 12 >> (k + 1); a slot tree
        # and the occupancy oracle raise the same message
        top, xi = DyadicInterval(1, 1), 12
        inside = [BiTile(1, 1, 3), BiTile(2, 2, 1), BiTile(2, 3, 1), BiTile(3, 5, 0)]
        assert all(top.contains(p.spatial) and p.freq.contains_point(xi) for p in inside)
        for build in (Tree.from_members, OccupancyTree):
            assert build(top, xi, TileCollection.from_bitiles(4, inside)).members.bitiles == set(inside)
            with pytest.raises(ValueError, match=message):
                build(top, xi, TileCollection.from_bitiles(4, [*inside, member]))

    def test_decomposition_path_builds_no_bitile(self, monkeypatch):
        from dyadlab.carleson import RestrictedOp, restricted_pairing
        from dyadlab.maximal import exceptional_complement

        rng = np.random.default_rng(20)
        resolution = 6
        collections = [TileCollection.all(resolution), random_convex_collection(rng, resolution)]
        f = random_signal(rng, resolution, complex_values=True)
        e, choice = random_grid_set(rng, resolution), random_choice(rng, resolution)
        g_set, f_set = random_grid_set(rng, resolution), random_grid_set(rng, resolution)
        h_prime = exceptional_complement(GridSet.full(resolution), g_set, 4.0)

        def refuse(self):
            raise AssertionError("a BiTile was built")

        monkeypatch.setattr(BiTile, "__post_init__", refuse)
        for collection in collections:
            decomposition = full_decompose(collection, f, e, choice)
            trees = [t for bucket in decomposition.buckets.values() for t in bucket.trees]
            assert trees
            size_decompose(collection, f)
            mass_decompose(collection, e, choice)
            for tree in trees:
                tree_estimate(tree, f, e, choice)
            op = RestrictedOp(g_set, h_prime, choice, collection)
            indicator = GridSignal.indicator(resolution, e)
            restricted_pairing(indicator, GridSignal.indicator(resolution, f_set), e, f_set, op, t=2.5)
        with pytest.raises(AssertionError, match="a BiTile was built"):
            BiTile(0, 0, 0)


class TestOccupancyArray:
    def test_one_array_field(self):
        assert [f.name for f in dataclasses.fields(TileCollection)] == ["resolution", "occupied"]

    @pytest.mark.parametrize("resolution", range(9))
    def test_slots_enumerate_bitiles_in_key_order(self, resolution):
        tiles = all_bitiles(resolution)
        assert tiles == sorted(tiles, key=bitile_key)
        slots = [tiles_module.tile_slot(resolution, p.scale, p.offset, p.freq_index) for p in tiles]
        assert slots == list(range(resolution * ((1 << resolution) >> 1)))
        arrays = np.array([bitile_key(p) for p in tiles], dtype=np.int64).reshape(-1, 3).T
        assert tiles_module.tile_slot(resolution, *arrays).tolist() == slots

    @pytest.mark.parametrize("resolution", range(9))
    def test_masks_are_read_only_views_of_the_rows(self, resolution):
        rng = np.random.default_rng(2100 + resolution)
        for collection in size_cases(rng, resolution):
            assert collection.occupied.shape == (resolution, (1 << resolution) >> 1)
            assert not collection.occupied.flags.writeable
            assert collection.masks is collection.masks
            for k, mask in enumerate(collection.masks):
                assert mask.shape == (1 << k, 1 << (resolution - k - 1))
                assert np.shares_memory(mask, collection.occupied)
                assert np.array_equal(mask.ravel(), collection.occupied[k])
                assert not mask.flags.writeable
            assert TileCollection.from_bitiles(resolution, collection.bitiles).occupied.tobytes() == (
                collection.occupied.tobytes()
            )
            slots = np.flatnonzero(collection.occupied)
            assert TileCollection.from_slots(resolution, slots).occupied.tobytes() == collection.occupied.tobytes()
            assert len(collection) == len(collection.bitiles)

    def test_constructor_copies_its_array(self):
        occupied = np.ones((3, 4), dtype=bool)
        collection = TileCollection(3, occupied)
        occupied[0, 0] = False
        assert collection.occupied.all() and occupied.flags.writeable

    @pytest.mark.parametrize("slot", [-1, 12])
    def test_from_slots_rejects_a_slot_outside_the_array(self, slot):
        # at L=3 the slots are range(12); numpy would read -1 as slot 11
        with pytest.raises(ValueError, match=f"^slot {slot} outside range\\(12\\) at resolution 3$"):
            TileCollection.from_slots(3, [0, slot])
        with pytest.raises(ValueError, match="^slots must be integers, got 1.5$"):
            TileCollection.from_slots(3, [0, 1.5])
        assert TileCollection.from_slots(3, [0, 11]).occupied.reshape(-1).nonzero()[0].tolist() == [0, 11]

    @pytest.mark.parametrize("resolution", range(7))
    def test_term_tables_by_brute_force(self, resolution):
        """At every (N, x, k): the slot is `tile_slot` of the bi-tile over
        x whose upper tile holds N, the bit is bit k of N, and where it is
        set, the sign is the Walsh function N >> k at x's place in its
        block."""
        L, n = resolution, 1 << resolution
        cell_slots, freq_slots, bits, signed = term_tables(L)
        assert [table.shape for table in term_tables(L)] == [(n, L)] * 4
        x = np.arange(n)
        rev = bit_reversal(L)
        for N in range(n):
            for k in range(L):
                slots = cell_slots[x, k] + freq_slots[N, k]
                assert slots.tolist() == tile_slot(L, k, x >> (L - k), N >> (k + 1)).tolist()
                assert bits[N, k] == (N >> k) & 1
                if bits[N, k]:
                    signs = signed[N & rev, k] >> k
                    assert signs.tolist() == walsh_values(N >> k, L - k)[x % (1 << (L - k))].tolist()

    def test_term_tables_build_without_full_size_temporaries(self):
        """At every L up to 12 the tables are the bytes and dtypes of the
        whole-array construction, and at L = 12 building them peaks within
        1.1 times the bytes they keep, as tracemalloc counts numpy's
        allocations (1.47 times with the whole-array temporaries)."""
        for L in range(13):
            k, values = np.arange(L), np.arange(1 << L)[:, None]
            expected = (
                tile_slot(L, k, values >> (L - k), 0),
                values >> (k + 1),
                ((values >> k) & 1).astype(np.int16),
                (1 - 2 * (np.bitwise_count(values >> k) & 1).astype(np.int16)) << k.astype(np.int16),
            )
            for got, want in zip(term_tables(L), expected, strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        tracemalloc.start()
        try:
            tables = term_tables.__wrapped__(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(table.nbytes for table in tables)
        assert kept == 983_040 and peak <= 1.1 * kept

    @pytest.mark.parametrize("resolution", range(13))
    def test_upper_cells_equal_the_oracle(self, resolution):
        """The five arrays of `upper_cells`, dtypes included, are those of
        the tile-index stack and block gathers of `oracle_upper_cells`, on
        random choices and the constant choices 0 and 2**L - 1."""
        rng = np.random.default_rng(2130 + resolution)
        L, n = resolution, 1 << resolution
        members = 1 if L >= 11 else 3
        cases = [
            [random_choice(rng, L) for _ in range(members)],
            [ChoiceFunction.constant(L, 0)],
            [ChoiceFunction.constant(L, n - 1)],
        ]
        for choices in cases:
            got, expected = upper_cells(choices), oracle_upper_cells(choices)
            assert [a.dtype for a in got] == [a.dtype for a in expected]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


# ---------------------------------------------------------------------------
# occupancy oracle: trees as `Tree` held them before they became slot
# arrays, one (L, 2**(L-1)) occupancy collection per tree, and the take that
# built them


@dataclass(frozen=True, eq=False)
class OccupancyTree:
    """A tree whose members are a `TileCollection`, checked by clearing the
    tree's slots from a copy of its occupancy array."""

    top_interval: DyadicInterval
    top_freq: int
    members: TileCollection

    def __post_init__(self):
        stray = self.members.occupied.copy()
        stray.reshape(-1)[tiles_module._tree_slots(self.members.resolution, self.top_interval, self.top_freq)] = False
        if stray.any():
            k, offset, freq_index = next(tiles_module.member_indices(stray))
            p, s = BiTile(k, offset, freq_index), self.top_interval.scale
            if k < s or offset >> (k - s) != self.top_interval.offset:
                raise ValueError(f"member {p} escapes the top interval")
            raise ValueError(f"top frequency misses member {p}")

    @property
    def top_measure(self) -> float:
        return self.top_interval.length


def occupancy_take_tree(present: np.ndarray, resolution: int, top: DyadicInterval, xi: int) -> OccupancyTree:
    """Clear from the flat occupancy array `present`, and return as an
    occupancy tree, every member under the top interval whose frequency
    interval contains xi."""
    slots = tiles_module._tree_slots(resolution, top, xi)
    occupied = np.zeros_like(present)
    occupied[slots] = present[slots]
    present[slots] = False
    return OccupancyTree(top, xi, TileCollection(resolution, occupied.reshape(resolution, -1)))


def member_slots(tree) -> list[int]:
    """The ascending slots of a tree's members, held as slots or, by the
    oracle, as an occupancy collection."""
    if isinstance(tree, OccupancyTree):
        return np.flatnonzero(tree.members.occupied).tolist()
    return tree.slots.tolist()


def slot_forest(decomposition) -> list:
    """Every bucket's key and count ratio, and its trees' tops, top
    frequencies and member slots, in order."""
    return [
        (key, b.count_ratio, [(t.top_interval, t.top_freq, member_slots(t)) for t in b.trees])
        for key, b in decomposition.buckets.items()
    ]


def decompose_shape(resolution: int, seed, files: bool):
    """The inputs of `dyadlab decompose` in the shape of the decompose
    benchmark's ops, as the decompose goldens draw them: every bi-tile, a
    complex Gaussian signal in the cell basis and, with files, a set holding
    each cell with probability 1/2 and a uniformly random choice; without,
    the full set and the zero choice, the CLI's defaults."""
    rng = np.random.default_rng(seed)
    n = 1 << resolution
    signal = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    e, choice = GridSet.full(resolution), ChoiceFunction.constant(resolution, 0)
    if files:
        e = GridSet(resolution, rng.random(n) < 0.5)
        choice = ChoiceFunction(resolution, rng.integers(0, n, size=n))
    return TileCollection.all(resolution), signal, e, choice


class TestSlotTrees:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("resolution", range(1, 11))
    def test_full_decompose_equals_occupancy_oracle(self, resolution, seed, monkeypatch):
        for files in (False, True):
            collection, f, e, choice = decompose_shape(resolution, [2500 + resolution, seed], files)
            decomposition = full_decompose(collection, f, e, choice)
            with monkeypatch.context() as patch:
                patch.setattr(tiles_module, "_take_tree", occupancy_take_tree)
                reference = full_decompose(collection, f, e, choice)
            assert all(isinstance(t, OccupancyTree) for b in reference.buckets.values() for t in b.trees)
            assert slot_forest(decomposition) == slot_forest(reference)
            assert decomposition.remainder.occupied.tobytes() == reference.remainder.occupied.tobytes()

    def test_forest_storage_is_one_slot_per_bitile_at_most(self):
        # the decompose-L10 golden's input shape: each member lands in at
        # most one tree, so the forest holds at most one int64 slot per
        # bi-tile of the input, where occupancy trees held L 2**(L-1) bytes
        # each
        collection, f, e, choice = decompose_shape(10, 83, files=True)
        trees = [t for b in full_decompose(collection, f, e, choice).buckets.values() for t in b.trees]
        assert len(trees) > 100
        assert sum(t.slots.nbytes for t in trees) <= 8 * collection.occupied.size
        taken = np.concatenate([t.slots for t in trees])
        assert np.unique(taken).size == taken.size

    @pytest.mark.parametrize("resolution", range(1, 9))
    def test_slots_ascend_read_only_and_rebuild_members(self, resolution):
        rng = np.random.default_rng(2600 + resolution)
        for collection in size_cases(rng, resolution):
            f = random_signal(rng, resolution, complex_values=True)
            e, choice = random_grid_set(rng, resolution), random_choice(rng, resolution)
            for bucket in full_decompose(collection, f, e, choice).buckets.values():
                for tree in bucket.trees:
                    assert tree.resolution == resolution and tree.slots.dtype == np.int64
                    assert np.all(np.diff(tree.slots) > 0) and not tree.slots.flags.writeable
                    # the members pass the occupancy oracle's check and
                    # round-trip through the checked constructor
                    OccupancyTree(tree.top_interval, tree.top_freq, tree.members)
                    rebuilt = Tree.from_members(tree.top_interval, tree.top_freq, tree.members)
                    assert rebuilt.slots.tolist() == tree.slots.tolist()


@pytest.mark.parametrize("freqs", [[0.5] * 8, [np.nan] + [0.0] * 7, [np.inf] + [0.0] * 7])
def test_choice_function_rejects_entries_that_are_no_integers(freqs):
    with pytest.raises(ValueError, match="^frequencies must be integers, got "):
        ChoiceFunction(3, freqs)
    # integral values of any dtype are frequencies
    for dtype in (np.float64, np.float32, np.uint8, np.int32):
        choice = ChoiceFunction(3, np.arange(8, dtype=dtype))
        assert choice.freqs.dtype == np.int64 and choice.freqs.tolist() == list(range(8))


# the guards of the tile data types: a call each rejects, and its message
TILE_GUARDS = {
    "FreqInterval": (lambda: FreqInterval(0, -1), "frequency interval needs nonnegative bits and index"),
    "Tile-offset": (lambda: Tile(1, 2, 0), "bad tile spatial data"),
    "Tile-freq": (lambda: Tile(1, 0, -1), "bad tile frequency index"),
    "ChoiceFunction-shape": (lambda: ChoiceFunction(2, [0, 0, 0]), "expected 4 frequency entries, got shape (3,)"),
    "ChoiceFunction-range": (lambda: ChoiceFunction(2, [0, 0, 0, 4]), "frequencies must lie in [0, 2**L)"),
}


@pytest.mark.parametrize("call, message", TILE_GUARDS.values(), ids=TILE_GUARDS)
def test_input_guards_keep_their_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
