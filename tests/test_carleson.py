import functools
import json
import math

import numpy as np
import pytest

import dyadlab.carleson as carleson
from dyadlab.carleson import (
    RestrictedOp,
    _choice_family,
    collection_caps,
    greedy_choice,
    norm_decay_ladder,
    norm_decay_point,
    restricted_matrices,
    restricted_norm,
    restricted_pairing,
    retain_meeting,
    verify_vector_carleson,
)
from dyadlab.reports import safe_ratio
from dyadlab.grid import (
    DyadicInterval,
    GridSet,
    GridSignal,
    VectorSignal,
    inner_product,
    measure,
)
from dyadlab.maximal import exceptional_complement
from dyadlab.harness import (
    random_choice,
    random_convex_collection,
    random_grid_set,
    random_signal,
    random_vector,
)
from dyadlab.principle import TopSingularResult, densify, power_iteration
from dyadlab.tiles import (
    ChoiceFunction,
    ModelSumPlan,
    TileCollection,
    full_decompose,
    mass,
    member_coefficients,
    model_sum,
    size_bound,
    lower_coefficients,
    upper_cells,
)
from dyadlab.grid import STACK_CELLS, stack_slices
from dyadlab.walsh import bit_reversal, block_gathers, walsh_matrix, walsh_values
from test_principle import (
    MapPair,
    assert_same_krylov,
    lone,
    old_localized,
    old_top_singular,
    one_member_run,
    rowwise,
)
from test_tiles import packet_coefficients, same_bits


def old_restricted_pair(op: RestrictedOp):
    """The apply_restricted / adjoint_restricted pair and the closures
    restricted_norm built on them before the engine masked."""
    L = op.a.resolution
    plan = ModelSumPlan([op.choice], op.collection)

    def apply_restricted(f):
        masked = GridSignal(f.resolution, f.values * op.b.mask)
        return GridSignal(f.resolution, plan.apply(masked.values) * op.a.mask)

    def adjoint_restricted(g):
        masked = GridSignal(g.resolution, g.values * op.a.mask)
        return GridSignal(g.resolution, plan.adjoint(masked.values) * op.b.mask)

    def fwd(v):
        return apply_restricted(GridSignal(L, v)).values

    def adj(v):
        return adjoint_restricted(GridSignal(L, v)).values

    return fwd, adj


def old_norm_decay_point(
    h, g, collection, seed=0, c=4.0, iters=150, adversary_rounds=2, branch="h"
):
    """The loop norm_decay_point ran before the choice family and each refit
    round ran as one stack: one norm run per choice function, in family
    order, each chain refit right after its own run, and every greedy choice
    fitted on the whole grid."""
    L = h.resolution
    rng = np.random.default_rng(seed)
    if branch == "h":
        h_prime = exceptional_complement(h, g, c)
        a_set, b_set, keep = g, h_prime, h_prime
        ratio = safe_ratio(measure(g), measure(h))
    else:
        g_prime = exceptional_complement(g, h, c)
        a_set, b_set, keep = g_prime, h, g_prime
        ratio = safe_ratio(measure(h), measure(g))
    surviving = retain_meeting(collection, keep)

    def alone(choice, seed):
        plan = ModelSumPlan([choice], surviving)
        return one_member_run(plan, a_set.mask, b_set.mask, seed, max_steps=iters, vectors=True)

    winner = None
    best_choice = None
    unconverged = 0
    probe = VectorSignal(L, rng.standard_normal((1, 1 << L)))
    for idx, choice in enumerate(_choice_family(surviving, L, rng, probe, GridSet.full(L))):
        res = alone(choice, seed + idx)
        unconverged += not res.converged
        vec = res.top_vector
        for round_ in range(adversary_rounds):
            if vec is None:
                break
            refit = sign_table_greedy_choice(GridSignal(L, np.asarray(vec) * b_set.mask), surviving, GridSet.full(L))
            res2 = alone(refit, seed + 131 + round_)
            unconverged += not res2.converged
            if res2.norm > res.norm:
                res, choice, vec = res2, refit, res2.top_vector
            else:
                break
        if winner is None or res.norm > winner.norm:
            winner, best_choice = res, choice
    return {
        "norm": winner.norm,
        "ratio": ratio,
        "choice": best_choice,
        "kept": measure(keep),
        "iterations": winner.steps,
        "converged": winner.converged,
        "norm_upper": None,
        "unconverged": unconverged,
    }


@pytest.fixture
def krylov_path():
    """restricted_norm on the Krylov engine at every resolution, as it runs
    above carleson.DENSE_RESOLUTION; a context of its own, so a test's
    monkeypatch.undo() keeps it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(carleson, "DENSE_RESOLUTION", -1)
        yield


def dense_greedy_choice(f: GridSignal, collection: TileCollection) -> ChoiceFunction:
    """greedy_choice as first written: a dense (2**L, 2**L) table of every
    cell against every frequency, each scale's table added in through a
    masked fancy-index update."""
    L = f.resolution
    n_cells = 1 << L
    cells = np.arange(n_cells)
    total = np.zeros((n_cells, n_cells), dtype=np.complex128)
    nu = np.arange(n_cells)
    for k, present in enumerate(collection.masks):
        if not present.any():
            continue
        coef = packet_coefficients(f.values, L, k)
        n_idx = cells >> (L - k)
        u = cells & ((1 << (L - k)) - 1)
        rev_u = bit_reversal(L - k)[u]
        mm = np.arange(1 << (L - k - 1))
        signs = 1.0 - 2.0 * (np.bitwise_count((2 * mm[None, :] + 1) & rev_u[:, None]) & 1)
        table = (
            coef[n_idx[:, None], 2 * mm[None, :]]
            * (2.0 ** (k / 2.0))
            * signs
            * present[n_idx[:, None], mm[None, :]]
        )
        upper_bit = ((nu >> k) & 1) == 1
        col = nu >> (k + 1)
        total[:, upper_bit] += table[:, col[upper_bit]]
    return ChoiceFunction(L, np.argmax(np.abs(total), axis=1).astype(np.int64))


def chunked_greedy_choice(f: GridSignal, collection: TileCollection) -> ChoiceFunction:
    """greedy_choice before the all-scale transform and the cached sign
    tables: one packet transform per scale with members, and the signs and
    the mask multiplied into every chunk's table."""
    L = f.resolution
    n = 1 << L
    scales = []
    for k, present in enumerate(collection.masks):
        if present.any():
            coef = packet_coefficients(f.values, L, k)[:, 0::2] * (2.0 ** (k / 2.0))
            scales.append((k, coef, present, 2 * np.arange(1 << (L - k - 1)) + 1))
    freqs = np.empty(n, dtype=np.int64)
    chunk = max(1, STACK_CELLS // n)
    for lo in range(0, n, chunk):
        cells = np.arange(lo, min(lo + chunk, n))
        total = np.zeros((cells.size, n), dtype=np.complex128)
        for k, coef, present, odd in scales:
            blocks = cells >> (L - k)
            rev_u = block_gathers(L)[k][cells]
            signs = 1.0 - 2.0 * (np.bitwise_count(odd & rev_u[:, None]) & 1)
            table = coef[blocks] * signs * present[blocks]
            total.reshape(cells.size, 1 << (L - k - 1), 2, 1 << k)[:, :, 1, :] += table[:, :, None]
        freqs[cells] = np.argmax(np.abs(total), axis=1)
    return ChoiceFunction(L, freqs)


@functools.cache
def upper_signs(bits: int) -> np.ndarray:
    """The sign table greedy_choice read before `walsh.walsh_matrix`:
    W_{2m+1} on a block of 2**bits cells, row u the block's cell u and
    column m every m < 2**(bits-1), as read-only int8 +-1."""
    odd = 2 * np.arange(1 << (bits - 1)) + 1
    signs = (1 - 2 * (np.bitwise_count(odd & bit_reversal(bits)[:, None]) & 1)).astype(np.int8)
    signs.setflags(write=False)
    return signs


@functools.cache
def lower_walsh_rows(bits: int) -> np.ndarray:
    """The rows restricted_matrices read before `walsh.walsh_matrix`: W_{2m}
    on a block of 2**bits cells, row m for every m < 2**(bits-1)."""
    rows = walsh_values(2 * np.arange((1 << bits) >> 1), bits)
    rows.setflags(write=False)
    return rows


def sign_table_greedy_choice(f: GridSignal, collection: TileCollection, where: GridSet) -> ChoiceFunction:
    """greedy_choice over the sign tables of `upper_signs`: a scale's table
    is the coefficient row of the cell's block times row u of the table of
    its block length, u the cell's place in the block."""
    L = f.resolution
    n = 1 << L
    scales = [
        (k, coef.reshape(present.shape) * (2.0 ** (k / 2.0)) * present)
        for k, (coef, present) in enumerate(zip(lower_coefficients(f.values, L), collection.masks))
        if present.any()
    ]
    chunk = max(1, carleson.CHUNK_BYTES // (16 * n))
    fitted = np.flatnonzero(where.mask)
    freqs = np.zeros(n, dtype=np.int64)
    for lo in range(0, fitted.size, chunk):
        cells = fitted[lo : lo + chunk]
        total = np.zeros((cells.size, n), dtype=np.complex128)
        for k, coef in scales:
            table = coef[cells >> (L - k)]
            table *= upper_signs(L - k)[cells & ((1 << (L - k)) - 1)]
            total.reshape(cells.size, 1 << (L - k - 1), 2, 1 << k)[:, :, 1, :] += table.reshape(cells.size, -1, 1)
        freqs[cells] = np.argmax(np.abs(total), axis=1)
    return ChoiceFunction(L, freqs)


def per_chain_norm_decay_point(h, g, collection, seed=0, iters=150, branch="h"):
    """norm_decay_point before a refit round fitted its greedy choices as
    one stack: the probe's choice and each chain's refit fitted one signal
    at a time, by the per-signal oracle `sign_table_greedy_choice`, and the
    carving, the family, the norm runs and their seeds as there."""
    L = h.resolution
    n = 1 << L
    rng = np.random.default_rng(seed)
    if branch == "h":
        h_prime = exceptional_complement(h, g, 4.0)
        a_set, b_set, keep = g, h_prime, h_prime
        ratio = safe_ratio(measure(g), measure(h))
    else:
        g_prime = exceptional_complement(g, h, 4.0)
        a_set, b_set, keep = g_prime, h, g_prime
        ratio = safe_ratio(measure(h), measure(g))
    surviving = retain_meeting(collection, keep)
    probe = GridSignal(L, rng.standard_normal(n))
    family = [ChoiceFunction.constant(L, n // 2)]
    for _ in range(2):
        family.append(ChoiceFunction(L, rng.integers(0, n, size=n)))
    family.append(sign_table_greedy_choice(probe, surviving, a_set))
    results = restricted_norm(
        a_set, b_set, surviving, family, [seed + idx for idx in range(len(family))], iters=iters
    )
    chains = list(zip(results, family))
    unconverged = sum(not res.converged for res in results)
    active = [i for i, res in enumerate(results) if res.top_vector is not None]
    for round_ in range(2):
        if not active:
            break
        refits = [
            sign_table_greedy_choice(GridSignal(L, chains[i][0].top_vector * b_set.mask), surviving, a_set)
            for i in active
        ]
        results = restricted_norm(
            a_set, b_set, surviving, refits, [seed + 131 + round_] * len(active), iters=iters
        )
        unconverged += sum(not res.converged for res in results)
        improving = []
        for i, refit, res in zip(active, refits, results):
            if res.norm > chains[i][0].norm:
                chains[i] = (res, refit)
                if res.top_vector is not None:
                    improving.append(i)
        active = improving
    winner, best_choice = chains[0]
    for res, choice in chains[1:]:
        if res.norm > winner.norm:
            winner, best_choice = res, choice
    return {
        "norm": winner.norm,
        "ratio": ratio,
        "choice": best_choice,
        "kept": measure(keep),
        "iterations": winner.steps,
        "converged": winner.converged,
        "norm_upper": winner.norm_upper,
        "unconverged": unconverged,
    }


def walsh_rows_restricted_matrices(a: GridSet, b: GridSet, collection: TileCollection, choices) -> np.ndarray:
    """restricted_matrices over the float64 rows of `lower_walsh_rows`."""
    L = collection.resolution
    member, scale, cell, slot, sign = upper_cells(choices)
    keep = collection.occupied.ravel()[slot] & a.mask[cell]
    member, scale, cell, slot, sign = (x[keep] for x in (member, scale, cell, slot, sign))
    rank = np.cumsum(a.mask) - 1
    out = np.zeros((len(choices), int(np.count_nonzero(a.mask)), 1 << L))
    for k in range(L):
        at = scale == k
        width = 1 << (L - k)
        lower = lower_walsh_rows(L - k)[slot[at] & ((width >> 1) - 1)]
        blocks = out.reshape(len(choices), -1, 1 << k, width)
        blocks[member[at], rank[cell[at]], cell[at] >> (L - k)] += (sign[at] * 2.0 ** (k - L))[:, None] * lower
    return out[:, :, b.mask]


def restricted_operator(op: RestrictedOp) -> MapPair:
    """f -> 1_A T(f 1_B) and its adjoint on lone arrays, over the checked
    apply and adjoint of the operator's one-member plan."""
    return old_localized(ModelSumPlan([op.choice], op.collection), op.b.mask, op.a.mask)


def decay_a_set(h, g, branch):
    """The set A that norm_decay_point's restricted operators read their
    choice on: G on the h branch, G carved against H on the g branch."""
    return g if branch == "h" else exceptional_complement(g, h, 4.0)


def assert_same_point(point, expected, a_set):
    """The point equals the oracle's, whose greedy choices are fitted on the
    whole grid: its choice agrees on A, and off A it is the oracle's (a
    constant or random winner) or 0 (a greedy winner, fitted on A alone)."""
    assert point.keys() == expected.keys()
    for key, value in expected.items():
        if key == "choice":
            got, on_a = point[key].freqs, a_set.mask
            assert point[key].resolution == value.resolution
            assert np.array_equal(got[on_a], value.freqs[on_a])
            assert np.array_equal(got[~on_a], value.freqs[~on_a]) or not got[~on_a].any()
        else:
            assert point[key] == value, key


class TestRestrictedOperator:
    @pytest.mark.usefixtures("krylov_path")
    def test_empty_sets_kill(self):
        rng = np.random.default_rng(0)
        resolution = 4
        collection = TileCollection.all(resolution)
        f = random_signal(rng, resolution)
        choice = random_choice(rng, resolution)
        empty = GridSet.empty(resolution)
        full = GridSet.full(resolution)
        for a, b in ((empty, full), (full, empty)):
            (res,) = restricted_norm(a, b, collection, [choice], [1])
            assert res == TopSingularResult(0.0, 1, True) and res.top_vector is None

    def test_full_sets_recover_model_sum(self):
        rng = np.random.default_rng(1)
        resolution = 5
        collection = TileCollection.all(resolution)
        f = random_signal(rng, resolution, complex_values=True)
        choice = random_choice(rng, resolution)
        full = GridSet.full(resolution)
        out = restricted_operator(RestrictedOp(full, full, choice, collection)).apply(f.values)
        assert np.array_equal(out, model_sum(f, choice, collection).values)

    def test_unfolds_identically(self):
        rng = np.random.default_rng(2)
        resolution = 5
        collection = TileCollection.all(resolution)
        f = random_signal(rng, resolution, complex_values=True)
        choice = random_choice(rng, resolution)
        a = random_grid_set(rng, resolution)
        b = random_grid_set(rng, resolution)
        op = RestrictedOp(a, b, choice, collection)
        direct = model_sum(
            GridSignal(resolution, f.values * b.mask), choice, collection
        ).values * a.mask
        assert np.array_equal(restricted_operator(op).apply(f.values), direct)


    @pytest.mark.usefixtures("krylov_path")
    def test_operator_matches_closure_oracle(self):
        rng = np.random.default_rng(3)
        resolution = 5
        n = 1 << resolution
        for collection in (TileCollection.all(resolution), random_convex_collection(rng, resolution)):
            for _ in range(3):
                a = random_grid_set(rng, resolution)
                b = random_grid_set(rng, resolution)
                op = RestrictedOp(a, b, random_choice(rng, resolution), collection)
                fwd, adj = old_restricted_pair(op)
                local = restricted_operator(op)
                for _ in range(3):
                    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    assert np.array_equal(local.apply(v), fwd(v))
                    assert np.array_equal(local.adjoint(v), adj(v))
                # the engine's masking is the closures'
                [old] = old_top_singular(lambda members: rowwise(MapPair(fwd, adj)), (n,), [5], max_steps=60, vectors=True)
                (new,) = restricted_norm(a, b, collection, [op.choice], [5], iters=60)
                assert_same_krylov(new, old)


class TestCarving:
    def test_empty_marker(self):
        h = GridSet.full(3)
        assert np.array_equal(exceptional_complement(h, GridSet.empty(3), 4.0).mask, h.mask)

    def test_pinned_level_set(self):
        h = GridSet.full(3)
        g = GridSet.from_interval(3, DyadicInterval(3, 0))
        kept = exceptional_complement(h, g, 4.0)
        assert np.array_equal(kept.mask, np.array([0, 0, 1, 1, 1, 1, 1, 1], dtype=bool))

    def test_half_measure_both_sides(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            h = random_grid_set(rng, 6)
            g = random_grid_set(rng, 6)
            assert measure(exceptional_complement(h, g, 4.0)) >= 0.5 * measure(h)
            assert measure(exceptional_complement(g, h, 4.0)) >= 0.5 * measure(g)

    def test_mass_cap_exact(self):
        # surviving collection after the H carve has mass at most 4 |G|/|H|
        rng = np.random.default_rng(4)
        resolution = 6
        collection = TileCollection.all(resolution)
        for _ in range(10):
            h = GridSet.full(resolution)
            g = random_grid_set(rng, resolution)
            choice = random_choice(rng, resolution)
            h_prime = exceptional_complement(h, g, 4.0)
            surviving = retain_meeting(collection, h_prime)
            cap = 4.0 * measure(g) / measure(h)
            assert mass(surviving, g, choice) <= cap * (1 + 1e-12)

    @pytest.mark.parametrize("resolution", [5, 7])
    def test_size_cap_g_branch(self, resolution):
        # tiles meeting G' see H with small maximal density, so the size of
        # 1_H-bounded inputs is capped by sqrt(L+1) * 4 |H|/|G| at every
        # resolution (the measured constant is resolution-stable)
        rng = np.random.default_rng(5)
        collection = TileCollection.all(resolution)
        for _ in range(10):
            g = GridSet.full(resolution)
            h = random_grid_set(rng, resolution)
            g_prime = exceptional_complement(g, h, 4.0)
            surviving = retain_meeting(collection, g_prime)
            f = GridSignal.indicator(resolution, h)
            bound = size_bound(surviving, f)
            assert bound <= 4.0 * measure(h) / measure(g) * (1 + 1e-12)

    def test_caps_helper(self):
        rng = np.random.default_rng(6)
        resolution = 5
        collection = TileCollection.all(resolution)
        h = GridSet.full(resolution)
        g = random_grid_set(rng, resolution)
        h_prime = exceptional_complement(h, g, 4.0)
        caps = collection_caps(collection, h, g, h_prime, g, random_choice(rng, resolution))
        assert caps["mass"] <= caps["mass_cap"] * (1 + 1e-12)


def member_loop_buckets(f, g, e_set, f_set, op, retain=None) -> list[tuple[int, int, float, float]]:
    """Per bucket of `restricted_pairing`: (n, m, majorant sum, count ratio),
    each member's term computed by a loop over its tree's members as a
    frozenset of `BiTile` objects."""
    L = f.resolution
    surviving = retain_meeting(op.collection, retain if retain is not None else op.b)
    masked_f = GridSignal(L, f.values * op.b.mask)
    decomposition = full_decompose(surviving, masked_f, GridSet(L, f_set.mask & op.a.mask), op.choice)
    coeffs = member_coefficients(surviving, masked_f)
    g_in_a = np.abs(g.values) * f_set.mask * op.a.mask
    freqs = op.choice.freqs

    def member_majorant(p) -> float:
        sel_slice = p.spatial.cell_slice(L)
        sel = (freqs[sel_slice] >= p.upper.freq.lo) & (freqs[sel_slice] < p.upper.freq.hi)
        weight = float(np.sum((g_in_a[sel_slice] > 0)[sel]) * 2.0**-L)
        return abs(coeffs[p]) * 2.0 ** (p.scale / 2.0) * weight

    out = []
    for (n, m), bucket in sorted(decomposition.buckets.items()):
        total = 0.0
        for tree in bucket.trees:
            total += sum(member_majorant(p) for p in tree.members.bitiles)
        out.append((n, m, total, bucket.count_ratio))
    return out


class TestRestrictedPairing:
    @pytest.mark.parametrize("resolution", range(1, 8))
    def test_buckets_equal_member_loop(self, resolution):
        rng = np.random.default_rng(2200 + resolution)
        n = 1 << resolution
        for trial in range(4):
            e_set, f_set, g_set = (random_grid_set(rng, resolution) for _ in range(3))
            h_prime = exceptional_complement(GridSet.full(resolution), g_set, 4.0)
            collection = TileCollection.all(resolution) if trial % 2 else random_convex_collection(rng, resolution)
            op = RestrictedOp(g_set, h_prime, random_choice(rng, resolution), collection)
            # non-dyadic values, so that the order of the additions shows
            f = GridSignal(resolution, e_set.mask * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.random(n)))
            g = GridSignal(resolution, f_set.mask * rng.uniform(0, 1, n))
            retain = None if trial < 2 else random_grid_set(rng, resolution)
            report = restricted_pairing(f, g, e_set, f_set, op, t=2.5, retain=retain)
            expected = member_loop_buckets(f, g, e_set, f_set, op, retain)
            got = [(b.n, b.m, b.sum, b.count_bound_ratio) for b in report.buckets]
            assert [(n_, m_, r) for n_, m_, _, r in got] == [(n_, m_, r) for n_, m_, _, r in expected]
            for (*_, total, _), (*_, oracle, _) in zip(got, expected):
                assert abs(total - oracle) <= 1e-14 * oracle
            assert abs(report.rhs - sum(b[2] for b in expected)) <= 1e-14 * report.rhs

    def test_zero_signal(self):
        rng = np.random.default_rng(7)
        resolution = 5
        collection = TileCollection.all(resolution)
        full = GridSet.full(resolution)
        op = RestrictedOp(full, full, random_choice(rng, resolution), collection)
        report = restricted_pairing(
            GridSignal.zeros(resolution),
            GridSignal.indicator(resolution, full),
            full,
            full,
            op,
            t=2.5,
        )
        assert report.lhs == 0.0

    def test_pairing_below_majorant(self):
        rng = np.random.default_rng(8)
        resolution = 6
        collection = TileCollection.all(resolution)
        for _ in range(8):
            e = random_grid_set(rng, resolution)
            f_set = random_grid_set(rng, resolution)
            g = random_grid_set(rng, resolution)
            h = GridSet.full(resolution)
            h_prime = exceptional_complement(h, g, 4.0)
            op = RestrictedOp(g, h_prime, random_choice(rng, resolution), collection)
            report = restricted_pairing(
                GridSignal.indicator(resolution, e),
                GridSignal.indicator(resolution, f_set),
                e,
                f_set,
                op,
                t=2.5,
            )
            assert report.lhs <= report.rhs * (1 + 1e-9) + 1e-12
            assert report.extra["model_majorant"] >= 0.0

    def test_one_bitile_matches_tree_sum(self):
        from dyadlab.tiles import BiTile, walsh_packet

        resolution = 4
        p = BiTile(1, 0, 1)
        collection = TileCollection.from_bitiles(resolution, [p])
        e = GridSet.from_interval(resolution, p.spatial)
        f_set = GridSet(resolution, np.arange(16) < 2)
        choice = ChoiceFunction.constant(resolution, p.upper.freq.lo)
        full = GridSet.full(resolution)
        f = GridSignal.indicator(resolution, e)
        g = GridSignal.indicator(resolution, f_set)
        op = RestrictedOp(full, full, choice, collection)
        report = restricted_pairing(f, g, e, f_set, op, t=2.5)
        coef = inner_product(f, walsh_packet(p.lower, resolution))
        psi = walsh_packet(p.upper, resolution).values.real
        pairing = abs(coef * float(np.sum(psi * f_set.mask) * 2.0**-resolution))
        assert report.lhs == pytest.approx(pairing, abs=1e-13)

    def test_requires_domination(self):
        resolution = 4
        collection = TileCollection.all(resolution)
        full = GridSet.full(resolution)
        op = RestrictedOp(full, full, ChoiceFunction.constant(resolution, 0), collection)
        with pytest.raises(ValueError):
            restricted_pairing(
                GridSignal.constant(resolution, 2.0),
                GridSignal.constant(resolution, 1.0),
                full,
                full,
                op,
                t=2.5,
            )


class TestNormDecay:
    def test_full_sets_below_unrestricted(self):
        rng = np.random.default_rng(9)
        resolution = 5
        collection = TileCollection.all(resolution)
        full = GridSet.full(resolution)
        choice = random_choice(rng, resolution)
        (restricted,) = restricted_norm(full, full, collection, [choice], [1], iters=100)
        h = random_grid_set(rng, resolution)
        h_prime = exceptional_complement(full, h, 4.0)
        (localized,) = restricted_norm(h, h_prime, collection, [choice], [1], iters=100)
        assert localized.norm <= restricted.norm * (1 + 1e-9)

    def test_monotone_in_localization(self):
        rng = np.random.default_rng(10)
        resolution = 5
        collection = TileCollection.all(resolution)
        choice = random_choice(rng, resolution)
        small = random_grid_set(rng, resolution)
        big = GridSet(resolution, small.mask | random_grid_set(rng, resolution).mask)
        full = GridSet.full(resolution)
        plan = ModelSumPlan([choice], collection)
        for a_side in (True, False):
            def masks(localized):
                return (localized.mask, full.mask) if a_side else (full.mask, localized.mask)

            small_run = one_member_run(plan, *masks(small), 2, tol=1e-12, max_steps=400)
            big_run = one_member_run(plan, *masks(big), 2, tol=1e-12, max_steps=400)
            assert small_run.norm <= big_run.norm * (1 + 1e-6)

    def test_greedy_dominates_alternatives_pointwise(self):
        rng = np.random.default_rng(11)
        resolution = 5
        collection = TileCollection.all(resolution)
        f = random_signal(rng, resolution, complex_values=True)
        (adversary,) = greedy_choice(VectorSignal.from_signals([f]), collection, GridSet.full(resolution))
        out_best = np.abs(model_sum(f, adversary, collection).values)
        for _ in range(10):
            other = random_choice(rng, resolution)
            out_other = np.abs(model_sum(f, other, collection).values)
            assert np.all(out_best >= out_other - 1e-9)

    @pytest.mark.parametrize("resolution", range(0, 10))
    def test_greedy_choice_equals_dense_table(self, resolution):
        """The chunked, strided greedy choice picks what the dense table
        picked, ties included (the zero signal ties every frequency); up to
        L = 9 one chunk holds the grid."""
        rng = np.random.default_rng(520 + resolution)
        n = 1 << resolution
        full = TileCollection.all(resolution)
        collections = [
            full,
            retain_meeting(full, GridSet(resolution, rng.random(n) < 0.3)),
            TileCollection.from_bitiles(resolution, []),
        ]
        if resolution >= 1:
            collections.append(random_convex_collection(rng, resolution))
        signals = [
            random_signal(rng, resolution),
            random_signal(rng, resolution, complex_values=True),
            GridSignal.zeros(resolution),
        ]
        for collection in collections:
            stacked = greedy_choice(VectorSignal.from_signals(signals), collection, GridSet.full(resolution))
            for f, chosen in zip(signals, stacked, strict=True):
                assert np.array_equal(chosen.freqs, dense_greedy_choice(f, collection).freqs)

    @pytest.mark.parametrize("resolution", range(0, 10))
    def test_greedy_choice_equals_chunked_loop(self, resolution):
        """The all-scale transform and the Walsh matrices cached per bit
        count, read at each cell's place, pick what the per-scale
        transforms and per-chunk signs picked, on signals with zeros of
        both signs; from L = 8 on the oracle's cells span several chunks."""
        rng = np.random.default_rng(540 + resolution)
        n = 1 << resolution
        full = TileCollection.all(resolution)
        collections = [full, retain_meeting(full, GridSet(resolution, rng.random(n) < 0.3))]
        if resolution >= 1:
            collections.append(random_convex_collection(rng, resolution))
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        signals = [
            GridSignal(resolution, values),
            GridSignal(resolution, values * (rng.random(n) < 0.2)),
            GridSignal(resolution, zeros + 1j * zeros[::-1]),
            GridSignal(resolution, np.where(rng.random(n) < 0.5, zeros, values.real)),
        ]
        for collection in collections:
            stacked = greedy_choice(VectorSignal.from_signals(signals), collection, GridSet.full(resolution))
            for f, chosen in zip(signals, stacked, strict=True):
                assert chosen.freqs.dtype == np.int64
                assert np.array_equal(chosen.freqs, chunked_greedy_choice(f, collection).freqs)
        assert (STACK_CELLS // n >= n) == (resolution <= 7)

    @pytest.mark.parametrize("resolution", [3, 8, 10])
    def test_greedy_choice_any_chunk_size(self, monkeypatch, resolution):
        """The chunk size changes no choice: chunks of one cell, of three
        (the last one short), of half the grid and the default's (several
        chunks at L = 10) pick what the oracle's chunks picked."""
        rng = np.random.default_rng(560 + resolution)
        n = 1 << resolution
        full = TileCollection.all(resolution)
        collection = retain_meeting(full, GridSet(resolution, rng.random(n) < 0.5))
        f = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        expected = chunked_greedy_choice(f, collection).freqs
        assert (carleson.CHUNK_BYTES // (16 * n) < n) == (resolution == 10)
        for cells in (1, 3, n // 2, None):
            if cells is not None:
                monkeypatch.setattr(carleson, "CHUNK_BYTES", 16 * n * cells)
            (chosen,) = greedy_choice(VectorSignal.from_signals([f]), collection, GridSet.full(resolution))
            assert np.array_equal(chosen.freqs, expected)
            monkeypatch.undo()

    @pytest.mark.parametrize("resolution", range(13))
    def test_greedy_choice_where(self, resolution):
        """Fitted on a set, the choice is the whole grid's on the set and 0
        off it: for the empty and the full set, one cell, random sets of
        nineteen twentieths, nine tenths, a half and a tenth and, from L = 10
        up, where the grid runs in chunks, sets whose cells fill one chunk,
        fill it and one cell more, and straddle the grid's own chunk edges."""
        rng = np.random.default_rng(580 + resolution)
        n = 1 << resolution
        collection = retain_meeting(TileCollection.all(resolution), GridSet(resolution, rng.random(n) < 0.5))
        f = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        stack = VectorSignal.from_signals([f])
        whole = greedy_choice(stack, collection, GridSet.full(resolution))[0].freqs
        chunk = carleson.CHUNK_BYTES // (16 * n)
        assert (chunk < n) == (resolution >= 10)
        masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool), np.arange(n) == rng.integers(n)]
        masks += [rng.random(n) < p for p in (0.95, 0.9, 0.5, 0.1)]
        if chunk < n:
            edges = np.arange(chunk, n, chunk)
            for size in (chunk, chunk + 1):
                masks.append(np.isin(np.arange(n), rng.choice(n, size=size, replace=False)))
            masks.append(np.isin(np.arange(n), np.concatenate([edges - 1, edges])))
        for mask in masks:
            chosen = greedy_choice(stack, collection, GridSet(resolution, mask))[0].freqs
            assert np.array_equal(chosen[mask], whole[mask])
            assert not chosen[~mask].any()

    @pytest.mark.parametrize("resolution", range(1, 9))
    def test_choice_fitted_on_a_leaves_the_restricted_operator(self, resolution):
        """1_A T_N(f 1_B) and its adjoint read N on A alone: the greedy
        choice fitted on A, 0 elsewhere, gives the operator of the one
        fitted on the whole grid, bit for bit, and frequency 0 adds no plan
        term."""
        rng = np.random.default_rng(600 + resolution)
        n = 1 << resolution
        collection = TileCollection.all(resolution)
        a_set, b_set = (GridSet(resolution, rng.random(n) < 0.4) for _ in range(2))
        f = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        stack = VectorSignal.from_signals([f])
        (whole,) = greedy_choice(stack, collection, GridSet.full(resolution))
        (on_a,) = greedy_choice(stack, collection, a_set)
        assert upper_cells([on_a])[2].tolist() == [x for x in upper_cells([whole])[2].tolist() if a_set.mask[x]]
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        def restricted(choice):
            plan = ModelSumPlan([choice], collection)
            return plan.apply(x * b_set.mask) * a_set.mask, plan.adjoint(x * a_set.mask) * b_set.mask

        for got, want in zip(restricted(on_a), restricted(whole)):
            assert np.array_equal(got, want)

    def test_sign_tables(self):
        """Row u' of walsh_matrix(bits - 1), negated when the place's top bit
        t is set, is row u = u' + t 2**(bits-1) of the old sign table of a
        block of 2**bits cells, and the even rows of walsh_matrix(bits) are
        the old lower rows."""
        for bits in range(1, 11):
            half = 1 << (bits - 1)
            u = np.arange(1 << bits)
            upper = walsh_matrix(bits - 1)[u & (half - 1)] * np.where(u >= half, -1, 1)[:, None]
            assert np.array_equal(upper, upper_signs(bits))
            assert np.array_equal(upper_signs(bits), walsh_values(2 * np.arange(half) + 1, bits).T)
            assert np.array_equal(walsh_matrix(bits)[0::2], lower_walsh_rows(bits))

    @pytest.mark.parametrize("resolution", range(1, 11))
    def test_greedy_choice_equals_sign_tables(self, resolution):
        """The choice read from walsh_matrix is the one read from the old
        sign tables, byte for byte, fitted on the whole grid, on half of it
        and on one cell, over signals with zeros of both signs."""
        rng = np.random.default_rng(640 + resolution)
        n = 1 << resolution
        full = TileCollection.all(resolution)
        collections = [
            full,
            retain_meeting(full, GridSet(resolution, rng.random(n) < 0.3)),
            random_convex_collection(rng, resolution),
        ]
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        signals = [
            GridSignal(resolution, values),
            GridSignal(resolution, values * (rng.random(n) < 0.2)),
            GridSignal(resolution, np.where(rng.random(n) < 0.5, zeros, values.real)),
        ]
        wheres = [GridSet.full(resolution), GridSet(resolution, rng.random(n) < 0.5)]
        wheres.append(GridSet(resolution, np.arange(n) == rng.integers(n)))
        for collection in collections:
            for where in wheres:
                stacked = greedy_choice(VectorSignal.from_signals(signals), collection, where)
                for f, got in zip(signals, stacked, strict=True):
                    assert got.freqs.tobytes() == sign_table_greedy_choice(f, collection, where).freqs.tobytes()

    @pytest.mark.parametrize("resolution", range(0, 10))
    def test_stacked_greedy_choice_equals_sign_tables(self, monkeypatch, resolution):
        """Each member of a stacked fit is the per-signal oracle's choice,
        byte for byte: stacks of one real and of one complex row, of two
        and of five mixed rows, fitted on the empty set, one cell, a random
        set and the grid, in chunks of the default size, of one pair and
        of three pairs, which split a member's cells."""
        rng = np.random.default_rng(1200 + resolution)
        n = 1 << resolution
        collection = retain_meeting(TileCollection.all(resolution), GridSet(resolution, rng.random(n) < 0.5))
        wheres = [
            GridSet.empty(resolution),
            GridSet(resolution, np.arange(n) == rng.integers(n)),
            GridSet(resolution, rng.random(n) < 0.5),
            GridSet.full(resolution),
        ]
        for members, real_rows in ((1, [0]), (1, []), (2, [1]), (5, [0, 2, 3])):
            values = rng.standard_normal((members, n)) + 1j * rng.standard_normal((members, n))
            values[real_rows] = values[real_rows].real
            stack = VectorSignal(resolution, values)
            for where in wheres:
                expected = [
                    sign_table_greedy_choice(stack.member(j), collection, where).freqs.tobytes()
                    for j in range(members)
                ]
                for pairs in (None, 1, 3):
                    if pairs is not None:
                        monkeypatch.setattr(carleson, "CHUNK_BYTES", 16 * n * pairs)
                    got = greedy_choice(stack, collection, where)
                    monkeypatch.undo()
                    assert [choice.freqs.tobytes() for choice in got] == expected

    @pytest.mark.parametrize("branch", ["h", "g"])
    @pytest.mark.parametrize("resolution", range(3, 9))
    def test_point_equals_per_chain_refits(self, monkeypatch, resolution, branch):
        """One stacked fit per refit round gives the point that fitting each
        chain's refit alone gives, bit for bit: the dense norms up to L = 7,
        the Krylov engine at L = 8, and some round fits several chains."""
        assert (resolution <= carleson.DENSE_RESOLUTION) == (resolution <= 7)
        stacks = []

        def recorded(f, collection, where):
            stacks.append(len(f))
            return greedy_choice(f, collection, where)

        monkeypatch.setattr(carleson, "greedy_choice", recorded)
        rng = np.random.default_rng(1220 + resolution)
        n = 1 << resolution
        full = GridSet.full(resolution)
        collection = TileCollection.all(resolution)
        for seed in range(3):
            small = GridSet(resolution, rng.random(n) < 2.0 ** -(seed + 1))
            h, g = (full, small) if branch == "h" else (small, full)
            point = norm_decay_point(h, g, collection, seed=seed, branch=branch)
            expected = per_chain_norm_decay_point(h, g, collection, seed=seed, branch=branch)
            assert point.keys() == expected.keys()
            for key, value in expected.items():
                if key == "choice":
                    assert point[key].freqs.tobytes() == value.freqs.tobytes()
                else:
                    assert point[key] == value, key
        assert max(stacks) > 1

    @pytest.mark.parametrize("resolution", range(1, 8))
    def test_restricted_matrices_equal_walsh_rows(self, resolution):
        """The matrices read from walsh_matrix's even rows are those read
        from the old float64 lower rows, byte for byte."""
        rng = np.random.default_rng(660 + resolution)
        cases, sets = dense_cases(rng, resolution)
        for collection, choices in cases:
            for a, b in sets:
                got = restricted_matrices(a, b, collection, choices)
                assert got.tobytes() == walsh_rows_restricted_matrices(a, b, collection, choices).tobytes()

    def test_greedy_choice_rejects_resolution_mismatch(self):
        for signal_l, collection_l in ((3, 0), (5, 4), (4, 5), (0, 3)):
            with pytest.raises(ValueError, match="resolution mismatch"):
                stack = VectorSignal(signal_l, np.zeros((2, 1 << signal_l)))
                greedy_choice(stack, TileCollection.all(collection_l), GridSet.full(signal_l))
        with pytest.raises(ValueError, match="resolution mismatch"):
            greedy_choice(VectorSignal(3, np.zeros((1, 8))), TileCollection.all(3), GridSet.full(4))

    @pytest.mark.usefixtures("krylov_path")
    def test_decay_point_and_short_ladder(self):
        rng = np.random.default_rng(12)
        resolution = 6
        collection = TileCollection.all(resolution)
        h = GridSet.full(resolution)
        g = random_grid_set(rng, resolution)
        point = norm_decay_point(h, g, collection, seed=3, iters=60)
        assert point["norm"] > 0 and point["kept"] >= 0.5 * measure(h)
        assert 1 <= point["iterations"] <= 60
        assert point["unconverged"] >= int(not point["converged"])
        ladder = norm_decay_ladder(resolution, [0.5, 0.25, 0.125], seed=4)
        assert len(ladder.ratio_ladder) == 3
        assert math.isfinite(ladder.slope)
        assert ladder.extra["unconverged"] >= 0

    @pytest.mark.usefixtures("krylov_path")
    @pytest.mark.parametrize("branch", ["h", "g"])
    @pytest.mark.parametrize("resolution", range(3, 7))
    def test_point_equals_sequential_loop(self, resolution, branch):
        rng = np.random.default_rng(30 + resolution)
        n = 1 << resolution
        full = GridSet.full(resolution)
        collections = (TileCollection.all(resolution), random_convex_collection(rng, resolution))
        for seed in range(3):
            for collection in collections:
                small = GridSet(resolution, rng.random(n) < 2.0 ** -(seed + 1))
                if branch == "h":
                    h, g = full, small
                else:
                    h, g = small, full
                for iters in (150, 12):
                    point = norm_decay_point(h, g, collection, seed=seed, iters=iters, branch=branch)
                    expected = old_norm_decay_point(h, g, collection, seed=seed, iters=iters, branch=branch)
                    assert_same_point(point, expected, decay_a_set(h, g, branch))

    @pytest.mark.usefixtures("krylov_path")
    @pytest.mark.parametrize("branch", ["h", "g"])
    def test_point_without_surviving_tiles(self, branch):
        resolution = 4
        h = GridSet.full(resolution)
        g = GridSet.from_interval(resolution, DyadicInterval(2, 1))
        empty = TileCollection.from_bitiles(resolution, [])
        point = norm_decay_point(h, g, empty, seed=2, branch=branch)
        assert_same_point(point, old_norm_decay_point(h, g, empty, seed=2, branch=branch), decay_a_set(h, g, branch))
        assert (point["norm"], point["iterations"], point["converged"], point["unconverged"]) == (0.0, 1, True, 0)

    @pytest.mark.usefixtures("krylov_path")
    @pytest.mark.parametrize("resolution", [0, 1, 2])
    def test_small_point_equals_sequential_loop(self, resolution):
        collection = TileCollection.all(resolution)
        full = GridSet.full(resolution)
        for branch in ("h", "g"):
            point = norm_decay_point(full, full, collection, seed=4, iters=40, branch=branch)
            expected = old_norm_decay_point(full, full, collection, seed=4, iters=40, branch=branch)
            assert_same_point(point, expected, decay_a_set(full, full, branch))

    # at L=9 a stacked plan's block stack holds up to 9 * 2**9 cells, so
    # six operators run as stacks of 3 and 3 under grid.STACK_CELLS
    @pytest.mark.usefixtures("krylov_path")
    @pytest.mark.parametrize("resolution, iters", [(5, (200, 7)), (9, (4,))])
    def test_stacked_norms_equal_runs_alone(self, resolution, iters):
        rng = np.random.default_rng(17)
        collection = random_convex_collection(rng, resolution)
        a, b = random_grid_set(rng, resolution), random_grid_set(rng, resolution)
        choices = [random_choice(rng, resolution) for _ in range(5)]
        choices.append(ChoiceFunction.constant(resolution, 0))
        seeds = [3, 3, 8, 1, 4, 9]
        for iters in iters:
            stacked = restricted_norm(a, b, collection, choices, seeds, iters=iters)
            for choice, seed, res in zip(choices, seeds, stacked):
                plan = ModelSumPlan([choice], collection)
                alone = one_member_run(plan, a.mask, b.mask, seed, max_steps=iters, vectors=True)
                assert_same_krylov(res, alone)
        assert restricted_norm(a, b, collection, [], []) == []
        with pytest.raises(ValueError, match="one seed per operator"):
            restricted_norm(a, b, collection, choices, seeds[:-1])
        coarse = resolution - 1
        with pytest.raises(ValueError, match="share one resolution"):
            restricted_norm(GridSet.full(coarse), b, collection, choices, seeds)
        with pytest.raises(ValueError, match="share one resolution"):
            restricted_norm(a, b, TileCollection.all(coarse), choices, seeds)
        with pytest.raises(ValueError, match="resolution mismatch"):
            restricted_norm(a, b, collection, [ChoiceFunction.constant(coarse, 0)], [1])

    @pytest.mark.usefixtures("krylov_path")
    @pytest.mark.parametrize("resolution", range(2, 9))
    def test_restricted_norm_equals_one_member_runs(self, resolution):
        """The kernels-direct stacked operator gives each member's norm,
        step count, flag and top-vector bytes of a one-member run of the
        plan's checked apply and adjoint: members leave at different steps,
        one member has no surviving term (the zero-norm exit) and a cap of
        2 stops the rest; over the empty collection every member exits so."""
        rng = np.random.default_rng(560 + resolution)
        n = 1 << resolution
        a, b = GridSet(resolution, rng.random(n) < 0.6), GridSet(resolution, rng.random(n) < 0.6)
        collection = random_convex_collection(rng, resolution)
        choices = [random_choice(rng, resolution) for _ in range(4)]
        signal = random_signal(rng, resolution, complex_values=True)
        choices += greedy_choice(VectorSignal.from_signals([signal]), collection, GridSet.full(resolution))
        # frequency 0 lies in a lower tile at every scale: no term at all
        choices.insert(2, ChoiceFunction.constant(resolution, 0))
        choices.append(ChoiceFunction.constant(resolution, n - 1))
        empty = TileCollection.from_bitiles(resolution, [])
        seeds = [5, 5, 2, 7, 1, 8, 3]
        for iters in (150, 2, 60):
            for members in (collection, empty):
                new = restricted_norm(a, b, members, choices, seeds, iters=iters)
                for res, choice, seed in zip(new, choices, seeds, strict=True):
                    plan = ModelSumPlan([choice], members)
                    alone = one_member_run(plan, a.mask, b.mask, seed, max_steps=iters, vectors=True)
                    assert_same_krylov(res, alone)
                assert new[2].norm == 0.0 and new[2].top_vector is None
                if members is empty:
                    assert all(res.norm == 0.0 and res.top_vector is None for res in new)
                elif iters == 150:
                    assert len({res.steps for res in new}) > 1

    @pytest.mark.usefixtures("krylov_path")
    def test_decay_reports_unconverged_runs(self, monkeypatch):
        # two iterations never meet the 1e-9 tolerance: every power iteration
        # of the point (four choice functions, plus adversary refits) stops
        # at the cap, and the norm is reported anyway
        rng = np.random.default_rng(16)
        resolution = 5
        collection = TileCollection.all(resolution)
        h = GridSet.full(resolution)
        g = random_grid_set(rng, resolution)
        point = norm_decay_point(h, g, collection, seed=3, iters=2)
        assert point["norm"] > 0
        assert point["iterations"] == 2 and not point["converged"]
        assert point["unconverged"] >= 4
        monkeypatch.setattr(carleson, "norm_decay_point", functools.partial(norm_decay_point, iters=2))
        ladder = norm_decay_ladder(resolution, [0.5, 0.25], seed=5)
        assert ladder.extra["unconverged"] >= 8
        assert json.loads(ladder.to_json())["unconverged"] == ladder.extra["unconverged"]

    def test_ladder_rejects_ratio_without_a_cell(self):
        # at L=3 the ratio 2^-4 rounds to no cell, which must not become one
        with pytest.raises(ValueError, match="draws no cell"):
            norm_decay_ladder(3, [0.5, 2.0**-4], seed=5)
        ladder = norm_decay_ladder(3, [0.5, 2.0**-3], seed=5)
        assert [pt.log_ratio for pt in ladder.ratio_ladder] == [-1.0, -3.0]

    def test_g_branch_runs(self):
        resolution = 5
        ladder = norm_decay_ladder(resolution, [0.5, 0.25], seed=5, branch="g")
        assert len(ladder.ratio_ladder) == 2


@pytest.mark.usefixtures("krylov_path")
class TestDecayEngine:
    """restricted_norm's Krylov path on the operators a decay ladder runs,
    against power iteration, the dense SVD and the Ritz vector it returns."""

    @staticmethod
    def ladder_runs(monkeypatch, resolution):
        runs = []

        def recording(a, b, collection, choices, seeds, iters=200):
            results = restricted_norm(a, b, collection, choices, seeds, iters=iters)
            ops = [RestrictedOp(a, b, choice, collection) for choice in choices]
            runs.extend((op, seed, iters, res) for op, seed, res in zip(ops, seeds, results))
            return results

        monkeypatch.setattr(carleson, "restricted_norm", recording)
        ratios = [2.0**-i for i in range(1, resolution + 1)]
        for branch in ("h", "g"):
            norm_decay_ladder(resolution, ratios, seed=1, branch=branch)
        return runs

    @pytest.mark.parametrize("resolution", [4, 5])
    def test_norms_meet_the_oracles(self, monkeypatch, resolution):
        # each Krylov norm is at least the power iterate at the decay cap,
        # less 1e-12 relative; its vector attains it within tol; at L = 4 it
        # is the top singular value of the written-out matrix to 1e-9
        runs = self.ladder_runs(monkeypatch, resolution)
        n = 1 << resolution
        assert len(runs) > 50 and all(res.converged for *_, res in runs)
        tol = 1e-9
        for op, seed, iters, res in runs:
            local = restricted_operator(op)
            power = power_iteration(lone(local), (n,), iters=iters, tol=tol, seed=seed)
            assert res.norm >= power.norm * (1.0 - 1e-12)
            if res.norm == 0.0:
                assert res.top_vector is None
            else:
                x = res.top_vector
                attained = np.linalg.norm(local.apply(x)) / np.linalg.norm(x)
                assert abs(attained - res.norm) <= tol * res.norm
            if resolution == 4:
                top = float(np.linalg.svd(densify(local.apply, n), compute_uv=False)[0])
                assert abs(res.norm - top) <= 1e-9 * top


def old_restricted_norm(a, b, collection, choices, seeds, iters=200):
    """restricted_norm on the old engine, with a plan of the members still
    running built again each time a member stops."""
    L = collection.resolution
    results = []
    for s in stack_slices(len(choices), max(L, 1) << L):

        def op_for(members, stack=choices[s]):
            kernels = ModelSumPlan([stack[i] for i in members], collection).kernels()
            return old_localized(MapPair(*kernels), b.mask, a.mask)

        results += old_top_singular(op_for, (1 << L,), seeds[s], max_steps=iters, vectors=True)
    return results


def counting_plans(monkeypatch):
    """The member counts of the model-sum plans built from now on."""
    counts = []
    init = ModelSumPlan.__init__

    def counted(plan, choices, collection):
        init(plan, choices, collection)
        counts.append(plan._count)

    monkeypatch.setattr(ModelSumPlan, "__init__", counted)
    return counts


@pytest.mark.usefixtures("krylov_path")
class TestOneLayoutPerStack:
    """restricted_norm builds, and so lays out, one model-sum plan per
    engine stack and serves the members left after others stop from it,
    bit for bit."""

    @staticmethod
    def mixed_norm(resolution):
        # the arguments of a restricted_norm call whose members leave at
        # different steps; member 2 has no surviving term (the zero-norm
        # exit); the seeds repeat
        rng = np.random.default_rng(700 + resolution)
        n = 1 << resolution
        a, b = GridSet(resolution, rng.random(n) < 0.6), GridSet(resolution, rng.random(n) < 0.6)
        collection = random_convex_collection(rng, resolution)
        choices = [random_choice(rng, resolution) for _ in range(4)]
        signal = random_signal(rng, resolution, complex_values=True)
        choices += greedy_choice(VectorSignal.from_signals([signal]), collection, GridSet.full(resolution))
        choices.insert(2, ChoiceFunction.constant(resolution, 0))
        return a, b, collection, choices, [5, 5, 2, 5, 1, 8]

    # at L=9 the six operators run as two stacks of three
    @pytest.mark.parametrize("resolution", [3, 5, 7, 9])
    def test_equals_old_engine(self, resolution):
        *args, seeds = self.mixed_norm(resolution)
        # 12 steps take the Ritz matrix past its first growth
        for iters in (150, 12, 2):
            new = restricted_norm(*args, seeds, iters=iters)
            for res, expected in zip(new, old_restricted_norm(*args, seeds, iters=iters), strict=True):
                assert_same_krylov(res, expected)
            assert new[2].norm == 0.0 and new[2].top_vector is None
            if iters == 150:
                assert len({res.steps for res in new}) > 2

    @pytest.mark.parametrize("resolution", [3, 5, 9])
    def test_one_layout_per_stack(self, monkeypatch, resolution):
        *args, seeds = self.mixed_norm(resolution)
        counts = counting_plans(monkeypatch)
        results = restricted_norm(*args, seeds, iters=150)
        assert len({res.steps for res in results}) > 2
        stacks = stack_slices(len(seeds), max(resolution, 1) << resolution)
        assert counts == [s.stop - s.start for s in stacks]

    @pytest.mark.parametrize("resolution", [4, 6])
    def test_decay_points(self, monkeypatch, resolution):
        # every restricted_norm call of a decay ladder equals the old
        # engine's, and builds one plan per top_singular stack
        calls = []

        def recording(*args, iters=200):
            calls.append((args, iters))
            return restricted_norm(*args, iters=iters)

        monkeypatch.setattr(carleson, "restricted_norm", recording)
        ratios = [2.0**-i for i in range(1, resolution + 1)]
        for branch in ("h", "g"):
            norm_decay_ladder(resolution, ratios, seed=3, branch=branch)
        assert any(len(set(args[-1])) < len(args[-1]) for args, _ in calls)
        left = 0
        for args, iters in calls:
            stacks = len(stack_slices(len(args[-1]), max(resolution, 1) << resolution))
            counts = counting_plans(monkeypatch)
            new = restricted_norm(*args, iters=iters)
            assert len(counts) == stacks
            monkeypatch.undo()
            left += len({res.steps for res in new}) > 1
            for res, expected in zip(new, old_restricted_norm(*args, iters=iters), strict=True):
                assert_same_krylov(res, expected)
        assert left > 0


def dense_cases(rng, resolution):
    """(collection, choices) pairs over an empty, a full, a random convex and
    a random collection, each with a constant, a random and a greedy choice,
    and (A, B) pairs: random, empty against full, full against empty, and
    full."""
    L, n = resolution, 1 << resolution
    collections = [
        TileCollection.from_bitiles(L, []),
        TileCollection.all(L),
        random_convex_collection(rng, L) if L else TileCollection.all(L),
        TileCollection(L, rng.random((L, n >> 1)) < 0.5),
    ]
    cases = []
    for collection in collections:
        signal = random_signal(rng, L, complex_values=True)
        (greedy,) = greedy_choice(VectorSignal.from_signals([signal]), collection, GridSet.full(L))
        choices = [ChoiceFunction.constant(L, n - 1), random_choice(rng, L), greedy]
        cases.append((collection, choices))
    empty, full = GridSet.empty(L), GridSet.full(L)
    sets = [(GridSet(L, rng.random(n) < 0.6), GridSet(L, rng.random(n) < 0.6)), (empty, full), (full, empty), (full, full)]
    return cases, sets


class TestDenseNorms:
    """restricted_norm's dense path, up to carleson.DENSE_RESOLUTION: the
    written-out operators, their SVD and the upper bound it states."""

    @pytest.mark.parametrize("resolution", range(0, carleson.DENSE_RESOLUTION + 1))
    def test_matrices_and_norms_meet_the_plan(self, resolution):
        # each matrix is the plan's apply written out, byte for byte, the
        # norm its first singular value (0, with no vector, for an empty
        # set), and a stacked call gives each one-choice call
        rng = np.random.default_rng(900 + resolution)
        n = 1 << resolution
        cases, sets = dense_cases(rng, resolution)
        for collection, choices in cases:
            plans = [densify(ModelSumPlan([choice], collection).apply, n) for choice in choices]
            for a, b in sets:
                matrices = restricted_matrices(a, b, collection, choices)
                assert matrices.dtype == np.float64
                assert matrices.shape == (len(choices), np.count_nonzero(a.mask), np.count_nonzero(b.mask))
                stacked = restricted_norm(a, b, collection, choices, [0] * len(choices))
                for matrix, plan, res, choice in zip(matrices, plans, stacked, choices, strict=True):
                    expected = plan[a.mask][:, b.mask]
                    assert same_bits(expected, matrix.astype(np.complex128))
                    top = np.linalg.svd(expected, compute_uv=False)[:1].max(initial=0.0)
                    assert abs(res.norm - top) <= 1e-12 * top
                    assert (res.steps, res.converged) == (0, True)
                    assert res.norm <= res.norm_upper
                    if not (a.mask.any() and b.mask.any()):
                        assert res == TopSingularResult(0.0, 0, True, None, 0.0) and res.top_vector is None
                    (alone,) = restricted_norm(a, b, collection, [choice], [7])
                    assert alone == res
                    assert (alone.top_vector is None) == (res.top_vector is None)
                    if res.top_vector is not None:
                        assert np.array_equal(alone.top_vector, res.top_vector)

    @pytest.mark.parametrize("resolution", range(0, carleson.DENSE_RESOLUTION + 1))
    def test_stacked_plan_on_unit_vectors_gives_the_matrices(self, resolution):
        # the plan and the written-out operators share one factor W(x)
        # 2**(k-L) per term, so a stacked plan's apply on the unit vectors,
        # and its adjoint transposed, give every matrix byte for byte
        rng = np.random.default_rng(930 + resolution)
        L, n = resolution, 1 << resolution
        units = np.eye(n, dtype=np.complex128)
        full = GridSet.full(L)
        for collection in (TileCollection.all(L), random_convex_collection(rng, L) if L else TileCollection.all(L)):
            for members in range(1, 5):
                choices = [random_choice(rng, L) for _ in range(members)]
                plan = ModelSumPlan(choices, collection)
                # [i, x, y]: column y is the apply of unit y, row x the
                # adjoint of unit x
                forward = np.stack([plan.apply(np.tile(e, (members, 1))) for e in units], axis=2)
                backward = np.stack([plan.adjoint(np.tile(e, (members, 1))) for e in units], axis=1)
                for a, b in ((GridSet(L, rng.random(n) < 0.6), GridSet(L, rng.random(n) < 0.6)), (full, full)):
                    expected = restricted_matrices(a, b, collection, choices).astype(np.complex128)
                    for dense in (forward, backward):
                        assert same_bits(dense[:, a.mask][:, :, b.mask], expected)

    @pytest.mark.parametrize("resolution", range(1, 11))
    def test_plan_is_exact_on_integers(self, resolution):
        # the written-out operators times 2**L are integer matrices, and
        # on integer inputs the plan's apply and adjoint times 2**L are
        # their exact integer products, above the dense cutoff too
        rng = np.random.default_rng(960 + resolution)
        L, n = resolution, 1 << resolution
        full = GridSet.full(L)
        for collection in (TileCollection.all(L), random_convex_collection(rng, L)):
            choices = [random_choice(rng, L), random_choice(rng, L), ChoiceFunction.constant(L, n - 1)]
            scaled = np.ldexp(restricted_matrices(full, full, collection, choices), L)
            matrices = scaled.astype(np.int64)
            assert np.array_equal(matrices, scaled)
            plan = ModelSumPlan(choices, collection)
            f = rng.integers(-64, 65, size=(len(choices), n))
            forward = np.einsum("ixy,iy->ix", matrices, f)
            backward = np.einsum("ixy,ix->iy", matrices, f)
            assert same_bits(plan.apply(f) * 2.0**L, forward.astype(np.complex128))
            assert same_bits(plan.adjoint(f) * 2.0**L, backward.astype(np.complex128))

    @pytest.mark.parametrize("resolution", [2, 5, carleson.DENSE_RESOLUTION])
    def test_top_vector_attains_the_norm(self, resolution):
        rng = np.random.default_rng(950 + resolution)
        cases, sets = dense_cases(rng, resolution)
        a, b = sets[0]
        for collection, choices in cases:
            for res, choice in zip(restricted_norm(a, b, collection, choices, [1, 2, 3]), choices):
                if res.norm == 0.0:
                    assert res.top_vector is None and res.norm_upper == 0.0
                    continue
                x = res.top_vector
                assert x.shape == (1 << resolution,) and not np.any(x[~b.mask])
                local = restricted_operator(RestrictedOp(a, b, choice, collection))
                attained = np.linalg.norm(local.apply(x)) / np.linalg.norm(x)
                assert abs(attained - res.norm) <= 1e-12 * res.norm

    def test_checks(self):
        resolution = 5
        a = b = GridSet.full(resolution)
        collection = TileCollection.all(resolution)
        choices = [ChoiceFunction.constant(resolution, 3)]
        assert restricted_norm(a, b, collection, [], []) == []
        with pytest.raises(ValueError, match="one seed per operator"):
            restricted_norm(a, b, collection, choices, [])
        with pytest.raises(ValueError, match="share one resolution"):
            restricted_norm(GridSet.full(4), b, collection, choices, [1])
        with pytest.raises(ValueError, match="resolution mismatch"):
            restricted_norm(a, b, collection, [ChoiceFunction.constant(4, 0)], [1])

    @pytest.mark.parametrize("resolution", range(4, 10))
    def test_krylov_norms_lie_below_the_dense_bound(self, resolution):
        # the dense path called directly, also above the cutoff: every
        # converged Ritz value lies at or below the dense upper bound,
        # on random and on decay-shaped (A, B) pairs
        rng = np.random.default_rng(980 + resolution)
        L, n = resolution, 1 << resolution
        full = GridSet.full(L)
        small = GridSet(L, rng.random(n) < 0.25)
        pairs = [
            (GridSet(L, rng.random(n) < 0.6), GridSet(L, rng.random(n) < 0.6)),
            (small, exceptional_complement(full, small, 4.0)),
        ]
        seen = 0
        for collection in (TileCollection.all(L), random_convex_collection(rng, L)):
            signal = random_signal(rng, L, complex_values=True)
            choices = [random_choice(rng, L) for _ in range(2)]
            choices.append(ChoiceFunction.constant(L, n // 2))
            choices += greedy_choice(VectorSignal.from_signals([signal]), collection, GridSet.full(L))
            for a, b in pairs:
                dense = carleson._dense_norms(a, b, collection, choices)
                krylov = carleson._krylov_norms(a, b, collection, choices, [3, 4, 5, 6], 200)
                for d, k in zip(dense, krylov, strict=True):
                    assert d.norm <= d.norm_upper
                    if k.converged:
                        seen += 1
                        assert k.norm <= d.norm_upper
        assert seen >= 12

    @pytest.mark.parametrize("branch", ["h", "g"])
    @pytest.mark.parametrize("resolution", [3, 6])
    def test_decay_points(self, resolution, branch):
        # a point takes no Lanczos step, and the winner's norm is the first
        # singular value of its choice's written-out operator (to 1e-12: an
        # SVD without vectors may round differently)
        rng = np.random.default_rng(990 + resolution)
        n = 1 << resolution
        full = GridSet.full(resolution)
        collection = TileCollection.all(resolution)
        for seed in range(3):
            small = GridSet(resolution, rng.random(n) < 2.0 ** -(seed + 1))
            h, g = (full, small) if branch == "h" else (small, full)
            point = norm_decay_point(h, g, collection, seed=seed, branch=branch)
            assert (point["iterations"], point["converged"], point["unconverged"]) == (0, True, 0)
            assert point["norm"] <= point["norm_upper"]
            if branch == "h":
                a, b = g, exceptional_complement(h, g, 4.0)
            else:
                a, b = exceptional_complement(g, h, 4.0), h
            surviving = retain_meeting(collection, b if branch == "h" else a)
            (matrix,) = restricted_matrices(a, b, surviving, [point["choice"]])
            top = np.linalg.svd(matrix, compute_uv=False)[:1].max(initial=0.0)
            assert abs(point["norm"] - top) <= 1e-12 * top


class TestVectorCarleson:
    def test_single_member(self):
        rng = np.random.default_rng(13)
        fam = random_vector(rng, 5, 1)
        report = verify_vector_carleson(fam, None, 2.5)
        assert math.isfinite(report.ratio)

    def test_duplicates_invariant(self):
        rng = np.random.default_rng(14)
        resolution = 5
        f = random_signal(rng, resolution)
        collection = TileCollection.all(resolution)
        choice = greedy_choice(VectorSignal.from_signals([f]), collection, GridSet.full(resolution))
        one = verify_vector_carleson(VectorSignal.from_signals([f]), choice, 3.0)
        many = verify_vector_carleson(VectorSignal.from_signals([f] * 9), choice * 9, 3.0)
        assert many.ratio == pytest.approx(one.ratio, rel=1e-12)

    @pytest.mark.parametrize("resolution", range(1, 9))
    def test_one_plan_gives_each_member_its_model_sum(self, monkeypatch, resolution):
        # the left side sums the stack of one plan over every member; each
        # row is that member's own model_sum, bit for bit, for given choices
        # cycling over more members than choices and for the greedy ones
        rng = np.random.default_rng(17 + resolution)
        L = resolution
        fams = random_vector(rng, L, 5)
        collection = TileCollection.all(L)
        stacks = []
        real_bundle_norm = carleson.bundle_norm
        monkeypatch.setattr(carleson, "bundle_norm", lambda x, *args: stacks.append(x) or real_bundle_norm(x, *args))
        given = [random_choice(rng, L) for _ in range(3)]
        greedy = greedy_choice(fams, collection, GridSet.full(L))
        for choices, supplied in ((given, given), (greedy, None)):
            stacks.clear()
            report = verify_vector_carleson(fams, supplied, 3.0)
            expected = [model_sum(fams.member(j), choices[j % len(choices)], collection).values for j in range(5)]
            assert same_bits(stacks[0], np.stack(expected))
            assert report.lhs == real_bundle_norm(np.stack(expected), 3.0, L)

    def test_rejects_bad_p(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError):
            verify_vector_carleson(random_vector(rng, 4, 2), None, 1.0)

    def test_rejects_empty_choices(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match="at least one choice function"):
            verify_vector_carleson(random_vector(rng, 4, 2), [], 2.5)
