"""Walsh functions in the Paley ordering and fast transforms.

W_m = prod over set bits j of m of the Rademacher function r_j, where
r_j(x) = (-1)**floor(2**(j+1) x).  On a grid of 2**r cells this reduces to
W_m(cell i) = (-1)**popcount(m & bitrev_r(i)), i.e. a Hadamard matrix with
bit-reversed columns.  The key structural fact used throughout: restricted to
a dyadic subinterval, W_m is (a sign times) the Walsh function of the shifted
index, which makes packets of disjoint phase-plane tiles exactly orthogonal.

Every transform, here and in the model-sum plans, runs one butterfly kernel:
the constant-geometry stages of `butterfly_layout` (Pease, J. ACM 15(2), 1968).
A layout depends on the shape of a stack alone; `tiles._packet_layout` keeps
one per (resolution, members) shape, and the generic transforms here need
none.
"""

from __future__ import annotations

import functools

import numpy as np


def bit_reverse(indices, bits: int) -> np.ndarray:
    """Reverse the lowest `bits` bits of each index."""
    idx = np.asarray(indices, dtype=np.int64)
    out = np.zeros_like(idx)
    for b in range(bits):
        out |= ((idx >> b) & 1) << (bits - 1 - b)
    return out


@functools.cache
def bit_reversal(bits: int) -> np.ndarray:
    """The read-only permutation i -> bit_reverse(i, bits) of range(2**bits),
    built once per bit count."""
    rev = bit_reverse(np.arange(1 << bits), bits)
    rev.setflags(write=False)
    return rev


@functools.cache
def walsh_matrix(bits: int) -> np.ndarray:
    """The Paley Walsh matrix on 2**bits cells: W_m(cell u) at row m and
    column u, as read-only int8 +-1 of 4**bits bytes, built once per bit
    count.  It is symmetric, since popcount(m & rev(u)) = popcount(rev(m) &
    u).  Built by doubling: with m = 2m' + m0 and u = t 2**(bits-1) + u',
    rev(u) = 2 rev(u') + t, so W_m(u) = (-1)**(m0 t) W_m'(u') on bits - 1."""
    table = np.ones((1 << bits,) * 2, dtype=np.int8)
    if bits:
        half = walsh_matrix(bits - 1)
        # axes (m', m0, t, u')
        quarters = table.reshape(len(half), 2, 2, len(half))
        quarters[:, 0, 0] = quarters[:, 0, 1] = quarters[:, 1, 0] = half
        np.negative(half, out=quarters[:, 1, 1])
    table.setflags(write=False)
    return table


def _bits(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return n.bit_length() - 1


@functools.cache
def block_gathers(resolution: int) -> np.ndarray:
    """Row k is the gather of walsh_analysis on each block of 2**(L - k)
    cells of one row: the bit reversal within the block, as cell indices.
    A read-only (L, 2**L) table, built once per resolution."""
    L = resolution
    cells = np.arange(1 << L)
    table = np.empty((L, 1 << L), dtype=np.int64)
    for k in range(L):
        within = (1 << (L - k)) - 1
        table[k] = (cells & ~within) + bit_reversal(L - k)[cells & within]
    table.setflags(write=False)
    return table


def butterfly_views(buffers: np.ndarray, active: tuple[int, ...]) -> list[tuple[np.ndarray, ...]]:
    """Per butterfly stage j, the views (a, b, top, bottom) of the two rows
    of `buffers`: a and b are the halves of the first active[j] entries of
    row j % 2, and top and bottom the even and odd ones of row (j + 1) % 2.
    Rows may be stacks themselves, laid out along axes after the first: a
    view takes its entries along the last axis, from every row of a stack."""
    views = []
    for j, size in enumerate(active):
        src, dst = buffers[j & 1], buffers[~j & 1]
        views.append((src[..., : size // 2], src[..., size // 2 : size], dst[..., 0:size:2], dst[..., 1:size:2]))
    return views


def butterfly_stages(views: list[tuple[np.ndarray, ...]]) -> None:
    """Run the butterfly stages of `butterfly_views`, in order."""
    # positional outputs: parsing out= costs more than these adds
    for a, b, top, bottom in views:
        np.add(a, b, top)
        np.subtract(a, b, bottom)


def butterfly_layout(
    stages: tuple[int, ...], half: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], np.ndarray]:
    """Where the entries of a stack of half blocks sit in two work buffers,
    so that every butterfly stage runs on one-dimensional views.

    Row r of the stack has `half` entries in blocks of 2**stages[r], with
    `stages` nonincreasing; the in-place transform pairs entry P = r * half
    + q with P + 2**j at stage j, when bit j of q is clear and stages[r] > j.
    The stages here compute the same sums and differences, but put them in
    the places of `butterfly_views`. Before stage 0, the first buffer holds
    the entries sorted by the key (s == 0, b_0, s == 1, b_1, ..., P), where
    s is the row's stage count and b_t bit t of q (0 from t = s on): the
    active rows come first, each pair of stage 0 sits half the active
    length apart, and the order of the pairs is again that key without its
    first bit. Each stage moves the bit it consumed to the least significant
    place and the rows it ends to the tail of the entries it writes, so the
    pairs of the next stage line up the same way, and the finished rows are
    never written again.

    Returns `order`, the index P of each entry of the first buffer before
    stage 0; `start`, its inverse; `active`, the number of entries each
    stage reads; and `final`, the flat index into the two buffers of each P
    after its row's last stage. The arrays are read-only.
    """
    size = len(stages) * half
    s = np.repeat(np.asarray(stages, dtype=np.int64), half)
    q = np.tile(np.arange(half), len(stages))
    keys = [np.arange(size)]
    for t in reversed(range(max(stages, default=0))):
        keys += [np.where(t < s, (q >> t) & 1, 0), s == t]
    order = np.lexsort(keys)
    # the keys, 2 max(stages) + 1 arrays of the stack's size, are freed
    # before the arrays kept and the stages' labels are made: a smaller
    # peak, and the kept arrays pack lower in the heap
    del keys
    start = np.empty_like(order)
    start[order] = np.arange(size)
    active = tuple(int(np.count_nonzero(s > j)) for j in range(max(stages, default=0)))
    # follow the index P of every entry through the stages; the rows that a
    # stage ends are the tail of what it writes
    labels = np.zeros((2, size), dtype=np.int64)
    labels[0] = order
    final = np.empty(size, dtype=np.int64)
    ends = active + (0,)
    final[order[ends[0] :]] = np.arange(ends[0], size)
    for j, (a, b, top, bottom) in enumerate(butterfly_views(labels, active)):
        top[:], bottom[:] = a, b
        done = slice(ends[j + 1], ends[j])
        final[labels[~j & 1, done]] = (~j & 1) * size + np.arange(size)[done]
    for a in (order, start, final):
        a.setflags(write=False)
    return order, start, active, final


def _hadamard_moved(a: np.ndarray, axis: int, analysis: bool = False) -> np.ndarray:
    """Unnormalized Hadamard transform along one axis of `a` (of its
    bit-reversed lines, for `analysis`), as a new float64 or complex128
    array, C-ordered with that axis moved last.

    For lines of equal blocks, `butterfly_layout` places entry q of line r
    at rev(q) * lines + r before stage 0, and its output q at r * 2**bits +
    rev(q) after the last stage, so the gathers in and out are a transpose
    and a bit reversal; analysis reads its input through the same reversal,
    which cancels the first."""
    lines = np.moveaxis(np.asarray(a), axis, 0)
    bits = _bits(lines.shape[0])
    rev = bit_reversal(bits)
    work = np.empty((2, lines.size), dtype=np.complex128 if np.iscomplexobj(lines) else np.float64)
    work[0].reshape(lines.shape)[... if analysis else rev] = lines
    butterfly_stages(butterfly_views(work, (lines.size,) * bits))
    return np.take(work[bits & 1].reshape(lines.shape[1:] + lines.shape[:1]), rev, axis=-1)


def walsh_analysis(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Coefficients a_m = sum_i values_i W_m(cell i), Paley order."""
    return np.moveaxis(_hadamard_moved(values, axis, analysis=True), -1, axis)


def walsh_synthesis(coeffs: np.ndarray, axis: int = -1) -> np.ndarray:
    """values_i = sum_m coeffs_m W_m(cell i); inverse of analysis up to n."""
    out = _hadamard_moved(coeffs, axis)
    # a fancy index, not a folded final gather: its memory order (F order
    # for 2-D) is the one the sums and FFTs downstream read, bit for bit
    return np.moveaxis(out[..., bit_reversal(_bits(out.shape[-1]))], -1, axis)
