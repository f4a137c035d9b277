"""Walsh functions in the Paley ordering and fast transforms.

W_m = prod over set bits j of m of the Rademacher function r_j, where
r_j(x) = (-1)**floor(2**(j+1) x).  On a grid of 2**r cells this reduces to
W_m(cell i) = (-1)**popcount(m & bitrev_r(i)), i.e. a Hadamard matrix with
bit-reversed columns.  The key structural fact used throughout: restricted to
a dyadic subinterval, W_m is (a sign times) the Walsh function of the shifted
index, which makes packets of disjoint phase-plane tiles exactly orthogonal.
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


def walsh_values(m: int, bits: int) -> np.ndarray:
    """W_m sampled on the 2**bits cells of [0, 1), values in {-1, +1}."""
    if not 0 <= m < (1 << bits) and not (m == 0 and bits == 0):
        raise ValueError(f"Walsh index {m} out of range for {bits} bits")
    signs = np.bitwise_count(np.int64(m) & bit_reversal(bits)) & 1
    return 1.0 - 2.0 * signs


def _bits(n: int) -> int:
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return n.bit_length() - 1


def block_hadamard(a: np.ndarray, bits: int) -> np.ndarray:
    """Unnormalized Hadamard transform, in place, of each aligned block of
    2**bits entries of a C-contiguous float64 or complex128 array, read
    flat; returns the array. Stage j pairs entries 2**j apart."""
    if not a.flags.c_contiguous:
        raise ValueError("block_hadamard works in place on a C-contiguous array")
    for j in range(bits):
        x = a.reshape(-1, 2, 1 << j)
        top = x[:, 0] + x[:, 1]
        np.subtract(x[:, 0], x[:, 1], out=x[:, 1])
        x[:, 0] = top
    return a


def _float_dtype(a: np.ndarray):
    return np.complex128 if np.iscomplexobj(a) else np.float64


def _is_last(a: np.ndarray, axis: int) -> bool:
    return axis in (-1, a.ndim - 1)


def _transform_last(buf: np.ndarray) -> np.ndarray:
    """Hadamard transform along the last axis of a C-contiguous array the
    caller owns: every row is one block of the flattened array."""
    return block_hadamard(buf, _bits(buf.shape[-1]))


def hadamard(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized Hadamard butterfly along one axis (length a power of two)."""
    a = np.asarray(a)
    if not _is_last(a, axis):
        return np.moveaxis(hadamard(np.moveaxis(a, axis, -1)), -1, axis)
    return _transform_last(np.array(a, dtype=_float_dtype(a), order="C"))


def walsh_analysis(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Coefficients a_m = sum_i values_i W_m(cell i), Paley order."""
    values = np.asarray(values)
    if not _is_last(values, axis):
        return np.moveaxis(walsh_analysis(np.moveaxis(values, axis, -1)), -1, axis)
    rev = bit_reversal(_bits(values.shape[-1]))
    return _transform_last(values[..., rev].astype(_float_dtype(values), order="C", copy=False))


def walsh_synthesis(coeffs: np.ndarray, axis: int = -1) -> np.ndarray:
    """values_i = sum_m coeffs_m W_m(cell i); inverse of analysis up to n."""
    coeffs = np.asarray(coeffs)
    if not _is_last(coeffs, axis):
        return np.moveaxis(walsh_synthesis(np.moveaxis(coeffs, axis, -1)), -1, axis)
    return hadamard(coeffs)[..., bit_reversal(_bits(coeffs.shape[-1]))]
