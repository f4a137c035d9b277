"""Directional half-plane projections, directional maximal averages over a
finite rotated-box family, annular frequency bands, and the majorant-weight
machinery for the weighted square-function bound.

Half planes act through the 2D Fourier transform with an exact boundary rule:
S_v and S_{-v} partition the nonzero frequency lattice, and the zero
frequency goes with the lexicographically positive direction, so the two
projections sum to the identity bit for bit in frequency space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid2D,
    GridSet2D,
    GridSignal,
    bundle_norm,
    cell_width,
    check_exponent,
    check_q_window,
    check_resolution,
    check_same_grid,
    conjugate_exponent,
    lp_norm,
    measure,
    stack_slices,
)
from .maximal import dyadic_maximal, scale_averages
from .principle import OperatorFamily, top_singular
from .reports import certificate, ratio_report, safe_ratio

# steps of `DirectionalAverager.estimate_norm`'s power ascent
ASCENT_STEPS = 12
# cap on the terms of the majorant weight of `verify_weighted_directional`;
# the series stops earlier, at its first certified tail (T = 16-17 at L = 4-7)
WEIGHT_TERMS = 40
# roundoff margin of the majorant weight's recursion certificate: its stop
# test and its `tail_bound` both read it
RECURSION_MARGIN = 1e-9


@dataclass(frozen=True)
class Direction:
    """Unit vector in the plane with its positive quarter-turn."""

    vx: float
    vy: float

    def __post_init__(self):
        if not (math.isfinite(self.vx) and math.isfinite(self.vy)):
            raise ValueError(f"direction components must be finite, got ({self.vx}, {self.vy})")
        norm = math.hypot(self.vx, self.vy)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction must be a unit vector, |v| = {norm}")

    @classmethod
    def from_angle(cls, theta: float) -> "Direction":
        return cls(math.cos(theta), math.sin(theta))

    @property
    def perp(self) -> tuple[float, float]:
        return (-self.vy, self.vx)

    @property
    def negated(self) -> "Direction":
        return Direction(-self.vx, -self.vy)

    @property
    def lex_positive(self) -> bool:
        return self.vx > 0 or (self.vx == 0 and self.vy > 0)


@dataclass(frozen=True)
class DirectionSet:
    members: tuple[Direction, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("direction set must be nonempty")
        if len(set((d.vx, d.vy) for d in self.members)) != len(self.members):
            raise ValueError("directions must be pairwise distinct")

    @classmethod
    def uniform(cls, count: int) -> "DirectionSet":
        return cls(tuple(Direction.from_angle(math.pi * k / count) for k in range(count)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _freq_grids(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    n = 1 << resolution
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    return freqs[:, None], freqs[None, :]


def halfplane_mask(resolution: int, v: Direction) -> np.ndarray:
    """0/1 multiplier of the half plane with normal v.

    Membership: xi . v > 0, or xi . v = 0 with xi . v_perp > 0; the zero
    frequency belongs to the lexicographically positive of v, -v.  Products
    with -v are exact negations, so the two masks partition the lattice.
    """
    fx, fy = _freq_grids(resolution)
    d = fx * v.vx + fy * v.vy
    px, py = v.perp
    dperp = fx * px + fy * py
    mask = (d > 0) | ((d == 0) & (dperp > 0))
    if v.lex_positive:
        mask[0, 0] = True
    return mask


def halfplane_project(f: Grid2D, v: Direction) -> Grid2D:
    spectrum = np.fft.fft2(f.values)
    return Grid2D(f.resolution, np.fft.ifft2(spectrum * halfplane_mask(f.resolution, v)))


def band_window(resolution: int, k: int) -> np.ndarray:
    """Radial window of the annulus at radius 2**k, triangular in log2 radius.

    Windows for k = 0 .. L sum to one exactly on the lattice; the lowest
    window absorbs radii at most 1 (including the zero frequency) and the
    highest absorbs everything beyond 2**L.
    """
    if not 0 <= k <= resolution:
        raise ValueError(f"band index {k} out of range for resolution {resolution}")
    fx, fy = _freq_grids(resolution)
    r = np.hypot(fx, fy)
    s = np.full_like(r, -np.inf)
    np.log2(r, out=s, where=r > 0)
    w = np.clip(1.0 - np.abs(s - k), 0.0, 1.0)
    if k == 0:
        w[s <= 0] = 1.0
    if k == resolution:
        w[s >= resolution] = 1.0
    return w


# ---------------------------------------------------------------------------
# the finite rotated-box family and its maximal operator


class DirectionalAverager:
    """Averages over centered rotated boxes rasterized to the torus grid.

    For each direction the box sides run over the dyadic ladder
    {1, 1/2, ..., 2**-L}; a box holds the cells whose center displacement,
    wrapped to [-1/2, 1/2) per axis, lies inside it, so the anchor cell is
    always a member.  Averages are circular correlations (conjugate kernel
    spectra), clamped at zero; `estimate_norm` back-projects by their
    adjoint, a convolution, so no kernel need be symmetric.  The kernels'
    normalized real half spectra form one `(K, n, n//2+1)` array, and the
    transforms run on the kernel stacks `stack_slices` gives; each slab of a
    stacked FFT equals the single-array transform bit for bit.
    """

    def __init__(self, resolution: int, directions: DirectionSet):
        check_resolution(resolution)
        self.resolution = resolution
        self.directions = directions
        n = 1 << resolution
        idx = np.arange(n)
        delta = (((idx + n // 2) % n) - n // 2) / n
        dx, dy = delta[:, None], delta[None, :]
        # box (ia, ib) holds |along| <= 2**-ia / 2 and |across| <= 2**-ib / 2,
        # up to a roundoff margin; a direction's (L+1)**2 boxes come from one
        # comparison per side and one broadcast `&`, deduplicated in
        # (direction, ia, ib) order
        half_sides = np.array([2.0**-i / 2 + 1e-12 for i in range(resolution + 1)])[:, None, None]
        distinct: dict[bytes, np.ndarray] = {}
        for v in directions:
            px, py = v.perp
            along = np.abs(dx * v.vx + dy * v.vy) <= half_sides
            across = np.abs(dx * px + dy * py) <= half_sides
            for kernel in (along[:, None] & across[None, :]).reshape(-1, n, n):
                key = kernel.tobytes()
                if key not in distinct:
                    distinct[key] = kernel.copy()
        kernels = list(distinct.values())
        self.kernel_counts = [int(np.count_nonzero(k)) for k in kernels]
        self.kernel_ffts = np.empty((len(kernels), n, n // 2 + 1), dtype=np.complex128)
        for s in stack_slices(len(kernels), n * n):
            block = np.stack(kernels[s]).astype(float)
            counts = np.array(self.kernel_counts[s], dtype=float)[:, None, None]
            self.kernel_ffts[s] = np.fft.rfft2(block) / counts

    def _average_stacks(self, values: np.ndarray):
        """Yield each kernel stack `s` with the averages of |values| over its
        kernels, in one real work buffer that the next stack rewrites."""
        spectrum = np.fft.rfft2(np.abs(np.asarray(values)))
        stacks = stack_slices(len(self.kernel_ffts), values.size)
        buf = np.empty((stacks[0].stop,) + spectrum.shape, dtype=np.complex128)
        avg = np.empty((stacks[0].stop,) + values.shape)
        for s in stacks:
            work = np.conjugate(self.kernel_ffts[s], out=buf[: s.stop - s.start])
            np.multiply(spectrum, work, out=work)
            # irfft2 drops `out` as ifft2 does; irfftn over the last two axes keeps it
            yield s, np.fft.irfftn(work, s=values.shape, axes=(-2, -1), out=avg[: len(work)])

    def all_averages(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The maximum over the kernels of the box averages of |values| and
        the kernel attaining it: `running_max` of the clipped slabs, handed
        over one at a time in kernel order, so no `(K, n, n)` stack is built."""
        stacks = self._average_stacks(values)
        return running_max(slab for _, work in stacks for slab in np.clip(work, 0.0, None, out=work))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """`all_averages(values)[0]`, bit for bit, without the argmax: the
        maximum of each kernel stack's raw averages, then one clip.  Max
        is exact, and clipping at zero is monotone and sends every value up
        to zero (-0.0 included) to +0.0, so clipping after the maximum gives
        the bytes of the maximum of the clipped slabs."""
        top = None
        for _, work in self._average_stacks(values):
            top = work.max(axis=0) if top is None else np.maximum(top, work.max(axis=0), out=top)
        return np.clip(top, 0.0, None, out=top)

    def estimate_norm(self, p: float, seed: int = 0) -> float:
        """Family-relative lower estimate of the L^p operator norm via
        `ASCENT_STEPS` steps of linearized power ascent; every reported
        ratio is attained.  The ascent stops after those steps whether or
        not it has settled, and the value carries no flag saying which.

        The back-projection transforms, in stacks, only the kernels that win
        at some cell, and adds their spectra in kernel order before one irfft2."""
        check_exponent(p)
        n = 1 << self.resolution
        rng = np.random.default_rng(seed)
        v = np.abs(rng.standard_normal((n, n))) + 0.1
        best = 0.0
        buf = np.empty_like(self.kernel_ffts[stack_slices(len(self.kernel_ffts), n * n)[0]])
        for step in range(ASCENT_STEPS):
            vn = lp_norm(v, p, self.resolution)
            if vn == 0:
                break
            v = v / vn
            u, choice = self.all_averages(v)
            best = max(best, lp_norm(u, p, self.resolution))
            if step == ASCENT_STEPS - 1:
                # the last back-projection would feed no further step
                break
            z = u ** (p - 1.0)
            winners = np.flatnonzero(np.bincount(choice.ravel(), minlength=len(self.kernel_ffts)))
            back = np.zeros_like(buf[0])
            for s in stack_slices(len(winners), n * n):
                sel = choice == winners[s, None, None]
                parts = np.fft.rfft2(z * sel, out=buf[: s.stop - s.start])
                parts *= self.kernel_ffts[winners[s]]
                for part in parts:
                    back += part
            back = np.clip(np.fft.irfft2(back, s=(n, n)), 0.0, None)
            v = back ** (1.0 / (p - 1.0))
            if not np.any(v > 0):
                break
        return max(best, 1.0)


def _ifft2_into(buf: np.ndarray) -> np.ndarray:
    """`np.fft.ifft2` of `buf` over its last two axes, written into `buf`:
    `ifft2` itself accepts `out` and drops it (numpy 2.4.6 passes `out=None`
    on), while `ifftn` runs the same one-axis transforms and writes it."""
    return np.fft.ifftn(buf, axes=(-2, -1), out=buf)


def _member_gather(multipliers: np.ndarray):
    """rows -> multipliers[rows], gathered again only when the rows change:
    an engine stack applies the same members until some leave it."""
    last: list = [None, None]

    def gather(rows):
        if last[0] != list(rows):
            last[:] = list(rows), multipliers[rows]
        return last[1]

    return gather


def running_max(slabs) -> tuple[np.ndarray, np.ndarray]:
    """`np.stack(slabs).max(axis=0)` of NaN-free slabs and its
    `argmax(axis=0)`, from any iterable of them, so no stack need be built.

    The maximum is a running `np.maximum` in slab order, the pairwise maxima
    the reduction takes, so it matches bit for bit, signed zeros included.
    A later slab wins a cell only when it is strictly larger than the
    running maximum, so a tie (-0.0 and +0.0 included) keeps the first slab,
    as `argmax` does."""
    slabs = iter(slabs)
    top = next(slabs).copy()
    choice = np.zeros(top.shape, dtype=np.intp)
    for i, slab in enumerate(slabs, start=1):
        choice[slab > top] = i
        np.maximum(top, slab, out=top)
    return top, choice


# ---------------------------------------------------------------------------
# weights


@dataclass
class MajorantWeight:
    """Truncated geometric majorant sum_{k<=terms} (2N)**-k M_Sigma^k g with
    its certificates: g <= w pointwise, ||w||_p <= 2 ||g||_p, and
    M_Sigma w <= 2 N w + tail.  `terms` is the T where the series stopped."""

    values: np.ndarray
    terms: int
    p: float
    norm_used: float
    tail_bound: float
    excess: float
    input_norm: float
    weight_norm: float

    def checks(self, suffix: str = "") -> list[dict]:
        """The two certificates, named `weight_norm` and `weight_recursion`
        plus `suffix`: ||w||_p <= 2 ||g||_p, with a relative slack of 1e-12
        for the float norms, and max(M_Sigma w - 2N w) <= `tail_bound`."""
        return [
            certificate(f"weight_norm{suffix}", self.weight_norm, 2.0 * self.input_norm * (1 + 1e-12), "postcondition"),
            certificate(f"weight_recursion{suffix}", self.excess, self.tail_bound, "postcondition"),
        ]

    @property
    def certificates(self) -> dict:
        return {
            "terms": self.terms,
            "norm_used": self.norm_used,
            "tail_bound": self.tail_bound,
            "excess": self.excess,
        }


def build_majorant_weight(
    g: Grid2D, averager: DirectionalAverager, p: float, terms: int, norm: float
) -> MajorantWeight:
    """w = sum_{k=0}^{T} (2N)**-k h_k for real nonnegative g, with h_k =
    M_Sigma^k g the iterates of the averager's maximal operator.

    The averager runs one iterate at a time.  After each h_{k+1}, N is the
    largest of `norm`, the caller's ascent estimate at p (`estimate_norm`),
    1 and every step ratio ||h_{j+1}||_p / ||h_j||_p so far; T is the first
    k whose truncation tail (2N)**-k max h_{k+1} is at most
    `RECURSION_MARGIN`, or `terms` if none is.  Both certificates hold at
    any T: ||h_k||_p <= N**k ||g||_p for k <= T, so ||w||_p <= 2 ||g||_p;
    and by sublinearity M_Sigma w <= sum_{k<=T} (2N)**-k h_{k+1}
    <= 2N w + (2N)**-T h_{T+1}.  The recursion certificate's `tail_bound`
    is that truncation tail plus `RECURSION_MARGIN` for the
    frequency-domain averaging roundoff.
    """
    check_exponent(p)
    L = check_same_grid(g=g, averager=averager)
    if np.any(g.values.imag != 0):
        raise ValueError("weight seed must be real")
    vals = g.values.real
    if np.any(vals < 0) or not np.any(vals > 0):
        raise ValueError("weight seed must be nonnegative and not identically zero")
    if terms < 0:
        raise ValueError(f"terms must be nonnegative, got {terms}")

    iterates, norms = [vals], [lp_norm(vals, p, L)]
    n_used = max(norm, 1.0)
    for k in range(terms + 1):
        iterates.append(averager.apply(iterates[-1]))
        norms.append(lp_norm(iterates[-1], p, L))
        if norms[k] > 0:
            n_used = max(n_used, norms[k + 1] / norms[k])
        truncation = (2.0 * n_used) ** -k * float(np.max(iterates[-1]))
        if truncation <= RECURSION_MARGIN or k == terms:
            break

    w = np.zeros_like(vals)
    for j, h in enumerate(iterates[:-1]):
        w += (2.0 * n_used) ** -j * h
    mw = averager.apply(w)
    excess = float(np.max(mw - 2.0 * n_used * w))
    return MajorantWeight(
        values=w,
        terms=k,
        p=p,
        norm_used=n_used,
        tail_bound=truncation + RECURSION_MARGIN,
        excess=excess,
        input_norm=norms[0],
        weight_norm=lp_norm(w, p, L),
    )


def muckenhoupt_constants(u: GridSignal) -> tuple[float, float]:
    """(A1, A2) of a positive weight over all dyadic intervals: A1 is the
    supremum of Mu/u, A2 the supremum of avg(u) avg(1/u)."""
    if np.any(u.values.imag != 0):
        raise ValueError("weight must be real")
    vals = u.values.real
    if np.any(vals <= 0):
        raise ValueError("weight must be strictly positive")
    L = u.resolution
    mu = dyadic_maximal(u).values.real
    a1 = float(np.max(mu / vals))
    pairs = zip(scale_averages(vals, L), scale_averages(1.0 / vals, L))
    a2 = max(float(np.max(avg_u * avg_inv)) for avg_u, avg_inv in pairs)
    return a1, a2


# ---------------------------------------------------------------------------
# the two theorems


def directional_level_complement(
    h: GridSet2D,
    g: GridSet2D,
    averager: DirectionalAverager,
    base_threshold: float,
) -> tuple[GridSet2D, float]:
    """h minus {M_Sigma 1_g >= c * base_threshold} with c the smallest power
    of two certifying the half-measure guarantee; returns (h', c).

    Always terminates with the guarantee intact: once the threshold exceeds
    one, the level set is empty (box averages of an indicator never exceed
    one) and h is returned whole.
    """
    check_same_grid(h=h, g=g, averager=averager)
    field_vals = averager.apply(g.mask.astype(float))
    c = 1.0
    while True:
        kept = GridSet2D(h.resolution, h.mask & ~(field_vals >= c * base_threshold))
        if measure(kept) >= 0.5 * measure(h):
            return kept, c
        c *= 2.0


def _projection_stacks(fams: list[Grid2D], averager: DirectionalAverager) -> tuple[int, np.ndarray, np.ndarray]:
    """The resolution of a nonempty family on the averager's grid, its
    values stacked, and the stack of member j projected to the half-plane
    of the averager's direction j modulo their number."""
    if not fams:
        raise ValueError("need at least one family member")
    L = check_same_grid(*fams, averager=averager)
    members = averager.directions.members
    stack_in = np.stack([f.values for f in fams])
    stack_out = np.stack([halfplane_project(f, members[j % len(members)]).values for j, f in enumerate(fams)])
    return L, stack_in, stack_out


def _multiplier_family(resolution: int, directions: DirectionSet, in_mask: np.ndarray) -> OperatorFamily:
    """The band-times-half-plane multipliers M of `verify_directional` as
    one family, for the engine to localize to the input set `in_mask`.

    Members are band-major, k * len(directions) + j for band k and
    direction j, so a stack holds bands whose runs take similar step
    counts.  M is real, so M* = M, and with U the unitary DFT a member is
    U* M U.  On the whole square 1_G U* M U has the singular values of
    1_G U* M, U being unitary, so the family runs in frequency space: U* M
    with adjoint M U, one transform per apply and one per adjoint, both
    with `norm="ortho"`, without which they are no adjoint pair.  On a
    proper subset H' it keeps U* M U, one fft2/ifft2 pair each way, since
    U 1_H' U* is a convolution.  Each map transforms in place the array the
    engine hands it, and a stack's multipliers are gathered once per member
    set.  The frequency-space form's right Lanczos vectors are U times the
    spatial ones; `verify_directional` reads none."""
    halves = np.stack([halfplane_mask(resolution, v) for v in directions])
    multipliers = np.concatenate([band_window(resolution, k) * halves for k in range(resolution + 1)])
    gather = _member_gather(multipliers)

    def multiply(rows, x):
        spectra = np.fft.fft2(x, out=x)
        return _ifft2_into(np.multiply(spectra, gather(rows), out=spectra))

    def synthesize(rows, x):
        return np.fft.ifftn(np.multiply(x, gather(rows), out=x), axes=(-2, -1), norm="ortho", out=x)

    def analyze(rows, x):
        spectra = np.fft.fftn(x, axes=(-2, -1), norm="ortho", out=x)
        return np.multiply(spectra, gather(rows), out=spectra)

    if in_mask.all():
        return OperatorFamily(len(multipliers), synthesize, analyze)
    return OperatorFamily(len(multipliers), multiply, multiply)


def verify_directional(
    fams: list[Grid2D],
    averager: DirectionalAverager,
    q: float,
    p: float,
    norm: float,
    seed: int = 0,
) -> dict:
    """Square-function bound for directional half-plane projections, plus the
    localized-operator route at p = 2.

    Reports both sides of the vector inequality at q, and wires the family
    S_k H_{v_j} through the two-set condition: the exceptional set removes the
    region where the directional maximal function of 1_G is large (threshold
    (|G|/|H|)**(1/2) times `norm`, the caller's measure of the averager's
    L^2 norm, such as `averager.estimate_norm(2.0)`), and the localized
    norms are reported against the measure-ratio power alpha = 1/4.  The
    directions are the averager's.  The localized norms are `top_singular`
    runs at the engine's step cap, and `localized_unconverged` counts those
    that hit it.
    """
    check_exponent(p)
    check_q_window(q, p)
    L, stack_in, stack_out = _projection_stacks(fams, averager)
    directions = averager.directions
    n = 1 << L
    lhs = bundle_norm(stack_out, q, L)
    rhs = bundle_norm(stack_in, q, L)
    report = ratio_report(lhs, rhs, q=q, p=p, family_size=len(fams), norm_MSigma=norm)

    rng = np.random.default_rng(seed)
    g_mask = rng.random((n, n)) < 0.25
    if not np.any(g_mask):
        g_mask[0, 0] = True
    g = GridSet2D(L, g_mask)
    h = GridSet2D(L, np.ones((n, n), dtype=bool))
    ratio = measure(g) / measure(h)
    h_prime, c_used = directional_level_complement(
        h, g, averager, math.sqrt(ratio) * norm
    )
    report["h_kept"] = safe_ratio(measure(h_prime), measure(h))
    report["exceptional_c"] = c_used

    family = _multiplier_family(L, directions, h_prime.mask)
    seeds = [seed + 31 * j + k for k in range(L + 1) for j in range(len(directions))]
    results = top_singular(family, g.mask, h_prime.mask, seeds)
    norms = [res.norm for res in results]
    alpha = 0.25
    report["localized_norm_max"] = max(norms, default=0.0)
    report["localized_unconverged"] = sum(not res.converged for res in results)
    report["condition_constant"] = safe_ratio(max(norms, default=0.0), ratio**alpha)
    report["measure_ratio"] = ratio
    return report


def verify_weighted_directional(
    fams: list[Grid2D], averager: DirectionalAverager, p: float, norm: float
) -> tuple[dict, MajorantWeight]:
    """Endpoint square-function bound through the weight route, over the
    averager's directions.

    At q = 2p' the dual extremal g of || sum |H_v f_j|^2 ||_{p'} seeds the
    majorant weight, whose series stops at its first certified tail after
    at most `WEIGHT_TERMS` terms (`weight["terms"]` says where); the
    per-direction weighted projection constants and the assembled chain are
    all reported, and the final ratio is normalized by `norm`, the caller's
    measure of the averager's L^p norm (such as `averager.estimate_norm(p)`),
    to the power |1 - 2/q| = 1/p; `norm` is also the weight's N.  Returns
    the report and the weight, whose `checks` give its certificates as
    values and bounds.
    """
    check_exponent(p)
    p_conj = conjugate_exponent(p)
    q = 2.0 * p_conj
    L, stack_in, stack_out = _projection_stacks(fams, averager)
    lhs = bundle_norm(stack_out, q, L)
    rhs = norm ** (1.0 / p) * bundle_norm(stack_in, q, L)
    report = ratio_report(lhs, rhs, q=q, p=p, family_size=len(fams), norm_MSigma=norm)

    # dual extremal of ||F||_{p'} for F = sum |H_v f_j|^2, normalized in L^p
    big_f = np.sum(np.abs(stack_out) ** 2, axis=0)
    f_norm = lp_norm(big_f, p_conj, L)
    if f_norm > 0:
        g_dual = (big_f / f_norm) ** (p_conj / p)
        g_dual = g_dual / max(lp_norm(g_dual, p, L), 1e-300)
    else:
        g_dual = np.ones_like(big_f)
        g_dual = g_dual / lp_norm(g_dual, p, L)

    g_weight = Grid2D(L, g_dual.astype(np.complex128))
    weight = build_majorant_weight(g_weight, averager, p, WEIGHT_TERMS, norm)
    report["weight"] = weight.certificates
    area = cell_width(L) ** 2
    pairing = float(np.sum(big_f * g_dual) * area)
    pairing_w = float(np.sum(big_f * weight.values) * area)
    per_direction = []
    for j in range(len(fams)):
        denom = float(np.sum(np.abs(stack_in[j]) ** 2 * weight.values) * area)
        numer = float(np.sum(np.abs(stack_out[j]) ** 2 * weight.values) * area)
        per_direction.append(safe_ratio(numer, denom))
    weighted_input = float(
        np.sum(np.sum(np.abs(stack_in) ** 2, axis=0) * weight.values) * area
    )
    report["duality_pairing"] = pairing
    report["weighted_pairing"] = pairing_w
    report["per_direction_constants"] = per_direction
    report["weighted_input"] = weighted_input
    report["chain_constant"] = safe_ratio(
        pairing_w, max(per_direction, default=0.0) * weighted_input
    )
    return report, weight
