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
    check_resolution,
    lp_norm,
    measure,
    stack_slices,
)
from .maximal import dyadic_maximal, scale_averages
from .principle import OperatorFamily, top_singular
from .reports import RatioReport, safe_ratio

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


def annular_band(f: Grid2D, k: int) -> Grid2D:
    spectrum = np.fft.fft2(f.values)
    return Grid2D(f.resolution, np.fft.ifft2(spectrum * band_window(f.resolution, k)))


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
        distinct: dict[bytes, np.ndarray] = {}
        for v in directions:
            px, py = v.perp
            along = dx * v.vx + dy * v.vy
            across = dx * px + dy * py
            for ia in range(resolution + 1):
                for ib in range(resolution + 1):
                    a, b = 2.0**-ia, 2.0**-ib
                    kernel = (np.abs(along) <= a / 2 + 1e-12) & (np.abs(across) <= b / 2 + 1e-12)
                    distinct.setdefault(kernel.tobytes(), kernel)
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
        ratio is attained.

        The back-projection transforms, in stacks, only the kernels that win
        at some cell, and adds their spectra in kernel order before one irfft2."""
        _check_exponent(p)
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


def _check_exponent(p: float) -> None:
    if not 1 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")


def _ifft2_into(buf: np.ndarray) -> np.ndarray:
    """`np.fft.ifft2` of `buf` over its last two axes, written into `buf`:
    `ifft2` itself accepts `out` and drops it (numpy 2.4.6 passes `out=None`
    on), while `ifftn` runs the same one-axis transforms and writes it."""
    return np.fft.ifftn(buf, axes=(-2, -1), out=buf)


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


def _check_averager(averager: DirectionalAverager, resolution: int) -> None:
    """Reject an averager built for another grid than the data's."""
    if averager.resolution != resolution:
        raise ValueError(
            f"averager built for L={averager.resolution} does not match the data at L={resolution}"
        )


def directional_maximal(f: Grid2D, directions: DirectionSet) -> Grid2D:
    """Largest average of |f| over the finite rotated-box family at each cell."""
    averager = DirectionalAverager(f.resolution, directions)
    return Grid2D(f.resolution, averager.apply(f.values))


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

    @property
    def certificates(self) -> dict:
        return {
            "terms": self.terms,
            "norm_used": self.norm_used,
            "tail_bound": self.tail_bound,
            "excess": self.excess,
            "norm_ok": self.weight_norm <= 2.0 * self.input_norm * (1 + 1e-12),
            "recursion_ok": self.excess <= self.tail_bound,
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
    _check_exponent(p)
    L = g.resolution
    if np.any(g.values.imag != 0):
        raise ValueError("weight seed must be real")
    vals = g.values.real
    if np.any(vals < 0) or not np.any(vals > 0):
        raise ValueError("weight seed must be nonnegative and not identically zero")
    _check_averager(averager, L)
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


def hilbert_transform(f: GridSignal) -> GridSignal:
    """Discrete Hilbert transform: frequency multiplier -i sign(xi), with the
    zero and Nyquist frequencies annihilated."""
    n = len(f)
    spectrum = np.fft.fft(f.values)
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    multiplier = -1j * np.sign(freqs)
    if n % 2 == 0:
        multiplier[n // 2] = 0.0
    return GridSignal(f.resolution, np.fft.ifft(spectrum * multiplier))


def weighted_hilbert_ratio(f: GridSignal, u: GridSignal) -> RatioReport:
    """Measured constant of the weighted L2 bound for the Hilbert transform:
    int |Hf|^2 u against A1(u)**2 int |f|^2 u."""
    a1, a2 = muckenhoupt_constants(u)
    w = u.values.real
    hf = hilbert_transform(f).values
    width = 2.0 ** -f.resolution
    lhs = float(np.sum(np.abs(hf) ** 2 * w) * width)
    rhs = a1**2 * float(np.sum(np.abs(f.values) ** 2 * w) * width)
    report = RatioReport.from_sides(lhs, rhs, A1=a1, A2=a2)
    report.extra["C21"] = report.ratio
    return report


# ---------------------------------------------------------------------------
# square-function equivalence and the two theorems


def square_function_equivalence(
    fams: list[Grid2D], q: float, trials: int, seed: int = 0
) -> RatioReport:
    """Monte-Carlo check of the doubly indexed randomization identity:
    E || sum_{k,j} r_k r'_j S_k f_j ||_q^q against the square function
    || (sum_{k,j} |S_k f_j|^2)^(1/2) ||_q^q; reports the sample ratio range."""
    if q <= 2:
        raise ValueError(f"q must exceed 2, got {q}")
    if not fams:
        raise ValueError("need at least one family member")
    L = fams[0].resolution
    rng = np.random.default_rng(seed)
    pieces = np.stack(
        [[annular_band(f, k).values for k in range(L + 1)] for f in fams]
    )  # (J, K, n, n)
    square = float(
        np.sum(np.sum(np.abs(pieces) ** 2, axis=(0, 1)) ** (q / 2.0)) * cell_width(L) ** 2
    )
    samples = []
    for _ in range(max(1, trials)):
        rj = rng.choice([-1.0, 1.0], size=pieces.shape[0])
        rk = rng.choice([-1.0, 1.0], size=pieces.shape[1])
        mix = np.einsum("j,k,jkxy->xy", rj, rk, pieces)
        samples.append(float(np.sum(np.abs(mix) ** q) * cell_width(L) ** 2))
    mean = float(np.mean(samples))
    report = RatioReport.from_sides(mean, square, q=q, trials=len(samples))
    report.extra["ratio_lo"] = safe_ratio(min(samples), square)
    report.extra["ratio_hi"] = safe_ratio(max(samples), square)
    return report


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
    L = fams[0].resolution
    _check_averager(averager, L)
    members = averager.directions.members
    stack_in = np.stack([f.values for f in fams])
    stack_out = np.stack([halfplane_project(f, members[j % len(members)]).values for j, f in enumerate(fams)])
    return L, stack_in, stack_out


def verify_directional(
    fams: list[Grid2D],
    averager: DirectionalAverager,
    q: float,
    p: float,
    seed: int = 0,
) -> RatioReport:
    """Square-function bound for directional half-plane projections, plus the
    localized-operator route at p = 2.

    Reports both sides of the vector inequality at q, and wires the family
    S_k H_{v_j} through the two-set condition: the exceptional set removes the
    region where the directional maximal function of 1_G is large (threshold
    (|G|/|H|)**(1/2) times the measured norm), and the localized norms are
    reported against the measure-ratio power alpha = 1/4.  The directions
    are the averager's.  The localized norms are `top_singular` runs at the
    engine's step cap, and `localized_unconverged` counts those that hit
    it.
    """
    _check_exponent(p)
    if not (q > 0 and abs(1.0 - 2.0 / q) < 1.0 / p):
        raise ValueError(f"exponent q={q} outside the admissible range for p={p}")
    L, stack_in, stack_out = _projection_stacks(fams, averager)
    directions = averager.directions
    n = 1 << L
    lhs = bundle_norm(stack_out, q, L)
    rhs = bundle_norm(stack_in, q, L)
    report = RatioReport.from_sides(lhs, rhs, q=q, p=p, family_size=len(fams))

    norm_l2 = averager.estimate_norm(2.0, seed=seed)
    report.extra["norm_MSigma"] = norm_l2

    rng = np.random.default_rng(seed)
    g_mask = rng.random((n, n)) < 0.25
    if not np.any(g_mask):
        g_mask[0, 0] = True
    g = GridSet2D(L, g_mask)
    h = GridSet2D(L, np.ones((n, n), dtype=bool))
    ratio = measure(g) / measure(h)
    h_prime, c_used = directional_level_complement(
        h, g, averager, math.sqrt(ratio) * norm_l2
    )
    report.extra["h_kept"] = safe_ratio(measure(h_prime), measure(h))
    report.extra["exceptional_c"] = c_used

    # the band-times-half-plane multipliers, member j * (L + 1) + k, run as
    # stacks through one fft2/ifft2 pair per apply; they are real, so the
    # adjoint multiplies by the same array
    bands = np.stack([band_window(L, k) for k in range(L + 1)])
    multipliers = np.concatenate([bands * halfplane_mask(L, v) for v in directions])

    def multiply(rows, x):
        spectra = np.fft.fft2(x)
        return _ifft2_into(np.multiply(spectra, multipliers[rows], out=spectra))

    seeds = [seed + 31 * j + k for j in range(len(directions)) for k in range(L + 1)]
    family = OperatorFamily(len(multipliers), multiply, multiply)
    results = top_singular(family, g.mask, h_prime.mask, seeds)
    norms = [res.norm for res in results]
    alpha = 0.25
    report.extra["localized_norm_max"] = max(norms, default=0.0)
    report.extra["localized_unconverged"] = sum(not res.converged for res in results)
    report.extra["condition_constant"] = safe_ratio(max(norms, default=0.0), ratio**alpha)
    report.extra["measure_ratio"] = ratio
    return report


def verify_weighted_directional(
    fams: list[Grid2D], averager: DirectionalAverager, p: float, seed: int = 0
) -> RatioReport:
    """Endpoint square-function bound through the weight route, over the
    averager's directions.

    At q = 2p' the dual extremal g of || sum |H_v f_j|^2 ||_{p'} seeds the
    majorant weight, whose series stops at its first certified tail after
    at most `WEIGHT_TERMS` terms (`weight["terms"]` says where); the
    per-direction weighted projection constants and the assembled chain are
    all reported, and the final ratio is normalized by the measured norm of
    the directional maximal operator to the power |1 - 2/q| = 1/p.
    """
    _check_exponent(p)
    q = 2.0 * p / (p - 1.0)
    L, stack_in, stack_out = _projection_stacks(fams, averager)
    lhs = bundle_norm(stack_out, q, L)
    norm_p = averager.estimate_norm(p, seed=seed)
    rhs = norm_p ** abs(1.0 - 2.0 / q) * bundle_norm(stack_in, q, L)
    report = RatioReport.from_sides(lhs, rhs, q=q, p=p, family_size=len(fams))
    report.extra["norm_MSigma"] = norm_p

    # dual extremal of ||F||_{p'} for F = sum |H_v f_j|^2, normalized in L^p
    big_f = np.sum(np.abs(stack_out) ** 2, axis=0)
    p_conj = p / (p - 1.0)
    f_norm = lp_norm(big_f, p_conj, L)
    if f_norm > 0:
        g_dual = (big_f / f_norm) ** (p_conj / p)
        g_dual = g_dual / max(lp_norm(g_dual, p, L), 1e-300)
    else:
        g_dual = np.ones_like(big_f)
        g_dual = g_dual / lp_norm(g_dual, p, L)

    g_weight = Grid2D(L, g_dual.astype(np.complex128))
    weight = build_majorant_weight(g_weight, averager, p, WEIGHT_TERMS, norm_p)
    report.extra["weight"] = weight.certificates
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
    report.extra["duality_pairing"] = pairing
    report.extra["weighted_pairing"] = pairing_w
    report.extra["per_direction_constants"] = per_direction
    report.extra["weighted_input"] = weighted_input
    report.extra["chain_constant"] = safe_ratio(
        pairing_w, max(per_direction, default=0.0) * weighted_input
    )
    return report
