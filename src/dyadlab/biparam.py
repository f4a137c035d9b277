"""Fixed-vertical-scale model operators on dyadic rectangles.

In the Walsh model the packet of a rectangle R = I x J carries the frequency
annulus pinned to its scale, i.e. the band [1/|I|, 2/|I|) in each variable;
that packet is exactly the tensor Haar wavelet of R.  The family over all
rectangles is then orthonormal, each fixed-vertical-scale operator is an
orthogonal projection (uniform L2 bound 1), and the rectangle combinatorics
at a fixed vertical scale is literally one-dimensional: rectangles are
ordered by inclusion inside vertical strips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DyadicInterval
from .maximal import next_class
from .plane import (
    DyadicRectangle,
    Grid2D,
    GridSet2D,
    array_norm2d,
    cell_area,
    certified_rectangle_threshold,
    exceptional_complement_2d,
    measure2,
    norm2d,
)
from .principle import power_iteration
from .reports import RatioReport, safe_ratio
from .walsh import walsh_analysis, walsh_synthesis


def _block_sums(values: np.ndarray, scale: int, axis: int) -> np.ndarray:
    """Sums of cell values over dyadic blocks at the scale, along one axis."""
    v = np.moveaxis(np.asarray(values), axis, 0)
    n = v.shape[0]
    v = v.reshape(1 << scale, n >> scale, *v.shape[1:]).sum(axis=1)
    return np.moveaxis(v, 0, axis)


def _haar_details(values: np.ndarray, scale: int, axis: int) -> np.ndarray:
    """<., haar at scale> along one axis, up to the global cell weight:
    2**(k/2) (left-half sum - right-half sum) per block."""
    child = _block_sums(values, scale + 1, axis)
    child = np.moveaxis(child, axis, 0)
    out = (child[0::2] - child[1::2]) * 2.0 ** (scale / 2.0)
    return np.moveaxis(out, 0, axis)


def haar_coefficients(f: Grid2D, kx: int, ky: int) -> np.ndarray:
    """coef[nx, ny] = <f, haar_I x haar_J> over all rectangles at (kx, ky)."""
    L = f.resolution
    if not (0 <= kx < L and 0 <= ky < L):
        raise ValueError("haar scales must lie in [0, L)")
    out = _haar_details(_haar_details(f.values, kx, 0), ky, 1)
    return out * cell_area(L)


def _haar_sign_pattern(resolution: int, scale: int) -> np.ndarray:
    n = 1 << resolution
    half = n >> (scale + 1)
    pattern = np.tile(np.concatenate([np.ones(half), -np.ones(half)]), 1 << scale)
    return pattern


def haar_synthesis(coeffs: np.ndarray, resolution: int, kx: int, ky: int) -> np.ndarray:
    """sum over (nx, ny) of coeffs[nx, ny] times the tensor Haar packet."""
    L = resolution
    rx, ry = 1 << (L - kx), 1 << (L - ky)
    expanded = np.repeat(np.repeat(coeffs, rx, axis=0), ry, axis=1)
    sx = _haar_sign_pattern(L, kx)
    sy = _haar_sign_pattern(L, ky)
    return expanded * 2.0 ** ((kx + ky) / 2.0) * sx[:, None] * sy[None, :]


def tensor_packet(rect: DyadicRectangle, resolution: int) -> Grid2D:
    """Tensor Haar packet of one rectangle, unit L2 norm."""
    kx, ky = rect.horizontal.scale, rect.vertical.scale
    coeffs = np.zeros((1 << kx, 1 << ky), dtype=np.complex128)
    coeffs[rect.horizontal.offset, rect.vertical.offset] = 1.0
    return Grid2D(resolution, haar_synthesis(coeffs, resolution, kx, ky))


def fixed_scale_operator(f: Grid2D, j: int) -> Grid2D:
    """Model operator at frozen vertical side length 2**-j: the sum over all
    rectangles R = I x J with |J| = 2**-j of <f, packet_R> packet_R.

    With orthonormal tensor packets this is the orthogonal projection onto
    the vertical-scale-j packet span.
    """
    L = f.resolution
    if not 0 <= j < L:
        raise ValueError(f"vertical scale {j} out of range for resolution {L}")
    out = np.zeros_like(f.values)
    for kx in range(L):
        coef = haar_coefficients(f, kx, j)
        out += haar_synthesis(coef, L, kx, j)
    return Grid2D(L, out)


def vertical_band_project(f: Grid2D, band: int) -> Grid2D:
    """Restriction to one vertical Walsh-frequency band.

    Band 0 keeps only the zero vertical frequency; band b >= 1 keeps
    frequencies in [2**(b-1), 2**b).  The bands partition [0, 2**L), so they
    sum to the identity exactly.  Band b+1 matches the vertical-scale-b model
    operator: its packets have vertical spectrum exactly [2**b, 2**(b+1)).
    """
    L = f.resolution
    if not 0 <= band <= L:
        raise ValueError(f"band {band} out of range for resolution {L}")
    spectrum = walsh_analysis(f.values, axis=1)
    eta = np.arange(1 << L)
    keep = (eta == 0) if band == 0 else (eta >= 1 << (band - 1)) & (eta < 1 << band)
    spectrum[:, ~keep] = 0.0
    return Grid2D(L, walsh_synthesis(spectrum, axis=1) * 2.0**-L)


# ---------------------------------------------------------------------------
# rectangle collections at one vertical scale


@dataclass(frozen=True)
class RectCollection:
    """Rectangles sharing one vertical scale; ordered by inclusion within
    vertical strips, so trees are one-dimensional objects."""

    resolution: int
    vscale: int
    rects: frozenset[DyadicRectangle]

    def __post_init__(self):
        for r in self.rects:
            if r.vertical.scale != self.vscale:
                raise ValueError("all rectangles must share the vertical scale")
            if r.horizontal.scale >= self.resolution or self.vscale >= self.resolution:
                raise ValueError("rectangle scales must stay below the resolution")

    @classmethod
    def all_at_scale(cls, resolution: int, vscale: int) -> "RectCollection":
        rects = set()
        for kx in range(resolution):
            for nx in range(1 << kx):
                for ny in range(1 << vscale):
                    rects.add(
                        DyadicRectangle(DyadicInterval(kx, nx), DyadicInterval(vscale, ny))
                    )
        return cls(resolution, vscale, frozenset(rects))

    def __len__(self) -> int:
        return len(self.rects)

    def restrict_to_meeting(self, keep: GridSet2D) -> "RectCollection":
        kept = {
            r for r in self.rects if np.any(keep.mask[r.cell_slices(self.resolution)])
        }
        return RectCollection(self.resolution, self.vscale, frozenset(kept))

    def without(self, removed) -> "RectCollection":
        return RectCollection(self.resolution, self.vscale, self.rects - frozenset(removed))


def rect_is_convex(rects) -> bool:
    rects = set(rects)
    for a in rects:
        for b in rects:
            if b.contains(a) and a != b:
                for s in range(b.horizontal.scale, a.horizontal.scale + 1):
                    mid = DyadicRectangle(a.horizontal.ancestor(s), a.vertical)
                    if mid not in rects:
                        return False
    return True


@dataclass(frozen=True)
class RectTree:
    """Convex rectangles under one top, all at the top's vertical scale."""

    top: DyadicRectangle
    members: frozenset[DyadicRectangle]

    def __post_init__(self):
        for r in self.members:
            if not self.top.contains(r):
                raise ValueError(f"member {r} escapes the tree top")

    @property
    def top_area(self) -> float:
        return self.top.area


def rect_key(r: DyadicRectangle) -> tuple:
    return (r.horizontal.scale, r.horizontal.offset, r.vertical.offset)


def rect_coefficients(collection: RectCollection, f: Grid2D) -> dict[DyadicRectangle, complex]:
    out: dict[DyadicRectangle, complex] = {}
    by_kx: dict[int, list[DyadicRectangle]] = {}
    for r in collection.rects:
        by_kx.setdefault(r.horizontal.scale, []).append(r)
    for kx, rects in sorted(by_kx.items()):
        coef = haar_coefficients(f, kx, collection.vscale)
        for r in rects:
            out[r] = complex(coef[r.horizontal.offset, r.vertical.offset])
    return out


def rect_size(collection: RectCollection, f: Grid2D, h_prime: GridSet2D) -> float:
    """Largest normalized l2 coefficient mass of f 1_{H'} over trees."""
    masked = Grid2D(f.resolution, f.values * h_prime.mask)
    coeffs = rect_coefficients(collection, masked)
    best = 0.0
    for top, total in _rect_top_sums(coeffs).items():
        best = max(best, total / top.area)
    return math.sqrt(best)


def _rect_top_sums(coeffs) -> dict[DyadicRectangle, float]:
    sums: dict[DyadicRectangle, float] = {}
    for r, c in coeffs.items():
        w = abs(c) ** 2
        for s in range(r.horizontal.scale + 1):
            top = DyadicRectangle(r.horizontal.ancestor(s), r.vertical)
            sums[top] = sums.get(top, 0.0) + w
    return sums


def rect_mass(collection: RectCollection, f_set: GridSet2D, g_set: GridSet2D) -> float:
    """max over members of |F ∩ G ∩ R| / |R|."""
    target = f_set.mask & g_set.mask
    area = cell_area(collection.resolution)
    best = 0.0
    for r in collection.rects:
        count = int(np.count_nonzero(target[r.cell_slices(collection.resolution)]))
        best = max(best, count * area / r.area)
    return best


@dataclass
class RectDecomposition:
    buckets: dict[tuple[int, int], list[RectTree]]
    remainder: RectCollection
    count_ratios: dict[tuple[int, int], float]
    caps: dict[tuple[int, int], tuple[float, float]]


def rect_size_decompose(collection, coeffs, threshold):
    """Remove per-strip trees until no top exceeds the size threshold."""
    current = set(collection.rects)
    forest: list[RectTree] = []
    while True:
        sums = _rect_top_sums({r: coeffs[r] for r in current})
        selection = None
        for top in sorted(sums, key=rect_key):
            if sums[top] > threshold**2 * top.area:
                selection = top
                break
        if selection is None:
            break
        removed = {r for r in current if selection.contains(r)}
        current -= removed
        forest.append(RectTree(selection, frozenset(removed)))
    return collection.without(collection.rects - current), forest


def rect_mass_decompose(collection, f_set, g_set, threshold):
    """Remove down-sets under mass-heavy rectangles; tops end up pairwise
    incomparable, giving the exact counting bound sum |R_T| <= |F∩G|/thr."""
    target = f_set.mask & g_set.mask
    area = cell_area(collection.resolution)
    current = set(collection.rects)
    dens = {
        r: int(np.count_nonzero(target[r.cell_slices(collection.resolution)]))
        * area
        / r.area
        for r in current
    }
    forest: list[RectTree] = []
    heavy = sorted((r for r in current if dens[r] > threshold), key=rect_key)
    for top in heavy:
        if top not in current:
            continue
        removed = {r for r in current if top.contains(r)}
        current -= removed
        forest.append(RectTree(top, frozenset(removed)))
    return collection.without(collection.rects - current), forest


def rect_full_decompose(
    collection: RectCollection,
    f: Grid2D,
    h_prime: GridSet2D,
    f_set: GridSet2D,
    g_set: GridSet2D,
) -> RectDecomposition:
    """Iterate size and mass halvings into (n, m) buckets with certified caps."""
    masked = Grid2D(f.resolution, f.values * h_prime.mask)
    current = collection
    coeffs = rect_coefficients(collection, masked)
    norm_sq = norm2d(masked, 2.0) ** 2
    fg_measure = measure2(GridSet2D(f.resolution, f_set.mask & g_set.mask))
    buckets: dict[tuple[int, int], list[RectTree]] = {}
    ratios: dict[tuple[int, int], float] = {}
    caps: dict[tuple[int, int], tuple[float, float]] = {}
    n_prev: int | None = None
    m_prev: int | None = None
    while len(current):
        sigma = rect_size(current, f, h_prime)
        mu = rect_mass(current, f_set, g_set)
        if sigma == 0.0 and mu == 0.0:
            break
        n, m = next_class(sigma, n_prev), next_class(mu, m_prev)
        trees: list[RectTree] = []
        if sigma > 0:
            current, forest = rect_size_decompose(current, coeffs, 2.0 ** -(n + 1))
            trees.extend(forest)
        if mu > 0:
            current, forest = rect_mass_decompose(current, f_set, g_set, 2.0 ** -(m + 1))
            trees.extend(forest)
        tops_area = sum(t.top_area for t in trees)
        cap = min(2.0 ** (2 * n) * norm_sq, 2.0**m * fg_measure)
        buckets[(n, m)] = trees
        ratios[(n, m)] = tops_area / cap if cap > 0 else math.inf
        caps[(n, m)] = (2.0**-n, 2.0**-m)
        n_prev, m_prev = n, m
    return RectDecomposition(buckets, current, ratios, caps)


def rect_tree_estimate(
    tree: RectTree,
    f: Grid2D,
    g: Grid2D,
    h_prime: GridSet2D,
    g_set: GridSet2D,
) -> RatioReport:
    """Single rectangle-tree estimate: coefficient pairing against
    |R_T| size(T) mass(T), with the dual set F read off the support of g."""
    L = f.resolution
    collection = RectCollection(L, tree.top.vertical.scale, frozenset(tree.members))
    masked_f = Grid2D(L, f.values * h_prime.mask)
    masked_g = Grid2D(L, g.values * g_set.mask)
    coeffs_f = rect_coefficients(collection, masked_f)
    coeffs_g = rect_coefficients(collection, masked_g)
    lhs = sum(abs(coeffs_f[r]) * abs(coeffs_g[r]) for r in tree.members)
    f_support = GridSet2D(L, np.abs(g.values) > 0)
    t_size = rect_size(collection, f, h_prime)
    t_mass = rect_mass(collection, f_support, g_set)
    rhs = tree.top_area * t_size * t_mass
    return RatioReport.from_sides(lhs, rhs, size=t_size, mass=t_mass, top_area=tree.top_area)


# ---------------------------------------------------------------------------
# the full pipeline


def _interp_theta(p: float, q: float) -> float:
    """theta solving 1/2 = theta/p + (1-theta)/q."""
    if p == q:
        raise ValueError("interpolation needs distinct exponents")
    return (0.5 - 1.0 / q) / (1.0 / p - 1.0 / q)


def verify_biparam(
    fams: list[Grid2D],
    p: float,
    eps: float = 0.1,
    q_low: float = 1.5,
    seed: int = 0,
    h: GridSet2D | None = None,
    g: GridSet2D | None = None,
    e_set: GridSet2D | None = None,
    f_set: GridSet2D | None = None,
    power_iters: int = 120,
    scales: list[int] | None = None,
) -> RatioReport:
    """Run the whole fixed-vertical-scale pipeline and report every measured
    quantity.

    Steps: the vector inequality for the model operators; the exceptional set
    at the certified threshold (so the mass cap holds on every trial by
    construction); the restricted pairing sums against both target exponents;
    the log-convexity interpolation of the measured restricted constants; the
    localized-operator norms against the two-set condition; and the band
    reduction back to the scalar model sum.
    """
    if not 2 < p < math.inf:
        raise ValueError(f"p must lie in (2, inf), got {p}")
    if not fams:
        raise ValueError("need at least one family member")
    L = fams[0].resolution
    n = 1 << L
    rng = np.random.default_rng(seed)

    def random_set(frac):
        return GridSet2D(L, rng.random((n, n)) < frac)

    h = h if h is not None else GridSet2D(L, np.ones((n, n), dtype=bool))
    g = g if g is not None else random_set(0.25)
    if measure2(g) == 0.0 or measure2(h) == 0.0:
        raise ValueError("sets h and g need positive measure")
    e_set = e_set if e_set is not None else random_set(0.4)
    f_set = f_set if f_set is not None else random_set(0.4)

    # vector inequality (members cycle through the available vertical scales
    # unless an explicit scale assignment is supplied)
    if scales is None:
        scales = [j % L for j in range(len(fams))]
    if len(scales) != len(fams) or any(not 0 <= j < L for j in scales):
        raise ValueError("scale assignment must give each member a scale below L")
    stack_in = np.stack([fams[j].values for j in range(len(fams))])
    stack_out = np.stack(
        [fixed_scale_operator(fams[j], scales[j]).values for j in range(len(fams))]
    )
    lhs = array_norm2d(np.sqrt(np.sum(np.abs(stack_out) ** 2, axis=0)), p, L)
    rhs = array_norm2d(np.sqrt(np.sum(np.abs(stack_in) ** 2, axis=0)), p, L)
    report = RatioReport.from_sides(lhs, rhs, family_size=len(fams), p=p, eps=eps)

    # exceptional set with the per-instance certified threshold
    ratio = measure2(g) / measure2(h)
    threshold = certified_rectangle_threshold(h, g, eps)
    c_eps = threshold / ratio ** (1.0 - eps)
    h_prime = exceptional_complement_2d(h, g, threshold)
    report.extra["c_eps"] = c_eps
    report.extra["mass_threshold"] = threshold
    report.extra["h_kept"] = safe_ratio(measure2(h_prime), measure2(h))

    # surviving collections: mass cap holds by construction
    mass_caps = []
    restricted_ratios_p = []
    restricted_ratios_q = []
    norm_constants = []
    e_measure, f_measure = measure2(e_set), measure2(f_set)
    f_ind = Grid2D(L, e_set.mask.astype(np.complex128))
    g_ind = Grid2D(L, f_set.mask.astype(np.complex128))
    p_conj = p / (p - 1.0)
    q_conj = q_low / (q_low - 1.0)
    for j in sorted(set(scales)):
        collection = RectCollection.all_at_scale(L, j).restrict_to_meeting(h_prime)
        if not len(collection):
            continue
        mass_j = rect_mass(collection, f_set, g)
        mass_caps.append(safe_ratio(mass_j, threshold))
        coeffs_f = rect_coefficients(collection, Grid2D(L, f_ind.values * h_prime.mask))
        coeffs_g = rect_coefficients(collection, Grid2D(L, g_ind.values * g.mask))
        pairing = sum(abs(coeffs_f[r]) * abs(coeffs_g[r]) for r in collection.rects)
        rhs_p = ratio ** ((1.0 - eps) / p) * e_measure ** (1.0 / p) * f_measure ** (1.0 / p_conj)
        rhs_q = e_measure ** (1.0 / q_low) * f_measure ** (1.0 / q_conj)
        restricted_ratios_p.append(safe_ratio(pairing, rhs_p))
        restricted_ratios_q.append(safe_ratio(pairing, rhs_q))

        def fwd(v, jj=j):
            masked = Grid2D(L, np.asarray(v).reshape(n, n) * h_prime.mask)
            return fixed_scale_operator(masked, jj).values * g.mask

        def adj(v, jj=j):
            masked = Grid2D(L, np.asarray(v).reshape(n, n) * g.mask)
            return fixed_scale_operator(masked, jj).values * h_prime.mask

        res = power_iteration(fwd, adj, (n, n), iters=power_iters, seed=seed + j)
        norm_constants.append(res.norm**2 / ratio ** (1.0 - 2.0 / p))
        report.extra.setdefault("localized_norms", []).append(res.norm)

    report.extra["mass_cap_ratios"] = mass_caps
    report.extra["restricted_ratio_p"] = max(restricted_ratios_p, default=0.0)
    report.extra["restricted_ratio_q"] = max(restricted_ratios_q, default=0.0)
    report.extra["condition_constant"] = max(norm_constants, default=0.0)

    theta = _interp_theta(p, q_low)
    report.extra["interp_theta"] = theta
    report.extra["interp_exponent"] = (1.0 - eps) * theta / p
    c15 = max(restricted_ratios_p, default=0.0)
    c16 = max(restricted_ratios_q, default=0.0)
    report.extra["interp_constant"] = c15**theta * c16 ** (1.0 - theta) if c15 and c16 else 0.0

    # band reduction: the scalar model sum applied through band restrictions
    f0 = fams[0]
    total = np.zeros_like(f0.values)
    total_banded = np.zeros_like(f0.values)
    for j in range(L):
        total += fixed_scale_operator(f0, j).values
        total_banded += fixed_scale_operator(vertical_band_project(f0, j + 1), j).values
    report.extra["band_reduction_gap"] = float(np.max(np.abs(total - total_banded)))
    report.extra["scalar_model_ratio"] = safe_ratio(
        array_norm2d(total, p, L), norm2d(f0, p)
    )
    return report
