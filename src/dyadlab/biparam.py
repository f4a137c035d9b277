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

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import DyadicInterval, Grid2D, GridSet2D, bundle_norm, cell_width, check_exponent, check_positive_measure, check_same_grid, conjugate_exponent, lp_norm, measure
from .maximal import Decomposition, bucket_decompose, slot_scales
from .plane import (
    DyadicRectangle,
    certified_rectangle_threshold,
    exceptional_complement_2d,
    rectangle_averages,
)
from .principle import OperatorFamily, condition_constant, top_singular
from .reports import ratio_report, safe_ratio


def _haar_half_signs(length: int) -> np.ndarray:
    """+1 on the left half of a block, -1 on the right; int8, and the cast
    to complex is exact."""
    half = length >> 1
    return np.repeat(np.array([1, -1], dtype=np.int8), half)


def _check_scales(resolution: int, *scales: int) -> None:
    if not all(0 <= s < resolution for s in scales):
        raise ValueError(f"scales {scales} out of range for resolution {resolution}")


def haar_coefficients(f: Grid2D, kx: int, ky: int) -> np.ndarray:
    """coef[nx, ny] = <f, haar_I x haar_J> over all rectangles at (kx, ky).

    Sums dyadic blocks along the rows and then along a transposed view of
    the columns, the same strided views and reductions as moving the axis
    to the front, so the coefficients are those of the axis-by-axis formula
    bit for bit."""
    L = f.resolution
    _check_scales(L, kx, ky)
    n = 1 << L
    rows = f.values.reshape(2 << kx, n >> (kx + 1), n).sum(axis=1)
    rows = (rows[0::2] - rows[1::2]) * 2.0 ** (kx / 2.0)
    cols = rows.T.reshape(2 << ky, n >> (ky + 1), 1 << kx).sum(axis=1)
    cols = (cols[0::2] - cols[1::2]) * 2.0 ** (ky / 2.0)
    return cols.T * cell_width(L) ** 2


def fixed_scale_operator(f: Grid2D, j: int) -> Grid2D:
    """Model operator at frozen vertical side length 2**-j: the sum over all
    rectangles R = I x J with |J| = 2**-j of <f, packet_R> packet_R.

    With orthonormal tensor packets this is the orthogonal projection onto
    the vertical-scale-j packet span.
    """
    _check_scales(f.resolution, j)
    return Grid2D(f.resolution, _fixed_scale_project(f.values, j))


def _vertical_difference(values: np.ndarray, j: int) -> np.ndarray:
    """d with (E_{j+1} - E_j) values = +d on the lower half of each vertical
    interval of length 2**-j and -d on its upper half, shaped (2**L, 2**j):
    E_s is the average along y (axis 1) over dyadic intervals of length
    2**-s, and the difference of a half's average from its parent's is half
    the difference of the two halves' averages."""
    n = values.shape[0]
    half = n >> (j + 1)
    sums = values.reshape(n, 2 << j, half).sum(axis=2)
    return (sums[:, 0::2] - sums[:, 1::2]) / (2 * half)


def _write_halves(d: np.ndarray) -> np.ndarray:
    """The (2**L, 2**L) grid holding +d[x, ny] on the lower half of the
    vertical interval ny and -d[x, ny] on its upper half."""
    n, strips = d.shape
    return (d[:, :, None, None] * _haar_half_signs(n // strips).reshape(2, -1)).reshape(n, n)


def _fixed_scale_project(values: np.ndarray, j: int) -> np.ndarray:
    """The vertical-scale-j model operator in closed form,
    (I - E_0) (x) (E_{j+1} - E_j): the Haar functions of every horizontal
    scale span the mean-zero functions along x, and those of vertical scale
    j span the range of E_{j+1} - E_j along y (F. Schipp, W. R. Wade and
    P. Simon, *Walsh Series*, 1990)."""
    d = _vertical_difference(values, j)
    return _write_halves(d - d.mean(axis=0))


def vertical_band_project(f: Grid2D, band: int) -> Grid2D:
    """Restriction to one vertical Walsh-frequency band.

    Band 0 keeps only the zero vertical frequency; band b >= 1 keeps
    frequencies in [2**(b-1), 2**b).  The bands partition [0, 2**L), so they
    sum to the identity exactly.  Band b+1 matches the vertical-scale-b model
    operator: its packets have vertical spectrum exactly [2**b, 2**(b+1)).
    The Walsh-Paley functions below 2**b span the functions constant on the
    vertical intervals of length 2**-b, so band 0 is E_0 and band b >= 1 is
    E_b - E_{b-1}, in the closed form of `_vertical_difference`.
    """
    L = f.resolution
    if not 0 <= band <= L:
        raise ValueError(f"band {band} out of range for resolution {L}")
    if band == 0:
        return Grid2D(L, np.repeat(f.values.mean(axis=1, keepdims=True), 1 << L, axis=1))
    return Grid2D(L, _write_halves(_vertical_difference(f.values, band - 1)))


# ---------------------------------------------------------------------------
# rectangle collections at one vertical scale


@dataclass(frozen=True, eq=False)
class RectCollection:
    """Rectangles sharing one vertical scale; ordered by inclusion within
    vertical strips, so trees are one-dimensional objects.

    The members are stored only as one read-only boolean array `occupied`,
    shaped (2**L - 1, 2**vscale): the rectangle (kx, nx, ny) sits at
    [2**kx - 1 + nx, ny], the `all_intervals` slot of its horizontal
    interval. Ascending positions are (kx, nx, ny) order, and the children of
    row s are rows 2s+1 and 2s+2.
    """

    resolution: int
    vscale: int
    occupied: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_scales(self.resolution, self.vscale)
        occupied, shape = np.array(self.occupied, dtype=bool), _shape(self.resolution, self.vscale)
        if occupied.shape != shape:
            raise ValueError(f"expected rectangle occupancy shaped {shape}")
        occupied.setflags(write=False)
        object.__setattr__(self, "occupied", occupied)

    @classmethod
    def from_rects(cls, resolution: int, vscale: int, rects) -> "RectCollection":
        _check_scales(resolution, vscale)
        occupied = np.zeros(_shape(resolution, vscale), dtype=bool)
        for r in rects:
            if r.vertical.scale != vscale or r.horizontal.scale >= resolution:
                raise ValueError(f"{r} does not fit vertical scale {vscale} below L={resolution}")
            occupied[_row(r.horizontal.scale, r.horizontal.offset), r.vertical.offset] = True
        return cls(resolution, vscale, occupied)

    @classmethod
    @functools.lru_cache(maxsize=32)
    def all_at_scale(cls, resolution: int, vscale: int) -> "RectCollection":
        """Every rectangle at the vertical scale; the collection is immutable,
        so one build per (resolution, vscale) is shared with its `.rects`."""
        return cls(resolution, vscale, np.ones(_shape(resolution, vscale), dtype=bool))

    @functools.cached_property
    def rects(self) -> frozenset[DyadicRectangle]:
        """The members as rectangle objects, built as the insertion loop did:
        a set filled in ascending (kx, nx, ny) order, then frozen. A frozenset
        filled straight from the generator iterates in another order for about
        half of all (L, vscale); code drawing one random number per member in
        `.rects` order depends on this one."""
        return frozenset({_rect(row, ny, self.vscale) for row, ny in np.argwhere(self.occupied).tolist()})

    def __len__(self) -> int:
        return int(np.count_nonzero(self.occupied))

    def restrict_to_meeting(self, keep: GridSet2D) -> "RectCollection":
        return replace(self, occupied=self.occupied & (_averages(self, keep.mask) > 0))


def _shape(resolution: int, vscale: int) -> tuple[int, int]:
    """One row per horizontal interval above the cells, one column per strip."""
    return (1 << resolution) - 1, 1 << vscale


def _row(kx: int, nx: int) -> int:
    """Row of the horizontal interval (kx, nx): its `all_intervals` slot."""
    return (1 << kx) - 1 + nx


def _rect(row: int, ny: int, vscale: int) -> DyadicRectangle:
    """The rectangle at [row, ny], inverting `_row`."""
    kx = (row + 1).bit_length() - 1
    return DyadicRectangle(DyadicInterval(kx, row - _row(kx, 0)), DyadicInterval(vscale, ny))


def _subtree(row: int, rows: int):
    """Row slices under `row`, its own first and one per finer scale: the
    children of rows [lo, hi) are rows [2 lo + 1, 2 hi + 1)."""
    lo, hi = row, row + 1
    while lo < rows:
        yield slice(lo, hi)
        lo, hi = 2 * lo + 1, 2 * hi + 1


def _averages(collection: RectCollection, mask: np.ndarray) -> np.ndarray:
    """Average of a cell mask over every rectangle at the collection's
    vertical scale, in its layout; each is an exact count * 2**(kx + vscale - 2L)."""
    L, j = collection.resolution, collection.vscale
    return np.concatenate([rectangle_averages(mask, L, kx, j) for kx in range(L)])


@dataclass(frozen=True, eq=False)
class RectTree:
    """Convex rectangles under one top, all at the top's vertical scale; the
    members are a `RectCollection`."""

    top: DyadicRectangle
    members: RectCollection

    def __post_init__(self):
        c, top = self.members, self.top
        j, ny = top.vertical.scale, top.vertical.offset
        if c.vscale != j:
            raise ValueError(f"members at vertical scale {c.vscale} under a top at vertical scale {j}")
        outside = c.occupied.copy()
        for rows in _subtree(_row(top.horizontal.scale, top.horizontal.offset), len(outside)):
            outside[rows, ny] = False
        if outside.any():
            r = _rect(*np.argwhere(outside)[0].tolist(), c.vscale)
            raise ValueError(f"member {r} escapes the tree top")

    @property
    def top_measure(self) -> float:
        return self.top.area


def rect_coefficients(collection: RectCollection, f: Grid2D) -> np.ndarray:
    """<f, packet_R> at every member R, in the collection's layout, and zero
    off the members."""
    j = collection.vscale
    coeffs = np.concatenate([haar_coefficients(f, kx, j) for kx in range(collection.resolution)])
    return coeffs * collection.occupied


def _tree_sums(collection: RectCollection, occupied: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """W[s, ny] / |R|, the squared size of the strip tree under the rectangle
    R at [s, ny]: W sums |c|**2 over the members of `occupied` below R, by
    one fine-to-coarse sweep over the scales W[s] = w[s] + W[2s+1] + W[2s+2].
    Dividing by |R| is exact, so comparing with t**2 is comparing W with
    t**2 |R|."""
    sums = np.where(occupied, np.abs(coeffs) ** 2, 0.0)
    for rows in reversed(list(_subtree(0, len(sums) // 2))):
        lo, hi = rows.start, rows.stop
        sums[rows] = sums[rows] + sums[2 * lo + 1 : 2 * hi : 2] + sums[2 * lo + 2 : 2 * hi + 1 : 2]
    return sums * np.ldexp(1.0, slot_scales(collection.resolution - 1)[:, None] + collection.vscale)


def _size_of(collection: RectCollection, coeffs) -> float:
    return math.sqrt(float(_tree_sums(collection, collection.occupied, coeffs).max()))


def rect_size(collection: RectCollection, f: Grid2D, h_prime: GridSet2D) -> float:
    """Largest normalized l2 coefficient mass of f 1_{H'} over trees."""
    masked = Grid2D(f.resolution, f.values * h_prime.mask)
    return _size_of(collection, rect_coefficients(collection, masked))


def rect_mass(collection: RectCollection, f_set: GridSet2D, g_set: GridSet2D) -> float:
    """max over members of |F ∩ G ∩ R| / |R|."""
    dens = _averages(collection, f_set.mask & g_set.mask)
    return float(dens[collection.occupied].max(initial=0.0))


def _pairing(occupied, coeffs_f, coeffs_g) -> float:
    """sum over members R of |<f, packet_R>| |<g, packet_R>|, added in
    ascending (kx, nx, ny) order."""
    return sum((np.abs(coeffs_f[occupied]) * np.abs(coeffs_g[occupied])).tolist())


def _take_tree(collection: RectCollection, occupied: np.ndarray, row: int, ny: int) -> RectTree:
    """Clear from `occupied`, a working copy of the collection's occupancy,
    and return as a tree under the top at [row, ny], every member inside the
    top: the rows under `row` in the one column ny."""
    taken = np.zeros_like(occupied)
    for rows in _subtree(row, len(occupied)):
        taken[rows, ny] = occupied[rows, ny]
        occupied[rows, ny] = False
    return RectTree(_rect(row, ny, collection.vscale), replace(collection, occupied=taken))


def rect_size_decompose(collection, coeffs, threshold):
    """Remove per-strip trees until no top exceeds the size threshold; the
    top taken first is the least (kx, nx, ny) above it."""
    occupied = collection.occupied.copy()
    forest: list[RectTree] = []
    while len(tops := np.argwhere(_tree_sums(collection, occupied, coeffs) > threshold**2)):
        forest.append(_take_tree(collection, occupied, *tops[0].tolist()))
    return replace(collection, occupied=occupied), forest


def rect_mass_decompose(collection, f_set, g_set, threshold):
    """Remove down-sets under mass-heavy rectangles; tops end up pairwise
    incomparable, giving the exact counting bound sum |R_T| <= |F∩G|/thr."""
    occupied = collection.occupied.copy()
    heavy = occupied & (_averages(collection, f_set.mask & g_set.mask) > threshold)
    forest: list[RectTree] = []
    # coarse scales first: a heavy member below an earlier top is gone
    for row, ny in np.argwhere(heavy).tolist():
        if occupied[row, ny]:
            forest.append(_take_tree(collection, occupied, row, ny))
    return replace(collection, occupied=occupied), forest


def rect_full_decompose(
    collection: RectCollection,
    f: Grid2D,
    h_prime: GridSet2D,
    f_set: GridSet2D,
    g_set: GridSet2D,
) -> Decomposition:
    """Iterate size and mass halvings into (n, m) buckets with certified caps,
    by `bucket_decompose` on f 1_{H'} with the mass set F ∩ G."""
    masked = Grid2D(f.resolution, f.values * h_prime.mask)
    coeffs = rect_coefficients(collection, masked)
    return bucket_decompose(
        collection,
        masked,
        f_set & g_set,
        size=lambda c: _size_of(c, coeffs),
        mass=lambda c: rect_mass(c, f_set, g_set),
        split_size=lambda c, thr: rect_size_decompose(c, coeffs, thr),
        split_mass=lambda c, thr: rect_mass_decompose(c, f_set, g_set, thr),
    )


def rect_tree_estimate(
    tree: RectTree,
    f: Grid2D,
    g: Grid2D,
    h_prime: GridSet2D,
    g_set: GridSet2D,
) -> dict:
    """Single rectangle-tree estimate: coefficient pairing against
    |R_T| size(T) mass(T), with the dual set F read off the support of g."""
    L, collection = f.resolution, tree.members
    coeffs_f = rect_coefficients(collection, Grid2D(L, f.values * h_prime.mask))
    coeffs_g = rect_coefficients(collection, Grid2D(L, g.values * g_set.mask))
    lhs = _pairing(collection.occupied, coeffs_f, coeffs_g)
    t_size = _size_of(collection, coeffs_f)
    t_mass = rect_mass(collection, GridSet2D(L, np.abs(g.values) > 0), g_set)
    rhs = tree.top_measure * t_size * t_mass
    return ratio_report(lhs, rhs, size=t_size, mass=t_mass, top_area=tree.top_measure)


# ---------------------------------------------------------------------------
# the full pipeline

# the lower target exponent of the restricted pairing, interpolated against p
Q_LOW = 1.5

def _interp_theta(p: float, q: float) -> float:
    """theta solving 1/2 = theta/p + (1-theta)/q."""
    if p == q:
        raise ValueError("interpolation needs distinct exponents")
    return (0.5 - 1.0 / q) / (1.0 / p - 1.0 / q)


def verify_biparam(
    fams: list[Grid2D],
    p: float,
    g: GridSet2D,
    eps: float,
    seed: int = 0,
    scales: list[int] | None = None,
) -> dict:
    """Run the whole fixed-vertical-scale pipeline and report every measured
    quantity.

    Steps: the vector inequality for the model operators; the exceptional set
    at the certified threshold (so the mass cap holds on every trial by
    construction); the restricted pairing sums of random sets E and F, each
    holding a cell with probability 0.4, against both target exponents p and
    `Q_LOW`; the log-convexity interpolation of the measured restricted
    constants; the localized-operator norms against the two-set condition
    (`top_singular` runs at the engine's step cap, with
    `localized_unconverged` counting those that hit it); and the band
    reduction back to the scalar model sum.  H is the whole square and G
    the given set.  The lowest p and resolution are those of the `biparam`
    row of `harness.THEOREMS`.
    """
    from .harness import THEOREMS

    row = THEOREMS["biparam"]
    check_exponent(p, above=row.p_above)
    if not fams:
        raise ValueError("need at least one family member")
    L = check_same_grid(*fams, g=g)
    if L < row.min_resolution:
        raise ValueError(f"biparam needs resolution L >= {row.min_resolution}, got {L}")
    n = 1 << L
    rng = np.random.default_rng(seed)

    def random_set(frac):
        return GridSet2D(L, rng.random((n, n)) < frac)

    h = GridSet2D.full(L)
    check_positive_measure(g=g)
    e_set, f_set = random_set(0.4), random_set(0.4)

    # vector inequality (members cycle through the available vertical scales
    # unless an explicit scale assignment is supplied)
    if scales is None:
        scales = [j % L for j in range(len(fams))]
    if len(scales) != len(fams) or any(not 0 <= j < L for j in scales):
        raise ValueError("scale assignment must give each member a scale below L")
    stack_in = np.stack([f.values for f in fams])
    stack_out = np.stack([fixed_scale_operator(f, j).values for f, j in zip(fams, scales)])
    lhs = bundle_norm(stack_out, p, L)
    rhs = bundle_norm(stack_in, p, L)
    report = ratio_report(lhs, rhs, family_size=len(fams), p=p, eps=eps)

    # exceptional set with the per-instance certified threshold
    ratio = measure(g) / measure(h)
    threshold = certified_rectangle_threshold(h, g, eps)
    h_prime = exceptional_complement_2d(h, g, threshold)
    report["c_eps"] = threshold / ratio ** (1.0 - eps)
    report["mass_threshold"] = threshold
    report["h_kept"] = safe_ratio(measure(h_prime), measure(h))

    # surviving collections: mass cap holds by construction
    mass_caps, restricted_ratios_p, restricted_ratios_q = [], [], []
    e_measure, f_measure = measure(e_set), measure(f_set)
    p_conj, q_conj = conjugate_exponent(p), conjugate_exponent(Q_LOW)
    rhs_p = ratio ** ((1.0 - eps) / p) * e_measure ** (1.0 / p) * f_measure ** (1.0 / p_conj)
    rhs_q = e_measure ** (1.0 / Q_LOW) * f_measure ** (1.0 / q_conj)
    measured = []
    for j in sorted(set(scales)):
        collection = RectCollection.all_at_scale(L, j).restrict_to_meeting(h_prime)
        if not len(collection):
            continue
        measured.append(j)
        mass_caps.append(safe_ratio(rect_mass(collection, f_set, g), threshold))
        coeffs_f = rect_coefficients(collection, Grid2D(L, e_set.mask & h_prime.mask))
        coeffs_g = rect_coefficients(collection, Grid2D(L, f_set.mask & g.mask))
        pairing = _pairing(collection.occupied, coeffs_f, coeffs_g)
        restricted_ratios_p.append(safe_ratio(pairing, rhs_p))
        restricted_ratios_q.append(safe_ratio(pairing, rhs_q))

    # the fixed-scale operators are orthogonal projections, so self-adjoint;
    # the measured scales run as one stack, each slab through its own scale's
    # closed form
    projects = [functools.partial(_fixed_scale_project, j=j) for j in measured]
    family = OperatorFamily.of(projects, projects)
    results = top_singular(family, g.mask, h_prime.mask, [seed + j for j in measured])
    norms = [res.norm for res in results]
    report["localized_norms"] = norms
    report["localized_unconverged"] = sum(not res.converged for res in results)
    report["mass_cap_ratios"] = mass_caps
    c15 = report["restricted_ratio_p"] = max(restricted_ratios_p, default=0.0)
    c16 = report["restricted_ratio_q"] = max(restricted_ratios_q, default=0.0)
    report["condition_constant"] = condition_constant(norms, ratio, p)

    theta = _interp_theta(p, Q_LOW)
    report["interp_theta"] = theta
    report["interp_exponent"] = (1.0 - eps) * theta / p
    report["interp_constant"] = c15**theta * c16 ** (1.0 - theta) if c15 and c16 else 0.0

    # band reduction: the scalar model sum applied through band restrictions
    f0 = fams[0]
    total = np.zeros_like(f0.values)
    total_banded = np.zeros_like(f0.values)
    for j in range(L):
        total += fixed_scale_operator(f0, j).values
        total_banded += fixed_scale_operator(vertical_band_project(f0, j + 1), j).values
    report["band_reduction_gap"] = float(np.max(np.abs(total - total_banded)))
    report["scalar_model_ratio"] = safe_ratio(
        lp_norm(total, p, L), lp_norm(f0.values, p, L)
    )
    return report
