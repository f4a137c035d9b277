"""Experiment configuration, deterministic orchestration, and report files.

All randomness descends from the manifest seed through spawned counter-based
(Philox) generators, one per trial, so every reported number is reproducible
bit for bit from the configuration alone.  Wall-clock timings live only in
the manifest, never in the report, which keeps report files byte-identical
across replays.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import __version__
from .grid import MAX_RESOLUTION, Grid2D, GridSet, GridSet2D, GridSignal, VectorSignal, check_resolution, lp_norm
from .maximal import CARVING, ScaleChoice, verify_vector_maximal
from .reports import PrincipleReport
from .tiles import BiTile, ChoiceFunction, Tile, TileCollection, full_decompose, member_indices, walsh_packet
from .walsh import walsh_synthesis

if TYPE_CHECKING:
    from .principle import OperatorFamily

# bumped whenever any CSV column layout changes; recorded in every manifest
CSV_SCHEMA = 1


@dataclass
class ExperimentConfig:
    theorem: str
    resolution: int = 6
    trials: int = 10
    seed: int = 0
    family_size: int = 4
    p: float | None = None
    q: float | None = None
    eps: float | None = None
    p1: float | None = None
    out: str | None = None

    def __post_init__(self):
        # a parameter the theorem reads and that is left out takes its
        # default, so the manifest records numbers; one it does not read
        # stays None, and validate rejects it when given
        defaults = THEOREMS[self.theorem].defaults if self.theorem in THEOREMS else {}
        for name, value in defaults.items():
            if getattr(self, name) is None:
                setattr(self, name, value)
        if "p1" in defaults and self.p1 is None:
            self.p1 = 2.0 * self.q - self.p

    def validate(self) -> None:
        """Total validation; every rejection names the violated range."""
        if self.theorem not in THEOREMS:
            raise ValueError(f"theorem must be one of {tuple(THEOREMS)}, got {self.theorem!r}")
        row = THEOREMS[self.theorem]
        for name, flag in (("q", "--q"), ("p1", "--p1"), ("eps", "--epsilon")):
            if name not in row.defaults and getattr(self, name) is not None:
                raise ValueError(f"{self.theorem} reads no {flag}")
        check_resolution(self.resolution)
        if self.resolution < row.min_resolution:
            raise ValueError(
                f"{self.theorem} needs resolution {row.min_resolution} <= L <= {MAX_RESOLUTION}, got {self.resolution}"
            )
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")
        if self.family_size < 1:
            raise ValueError(f"family size must be at least 1, got {self.family_size}")
        # the table's lower bound of p, which principle orders with its q and
        # p1; then the ranges of biparam's eps and cordoba's q window
        if self.theorem == "principle":
            if not row.p_above < self.p < self.q < self.p1 < math.inf:
                raise ValueError(
                    f"principle needs {row.p_above} < p0 < q < p1, got p0={self.p}, q={self.q}, p1={self.p1}"
                )
        elif not row.p_above < self.p < math.inf:
            raise ValueError(f"{self.theorem} needs {row.p_above} < p < inf, got p={self.p}")
        if self.theorem == "biparam" and not 0 < self.eps < 0.5:
            raise ValueError(f"biparam needs 0 < eps < 1/2, got eps={self.eps}")
        if self.theorem == "cordoba" and not (self.q > 0 and abs(1.0 - 2.0 / self.q) < 1.0 / self.p):
            raise ValueError(f"cordoba needs |1 - 2/q| < 1/p, got q={self.q}, p={self.p}")


@dataclass
class RunManifest:
    config: dict
    trial_seeds: list[list[int]]
    versions: dict
    wall_clock: dict = field(default_factory=dict)

    def to_json(self, indent=2) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=indent)


def trial_generators(seed: int, trials: int):
    """One counter-based generator per trial, spawned from the root seed."""
    children = np.random.SeedSequence(seed).spawn(trials)
    gens = [np.random.Generator(np.random.Philox(child)) for child in children]
    keys = [list(map(int, child.spawn_key)) for child in children]
    return gens, keys


# ---------------------------------------------------------------------------
# random data


def random_grid_set(rng: np.random.Generator, resolution: int) -> GridSet:
    """Union of six random dyadic intervals; never empty."""
    mask = np.zeros(1 << resolution, dtype=bool)
    for _ in range(6):
        scale = int(rng.integers(1, resolution + 1))
        offset = int(rng.integers(0, 1 << scale))
        width = 1 << (resolution - scale)
        mask[offset * width : (offset + 1) * width] = True
    return GridSet(resolution, mask)


def random_signal(rng: np.random.Generator, resolution: int, complex_values: bool = False) -> GridSignal:
    """Gaussian coefficients in the Walsh basis."""
    n = 1 << resolution
    coeffs = rng.standard_normal(n)
    if complex_values:
        coeffs = coeffs + 1j * rng.standard_normal(n)
    return GridSignal(resolution, walsh_synthesis(coeffs) / math.sqrt(n))


def random_vector(rng: np.random.Generator, resolution: int, members: int) -> VectorSignal:
    return VectorSignal.from_signals(
        [random_signal(rng, resolution) for _ in range(members)]
    )


def random_grid2d(rng: np.random.Generator, resolution: int) -> Grid2D:
    n = 1 << resolution
    coeffs = rng.standard_normal((n, n))
    values = walsh_synthesis(walsh_synthesis(coeffs, axis=0), axis=1) / n
    return Grid2D(resolution, values)


def random_set2d(rng: np.random.Generator, resolution: int, density: float = 0.3) -> GridSet2D:
    n = 1 << resolution
    mask = rng.random((n, n)) < density
    if not mask.any():
        mask[0, 0] = True
    return GridSet2D(resolution, mask)


def random_choice(rng: np.random.Generator, resolution: int) -> ChoiceFunction:
    n = 1 << resolution
    return ChoiceFunction(resolution, rng.integers(0, n, size=n))


def random_scale_choice(rng: np.random.Generator, resolution: int) -> ScaleChoice:
    return ScaleChoice(resolution, rng.integers(0, resolution + 1, size=1 << resolution))


def random_convex_collection(
    rng: np.random.Generator,
    resolution: int,
    seeds: int = 3,
    cap: int = 400,
) -> TileCollection:
    """Convex closure of random tops with random descendant chains below
    them, resampled if the closure overflows the cap.

    Top scales are drawn from the fixed coarse range 0..3 so collections
    occupy a comparable portion of the grid at every resolution, while the
    chains reach down to the finest scales; this keeps measured
    decomposition constants scale-comparable.
    """
    top_hi = min(3, resolution - 1)
    while True:
        picks = []
        for _ in range(seeds):
            k = int(rng.integers(0, top_hi + 1))
            top = BiTile(
                k,
                int(rng.integers(0, 1 << k)),
                int(rng.integers(0, 1 << (resolution - k - 1))),
            )
            picks.append(top)
            for _ in range(int(rng.integers(1, 4))):
                k2 = int(rng.integers(k, resolution))
                offset = (top.offset << (k2 - k)) + int(rng.integers(0, 1 << (k2 - k)))
                picks.append(BiTile(k2, offset, top.freq.lo >> (k2 + 1)))
        collection = TileCollection.convex_closure(resolution, picks)
        if len(collection) <= cap:
            return collection


def collection_spanning_signal(
    rng: np.random.Generator, collection: TileCollection
) -> GridSignal:
    """Gaussian combination of the collection's own lower packets, unit L2
    norm; keeps decomposition constants scale-comparable because the signal
    energy lives where the collection can see it."""
    values = np.zeros(1 << collection.resolution, dtype=np.complex128)
    for k, offset, freq_index in member_indices(collection.occupied):
        g = complex(rng.standard_normal(), rng.standard_normal())
        values += g * walsh_packet(Tile(k, offset, 2 * freq_index), collection.resolution).values
    norm = lp_norm(values, 2.0, collection.resolution)
    if norm == 0.0:
        return random_signal(rng, collection.resolution)
    return GridSignal(collection.resolution, values / norm)


def collection_adapted_choice(
    rng: np.random.Generator, collection: TileCollection
) -> ChoiceFunction:
    """Choice function sampling the collection's own frequency intervals: at
    each cell, a uniform frequency from a random member whose spatial
    interval covers the cell (uniform over the lattice elsewhere)."""
    L, n = collection.resolution, 1 << collection.resolution
    freqs = rng.integers(0, n, size=n)
    members = np.array(list(member_indices(collection.occupied)), dtype=np.int64).reshape(-1, 3)
    for cell in range(n):
        # the members covering the cell, in `bitile_key` order
        candidates = members[cell >> (L - members[:, 0]) == members[:, 1]]
        if len(candidates):
            k, _, m = candidates[int(rng.integers(0, len(candidates)))].tolist()
            freqs[cell] = int(rng.integers(m << (k + 1), (m + 1) << (k + 1)))
    return ChoiceFunction(L, freqs)


def maximal_operator_family(
    rng: np.random.Generator, resolution: int, members: int
) -> tuple[OperatorFamily, list[ScaleChoice]]:
    """Linearized stopping-scale operators: random scale choices; all share
    the exact L2 bound 1 of the underlying averaging."""
    from .principle import OperatorFamily

    choices = [random_scale_choice(rng, resolution) for _ in range(members)]
    family = OperatorFamily.of([ch.average for ch in choices], [ch.average_adjoint for ch in choices])
    return family, choices


# ---------------------------------------------------------------------------
# per-theorem runners


def run_fs(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    ratios = []
    baseline = []
    for rng in gens:
        fam = random_vector(rng, config.resolution, config.family_size)
        ratios.append(verify_vector_maximal(fam, config.p).ratio)
        baseline.append(
            verify_vector_maximal(
                VectorSignal(config.resolution, fam.stack[:1]), config.p
            ).ratio
        )
    ok = all(math.isfinite(r) for r in ratios)
    report = {
        "p": config.p,
        "family_size": config.family_size,
        "max_baseline_ratio": max(baseline, default=0.0),
    }
    return report, ratios, ok


def run_biparam(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    from .biparam import verify_biparam

    ratios = []
    ok = True
    caps = []
    for i, rng in enumerate(gens):
        fams = [random_grid2d(rng, config.resolution) for _ in range(config.family_size)]
        g = random_set2d(rng, config.resolution, 0.25)
        rep = verify_biparam(fams, config.p, g, eps=config.eps, seed=config.seed + i)
        ratios.append(rep.ratio)
        trial_caps = rep.extra.get("mass_cap_ratios", [])
        caps.append(max(trial_caps, default=0.0))
        ok = ok and all(c <= 1.0 for c in trial_caps)
        ok = ok and rep.extra["h_kept"] >= 0.5
        ok = ok and rep.extra["localized_unconverged"] == 0
    ok = ok and all(math.isfinite(r) for r in ratios)
    report = {
        "p": config.p,
        "eps": config.eps,
        "family_size": config.family_size,
        "max_mass_cap_ratio": max(caps, default=0.0),
    }
    return report, ratios, ok


def run_cordoba(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    from .directional import DirectionalAverager, DirectionSet, verify_directional

    averager = DirectionalAverager(config.resolution, DirectionSet.uniform(8))
    ratios = []
    ok = True
    for i, rng in enumerate(gens):
        fams = [random_grid2d(rng, config.resolution) for _ in range(config.family_size)]
        rep = verify_directional(fams, averager, config.q, config.p, seed=config.seed + i)
        ratios.append(rep.ratio)
        ok = ok and rep.extra["h_kept"] >= 0.5 and math.isfinite(rep.ratio)
        ok = ok and rep.extra["localized_unconverged"] == 0
    report = {
        "p": config.p,
        "q": config.q,
        "family_size": config.family_size,
    }
    return report, ratios, ok


def run_cordoba_weighted(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    from .directional import DirectionalAverager, DirectionSet, verify_weighted_directional

    averager = DirectionalAverager(config.resolution, DirectionSet.uniform(8))
    ratios, weights = [], []
    ok = True
    for i, rng in enumerate(gens):
        fams = [random_grid2d(rng, config.resolution) for _ in range(config.family_size)]
        rep = verify_weighted_directional(fams, averager, config.p, seed=config.seed + i)
        ratios.append(rep.ratio)
        certs = rep.extra["weight"]
        ok = ok and certs["norm_ok"] and certs["recursion_ok"] and math.isfinite(rep.ratio)
        weights.append({key: certs[key] for key in ("terms", "tail_bound", "excess")})
    report = {
        "p": config.p,
        "q": 2.0 * config.p / (config.p - 1.0),
        "family_size": config.family_size,
        "weights": weights,
    }
    return report, ratios, ok


def run_carleson(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    from .carleson import verify_vector_carleson

    ratios = []
    for rng in gens:
        fam = random_vector(rng, config.resolution, config.family_size)
        rep = verify_vector_carleson(fam, None, config.p)
        ratios.append(rep.ratio)
    ok = all(math.isfinite(r) for r in ratios)
    report = {
        "p": config.p,
        "family_size": config.family_size,
    }
    return report, ratios, ok


def run_principle(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    from .principle import (
        condition_constant,
        measure_condition,
        splitting_cascade,
        trim_builder,
        vector_inequality_ratio,
    )

    p0, p1 = config.p, config.p1
    setup = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed + 10**6)))
    family, _ = maximal_operator_family(setup, config.resolution, config.family_size)
    h = random_grid_set(setup, config.resolution)
    g = random_grid_set(setup, config.resolution)
    builder = trim_builder(CARVING, "h")
    cond0 = measure_condition(family, h, g, builder, p0, seed=config.seed)
    # the measured norms do not depend on the exponent
    c_p1 = condition_constant(cond0.extra["norms"], cond0.extra["measure_ratio"], p1)
    levels = splitting_cascade(h, g, trim_builder(CARVING, "both"), p0, k_max=10)

    ratios = []
    baseline = []
    worst_sides = (0.0, 0.0)
    for rng in gens:
        fam = random_vector(rng, config.resolution, config.family_size)
        conclusion = vector_inequality_ratio(family, fam, config.q)
        ratios.append(conclusion.ratio)
        if conclusion.ratio >= max(ratios):
            worst_sides = (conclusion.lhs, conclusion.rhs)
        baseline.append(
            vector_inequality_ratio(
                family, VectorSignal(config.resolution, fam.stack[:1]), config.q
            ).ratio
        )
    unconverged = cond0.extra["unconverged"]
    ok = unconverged == 0 and all(math.isfinite(r) for r in ratios)
    if ratios and baseline and max(baseline) > 0:
        ok = ok and max(ratios) <= 2.0 * max(baseline)
    principle = PrincipleReport(
        p=p0,
        C_p=cond0.C_p,
        B_p=cond0.B_p,
        A_p=cond0.A_p,
        q=config.q,
        lhs3=worst_sides[0],
        rhs3=worst_sides[1],
        ratio=max(ratios, default=0.0),
        levels=levels,
        extra={"C_p1": c_p1, "p1": p1},
    )
    report = {
        "principle": principle.to_dict(),
        "max_baseline_ratio": max(baseline, default=0.0),
        "unconverged": unconverged,
    }
    return report, ratios, ok


class Theorem(NamedTuple):
    """A `verify` theorem: its runner, the default of every parameter the
    runner reads, the open lower bound of its exponent p (p0 for
    principle, whose p1 defaults to 2q - p) and its lowest resolution."""

    run: Callable
    defaults: dict
    p_above: int
    min_resolution: int


# cordoba-weighted runs at q = 2p/(p-1), where |1 - 2/q| = 1/p holds
THEOREMS = {
    "fs": Theorem(run_fs, {"p": 3.0}, 1, 0),
    "biparam": Theorem(run_biparam, {"p": 3.0, "eps": 0.1}, 2, 1),
    "cordoba": Theorem(run_cordoba, {"p": 2.0, "q": 2.5}, 1, 0),
    "cordoba-weighted": Theorem(run_cordoba_weighted, {"p": 2.0}, 1, 0),
    "carleson": Theorem(run_carleson, {"p": 3.0}, 1, 0),
    "principle": Theorem(run_principle, {"p": 1.5, "q": 2.0, "p1": None}, 1, 1),
}


def run(config: ExperimentConfig) -> tuple[RunManifest, dict, bool]:
    """Dispatch one experiment; returns (manifest, report, all postconditions
    held).  The report is the runner's own fields with the theorem, the
    largest trial ratio, the trial count and `ok`.  Writes report.json,
    manifest.json and trials.csv when an output directory is configured."""
    config.validate()
    gens, keys = trial_generators(config.seed, config.trials)
    start = time.perf_counter()
    fields, ratios, ok = THEOREMS[config.theorem].run(config, gens)
    elapsed = time.perf_counter() - start
    report = {
        "theorem": config.theorem,
        **fields,
        "max_ratio": max(ratios, default=0.0),
        "trials": len(ratios),
        "ok": ok,
    }
    manifest = RunManifest(
        config=asdict(config),
        trial_seeds=keys,
        versions={"dyadlab": __version__, "numpy": np.__version__, "csv_schema": CSV_SCHEMA},
        wall_clock={config.theorem: elapsed},
    )
    if config.out:
        write_outputs(Path(config.out), config, manifest, report, ratios)
    return manifest, report, ok


def write_outputs(out_dir: Path, config, manifest, report: dict, ratios: list[float]) -> None:
    from .io import open_new

    out_dir.mkdir(parents=True, exist_ok=True)
    with open_new(out_dir / "report.json") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    with open_new(out_dir / "manifest.json") as fh:
        fh.write(manifest.to_json() + "\n")
    with open_new(out_dir / "trials.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "ratio"])
        for i, r in enumerate(ratios):
            writer.writerow([i, repr(float(r))])


def _at_resolution(data, path, resolution: int):
    if data.resolution != resolution:
        raise ValueError(
            f"resolution mismatch: {path} is at resolution {data.resolution}, the decomposition at {resolution}"
        )
    return data


def run_decompose(
    collection_file,
    signal_file,
    resolution: int,
    out_file,
    set_file=None,
    choice_file=None,
) -> dict:
    """Decompose a tile collection file against a signal file; emits the
    (n, m) bucket forests with tops and counting ratios as CSV. The signal,
    set and choice files must be at the given resolution."""
    from .io import open_new, read_choice, read_grid_set, read_signal, read_tile_collection

    collection = read_tile_collection(collection_file, resolution)
    signal = _at_resolution(read_signal(signal_file), signal_file, resolution)
    if set_file is not None:
        e_set = _at_resolution(read_grid_set(set_file), set_file, resolution)
    else:
        e_set = GridSet.full(resolution)
    if choice_file is not None:
        choice = _at_resolution(read_choice(choice_file), choice_file, resolution)
    else:
        choice = ChoiceFunction.constant(resolution, 0)
    decomposition = full_decompose(collection, signal, e_set, choice)
    rows = []
    for (n, m), bucket in sorted(decomposition.buckets.items()):
        for t_index, tree in enumerate(bucket.trees):
            rows.append(
                [
                    n,
                    m,
                    t_index,
                    tree.top_interval.scale,
                    tree.top_interval.offset,
                    tree.top_freq,
                    len(tree.slots),
                    repr(bucket.count_ratio),
                ]
            )
    with open_new(out_file, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "m", "tree", "top_scale", "top_offset", "top_freq", "members", "count_ratio"]
        )
        writer.writerows(rows)
    return {
        "buckets": len(decomposition.buckets),
        "trees": sum(len(b.trees) for b in decomposition.buckets.values()),
        "remainder": len(decomposition.remainder),
    }
