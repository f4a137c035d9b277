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

import numpy as np

from . import __version__
from .grid import MAX_RESOLUTION, GridSet, GridSignal, VectorSignal
from .maximal import ScaleChoice, verify_vector_maximal
from .plane import Grid2D, GridSet2D
from .principle import (
    LinearOperator,
    OperatorFamily,
    measure_condition,
    splitting_cascade,
    trim_both_builder,
    trim_h_builder,
    vector_inequality_ratio,
)
from .reports import PrincipleReport
from .tiles import BiTile, ChoiceFunction, TileCollection, full_decompose
from .walsh import walsh_synthesis

THEOREMS = ("fs", "biparam", "cordoba", "cordoba-weighted", "carleson", "principle")

# bumped whenever any CSV column layout changes; recorded in every manifest
CSV_SCHEMA = 1


@dataclass
class ExperimentConfig:
    theorem: str
    resolution: int = 6
    trials: int = 10
    seed: int = 0
    family_size: int = 4
    p: float = 3.0
    q: float = 2.5
    eps: float = 0.1
    p1: float | None = None
    out: str | None = None

    def validate(self) -> None:
        """Total validation; every rejection names the violated range."""
        if self.theorem not in THEOREMS:
            raise ValueError(f"theorem must be one of {THEOREMS}, got {self.theorem!r}")
        if not 0 <= self.resolution <= MAX_RESOLUTION:
            raise ValueError(
                f"resolution must satisfy 0 <= L <= {MAX_RESOLUTION}, got {self.resolution}"
            )
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")
        if self.family_size < 1:
            raise ValueError(f"family size must be at least 1, got {self.family_size}")
        if self.theorem == "fs" and not 1 < self.p < math.inf:
            raise ValueError(f"fs needs 1 < p < inf, got p={self.p}")
        if self.theorem == "biparam":
            if not 2 < self.p < math.inf:
                raise ValueError(f"biparam needs 2 < p < inf, got p={self.p}")
            if not 0 < self.eps < 0.5:
                raise ValueError(f"biparam needs 0 < eps < 1/2, got eps={self.eps}")
        if self.theorem == "cordoba":
            if not 1 < self.p < math.inf:
                raise ValueError(f"cordoba needs 1 < p < inf, got p={self.p}")
            if abs(1.0 - 2.0 / self.q) >= 1.0 / self.p:
                raise ValueError(
                    f"cordoba needs |1 - 2/q| < 1/p, got q={self.q}, p={self.p}"
                )
        if self.theorem == "cordoba-weighted":
            if not 1 < self.p < math.inf:
                raise ValueError(f"cordoba-weighted needs 1 < p < inf, got p={self.p}")
            if abs(1.0 - 2.0 / self.q) > 1.0 / self.p + 1e-12:
                raise ValueError(
                    f"cordoba-weighted needs |1 - 2/q| <= 1/p, got q={self.q}, p={self.p}"
                )
        if self.theorem == "carleson" and not 1 < self.p < math.inf:
            raise ValueError(f"carleson needs 1 < p < inf, got p={self.p}")
        if self.theorem == "principle":
            p1 = self.p1 if self.p1 is not None else 2.0 * self.q - self.p
            if not 1 < self.p < self.q < p1 < math.inf:
                raise ValueError(
                    f"principle needs 1 < p0 < q < p1, got p0={self.p}, q={self.q}, p1={p1}"
                )


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


def random_grid_set(rng: np.random.Generator, resolution: int, pieces: int = 6) -> GridSet:
    """Union of random dyadic intervals; never empty."""
    mask = np.zeros(1 << resolution, dtype=bool)
    for _ in range(max(1, pieces)):
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
    top_scale_max: int = 3,
) -> TileCollection:
    """Convex closure of random tops with random descendant chains below
    them, resampled if the closure overflows the cap.

    Top scales are drawn from a fixed coarse range so collections occupy a
    comparable portion of the grid at every resolution, while the chains
    reach down to the finest scales; this keeps measured decomposition
    constants scale-comparable.
    """
    top_hi = min(top_scale_max, resolution - 1)
    while True:
        picks = []
        for _ in range(max(1, seeds)):
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
    from .grid import lp_norm
    from .tiles import bitile_key, walsh_packet

    n = 1 << collection.resolution
    values = np.zeros(n, dtype=np.complex128)
    for p in sorted(collection.bitiles, key=bitile_key):
        g = complex(rng.standard_normal(), rng.standard_normal())
        values += g * walsh_packet(p.lower, collection.resolution).values
    signal = GridSignal(collection.resolution, values)
    norm = lp_norm(signal, 2.0)
    if norm == 0.0:
        return random_signal(rng, collection.resolution)
    return GridSignal(collection.resolution, values / norm)


def collection_adapted_choice(
    rng: np.random.Generator, collection: TileCollection
) -> ChoiceFunction:
    """Choice function sampling the collection's own frequency intervals: at
    each cell, a uniform frequency from a random member whose spatial
    interval covers the cell (uniform over the lattice elsewhere)."""
    from .tiles import bitile_key

    resolution = collection.resolution
    n = 1 << resolution
    freqs = rng.integers(0, n, size=n)
    members = sorted(collection.bitiles, key=bitile_key)
    covering: list[list] = [[] for _ in range(n)]
    for p in members:
        sl = p.spatial.cell_slice(resolution)
        for cell in range(sl.start, sl.stop):
            covering[cell].append(p)
    for cell, candidates in enumerate(covering):
        if candidates:
            p = candidates[int(rng.integers(0, len(candidates)))]
            freqs[cell] = int(rng.integers(p.freq.lo, p.freq.hi))
    return ChoiceFunction(resolution, freqs)


def maximal_operator_family(
    rng: np.random.Generator, resolution: int, members: int
) -> tuple[OperatorFamily, list[ScaleChoice]]:
    """Linearized stopping-scale operators: random scale choices; all share
    the exact L2 bound 1 of the underlying averaging."""
    from .maximal import linearized_maximal

    choices = [random_scale_choice(rng, resolution) for _ in range(members)]
    ops = []
    for choice in choices:
        def fwd(v, ch=choice):
            return linearized_maximal(GridSignal(resolution, v), ch).values

        def adj(v, ch=choice):
            # adjoint scatters stopping-set sums back over the intervals,
            # normalized by the interval cell count
            out = np.zeros(1 << resolution, dtype=np.complex128)
            vals = np.asarray(v)
            L = resolution
            for k in range(L + 1):
                sel = ch.scales == k
                if not np.any(sel):
                    continue
                sums = np.zeros(1 << k, dtype=np.complex128)
                np.add.at(sums, np.arange(1 << L)[sel] >> (L - k), vals[sel])
                out += np.repeat(sums, 1 << (L - k)) * 2.0 ** (k - L)
            return out

        ops.append(LinearOperator(fwd, adj))
    return OperatorFamily(ops, l2_bound=1.0), choices


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
        "theorem": "fs",
        "p": config.p,
        "family_size": config.family_size,
        "max_ratio": max(ratios, default=0.0),
        "max_baseline_ratio": max(baseline, default=0.0),
        "trials": len(ratios),
        "ok": ok,
    }
    return report, ratios, ok


def run_biparam(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    from .biparam import verify_biparam

    ratios = []
    ok = True
    caps = []
    for i, rng in enumerate(gens):
        fams = [random_grid2d(rng, config.resolution) for _ in range(config.family_size)]
        rep = verify_biparam(
            fams,
            config.p,
            eps=config.eps,
            seed=config.seed + i,
            g=random_set2d(rng, config.resolution, 0.25),
        )
        ratios.append(rep.ratio)
        trial_caps = rep.extra.get("mass_cap_ratios", [])
        caps.append(max(trial_caps, default=0.0))
        ok = ok and all(c <= 1.0 + 1e-12 for c in trial_caps)
        ok = ok and rep.extra["h_kept"] >= 0.5
    ok = ok and all(math.isfinite(r) for r in ratios)
    report = {
        "theorem": "biparam",
        "p": config.p,
        "eps": config.eps,
        "family_size": config.family_size,
        "max_ratio": max(ratios, default=0.0),
        "max_mass_cap_ratio": max(caps, default=0.0),
        "trials": len(ratios),
        "ok": ok,
    }
    return report, ratios, ok


def run_cordoba(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    from .directional import DirectionSet, verify_directional

    dirs = DirectionSet.uniform(8)
    ratios = []
    ok = True
    for i, rng in enumerate(gens):
        fams = [random_grid2d(rng, config.resolution) for _ in range(config.family_size)]
        rep = verify_directional(fams, dirs, config.q, config.p, seed=config.seed + i)
        ratios.append(rep.ratio)
        ok = ok and rep.extra["h_kept"] >= 0.5 and math.isfinite(rep.ratio)
    report = {
        "theorem": "cordoba",
        "p": config.p,
        "q": config.q,
        "family_size": config.family_size,
        "max_ratio": max(ratios, default=0.0),
        "trials": len(ratios),
        "ok": ok,
    }
    return report, ratios, ok


def run_cordoba_weighted(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    from .directional import DirectionalAverager, DirectionSet, verify_weighted_directional

    dirs = DirectionSet.uniform(8)
    averager = DirectionalAverager(config.resolution, dirs)
    ratios = []
    ok = True
    for i, rng in enumerate(gens):
        fams = [random_grid2d(rng, config.resolution) for _ in range(config.family_size)]
        rep = verify_weighted_directional(
            fams, dirs, config.p, seed=config.seed + i, averager=averager
        )
        ratios.append(rep.ratio)
        certs = rep.extra["weight"]
        ok = ok and certs["norm_ok"] and certs["recursion_ok"] and math.isfinite(rep.ratio)
    report = {
        "theorem": "cordoba-weighted",
        "p": config.p,
        "q": 2.0 * config.p / (config.p - 1.0),
        "family_size": config.family_size,
        "max_ratio": max(ratios, default=0.0),
        "trials": len(ratios),
        "ok": ok,
    }
    return report, ratios, ok


def run_carleson(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    from .carleson import verify_vector_carleson

    collection = TileCollection.all(config.resolution)
    ratios = []
    for i, rng in enumerate(gens):
        fam = random_vector(rng, config.resolution, config.family_size)
        rep = verify_vector_carleson(fam, None, config.p, collection=collection, seed=config.seed + i)
        ratios.append(rep.ratio)
    ok = all(math.isfinite(r) for r in ratios)
    report = {
        "theorem": "carleson",
        "p": config.p,
        "family_size": config.family_size,
        "max_ratio": max(ratios, default=0.0),
        "trials": len(ratios),
        "ok": ok,
    }
    return report, ratios, ok


def run_principle(config: ExperimentConfig, gens) -> tuple[dict, list[float], bool]:
    p0 = config.p
    p1 = config.p1 if config.p1 is not None else 2.0 * config.q - config.p
    setup = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed + 10**6)))
    family, _ = maximal_operator_family(setup, config.resolution, config.family_size)
    h = random_grid_set(setup, config.resolution)
    g = random_grid_set(setup, config.resolution)
    builder = trim_h_builder(4.0)
    cond0 = measure_condition(family, h, g, builder, p0, seed=config.seed)
    cond1 = measure_condition(family, h, g, builder, p1, seed=config.seed)
    levels = splitting_cascade(h, g, trim_both_builder(4.0), p0, k_max=10)

    ratios = []
    baseline = []
    worst_sides = (0.0, 0.0)
    for rng in gens:
        fam = random_vector(rng, config.resolution, config.family_size)
        conclusion = vector_inequality_ratio(family, fam, config.q)
        ratios.append(conclusion.ratio)
        if not ratios or conclusion.ratio >= max(ratios):
            worst_sides = (conclusion.lhs, conclusion.rhs)
        baseline.append(
            vector_inequality_ratio(
                family, VectorSignal(config.resolution, fam.stack[:1]), config.q
            ).ratio
        )
    ok = all(math.isfinite(r) for r in ratios)
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
        extra={"C_p1": cond1.C_p, "p1": p1},
    )
    report = {
        "theorem": "principle",
        "principle": principle.to_dict(),
        "max_ratio": max(ratios, default=0.0),
        "max_baseline_ratio": max(baseline, default=0.0),
        "trials": len(ratios),
        "ok": ok,
    }
    return report, ratios, ok


RUNNERS = {
    "fs": run_fs,
    "biparam": run_biparam,
    "cordoba": run_cordoba,
    "cordoba-weighted": run_cordoba_weighted,
    "carleson": run_carleson,
    "principle": run_principle,
}


def run(config: ExperimentConfig) -> tuple[RunManifest, dict, bool]:
    """Dispatch one experiment; returns (manifest, report, all postconditions
    held).  Writes report.json, manifest.json and trials.csv when an output
    directory is configured."""
    config.validate()
    gens, keys = trial_generators(config.seed, config.trials)
    start = time.perf_counter()
    report, ratios, ok = RUNNERS[config.theorem](config, gens)
    elapsed = time.perf_counter() - start
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
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out_dir / "manifest.json").write_text(manifest.to_json() + "\n")
    with open(out_dir / "trials.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "ratio"])
        for i, r in enumerate(ratios):
            writer.writerow([i, repr(float(r))])


def run_decompose(
    collection_file,
    signal_file,
    resolution: int,
    out_file,
    set_file=None,
    choice_file=None,
) -> dict:
    """Decompose a tile collection file against a signal file; emits the
    (n, m) bucket forests with tops and counting ratios as CSV."""
    from .io import read_choice, read_grid_set, read_signal, read_tile_collection

    collection = read_tile_collection(collection_file, resolution)
    signal = read_signal(signal_file)
    if set_file is not None:
        e_set = read_grid_set(set_file)
    else:
        e_set = GridSet.full(signal.resolution)
    if choice_file is not None:
        choice = read_choice(choice_file)
    else:
        choice = ChoiceFunction.constant(signal.resolution, 0)
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
                    len(tree.members),
                    repr(bucket.count_ratio),
                ]
            )
    with open(out_file, "w", newline="") as fh:
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
