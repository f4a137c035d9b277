"""Experiment configuration and deterministic orchestration.

Every draw descends from the configured seed, so every reported number is
reproducible bit for bit from the configuration alone. Each trial's data
comes from its own counter-based (Philox) generator, spawned from the seed,
whose spawn key the manifest records. Four other sources read the seed
directly. In trial i, `verify_biparam` and `verify_directional` draw from
`np.random.default_rng(config.seed + i)`. The two Cordoba runners measure
the averager's norm once per run, by `DirectionalAverager.estimate_norm`
from `np.random.default_rng(config.seed)`, and pass it to every trial.
`run_principle`'s setup (its operator family and sets) draws from a Philox
generator seeded with `config.seed + 10**6`. Each localized norm run starts
from a per-member seed derived from its caller's. Wall-clock timings live
only in the manifest, never in the report, which keeps report files
byte-identical across replays; `io.write_run` writes the files.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import __version__
from .grid import MAX_RESOLUTION, Grid2D, GridSet, GridSet2D, GridSignal, VectorSignal, check_q_window, check_resolution, check_same_grid, conjugate_exponent
from .io import CSV_SCHEMA, check_output_path, read_choice, read_grid_set, read_signal, read_tile_collection, write_forests, write_run
from .maximal import CARVING, ScaleChoice, verify_vector_maximal
from .reports import certificate
from .tiles import ChoiceFunction, full_decompose
from .walsh import walsh_synthesis

if TYPE_CHECKING:
    from .principle import OperatorFamily


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
        check_seed(self.seed)
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
        if self.theorem == "cordoba":
            check_q_window(self.q, self.p)


def check_seed(seed: int) -> None:
    """Reject a negative root seed, which `np.random.SeedSequence` refuses."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


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


def random_scale_choice(rng: np.random.Generator, resolution: int) -> ScaleChoice:
    return ScaleChoice(resolution, rng.integers(0, resolution + 1, size=1 << resolution))


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


def run_fs(config: ExperimentConfig, gens) -> tuple[dict, list[float], list[dict]]:
    ratios, baseline = [], []
    for rng in gens:
        fam = random_vector(rng, config.resolution, config.family_size)
        ratios.append(verify_vector_maximal(fam, config.p)["ratio"])
        baseline.append(verify_vector_maximal(VectorSignal(config.resolution, fam.stack[:1]), config.p)["ratio"])
    report = {"p": config.p, "family_size": config.family_size, "max_baseline_ratio": max(baseline, default=0.0)}
    return report, ratios, []


def _localized_certificates(reps: list[dict]) -> list[dict]:
    """At the worst trial, H' keeps half of H and no localized norm run stopped at the step cap."""
    kept = min((rep["h_kept"] for rep in reps), default=1.0)
    unconverged = max((rep["localized_unconverged"] for rep in reps), default=0)
    return [
        certificate("h_kept", kept, 0.5, "postcondition", ">="),
        certificate("localized_unconverged", unconverged, 0, "postcondition"),
    ]


def run_biparam(config: ExperimentConfig, gens) -> tuple[dict, list[float], list[dict]]:
    from .biparam import verify_biparam

    reps = []
    for i, rng in enumerate(gens):
        fams = [random_grid2d(rng, config.resolution) for _ in range(config.family_size)]
        g = random_set2d(rng, config.resolution, 0.25)
        reps.append(verify_biparam(fams, config.p, g, eps=config.eps, seed=config.seed + i))
    cap = max((c for rep in reps for c in rep["mass_cap_ratios"]), default=0.0)
    report = {"p": config.p, "eps": config.eps, "family_size": config.family_size, "max_mass_cap_ratio": cap}
    certificates = [certificate("mass_cap_ratio", cap, 1.0, "postcondition"), *_localized_certificates(reps)]
    return report, [rep["ratio"] for rep in reps], certificates


def run_cordoba(config: ExperimentConfig, gens) -> tuple[dict, list[float], list[dict]]:
    from .directional import DirectionalAverager, DirectionSet, verify_directional

    averager = DirectionalAverager(config.resolution, DirectionSet.uniform(8))
    # ||M_Sigma||_2, a constant of the direction set: measured once per run
    norm = averager.estimate_norm(2.0, seed=config.seed)
    reps = []
    for i, rng in enumerate(gens):
        fams = [random_grid2d(rng, config.resolution) for _ in range(config.family_size)]
        reps.append(verify_directional(fams, averager, config.q, config.p, norm, seed=config.seed + i))
    report = {"p": config.p, "q": config.q, "family_size": config.family_size}
    return report, [rep["ratio"] for rep in reps], _localized_certificates(reps)


def run_cordoba_weighted(config: ExperimentConfig, gens) -> tuple[dict, list[float], list[dict]]:
    from .directional import DirectionalAverager, DirectionSet, verify_weighted_directional

    averager = DirectionalAverager(config.resolution, DirectionSet.uniform(8))
    # ||M_Sigma||_p, a constant of the direction set: measured once per run
    norm = averager.estimate_norm(config.p, seed=config.seed)
    ratios, weights, certificates = [], [], []
    for i, rng in enumerate(gens):
        fams = [random_grid2d(rng, config.resolution) for _ in range(config.family_size)]
        rep, weight = verify_weighted_directional(fams, averager, config.p, norm)
        ratios.append(rep["ratio"])
        weights.append({key: rep["weight"][key] for key in ("terms", "tail_bound", "excess")})
        certificates += weight.checks(f"[{i}]")
    report = {
        "p": config.p,
        "q": 2.0 * conjugate_exponent(config.p),
        "family_size": config.family_size,
        "weights": weights,
    }
    return report, ratios, certificates


def run_carleson(config: ExperimentConfig, gens) -> tuple[dict, list[float], list[dict]]:
    from .carleson import verify_vector_carleson

    ratios = [
        verify_vector_carleson(random_vector(rng, config.resolution, config.family_size), None, config.p)["ratio"]
        for rng in gens
    ]
    return {"p": config.p, "family_size": config.family_size}, ratios, []


def run_principle(config: ExperimentConfig, gens) -> tuple[dict, list[float], list[dict]]:
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
    c_p1 = condition_constant(cond0["norms"], cond0["measure_ratio"], p1)
    levels = splitting_cascade(h, g, trim_builder(CARVING, "both"), k_max=10)

    ratios, baseline = [], []
    worst_sides = (0.0, 0.0)
    for rng in gens:
        fam = random_vector(rng, config.resolution, config.family_size)
        conclusion = vector_inequality_ratio(family, fam, config.q)
        ratios.append(conclusion["ratio"])
        if conclusion["ratio"] >= max(ratios):
            worst_sides = (conclusion["lhs"], conclusion["rhs"])
        one_member = VectorSignal(config.resolution, fam.stack[:1])
        baseline.append(vector_inequality_ratio(family, one_member, config.q)["ratio"])
    report = {
        "principle": {
            "p": p0,
            "C_p": cond0["C_p"],
            "B_p": cond0["B_p"],
            "A_p": cond0["A_p"],
            "q": config.q,
            "lhs3": worst_sides[0],
            "rhs3": worst_sides[1],
            "ratio": max(ratios, default=0.0),
            "levels": levels,
            "C_p1": c_p1,
            "p1": p1,
        },
        "max_baseline_ratio": max(baseline, default=0.0),
        "unconverged": cond0["unconverged"],
    }
    certificates = [
        certificate("unconverged", report["unconverged"], 0, "postcondition"),
        # the family's ratio within twice the one-member baseline's
        certificate("baseline_factor", report["principle"]["ratio"], 2.0 * report["max_baseline_ratio"], "heuristic"),
    ]
    return report, ratios, certificates


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


def run(config: ExperimentConfig) -> tuple[dict, dict]:
    """Dispatch one experiment; returns (manifest, report).  The manifest
    holds the config, the trial spawn keys, the versions and the wall clock.
    The report is the runner's own fields with the theorem, the largest
    trial ratio, the trial count, the certificates (the runner's, after the
    finiteness of the trial ratios) and `ok`, their conjunction, set here
    alone.  When an output directory is configured, creates it before the
    run and writes report.json, manifest.json and trials.csv there after it."""
    config.validate()
    if config.out:
        Path(config.out).mkdir(parents=True, exist_ok=True)
    gens, keys = trial_generators(config.seed, config.trials)
    start = time.perf_counter()
    fields, ratios, certificates = THEOREMS[config.theorem].run(config, gens)
    elapsed = time.perf_counter() - start
    nonfinite = sum(not math.isfinite(r) for r in ratios)
    certificates = [certificate("nonfinite_ratios", nonfinite, 0, "postcondition"), *certificates]
    report = {
        "theorem": config.theorem,
        **fields,
        "max_ratio": max(ratios, default=0.0),
        "trials": len(ratios),
        "ok": all(cert["holds"] for cert in certificates),
        "certificates": certificates,
    }
    manifest = {
        "config": asdict(config),
        "trial_seeds": keys,
        "versions": {"dyadlab": __version__, "numpy": np.__version__, "csv_schema": CSV_SCHEMA},
        "wall_clock": {config.theorem: elapsed},
    }
    if config.out:
        write_run(config.out, report, manifest, ratios)
    return manifest, report


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
    set and choice files must be at the given resolution. An output path
    the operating system would refuse is refused before any input is read."""
    check_output_path(out_file)
    collection = read_tile_collection(collection_file, resolution)
    signal = read_signal(signal_file)
    e_set = GridSet.full(resolution) if set_file is None else read_grid_set(set_file)
    choice = ChoiceFunction.constant(resolution, 0) if choice_file is None else read_choice(choice_file)
    files = {signal_file: signal, set_file: e_set, choice_file: choice}
    check_same_grid(decomposition=collection, **{str(path): data for path, data in files.items() if path is not None})
    decomposition = full_decompose(collection, signal, e_set, choice)
    write_forests(out_file, decomposition)
    return {
        "buckets": len(decomposition.buckets),
        "trees": sum(len(b.trees) for b in decomposition.buckets.values()),
        "remainder": len(decomposition.remainder),
    }
