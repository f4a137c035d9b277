"""Golden reports, compared byte for byte.

Each case runs a fixed, small configuration and serializes its report with
`dyadlab.io.json_text`, the encoding of every report file; the bytes must
equal the file under `tests/golden/`.  The CLI cases are the `report.json` files that
`dyadlab verify` and `dyadlab estimate-22` write, and the forest CSV that
`dyadlab decompose` writes for fixed input files; the library cases keep the
whole report of the plane pipelines, which the CLI reports reduce to a
maximum, and the buckets of the rectangle decomposition and of the
restricted pairing, which no CLI report shows.

A golden is only meaningful on the numpy it was recorded with (FFT and
reduction kernels may round differently elsewhere), so `recorded_with.json`
stores that version per file and a case skips when the installed numpy
differs.  The goldens are recorded under OpenBLAS's Haswell kernel, which
`tests/conftest.py` pins before numpy loads: the SkylakeX kernel of
AVX-512 hosts rounds the decay fits' `lstsq` and the dense line norms'
SVD differently.  A change that moves a number on purpose re-records the
files, under the same kernel, and says which numbers moved and why:

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_golden.py --record [name ...]
"""

from __future__ import annotations

import builtins
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "golden"

_BASE = ["--resolution", "4", "--trials", "2", "--seed", "0"]
CLI_CASES = {
    "verify-fs": ["verify", "fs", *_BASE],
    "verify-biparam": ["verify", "biparam", *_BASE, "--epsilon", "0.45"],
    "verify-cordoba": ["verify", "cordoba", *_BASE],
    "verify-cordoba-weighted": ["verify", "cordoba-weighted", *_BASE],
    "verify-carleson": ["verify", "carleson", *_BASE],
    "verify-principle": ["verify", "principle", *_BASE],
    "estimate-22": ["estimate-22", "--resolution", "5", "--ladder", "3", "--seed", "3"],
    # the benchmark's decay configuration (L=6), the largest resolution of
    # the dense norms (L=7, carleson.DENSE_RESOLUTION), a deeper ladder at
    # L=8, the first of the Krylov engine, and the full ladder at L=10, the
    # first resolution whose greedy choice runs in chunks
    "estimate-22-L6": ["estimate-22", "--resolution", "6", "--seed", "1"],
    "estimate-22-L7": ["estimate-22", "--resolution", "7", "--seed", "1"],
    "estimate-22-L8": ["estimate-22", "--resolution", "8", "--ladder", "4", "--seed", "1"],
    "estimate-22-L10": ["estimate-22", "--resolution", "10", "--seed", "1"],
}


def _cli_report(argv: list[str]) -> str:
    from dyadlab.cli import main

    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            status = main([*argv, "--out", out])
        if status != 0:
            raise AssertionError(f"{argv} exited with status {status}")
        return (Path(out) / "report.json").read_text()


def _decompose_forest(resolution: int, signal, e_set=None, choice=None) -> str:
    """The forest CSV of `dyadlab decompose` of every bi-tile at the given
    resolution against the signal, and the set and choice when given, each
    written to a CSV file first."""
    from dyadlab.cli import main
    from dyadlab.io import write_choice, write_grid_set, write_signal, write_tile_collection
    from dyadlab.tiles import TileCollection

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_tile_collection(d / "tiles.csv", TileCollection.all(resolution))
        write_signal(d / "signal.csv", signal)
        argv = ["decompose", str(d / "tiles.csv"), str(d / "signal.csv"), "--resolution", str(resolution)]
        if e_set is not None:
            write_grid_set(d / "set.csv", e_set)
            write_choice(d / "choice.csv", choice)
            argv += ["--set-file", str(d / "set.csv"), "--choice-file", str(d / "choice.csv")]
        argv += ["--out", str(d / "forest.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
        if status != 0:
            raise AssertionError(f"decompose exited with status {status}")
        return (d / "forest.csv").read_text()


def _decompose_csv() -> str:
    """`dyadlab decompose` at L=5 against a fixed signal, set and choice."""
    from dyadlab.harness import random_grid_set, random_signal
    from oracles import random_choice

    rng = np.random.default_rng(71)
    signal = random_signal(rng, 5, complex_values=True)
    e_set = random_grid_set(rng, 5)
    return _decompose_forest(5, signal, e_set, random_choice(rng, 5))


def _decompose_benchmark_shape(resolution: int, seed: int, files: bool) -> str:
    """`dyadlab decompose` in the shape of the decompose benchmark's ops: a
    complex Gaussian signal in the cell basis and, with files, a set holding
    each cell with probability 1/2 and a uniformly random choice."""
    from dyadlab.grid import GridSet, GridSignal
    from dyadlab.tiles import ChoiceFunction

    rng = np.random.default_rng(seed)
    n = 1 << resolution
    signal = GridSignal(resolution, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if not files:
        return _decompose_forest(resolution, signal)
    e_set = GridSet(resolution, rng.random(n) < 0.5)
    return _decompose_forest(resolution, signal, e_set, ChoiceFunction(resolution, rng.integers(0, n, size=n)))


def _plane_inputs(resolution: int, seed: int):
    from dyadlab.harness import random_grid2d, random_set2d

    rng = np.random.default_rng(seed)
    fams = [random_grid2d(rng, resolution) for _ in range(4)]
    return fams, random_set2d(rng, resolution, 0.25)


def _directional(resolution: int) -> dict:
    from dyadlab.directional import DirectionalAverager, DirectionSet, verify_directional

    fams, _ = _plane_inputs(resolution, 61)
    averager = DirectionalAverager(resolution, DirectionSet.uniform(8))
    norm = averager.estimate_norm(2.0, seed=5)
    return verify_directional(fams, averager, q=2.5, p=2.0, norm=norm, seed=5)


def _weighted_directional() -> dict:
    from dyadlab.directional import DirectionalAverager, DirectionSet, verify_weighted_directional

    fams, _ = _plane_inputs(4, 62)
    averager = DirectionalAverager(4, DirectionSet.uniform(8))
    return verify_weighted_directional(fams, averager, p=2.0, norm=averager.estimate_norm(2.0, seed=6))[0]


def _biparam() -> dict:
    from dyadlab.biparam import verify_biparam

    fams, g = _plane_inputs(4, 63)
    return verify_biparam(fams, p=3.0, eps=0.45, seed=7, g=g)


def _rect_decompose(resolution: int) -> dict:
    """`rect_full_decompose` at the resolution for every vertical scale, for
    a random signal and for the indicator of a sparse set (whose zero
    coefficients leave a remainder): per bucket the key, the tops
    (kx, nx, ny), the member counts, the count ratio and both caps, and the
    remainder size."""
    from dyadlab.biparam import RectCollection, rect_full_decompose
    from dyadlab.grid import Grid2D
    from dyadlab.harness import random_grid2d, random_set2d

    L = resolution
    rng = np.random.default_rng(64)
    f = random_grid2d(rng, L)
    sets = [random_set2d(rng, L, density) for density in (0.7, 0.4, 0.5)]
    rng = np.random.default_rng(65)
    e_set, *sparse_sets = (random_set2d(rng, L, d) for d in (0.05, 0.5, 0.1, 0.3))
    out = {}
    for name, signal, (h_prime, f_set, g_set) in (
        ("signal", f, sets),
        ("indicator", Grid2D(L, e_set.mask), sparse_sets),
    ):
        for j in range(L):
            collection = RectCollection.all_at_scale(L, j).restrict_to_meeting(h_prime)
            decomposition = rect_full_decompose(collection, signal, h_prime, f_set, g_set)
            buckets = []
            for (n, m), bucket in decomposition.buckets.items():
                buckets.append({
                    "key": [n, m],
                    "tops": [
                        [t.top.horizontal.scale, t.top.horizontal.offset, t.top.vertical.offset]
                        for t in bucket.trees
                    ],
                    "members": [len(t.members) for t in bucket.trees],
                    "count_ratio": repr(bucket.count_ratio),
                    "size_cap": repr(bucket.size_cap),
                    "mass_cap": repr(bucket.mass_cap),
                })
            out[f"{name} vscale {j}"] = {
                "buckets": buckets,
                "remainder": len(decomposition.remainder),
            }
    return out


def _restricted_pairing() -> dict:
    """`restricted_pairing` at L=5 with every bi-tile, a carved H' and a
    random choice; its buckets come from `full_decompose`."""
    from dyadlab.carleson import RestrictedOp, restricted_pairing
    from dyadlab.grid import GridSet, GridSignal
    from dyadlab.harness import random_grid_set
    from oracles import random_choice
    from dyadlab.maximal import exceptional_complement
    from dyadlab.tiles import TileCollection

    rng = np.random.default_rng(72)
    e_set, f_set, g_set = (random_grid_set(rng, 5) for _ in range(3))
    h_prime = exceptional_complement(GridSet.full(5), g_set, 4.0)
    op = RestrictedOp(g_set, h_prime, random_choice(rng, 5), TileCollection.all(5))
    f = GridSignal.indicator(5, e_set)
    g = GridSignal.indicator(5, f_set)
    return restricted_pairing(f, g, e_set, f_set, op, t=2.5)


LIBRARY_CASES = {
    "lib-directional": lambda: _directional(4),
    "lib-directional-L5": lambda: _directional(5),
    "lib-weighted-directional": _weighted_directional,
    "lib-biparam": _biparam,
    "lib-rect-decompose": lambda: _rect_decompose(4),
    "lib-rect-decompose-L6": lambda: _rect_decompose(6),
    "lib-restricted-pairing": _restricted_pairing,
    "decompose": _decompose_csv,
    # the decompose benchmark's two shapes: the full collection at L=8 with a
    # set file and a choice file, and at L=7 without them; and the L=8 shape
    # at L=10, whose size table holds 28,160 entries
    "decompose-L8": lambda: _decompose_benchmark_shape(8, 81, files=True),
    "decompose-L7": lambda: _decompose_benchmark_shape(7, 82, files=False),
    "decompose-L10": lambda: _decompose_benchmark_shape(10, 83, files=True),
}
TEXT_CASES = {"decompose", "decompose-L8", "decompose-L7", "decompose-L10"}


def golden_path(name: str) -> Path:
    return GOLDEN / (f"{name}.csv" if name in TEXT_CASES else f"{name}.json")


def produce(name: str) -> str:
    if name in CLI_CASES:
        return _cli_report(CLI_CASES[name])
    if name in TEXT_CASES:
        return LIBRARY_CASES[name]()
    from dyadlab.io import json_text

    return json_text(LIBRARY_CASES[name]())


def _recorded_with() -> dict:
    path = GOLDEN / "recorded_with.json"
    return json.loads(path.read_text()) if path.exists() else {}


@pytest.mark.parametrize("name", [*CLI_CASES, *LIBRARY_CASES])
def test_golden_report(name):
    recorded = _recorded_with().get(name)
    if recorded is None:
        pytest.fail(f"no golden recorded for {name}")
    if recorded != np.__version__:
        pytest.skip(f"golden recorded with numpy {recorded}, installed numpy is {np.__version__}")
    assert produce(name) == golden_path(name).read_text()


def compensated_sum(iterable, /, start=0):
    """The builtin `sum` as CPython 3.12 computes it (gh-100425): a run of
    ints from an int start is added exactly; from the first float on, exact
    floats are added with Neumaier's compensation, ints that fit a C long
    are added to the sum uncompensated, and the compensation is added once
    at the end, or before the first other item, when it is finite and
    nonzero; every other item goes through `+`."""
    items, result = iter(iterable), start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
            else:
                result = (total + c if c and math.isfinite(c) else total) + item
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for item in items:
        result = result + item
    return result


def test_compensated_sum_is_python_312s():
    # 3.11 adds these left to right to 0.9999999999999999 and 0.0
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert compensated_sum([math.inf, 1.0]) == math.inf
    assert compensated_sum([1, True, 2]) == 4 and type(compensated_sum([1, 2.5])) is float
    if sys.version_info >= (3, 12):
        values = np.random.default_rng(0).standard_normal(1000).tolist()
        assert compensated_sum(values) == sum(values)


@pytest.mark.parametrize("name", [*CLI_CASES, *LIBRARY_CASES])
def test_golden_report_under_compensated_sum(name, monkeypatch):
    # the bytes of a report do not depend on the interpreter's `sum`
    recorded = _recorded_with().get(name)
    if recorded != np.__version__:
        pytest.skip(f"golden recorded with numpy {recorded}, installed numpy is {np.__version__}")
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert produce(name) == golden_path(name).read_text()


# the sha256 digests (first 16 hex digits) of the verify goldens as recorded
# before reports carried `certificates`: with that key removed, each golden
# must still encode to those bytes, so the certificates moved no other
# field; a change that moves a verify number on purpose records its digest
BEFORE_CERTIFICATES = {
    "verify-fs": "38c6c6c3f9cc7ea5",
    "verify-biparam": "a84585807eccef72",
    "verify-cordoba": "4516575f8805c0b7",
    "verify-cordoba-weighted": "25d6b0f1748964ad",
    "verify-carleson": "fb331cfac97c7417",
    "verify-principle": "799b52e989011352",
}


@pytest.mark.parametrize("name", BEFORE_CERTIFICATES)
def test_verify_golden_differs_by_certificates_alone(name):
    from dyadlab.io import json_text

    report = json.loads(golden_path(name).read_text())
    assert report.pop("certificates")[0]["name"] == "nonfinite_ratios"
    assert hashlib.sha256(json_text(report).encode()).hexdigest()[:16] == BEFORE_CERTIFICATES[name]


# the Thm 7.1 ratio that the estimate-22 goldens carried in a `thm71` block,
# per (resolution, seed) of their configurations: estimate-22 measured it on
# the family of `verify carleson --trials 1`, which now alone reports it
THM71_RATIOS = {
    (5, 3): 1.3637216544799298,
    (6, 1): 1.3462335099106166,
    (7, 1): 1.3940421031015295,
    (8, 1): 1.4356435663025913,
    (10, 1): 1.4841150294711971,
}


@pytest.mark.parametrize("resolution, seed", THM71_RATIOS)
def test_verify_carleson_measures_the_estimate22_thm71_ratio(resolution, seed):
    recorded = _recorded_with().get("estimate-22")
    if recorded != np.__version__:
        pytest.skip(f"ratios recorded with numpy {recorded}, installed numpy is {np.__version__}")
    argv = ["verify", "carleson", "--resolution", str(resolution), "--trials", "1", "--seed", str(seed)]
    assert json.loads(_cli_report(argv))["max_ratio"] == THM71_RATIOS[resolution, seed]


def record(names: list[str]) -> None:
    GOLDEN.mkdir(exist_ok=True)
    versions = _recorded_with()
    for name in names:
        golden_path(name).write_text(produce(name))
        versions[name] = np.__version__
        print(f"recorded {name}")
    (GOLDEN / "recorded_with.json").write_text(json.dumps(versions, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    if not args or args[0] != "--record":
        raise SystemExit("usage: OPENBLAS_CORETYPE=Haswell python tests/test_golden.py --record [name ...]")
    if os.environ.get("OPENBLAS_CORETYPE") != "Haswell":
        raise SystemExit("record the goldens under OPENBLAS_CORETYPE=Haswell, the kernel tests/conftest.py pins")
    record(args[1:] or [*CLI_CASES, *LIBRARY_CASES])
