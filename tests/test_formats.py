"""The bytes of every file format, compared with files recorded once.

From fixed inputs, this writes the six CSV formats of `dyadlab.io`, the
`report.json`, `manifest.json` and `trials.csv` of `dyadlab verify`, the
`report.json` of `dyadlab estimate-22` and the forest CSV of `dyadlab
decompose`, and compares each byte for byte with its file under
`tests/formats/`. The verify runner and the decay ladder are replaced by
fixed results, so that those files pin the encoding and not the numbers,
which `test_golden.py` pins; the manifest's wall clock and version strings
are fixed too. A change that moves a byte on purpose re-records the files
and says why:

    PYTHONPATH=src python tests/test_formats.py --record
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

FORMATS = Path(__file__).parent / "formats"
FILES = [
    "signal.csv",
    "set.csv",
    "tiles.csv",
    "choice.csv",
    "plane.csv",
    "directions.csv",
    "forest.csv",
    "verify/report.json",
    "verify/manifest.json",
    "verify/trials.csv",
    "estimate-22/report.json",
]


def _fixed_run(config, gens):
    """A verify runner's fields, trial ratios and certificates, fixed: the
    ratios a third, a negative zero and a float that prints with an
    exponent, and one holding certificate of each kind."""
    from dyadlab.reports import certificate

    certificates = [
        certificate("at_bound", 1.0, 1.0, "theorem"),
        certificate("count", 0, 0, "postcondition"),
        certificate("at_least", 0.5, 1 / 3, "heuristic", ">="),
    ]
    fields = {"p": config.p, "family_size": config.family_size, "max_baseline_ratio": 0.1}
    return fields, [1 / 3, -0.0, 1e300], certificates


def _fixed_ladder(resolution, ratios, seed, branch):
    points = [{"log_ratio": -float(i), "log_norm": 1 / 3 - 0.5 * i} for i in range(1, len(ratios) + 1)]
    return {
        "ratio_ladder": points,
        "slope": 0.5,
        "intercept": 1 / 3,
        "branch": branch,
        "resolution": resolution,
        "unconverged": 0,
    }


def write_formats(out: Path) -> None:
    """Write every file of `FILES` under `out`."""
    import dyadlab.carleson as carleson
    import dyadlab.harness as harness
    from dyadlab.cli import main
    from dyadlab.directional import Direction, DirectionSet
    from dyadlab.grid import Grid2D, GridSet, GridSignal
    from dyadlab.io import (
        write_choice,
        write_directions,
        write_grid2d,
        write_grid_set,
        write_signal,
        write_tile_collection,
    )
    from dyadlab.tiles import ChoiceFunction, TileCollection

    L = 3
    values = np.array([1, -2 + 0.5j, 0.25, complex(-0.0, -1), 3, 0.125, -1.5j, 2])
    write_signal(out / "signal.csv", GridSignal(L, values))
    write_grid_set(out / "set.csv", GridSet(L, np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=bool)))
    write_tile_collection(out / "tiles.csv", TileCollection.all(L))
    write_choice(out / "choice.csv", ChoiceFunction(L, np.array([0, 5, 3, 7, 1, 1, 6, 2])))
    write_grid2d(out / "plane.csv", Grid2D(1, np.array([[1, complex(-0.0, 0.5)], [0.1, -2j]])))
    directions = DirectionSet((Direction(1.0, 0.0), Direction(0.6, 0.8), Direction(0.0, -1.0)))
    write_directions(out / "directions.csv", directions)
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        # relative paths, so that the manifest records the same --out anywhere
        mp.chdir(out)
        decompose = ["decompose", "tiles.csv", "signal.csv", "--resolution", str(L)]
        assert main(decompose + ["--set-file", "set.csv", "--choice-file", "choice.csv", "--out", "forest.csv"]) == 0
        mp.setitem(harness.THEOREMS, "fs", harness.THEOREMS["fs"]._replace(run=_fixed_run))
        mp.setattr(harness, "time", types.SimpleNamespace(perf_counter=iter([10.0, 10.25]).__next__))
        mp.setattr(harness, "__version__", "0.0.0")
        mp.setattr(np, "__version__", "0.0.0")
        assert main(["verify", "fs", "--trials", "3", "--seed", "5", "--out", "verify"]) == 0
        mp.setattr(carleson, "norm_decay_ladder", _fixed_ladder)
        assert main(["estimate-22", "--resolution", "4", "--ladder", "3", "--out", "estimate-22"]) == 0


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("formats")
    write_formats(out)
    return out


@pytest.mark.parametrize("name", FILES)
def test_file_bytes(written, name):
    assert (written / name).read_bytes() == (FORMATS / name).read_bytes()


def test_no_other_file(written):
    assert sorted(p.relative_to(written).as_posix() for p in written.rglob("*") if p.is_file()) == sorted(FILES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_formats.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        write_formats(Path(tmp))
        for name in FILES:
            (FORMATS / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / name, FORMATS / name)
            print(f"recorded {name}")
