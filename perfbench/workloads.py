"""The benchmark's workloads: seed-determined inputs, the cyclic op list, and
the postcondition and output digest of every op.

An op is one call into dyadlab that returns a checked result. `Op.call`
is the timed call; `Op.check` runs after it, raises `OpFailed` when a
postcondition fails and returns the digest of the op's output. Ops run in
whole rounds of `round_size`, the unit whose mix of ops is fixed; a run is
`rounds` rounds, about 25 s on the 2-core Xeon host the benchmark was
written on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DECAY_SLOPE_GATE = 0.4  # acceptance criterion 9 of the test suite
THEOREMS = ("fs", "biparam", "cordoba", "cordoba-weighted", "carleson", "principle")


class OpFailed(Exception):
    """An op returned, but its result broke a postcondition."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_cli(argv: list[str]) -> int:
    """dyadlab.cli.main with its console output swallowed; looks `main` up on
    the module at call time so tracing wrappers apply."""
    from dyadlab import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        raise OpFailed(f"exit status {status}: {err.getvalue().strip()[-200:]}")
    return status


class Workload:
    name = ""
    round_size = 1
    rounds = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.ops: list[Op] = []

    def setup(self) -> None:
        """Build every input and the op list; repeatable, same seed gives the
        same inputs."""
        raise NotImplementedError

    def warmup(self) -> None:
        """One small untimed call that loads the code paths the ops use."""


class Decay(Workload):
    """`estimate-22` ladder at the CLI's default resolution 6: one op is one
    `carleson.norm_decay_point` call; a round is one ladder 2^-1 .. 2^-6 on
    both branches, with small sets drawn afresh per ladder, and the fitted
    log-log slope of each branch must pass the criterion-9 gate."""

    name = "decay"
    rounds = 4
    LIST_ROUNDS = 8  # distinct ladders in the op list, then it repeats

    def setup(self) -> None:
        from dyadlab.grid import GridSet
        from dyadlab.tiles import TileCollection

        L, ladder = (4, 3) if self.tiny else (6, 6)
        n = 1 << L
        self.collection = TileCollection.all(L)
        rng = np.random.default_rng([self.seed, 22])
        big = GridSet.full(L)
        self.ops = []
        self.ladder: dict[str, list[tuple[float, float]]] = {"h": [], "g": []}
        for r in range(self.LIST_ROUNDS):
            for i in range(1, ladder + 1):
                for branch in ("h", "g"):
                    mask = np.zeros(n, dtype=bool)
                    mask[rng.choice(n, size=max(1, round(2.0**-i * n)), replace=False)] = True
                    small = GridSet(L, mask)
                    h, g = (big, small) if branch == "h" else (small, big)
                    point_seed = 1000 * self.seed + 50 * r + 7 * i + (0 if branch == "h" else 3)
                    self.ops.append(
                        Op(
                            f"decay:{branch}:2^-{i}",
                            self._caller(h, g, point_seed, branch),
                            self._checker(branch, first=i == 1, last=i == ladder),
                        )
                    )
        self.round_size = 2 * ladder

    def _caller(self, h, g, point_seed: int, branch: str):
        from dyadlab import carleson

        def call():
            return carleson.norm_decay_point(h, g, self.collection, seed=point_seed, branch=branch)

        return call

    def _checker(self, branch: str, first: bool, last: bool):
        def check(point) -> str:
            if first:
                self.ladder[branch] = []
            norm = point["norm"]
            if not math.isfinite(norm) or norm <= 0.0:
                raise OpFailed(f"norm {norm!r} is not finite and positive")
            points = self.ladder[branch]
            points.append((math.log2(point["ratio"]), math.log2(norm)))
            if last:
                slope = ladder_slope(points)
                if not slope >= DECAY_SLOPE_GATE:
                    raise OpFailed(f"branch {branch} slope {slope:.4f} below {DECAY_SLOPE_GATE}")
            return digest(repr(norm).encode())

        return check

    def warmup(self) -> None:
        from dyadlab.carleson import norm_decay_point
        from dyadlab.grid import GridSet
        from dyadlab.tiles import TileCollection

        mask = np.zeros(16, dtype=bool)
        mask[:4] = True
        norm_decay_point(GridSet.full(4), GridSet(4, mask), TileCollection.all(4), iters=5)


def ladder_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log2 norm against log2 measure ratio."""
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, _), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(slope)


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text(header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))


class Decompose(Workload):
    """`dyadlab decompose` of the full tile collections at two resolutions;
    one op is one in-process CLI call, and half the ops also pass a random
    set file and choice file. A round is six ops, L = 7, 7, 8 twice."""

    name = "decompose"
    rounds = 2

    def setup(self) -> None:
        resolutions = (3, 3, 4) if self.tiny else (7, 7, 8)
        pattern = resolutions * (2 if self.tiny else 4)
        inputs = self.workdir / "inputs"
        if inputs.exists():
            shutil.rmtree(inputs)
        inputs.mkdir(parents=True)
        rng = np.random.default_rng([self.seed, 33])
        for L in sorted(set(pattern)):
            rows = (
                (k, m, q)
                for k in range(L)
                for m in range(1 << k)
                for q in range(1 << (L - k - 1))
            )
            _write_csv(inputs / f"tiles{L}.csv", "k,n,freq_offset", rows)
        self.ops = []
        for j, L in enumerate(pattern):
            n = 1 << L
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            signal = inputs / f"signal{j}.csv"
            _write_csv(
                signal,
                "index,re,im",
                ((i, repr(float(v.real)), repr(float(v.imag))) for i, v in enumerate(values)),
            )
            argv = ["decompose", str(inputs / f"tiles{L}.csv"), str(signal), "--resolution", str(L)]
            if j % 2:
                set_file, choice_file = inputs / f"set{j}.csv", inputs / f"choice{j}.csv"
                members = rng.random(n) < 0.5
                members[rng.integers(n)] = True
                _write_csv(set_file, "index,member", enumerate(members.astype(int)))
                _write_csv(choice_file, "index,freq", enumerate(rng.integers(0, n, size=n)))
                argv += ["--set-file", str(set_file), "--choice-file", str(choice_file)]
            out = self.workdir / f"forest{j}.csv"
            argv += ["--out", str(out)]
            with_files = "+files" if j % 2 else ""
            self.ops.append(Op(f"decompose:L{L}{with_files}", _cli_call(argv), _file_digest(out)))
        self.round_size = len(self.ops) // 2

    def warmup(self) -> None:
        from dyadlab import io as dio  # noqa: F401  (loads the CSV readers)


class Verify(Workload):
    """`dyadlab verify` over the six theorems in a fixed rotation, two trials
    each, with a different seed per op; a round is one rotation."""

    name = "verify"
    rounds = 6
    LIST_ROUNDS = 10  # the op list holds this many rotations, then repeats

    def setup(self) -> None:
        fine, coarse = (4, 4) if self.tiny else (8, 5)
        out = self.workdir / "report"
        self.ops = []
        for r in range(self.LIST_ROUNDS):
            for t, theorem in enumerate(THEOREMS):
                index = r * len(THEOREMS) + t
                L = fine if theorem in ("fs", "carleson", "principle") else coarse
                argv = [
                    "verify", theorem,
                    "--resolution", str(L),
                    "--trials", "2",
                    "--seed", str(1000 * self.seed + index),
                    "--out", str(out),
                ]  # fmt: skip
                if theorem == "biparam":
                    # at the default 0.1 the certified threshold exceeds 1, the
                    # exceptional set is empty and no rectangle level set runs
                    argv += ["--epsilon", "0.45"]
                self.ops.append(
                    Op(f"verify:{theorem}:L{L}", _cli_call(argv), _file_digest(out / "report.json"))
                )
        self.round_size = len(THEOREMS)

    def warmup(self) -> None:
        from dyadlab import biparam, directional  # noqa: F401  (lazily imported by the CLI)


def _cli_call(argv: list[str]):
    return lambda: run_cli(argv)


def _file_digest(path: Path):
    return lambda _status: digest(path.read_bytes())


WORKLOADS = {w.name: w for w in (Decay, Decompose, Verify)}
