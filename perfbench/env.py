"""Process set-up shared by the benchmark's scripts, and the environment
stamp written into every result file.

`bootstrap()` must run before numpy is imported: it caps the BLAS/OpenMP
thread pools at one thread and puts the checkout's `src/` first on the
import path, so the benchmark measures the source tree it sits in.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class MissingSource(RuntimeError):
    """The checkout holds no dyadlab source tree to measure."""


def bootstrap() -> None:
    os.environ.update(THREAD_CAPS)
    if not (SRC / "dyadlab" / "__init__.py").is_file():
        raise MissingSource(f"no dyadlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dyadlab

    if Path(dyadlab.__file__).resolve().parent != SRC / "dyadlab":
        raise MissingSource(f"dyadlab imported from {dyadlab.__file__}, not {SRC}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> dict:
    """HEAD of the checkout and whether its tree is dirty; null outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"sha": None, "dirty": None}
        status = git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def stamp() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": git_revision(),
        "thread_caps": {name: os.environ.get(name) for name in THREAD_CAPS},
    }
