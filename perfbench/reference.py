"""Host speed reference: a fixed kernel timed between ops.

On a shared host the speed of one core changes by up to a factor of two
within seconds, and CPU time moves with wall time. The benchmark therefore
times `kernel()` before and after every op and every set-up probe, and
scales each measured wall time by `NOMINAL_S / (mean of the two kernel
times)`: the time the op would have taken on a host that runs the kernel in
`NOMINAL_S`. The kernel is the benchmark's own code, so no change to
dyadlab moves it. It mixes the kinds of work dyadlab does: a pure-Python
loop, dict and tuple work, and numpy calls on small arrays.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-core Xeon host the benchmark was written on.
NOMINAL_S = 0.03


def _butterfly() -> None:
    data = np.linspace(-1.0, 1.0, 256)
    for _ in range(150):
        out = data.copy()
        h = 1
        while h < 256:
            pairs = out.reshape(-1, 2 * h)
            low = pairs[:, :h].copy()
            pairs[:, :h] += pairs[:, h:]
            pairs[:, h:] = low - pairs[:, h:]
            h *= 2


def _interpreter() -> int:
    acc = 0
    for i in range(120_000):
        acc += (i * i) % 7
    return acc


def _mixed() -> None:
    counts: dict[tuple[int, int], int] = {}
    for i in range(20_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    x = np.arange(64.0)
    for _ in range(600):
        x = np.maximum(x[::-1], x) * 0.5


def kernel() -> float:
    """Run the reference kernel once and return its wall time."""
    start = time.perf_counter()
    _butterfly()
    _interpreter()
    _mixed()
    return time.perf_counter() - start


def scale(wall_s: float, before_s: float, after_s: float) -> float:
    """`wall_s` at the reference speed, from the kernel times around it."""
    return wall_s * NOMINAL_S * 2.0 / (before_s + after_s)
