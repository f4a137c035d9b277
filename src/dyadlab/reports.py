"""Reports are plain dicts, written as they are by `io.json_text`; their keys
are pinned by `tests/test_reports.py`."""

from __future__ import annotations

import math


def safe_ratio(lhs: float, rhs: float) -> float:
    if rhs > 0:
        return lhs / rhs
    return 0.0 if lhs == 0 else math.inf


def ratio_report(lhs: float, rhs: float, buckets=(), **fields) -> dict:
    """Two sides of an inequality, their ratio and the per-bucket breakdowns
    where they exist, plus the caller's measured fields; a field named
    `ratio` is a TypeError, not a silent overwrite."""
    lhs, rhs = float(lhs), float(rhs)
    return dict(lhs=lhs, rhs=rhs, ratio=safe_ratio(lhs, rhs), buckets=list(buckets), **fields)
