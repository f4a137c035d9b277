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


def certificate(name: str, value, bound, kind: str, comparison: str = "<=") -> dict:
    """One named check of a run: whether `value` stands in `comparison`
    (`<=` or `>=`) to `bound`, compared as given, with no tolerance, so a
    NaN never holds and any slack is written into the bound. `kind` says
    what the bound is: a `theorem` of the paper, a `postcondition` the
    construction guarantees, or a `heuristic`."""
    holds = {"<=": value <= bound, ">=": value >= bound}[comparison]
    return {"name": name, "value": value, "bound": bound, "kind": kind, "holds": bool(holds)}
