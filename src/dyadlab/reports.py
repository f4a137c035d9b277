"""Report containers and their wire formats, which `io.json_text` encodes."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field


def safe_ratio(lhs: float, rhs: float) -> float:
    if rhs > 0:
        return lhs / rhs
    return 0.0 if lhs == 0 else math.inf


class _Report:
    """The wire format of every report: its fields by `asdict`, with `extra`
    merged into the top level."""

    def to_dict(self) -> dict:
        out = asdict(self)
        out.update(out.pop("extra"))
        return out


@dataclass
class BucketStat:
    n: int
    m: int
    sum: float
    count_bound_ratio: float


@dataclass
class RatioReport(_Report):
    """Two sides of an inequality plus per-bucket breakdowns where they exist."""

    lhs: float
    rhs: float
    ratio: float
    buckets: list[BucketStat] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_sides(cls, lhs: float, rhs: float, buckets=None, **extra) -> "RatioReport":
        return cls(
            lhs=float(lhs),
            rhs=float(rhs),
            ratio=safe_ratio(float(lhs), float(rhs)),
            buckets=list(buckets or []),
            extra=dict(extra),
        )


@dataclass
class LevelStat:
    k: int
    max_product_measure: float
    budget: float


@dataclass
class PrincipleReport(_Report):
    """Measured constants of the two-set condition and the vector conclusion."""

    p: float
    C_p: float
    B_p: float
    A_p: float
    q: float
    lhs3: float
    rhs3: float
    ratio: float
    levels: list[LevelStat] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class LadderPoint:
    log_ratio: float
    log_norm: float


@dataclass
class DecayReport(_Report):
    """Operator-norm decay along a measure-ratio ladder, with the fitted slope."""

    ratio_ladder: list[LadderPoint] = field(default_factory=list)
    slope: float = 0.0
    intercept: float = 0.0
    extra: dict = field(default_factory=dict)
