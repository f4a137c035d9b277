"""Finite dyadic and Walsh models for maximal, multiplier and Carleson-type
operators, with measured-constant verification experiments."""

__version__ = "0.1.0"

from .grid import (
    DyadicInterval,
    GridSet,
    GridSignal,
    VectorSignal,
    all_intervals,
    bundle_norm,
    inner_product,
    interval_cutoff,
    lp_norm,
    measure,
)

__all__ = [
    "DyadicInterval",
    "GridSet",
    "GridSignal",
    "VectorSignal",
    "all_intervals",
    "bundle_norm",
    "inner_product",
    "interval_cutoff",
    "lp_norm",
    "measure",
    "__version__",
]
