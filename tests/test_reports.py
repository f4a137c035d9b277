"""The report schema.

Every library function that returns a report returns a plain dict, built by
`reports.ratio_report` or spelled out where it is returned
(`verify_weighted_directional` returns its majorant weight with it), and
`io.json_text` writes that dict as it is.  The keys of each report are
pinned here, at L = 4, as `tests/formats/` pins the files the commands
write: a key that a change adds, drops or renames fails this test.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from dyadlab.harness import (
    maximal_operator_family,
    random_grid2d,
    random_grid_set,
    random_set2d,
    random_signal,
    random_vector,
)
from dyadlab.io import json_text
from dyadlab.reports import ratio_report

L = 4
RATIO = ["buckets", "lhs", "ratio", "rhs"]
BUCKET = ["count_bound_ratio", "m", "n", "sum"]
LADDER_POINT = ["converged", "log_norm", "log_ratio", "norm_upper", "steps"]

SCHEMA = {
    "verify_vector_maximal": [*RATIO, "family_size", "p"],
    "vector_inequality_ratio": [*RATIO, "family_size", "q"],
    "verify_vector_carleson": [*RATIO, "family_size", "p"],
    "verify_directional": [
        *RATIO, "condition_constant", "exceptional_c", "family_size", "h_kept", "localized_norm_max",
        "localized_unconverged", "measure_ratio", "norm_MSigma", "p", "q",
    ],
    "verify_weighted_directional": [
        *RATIO, "chain_constant", "duality_pairing", "family_size", "norm_MSigma", "p",
        "per_direction_constants", "q", "weight", "weighted_input", "weighted_pairing",
    ],
    "verify_biparam": [
        *RATIO, "band_reduction_gap", "c_eps", "condition_constant", "eps", "family_size", "h_kept",
        "interp_constant", "interp_exponent", "interp_theta", "localized_norms", "localized_unconverged",
        "mass_cap_ratios", "mass_threshold", "p", "restricted_ratio_p", "restricted_ratio_q",
        "scalar_model_ratio",
    ],
    "measure_condition": [
        "A_p", "B_p", "C_p", "converged", "g_kept", "h_kept", "measure_ratio", "norms", "p", "steps",
        "unconverged",
    ],
    "tree_estimate": [*RATIO, "mass", "size", "top_length"],
    "rect_tree_estimate": [*RATIO, "mass", "size", "top_area"],
    "restricted_pairing": [*RATIO, "model_majorant", "model_ratio", "surviving", "t"],
    "restricted_double_sum": [*RATIO, "classes", "h_measure_used"],
    "norm_decay_ladder": ["branch", "intercept", "ratio_ladder", "resolution", "slope", "unconverged"],
}
WEIGHT = ["excess", "norm_used", "tail_bound", "terms"]
# the reports whose buckets are filled; the other ratio reports have none
BUCKETED = {"restricted_pairing", "restricted_double_sum"}


def _verify_vector_maximal():
    from dyadlab.maximal import verify_vector_maximal

    return verify_vector_maximal(random_vector(np.random.default_rng(1), L, 3), 2.5)


def _vector_inequality_ratio():
    from dyadlab.principle import vector_inequality_ratio

    rng = np.random.default_rng(2)
    family, _ = maximal_operator_family(rng, L, 2)
    return vector_inequality_ratio(family, random_vector(rng, L, 3), 2.0)


def _verify_vector_carleson():
    from dyadlab.carleson import verify_vector_carleson

    return verify_vector_carleson(random_vector(np.random.default_rng(3), L, 2), None, 2.5)


def _plane(seed):
    from dyadlab.directional import DirectionalAverager, DirectionSet

    rng = np.random.default_rng(seed)
    fams = [random_grid2d(rng, L) for _ in range(3)]
    return fams, random_set2d(rng, L, 0.25), DirectionalAverager(L, DirectionSet.uniform(8))


def _verify_directional():
    from dyadlab.directional import verify_directional

    fams, _, averager = _plane(4)
    return verify_directional(fams, averager, 2.5, 2.0, averager.estimate_norm(2.0, seed=4), seed=4)


def _verify_weighted_directional():
    from dyadlab.directional import verify_weighted_directional

    fams, _, averager = _plane(5)
    return verify_weighted_directional(fams, averager, 2.0, averager.estimate_norm(2.0, seed=5))[0]


def _verify_biparam():
    from dyadlab.biparam import verify_biparam

    fams, g, _ = _plane(6)
    return verify_biparam(fams, 3.0, g, eps=0.45, seed=6)


def _measure_condition():
    from dyadlab.principle import measure_condition, trim_builder

    rng = np.random.default_rng(7)
    family, _ = maximal_operator_family(rng, L, 2)
    h, g = random_grid_set(rng, L), random_grid_set(rng, L)
    return measure_condition(family, h, g, trim_builder(4.0, "h"), 2.5)


def _tree_estimate():
    from dyadlab.tiles import ChoiceFunction, TileCollection, full_decompose, tree_estimate

    rng = np.random.default_rng(8)
    f = random_signal(rng, L, complex_values=True)
    e = random_grid_set(rng, L)
    choice = ChoiceFunction(L, rng.integers(0, 1 << L, size=1 << L))
    buckets = full_decompose(TileCollection.all(L), f, e, choice).buckets
    tree = next(tree for bucket in buckets.values() for tree in bucket.trees)
    return tree_estimate(tree, f, e, choice)


def _rect_tree_estimate():
    from dyadlab.biparam import RectCollection, rect_full_decompose, rect_tree_estimate

    rng = np.random.default_rng(9)
    f, g = random_grid2d(rng, L), random_grid2d(rng, L)
    h_prime, f_set, g_set = (random_set2d(rng, L, 0.7) for _ in range(3))
    buckets = rect_full_decompose(RectCollection.all_at_scale(L, 1), f, h_prime, f_set, g_set).buckets
    tree = next(tree for bucket in buckets.values() for tree in bucket.trees)
    return rect_tree_estimate(tree, f, g, h_prime, g_set)


def _restricted_pairing():
    from dyadlab.carleson import RestrictedOp, restricted_pairing
    from dyadlab.grid import GridSet, GridSignal
    from dyadlab.maximal import exceptional_complement
    from dyadlab.tiles import ChoiceFunction, TileCollection

    rng = np.random.default_rng(10)
    e_set, f_set, g_set = (random_grid_set(rng, L) for _ in range(3))
    h_prime = exceptional_complement(GridSet.full(L), g_set, 4.0)
    choice = ChoiceFunction(L, rng.integers(0, 1 << L, size=1 << L))
    op = RestrictedOp(g_set, h_prime, choice, TileCollection.all(L))
    f, g = GridSignal.indicator(L, e_set), GridSignal.indicator(L, f_set)
    return restricted_pairing(f, g, e_set, f_set, op, t=2.5)


def _restricted_double_sum():
    from dyadlab.harness import random_scale_choice
    from dyadlab.maximal import exceptional_complement, restricted_double_sum

    rng = np.random.default_rng(11)
    e, f_set, h, g = (random_grid_set(rng, L) for _ in range(4))
    h_prime = exceptional_complement(h, g, 4.0)
    return restricted_double_sum(e, f_set, h_prime, g, random_scale_choice(rng, L), 2.0, h=h)


def _norm_decay_ladder():
    from dyadlab.carleson import norm_decay_ladder

    return norm_decay_ladder(L, [0.5, 0.25], seed=12)


CASES = {
    "verify_vector_maximal": _verify_vector_maximal,
    "vector_inequality_ratio": _vector_inequality_ratio,
    "verify_vector_carleson": _verify_vector_carleson,
    "verify_directional": _verify_directional,
    "verify_weighted_directional": _verify_weighted_directional,
    "verify_biparam": _verify_biparam,
    "measure_condition": _measure_condition,
    "tree_estimate": _tree_estimate,
    "rect_tree_estimate": _rect_tree_estimate,
    "restricted_pairing": _restricted_pairing,
    "restricted_double_sum": _restricted_double_sum,
    "norm_decay_ladder": _norm_decay_ladder,
}


@pytest.mark.parametrize("name", sorted(SCHEMA))
def test_report_is_the_dict_written(name):
    report = CASES[name]()
    assert type(report) is dict
    assert json.loads(json_text(report)) == report
    assert sorted(report) == sorted(SCHEMA[name])
    assert bool(report.get("buckets")) == (name in BUCKETED)
    for bucket in report.get("buckets", []):
        assert sorted(bucket) == BUCKET
    for point in report.get("ratio_ladder", []):
        assert sorted(point) == LADDER_POINT
    if "weight" in report:
        assert sorted(report["weight"]) == WEIGHT


class TestRatioReport:
    def test_positive_rhs(self):
        report = ratio_report(3, np.float64(2.0), p=2.5)
        assert report == {"lhs": 3.0, "rhs": 2.0, "ratio": 1.5, "buckets": [], "p": 2.5}
        assert type(report["lhs"]) is float and type(report["rhs"]) is float

    def test_zero_over_zero_is_zero(self):
        assert ratio_report(0.0, 0.0)["ratio"] == 0.0

    def test_positive_over_zero_is_infinite(self):
        assert ratio_report(1.0, 0.0)["ratio"] == math.inf

    def test_a_field_cannot_replace_the_ratio(self):
        with pytest.raises(TypeError):
            ratio_report(1.0, 2.0, ratio=3.0)

    def test_buckets_become_a_list(self):
        bucket = {"n": 0, "m": 1, "sum": 0.5, "count_bound_ratio": 0.25}
        assert ratio_report(1.0, 2.0, buckets=(bucket,))["buckets"] == [bucket]
