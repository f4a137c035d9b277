"""Certificates: the named checks whose conjunction is a run's outcome.

`reports.certificate` compares a value with its bound exactly. Each
`verify` theorem and `estimate-22` has a fixed list of certificate names,
pinned here and in README's tables. For each certificate, a mutant that
moves the value its runner sees just past the bound exits 1 and names that
certificate on stderr, and the same mutant exactly at the bound exits 0.
"""

from __future__ import annotations

import importlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from dyadlab.cli import main
from dyadlab.reports import certificate

README = Path(__file__).parents[1] / "README.md"

# the certificates of each command, in report order, as (name, kind); a
# name ending in [i] comes once per trial, one ending in [branch] once per
# branch
CERTIFICATES = {
    "verify fs": [("nonfinite_ratios", "postcondition")],
    "verify biparam": [
        ("nonfinite_ratios", "postcondition"),
        ("mass_cap_ratio", "postcondition"),
        ("h_kept", "postcondition"),
        ("localized_unconverged", "postcondition"),
    ],
    "verify cordoba": [
        ("nonfinite_ratios", "postcondition"),
        ("h_kept", "postcondition"),
        ("localized_unconverged", "postcondition"),
    ],
    "verify cordoba-weighted": [
        ("nonfinite_ratios", "postcondition"),
        ("weight_norm[i]", "postcondition"),
        ("weight_recursion[i]", "postcondition"),
    ],
    "verify carleson": [("nonfinite_ratios", "postcondition")],
    "verify principle": [
        ("nonfinite_ratios", "postcondition"),
        ("unconverged", "postcondition"),
        ("baseline_factor", "heuristic"),
    ],
    "estimate-22": [("slope[branch]", "theorem"), ("unconverged[branch]", "postcondition")],
}

SMALL = ["--resolution", "3", "--trials", "1", "--seed", "0"]


def _verify_argv(theorem: str) -> list[str]:
    # at L=3 the default epsilon 0.1 certifies a threshold above 1, so no
    # rectangle level set runs; 0.45 removes one
    return ["verify", theorem, *SMALL, *(["--epsilon", "0.45"] if theorem == "biparam" else [])]


def _fixed_ladder(resolution, ratios, seed, branch):
    """A decay ladder whose certificates hold at the default epsilon."""
    points = [{"log_ratio": -float(i), "log_norm": -0.5 * i} for i in range(1, len(ratios) + 1)]
    return {
        "ratio_ladder": points,
        "slope": 0.5,
        "intercept": 0.0,
        "branch": branch,
        "resolution": resolution,
        "unconverged": 0,
    }


def _pattern(name: str) -> str:
    """A certificate's name with its trial index or branch generalized."""
    return re.sub(r"\[[hg]\]$", "[branch]", re.sub(r"\[\d+\]$", "[i]", name))


def _listed(certificates) -> list[tuple[str, str]]:
    """The distinct (name pattern, kind) pairs of a run, in order."""
    return list(dict.fromkeys((_pattern(cert["name"]), cert["kind"]) for cert in certificates))


class TestCertificate:
    def test_fields(self):
        assert certificate("cap", 0.5, 1.0, "postcondition") == {
            "name": "cap", "value": 0.5, "bound": 1.0, "kind": "postcondition", "holds": True,
        }  # fmt: skip

    @pytest.mark.parametrize("comparison, past", [("<=", math.inf), (">=", -math.inf)])
    def test_exact_at_the_bound(self, comparison, past):
        bound = 0.1 + 0.2
        assert certificate("c", bound, bound, "theorem", comparison)["holds"] is True
        beyond = float(np.nextafter(bound, past))
        assert certificate("c", beyond, bound, "theorem", comparison)["holds"] is False

    @pytest.mark.parametrize("comparison", ["<=", ">="])
    def test_nan_never_holds(self, comparison):
        assert certificate("c", math.nan, 1.0, "heuristic", comparison)["holds"] is False
        assert certificate("c", 1.0, math.nan, "heuristic", comparison)["holds"] is False

    def test_unknown_comparison(self):
        with pytest.raises(KeyError):
            certificate("c", 1.0, 1.0, "theorem", "<")


class TestNames:
    @pytest.mark.parametrize("theorem", ["fs", "biparam", "cordoba", "cordoba-weighted", "carleson", "principle"])
    def test_verify_certificates(self, theorem, tmp_path, capsys):
        assert main([*_verify_argv(theorem), "--trials", "2", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert json.loads(capsys.readouterr().out) == report
        assert _listed(report["certificates"]) == CERTIFICATES[f"verify {theorem}"]
        per_trial = sum(name.endswith("[i]") for name, _ in CERTIFICATES[f"verify {theorem}"])
        assert len(report["certificates"]) == len(CERTIFICATES[f"verify {theorem}"]) + per_trial
        assert report["ok"] is all(cert["holds"] for cert in report["certificates"])
        assert sorted(report["certificates"][0]) == ["bound", "holds", "kind", "name", "value"]

    def test_estimate22_certificates(self, monkeypatch, capsys):
        # the branches' certificates decide the exit status; the report
        # stays one key per branch
        import dyadlab.carleson as carleson

        monkeypatch.setattr(carleson, "norm_decay_ladder", _fixed_ladder)
        captured = []
        monkeypatch.setattr("dyadlab.cli.certificate", lambda *a: captured.append(certificate(*a)) or captured[-1])
        assert main(["estimate-22", "--resolution", "3"]) == 0
        assert sorted(json.loads(capsys.readouterr().out)) == ["g", "h"]
        assert [cert["name"] for cert in captured] == ["slope[h]", "unconverged[h]", "slope[g]", "unconverged[g]"]
        assert _listed(captured) == CERTIFICATES["estimate-22"]

    def test_readme_tables_list_the_certificates(self):
        """README has one table per command, under a bold heading naming
        it, whose rows give each certificate's name and kind in order."""
        tables, command = {}, None
        for line in README.read_text().splitlines():
            heading = re.fullmatch(r"\*\*`(verify [\w-]+|estimate-22)`\*\*", line)
            if heading:
                command = heading.group(1)
                tables[command] = []
            elif command and (row := re.match(r"\| `([^`]+)` \| (\w+) \|", line)):
                tables[command].append(row.groups())
            elif command and tables[command] and not line.startswith("|"):
                command = None
        assert tables == CERTIFICATES


def _set(key):
    def mutate(report, value):
        report[key] = value
        return report

    return mutate


def _weight(attribute):
    """Set a weight attribute to `value(weight)`, a value that reads the
    trial's own bound."""

    def mutate(result, value):
        setattr(result[1], attribute, value(result[1]))
        return result

    return mutate


def _member_ratio(report, value):
    # the family's ratio, against a one-member baseline of 1/2
    report["ratio"] = value if report["family_size"] > 1 else 0.5
    return report


def _finite(at):
    return sys.float_info.max if at else math.inf


def _count(at):
    return 0 if at else 1


def _above(bound):
    return lambda at: bound if at else float(np.nextafter(bound, math.inf))


def _below(bound):
    return lambda at: bound if at else float(np.nextafter(bound, -math.inf))


# per "<theorem> <certificate>": the theorem, the module and function whose
# result its runner reads, `mutate(result, value)`, which sets the value the
# certificate reads, and `value(at)`: the bound itself when `at`, else the
# float just past it
MUTANTS = {
    "fs nonfinite_ratios": ("fs", "dyadlab.harness", "verify_vector_maximal", _set("ratio"), _finite),
    "carleson nonfinite_ratios": ("carleson", "dyadlab.carleson", "verify_vector_carleson", _set("ratio"), _finite),
    "biparam mass_cap_ratio": (
        "biparam", "dyadlab.biparam", "verify_biparam", _set("mass_cap_ratios"), lambda at: [0.5, _above(1.0)(at)],
    ),
    "biparam h_kept": ("biparam", "dyadlab.biparam", "verify_biparam", _set("h_kept"), _below(0.5)),
    "biparam localized_unconverged": (
        "biparam", "dyadlab.biparam", "verify_biparam", _set("localized_unconverged"), _count,
    ),
    "cordoba h_kept": ("cordoba", "dyadlab.directional", "verify_directional", _set("h_kept"), _below(0.5)),
    "cordoba localized_unconverged": (
        "cordoba", "dyadlab.directional", "verify_directional", _set("localized_unconverged"), _count,
    ),
    "cordoba-weighted weight_norm[0]": (
        "cordoba-weighted", "dyadlab.directional", "verify_weighted_directional", _weight("weight_norm"),
        lambda at: lambda weight: _above(2.0 * weight.input_norm * (1 + 1e-12))(at),
    ),
    "cordoba-weighted weight_recursion[0]": (
        "cordoba-weighted", "dyadlab.directional", "verify_weighted_directional", _weight("excess"),
        lambda at: lambda weight: _above(weight.tail_bound)(at),
    ),
    "principle unconverged": ("principle", "dyadlab.principle", "measure_condition", _set("unconverged"), _count),
    "principle baseline_factor": (
        "principle", "dyadlab.principle", "vector_inequality_ratio", _member_ratio, _above(1.0),
    ),
}  # fmt: skip


def _mutated(real, mutate, value):
    return lambda *args, **kwargs: mutate(real(*args, **kwargs), value)


@pytest.mark.parametrize("at", [True, False], ids=["at-bound", "past-bound"])
@pytest.mark.parametrize("case", MUTANTS)
def test_verify_mutant(case, at, monkeypatch, capsys):
    theorem, module, function, mutate, value = MUTANTS[case]
    name = case.split()[1]
    module = importlib.import_module(module)
    monkeypatch.setattr(module, function, _mutated(getattr(module, function), mutate, value(at)))
    status = main(_verify_argv(theorem))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert [cert["name"] for cert in report["certificates"] if not cert["holds"]] == ([] if at else [name])
    if at:
        assert status == 0 and captured.err == "" and report["ok"] is True
    else:
        assert status == 1 and report["ok"] is False
        assert captured.err.startswith(f"certificate {name} failed: value ")


@pytest.mark.parametrize("at", [True, False], ids=["at-bound", "past-bound"])
@pytest.mark.parametrize("key, target", [("slope", "h"), ("slope", "g"), ("unconverged", "h"), ("unconverged", "g")])
def test_estimate22_mutant(key, target, at, monkeypatch, capsys):
    import dyadlab.carleson as carleson

    # the cli's gate is 0.5 - epsilon, at the default epsilon 0.1
    value = {"slope": _below(0.5 - 0.1), "unconverged": _count}[key](at)

    def ladder(resolution, ratios, seed, branch):
        decay = _fixed_ladder(resolution, ratios, seed, branch)
        if branch == target:
            decay[key] = value
        return decay

    monkeypatch.setattr(carleson, "norm_decay_ladder", ladder)
    status = main(["estimate-22", "--resolution", "3"])
    err = capsys.readouterr().err
    bound = 0.5 - 0.1 if key == "slope" else 0
    failed = f"certificate {key}[{target}] failed: value {value!r}, bound {bound!r}\n"
    assert (status, err) == ((0, "") if at else (1, failed))
