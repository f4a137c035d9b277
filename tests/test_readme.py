"""README: what it states about the commands and the library holds.

Every `dyadlab` line of its `sh` blocks parses with the CLI's parser, and a
`verify` line also passes the configuration check; the "Library sketch"
runs; and every `module.name` that the "Library API" section (with its
subsections) names is an attribute of `dyadlab.<module>`. The certificate
tables are read by `tests/test_certificates.py`.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import dyadlab
from dyadlab import cli

README = Path(__file__).parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(dyadlab.__path__)}


def _section(text: str, title: str) -> str:
    """The text under the level-2 heading `title`, up to the next one."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def _blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def command_lines(text: str) -> list[str]:
    """Every line of an `sh` block that runs `dyadlab`."""
    return [line for block in _blocks(text, "sh") for line in block.splitlines() if line.startswith("dyadlab ")]


def dotted_names(text: str) -> list[str]:
    """Every backticked name that starts with a `dyadlab` module or the
    package, such as `tiles.ModelSumPlan` or `carleson.restricted_norm(a,
    b, ...)`, as the dotted name alone; a file name such as `walsh.py` is
    no name."""
    names = []
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        match = re.match(r"(?:dyadlab\.)?(\w+)(?:\.\w+)+", span)
        if match and match.group(1) in MODULES | {"dyadlab"} and not span.endswith(".py"):
            names.append(match.group())
    return names


def resolves(name: str) -> bool:
    """Whether `name`, led by a `dyadlab` module or the package, names an
    attribute."""
    parts = name.removeprefix("dyadlab.").split(".")
    obj = importlib.import_module(f"dyadlab.{parts.pop(0)}") if parts[0] in MODULES else dyadlab
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@functools.cache
def readme() -> str:
    return README.read_text()


@pytest.mark.parametrize("line", command_lines(readme()))
def test_command_line_parses(line):
    try:
        args = cli._parser().parse_args(shlex.split(line)[1:])
    except SystemExit as exc:
        pytest.fail(f"{line!r} does not parse (exit {exc.code})")
    if args.command == "verify":
        cli._config_from_args(args).validate()


def test_every_command_has_a_line():
    commands = {shlex.split(line)[1] for line in command_lines(readme())}
    assert commands == {"verify", "estimate-22", "decompose"}


def test_library_sketch_runs():
    (sketch,) = _blocks(_section(readme(), "Library sketch"), "python")
    exec(compile(sketch, "README Library sketch", "exec"), {})


def test_library_api_names_resolve():
    names = dotted_names(_section(readme(), "Library API"))
    assert len(names) > 50
    assert [name for name in names if not resolves(name)] == []


def test_name_check_rejects_a_missing_name():
    assert dotted_names("`tiles.no_such_plan(x)`, `walsh.py` and `plan.apply`") == ["tiles.no_such_plan"]
    assert not resolves("tiles.no_such_plan")
    assert resolves("tiles.TileCollection.from_slots") and resolves("dyadlab.__all__")
