"""Every top-level function of `src/dyadlab` is reached by a command or has a
stated user.

The commands run in process under `sys.setprofile`: each `verify` theorem,
`estimate-22` on its dense path (L=5) and its Krylov path (L=8), `decompose`
with and without its set and choice files, and one invalid run of each. A
function that none of them calls is listed in `LIBRARY_API` with its reason.
Classes and their methods are the data model and are not checked.
"""

import ast
import contextlib
import functools
import importlib
import io
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import dyadlab
from dyadlab import cli
from test_perfbench_layers import _layers

SRC = Path(dyadlab.__file__).parent

FILE_FORMAT = "file format: an `io` reader or writer"
PACKAGE_API = "package API: in `dyadlab.__all__`"
PAPER_LEMMA = "paper lemma that ROADMAP item 5 wires into `verify`"
HELPER = "called only by listed names and by class methods"
TRACER = "bound by perfbench/tracing.py"
ACCEPTANCE = "read by tests/test_acceptance.py"

LIBRARY_API = {
    "io._direction_problem": FILE_FORMAT,
    "io._tile_problem": FILE_FORMAT,
    "io.read_directions": FILE_FORMAT,
    "io.read_grid2d": FILE_FORMAT,
    "io.write_choice": FILE_FORMAT,
    "io.write_directions": FILE_FORMAT,
    "io.write_grid2d": FILE_FORMAT,
    "io.write_grid_set": FILE_FORMAT,
    "io.write_signal": FILE_FORMAT,
    "io.write_tile_collection": FILE_FORMAT,
    "grid.all_intervals": PACKAGE_API,
    "grid.inner_product": PACKAGE_API,
    "grid.interval_cutoff": PACKAGE_API,
    "biparam.rect_full_decompose": PAPER_LEMMA,
    "biparam.rect_size": PAPER_LEMMA,
    "biparam.rect_tree_estimate": PAPER_LEMMA,
    "carleson.collection_caps": PAPER_LEMMA,
    "carleson.restricted_pairing": PAPER_LEMMA,
    "maximal.greedy_scales": PAPER_LEMMA,
    "maximal.restricted_double_sum": PAPER_LEMMA,
    "tiles.tree_estimate": PAPER_LEMMA,
    "biparam._rect": HELPER,
    "biparam._row": HELPER,
    "biparam._size_of": HELPER,
    "biparam._subtree": HELPER,
    "biparam._take_tree": HELPER,
    "biparam._tree_sums": HELPER,
    "biparam.rect_mass_decompose": HELPER,
    "biparam.rect_size_decompose": HELPER,
    "maximal._ordered_sum": HELPER,
    "maximal.interval_size_mass": HELPER,
    "maximal.slot_scales": HELPER,
    "tiles._hull": HELPER,
    "tiles._sup_of_interval_min": HELPER,
    "tiles.mass_bound": HELPER,
    "tiles.member_weights": HELPER,
    "tiles.size_bound": HELPER,
    "tiles.tree_sum": HELPER,
    "maximal.linearized_maximal": TRACER,
    "principle.power_iteration": TRACER,
    "tiles.adjoint_model_sum": TRACER,
    "tiles.collection_is_convex": TRACER,
    "tiles.member_coefficients": TRACER,
    "tiles.model_sum": TRACER,
    "walsh.walsh_analysis": TRACER,
    "directional.muckenhoupt_constants": ACCEPTANCE,
}


def _modules():
    return [importlib.import_module(f"dyadlab.{m.name}") for m in pkgutil.iter_modules(dyadlab.__path__)]


def _top_level_functions() -> dict[str, types.FunctionType]:
    """"module.name" -> function, for the functions each module defines at
    its top level, cached ones by their wrapped function."""
    found = {}
    for module in _modules():
        for name, obj in vars(module).items():
            fn = getattr(obj, "__wrapped__", obj)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                found[f"{module.__name__.removeprefix('dyadlab.')}.{name}"] = fn
    return found


def _clear_caches() -> None:
    """Empty every cache of the package, so a cached function and what it
    calls on a miss run again under the profile."""
    for module in _modules():
        owners = [vars(module)] + [vars(c) for c in vars(module).values() if isinstance(c, type)]
        for namespace in owners:
            for obj in namespace.values():
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
                    obj.cache_clear()


def _write(path: Path, header: str, rows) -> Path:
    path.write_text(header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return path


def _runs(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit status) of every command run."""
    L = 3
    tiles = _write(
        tmp / "tiles.csv",
        "k,n,freq_offset",
        [(k, m, q) for k in range(L) for m in range(1 << k) for q in range(1 << (L - k - 1))],
    )
    signal = _write(tmp / "signal.csv", "index,re,im", [(i, 0.5 * i - 1.0, 0.25) for i in range(1 << L)])
    e_set = _write(tmp / "set.csv", "index,member", [(i, i % 2) for i in range(1 << L)])
    choice = _write(tmp / "choice.csv", "index,freq", [(i, (3 * i) % (1 << L)) for i in range(1 << L)])
    malformed = _write(tmp / "malformed.csv", "k,n,freq_offset", [(0, 0, 0), (1, "x", 0)])
    decompose = ["decompose", str(tiles), str(signal), "--resolution", str(L)]
    runs = []
    for theorem in cli.THEOREMS:
        # at the default epsilon 0.1 no rectangle level set runs
        extra = ["--epsilon", "0.45"] if theorem == "biparam" else []
        runs.append((["verify", theorem, "--resolution", "4", "--trials", "2", "--out", str(tmp / theorem)] + extra, 0))
    runs += [
        (["estimate-22", "--resolution", "5", "--out", str(tmp / "estimate-L5"), "--plot"], 0),
        (["estimate-22", "--resolution", "8", "--ladder", "2"], 0),
        (decompose + ["--out", str(tmp / "plain.csv")], 0),
        (decompose + ["--set-file", str(e_set), "--choice-file", str(choice), "--out", str(tmp / "files.csv")], 0),
        (["verify", "fs", "--p", "1"], 2),
        (["estimate-22", "--epsilon", "nan"], 2),
        (["decompose", str(malformed), str(signal), "--resolution", str(L), "--out", str(tmp / "bad.csv")], 2),
    ]
    return runs


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set[str]:
    """The top-level functions that the command runs call."""
    runs = _runs(tmp_path_factory.mktemp("reachability"))
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    _clear_caches()
    statuses = []
    sys.setprofile(profile)
    try:
        for argv, _ in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                statuses.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    assert statuses == [status for _, status in runs]
    return {name for name, fn in _top_level_functions().items() if fn.__code__ in codes}


def test_every_function_is_reached_or_listed(reached):
    missing = sorted(set(_top_level_functions()) - reached - set(LIBRARY_API))
    assert not missing, f"reached by no command and not in LIBRARY_API: {missing}"


def test_no_listed_name_is_reached(reached):
    listed = sorted(reached & set(LIBRARY_API))
    assert not listed, f"in LIBRARY_API but reached by a command: {listed}"


def test_every_listed_name_is_a_function():
    assert not sorted(set(LIBRARY_API) - set(_top_level_functions()))


def test_every_reason_is_stated():
    assert set(LIBRARY_API.values()) <= {FILE_FORMAT, PACKAGE_API, PAPER_LEMMA, HELPER, TRACER, ACCEPTANCE}


def _listed(reason: str) -> list[tuple[str, str]]:
    return [tuple(name.split(".")) for name, why in LIBRARY_API.items() if why == reason]


def test_file_formats_are_io():
    assert {module for module, _ in _listed(FILE_FORMAT)} == {"io"}


def test_package_api_is_exported():
    for module, name in _listed(PACKAGE_API):
        assert name in dyadlab.__all__
        assert getattr(dyadlab, name) is getattr(importlib.import_module(f"dyadlab.{module}"), name)


def test_tracer_entries_are_traced_layers():
    targets = {target for targets in _layers().values() for target in targets}
    for module, name in _listed(TRACER):
        assert f"{module}:{name}" in targets, f"{module}.{name} is no target of perfbench/tracing.py"


def test_acceptance_entries_are_read_there():
    tree = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for _, name in _listed(ACCEPTANCE):
        assert name in used, f"tests/test_acceptance.py reads no {name}"


@functools.cache
def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _referrers(module: str, name: str) -> set[str]:
    """The definitions of src/dyadlab that name module.name, as
    "module.function" or "module.Class.method", or "module.<module>" for a
    reference outside any definition; a module other than its own names it
    only after importing it, under the name or alias it imports."""
    found = set()
    for owner, tree in _trees().items():
        aliases = {name} if owner == module else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
                aliases |= {a.asname or a.name for a in node.names if a.name == name}
        definitions = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [d for d in node.body if isinstance(d, ast.FunctionDef)]
                definitions += [(f"{owner}.{node.name}.{d.name}", d) for d in methods]
            else:
                label = f"{owner}.{node.name}" if isinstance(node, ast.FunctionDef) else f"{owner}.<module>"
                definitions.append((label, node))
        for label, node in definitions:
            if any(isinstance(n, ast.Name) and n.id in aliases for n in ast.walk(node)):
                found.add(label)
    found.discard(f"{module}.{name}")
    return found


@pytest.mark.parametrize("helper", [name for name, why in LIBRARY_API.items() if why == HELPER])
def test_helpers_serve_only_listed_names_and_methods(helper):
    referrers = _referrers(*helper.split("."))
    assert referrers, f"nothing in src/dyadlab names {helper}"
    for referrer in referrers:
        is_method = referrer.count(".") == 2
        assert is_method or referrer in LIBRARY_API, f"{helper} is named by {referrer}, neither listed nor a method"


def _is_resolution(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "resolution"


def _resolution_comparisons(tree: ast.Module) -> list[int]:
    """Lines of the comparisons between two resolutions: operands that are
    `.resolution` attributes, a parameter named `resolution`, or names a
    function binds to a `.resolution`, as `L = collection.resolution` does."""
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.Lambda)):
            continue
        bound = {arg.arg for arg in function.args.args if arg.arg == "resolution"}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    bound |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _is_resolution(v)}
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if sum(_is_resolution(o) or (isinstance(o, ast.Name) and o.id in bound) for o in operands) >= 2:
                    found.add(node.lineno)
    return sorted(found)


def test_only_grid_compares_resolutions():
    # the rule that inputs share one grid is grid.check_same_grid's alone
    compared = {module: _resolution_comparisons(tree) for module, tree in _trees().items() if module != "grid"}
    assert not any(compared.values()), f"resolutions compared outside grid: {compared}"
    # the scan sees the guard's own comparison
    assert _resolution_comparisons(_trees()["grid"])


def _conjugates(tree: ast.Module) -> list[int]:
    """Lines of the conjugate exponents written out: divisions x / (x - 1)
    whose numerator is x or a product with the factor x, as in
    2 * p / (p - 1)."""

    def factors(node: ast.AST) -> list[str]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return factors(node.left) + factors(node.right)
        return [ast.dump(node)]

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            below = node.right
            if (
                isinstance(below, ast.BinOp)
                and isinstance(below.op, ast.Sub)
                and isinstance(below.right, ast.Constant)
                and below.right.value == 1
                and ast.dump(below.left) in factors(node.left)
            ):
                found.add(node.lineno)
    return sorted(found)


def test_only_grid_writes_a_conjugate_exponent():
    # p' = p/(p - 1) is grid.conjugate_exponent's alone
    written = {module: _conjugates(tree) for module, tree in _trees().items() if module != "grid"}
    assert not any(written.values()), f"conjugate exponents written outside grid: {written}"
    # the scan sees the helper's own division, and 1/(p - 1), the exponent
    # of estimate_norm's dual step, is no conjugate
    assert _conjugates(_trees()["grid"])
    assert not _conjugates(ast.parse("v = back ** (1.0 / (p - 1.0))"))
