"""The benchmark's tracer wraps dyadlab functions by name; a rename inside
dyadlab must fail here rather than in the benchmark's own self-check."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "target", [t for targets in _layers().values() for t in targets]
)
def test_traced_layer_resolves(target):
    module_name, attr = target.split(":")
    owner = importlib.import_module(f"dyadlab.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer wraps the method found in the class's own namespace
        assert callable(vars(getattr(owner, cls_name))[method])
    else:
        assert callable(getattr(owner, attr))
