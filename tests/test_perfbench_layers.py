"""The benchmark's tracer wraps dyadlab functions by name and reads counts
off their return values; a rename or a changed return type inside dyadlab
must fail here rather than in the benchmark's own self-check."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers() -> dict[str, tuple[str, ...]]:
    return _tracing().LAYERS


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


def _tile_inputs():
    from dyadlab.harness import random_grid_set, random_signal
    from oracles import random_choice
    from dyadlab.tiles import TileCollection

    rng = np.random.default_rng(3)
    f = random_signal(rng, 4, complex_values=True)
    return TileCollection.all(4), f, random_grid_set(rng, 4), random_choice(rng, 4)


def _full_decompose(tmp_path):
    from dyadlab.tiles import full_decompose

    result = full_decompose(*_tile_inputs())
    return result, {"buckets": len(result.buckets)}


def _size_decompose(tmp_path):
    from dyadlab.tiles import size_decompose

    collection, f, _, _ = _tile_inputs()
    result = size_decompose(collection, f)
    return result, {"trees": result[2].trees}


def _mass_decompose(tmp_path):
    from dyadlab.tiles import mass_decompose

    collection, _, e, choice = _tile_inputs()
    result = mass_decompose(collection, e, choice)
    return result, {"trees": result[2].trees}


def _power_iteration(tmp_path):
    from dyadlab.principle import OperatorFamily, power_iteration

    diagonal = np.arange(1.0, 9.0)
    family = OperatorFamily.of([lambda v: diagonal * v], [lambda v: diagonal * v])
    result = power_iteration(family, (8,), iters=3, seed=1)
    return result, {"iterations": 3, "unconverged": 1}


def _read_grid2d(tmp_path):
    from dyadlab.grid import Grid2D
    from dyadlab.io import read_grid2d, write_grid2d

    write_grid2d(tmp_path / "plane.csv", Grid2D.constant(2, 1.0))
    return read_grid2d(tmp_path / "plane.csv"), {"rows": 16}


def _read_grid_set(tmp_path):
    from dyadlab.grid import GridSet
    from dyadlab.io import read_grid_set, write_grid_set

    write_grid_set(tmp_path / "set.csv", GridSet.full(3))
    return read_grid_set(tmp_path / "set.csv"), {"rows": 8}


# layer -> calls that return a real value of that layer at a small L, each
# with the counts its return value must yield
COUNTED_CALLS = {
    "tiles.full_decompose": (_full_decompose,),
    "tiles.size_decompose": (_size_decompose,),
    "tiles.mass_decompose": (_mass_decompose,),
    "principle.power_iteration": (_power_iteration,),
    "io.read": (_read_grid2d, _read_grid_set),
}


def test_every_counted_layer_has_a_call():
    assert set(COUNTED_CALLS) == set(_tracing().COUNTERS)


@pytest.mark.parametrize(
    "layer, call", [(layer, call) for layer, calls in COUNTED_CALLS.items() for call in calls]
)
def test_counters_read_real_return_values(layer, call, tmp_path):
    result, expected = call(tmp_path)
    counters = dict(_tracing().COUNTERS[layer])
    assert {name: get(result) for name, get in counters.items()} == expected
    assert all(count > 0 for count in expected.values())
