"""Span tracing of dyadlab's layers from outside the library.

A `Tracer` wraps the public functions listed in `LAYERS` at every module
binding they are imported under (for example `power_iteration` is bound in
`principle`, `carleson`, `directional` and `biparam`), records one span per
call, and restores the original bindings on `uninstall`. Spans are kept in
memory; `layer_metrics` turns them into per-layer call counts, inclusive busy
time and self time, plus the counts read off return values in `COUNTERS`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer name -> "module:attribute" targets; a class method is "module:Class.method"
LAYERS: dict[str, tuple[str, ...]] = {
    "tiles.model_sum": ("tiles:model_sum",),
    "tiles.adjoint_model_sum": ("tiles:adjoint_model_sum",),
    "tiles.collection_is_convex": ("tiles:collection_is_convex",),
    "tiles.size": ("tiles:size",),
    "tiles.mass": ("tiles:mass",),
    "tiles.member_coefficients": ("tiles:member_coefficients",),
    "tiles.size_decompose": ("tiles:size_decompose",),
    "tiles.mass_decompose": ("tiles:mass_decompose",),
    "tiles.full_decompose": ("tiles:full_decompose",),
    "carleson.greedy_choice": ("carleson:greedy_choice",),
    "carleson.restricted_norm": ("carleson:restricted_norm",),
    "carleson.retain_meeting": ("carleson:retain_meeting",),
    "principle.power_iteration": ("principle:power_iteration",),
    "principle.measure_condition": ("principle:measure_condition",),
    "principle.splitting_cascade": ("principle:splitting_cascade",),
    "io.read": (
        "io:read_signal",
        "io:read_grid_set",
        "io:read_tile_collection",
        "io:read_choice",
        "io:read_grid2d",
        "io:read_directions",
    ),
    "walsh.transform": ("walsh:walsh_analysis", "walsh:walsh_synthesis"),
    "maximal.dyadic_maximal": ("maximal:dyadic_maximal",),
    "maximal.linearized_maximal": ("maximal:linearized_maximal",),
    "maximal.exceptional_complement": ("maximal:exceptional_complement",),
    "plane.strong_maximal": ("plane:strong_maximal",),
    "plane.rectangle_level_set": ("plane:rectangle_level_set",),
    "biparam.fixed_scale_operator": ("biparam:fixed_scale_operator",),
    "biparam.rect_coefficients": ("biparam:rect_coefficients",),
    "directional.DirectionalAverager.init": ("directional:DirectionalAverager.__init__",),
    "directional.DirectionalAverager.all_averages": ("directional:DirectionalAverager.all_averages",),
    "directional.DirectionalAverager.estimate_norm": ("directional:DirectionalAverager.estimate_norm",),
    "directional.build_majorant_weight": ("directional:build_majorant_weight",),
    "harness.run": ("harness:run",),
    "cli.main": ("cli:main",),
}


def _rows(obj) -> int:
    for attr in ("bitiles", "members"):
        if hasattr(obj, attr):
            return len(getattr(obj, attr))
    for attr in ("values", "mask", "freqs"):
        if hasattr(obj, attr):
            return int(getattr(obj, attr).size)
    return 0


# layer -> ((counter, function of the return value), ...)
COUNTERS = {
    "principle.power_iteration": (
        ("iterations", lambda r: r.iterations),
        ("unconverged", lambda r: int(not r.converged)),
    ),
    "tiles.size_decompose": (("trees", lambda r: len(r[1])),),
    "tiles.mass_decompose": (("trees", lambda r: len(r[1])),),
    "tiles.full_decompose": (("buckets", lambda r: len(r.buckets)),),
    "io.read": (("rows", _rows),),
}

OP_LAYER = "op"
_MARK = "_perfbench_layer"


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric the tracer reports."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.s", "s"), (f"{layer}.self_s", "s")]
        out += [(f"{layer}.{name}", "count") for name, _ in COUNTERS.get(layer, ())]
    return out


def _dyadlab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("dyadlab") and m is not None]


class Tracer:
    """Records spans [layer, start, end, parent, op, nested] for the wrapped
    layers; `nested` marks a span opened inside a span of its own layer, so
    inclusive time counts only the outermost one."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._bound: list[tuple[object, str, object, object]] | None = None

    # -- spans ---------------------------------------------------------------

    def open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [layer, 0.0, 0.0, parent, self.op, self._depth[layer] > 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._depth[layer] += 1
        span[1] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def _wrap(self, layer: str, fn):
        counters = COUNTERS.get(layer, ())
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            for name, get in counters:
                tracer.counts[f"{layer}.{name}"] += get(result)
            return result

        setattr(wrapper, _MARK, layer)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, name, original, wrapper) for every target at every binding
        in the loaded dyadlab modules."""
        for module in {t.split(":")[0] for targets in LAYERS.values() for t in targets}:
            importlib.import_module(f"dyadlab.{module}")
        modules = _dyadlab_modules()
        out = []
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(":")
                owner = sys.modules[f"dyadlab.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    out.append((cls, method, original, self._wrap(layer, original)))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for name, value in vars(mod).items():
                        if value is original:
                            out.append((mod, name, original, wrapper))
        return out

    def install(self) -> None:
        if self._bound is None:
            self._bound = self._bindings()
        for owner, name, _original, wrapper in self._bound:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _wrapper in self._bound or ():
            setattr(owner, name, original)


def leftover_wrappers() -> list[str]:
    """Bindings in dyadlab that still hold a tracing wrapper."""
    found = []
    for mod in _dyadlab_modules():
        for name, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [
                    f"{mod.__name__}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, _MARK)
                ]
    return found


def _child_time(spans: list[list]) -> list[float]:
    """Per span, the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _layer, start, end, parent, _op, _nested in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer .calls, .s (inclusive, outermost spans only) and .self_s
    (span minus its child spans), plus the return-value counters."""
    spans = tracer.spans
    child = _child_time(spans)
    out: dict[str, float] = dict.fromkeys((name for name, _ in layer_metric_names()), 0)
    for i, (layer, start, end, _parent, _op, nested) in enumerate(spans):
        if layer == OP_LAYER:
            continue
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += end - start - child[i]
        if not nested:
            out[f"{layer}.s"] += end - start
    for name, count in tracer.counts.items():
        out[name] = count
    return out


def op_closure_errors(tracer: Tracer, walls: dict[int, float]) -> dict[int, float]:
    """Per op: |sum of the self times of its spans - wall| / wall, where
    `walls` holds each op's wall time taken outside its root span. The root
    is the benchmark's own span around the op, so its self time is the
    untraced glue."""
    spans = tracer.spans
    child = _child_time(spans)
    self_sum: dict[int, float] = defaultdict(float)
    for i, (_layer, start, end, _parent, op, _nested) in enumerate(spans):
        self_sum[op] += end - start - child[i]
    return {op: abs(self_sum[op] - wall) / wall if wall > 0 else 0.0 for op, wall in walls.items()}


def span_tree_problems(tracer: Tracer, limit: int = 10) -> list[str]:
    """Spans that break the tree the self times rest on: a span that ends
    before it starts, lies outside its parent or belongs to another op than
    its parent, a root that is not the op span, or a negative self time."""
    spans = tracer.spans
    child = _child_time(spans)
    problems = []
    for i, (layer, start, end, parent, op, _nested) in enumerate(spans):
        if parent < 0:
            if layer != OP_LAYER:
                problems.append(f"span {i} ({layer}) has no parent")
        else:
            p_start, p_end, p_op = spans[parent][1], spans[parent][2], spans[parent][4]
            if p_op != op:
                problems.append(f"span {i} ({layer}) of op {op} has its parent in op {p_op}")
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({layer}) lies outside its parent")
        if end < start or end - start - child[i] < -1e-9:
            problems.append(f"span {i} ({layer}) has a negative length or self time")
    return problems[:limit]
