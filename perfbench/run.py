"""dyadlab benchmark: one workload per process, closed loop, one op at a time.

    python3 perfbench/run.py --workload decay|decompose|verify|all \
        [--seed N] [--seconds S] [--trace 0|1]

A run sets up the workload's seed-determined inputs, then runs the
workload's fixed number of whole rounds of ops, so every commit measures
the same ops. --seconds only caps the run: past 1.5 x --seconds no further
round starts. Every op's postcondition is checked, and at the default seed
its output digest is compared with golden.json. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of
tracing.py with --trace 1.

End-to-end timings are given at the reference speed of reference.py: each
wall time is scaled by the host's speed measured just before and after it,
which takes the host's own drift out of the comparison between commits.
The wall-clock figures are printed and stored next to them.

A traced run runs half the rounds, and times each op untraced and then
traced, so the tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings

import env

SETUP_PROBES = 5  # fresh processes whose set-up time gives setup_s
CAP_FACTOR = 1.5  # a run stops starting rounds past this many --seconds
CLOSURE_TOLERANCE = 0.01
TAIL_BEYOND = 10
DEFAULT_SEED = 0
READY = "ready"
GOLDEN = env.ROOT / "perfbench" / "golden.json"
# The end-to-end metrics of BENCHMARK.json, all timings at reference speed.
# The median op time is printed and stored but not listed there: a run
# mixes op kinds of very different cost, and on decay the median falls
# exactly between two kinds.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) of the highest percentile of op wall
    time with at least TAIL_BEYOND ops beyond it; the maximum when the run
    has too few ops for that."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def load_golden(workload) -> list[str] | None:
    """Golden digests for this workload, or None when they do not apply: a
    different seed, numpy version or CPU model, or a tiny configuration."""
    import numpy as np

    if workload.tiny or not GOLDEN.is_file():
        return None
    golden = json.loads(GOLDEN.read_text())
    if (golden["seed"], golden["numpy"], golden["cpu_model"]) != (
        workload.seed,
        np.__version__,
        env.cpu_model(),
    ):
        return None
    return golden["digests"].get(workload.name)


class DeprecationCounter:
    """Counts every DeprecationWarning raised inside the `with` block; other
    warnings go to the usual display."""

    def __init__(self):
        self.count = 0

    def __enter__(self):
        self._context = warnings.catch_warnings()
        self._context.__enter__()
        shown = warnings.showwarning
        warnings.simplefilter("always", DeprecationWarning)

        def show(message, category, *args, **kwargs):
            if issubclass(category, DeprecationWarning):
                self.count += 1
            else:
                shown(message, category, *args, **kwargs)

        warnings.showwarning = show
        return self

    def __exit__(self, *exc):
        return self._context.__exit__(*exc)


def run_op(op, index: int, tracer=None, deprecations=None) -> dict:
    """One op: the timed call, then its postcondition check. An op that
    raises is recorded as failed and the run goes on. A traced op is timed
    outside the tracer's root span as well, so the span self times can be
    checked against a figure the tracer does not produce."""
    from workloads import OpFailed
    from tracing import OP_LAYER

    record = {"op": index, "label": op.label, "status": "ok", "digest": None}
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
            record["wall_s"] = time.perf_counter() - start
        else:
            tracer.op = index
            tracer.install()
            try:
                with deprecations:
                    start = time.perf_counter()
                    root = tracer.open(OP_LAYER)
                    try:
                        result = op.call()
                    finally:
                        tracer.close(root)
                        record["wall_s"] = time.perf_counter() - start
            finally:
                tracer.uninstall()
        record["digest"] = op.check(result)
    except OpFailed as exc:
        record.update(status="failed", error=str(exc))
    except Exception as exc:  # the op raised: count it, keep measuring
        record.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    record.setdefault("wall_s", time.perf_counter() - start)
    return record


def run_rounds(workload, rounds: int, traced: bool = False, cap_s: float = float("inf")):
    """Run `rounds` whole rounds, stopping early only once `cap_s` seconds
    have passed. Returns (records, tracer, deprecation counter). An untraced
    op also gets `ref_s`, its wall time at reference speed; a traced op is
    first timed untraced, then traced."""
    import reference
    from tracing import Tracer

    tracer = Tracer() if traced else None
    deprecations = DeprecationCounter() if traced else None
    records = []
    start = time.perf_counter()
    before = None if traced else reference.kernel()
    for index in range(rounds * workload.round_size):
        if index % workload.round_size == 0 and time.perf_counter() - start > cap_s:
            break
        op = workload.ops[index % len(workload.ops)]
        if traced:
            untraced = time.perf_counter()
            try:
                op.call()
            except Exception:  # the traced call below records the failure
                pass
            untraced = time.perf_counter() - untraced
        record = run_op(op, index, tracer, deprecations)
        if traced:
            record["untraced_wall_s"] = untraced
        else:
            after = reference.kernel()
            record["ref_s"] = reference.scale(record["wall_s"], before, after)
            before = after
        records.append(record)
    return records, tracer, deprecations


def check_drift(workload, records) -> tuple[int, int] | None:
    """(ops whose digest differs from golden, ops checked), or None."""
    golden = load_golden(workload)
    if golden is None:
        return None
    checked = [r for r in records if r["digest"] is not None]
    drifted = sum(r["digest"] != golden[r["op"] % len(golden)] for r in checked)
    return drifted, len(checked)


def setup_workload(name: str, seed: int, tiny: bool = False):
    """Build the workload: its inputs and op list, the golden digests, and a
    small warm-up."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, env.OUT / f"work-{name}", tiny=tiny)
    workload.setup()
    load_golden(workload)
    workload.warmup()
    return workload


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """(at reference speed, wall) medians over SETUP_PROBES fresh processes
    of the time from process start to the point where the first op would
    begin: interpreter start, imports, input generation, the golden digests
    and the warm-up."""
    import reference

    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"]
    refs, walls = [], []
    for _ in range(SETUP_PROBES):
        before = reference.kernel()
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            wall = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line != READY:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}: {line!r}")
        walls.append(wall)
        refs.append(reference.scale(wall, before, reference.kernel()))
    return statistics.median(refs), statistics.median(walls)


def end_to_end_metrics(name: str, seed: int, records: list[dict], result: dict) -> dict:
    """The END_TO_END metrics at reference speed; the median op time, the
    tail's percentile and the wall-clock figures go into `result`."""
    setup_ref, setup_wall = setup_seconds(name, seed)
    figures = {}
    for key in ("ref_s", "wall_s"):
        times = [r[key] for r in records]
        tail_value, tail_pct, tail_beyond = tail(times)
        figures[key] = {
            "setup_s": setup_ref if key == "ref_s" else setup_wall,
            "ops_per_s": len(times) / sum(times),
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail_value,
        }
    metrics = figures["ref_s"]
    result.update(
        op_s_p50=metrics.pop("op_s_p50"),
        op_s_tail_percentile=tail_pct,
        op_s_tail_ops_beyond=tail_beyond,
        wall=figures["wall_s"],
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import (
        layer_metric_names, layer_metrics, leftover_wrappers, op_closure_errors, span_tree_problems,
    )  # fmt: skip

    workload = setup_workload(name, seed)
    rounds = max(1, workload.rounds // 2) if trace else workload.rounds
    records, tracer, deprecations = run_rounds(workload, rounds, trace, CAP_FACTOR * seconds)
    failed = sum(r["status"] != "ok" for r in records)
    drift = check_drift(workload, records)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "rounds_planned": rounds,
        "rounds_run": len(records) // workload.round_size,
        "trace": int(trace),
        "environment": env.stamp(),
        "attempted": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "drift_frac": "not checked" if drift is None else drift[0] / drift[1],
        "drift_checked": 0 if drift is None else drift[1],
    }
    correct = failed == 0 and (drift is None or drift[0] == 0)
    if not trace:
        metrics = end_to_end_metrics(name, seed, records, result)
        units = dict(END_TO_END)
    else:
        metrics = layer_metrics(tracer)
        metrics["warnings.DeprecationWarning"] = deprecations.count
        untraced = sum(r["untraced_wall_s"] for r in records)
        metrics["trace.overhead_frac"] = sum(r["wall_s"] for r in records) / untraced - 1.0
        units = dict(layer_metric_names())
        units.update({"warnings.DeprecationWarning": "count", "trace.overhead_frac": "ratio"})
        closure = op_closure_errors(tracer, {r["op"]: r["wall_s"] for r in records})
        result["closure_max_err"] = max(closure.values(), default=0.0)
        result["span_problems"] = span_tree_problems(tracer)
        result["leftover_wrappers"] = leftover_wrappers()
        correct = (
            correct
            and result["closure_max_err"] <= CLOSURE_TOLERANCE
            and not result["span_problems"]
            and not result["leftover_wrappers"]
        )
        spans_file = env.OUT / f"{name}-seed{seed}-spans.json.gz"
        with gzip.open(spans_file, "wt") as fh:
            json.dump({"columns": ["layer", "start", "end", "parent", "op", "nested"], "spans": tracer.spans}, fh)
        result["spans_file"] = str(spans_file.relative_to(env.ROOT))
    result["correct"] = correct
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["ops"] = records
    (env.OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        wall = result.get("wall", {}).get(metric)
        wall_text = "" if wall is None else f"  (wall clock {wall:.6g})"
        print(f"{name:10s} {metric:52s} {entry['value']:.6g} {entry['unit']}{wall_text}")
    print(f"{name:10s} {'fail_frac':52s} {result['fail_frac']:.6g} ratio "
          f"({result['failed']}/{result['attempted']} ops)")
    drift = result["drift_frac"]
    drift_text = drift if isinstance(drift, str) else f"{drift:.6g} ratio ({result['drift_checked']} ops checked)"
    print(f"{name:10s} {'drift_frac':52s} {drift_text}")
    if not result["trace"]:
        print(f"{name:10s} {'op_s_tail is':52s} p{result['op_s_tail_percentile']:.4g}, "
              f"{result['op_s_tail_ops_beyond']} ops beyond it")
        print(f"{name:10s} {'op_s_p50 (not a BENCHMARK.json metric)':52s} {result['op_s_p50']:.6g} s  "
              f"(wall clock {result['wall']['op_s_p50']:.6g})")
    if result["rounds_run"] < result["rounds_planned"]:
        print(f"{name}: only {result['rounds_run']} of {result['rounds_planned']} rounds ran "
              f"within {CAP_FACTOR} x {result['seconds']} s", file=sys.stderr)
    for record in result["ops"]:
        if record["status"] != "ok":
            print(f"{name:10s} failed op {record['op']} {record['label']}: {record['error']}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    summary, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        summary[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("decay", "decompose", "verify", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="time cap: no round starts past 1.5 x this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print 'ready' and exit (setup_s probe)")
    args = parser.parse_args(argv)
    try:
        env.bootstrap()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    env.OUT.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        setup_workload(args.workload, args.seed)
        print(READY, flush=True)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
