"""Self-checks of the benchmark itself, on a tiny configuration (L <= 4).

    python3 perfbench/selfcheck.py

Checks that
- every per-layer metric of tracing.LAYERS records at least one call over
  the three workloads, so a binding the tracer missed cannot read 0;
- no tracing wrapper remains bound after a traced run;
- the spans form a well-nested tree per op, and per op the self times of
  all spans add up to the op's wall time taken outside the tracer;
- principle.power_iteration.unconverged, tiles.full_decompose.buckets and
  the output digests repeat exactly between two runs of the same seed;
- an injected failing op raises the failure count.
Exits 1 when any check fails.
"""

from __future__ import annotations

import sys

import env

SEED = 5


def traced_round(name: str, seed: int):
    import run
    from tracing import layer_metrics, leftover_wrappers, op_closure_errors, span_tree_problems

    workload = run.setup_workload(name, seed, tiny=True)
    records, tracer, _ = run.run_rounds(workload, 1, traced=True)
    return {
        "metrics": layer_metrics(tracer),
        "digests": [r["digest"] for r in records],
        "failed": [f"{r['label']}: {r['error']}" for r in records if r["status"] != "ok"],
        "closure": max(op_closure_errors(tracer, {r["op"]: r["wall_s"] for r in records}).values()),
        "span_problems": span_tree_problems(tracer),
        "leftover": leftover_wrappers(),
    }


def injected_failure_count() -> int:
    import run
    from workloads import Op, _cli_call

    workload = run.setup_workload("decompose", SEED, tiny=True)
    bad = workload.workdir / "inputs" / "malformed.csv"
    bad.write_text("index,re,im\n0,1.0\n")
    argv = ["decompose", str(bad), str(bad), "--resolution", "1", "--out", str(bad) + ".out"]
    workload.ops[0] = Op("decompose:malformed", _cli_call(argv), lambda _status: "")
    records, *_ = run.run_rounds(workload, 1)
    return sum(r["status"] != "ok" for r in records)


def main() -> int:
    env.bootstrap()
    env.OUT.mkdir(parents=True, exist_ok=True)
    import run
    from tracing import LAYERS

    problems = []
    runs = {}
    for name in ("decay", "decompose", "verify"):
        first, second = traced_round(name, SEED), traced_round(name, SEED)
        runs[name] = first
        for result in (first, second):
            problems += [f"{name}: failed op {f}" for f in result["failed"]]
            if result["leftover"]:
                problems.append(f"{name}: wrappers left bound: {result['leftover']}")
            problems += [f"{name}: {p}" for p in result["span_problems"]]
            if result["closure"] > run.CLOSURE_TOLERANCE:
                problems.append(f"{name}: span self times miss op wall time by {result['closure']:.2%}")
        for key in ("principle.power_iteration.unconverged", "tiles.full_decompose.buckets"):
            if first["metrics"][key] != second["metrics"][key]:
                problems.append(
                    f"{name}: {key} differs between runs: {first['metrics'][key]} != {second['metrics'][key]}"
                )
        if first["digests"] != second["digests"]:
            problems.append(f"{name}: output digests differ between runs of one seed")
    for layer in LAYERS:
        calls = {name: r["metrics"][f"{layer}.calls"] for name, r in runs.items()}
        print(f"{layer:48s} calls {calls}")
        if not any(calls.values()):
            problems.append(f"{layer}: no call recorded on any workload")
    failures = injected_failure_count()
    print(f"injected failing op: {failures} failed")
    if failures < 1:
        problems.append("an injected failing op was not counted as failed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
