"""Record the golden output digests at the default seed.

    python3 perfbench/record_golden.py

Runs every op of each workload's op list once, untimed, and writes
perfbench/golden.json: per workload, the digest of each op's output (the
`repr` of a decay point's norm, the bytes of a decompose output CSV, the
bytes of a verify report.json), with the environment they were taken in.
run.py checks drift against them only when the seed, the numpy version and
the CPU model match.
"""

from __future__ import annotations

import json
import sys

import env


def main() -> int:
    env.bootstrap()
    import numpy as np

    import run
    from workloads import WORKLOADS

    digests = {}
    for name in WORKLOADS:
        workload = run.setup_workload(name, run.DEFAULT_SEED)
        records = [run.run_op(op, i) for i, op in enumerate(workload.ops)]
        failed = [f"{r['label']}: {r['error']}" for r in records if r["status"] != "ok"]
        if failed:
            print(f"{name}: not recorded, ops failed: {failed}", file=sys.stderr)
            return 1
        digests[name] = [r["digest"] for r in records]
        print(f"{name}: {len(records)} digests")
    golden = {
        "seed": run.DEFAULT_SEED,
        "numpy": np.__version__,
        "cpu_model": env.cpu_model(),
        "environment": env.stamp(),
        "digests": digests,
    }
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
