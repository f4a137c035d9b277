"""Command line interface.

Subcommands: `verify <theorem>` runs one verification experiment and writes
its report; `decompose` buckets a tile collection file; `estimate-22`
measures the restricted-operator norm decay along a measure-ratio ladder.
Exit status is 0 exactly when every asserted postcondition held.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .harness import THEOREMS, ExperimentConfig, run, run_decompose


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="Measured-constant experiments for dyadic and Walsh model operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviated flags: a removed flag such as --s must not turn into --seed
    verify = sub.add_parser("verify", allow_abbrev=False, help="run one verification experiment")
    verify.add_argument("theorem", choices=THEOREMS)
    _common_flags(verify)

    decompose = sub.add_parser(
        "decompose", allow_abbrev=False, help="bucket a tile collection into forests"
    )
    decompose.add_argument("collection", help="tile collection CSV (k,n,freq_offset)")
    decompose.add_argument("signal", help="signal CSV (index,re,im)")
    decompose.add_argument("--resolution", type=int, required=True)
    decompose.add_argument("--set-file", default=None, help="mass set CSV (index,member)")
    decompose.add_argument("--choice-file", default=None, help="choice CSV (index,freq)")
    decompose.add_argument("--out", default="decomposition.csv")

    estimate = sub.add_parser(
        "estimate-22", allow_abbrev=False, help="restricted-norm decay ladder"
    )
    _common_flags(estimate)
    estimate.add_argument("--ladder", type=int, default=8, help="ratios 2^-1 .. 2^-ladder")
    estimate.add_argument("--branch", choices=("h", "g", "both"), default="both")
    estimate.add_argument("--plot", action="store_true", help="emit a PNG of the ratio ladder")

    return parser


def _common_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--resolution", type=int, default=6)
    cmd.add_argument("--trials", type=int, default=10)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--p", type=float, default=None)
    cmd.add_argument("--q", type=float, default=None)
    cmd.add_argument("--p1", type=float, default=None)
    cmd.add_argument("--epsilon", type=float, default=0.1)
    cmd.add_argument("--family-size", type=int, default=4)
    cmd.add_argument("--out", default=None)


_DEFAULT_P = {
    "fs": 3.0,
    "biparam": 3.0,
    "cordoba": 2.0,
    "cordoba-weighted": 2.0,
    "carleson": 3.0,
    "principle": 1.5,
}
_DEFAULT_Q = {"cordoba": 2.5, "principle": 2.0}


def _config_from_args(args) -> ExperimentConfig:
    theorem = getattr(args, "theorem", "carleson")
    p = args.p if args.p is not None else _DEFAULT_P.get(theorem, 3.0)
    q = args.q if args.q is not None else _DEFAULT_Q.get(theorem, 2.5)
    return ExperimentConfig(
        theorem=theorem,
        resolution=args.resolution,
        trials=args.trials,
        seed=args.seed,
        family_size=args.family_size,
        p=p,
        q=q,
        eps=args.epsilon,
        p1=args.p1,
        out=args.out,
    )


def _plot_ladder(report: dict, out_dir: Path) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plotting requires matplotlib (install the 'plot' extra)", file=sys.stderr)
        return
    fig, ax = plt.subplots()
    for branch, decay in report.items():
        xs = [pt["log_ratio"] for pt in decay["ratio_ladder"]]
        ys = [pt["log_norm"] for pt in decay["ratio_ladder"]]
        ax.plot(xs, ys, marker="o", label=f"{branch} (slope {decay['slope']:.3f})")
    ax.set_xlabel("log2 measure ratio")
    ax.set_ylabel("log2 operator norm")
    ax.legend()
    out_dir.mkdir(parents=True, exist_ok=True)
    fig.savefig(out_dir / "ratio_ladder.png", dpi=120)
    plt.close(fig)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "decompose":
        try:
            summary = run_decompose(
                args.collection,
                args.signal,
                args.resolution,
                args.out,
                set_file=args.set_file,
                choice_file=args.choice_file,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(summary, sort_keys=True))
        return 0

    if args.command == "estimate-22":
        from .carleson import norm_decay_ladder, verify_vector_carleson
        from .harness import random_vector, trial_generators

        ratios = [2.0**-i for i in range(1, args.ladder + 1)]
        branches = ("h", "g") if args.branch == "both" else (args.branch,)
        report = {}
        ok = True
        for branch in branches:
            decay = norm_decay_ladder(args.resolution, ratios, seed=args.seed, branch=branch)
            report[branch] = decay.to_dict()
            ok = ok and decay.slope >= 0.5 - args.epsilon
        gens, _ = trial_generators(args.seed, 1)
        fam = random_vector(gens[0], args.resolution, args.family_size)
        p = args.p if args.p is not None else 3.0
        thm71 = verify_vector_carleson(fam, None, p, seed=args.seed)
        for branch in branches:
            report[branch]["thm71"] = {
                "lhs": thm71.lhs,
                "rhs": thm71.rhs,
                "ratio": thm71.ratio,
            }
        ok = ok and math.isfinite(thm71.ratio)
        print(json.dumps(report, sort_keys=True, indent=2))
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
            if args.plot:
                _plot_ladder(report, out_dir)
        elif args.plot:
            _plot_ladder(report, Path("."))
        return 0 if ok else 1

    config = _config_from_args(args)
    try:
        config.validate()
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    _, report, ok = run(config)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
