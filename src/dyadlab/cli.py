"""Command line interface.

Subcommands: `verify <theorem>` runs one verification experiment and writes
its report; `decompose` buckets a tile collection file; `estimate-22`
measures the restricted-operator norm decay along a measure-ratio ladder.
Exit status is 0 exactly when every asserted postcondition held.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .grid import check_resolution
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
    # no defaults: a flag left out takes ExperimentConfig's default, or its
    # theorem's (harness.THEOREMS); every theorem reads p, and one that
    # reads no q, p1 or epsilon rejects it
    verify.add_argument("--resolution", type=int)
    verify.add_argument("--trials", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--family-size", type=int)
    verify.add_argument("--p", type=float)
    verify.add_argument("--q", type=float)
    verify.add_argument("--p1", type=float)
    verify.add_argument("--epsilon", type=float)
    verify.add_argument("--out")

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
    estimate.add_argument("--resolution", type=int, default=ExperimentConfig.resolution)
    estimate.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    estimate.add_argument("--epsilon", type=float, default=0.1, help="each slope must reach 1/2 - epsilon")
    estimate.add_argument("--out", default=None)
    estimate.add_argument("--ladder", type=int, help="ratios 2^-1 .. 2^-ladder (<= L, default L)")
    estimate.add_argument("--branch", choices=("h", "g", "both"), default="both")
    estimate.add_argument("--plot", action="store_true", help="emit a PNG of the ratio ladder")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: parsing reads it and
    never changes it, and each call gets a fresh namespace."""
    return build_parser()


def _invalid(problem: str) -> int:
    print(f"invalid configuration: {problem}", file=sys.stderr)
    return 2


def _config_from_args(args) -> ExperimentConfig:
    """The `verify` config of the flags that were given; each flag is the
    config field of its name, --epsilon the field `eps`."""
    given = {"eps" if flag == "epsilon" else flag: value for flag, value in vars(args).items() if value is not None}
    del given["command"], given["theorem"]
    return ExperimentConfig(args.theorem, **given)


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


def _estimate22(args) -> int:
    ladder = args.resolution if args.ladder is None else args.ladder
    try:
        check_resolution(args.resolution)
    except ValueError as exc:
        return _invalid(str(exc))
    if not 2 <= ladder <= args.resolution:
        return _invalid(
            f"the ladder needs at least 2 ratios to fit a slope, got {ladder}, and at most "
            f"the resolution {args.resolution}, since a ratio below 2^-L draws no cell"
        )

    from .carleson import norm_decay_ladder
    from .io import open_new

    ratios = [2.0**-i for i in range(1, ladder + 1)]
    branches = ("h", "g") if args.branch == "both" else (args.branch,)
    report = {}
    ok = True
    for branch in branches:
        decay = norm_decay_ladder(args.resolution, ratios, seed=args.seed, branch=branch)
        report[branch] = decay.to_dict()
        ok = ok and decay.slope >= 0.5 - args.epsilon and decay.extra["unconverged"] == 0
    print(json.dumps(report, sort_keys=True, indent=2))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open_new(out_dir / "report.json") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        if args.plot:
            _plot_ladder(report, out_dir)
    elif args.plot:
        _plot_ladder(report, Path("."))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
        return _estimate22(args)
    config = _config_from_args(args)
    try:
        config.validate()
    except ValueError as exc:
        return _invalid(str(exc))
    _, report, ok = run(config)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
