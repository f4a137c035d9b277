"""Command line interface.

Subcommands: `verify <theorem>` runs one verification experiment and writes
its report; `decompose` buckets a tile collection file; `estimate-22`
measures the restricted-operator norm decay along a measure-ratio ladder.
Exit status is 0 exactly when every certificate of the run held, 1 when
one failed (stderr names it), and 2 on an invalid configuration,
malformed input or a path the operating system refuses.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .grid import check_resolution
from .harness import THEOREMS, ExperimentConfig, check_seed, run, run_decompose
from .io import json_text, write_json
from .reports import certificate


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
    estimate.add_argument(
        "--epsilon", type=float, default=0.1, help="each slope must reach 1/2 - epsilon, 0 <= epsilon < 1/2"
    )
    estimate.add_argument("--out", default=None)
    estimate.add_argument("--ladder", type=int, help="ratios 2^-1 .. 2^-ladder (<= L, default L)")
    estimate.add_argument("--branch", choices=("h", "g", "both"), default="both")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: parsing reads it and
    never changes it, and each call gets a fresh namespace."""
    return build_parser()


def _invalid(problem: str) -> int:
    print(f"invalid configuration: {problem}", file=sys.stderr)
    return 2


def _status(certificates: list[dict]) -> int:
    """0 when every certificate holds; else 1, after naming each failed one
    with its value and bound on stderr."""
    failed = [cert for cert in certificates if not cert["holds"]]
    for cert in failed:
        print(f"certificate {cert['name']} failed: value {cert['value']!r}, bound {cert['bound']!r}", file=sys.stderr)
    return 1 if failed else 0


def _config_from_args(args) -> ExperimentConfig:
    """The `verify` config of the flags that were given; each flag is the
    config field of its name, --epsilon the field `eps`."""
    given = {"eps" if flag == "epsilon" else flag: value for flag, value in vars(args).items() if value is not None}
    del given["command"], given["theorem"]
    return ExperimentConfig(args.theorem, **given)


def _estimate22(args) -> int:
    ladder = args.resolution if args.ladder is None else args.ladder
    try:
        check_resolution(args.resolution)
        check_seed(args.seed)
    except ValueError as exc:
        return _invalid(str(exc))
    if not 0 <= args.epsilon < 0.5:
        return _invalid(f"epsilon must satisfy 0 <= epsilon < 1/2, got {args.epsilon}")
    if not 2 <= ladder <= args.resolution:
        return _invalid(
            f"the ladder needs at least 2 ratios to fit a slope, got {ladder}, and at most "
            f"the resolution {args.resolution}, since a ratio below 2^-L draws no cell"
        )

    from .carleson import norm_decay_ladder

    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    ratios = [2.0**-i for i in range(1, ladder + 1)]
    branches = ("h", "g") if args.branch == "both" else (args.branch,)
    report, certificates = {}, []
    for branch in branches:
        decay = report[branch] = norm_decay_ladder(args.resolution, ratios, seed=args.seed, branch=branch)
        certificates += [
            certificate(f"slope[{branch}]", decay["slope"], 0.5 - args.epsilon, "theorem", ">="),
            certificate(f"unconverged[{branch}]", decay["unconverged"], 0, "postcondition"),
        ]
    print(json_text(report), end="")
    if args.out:
        write_json(Path(args.out) / "report.json", report)
    return _status(certificates)


def _decompose(args) -> int:
    summary = run_decompose(
        args.collection, args.signal, args.resolution, args.out, set_file=args.set_file, choice_file=args.choice_file
    )
    print(json.dumps(summary, sort_keys=True))
    return 0


def _verify(args) -> int:
    config = _config_from_args(args)
    try:
        config.validate()
    except ValueError as exc:
        return _invalid(str(exc))
    _, report = run(config)
    print(json_text(report), end="")
    return _status(report["certificates"])


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = {"decompose": _decompose, "estimate-22": _estimate22, "verify": _verify}[args.command]
    # a path the operating system refuses, such as a missing input file or an
    # --out under a regular file, exits 2, and so does a malformed input file
    refused = (OSError, ValueError) if args.command == "decompose" else OSError
    try:
        return command(args)
    except refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
