"""Command-line interface: construct, evaluate, verify, explore, info.

All results go to stdout, diagnostics to stderr. Exit status is 0 for
pass/found, 1 for errors or failed verification, 2 for a search that
exhausted its space without a witness. Identical arguments and input
files produce byte-identical output, regardless of --threads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bitword import DEFAULT_PAIR_BUDGET, BitWord, BudgetExceededError, PairSpec
from .dispersive import build_dispersive, format_dispersion_report
from .diffusive import column_diffusive, format_diffusion_report, g_table
from .explorer import (
    search_linear_k_dispersive,
    verify_k_dispersive,
    verify_k_diffusive,
)
from .f2linear import (
    LinearMap,
    apply,
    parse_map_file,
    rank,
    serialize_generator_matrix,
    serialize_truth_table,
    tabulate,  # unused here; kept because perfbench/tracing.py wraps cli.tabulate
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispdiff",
        description="Construct and exhaustively verify dispersive and "
        "diffusive maps on fixed-width binary words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a map and write it to a file")
    p.add_argument(
        "kind", choices=["dispersive", "diffusive", "column-diffusive"]
    )
    p.add_argument("--n", type=int, required=True, help="input width")
    p.add_argument(
        "--m", type=int, default=None, help="output width (dispersive only)"
    )
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("eval", help="apply a map file to one input word")
    p.add_argument("map_file", metavar="map-file")
    p.add_argument("input", help="input word, e.g. 1011")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="check a property by full enumeration")
    p.add_argument("property", choices=["dispersive", "diffusive"])
    p.add_argument("map_file", metavar="map-file")
    p.add_argument("--k", type=int, default=1, help="max pair distance")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument(
        "--budget", type=int, default=DEFAULT_PAIR_BUDGET,
        help="max pairs to enumerate",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "explore", help="search for a minimal linear k-dispersive map"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument(
        "--budget", type=int, default=DEFAULT_PAIR_BUDGET,
        help="max candidates per width",
    )
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("info", help="describe a map file")
    p.add_argument("map_file", metavar="map-file")
    p.set_defaults(func=cmd_info)

    return parser


def cmd_construct(args: argparse.Namespace) -> int:
    if args.m is not None and args.kind != "dispersive":
        raise ValueError("--m only applies to dispersive constructions")
    if args.kind == "dispersive":
        built = build_dispersive(args.n, args.m)
        text = serialize_generator_matrix(built)
    elif args.kind == "column-diffusive":
        built = column_diffusive(args.n)
        text = serialize_generator_matrix(built)
    else:
        built = g_table(args.n)
        text = serialize_truth_table(built)
    Path(args.out).write_text(text)
    print(f"m={built.output_dim}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    map_ = parse_map_file(Path(args.map_file).read_text())
    word = BitWord.parse(args.input)
    if isinstance(map_, LinearMap):
        print(apply(map_, word))
    else:
        print(map_.lookup(word))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    map_ = parse_map_file(Path(args.map_file).read_text())
    if args.property == "dispersive":
        verify, format_report = verify_k_dispersive, format_dispersion_report
    else:
        verify, format_report = verify_k_diffusive, format_diffusion_report
    report = verify(map_, args.k, budget=args.budget, threads=args.threads)
    print(format_report(report))
    return 0 if report.passed else 1


def cmd_explore(args: argparse.Namespace) -> int:
    PairSpec(args.n, args.k)  # checks n and k even if no width is searched
    total = 0
    for m in range(2, args.m_max + 1, 2):
        outcome = search_linear_k_dispersive(
            args.n, args.k, m, budget=args.budget
        )
        total += outcome.candidates_examined
        if outcome.found:
            print(f"FOUND m={m}")
            sys.stdout.write(serialize_generator_matrix(outcome.witness))
            return 0
        if not outcome.exhausted:
            raise BudgetExceededError(
                outcome.candidates_examined, args.budget, what=f"candidates at m={m}"
            )
    print(f"EXHAUSTED {total} candidates")
    return 2


def cmd_info(args: argparse.Namespace) -> int:
    map_ = parse_map_file(Path(args.map_file).read_text())
    if isinstance(map_, LinearMap):
        print(
            f"generator matrix n={map_.input_dim} m={map_.output_dim} "
            f"rank={rank(map_.generators)}"
        )
    else:
        injective = "yes" if map_.is_injective() else "no"
        print(
            f"truth table n={map_.input_dim} m={map_.output_dim} "
            f"injective={injective}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; 2 means "search
        # exhausted" here, so remap.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # BudgetExceededError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
