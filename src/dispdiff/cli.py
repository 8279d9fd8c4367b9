"""Command-line interface: construct, evaluate, verify, explore, info.

All results go to stdout, diagnostics to stderr. Exit status is 0 for
pass/found, 1 for errors or failed verification, 2 for a search that
exhausted its space without a witness. Identical arguments and input
files produce byte-identical output, regardless of --threads and of the
locale: a map file is read by the library's parse_map_file, as bytes
when it is plain; otherwise it is checked as UTF-8, and each \r\n and
lone \r in it is read as \n. A construct failing at a write or last flush
exits 1 with one error line and no file at --out; a non-regular --out
(/dev/full) is kept, and an out-of-memory kill can leave a partial file.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bitword import DEFAULT_PAIR_BUDGET, BitWord, _check_pairs
from .dispersive import build_dispersive, format_dispersion_report
from .diffusive import column_diffusive, format_diffusion_report, g_table
from .explorer import (
    search_linear_k_dispersive,
    verify_k_dispersive,
    verify_k_diffusive,
)
from .f2linear import (
    LinearMap,
    TruthTableMap,
    parse_map_file,
    rank,
    serialize_generator_matrix,
    serialize_truth_table,
    tabulate,  # unused here; kept because perfbench/tracing.py wraps cli.tabulate
)

# the maps construct builds, by kind: argparse's choices and the dispatch
CONSTRUCT_KINDS = {
    "dispersive": lambda args: build_dispersive(args.n, args.m),
    "diffusive": lambda args: g_table(args.n),
    "column-diffusive": lambda args: column_diffusive(args.n),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispdiff",
        description="Construct and exhaustively verify dispersive and "
        "diffusive maps on fixed-width binary words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a map and write it to a file")
    p.add_argument("kind", choices=CONSTRUCT_KINDS)
    p.add_argument("--n", type=int, required=True, help="input width")
    p.add_argument("--m", type=int, help="output width (dispersive only)")
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
    built = CONSTRUCT_KINDS[args.kind](args)
    fh = open(args.out, "wb")
    try:
        with fh:
            if isinstance(built, LinearMap):
                fh.write(serialize_generator_matrix(built))
            else:
                serialize_truth_table(built, fh)
    except BaseException:
        # a write or close that fails leaves no partial file behind
        if os.path.isfile(args.out):
            os.remove(args.out)
        raise
    print(f"m={built.output_dim}")
    return 0


def _read_map_file(path: str) -> LinearMap | TruthTableMap:
    with open(path, "rb") as fh:
        return parse_map_file(fh)


def cmd_eval(args: argparse.Namespace) -> int:
    map_ = _read_map_file(args.map_file)
    print(map_.lookup(BitWord.parse(args.input)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    map_ = _read_map_file(args.map_file)
    if args.property == "dispersive":
        verify, format_report = verify_k_dispersive, format_dispersion_report
    else:
        verify, format_report = verify_k_diffusive, format_diffusion_report
    report = verify(map_, args.k, budget=args.budget, threads=args.threads)
    print(format_report(report))
    return 0 if report.passed else 1


def cmd_explore(args: argparse.Namespace) -> int:
    _check_pairs(args.n, args.k)  # even if no width is searched
    total = 0
    for m in range(2, args.m_max + 1, 2):
        outcome = search_linear_k_dispersive(
            args.n, args.k, m, budget=args.budget
        )
        total += outcome.candidates_examined
        if outcome.found:
            print(f"FOUND m={m}")
            sys.stdout.write(serialize_generator_matrix(outcome.witness).decode())
            return 0
    print(f"EXHAUSTED {total} candidates")
    return 2


def cmd_info(args: argparse.Namespace) -> int:
    map_ = _read_map_file(args.map_file)
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
        status = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone: say nothing, and point stdout at devnull so
        # the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # BudgetExceededError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the refused allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
