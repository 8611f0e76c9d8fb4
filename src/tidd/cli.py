"""Batch command-line front end.

Subcommands: ``family`` (build a named family and print its size), ``verify``
(run the randomized oracle-equivalence suite), ``bench`` (run one quantum
benchmark and print its metrics row), ``sample`` (draw assignments and print
a histogram).  Output is CSV by default; JSON mirrors it field for field.
Identical argv and seed produce byte-identical output except for the
wall_seconds field, which is the single timing-dependent column.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .analysis import sample as draw_sample
from .bench import csv_line, metrics_row, run_benchmark
from .builders import anti_diagonal, equality_relation, hadamard_family
from .core import Manager, size_metrics, total_states
from .errors import TiddError
from .oracle import run_equivalence_suite

# family kind -> builder(mgr, n)
FAMILIES = {"hadamard": hadamard_family, "eq": equality_relation, "hn": anti_diagonal}


def _count(text: str) -> int:
    """An argparse type for a repetition count: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"{count} is not at least 1")
    return count


def _emit(fmt: str, row: dict) -> None:
    if fmt == "json":
        print(json.dumps(row))
    else:
        print(",".join(row))
        print(csv_line(row.values()))


def _cmd_family(args) -> int:
    t = FAMILIES[args.kind](Manager(), args.n)
    report = size_metrics(t)
    _emit(args.format, {
        "kind": args.kind, "n": args.n, "states": total_states(t),
        "nodes": report.nodes, "edges": report.edges, "total": report.total,
    })
    return 0


def _cmd_verify(args) -> int:
    passed, failed = run_equivalence_suite(Manager(), args.vars, args.cases, args.seed)
    _emit(args.format, {
        "vars": args.vars, "cases": args.cases, "seed": args.seed,
        "passed": passed, "failed": failed,
    })
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    _, metrics = run_benchmark(Manager(), args.algo, args.qubits, args.seed)
    _emit(args.format, metrics_row(args.algo, args.qubits, args.seed, metrics))
    return 0


def _cmd_sample(args) -> int:
    t = FAMILIES[args.kind](Manager(), args.n)
    rng = Random(args.seed)
    histogram: dict[str, int] = {}
    for _ in range(args.shots):
        bits = "".join(map(str, draw_sample(t, rng)))
        histogram[bits] = histogram.get(bits, 0) + 1
    rows = sorted(histogram.items())
    if args.format == "json":
        print(json.dumps({bits: count for bits, count in rows}))
    else:
        print("assignment,count")
        for bits, count in rows:
            print(f"{bits},{count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tidd", description="decision-diagram families, verification, benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="build a family and print its size")
    p.add_argument("--kind", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("verify", help="run the oracle equivalence suite")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--cases", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bench", help="run one quantum benchmark")
    p.add_argument("--algo", choices=("ghz", "bv", "dj"), required=True)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("sample", help="sample assignments from a family")
    p.add_argument("--kind", choices=("eq", "hn"), default="eq")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shots", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sample)

    for p in sub.choices.values():  # added last, so each usage line ends with it
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except TiddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
