"""
Command line front end: enumeration, Hasse diagram export, theorem and
conjecture checks, and JSON reports.

Exit codes: 0 all requested checks pass, 1 some check failed,
2 usage error, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks
from .perms import SizeCapError
from .posets import to_dot
from .wachs import enumerate_wachs, kind_record

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _guard_cap(kind: str, n: int, unsafe: bool) -> None:
    cap = kind_record(kind).default_cap
    if n > cap and not unsafe:
        raise SizeCapError(
            f"n={n} exceeds the default cap {cap} for kind {kind}; "
            f"pass --unsafe-large to override")


def cmd_enumerate(args) -> int:
    _guard_cap(args.kind, args.n, args.unsafe_large)
    key = kind_record(args.kind).key
    for v in enumerate_wachs(args.kind, args.n):
        print(key(v))
    return 0


def cmd_hasse(args) -> int:
    _guard_cap(args.kind, args.n, args.unsafe_large)
    if args.order == "bruhat":
        poset = checks.bruhat_poset(args.kind, args.n)
    else:
        side = "R" if args.order == "weakR" else "L"
        poset = checks.weak_poset(args.kind, args.n, side)
    dot = to_dot(poset)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def _print_results(results) -> int:
    worst = 0
    for r in results:
        extra = f" ({r.witness})" if r.witness else ""
        print(f"{r.id} {r.kind} n={r.n} {r.status.upper()}{extra} "
              f"[{r.millis} ms]")
        if not r.ok:
            worst = EXIT_FAIL
    return worst


def cmd_check(args) -> int:
    ids = (checks.THEOREM_IDS if args.category == "theorem"
           else checks.CONJECTURE_IDS)
    if args.id not in ids:
        print(f"unknown {args.category} id {args.id!r}; choose from: "
              + ", ".join(ids), file=sys.stderr)
        return EXIT_USAGE
    default = checks.default_max_n(args.id)
    if (args.max_n is not None and args.max_n > default
            and not args.unsafe_large):
        print(f"--max-n {args.max_n} exceeds the default cap {default}; "
              f"pass --unsafe-large to override", file=sys.stderr)
        return EXIT_CAP
    cells = checks.check_cells(args.id, args.max_n)
    if not cells:
        print(f"--max-n {args.max_n} leaves no cells to check for {args.id}",
              file=sys.stderr)
        return EXIT_USAGE
    return _print_results(checks.run_cells(cells))


def cmd_report(args) -> int:
    rep = checks.report(max_n_a=args.max_n_a, max_n_b=args.max_n_b)
    with open(args.json, "w") as fh:
        json.dump(rep, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failures = [c for c in rep["checks"] if c["status"] != "pass"]
    print(f"wrote {args.json}: {len(rep['checks'])} checks, "
          f"{len(failures)} failing")
    return EXIT_FAIL if failures else 0


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wachs",
        description="Enumerate Wachs and signed Wachs permutations and "
                    "verify the structure of their Bruhat and weak orders.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all Wachs elements of rank n")
    p.add_argument("kind", choices=["A", "B"])
    p.add_argument("n", type=positive_int)
    p.add_argument("--unsafe-large", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("hasse", help="export a Hasse diagram in DOT form")
    p.add_argument("kind", choices=["A", "B"])
    p.add_argument("n", type=positive_int)
    p.add_argument("--order", choices=["bruhat", "weakR", "weakL"],
                   default="bruhat")
    p.add_argument("--dot", metavar="PATH", default=None)
    p.add_argument("--unsafe-large", action="store_true")
    p.set_defaults(fn=cmd_hasse)

    p = sub.add_parser("check", help="run a named theorem or conjecture check")
    p.add_argument("category", choices=["theorem", "conjecture"])
    p.add_argument("id")
    p.add_argument("--max-n", type=positive_int, default=None)
    p.add_argument("--unsafe-large", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("report", help="run everything, write a JSON report")
    p.add_argument("--json", metavar="PATH", required=True)
    p.add_argument("--max-n-a", type=positive_int, default=None)
    p.add_argument("--max-n-b", type=positive_int, default=None)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
