"""
Validation of `wachs` outputs.  Each checker returns (attempted, failed,
problems): one operation per expected unit of output (a report cell, a
PASS line, an enumeration) plus one for the exit code of the call.
"""

from __future__ import annotations

import json
import math
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_LINE = re.compile(r"^(\S+) ([AB]) n=(\d+) (PASS|FAIL)\b")


def expected_report_cells() -> set:
    """The (id, kind, n) cells the seed's default report runs."""
    with open(os.path.join(HERE, "expected_cells.json")) as fh:
        return {tuple(c) for c in json.load(fh)}


def wachs_count(kind: str, n: int) -> int:
    """Closed-form number of (signed) Wachs elements of rank n."""
    m = n // 2
    base = 2 ** m if kind == "A" else 4 ** m
    odd = (m + 1 if kind == "A" else 2 * (m + 1)) if n % 2 else 1
    return base * math.factorial(m) * odd


def _exit(rc: int, problems: list) -> tuple:
    if rc != 0:
        problems.append(f"exit code {rc}")
        return 1, 1
    return 1, 0


def check_report(report_path: str, rc: int, expected: set) -> tuple:
    problems: list = []
    try:
        with open(report_path) as fh:
            checks = json.load(fh)["checks"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable report: {exc}")
        checks = []
    seen: dict = {}
    for c in checks:
        cell = (c.get("id"), c.get("kind"), c.get("n"))
        seen.setdefault(cell, []).append(c.get("status"))
    attempted, failed = _exit(rc, problems)
    for cell in sorted(expected | set(seen), key=str):
        attempted += 1
        statuses = seen.get(cell)
        if cell not in expected:
            problems.append(f"unexpected cell {cell}")
        elif statuses is None:
            problems.append(f"missing cell {cell}")
        elif statuses != ["pass"]:
            problems.append(f"cell {cell}: {statuses}")
        else:
            continue
        failed += 1
    return attempted, failed, problems


def check_enumeration(kind: str, n: int, rc: int, stdout: str) -> tuple:
    problems: list = []
    attempted, failed = _exit(rc, problems)
    lines = stdout.splitlines()
    want = wachs_count(kind, n)
    attempted += 1
    if len(lines) != want or len(set(lines)) != want:
        problems.append(f"enumerate {kind} {n}: {len(lines)} lines, "
                        f"{len(set(lines))} distinct, want {want}")
        failed += 1
    return attempted, failed, problems


def check_passes(check_id: str, kind: str, ns: list, rc: int,
                 stdout: str) -> tuple:
    """One PASS line per n, and no other result lines."""
    problems: list = []
    attempted, failed = _exit(rc, problems)
    got: dict = {}
    for line in stdout.splitlines():
        m = RESULT_LINE.match(line)
        if m:
            got.setdefault((m[1], m[2], int(m[3])), []).append(m[4])
    expected = {(check_id, kind, n) for n in ns}
    for cell in sorted(expected | set(got), key=str):
        attempted += 1
        if got.get(cell) != ["PASS"] or cell not in expected:
            problems.append(f"{cell}: {got.get(cell, 'missing')}")
            failed += 1
    return attempted, failed, problems
