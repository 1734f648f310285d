"""End-to-end acceptance checks.

Each test covers one numbered criterion, appends one PASS/FAIL line to the
summary printed after the run, and asserts the underlying facts.  The bulk
of the verification work is shared through one full check report at the
default sweep caps (rank 8 for the symmetric side, 6 for the signed side).
"""

import math

import pytest

import acceptance_log
from wachsposets import checks
from wachsposets.bruhat import bruhat_leq_b
from wachsposets.qpoly import X
from wachsposets.wachs import (
    closed_polys, coatom_c, decode, encode, enumerate_wachs, rank_lw,
    wachs_covers, wachs_leq,
)


@pytest.fixture(scope="module")
def report():
    data = checks.report(max_n_a=8, max_n_b=6)
    return {(c["id"], c["kind"], c["n"]): c for c in data["checks"]}


def conclude(k, name, ok, detail=""):
    line = f"ACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'}"
    acceptance_log.LINES.append(line)
    assert ok, f"{line} {detail}"


def statuses(report, cid, n_max=None):
    got = [c for (i, _, n), c in report.items()
           if i == cid and (n_max is None or n <= n_max)]
    assert got, f"no cells recorded for {cid}"
    return got


def all_pass(report, cid, n_max=None):
    bad = [c for c in statuses(report, cid, n_max) if c["status"] != "pass"]
    return not bad, str(bad)


# ---------------------------------------------------------------- criteria


def test_criterion_01_cardinalities():
    ok = (len(enumerate_wachs("A", 4)) == 8
          and len(enumerate_wachs("A", 5)) == 24
          and len(enumerate_wachs("B", 3)) == 16)
    for n in range(1, 9):
        m = n // 2
        want = 2 ** m * math.factorial(m) * (m + 1 if n % 2 else 1)
        ok = ok and len(enumerate_wachs("A", n)) == want
    for n in range(1, 7):
        m = n // 2
        want = 4 ** m * math.factorial(m) * (2 * (m + 1) if n % 2 else 1)
        ok = ok and len(enumerate_wachs("B", n)) == want
    conclude(1, "cardinalities", ok)


FIG_S4 = [("3421", "4321"), ("4312", "4321"), ("3412", "3421"),
          ("3412", "4312"), ("2143", "3412"), ("1243", "2143"),
          ("2134", "2143"), ("1234", "1243"), ("1234", "2134")]

_S5_NODES = {
    "1-4": "54321", "2-3": "53421", "2-5": "54312", "3-3": "43521",
    "3-5": "53412", "4-2": "52143", "4-4": "34521", "4-6": "43512",
    "5-1": "51243", "5-3": "52134", "5-5": "34512", "5-7": "43215",
    "6-1": "21543", "6-3": "51234", "6-5": "34215", "6-7": "43125",
    "7-2": "12543", "7-4": "21534", "7-6": "34125", "8-3": "12534",
    "8-5": "21435", "9-3": "12435", "9-5": "21345", "10-4": "12345",
}
_S5_EDGES = [
    ("1-4", "2-3"), ("1-4", "2-5"), ("2-3", "3-3"), ("2-3", "3-5"),
    ("2-5", "3-5"), ("3-3", "4-4"), ("3-3", "4-6"), ("3-5", "4-2"),
    ("3-5", "4-6"), ("4-2", "5-1"), ("4-2", "5-3"), ("4-4", "5-5"),
    ("4-6", "5-5"), ("4-6", "5-7"), ("5-1", "6-1"), ("5-1", "6-3"),
    ("5-3", "6-3"), ("5-5", "6-1"), ("5-5", "6-5"), ("5-7", "6-5"),
    ("5-7", "6-7"), ("6-1", "7-2"), ("6-1", "7-4"), ("6-3", "7-4"),
    ("6-5", "7-6"), ("6-7", "7-6"), ("7-2", "8-3"), ("7-4", "8-3"),
    ("7-4", "8-5"), ("7-6", "8-5"), ("8-3", "9-3"), ("8-5", "9-3"),
    ("8-5", "9-5"), ("9-3", "10-4"), ("9-5", "10-4"),
]
FIG_S5 = [(_S5_NODES[b], _S5_NODES[a]) for a, b in _S5_EDGES]

_B3_NODES = {
    "1-3": "[-1,-2,-3]", "2-3": "[-2,-1,-3]", "3-2": "[2,1,-3]",
    "3-4": "[-3,-1,-2]", "4-1": "[1,2,-3]", "4-3": "[-3,-2,-1]",
    "4-5": "[3,-1,-2]", "5-2": "[-3,2,1]", "5-4": "[3,-2,-1]",
    "6-1": "[-3,1,2]", "6-3": "[3,2,1]", "6-5": "[-1,-2,3]",
    "7-2": "[3,1,2]", "7-4": "[-2,-1,3]", "8-3": "[2,1,3]",
    "9-3": "[1,2,3]",
}
_B3_EDGES = [
    ("1-3", "2-3"), ("2-3", "3-2"), ("2-3", "3-4"), ("3-2", "4-1"),
    ("3-4", "4-3"), ("3-4", "4-5"), ("4-1", "5-2"), ("4-3", "5-2"),
    ("4-3", "5-4"), ("4-5", "5-4"), ("5-2", "6-1"), ("5-2", "6-3"),
    ("5-4", "6-3"), ("5-4", "6-5"), ("6-1", "7-2"), ("6-3", "7-2"),
    ("6-5", "7-4"), ("7-2", "8-3"), ("7-4", "8-3"), ("8-3", "9-3"),
]
FIG_B3 = [(_B3_NODES[b], _B3_NODES[a]) for a, b in _B3_EDGES]


def test_criterion_02_figures():
    def hasse(kind, n):
        p = checks.bruhat_poset(kind, n)
        return {(p.elements[i], p.elements[j]) for i, j in p.covers}

    ok = (hasse("A", 4) == set(FIG_S4)
          and hasse("A", 5) == set(FIG_S5)
          and hasse("B", 3) == set(FIG_B3))
    conclude(2, "figure reproduction", ok)


def test_criterion_03_gradedness_and_rank(report):
    ok, detail = all_pass(report, "graded-A")
    ok2, detail2 = all_pass(report, "graded-B")
    seqs_ok = True
    pentagonal = [1, 5, 12, 22, 35]
    matchstick = [3, 9, 18, 30, 45]
    squares3 = [3, 12, 27, 48, 75]
    octagonal = [8, 21, 40, 65, 96]
    for m in range(1, 6):
        seqs_ok &= closed_polys("A", 2 * m).rank == pentagonal[m - 1]
        seqs_ok &= closed_polys("A", 2 * m + 1).rank == matchstick[m - 1]
        seqs_ok &= closed_polys("B", 2 * m).rank == squares3[m - 1]
        seqs_ok &= closed_polys("B", 2 * m + 1).rank == octagonal[m - 1]
    conclude(3, "gradedness and rank", ok and ok2 and seqs_ok,
             detail + detail2)


def test_criterion_04_order_predicate(report):
    ok, d = all_pass(report, "order-A")
    ok2, d2 = all_pass(report, "order-B")
    conclude(4, "closed-form order vs oracle", ok and ok2, d + d2)


def test_criterion_05_covers(report):
    ok, d = all_pass(report, "covers-A")
    ok2, d2 = all_pass(report, "covers-B")
    conclude(5, "closed-form covers vs transitive reduction", ok and ok2,
             d + d2)


def test_criterion_06_polynomials(report):
    ok = True
    detail = ""
    for cid in ("rankpoly-A", "rankpoly-B", "charpoly-A", "charpoly-B",
                "statdist-A"):
        good, d = all_pass(report, cid)
        ok &= good
        detail += d if not good else ""
    ok &= closed_polys("A", 4).rank_gen == (1 + X) ** 2 * (1 + X ** 3)
    ok &= closed_polys("A", 4).char == (X - 1) ** 2 * X ** 3
    conclude(6, "polynomial identities", ok, detail)


def test_criterion_07_mobius(report):
    ok, d = all_pass(report, "mobius-A", n_max=7)
    ok2, d2 = all_pass(report, "mobius-B", n_max=5)
    conclude(7, "Moebius closed form", ok and ok2, d + d2)


def test_criterion_08_worked_examples():
    checks_list = []
    checks_list.append(
        encode((4, 3, 1, 2, 7, 5, 6)) == (3, (2, 1, 3), frozenset({1})))
    checks_list.append(
        encode((-1, -2, 5, 6, -7, 3, 4)) == (-3, (-1, 3, 2), frozenset({1})))
    checks_list.append(coatom_c((-9, 4, 3, -6, -5, 2, 1, -8, -7))
                       == (9, 4, 3, -6, -5, 2, 1, -8, -7))
    checks_list.append(coatom_c((4, 3, -6, -5, 9, 2, 1, -8, -7))
                       == (4, 3, -6, -5, 9, 1, 2, -8, -7))
    checks_list.append(coatom_c((3, 4, -9, 1, 2, 6, 5, -7, -8))
                       == (-9, 4, 3, 1, 2, 6, 5, -7, -8))
    u = decode((4, (2, 4, 3, 1), frozenset({1, 2, 3})), 9)
    v = decode((3, (3, 4, 2, 1), frozenset({2})), 9)
    checks_list.append(wachs_leq(u, v, "A"))
    u = (3, 4, -5, -6, 1, 2, 9, -7, -8)
    v = (-3, -4, -9, 1, 2, -5, -6, -8, -7)
    checks_list.append(not wachs_leq(u, v, "B"))
    chain = [(9, 2, 1, -3, -4, 8, 7, -6, -5),
             (-9, 2, 1, -3, -4, 8, 7, -6, -5),
             (1, 2, -9, -3, -4, 8, 7, -6, -5),
             (1, 2, -9, -3, -4, 8, 7, -5, -6)]
    for lo, hi in zip(chain, chain[1:]):
        checks_list.append(lo in wachs_covers(hi, "B"))
    # the final printed window of this published chain sits strictly below
    # the fourth one (its rank is smaller), so the chain stops there
    tail = (1, 2, -9, -6, -5, 8, 7, -4, -3)
    checks_list.append(rank_lw(tail, "B") < rank_lw(chain[3], "B"))
    checks_list.append(not bruhat_leq_b(chain[3], tail))
    checks_list.append(rank_lw((3, 4, 2, 1, 5, 6), "A") == 4)
    checks_list.append(rank_lw((3, 4, 7, 2, 1, 5, 6), "A") == 8)
    checks_list.append(rank_lw((-1, -2, 5, 6, -7, 3, 4), "B") == 17)
    v = (7, 8, 2, 1, 5, 6, 9, 3, 4)
    checks_list.append({(7, 8, 1, 2, 5, 6, 9, 3, 4),
                        (7, 8, 2, 1, 5, 6, 4, 3, 9),
                        (6, 5, 2, 1, 8, 7, 9, 3, 4)}
                       <= wachs_covers(v, "A"))
    ok = all(checks_list)
    conclude(8, "worked examples", ok,
             f"failed entries: {[i for i, c in enumerate(checks_list) if not c]}")


def test_criterion_09_weak_order(report):
    ok = True
    detail = ""
    for cid in ("weakiso-A", "weakiso-B", "nongraded-weakL",
                "nongraded-remark"):
        good, d = all_pass(report, cid)
        ok &= good
        detail += d if not good else ""
    conclude(9, "weak order structure", ok, detail)


def test_criterion_10_conjecture_sweeps(report):
    ok, d = all_pass(report, "mobiusA")
    ok2, d2 = all_pass(report, "mobiusB")
    cells = checks.check_cells("latticeAodd", 9)
    results = checks.run_cells(cells)
    ok3 = all(r.ok for r in results) and ("latticeAodd", "A", 9) in [
        (r.id, r.kind, r.n) for r in results]
    conclude(10, "conjecture sweeps", ok and ok2 and ok3,
             d + d2 + str([r for r in results if not r.ok]))
