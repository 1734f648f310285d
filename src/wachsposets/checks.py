"""
Named verification checks over the (signed) Wachs permutation posets.

Each check id covers a family of (kind, n) cells; a cell is pure and
returns a CheckResult.  Cells can be fanned out to a process pool sized
by the WACHS_THREADS environment variable.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from . import wachs
from .bruhat import bruhat_up_sets
from .perms import compose, format_perm, inverse
from .posets import (FinitePoset, characteristic_polynomial, dual_check,
                     grade, inclusion_up_sets, lattice_checks, mobius_row,
                     poset_from_up)
from .qpoly import IntPolynomial
from .weak import tl_set, weak_product_iso

__all__ = ["CheckResult", "THEOREM_IDS", "CONJECTURE_IDS",
           "LATTICE_DEFAULT_MAX_N", "default_max_n", "check_cells",
           "run_cell", "run_cells", "report"]

LATTICE_DEFAULT_MAX_N = 9  # (W(S_n), <=_L) lattice sweep: odd n, m <= 4


@dataclass(frozen=True)
class CheckResult:
    id: str
    kind: str
    n: int
    status: str                 # "pass" | "fail"
    witness: Optional[str]
    millis: int

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@lru_cache(maxsize=None)
def wachs_elements(kind: str, n: int) -> tuple:
    return tuple(wachs.enumerate_wachs(kind, n))


@lru_cache(maxsize=None)
def bruhat_poset(kind: str, n: int) -> FinitePoset:
    """Induced Bruhat order on the Wachs elements, from the rank-matrix
    criterion on their images in the ambient symmetric group."""
    k = wachs.kind_record(kind)
    elems = wachs_elements(kind, n)
    up = bruhat_up_sets([k.ambient(v) for v in elems])
    return poset_from_up(elems, up, key=k.key)


@lru_cache(maxsize=None)
def weak_poset(kind: str, n: int, side: str) -> FinitePoset:
    """Right (left) weak order on the Wachs elements: inclusion of the
    left-inversion sets of the elements (of their inverses)."""
    elems = wachs_elements(kind, n)
    if side == "L":
        tls = [tl_set(inverse(v), kind) for v in elems]
    else:
        tls = [tl_set(v, kind) for v in elems]
    return poset_from_up(elems, inclusion_up_sets(tls),
                         key=wachs.kind_record(kind).key)


# ------------------------------------------------------------ check bodies


def _check_graded(kind, n):
    p = bruhat_poset(kind, n)
    g = grade(p)
    if not g.graded:
        return False, f"cover gap at {g.witness}"
    forms = wachs.closed_polys(kind, n)
    if g.rank != forms.rank:
        return False, f"rank {g.rank} != {forms.rank}"
    for i, v in enumerate(p.items):
        if g.ranks[i] != wachs.rank_lw(v, kind):
            return False, f"rank function differs from l_W at {p.elements[i]}"
    return True, None


def _check_order(kind, n):
    p = bruhat_poset(kind, n)
    for i, u in enumerate(p.items):
        up = p.up[i]
        for j, v in enumerate(p.items):
            if wachs.wachs_leq(u, v, kind) != bool(up >> j & 1):
                return False, f"{p.elements[i]} vs {p.elements[j]}"
    return True, None


def _check_covers(kind, n):
    p = bruhat_poset(kind, n)
    below = {j: set() for j in range(len(p))}
    for i, j in p.covers:
        below[j].add(p.items[i])
    for j, v in enumerate(p.items):
        if wachs.wachs_covers(v, kind) != below[j]:
            return False, f"covers of {p.elements[j]}"
    return True, None


def _check_mobius(kind, n):
    p = bruhat_poset(kind, n)
    row = mobius_row(p, p.minimum())
    for j, v in enumerate(p.items):
        if row[j] != wachs.mobius_closed(wachs.encode(v), n):
            return False, f"mu(e, {p.elements[j]})"
    return True, None


def _check_charpoly(kind, n):
    p = bruhat_poset(kind, n)
    got = characteristic_polynomial(p)
    want = wachs.closed_polys(kind, n).char
    return got == want, None if got == want else f"{got} != {want}"


def _check_rankpoly(kind, n):
    counts: dict = {}
    for v in wachs_elements(kind, n):
        r = wachs.rank_lw(v, kind)
        counts[r] = counts.get(r, 0) + 1
    coeffs = [0] * (max(counts) + 1)
    for r, c in counts.items():
        coeffs[r] = c
    got = IntPolynomial(coeffs)
    want = wachs.closed_polys(kind, n).rank_gen
    if got != want:
        return False, f"{got} != {want}"
    if not got.is_reciprocal():
        return False, "rank polynomial is not reciprocal"
    return True, None


def _check_weakiso(kind, n):
    p = weak_poset(kind, n, "R")
    res = weak_product_iso(p, kind)
    if not res.holds:
        return False, f"map mismatch: {res.witness}"
    rep = lattice_checks(p)
    if not rep.is_lattice or not rep.is_complemented:
        return False, f"lattice failure: {rep.witness}"
    return True, None


def _check_selfdual(kind, n):
    p = bruhat_poset("A", n)
    w0 = wachs.longest_element("A", n)
    mapping = {p.elements[i]: format_perm(compose(v, w0))
               for i, v in enumerate(p.items)}
    if not dual_check(p, mapping):
        return False, "v -> v w_0 is not an antiautomorphism"
    top = wachs.rank_lw(w0, "A")
    for v in p.items:
        if wachs.rank_lw(compose(v, w0), "A") != top - wachs.rank_lw(v, "A"):
            return False, f"rank antisymmetry fails at {format_perm(v)}"
    return True, None


def _check_statdist(kind, n):
    ok = wachs.stats_distribution_check(n)
    return ok, None if ok else "distribution mismatch"


def _check_gi(kind, n):
    got = set(wachs.stabilizer_gi(n))
    want = set(wachs_elements("A", n))
    return got == want, None if got == want else "stabilizer differs"


def _check_nongraded_remark(kind, n):
    lo, hi = (1, 2, 4, 3, 6, 5), (5, 6, 1, 2, 3, 4)
    elems = [v for v in wachs_elements("A", 6) if v[0] < v[1]]
    up = bruhat_up_sets(elems)
    a, b = elems.index(lo), elems.index(hi)
    elems = [v for c, v in enumerate(elems)
             if up[a] >> c & 1 and up[c] >> b & 1]
    p = poset_from_up(elems, bruhat_up_sets(elems), key=format_perm)
    g = grade(p)
    if g.graded:
        return False, "interval is graded"
    return True, f"cover gap at {g.witness}"


def _check_nongraded_weakl(kind, n):
    p = weak_poset(kind, n, "L")
    g = grade(p)
    if g.graded:
        return False, "poset is graded"
    return True, f"cover gap at {g.witness}"


def _check_conj_mobius(kind, n):
    p = bruhat_poset(kind, n)
    for i in range(len(p)):
        for j, value in enumerate(mobius_row(p, i)):
            if value not in (-1, 0, 1):
                return False, f"mu({p.elements[i]},{p.elements[j]}) = {value}"
    return True, None


def _check_conj_lattice(kind, n):
    p = weak_poset("A", n, "L")
    rep = lattice_checks(p)
    if not rep.is_lattice:
        return False, f"no {rep.witness[0]} for {rep.witness[1]}, {rep.witness[2]}"
    return True, None


@dataclass(frozen=True)
class _Spec:
    kind: str                       # "A", "B" or "AB"
    fn: Callable
    ns: Callable                    # (kind, max_n) -> list of n


def _all_n(lo=1, step=1):
    return lambda kind, max_n: list(range(lo, max_n + 1, step))


def _fixed(**ranks):
    """One fixed rank per kind, run when the cap reaches it."""
    return lambda kind, max_n: [n for n in (ranks[kind],) if n <= max_n]


THEOREMS = {
    "graded-A": _Spec("A", _check_graded, _all_n()),
    "graded-B": _Spec("B", _check_graded, _all_n()),
    "order-A": _Spec("A", _check_order, _all_n()),
    "order-B": _Spec("B", _check_order, _all_n()),
    "covers-A": _Spec("A", _check_covers, _all_n()),
    "covers-B": _Spec("B", _check_covers, _all_n()),
    "mobius-A": _Spec("A", _check_mobius, _all_n()),
    # the closed characteristic/Moebius forms assume rank >= 2 in type B
    "mobius-B": _Spec("B", _check_mobius, _all_n(lo=2)),
    "charpoly-A": _Spec("A", _check_charpoly, _all_n()),
    "charpoly-B": _Spec("B", _check_charpoly, _all_n(lo=2)),
    "rankpoly-A": _Spec("A", _check_rankpoly, _all_n()),
    "rankpoly-B": _Spec("B", _check_rankpoly, _all_n()),
    "weakiso-A": _Spec("A", _check_weakiso, _all_n()),
    "weakiso-B": _Spec("B", _check_weakiso, _all_n()),
    "selfdual-A": _Spec("A", _check_selfdual, _all_n()),
    "statdist-A": _Spec("A", _check_statdist, _all_n(lo=2, step=2)),
    "gi-stabilizer": _Spec("A", _check_gi, _all_n(lo=2, step=2)),
    "nongraded-remark": _Spec("A", _check_nongraded_remark, _fixed(A=6)),
    "nongraded-weakL": _Spec("AB", _check_nongraded_weakl, _fixed(A=5, B=3)),
}

CONJECTURES = {
    "mobiusA": _Spec("A", _check_conj_mobius, _all_n()),
    "mobiusB": _Spec("B", _check_conj_mobius, _all_n()),
    "latticeAodd": _Spec("A", _check_conj_lattice, _all_n(step=2)),
}

THEOREM_IDS = list(THEOREMS)
CONJECTURE_IDS = list(CONJECTURES)


def _spec(check_id: str) -> _Spec:
    return THEOREMS.get(check_id) or CONJECTURES[check_id]


def default_max_n(check_id: str) -> int:
    """The largest n a check sweeps unless told otherwise."""
    if check_id == "latticeAodd":
        return LATTICE_DEFAULT_MAX_N
    return max(wachs.kind_record(k).default_cap for k in _spec(check_id).kind)


def _cells(check_id: str, caps: dict) -> list:
    """The (id, kind, n) cells of a check, each kind up to its cap in
    `caps` (None for the default)."""
    spec = _spec(check_id)
    out = []
    for kind in spec.kind:
        cap = caps[kind] if caps[kind] is not None else default_max_n(check_id)
        out.extend((check_id, kind, n) for n in spec.ns(kind, cap))
    return out


def check_cells(check_id: str, max_n: Optional[int] = None) -> list:
    """The (id, kind, n) cells a theorem or conjecture check expands to."""
    return _cells(check_id, {"A": max_n, "B": max_n})


def run_cell(cell: tuple) -> CheckResult:
    check_id, kind, n = cell
    start = time.perf_counter()
    ok, witness = _spec(check_id).fn(kind, n)
    millis = int((time.perf_counter() - start) * 1000)
    return CheckResult(check_id, kind, n, "pass" if ok else "fail",
                       witness, millis)


def run_cells(cells: list) -> list:
    """Run the cells, on a process pool of WACHS_THREADS workers."""
    text = os.environ.get("WACHS_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"WACHS_THREADS must be a positive integer, "
                         f"not {text!r}")
    if threads > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(c) for c in cells]
    return results


def report(max_n_a: Optional[int] = None,
           max_n_b: Optional[int] = None) -> dict:
    """Run every check at its default (or overridden) cap."""
    caps = {"A": max_n_a, "B": max_n_b}
    cells = sorted(c for cid in THEOREM_IDS + CONJECTURE_IDS
                   for c in _cells(cid, caps))
    results = run_cells(cells)
    return {
        "version": 1,
        "checks": [
            {"id": r.id, "kind": r.kind, "n": r.n, "status": r.status,
             "witness": r.witness, "millis": r.millis}
            for r in sorted(results, key=lambda r: (r.id, r.kind, r.n))
        ],
    }
