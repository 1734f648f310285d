"""
Named verification checks over the (signed) Wachs permutation posets.

Each check id covers a family of (kind, n) cells; a cell is pure and
returns a CheckResult.  Cells run one after another in one process, so
the posets a cell builds are cached for the cells that follow it.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from . import wachs
from .bruhat import bruhat_up_sets
from .columns import columns, emaj_odes
from .perms import format_perm, inverse
from .posets import (FinitePoset, PosetError, _check_size,
                     characteristic_polynomial, dominance_up_sets, dual_check,
                     grade, join_witness, lattice_checks, mobius_rows,
                     poset_from_up)
from .weak import inversion_columns, product_up_sets

__all__ = ["CheckResult", "THEOREM_IDS", "CONJECTURE_IDS",
           "LATTICE_DEFAULT_MAX_N", "default_max_n", "check_cells",
           "run_cell", "run_cells", "report"]

LATTICE_DEFAULT_MAX_N = 9  # (W(S_n), <=_L) lattice sweep: odd n, m <= 4


class CheckResult(namedtuple("CheckResult", [
        "id", "kind", "n",
        "status",       # "pass" | "fail"
        "witness", "millis"])):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@lru_cache(maxsize=None)
def bruhat_poset(kind: str, n: int) -> FinitePoset:
    """Induced Bruhat order on the Wachs elements, from the tableau
    criterion on their images in the ambient symmetric group."""
    table = wachs.element_table(kind, n)
    _check_size(len(table.items))       # before the N^2 kernel
    ambient = wachs.kind_record(kind).ambient
    up = bruhat_up_sets([ambient(v) for v in table.items])
    return poset_from_up(table.items, up, table.keys)


@lru_cache(maxsize=None)
def weak_poset(kind: str, n: int, side: str) -> FinitePoset:
    """Right (left) weak order on the Wachs elements: the left weak order
    on their inverses (on the elements), by inversion columns."""
    table = wachs.element_table(kind, n)
    _check_size(len(table.items))
    xs = table.items if side == "L" else map(inverse, table.items)
    up = dominance_up_sets(inversion_columns(xs, kind), len(table.items))
    return poset_from_up(table.items, up, table.keys)


# ------------------------------------------------------------ check bodies


def _first_difference(closed: Sequence[int], oracle: Sequence[int]):
    """The first row i where a closed form and its oracle differ, the
    lowest bit j where they differ there, and whether the closed form
    holds that bit; None if they agree.  Lists of different lengths
    always differ, and so does a bit j past the last element: a
    PosetError names the counts, or the row and the bit."""
    if len(closed) != len(oracle):
        raise PosetError(f"{len(closed)} rows for {len(oracle)} elements")
    for i, (got, want) in enumerate(zip(closed, oracle)):
        if got != want:
            bits = got ^ want
            j = (bits & -bits).bit_length() - 1
            if j >= len(oracle):
                raise PosetError(f"row {i} holds bit {j}, past the "
                                 f"{len(oracle)} elements")
            return i, j, bool(got >> j & 1)
    return None


def _check_graded(kind, n):
    p = bruhat_poset(kind, n)
    g = grade(p)
    if not g.graded:
        return False, f"cover gap at {g.witness}"
    forms = wachs.closed_polys(kind, n)
    if g.rank != forms.rank:
        return False, f"rank {g.rank} != {forms.rank}"
    ranks = wachs.element_table(kind, n).ranks
    diff = _first_difference(ranks, g.ranks)
    if diff:
        i = diff[0]
        return False, f"rank function differs from l_W at {p.elements[i]}"
    return True, None


def _check_order(kind, n):
    p = bruhat_poset(kind, n)
    diff = _first_difference(wachs.wachs_up_sets(kind, n), p.up)
    if diff:
        i, j, closed = diff
        side = "closed form" if closed else "Bruhat order"
        return False, (f"{p.elements[i]} <= {p.elements[j]} "
                       f"in the {side} only")
    return True, None


def _check_covers(kind, n):
    p = bruhat_poset(kind, n)
    below = [0] * len(p)
    for i, j in p.covers:
        below[j] |= 1 << i
    diff = _first_difference(wachs.wachs_cover_masks(kind, n), below)
    if diff:
        return False, f"covers of {p.elements[diff[0]]}"
    return True, None


def _check_mobius(kind, n):
    p = bruhat_poset(kind, n)
    row = next(mobius_rows(p, [p.minimum()]))
    closed = wachs.mobius_closed(kind, n)
    if row != closed:
        j = min(j for j in row.keys() | closed if row.get(j) != closed.get(j))
        return False, f"mu(e, {p.elements[j]})"
    return True, None


def _check_charpoly(kind, n):
    p = bruhat_poset(kind, n)
    got = characteristic_polynomial(p)
    want = wachs.closed_polys(kind, n).char
    return got == want, None if got == want else f"{got} != {want}"


def _check_rankpoly(kind, n):
    ranks = wachs.element_table(kind, n).ranks
    got = tuple(map(ranks.count, range(max(ranks) + 1)))
    want = wachs.closed_polys(kind, n).rank_gen
    if got != want:
        return False, f"{got} != {want}"
    if got != got[::-1]:
        return False, "rank polynomial is not reciprocal"
    return True, None


def _check_weakiso(kind, n):
    p = weak_poset(kind, n, "R")
    diff = _first_difference(product_up_sets(kind, n), p.up)
    if diff:
        return False, f"map mismatch: {(p.items[diff[0]], p.items[diff[1]])}"
    rep = lattice_checks(p)
    if not rep.is_lattice or not rep.is_complemented:
        return False, f"lattice failure: {rep.witness}"
    return True, None


def _check_selfdual(kind, n):
    p = bruhat_poset("A", n)
    index = {v: i for i, v in enumerate(p.items)}
    img = [index[v[::-1]] for v in p.items]     # v w_0 reverses v
    if not dual_check(p, img):
        return False, "v -> v w_0 is not an antiautomorphism"
    ranks = wachs.element_table("A", n).ranks
    top = ranks[index[wachs.longest_element("A", n)]]
    diff = _first_difference([ranks[j] for j in img],
                             [top - r for r in ranks])
    if diff:
        return False, f"rank antisymmetry fails at {p.elements[diff[0]]}"
    return True, None


def _check_statdist(kind, n):
    # the length generating function is that of 3 emaj + odes, read in
    # every lane of the table's items at once
    table = wachs.element_table("A", n)
    size = len(table.items)
    stats = emaj_odes(columns(table.items)).to_bytes(size, "little")
    ok = sorted(stats) == sorted(table.ranks)
    return ok, None if ok else "distribution mismatch"


def _check_gi(kind, n):
    got = set(wachs.stabilizer_gi(n))
    want = set(wachs.element_table("A", n).items)
    return got == want, None if got == want else "stabilizer differs"


def _check_nongraded_remark(kind, n):
    """The interval [124365, 561234] of the Bruhat order on the A6
    elements with v(1) < v(2) is not graded.  The interval of an induced
    subposet is the full interval cut to the subset, so it is read from
    the cached poset; the full interval has 9 elements and is graded,
    and the cut leaves 5."""
    p = bruhat_poset("A", 6)
    a, b = p.elements.index("124365"), p.elements.index("561234")
    elems = [v for c, v in enumerate(p.items)
             if p.up[a] >> c & 1 and p.up[c] >> b & 1 and v[0] < v[1]]
    p = poset_from_up(elems, bruhat_up_sets(elems), map(format_perm, elems))
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
    for i, row in enumerate(mobius_rows(p, range(len(p)))):
        big = [j for j, value in row.items() if abs(value) > 1]
        if big:
            j = big[0]          # the row's keys run by index
            return False, f"mu({p.elements[i]},{p.elements[j]}) = {row[j]}"
    return True, None


def _check_conj_lattice(kind, n):
    pair = join_witness(weak_poset("A", n, "L"))
    if pair is not None:
        return False, "no join for {}, {}".format(*pair)
    return True, None


_Spec = namedtuple("_Spec", [
    "kind",         # "A", "B" or "AB"
    "fn",
    "ns",           # (kind, max_n) -> list of n
])


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
    try:
        ok, witness = _spec(check_id).fn(kind, n)
    except PosetError as exc:   # the engine found the property broken
        ok, witness = False, str(exc)
    millis = int((time.perf_counter() - start) * 1000)
    return CheckResult(check_id, kind, n, "pass" if ok else "fail",
                       witness, millis)


def run_cells(cells: list) -> Iterator[CheckResult]:
    """Run the cells in order, lazily: each result is yielded as soon as
    it is done."""
    return map(run_cell, cells)


def report(max_n_a: Optional[int] = None,
           max_n_b: Optional[int] = None) -> dict:
    """Run every check at its default (or overridden) cap."""
    caps = {"A": max_n_a, "B": max_n_b}
    cells = sorted(c for cid in THEOREM_IDS + CONJECTURE_IDS
                   for c in _cells(cid, caps))
    return {
        "version": 1,
        "checks": [
            {"id": r.id, "kind": r.kind, "n": r.n, "status": r.status,
             "witness": r.witness, "millis": r.millis}
            for r in run_cells(cells)       # in the order of the cells
        ],
    }
