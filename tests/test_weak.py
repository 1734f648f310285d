"""Left-inversion sets, weak orders and the product structure of the weak
order on (signed) Wachs permutations."""

import functools
import itertools
import operator

import pytest

from wachsposets import weak
from wachsposets.checks import _check_weakiso, run_cell, weak_poset
from wachsposets.perms import (
    all_perms, all_windows, compose, inverse, length_b,
)
from wachsposets.posets import (
    LatticeReport, dominance_up_sets, grade, lattice_checks,
)
from wachsposets.reference import (
    bruhat_leq_a, bruhat_leq_b, build_poset, length_a, signed_reflection,
    tl_set, tl_set_a, weak_leq,
)
from wachsposets.wachs import enumerate_wachs
from wachsposets.weak import inversion_columns, product_up_sets

_factor_map = weak._factor_map


def test_tl_set_examples():
    assert tl_set_a((2, 1)) == frozenset({(1, 2)})
    assert tl_set_a((1, 2, 3)) == frozenset()
    assert tl_set((-1, 2)) == frozenset({(1, -1)})
    assert (1, -1) in tl_set((-2, -1))


def test_tl_set_size_is_length():
    for w in all_perms(4):
        assert len(tl_set_a(w)) == length_a(w)
    for w in all_windows(3):
        assert len(tl_set(w)) == length_b(w)


def test_tl_set_matches_length_drop():
    # t is a left inversion exactly when t w is shorter than w
    for w in all_perms(4):
        for a in range(1, 5):
            for b in range(a + 1, 5):
                t = tuple(b if x == a else a if x == b else x
                          for x in range(1, 5))
                tw = compose(t, w)
                assert ((a, b) in tl_set_a(w)) == (length_a(tw) < length_a(w))
    for w in all_windows(3):
        lw = length_b(w)
        for a in range(1, 4):
            for b in itertools.chain(range(-3, -a), [-a], range(a + 1, 4)):
                t = signed_reflection(a, b, 3)
                got = (a, b) in tl_set(w)
                assert got == (length_b(compose(t, w)) < lw)


def test_weak_leq_sides():
    assert weak_leq((1, 2, 3), (3, 2, 1), "R")
    assert weak_leq((2, 1, 3), (3, 1, 2), "L")
    assert not weak_leq((2, 1, 3), (1, 3, 2), "R")
    assert weak_leq((1, 2), (-1, 2), "R")


def containment_up_sets(sets):
    """Bit j of up[i] iff sets[i] <= sets[j]: the AND, over the members t
    of sets[i], of the mask of the sets holding t."""
    holders = {}
    for i, s in enumerate(sets):
        for t in s:
            holders[t] = holders.get(t, 0) | 1 << i
    full = (1 << len(sets)) - 1
    return [functools.reduce(operator.and_, map(holders.get, s), full)
            for s in sets]


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("kind,group,n", [("A", all_perms, 6),
                                          ("B", all_windows, 5)])
def test_inversion_rows_order_the_whole_group_as_tl_sets_do(kind, group,
                                                             n, side):
    # the weak order of B_n is that of S_2n on the embed_tilde images
    tl = {"A": tl_set_a, "B": tl_set}[kind]
    for m in range(1, n + 1):
        ws = list(group(m))
        if side == "L":
            rows, sets = ws, [tl(inverse(w)) for w in ws]
        else:
            rows, sets = map(inverse, ws), [tl(w) for w in ws]
        got = dominance_up_sets(inversion_columns(rows, kind), len(ws))
        assert got == containment_up_sets(sets)
        if m <= 3:
            assert got == [sum(1 << j for j, v in enumerate(ws)
                               if weak_leq(u, v, side)) for u in ws]


def test_weak_order_implies_bruhat():
    for u, v in itertools.product(all_perms(4), repeat=2):
        if weak_leq(u, v, "R"):
            assert bruhat_leq_a(u, v)
    for u, v in itertools.product(all_windows(3), repeat=2):
        if weak_leq(u, v, "R"):
            assert bruhat_leq_b(u, v)


def test_weak_covers_multiply_by_a_simple_generator():
    # covers of the right weak order on the full group append one simple
    # generator and raise length by one
    perms = list(all_perms(4))
    tls = {w: tl_set_a(w) for w in perms}
    p = build_poset(perms, lambda x, y: tls[x] <= tls[y])
    simples = [tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, 5))
               for i in range(1, 4)]
    want = set()
    for w in perms:
        for s in simples:
            ws = compose(w, s)
            if length_a(ws) == length_a(w) + 1:
                want.add((w, ws))
    got = {(p.items[i], p.items[j]) for i, j in p.covers}
    assert got == want


def maps_covers_onto(p, q, f):
    """True iff f maps the elements of p one to one onto those of q and
    the covers of p exactly onto those of q.  Such a bijection is an
    isomorphism: each order is the reflexive transitive closure of its
    covers."""
    images = list(map(f, p.items))
    if len(set(images)) != len(p) or set(images) != set(q.items):
        return False
    where = {v: j for j, v in enumerate(q.items)}
    img = [where[x] for x in images]
    return {(img[i], img[j]) for i, j in p.covers} == set(q.covers)


def test_right_and_left_wachs_posets_are_isomorphic():
    # at even rank the Wachs elements are closed under v -> v^-1, which
    # carries the right weak order onto the left one
    for kind, n in [("A", 2), ("A", 4), ("A", 6), ("A", 8),
                    ("B", 2), ("B", 4), ("B", 6)]:
        assert maps_covers_onto(weak_poset(kind, n, "R"),
                                weak_poset(kind, n, "L"), inverse), (kind, n)
    assert not maps_covers_onto(weak_poset("A", 4, "R"),
                                weak_poset("A", 4, "L"), lambda v: v)


def test_left_weak_order_is_not_graded_on_wachs_elements():
    assert not grade(weak_poset("A", 5, "L")).graded
    assert not grade(weak_poset("B", 3, "L")).graded
    # while the right side is even a lattice
    assert lattice_checks(weak_poset("A", 5, "R")).is_lattice
    assert lattice_checks(weak_poset("B", 3, "R")).is_lattice


def test_product_structure():
    for kind, n in (("A", 5), ("B", 4), ("B", 2)):
        assert product_up_sets(kind, n) == weak_poset(kind, n, "R").up
        assert _check_weakiso(kind, n) == (True, None)
    for kind, n in (("A", 5), ("B", 4)):
        rep = lattice_checks(weak_poset(kind, n, "R"))
        assert rep.is_lattice and rep.is_complemented


def test_product_map_failures_name_a_witness(monkeypatch):
    # every tile of a head mapped to the empty subset: 1243 and 1234
    # share the image (e, {}), so each lies below the other in the
    # product order
    monkeypatch.setattr(weak, "_factor_map", lambda head: [
        (group, 0) for group, _ in _factor_map(head)])
    assert _check_weakiso("A", 4) == (
        False, "map mismatch: ((1, 2, 4, 3), (1, 2, 3, 4))")
    # complementing every subset keeps the map a bijection, but not
    # order-preserving
    monkeypatch.setattr(weak, "_factor_map", lambda head: [
        (group, 3 ^ s) for group, s in _factor_map(head)])
    assert _check_weakiso("A", 4) == (
        False, "map mismatch: ((1, 2, 3, 4), (1, 2, 4, 3))")


def test_lattice_aodd_needs_no_complements():
    # the left weak order at A3, A5 and A7 is a lattice in which 21...
    # has no complement; the conjecture cell asks for the joins only
    for n in (3, 5, 7):
        assert lattice_checks(weak_poset("A", n, "L")) == LatticeReport(
            True, False, ("complement", "21" + "".join(
                map(str, range(3, n + 1))), None))
        assert run_cell(("latticeAodd", "A", n)).ok


def test_signed_left_weak_order_is_not_a_lattice_at_b5():
    # the signed analogue of latticeAodd fails at B5 (and B7), while B2,
    # B3, B4 and B6 are lattices
    assert lattice_checks(weak_poset("B", 5, "L")) == LatticeReport(
        False, False, ("join", "[1,2,4,3,5]", "[-5,1,2,3,4]"))
    assert lattice_checks(weak_poset("B", 3, "L")).is_lattice


def test_product_structure_counts():
    # the factor poset sizes multiply up to the Wachs count
    import math
    for kind, n in (("A", 6), ("B", 5)):
        m = n // 2
        group = (math.factorial(m + (n % 2)) if kind == "A"
                 else 2 ** (m + (n % 2)) * math.factorial(m + (n % 2)))
        assert len(enumerate_wachs(kind, n)) == group * 2 ** m
