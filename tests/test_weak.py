"""Left-inversion sets, weak orders and the product structure of the weak
order on (signed) Wachs permutations."""

import itertools

from wachsposets.bruhat import bruhat_leq_a, bruhat_leq_b
from wachsposets.checks import weak_poset
from wachsposets.perms import (
    all_perms, all_windows, compose, length_a, length_b, signed_reflection,
)
from wachsposets.posets import grade, lattice_checks, poset_isomorphic
from wachsposets.wachs import enumerate_wachs
from wachsposets.weak import tl_set_a, tl_set_b, weak_leq, \
    weak_product_iso


def test_tl_set_examples():
    assert tl_set_a((2, 1)) == frozenset({(1, 2)})
    assert tl_set_a((1, 2, 3)) == frozenset()
    assert tl_set_b((-1, 2)) == frozenset({(1, -1)})
    assert (1, -1) in tl_set_b((-2, -1))


def test_tl_set_size_is_length():
    for w in all_perms(4):
        assert len(tl_set_a(w)) == length_a(w)
    for w in all_windows(3):
        assert len(tl_set_b(w)) == length_b(w).total


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
        lw = length_b(w).total
        for a in range(1, 4):
            for b in itertools.chain(range(-3, -a), [-a], range(a + 1, 4)):
                t = signed_reflection(a, b, 3)
                got = (a, b) in tl_set_b(w)
                assert got == (length_b(compose(t, w)).total < lw)


def test_weak_leq_sides():
    assert weak_leq((1, 2, 3), (3, 2, 1), "R", "A")
    assert weak_leq((2, 1, 3), (3, 1, 2), "L", "A")
    assert not weak_leq((2, 1, 3), (1, 3, 2), "R", "A")
    assert weak_leq((1, 2), (-1, 2), "R", "B")


def test_weak_order_implies_bruhat():
    for u, v in itertools.product(all_perms(4), repeat=2):
        if weak_leq(u, v, "R", "A"):
            assert bruhat_leq_a(u, v)
    for u, v in itertools.product(all_windows(3), repeat=2):
        if weak_leq(u, v, "R", "B"):
            assert bruhat_leq_b(u, v)


def test_weak_covers_multiply_by_a_simple_generator():
    # covers of the right weak order on the full group append one simple
    # generator and raise length by one
    import wachsposets.posets as posets

    perms = list(all_perms(4))
    tls = {w: tl_set_a(w) for w in perms}
    p = posets.build_poset(perms, lambda x, y: tls[x] <= tls[y])
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


def test_right_and_left_wachs_posets_are_isomorphic():
    assert poset_isomorphic(weak_poset("A", 6, "R"),
                            weak_poset("A", 6, "L"))[0]
    assert poset_isomorphic(weak_poset("B", 4, "R"),
                            weak_poset("B", 4, "L"))[0]


def test_left_weak_order_is_not_graded_on_wachs_elements():
    assert not grade(weak_poset("A", 5, "L")).graded
    assert not grade(weak_poset("B", 3, "L")).graded
    # while the right side is even a lattice
    assert lattice_checks(weak_poset("A", 5, "R")).is_lattice
    assert lattice_checks(weak_poset("B", 3, "R")).is_lattice


def test_product_structure():
    res = weak_product_iso(weak_poset("A", 5, "R"), "A")
    assert res.holds and res.witness is None
    res = weak_product_iso(weak_poset("B", 4, "R"), "B")
    assert res.holds
    res = weak_product_iso(weak_poset("B", 2, "R"), "B")
    assert res.holds
    for kind, n in (("A", 5), ("B", 4)):
        rep = lattice_checks(weak_poset(kind, n, "R"))
        assert rep.is_lattice and rep.is_complemented


def test_product_structure_counts():
    # the factor poset sizes multiply up to the Wachs count
    import math
    for kind, n in (("A", 6), ("B", 5)):
        m = n // 2
        group = (math.factorial(m + (n % 2)) if kind == "A"
                 else 2 ** (m + (n % 2)) * math.factorial(m + (n % 2)))
        assert len(enumerate_wachs(kind, n)) == group * 2 ** m
