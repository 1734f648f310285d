"""Generic finite poset engine: construction, grading, Moebius function,
polynomials, products, duality and isomorphism."""

import itertools

import pytest
from hypothesis import given, strategies as st

from wachsposets.posets import (
    PosetError, build_poset, cartesian_product, characteristic_polynomial,
    dual_check, grade, inclusion_up_sets, lattice_checks, mobius_row,
    ordinal_product, poset_from_up, poset_isomorphic,
    rank_generating_polynomial, to_dot, to_json,
)
from wachsposets.qpoly import IntPolynomial, q_int


def chain(k):
    return build_poset(range(k), lambda a, b: a <= b)


def antichain(k):
    return build_poset(range(k), lambda a, b: a == b)


def subsets_poset(m):
    items = [frozenset(s) for r in range(m + 1)
             for s in itertools.combinations(range(m), r)]
    return build_poset(items, lambda a, b: a <= b,
                       key=lambda s: "".join(str(x) for x in sorted(s)) or "e")


def divisor_poset(n):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return build_poset(divs, lambda a, b: b % a == 0)


# ------------------------------------------------------------- construction


def test_build_validates_reflexivity():
    with pytest.raises(PosetError):
        build_poset([1, 2], lambda a, b: a < b)


def test_build_validates_antisymmetry():
    with pytest.raises(PosetError):
        build_poset([1, 2], lambda a, b: True, key=str)


def test_build_validates_transitivity():
    pairs = {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)}
    with pytest.raises(PosetError):
        build_poset([1, 2, 3], lambda a, b: (a, b) in pairs)


def test_build_rejects_duplicate_keys():
    with pytest.raises(PosetError):
        build_poset([1, 2], lambda a, b: a <= b, key=lambda x: "same")


def test_from_up_validates_with_the_build_messages():
    # 1 <= 2 <= 3 but not 1 <= 3, written as up-set masks
    for up, message in (([0b10, 0b10], "not reflexive at 1"),
                        ([0b11, 0b11], "antisymmetry fails at 1, 2"),
                        ([0b011, 0b110, 0b100],
                         "transitivity fails: 1 <= 2 <= 3")):
        items = list(range(1, len(up) + 1))
        with pytest.raises(PosetError) as got:
            poset_from_up(items, up)
        assert str(got.value) == message
        with pytest.raises(PosetError) as got:
            build_poset(items, lambda a, b: up[a - 1] >> (b - 1) & 1)
        assert str(got.value) == message


def test_from_up_rejects_malformed_masks():
    with pytest.raises(PosetError):
        poset_from_up([1, 2], [0b11])           # one up-set too few
    with pytest.raises(PosetError):
        poset_from_up([1, 2], [0b101, 0b10])    # names a third element
    with pytest.raises(PosetError):
        poset_from_up([1, 2], [0b11, 0b10], key=lambda x: "same")


def _relation_errors(n, rel):
    """Naive check of a reflexive relation given as a set of pairs."""
    if any((a, b) in rel and (b, a) in rel for a in range(n)
           for b in range(n) if a != b):
        return "antisymmetry"
    if any((a, b) in rel and (b, c) in rel and (a, c) not in rel
           for a in range(n) for b in range(n) for c in range(n)):
        return "transitivity"
    return None


def _draw_partial_order(data, n):
    """A random partial order on range(n): each pair a < b is drawn or
    not, oriented along a random labelling, and the pairs are closed
    transitively."""
    label = data.draw(st.permutations(range(n)))
    rel = {(a, a) for a in range(n)}
    for a, b in itertools.combinations(range(n), 2):
        if data.draw(st.booleans()):
            rel.add((label[a], label[b]))
    for c, a, b in itertools.product(range(n), repeat=3):
        if (a, c) in rel and (c, b) in rel:
            rel.add((a, b))
    return rel


def _up_masks(n, rel):
    return [sum(1 << b for b in range(n) if (a, b) in rel) for a in range(n)]


@given(st.data())
def test_from_up_accepts_exactly_the_partial_orders(data):
    n = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        # half the cases are partial orders
        rel = _draw_partial_order(data, n)
    else:
        pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1))))
        rel = pairs | {(a, a) for a in range(n)}
    up = _up_masks(n, rel)
    error = _relation_errors(n, rel)
    if error:
        with pytest.raises(PosetError, match=error):
            poset_from_up(range(n), up)
        return
    p = poset_from_up(range(n), up)
    idx = [p.items.index(a) for a in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        assert p.leq(idx[a], idx[b]) == ((a, b) in rel)
        assert (p.down[idx[b]] >> idx[a] & 1) == ((a, b) in rel)
        covered = (a != b and (a, b) in rel and not any(
            c not in (a, b) and (a, c) in rel and (c, b) in rel
            for c in range(n)))
        assert ((idx[a], idx[b]) in p.covers) == covered
    least = [a for a in range(n) if all((a, b) in rel for b in range(n))]
    greatest = [b for b in range(n) if all((a, b) in rel for a in range(n))]
    assert p.minimum() == (idx[least[0]] if least else None)
    assert p.maximum() == (idx[greatest[0]] if greatest else None)


def test_inclusion_up_sets():
    sets = [frozenset(s) for r in range(4)
            for s in itertools.combinations(range(3), r)]
    want = [sum(1 << j for j, y in enumerate(sets) if x <= y) for x in sets]
    assert inclusion_up_sets(sets) == want


def test_elements_form_a_linear_extension():
    p = subsets_poset(3)
    for i, j in p.covers:
        assert i < j


def test_covers_are_a_transitive_reduction():
    p = subsets_poset(3)
    # reachability through covers regenerates the order
    n = len(p)
    reach = [1 << i for i in range(n)]
    for i, j in sorted(p.covers, reverse=True):
        reach[i] |= reach[j]
    for i in range(n):
        assert reach[i] == p.up[i]


def test_minimum_and_maximum():
    p = chain(4)
    assert p.items[p.minimum()] == 0
    assert p.items[p.maximum()] == 3
    assert antichain(2).minimum() is None


# ------------------------------------------------------------------ grading


def test_chain_is_graded():
    g = grade(chain(5))
    assert g.graded and g.rank == 4 and g.witness is None


def test_pentagon_is_not_graded():
    # 0 < x < 1 and 0 < y < z < 1
    pairs = {("0", "x"), ("0", "y"), ("0", "z"), ("0", "1"),
             ("x", "1"), ("y", "z"), ("y", "1"), ("z", "1")}
    leq = lambda a, b: a == b or (a, b) in pairs  # noqa: E731
    p = build_poset(["0", "x", "y", "z", "1"], leq)
    g = grade(p)
    assert not g.graded
    assert g.witness is not None
    rep = lattice_checks(p)
    assert rep.is_lattice


def test_grade_requires_bounds():
    with pytest.raises(PosetError):
        grade(antichain(2))


# ------------------------------------------------------------------ Moebius


def test_mobius_of_boolean_lattice():
    p = subsets_poset(3)
    row = mobius_row(p, p.minimum())
    assert row[p.maximum()] == -1
    for j, s in enumerate(p.items):
        assert row[j] == (-1) ** len(s)


def test_mobius_of_divisor_lattice():
    p = divisor_poset(60)
    mu = dict(zip(p.items, mobius_row(p, p.minimum())))
    assert mu[30] == -1 and mu[60] == 0 and mu[6] == 1 and mu[2] == -1


def test_mobius_recursion_identity():
    for p in (subsets_poset(3), divisor_poset(60)):
        for i in range(len(p)):
            row = mobius_row(p, i)
            for j in range(len(p)):
                if not p.leq(i, j):
                    assert row[j] == 0
                    continue
                total = sum(row[z] for z in range(len(p))
                            if p.leq(i, z) and p.leq(z, j))
                assert total == (1 if i == j else 0)


# -------------------------------------------------------------- polynomials


def test_rank_generating_polynomial():
    assert rank_generating_polynomial(chain(4)) == q_int(4)
    assert rank_generating_polynomial(subsets_poset(3)) == \
        IntPolynomial([1, 3, 3, 1])


def test_characteristic_polynomial():
    x = IntPolynomial([0, 1])
    assert characteristic_polynomial(subsets_poset(3)) == (x - 1) ** 3
    assert characteristic_polynomial(divisor_poset(12)) == x * (x - 1) ** 2


# ----------------------------------------------------------------- lattices


def test_boolean_lattice_is_complemented():
    rep = lattice_checks(subsets_poset(3))
    assert rep.is_lattice and rep.is_complemented


def test_chain_is_a_non_complemented_lattice():
    rep = lattice_checks(chain(3))
    assert rep.is_lattice and not rep.is_complemented
    assert rep.witness[0] == "complement"


def test_bowtie_is_not_a_lattice():
    # two minimal elements under two maximal elements, plus global bounds
    pairs = set()
    order = {"bot": 0, "a": 1, "b": 1, "c": 2, "d": 2, "top": 3}
    for u, ru in order.items():
        for v, rv in order.items():
            if u == v or ru >= rv:
                continue
            if {ru, rv} == {1, 2}:
                pairs.add((u, v))
            elif u == "bot" or v == "top":
                pairs.add((u, v))
    leq = lambda a, b: a == b or (a, b) in pairs  # noqa: E731
    p = build_poset(list(order), leq)
    rep = lattice_checks(p)
    assert not rep.is_lattice


def _lattice_by_definition(n, rel):
    """(is_lattice, is_complemented) of a bounded poset on range(n), from
    the two-sided definition: every pair has a least common upper bound
    and a greatest common lower bound."""
    def least(s):
        return next((z for z in s if all((z, w) in rel for w in s)), None)

    def greatest(s):
        return next((z for z in s if all((w, z) in rel for w in s)), None)

    everything = list(range(n))
    bot, top = least(everything), greatest(everything)
    join, meet = {}, {}
    for a, b in itertools.product(everything, repeat=2):
        join[a, b] = least([z for z in everything
                            if (a, z) in rel and (b, z) in rel])
        meet[a, b] = greatest([z for z in everything
                               if (z, a) in rel and (z, b) in rel])
    if None in join.values() or None in meet.values():
        return False, False
    return True, all(any(meet[a, b] == bot and join[a, b] == top
                         for b in everything) for a in everything)


@given(st.data())
def test_lattice_checks_match_the_definition(data):
    # a random partial order on 1..k under a new least element 0 and a
    # new greatest element k + 1
    k = data.draw(st.integers(1, 7))
    inner = _draw_partial_order(data, k)
    n = k + 2
    rel = {(a + 1, b + 1) for a, b in inner}
    rel |= {(0, b) for b in range(n)} | {(a, n - 1) for a in range(n)}
    rep = lattice_checks(poset_from_up(range(n), _up_masks(n, rel)))
    assert (rep.is_lattice, rep.is_complemented) == \
        _lattice_by_definition(n, rel)


# ----------------------------------------------------------------- products


def test_cartesian_product_of_chains_is_a_grid():
    p = cartesian_product(chain(2), chain(2))
    assert poset_isomorphic(p, subsets_poset(2))[0]


def test_ordinal_product_of_chains_is_a_chain():
    p = ordinal_product(chain(3), chain(4))
    assert poset_isomorphic(p, chain(12))[0]


def test_ordinal_product_order():
    p = ordinal_product(chain(2), antichain(2))
    # (0, x) <= (1, y) for all x, y; no order within a level
    idx = {p.items[i]: i for i in range(len(p))}
    assert p.leq(idx[(0, 0)], idx[(1, 1)])
    assert not p.leq(idx[(0, 0)], idx[(0, 1)])


def test_product_rank_polynomials_multiply():
    a, b = subsets_poset(2), chain(3)
    got = rank_generating_polynomial(cartesian_product(a, b))
    assert got == (rank_generating_polynomial(a)
                   * rank_generating_polynomial(b))


# -------------------------------------------------------- duality, iso, I/O


def test_dual_check_on_a_chain():
    p = chain(4)
    flip = {str(i): str(3 - i) for i in range(4)}
    assert dual_check(p, flip)
    ident = {str(i): str(i) for i in range(4)}
    assert not dual_check(p, ident)
    with pytest.raises(PosetError):
        dual_check(p, {str(i): "0" for i in range(4)})


def test_isomorphism_decisions():
    assert poset_isomorphic(chain(3), chain(3))[0]
    assert not poset_isomorphic(chain(3), antichain(3))[0]
    ok, mapping = poset_isomorphic(subsets_poset(2),
                                   cartesian_product(chain(2), chain(2)))
    assert ok and len(mapping) == 4


def test_dot_export():
    p = subsets_poset(2)
    dot = to_dot(p)
    assert "rankdir=BT" in dot
    assert "rank=same" in dot
    assert dot.count("->") == len(p.covers)


def test_json_export():
    p = chain(3)
    data = to_json(p)
    assert data["elements"] == ["0", "1", "2"]
    assert data["covers"] == [[0, 1], [1, 2]]
    assert data["rank"] == [0, 1, 2]
