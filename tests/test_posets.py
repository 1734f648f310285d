"""Generic finite poset engine: construction, grading, Moebius rows of
nonzero values, characteristic polynomial, lattice checks, duality and
DOT export."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from wachsposets import checks
from wachsposets.columns import columns
from wachsposets.posets import (
    LatticeReport, PosetError, characteristic_polynomial, dominance_up_sets,
    dual_check, grade, join_witness, lattice_checks, mobius_rows,
    poset_from_up, to_dot,
)
from wachsposets.reference import build_poset
from mobius_oracle import mobius_row_by_recursion, nonzero


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
        poset_from_up([1, 2], [0b11, 0b10], keys=["same", "same"])


def test_from_up_keeps_a_linear_extension_and_sorts_any_other_order():
    # x <= m and a <= m: the sort would put a before x, by key
    p = poset_from_up(["x", "a", "m"], [0b101, 0b110, 0b100])
    assert p.elements == ["x", "a", "m"]
    assert p.covers == [(0, 2), (1, 2)]
    # the oracle builder sorts by down-set size, then key
    p = build_poset([3, 2, 1], lambda a, b: a <= b)     # a chain, top first
    assert p.items == [1, 2, 3]
    assert p.up == [0b111, 0b110, 0b100]
    p = build_poset(["m", "x", "a"], lambda s, t: s == t or t == "m")
    assert p.elements == ["a", "x", "m"]


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


def _draw_bounded_order(data):
    """(n, relation): a random partial order on 1..k under a new least
    element 0 and a new greatest element k + 1, so n = k + 2 <= 9."""
    k = data.draw(st.integers(1, 7))
    inner = _draw_partial_order(data, k)
    n = k + 2
    rel = {(a + 1, b + 1) for a, b in inner}
    rel |= {(0, b) for b in range(n)} | {(a, n - 1) for a in range(n)}
    return n, rel


def _draw_relation(data, n):
    """A random reflexive relation on range(n); half the cases are partial
    orders."""
    if data.draw(st.booleans()):
        return _draw_partial_order(data, n)
    pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1))))
    return pairs | {(a, a) for a in range(n)}


def _up_masks(n, rel):
    return [sum(1 << b for b in range(n) if (a, b) in rel) for a in range(n)]


@given(st.data())
def test_from_up_accepts_exactly_the_partial_orders(data):
    n = data.draw(st.integers(1, 6))
    rel = _draw_relation(data, n)
    error = _relation_errors(n, rel)
    if error:
        with pytest.raises(PosetError, match=error):
            build_poset(range(n), lambda a, b: (a, b) in rel)
        return
    p = build_poset(range(n), lambda a, b: (a, b) in rel)
    assert all(m >> i << i == m for i, m in enumerate(p.up))
    if all((b, a) not in rel for a, b in itertools.combinations(range(n), 2)):
        assert p.items == list(range(n))    # a linear extension is kept
    idx = [p.items.index(a) for a in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        assert p.leq(idx[a], idx[b]) == ((a, b) in rel)
        covered = (a != b and (a, b) in rel and not any(
            c not in (a, b) and (a, c) in rel and (c, b) in rel
            for c in range(n)))
        assert ((idx[a], idx[b]) in p.covers) == covered
    least = [a for a in range(n) if all((a, b) in rel for b in range(n))]
    greatest = [b for b in range(n) if all((a, b) in rel for a in range(n))]
    assert p.minimum() == (idx[least[0]] if least else None)
    assert p.maximum() == (idx[greatest[0]] if greatest else None)


@given(st.data())
def test_from_up_accepts_exactly_the_partial_orders_in_sequence(data):
    n = data.draw(st.integers(1, 6))
    rel = _draw_relation(data, n)
    up = _up_masks(n, rel)
    error = _relation_errors(n, rel)
    if error:
        with pytest.raises(PosetError, match=error):
            poset_from_up(range(n), up)
    elif any((b, a) in rel for a, b in itertools.combinations(range(n), 2)):
        # a partial order, but some element lies below an earlier one
        with pytest.raises(PosetError, match="out of sequence") as got:
            poset_from_up(range(n), up)
        b, a = map(int, re.search(r"(\d+) <= (\d+)", str(got.value)).groups())
        assert (b, a) in rel and a < b
    else:
        p = poset_from_up(range(n), up)
        assert p.items == list(range(n)) and p.up == up


@given(st.integers(0, 6).flatmap(lambda width: st.lists(
    st.lists(st.integers(0, 3), min_size=width, max_size=width).map(bytes),
    max_size=12)), st.integers(0, 4))
def test_dominance_up_sets_match_the_pairwise_definition(rows, repeats):
    rows = rows + rows[:repeats]        # duplicate rows are equal, both ways
    want = [sum(1 << j for j, y in enumerate(rows)
                if all(a <= b for a, b in zip(x, y))) for x in rows]
    assert dominance_up_sets(columns(rows), len(rows)) == want


def test_dominance_up_sets_edge_cases():
    assert dominance_up_sets([], 0) == []
    assert dominance_up_sets([], 2) == [3, 3]       # two words of width 0
    with pytest.raises(ValueError, match="length other than 2"):
        dominance_up_sets([b"\0", b"\0\0"], 2)


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
    row = next(mobius_rows(p, [p.minimum()]))
    assert row[p.maximum()] == -1
    for j, s in enumerate(p.items):
        assert row[j] == (-1) ** len(s)


def test_mobius_of_divisor_lattice():
    p = divisor_poset(60)
    row = next(mobius_rows(p, [p.minimum()]))
    mu = {p.items[j]: m for j, m in row.items()}
    assert mu[30] == -1 and 60 not in mu and mu[6] == 1 and mu[2] == -1


def m3():
    """0 < a, b, c < 1, where mu(0, 1) = 2."""
    return build_poset("0abc1", lambda x, y: x == y or x == "0" or y == "1")


def assert_mobius_recursion(p):
    """Each row holds the nonzero values of the recursion oracle and no
    0, sums to delta(u, v) over every interval [u, v] and has no entry
    off the up-set of u."""
    rows = list(mobius_rows(p, range(len(p))))
    assert rows == [nonzero(mobius_row_by_recursion(p, i))
                    for i in range(len(p))]
    assert all(0 not in row.values() for row in rows)
    for i, row in enumerate(rows):
        for j in range(len(p)):
            if not p.leq(i, j):
                assert j not in row
                continue
            total = sum(m for z, m in row.items()
                        if p.leq(i, z) and p.leq(z, j))
            assert total == (1 if i == j else 0)


def two_levels():
    """0 < a1, ..., a5 < b1, b2 < 1, every a below both b, where
    mu(0, b1) = mu(0, b2) = 4 and mu(0, 1) = -4."""
    level = {"0": 0, "b1": 2, "b2": 2, "1": 3}
    items = ["0", "a1", "a2", "a3", "a4", "a5", "b1", "b2", "1"]
    return build_poset(items, lambda x, y: x == y or
                       level.get(x, 1) < level.get(y, 1))


def test_mobius_recursion_identity():
    assert next(mobius_rows(m3(), [0]))[4] == 2
    for p in (subsets_poset(3), divisor_poset(60), m3(), two_levels()):
        assert_mobius_recursion(p)


def test_mobius_rows_carry_and_shift_large_values():
    p = two_levels()
    row = next(mobius_rows(p, [p.minimum()]))
    assert {p.elements[j]: m for j, m in row.items()} == {
        "0": 1, "a1": -1, "a2": -1, "a3": -1, "a4": -1, "a5": -1,
        "b1": 4, "b2": 4, "1": -4}
    # mu(u, 1) from rows other than the minimum's: u = 0, a1 and b1
    assert [row[8] for row in mobius_rows(p, [0, 1, 6])] == [-4, 1, -1]


def tall_and_short():
    """Two copies of M_3 over one 0: y tops three 2-chains and x three
    atoms, so mu(0, y) = mu(0, x) = 2.  y comes first in the linear
    extension but has the longer chain from 0, so a walk up by height
    would reach x first."""
    below = {"a'": "a", "b'": "b", "c'": "c", "y": "a b c a' b' c'",
             "x": "d e f"}
    items = "0 a b c a' b' c' y d e f x".split()
    p = build_poset(items, lambda s, t: s == t or s == "0" or
                    s in below.get(t, "").split())
    assert p.elements == items          # a linear extension, kept
    return p


@pytest.mark.parametrize("poset,witness", [(m3, "mu(0,1) = 2"),
                                           (tall_and_short, "mu(0,y) = 2")])
def test_mobius_conjecture_names_the_lowest_index_witness(poset, witness,
                                                          monkeypatch):
    p = poset()
    monkeypatch.setattr(checks, "bruhat_poset", lambda kind, n: p)
    assert checks._check_conj_mobius("A", 1) == (False, witness)


@given(st.data())
def test_mobius_recursion_identity_on_random_bounded_posets(data):
    n, rel = _draw_bounded_order(data)
    assert_mobius_recursion(build_poset(range(n), lambda a, b: (a, b) in rel))


@pytest.mark.parametrize("poset", [m3, two_levels, tall_and_short,
                                   lambda: divisor_poset(60)],
                         ids=["m3", "two_levels", "tall_and_short", "d60"])
def test_mobius_rows_list_keys_in_index_order(poset):
    p = poset()
    for u, row in enumerate(mobius_rows(p, range(len(p)))):
        assert list(row) == sorted(row), u


# -------------------------------------------------------------- polynomials


def test_characteristic_polynomial():
    # (x-1)^3 and x (x-1)^2
    assert characteristic_polynomial(subsets_poset(3)) == (-1, 3, -3, 1)
    assert characteristic_polynomial(divisor_poset(12)) == (0, 1, -2, 1)


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


def test_every_pair_of_upper_covers_is_joined():
    # 0 < a, b, c < 1 and a, c < p, q < 1: only a and c have no join, and
    # b sits between them in the linear extension
    below = {"a": "0", "b": "0", "c": "0", "p": "0ac", "q": "0ac",
             "1": "0abcpq"}
    p = build_poset("0abcpq1", lambda x, y: x == y or x in below.get(y, ""))
    assert [p.elements[j] for i, j in p.covers if i == 0] == ["a", "b", "c"]
    assert lattice_checks(p) == LatticeReport(False, False, ("join", "a", "c"))


def _lattice_by_definition(items, rel):
    """(is_lattice, the first item without a complement or None) of a
    bounded poset on `items`, from the two-sided definition: every pair
    has a least common upper bound and a greatest common lower bound,
    and y complements x iff their meet is the least element and their
    join the greatest."""
    def least(s):
        return next((z for z in s if all((z, w) in rel for w in s)), None)

    def greatest(s):
        return next((z for z in s if all((w, z) in rel for w in s)), None)

    bot, top = least(items), greatest(items)
    join, meet = {}, {}
    for a, b in itertools.product(items, repeat=2):
        join[a, b] = least([z for z in items
                            if (a, z) in rel and (b, z) in rel])
        meet[a, b] = greatest([z for z in items
                               if (z, a) in rel and (z, b) in rel])
    if None in join.values() or None in meet.values():
        return False, None
    return True, next((a for a in items if not any(
        meet[a, b] == bot and join[a, b] == top for b in items)), None)


def _report_by_definition(p, rel):
    """The flags and complement witness `lattice_checks` should give."""
    lattice, lonely = _lattice_by_definition(p.items, rel)
    if not lattice or lonely is None:
        return lattice, lattice, None
    return True, False, ("complement", str(lonely), None)


@given(st.data())
def test_lattice_checks_match_the_definition(data):
    n, rel = _draw_bounded_order(data)
    p = build_poset(range(n), lambda a, b: (a, b) in rel)
    rep = lattice_checks(p)
    want = _report_by_definition(p, rel)
    assert (rep.is_lattice, rep.is_complemented) == want[:2]
    if want[2] is not None:
        assert rep.witness == want[2]


def _relation(items, below):
    """The partial order on `items` with x < y iff x is in below[y]."""
    return {(x, y) for x in items for y in items
            if x == y or x in below.get(y, ())}


M9 = ["0", *(f"a{i}" for i in range(1, 10)), "1"]
# each relation as {y: the items below y}
FIXED_LATTICES = {
    "one element": (["0"], {}),
    # nine atoms that are also the nine coatoms: two runs of lanes each
    "M_9": (M9, {"1": M9[:-1], **{a: ["0"] for a in M9[1:-1]}}),
    # M_9 below a chain m < 1: no atom has a complement
    "M_9 under a chain": (M9[:-1] + ["m", "1"], {
        "1": M9[:-1] + ["m"], "m": M9[:-1],
        **{a: ["0"] for a in M9[1:-1]}}),
    # coatoms c > a1..a8, x and d > b, with a9 < x, b: a9, read in the
    # second run of atom lanes, is the first element without a
    # complement, and x has none because b and d lie above a9
    "nine atoms, two coatoms": (M9[:-1] + ["x", "b", "c", "d", "1"], {
        **{a: ["0"] for a in M9[1:-1]}, "x": ["0", "a9"],
        "b": ["0", "a9"], "c": M9[:-1] + ["x"], "d": ["0", "a9", "b"],
        "1": M9[:-1] + ["x", "b", "c", "d"]}),
}


@pytest.mark.parametrize("name", FIXED_LATTICES)
def test_lattice_checks_on_fixed_posets(name):
    items, below = FIXED_LATTICES[name]
    rel = _relation(items, below)
    p = build_poset(items, lambda x, y: (x, y) in rel)
    assert p.items == items
    assert lattice_checks(p) == LatticeReport(*_report_by_definition(p, rel))
    assert join_witness(p) is None


# ------------------------------------------------------------ duality, DOT


@given(st.data())
def test_dual_check_matches_the_comparable_pair_definition(data):
    n = data.draw(st.integers(1, 5))
    rel = _draw_partial_order(data, n)
    p = build_poset(range(n), lambda a, b: (a, b) in rel)
    f = data.draw(st.permutations(range(n)))
    want = all(((a, b) in rel) == ((f[b], f[a]) in rel)
               for a, b in itertools.product(range(n), repeat=2))
    index = {key: i for i, key in enumerate(p.elements)}
    assert dual_check(p, [index[str(f[int(key)])]
                          for key in p.elements]) == want


def test_dual_check_on_a_chain():
    p = chain(4)
    assert dual_check(p, [3, 2, 1, 0])
    assert not dual_check(p, [0, 1, 2, 3])
    bijection = "mapping is not a bijection on the elements"
    with pytest.raises(PosetError, match=bijection):
        dual_check(p, [0] * 4)
    # an image that leaves the poset, too few and too many images
    with pytest.raises(PosetError, match=bijection):
        dual_check(p, [3, 2, 1, 4])
    with pytest.raises(PosetError, match=bijection):
        dual_check(p, [3, 2, 1])
    with pytest.raises(PosetError, match=bijection):
        dual_check(p, [3, 2, 1, 0, 4])


def test_dot_export():
    p = subsets_poset(2)
    dot = to_dot(p)
    assert "rankdir=BT" in dot
    assert "rank=same" in dot
    assert dot.count("->") == len(p.covers)
