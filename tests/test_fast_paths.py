"""The fast paths against their independent oracles: the Bruhat up-sets
against the tableau criterion, the weak-order masks against containment
of left-inversion sets, the closed-form order masks against the pairwise
predicate, the closed-form cover masks against the covers of the Bruhat
poset, every Moebius row against the one-element-at-a-time recursion,
and enumeration by decoding against a
membership filter of the whole group, on every rank up to the default
caps; the element table against `encode`, `rank_lw`, the keys and the
tile order of each element, and the cover masks against `wachs_covers`,
through A9 and B7; the column texts against `format_perm` and
`format_window` through A12 and B10; the column Wachs check and the
column lengths against `is_wachs`, `length_a` and `length_b` on all of
S_n, n <= 8, and B_n, n <= 6, on malformed words and on extremal words
at the caps; the lane statistic 3 emaj + odes against `stats_a` on
every element through A10; and a planted fault of the column decoder,
which enumeration must reject naming the first bad code and word.
Also: no pipeline cell encodes an element, a corrupted table rank fails
the graded check at that element, planted faults of the slot window,
the signature and the cover rules (the slot slide, the cells T must
miss) and a cover dropped from the Bruhat order of G_m fail the order
and cover checks with a witness naming the pair (and the side that
relates it) or the element, and planted faults
of the closed forms, the table ranks, the longest element, the Moebius
row and rows, the weak-order factor map, the stabilizer, the descent
weights, the items of the self-dual poset, the grading and the lattice
and join tests fail exactly the cells of their checks, with their
witnesses, and every check id is failed by at least one of these
mutants; a closed form of up-sets, cover masks or product up-sets one
row short or one row long fails its order, covers or weakiso cell with
a witness naming both counts, and one with a bit past the last element
with a witness naming the row and the bit; the Bruhat order of G_m that
both closed forms read against the reflection covers of
`reference.bruhat_covers` on S_1-S_5 and B_1-B_4; a rank past the
validation cap is refused before the N^2 kernel runs."""

import re

import pytest
from hypothesis import given, strategies as st

from wachsposets import checks, reference, wachs, weak
from wachsposets.bruhat import bruhat_up_sets
from wachsposets.columns import (
    cells, columns, emaj_odes, lengths, not_wachs, signed_words, texts,
)
from wachsposets.perms import (
    SizeCapError, all_perms, all_windows, embed_tilde, format_perm,
    identity, inverse, length_b,
)
from wachsposets.posets import (
    FinitePoset, LatticeReport, dominance_up_sets, grade, mobius_rows,
)
from wachsposets.reference import (
    bruhat_leq_a, bruhat_leq_b, build_poset, format_window, length_a,
    stats_a, tl_set,
)
from mobius_oracle import mobius_row_by_recursion, nonzero

CELLS = [(kind, n) for kind, top in (("A", 8), ("B", 6))
         for n in range(1, top + 1)]
GROUPS = {"A": all_perms, "B": all_windows}
LEQ = {"A": bruhat_leq_a, "B": bruhat_leq_b}
KEY = {"A": format_perm, "B": format_window}
LENGTH = {"A": length_a, "B": length_b}


def assert_same_poset(p, q):
    assert p.elements == q.elements and p.items == q.items
    assert p.up == q.up and p.covers == q.covers


def filtered_wachs(kind, n):
    """The enumeration oracle: every element of G_n, kept by is_wachs."""
    return sorted(w for w in GROUPS[kind](n) if reference.is_wachs(w))


@pytest.mark.parametrize("kind,n", CELLS)
def test_bruhat_poset_matches_tableau_oracle(kind, n):
    key, length = KEY[kind], LENGTH[kind]
    elems = sorted(wachs.element_table(kind, n).items,
                   key=lambda v: (length(v), key(v)))
    oracle = build_poset(elems, LEQ[kind], key=key)
    assert_same_poset(checks.bruhat_poset(kind, n), oracle)


def test_bruhat_up_sets_on_whole_groups():
    for n in range(1, 6):
        words = list(all_perms(n))
        assert bruhat_up_sets(words) == [
            sum(1 << j for j, v in enumerate(words) if bruhat_leq_a(u, v))
            for u in words]
    for n in range(1, 5):
        windows = list(all_windows(n))
        assert bruhat_up_sets([embed_tilde(w) for w in windows]) == [
            sum(1 << j for j, v in enumerate(windows) if bruhat_leq_b(u, v))
            for u in windows]


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("kind,n", CELLS)
def test_weak_poset_matches_inversion_set_containment(kind, n, side):
    key = KEY[kind]
    tls = {v: tl_set(inverse(v) if side == "L" else v)
           for v in wachs.element_table(kind, n).items}
    elems = sorted(tls, key=lambda v: (len(tls[v]), key(v)))
    oracle = build_poset(elems, lambda x, y: tls[x] <= tls[y], key=key)
    assert_same_poset(checks.weak_poset(kind, n, side), oracle)


@pytest.mark.parametrize("kind,n", CELLS)
def test_wachs_up_sets_match_pairwise_wachs_leq(kind, n):
    elems = wachs.element_table(kind, n).items
    assert wachs.wachs_up_sets(kind, n) == [
        sum(1 << j for j, v in enumerate(elems) if reference.wachs_leq(u, v))
        for u in elems]


@pytest.mark.parametrize("kind,n", CELLS)
def test_cover_masks_match_wachs_covers_and_the_poset(kind, n):
    # the comparison with wachs_covers is the next test's, through A9, B7
    p = checks.bruhat_poset(kind, n)
    below = [0] * len(p)
    for i, j in p.covers:
        below[j] |= 1 << i
    assert wachs.wachs_cover_masks(kind, n) == below


@pytest.mark.parametrize("kind,n", [("A", n) for n in range(1, 10)] +
                         [("B", n) for n in range(1, 8)])
def test_cover_masks_stay_in_the_rank_and_match_wachs_covers(kind, n):
    items = wachs.element_table(kind, n).items
    masks = wachs.wachs_cover_masks(kind, n)
    assert len(masks) == len(items)
    assert not any(mask >> len(items) for mask in masks)
    for v, mask in zip(items, masks):
        assert {u for b, u in enumerate(items)
                if mask >> b & 1} == reference.wachs_covers(v)


def test_group_order_matches_the_reflection_covers():
    # every G_m that an order or covers cell reaches under the
    # validation cap: S_m to A11, B_m to B8
    for kind, top in (("A", 5), ("B", 4)):
        for m in range(1, top + 1):
            group = wachs.group_order(kind, m)
            assert sorted(group) == sorted(GROUPS[kind](m))
            assert list(map(length_b, group)) == sorted(map(length_b, group))
            for tau, moves in group.items():
                assert sorted(moves) == sorted(reference._moves(tau)), tau


_signature, _head_covers = wachs._signature, wachs._head_covers
_group_order = wachs.group_order


def _cover_dropped(kind, m):
    """The Bruhat order of G_m, each element's first lower cover gone."""
    return {tau: moves[1:] for tau, moves in _group_order(kind, m).items()}


# planted faults of the closed forms, each the fault of one function:
# (name, replacement, the check it breaks, the ranks it fails among A1-A6
# and B1-B4, or None for at least one of them)
MUTANTS = {
    "window keeps every cell": (
        "_slot_window", lambda slot_u, slot_v, m: frozenset(range(1, m + 1)),
        "_check_order", {("A", 3), ("A", 5), ("B", 3)}),
    "window keeps no cell": (
        "_slot_window", lambda slot_u, slot_v, m: frozenset(),
        "_check_order", {(kind, n) for kind, top in (("A", 6), ("B", 4))
                         for n in range(2, top + 1)}),
    "signature drops its count": (
        "_signature", lambda p, c: _signature(p, c)[:1],
        "_check_order", {("A", 6), ("B", 4)}),
    "covers drop the slot slide": (
        "_head_covers", lambda head, moves: [
            rule for rule in _head_covers(head, moves)
            if rule[0][:-1] == head[:-1]],
        "_check_covers", {("A", 3), ("A", 5), ("B", 1), ("B", 3)}),
    "the order of G_m drops a cover (order)": (
        "group_order", _cover_dropped, "_check_order",
        {(kind, n) for kind, lo, top in (("A", 4, 6), ("B", 2, 4))
         for n in range(lo, top + 1)}),
    "the order of G_m drops a cover (covers)": (
        "group_order", _cover_dropped, "_check_covers",
        {(kind, n) for kind, lo, top in (("A", 4, 6), ("B", 2, 4))
         for n in range(lo, top + 1)}),
    "covers ignore the cells T holds": (
        "_missing", lambda cells, span: range(span), "_check_covers", None),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_order_and_cover_checks_fail_on_a_planted_mutant(mutant, monkeypatch):
    name, fake, check, failing = MUTANTS[mutant]
    monkeypatch.setattr(wachs, name, fake)
    failed = set()
    for kind, n in [("A", n) for n in range(1, 7)] + \
            [("B", n) for n in range(1, 5)]:
        ok, witness = getattr(checks, check)(kind, n)
        if failing is not None:
            assert ok == ((kind, n) not in failing), (kind, n, witness)
        if ok:
            assert witness is None
            continue
        failed.add((kind, n))
        p = checks.bruhat_poset(kind, n)
        if check == "_check_covers":
            assert witness.startswith("covers of ")
            assert witness[len("covers of "):] in p.elements
            continue
        # the witness names a pair of the rank and the side that holds
        u, v, side = re.fullmatch(
            r"(\S+) <= (\S+) in the (closed form|Bruhat order) only",
            witness).groups()
        in_bruhat = p.up[p.elements.index(u)] >> p.elements.index(v) & 1
        assert in_bruhat == (side == "Bruhat order"), witness
    assert failed


def test_order_witness_of_the_window_mutant(monkeypatch):
    name, fake, _, _ = MUTANTS["window keeps every cell"]
    monkeypatch.setattr(wachs, name, fake)
    assert checks._check_order("A", 3) == (
        False, "213 <= 312 in the Bruhat order only")


_closed_polys, _factor_map = wachs.closed_polys, weak._factor_map
_stabilizer_gi, _element_table = wachs.stabilizer_gi, wachs.element_table
_mobius_closed, _emaj_odes = wachs.mobius_closed, checks.emaj_odes
_bruhat_poset = checks.bruhat_poset


def _times(p, q):
    """The product of two polynomials, as coefficient tuples."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _forms(kind, n, rank_gen=(1,), char=(1,)):
    """The closed forms of a rank, their polynomials times the factors."""
    f = _closed_polys(kind, n)
    return f._replace(rank_gen=_times(f.rank_gen, rank_gen),
                      char=_times(f.char, char))


def _mismatch(field, kind, n, factor):
    """The witness of a check that reads the closed polynomial `field`
    times `factor`: the true polynomial, then the planted one."""
    got = getattr(_closed_polys(kind, n), field)
    return f"{got} != {_times(got, factor)}"


def _bottom_raised_poly(p):
    """p - 1 + x: one count moved from rank 0 to rank 1."""
    p += (0,) * (len(p) < 2)
    return (p[0] - 1, p[1] + 1) + p[2:]


def _bottom_raised(kind, n):
    """The element table of a rank, its bottom one rank higher."""
    table = _element_table(kind, n)
    return table._replace(ranks=(table.ranks[0] + 1,) + table.ranks[1:])


def _ends(kind, n):
    """The keys of the bottom and the top element of a rank."""
    key = KEY[kind]
    return key(identity(n)), key(wachs.longest_element(kind, n))


def _gap_at_the_ends(p):
    """The grading of p, but with a cover gap from bottom to top."""
    return grade(p) if len(p) == 1 else grade(p)._replace(
        graded=False, rank=None, witness=(p.elements[0], p.elements[-1]))


def _graded(p):
    """The grading of p, but graded whatever its covers."""
    return grade(p)._replace(graded=True)


def _first_value_raised(p, us):
    """The Moebius rows of p, the first value of the first row 2 higher."""
    for i, row in enumerate(mobius_rows(p, us)):
        if i == 0:
            first = next(iter(row))
            row = {**row, first: row[first] + 2}
        yield row


def _items_exchanged(kind, n):
    """The Bruhat poset of a rank, its items 1 and 2 exchanged, and its
    keys, up-sets and covers kept."""
    p = _bruhat_poset(kind, n)
    items = list(p.items)
    if len(items) > 2:
        items[1], items[2] = items[2], items[1]
    return FinitePoset(p.elements, items, p.up, p.covers)


def _last_cell_swapped(n):
    """The identity of rank n with the two values of cell n // 2 swapped."""
    w, k = list(identity(n)), n // 2 * 2
    w[k - 2], w[k - 1] = w[k - 1], w[k - 2]
    return tuple(w)


# planted faults of what the checks read, each patched at the module
# attribute `checks` reaches it by: (the patches, each (module, name,
# replacement), the checks run at their default caps, the witness of each
# failing cell)
CHECK_MUTANTS = {
    "grade finds a gap from bottom to top": (
        [(checks, "grade", _gap_at_the_ends)],
        ["graded-A", "graded-B"],
        {(f"graded-{kind}", kind, n): f"cover gap at {_ends(kind, n)}"
         for kind, lo, top in (("A", 2, 8), ("B", 1, 6))
         for n in range(lo, top + 1)}),
    "closed rank one too high at n = 5": (
        [(wachs, "closed_polys", lambda kind, n: (
            f := _closed_polys(kind, n))._replace(rank=f.rank + (n == 5)))],
        ["graded-A", "graded-B"],
        {(f"graded-{kind}", kind, 5): f"rank {rank} != {rank + 1}"
         for kind, rank in (("A", 9), ("B", 21))}),
    "odd-rank B rank_gen times (1 + x)": (
        [(wachs, "closed_polys", lambda kind, n: _forms(
            kind, n, rank_gen=(1, 1) if kind == "B" and n % 2 else (1,)))],
        ["rankpoly-A", "rankpoly-B"],
        {("rankpoly-B", "B", n): _mismatch("rank_gen", "B", n, (1, 1))
         for n in (1, 3, 5)}),
    # the table's rank polynomial is then not reciprocal, and neither is
    # the closed form planted to match it
    "bottom raised in the table and the closed form": (
        [(wachs, "element_table", _bottom_raised),
         (wachs, "closed_polys", lambda kind, n: (
             f := _closed_polys(kind, n))._replace(
                 rank_gen=_bottom_raised_poly(f.rank_gen)))],
        ["rankpoly-A", "rankpoly-B"],
        {(f"rankpoly-{kind}", kind, n): "rank polynomial is not reciprocal"
         for kind, top in (("A", 8), ("B", 6)) for n in range(1, top + 1)}),
    "char times x at n = 7": (
        [(wachs, "closed_polys", lambda kind, n: _forms(
            kind, n, char=(0, 1) if (kind, n) == ("A", 7) else (1,)))],
        ["charpoly-A", "charpoly-B"],
        {("charpoly-A", "A", 7): _mismatch("char", "A", 7, (0, 1))}),
    "char times x at B5": (
        [(wachs, "closed_polys", lambda kind, n: _forms(
            kind, n, char=(0, 1) if (kind, n) == ("B", 5) else (1,)))],
        ["charpoly-A", "charpoly-B"],
        {("charpoly-B", "B", 5): _mismatch("char", "B", 5, (0, 1))}),
    # the self-dual map reverses v, but the top rank read at w_0 becomes
    # 0, so the image of the bottom e breaks rank antisymmetry
    "longest element is the identity": (
        [(wachs, "longest_element", lambda kind, n: identity(n))],
        ["selfdual-A"],
        {("selfdual-A", "A", n):
         f"rank antisymmetry fails at {_ends('A', n)[0]}" for n in range(2, 9)}),
    # v -> v w_0 read through the items, two of them exchanged, is a
    # bijection that reverses the order at A1 to A4 and not from A5 on
    "selfdual reversal on a poset with two items exchanged": (
        [(checks, "bruhat_poset", _items_exchanged)],
        ["selfdual-A"],
        {("selfdual-A", "A", n): "v -> v w_0 is not an antiautomorphism"
         for n in range(5, 9)}),
    # v -> v w_0 still reverses the order, but with e one rank higher
    # r(e w_0) = top is no longer top - r(e)
    "selfdual table with the bottom raised": (
        [(wachs, "element_table", _bottom_raised)],
        ["selfdual-A"],
        {("selfdual-A", "A", n):
         f"rank antisymmetry fails at {_ends('A', n)[0]}" for n in range(1, 9)}),
    # at odd rank e itself has the slot m + 1, so mu(e, e) goes first
    "mobius drops the head of slot m + 1": (
        [(wachs, "mobius_closed", lambda kind, n: _mobius_closed(
            kind, n) if n % 2 == 0 else {})],
        ["mobius-A", "mobius-B"],
        {(f"mobius-{kind}", kind, n): f"mu(e, {_ends(kind, n)[0]})"
         for kind, lo, top in (("A", 1, 8), ("B", 3, 6))
         for n in range(lo, top + 1, 2)}),
    # e lies below every element, but its image (e, [m]) lies below no
    # image of a smaller set: first among them, by key, the element of
    # length 1 that swaps the last cell
    "weakiso codes with T complemented": (
        [(weak, "_factor_map", lambda head: [
            (group, (1 << len(head[-1])) - 1 ^ s)
            for group, s in _factor_map(head)])],
        ["weakiso-A", "weakiso-B"],
        {(f"weakiso-{kind}", kind, n):
         f"map mismatch: {(identity(n), _last_cell_swapped(n))}"
         for kind, top in (("A", 8), ("B", 6)) for n in range(2, top + 1)}),
    "weakiso lattice has no complement of the bottom": (
        [(checks, "lattice_checks", lambda p: LatticeReport(
            True, False, ("complement", p.elements[0], None)))],
        ["weakiso-A", "weakiso-B"],
        {(f"weakiso-{kind}", kind, n):
         f"lattice failure: {('complement', _ends(kind, n)[0], None)}"
         for kind, top in (("A", 8), ("B", 6)) for n in range(1, top + 1)}),
    # a column of zeros in front reads each descent one position later:
    # odd descents weigh 3 (i + 1) / 2 and even ones 1
    "statdist with the odd and even descent weights swapped": (
        [(checks, "emaj_odes", lambda cols: _emaj_odes(
            [bytes(len(cols[0]))] + list(cols)))],
        ["statdist-A"],
        {("statdist-A", "A", n): "distribution mismatch"
         for n in (2, 4, 6, 8)}),
    # mu(e, e) = 3 leads the first row of every rank
    "mobius rows with mu(e, e) raised by 2": (
        [(checks, "mobius_rows", _first_value_raised)],
        ["mobiusA", "mobiusB"],
        {(f"mobius{kind}", kind, n): "mu({0},{0}) = 3".format(
            _ends(kind, n)[0])
         for kind, top in (("A", 8), ("B", 6)) for n in range(1, top + 1)}),
    "stabilizer drops one word": (
        [(wachs, "stabilizer_gi", lambda n: _stabilizer_gi(n)[1:])],
        ["gi-stabilizer"],
        {("gi-stabilizer", "A", n): "stabilizer differs"
         for n in (2, 4, 6, 8)}),
    "grade finds the interval graded": (
        [(checks, "grade", _graded)],
        ["nongraded-remark"],
        {("nongraded-remark", "A", 6): "interval is graded"}),
    "grade finds the weak L orders graded": (
        [(checks, "grade", _graded)],
        ["nongraded-weakL"],
        {("nongraded-weakL", "A", 5): "poset is graded",
         ("nongraded-weakL", "B", 3): "poset is graded"}),
    "join_witness finds no join of bottom and top": (
        [(checks, "join_witness", lambda p: (p.elements[0], p.elements[-1]))],
        ["latticeAodd"],
        {("latticeAodd", "A", n): "no join for {}, {}".format(*_ends("A", n))
         for n in (1, 3, 5, 7, 9)}),
}


@pytest.mark.parametrize("mutant", CHECK_MUTANTS)
def test_checks_fail_on_a_planted_mutant(mutant, monkeypatch):
    patches, ids, failing = CHECK_MUTANTS[mutant]
    for module, name, fake in patches:
        monkeypatch.setattr(module, name, fake)
    cells = [cell for check_id in ids for cell in checks.check_cells(check_id)]
    got = {(r.id, r.kind, r.n): r.witness
           for r in checks.run_cells(cells) if not r.ok}
    assert got == failing


def test_every_check_id_fails_on_a_planted_mutant():
    # the failing cells of CHECK_MUTANTS, and the ids whose cells run the
    # check function of a MUTANTS row
    failed = {check_id for *_, failing in CHECK_MUTANTS.values()
              for check_id, _, _ in failing}
    for _, _, check, _ in MUTANTS.values():
        failed |= {check_id for check_id, spec in checks.THEOREMS.items()
                   if spec.fn is getattr(checks, check)}
    assert set(checks.THEOREM_IDS + checks.CONJECTURE_IDS) - failed == set()


def _row_dropped(rows):
    return rows[:-1]


def _row_added(rows):
    return rows + rows[-1:]


def _bit_past_the_end(rows):
    return rows[:-1] + [rows[-1] | 1 << len(rows)]


# the closed forms of the order, covers and weakiso cells, each patched
# at the module attribute `checks` reaches it by
CLOSED_ROWS = {"order": (wachs, "wachs_up_sets"),
               "covers": (wachs, "wachs_cover_masks"),
               "weakiso": (checks, "product_up_sets")}


# each plant with the number of rows it adds
@pytest.mark.parametrize("resize,extra", [(_row_dropped, -1), (_row_added, 1),
                                          (_bit_past_the_end, 0)])
@pytest.mark.parametrize("kind,n,size", [("A", 6, 48), ("B", 4, 32)])
@pytest.mark.parametrize("check", CLOSED_ROWS)
def test_a_closed_form_of_the_wrong_length_fails_its_cell(
        check, kind, n, size, resize, extra, monkeypatch):
    module, name = CLOSED_ROWS[check]
    closed = getattr(module, name)
    monkeypatch.setattr(module, name, lambda kind, n: resize(closed(kind, n)))
    result = checks.run_cell((f"{check}-{kind}", kind, n))
    witness = (f"{size + extra} rows for {size} elements" if extra else
               f"row {size - 1} holds bit {size}, past the {size} elements")
    assert (result.status, result.witness) == ("fail", witness)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind, top in
                                    (("A", 9), ("B", 7))
                                    for n in range(1, top + 1)])
def test_element_table_matches_the_per_element_functions(kind, n):
    key, length = KEY[kind], LENGTH[kind]
    table = wachs.element_table(kind, n)
    assert list(table.items) == sorted(wachs.enumerate_wachs(kind, n),
                                       key=lambda v: (length(v), key(v)))
    # item b is word i = tiles[b] of the rank's columns, of the code
    # heads[i % H] + (cells(i // H),)
    heads, cols = wachs._rank_columns(kind, n)
    assert table.heads == tuple(heads)
    assert [heads[i % len(heads)] + (cells(i // len(heads)),)
            for i in table.tiles] == [reference.encode(v) for v in table.items]
    assert list(table.keys) == list(map(key, table.items))
    assert list(table.ranks) == [reference.rank_lw(v) for v in table.items]
    words = signed_words(cols, n)
    assert [words[i] for i in table.tiles] == list(table.items)


@pytest.mark.parametrize("kind,n", [("A", 7), ("B", 5)])
def test_pipeline_cells_pass_from_cold_caches(kind, n):
    # that no pipeline cell reaches `reference` (encode, rank_lw) is
    # test_reference.test_no_pipeline_module_imports_reference
    for cache in (wachs.element_table, checks.bruhat_poset, checks.weak_poset):
        cache.cache_clear()
    ids = ["graded", "rankpoly", "order", "covers", "mobius", "weakiso"]
    for check_id in ids + ["selfdual"] * (kind == "A"):
        result = checks.run_cell((f"{check_id}-{kind}", kind, n))
        assert result.ok, (check_id, result.witness)


@pytest.mark.parametrize("build,args", [("bruhat_poset", ("A", 12)),
                                        ("weak_poset", ("A", 12, "L"))])
def test_a_rank_past_the_validation_cap_is_refused_before_the_kernel(
        build, args, monkeypatch):
    def kernel(*_):
        raise AssertionError("the N^2 kernel ran")

    for name in ("bruhat_up_sets", "inversion_columns", "dominance_up_sets"):
        monkeypatch.setattr(checks, name, kernel)
    with pytest.raises(SizeCapError, match="^46080 elements exceeds the "
                       "validation cap 25000$"):
        getattr(checks, build)(*args)


@pytest.mark.parametrize("index", [0, 7, -1])
def test_graded_check_catches_a_corrupted_table_rank(index, monkeypatch):
    table = wachs.element_table("A", 5)
    ranks = list(table.ranks)
    ranks[index] += 1
    corrupt = table._replace(ranks=tuple(ranks))
    monkeypatch.setattr(wachs, "element_table", lambda kind, n: corrupt)
    assert checks._check_graded("A", 5) == (
        False, f"rank function differs from l_W at {table.keys[index]}")


@pytest.mark.parametrize("kind,n", CELLS)
def test_mobius_rows_match_the_recursion(kind, n):
    p = checks.bruhat_poset(kind, n)
    rows = list(mobius_rows(p, range(len(p))))
    assert rows == [nonzero(mobius_row_by_recursion(p, u))
                    for u in range(len(p))]
    assert all(0 not in row.values() for row in rows)
    assert all(list(row) == sorted(row) for row in rows)


@pytest.mark.parametrize("kind,n", CELLS)
def test_decoded_enumeration_matches_filter(kind, n):
    assert wachs.enumerate_wachs(kind, n) == filtered_wachs(kind, n)


def test_enumeration_rejects_a_bad_decoding(monkeypatch):
    # a planted fault of the column decoder: word 5 of A4, code
    # ((2, 1), {2}), trades the entries at positions 2 and 3, so that
    # 3421 becomes 3241; the words before it stay Wachs elements
    tile_subsets = wachs.tile_subsets

    def faulty(words, n):
        cols = list(map(bytearray, tile_subsets(words, n)))
        lane = len(cols[0]) - 1 - 5
        cols[1][lane], cols[2][lane] = cols[2][lane], cols[1][lane]
        return list(map(bytes, cols))

    monkeypatch.setattr(wachs, "tile_subsets", faulty)
    message = (r"code \(\(2, 1\), frozenset\(\{2\}\)\) decodes to "
               r"\(3, 2, 4, 1\), which is not a Wachs permutation")
    with pytest.raises(ValueError, match=message):
        wachs.enumerate_wachs("A", 4)
    with pytest.raises(ValueError, match=message):
        wachs.element_table.__wrapped__("A", 4)


def _offset_columns(words, n):
    """The byte columns of the words, with entries w(p) + n."""
    return columns([[v + n for v in w] for w in words])


def _column_verdicts(words, n):
    """Per word: rejected by the column check, and its column length."""
    size = len(words)
    cols = _offset_columns(words, n)
    rejected = not_wachs(cols, n)
    got = lengths(cols, n).to_bytes(size, "little")
    return [rejected >> i & 1 for i in range(size)], list(got)


@pytest.mark.parametrize("kind,top", [("A", 8), ("B", 6)])
def test_column_check_and_lengths_match_the_per_word_functions(kind, top):
    # on all of S_n, n <= 8, and B_n, n <= 6
    length = LENGTH[kind]
    for n in range(1, top + 1):
        words = list(GROUPS[kind](n))
        rejected, column_lengths = _column_verdicts(words, n)
        assert rejected == [not reference.is_wachs(w) for w in words]
        assert column_lengths == list(map(length, words))


def test_lane_statistic_matches_stats_a():
    # every element of A1-A10, odd ranks too
    for n in range(1, 11):
        items = wachs.element_table("A", n).items
        lanes = emaj_odes(columns(items)).to_bytes(len(items), "little")
        assert list(lanes) == [3 * s.emaj + s.odes
                               for s in map(stats_a, items)], n


@pytest.mark.parametrize("kind,top", [("A", 12), ("B", 10)])
def test_column_texts_match_the_keys(kind, top):
    # two-digit entries from rank 10, and the comma form of A10-A12
    key = KEY[kind]
    for n in range(1, top + 1):
        cols = wachs._rank_columns(kind, n)[1]
        assert texts(cols, n, kind) == list(map(key, signed_words(cols, n)))


MALFORMED = [(1, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 5), (2, 1, 4, 4),
             (1, 2, 0, 0), (5, 6, 7, 8), (1, -1, 3, 4), (-4, -3, -2, -1),
             (2, 3, 1, 4), (-1, 2, 3, 4), (-2, -1, 4, 3), (4, 3, 2, 1)]


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-n, 2 * n), min_size=n,
                                  max_size=n).map(tuple),
                         min_size=1, max_size=12))))
def test_column_check_rejects_malformed_words(case):
    # duplicates, 0 and |v| > n, among Wachs elements of the rank; an
    # entry below -n has no byte
    n, words = case
    words = words + list(wachs.element_table("B", n).items[::7])
    if n == 4:
        words += MALFORMED
    rejected, _ = _column_verdicts(words, n)
    assert rejected == [not reference.is_wachs(w) for w in words]


@pytest.mark.parametrize("kind", ["A", "B"])
def test_the_byte_arithmetic_holds_at_the_caps(kind):
    # A16 and B12: entries up to 2n, lengths up to l(w_0) = 120 and 144,
    # the Bruhat kernel on S_16 and S_24, the inversion columns on them
    k = wachs.kind_record(kind)
    n, m = k.max_n, k.max_n // 2
    w0 = k.w0(n)
    words = [identity(n), w0, tuple(reversed(w0)), tuple(map(abs, w0)),
             wachs.decode((k.w0(m), frozenset(range(1, m + 1))), n),
             wachs.decode((identity(m), frozenset({1, m})), n),
             (n,) * n, (1,) * n]
    rejected, column_lengths = _column_verdicts(words, n)
    assert rejected == [not reference.is_wachs(w) for w in words]
    assert rejected == [0, 0, 0, 0, 0, 0, 1, 1]
    assert column_lengths[:6] == list(map(LENGTH[kind], words[:6]))
    assert column_lengths[1] == {"A": 120, "B": 144}[kind]
    group = words[:6]
    assert texts(_offset_columns(group, n), n, kind) == \
        list(map(KEY[kind], group))
    assert bruhat_up_sets(list(map(k.ambient, group))) == [
        sum(1 << j for j, v in enumerate(group) if LEQ[kind](u, v))
        for u in group]
    assert dominance_up_sets(weak.inversion_columns(group, kind), 6) == [
        sum(1 << j for j, v in enumerate(group)
            if tl_set(inverse(u)) <= tl_set(inverse(v))) for u in group]
