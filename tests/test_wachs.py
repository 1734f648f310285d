"""Wachs and signed Wachs permutations: membership, codes, rank function,
closed-form order and covers, involutions, Moebius and polynomial identities.
"""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from wachsposets.bruhat import bruhat_up_sets
from wachsposets.checks import check_cells, run_cell, run_cells
from wachsposets.perms import (
    all_perms, all_windows, embed_tilde, format_perm, identity, inverse,
)
from wachsposets.posets import grade
from wachsposets.reference import (
    _frozen_cells, bruhat_covers, bruhat_leq_a, bruhat_leq_b, build_poset,
    chi_map, coatom_c, compose, encode, f_map, full_position, involution,
    is_wachs, length_a, rank_lw, signed_reflection, star, wachs_covers,
    wachs_leq,
)
from wachsposets.wachs import (
    closed_polys, decode, element_table, enumerate_wachs, longest_element,
    mobius_closed, stabilizer_gi,
)


# --------------------------------------------------------------- membership


def test_membership_examples():
    assert is_wachs((2, 1, 4, 3))
    assert is_wachs((1, 2, 3))
    assert not is_wachs((3, 4, -2, 1))
    assert is_wachs((-2, -1, 4, 3))
    assert not is_wachs((1, 3, 2, 4))


def test_membership_rejects_words_that_are_not_permutations():
    # (4, 1, 2, 1) misses the value 3, yet 1, 2 and 3, 4 sit one apart;
    # 3 and 5 are no values of words of length 2 and 3
    for w in ((4, 1, 2, 1), (3, 1), (2, 1, 5)):
        assert not is_wachs(w), w


def test_star_pairing():
    assert [star(i, 6) for i in range(1, 7)] == [2, 1, 4, 3, 6, 5]
    assert [star(i, 7) for i in range(1, 8)] == [2, 1, 4, 3, 6, 5, 7]


def is_wachs_by_partners(w):
    """The membership oracle: the signed positions of i and i* differ by
    at most one, for every i < n, read from a dict."""
    n = len(w)
    pos = {}
    for k, v in enumerate(w, 1):
        pos[v] = k
        pos[-v] = -k
    return all(abs(pos[i] - pos[star(i, n)]) <= 1 for i in range(1, n))


def test_membership_matches_the_partner_oracle():
    for n in range(1, 9):
        for w in all_perms(n):
            assert is_wachs(w) == is_wachs_by_partners(w), w
    for n in range(1, 7):
        for w in all_windows(n):
            assert is_wachs(w) == is_wachs_by_partners(w), w


def test_counts_match_closed_formulas():
    for n in range(1, 9):
        m = n // 2
        want = 2 ** m * math.factorial(m)
        if n % 2 == 1:
            want *= m + 1
        assert len(enumerate_wachs("A", n)) == want
    for n in range(1, 7):
        m = n // 2
        want = 4 ** m * math.factorial(m)
        if n % 2 == 1:
            want *= 2 * (m + 1)
        assert len(enumerate_wachs("B", n)) == want


def test_enumeration_is_sorted_and_valid():
    for kind, n in (("A", 5), ("B", 4)):
        els = enumerate_wachs(kind, n)
        assert els == sorted(els)
        assert len(set(els)) == len(els)
        assert all(is_wachs(v) for v in els)


def test_enumeration_rejects_bad_input():
    for kind, n in (("A", 0), ("A", -3), ("B", 0)):
        with pytest.raises(ValueError):
            enumerate_wachs(kind, n)
    with pytest.raises(ValueError):
        enumerate_wachs("C", 3)


# -------------------------------------------------------------------- codes


def test_chi_map_examples():
    assert chi_map((2, 1, 3, 4, 5)) == (2, 1, 3, 4)
    assert chi_map((5, 1, 2, 3, 4)) == (1, 2, 3, 4)


def test_encode_examples():
    assert encode((4, 3, 1, 2, 7, 5, 6)) == (3, (2, 1, 3), frozenset({1}))
    assert encode((-3, -4, 1, 2, 6, 5)) == ((-2, 1, 3), frozenset({1, 3}))
    assert encode((-1, -2, 5, 6, -7, 3, 4)) == (
        -3, (-1, 3, 2), frozenset({1}))
    # any sequence, as rank_lw, f_map, wachs_covers and wachs_leq take
    assert encode([2, 1]) == encode((2, 1)) == ((1,), frozenset({1}))
    assert encode(range(1, 6)) == (3, (1, 2), frozenset())


def test_encode_rejects_non_wachs():
    with pytest.raises(ValueError):
        encode((1, 3, 2, 4))
    with pytest.raises(ValueError):
        encode((3, 4, -2, 1))


def test_encode_rejects_words_that_are_not_permutations():
    # (3, 1, 2, 1) keeps every pair of partners one apart, and 5 is no
    # value of a word of length 2
    with pytest.raises(ValueError, match=r"not a \(signed\) permutation"):
        encode((3, 1, 2, 1))
    with pytest.raises(ValueError, match=r"not a \(signed\) permutation"):
        encode((1, 5))
    with pytest.raises(ValueError, match=r"not a \(signed\) permutation"):
        wachs_leq((3, 1, 2, 1), (4, 3, 2, 1))


def test_code_round_trip():
    for n in range(1, 8):
        for v in enumerate_wachs("A", n):
            assert decode(encode(v), n) == v
    for n in range(1, 6):
        for v in enumerate_wachs("B", n):
            assert decode(encode(v), n) == v


def test_code_shapes():
    for v in enumerate_wachs("A", 7):
        i, tau, t = encode(v)
        assert 1 <= i <= 4 and len(tau) == 3 and t <= {1, 2, 3}
    for v in enumerate_wachs("B", 5):
        i, tau, t = encode(v)
        assert 1 <= abs(i) <= 3 and len(tau) == 2 and t <= {1, 2}


def test_quotient_map():
    assert length_a(f_map((3, 4, 2, 1, 5, 6))) == 1
    # f is onto the smaller symmetric group
    images = {f_map(v) for v in enumerate_wachs("A", 6)}
    assert images == set(itertools.permutations((1, 2, 3)))


# --------------------------------------------------------------------- rank


def test_rank_examples():
    assert rank_lw((3, 4, 2, 1, 5, 6)) == 4
    assert rank_lw((3, 4, 7, 2, 1, 5, 6)) == 8
    assert rank_lw((-1, -2, 5, 6, -7, 3, 4)) == 17


def test_rank_of_top_element():
    for n in range(1, 9):
        m = n // 2
        top = rank_lw(longest_element("A", n))
        assert top == n * (n - 1) // 2 - m * (m - 1) // 2
    for n in range(1, 7):
        m = n // 2
        top = rank_lw(longest_element("B", n))
        assert top == n * n - m * m


# -------------------------------------------------------------------- order


def test_order_examples():
    u = decode((4, (2, 4, 3, 1), frozenset({1, 2, 3})), 9)
    v = decode((3, (3, 4, 2, 1), frozenset({2})), 9)
    assert wachs_leq(u, v)
    u = (3, 4, -5, -6, 1, 2, 9, -7, -8)
    v = (-3, -4, -9, 1, 2, -5, -6, -8, -7)
    assert not wachs_leq(u, v)


def test_order_matches_oracle_small():
    for n in range(1, 7):
        for u, v in itertools.product(enumerate_wachs("A", n), repeat=2):
            assert wachs_leq(u, v) == bruhat_leq_a(u, v)
    for n in range(1, 5):
        for u, v in itertools.product(enumerate_wachs("B", n), repeat=2):
            assert wachs_leq(u, v) == bruhat_leq_b(u, v)


def _frozen_by_interval_scan(els, up):
    """Brute-force oracle for _frozen_cells: for every comparable pair
    sigma <= tau of the group els, whose up-sets are the bitmasks up, the
    cells on which every element of the interval [sigma, tau] agrees
    with sigma: the interval up[sigma] & down[tau] lies inside the mask
    of the elements with the value of sigma at that cell."""
    m = len(els[0])
    down = [sum(1 << a for a in range(len(els)) if up[a] >> b & 1)
            for b in range(len(els))]
    agree = {}      # (cell, value) -> elements with that value there
    for r, rho in enumerate(els):
        for c in range(1, m + 1):
            agree[c, rho[c - 1]] = agree.get((c, rho[c - 1]), 0) | 1 << r
    out = {}
    for a, sigma in enumerate(els):
        for b in range(len(els)):
            if up[a] >> b & 1:
                interval = up[a] & down[b]
                out[sigma, els[b]] = frozenset(
                    c for c in range(1, m + 1)
                    if interval & ~agree[c, sigma[c - 1]] == 0)
    return out


def test_frozen_cells_match_interval_scan():
    # the rank-matrix test against the interval scan on every comparable
    # pair, ordered by one bruhat_up_sets call on the images in S_m or
    # S_2m (the pairwise oracles check that kernel on the whole groups);
    # S_5 has 3781 such pairs and B_4 has 40249
    for ambient, group, top, pairs in ((tuple, all_perms, 5, 3781),
                                       (embed_tilde, all_windows, 4, 40249)):
        for m in range(1, top + 1):
            els = list(group(m))
            want = _frozen_by_interval_scan(
                els, bruhat_up_sets(list(map(ambient, els))))
            for (sigma, tau), cells in want.items():
                assert _frozen_cells(sigma, tau) == cells, (sigma, tau)
        assert len(want) == pairs


def test_frozen_cells_match_interval_scan_on_s6():
    # the same scan on the 720 elements of S_6, ordered by one
    # bruhat_up_sets call: 98,407 comparable pairs
    els = list(all_perms(6))
    want = _frozen_by_interval_scan(els, bruhat_up_sets(els))
    assert len(want) == 98407
    for (sigma, tau), cells in want.items():
        assert _frozen_cells(sigma, tau) == cells, (sigma, tau)


def test_code_comparison_alone_is_not_the_order():
    # comparing the two code components separately is neither necessary
    # nor sufficient
    u, v = (2, 1, 4, 3, 6, 5), (1, 2, 5, 6, 3, 4)
    (fu, tu), (fv, tv) = encode(u), encode(v)
    assert bruhat_leq_a(fu, fv) and not bruhat_leq_a(u, v)
    u, v = (2, 1, 4, 3), (3, 4, 1, 2)
    (fu, tu), (fv, tv) = encode(u), encode(v)
    assert bruhat_leq_a(u, v) and not tu <= tv


def test_nongraded_remark_is_the_interval_in_the_subposet():
    # [124365, 561234] among all A6 elements: 9 elements, graded; cut to
    # v(1) < v(2) it keeps 5 and loses 431265, the one element between
    # 341265 and 561234
    lo, hi = (1, 2, 4, 3, 6, 5), (5, 6, 1, 2, 3, 4)
    full = [v for v in enumerate_wachs("A", 6)
            if bruhat_leq_a(lo, v) and bruhat_leq_a(v, hi)]
    g = grade(build_poset(full, bruhat_leq_a, key=format_perm))
    assert g.graded and sorted(g.ranks) == [0, 1, 1, 2, 2, 2, 3, 3, 4]
    cut = build_poset([v for v in full if v[0] < v[1]], bruhat_leq_a,
                      key=format_perm)
    assert len(cut) == 5 and (4, 3, 1, 2, 6, 5) in full
    g = grade(cut)
    assert not g.graded and g.witness == ("341265", "561234")
    result = run_cell(("nongraded-remark", "A", 6))
    assert (result.status, result.witness) == (
        "pass", "cover gap at ('341265', '561234')")


# ------------------------------------------------------------------- covers


def test_cover_examples():
    v = (7, 8, 2, 1, 5, 6, 9, 3, 4)
    got = wachs_covers(v)
    assert {(7, 8, 1, 2, 5, 6, 9, 3, 4),
            (7, 8, 2, 1, 5, 6, 4, 3, 9),
            (6, 5, 2, 1, 8, 7, 9, 3, 4)} <= got
    for u in got:
        assert rank_lw(v) - rank_lw(u) == 1
        assert wachs_leq(u, v)


def test_covers_match_transitive_reduction_small():
    for kind, n, leq in (("A", 5, bruhat_leq_a), ("B", 4, bruhat_leq_b)):
        els = enumerate_wachs(kind, n)
        for v in els:
            below = [u for u in els if u != v and leq(u, v)]
            want = {u for u in below
                    if not any(u != z and leq(u, z) for z in below)}
            assert wachs_covers(v) == want


def test_signed_cover_chain():
    chain = [(9, 2, 1, -3, -4, 8, 7, -6, -5),
             (-9, 2, 1, -3, -4, 8, 7, -6, -5),
             (1, 2, -9, -3, -4, 8, 7, -6, -5),
             (1, 2, -9, -3, -4, 8, 7, -5, -6)]
    for lo, hi in zip(chain, chain[1:]):
        assert lo in wachs_covers(hi)
        assert rank_lw(hi) - rank_lw(lo) == 1


# ------------------------------------------------------------- properties

# ranks past the default caps: enumeration decodes codes, so it is cheap
RANKS = [("A", n) for n in range(1, 11)] + [("B", n) for n in range(1, 9)]


@st.composite
def wachs_element(draw):
    kind, n = draw(st.sampled_from(RANKS))
    return kind, draw(st.sampled_from(element_table(kind, n).items))


@given(wachs_element())
def test_decode_inverts_encode(case):
    kind, v = case
    assert decode(encode(v), len(v)) == v


@given(wachs_element())
def test_covers_lie_strictly_below(case):
    kind, v = case
    leq = {"A": bruhat_leq_a, "B": bruhat_leq_b}[kind]
    for u in wachs_covers(v):
        assert u != v and leq(u, v)


@given(wachs_element())
def test_covers_sit_one_rank_lower(case):
    kind, v = case
    for u in wachs_covers(v):
        assert rank_lw(u) == rank_lw(v) - 1


# -------------------------------------------------------------- involutions


def test_involution_examples():
    assert decode(involution(encode((4, 3, 1, 2, 7, 6, 5)), 2, 3), 7) == \
        (4, 3, 6, 5, 7, 1, 2)
    assert involution(((-2, 1, 4, 3), frozenset({1, 4})), 3, -3) == \
        ((-2, 1, -4, 3), frozenset({1, 3, 4}))
    assert involution(((-2, 1, 4, 3), frozenset({1, 4})), 1, -3) == \
        ((-4, 1, 2, 3), frozenset({3, 4}))


def test_involution_wa_is_an_involution():
    for n in (4, 5, 6):
        m = n // 2
        for v in enumerate_wachs("A", n):
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    w = decode(involution(encode(v), i, j), n)
                    assert is_wachs(w)
                    assert decode(involution(encode(w), i, j), n) == v


def test_involution_wb_is_an_involution():
    for v in enumerate_wachs("B", 6):
        code = encode(v)
        m = 3
        for i in range(1, m + 1):
            for j in range(-m, m + 1):
                if j == 0 or i == j or (0 < j < i):
                    continue
                w = involution(code, i, j)
                assert involution(w, i, j) == code


def _swap_slots(sigma, i, j):
    m = len(sigma)
    sw = list(identity(m))
    sw[i - 1], sw[j - 1] = j, i
    return compose(sigma, tuple(sw))


def test_involution_wa_steps_down_one_rank():
    # v = (tau, T), i, j outside T and tau (i,j) covered by tau: the image
    # is one rank below v, and any u < v with quotient below tau (i,j)
    # drops below the image
    for n in (4, 6):
        m = n // 2
        els = enumerate_wachs("A", n)
        for v in els:
            tau, t = encode(v)
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    if i in t or j in t:
                        continue
                    tij = _swap_slots(tau, i, j)
                    if tij not in bruhat_covers(tau):
                        continue
                    w = decode(involution(encode(v), i, j), n)
                    assert wachs_leq(w, v) and w != v
                    assert rank_lw(v) - rank_lw(w) == 1
                    for u in els:
                        if (u != v and wachs_leq(u, v)
                                and bruhat_leq_a(encode(u)[0], tij)):
                            assert wachs_leq(u, w)


def test_involution_wa_steps_down_one_rank_odd():
    # odd rank: same step for the quotient part, and sliding the extremal
    # value two slots to the right also steps down by one
    for n in (5, 7):
        m = n // 2
        for v in enumerate_wachs("A", n):
            k, sig, s = encode(v)
            if k <= m and k not in s:
                p = 2 * k - 1
                w = list(v)
                w[p - 1], w[p + 1] = w[p + 1], w[p - 1]
                w = tuple(w)
                assert is_wachs(w)
                assert wachs_leq(w, v)
                assert rank_lw(v) - rank_lw(w) == 1
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    if i in s or j in s or k in s:
                        continue
                    if _swap_slots(sig, i, j) not in bruhat_covers(sig):
                        continue
                    w = decode(involution(encode(v), i, j), n)
                    assert wachs_leq(w, v) and w != v
                    assert rank_lw(v) - rank_lw(w) == 1


def test_involution_wb_steps_down_one_rank():
    for n in (4, 6):
        m = n // 2
        els = enumerate_wachs("B", n)
        for v in els:
            tau, t = encode(v)
            ctau = bruhat_covers(tau)
            for i in range(1, m + 1):
                for j in itertools.chain(range(-m, 0), range(i + 1, m + 1)):
                    if i == j or i in t or abs(j) in t:
                        continue
                    tij = compose(tau, signed_reflection(i, j, m))
                    if tij not in ctau:
                        continue
                    w = decode(involution((tau, t), i, j), n)
                    assert wachs_leq(w, v) and w != v
                    assert rank_lw(v) - rank_lw(w) == 1
                    for u in els:
                        if (u != v and wachs_leq(u, v)
                                and bruhat_leq_b(encode(u)[0], tij)):
                            assert wachs_leq(u, w)


def test_join_irreducibility_step():
    # u < v with the extremal value of u strictly right of that of v:
    # u stays below the canonical single step down from v
    for n in (5, 7):
        els = enumerate_wachs("A", n)
        for v in els:
            i = v.index(n) + 1
            for u in els:
                if u == v or not wachs_leq(u, v):
                    continue
                if u.index(n) + 1 <= i:
                    continue
                z = list(v)
                if i + 1 < n and v[i] < v[i + 1]:
                    z[i - 1], z[i + 1] = z[i + 1], z[i - 1]
                else:
                    z[i], z[i + 1] = z[i + 1], z[i]
                z = tuple(z)
                assert wachs_leq(u, z) and wachs_leq(z, v) and z != v


def test_interval_subsets_are_union_closed():
    for kind, n, leq in (("A", 5, bruhat_leq_a), ("B", 5, bruhat_leq_b)):
        els = enumerate_wachs(kind, n)
        idx = {v: i for i, v in enumerate(els)}
        leq_m = [[leq(x, y) for y in els] for x in els]
        codes = [encode(v) for v in els]
        for a in range(len(els)):
            for b in range(len(els)):
                if not leq_m[a][b]:
                    continue
                mids: dict = {}
                for c in range(len(els)):
                    if leq_m[a][c] and leq_m[c][b]:
                        i, sig, s = codes[c]
                        mids.setdefault((i, sig), []).append(s)
                for (i, sig), subsets in mids.items():
                    for s1, s2 in itertools.combinations(subsets, 2):
                        w = idx[decode((i, sig, s1 | s2), n)]
                        assert leq_m[a][w] and leq_m[w][b]


# ------------------------------------------------------------- coatom map


def test_coatom_examples():
    assert coatom_c((-9, 4, 3, -6, -5, 2, 1, -8, -7)) == \
        (9, 4, 3, -6, -5, 2, 1, -8, -7)
    assert coatom_c((4, 3, -6, -5, 9, 2, 1, -8, -7)) == \
        (4, 3, -6, -5, 9, 1, 2, -8, -7)
    assert coatom_c((3, 4, -9, 1, 2, 6, 5, -7, -8)) == \
        (-9, 4, 3, 1, 2, 6, 5, -7, -8)


def test_coatom_properties():
    for n in (3, 5):
        els = enumerate_wachs("B", n)
        for v in els:
            j = full_position(v, n)
            if j == n:
                with pytest.raises(ValueError, match="not defined"):
                    coatom_c(v)
                continue
            c = coatom_c(v)
            assert c in wachs_covers(v)
            assert rank_lw(v) - rank_lw(c) == 1
            # the only coatom that moves the extremal value
            movers = {w for w in wachs_covers(v)
                      if full_position(w, n) != j}
            assert movers <= {c}
            # every u below v whose extremal value sits further right
            # stays below c(v)
            for u in els:
                if u != v and wachs_leq(u, v) and full_position(u, n) > j:
                    assert wachs_leq(u, c)


def test_coatom_rejects_words_outside_its_domain():
    # the value n at position n, where the map would read position n + 1
    with pytest.raises(ValueError, match=r"\(1, 2, 3\) has the value n"):
        coatom_c((1, 2, 3))
    with pytest.raises(ValueError, match=r"\(1, 3, 2\) is not a Wachs"):
        coatom_c((1, 3, 2))
    with pytest.raises(ValueError, match="is not a Wachs"):
        coatom_c((3, 4, 1, 2, 6, 7, 5))
    with pytest.raises(ValueError, match="odd rank"):
        coatom_c((2, 1))


# ------------------------------------------------------------------ Moebius


def test_mobius_closed_examples():
    def closed(v):
        n = len(v)
        row = mobius_closed("A", n)
        assert list(row) == sorted(row) and 0 not in row.values()
        return row.get(element_table("A", n).items.index(v), 0)

    assert closed((2, 1, 4, 3)) == 1
    assert closed((1, 2, 4, 3)) == -1
    assert closed((3, 4, 1, 2)) == 0
    assert closed((2, 1, 4, 3)) == 1
    assert closed((1, 2, 3, 4, 5)) == 1
    assert closed((1, 2, 5, 3, 4)) == 0


# -------------------------------------------------------------- polynomials


def test_closed_polynomials():
    # (1+x)^2 (1+x^3), (x-1)^2 x^3; times 1+x^2+x^4; (1+x) (1+x^2)
    forms = closed_polys("A", 4)
    assert forms.rank_gen == (1, 2, 1, 1, 2, 1)
    assert forms.char == (0, 0, 0, 1, -2, 1)
    assert forms.rank == 5
    forms = closed_polys("A", 5)
    assert forms.rank_gen == (1, 2, 2, 3, 4, 4, 3, 2, 2, 1)
    assert forms.rank == 9
    forms = closed_polys("B", 2)
    assert forms.rank_gen == (1, 1, 1, 1)
    assert forms.rank == 3


def test_rank_polynomials_are_reciprocal():
    for kind, top in (("A", 8), ("B", 6)):
        for n in range(1, top + 1):
            gen = closed_polys(kind, n).rank_gen
            assert gen == gen[::-1]


def test_rank_polynomial_counts_elements():
    for kind, top in (("A", 6), ("B", 4)):
        for n in range(1, top + 1):
            gen = closed_polys(kind, n).rank_gen
            assert sum(gen) == len(enumerate_wachs(kind, n))


# --------------------------------------------------- statistics, stabilizer


def test_statistics_distribution():
    # the statdist-A cells, at the even ranks only
    cells = check_cells("statdist-A", 6)
    assert cells == [("statdist-A", "A", n) for n in (2, 4, 6)]
    assert all(r.ok and r.witness is None for r in run_cells(cells))


def test_stabilizer_of_odd_generators():
    for n in (2, 4):
        assert set(stabilizer_gi(n)) == set(enumerate_wachs("A", n))


def test_stabilizer_matches_the_scan_of_all_of_s_n():
    for n in range(1, 9):
        gens = {(*range(1, i), i + 1, i, *range(i + 2, n + 1))
                for i in range(1, n, 2)}
        scan = [w for w in itertools.permutations(range(1, n + 1))
                if all(compose(compose(w, s), inverse(w)) in gens
                       for s in gens)]
        assert stabilizer_gi(n) == scan
