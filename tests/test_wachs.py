"""Wachs and signed Wachs permutations: membership, codes, rank function,
closed-form order and covers, involutions, Moebius and polynomial identities.
"""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from wachsposets import checks
from wachsposets.bruhat import bruhat_leq_a, bruhat_leq_b, covers_a, covers_b
from wachsposets.perms import (
    all_perms, all_windows, compose, full_position, identity, length_a,
    signed_reflection,
)
from wachsposets.qpoly import IntPolynomial, X
from wachsposets.wachs import (
    _frozen_cells, chi_map, closed_polys, coatom_c, decode, descent_class,
    encode, enumerate_wachs, f_map, involution_wa, involution_wb, is_wachs,
    kind_record, longest_element, mobius_closed, rank_lw, stabilizer_gi,
    star, stats_distribution_check, wachs_covers, wachs_leq,
)


# --------------------------------------------------------------- membership


def test_membership_examples():
    assert is_wachs((2, 1, 4, 3))
    assert is_wachs((1, 2, 3))
    assert not is_wachs((3, 4, -2, 1))
    assert is_wachs((-2, -1, 4, 3))
    assert not is_wachs((1, 3, 2, 4))


def test_star_pairing():
    assert [star(i, 6) for i in range(1, 7)] == [2, 1, 4, 3, 6, 5]
    assert [star(i, 7) for i in range(1, 8)] == [2, 1, 4, 3, 6, 5, 7]


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


def test_encode_rejects_non_wachs():
    with pytest.raises(ValueError):
        encode((1, 3, 2, 4))
    with pytest.raises(ValueError):
        encode((3, 4, -2, 1))


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
    assert rank_lw((3, 4, 2, 1, 5, 6), "A") == 4
    assert rank_lw((3, 4, 7, 2, 1, 5, 6), "A") == 8
    assert rank_lw((-1, -2, 5, 6, -7, 3, 4), "B") == 17


def test_rank_of_top_element():
    for n in range(1, 9):
        m = n // 2
        top = rank_lw(longest_element("A", n), "A")
        assert top == n * (n - 1) // 2 - m * (m - 1) // 2
    for n in range(1, 7):
        m = n // 2
        top = rank_lw(longest_element("B", n), "B")
        assert top == n * n - m * m


# -------------------------------------------------------------------- order


def test_order_examples():
    u = decode((4, (2, 4, 3, 1), frozenset({1, 2, 3})), 9)
    v = decode((3, (3, 4, 2, 1), frozenset({2})), 9)
    assert wachs_leq(u, v, "A")
    u = (3, 4, -5, -6, 1, 2, 9, -7, -8)
    v = (-3, -4, -9, 1, 2, -5, -6, -8, -7)
    assert not wachs_leq(u, v, "B")


def test_order_matches_oracle_small():
    for n in range(1, 7):
        for u, v in itertools.product(enumerate_wachs("A", n), repeat=2):
            assert wachs_leq(u, v, "A") == bruhat_leq_a(u, v)
    for n in range(1, 5):
        for u, v in itertools.product(enumerate_wachs("B", n), repeat=2):
            assert wachs_leq(u, v, "B") == bruhat_leq_b(u, v)


def _frozen_by_interval_scan(elements, leq):
    """Brute-force oracle for _frozen_cells: for every comparable pair
    sigma <= tau of the group, the cells on which every element of the
    interval [sigma, tau] agrees with sigma.  Intervals are bitmasks."""
    els = list(elements)
    m = len(els[0])
    up = [sum(1 << b for b, y in enumerate(els) if leq(x, y)) for x in els]
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
    # pair; S_5 has 3781 such pairs and B_4 has 40249
    for leq, group, top, pairs in ((bruhat_leq_a, all_perms, 5, 3781),
                                   (bruhat_leq_b, all_windows, 4, 40249)):
        for m in range(1, top + 1):
            want = _frozen_by_interval_scan(group(m), leq)
            for (sigma, tau), cells in want.items():
                assert _frozen_cells(sigma, tau) == cells, (sigma, tau)
        assert len(want) == pairs


def test_code_comparison_alone_is_not_the_order():
    # comparing the two code components separately is neither necessary
    # nor sufficient
    u, v = (2, 1, 4, 3, 6, 5), (1, 2, 5, 6, 3, 4)
    (fu, tu), (fv, tv) = encode(u), encode(v)
    assert bruhat_leq_a(fu, fv) and not bruhat_leq_a(u, v)
    u, v = (2, 1, 4, 3), (3, 4, 1, 2)
    (fu, tu), (fv, tv) = encode(u), encode(v)
    assert bruhat_leq_a(u, v) and not tu <= tv


# ------------------------------------------------------------------- covers


def test_cover_examples():
    v = (7, 8, 2, 1, 5, 6, 9, 3, 4)
    got = wachs_covers(v, "A")
    assert {(7, 8, 1, 2, 5, 6, 9, 3, 4),
            (7, 8, 2, 1, 5, 6, 4, 3, 9),
            (6, 5, 2, 1, 8, 7, 9, 3, 4)} <= got
    for u in got:
        assert rank_lw(v, "A") - rank_lw(u, "A") == 1
        assert wachs_leq(u, v, "A")


def test_type_a_elements_read_the_same_as_type_b():
    # S_m is a standard parabolic subgroup of B_m, so the shared code path
    # gives type-A elements the same order, covers and rank under either kind
    for n in range(1, 7):
        els = enumerate_wachs("A", n)
        for v in els:
            assert wachs_covers(v, "B") == wachs_covers(v, "A")
            assert rank_lw(v, "B") == rank_lw(v, "A")
            for u in els:
                assert wachs_leq(u, v, "B") == wachs_leq(u, v, "A")


def test_covers_match_transitive_reduction_small():
    for kind, n, leq in (("A", 5, bruhat_leq_a), ("B", 4, bruhat_leq_b)):
        els = enumerate_wachs(kind, n)
        for v in els:
            below = [u for u in els if u != v and leq(u, v)]
            want = {u for u in below
                    if not any(u != z and leq(u, z) for z in below)}
            assert wachs_covers(v, kind) == want


def test_signed_cover_chain():
    chain = [(9, 2, 1, -3, -4, 8, 7, -6, -5),
             (-9, 2, 1, -3, -4, 8, 7, -6, -5),
             (1, 2, -9, -3, -4, 8, 7, -6, -5),
             (1, 2, -9, -3, -4, 8, 7, -5, -6)]
    for lo, hi in zip(chain, chain[1:]):
        assert lo in wachs_covers(hi, "B")
        assert rank_lw(hi, "B") - rank_lw(lo, "B") == 1


# ------------------------------------------------------------- properties

# ranks past the default caps: enumeration decodes codes, so it is cheap
RANKS = [("A", n) for n in range(1, 11)] + [("B", n) for n in range(1, 9)]


@st.composite
def wachs_element(draw):
    kind, n = draw(st.sampled_from(RANKS))
    return kind, draw(st.sampled_from(checks.wachs_elements(kind, n)))


@given(wachs_element())
def test_decode_inverts_encode(case):
    kind, v = case
    assert decode(encode(v), len(v)) == v


@given(wachs_element())
def test_covers_lie_strictly_below(case):
    kind, v = case
    leq = kind_record(kind).leq
    for u in wachs_covers(v, kind):
        assert u != v and leq(u, v)


@given(wachs_element())
def test_covers_sit_one_rank_lower(case):
    kind, v = case
    for u in wachs_covers(v, kind):
        assert rank_lw(u, kind) == rank_lw(v, kind) - 1


# -------------------------------------------------------------- involutions


def test_involution_examples():
    assert involution_wa((4, 3, 1, 2, 7, 6, 5), 2, 3) == (4, 3, 6, 5, 7, 1, 2)
    assert involution_wb(((-2, 1, 4, 3), frozenset({1, 4})), 3, -3) == \
        ((-2, 1, -4, 3), frozenset({1, 3, 4}))
    assert involution_wb(((-2, 1, 4, 3), frozenset({1, 4})), 1, -3) == \
        ((-4, 1, 2, 3), frozenset({3, 4}))


def test_involution_wa_is_an_involution():
    for n in (4, 5, 6):
        m = n // 2
        for v in enumerate_wachs("A", n):
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    w = involution_wa(v, i, j)
                    assert is_wachs(w)
                    assert involution_wa(w, i, j) == v


def test_involution_wb_is_an_involution():
    for v in enumerate_wachs("B", 6):
        code = encode(v)
        m = 3
        for i in range(1, m + 1):
            for j in range(-m, m + 1):
                if j == 0 or i == j or (0 < j < i):
                    continue
                w = involution_wb(code, i, j)
                assert involution_wb(w, i, j) == code


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
                    if tij not in covers_a(tau):
                        continue
                    w = involution_wa(v, i, j)
                    assert wachs_leq(w, v, "A") and w != v
                    assert rank_lw(v, "A") - rank_lw(w, "A") == 1
                    for u in els:
                        if (u != v and wachs_leq(u, v, "A")
                                and bruhat_leq_a(encode(u)[0], tij)):
                            assert wachs_leq(u, w, "A")


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
                assert wachs_leq(w, v, "A")
                assert rank_lw(v, "A") - rank_lw(w, "A") == 1
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    if i in s or j in s or k in s:
                        continue
                    if _swap_slots(sig, i, j) not in covers_a(sig):
                        continue
                    w = involution_wa(v, i, j)
                    assert wachs_leq(w, v, "A") and w != v
                    assert rank_lw(v, "A") - rank_lw(w, "A") == 1


def test_involution_wb_steps_down_one_rank():
    for n in (4, 6):
        m = n // 2
        els = enumerate_wachs("B", n)
        for v in els:
            tau, t = encode(v)
            ctau = covers_b(tau)
            for i in range(1, m + 1):
                for j in itertools.chain(range(-m, 0), range(i + 1, m + 1)):
                    if i == j or i in t or abs(j) in t:
                        continue
                    tij = compose(tau, signed_reflection(i, j, m))
                    if tij not in ctau:
                        continue
                    w = decode(involution_wb((tau, t), i, j), n)
                    assert wachs_leq(w, v, "B") and w != v
                    assert rank_lw(v, "B") - rank_lw(w, "B") == 1
                    for u in els:
                        if (u != v and wachs_leq(u, v, "B")
                                and bruhat_leq_b(encode(u)[0], tij)):
                            assert wachs_leq(u, w, "B")


def test_join_irreducibility_step():
    # u < v with the extremal value of u strictly right of that of v:
    # u stays below the canonical single step down from v
    for n in (5, 7):
        els = enumerate_wachs("A", n)
        for v in els:
            i = v.index(n) + 1
            for u in els:
                if u == v or not wachs_leq(u, v, "A"):
                    continue
                if u.index(n) + 1 <= i:
                    continue
                z = list(v)
                if i + 1 < n and v[i] < v[i + 1]:
                    z[i - 1], z[i + 1] = z[i + 1], z[i - 1]
                else:
                    z[i], z[i + 1] = z[i + 1], z[i]
                z = tuple(z)
                assert wachs_leq(u, z, "A") and wachs_leq(z, v, "A") and z != v


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
                continue
            c = coatom_c(v)
            assert c in wachs_covers(v, "B")
            assert rank_lw(v, "B") - rank_lw(c, "B") == 1
            # the only coatom that moves the extremal value
            movers = {w for w in wachs_covers(v, "B")
                      if full_position(w, n) != j}
            assert movers <= {c}
            # every u below v whose extremal value sits further right
            # stays below c(v)
            for u in els:
                if u != v and wachs_leq(u, v, "B") and full_position(u, n) > j:
                    assert wachs_leq(u, c, "B")


# ------------------------------------------------------------------ Moebius


def test_mobius_closed_examples():
    assert mobius_closed(encode((2, 1, 4, 3)), 4) == 1
    assert mobius_closed(encode((1, 2, 4, 3)), 4) == -1
    assert mobius_closed(encode((3, 4, 1, 2)), 4) == 0
    assert mobius_closed(encode((2, 1, 4, 3)), 4) == 1
    assert mobius_closed(encode((1, 2, 3, 4, 5)), 5) == 1
    assert mobius_closed(encode((1, 2, 5, 3, 4)), 5) == 0


# -------------------------------------------------------------- polynomials


def test_closed_polynomials():
    forms = closed_polys("A", 4)
    assert forms.rank_gen == (1 + X) ** 2 * (1 + X ** 3)
    assert forms.char == (X - 1) ** 2 * X ** 3
    assert forms.rank == 5
    forms = closed_polys("A", 5)
    assert forms.rank_gen == \
        (1 + X) ** 2 * (1 + X ** 3) * IntPolynomial([1, 0, 1, 0, 1])
    assert forms.rank == 9
    forms = closed_polys("B", 2)
    assert forms.rank_gen == (1 + X) * (1 + X ** 2)
    assert forms.rank == 3


def test_rank_polynomials_are_reciprocal():
    for kind, top in (("A", 8), ("B", 6)):
        for n in range(1, top + 1):
            assert closed_polys(kind, n).rank_gen.is_reciprocal()


def test_rank_polynomial_counts_elements():
    for kind, top in (("A", 6), ("B", 4)):
        for n in range(1, top + 1):
            gen = closed_polys(kind, n).rank_gen
            assert gen(1) == len(enumerate_wachs(kind, n))


# --------------------------------------------------- statistics, stabilizer


def test_statistics_distribution():
    for n in (2, 4, 6):
        assert stats_distribution_check(n)
    with pytest.raises(ValueError):
        stats_distribution_check(5)


def test_stabilizer_of_odd_generators():
    for n in (2, 4):
        assert set(stabilizer_gi(n)) == set(enumerate_wachs("A", n))


def test_descent_class():
    cls = descent_class(6, frozenset({1}))
    assert (1, 2, 4, 3, 6, 5) in cls
    assert (5, 6, 1, 2, 3, 4) in cls
    assert len(cls) == math.factorial(6) // 2
