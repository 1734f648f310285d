"""Bruhat order on S_n and B_n: comparison oracle and cover relations."""

import itertools

from wachsposets.bruhat import bruhat_leq_a, bruhat_leq_b, covers_a, covers_b
from wachsposets.perms import (
    all_perms, all_windows, compose, embed_tilde, identity, inverse, length_a,
    length_b,
)
from wachsposets.wachs import longest_element


def test_known_comparisons_a():
    assert bruhat_leq_a((2, 1, 4, 3), (3, 4, 1, 2))
    assert not bruhat_leq_a((2, 1, 4, 3, 6, 5), (1, 2, 5, 6, 3, 4))
    assert bruhat_leq_a((1, 2, 3), (1, 2, 3))


def test_known_comparisons_b():
    assert bruhat_leq_b((2, 1, -3), (-2, -1, -3))
    # both are coatoms of [-2,-1,-3] and sit on incomparable branches
    assert not bruhat_leq_b((2, 1, -3), (-3, -1, -2))
    assert not bruhat_leq_b((-3, -1, -2), (2, 1, -3))
    assert not bruhat_leq_b((3, -1, -2), (-3, 2, 1))
    assert bruhat_leq_b((1, 2), (-1, -2))


def test_known_covers():
    assert covers_a((2, 1, 4, 3)) == {(1, 2, 4, 3), (2, 1, 3, 4)}
    assert covers_b((2, 1)) == {(1, 2)}
    assert covers_b((-1, 2)) == {(1, 2)}


def test_order_properties_a():
    perms = list(all_perms(4))
    e, w0 = identity(4), longest_element("A", 4)
    for p in perms:
        assert bruhat_leq_a(e, p) and bruhat_leq_a(p, w0)
        for q in perms:
            if bruhat_leq_a(p, q) and bruhat_leq_a(q, p):
                assert p == q
            if bruhat_leq_a(p, q) and p != q:
                assert length_a(p) < length_a(q)
            # invariance under inversion
            assert bruhat_leq_a(p, q) == bruhat_leq_a(inverse(p), inverse(q))
            # antiautomorphism w -> w0 w
            assert bruhat_leq_a(p, q) == bruhat_leq_a(compose(w0, q),
                                                      compose(w0, p))


def test_leq_matches_cover_reachability():
    for n in range(2, 6):
        perms = list(all_perms(n))
        idx = {p: i for i, p in enumerate(perms)}
        reach = [1 << i for i in range(len(perms))]
        # saturate downward reachability by rank, low to high
        for p in sorted(perms, key=length_a):
            for q in covers_a(p):
                reach[idx[p]] |= reach[idx[q]]
        for p in perms:
            for q in perms:
                assert bruhat_leq_a(q, p) == bool(reach[idx[p]] >> idx[q] & 1)


def test_leq_matches_cover_reachability_b():
    wins = list(all_windows(3))
    idx = {w: i for i, w in enumerate(wins)}
    reach = [1 << i for i in range(len(wins))]
    for w in sorted(wins, key=lambda w: length_b(w).total):
        for u in covers_b(w):
            reach[idx[w]] |= reach[idx[u]]
    for w in wins:
        for u in wins:
            assert bruhat_leq_b(u, w) == bool(reach[idx[w]] >> idx[u] & 1)


def test_covers_raise_length_by_one():
    for p in all_perms(5):
        for q in covers_a(p):
            assert length_a(p) - length_a(q) == 1
            assert bruhat_leq_a(q, p)
    for w in all_windows(3):
        for u in covers_b(w):
            assert length_b(w).total - length_b(u).total == 1
            assert bruhat_leq_b(u, w)


def test_signed_order_agrees_with_even_embedding():
    for u, v in itertools.product(all_windows(3), repeat=2):
        assert bruhat_leq_b(u, v) == bruhat_leq_a(embed_tilde(u),
                                                  embed_tilde(v))


def test_lifting_property():
    # u < v and a right descent s of v that is not one of u:
    # then u <= vs and us <= v
    for n in range(2, 6):
        perms = list(all_perms(n))
        for v in perms:
            for i in range(1, n):
                if v[i - 1] < v[i]:
                    continue
                vs = v[:i - 1] + (v[i], v[i - 1]) + v[i + 1:]
                for u in perms:
                    if u == v or not bruhat_leq_a(u, v) or u[i - 1] > u[i]:
                        continue
                    us = u[:i - 1] + (u[i], u[i - 1]) + u[i + 1:]
                    assert bruhat_leq_a(u, vs)
                    assert bruhat_leq_a(us, v)


def test_parabolic_projection_is_monotone():
    # J = {s_1}: the minimal coset representative sorts the first two entries
    def proj(w):
        if w[0] > w[1]:
            return (w[1], w[0]) + w[2:]
        return w

    for n in range(2, 6):
        for u, v in itertools.combinations(all_perms(n), 2):
            if bruhat_leq_a(u, v):
                assert bruhat_leq_a(proj(u), proj(v))
            if bruhat_leq_a(v, u):
                assert bruhat_leq_a(proj(v), proj(u))
