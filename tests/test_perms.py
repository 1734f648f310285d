"""Group arithmetic, lengths, statistics and text forms for (signed)
permutations."""

import doctest
import itertools

import pytest
from hypothesis import given, strategies as st

import wachsposets.bruhat
import wachsposets.perms
import wachsposets.posets
import wachsposets.qpoly
import wachsposets.wachs
import wachsposets.weak
from wachsposets.perms import (
    BLength, SizeCapError, all_perms, all_windows, check_perm, check_window,
    compose, descent_set_a, descent_set_b, embed_tilde, format_perm,
    format_window, identity, inverse, length_a, length_b, parse_perm,
    parse_window, signed_reflection, stats_a,
)
from wachsposets.qpoly import IntPolynomial, q_factorial, q_int
from wachsposets.wachs import longest_element


@pytest.mark.parametrize("mod", [
    wachsposets.perms, wachsposets.bruhat, wachsposets.qpoly,
    wachsposets.posets, wachsposets.wachs, wachsposets.weak,
])
def test_module_doctests(mod):
    assert doctest.testmod(mod).failed == 0


perm_strategy = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)

window_strategy = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))),
        st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
    )).map(lambda pair: tuple(s * v for s, v in zip(pair[1], pair[0])))


# ---------------------------------------------------------------- group laws


def test_compose_and_inverse_exhaustive_small():
    for n in range(1, 5):
        e = identity(n)
        for p in all_perms(n):
            assert compose(p, inverse(p)) == e
            assert compose(inverse(p), p) == e
            assert inverse(inverse(p)) == p
    for p, q, r in itertools.product(all_perms(3), repeat=3):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_signed_compose_exhaustive_small():
    for n in range(1, 4):
        e = identity(n)
        for w in all_windows(n):
            assert compose(w, inverse(w)) == e
            assert inverse(inverse(w)) == w
    for p, q, r in itertools.product(all_windows(2), repeat=3):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perm_strategy)
def test_inverse_properties_random(p):
    n = len(p)
    assert compose(p, inverse(p)) == identity(n)
    assert length_a(inverse(p)) == length_a(p)


@given(window_strategy)
def test_signed_inverse_preserves_length(w):
    assert length_b(inverse(w)).total == length_b(w).total


# ------------------------------------------------------------------ lengths


def test_length_a_counts_inversions():
    assert length_a((1, 2, 3)) == 0
    assert length_a((3, 2, 1)) == 3
    assert length_a(longest_element("A", 5)) == 10


def test_length_b_split():
    got = length_b((-1, -2, 5, 6, -7, 3, 4))
    assert got == BLength(inv=9, neg=3, nsp=7)
    assert got.total == 19
    assert length_b((-1, 3, 2)).total == 2


def test_longest_elements():
    assert longest_element("A", 4) == (4, 3, 2, 1)
    assert longest_element("B", 3) == (-1, -2, -3)
    for n in range(1, 6):
        assert length_a(longest_element("A", n)) == n * (n - 1) // 2
        assert length_b(longest_element("B", n)).total == n * n


def test_signed_length_via_even_embedding():
    # 2 l_B(w) = l_A(w~) + neg(w)
    for n in range(1, 5):
        for w in all_windows(n):
            lb = length_b(w)
            assert 2 * lb.total == length_a(embed_tilde(w)) + lb.neg


def test_poincare_series():
    for n in range(1, 7):
        counts = {}
        for p in all_perms(n):
            counts[length_a(p)] = counts.get(length_a(p), 0) + 1
        coeffs = [counts.get(k, 0) for k in range(max(counts) + 1)]
        assert IntPolynomial(coeffs) == q_factorial(n)
    for n in range(1, 5):
        counts = {}
        for w in all_windows(n):
            t = length_b(w).total
            counts[t] = counts.get(t, 0) + 1
        coeffs = [counts.get(k, 0) for k in range(max(counts) + 1)]
        want = IntPolynomial([1])
        for i in range(1, n + 1):
            want = want * q_int(2 * i)
        assert IntPolynomial(coeffs) == want


# ----------------------------------------------------------------- descents


def test_descent_sets():
    assert descent_set_a((3, 4, 1, 2)) == frozenset({2})
    assert descent_set_a((1, 2, 3)) == frozenset()
    assert descent_set_b((1, 2, 3)) == frozenset()
    assert descent_set_b((-1, 3, 2)) == frozenset({0, 2})
    for w in all_windows(3):
        want = {i for i in range(1, 3) if w[i - 1] > w[i]}
        if w[0] < 0:
            want.add(0)
        assert descent_set_b(w) == frozenset(want)


def test_stats_record():
    st_ = stats_a((5, 1, 2, 3, 4))
    assert st_.pos == 1
    assert stats_a((2, 1, 3, 4, 5)).des == 1
    # maj is the sum of descent positions
    for p in all_perms(4):
        d = descent_set_a(p)
        r = stats_a(p)
        assert r.maj == sum(d) and r.des == len(d)
        assert r.odes == sum(1 for i in d if i % 2 == 1)
        assert r.emaj == sum(i // 2 for i in d if i % 2 == 0)


# --------------------------------------------------------------- embeddings


def test_embed_tilde_examples():
    assert embed_tilde((-1,)) == (2, 1)
    assert embed_tilde((-2, -1, 6, 5, -3, -4)) == (
        10, 9, 2, 1, 7, 8, 5, 6, 12, 11, 4, 3)


def test_embed_tilde_is_a_homomorphism():
    for u, v in itertools.product(all_windows(2), repeat=2):
        assert embed_tilde(compose(u, v)) == compose(embed_tilde(u),
                                                     embed_tilde(v))


def test_signed_reflections():
    assert signed_reflection(1, -1, 2) == (-1, 2)
    assert signed_reflection(2, -2, 3) == (1, -2, 3)
    assert signed_reflection(1, 2, 2) == (2, 1)
    for n in range(2, 5):
        for i in range(1, n + 1):
            for j in range(-n, n + 1):
                if j == 0 or i == j:
                    continue
                t = signed_reflection(i, j, n)
                assert compose(t, t) == identity(n)
    with pytest.raises(ValueError):
        signed_reflection(1, 1, 3)


# --------------------------------------------------------------- text forms


def test_format_and_parse_round_trip():
    assert format_perm((3, 4, 1, 2)) == "3412"
    assert parse_perm("3412") == (3, 4, 1, 2)
    assert format_window((-2, 1, 4, 3)) == "[-2,1,4,3]"
    assert parse_window("[-2,1,4,3]") == (-2, 1, 4, 3)
    big = tuple(range(10, 0, -1))
    assert parse_perm(format_perm(big)) == big
    for p in all_perms(4):
        assert parse_perm(format_perm(p)) == p
    for w in all_windows(3):
        assert parse_window(format_window(w)) == w


def test_validation_rejects_malformed_input():
    with pytest.raises(ValueError):
        check_perm((1, 1, 2))
    with pytest.raises(ValueError):
        check_perm((0, 1, 2))
    with pytest.raises(ValueError):
        check_window((2, 2, -1))
    with pytest.raises(ValueError):
        check_window((1, 4, 2))


def test_size_cap_error_is_value_error():
    assert issubclass(SizeCapError, ValueError)
