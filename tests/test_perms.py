"""Group arithmetic, lengths, statistics and text forms for (signed)
permutations."""

import itertools

import pytest
from hypothesis import given, strategies as st

import wachsposets.bruhat
import wachsposets.checks
import wachsposets.columns
import wachsposets.perms
import wachsposets.posets
import wachsposets.wachs
import wachsposets.weak
from wachsposets.perms import (
    SizeCapError, all_perms, all_windows, embed_tilde, format_perm, identity,
    inverse, length_b,
)
from wachsposets.reference import (
    compose, descent_set_a, format_window, length_a, signed_reflection,
    stats_a,
)
from wachsposets.wachs import _product, longest_element


MODULES = [
    wachsposets.perms, wachsposets.bruhat, wachsposets.posets,
    wachsposets.wachs, wachsposets.weak, wachsposets.columns,
]


@pytest.mark.parametrize("mod", MODULES + [wachsposets.checks])
def test_all_names_exist(mod):
    """`from mod import *` fails on a name in __all__ that is gone."""
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


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
    assert length_b(inverse(w)) == length_b(w)


# ------------------------------------------------------------------ lengths


def test_length_a_counts_inversions():
    assert length_a((1, 2, 3)) == 0
    assert length_a((3, 2, 1)) == 3
    assert length_a(longest_element("A", 5)) == 10


def test_length_b_split():
    # 9 inversions, 3 negative entries, 7 pairs with a negative sum
    assert length_b((-1, -2, 5, 6, -7, 3, 4)) == 9 + 3 + 7
    assert length_b((-1, 3, 2)) == 2


def length_a_by_pairs(word):
    """The length oracle: inversions counted by a loop over position pairs."""
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if word[i] > word[j])


def length_b_by_pairs(window):
    n = len(window)
    inv = sum(1 for i in range(n) for j in range(i + 1, n)
              if window[i] > window[j])
    neg = sum(1 for v in window if v < 0)
    nsp = sum(1 for i in range(n) for j in range(i + 1, n)
              if window[i] + window[j] < 0)
    return inv + neg + nsp


def test_lengths_match_the_pair_loops():
    for n in range(1, 8):
        for w in all_perms(n):
            assert length_a(w) == length_a_by_pairs(w)
    for n in range(1, 6):
        for w in all_windows(n):
            assert length_b(w) == length_b_by_pairs(w)


def test_longest_elements():
    assert longest_element("A", 4) == (4, 3, 2, 1)
    assert longest_element("B", 3) == (-1, -2, -3)
    for n in range(1, 6):
        assert length_a(longest_element("A", n)) == n * (n - 1) // 2
        assert length_b(longest_element("B", n)) == n * n


def test_signed_length_via_even_embedding():
    # 2 l_B(w) = l_A(w~) + neg(w)
    for n in range(1, 5):
        for w in all_windows(n):
            neg = sum(1 for v in w if v < 0)
            assert 2 * length_b(w) == length_a(embed_tilde(w)) + neg


def test_poincare_series():
    # the length histograms of S_n and B_n against the products of
    # [k](x) = 1 + ... + x^(k-1), k = 1..n, and [2i](x), i = 1..n
    for n in range(1, 7):
        counts = {}
        for p in all_perms(n):
            counts[length_a(p)] = counts.get(length_a(p), 0) + 1
        coeffs = tuple(counts.get(k, 0) for k in range(max(counts) + 1))
        assert coeffs == _product(range(k) for k in range(1, n + 1))
    for n in range(1, 5):
        counts = {}
        for w in all_windows(n):
            t = length_b(w)
            counts[t] = counts.get(t, 0) + 1
        coeffs = tuple(counts.get(k, 0) for k in range(max(counts) + 1))
        assert coeffs == _product(range(2 * i) for i in range(1, n + 1))


# ----------------------------------------------------------------- descents


def test_descent_sets():
    assert descent_set_a((3, 4, 1, 2)) == frozenset({2})
    assert descent_set_a((1, 2, 3)) == frozenset()


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


def test_text_forms():
    assert format_perm((3, 4, 1, 2)) == "3412"
    assert format_window((-2, 1, 4, 3)) == "[-2,1,4,3]"
    # from n = 10 on, the values are comma separated
    assert format_perm(tuple(range(10, 0, -1))) == "10,9,8,7,6,5,4,3,2,1"


def test_size_cap_error_is_value_error():
    assert issubclass(SizeCapError, ValueError)
