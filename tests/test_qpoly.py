"""Exact integer polynomial arithmetic and q-analogues."""

from hypothesis import given, strategies as st

from wachsposets.qpoly import (
    ONE, X, ZERO, IntPolynomial, q_factorial, q_int,
)

coeff_lists = st.lists(st.integers(-50, 50), min_size=0, max_size=8)
polys = coeff_lists.map(IntPolynomial)


def test_basic_values():
    assert q_int(1) == ONE
    assert q_int(3) == IntPolynomial([1, 1, 1])
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert q_factorial(0) == ONE


def test_string_form():
    assert str(IntPolynomial([1, 2, 0, 1])) == "1 + 2*x + x^3"
    assert str(ZERO) == "0"
    assert str(X) == "x"


def test_parse_round_trip():
    for coeffs in ([1, 2, 0, 1], [0], [5], [-1, 0, 3], [0, 0, -2]):
        p = IntPolynomial(coeffs)
        assert IntPolynomial.parse(str(p)) == p


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a * ZERO == ZERO
    assert (a - b) + b == a


@given(polys, st.integers(0, 5))
def test_power_matches_repeated_product(p, k):
    prod = ONE
    for _ in range(k):
        prod = prod * p
    assert p ** k == prod


@given(polys, st.integers(-4, 4))
def test_evaluation_matches_naive_sum(p, x):
    want = sum(c * x ** i for i, c in enumerate(p.coeffs))
    assert p(x) == want


def test_substitute_power():
    assert q_int(3).substitute_power(2) == IntPolynomial([1, 0, 1, 0, 1])
    assert q_int(2).substitute_power(3) == IntPolynomial([1, 0, 0, 1])


def test_geometric_series_identity():
    for n in range(1, 21):
        assert q_int(n) * (X - ONE) == X ** n - ONE


def test_reciprocal():
    assert IntPolynomial([1, 2, 1, 1, 2, 1]).is_reciprocal()
    assert not IntPolynomial([1, 1, 0, 1]).is_reciprocal()


def test_degree():
    assert (X ** 3 + ONE).degree == 3
    assert ONE.degree == 0
    # trailing zero coefficients are normalized away
    assert IntPolynomial([1, 0, 0]) == ONE
