"""
Exact integer polynomials in one variable, for rank generating functions,
q-analogues and characteristic polynomials.

>>> print(q_factorial(3))
1 + 2*x + 2*x^2 + x^3
"""

from __future__ import annotations

import re
from typing import Sequence

__all__ = ["IntPolynomial", "X", "ONE", "ZERO", "q_int", "q_factorial"]


class IntPolynomial:
    """Immutable polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, value):
        """Evaluate at an integer (Horner)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def substitute_power(self, k: int) -> "IntPolynomial":
        """p(x) -> p(x^k).

        >>> print((X + 1).substitute_power(3))
        1 + x^3
        """
        if k < 1:
            raise ValueError("power must be positive")
        out = [0] * (len(self.coeffs) * k)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPolynomial(out)

    def is_reciprocal(self) -> bool:
        """True when the coefficient sequence is palindromic."""
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if abs(c) == 1 else f"{abs(c)}*{xpow}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"

    _TERM = re.compile(
        r"^(?P<coeff>-?\d+)?(?:(?(coeff)\*|)(?P<x>x)(?:\^(?P<pow>\d+))?)?$")

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        """Parse the display form, e.g. '1 + 2*x + x^3'.

        >>> IntPolynomial.parse("1 + 2*x + x^3") == 1 + 2*X + X**3
        True
        """
        text = text.strip()
        if text == "0":
            return cls()
        chunks = re.split(r"\s*([+-])\s*", text)
        if chunks[0] == "":
            chunks = chunks[1:]
        else:
            chunks = ["+"] + chunks
        if len(chunks) % 2 != 0:
            raise ValueError(f"cannot parse polynomial {text!r}")
        coeffs: dict[int, int] = {}
        for sign, term in zip(chunks[::2], chunks[1::2]):
            m = cls._TERM.match(term.replace(" ", ""))
            if not m or (m.group("coeff") is None and m.group("x") is None):
                raise ValueError(f"cannot parse term {term!r}")
            c = int(m.group("coeff")) if m.group("coeff") is not None else 1
            if sign == "-":
                c = -c
            p = 0
            if m.group("x"):
                p = int(m.group("pow")) if m.group("pow") else 1
            coeffs[p] = coeffs.get(p, 0) + c
        out = [0] * (max(coeffs) + 1)
        for p, c in coeffs.items():
            out[p] = c
        return cls(out)


X = IntPolynomial((0, 1))
ONE = IntPolynomial((1,))
ZERO = IntPolynomial()


def q_int(n: int) -> IntPolynomial:
    """[n]_x = 1 + x + ... + x^(n-1)."""
    if n < 0:
        raise ValueError("negative q-integer")
    return IntPolynomial((1,) * n)


def q_factorial(n: int) -> IntPolynomial:
    """[n]_x! = [1]_x [2]_x ... [n]_x, with [0]! = 1."""
    out = ONE
    for k in range(2, n + 1):
        out = out * q_int(k)
    return out
