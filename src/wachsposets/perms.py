"""
Permutations in one-line notation and signed permutations in window notation.

A permutation of [n] = {1, ..., n} is stored as a tuple `w` with
`w[k-1] == w(k)` (values 1..n).  A signed permutation is stored by its
window `(w(1), ..., w(n))` with values in {-n, ..., -1, 1, ..., n} whose
absolute values are a bijection of [n]; the full map on [+-n] is recovered
from w(-k) = -w(k).  The reflections of B_n and `compose` are in
`reference`.

>>> inverse((-2, 1))
(2, -1)
"""

from __future__ import annotations

import itertools
from itertools import combinations, starmap
from operator import add, gt
from typing import Iterator, Sequence

__all__ = [
    "SizeCapError",
    "identity", "inverse", "length_b", "embed_tilde",
    "all_perms", "all_windows", "format_perm",
]


class SizeCapError(ValueError):
    """Raised when a requested rank exceeds the supported size caps."""


def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def inverse(p: Sequence[int]) -> tuple:
    """Group inverse, for both plain and signed permutations."""
    out = [0] * len(p)
    for k, v in enumerate(p, 1):
        if v > 0:
            out[v - 1] = k
        else:
            out[-v - 1] = -k
    return tuple(out)


# ---------------------------------------------------------------- type B


# x < 0 as a C-level callable, so that map can count negative values
_negative = (0).__gt__


def length_b(window: Sequence[int]) -> int:
    """Coxeter length of a signed permutation: inv + neg + nsp, where inv
    counts the inversions of the window, neg its negative entries and
    nsp the pairs i < j with w(i) + w(j) < 0.

    >>> length_b((-1, 3, 2))
    2
    """
    return (sum(starmap(gt, combinations(window, 2)))
            + sum(map(_negative, window))
            + sum(map(_negative, starmap(add, combinations(window, 2)))))


def embed_tilde(window: Sequence[int]) -> tuple:
    """
    The permutation of [2n] obtained from the full map of a signed
    permutation on [+-n] by the order-preserving relabeling that sends
    -n, ..., -1 to 1, ..., n and 1, ..., n to n+1, ..., 2n.
    """
    n = len(window)
    out = [0] * (2 * n)
    for i, v in enumerate(window, 1):    # the relabeling: k -> k + n + (k < 0)
        out[n + i - 1] = v + n + (v < 0)
        out[n - i] = n - v + (v > 0)
    return tuple(out)


def all_perms(n: int) -> Iterator[tuple]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def all_windows(n: int) -> Iterator[tuple]:
    """All of B_n (as windows), lazily."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * v for s, v in zip(signs, perm))


# ---------------------------------------------------------------- text forms


def format_perm(word: Sequence[int]) -> str:
    """Compact digit string for n <= 9, comma separated beyond.

    >>> format_perm((3, 4, 1, 2))
    '3412'
    """
    if len(word) <= 9:
        return "".join(map(str, word))
    return ",".join(map(str, word))
