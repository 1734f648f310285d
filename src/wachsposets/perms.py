"""
Permutations in one-line notation and signed permutations in window notation.

A permutation of [n] = {1, ..., n} is stored as a tuple `w` with
`w[k-1] == w(k)` (values 1..n).  A signed permutation is stored by its
window `(w(1), ..., w(n))` with values in {-n, ..., -1, 1, ..., n} whose
absolute values are a bijection of [n]; the full map on [+-n] is recovered
from w(-k) = -w(k).

>>> compose((3, 1, 2), (2, 3, 1))
(1, 2, 3)
>>> inverse((-2, 1))
(2, -1)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "MAX_N_A", "MAX_N_B", "SizeCapError",
    "PermWord", "Window", "StatRecord", "BLength",
    "check_perm", "check_window", "identity", "compose", "inverse",
    "length_a", "descent_set_a", "stats_a",
    "length_b", "descent_set_b",
    "full_value", "full_position", "embed_tilde",
    "signed_reflection",
    "all_perms", "all_windows",
    "parse_perm", "format_perm", "parse_window", "format_window",
]

PermWord = tuple  # tuple[int, ...], one-line notation, values 1..n
Window = tuple    # tuple[int, ...], window notation, signed values

# hard size caps; exact enumeration beyond these is out of scope
MAX_N_A = 16
MAX_N_B = 12


class SizeCapError(ValueError):
    """Raised when a requested rank exceeds the supported size caps."""


def check_perm(word: Sequence[int]) -> PermWord:
    """Validate one-line notation and return it as a tuple.

    >>> check_perm([3, 1, 2])
    (3, 1, 2)
    """
    word = tuple(word)
    n = len(word)
    if n < 1:
        raise ValueError("empty permutation")
    if n > MAX_N_A:
        raise SizeCapError(f"n={n} exceeds the cap {MAX_N_A} for permutations")
    seen = set()
    for v in word:
        if not isinstance(v, int) or not 1 <= v <= n:
            raise ValueError(f"value {v} out of range for n={n}")
        if v in seen:
            raise ValueError(f"not a bijection: value {v} repeated")
        seen.add(v)
    return word


def check_window(window: Sequence[int]) -> Window:
    """Validate window notation of a signed permutation.

    >>> check_window([-2, 1])
    (-2, 1)
    """
    window = tuple(window)
    n = len(window)
    if n < 1:
        raise ValueError("empty window")
    if n > MAX_N_B:
        raise SizeCapError(f"n={n} exceeds the cap {MAX_N_B} for signed permutations")
    seen = set()
    for v in window:
        if not isinstance(v, int) or not 1 <= abs(v) <= n:
            raise ValueError(f"value {v} out of range for n={n}")
        if abs(v) in seen:
            raise ValueError(f"not a bijection: value {abs(v)} repeated")
        seen.add(abs(v))
    return window


def identity(n: int) -> PermWord:
    return tuple(range(1, n + 1))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple:
    """(p o q)(k) = p(q(k)).  Works for both plain and signed permutations."""
    if len(p) != len(q):
        raise ValueError(f"rank mismatch: {len(p)} vs {len(q)}")
    return tuple(p[v - 1] if v > 0 else -p[-v - 1] for v in q)


def inverse(p: Sequence[int]) -> tuple:
    """Group inverse, for both plain and signed permutations."""
    out = [0] * len(p)
    for k, v in enumerate(p, 1):
        if v > 0:
            out[v - 1] = k
        else:
            out[-v - 1] = -k
    return tuple(out)


# ---------------------------------------------------------------- type A


def length_a(word: Sequence[int]) -> int:
    """Coxeter length of a permutation: the number of inversions."""
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


def descent_set_a(word: Sequence[int]) -> frozenset:
    """D(w) = {i in [n-1] : w(i) > w(i+1)}."""
    return frozenset(i for i in range(1, len(word)) if word[i - 1] > word[i])


@dataclass(frozen=True)
class StatRecord:
    """Descent-based statistics of a permutation."""
    des: int   # |D(w)|
    maj: int   # sum of D(w)
    odes: int  # number of odd descents
    emaj: int  # sum of i/2 over even descents i
    pos: int   # position of the value n


def stats_a(word: Sequence[int]) -> StatRecord:
    """
    >>> stats_a((3, 4, 1, 2))
    StatRecord(des=1, maj=2, odes=0, emaj=1, pos=2)
    """
    d = descent_set_a(word)
    return StatRecord(
        des=len(d),
        maj=sum(d),
        odes=sum(1 for i in d if i % 2 == 1),
        emaj=sum(i // 2 for i in d if i % 2 == 0),
        pos=word.index(len(word)) + 1,
    )


# ---------------------------------------------------------------- type B


@dataclass(frozen=True)
class BLength:
    """Length of a signed permutation, split as inv + neg + nsp."""
    inv: int  # inversions of the window
    neg: int  # number of negative window entries
    nsp: int  # pairs i<j with w(i)+w(j) < 0

    @property
    def total(self) -> int:
        return self.inv + self.neg + self.nsp


def length_b(window: Sequence[int]) -> BLength:
    """
    >>> length_b((-1, 3, 2))
    BLength(inv=1, neg=1, nsp=0)
    """
    n = len(window)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if window[i] > window[j])
    neg = sum(1 for v in window if v < 0)
    nsp = sum(1 for i in range(n) for j in range(i + 1, n) if window[i] + window[j] < 0)
    return BLength(inv, neg, nsp)


def descent_set_b(window: Sequence[int]) -> frozenset:
    """D(w) = {i in {0,...,n-1} : w(i) > w(i+1)}, with w(0) = 0."""
    d = set(i for i in range(1, len(window)) if window[i - 1] > window[i])
    if window[0] < 0:
        d.add(0)
    return frozenset(d)


def full_value(window: Sequence[int], k: int) -> int:
    """w(k) for a position k in [+-n]."""
    return window[k - 1] if k > 0 else -window[-k - 1]


def full_position(window: Sequence[int], value: int) -> int:
    """The signed position k in [+-n] with w(k) == value."""
    for k, v in enumerate(window, 1):
        if v == value:
            return k
        if v == -value:
            return -k
    raise ValueError(f"value {value} not in window")


def embed_tilde(window: Sequence[int]) -> PermWord:
    """
    The permutation of [2n] obtained from the full map of a signed
    permutation on [+-n] by the order-preserving relabeling that sends
    -n, ..., -1 to 1, ..., n and 1, ..., n to n+1, ..., 2n.
    """
    n = len(window)

    def iota(k: int) -> int:
        return k + n + 1 if k < 0 else k + n

    out = [0] * (2 * n)
    for i, v in enumerate(window, 1):
        out[iota(i) - 1] = iota(v)
        out[iota(-i) - 1] = iota(-v)
    return tuple(out)


def signed_reflection(i: int, j: int, n: int) -> Window:
    """
    Window of the reflection (i,j)_B with 1 <= i <= n and j in [+-n]:
    the involution exchanging i with j (and -i with -j).

    >>> signed_reflection(1, -1, 2)
    (-1, 2)
    >>> signed_reflection(2, -2, 3)
    (1, -2, 3)
    """
    if not 1 <= i <= n or not 1 <= abs(j) <= n or i == j:
        raise ValueError(f"bad reflection indices ({i},{j}) for n={n}")
    out = list(range(1, n + 1))
    if j == -i:
        out[i - 1] = -i
    else:
        out[i - 1] = j
        if j > 0:
            out[j - 1] = i
        else:
            out[-j - 1] = -i
    return tuple(out)


def all_perms(n: int) -> Iterator[PermWord]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def all_windows(n: int) -> Iterator[Window]:
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
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def parse_perm(text: str) -> PermWord:
    """Inverse of format_perm; rejects non-bijections.

    >>> parse_perm("3412")
    (3, 4, 1, 2)
    """
    text = text.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse permutation {text!r}") from None
    return check_perm(values)


def format_window(window: Sequence[int]) -> str:
    """
    >>> format_window((-2, 1, 4, 3))
    '[-2,1,4,3]'
    """
    return "[" + ",".join(str(v) for v in window) + "]"


def parse_window(text: str) -> Window:
    """Inverse of format_window; rejects non-bijections."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    try:
        values = [int(p.strip()) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse window {text!r}") from None
    return check_window(values)
