"""
Bruhat order on the symmetric group and on signed permutations.

Comparison in S_n uses the tableau criterion restricted to descents of the
smaller element: u <= v iff for every k in D(u) the increasing rearrangement
of u(1..k) is componentwise <= that of v(1..k).

Comparison in B_n goes through the order-preserving embedding of the full
map on [+-n] into S_2n (see perms.embed_tilde).  Covers have one rule for
both groups: w t for the reflections t of B_n that lower the length by
one, which on S_n, a standard parabolic subgroup of B_n, are the covers
in S_n.

`bruhat_up_sets` compares a whole list of permutations at once with the
same criterion over every k; the pairwise oracles above are the
independent check it is tested against.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from itertools import chain
from typing import Sequence

from .perms import compose, embed_tilde, length_b, signed_reflection
from .posets import dominance_up_sets

__all__ = ["bruhat_leq_a", "bruhat_leq_b", "bruhat_up_sets",
           "bruhat_covers"]


@lru_cache(maxsize=262144)
def _prefix_tables(word: tuple) -> tuple:
    """(sorted prefixes indexed by k-1, descent positions)."""
    prefixes = []
    cur: list[int] = []
    for v in word:
        insort(cur, v)
        prefixes.append(tuple(cur))
    descents = tuple(k for k in range(1, len(word)) if word[k - 1] > word[k])
    return tuple(prefixes), descents


def bruhat_leq_a(p: Sequence[int], q: Sequence[int]) -> bool:
    """Bruhat comparison p <= q in S_n."""
    p, q = tuple(p), tuple(q)
    if len(p) != len(q):
        raise ValueError(f"rank mismatch: {len(p)} vs {len(q)}")
    if p == q:
        return True
    tp, descents = _prefix_tables(p)
    tq, _ = _prefix_tables(q)
    for k in descents:
        a, b = tp[k - 1], tq[k - 1]
        if any(x > y for x, y in zip(a, b)):
            return False
    return True


# embed_tilde per window, kept: bruhat_leq_b compares each window with many
_embedded = lru_cache(maxsize=262144)(embed_tilde)


def bruhat_leq_b(u: Sequence[int], v: Sequence[int]) -> bool:
    """Bruhat comparison u <= v in B_n (windows)."""
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return bruhat_leq_a(_embedded(tuple(u)), _embedded(tuple(v)))


def bruhat_up_sets(words: Sequence[Sequence[int]]) -> list:
    """Up-sets of the Bruhat order on a list of permutations of [n], as
    bitmasks: bit j of up[i] is set iff words[i] <= words[j].

    u <= v iff the increasing rearrangement of u(1..k) is entrywise <=
    that of v(1..k) for every k < n (the tableau criterion,
    Bjorner-Brenti, GTM 231, section 2.6), so the row of w is its sorted
    prefixes laid end to end, ordered by `dominance_up_sets`.

    >>> bruhat_up_sets([(1, 2, 3), (2, 1, 3), (3, 2, 1)])
    [7, 6, 4]
    """
    n = len(words[0]) if words else 0
    prefixes = [slice(k) for k in range(1, n)]
    return dominance_up_sets(
        [bytes(chain.from_iterable(map(sorted, map(w.__getitem__, prefixes))))
         for w in words])


@lru_cache(maxsize=None)
def _reflections(n: int) -> tuple:
    """The n^2 reflections (i, j)_B of B_n, i < |j| or j = -i."""
    return tuple(signed_reflection(i, j, n) for i in range(1, n + 1)
                 for j in range(-n, n + 1) if abs(j) > i or j == -i)


def bruhat_covers(w: Sequence[int]) -> set:
    """The elements covered by w in Bruhat order, for w in S_n or B_n:
    the w t, t a reflection of B_n, with l(w t) = l(w) - 1
    (Bjorner-Brenti, GTM 231, Def. 2.1.1 and the chain property,
    Thm 2.2.6).  S_n is a standard parabolic subgroup of B_n, so a
    reflection that changes a sign makes an unsigned w longer, and for
    w in S_n these are its covers in S_n.

    >>> sorted(bruhat_covers((2, 1, 4, 3)))
    [(1, 2, 4, 3), (2, 1, 3, 4)]
    >>> bruhat_covers((-1, 2))
    {(1, 2)}
    """
    w = tuple(w)
    below = length_b(w) - 1
    return {u for u in (compose(w, t) for t in _reflections(len(w)))
            if length_b(u) == below}
