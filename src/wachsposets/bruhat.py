"""
Bruhat order on the symmetric group and on signed permutations.

`bruhat_up_sets` compares a whole list of permutations at once by the
tableau criterion; `reference.bruhat_leq_a` and `bruhat_leq_b` compare
one pair.  Elements of B_n are compared through their images under the
order-preserving embedding of the full map on [+-n] into S_2n (see
perms.embed_tilde).  Covers have one rule for both groups: w t for the
reflections t of B_n that lower the length by one, which on S_n, a
standard parabolic subgroup of B_n, are the covers in S_n.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .columns import columns, greater, lanes
from .perms import compose, length_b, signed_reflection
from .posets import dominance_up_sets

__all__ = ["bruhat_up_sets", "bruhat_covers"]


def bruhat_up_sets(words: Sequence[Sequence[int]]) -> list:
    """Up-sets of the Bruhat order on a list of permutations of [n],
    n < 128, as bitmasks: bit j of up[i] is set iff words[i] <= words[j].

    u <= v iff the increasing rearrangement of u(1..k) is entrywise <=
    that of v(1..k) for every k < n (the tableau criterion,
    Bjorner-Brenti, GTM 231, section 2.6).  Entry r of the rearrangement
    of w(1..k) is 1 + #{j : #{a <= k : w(a) <= j} < r}, so these entries
    are counted on the byte columns of the words, in every lane at
    once, and ordered by `dominance_up_sets`.

    No prefix k > n/2 is read.  It is read from its complement, the
    suffix of n - k < n/2 entries: by Gale duality two sorted k-sets
    compare as their sorted complements do, the other way round, so
    u(1..k) is checked as the prefix n - k of w0 u w0, with
    w0 u w0 (a) = n + 1 - u(n + 1 - a).  When every word is centrally
    symmetric, w0 w w0 = w, as every `perms.embed_tilde` image is, these
    are prefixes read already, and nothing past k = n/2 is read: in
    rank-matrix terms (GTM 231, Thm 2.1.5), w[n - k, j] = n + 1 - j - k
    + w[k, n + 2 - j].

    >>> bruhat_up_sets([(1, 2, 3), (2, 1, 3), (3, 2, 1)])
    [7, 6, 4]
    """
    size = len(words)
    cols = [int.from_bytes(col, "big") for col in columns(words)]
    n = len(cols)
    dual = [(n + 1) * lanes(size) - col for col in reversed(cols)]
    entries = _prefix_entries(cols, n // 2, size)
    if dual != cols:
        entries += _prefix_entries(dual, n - 1 - n // 2, size)
    return dominance_up_sets(entries, size)


def _prefix_entries(cols: list, last: int, size: int) -> list:
    """The byte columns of entry r of the increasing rearrangement of
    w(1..k), for 1 <= r <= k <= last, from the lane columns of `size`
    permutations of [n]."""
    ones = lanes(size)
    n = len(cols)
    below = [0] * n         # below[j]: #{a <= k : w(a) <= j}, j < n
    entries = []
    for k, col in enumerate(cols[:last], 1):
        for j in range(1, n):
            below[j] += greater((j + 1) * ones, col, size)
        for r in range(1, k + 1):
            entry = ones + sum(greater(r * ones, below[j], size)
                               for j in range(1, n))
            entries.append(entry.to_bytes(size, "big"))
    return entries


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
