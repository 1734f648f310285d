"""
Bruhat order on the symmetric group and on signed permutations.

`bruhat_up_sets` compares a whole list of permutations at once by the
tableau criterion; `reference.bruhat_leq_a` and `bruhat_leq_b` compare
one pair.  Elements of B_n are compared through their images under the
order-preserving embedding of the full map on [+-n] into S_2n (see
perms.embed_tilde).  `wachs.group_order` reads covers off these
up-sets; `reference.bruhat_covers`, the reflection rule for the covers
of one element, is their reference.
"""

from __future__ import annotations

from typing import Sequence

from .columns import columns, greater, lanes
from .posets import dominance_up_sets

__all__ = ["bruhat_up_sets"]


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
