"""
Bruhat order on the symmetric group and on signed permutations.

Comparison in S_n uses the tableau criterion restricted to descents of the
smaller element: u <= v iff for every k in D(u) the increasing rearrangement
of u(1..k) is componentwise <= that of v(1..k).

Comparison in B_n goes through the order-preserving embedding of the full
map on [+-n] into S_2n (see perms.embed_tilde).  Covers in B_n are computed
directly from the cover description by suitable "free rises".

`bruhat_up_sets` compares a whole list of permutations at once with the
rank-matrix form of the same criterion; the pairwise oracles above are
the independent check it is tested against.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from typing import Sequence

from .perms import embed_tilde, full_value

__all__ = ["bruhat_leq_a", "bruhat_leq_b", "bruhat_up_sets",
           "covers_a", "covers_b"]


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


def bruhat_leq_b(u: Sequence[int], v: Sequence[int]) -> bool:
    """Bruhat comparison u <= v in B_n (windows)."""
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return bruhat_leq_a(embed_tilde(u), embed_tilde(v))


def bruhat_up_sets(words: Sequence[Sequence[int]]) -> list:
    """Up-sets of the Bruhat order on a list of permutations of [n], as
    bitmasks: bit j of up[i] is set iff words[i] <= words[j].

    With r_w(k, j) = #{a <= k : w(a) >= j}, u <= v iff r_u(k, j) <=
    r_v(k, j) for every j and every descent k of u (the tableau criterion
    in rank-matrix form, Bjorner-Brenti, GTM 231, Thm 2.1.5).  For each
    (k, j) the words are bucketed by r_w(k, j), so up[u] is the AND over
    k in D(u) and j of the mask of words whose count reaches r_u(k, j).

    >>> bruhat_up_sets([(1, 2, 3), (2, 1, 3), (3, 2, 1)])
    [7, 6, 4]
    """
    words = [tuple(w) for w in words]
    n = len(words[0]) if words else 0
    bits = [1 << i for i in range(len(words))]
    up = [(1 << len(words)) - 1] * len(words)
    # r_w(k, 1) = k for every w, so j starts at 2
    rank = {j: [0] * len(words) for j in range(2, n + 1)}
    for k in range(1, n):
        descents = [i for i, w in enumerate(words) if w[k - 1] > w[k]]
        for j in range(2, n + 1):
            rank[j] = r = [c + (w[k - 1] >= j) for c, w in zip(rank[j], words)]
            at_least = [0] * (k + 2)      # at_least[c]: words with r >= c
            for i, c in enumerate(r):
                at_least[c] |= bits[i]
            for c in range(k, 0, -1):
                at_least[c] |= at_least[c + 1]
            for i in descents:
                if r[i]:
                    up[i] &= at_least[r[i]]
    return up


def covers_a(p: Sequence[int]) -> set:
    """The set of permutations covered by p in Bruhat order.

    q is covered by p iff q = p with positions i < j exchanged, where
    p(i) > p(j) and no position between them holds an intermediate value.
    """
    p = tuple(p)
    n = len(p)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] <= p[j]:
                continue
            if any(p[j] < p[k] < p[i] for k in range(i + 1, j)):
                continue
            q = list(p)
            q[i], q[j] = q[j], q[i]
            out.add(tuple(q))
    return out


def covers_b(v: Sequence[int]) -> set:
    """The set of signed permutations covered by v in Bruhat order.

    u is covered by v iff v arises from u by a free rise (i, j): either the
    symmetric swap at positions i, j and -i, -j when the rise is not
    central, or the single swap at positions -j, j when it is central.
    Conditions (rise, free, centrality) are evaluated on u.
    """
    v = tuple(v)
    n = len(v)
    positions = [k for k in range(-n, n + 1) if k != 0]
    out = set()
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            i, j = positions[a], positions[b]
            vi, vj = full_value(v, i), full_value(v, j)
            if vi <= vj:
                continue  # (i, j) must be an inversion of v
            if i == -j:
                # central symmetric rise of u: swap positions -j, j only
                if any(vj < full_value(v, k) < vi
                       for k in range(i + 1, j) if k != 0):
                    continue
                u = list(v)
                u[j - 1] = -u[j - 1]
                out.add(tuple(u))
            else:
                # non-central rise: swap (i, j) and (-i, -j) simultaneously
                f = {k: full_value(v, k) for k in positions}
                f[i], f[j] = f[j], f[i]
                f[-i], f[-j] = f[-j], f[-i]
                if i < 0 < j and f[i] < 0 < f[j]:
                    continue  # central rectangles need the symmetric case
                if any(f[i] < f[k] < f[j] for k in range(i + 1, j) if k != 0):
                    continue
                out.add(tuple(f[k] for k in range(1, n + 1)))
    return out
