"""
Right and left weak orders by inversion columns, and the
product-structure isomorphisms of the weak order on (signed) Wachs
permutations.  The left-inversion sets and the pairwise `weak_leq` that
the columns are tested against are in `reference`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from typing import Iterable, Sequence

from .columns import columns, greater
from .perms import inverse
from .posets import FinitePoset, dominance_up_sets
from .wachs import kind_record

__all__ = ["inversion_columns", "WeakIsoResult", "weak_product_iso"]


def inversion_columns(words: Iterable[Sequence[int]], kind: str) -> list:
    """The inversions of the ambient images of the words, one byte
    column (see `columns`) per pair of positions p < q, 1 where the
    image has w(p) > w(q): one lane comparison per pair.  Entrywise
    order of these columns is the left weak order, in B_n too: it is
    the weak order of S_2n restricted to the `embed_tilde` images
    (Bjorner-Brenti, GTM 231, section 8.1).

    >>> inversion_columns([(1, 2), (2, 1)], "A")
    [b'\\x01\\x00']
    """
    images = list(map(kind_record(kind).ambient, words))
    size = len(images)
    xs = [int.from_bytes(col, "big") for col in columns(images)]
    return [greater(x, y, size).to_bytes(size, "big")
            for x, y in combinations(xs, 2)]


# ------------------------------------------------------- product structure


def _bar(tau, i: int):
    """Insert the value +-(m+1) at slot |i|, with the sign of i."""
    m = len(tau)
    v = (m + 1) if i > 0 else -(m + 1)
    k = abs(i)
    return tau[:k - 1] + (v,) + tau[k - 1:]


def _factor_map(code):
    """Image of a code of rank n in G_ceil(n/2) x P([floor(n/2)])."""
    *slot, small, t = code
    tau = _bar(small, *slot) if slot else small
    # t holds slots of the even part; the factor holds their values
    return tau, frozenset(abs(small[k - 1]) for k in t)


WeakIsoResult = namedtuple("WeakIsoResult", [
    "holds",
    "witness",      # first mismatching pair, if any
])


def weak_product_iso(poset: FinitePoset, codes: Sequence[tuple],
                     kind: str) -> WeakIsoResult:
    """Check that `poset`, the right weak order on the Wachs elements of
    one rank n, with their codes aligned to `poset.items`, is isomorphic
    via the explicit code map to (G_ceil(n/2), <=_R) x P([floor(n/2)])."""
    images = [_factor_map(code) for code in codes]
    if len(set(images)) != len(images):
        return WeakIsoResult(False, ("not injective",))
    # the product order is entrywise: the group's inversion columns, then
    # the subset's indicator, each column gathered last image first from
    # the columns of the distinct group elements
    groups = list(dict.fromkeys(g for g, _ in images))
    where = {g: len(groups) - 1 - i for i, g in enumerate(groups)}
    picks = [where[g] for g, _ in reversed(images)]
    cols = [bytes(map(col.__getitem__, picks))
            for col in inversion_columns(map(inverse, groups), kind)]
    for c in range(1, len(codes[0][-2]) + 1) if codes else ():
        cols.append(bytes(c in s for _, s in reversed(images)))
    up = dominance_up_sets(cols, len(images))
    for a, v in enumerate(poset.items):
        diff = poset.up[a] ^ up[a]
        if diff:
            b = (diff & -diff).bit_length() - 1
            return WeakIsoResult(False, (v, poset.items[b]))
    return WeakIsoResult(True, None)
