"""
Right and left weak orders by inversion columns, and the product
order that the right weak order on (signed) Wachs permutations is
isomorphic to.  The left-inversion sets and the pairwise `weak_leq` that
the columns are tested against are in `reference`.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Sequence

from .columns import columns, greater
from .perms import inverse
from .posets import dominance_up_sets
from .wachs import element_table, kind_record

__all__ = ["inversion_columns", "product_up_sets"]


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


def _factor_map(head) -> list:
    """The images in G_ceil(n/2) x P([floor(n/2)]) of the elements of
    rank n with this head, by subset t: the group element, and the values
    |tau(c)| of the cells c of t as a mask."""
    *slot, tau = head
    group = _bar(tau, *slot) if slot else tau
    images = [(group, 0)]
    for v in tau:       # cell c is bit c - 1 of t
        images += [(group, s | 1 << abs(v) - 1) for _, s in images]
    return images


def product_up_sets(kind: str, n: int) -> list:
    """Up-sets of (G_ceil(n/2), <=_R) x P([floor(n/2)]) carried to the
    items of `element_table` of rank n by the explicit head and subset
    map, as bitmasks: bit b of up[a] is set iff the image of item a lies
    below that of item b.  The map is an isomorphism from the right weak
    order iff these are that order's up-sets."""
    images = list(chain.from_iterable(
        map(_factor_map, element_table(kind, n).heads)))
    # the product order is entrywise: the group's inversion columns, then
    # the subset's indicator, each column gathered last image first from
    # the columns of the distinct group elements
    groups = list(dict.fromkeys(g for g, _ in images))
    where = {g: len(groups) - 1 - i for i, g in enumerate(groups)}
    picks = [where[g] for g, _ in reversed(images)]
    cols = [bytes(map(col.__getitem__, picks))
            for col in inversion_columns(map(inverse, groups), kind)]
    for v in range(n // 2):
        cols.append(bytes(s >> v & 1 for _, s in reversed(images)))
    return dominance_up_sets(cols, len(images))
