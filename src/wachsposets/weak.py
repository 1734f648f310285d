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
from .wachs import element_table, kind_record

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


def _factor_map(head) -> list:
    """The images in G_ceil(n/2) x P([floor(n/2)]) of the elements of
    rank n with this head, by tile t: the group element, and the values
    |tau(c)| of the cells c of t as a mask."""
    *slot, tau = head
    group = _bar(tau, *slot) if slot else tau
    images = [(group, 0)]
    for v in tau:       # cell c is bit c - 1 of t
        images += [(group, s | 1 << abs(v) - 1) for _, s in images]
    return images


WeakIsoResult = namedtuple("WeakIsoResult", [
    "holds",
    "witness",      # first mismatching pair, if any
])


def weak_product_iso(poset: FinitePoset, kind: str, n: int) -> WeakIsoResult:
    """Check that `poset`, the right weak order on the items of
    `element_table` of rank n, is isomorphic via the explicit head and
    tile map to (G_ceil(n/2), <=_R) x P([floor(n/2)])."""
    table = element_table(kind, n)
    maps = list(map(_factor_map, table.heads))
    images = [maps[i % len(maps)][i // len(maps)] for i in table.tiles]
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
    for v in range(n // 2):
        cols.append(bytes(s >> v & 1 for _, s in reversed(images)))
    up = dominance_up_sets(cols, len(images))
    for a, v in enumerate(poset.items):
        diff = poset.up[a] ^ up[a]
        if diff:
            b = (diff & -diff).bit_length() - 1
            return WeakIsoResult(False, (v, poset.items[b]))
    return WeakIsoResult(True, None)
