"""
Right and left weak orders by inversion rows, and the product-structure
isomorphisms of the weak order on (signed) Wachs permutations.  The
left-inversion sets and the pairwise `weak_leq` that the rows are
tested against are in `reference`.
"""

from __future__ import annotations

from itertools import combinations, starmap
from operator import gt
from typing import NamedTuple, Optional, Sequence

from .perms import inverse
from .posets import FinitePoset, dominance_up_sets
from .wachs import kind_record

__all__ = ["inversion_row", "WeakIsoResult", "weak_product_iso"]


def inversion_row(w: Sequence[int], kind: str) -> bytes:
    """The inversions of the ambient image of w, one byte per pair of
    positions.  Entrywise order of these rows is the left weak order, in
    B_n too: it is the weak order of S_2n restricted to the `embed_tilde`
    images (Bjorner-Brenti, GTM 231, section 8.1)."""
    return bytes(starmap(gt, combinations(kind_record(kind).ambient(w), 2)))


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


class WeakIsoResult(NamedTuple):
    holds: bool
    witness: Optional[tuple]        # first mismatching pair, if any


def weak_product_iso(poset: FinitePoset, codes: Sequence[tuple],
                     kind: str) -> WeakIsoResult:
    """Check that `poset`, the right weak order on the Wachs elements of
    one rank n, with their codes aligned to `poset.items`, is isomorphic
    via the explicit code map to (G_ceil(n/2), <=_R) x P([floor(n/2)])."""
    images = [_factor_map(code) for code in codes]
    if len(set(images)) != len(images):
        return WeakIsoResult(False, ("not injective",))
    # the product order is entrywise: group row, then the subset's indicator
    rows = {g: inversion_row(inverse(g), kind) for g in {g for g, _ in images}}
    cells = range(1, len(codes[0][-2]) + 1) if codes else ()
    up = dominance_up_sets([rows[g] + bytes(c in s for c in cells)
                            for g, s in images])
    for a, v in enumerate(poset.items):
        diff = poset.up[a] ^ up[a]
        if diff:
            b = (diff & -diff).bit_length() - 1
            return WeakIsoResult(False, (v, poset.items[b]))
    return WeakIsoResult(True, None)
