"""
Right and left weak orders, left-inversion sets, and the product-structure
isomorphisms of the weak order on (signed) Wachs permutations.

Reflections are keyed canonically: pairs (a, b) of values with a < b for
S_n; for B_n pairs (a, b) with 1 <= a < |b| standing for (a,b)(-a,-b),
plus (a, -a) for the sign changes.
"""

from __future__ import annotations

from itertools import combinations, starmap
from operator import gt
from typing import NamedTuple, Optional, Sequence

from .perms import inverse
from .posets import FinitePoset, dominance_up_sets
from .wachs import kind_record

__all__ = ["tl_set_a", "tl_set_b", "tl_set", "weak_leq", "inversion_row",
           "WeakIsoResult", "weak_product_iso"]


def tl_set_a(w: Sequence[int]) -> frozenset:
    """T_L(w) for a permutation: pairs (a,b), a<b, with b left of a.

    >>> sorted(tl_set_a((2, 1)))
    [(1, 2)]
    """
    pos = {v: k for k, v in enumerate(w, 1)}
    n = len(w)
    return frozenset((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                     if pos[b] < pos[a])


def tl_set_b(w: Sequence[int]) -> frozenset:
    """T_L(w) for a signed permutation, by the positional rules:
    (a,b)(-a,-b) is a left inversion iff b > 0 sits left of a, or b < 0
    sits right of a, in the complete notation; (a,-a) iff a sits left
    of -a.

    >>> sorted(tl_set_b((-1, 2)))
    [(1, -1)]
    """
    n = len(w)
    pos = {}
    for k, v in enumerate(w, 1):
        pos[v] = k
        pos[-v] = -k
    out = set()
    for a in range(1, n + 1):
        if pos[a] < pos[-a]:
            out.add((a, -a))
        for bb in range(a + 1, n + 1):
            for b in (bb, -bb):
                if (b > 0 and pos[b] < pos[a]) or (b < 0 and pos[b] > pos[a]):
                    out.add((a, b))
    return frozenset(out)


# T_L(w) in S_n or B_n: S_n is a parabolic subgroup of B_n, and the signed
# rules read on a permutation are those of S_n.  tl_set_a, a different
# algorithm, stays as the tests' type-A reference.
tl_set = tl_set_b


def weak_leq(u: Sequence[int], v: Sequence[int], side: str) -> bool:
    """Weak order comparison in S_n or B_n: right order is T_L
    containment, the left order compares inverses in the right order."""
    if len(u) != len(v):
        raise ValueError("rank mismatch")
    if side == "L":
        return weak_leq(inverse(u), inverse(v), "R")
    if side != "R":
        raise ValueError(f"unknown side {side!r}")
    return tl_set(u) <= tl_set(v)


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
