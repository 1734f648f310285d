"""
Right and left weak orders, left-inversion sets, and the product-structure
isomorphisms of the weak order on (signed) Wachs permutations.

Reflections are keyed canonically: pairs (a, b) of values with a < b for
S_n; for B_n pairs (a, b) with 1 <= a < |b| standing for (a,b)(-a,-b),
plus (a, -a) for the sign changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .perms import inverse
from .posets import FinitePoset, inclusion_up_sets
from .wachs import encode

__all__ = ["tl_set_a", "tl_set_b", "tl_set", "weak_leq",
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


# the two algorithms differ, and the tests use each as an oracle
_TL_SET = {"A": tl_set_a, "B": tl_set_b}


def tl_set(w: Sequence[int], kind: str) -> frozenset:
    """T_L(w) in S_n (kind "A") or B_n (kind "B")."""
    if kind not in _TL_SET:
        raise ValueError(f"unknown kind {kind!r}")
    return _TL_SET[kind](w)


def weak_leq(u: Sequence[int], v: Sequence[int], side: str, kind: str) -> bool:
    """Weak order comparison: right order is T_L containment, the left
    order compares inverses in the right order."""
    if len(u) != len(v):
        raise ValueError("rank mismatch")
    if side == "L":
        return weak_leq(inverse(u), inverse(v), "R", kind)
    if side != "R":
        raise ValueError(f"unknown side {side!r}")
    return tl_set(u, kind) <= tl_set(v, kind)


# ------------------------------------------------------- product structure


def _bar(tau, i: int):
    """Insert the value +-(m+1) at slot |i|, with the sign of i."""
    m = len(tau)
    v = (m + 1) if i > 0 else -(m + 1)
    k = abs(i)
    return tau[:k - 1] + (v,) + tau[k - 1:]


def _factor_map(n: int, v):
    """Image of a Wachs element in G_ceil(n/2) x P([floor(n/2)])."""
    code = encode(v)
    if n % 2 == 0:
        tau, t = code
        small = tau
    else:
        i, small, t = code
        tau = _bar(small, i)
    # t holds slots of the even part; the factor holds their values
    return tau, frozenset(abs(small[k - 1]) for k in t)


@dataclass(frozen=True)
class WeakIsoResult:
    holds: bool
    witness: Optional[tuple]        # first mismatching pair, if any


def weak_product_iso(poset: FinitePoset, kind: str) -> WeakIsoResult:
    """Check that `poset`, the right weak order on the Wachs elements of
    one rank n, is isomorphic via the explicit code map to
    (G_ceil(n/2), <=_R) x P([floor(n/2)])."""
    n = len(poset.items[0])
    images = [_factor_map(n, v) for v in poset.items]
    if len(set(images)) != len(images):
        return WeakIsoResult(False, ("not injective",))
    tls = {g: tl_set(g, kind) for g in {g for g, _ in images}}
    group_up = inclusion_up_sets([tls[g] for g, _ in images])
    subset_up = inclusion_up_sets([s for _, s in images])
    for a, v in enumerate(poset.items):
        diff = poset.up[a] ^ (group_up[a] & subset_up[a])
        if diff:
            b = (diff & -diff).bit_length() - 1
            return WeakIsoResult(False, (v, poset.items[b]))
    return WeakIsoResult(True, None)
