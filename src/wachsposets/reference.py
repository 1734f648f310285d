"""
Pairwise references: the brute-force oracles, for one pair or one
element at a time, that the tests check the sweeps and closed forms
against: Bruhat order (`bruhat_leq_a`, `bruhat_leq_b`) and its covers
by reflections (`bruhat_covers`, `signed_reflection`), the one-element
maps on Wachs permutations (`is_wachs`, `chi_map`, `encode`, `star`,
`f_map`, `rank_lw`, `involution`, `coatom_c`), their order and covers
(`wachs_leq`, `wachs_covers`), left-inversion sets and weak order
(`tl_set_a`, `tl_set`, `weak_leq`), posets from a comparison
(`build_poset`), and the word-at-a-time forms that the sweeps read from
byte columns or never need (`length_a`, `descent_set_a`, `stats_a`,
`full_value`, `full_position`, `format_window`).

No report cell calls them and no other module of the package imports
this one (a test reads the imports), so a closed form cannot call back
into its oracle.  They may read the codes, signatures and slot windows
of `wachs`, but not its Bruhat order of G_m: `wachs_covers` derives
the covers of tau from `bruhat_covers`.
"""

from __future__ import annotations

import functools
from bisect import insort
from collections import namedtuple
from itertools import combinations, starmap
from operator import gt
from typing import Callable, Iterable, Optional, Sequence

from . import wachs
from .perms import compose, embed_tilde, inverse, length_b
from .posets import FinitePoset, _check_size, poset_from_up

__all__ = ["bruhat_leq_a", "bruhat_leq_b", "signed_reflection",
           "bruhat_covers", "is_wachs", "chi_map", "encode",
           "star", "f_map", "rank_lw", "involution", "coatom_c",
           "wachs_leq", "wachs_covers", "tl_set_a", "tl_set", "weak_leq",
           "build_poset", "length_a", "descent_set_a", "StatRecord",
           "stats_a", "full_value", "full_position", "format_window"]


@functools.lru_cache(maxsize=262144)
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
    """Bruhat comparison p <= q in S_n, by the tableau criterion on the
    descents of p: for every k in D(p), the increasing rearrangement of
    p(1..k) is componentwise <= that of q(1..k)."""
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
_embedded = functools.lru_cache(maxsize=262144)(embed_tilde)


def bruhat_leq_b(u: Sequence[int], v: Sequence[int]) -> bool:
    """Bruhat comparison u <= v in B_n (windows), on their images in
    S_2n (`perms.embed_tilde`)."""
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return bruhat_leq_a(_embedded(tuple(u)), _embedded(tuple(v)))


def signed_reflection(i: int, j: int, n: int) -> tuple:
    """
    Window of the reflection (i,j)_B with 1 <= i <= n and j in [+-n]:
    the involution exchanging i with j (and -i with -j).

    >>> signed_reflection(1, -1, 2)
    (-1, 2)
    >>> signed_reflection(2, -2, 3)
    (1, -2, 3)
    """
    if not 1 <= i <= n or not 1 <= abs(j) <= n or i == j:
        raise ValueError(f"bad reflection indices ({i},{j}) for n={n}")
    out = list(range(1, n + 1))
    if j == -i:
        out[i - 1] = -i
    else:
        out[i - 1] = j
        if j > 0:
            out[j - 1] = i
        else:
            out[-j - 1] = -i
    return tuple(out)


@functools.lru_cache(maxsize=None)
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


def is_wachs(w: Sequence[int]) -> bool:
    """Membership test on one-line words and windows: w is a (signed)
    permutation of 1..n, and 2c-1 and 2c sit at signed positions one
    apart (-1 and 1 are two apart) for all c <= n/2."""
    pos = [0] * (len(w) + 1)        # pos[|v|]: the signed position of +|v|
    try:
        for k, v in enumerate(w, 1):
            if v > 0:
                pos[v] = k
            else:
                pos[-v] = -k
    except IndexError:              # |v| > n
        return False
    # a 0 left in pos[1:] is a value missing from w
    return 0 not in pos[1:] and all(
        abs(pos[c] - pos[c + 1]) == 1 for c in range(1, len(w), 2))


def chi_map(v: Sequence[int]) -> tuple:
    """Delete the value n (or -n) from a Wachs element of odd rank."""
    n = len(v)
    return tuple(x for x in v if abs(x) != n)


def encode(v: Sequence[int]) -> tuple:
    """Code of a (signed) Wachs permutation, a tuple: (tau, T), or
    (i, tau, T) for odd rank, where the full position of the value n is
    2i-1 (i > 0) or 2i+1 (i < 0).

    >>> encode((4, 3, 1, 2, 7, 5, 6))
    (3, (2, 1, 3), frozenset({1}))
    >>> encode((-3, -4, 1, 2, 6, 5))
    ((-2, 1, 3), frozenset({1, 3}))
    >>> encode((-1, -2, 5, 6, -7, 3, 4))
    (-3, (-1, 3, 2), frozenset({1}))
    """
    return _encode(tuple(v))


# Callers that compare pairs one at a time, such as wachs_leq, encode
# each element many times; the code is immutable and is kept.
@functools.lru_cache(maxsize=65536)
def _encode(v: tuple) -> tuple:
    n = len(v)
    if sorted(map(abs, v)) != list(range(1, n + 1)):
        raise ValueError(f"{v} is not a (signed) permutation")
    if not is_wachs(v):
        raise ValueError(f"{v} is not a Wachs permutation")
    slot = ()
    if n % 2:
        j = full_position(v, n)
        assert j % 2 == 1, "the extremal value of a Wachs permutation sits at an odd slot"
        slot = ((j + 1) // 2 if j > 0 else (j - 1) // 2,)
        v = chi_map(v)
    # the first value a of cell c is 2s - 1 or 2s (s > 0), 2s or 2s + 1
    # (s < 0), for tau(c) = s; a + (a > 0) is 2s, or 2s + 1 if c is in T
    firsts = [a + (a > 0) for a in v[::2]]
    return slot + (tuple(x // 2 for x in firsts),
                   frozenset(c for c, x in enumerate(firsts, 1) if x % 2))


def star(i: int, n: int) -> int:
    """The partner of i: i-1 for even i, i+1 for odd i < n, else n."""
    if i % 2 == 0:
        return i - 1
    return i + 1 if i + 1 <= n else n


def f_map(v: Sequence[int]) -> tuple:
    """The quotient element tau of the code of v."""
    return encode(v)[-2]


def rank_lw(v: Sequence[int]) -> int:
    """Length of v above the minimal element of its coset: l(v) - l(tau)."""
    return length_b(v) - length_b(f_map(v))


def involution(code, i: int, j: int) -> tuple:
    """The fixed-point-free involution on [l(u), l(w_ij(u))] intervals,
    on codes: tau -> tau (i,j)_B, T -> T symmetric-difference {i, |j|}.

    >>> wachs.decode(involution(encode((4, 3, 1, 2, 7, 6, 5)), 2, 3), 7)
    (4, 3, 6, 5, 7, 1, 2)
    >>> involution(((-2, 1, 4, 3), frozenset({1, 4})), 3, -3)
    ((-2, 1, -4, 3), frozenset({1, 3, 4}))
    """
    *slot, tau, t = code
    refl = signed_reflection(i, j, len(tau))
    return (*slot, compose(tau, refl), t ^ {i, abs(j)})


def coatom_c(v: Sequence[int]) -> tuple:
    """The canonical coatom map on signed Wachs permutations of odd rank
    whose value n does not sit at position n."""
    v = tuple(v)
    n = len(v)
    if n % 2 == 0:
        raise ValueError("coatom map needs odd rank")
    if not is_wachs(v):
        raise ValueError(f"{v} is not a Wachs permutation")
    j = full_position(v, n)
    if j == n:
        raise ValueError(f"{v} has the value n at position n, "
                         f"where the coatom map is not defined")

    def swap(p: int, q: int) -> tuple:
        f = {k: full_value(v, k) for k in range(-n, n + 1) if k != 0}
        f[p], f[q] = f[q], f[p]
        if q != -p:
            f[-p], f[-q] = f[-q], f[-p]
        return tuple(f[k] for k in range(1, n + 1))

    if j == -1:
        return swap(-1, 1)
    if full_value(v, j + 1) > full_value(v, j + 2):
        return swap(j + 1, j + 2)
    return swap(j, j + 2)


@functools.lru_cache(maxsize=None)
def _signatures(tau) -> tuple:
    """The `wachs._signature` of tau at each cell 1..m."""
    p = embed_tilde(tau)
    return tuple(wachs._signature(p, c) for c in range(1, len(tau) + 1))


def _frozen_cells(sigma, tau) -> frozenset:
    """Cells fixed by every element of the Bruhat interval [sigma, tau]
    of G_m, for sigma <= tau.

    Plain agreement of sigma and tau is not enough: a saturated chain
    between them may pass through elements moving a cell on which the
    endpoints agree, and such a detour can toggle the subset entry of
    that cell.  Only cells frozen across the whole interval constrain
    the subsets.

    Every rho in the interval has r_sigma <= r_rho <= r_tau entrywise
    (Bjorner-Brenti, GTM 231, Thm 2.1.5), and the four corners of r_rho
    around (i, v) decide whether rho(i) = v.  Cell c sits at position
    i = c + m of embed_tilde, so it is frozen when sigma and tau put the
    same v there and their rank matrices agree at those corners: when
    their signatures at c are equal.  That no other cell is frozen is
    verified exhaustively in the tests.
    """
    pairs = zip(_signatures(sigma), _signatures(tau))
    return frozenset(c for c, (s, t) in enumerate(pairs, 1) if s == t)


def _keep(hu: tuple, hv: tuple) -> Optional[frozenset]:
    """The cells on which the subset of u must lie inside that of v for
    u <= v, given the heads hu = code(u)[:-1] and hv = code(v)[:-1]; None
    when the heads alone forbid u <= v.

    The heads forbid it when the slot of v exceeds the slot of u or sigma
    is not below tau in G_m.  Otherwise the kept cells are those frozen on
    [sigma, tau], cut at odd rank to the slot window.
    """
    slot_u, sigma = hu[:-1], hu[-1]
    slot_v, tau = hv[:-1], hv[-1]
    if slot_v > slot_u or not bruhat_leq_b(sigma, tau):
        return None
    keep = _frozen_cells(sigma, tau)
    return keep & wachs._slot_window(slot_u, slot_v, len(sigma))


def wachs_leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """Bruhat comparison of (signed) Wachs permutations, via codes only."""
    if len(u) != len(v):
        raise ValueError("rank mismatch")
    cu, cv = encode(u), encode(v)
    keep = _keep(cu[:-1], cv[:-1])
    return keep is not None and cu[-1] & keep <= cv[-1]


def _moves(tau) -> list:
    """The covers sigma of tau in G_m, each with the window positions
    moved by tau^-1 sigma (the cells of a reflection)."""
    tau_inv = inverse(tau)
    out = []
    for sigma in bruhat_covers(tau):
        r = compose(tau_inv, sigma)
        out.append((sigma, frozenset(k for k, x in enumerate(r, 1)
                                     if x != k)))
    return out


def _cover_codes(code, moves: list) -> list:
    """Codes of the elements covered by the element with this code, given
    the `_moves` of its tau."""
    *slot, tau, t = code
    out = [(*slot, tau, t - {x}) for x in t]
    if slot:
        # slide the extremal value one slot further from the front
        j, = slot
        m = len(tau)
        x = j if j > 0 else -j - 1
        if j == -1:
            out.append((1, tau, t))
        elif j != m + 1 and 1 <= x <= m and x not in t:
            out.append((j + 1, tau, t | {x}))
    for sigma, cells in moves:
        if t.isdisjoint(cells):
            out.append((*slot, sigma, t | cells))
    return out


def wachs_covers(v: Sequence[int]) -> set:
    """Elements covered by v inside the (signed) Wachs permutations."""
    code = encode(v)
    covered = _cover_codes(code, _moves(code[-2]))
    return {wachs.decode(c, len(v)) for c in covered}


def tl_set_a(w: Sequence[int]) -> frozenset:
    """T_L(w) for a permutation: pairs (a,b), a<b, with b left of a (the
    reflection (a,b) keyed by its values).

    >>> sorted(tl_set_a((2, 1)))
    [(1, 2)]
    """
    pos = {v: k for k, v in enumerate(w, 1)}
    n = len(w)
    return frozenset((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                     if pos[b] < pos[a])


def tl_set(w: Sequence[int]) -> frozenset:
    """T_L(w) for a signed permutation, by the positional rules:
    (a,b)(-a,-b) is a left inversion iff b > 0 sits left of a, or b < 0
    sits right of a, in the complete notation; (a,-a) iff a sits left
    of -a.  On S_n, a parabolic subgroup of B_n, they are the rules of
    S_n; `tl_set_a`, a different algorithm, checks them there.

    >>> sorted(tl_set((-1, 2)))
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


def build_poset(items: Iterable, leq: Callable, key: Callable = str) -> FinitePoset:
    """Build and validate a poset from elements and a comparison oracle.

    Items already in a linear extension keep their order.  Any other
    order is sorted by down-set size, then key: x < y makes the down-set
    of x a proper subset of that of y, so this is a linear extension of
    any partial order.
    """
    items = list(items)
    n = len(items)
    _check_size(n)
    keys = list(map(key, items))
    rel = [[bool(leq(x, y)) for y in items] for x in items]
    if any(rel[i][j] for i in range(n) for j in range(i)):
        order = sorted(range(n),
                       key=lambda j: (sum(row[j] for row in rel), keys[j]))
        items = [items[i] for i in order]
        keys = [keys[i] for i in order]
        rel = [[rel[i][j] for j in order] for i in order]
    up = [sum(1 << j for j, b in enumerate(row) if b) for row in rel]
    return poset_from_up(items, up, keys)


# ------------------------------------------- one word at a time


def length_a(word: Sequence[int]) -> int:
    """Coxeter length of a permutation: the number of inversions."""
    return sum(starmap(gt, combinations(word, 2)))


def descent_set_a(word: Sequence[int]) -> frozenset:
    """D(w) = {i in [n-1] : w(i) > w(i+1)}."""
    return frozenset(i for i in range(1, len(word)) if word[i - 1] > word[i])


StatRecord = namedtuple("StatRecord", [
    "des",      # |D(w)|
    "maj",      # sum of D(w)
    "odes",     # number of odd descents
    "emaj",     # sum of i/2 over even descents i
    "pos",      # position of the value n
])
StatRecord.__doc__ = """Descent-based statistics of a permutation."""


def stats_a(word: Sequence[int]) -> StatRecord:
    """
    >>> stats_a((3, 4, 1, 2))
    StatRecord(des=1, maj=2, odes=0, emaj=1, pos=2)
    """
    d = descent_set_a(word)
    return StatRecord(
        des=len(d),
        maj=sum(d),
        odes=sum(1 for i in d if i % 2 == 1),
        emaj=sum(i // 2 for i in d if i % 2 == 0),
        pos=word.index(len(word)) + 1,
    )


def full_value(window: Sequence[int], k: int) -> int:
    """w(k) for a position k in [+-n]."""
    return window[k - 1] if k > 0 else -window[-k - 1]


def full_position(window: Sequence[int], value: int) -> int:
    """The signed position k in [+-n] with w(k) == value."""
    for k, v in enumerate(window, 1):
        if v == value:
            return k
        if v == -value:
            return -k
    raise ValueError(f"value {value} not in window")


def format_window(window: Sequence[int]) -> str:
    """
    >>> format_window((-2, 1, 4, 3))
    '[-2,1,4,3]'
    """
    return "[" + ",".join(map(str, window)) + "]"
