"""
Wachs permutations, their pair/subset codes, and the induced Bruhat order.

A permutation v is a Wachs permutation when the positions of i and its
partner i* differ by at most one, for every i < n, where i* is i-1 for even
i and i+1 for odd i.  The same condition on the (signed) inverse defines
signed Wachs permutations.  Every such element is encoded by a code

    even rank 2m:   (tau, T)     tau in S_m or B_m, T subset of [m]
    odd rank 2m+1:  (i, tau, T)  plus the slot i of the extremal value

and all order-theoretic questions (comparison, covers, Moebius values,
rank polynomials) reduce to the code.  Subsets are stored as frozensets.

Types A and B share one code path.  A `Kind` record holds what differs
between them: the group G_m (S_m or B_m), its Bruhat oracles, length and
text form.  S_m is a standard parabolic subgroup of B_m, so the Bruhat
order, covers, length and lower intervals of B_m restricted to S_m are
those of S_m, and the signed rules read on unsigned codes are the type-A
rules.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from . import qpoly
from .bruhat import bruhat_leq_a, bruhat_leq_b, covers_a, covers_b
from .perms import (
    MAX_N_A, MAX_N_B, SizeCapError, all_perms, all_windows, compose,
    embed_tilde, format_perm, format_window, full_position, full_value,
    identity, inverse, length_a, length_b, signed_reflection, stats_a,
)

__all__ = [
    "Kind", "KINDS", "kind_record", "longest_element",
    "star", "is_wachs", "enumerate_wachs",
    "encode", "decode", "chi_map", "f_map", "rank_lw",
    "wachs_leq", "wachs_covers",
    "involution_wa", "involution_wb", "coatom_c", "mobius_closed",
    "ClosedForms", "closed_polys",
    "stats_distribution_check", "stabilizer_gi", "descent_class",
]


# ---------------------------------------------------------------- types


@dataclass(frozen=True, eq=False)
class Kind:
    """What type A (G_m = S_m) and type B (G_m = B_m) differ in."""
    elements: Callable[[int], Iterator[tuple]]   # all of G_m, lazily
    leq: Callable[[tuple, tuple], bool]          # Bruhat order on G_m
    ambient: Callable[[tuple], tuple]            # Bruhat embedding in S_m/S_2m
    covers: Callable[[tuple], set]               # Bruhat covers in G_m
    length: Callable[[Sequence[int]], int]
    key: Callable[[Sequence[int]], str]          # text form of an element
    w0: Callable[[int], tuple]                   # longest element of G_m
    default_cap: int                             # largest n run by default
    max_n: int                                   # largest n enumerated


# The Bruhat oracles are looked up by their names in this module at each
# call rather than stored, so that rebinding those names (as the layer
# trace in bench/layertrace.py does) reaches every caller of the record.
KINDS = {
    "A": Kind(elements=all_perms,
              leq=lambda u, v: bruhat_leq_a(u, v), ambient=tuple,
              covers=lambda w: covers_a(w),
              length=length_a, key=format_perm,
              w0=lambda n: tuple(range(n, 0, -1)),
              default_cap=8, max_n=MAX_N_A),
    "B": Kind(elements=all_windows,
              leq=lambda u, v: bruhat_leq_b(u, v), ambient=embed_tilde,
              covers=lambda w: covers_b(w),
              length=lambda w: length_b(w).total, key=format_window,
              w0=lambda n: tuple(range(-1, -n - 1, -1)),
              default_cap=6, max_n=MAX_N_B),
}


def kind_record(kind: str) -> Kind:
    """The record of type "A" or "B"."""
    try:
        return KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}") from None


def longest_element(kind: str, n: int) -> tuple:
    """w_0: the reversal n,...,1 for kind 'A', the window -1,...,-n for 'B'."""
    return kind_record(kind).w0(n)


def star(i: int, n: int) -> int:
    """The partner of i: i-1 for even i, i+1 for odd i < n, else n."""
    if i % 2 == 0:
        return i - 1
    return i + 1 if i + 1 <= n else n


def is_wachs(w: Sequence[int]) -> bool:
    """Membership test; works on one-line words and on windows."""
    n = len(w)
    pos = {}
    for k, v in enumerate(w, 1):
        pos[v] = k
        pos[-v] = -k
    for i in range(1, n):
        if abs(pos[i] - pos[star(i, n)]) > 1:
            return False
    return True


def enumerate_wachs(kind: str, n: int) -> list:
    """All Wachs elements of rank n >= 1, lexicographically sorted.

    They are the decoded codes (tau, T) in G_m x P([m]), m = n // 2.  For
    odd n the slot i of the extremal value is added: inserting the value
    m + 1 with the sign of i at place |i| of tau is a bijection from the
    pairs (i, tau) onto G_{m+1}, so the pairs are read off G_{m+1}.
    """
    k = kind_record(kind)
    if n < 1:
        raise ValueError(f"rank n={n} must be at least 1")
    if n > k.max_n:
        raise SizeCapError(f"n={n} exceeds the cap {k.max_n}")
    m = n // 2
    subsets = [frozenset(c) for r in range(m + 1)
               for c in itertools.combinations(range(1, m + 1), r)]
    if n % 2 == 0:
        heads = [(tau,) for tau in k.elements(m)]
    else:
        heads = []
        for rho in k.elements(m + 1):
            slot = next(a for a, x in enumerate(rho, 1) if abs(x) == m + 1)
            tau = tuple(x for x in rho if abs(x) != m + 1)
            heads.append((slot if rho[slot - 1] > 0 else -slot, tau))
    out = []
    for head in heads:
        for t in subsets:
            w = decode(head + (t,), n)
            if not is_wachs(w):
                raise ValueError(f"code {head + (t,)} decodes to {w}, "
                                 f"which is not a Wachs permutation")
            out.append(w)
    return sorted(out)


# ---------------------------------------------------------------- codes


def chi_map(v: Sequence[int]) -> tuple:
    """Delete the value n (or -n) from a Wachs element of odd rank."""
    n = len(v)
    return tuple(x for x in v if abs(x) != n)


def _encode_even(v: Sequence[int]):
    m = len(v) // 2
    tau = []
    t = set()
    for i in range(1, m + 1):
        a = v[2 * i - 2]
        if a > 0:
            tau.append((a + 1) // 2)
            if a % 2 == 0:
                t.add(i)
        else:
            tau.append(a // 2)  # floor: -5 -> -3, -6 -> -3
            if a % 2 == 1:
                t.add(i)
    return tuple(tau), frozenset(t)


def encode(v: Sequence[int]):
    """Code of a (signed) Wachs permutation: (tau, T), or (i, tau, T) for
    odd rank, where the full position of the value n is 2i-1 (i > 0) or
    2i+1 (i < 0).

    >>> encode((4, 3, 1, 2, 7, 5, 6))
    (3, (2, 1, 3), frozenset({1}))
    >>> encode((-3, -4, 1, 2, 6, 5))
    ((-2, 1, 3), frozenset({1, 3}))
    >>> encode((-1, -2, 5, 6, -7, 3, 4))
    (-3, (-1, 3, 2), frozenset({1}))
    """
    return _encode(tuple(v))


# The order sweeps compare every pair of a few thousand elements, so each
# element is encoded many times; the code is immutable and is kept.
@functools.lru_cache(maxsize=65536)
def _encode(v: tuple):
    n = len(v)
    if not is_wachs(v):
        raise ValueError(f"{v} is not a Wachs permutation")
    if n % 2 == 0:
        return _encode_even(v)
    j = full_position(v, n)
    assert j % 2 == 1, "the extremal value of a Wachs permutation sits at an odd slot"
    i = (j + 1) // 2 if j > 0 else (j - 1) // 2
    tau, t = _encode_even(chi_map(v))
    return (i, tau, t)


def _decode_even(tau, t) -> list:
    out = []
    for i, s in enumerate(tau, 1):
        first, second = (2 * s - 1, 2 * s) if s > 0 else (2 * s, 2 * s + 1)
        if i in t:
            first, second = second, first
        out.extend((first, second))
    return out


def decode(code, n: int) -> tuple:
    """Inverse of encode for rank n."""
    if n % 2 == 0:
        tau, t = code
        return tuple(_decode_even(tau, t))
    i, tau, t = code
    out = _decode_even(tau, t)
    j = 2 * i - 1 if i > 0 else 2 * i + 1  # full position of the value n
    if j > 0:
        out.insert(j - 1, n)
    else:
        out.insert(-j - 1, -n)
    return tuple(out)


def f_map(v: Sequence[int]) -> tuple:
    """The quotient element tau of the code of v."""
    code = encode(v)
    return code[0] if len(v) % 2 == 0 else code[1]


# ---------------------------------------------------------------- rank


def rank_lw(v: Sequence[int], kind: str) -> int:
    """Length of v above the minimal element of its coset: l(v) - l(tau)."""
    length = kind_record(kind).length
    return length(v) - length(f_map(v))


# ---------------------------------------------------------------- order


def _rank(w: Sequence[int], i: int, j: int) -> int:
    """r_w(i, j) = #{a <= i : w(a) >= j}."""
    return sum(x >= j for x in w[:i])


@functools.lru_cache(maxsize=65536)
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
    same v there and their rank matrices agree at those corners.  That
    no other cell is frozen is verified exhaustively in the tests.
    """
    m = len(sigma)
    p, q = embed_tilde(sigma), embed_tilde(tau)
    out = set()
    for c in range(1, m + 1):
        i = c + m
        v = p[i - 1]
        if q[i - 1] == v and all(_rank(p, a, b) == _rank(q, a, b)
                                 for a in (i - 1, i) for b in (v, v + 1)):
            out.add(c)
    return frozenset(out)


# An order sweep compares each pair of a few thousand elements, but their
# quotients range over G_m only: at the default caps, at most 576 pairs of
# S_4 or 2304 of B_3.
@functools.lru_cache(maxsize=65536)
def _group_leq(sigma: tuple, tau: tuple, kind: str) -> bool:
    return kind_record(kind).leq(sigma, tau)


def wachs_leq(u: Sequence[int], v: Sequence[int], kind: str) -> bool:
    """Bruhat comparison of (signed) Wachs permutations, via codes only."""
    kind_record(kind)                 # rejects an unknown kind up front
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError("rank mismatch")
    n = len(u)
    if n % 2 == 0:
        sigma, s = encode(u)
        tau, t = encode(v)
        if not _group_leq(sigma, tau, kind):
            return False
        return s & _frozen_cells(sigma, tau) <= t
    i, sigma, s = encode(u)
    j, tau, t = encode(v)
    if j > i or not _group_leq(sigma, tau, kind):
        return False
    m = n // 2
    lo, hi = min(abs(i), abs(j)), max(abs(i), abs(j))
    if (i > 0) == (j > 0):
        window = frozenset(range(1, lo)) | frozenset(range(hi, m + 1))
    else:
        # the extremal value changes sign between u and v; sweeping it
        # through the centre disturbs every cell below max(|i|, |j|)
        window = frozenset(range(hi, m + 1))
    keep = window & _frozen_cells(sigma, tau)
    return s & keep <= t & keep


def _moved_cells(tau, sigma) -> frozenset:
    """Window positions moved by tau^-1 sigma (the cells of a reflection)."""
    r = compose(inverse(tau), sigma)
    return frozenset(k for k in range(1, len(r) + 1) if r[k - 1] != k)


def wachs_covers(v: Sequence[int], kind: str) -> set:
    """Elements covered by v inside the (signed) Wachs permutations."""
    covers = kind_record(kind).covers
    v = tuple(v)
    n = len(v)
    m = n // 2
    out = set()
    if n % 2 == 0:
        tau, t = encode(v)
        for x in t:
            out.add(decode((tau, t - {x}), n))
        for sigma in covers(tau):
            cells = _moved_cells(tau, sigma)
            if t.isdisjoint(cells):
                out.add(decode((sigma, t | cells), n))
        return out
    j, tau, t = encode(v)
    for x in t:
        out.add(decode((j, tau, t - {x}), n))
    # slide the extremal value one slot further from the front
    if j == -1:
        out.add(decode((1, tau, t), n))
    elif j != m + 1:
        x = j if j > 0 else -j - 1
        if 1 <= x <= m and x not in t:
            out.add(decode((j + 1, tau, t | {x}), n))
    for sigma in covers(tau):
        cells = _moved_cells(tau, sigma)
        if t.isdisjoint(cells):
            out.add(decode((j, sigma, t | cells), n))
    return out


# ---------------------------------------------------------------- involutions


def involution_wa(v: Sequence[int], i: int, j: int) -> tuple:
    """The fixed-point-free involution on [l(u), l(w^A_ij(u))] intervals:
    exchange tau(i), tau(j) and toggle i, j in T.

    >>> involution_wa((4, 3, 1, 2, 7, 6, 5), 2, 3)
    (4, 3, 6, 5, 7, 1, 2)
    """
    v = tuple(v)
    n = len(v)
    m = n // 2
    if not 1 <= i < j <= m:
        raise ValueError(f"need 1 <= i < j <= {m}")
    swap = list(identity(m))
    swap[i - 1], swap[j - 1] = j, i
    if n % 2 == 0:
        tau, t = encode(v)
        return decode((compose(tau, tuple(swap)), t ^ {i, j}), n)
    k, tau, t = encode(v)
    return decode((k, compose(tau, tuple(swap)), t ^ {i, j}), n)


def involution_wb(code, i: int, j: int):
    """Code-level involution for even signed rank: tau -> tau (i,j)_B,
    T -> T symmetric-difference {i, |j|}.

    >>> involution_wb(((-2, 1, 4, 3), frozenset({1, 4})), 3, -3)
    ((-2, 1, -4, 3), frozenset({1, 3, 4}))
    """
    tau, t = code
    m = len(tau)
    refl = signed_reflection(i, j, m)
    return (compose(tau, refl), t ^ {i, abs(j)})


def coatom_c(v: Sequence[int]) -> tuple:
    """The canonical coatom map on signed Wachs permutations of odd rank."""
    v = tuple(v)
    n = len(v)
    if n % 2 == 0:
        raise ValueError("coatom map needs odd rank")
    j = full_position(v, n)

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


# ---------------------------------------------------------------- Moebius


def mobius_closed(code, n: int) -> int:
    """Closed form for mu(e, v) on (signed) Wachs permutations of rank n >= 2."""
    m = n // 2
    if n % 2 == 0:
        tau, t = code
        return (-1) ** len(t) if tau == identity(m) else 0
    i, tau, t = code
    if tau == identity(m) and i == m + 1:
        return (-1) ** len(t)
    return 0


# ---------------------------------------------------------------- polynomials


@dataclass(frozen=True)
class ClosedForms:
    rank_gen: qpoly.IntPolynomial
    char: qpoly.IntPolynomial
    rank: int


def closed_polys(kind: str, n: int) -> ClosedForms:
    """Closed-form rank generating function, characteristic polynomial and
    rank of the Bruhat order on (signed) Wachs permutations of rank n.
    The characteristic polynomial form needs n >= 2 in the signed case."""
    m = n // 2
    x = qpoly.X
    cube_fact = qpoly.q_factorial(m).substitute_power(3)
    if kind == "A":
        gen = (1 + x) ** m * cube_fact
        if n % 2 == 1:
            gen = gen * qpoly.q_int(m + 1).substitute_power(2)
        rank = n * (n - 1) // 2 - m * (m - 1) // 2
        char = (x - 1) ** m * x ** (n * (n - 1) // 2 - (m + 1) * m // 2)
        return ClosedForms(gen, char, rank)
    if kind == "B":
        gen = (1 + x) ** m * cube_fact
        for i in range(1, m + 1):
            gen = gen * (1 + x ** (3 * i - 1))
        if n % 2 == 1:
            gen = gen * qpoly.q_int(m + 1).substitute_power(2) * (1 + x ** n)
        rank = n * n - m * m
        char = (x - 1) ** m * x ** (n * n - m * m - m)
        return ClosedForms(gen, char, rank)
    raise ValueError(f"unknown kind {kind!r}")


def stats_distribution_check(n: int) -> bool:
    """For even rank: the length generating function equals the generating
    function of 3*emaj + odes over the Wachs permutations."""
    if n % 2 != 0:
        raise ValueError("even rank only")
    lhs: dict = {}
    rhs: dict = {}
    for v in enumerate_wachs("A", n):
        lw = rank_lw(v, "A")
        lhs[lw] = lhs.get(lw, 0) + 1
        st = stats_a(v)
        k = 3 * st.emaj + st.odes
        rhs[k] = rhs.get(k, 0) + 1
    return lhs == rhs


def stabilizer_gi(n: int) -> list:
    """Elements of S_n whose conjugation fixes {s_i : i odd} setwise."""
    gens = []
    for i in range(1, n):
        if i % 2 == 1:
            w = list(identity(n))
            w[i - 1], w[i] = w[i], w[i - 1]
            gens.append(tuple(w))
    gen_set = set(gens)
    out = []
    for w in itertools.permutations(range(1, n + 1)):
        wi = inverse(w)
        if all(compose(compose(w, s), wi) in gen_set for s in gens):
            out.append(w)
    return out


def descent_class(n: int, free: frozenset) -> list:
    """Permutations of [n] that ascend at every position in `free`."""
    return [p for p in itertools.permutations(range(1, n + 1))
            if all(p[i - 1] < p[i] for i in free)]
