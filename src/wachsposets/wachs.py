"""
Wachs permutations, their pair/subset codes, and the induced Bruhat order.

A permutation v is a Wachs permutation when the positions of i and its
partner i* differ by at most one, for every i < n, where i* is i-1 for even
i and i+1 for odd i.  The same condition on the (signed) inverse defines
signed Wachs permutations.  Every such element is encoded by a code

    even rank 2m:   (tau, T)     tau in S_m or B_m, T subset of [m]
    odd rank 2m+1:  (i, tau, T)  plus the slot i of the extremal value

read as (*slot, tau, T), with head code[:-1].  The sweeps of a rank read
each element as a tile of `element_table`: its head and T as a mask.

Types A and B share one code path.  S_m is a standard parabolic subgroup
of B_m, so the Bruhat order, covers, length and lower intervals of B_m
restricted to S_m are those of S_m: the order, covers and ranks run the
signed rules, and read the type from the code; `perms.length_b`
counts the length of both.  A `Kind` record holds what the enumeration
and the output need by type: the group G_m (S_m or B_m), its ambient
image, longest element and caps.  The Bruhat order of G_m is built once
per type and m (`group_order`), and both closed forms of the order of a
rank read it.  The pairwise references of the sweeps here (`wachs_leq`,
`wachs_covers`, `rank_lw`) and the one-element maps (`is_wachs`,
`encode`, `chi_map`, `involution`, `coatom_c`) are in `reference`.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from math import comb
from typing import Sequence

from .bruhat import bruhat_up_sets
from .columns import (cells, lengths, not_wachs, signed_words,
                      sorted_columns, texts, tile_subsets)
from .perms import (SizeCapError, all_perms, all_windows, embed_tilde,
                    identity, length_b)
from .posets import poset_from_up

__all__ = [
    "Kind", "KINDS", "kind_record", "longest_element",
    "enumerate_wachs", "ElementTable", "element_table", "group_order",
    "decode", "wachs_up_sets", "wachs_cover_masks", "mobius_closed",
    "ClosedForms", "closed_polys", "stabilizer_gi",
]


# ---------------------------------------------------------------- types


Kind = namedtuple("Kind", [
    "elements",     # all of G_m, lazily: int -> iterator of tuples
    "ambient",      # Bruhat embedding in S_m/S_2m: tuple -> tuple
    "w0",           # longest element of G_m: int -> tuple
    "default_cap",  # largest n run by default
    "max_n",        # largest n enumerated
])
Kind.__doc__ = """What type A (G_m = S_m) and type B (G_m = B_m) differ in."""


KINDS = {
    "A": Kind(elements=all_perms, ambient=tuple,
              w0=lambda n: tuple(range(n, 0, -1)),
              default_cap=8, max_n=16),
    "B": Kind(elements=all_windows, ambient=embed_tilde,
              w0=lambda n: tuple(range(-1, -n - 1, -1)),
              default_cap=6, max_n=12),
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


def _rank_columns(kind: str, n: int) -> tuple:
    """The heads of the codes of rank n >= 1 and the byte columns of
    their words, entries w(p) + n (see `columns`), every word checked by
    `columns.not_wachs`: word i has the code heads[i % H] + (T,), H =
    len(heads), T = cells(i // H).

    The codes are (tau, T) in G_m x P([m]), m = n // 2.  For odd n the
    slot i of the extremal value is added: inserting the value m + 1
    with the sign of i at place |i| of tau is a bijection from the pairs
    (i, tau) onto G_{m+1}, so i runs over the places 1..m+1 with the
    signs of G_1.  Each head is decoded once, with T empty, and
    `columns.tile_subsets`, the column decoder, swaps the cells of each
    T in bulk.
    """
    k = kind_record(kind)
    if n < 1:
        raise ValueError(f"rank n={n} must be at least 1")
    if n > k.max_n:
        raise SizeCapError(f"n={n} exceeds the cap {k.max_n}")
    m = n // 2
    slots = [(place * sign,) for place in range(1, m + 2)
             for sign, in k.elements(1)] if n % 2 else [()]
    heads = [slot + (tau,) for slot in slots for tau in k.elements(m)]
    cols = tile_subsets([decode(head + (frozenset(),), n) for head in heads],
                        n)
    bad = not_wachs(cols, n)
    if bad:
        i = (bad & -bad).bit_length() - 1
        code = heads[i % len(heads)] + (cells(i // len(heads)),)
        raise ValueError(f"code {code} decodes to {signed_words(cols, n)[i]}"
                         f", which is not a Wachs permutation")
    return heads, cols


def enumerate_wachs(kind: str, n: int, text: bool = False) -> list:
    """All Wachs elements of rank n >= 1, lexicographically sorted, or
    with text their texts (`columns.texts`) in that order."""
    cols = sorted_columns(_rank_columns(kind, n)[1])
    return texts(cols, n, kind) if text else signed_words(cols, n)


ElementTable = namedtuple("ElementTable", "items keys ranks tiles heads")
ElementTable.__doc__ = """The Wachs elements of one rank with their keys and
l(v) - l(tau): item b is word i = tiles[b] of `_rank_columns`, with
head heads[i % H], H = len(heads), and subset cells(i // H)."""


@functools.lru_cache(maxsize=None)
def element_table(kind: str, n: int) -> ElementTable:
    """The Wachs elements of rank n sorted by length, then key, from the
    checked columns of the rank: lengths and keys are read from every
    lane at once, and the ranks l(v) - l(tau) take l(tau) once per head.
    Length order is a linear extension of the Bruhat order and of both
    weak orders, which strictly raise length (|T_L(v)| = |T_L(v^-1)| =
    l(v)), so the posets built on the items keep this order."""
    heads, cols = _rank_columns(kind, n)
    tiles = 1 << n // 2
    length = lengths(cols, n).to_bytes(len(cols[0]), "little")
    tau_length = bytes(length_b(head[-1]) for head in heads) * tiles
    ranks = list(map(int.__sub__, length, tau_length))
    words = signed_words(cols, n)
    keys = texts(cols, n, kind)
    # chr(l(v)) + key sorts by length, then key
    order = sorted(range(len(keys)), key=list(
        map(str.__add__, map(chr, length), keys)).__getitem__)
    return ElementTable(*(tuple(map(seq.__getitem__, order))
                          for seq in (words, keys, ranks)),
                        tuple(order), tuple(heads))


# ---------------------------------------------------------------- codes


def decode(code, n: int) -> tuple:
    """The element of rank n with this code (`reference.encode` is the
    inverse)."""
    *slot, tau, t = code
    out = []
    for c, s in enumerate(tau, 1):
        first, second = (2 * s - 1, 2 * s) if s > 0 else (2 * s, 2 * s + 1)
        if c in t:
            first, second = second, first
        out.extend((first, second))
    if slot:
        i, = slot
        j = 2 * i - 1 if i > 0 else 2 * i + 1  # full position of the value n
        out.insert(abs(j) - 1, n if j > 0 else -n)
    return tuple(out)


# ---------------------------------------------------------------- order


@functools.lru_cache(maxsize=None)
def group_order(kind: str, m: int) -> dict:
    """The Bruhat order of G_m as moves[tau]: the lower covers sigma of
    tau, each with the cells moved by tau^-1 sigma, where sigma and tau
    differ.  Its keys are G_m sorted by length, a linear extension.  It
    comes from one `bruhat_up_sets` call on the `embed_tilde` images,
    validated and reduced to its covers by `poset_from_up`.  Every
    caller shares the cached dict, so none may change it.

    >>> group_order("A", 2)
    {(1, 2): (), (2, 1): (((1, 2), frozenset({1, 2})),)}
    """
    group = sorted(kind_record(kind).elements(m), key=length_b)
    up = bruhat_up_sets([embed_tilde(tau) for tau in group])
    moves: dict = {tau: () for tau in group}
    for i, j in poset_from_up(group, up).covers:
        sigma, tau = group[i], group[j]
        moved = frozenset(k for k, (x, y) in enumerate(zip(sigma, tau), 1)
                          if x != y)
        moves[tau] += ((sigma, moved),)
    return moves


def _signature(p: Sequence[int], c: int) -> tuple:
    """What cell c of an element of G_m reads in its image p =
    embed_tilde(w): the value v at position i = c + m, and r_p(i-1, v+1),
    the number of larger values before it.

    With r_p(a, b) = #{a' <= a : p(a') >= b}, v at position i and nowhere
    before it makes the four corners r_p(i-1, v), r_p(i-1, v+1) and
    r_p(i, v+1) equal that count, and r_p(i, v) one more: given v, the
    count decides all four.
    """
    i = len(p) // 2 + c
    v = p[i - 1]
    return v, sum(x > v for x in p[:i - 1])


def _slot_window(slot_u: tuple, slot_v: tuple, m: int) -> frozenset:
    """The cells the extremal value leaves undisturbed while it moves
    from the slot of u to the slot of v (the slots are () at even rank,
    where every cell is kept)."""
    if not slot_u:
        return frozenset(range(1, m + 1))
    (i,), (j,) = slot_u, slot_v
    lo, hi = sorted((abs(i), abs(j)))
    window = set(range(hi, m + 1))
    # a sign change sweeps the extremal value through the centre,
    # which disturbs every cell below max(|i|, |j|)
    if (i > 0) == (j > 0):
        window.update(range(1, lo))
    return frozenset(window)


def _item_bits(table: ElementTable) -> list:
    """Word i of the rank -> the bit of its item in `table`."""
    bit = [0] * len(table.tiles)
    for b, i in enumerate(table.tiles):
        bit[i] = 1 << b
    return bit


def wachs_up_sets(kind: str, n: int) -> list:
    """Up-sets of the Bruhat order on the items of `element_table` as
    bitmasks: bit b of up[a] is set iff item a lies below item b.

    u <= v iff the slot of v is at most that of u, sigma <= tau in G_m,
    and T_u & K <= T_v for the cells K frozen on [sigma, tau] and kept by
    `_slot_window` (`reference.wachs_leq` is this rule for one pair).
    Here it is an AND of masks built per head and per cell: for the head
    (slot, sigma) of word h + H t of `_rank_columns` and the cells c of t,

        base = above[sigma] & below[slot]
        free[c] = base & (~(signed[c, sig_c(sigma)] & window[slot][c])
                          | holders[c])
        up = base & the AND of free[c] over c in cells(t)

    where above[sigma] holds the items whose tau lies above sigma, ORed
    top first along the covers of `group_order`, below[slot] those of a
    slot <= slot, signed[c, s] those whose tau has signature s at c (c is
    frozen on [sigma, tau] iff the signatures at c agree),
    window[slot][c] those whose slot keeps c in `_slot_window`, and
    holders[c] those whose subset holds c.

    >>> wachs_up_sets("A", 2)
    [3, 2]
    """
    table = element_table(kind, n)
    heads, size = table.heads, len(table.heads)
    bit = _item_bits(table)
    span, cells = len(bit) // size, range(1, n // 2 + 1)
    tile = [sum(bit[size * t:size * t + size]) for t in range(span)]
    holders = {c: sum(tile[t] for t in range(span) if t >> c - 1 & 1)
               for c in cells}
    by_tau: dict = {}                   # tau -> the items with it
    by_slot: dict = {}                  # slot -> the items with it
    for h, head in enumerate(heads):
        member = sum(bit[h::size])
        by_tau[head[-1]] = by_tau.get(head[-1], 0) | member
        by_slot[head[:-1]] = by_slot.get(head[:-1], 0) | member
    moves = group_order(kind, n // 2)
    above = dict(by_tau)                # then ORed down each cover
    for tau in reversed(moves):
        for sigma, _ in moves[tau]:
            above[sigma] |= above[tau]
    signs, signed = {}, {}              # signs[tau]: its (c, signature)s
    for tau in by_tau:
        p = embed_tilde(tau)
        signs[tau] = [(c, _signature(p, c)) for c in cells]
        for key in signs[tau]:
            signed[key] = signed.get(key, 0) | by_tau[tau]
    below, window = {}, {}
    for slot in by_slot:
        below[slot] = sum(by_slot[s] for s in by_slot if s <= slot)
        window[slot] = {c: sum(by_slot[s] for s in by_slot
                               if c in _slot_window(slot, s, len(cells)))
                        for c in cells}
    free = []               # per head: base, then free[c] for each cell c
    for head in heads:
        slot, tau = head[:-1], head[-1]
        base = above[tau] & below[slot]
        free.append([base] + [
            base & (~(signed[c, sig] & window[slot][c]) | holders[c])
            for c, sig in signs[tau]])
    free = list(zip(*free))
    rows = list(free[0])    # tile t: t less its top cell c, & free[c]
    for t in range(1, span):
        c = t.bit_length()
        low = size * (t ^ 1 << c - 1)
        rows += map(int.__and__, rows[low:low + size], free[c])
    return list(map(rows.__getitem__, table.tiles))


def _head_covers(head: tuple, moves: tuple) -> list:
    """The rules (head', cells): (*head, T) covers (*head', T | cells)
    if T holds none of the cells, given the `group_order` moves of the
    tau of the head.  Its other covers drop a cell of T."""
    *slot, tau = head
    rules = [((*slot, sigma), cells) for sigma, cells in moves]
    if slot:
        # slide the extremal value one slot further from the front
        (j,), m = slot, len(tau)
        x = j if j > 0 else -j - 1
        if j == -1:
            rules.append(((1, tau), ()))
        elif j != m + 1 and 1 <= x <= m:
            rules.append(((j + 1, tau), (x,)))
    return rules


@functools.lru_cache(maxsize=None)
def _missing(cells: int, span: int) -> tuple:
    """The subsets t < span, as masks, holding none of the cells."""
    return tuple(t for t in range(span) if not t & cells)


def wachs_cover_masks(kind: str, n: int) -> list:
    """Lower covers in the Bruhat order on the items of `element_table`
    as bitmasks: bit b of masks[a] is set iff item b is covered by item
    a.  Word i = h + H t of `_rank_columns` covers the words i - H 2^(x-1)
    for x in cells(t), and h' + H (t | cells) for the rules (head h',
    cells) of `_head_covers` with cells outside t.

    >>> wachs_cover_masks("A", 2)
    [0, 1]
    """
    table, span = element_table(kind, n), 1 << n // 2
    heads, size = table.heads, len(table.heads)
    bit = _item_bits(table)
    masks = [0] * len(bit)
    for t in range(span):
        block = slice(size * t, size * t + size)
        for x in cells(t):
            low = size * (t - (1 << x - 1))
            masks[block] = map(int.__or__, masks[block], bit[low:low + size])
    index = {head: h for h, head in enumerate(heads)}
    moves = group_order(kind, n // 2)
    for h, head in enumerate(heads):
        for target, moved in _head_covers(head, moves[head[-1]]):
            add = sum(1 << x - 1 for x in moved)
            g = index[target]
            for t in _missing(add, span):
                masks[h + size * t] |= bit[g + size * (t | add)]
    return list(map(masks.__getitem__, table.tiles))


# ---------------------------------------------------------------- Moebius


def mobius_closed(kind: str, n: int) -> dict:
    """The closed row mu(e, .) of rank n (n >= 2 in type B) on the items
    of `element_table`, as `posets.mobius_rows` gives rows: (-1)^|T| on
    the items with tau = e and no slot or the slot m + 1."""
    table = element_table(kind, n)
    m, size = n // 2, len(table.heads)
    e = identity(m)
    signs = {h + size * t: (-1) ** len(cells(t))
             for h, head in enumerate(table.heads)
             if head in ((e,), (m + 1, e)) for t in range(1 << m)}
    return {b: signs[i] for b, i in enumerate(table.tiles) if i in signs}


# ---------------------------------------------------------------- polynomials


ClosedForms = namedtuple("ClosedForms", "rank_gen char rank")
ClosedForms.__doc__ = """Polynomials as tuples of integer coefficients,
constant term first, with no trailing zeros."""


def _product(factors) -> tuple:
    """The coefficients of the product of the sums x^e0 + x^e1 + ...,
    each factor given by its exponents e."""
    out = (1,)
    for exponents in factors:
        new = [0] * (len(out) + max(exponents))
        for e in exponents:
            for i, c in enumerate(out, e):
                new[i] += c
        out = tuple(new)
    return out


def closed_polys(kind: str, n: int) -> ClosedForms:
    """Closed-form rank generating function, characteristic polynomial and
    rank of the Bruhat order on (signed) Wachs permutations of rank n:

        rank_gen = (1+x)^m [m]!(x^3), times [m+1](x^2) at odd n, and in
                   type B the factors 1 + x^(3i-1), i = 1..m, and 1 + x^n
                   at odd n
        char = (x-1)^m x^(rank-m)

    with m = n // 2, [k](x) = 1 + x + ... + x^(k-1) and [m]! = [1]...[m],
    each a `ClosedForms` tuple.  The rank is l(w_0) in G_n minus l(w_0)
    in G_m.  The characteristic polynomial form needs n >= 2 in the
    signed case."""
    k = kind_record(kind)
    m = n // 2
    factors = [(0, 1)] * m + [range(0, 3 * i, 3) for i in range(1, m + 1)]
    if n % 2 == 1:
        factors.append(range(0, 2 * m + 1, 2))
    if kind == "B":
        factors += [(0, 3 * i - 1) for i in range(1, m + 1)]
        if n % 2 == 1:
            factors.append((0, n))
    rank = length_b(k.w0(n)) - length_b(k.w0(m))
    char = (0,) * (rank - m) + tuple(comb(m, i) * (-1) ** (m - i)
                                     for i in range(m + 1))
    return ClosedForms(_product(factors), char, rank)


def stabilizer_gi(n: int) -> list:
    """Elements of S_n whose conjugation fixes {s_i : i odd} setwise.

    w s_i w^-1 is the transposition of w(i) and w(i+1), an odd generator
    iff {w(i), w(i+1)} is an odd pair.  So w is in the stabilizer iff it
    maps the odd pairs {i, i+1} onto the odd pairs, in order or flipped
    each, and then fixes n when n is odd: the words generated here, one
    per order of the pairs' images and choice of flips.
    """
    pairs = [(i, i + 1) for i in range(1, n, 2)]
    out = []
    for images in itertools.permutations(pairs):
        for flips in itertools.product((False, True), repeat=len(pairs)):
            w = [n] * n
            for (i, _), (a, b), flip in zip(pairs, images, flips):
                w[i - 1], w[i] = (b, a) if flip else (a, b)
            out.append(tuple(w))
    return sorted(out)
