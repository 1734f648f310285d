"""
Byte columns: the words of a list, stored one position at a time.

Column p of the words w_0, ..., w_{N-1} is a bytes object of length N
whose byte N-1-i is w_i(p), or w_i(p) + n where entries can be
negative: the last word comes first.  Read by `int.from_bytes(col,
"big")`, word i is byte i of an integer, its lane; translated into
b"0" and b"1" and read by `int(..., 2)`, a column is a mask with bit i
for word i, the form of every up-set in the package.  Adding and
subtracting the integers works on all lanes at once (Lamport, "Multiple
byte processing with full-word instructions", *CACM* 18(8), 1975): no
lane carries into the next while every result stays in 0..255, and
`greater` needs its operands in 0..127.  The last section builds the
columns of a rank of Wachs elements and reads its words, the Wachs
check, the lengths and a descent statistic from them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

__all__ = ["columns", "lanes", "greater", "at_least",
           "tile_subsets", "cells", "signed_words", "sorted_columns", "texts",
           "not_wachs", "lengths", "emaj_odes"]


def columns(words: Sequence[Sequence[int]]) -> list:
    """The byte columns of a list of equal-length words with entries in
    0..255.

    >>> columns([(1, 2), (2, 1), (3, 3)])
    [b'\\x03\\x02\\x01', b'\\x03\\x01\\x02']
    """
    return list(map(bytes, zip(*reversed(words))))


@lru_cache(maxsize=None)
def lanes(size: int) -> int:
    """The integer holding 1 in each of `size` lanes."""
    return int.from_bytes(b"\1" * size, "big")


def greater(a: int, b: int, size: int) -> int:
    """1 in each of `size` lanes where a > b, else 0, for lanes in
    0..127: a lane of (a | 0x80...) - b - 0x01... keeps its high bit
    iff a > b, and borrows from no other.

    >>> greater(0x0305, 0x0403, 2)
    1
    """
    ones = lanes(size)
    return ((a | ones << 7) - b - ones) >> 7 & ones


@lru_cache(maxsize=None)
def at_least(x: int) -> bytes:
    """The table translating a byte to b"1" iff it is >= x, else b"0"."""
    return b"0" * x + b"1" * (256 - x)


# ------------------------------------------- the words of a Wachs rank


def tile_subsets(words: Sequence[Sequence[int]], n: int) -> list:
    """The byte columns, entries w(p) + n, of the Wachs elements of rank
    n with the codes (*head, T), from the elements words[h] of the heads
    with T empty: word i has the head of words[i // S], S = 2^(n // 2),
    and T the cells c of the set bits c - 1 of i % S.

    Cell c of tau sits at positions 2c - 1 and 2c before the slot of
    the extremal value +-n (at even rank there is none), 2c and 2c + 1
    after it, its lower value first.  Each head's entries are spread
    over its block of S words, one per subset, by one product with the
    integer of S lanes holding 1, and a subset holding c swaps the two:
    it adds 1 to the first and takes 1 from the second, in the lanes of
    the words that hold c.
    """
    h, tiles = len(words), 1 << n // 2

    def spread(col: bytes) -> int:
        """Byte j of a head column in the lanes j S to j S + S - 1."""
        block = bytearray(h * tiles)
        block[::tiles] = col
        return int.from_bytes(block, "little") * lanes(tiles)

    head_cols = [bytes(map(n.__add__, col)) for col in zip(*words)]
    cols = list(map(spread, head_cols))
    # the lanes of the heads with +-n at one of the positions 1..2c - 1
    seen = [int.from_bytes(col.translate(_abs_is(n, n)), "little") * (n % 2)
            for col in head_cols]
    for c in range(1, n // 2 + 1):
        run = 1 << c - 1
        held = int.from_bytes((bytes(run) + b"\1" * run) * (tiles >> c) * h,
                              "little")
        after = spread(sum(seen[:2 * c - 1]).to_bytes(h, "little"))
        after = held & after * 255
        before = held - after
        cols[2 * c - 2] += before
        cols[2 * c - 1] += after - before
        if after:
            cols[2 * c] -= after
    return [x.to_bytes(h * tiles, "big") for x in cols]


def cells(i: int) -> frozenset:
    """The cells c of the set bits c - 1 of i: the subset T of word
    h * S + i of `tile_subsets`, for every head h.

    >>> sorted(cells(6))
    [2, 3]
    """
    return frozenset(c for c in range(1, i.bit_length() + 1) if i >> c - 1 & 1)


def signed_words(cols: Sequence[bytes], n: int) -> list:
    """The words of byte columns with entries w(p) + n, first word first:
    each column, reversed, holds the entries as signed bytes."""
    signed = bytes(range(256 - n, 256)) + bytes(range(256 - n))   # x - n
    return list(zip(*[memoryview(col[::-1].translate(signed)).cast("b")
                      for col in cols]))


def sorted_columns(cols: Sequence[bytes]) -> list:
    """The byte columns, entries below 255, of the same words sorted:
    the words, rows of one buffer ended by 255, are sorted as strings.

    >>> sorted_columns(columns([(3, 0), (1, 1), (2, 0)]))
    [b'\\x03\\x02\\x01', b'\\x00\\x00\\x01']
    """
    n = len(cols)
    buf = bytearray(b"\xff") * ((n + 1) * len(cols[0]))
    for p, col in enumerate(cols):
        buf[p::n + 1] = col
    # latin-1 str rows sort like bytes rows, and join without a buffer each
    rows = buf.decode("latin-1").split("\xff")
    del buf
    rows.sort(reverse=True)
    rows = "".join(rows).encode("latin-1")
    return [rows[p::n] for p in range(n)]


def texts(cols: Sequence[bytes], n: int, kind: str) -> list:
    """`reference.format_window` (kind "B") or `perms.format_perm` ("A")
    of each word of byte columns with entries w(p) + n, first word
    first.  One strided slice assignment fills a slot ("[", a sign,
    digit or comma of an entry, "]", a newline) of every word; unused
    slots keep a 0 byte, which one translate deletes.

    >>> texts(columns([(3, 4), (0, 3)]), 2, "B")
    ['[1,2]', '[-2,1]']
    """
    size, width = len(cols[0]), 4 * n + 2
    ends = b"[]" if kind == "B" else b"\0\0"
    comma = b"," if kind == "B" or n > 9 else b"\0"
    # the sign and digits of v at the byte v + n, 0 for none
    sign = (b"-" * n if kind == "B" else b"").ljust(256, b"\0")
    tens = bytes(48 + abs(v) // 10 if abs(v) > 9 else 0
                 for v in range(-n, n + 1)).ljust(256, b"\0")
    units = bytes(48 + abs(v) % 10 for v in range(-n, n + 1)).ljust(256, b"\0")
    buf = bytearray(width * size)
    buf[::width] = ends[:1] * size
    for p, col in enumerate(cols):
        col, at = col[::-1], 4 * p + 1
        buf[at::width] = col.translate(sign)
        buf[at + 1::width] = col.translate(tens)
        buf[at + 2::width] = col.translate(units)
        buf[at + 3::width] = comma * size
    buf[width - 2::width] = ends[1:] * size     # over the last comma
    buf[width - 1::width] = b"\n" * size
    del buf[-1]
    text = buf.translate(None, b"\0").decode("ascii")
    del buf                 # before the list of texts is built
    return text.split("\n")


def not_wachs(cols: Sequence[bytes], n: int) -> int:
    """The mask of the words of byte columns with entries w(p) + n that
    are not Wachs elements, `reference.is_wachs` in every lane at once.

    A word is a (signed) permutation of 1..n iff each |a| <= n occurs in
    it exactly once.  In a signed permutation, 2c - 1 and 2c sit at
    signed positions one apart (-1 and 1 are two apart) iff they sit at
    neighbouring positions with the same sign, and a neighbouring pair
    holds at most one such partner pair.  With e(v) = |v| - 1, plus 64
    for v < 0, partners are the pairs with e(v) ^ e(v') = 1, so the
    word is a Wachs element iff n - 1 - n // 2 of its neighbouring pairs
    are not partners.
    """
    size = len(cols[0])
    ones = lanes(size)
    bad = 0
    for a in range(1, n + 1):
        count = sum(int.from_bytes(col.translate(_abs_is(a, n)), "big")
                    for col in cols)
        bad |= count ^ ones
    # e(v) at the byte v + n, 1 <= |v| <= n; 127 at any other byte
    mark = bytearray(b"\x7f" * 256)
    for v in range(1, n + 1):
        mark[n + v], mark[n - v] = v - 1, v + 63
    marks = [int.from_bytes(col.translate(mark), "big") for col in cols]
    apart = sum(greater(x ^ y ^ ones, 0, size)
                for x, y in zip(marks, marks[1:]))
    bad |= apart ^ (n - 1 - n // 2) * ones
    return int(bad.to_bytes(size, "big").translate(at_least(1)), 2)


@lru_cache(maxsize=None)
def _abs_is(a: int, n: int) -> bytes:
    """The table translating a byte v + n to 1 iff |v| = a <= n, else 0."""
    out = bytearray(256)
    out[n + a] = out[n - a] = 1
    return bytes(out)


def lengths(cols: Sequence[bytes], n: int) -> int:
    """The length of each word of byte columns with entries w(p) + n, in
    its lane: inv + neg + nsp, as `perms.length_b` counts it; neg and
    nsp are 0 on S_n, a parabolic subgroup of B_n.  A length must be at
    most 255."""
    size = len(cols[0])
    ones = lanes(size)
    xs = [int.from_bytes(col, "big") for col in cols]
    zero, sign = n * ones, 2 * n * ones
    out = sum(greater(zero, x, size) for x in xs)
    for x, y in combinations(xs, 2):
        out += greater(x, y, size) + greater(sign, x + y, size)
    return out


def emaj_odes(cols: Sequence[bytes]) -> int:
    """3 emaj(w) + odes(w) of each word of byte columns, in its lane: a
    descent w(i) > w(i + 1), read by `greater` on neighbouring columns,
    adds 1 at odd i and 3 i / 2 at even i (`reference.stats_a` counts
    odes and emaj word by word).  The sum must be at most 255."""
    size = len(cols[0])
    xs = [int.from_bytes(col, "big") for col in cols]
    return sum((3 * i // 2 if i % 2 == 0 else 1) * greater(x, y, size)
               for i, (x, y) in enumerate(zip(xs, xs[1:]), 1))
