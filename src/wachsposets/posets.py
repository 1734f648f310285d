"""
Finite posets over opaque string keys, with bitset internals.

A FinitePoset keeps its elements in some linear extension, with `up[i]`,
the integer bitmask of the (weak) up-set of element i, and the sorted
covers.  All algorithms (grading, Moebius function, lattice tests,
duality) work on these.  A poset holds no derived state: the coatoms'
down-sets are built by `lattice_checks`, their one reader, a key ->
position map where it is read, and the Moebius function one row at a
time, by whoever needs it, with the nonzero values of a row only.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import repeat
from operator import and_, rshift
from typing import Iterable, Iterator, Optional, Sequence

from .columns import at_least, lanes
from .perms import SizeCapError

__all__ = [
    "PosetError", "FinitePoset", "GradeResult", "LatticeReport",
    "poset_from_up", "dominance_up_sets", "grade",
    "mobius_rows", "characteristic_polynomial",
    "join_witness", "lattice_checks", "dual_check", "to_dot",
]

VALIDATION_CAP = 25000   # A11 has 23040 elements


class PosetError(ValueError):
    pass


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    __slots__ = ("elements", "items", "up", "covers")

    def __init__(self, elements: list, items: list, up: list, covers: list):
        self.elements = elements  # canonical string keys, in a linear extension
        self.items = items        # original objects, aligned with elements
        self.up = up              # up[i]: bitmask of {j : e_i <= e_j}, includes i
        self.covers = covers      # sorted pairs (i, j), e_i covered by e_j

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    # a linear extension puts the least element first and the greatest last
    def minimum(self) -> Optional[int]:
        n = len(self.elements)
        return 0 if n and self.up[0] == (1 << n) - 1 else None

    def maximum(self) -> Optional[int]:
        n = len(self.elements)
        return n - 1 if n and reduce(and_, self.up) == 1 << n - 1 else None


def _check_size(n: int) -> None:
    if n > VALIDATION_CAP:
        raise SizeCapError(f"{n} elements exceeds the validation cap {VALIDATION_CAP}")


def dominance_up_sets(cols: Sequence[bytes], size: int) -> list:
    """Up-sets of the entrywise order on `size` words given by their
    byte columns (see `columns`), as bitmasks: bit j of up[i] is set iff
    w_i(p) <= w_j(p) for every p.  Each distinct column is translated
    into the masks of the words reaching each threshold above its least
    entry, which every word reaches; up[i] is the AND of the masks of
    its own entries, read from the columns word by word.  Columns are
    packed into bytes first, as many as fit by mixed radix, so that one
    entry of a packed column stands for several: its mask, the AND of
    theirs, is found once per value that occurs, not once per word.

    >>> dominance_up_sets([bytes([1, 0, 1, 0]), bytes([1, 1, 0, 0])], 4)
    [15, 10, 12, 8]
    """
    if any(len(col) != size for col in cols):
        raise ValueError(f"columns of a length other than {size}")
    full = (1 << size) - 1
    cols = list(dict.fromkeys(cols))
    if not cols or not size:
        return [full] * size
    # packs of [(digits entry - least entry of a column, the masks of
    # its entries from the least up, the place value of its digit)]
    ones = lanes(size)
    packs: list = []
    for col in cols:
        # the least entry by memchr, not by a set of every byte; the
        # thresholds above it stop at the first empty mask
        low = next(x for x in range(256) if x in col)
        masks = [full, *itertools.takewhile(bool, (
            int(col.translate(at_least(x)), 2) for x in range(low + 1, 256)))]
        if not packs or scale * len(masks) > 256:
            packs.append([])
            scale = 1
        packs[-1].append((int.from_bytes(col, "big") - low * ones, masks,
                          scale))
        scale *= len(masks)
    # each packed column's table, ANDed into the rows of the ones before
    # in one lazy chain; the last word is the first byte of a column
    up = itertools.repeat(full, size)
    for pack in packs:
        col = sum(digits * scale
                  for digits, _, scale in pack).to_bytes(size, "big")
        table = [full] * 256
        for x in set(col):
            table[x] = reduce(and_, [masks[x // scale % len(masks)]
                                     for _, masks, scale in pack])
        up = map(and_, up, map(table.__getitem__, reversed(col)))
    return list(up)


def poset_from_up(items: Iterable, up: Sequence[int],
                  keys: Optional[Iterable[str]] = None) -> FinitePoset:
    """Validate a relation given by up-set bitmasks (bit j of up[i] set
    iff items[i] <= items[j]) and build the poset it orders.  `keys` are
    the string keys of the items, in their order; str(item) by default.

    The items must come in a linear extension: no up-set may have a bit
    below its own index.  `reference.build_poset` sorts any other order.
    """
    items = list(items)
    n = len(items)
    _check_size(n)
    keys = list(map(str, items) if keys is None else keys)
    if len(keys) != n or len(set(keys)) != n:
        raise PosetError(f"{len(set(keys))} distinct keys for {n} elements")
    if len(up) != n:
        raise PosetError(f"{len(up)} up-sets for {n} elements")
    for i in range(n):
        if not up[i] >> i & 1:
            raise PosetError(f"not reflexive at {keys[i]}")
        if up[i] >> n:
            raise PosetError(f"up-set of {keys[i]} names no element")

    up = list(up)
    # Covers, in sorted order.  If every up-set above i is closed and
    # lies above its element, the lowest element left in the strict
    # up-set of i is minimal there, so it is a cover, and removing its
    # up-set leaves the rest.  up[i] lies above i and is closed iff the
    # up-sets of its covers stay inside it; by induction from the top, a
    # relation passing this for every i is antisymmetric and transitive.
    # Row i reads the up-sets shifted by i, bit k for element i + k: a
    # bit below i of a later up-set fails that set's own row.  Each
    # check reads only `up`, so they run in any order.
    covers = []
    for i in range(n):
        row = up[i] >> i
        if row << i != up[i]:
            raise _order_error(up, keys)
        above, rest = 0, row ^ 1
        while rest:
            k = (rest & -rest).bit_length() - 1
            covers.append((i, i + k))
            higher = up[i + k] >> i
            above |= higher
            rest &= ~higher
        if above & ~row:
            raise _order_error(up, keys)
    return FinitePoset(keys, items, up, covers)


def _order_error(up: list, keys: list) -> PosetError:
    """The first failure of antisymmetry, else of transitivity, else of
    the linear extension, in a reflexive relation that poset_from_up
    rejects."""
    n = len(up)
    # antisymmetry: no other element both above and below
    for i in range(n):
        for j in _bits(up[i] & ~(1 << i)):
            if up[j] >> i & 1:
                return PosetError(f"antisymmetry fails at {keys[i]}, {keys[j]}")
    # transitivity: up-sets are closed upward
    for i in range(n):
        for j in _bits(up[i]):
            if up[j] & ~up[i]:
                k = next(_bits(up[j] & ~up[i]))
                return PosetError(
                    f"transitivity fails: {keys[i]} <= {keys[j]} <= {keys[k]}")
    # a partial order out of sequence: an element lies below an earlier one
    i = next(i for i in range(n) if up[i] & ((1 << i) - 1))
    j = (up[i] & -up[i]).bit_length() - 1
    return PosetError(f"out of sequence: {keys[i]} <= {keys[j]}, "
                      f"but {keys[j]} comes first")


GradeResult = namedtuple("GradeResult", [
    "graded",
    "ranks",        # longest-path ranks from the bottom
    "rank",         # rank of the top element when graded
    "witness",      # cover edge (u_key, v_key) with gap >= 2
])


def grade(poset: FinitePoset) -> GradeResult:
    """Rank by longest path from the minimum; graded iff covers have gap 1.
    Rank r(v) = 1 + max r over the elements v covers, read along the
    sorted covers, whose lower ends come in the linear extension."""
    bot, top = poset.minimum(), poset.maximum()
    if bot is None or top is None:
        raise PosetError("grading needs a bounded poset")
    ranks = [0] * len(poset)
    for i, j in poset.covers:
        ranks[j] = max(ranks[j], ranks[i] + 1)
    for i, j in poset.covers:
        if ranks[j] - ranks[i] != 1:
            return GradeResult(False, tuple(ranks), None,
                               (poset.elements[i], poset.elements[j]))
    return GradeResult(True, tuple(ranks), ranks[top], None)


def mobius_rows(poset: FinitePoset, us: Iterable[int]) -> Iterator[dict]:
    """The rows mu(u, .) for each u in `us`, each a dict {v: mu(u, v)}
    of the nonzero values only, keys in increasing index: mu(u, u) = 1
    and mu(u, v) = -sum of mu(u, z) over u <= z < v.  Exact for any
    integer values.

    Row u keeps the running sum C(v) = sum of mu(u, z) over the z done
    so far with z <= v, as value classes {c: mask of the v with
    C(v) = c}, c != 0.  The lowest element of any class is the next v:
    every z < v comes earlier in the linear extension, so it is done
    or has C(z) = 0, and C(v) is complete; an element skipped with
    C(v) = 0 has mu(u, v) = 0.  Then mu(u, v) = -C(v), and the elements
    of up[v] move from class c to c + mu (v itself to 0, out), and from
    no class to class mu.
    """
    up = poset.up
    for u in us:
        row = {u: 1}
        live = up[u] ^ 1 << u       # the v with C(v) != 0
        classes = {1: live}
        while live:
            low = live & -live
            for c, mask in classes.items():
                if mask & low:
                    break
            v = low.bit_length() - 1
            row[v] = mu = -c
            upv = up[v]
            free = upv & ~live
            moved = {mu: free} if free else {}
            live |= upv
            for c, mask in classes.items():
                hit = mask & upv
                if hit:
                    mask ^= hit
                    if c == -mu:
                        live ^= hit
                    else:
                        moved[c + mu] = moved.get(c + mu, 0) | hit
                if mask:
                    moved[c] = moved.get(c, 0) | mask
            classes = moved
        yield row


def characteristic_polynomial(poset: FinitePoset):
    """Sum of mu(0, z) * x^(rank - rank(z)) over all z, as its tuple of
    coefficients, constant term first."""
    g = grade(poset)
    if not g.graded:
        raise PosetError("poset is not graded")
    out = [0] * (g.rank + 1)
    row = next(mobius_rows(poset, [poset.minimum()]))
    for z, m in row.items():
        out[g.rank - g.ranks[z]] += m
    return tuple(out)


LatticeReport = namedtuple("LatticeReport", [
    "is_lattice",
    "is_complemented",
    "witness",      # (kind, u_key, v_key) for the first failure
])


def join_witness(poset: FinitePoset) -> Optional[tuple]:
    """The keys of the first two elements covering a common element that
    have no join, or None when the bounded poset is a lattice.

    Only joins of cover pairs are tested: a finite bounded poset is a
    lattice iff any two elements covering a common element have a join
    (Bjorner-Edelman-Ziegler, "Hyperplane arrangements with a lattice of
    regions", *Discrete Comput. Geom.* 5 (1990), Lemma 2.1).  Proof
    sketch, by induction from the top: every two elements above x have a
    join.  Take y, z >= x, upper covers a <= y and b <= z of x, and
    c = a v b.  d = y v c exists by induction at a, and f = d v z by
    induction at b.  Any common upper bound of y and z lies above c, so
    above d, so above f; hence f = y v z.  At x = 0^ every pair has a
    join, and a finite poset with a 0^ and all joins is a lattice.

    The join of a and b, if it exists, is the lowest bit of up[a] & up[b],
    by the linear extension.
    """
    if poset.minimum() is None or poset.maximum() is None:
        raise PosetError("lattice checks need a bounded poset")
    up, keys = poset.up, poset.elements
    upc = [[] for _ in up]
    for i, j in poset.covers:
        upc[i].append(j)
    for above in upc:
        for a, b in itertools.combinations(above, 2):
            join = up[a] & up[b]
            if up[(join & -join).bit_length() - 1] != join:
                return keys[a], keys[b]
    return None


def _octets(positions: Sequence[int]) -> list:
    """Sorted positions in runs that each span fewer than 8 bits from
    their first."""
    runs: list = []
    for p in positions:
        if runs and p - runs[-1][0] < 8:
            runs[-1].append(p)
        else:
            runs.append([p])
    return runs


@lru_cache(maxsize=None)
def _bit_table(t: int) -> bytes:
    """The table translating a byte to b"1" iff its bit t is set."""
    return bytes(b"01"[b >> t & 1] for b in range(256))


@lru_cache(maxsize=None)
def _set_bits(byte: int) -> tuple:
    """The positions of the set bits of a byte."""
    return tuple(t for t in range(8) if byte >> t & 1)


def lattice_checks(poset: FinitePoset) -> LatticeReport:
    """Check the lattice property (`join_witness`) and complementation
    on a bounded poset.

    y is a complement of x iff 0^ is their only common lower bound and
    1^ their only common upper bound.  In a finite bounded poset every
    element other than 0^ lies above an atom, so the first holds iff no
    atom lies below both: the y meeting x in 0^ are those outside the OR
    of up[a] over the atoms a <= x.  Dually, the y joining x in 1^ are
    those outside the OR of down[c] over the coatoms c >= x.  x has a
    complement iff some element is outside both, so x is tested once per
    class: the atoms below it and the coatoms above it.  Classes are
    lane signatures (see `columns`), a byte per element for each run of
    atoms or coatoms spanning fewer than 8 positions, and are tested in
    the order of their first element, so the witness is the first x
    without a complement.
    """
    pair = join_witness(poset)
    if pair is not None:
        return LatticeReport(False, False, ("join", *pair))
    n = len(poset)
    up, keys, full, ones = poset.up, poset.elements, (1 << n) - 1, lanes(n)
    cols, masks = [], []        # per run: its byte column, {bit t: mask}
    # bit a - low in lane x iff x lies above atom a: the '0'/'1' digits
    # of up[a], less b"0" in every lane; the covers of 0^ come first
    covers = poset.covers
    for run in _octets([j for _, j in covers[:bisect_left(covers, (1,))]]):
        low = run[0]
        cols.append(sum(int.from_bytes(format(up[a], f"0{n}b").encode(),
                                       "big") - 48 * ones << a - low
                        for a in run).to_bytes(n, "big"))
        masks.append({a - low: up[a] for a in run})
    # bit c - low in lane x iff x lies below coatom c: the up-sets
    # shifted past the run's lowest coatom, then one translate each
    for run in _octets([i for i, j in covers if j == n - 1]):
        low = run[0]
        bits = sum(1 << c - low for c in run)
        col = bytes(map(and_, map(rshift, reversed(up), repeat(low, n)),
                        repeat(bits, n)))
        cols.append(col)
        masks.append({c - low: int(col.translate(_bit_table(c - low)), 2)
                      for c in run})
    # sigs[x]: the signature of x (a column holds the last element
    # first); a one-element poset has no runs, and its element is its
    # own complement
    sigs = list(zip(*cols))
    sigs.reverse()
    for sig in dict.fromkeys(sigs):
        bound = 0       # the y sharing an atom or a coatom with x
        for byte, run in zip(sig, masks):
            for t in _set_bits(byte):
                bound |= run[t]
        if not full & ~bound:
            return LatticeReport(True, False,
                                 ("complement", keys[sigs.index(sig)], None))
    return LatticeReport(True, True, None)


def dual_check(poset: FinitePoset, img: Sequence[int]) -> bool:
    """True iff i -> img[i] is an antiautomorphism: u<=v iff f(v)<=f(u).

    A bijection f is one iff (f(j), f(i)) is a cover for every cover
    (i, j).  That map on the finite set of covers is injective, so it is
    a bijection onto the covers; the order is the reflexive transitive
    closure of the covers, so f reverses it both ways.
    """
    if len(img) != len(poset) or set(img) != set(range(len(poset))):
        raise PosetError("mapping is not a bijection on the elements")
    covers = set(poset.covers)
    return all((img[j], img[i]) in covers for i, j in poset.covers)


def to_dot(poset: FinitePoset) -> str:
    """Hasse diagram in DOT form, edges pointing upward."""
    lines = ["digraph {", "  rankdir=BT;"]
    try:
        g = grade(poset)
    except PosetError:
        g = None
    if g is not None and g.graded:
        by_rank: dict = {}
        for i, r in enumerate(g.ranks):
            by_rank.setdefault(r, []).append(i)
        for r in sorted(by_rank):
            row = " ".join(f'"{poset.elements[i]}";' for i in by_rank[r])
            lines.append(f"  {{rank=same; {row}}}")
    for i, j in poset.covers:
        lines.append(f'  "{poset.elements[i]}" -> "{poset.elements[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
