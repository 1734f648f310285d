"""
Finite posets over opaque string keys, with bitset internals.

A FinitePoset keeps its elements in some linear extension; `up[i]` and
`down[i]` are integer bitmasks of the (weak) up-set and down-set of element
i.  All algorithms (grading, Moebius function, lattice tests, products,
isomorphism) work on these masks.  A poset holds no derived state: the
Moebius function is computed one row at a time, by whoever needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "PosetError", "FinitePoset", "GradeResult", "LatticeReport",
    "build_poset", "poset_from_up", "inclusion_up_sets", "grade",
    "mobius_row", "rank_generating_polynomial", "characteristic_polynomial",
    "lattice_checks", "poset_isomorphic",
    "cartesian_product", "ordinal_product", "dual_check",
    "to_dot", "to_json",
]

VALIDATION_CAP = 5000
_BLOCK = 256    # rows of a relation read as text at once


class PosetError(ValueError):
    pass


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class FinitePoset:
    elements: list          # canonical string keys, in a linear extension
    items: list             # original objects, aligned with elements
    up: list                # up[i]: bitmask of {j : e_i <= e_j}, includes i
    down: list              # down[i]: bitmask of {j : e_j <= e_i}
    covers: list            # pairs (i, j) with e_i covered by e_j
    index: dict = field(default_factory=dict)

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
        return n - 1 if n and self.down[n - 1] == (1 << n) - 1 else None


def _check_size(n: int) -> None:
    if n > VALIDATION_CAP:
        raise PosetError(f"{n} elements exceeds the validation cap {VALIDATION_CAP}")


def build_poset(items: Iterable, leq: Callable, key: Callable = str) -> FinitePoset:
    """Build and validate a poset from elements and a comparison oracle."""
    items = list(items)
    _check_size(len(items))
    up = []
    for x in items:
        m = 0
        for j, y in enumerate(items):
            if leq(x, y):
                m |= 1 << j
        up.append(m)
    return poset_from_up(items, up, key)


def inclusion_up_sets(sets: Sequence[frozenset]) -> list:
    """Up-sets of the inclusion order on a list of sets, as bitmasks: bit
    j of up[i] is set iff sets[i] <= sets[j].  up[i] is the AND, over the
    members t of sets[i], of the mask of the sets holding t.

    >>> inclusion_up_sets([frozenset(), frozenset({1}), frozenset({2})])
    [7, 2, 4]
    """
    holders: dict = {}
    for i, s in enumerate(sets):
        for t in s:
            holders[t] = holders.get(t, 0) | 1 << i
    up = []
    for s in sets:
        m = (1 << len(sets)) - 1
        for t in s:
            m &= holders[t]
        up.append(m)
    return up


def poset_from_up(items: Iterable, up: Sequence[int],
                  key: Callable = str) -> FinitePoset:
    """Validate a relation given by up-set bitmasks (bit j of up[i] set
    iff items[i] <= items[j]) and build the poset it orders."""
    items = list(items)
    n = len(items)
    _check_size(n)
    keys = [key(x) for x in items]
    if len(set(keys)) != n:
        raise PosetError("duplicate element keys")
    if len(up) != n:
        raise PosetError(f"{len(up)} up-sets for {n} elements")
    for i in range(n):
        if not up[i] >> i & 1:
            raise PosetError(f"not reflexive at {keys[i]}")
        if up[i] >> n:
            raise PosetError(f"up-set of {keys[i]} names no element")

    # reorder into a linear extension: sort by down-set size
    down = _transpose(up)
    order = sorted(range(n), key=lambda j: (down[j].bit_count(), keys[j]))
    # bit q of row i of the transpose below is bit order[q] of up[i]
    rows = _transpose([down[j] for j in order])
    up = [rows[i] for i in order]
    items = [items[i] for i in order]
    keys = [keys[i] for i in order]

    # Covers, from the top down.  Once every up-set above i is known to be
    # closed and to lie above its element, the lowest element left in the
    # strict up-set of i is minimal there, so it is a cover, and removing
    # its up-set leaves the rest.  up[i] lies above i and is closed iff
    # the up-sets of its covers stay inside it; a relation passing this
    # for every i is antisymmetric and transitive.
    covers = []
    for i in range(n - 1, -1, -1):
        strict = up[i] & ~(1 << i)
        above, rest = 0, strict
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append((i, j))
            above |= up[j]
            rest &= ~up[j]
        if strict >> i << i != strict or above & ~up[i]:
            raise _order_error(up, keys)
    covers.sort()
    down = _transpose(up)
    return FinitePoset(keys, items, up, down, covers,
                       index={k: i for i, k in enumerate(keys)})


def _transpose(masks: list) -> list:
    """The transposed n x n bit matrix: bit i of out[j] is bit j of
    masks[i].  Blocks of rows are read as "0"/"1" text, so that each
    column of a block is one strided slice."""
    n = len(masks)
    out = [0] * n
    for start in range(0, n, _BLOCK):
        text = "".join(format(m, f"0{n}b") for m in masks[start:start + _BLOCK])
        for j in range(n):                      # bit j sits at column n-1-j
            out[j] |= int(text[n - 1 - j::n][::-1], 2) << start
    return out


def _order_error(up: list, keys: list) -> PosetError:
    """The first failure of antisymmetry, else of transitivity, in a
    reflexive relation that is not a partial order."""
    n = len(up)
    down = _transpose(up)
    # antisymmetry: up-set and down-set meet only in the element itself
    for i in range(n):
        if up[i] & down[i] != 1 << i:
            other = next(b for b in _bits(up[i] & down[i]) if b != i)
            return PosetError(f"antisymmetry fails at {keys[i]}, {keys[other]}")
    # transitivity: up-sets are closed upward
    for i in range(n):
        for j in _bits(up[i]):
            if up[j] & ~up[i]:
                k = next(_bits(up[j] & ~up[i]))
                return PosetError(
                    f"transitivity fails: {keys[i]} <= {keys[j]} <= {keys[k]}")
    raise AssertionError("the relation is a partial order")


@dataclass(frozen=True)
class GradeResult:
    graded: bool
    ranks: Optional[tuple]       # longest-path ranks from the bottom
    rank: Optional[int]          # rank of the top element when graded
    witness: Optional[tuple]     # cover edge (u_key, v_key) with gap >= 2


def grade(poset: FinitePoset) -> GradeResult:
    """Rank by longest path from the minimum; graded iff covers have gap 1."""
    bot, top = poset.minimum(), poset.maximum()
    if bot is None or top is None:
        raise PosetError("grading needs a bounded poset")
    n = len(poset)
    ranks = [0] * n
    for i, j in poset.covers:  # elements are in a linear extension
        ranks[j] = max(ranks[j], ranks[i] + 1)
    for i, j in poset.covers:
        if ranks[j] - ranks[i] != 1:
            return GradeResult(False, tuple(ranks), None,
                               (poset.elements[i], poset.elements[j]))
    return GradeResult(True, tuple(ranks), ranks[top], None)


def mobius_row(poset: FinitePoset, u: int) -> list:
    """mu(u, v) for every v, 0 where u is not below v: mu(u, u) = 1 and
    mu(u, v) = -sum of mu(u, z) over u <= z < v."""
    row = [0] * len(poset)
    down = poset.down
    ups = list(_bits(poset.up[u]))  # ascending == linear extension
    for v in ups:
        if v == u:
            row[v] = 1
            continue
        s = 0
        dv = down[v]
        for z in ups:
            if z == v:
                break
            if dv >> z & 1:
                s += row[z]
        row[v] = -s
    return row


def rank_generating_polynomial(poset: FinitePoset):
    from .qpoly import IntPolynomial
    g = grade(poset)
    if not g.graded:
        raise PosetError("poset is not graded")
    out = [0] * (g.rank + 1)
    for r in g.ranks:
        out[r] += 1
    return IntPolynomial(out)


def characteristic_polynomial(poset: FinitePoset):
    """Sum of mu(0, z) * x^(rank - rank(z)) over all z."""
    from .qpoly import IntPolynomial
    g = grade(poset)
    if not g.graded:
        raise PosetError("poset is not graded")
    out = [0] * (g.rank + 1)
    for z, m in enumerate(mobius_row(poset, poset.minimum())):
        out[g.rank - g.ranks[z]] += m
    return IntPolynomial(out)


@dataclass(frozen=True)
class LatticeReport:
    is_lattice: bool
    is_complemented: bool
    witness: Optional[tuple]  # (kind, u_key, v_key) for the first failure


def lattice_checks(poset: FinitePoset) -> LatticeReport:
    """Check the lattice property and complementation on a bounded poset.

    Only meets are tested: in a finite poset with a greatest element, if
    every pair has a meet then every pair has a join, the meet of its
    common upper bounds, a set that holds the top (Stanley, *Enumerative
    Combinatorics* I, Prop. 3.3.1).  The meet of x and y, if it exists,
    is the top bit of down[x] & down[y], by the linear extension.
    """
    bot, top = poset.minimum(), poset.maximum()
    if bot is None or top is None:
        raise PosetError("lattice checks need a bounded poset")
    n = len(poset)
    up, down = poset.up, poset.down
    keys = poset.elements
    for x in range(n):
        dx = down[x]
        for y in range(x + 1, n):
            meet = dx & down[y]
            z = meet.bit_length() - 1
            if down[z] != meet:
                return LatticeReport(False, False, ("meet", keys[x], keys[y]))
    bot_mask, top_mask = 1 << bot, 1 << top
    for x in range(n):
        if not any(down[x] & down[y] == bot_mask and up[x] & up[y] == top_mask
                   for y in range(n)):
            return LatticeReport(True, False, ("complement", keys[x], None))
    return LatticeReport(True, True, None)


def _cover_lists(poset: FinitePoset):
    n = len(poset)
    upc = [[] for _ in range(n)]
    dnc = [[] for _ in range(n)]
    for i, j in poset.covers:
        upc[i].append(j)
        dnc[j].append(i)
    return upc, dnc


def poset_isomorphic(p: FinitePoset, q: FinitePoset):
    """Decide isomorphism; returns (bool, key mapping or None).

    Colors are refined from (down-set size, up-set size) by cover-neighbor
    color multisets, then a backtracking search matches Hasse diagrams.
    """
    n = len(p)
    if n != len(q):
        return False, None
    pu, pd = _cover_lists(p)
    qu, qd = _cover_lists(q)

    def initial(poset):
        return [(bin(poset.down[i]).count("1"), bin(poset.up[i]).count("1"))
                for i in range(len(poset))]

    cp, cq = initial(p), initial(q)
    for _ in range(n):
        palette: dict = {}

        def refine(colors, upc, dnc):
            out = []
            for i in range(len(colors)):
                sig = (colors[i],
                       tuple(sorted(colors[j] for j in upc[i])),
                       tuple(sorted(colors[j] for j in dnc[i])))
                out.append(palette.setdefault(sig, len(palette)))
            return out

        np_, nq_ = refine(cp, pu, pd), refine(cq, qu, qd)
        if sorted(np_) != sorted(nq_):
            return False, None
        if len(set(np_)) == len(set(cp)):
            cp, cq = np_, nq_
            break
        cp, cq = np_, nq_

    by_color: dict = {}
    for j, c in enumerate(cq):
        by_color.setdefault(c, []).append(j)
    # match rare colors first
    order = sorted(range(n), key=lambda i: (len(by_color.get(cp[i], ())), cp[i]))
    mapping = [-1] * n
    used = [False] * n

    adj_p = [set(pu[i]) for i in range(n)]
    adj_q = [set(qu[i]) for i in range(n)]

    def fits(i, j):
        for k in range(n):
            m = mapping[k]
            if m < 0:
                continue
            if (i in adj_p[k]) != (j in adj_q[m]):
                return False
            if (k in adj_p[i]) != (m in adj_q[j]):
                return False
        return True

    def search(depth):
        if depth == n:
            return True
        i = order[depth]
        for j in by_color.get(cp[i], ()):
            if not used[j] and fits(i, j):
                mapping[i] = j
                used[j] = True
                if search(depth + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    if not search(0):
        return False, None
    return True, {p.elements[i]: q.elements[mapping[i]] for i in range(n)}


def _product(p: FinitePoset, q: FinitePoset, leq_pair) -> FinitePoset:
    items = [(i, j) for i in range(len(p)) for j in range(len(q))]

    def key(pair):
        return f"({p.elements[pair[0]]},{q.elements[pair[1]]})"

    return build_poset(items, leq_pair, key=key)


def cartesian_product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """Componentwise order on pairs."""
    def leq_pair(a, b):
        return p.leq(a[0], b[0]) and q.leq(a[1], b[1])
    return _product(p, q, leq_pair)


def ordinal_product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """(a,b) <= (c,d) iff a < c, or a == c and b <= d."""
    def leq_pair(a, b):
        if a[0] == b[0]:
            return q.leq(a[1], b[1])
        return p.leq(a[0], b[0])
    return _product(p, q, leq_pair)


def dual_check(poset: FinitePoset, mapping: dict) -> bool:
    """True iff the key mapping is an antiautomorphism: u<=v iff f(v)<=f(u)."""
    n = len(poset)
    if len(mapping) != n or set(mapping) != set(poset.elements):
        raise PosetError("mapping is not a bijection on the elements")
    img = [poset.index[mapping[k]] for k in poset.elements]
    if len(set(img)) != n:
        raise PosetError("mapping is not a bijection on the elements")
    # a bijection sending every comparable pair to a reversed comparable
    # pair permutes the finite set of comparable pairs, so the forward
    # implication alone already forces the converse
    for i in range(n):
        for j in _bits(poset.up[i]):
            if not poset.leq(img[j], img[i]):
                return False
    return True


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


def to_json(poset: FinitePoset) -> dict:
    out = {"elements": list(poset.elements),
           "covers": [list(c) for c in poset.covers]}
    try:
        g = grade(poset)
        if g.graded:
            out["rank"] = list(g.ranks)
    except PosetError:
        pass
    return out
