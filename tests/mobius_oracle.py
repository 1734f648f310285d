"""The Moebius row by the defining recursion, one element at a time: the
oracle that `posets.mobius_rows` is compared against.

The v above u are taken in the linear extension.  The z already done are
kept as one mask per nonzero value c of mu, so mu(u, v) is minus the sum
over c of c * popcount(down[v] & mask_c), exact for any values.
"""

import functools


@functools.lru_cache(maxsize=1)     # the rows of one poset share them
def down_sets(up: tuple) -> list:
    """The down-sets, by transposing the up-sets: bit i of down[j] is
    bit j of up[i]."""
    down = [0] * len(up)
    for i, mask in enumerate(up):
        for j in range(len(up)):
            if mask >> j & 1:
                down[j] |= 1 << i
    return down


def mobius_row_by_recursion(poset, u):
    row = [0] * len(poset)
    down = down_sets(tuple(poset.up))
    by_value: dict = {}
    for v in range(len(poset)):
        if not poset.leq(u, v):
            continue
        mu = 1 if v == u else -sum(c * (down[v] & mask).bit_count()
                                   for c, mask in by_value.items())
        row[v] = mu
        if mu:
            by_value[mu] = by_value.get(mu, 0) | 1 << v
    return row


def nonzero(row):
    """The entries of a dense row that `mobius_rows` yields: {v: mu}
    for the nonzero mu only."""
    return {v: mu for v, mu in enumerate(row) if mu}
