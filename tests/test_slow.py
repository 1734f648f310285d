"""Exhaustive sweeps past the default caps: gradedness, the rank function,
the covers, the closed-form order up-sets against the Bruhat poset, the
Moebius row of the least element, the characteristic polynomial, the
product map of the right weak order and the Moebius conjecture on every
interval at A9, A10, B7 and B8; gradedness,
the covers and the closed-form order at A11, the largest rank under the
poset validation cap; and the lattice conjecture on the left weak order
at A11.  Deselected by
default; run them with

    python -m pytest -m slow
"""

import pytest

from wachsposets import checks


def _rank(kind, n):
    return [(f"{check}-{kind}", kind, n) for check in
            ("graded", "covers", "order", "mobius", "charpoly", "weakiso")] + \
        [(f"mobius{kind}", kind, n)]


# cells reading one cached poset stay adjacent, and the weak L and the
# Bruhat poset of A11 are not held at once: see drop_posets_after_each_rank
CELLS = (_rank("A", 9) + _rank("A", 10) + [("latticeAodd", "A", 11)]
         + _rank("B", 7) + _rank("B", 8)
         + [(f"{check}-A", "A", 11) for check in ("graded", "covers", "order")])


@pytest.fixture(autouse=True)
def drop_posets_after_each_rank(cell):
    """Cells of one rank share its cached posets, which are dropped when
    the next cell is of another rank: those of A11 take over 100 MB."""
    yield
    i = CELLS.index(cell)
    if i + 1 == len(CELLS) or CELLS[i + 1][1:] != cell[1:]:
        checks.bruhat_poset.cache_clear()
        checks.weak_poset.cache_clear()


@pytest.mark.slow
@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]} {c[2]}")
def test_exhaustive_past_the_default_caps(cell):
    result = checks.run_cell(cell)
    assert result.ok, result.witness
