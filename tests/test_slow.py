"""Exhaustive sweeps past the default caps: gradedness, the rank function,
the covers, the Moebius row of the least element and the characteristic
polynomial at A9, A10 and B7, the largest ranks under the poset
validation cap; the closed-form order up-sets against the Bruhat poset
at A9, A10 and B7;
and the Moebius conjectures on every interval at A9 and B7.  Deselected
by default; run them with

    python -m pytest -m slow
"""

import pytest

from wachsposets import checks

CELLS = [(f"{check}-{kind}", kind, n)
         for kind, ns in (("A", (9, 10)), ("B", (7,)))
         for n in ns for check in ("graded", "covers", "order", "mobius",
                                   "charpoly")]
CELLS += [("mobiusA", "A", 9), ("mobiusB", "B", 7)]


@pytest.mark.slow
@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]} {c[2]}")
def test_exhaustive_past_the_default_caps(cell):
    result = checks.run_cell(cell)
    assert result.ok, result.witness
