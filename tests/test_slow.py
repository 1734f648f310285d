"""Exhaustive sweeps past the default caps: gradedness, the rank function
and the covers at A9, A10 and B7, the largest ranks under the poset
validation cap, and the closed-form order predicate on all pairs at A9
and B7.  Deselected by default; run them with

    python -m pytest -m slow
"""

import pytest

from wachsposets import checks

CELLS = [(f"{check}-{kind}", kind, n)
         for kind, ns in (("A", (9, 10)), ("B", (7,)))
         for n in ns for check in ("graded", "covers")]
CELLS += [("order-A", "A", 9), ("order-B", "B", 7)]


@pytest.mark.slow
@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]} {c[2]}")
def test_exhaustive_past_the_default_caps(cell):
    result = checks.run_cell(cell)
    assert result.ok, result.witness
