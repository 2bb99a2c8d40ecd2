"""The E4 golden ledger: allocation output must not move across commits.

``tests/golden/e4_ledger.json`` pins the allocated program hash, the
spilled set and the simulated spill/move counts of every E4 cell (and of
the optimized R=4 cells).  A deliberate output change regenerates it with
``tests/golden/regenerate.py`` and explains the diff in CHANGES.md.
"""

import pytest

from tests.golden.regenerate import (
    ALLOCATORS,
    compute_rows,
    diff,
    dumps,
    e4_totals,
    load,
)

# The paper's objective: total E4 dynamic overhead may not grow.
E4_TOTAL_BOUNDS = {
    "hierarchical": 4629,
    "briggs": 5080,
    "chaitin": 5332,
    "local": 12289,
}


@pytest.fixture(scope="module")
def rows():
    return compute_rows()


def test_ledger_rows_match(rows):
    changes = diff(load(), rows)
    assert not changes, "E4 ledger moved:\n" + "\n".join(changes[:40])


def test_ledger_is_canonical(rows):
    """The committed file is exactly what the regenerator writes."""
    from tests.golden.regenerate import LEDGER_PATH

    with open(LEDGER_PATH) as f:
        assert f.read() == dumps(rows)


def test_ledger_covers_the_sweep(rows):
    assert len(rows) == 12 * 5 * len(ALLOCATORS) + 12 * 3


def test_e4_totals_within_bounds(rows):
    totals = e4_totals(rows)
    for allocator, bound in E4_TOTAL_BOUNDS.items():
        assert totals[allocator] <= bound, (allocator, totals[allocator], bound)
