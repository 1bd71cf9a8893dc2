"""The compiler reproduces ``core_golden.json`` row for row.

The golden pins the printed ``pre_core`` and ``core`` trees of every
compat-kit case and lint-tour statement in both typing modes and both
``sql_compat`` settings — see ``core_golden.py`` for what each row is
and the command that regenerates it.  A refactor of the compile passes
must leave every row as it is, generated names included.
"""

import json

import pytest

from tests.syntax.core_golden import GOLDEN, collect

GOLDEN_ROWS = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def head_rows():
    return collect()


def test_rows_are_the_golden_rows(head_rows):
    assert sorted(head_rows) == sorted(GOLDEN_ROWS)


@pytest.mark.parametrize("row", sorted(GOLDEN_ROWS))
def test_row_matches_golden(row, head_rows):
    assert head_rows[row] == GOLDEN_ROWS[row]
