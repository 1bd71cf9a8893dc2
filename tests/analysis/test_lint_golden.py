"""The analyzer reproduces ``lint_golden.json`` row for row.

The golden pins every field of every finding over the compat kit (both
ways of seeding the lattice, both typing modes), the lint tour and the
``test_rules.py`` corpus — see ``lint_golden.py`` for what each row is
and the command that regenerates it.  The analyzer produces exactly the
golden's rows.  A row may differ only if it is listed in
:data:`NEW_FINDINGS` with the finding it gains; regenerating the golden
folds those in, and the list starts empty again.
"""

import json
from typing import Dict, Tuple

import pytest

from tests.analysis.lint_golden import GOLDEN, collect

GOLDEN_ROWS = json.loads(GOLDEN.read_text())

#: Rows that gain exactly one new finding: row → (code, why).
NEW_FINDINGS: Dict[str, Tuple[str, str]] = {}

_RANGE = "the kit's FROM-over-a-scalar case reports SQLPP107"
_ARITH = "the kit's `2 * 'a'` type-error case reports SQLPP106"

#: Rows whose one type-rule finding (what FROM over a number /
#: arithmetic over a string does: MISSING or a singleton under
#: permissive typing, a type error under strict) was folded into the
#: golden: they keep exactly that finding.
FOLDED_FINDINGS = {
    f"{surface}/{case}/{mode}": (code, reason)
    for surface in ("kit", "check")
    for mode in ("permissive", "strict")
    for case, code, reason in (
        ("X-from-scalar-permissive", "SQLPP107", _RANGE),
        ("X-from-scalar-strict", "SQLPP107", _RANGE),
        ("X-type-error-permissive", "SQLPP106", _ARITH),
        ("X-type-error-strict", "SQLPP106", _ARITH),
    )
}


@pytest.fixture(scope="module")
def head_rows():
    return collect()


def test_every_golden_row_is_still_produced(head_rows):
    assert set(head_rows) == set(GOLDEN_ROWS)


@pytest.mark.parametrize(
    "row", sorted(set(GOLDEN_ROWS) - set(NEW_FINDINGS))
)
def test_row_matches_golden(row, head_rows):
    assert head_rows[row] == GOLDEN_ROWS[row]


@pytest.mark.parametrize("row", sorted({**FOLDED_FINDINGS, **NEW_FINDINGS}))
def test_listed_row_gains_one_finding(row, head_rows):
    """Against its golden row without the listed code, the row gains
    that one finding, a warning, and keeps every other."""
    code, reason = NEW_FINDINGS.get(row) or FOLDED_FINDINGS[row]
    golden = [d for d in GOLDEN_ROWS[row] if d["code"] != code]
    gained = [d for d in head_rows[row] if d not in golden]
    kept = [d for d in head_rows[row] if d in golden]
    assert kept == golden, reason
    assert [d["code"] for d in gained] == [code], reason
    assert gained[0]["severity"] == "warning"
