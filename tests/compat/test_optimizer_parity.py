"""Optimizer parity over the full compatibility kit.

Acceptance bar for the physical planner (docs/PLANNER.md): on every
conformance case — every paper listing plus the extended and analytics
corpora — ``optimize=True`` must be observationally identical to
``optimize=False``: same result bag (or array, for ordered cases) or
the same error class.  Every case runs in *both* typing modes, whatever
the one it was written for: the strict contract (docs/LANGUAGE.md §8) is
the same result, or an error of the same class the oracle raises.
The engine runs in rows mode here (the strict replay target); its
default columns mode is held to the same oracle, per (case, typing
mode), in ``test_rewrite_parity.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import errors
from repro.compat.corpus import all_cases
from repro.compat.runner import build_database
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag
from tests.rows_mode import rows_mode


def _outcome(db, case, **dials):
    try:
        return ("value", db.execute(case.query, **dials))
    except errors.SQLPPError as exc:
        return ("error", type(exc).__name__)


@pytest.mark.parametrize(
    "case", all_cases(), ids=lambda case: case.case_id
)
def test_optimized_equals_reference(case):
    for typing_mode in ("permissive", "strict"):
        assert_parity(replace(case, typing_mode=typing_mode))


def assert_parity(case):
    typing_mode = case.typing_mode
    reference = _outcome(build_database(case), case, optimize=False)
    with rows_mode():
        optimized = _outcome(build_database(case), case)
    assert optimized[0] == reference[0], (
        f"{case.case_id} {typing_mode} rows mode: optimized → {optimized}, "
        f"reference → {reference}"
    )
    if optimized[0] == "error":
        assert optimized[1] == reference[1]
        return
    left, right = optimized[1], reference[1]
    if not case.ordered:
        left = Bag(list(left)) if isinstance(left, (list, Bag)) else left
        right = Bag(list(right)) if isinstance(right, (list, Bag)) else right
    assert deep_equals(left, right)
