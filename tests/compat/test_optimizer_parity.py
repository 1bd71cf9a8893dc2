"""Optimizer parity over the full compatibility kit.

Acceptance bar for the physical planner (docs/PLANNER.md): on every
conformance case — every paper listing plus the extended and analytics
corpora — ``optimize=True`` must be observationally identical to
``optimize=False``: same result bag (or array, for ordered cases) or
the same error class.  Every case runs in *both* typing modes, whatever
the one it was written for: the strict contract (docs/LANGUAGE.md §8) is
the same result, or an error of the same class the oracle raises.
The engine runs under default dials and ``batch=False``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import errors
from repro.compat.corpus import all_cases
from repro.compat.runner import build_database
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag


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
    for dials in ({}, {"batch": False}):
        optimized = _outcome(build_database(case), case, **dials)
        assert optimized[0] == reference[0], (
            f"{case.case_id} {typing_mode} {dials}: optimized → {optimized}, "
            f"reference → {reference}"
        )
        if optimized[0] == "error":
            assert optimized[1] == reference[1]
            continue
        left, right = optimized[1], reference[1]
        if not case.ordered:
            left = Bag(list(left)) if isinstance(left, (list, Bag)) else left
            right = Bag(list(right)) if isinstance(right, (list, Bag)) else right
        assert deep_equals(left, right)
