"""The removed ``parallel`` dial over the full compatibility kit.

Morsel parallelism is gone (docs/PLANNER.md, "Morsel parallelism: a
decision record"); every query runs serially.  A per-query
``parallel=N`` is still accepted by ``Database._effective_config``, with
a ``DeprecationWarning``, so callers that pass it keep working.  On
every conformance case — every paper listing plus the extended and
analytics corpora — the ``batch`` arm runs the engine under default
dials and the ``parallel2`` arm passes the deprecated keyword; both
must be observationally identical to ``optimize=False``: the same
result bag (or array, for ordered cases) or the same error class.
"""

from __future__ import annotations

import warnings

import pytest

from repro import errors
from repro.compat.corpus import all_cases
from repro.compat.runner import build_database
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag


def _outcome(db, case, **kwargs):
    try:
        return ("value", db.execute(case.query, **kwargs))
    except errors.SQLPPError as exc:
        return ("error", type(exc).__name__)


@pytest.mark.parametrize("workers", [0, 2], ids=["batch", "parallel2"])
@pytest.mark.parametrize(
    "case", all_cases(), ids=lambda case: case.case_id
)
def test_parallel_equals_reference(case, workers):
    dials = {"parallel": workers} if workers else {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        candidate = _outcome(build_database(case), case, **dials)
    deprecations = [w for w in caught if w.category is DeprecationWarning]
    assert len(deprecations) == (1 if workers else 0), case.case_id
    reference = _outcome(build_database(case), case, optimize=False)
    assert candidate[0] == reference[0], (
        f"{case.case_id}: engine → {candidate}, reference → {reference}"
    )
    if candidate[0] == "error":
        assert candidate[1] == reference[1]
        return
    left, right = candidate[1], reference[1]
    if case.ordered:
        assert deep_equals(left, right)
    else:
        left = Bag(list(left)) if isinstance(left, (list, Bag)) else left
        right = Bag(list(right)) if isinstance(right, (list, Bag)) else right
        assert deep_equals(left, right)
