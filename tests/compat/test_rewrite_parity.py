"""Rewrite-registry parity over the full compatibility kit.

Acceptance bar for the semantic rewrite registry (docs/REWRITER.md):
on every conformance case — every paper listing plus the extended and
analytics corpora, each swept in *both* typing modes — the engine under
default settings (the registry on, physical planning, columns mode)
must be observationally identical to the oracle, ``optimize=False``,
which never rewrites: same result bag (or array, for ordered cases) or
the same error class.  So the sweep also covers the registry's
interaction with pushdown and hash joins.  Rows mode is held to the
same oracle in ``test_optimizer_parity.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import errors
from repro.catalog.database import Database
from repro.compat.corpus import all_cases
from repro.compat.runner import build_database
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag


def _outcome(db: Database, case, **dials):
    try:
        return ("value", db.execute(case.query, **dials))
    except errors.SQLPPError as exc:
        return ("error", type(exc).__name__)


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.case_id)
def test_rewritten_equals_reference(case, typing_mode):
    case = replace(case, typing_mode=typing_mode)
    rewritten = _outcome(build_database(case), case)
    reference = _outcome(build_database(case), case, optimize=False)
    assert rewritten[0] == reference[0], (
        f"{case.case_id} [{typing_mode}]: "
        f"rewritten → {rewritten}, reference → {reference}"
    )
    if rewritten[0] == "error":
        assert rewritten[1] == reference[1]
        return
    left, right = rewritten[1], reference[1]
    if case.ordered:
        assert deep_equals(left, right)
    else:
        left = Bag(list(left)) if isinstance(left, (list, Bag)) else left
        right = Bag(list(right)) if isinstance(right, (list, Bag)) else right
        assert deep_equals(left, right)
