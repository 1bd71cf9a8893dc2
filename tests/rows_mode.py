"""Forcing the executor's rows mode in a test.

The engine runs each block with a FROM clause in one of two modes
(docs/PLANNER.md, "Batch execution"): columns mode, the
default, or rows mode — one row at a time where row order is
observable.  Correlated subqueries, blocks without FROM, an unordered
LIMIT and every strict replay run in rows mode; :func:`rows_mode` sends
every other block there too, so a test can hold the two modes to the
same answer on the same inputs (columns mode ≡ rows mode, the replay
target).  Nothing else changes: the same memoised evaluator, plans and
caches serve both modes.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, ContextManager
from unittest import mock

from repro.core.evaluator import Evaluator

#: What EXPLAIN prints for a block :func:`rows_mode` refuses columns
#: mode: ``executor: stream (rows mode forced)``.
REASON = "rows mode forced"

#: The keyword of a rows-mode arm in a dials dictionary: ``run(db.execute,
#: query, **ROWS)``.
ROWS = {"rows": True}


def rows_mode(on: bool = True) -> ContextManager[Any]:
    """Run every engine block in rows mode inside the ``with`` (a no-op
    when not ``on``)."""
    if not on:
        return contextlib.nullcontext()
    return mock.patch.object(Evaluator, "_batch_refusal", lambda *_: REASON)


def run(
    method: Callable[..., Any], *args: Any, rows: bool = False, **kwargs: Any
) -> Any:
    """``method(*args, **kwargs)``, in rows mode when ``rows``."""
    with rows_mode(rows):
        return method(*args, **kwargs)
