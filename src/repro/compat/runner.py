"""Execute conformance cases against the engine.

Every case run also produces perf evidence: the fresh per-case
database's :class:`~repro.observability.QueryMetrics` record (phase
timings, cache verdict, whether the streaming pipeline ran) is
attached to the :class:`CaseResult`, and
``collect_trace=True`` additionally captures a structured span trace
per case — so one conformance sweep doubles as a timing corpus for the
report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro import errors
from repro.catalog.database import Database
from repro.compat.corpus import ConformanceCase, all_cases
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag
from repro.formats.sqlpp_text import loads
from repro.observability import ExecTracer, QueryMetrics, TraceContext


@dataclass
class CaseResult:
    """Outcome of one conformance case."""

    case: ConformanceCase
    passed: bool
    actual: Any = None
    expected: Any = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    #: The per-query observability record (phase timings, cache
    #: verdict, status) of the case's execution.
    metrics: Optional[QueryMetrics] = None
    #: Structured spans for the case (``collect_trace=True`` only).
    trace: Optional[TraceContext] = None


def build_database(case: ConformanceCase) -> Database:
    """A fresh database holding the case's input collections."""
    db = Database(typing_mode=case.typing_mode, sql_compat=case.sql_compat)
    for name, literal in case.data.items():
        db.load_value(name, literal)
    return db


def run_case(case: ConformanceCase, collect_trace: bool = False) -> CaseResult:
    """Run one case and compare against its expectation."""
    started = time.perf_counter()
    db = build_database(case)
    trace: Optional[TraceContext] = None
    tracer: Optional[ExecTracer] = None
    if collect_trace:
        trace = TraceContext(name=case.case_id)
        tracer = ExecTracer(trace=trace)
    try:
        actual = db.execute(case.query, tracer=tracer)
    except errors.SQLPPError as exc:
        elapsed = time.perf_counter() - started
        if case.expect_error and type(exc).__name__ == case.expect_error:
            return CaseResult(
                case=case,
                passed=True,
                elapsed_s=elapsed,
                metrics=db.metrics.last,
                trace=trace,
            )
        return CaseResult(
            case=case,
            passed=False,
            error=f"{type(exc).__name__}: {exc}",
            elapsed_s=elapsed,
            metrics=db.metrics.last,
            trace=trace,
        )
    elapsed = time.perf_counter() - started
    if case.expect_error:
        return CaseResult(
            case=case,
            passed=False,
            actual=actual,
            error=f"expected {case.expect_error}, query succeeded",
            elapsed_s=elapsed,
            metrics=db.metrics.last,
            trace=trace,
        )
    expected = loads(case.expected) if case.expected is not None else None
    passed = _results_equal(actual, expected, ordered=case.ordered)
    return CaseResult(
        case=case,
        passed=passed,
        actual=actual,
        expected=expected,
        elapsed_s=elapsed,
        metrics=db.metrics.last,
        trace=trace,
    )


def _results_equal(actual: Any, expected: Any, ordered: bool) -> bool:
    """Bag-equality comparison, tolerant of array/bag at the top level.

    Unordered queries conceptually return bags; expectations written as
    arrays in the corpus compare as multisets unless ``ordered``.
    """
    if ordered:
        if isinstance(actual, Bag):
            actual = actual.to_list()
        if isinstance(expected, Bag):
            expected = expected.to_list()
        return deep_equals(actual, expected)
    if isinstance(actual, (list, Bag)) and isinstance(expected, (list, Bag)):
        return deep_equals(Bag(list(actual)), Bag(list(expected)))
    return deep_equals(actual, expected)


def run_cases(
    cases: Optional[Sequence[ConformanceCase]] = None,
    collect_traces: bool = False,
) -> List[CaseResult]:
    """Run many cases (default: the whole kit) in registration order."""
    return [
        run_case(case, collect_trace=collect_traces)
        for case in (cases if cases is not None else all_cases())
    ]
