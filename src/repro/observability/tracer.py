"""Execution tracing for ``EXPLAIN ANALYZE``.

An :class:`ExecTracer` rides along one query execution and accumulates,
per physical operator (:mod:`repro.core.plan_ops` — the engine), per
nested-loop FROM item (the reference interpreter only,
:mod:`repro.core.reference`) and per clause-pipeline stage:

* **invocations** — how many times the operator produced its bindings
  (a lateral right side runs once per left binding; everything else
  typically once per block evaluation);
* **rows in / rows out** — binding rows before and after the operator's
  attached filters (for stages: rows entering/leaving the stage);
* **wall time** — for an operator inclusive of children, as is
  conventional for ``EXPLAIN ANALYZE`` output; for a stage its own work.

The block executor (``vectorized.execute_block``, docs/PLANNER.md)
tallies a stage's rows as each chunk — in rows mode, each row — crosses
it and flushes the statistics when the block's stream closes, so counts
stay exact under early termination — a ``LIMIT 4`` records the four
rows that flowed, because the rest were never produced.  Stage tallies
are kept under a timing tracer only.

An ``ExecTracer`` may additionally carry a
:class:`~repro.observability.spans.TraceContext`; the same choke points
that feed the aggregate statistics then also record structured spans
(with parent links), which is how ``db.trace`` / ``--trace-out`` get
per-operator granularity without a second instrumentation layer.

Tracing is strictly opt-in: the evaluator's hot paths check a single
``tracer is None`` and pay nothing when observability is off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.syntax import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.spans import TraceContext


@dataclass
class OpStats:
    """Accumulated runtime statistics for one operator or stage."""

    label: str
    invocations: int = 0
    rows_in: int = 0
    rows_out: int = 0
    time_s: float = 0.0

    def add(self, rows_in: int, rows_out: int, elapsed_s: float) -> None:
        self.invocations += 1
        self.rows_in += rows_in
        self.rows_out += rows_out
        self.time_s += elapsed_s

    def suffix(self, show_rows_in: bool = True) -> str:
        """The annotation appended to a plan line."""
        parts = [f"calls={self.invocations}"]
        if show_rows_in and self.rows_in != self.rows_out:
            parts.append(f"rows_in={self.rows_in}")
        parts.append(f"rows_out={self.rows_out}")
        parts.append(f"time={format_seconds(self.time_s)}")
        return "  (" + " ".join(parts) + ")"


def format_seconds(seconds: float) -> str:
    """Human-scale wall time: seconds, milliseconds or microseconds."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 0.001:
        return f"{seconds * 1000:.2f}ms"
    return f"{seconds * 1_000_000:.0f}us"


def q_error(estimate: float, actual: float) -> float:
    """The q-error of a cardinality estimate: ``max(est/act, act/est)``.

    Both sides are clamped to 1 first (the standard convention), so an
    estimate of 0.3 rows against an empty actual is a perfect 1.0, not
    a division by zero.
    """
    estimate = max(float(estimate), 1.0)
    actual = max(float(actual), 1.0)
    return max(estimate / actual, actual / estimate)


def format_rows(rows: float) -> str:
    """A row estimate as plan-line text (integers stay integral)."""
    if rows >= 10 or rows == int(rows):
        return str(int(round(rows)))
    return f"{rows:.1f}"


def estimate_suffix(
    estimate: Optional[float], actual: int, worst: bool = False
) -> str:
    """The ``est= / actual= / q-err=`` annotation for one plan line.

    ``actual`` is the operator's observed output rows; ``estimate`` of
    None renders ``est=?`` (the planner had no statistics for this
    operator).  ``worst`` flags the largest misestimate of the plan.
    """
    if estimate is None:
        return f"  (est=? actual={actual})"
    text = (
        f"  (est={format_rows(estimate)} actual={actual} "
        f"q-err={q_error(estimate, actual):.2f}"
    )
    if worst:
        text += " ← worst misestimate"
    return text + ")"


class StageTally:
    """Row/time counters one clause stage of a block updates as rows
    pass (:meth:`ExecTracer.flush_stages`); opened at the end of
    ``stages``, the block's list in clause order.  The elapsed time is
    the stage's own, not its upstream stages'."""

    __slots__ = ("name", "rows", "elapsed")

    def __init__(self, name: str, stages: list):
        self.name = name
        self.rows = 0
        self.elapsed = 0.0
        stages.append(self)

    def lap(self, rows: int, since: float) -> float:
        """Count ``rows`` more and the time since ``since``; returns now."""
        now = perf_counter()
        self.rows += rows
        self.elapsed += now - since
        return now


class ExecTracer:
    """Collects per-operator and per-stage statistics for one execution."""

    def __init__(
        self, trace: Optional["TraceContext"] = None, timing: bool = True
    ) -> None:
        #: Whether per-row wall clocks run.  ``timing=False`` is the
        #: query store's cardinality-feedback mode: operators count rows
        #: in/out but skip the per-row ``perf_counter`` reads, and no
        #: block keeps stage tallies, so a feedback-sampled execution
        #: pays close to nothing beyond the untraced path.
        self.timing = timing
        #: Physical operators, keyed by id(op); the op is kept alive
        #: alongside its stats so id() keys cannot be reused.
        self._op_stats: Dict[int, Tuple[Any, OpStats]] = {}
        #: Nested-loop FROM items, keyed by id(ast node).
        self._item_stats: Dict[int, Tuple[ast.FromItem, OpStats]] = {}
        #: Clause-pipeline stages, keyed by (id(block), stage name), in
        #: first-recorded order.
        self._stage_stats: Dict[Tuple[int, str], Tuple[Any, OpStats]] = {}
        #: Optional structured-span collector; when set, the evaluator's
        #: instrumentation points record spans alongside the aggregates.
        self.trace = trace
        #: Physical plans actually executed, keyed by id(block node),
        #: so EXPLAIN ANALYZE renders the very operator objects the
        #: statistics above were recorded against.
        self._plans: Dict[int, Tuple[Any, Any]] = {}
        #: Blocks whose columns attempt was abandoned for rows mode, keyed
        #: by id(block node): the class name of the error that escaped.
        self._replays: Dict[int, Tuple[Any, str]] = {}

    # -- recording -----------------------------------------------------

    def record_op(
        self, op: Any, rows_in: int, rows_out: int, elapsed_s: float
    ) -> None:
        entry = self._op_stats.get(id(op))
        if entry is None:
            entry = (op, OpStats(label=op.describe()))
            self._op_stats[id(op)] = entry
        entry[1].add(rows_in, rows_out, elapsed_s)

    def begin_item(self, item: ast.FromItem) -> Optional[Any]:
        """Open the span of one nested-loop FROM item's enumeration
        (None without a span collector); :meth:`record_item` ends it."""
        if self.trace is None:
            return None
        return self.trace.begin(describe_from_item(item), "item")

    def record_item(
        self, item: ast.FromItem, rows_out: int, elapsed_s: float, span: Any = None
    ) -> None:
        entry = self._item_stats.get(id(item))
        if entry is None:
            entry = (item, OpStats(label=describe_from_item(item)))
            self._item_stats[id(item)] = entry
        entry[1].add(rows_out, rows_out, elapsed_s)
        if span is not None:
            self.trace.end(span, {"rows_out": rows_out})

    def record_stage(
        self,
        block: Any,
        stage: str,
        rows_in: int,
        rows_out: int,
        elapsed_s: float,
        started: float,
    ) -> None:
        """One clause stage's tally — and, with a span collector, its
        ``stage`` event at ``started``."""
        key = (id(block), stage)
        entry = self._stage_stats.get(key)
        if entry is None:
            entry = (block, OpStats(label=stage))
            self._stage_stats[key] = entry
        entry[1].add(rows_in, rows_out, elapsed_s)
        if self.trace is not None:
            self.trace.event(
                stage, "stage", started, elapsed_s,
                {"rows_in": rows_in, "rows_out": rows_out},
            )

    def flush_stages(
        self, block: Any, stages: List["StageTally"], started: float
    ) -> None:
        """Record a finished pipeline's stage tallies in clause order;
        ``rows_in`` chains from the previous stage's output (FROM's
        input is the single seed binding)."""
        rows_in = 1
        for stage in stages:
            self.record_stage(
                block, stage.name, rows_in, stage.rows, stage.elapsed, started
            )
            rows_in = stage.rows

    def register_plan(self, block: Any, plan: Any) -> None:
        self._plans[id(block)] = (block, plan)

    # -- replay: an abandoned attempt leaves no tallies ------------------

    def mark(self) -> tuple:
        """Everything recorded so far, as a point :meth:`replay` can
        return to (taken when a strict block enters the executor's
        columns mode, the only attempt that can be replayed)."""
        tables = tuple(
            {key: (node, replace(stats)) for key, (node, stats) in table.items()}
            for table in (self._op_stats, self._stage_stats)
        )
        trace = self.trace
        return tables, trace.mark() if trace is not None else None, perf_counter()

    def replay(self, mark: tuple, block: Any, error: str) -> None:
        """Forget what was recorded since ``mark`` — the columns attempt
        of ``block`` that ``error`` (a class name) escaped from — and
        note that the block is replayed in rows mode: one ``replay``
        span of the attempt's length instead of its operator spans."""
        (self._op_stats, self._stage_stats), spans, started = mark
        self._replays[id(block)] = (block, error)
        if spans is not None:
            self.trace.rewind(spans)
            attrs = {"after": error, "executor": "batch → stream"}
            elapsed = perf_counter() - started
            self.trace.event("replay", "phase", started, elapsed, attrs)

    # -- lookup --------------------------------------------------------

    def plan_for(self, block: Any) -> Optional[Any]:
        entry = self._plans.get(id(block))
        return entry[1] if entry is not None else None

    def replay_of(self, block: Any) -> Optional[str]:
        """The error class whose escape sent ``block`` from the columns
        mode to rows mode, or None (it ran where it was sent)."""
        entry = self._replays.get(id(block))
        return entry[1] if entry is not None else None

    def op_stats(self, op: Any) -> Optional[OpStats]:
        entry = self._op_stats.get(id(op))
        return entry[1] if entry is not None else None

    def item_stats(self, item: ast.FromItem) -> Optional[OpStats]:
        entry = self._item_stats.get(id(item))
        return entry[1] if entry is not None else None

    def stages_for(self, block: Any) -> List[OpStats]:
        return [
            stats
            for (block_id, __), (___, stats) in self._stage_stats.items()
            if block_id == id(block)
        ]

    # -- rendering the nested-loop FROM tree ---------------------------

    def reference_lines(
        self, items: List[ast.FromItem], indent: int = 1
    ) -> List[str]:
        """Annotated plan lines for a FROM clause run as nested loops."""
        lines: List[str] = []
        for item in items:
            lines.extend(self._item_lines(item, indent))
        return lines

    def _item_lines(self, item: ast.FromItem, indent: int) -> List[str]:
        line = "  " * indent + describe_from_item(item)
        stats = self.item_stats(item)
        if stats is not None:
            line += stats.suffix(show_rows_in=False)
        lines = [line]
        if isinstance(item, ast.FromJoin):
            lines.extend(self._item_lines(item.left, indent + 1))
            lines.extend(self._item_lines(item.right, indent + 1))
        return lines


def describe_from_item(item: ast.FromItem) -> str:
    """A one-line label for a nested-loop FROM item, matching the
    vocabulary of the physical operators' ``describe()``."""
    from repro.syntax.printer import print_ast

    if isinstance(item, ast.FromCollection):
        at = f" AT {item.at_alias}" if item.at_alias else ""
        return f"Scan {print_ast(item.expr)} AS {item.alias}{at}"
    if isinstance(item, ast.FromUnpivot):
        return (
            f"Unpivot {print_ast(item.expr)} AS {item.value_alias} "
            f"AT {item.at_alias}"
        )
    if isinstance(item, ast.FromJoin):
        on = f" ON {print_ast(item.on)}" if item.on is not None else ""
        return f"NestedLoopJoin[{item.kind}] (lateral){on}"
    return type(item).__name__
