"""Structured spans: one query execution as a tree of timed regions.

A :class:`TraceContext` collects :class:`Span` records for one traced
run — the query-lifecycle phases (parse → rewrite → plan → execute),
every physical plan operator, every reference-path FROM item and every
clause-pipeline stage.  Spans carry trace/span identifiers and parent
links, so the flat list reconstructs the exact call tree.

Recording is explicitly two-mode, matching how the engine already
times things:

* :meth:`TraceContext.begin` / :meth:`TraceContext.end` bracket a
  region that *contains* other spans (the query root, the execute
  phase, a join operator whose children produce inside it): ``begin``
  pushes the span on an open-span stack so anything recorded before
  ``end`` becomes its child.
* :meth:`TraceContext.event` records a leaf span post-hoc from an
  already-measured ``(start, duration)`` pair — the style the clause
  pipeline and the compile phases use — parented to whatever span is
  open at record time.  The streaming clause pipeline records its
  stage spans this way when the stream closes, with ``rows_in`` /
  ``rows_out`` reflecting only the rows that actually flowed (early
  termination stops producers before they finish).

Exports:

* :meth:`TraceContext.to_chrome_trace` — Chrome trace-event JSON
  (complete ``"ph": "X"`` events); load the file in ``chrome://tracing``
  or Perfetto.
* :meth:`TraceContext.to_collapsed` — collapsed-stack text
  (``root;child;leaf <self-time-µs>`` per line), the input format of
  flamegraph.pl and speedscope.
* :meth:`TraceContext.format_tree` — a human-readable indented tree for
  the REPL's ``.trace``.

Like the rest of the observability layer, spans are strictly opt-in:
nothing in the engine constructs a ``TraceContext`` unless asked
(``db.trace``, ``--trace-out``), and the hot paths see only the
existing single ``tracer is None`` identity check.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.observability.tracer import format_seconds

#: Process-wide monotonic trace-id source (no randomness: deterministic
#: ids keep traces diffable and tests stable).
_TRACE_IDS = itertools.count(1)


@dataclass
class Span:
    """One timed region of a traced execution."""

    trace_id: str
    span_id: int
    #: ``None`` for a root span, else the parent's ``span_id``.
    parent_id: Optional[int]
    name: str
    #: Coarse classification: "query", "phase", "operator", "item",
    #: "stage", "case" — becomes the Chrome event category.
    category: str
    #: Start offset in seconds, relative to the context's epoch.
    start_s: float
    duration_s: float = 0.0
    #: Free-form annotations (operator describe(), row counts, ...).
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
            "attrs": dict(self.attrs),
        }


class TraceContext:
    """Span collection for one traced run (one query, or one session).

    All timings come from :func:`time.perf_counter` relative to the
    context's construction, so span offsets are comparable within one
    context regardless of wall-clock adjustments.
    """

    def __init__(self, name: str = "trace", max_spans: int = 50_000):
        self.trace_id = f"t{next(_TRACE_IDS):06d}"
        self.name = name
        self.spans: List[Span] = []
        #: Bound on retained spans: a traced 10k×10k nested loop would
        #: otherwise record millions.  Spans beyond the cap are counted
        #: in :attr:`dropped` instead of kept (parenting of retained
        #: spans stays correct — open spans still stack).
        self.max_spans = max_spans
        self.dropped = 0
        self._epoch = perf_counter()
        self._next_span = itertools.count(1)
        #: Stack of open (begun, not yet ended) spans; the top is the
        #: parent of anything recorded now.
        self._stack: List[Span] = []

    # -- recording -----------------------------------------------------

    def _now(self) -> float:
        return perf_counter() - self._epoch

    def begin(
        self,
        name: str,
        category: str = "",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span; everything recorded before :meth:`end` nests
        under it."""
        span = Span(
            trace_id=self.trace_id,
            span_id=next(self._next_span),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            start_s=self._now(),
            attrs=dict(attrs or {}),
        )
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1
        self._stack.append(span)
        return span

    def end(self, span: Span, attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Close a span opened with :meth:`begin`.

        Closing out of order is tolerated (everything opened after
        ``span`` is closed with it) so error paths cannot corrupt the
        stack.
        """
        now = self._now()
        while self._stack:
            top = self._stack.pop()
            top.duration_s = now - top.start_s
            if top is span:
                break
        if attrs:
            span.attrs.update(attrs)
        return span

    def event(
        self,
        name: str,
        category: str,
        start_s: float,
        duration_s: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record a leaf span post-hoc from measured perf_counter times.

        ``start_s`` is an *absolute* :func:`perf_counter` reading (the
        caller's ``started = perf_counter()``), translated onto this
        context's epoch here.
        """
        span = Span(
            trace_id=self.trace_id,
            span_id=next(self._next_span),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            start_s=start_s - self._epoch,
            duration_s=duration_s,
            attrs=dict(attrs or {}),
        )
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def mark(self) -> Tuple[int, int]:
        """How many spans are recorded and open: what :meth:`rewind`
        returns to."""
        return len(self.spans), len(self._stack)

    def rewind(self, mark: Tuple[int, int]) -> None:
        """Drop every span begun or recorded since ``mark`` (an
        abandoned batch attempt, :meth:`ExecTracer.replay`)."""
        recorded, open_ = mark
        del self.spans[recorded:]
        del self._stack[open_:]

    # -- structure -----------------------------------------------------

    def roots(self) -> List[Span]:
        return [span for span in self.spans if span.parent_id is None]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def _children_index(self) -> Dict[Optional[int], List[Span]]:
        index: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            index.setdefault(span.parent_id, []).append(span)
        return index

    # -- exports -------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The trace as a Chrome trace-event JSON object.

        Complete (``"ph": "X"``) events with microsecond ``ts``/``dur``;
        span and parent identifiers ride in ``args`` so the tree is
        recoverable from the export alone.  Serialize with
        :func:`json.dumps` (or :meth:`write_chrome_trace`) and load the
        file in Perfetto / ``chrome://tracing``.
        """
        events = []
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.category or "span",
                    "ph": "X",
                    "ts": round(span.start_s * 1e6, 3),
                    "dur": round(span.duration_s * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        **span.attrs,
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_id": self.trace_id,
                "name": self.name,
                "dropped_spans": self.dropped,
            },
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)

    def to_collapsed(self) -> str:
        """Collapsed-stack text: one ``a;b;c <self-µs>`` line per stack.

        Sample weight is the span's *self* time (duration minus direct
        children), floored at zero, in integer microseconds — feed the
        output straight to ``flamegraph.pl`` or paste into speedscope.
        Identical stacks are merged, as the format requires.
        """
        index = self._children_index()
        weights: Dict[str, int] = {}

        def walk(span: Span, prefix: str) -> None:
            stack = f"{prefix};{span.name}" if prefix else span.name
            children = index.get(span.span_id, [])
            child_time = sum(child.duration_s for child in children)
            self_us = int(max(span.duration_s - child_time, 0.0) * 1e6)
            weights[stack] = weights.get(stack, 0) + self_us
            for child in children:
                walk(child, stack)

        for root in index.get(None, []):
            walk(root, "")
        return "\n".join(
            f"{stack} {weight}" for stack, weight in sorted(weights.items())
        )

    def format_tree(self) -> str:
        """An indented, human-readable span tree (REPL ``.trace``)."""
        index = self._children_index()
        lines: List[str] = [f"trace {self.trace_id} ({self.name})"]

        def walk(span: Span, depth: int) -> None:
            label = span.name
            if span.category and span.category not in ("query", "phase"):
                label += f" [{span.category}]"
            extras = "".join(
                f" {key}={value}" for key, value in sorted(span.attrs.items())
            )
            lines.append(
                "  " * depth
                + f"{label}  {format_seconds(span.duration_s)}{extras}"
            )
            for child in index.get(span.span_id, []):
                walk(child, depth + 1)

        for root in index.get(None, []):
            walk(root, 1)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "dropped_spans": self.dropped,
            "spans": [span.to_dict() for span in self.spans],
        }
