"""Per-query metrics and the per-database metrics registry.

Every ``Database.execute``/``explain_analyze`` call produces one
:class:`QueryMetrics` record — per-phase wall times for the query
pipeline (parse, rewrite, plan, execute), compile-cache hit/miss, result
cardinality and outcome — and feeds it to a :class:`MetricsRegistry`,
which maintains monotonic counters, per-phase latency
:class:`~repro.observability.exposition.Histogram`\\ s, and fans the
record out to its sinks (:mod:`repro.observability.sinks`).

The registry's mutation path (``record`` / ``increment``) is guarded by
a single :class:`threading.Lock`, so one ``Database`` can serve queries
from many threads and ``queries_total`` stays exact; the per-query hot
path takes the lock once, after the query has finished.

:meth:`MetricsRegistry.expose_text` renders everything in the
Prometheus text exposition format (``repro_queries_total``,
``repro_query_seconds_bucket{phase=...}``, compile-cache verdicts), so
a scrape endpoint or the CLI's ``--metrics-out`` is a file write, not a
new mechanism.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.observability.exposition import (
    Histogram,
    expose_counter,
    expose_gauge,
    expose_histogram,
)
from repro.observability.sinks import InMemorySink
from repro.observability.tracer import format_seconds

#: Query text beyond this many characters is truncated in serialized
#: records (sinks write every query; an unbounded generated query must
#: not turn the slow-query log into a second copy of the data).
QUERY_TEXT_LIMIT = 2048

#: The pipeline phases a latency histogram is kept for.
PHASES = ("parse", "rewrite", "plan", "execute", "total")


@dataclass
class QueryMetrics:
    """The observable outcome of one query execution."""

    query: str
    #: "ok", "error" or "resource_exhausted".
    status: str = "ok"
    error: Optional[str] = None
    #: Whether parse+rewrite was served from the compile cache.
    cache_hit: bool = False
    parse_s: float = 0.0
    rewrite_s: float = 0.0
    #: Planner wall time; ``None`` means the planner never ran (the
    #: reference interpreter, strict mode, or a block without FROM).
    #: ``0.0`` is a real measurement — without the sentinel a fast
    #: planned query was indistinguishable from "planner off".
    plan_s: Optional[float] = None
    execute_s: float = 0.0
    total_s: float = 0.0
    #: Top-level result cardinality (None for scalar/error results).
    rows_returned: Optional[int] = None
    #: Whether any query block ran on the streaming (pipelined) clause
    #: pipeline — False for the reference interpreter (``optimize=False``)
    #: and for a query whose body is a bare expression.
    streamed: bool = False
    #: Whether the top-level block ran on the batch (chunk-vectorized)
    #: pipeline (docs/PLANNER.md); implies ``streamed``.
    batched: bool = False
    #: Query-store fingerprint (normalized AST + mode dials + catalog
    #: version) and executed-plan hash, so ad-hoc logs join cleanly
    #: against the store; None when the store is off or compile failed.
    fingerprint: Optional[str] = None
    plan_hash: Optional[str] = None
    #: Codes of the semantic rewrites applied to this query, in firing
    #: order (``SQLPPR01`` ... — docs/REWRITER.md); empty when the
    #: registry is off or nothing matched.  Filled on compile-cache
    #: hits too: the rewrite shaped this execution either way.
    rewrites: List[str] = field(default_factory=list)
    #: Unix timestamp of query start (wall clock, for log correlation).
    started_at: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready representation (used by the JSON-lines sink).

        Query text is truncated to :data:`QUERY_TEXT_LIMIT` characters,
        with ``query_truncated`` flagging when it happened.
        """
        truncated = len(self.query) > QUERY_TEXT_LIMIT
        return {
            "query": self.query[:QUERY_TEXT_LIMIT],
            "query_truncated": truncated,
            "status": self.status,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "parse_s": round(self.parse_s, 6),
            "rewrite_s": round(self.rewrite_s, 6),
            "plan_s": round(self.plan_s, 6) if self.plan_s is not None else None,
            "execute_s": round(self.execute_s, 6),
            "total_s": round(self.total_s, 6),
            "rows_returned": self.rows_returned,
            "streamed": self.streamed,
            "batched": self.batched,
            "fingerprint": self.fingerprint,
            "plan_hash": self.plan_hash,
            "rewrites": list(self.rewrites),
            "started_at": self.started_at,
        }

    def format_phases(self) -> List[str]:
        """Phase-timing lines shared by ``--stats`` and EXPLAIN ANALYZE."""
        cache = "hit" if self.cache_hit else "miss"
        lines = [
            f"parse:    {format_seconds(self.parse_s)}",
            f"rewrite:  {format_seconds(self.rewrite_s)}  "
            f"(compile cache: {cache})",
        ]
        if self.plan_s is not None:
            lines.append(f"plan:     {format_seconds(self.plan_s)}")
        lines.append(f"execute:  {format_seconds(self.execute_s)}")
        lines.append(f"total:    {format_seconds(self.total_s)}")
        return lines


#: counter name → (exposed metric name, help text).
_COUNTER_METRICS = {
    "queries_total": (
        "repro_queries_total",
        "Queries executed (any outcome).",
    ),
    "queries_failed": (
        "repro_queries_failed_total",
        "Queries that raised a SQL++ error.",
    ),
    "queries_resource_exhausted": (
        "repro_queries_resource_exhausted_total",
        "Queries stopped by a resource limit.",
    ),
    "rows_returned_total": (
        "repro_rows_returned_total",
        "Top-level result rows returned by successful queries.",
    ),
    "stats_collected": (
        "repro_stats_collected_total",
        "Collection statistics sampled from a whole collection.",
    ),
    "stats_advanced": (
        "repro_stats_advanced_total",
        "Collection statistics advanced by the elements of an insert.",
    ),
    "plans_rebuilt": (
        "repro_plans_rebuilt_total",
        "Cached block plans built again (a collection they read was "
        "replaced or outgrew the tolerance, or its feedback changed).",
    ),
    "groups_advanced": (
        "repro_groups_advanced_total",
        "Executions whose GROUP BY continued a held fold state over the "
        "elements appended since, instead of folding the whole collection.",
    ),
    "topk_advanced": (
        "repro_topk_advanced_total",
        "Executions whose ORDER BY ... LIMIT continued its held rows over "
        "the elements appended since, instead of sorting the whole "
        "collection.",
    ),
}


class MetricsRegistry:
    """Counters, latency histograms and a fan-out of per-query records.

    All mutation goes through one :class:`threading.Lock`; reads used
    by tests and the REPL (``snapshot``, ``expose_text``) take the same
    lock so they observe a consistent point in time.
    """

    def __init__(self, sinks: Optional[List[Any]] = None):
        self.counters: Dict[str, int] = {
            "queries_total": 0,
            "queries_failed": 0,
            "queries_resource_exhausted": 0,
            "rows_returned_total": 0,
            "compile_cache_hits": 0,
            "compile_cache_misses": 0,
            "stats_collected": 0,
            "stats_advanced": 0,
            "plans_rebuilt": 0,
            "groups_advanced": 0,
            "topk_advanced": 0,
        }
        #: Per-phase latency histograms (shared log-spaced buckets).
        self.histograms: Dict[str, Histogram] = {
            phase: Histogram() for phase in PHASES
        }
        self.memory = InMemorySink()
        self.sinks: List[Any] = [self.memory] + list(sinks or [])
        self.last: Optional[QueryMetrics] = None
        #: Gauge families set wholesale by collaborators (the query
        #: store): name → (help text, [(labels, value), ...]).
        self.gauges: Dict[str, Any] = {}
        #: Callables ``source(registry)`` that refresh gauge families
        #: when the registry is exposed (:meth:`add_gauge_source`).
        self._gauge_sources: List[Any] = []
        self._lock = threading.Lock()

    def increment(self, name: str, by: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + by

    def set_gauge(self, name: str, help_text: str, samples) -> None:
        """Replace one gauge family's samples (gauges describe current
        state, so wholesale replacement is the right update model)."""
        with self._lock:
            self.gauges[name] = (help_text, list(samples))

    def add_gauge_source(self, source) -> None:
        """Register ``source(registry)`` to be called at the start of
        every :meth:`expose_text`: gauges describe current state, so
        they are computed when read, not pushed on every query."""
        self._gauge_sources.append(source)

    def record(self, metrics: QueryMetrics) -> None:
        """Fold one finished query into counters, histograms and sinks.

        One lock acquisition covers the whole fold, so concurrent
        recorders cannot interleave a counter bump with a histogram
        observation and every sink sees records one at a time.
        """
        with self._lock:
            counters = self.counters
            counters["queries_total"] += 1
            if metrics.status == "error":
                counters["queries_failed"] += 1
            elif metrics.status == "resource_exhausted":
                counters["queries_resource_exhausted"] += 1
            if metrics.rows_returned is not None:
                counters["rows_returned_total"] += metrics.rows_returned
            histograms = self.histograms
            histograms["parse"].observe(metrics.parse_s)
            histograms["rewrite"].observe(metrics.rewrite_s)
            if metrics.plan_s is not None:
                histograms["plan"].observe(metrics.plan_s)
            histograms["execute"].observe(metrics.execute_s)
            histograms["total"].observe(metrics.total_s)
            self.last = metrics
            for sink in self.sinks:
                sink.emit(metrics)

    def close(self) -> None:
        """Release sink resources (open log files); safe to call twice."""
        with self._lock:
            for sink in self.sinks:
                close = getattr(sink, "close", None)
                if close is not None:
                    close()

    def snapshot(self) -> Dict[str, Any]:
        """A point-in-time view: counters plus the last query's record."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "last_query": self.last.to_dict() if self.last else None,
            }

    def format_snapshot(self) -> str:
        """Human-readable form of :meth:`snapshot` (REPL ``.stats``)."""
        with self._lock:
            lines = ["counters:"]
            for name in sorted(self.counters):
                lines.append(f"  {name}: {self.counters[name]}")
            if self.last is not None:
                lines.append("last query:")
                lines.append(f"  status: {self.last.status}")
                if self.last.error:
                    lines.append(f"  error: {self.last.error}")
                if self.last.rows_returned is not None:
                    lines.append(f"  rows: {self.last.rows_returned}")
                lines.extend("  " + line for line in self.last.format_phases())
            return "\n".join(lines)

    def expose_text(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Every line is a ``# HELP``/``# TYPE`` header or a
        ``name{labels} value`` sample; ends with a trailing newline as
        the format requires.
        """
        for source in self._gauge_sources:
            source(self)  # calls set_gauge, which takes the lock itself
        with self._lock:
            lines: List[str] = []
            for counter_name, (metric, help_text) in _COUNTER_METRICS.items():
                lines.extend(
                    expose_counter(
                        metric, help_text, [({}, self.counters[counter_name])]
                    )
                )
            lines.extend(
                expose_counter(
                    "repro_compile_cache_requests_total",
                    "Compile-cache lookups by result.",
                    [
                        ({"result": "hit"}, self.counters["compile_cache_hits"]),
                        (
                            {"result": "miss"},
                            self.counters["compile_cache_misses"],
                        ),
                    ],
                )
            )
            rewrite_counters = sorted(
                name
                for name in self.counters
                if name.startswith("rewrites_fired:")
            )
            if rewrite_counters:
                lines.extend(
                    expose_counter(
                        "repro_rewrites_fired_total",
                        "Semantic rewrite-rule firings by rule code.",
                        [
                            (
                                {"rule": name.split(":", 1)[1]},
                                self.counters[name],
                            )
                            for name in rewrite_counters
                        ],
                    )
                )
            extra = sorted(
                name
                for name in self.counters
                if name not in _COUNTER_METRICS
                and name not in ("compile_cache_hits", "compile_cache_misses")
                and not name.startswith("rewrites_fired:")
            )
            for name in extra:
                lines.extend(
                    expose_counter(
                        f"repro_{name}",
                        f"Ad-hoc counter {name}.",
                        [({}, self.counters[name])],
                    )
                )
            for name in sorted(self.gauges):
                help_text, samples = self.gauges[name]
                lines.extend(expose_gauge(name, help_text, samples))
            lines.extend(
                expose_histogram(
                    "repro_query_seconds",
                    "Query pipeline wall time by phase, in seconds.",
                    self.histograms,
                    label_name="phase",
                )
            )
            return "\n".join(lines) + "\n"
