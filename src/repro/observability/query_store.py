"""The query store: persistent workload history with cardinality feedback.

Production engines keep a *query store* — SQL Server's feature of that
name, Oracle's AWR — because per-execution telemetry answers "what just
happened" but not "what does this workload normally look like".  This
module is that memory for the SQL++ engine:

* **Fingerprints.**  Workload identity is the *normalized* query — the
  rewritten Core AST with literals stripped — hashed together with the
  two mode dials and the catalog name-set version.  SQL++ is
  configurable: the same text can mean different things under different
  ``typing_mode``/``sql_compat`` settings (PAPERS.md, "Configurable,
  Unifying and Semi-structured"), so the dials are part of identity,
  not metadata.  Literal stripping makes ``price > 10`` and
  ``price > 20`` the same workload entry; struct-field *names* (which
  are ``Literal`` nodes syntactically) are preserved, because renaming
  an output column is a different query.

* **Plan hashes & regressions.**  Every execution records the hash of
  the plan that actually ran.  A new hash under an old fingerprint is a
  **plan change**; a latency far above the fingerprint's stored median
  is a **latency regression**.  Both are surfaced as events, report
  lines and Prometheus gauges.

* **Cardinality feedback.**  On sampled executions (first run of a
  fingerprint, or first run after a collection it reads was replaced or
  grew past the feedback tolerance) the store attaches
  a timing-free :class:`~repro.observability.tracer.ExecTracer`,
  compares each operator's actual output rows against the planner's
  estimate (q-error), and records the actuals into the catalog's
  :class:`~repro.catalog.statistics.FeedbackHints` under plan-shape
  keys.  The planner prefers those hints over sampled statistics, so a
  join order chosen from a bad estimate corrects itself on the next
  execution of the same fingerprint.

* **Persistence.**  One JSON-lines record per execution, bounded
  retention (the file is compacted to the newest ``max_records``
  records once it doubles past the bound), and corruption-tolerant
  reload: a torn or garbled line is skipped, not fatal — a crashed
  process must not brick its own history.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.observability.exposition import Histogram
from repro.observability.tracer import q_error

#: Stored query text is bounded: the store keys on fingerprints, the
#: text is only a human-readable exemplar for reports and gauge labels.
STORE_TEXT_LIMIT = 200

#: Per-fingerprint q-error history window (max is tracked separately
#: and never forgets).
QERROR_WINDOW = 64


# =========================================================================
# Fingerprints and plan hashes
# =========================================================================


def normalized_core_text(core) -> str:
    """The literal-stripped printed form of a rewritten Core AST.

    Every ``Literal`` becomes ``'?'`` except struct-field *keys* (the
    paper's struct constructor spells field names as literal strings;
    stripping them would merge queries with different output shapes).
    The transform is bottom-up and literals are leaves, so the original
    key objects are still identifiable by ``id()`` when visited.
    """
    from repro.syntax import ast
    from repro.syntax.printer import print_ast

    preserved = {
        id(field.key)
        for node in core.walk()
        if isinstance(node, ast.StructLit)
        for field in node.fields
        if isinstance(field.key, ast.Literal)
    }

    def strip(node):
        if isinstance(node, ast.Literal) and id(node) not in preserved:
            return ast.Literal(value="?")
        return node

    return print_ast(core.transform(strip))


def query_fingerprint(
    core, typing_mode: str, sql_compat: bool, catalog_version: int
) -> str:
    """A 16-hex-digit workload identity for one compiled query."""
    payload = "\x1f".join(
        [
            normalized_core_text(core),
            typing_mode,
            "1" if sql_compat else "0",
            str(catalog_version),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def plan_hash(plan) -> str:
    """A 12-hex-digit hash of the executed plan's shape — its EXPLAIN
    text without the ``plan:`` / ``stats:`` notes, which drift with the
    data while the shape is what a plan change is detected on —
    computed once per :class:`~repro.core.planner.BlockPlan`; the literal
    ``"reference"`` when no physical plan ran (a body without a FROM
    clause or that is not one block, or the reference interpreter)."""
    if plan is None:
        return "reference"
    if plan.shape_hash is None:
        plan.shape_hash = hashlib.sha256(
            plan.explain().encode("utf-8")
        ).hexdigest()[:12]
    return plan.shape_hash


# =========================================================================
# Cardinality feedback extraction
# =========================================================================


def record_plan_feedback(plan, tracer, provider) -> bool:
    """Record observed scan/join output rows into the provider's
    feedback hints.  True when any hint changed enough to replan.

    Every operator of the block's one tree is enumerated once per
    execution (build and materialized right sides included), so its
    ``rows_out`` is its cardinality.  The caller guarantees the run
    completed (status ok) and was not cut short by LIMIT/OFFSET — a
    truncated count would poison the hints.
    """
    from repro.core.plan_ops import walk_ops
    from repro.core.planner import feedback_key, scanned_names

    if plan is None:
        return False
    changed = False
    for op in walk_ops(plan.op):
        stats = tracer.op_stats(op)
        if stats is None:
            continue
        key = feedback_key(op)
        if key is None:
            continue
        if provider.record_feedback(
            key, float(stats.rows_out), scanned_names(op), op.est_rows
        ):
            changed = True
    return changed


def plan_max_qerror(plan, tracer) -> Optional[float]:
    """The worst per-operator q-error of one traced execution, or None
    when no operator carried both an estimate and a tally."""
    from repro.core.plan_ops import walk_ops

    if plan is None:
        return None
    worst: Optional[float] = None
    for op in walk_ops(plan.op):
        estimate = getattr(op, "est_rows", None)
        if estimate is None:
            continue
        stats = tracer.op_stats(op)
        if stats is None:
            continue
        q = q_error(estimate, stats.rows_out)
        if worst is None or q > worst:
            worst = q
    return worst


# =========================================================================
# The store
# =========================================================================


class StoreEntry:
    """Aggregated history for one query fingerprint."""

    __slots__ = (
        "fingerprint",
        "query_text",
        "executions",
        "errors",
        "total_s",
        "rows_total",
        "latency",
        "plan_hashes",
        "last_plan_hash",
        "plan_changes",
        "regressions",
        "qerrors",
        "max_qerror",
        "last_seen",
    )

    def __init__(self, fingerprint: str, query_text: str) -> None:
        self.fingerprint = fingerprint
        self.query_text = query_text
        self.executions = 0
        self.errors = 0
        self.total_s = 0.0
        self.rows_total = 0
        #: Latency percentiles ride the shared log-spaced bucket grid.
        self.latency = Histogram()
        #: plan hash → times executed under it.
        self.plan_hashes: Dict[str, int] = {}
        self.last_plan_hash: Optional[str] = None
        self.plan_changes = 0
        self.regressions = 0
        self.qerrors: Deque[float] = deque(maxlen=QERROR_WINDOW)
        self.max_qerror: Optional[float] = None
        self.last_seen = 0.0

    def median_qerror(self) -> Optional[float]:
        if not self.qerrors:
            return None
        ordered = sorted(self.qerrors)
        return ordered[len(ordered) // 2]

    def summary(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "query": self.query_text,
            "executions": self.executions,
            "errors": self.errors,
            "total_s": round(self.total_s, 6),
            "rows_total": self.rows_total,
            "p50_s": self.latency.quantile(0.5),
            "p95_s": self.latency.quantile(0.95),
            "plan_hashes": dict(self.plan_hashes),
            "plan_changes": self.plan_changes,
            "regressions": self.regressions,
            "max_qerror": self.max_qerror,
            "median_qerror": self.median_qerror(),
            "last_seen": self.last_seen,
        }


class QueryStore:
    """Fingerprint-keyed workload history with optional persistence.

    ``path=None`` keeps the store purely in memory.  With a path, every
    observation appends one JSON-lines record and reload replays the
    newest ``max_records`` of them through the same aggregation code —
    so persisted state and live state cannot drift apart structurally.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        max_fingerprints: int = 256,
        max_records: int = 512,
        min_history: int = 5,
        regression_factor: float = 4.0,
    ) -> None:
        self.path = path
        self.max_fingerprints = max_fingerprints
        self.max_records = max_records
        #: Executions a fingerprint needs before its median is trusted
        #: enough to call a slow run a regression.
        self.min_history = min_history
        #: How far past the stored median a latency must land to count.
        self.regression_factor = regression_factor
        self._entries: "OrderedDict[str, StoreEntry]" = OrderedDict()
        self._events: Deque[Dict[str, Any]] = deque(maxlen=max_records)
        self.plan_change_count = 0
        self.regression_count = 0
        #: fingerprint → (provider generation, stamp of the collections
        #: its plans read) as of its last feedback-traced run; drives
        #: :meth:`wants_feedback` sampling.
        self._feedback_seen: Dict[str, Tuple[int, Any]] = {}
        self._tail: Deque[str] = deque(maxlen=max_records)
        self._line_count = 0
        self._file: Optional[io.TextIOBase] = None
        self._lock = threading.RLock()
        if path is not None:
            self._load()
            self._file = open(path, "a", encoding="utf-8")

    # -- feedback sampling policy --------------------------------------

    def wants_feedback(self, fingerprint: str, provider) -> bool:
        """Whether the next execution of this fingerprint should run
        with the timing-free tracer attached: yes on first sight, and
        again once a collection its plans read has entered a new epoch
        of ``provider`` (a :class:`~repro.catalog.statistics.StatsProvider`:
        replaced, or grown past the tolerance) since the last trace.
        One integer comparison while nothing anywhere has moved."""
        with self._lock:
            seen = self._feedback_seen.get(fingerprint)
            if seen is None:
                return True
            if seen[0] == provider.generation:
                return False
            if provider.stale(seen[1]) is not None:
                return True
            self._feedback_seen[fingerprint] = (provider.generation, seen[1])
            return False

    def mark_feedback(self, fingerprint: str, provider, reads) -> None:
        """This fingerprint was just traced, its plans reading the
        collections ``reads``."""
        with self._lock:
            self._feedback_seen[fingerprint] = (
                provider.generation,
                provider.stamp(reads),
            )

    # -- observation ----------------------------------------------------

    def observe(
        self,
        fingerprint: str,
        query: str,
        plan_hash_value: Optional[str],
        status: str,
        total_s: float,
        rows: Optional[int],
        qerror: Optional[float] = None,
        persist: bool = True,
        at: Optional[float] = None,
    ) -> List[str]:
        """Fold one finished execution in; returns the detected events
        (``"plan-change"`` / ``"latency-regression"``), empty usually."""
        with self._lock:
            events = self._observe_locked(
                fingerprint,
                query,
                plan_hash_value,
                status,
                total_s,
                rows,
                qerror,
                time.time() if at is None else at,
            )
            if persist and self._file is not None:
                self._append_record(
                    fingerprint, query, plan_hash_value, status, total_s,
                    rows, qerror,
                )
            return events

    def _observe_locked(
        self,
        fingerprint: str,
        query: str,
        plan_hash_value: Optional[str],
        status: str,
        total_s: float,
        rows: Optional[int],
        qerror: Optional[float],
        at: float,
    ) -> List[str]:
        entry = self._entries.get(fingerprint)
        if entry is None:
            entry = StoreEntry(fingerprint, query[:STORE_TEXT_LIMIT])
            self._entries[fingerprint] = entry
            while len(self._entries) > self.max_fingerprints:
                self._entries.popitem(last=False)
        self._entries.move_to_end(fingerprint)

        events: List[str] = []
        # Regression check runs against the history *before* this run
        # is folded in — the slow run must not drag the median toward
        # itself first.
        if (
            status == "ok"
            and entry.latency.count >= self.min_history
            and total_s > self.regression_factor * entry.latency.quantile(0.5)
        ):
            entry.regressions += 1
            self.regression_count += 1
            events.append("latency-regression")
        if plan_hash_value is not None:
            if (
                entry.last_plan_hash is not None
                and plan_hash_value != entry.last_plan_hash
            ):
                entry.plan_changes += 1
                self.plan_change_count += 1
                events.append("plan-change")
            entry.last_plan_hash = plan_hash_value
            entry.plan_hashes[plan_hash_value] = (
                entry.plan_hashes.get(plan_hash_value, 0) + 1
            )

        entry.executions += 1
        entry.last_seen = at
        if status != "ok":
            entry.errors += 1
        else:
            entry.latency.observe(total_s)
            entry.total_s += total_s
            if rows is not None:
                entry.rows_total += rows
        if qerror is not None:
            entry.qerrors.append(qerror)
            if entry.max_qerror is None or qerror > entry.max_qerror:
                entry.max_qerror = qerror
        for event in events:
            self._events.append(
                {
                    "event": event,
                    "fingerprint": fingerprint,
                    "query": entry.query_text,
                    "plan_hash": plan_hash_value,
                    "total_s": total_s,
                    "at": at,
                }
            )
        return events

    # -- persistence ----------------------------------------------------

    def _append_record(
        self,
        fingerprint: str,
        query: str,
        plan_hash_value: Optional[str],
        status: str,
        total_s: float,
        rows: Optional[int],
        qerror: Optional[float],
    ) -> None:
        line = json.dumps(
            {
                "fp": fingerprint,
                "q": query[:STORE_TEXT_LIMIT],
                "plan": plan_hash_value,
                "status": status,
                "total_s": round(total_s, 6),
                "rows": rows,
                "qerr": qerror,
                "at": round(time.time(), 3),
            },
            ensure_ascii=False,
        )
        self._tail.append(line)
        self._file.write(line + "\n")
        self._file.flush()
        self._line_count += 1
        if self._line_count > self.max_records * 2:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the file down to the newest ``max_records`` records.

        Atomic via write-to-temp + rename, so a crash mid-compaction
        leaves either the old file or the new one, never a torn half."""
        temp_path = self.path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            for line in self._tail:
                handle.write(line + "\n")
        self._file.close()
        os.replace(temp_path, self.path)
        self._file = open(self.path, "a", encoding="utf-8")
        self._line_count = len(self._tail)

    def _load(self) -> None:
        """Replay persisted records; corrupt lines are skipped (a torn
        tail from a crash must not take the whole history with it)."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except (OSError, UnicodeDecodeError):
            return
        self._line_count = len(lines)
        for line in lines[-self.max_records :]:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                fingerprint = record["fp"]
                if not isinstance(fingerprint, str):
                    raise TypeError("fingerprint must be a string")
                self._observe_locked(
                    fingerprint,
                    str(record.get("q", "")),
                    record.get("plan"),
                    str(record.get("status", "ok")),
                    float(record.get("total_s", 0.0)),
                    record.get("rows"),
                    record.get("qerr"),
                    float(record.get("at", 0.0)),
                )
            except (ValueError, TypeError, KeyError):
                continue
            self._tail.append(line)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    # -- reporting ------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entry(self, fingerprint: str) -> Optional[StoreEntry]:
        with self._lock:
            return self._entries.get(fingerprint)

    def top(self, n: int = 10) -> List[StoreEntry]:
        """The ``n`` fingerprints with the most accumulated wall time —
        "where did my database spend its life" order."""
        with self._lock:
            ordered = sorted(
                self._entries.values(),
                key=lambda e: (e.total_s, e.executions),
                reverse=True,
            )
            return ordered[:n]

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "fingerprints": len(self._entries),
                "plan_changes": self.plan_change_count,
                "regressions": self.regression_count,
                "entries": [
                    entry.summary() for entry in self._entries.values()
                ],
                "events": list(self._events),
            }

    def report(self, n: int = 10) -> str:
        """The REPL/CLI-facing text report (``.topqueries`` / ``report``)."""
        from repro.observability.tracer import format_seconds

        with self._lock:
            lines = [
                f"query store: {len(self._entries)} fingerprint(s), "
                f"{self.plan_change_count} plan change(s), "
                f"{self.regression_count} latency regression(s)"
            ]
            for entry in self.top(n):
                qerr = (
                    f" max-q-err={entry.max_qerror:.2f}"
                    if entry.max_qerror is not None
                    else ""
                )
                plans = len(entry.plan_hashes)
                lines.append(
                    f"  {entry.fingerprint}  calls={entry.executions} "
                    f"errors={entry.errors} "
                    f"p50={format_seconds(entry.latency.quantile(0.5))} "
                    f"p95={format_seconds(entry.latency.quantile(0.95))} "
                    f"rows={entry.rows_total} plans={plans}"
                    f"{qerr}"
                )
                lines.append(f"    {entry.query_text}")
            for event in list(self._events)[-5:]:
                lines.append(
                    f"  event: {event['event']} fp={event['fingerprint']} "
                    f"plan={event['plan_hash']}"
                )
            return "\n".join(lines)

    def export_gauges(self, registry) -> None:
        """Publish the store's current state as Prometheus gauges."""
        with self._lock:
            registry.set_gauge(
                "repro_query_store_fingerprints",
                "Distinct query fingerprints tracked by the query store.",
                [({}, len(self._entries))],
            )
            registry.set_gauge(
                "repro_query_store_plan_changes_total",
                "Plan changes detected (same fingerprint, new plan hash).",
                [({}, self.plan_change_count)],
            )
            registry.set_gauge(
                "repro_query_store_latency_regressions_total",
                "Executions exceeding the regression factor over the "
                "fingerprint's stored median latency.",
                [({}, self.regression_count)],
            )
            worst = [
                entry
                for entry in self._entries.values()
                if entry.max_qerror is not None
            ]
            worst.sort(key=lambda e: e.max_qerror, reverse=True)
            registry.set_gauge(
                "repro_query_store_max_qerror",
                "Worst per-operator cardinality q-error observed.",
                [({}, worst[0].max_qerror if worst else 1.0)],
            )
            registry.set_gauge(
                "repro_query_store_qerror",
                "Max q-error per query fingerprint (worst 5).",
                [
                    (
                        {
                            "fingerprint": entry.fingerprint,
                            "query": entry.query_text,
                        },
                        entry.max_qerror,
                    )
                    for entry in worst[:5]
                ],
            )
