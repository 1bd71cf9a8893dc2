"""The query store (docs/OBSERVABILITY.md "Query store & cardinality
feedback"): workload fingerprints, plan-change and latency-regression
detection, JSON-lines persistence with bounded retention and
corruption-tolerant reload, metrics tagging, and the Prometheus gauges.
"""

from __future__ import annotations

import json
import re

import pytest

from repro import Database
from repro.observability import (
    QueryStore,
    normalized_core_text,
    plan_hash,
    query_fingerprint,
)
from repro.observability import query_store
from repro.observability.query_store import STORE_TEXT_LIMIT, StoreEntry


def build_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.set("r", [{"k": i % 10, "v": i} for i in range(100)])
    db.set("s", [{"k": i, "name": f"n{i}"} for i in range(10)])
    return db


# =========================================================================
# Fingerprints
# =========================================================================


class TestFingerprints:
    def test_literals_are_stripped(self):
        db = build_db()
        a = db.compile("SELECT r.v AS v FROM r AS r WHERE r.v > 10")
        b = db.compile("SELECT r.v AS v FROM r AS r WHERE r.v > 99")
        assert normalized_core_text(a) == normalized_core_text(b)
        assert query_fingerprint(a, "permissive", True, 1) == query_fingerprint(
            b, "permissive", True, 1
        )

    def test_struct_field_keys_survive_stripping(self):
        # Output column names are Literal nodes syntactically; renaming
        # one is a different query, not the same workload entry.
        db = build_db()
        a = db.compile("SELECT r.v AS total FROM r AS r")
        b = db.compile("SELECT r.v AS amount FROM r AS r")
        assert normalized_core_text(a) != normalized_core_text(b)

    def test_mode_dials_are_identity(self):
        db = build_db()
        core = db.compile("SELECT r.v AS v FROM r AS r")
        base = query_fingerprint(core, "permissive", True, 1)
        assert query_fingerprint(core, "strict", True, 1) != base
        assert query_fingerprint(core, "permissive", False, 1) != base
        assert query_fingerprint(core, "permissive", True, 2) != base

    def test_fingerprint_shape(self):
        db = build_db()
        core = db.compile("SELECT r.v AS v FROM r AS r")
        assert re.fullmatch(
            r"[0-9a-f]{16}", query_fingerprint(core, "permissive", True, 0)
        )

    def test_plan_hash_reference_sentinel(self):
        assert plan_hash(None) == "reference"


# =========================================================================
# Detection: plan changes and latency regressions
# =========================================================================


class TestDetection:
    def test_plan_change_detected(self):
        store = QueryStore()
        assert store.observe("fp1", "q", "aaa", "ok", 0.01, 5) == []
        assert store.observe("fp1", "q", "aaa", "ok", 0.01, 5) == []
        events = store.observe("fp1", "q", "bbb", "ok", 0.01, 5)
        assert events == ["plan-change"]
        assert store.plan_change_count == 1
        entry = store.entry("fp1")
        assert entry.plan_changes == 1
        assert entry.plan_hashes == {"aaa": 2, "bbb": 1}
        assert any(e["event"] == "plan-change" for e in store.events())

    def test_plan_change_is_per_fingerprint(self):
        store = QueryStore()
        store.observe("fp1", "q1", "aaa", "ok", 0.01, 1)
        assert store.observe("fp2", "q2", "bbb", "ok", 0.01, 1) == []
        assert store.plan_change_count == 0

    def test_latency_regression_needs_history(self, monkeypatch):
        monkeypatch.setattr(query_store, "MIN_HISTORY", 5)
        monkeypatch.setattr(query_store, "REGRESSION_FACTOR", 4.0)
        store = QueryStore()
        # Four fast runs: not enough history to trust the median.
        for _ in range(4):
            store.observe("fp1", "q", "aaa", "ok", 0.01, 1)
        assert store.observe("fp1", "q", "aaa", "ok", 10.0, 1) == []
        store2 = QueryStore()
        for _ in range(5):
            store2.observe("fp1", "q", "aaa", "ok", 0.01, 1)
        events = store2.observe("fp1", "q", "aaa", "ok", 10.0, 1)
        assert events == ["latency-regression"]
        assert store2.regression_count == 1
        assert store2.entry("fp1").regressions == 1

    def test_errors_do_not_pollute_latency(self, monkeypatch):
        monkeypatch.setattr(query_store, "MIN_HISTORY", 5)
        store = QueryStore()
        for _ in range(5):
            store.observe("fp1", "q", "aaa", "ok", 0.01, 1)
        store.observe("fp1", "q", "aaa", "error", 50.0, None)
        entry = store.entry("fp1")
        assert entry.errors == 1
        assert entry.latency.count == 5
        assert entry.rows_total == 5

    def test_qerror_history(self):
        store = QueryStore()
        store.observe("fp1", "q", "aaa", "ok", 0.01, 1, qerror=2.0)
        store.observe("fp1", "q", "aaa", "ok", 0.01, 1, qerror=8.0)
        store.observe("fp1", "q", "aaa", "ok", 0.01, 1, qerror=3.0)
        entry = store.entry("fp1")
        assert entry.max_qerror == 8.0
        assert entry.median_qerror() == 3.0

    def test_fingerprint_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(query_store, "MAX_FINGERPRINTS", 3)
        store = QueryStore()
        for i in range(5):
            store.observe(f"fp{i}", "q", None, "ok", 0.01, 1)
        assert len(store) == 3
        assert store.entry("fp0") is None
        assert store.entry("fp4") is not None

    def test_query_text_bounded(self):
        store = QueryStore()
        store.observe("fp1", "x" * 1000, None, "ok", 0.01, 1)
        assert len(store.entry("fp1").query_text) == STORE_TEXT_LIMIT


# =========================================================================
# Feedback sampling policy
# =========================================================================


class TestFeedbackSampling:
    def test_wants_feedback_first_sight_then_data_change(self):
        from repro.catalog.catalog import Catalog
        from repro.catalog.statistics import StatsProvider

        catalog = Catalog()
        catalog.set("t", [{"x": 1}] * 100)
        catalog.set("other", [1])
        provider = StatsProvider(catalog)
        store = QueryStore()
        assert store.wants_feedback("fp1", provider)
        store.mark_feedback("fp1", provider, ["t"])
        assert not store.wants_feedback("fp1", provider)
        # Another collection changed, or the one it reads grew within
        # the tolerance: still traced.
        catalog.set("other", [2])
        catalog.append("t", [1] * 10)
        assert not store.wants_feedback("fp1", provider)
        # The data it reads changed under the same fingerprint: re-trace.
        catalog.append("t", [1])
        assert store.wants_feedback("fp1", provider)


# =========================================================================
# Persistence
# =========================================================================


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = QueryStore(path=path)
        store.observe("fp1", "SELECT 1", "aaa", "ok", 0.25, 3, qerror=2.5)
        store.observe("fp1", "SELECT 1", "bbb", "ok", 0.5, 3)
        store.observe("fp2", "SELECT 2", "ccc", "error", 0.1, None)
        store.close()

        reloaded = QueryStore(path=path)
        try:
            entry = reloaded.entry("fp1")
            assert entry.executions == 2
            assert entry.plan_hashes == {"aaa": 1, "bbb": 1}
            assert entry.plan_changes == 1
            assert entry.max_qerror == 2.5
            assert entry.rows_total == 6
            assert reloaded.entry("fp2").errors == 1
            assert reloaded.plan_change_count == 1
        finally:
            reloaded.close()

    def test_bounded_retention_compacts_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(query_store, "MAX_RECORDS", 8)
        path = str(tmp_path / "store.jsonl")
        store = QueryStore(path=path)
        for i in range(40):
            store.observe(f"fp{i}", f"q{i}", None, "ok", 0.01, 1)
        store.close()
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        # Compaction keeps the file within 2x the retention bound.
        assert len(lines) <= 16
        reloaded = QueryStore(path=path)
        try:
            # Only the newest records survive; the oldest are gone.
            assert reloaded.entry("fp0") is None
            assert reloaded.entry("fp39") is not None
        finally:
            reloaded.close()

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        good1 = json.dumps(
            {"fp": "fp1", "q": "q1", "plan": "aaa", "status": "ok",
             "total_s": 0.1, "rows": 2, "qerr": None, "at": 1.0}
        )
        good2 = json.dumps(
            {"fp": "fp2", "q": "q2", "plan": None, "status": "ok",
             "total_s": 0.2, "rows": 1, "qerr": 1.5, "at": 2.0}
        )
        torn = good2[: len(good2) // 2]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(good1 + "\n")
            handle.write("not json at all\n")
            handle.write(json.dumps({"fp": 42}) + "\n")
            handle.write(good2 + "\n")
            handle.write(torn + "\n")
        store = QueryStore(path=path)
        try:
            assert len(store) == 2
            assert store.entry("fp1").rows_total == 2
            assert store.entry("fp2").max_qerror == 1.5
        finally:
            store.close()

    def test_missing_file_is_fine(self, tmp_path):
        store = QueryStore(path=str(tmp_path / "absent.jsonl"))
        try:
            assert len(store) == 0
            store.observe("fp1", "q", None, "ok", 0.01, 1)
        finally:
            store.close()


# =========================================================================
# Database integration
# =========================================================================


class TestDatabaseIntegration:
    def test_metrics_tagged_with_fingerprint_and_plan_hash(self):
        db = build_db()
        db.execute("SELECT r.v AS v FROM r AS r WHERE r.v > 10")
        metrics = db.metrics.last
        assert re.fullmatch(r"[0-9a-f]{16}", metrics.fingerprint)
        assert metrics.plan_hash is not None
        record = metrics.to_dict()
        assert record["fingerprint"] == metrics.fingerprint
        assert record["plan_hash"] == metrics.plan_hash

    def test_same_workload_same_fingerprint(self):
        db = build_db()
        db.execute("SELECT r.v AS v FROM r AS r WHERE r.v > 10")
        first = db.metrics.last.fingerprint
        db.execute("SELECT r.v AS v FROM r AS r WHERE r.v > 77")
        assert db.metrics.last.fingerprint == first
        entry = db.query_store().entry(first)
        assert entry.executions == 2

    def test_store_disabled(self):
        db = build_db(query_store=False)
        assert db.query_store() is None
        db.execute("SELECT r.v AS v FROM r AS r")
        assert db.metrics.last.fingerprint is None
        assert db.metrics.last.plan_hash is None

    def test_store_path_persists_across_databases(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        db = build_db(query_store=path)
        db.execute("SELECT r.v AS v FROM r AS r")
        fingerprint = db.metrics.last.fingerprint
        db.close()
        db2 = build_db(query_store=path)
        try:
            assert db2.query_store().entry(fingerprint).executions == 1
        finally:
            db2.close()

    def test_errors_are_recorded(self):
        db = build_db()
        with pytest.raises(Exception):
            db.execute("SELECT r.v AS v FROM r AS r WHERE r.v +", ())
        store = db.query_store()
        # Parse errors never reach fingerprinting (no Core AST), so the
        # store only sees compiled executions.
        db.execute("SELECT r.v AS v FROM r AS r")
        assert len(store) >= 1

    def test_report_text(self):
        db = build_db()
        query = "SELECT r.v AS v FROM r AS r WHERE r.v > 10"
        db.execute(query)
        db.execute(query)
        report = db.query_store().report()
        assert report.startswith("query store: 1 fingerprint(s)")
        assert "calls=2" in report
        assert query in report

    def test_store_gauges_exported(self):
        db = build_db()
        db.execute("SELECT r.v AS v FROM r AS r WHERE r.v > 10")
        text = db.metrics.expose_text()
        assert "repro_query_store_fingerprints 1" in text
        assert "repro_query_store_plan_changes_total" in text
        assert "repro_query_store_latency_regressions_total" in text
        assert "repro_query_store_max_qerror" in text

    def test_gauges_are_computed_at_exposition_not_per_execute(
        self, monkeypatch
    ):
        from repro.observability import QueryStore

        computed = []
        export = QueryStore.export_gauges

        def counting(store, registry):
            computed.append(registry)
            return export(store, registry)

        monkeypatch.setattr(QueryStore, "export_gauges", counting)
        db = build_db()
        for bound in range(5):
            db.execute(f"SELECT r.v AS v FROM r AS r WHERE r.v > {bound}")
            db.execute("SELECT r.k AS k FROM r AS r")
        assert computed == []
        assert db.metrics.gauges == {}
        text = db.metrics.expose_text()
        assert computed == [db.metrics]
        # Literals are stripped, so the ten executes are two fingerprints.
        assert "repro_query_store_fingerprints 2" in text
        db.execute("SELECT s.name AS name FROM s AS s")
        assert "repro_query_store_fingerprints 3" in db.metrics.expose_text()

    def test_explain_analyze_does_not_hijack_feedback_tracer(self):
        # A user-supplied tracer must never be replaced by the store's
        # feedback tracer; EXPLAIN ANALYZE keeps full timing.
        db = build_db()
        out = db.explain_analyze("SELECT r.v AS v FROM r AS r WHERE r.v > 10")
        assert "time=" in out


class TestStoreEntrySummary:
    def test_summary_fields(self):
        entry = StoreEntry("fp1", "SELECT 1")
        entry.executions = 2
        summary = entry.summary()
        assert summary["fingerprint"] == "fp1"
        assert summary["executions"] == 2
        assert "p50_s" in summary and "median_qerror" in summary
