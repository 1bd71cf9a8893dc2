"""Morsel-driven parallel execution (docs/PLANNER.md "Morsel-driven
parallelism"): result identity with the serial paths, worker-count
gating, error propagation across the fork, serial fallback on
infrastructure failure, and the governor's mid-chunk timeout checks.

The fixtures are small, so the fork thresholds are monkeypatched down
— the point is the machinery, not the speedup (see
benchmarks/bench_e16_parallel.py for the wall-clock story).
"""

from __future__ import annotations

import time

import pytest

from repro import Database, errors
from repro.core import parallel
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag


@pytest.fixture
def small_morsels(monkeypatch):
    """Let ~200-row fixtures fork into multiple morsels."""
    monkeypatch.setattr(parallel, "MIN_PARALLEL_ROWS", 64)
    monkeypatch.setattr(parallel, "MIN_MORSEL_ROWS", 32)


def fact_rows(n: int):
    return [{"k": i % 10, "v": (i * 13) % 100} for i in range(n)]


def build_db(n: int = 256, **kwargs) -> Database:
    db = Database(parallel=2, **kwargs)
    db.set("fact", fact_rows(n))
    db.set("dim", [{"k": i, "name": f"d{i}"} for i in range(10)])
    return db


def assert_bag_equal(left, right):
    left = Bag(list(left)) if isinstance(left, (list, Bag)) else left
    right = Bag(list(right)) if isinstance(right, (list, Bag)) else right
    assert deep_equals(left, right)


class TestRowsMode:
    def test_filter_scan_parity_and_workers(self, small_morsels):
        db = build_db()
        query = "SELECT VALUE f.v FROM fact AS f WHERE f.v < 50"
        result = db.execute(query)
        assert db.metrics.last.parallel_workers == 2
        assert db.metrics.last.batched is True
        assert_bag_equal(result, db.execute(query, parallel=0))

    def test_join_with_prebuilt_table(self, small_morsels):
        db = build_db()
        query = (
            "SELECT VALUE {'v': f.v, 'name': d.name} "
            "FROM fact AS f JOIN dim AS d ON f.k = d.k WHERE f.v < 50"
        )
        result = db.execute(query)
        assert db.metrics.last.parallel_workers == 2
        assert_bag_equal(result, db.execute(query, batch=False))

    def test_worker_rows_come_back_on_the_parents_shapes(self, small_morsels):
        # Rows cross the fork pickled; unpickling re-interns their
        # shapes, so they share the serial run's shape objects.
        db = build_db()
        for query in (
            "SELECT VALUE f FROM fact AS f WHERE f.v < 50",
            "SELECT VALUE {'v': f.v, 'name': d.name} "
            "FROM fact AS f JOIN dim AS d ON f.k = d.k WHERE f.v < 50",
        ):
            fanned = list(db.execute(query))
            assert db.metrics.last.parallel_workers == 2
            serial = list(db.execute(query, parallel=0))
            assert all(row._shape is serial[0]._shape for row in fanned)

    def test_order_by_is_order_exact(self, small_morsels):
        # Ordered merge: morsel order == serial row order, so the final
        # sort sees identical input and ties break identically.
        db = build_db()
        query = "SELECT VALUE f.v FROM fact AS f ORDER BY f.v DESC, f.k"
        assert deep_equals(
            list(db.execute(query)), list(db.execute(query, parallel=0))
        )


class TestFoldMode:
    def test_group_by_fold_parity(self, small_morsels):
        db = build_db()
        query = (
            "SELECT k, COUNT(*) AS n, SUM(f.v) AS total, AVG(f.v) AS mean "
            "FROM fact AS f GROUP BY f.k AS k"
        )
        result = db.execute(query)
        assert db.metrics.last.parallel_workers == 2
        assert_bag_equal(result, db.execute(query, batch=False))

    def test_merged_fold_is_bit_identical_to_serial(self, small_morsels):
        # Every group spans every morsel (and chunk); the barrier merge
        # must reproduce the serial fold's first-seen group order and
        # per-group value order exactly, not just as bags — ARRAY_AGG
        # exposes the value order, the result list the group order.
        db = build_db()
        for query in (
            "SELECT k, COUNT(*) AS n, SUM(f.v) AS total, ARRAY_AGG(f.v) AS vs "
            "FROM fact AS f GROUP BY f.k AS k",
            "SELECT COUNT(*) AS n, ARRAY_AGG(f.v) AS vs FROM fact AS f",
            "SELECT k, odd, ARRAY_AGG(f.v) AS vs FROM fact AS f "
            "GROUP BY f.k AS k, f.v % 2 AS odd",
        ):
            fanned = db.execute(query)
            assert db.metrics.last.parallel_workers == 2
            serial = db.execute(query, parallel=0)
            assert db.metrics.last.parallel_workers == 0
            assert deep_equals(list(fanned), list(serial)), query

    def test_lateral_unnest_group_folds_in_the_workers(self, small_morsels, monkeypatch):
        # The lateral chunk operator sits on the probe spine: each
        # worker flattens its morsel of employees and folds the pairs.
        modes = []
        original = parallel.try_parallel

        def spy(evaluator, op, env, mode, decomp, row_vars):
            modes.append(mode)
            return original(evaluator, op, env, mode, decomp, row_vars)

        monkeypatch.setattr(parallel, "try_parallel", spy)
        db = Database(parallel=2)
        db.set(
            "emp",
            [
                {
                    "id": i,
                    "projects": [
                        {"name": f"p{(i + j) % 7}", "hours": (i * j) % 40}
                        for j in range(i % 4)
                    ],
                }
                for i in range(256)
            ],
        )
        query = (
            "SELECT p.name AS proj, COUNT(*) AS n, SUM(p.hours) AS h, "
            "ARRAY_AGG(e.id) AS ids FROM emp AS e, e.projects AS p GROUP BY p.name"
        )
        fanned = db.execute(query)
        assert db.metrics.last.parallel_workers == 2
        assert modes == ["fold"]
        serial = db.execute(query, parallel=0)
        assert db.metrics.last.parallel_workers == 0
        assert deep_equals(list(fanned), list(serial))
        assert_bag_equal(fanned, db.execute(query, optimize=False))

    def test_derived_tables_do_not_fan_out(self, small_morsels):
        # Only the top-level block forks: a derived table is evaluated
        # inside each morsel worker, which cannot fork a pool itself.
        db = build_db()
        query = (
            "SELECT VALUE d.v FROM (SELECT f.v AS v FROM fact AS f "
            "WHERE f.v < 50) AS d WHERE d.v > 10"
        )
        result = db.execute(query)
        assert db.metrics.last.parallel_workers == 2
        assert_bag_equal(result, db.execute(query, parallel=0))
        assert_bag_equal(result, db.execute(query, optimize=False))

    def test_float_sum_adds_per_morsel_partials(self, small_morsels):
        # A documented difference from serial (docs/PLANNER.md):
        # workers return partial states and the barrier merges them in
        # morsel order, so a float SUM / AVG is the sum of per-morsel
        # partial totals.  2**54 absorbs every 1.0 added to it one at a
        # time, but not a morsel's whole partial.
        import math

        n = 256
        values = [2.0**54] + [1.0] * (n - 1)
        db = Database(parallel=2)
        db.set("fact", [{"v": v} for v in values])
        query = "SELECT SUM(f.v) AS s, AVG(f.v) AS a FROM fact AS f"
        (serial,) = db.execute(query, parallel=0)
        assert serial["s"] == 2.0**54
        (fanned,) = db.execute(query)
        assert db.metrics.last.parallel_workers == 2
        span = max(math.ceil(n / (2 * 4)), parallel.MIN_MORSEL_ROWS)
        total = 0
        for start in range(0, n, span):
            partial = 0
            for value in values[start : start + span]:
                partial += value
            total += partial
        assert fanned["s"] == total != serial["s"]
        assert fanned["a"] == total / n

    def test_distinct_aggregate_fold_parity(self, small_morsels):
        db = build_db()
        query = (
            "SELECT k, COUNT(DISTINCT f.v) AS n "
            "FROM fact AS f GROUP BY f.k AS k"
        )
        assert_bag_equal(db.execute(query), db.execute(query, parallel=0))


class TestGating:
    def test_parallel_one_never_forks(self, small_morsels):
        db = build_db()
        db.execute("SELECT VALUE f.v FROM fact AS f", parallel=1)
        assert db.metrics.last.parallel_workers == 0

    def test_small_input_stays_serial(self):
        # Default thresholds: 256 rows is far below MIN_PARALLEL_ROWS.
        db = build_db()
        db.execute("SELECT VALUE f.v FROM fact AS f")
        assert db.metrics.last.parallel_workers == 0
        assert db.metrics.last.batched is True

    def test_lazy_source_is_not_partitionable(self, small_morsels):
        db = Database(parallel=2)
        db.set_lazy("lazy", lambda: ({"x": i} for i in range(256)))
        result = db.execute("SELECT VALUE l.x FROM lazy AS l WHERE l.x < 99")
        assert db.metrics.last.parallel_workers == 0
        assert len(list(result)) == 99

    def test_pool_failure_falls_back_to_serial(
        self, small_morsels, monkeypatch
    ):
        def broken_context(method):
            raise OSError("no fork for you")

        monkeypatch.setattr(
            parallel.multiprocessing, "get_context", broken_context
        )
        db = build_db()
        query = "SELECT VALUE f.v FROM fact AS f WHERE f.v < 50"
        result = db.execute(query)
        assert db.metrics.last.parallel_workers == 0
        assert_bag_equal(result, db.execute(query, parallel=0))


class TestLimitsAcrossTheFork:
    def test_max_rows_enforced_at_the_barrier(self, small_morsels):
        # Each worker's governor sees only its own morsels; the global
        # budget breach surfaces when the parent re-accounts the deltas.
        db = build_db(n=300, max_rows=250)
        with pytest.raises(errors.ResourceExhausted) as info:
            db.execute("SELECT VALUE f.v FROM fact AS f WHERE f.v >= 0")
        assert info.value.kind == "max_rows"

    def test_rebuild_error_round_trips_resource_exhausted(self):
        rebuilt = parallel._rebuild_error(
            "ResourceExhausted",
            "out of rows",
            {"kind": "max_rows", "rows_produced": 7, "elapsed_s": 0.5},
        )
        assert isinstance(rebuilt, errors.ResourceExhausted)
        assert rebuilt.kind == "max_rows"
        assert rebuilt.rows_produced == 7

    def test_rebuild_error_unknown_class_degrades(self):
        rebuilt = parallel._rebuild_error("NoSuchError", "boom", None)
        assert isinstance(rebuilt, errors.EvaluationError)


class TestMidChunkTimeout:
    def test_timeout_fires_inside_a_chunk(self):
        # A slow lazy source emits ~25 rows before the 50ms deadline; a
        # batch loop that only checked limits at chunk boundaries would
        # block for the full 1024-row chunk (~2s) before noticing.  The
        # scan ticks the governor every 64 pulls, so the error must
        # arrive promptly and report far fewer than 1024 rows.
        def slow_rows():
            for i in range(100_000):
                time.sleep(0.002)
                yield {"x": i}

        db = Database(timeout_s=0.05)
        db.set_lazy("slow", lambda: slow_rows())
        started = time.perf_counter()
        with pytest.raises(errors.ResourceExhausted) as info:
            db.execute("SELECT VALUE s.x FROM slow AS s WHERE s.x >= 0")
        elapsed = time.perf_counter() - started
        assert db.metrics.last.batched is True
        assert info.value.kind == "timeout"
        assert info.value.rows_produced < 1024
        assert elapsed < 1.0


class TestTracingAcrossTheFork:
    def test_explain_analyze_merges_worker_tallies(self, small_morsels):
        db = build_db()
        report = db.explain_analyze(
            "SELECT VALUE {'v': f.v, 'name': d.name} "
            "FROM fact AS f JOIN dim AS d ON f.k = d.k WHERE f.v < 50"
        )
        assert "HashJoin" in report
        assert "calls=" in report
