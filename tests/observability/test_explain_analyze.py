"""EXPLAIN ANALYZE: annotated plans on both execution paths."""

import re

import pytest

from repro import Database
from tests.rows_mode import ROWS, run

#: A ``plan:`` line that says a FROM block has no operator tree
#: (unplanned / reference / none), as opposed to the reuse decision
#: (``plan: built | reused | rebuilt — …``) every planned block prints.
UNPLANNED = re.compile(r"^plan: (?!built|reused|rebuilt)", re.M)


@pytest.fixture
def join_db():
    db = Database()
    db.set("r", [{"k": i % 10, "v": i} for i in range(100)])
    db.set("s", [{"k": i, "name": f"n{i}"} for i in range(10)])
    return db


JOIN_QUERY = (
    "SELECT r.v AS v, s.name AS name "
    "FROM r AS r JOIN s AS s ON r.k = s.k WHERE r.v > 50"
)

#: A WHERE absint proves never TRUE: the plan is a single ``Empty`` operator.
PRUNED_QUERY = "SELECT VALUE x.v FROM r AS x WHERE x.v > 5 AND x.v < 3 LIMIT 5"

STATS = re.compile(r"\(calls=\d+ (rows_in=\d+ )?rows_out=\d+ time=[\d.]+[mu]?s\)")


class TestOptimizedPath:
    def test_join_operators_carry_stats(self, join_db):
        report = join_db.explain_analyze(JOIN_QUERY)
        hash_join = next(
            line for line in report.splitlines() if "HashJoin" in line
        )
        assert STATS.search(hash_join), hash_join
        # Both scans are annotated too, with real cardinalities.
        scans = [line for line in report.splitlines() if "Scan" in line]
        assert len(scans) == 2
        assert all(STATS.search(line) for line in scans)
        assert "rows_in=100" in next(s for s in scans if "AS r" in s)

    def test_stage_and_phase_sections(self, join_db):
        report = join_db.explain_analyze(JOIN_QUERY)
        assert "stages:" in report
        assert "phases:" in report
        assert "rows returned: 49" in report
        assert "execute:" in report


class TestReferencePath:
    def test_nested_loop_tree_carries_stats(self, join_db):
        report = join_db.explain_analyze(JOIN_QUERY, optimize=False)
        assert "plan: reference pipeline" in report
        nested = next(
            line for line in report.splitlines() if "NestedLoopJoin" in line
        )
        assert STATS.search(nested), nested
        # The lateral right side runs once per left binding.
        right_scan = next(
            line for line in report.splitlines() if "Scan s AS s" in line
        )
        assert "calls=100" in right_scan
        assert "rows returned: 49" in report

    def test_where_stage_visible_when_not_pushed_down(self, join_db):
        report = join_db.explain_analyze(JOIN_QUERY, optimize=False)
        where_line = next(
            line
            for line in report.splitlines()
            if line.strip().startswith("WHERE")
        )
        assert "rows_in=100" in where_line and "rows_out=49" in where_line


class TestAgreementAcrossPaths:
    def test_row_counts_match(self, join_db):
        optimized = join_db.explain_analyze(JOIN_QUERY)
        reference = join_db.explain_analyze(JOIN_QUERY, optimize=False)
        def row_count(text):
            return re.search(r"rows returned: (\d+)", text).group(1)

        assert row_count(optimized) == row_count(reference) == "49"


def stage_rows(report: str) -> dict:
    """``stages:`` section of an EXPLAIN ANALYZE report: label → line."""
    lines = report.split("stages:\n")[1].split("\n\n")[0].splitlines()
    assert all(STATS.search(line) for line in lines), lines
    return {line.split("  (")[0].strip(): line for line in lines}


class TestTailStages:
    """Every blocking tail has its own ``stages:`` row — rows in / out
    and time — on both executors and on the oracle; window time is not
    billed to SELECT and ORDER BY time is not missing."""

    DIALS = [{}, ROWS, {"optimize": False}]

    @pytest.mark.parametrize("dials", DIALS, ids=str)
    def test_window_row(self, join_db, dials):
        stages = stage_rows(
            run(
                join_db.explain_analyze,
                "SELECT r.v AS v, RANK() OVER (PARTITION BY r.k ORDER BY r.v) AS rk "
                "FROM r AS r",
                **dials,
            )
        )
        assert list(stages) == ["FROM", "WINDOW", "SELECT"]
        assert "rows_out=100" in stages["WINDOW"]

    @pytest.mark.parametrize("dials", DIALS, ids=str)
    def test_order_by_row(self, join_db, dials):
        query = "SELECT VALUE r.v FROM r AS r ORDER BY r.k"
        stages = stage_rows(run(join_db.explain_analyze, query, **dials))
        assert list(stages) == ["FROM", "SELECT", "ORDER BY"]
        assert "rows_out=100" in stages["ORDER BY"]

    @pytest.mark.parametrize("dials", [{}, ROWS], ids=str)
    def test_top_k_row_and_the_deferred_select(self, join_db, dials):
        # No key can see a select alias: the keys are columns of the
        # binding rows and the SELECT runs for the three kept rows.
        report = run(
            join_db.explain_analyze,
            "SELECT r.v AS v FROM r AS r ORDER BY r.k DESC, r.v LIMIT 2 OFFSET 1",
            **dials,
        )
        stages = stage_rows(report)
        assert list(stages) == ["FROM", "TOP-K", "SELECT"]
        assert "rows_in=100 rows_out=3" in stages["TOP-K"]
        assert "rows_out=3" in stages["SELECT"]
        assert "rows returned: 2" in report
        # A key that names the alias sorts over the output rows.
        query = "SELECT r.v AS v FROM r AS r ORDER BY v DESC LIMIT 3"
        stages = stage_rows(run(join_db.explain_analyze, query, **dials))
        assert list(stages) == ["FROM", "SELECT", "TOP-K"]
        assert "rows_in=100 rows_out=3" in stages["TOP-K"]

    @pytest.mark.parametrize("dials", DIALS, ids=str)
    def test_pivot_row(self, join_db, dials):
        query = "PIVOT s.k AT s.name FROM s AS s"
        stages = stage_rows(run(join_db.explain_analyze, query, **dials))
        assert list(stages) == ["FROM", "PIVOT"]
        assert "rows_in=10 rows_out=1" in stages["PIVOT"]

    def test_grouped_and_distinct_sorts(self, join_db):
        query = "SELECT r.k AS k, COUNT(*) AS n FROM r AS r GROUP BY r.k ORDER BY n, k"
        stages = stage_rows(join_db.explain_analyze(query))
        assert list(stages) == ["FROM", "GROUP BY", "SELECT", "ORDER BY"]
        query = "SELECT DISTINCT r.k AS k FROM r AS r ORDER BY k"
        stages = stage_rows(join_db.explain_analyze(query))
        assert list(stages) == ["FROM", "SELECT DISTINCT", "ORDER BY"]
        assert "rows_in=100 rows_out=10" in stages["SELECT DISTINCT"]

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT k AS k, (SELECT VALUE x.r.v FROM g AS x) AS vs FROM r AS r "
            "GROUP BY r.k AS k GROUP AS g HAVING COLL_COUNT(g) > 9",
            "SELECT r.k AS k, COUNT(*) AS n FROM r AS r GROUP BY ROLLUP (r.k) "
            "HAVING COUNT(*) > 10",
        ],
        ids=["group_as", "rollup"],
    )
    def test_grouped_rows_agree_on_both_executors(self, join_db, query):
        # One fold on both executors: the same stages, the same rows.
        def rows(dials):
            stages = stage_rows(run(join_db.explain_analyze, query, **dials))
            return {
                name: re.search(r"(rows_in=\d+ )?rows_out=\d+", line).group(0)
                for name, line in stages.items()
            }

        batch = rows({})
        assert list(batch) == ["FROM", "GROUP BY", "HAVING", "SELECT"]
        assert rows(ROWS) == batch

    @pytest.mark.parametrize(
        "query, labels",
        [
            (
                "SELECT VALUE y FROM r AS r LET y = r.v + 1 WHERE y > r.k * 5",
                ["FROM", "LET", "WHERE", "SELECT"],
            ),
            (
                "SELECT r.k AS k, COUNT(*) AS n FROM r AS r GROUP BY r.k "
                "HAVING COUNT(*) > 9",
                ["FROM", "GROUP BY", "HAVING", "SELECT"],
            ),
            (
                "SELECT k AS k, (SELECT VALUE x.r.v FROM g AS x) AS vs FROM r AS r "
                "GROUP BY r.k AS k GROUP AS g",
                ["FROM", "GROUP BY", "SELECT"],
            ),
            (
                "SELECT DISTINCT VALUE r.k FROM r AS r",
                ["FROM", "SELECT DISTINCT"],
            ),
            (
                "SELECT VALUE r.v FROM r AS r WHERE r.v > r.k * 5 LIMIT 3",
                ["FROM", "SELECT"],
            ),
        ],
        ids=["let_where", "having", "group_as", "distinct", "limit"],
    )
    def test_stage_rows_agree_on_both_modes(self, join_db, query, labels):
        # One executor: the same stages, the same rows in and out.
        def rows(dials):
            stages = stage_rows(run(join_db.explain_analyze, query, **dials))
            return {
                name: re.search(r"(rows_in=\d+ )?rows_out=\d+", line).group(0)
                for name, line in stages.items()
            }

        batch = rows({})
        assert list(batch) == labels
        assert rows(ROWS) == batch

    #: Window keys, the deferred sort keys and PIVOT's operands are chunk
    #: kernels; keys that can see the output are evaluated per row in env
    #: space, and EXPLAIN says so.
    KERNEL_LINES = {
        "SELECT r.v AS v, RANK() OVER (PARTITION BY r.k ORDER BY r.v) AS rk "
        "FROM r AS r": (
            "kernels: 3 columnar (3 stored-column reads), no env-space fallback"
        ),
        "SELECT r.v AS v FROM r AS r ORDER BY r.k DESC, r.v LIMIT 3": (
            "kernels: 3 columnar (3 stored-column reads), no env-space fallback"
        ),
        "PIVOT s.k AT s.name FROM s AS s": (
            "kernels: 2 columnar (2 stored-column reads), no env-space fallback"
        ),
        "SELECT r.v AS v FROM r AS r ORDER BY v": (
            "kernels: 1 columnar (1 stored-column read), "
            "env-space fallback for v [VarRef]"
        ),
    }

    @pytest.mark.parametrize("query", list(KERNEL_LINES))
    def test_tail_kernels_and_their_fallbacks_are_counted(self, join_db, query):
        line = join_db.explain_plan(query).splitlines()[-1]
        assert line == self.KERNEL_LINES[query]


class TestEdgeShapes:
    def test_expression_only_query(self):
        report = Database().explain_analyze("1 + 1")
        assert "not a single query block" in report
        assert "phases:" in report

    def test_setop_body(self):
        db = Database()
        report = db.explain_analyze(
            "(SELECT VALUE x FROM [1] AS x) UNION ALL "
            "(SELECT VALUE x FROM [2] AS x)"
        )
        assert "not a single query block" in report

    def test_strict_mode_streams_the_operator_tree(self, join_db):
        # Strict blocks are planned too: the structural fold, with the
        # hash join (and the pushdown of ``r.v > 50``) withheld.
        report = join_db.explain_analyze(JOIN_QUERY, typing_mode="strict")
        join_line, scan_line = report.splitlines()[4:6]
        assert join_line.startswith(
            "  NestedLoopJoin[INNER] (right side materialized once)"
        )
        assert "rows_out=100" in join_line
        assert scan_line.startswith("    Scan r AS r") and "rows_out=100" in scan_line
        assert "WHERE (residual): (r.v > 50)" in report
        # ... and run on the chunk operators like permissive ones.
        assert "\nexecutor: batch\n" in report
        assert "reference" not in report and not UNPLANNED.search(report)
        assert "rows returned: 49" in report
        # Unless a dynamic error escapes the batch attempt: the block is
        # replayed on the stream, whose verdict — here a result, the
        # streamed EXISTS stops at 5 and never compares 'z' — is final.
        # The report is the replay's alone, plus the recorded decision.
        db = Database(typing_mode="strict")
        db.set("u", [{"id": 7, "xs": [5, 2, "z"]}, {"id": 8, "xs": [0]}])
        query = (
            "SELECT VALUE u.id FROM u AS u WHERE EXISTS "
            "(SELECT VALUE x FROM u.xs AS x WHERE x > 1)"
        )
        report = db.explain_analyze(query)
        assert (
            "\nexecutor: batch → stream (replayed after TypeCheckError)\n"
            "kernels: none (no block runs on the batch executor)"
        ) in report
        assert "  Scan u AS u  (calls=1 rows_out=2 " in report
        stages = report.split("stages:")[1].split("executor:")[0]
        names = [line.split()[0] for line in stages.splitlines()[1:4]]
        assert names == ["FROM", "WHERE", "SELECT"]
        assert stages.count("calls=1 ") == 3
        assert "rows returned: 1" in report
        assert (db.metrics.last.batched, db.metrics.last.streamed) == (False, True)
        # EXPLAIN (no run to report on) names the executor it will try.
        assert "\nexecutor: batch\n" in db.explain_plan(query)
        tree = db.trace(query).format_tree()
        assert tree.count("Scan u AS u [operator]") == 1
        assert tree.count("replay  ") == 1 and "after=TypeCheckError" in tree

    @pytest.mark.parametrize(
        "query, dials",
        [
            (PRUNED_QUERY, {}),
            (PRUNED_QUERY, ROWS),
            # The same block as a per-row subquery.
            (
                "SELECT y.k AS k, (SELECT VALUE x.v FROM r AS x "
                "WHERE x.v > 5 AND x.v < 3) AS vs FROM s AS y",
                {},
            ),
        ],
        ids=["limit", "batch-off", "per-row-subquery"],
    )
    def test_pruned_block_streams_under_a_timing_tracer(self, join_db, query, dials):
        # The Empty operator produces a plain tuple iterator: the
        # traced stream must close it like every other stream does.
        report = run(join_db.explain_analyze, query, **dials)
        assert "phases:" in report
        if query is PRUNED_QUERY:
            assert "  Empty (" in report and "rows_out=0" in report
            assert "rows returned: 0" in report
        else:
            assert "rows returned: 10" in report


class TestOneInternalRun:
    """EXPLAIN ANALYZE takes Core, fired rewrites and the metrics
    record from its one internal run — no second compile, no reading
    ``metrics.last`` back."""

    def test_one_compile_lookup_and_one_record_per_call(self, join_db):
        join_db.execute(JOIN_QUERY)
        counters = join_db.metrics.counters
        hits, misses = counters["compile_cache_hits"], counters["compile_cache_misses"]
        total = counters["queries_total"]
        for call in range(1, 4):
            join_db.explain_analyze(JOIN_QUERY)
            assert counters["compile_cache_hits"] == hits + call
            assert counters["compile_cache_misses"] == misses
            assert counters["queries_total"] == total + call

    def test_phases_block(self, join_db):
        join_db.execute(JOIN_QUERY)
        report = join_db.explain_analyze(JOIN_QUERY)
        phases = report[report.index("phases:"):].splitlines()
        assert [line.split(":")[0].strip() for line in phases] == [
            "phases", "parse", "rewrite", "plan", "execute", "total",
            "rows returned",
        ]
        assert "(compile cache: hit)" in phases[2]

    def test_phases_are_this_runs_record_not_metrics_last(
        self, join_db, monkeypatch
    ):
        from repro.observability import MetricsRegistry, QueryMetrics

        join_db.execute(JOIN_QUERY)
        record = MetricsRegistry.record

        def record_then_lose_the_race(registry, metrics):
            # Another thread's query finishes right after ours.
            record(registry, metrics)
            record(registry, QueryMetrics(query="someone else's", plan_s=None))

        monkeypatch.setattr(MetricsRegistry, "record", record_then_lose_the_race)
        report = join_db.explain_analyze(JOIN_QUERY)
        assert join_db.metrics.last.query == "someone else's"
        assert "(compile cache: hit)" in report
        assert "  plan: " in report


class TestPlanReuseIsARecordedDecision:
    """EXPLAIN / EXPLAIN ANALYZE say whether the plan was reused or
    rebuilt, and why; ``stats:`` always shows the current row counts;
    the counters behind both are exported (docs/PLANNER.md,
    "Statistics")."""

    QUERY = "SELECT e.kind AS kind, COUNT(*) AS n FROM events AS e GROUP BY e.kind"
    OTHER = "SELECT VALUE s.name FROM s AS s"

    @staticmethod
    def rows(start, stop):
        return [{"id": i, "kind": "k%d" % (i % 3)} for i in range(start, stop)]

    @staticmethod
    def line(report, prefix):
        return next(line for line in report.splitlines() if line.startswith(prefix))

    @pytest.fixture
    def db(self, join_db):
        join_db.set("events", self.rows(0, 3000))
        for _ in range(3):  # past the feedback-sampled run and its re-plan
            join_db.execute(self.QUERY)
            join_db.execute(self.OTHER)
        return join_db

    def test_first_plan_says_built(self, join_db):
        join_db.set("events", self.rows(0, 30))
        report = join_db.explain_plan(self.QUERY)
        assert self.line(report, "plan:") == "plan: built — first use"
        # ... and explained again, it is the cached one.
        assert "plan: reused — events +0.0 % rows" in join_db.explain_plan(self.QUERY)

    @pytest.mark.parametrize("surface", ["explain_plan", "explain_analyze"])
    def test_small_insert_reuses_and_says_how_far_the_data_moved(self, db, surface):
        db.insert("events", self.rows(3000, 3200))
        report = getattr(db, surface)(self.QUERY)
        assert self.line(report, "plan:") == (
            "plan: reused — events +6.7 % rows since planned (tolerance 10 %)"
        )
        # The estimate is the plan's, the statistics are today's.
        assert self.line(report, "stats:").startswith("stats: events: rows=3200 ")
        if surface == "explain_analyze":
            assert "(est=3000 actual=3200 q-err=1.07)" in report
        # Mutating ``events`` is not a reason to look at ``s`` again.
        assert self.line(getattr(db, surface)(self.OTHER), "plan:") == (
            "plan: reused — s +0.0 % rows since planned (tolerance 10 %)"
        )

    @pytest.mark.parametrize("surface", ["explain_plan", "explain_analyze"])
    def test_rebuilt_names_the_collection_and_the_reason(self, db, surface):
        db.insert("events", self.rows(3000, 3400))
        assert self.line(getattr(db, surface)(self.QUERY), "plan:") == (
            "plan: rebuilt — events grew +13.3 % rows (tolerance 10 %)"
        )
        db.set("events", self.rows(0, 10))
        report = getattr(db, surface)(self.QUERY)
        assert self.line(report, "plan:") == "plan: rebuilt — events replaced"
        assert self.line(report, "stats:").startswith("stats: events: rows=10 ")

    def test_feedback_rebuild_says_so(self, join_db):
        join_db.set("events", self.rows(0, 30))
        # The feedback-sampled first run observes 30 rows where the
        # range-filter selectivity guessed 10: worth a re-plan.
        query = "SELECT VALUE e.id FROM events AS e WHERE e.id >= 0"
        join_db.execute(query)
        report = join_db.explain_analyze(query)
        assert self.line(report, "plan:") == (
            "plan: rebuilt — new cardinality feedback on events"
        )
        assert "est=30 actual=30" in report
        # An observation that confirms the estimate is not.
        join_db.execute(self.QUERY)
        assert self.line(join_db.explain_plan(self.QUERY), "plan:").startswith(
            "plan: reused — events +0.0 % rows"
        )

    def test_decisions_do_not_change_the_plan_hash(self, db):
        db.execute(self.QUERY)
        before = db.metrics.last.plan_hash
        for stop in (3200, 3400):  # reused, then rebuilt over new statistics
            db.insert("events", self.rows(stop - 200, stop))
            db.execute(self.QUERY)
            assert db.metrics.last.plan_hash == before
        assert db.query_store().plan_change_count == 0

    def test_counters_are_exported(self, db):
        counters = db.metrics.counters
        assert counters["stats_collected"] == 2 and counters["stats_advanced"] == 0
        rebuilt = counters["plans_rebuilt"]
        db.insert("events", self.rows(3000, 3200))
        db.execute(self.QUERY)
        assert counters["stats_advanced"] == 1 and counters["plans_rebuilt"] == rebuilt
        db.insert("events", self.rows(3200, 3400))
        db.execute(self.QUERY)
        assert counters["stats_advanced"] == 2
        assert counters["plans_rebuilt"] == rebuilt + 1
        assert counters["stats_collected"] == 2
        text = db.metrics.expose_text()
        assert "repro_stats_advanced_total 2" in text
        assert "repro_stats_collected_total 2" in text
        assert f"repro_plans_rebuilt_total {rebuilt + 1}" in text
