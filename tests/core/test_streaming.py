"""The pipelined (streaming) clause engine: consumers, laziness, edges.

These tests pin the *observable contract* of streaming execution
(docs/PLANNER.md, docs/LANGUAGE.md §8):

* bounded consumers — top-K ``ORDER BY ... LIMIT``, plain ``LIMIT``,
  ``EXISTS``, ``IN (subquery)`` — stop pulling rows once the answer is
  decided, which is visible both through lazy collections (how many
  elements the factory yields) and through strict-mode error
  visibility (errors in rows that are never pulled never surface);
* the top-K heap and the deferred-select (late materialization) rewrite
  agree exactly with the eager reference semantics on everything they
  *do* evaluate;
* ``QueryMetrics.streamed`` reports which engine ran.
"""

import pytest

from repro import Database
from repro.datamodel import Bag, LazyBag, from_python
from repro.errors import EvaluationError, TypeCheckError
from repro.observability import ExecTracer
from tests.rows_mode import ROWS, run


@pytest.fixture
def db():
    database = Database()
    database.set("t", [{"k": i % 7, "v": i} for i in range(50)])
    return database


class CountingSource:
    """A ``set_lazy`` factory that counts how many elements it yielded."""

    def __init__(self, rows):
        self.rows = rows
        self.yielded = 0

    def __call__(self):
        for row in self.rows:
            self.yielded += 1
            yield row


class TestStreamedFlag:
    def test_streaming_query_sets_flag(self, db):
        db.execute("SELECT VALUE t.v FROM t AS t")
        assert db.metrics.last.streamed is True

    def test_reference_path_does_not(self, db):
        db.execute("SELECT VALUE t.v FROM t AS t", optimize=False)
        assert db.metrics.last.streamed is False

    def test_strict_mode_streams_too(self, db):
        db.execute("SELECT VALUE t.v FROM t AS t", typing_mode="strict")
        assert db.metrics.last.streamed is True

    def test_window_functions_stream(self, db):
        # Windows are a blocking tail over key columns, not a third
        # executor: chunk kernels produce them on the batch executor,
        # per-row closures in rows mode.
        query = (
            "SELECT t.v AS v, ROW_NUMBER() OVER (ORDER BY t.v) AS rn "
            "FROM t AS t"
        )
        rows = db.execute(query)
        assert db.metrics.last.streamed is True
        assert db.metrics.last.batched is True
        assert sorted(row["rn"] for row in rows) == list(range(1, 51))
        assert "executor: batch" in db.explain_plan(query)
        assert run(db.execute, query, rows=True) == rows
        assert db.metrics.last.batched is False

    def test_pivot_from_less_and_set_operations_stream(self, db):
        for query in (
            "PIVOT t.v AT 'k' || CAST(t.v AS STRING) FROM t AS t",
            "SELECT VALUE 1",
            "SELECT VALUE t.v FROM t AS t UNION ALL SELECT VALUE t.v FROM t AS t",
        ):
            db.execute(query)
            assert db.metrics.last.streamed is True, query

    def test_expression_only_query_does_not_stream(self, db):
        db.execute("1 + 1")
        assert db.metrics.last.streamed is False


class TestEarlyTermination:
    """Strict-mode error visibility under early termination.

    Decision log (docs/LANGUAGE.md §8): a bounded consumer never pulls
    rows past the point where its answer is decided, so a strict-mode
    type error hiding in an *unconsumed* row does not surface under
    ``optimize=True``.  Errors in consumed rows surface on both paths.
    """

    @pytest.fixture
    def poisoned(self):
        database = Database()
        # Row 3 poisons any comparison against a number in strict mode.
        rows = [{"n": i if i != 3 else "three"} for i in range(10)]
        database.set("p", rows)
        return database

    def test_error_in_consumed_row_surfaces_on_both_paths(self, poisoned):
        query = "SELECT VALUE p.n FROM p AS p WHERE p.n < 100 LIMIT 8"
        for optimize in (True, False):
            with pytest.raises(TypeCheckError):
                poisoned.execute(query, typing_mode="strict", optimize=optimize)

    def test_error_past_the_limit_is_skipped_when_streaming(self, poisoned):
        query = "SELECT VALUE p.n FROM p AS p WHERE p.n < 100 LIMIT 3"
        assert poisoned.execute(query, typing_mode="strict") == Bag([0, 1, 2])
        # The eager reference path evaluates every row before LIMIT cuts,
        # so the same query errors there — the pinned divergence.
        with pytest.raises(TypeCheckError):
            poisoned.execute(query, typing_mode="strict", optimize=False)

    def test_exists_stops_before_the_poisoned_row(self, poisoned):
        query = (
            "SELECT VALUE EXISTS "
            "(SELECT VALUE p.n FROM p AS p WHERE p.n >= 0) FROM [1] AS one"
        )
        assert poisoned.execute(query, typing_mode="strict") == Bag([True])
        with pytest.raises(TypeCheckError):
            poisoned.execute(query, typing_mode="strict", optimize=False)

    def test_deferred_select_skips_evicted_projections(self):
        # The ORDER BY key (p.n) is clean but the projected attribute
        # p.x is poisoned on row 3, which the top-K evicts.  Under late
        # materialization the projection only runs for the survivors,
        # so the streamed query succeeds where the eager one errors.
        database = Database()
        database.set(
            "p", [{"n": i, "x": 0 if i != 3 else "bad"} for i in range(10)]
        )
        query = "SELECT p.n AS n, p.x + 1 AS y FROM p AS p ORDER BY p.n LIMIT 3"
        result = database.execute(query, typing_mode="strict")
        assert [row["n"] for row in result] == [0, 1, 2]
        with pytest.raises(TypeCheckError):
            database.execute(query, typing_mode="strict", optimize=False)


class TestStrictRowOrder:
    """Under strict typing the stream is the replay target, so it pulls
    one row at a time through every operator: evaluated row-major, ``l``'s
    first row divides by zero (``EvaluationError``) before the second
    row's ``'x'`` meets an arithmetic operator (``TypeCheckError``, which
    the column-major batch attempt raises first)."""

    LATERAL = "SELECT VALUE x FROM l AS l JOIN [10 / l.a] AS x ON x / 0 > 1"
    JOIN = "SELECT VALUE l.a FROM l AS l JOIN r AS r ON (l.a + 1) > (10 / r.b)"

    @pytest.fixture
    def strict_db(self):
        database = Database(typing_mode="strict")
        database.set("l", [{"a": 1, "xs": [0, 1]}, {"a": "x", "xs": [0]}])
        database.set("r", [{"b": 0}, {"b": 2}])
        return database

    @pytest.mark.parametrize(
        "query",
        [
            LATERAL,
            LATERAL + " LIMIT 1",
            JOIN,
            JOIN + " LIMIT 1",
            f"SELECT VALUE EXISTS ({JOIN}) FROM [1] AS one",
        ],
    )
    @pytest.mark.parametrize(
        "dials", [{"optimize": False}, {}, ROWS],
        ids=["reference", "default", "stream"],
    )
    def test_errors_surface_in_row_order(self, strict_db, query, dials):
        with pytest.raises(EvaluationError):
            run(strict_db.execute, query, **dials)

    #: Stage-level shapes over ``l = [{a: 1, s: 'x'}, {a: 0, s: 1}]``:
    #: one row's LET, WHERE, GROUP BY keys and (lazy) SELECT run before
    #: the next row's, so row 0's ``'x'`` raises before row 1 divides by
    #: zero — except where a sort drains the WHERE first.
    STAGE_SHAPES = [
        ("SELECT VALUE y FROM l AS l LET y = 10 / l.a WHERE y + l.s > 0",
         TypeCheckError),
        ("SELECT VALUE y FROM l AS l LET y = 10 / l.a WHERE y + l.s > 0 LIMIT 5",
         TypeCheckError),
        ("SELECT VALUE y FROM l AS l LET y = 10 / l.a WHERE y + l.s > 0 ORDER BY y",
         TypeCheckError),
        ("SELECT VALUE y FROM l AS l LET y = 10 / l.a, x = l.a + l.s", TypeCheckError),
        ("SELECT VALUE y FROM l AS l LET y = 10 / l.a, x = l.a + l.s ORDER BY l.a",
         TypeCheckError),
        ("SELECT VALUE y FROM l AS l LET y = 10 / l.a, x = l.a + l.s LIMIT 1",
         TypeCheckError),
        ("SELECT VALUE l.a + l.s FROM l AS l WHERE 10 / l.a > 0", TypeCheckError),
        ("SELECT VALUE l.a + l.s FROM l AS l WHERE 10 / l.a > 0 ORDER BY l.a",
         EvaluationError),
        ("SELECT k1 AS k1 FROM l AS l GROUP BY 10 / l.a AS k1, l.a + l.s AS k2",
         TypeCheckError),
        ("SELECT VALUE [10 / l.a, l.a + l.s] FROM l AS l ORDER BY l.a", TypeCheckError),
    ]

    @pytest.mark.parametrize("query, error", STAGE_SHAPES)
    @pytest.mark.parametrize("dials", [{}, ROWS], ids=["default", "stream"])
    def test_clauses_run_a_row_at_a_time(self, query, error, dials):
        database = Database(typing_mode="strict")
        database.set("l", [{"a": 1, "s": "x"}, {"a": 0, "s": 1}])
        with pytest.raises(error) as raised:
            run(database.execute, query, **dials)
        assert type(raised.value) is error

    def test_exists_in_on_stops_at_its_first_hit(self):
        # The stream's ON is the EXISTS closure, which stops at 5; a
        # kernel over the whole collection would compare 'z' > 1.
        database = Database(typing_mode="strict")
        database.set("t", [{"id": 1, "xs": [5, 2, "z"]}])
        database.set("u", [{"k": 1}])
        query = (
            "SELECT VALUE a.id FROM t AS a JOIN u AS b ON EXISTS "
            "(SELECT VALUE x FROM a.xs AS x WHERE x > 1)"
        )
        assert database.execute(query) == Bag([1])
        assert run(database.execute, query, rows=True) == Bag([1])

    def test_the_batch_attempt_is_replayed(self, strict_db):
        tracer = ExecTracer()
        with pytest.raises(EvaluationError):
            strict_db.execute(self.LATERAL, tracer=tracer)
        body = strict_db.compile(self.LATERAL).body
        assert tracer.replay_of(body) == "TypeCheckError"


class TestLazyCollections:
    def test_set_lazy_round_trips(self):
        db = Database()
        db.set_lazy("lz", lambda: ({"v": i} for i in range(5)))
        assert db.execute("SELECT VALUE l.v FROM lz AS l") == Bag(range(5))
        # The factory is re-invoked per traversal, not consumed once.
        assert db.execute("SELECT VALUE l.v FROM lz AS l") == Bag(range(5))

    def test_lazybag_streams_per_traversal(self):
        bag = LazyBag(lambda: iter([from_python({"v": 1})]))
        assert len(bag) == 1
        with pytest.raises(TypeError):
            bag.add(from_python({"v": 2}))

    def test_limit_pulls_only_what_it_returns(self):
        source = CountingSource([{"v": i} for i in range(1000)])
        db = Database()
        db.set_lazy("lz", source)
        result = db.execute("SELECT VALUE l.v FROM lz AS l LIMIT 3")
        assert result == Bag([0, 1, 2])
        assert source.yielded == 3

    def test_exists_pulls_one_row(self):
        source = CountingSource([{"v": i} for i in range(1000)])
        db = Database()
        db.set_lazy("lz", source)
        result = db.execute(
            "SELECT VALUE EXISTS (SELECT VALUE l.v FROM lz AS l) "
            "FROM [1] AS one"
        )
        assert result == Bag([True])
        assert source.yielded == 1

    def test_in_subquery_stops_at_first_match(self):
        source = CountingSource([{"v": i} for i in range(1000)])
        db = Database()
        db.set_lazy("lz", source)
        result = db.execute(
            "SELECT VALUE 2 IN (SELECT VALUE l.v FROM lz AS l) "
            "FROM [1] AS one"
        )
        assert result == Bag([True])
        assert source.yielded == 3

    @pytest.mark.parametrize(
        "query, expected, yielded",
        [
            # A pushed filter: the scan pulls until three rows survive.
            (
                "SELECT VALUE l.v FROM lz AS l WHERE l.v >= 10 LIMIT 3",
                Bag([10, 11, 12]),
                13,
            ),
            (
                "SELECT VALUE EXISTS (SELECT VALUE l.v FROM lz AS l "
                "WHERE l.v >= 10) FROM [1] AS one",
                Bag([True]),
                11,
            ),
            # A comma cross product: each left row pairs with both of
            # the right side's rows before the next left row is pulled.
            (
                "SELECT VALUE l.v FROM lz AS l, [1, 2] AS b LIMIT 3",
                Bag([0, 0, 1]),
                2,
            ),
            (
                "SELECT VALUE EXISTS (SELECT VALUE l.v FROM lz AS l, "
                "[1, 2] AS b) FROM [1] AS one",
                Bag([True]),
                1,
            ),
        ],
    )
    def test_early_consumers_pull_through_operators(self, query, expected, yielded):
        source = CountingSource([{"v": i} for i in range(1000)])
        db = Database()
        db.set_lazy("lz", source)
        assert db.execute(query) == expected
        assert source.yielded == yielded

    def test_top_k_consumes_everything_but_keeps_k(self):
        # Top-K must see every row (the minimum could be last); the win
        # is memory and skipped projections, not skipped input.
        source = CountingSource([{"v": i} for i in range(200)])
        db = Database()
        db.set_lazy("lz", source)
        result = db.execute(
            "SELECT VALUE l.v FROM lz AS l ORDER BY l.v DESC LIMIT 2"
        )
        assert list(result) == [199, 198]
        assert source.yielded == 200


class TestTopKEdges:
    """The top-K heap agrees with the eager stable sort on edge shapes."""

    def run_both(self, db, query):
        streamed = db.execute(query, optimize=True)
        reference = db.execute(query, optimize=False)
        assert list(streamed) == list(reference)
        return list(streamed)

    def test_limit_zero(self, db):
        assert self.run_both(
            db, "SELECT VALUE t.v FROM t AS t ORDER BY t.v LIMIT 0"
        ) == []

    def test_offset_beyond_input(self, db):
        assert self.run_both(
            db, "SELECT VALUE t.v FROM t AS t ORDER BY t.v LIMIT 5 OFFSET 90"
        ) == []

    def test_limit_beyond_input(self, db):
        assert len(
            self.run_both(
                db, "SELECT VALUE t.v FROM t AS t ORDER BY t.v LIMIT 500"
            )
        ) == 50

    def test_stable_on_duplicate_keys(self, db):
        # t.k has duplicates; ties must come out in input order, exactly
        # like the reference's stable sort.
        rows = self.run_both(
            db,
            "SELECT t.k AS k, t.v AS v FROM t AS t ORDER BY t.k LIMIT 10",
        )
        assert [row["v"] for row in rows] == [0, 7, 14, 21, 28, 35, 42, 49, 1, 8]

    def test_mixed_directions_and_nulls(self):
        db = Database()
        db.set(
            "m",
            [
                {"a": 1, "b": None, "v": 0},
                {"a": 1, "v": 1},  # b MISSING
                {"a": 2, "b": 5, "v": 2},
                {"a": 1, "b": 3, "v": 3},
            ],
        )
        self.run_both(
            db,
            "SELECT m.v AS v FROM m AS m "
            "ORDER BY m.a DESC, m.b NULLS FIRST LIMIT 3",
        )

    def test_order_by_select_alias_is_not_deferred(self, db):
        # The ORDER BY key names a select alias, so late materialization
        # must not fire (the key needs the projected struct); results
        # still match the reference.
        rows = self.run_both(
            db,
            "SELECT t.v AS ranked FROM t AS t ORDER BY ranked DESC LIMIT 3",
        )
        assert [row["ranked"] for row in rows] == [49, 48, 47]


class TestExplainStreaming:
    def test_explain_plan_names_the_consumer(self, db):
        plan = db.explain_plan(
            "SELECT VALUE t.v FROM t AS t ORDER BY t.v LIMIT 3"
        )
        assert "consumer: top-K (ORDER BY with LIMIT)" in plan
        plan = db.explain_plan("SELECT VALUE t.v FROM t AS t LIMIT 3")
        assert "early termination" in plan
        plan = db.explain_plan("SELECT VALUE t.v FROM t AS t")
        assert "streamed bag" in plan

    def test_non_streamable_shapes_have_no_consumer_line(self, db):
        assert "consumer:" not in Database().explain_plan("1 + 1")

    def test_analyze_row_counts_are_exact_under_streaming(self, db):
        # The planner pushes t.v < 10 into the scan; the scan operator
        # must report the exact pre/post-filter cardinalities even
        # though rows now flow one at a time.
        report = db.explain_analyze(
            "SELECT VALUE t.v FROM t AS t WHERE t.v < 10"
        )
        scan_line = next(
            line for line in report.splitlines() if "Scan" in line
        )
        assert "rows_in=50" in scan_line and "rows_out=10" in scan_line
        assert "rows returned: 10" in report

    def test_analyze_shows_early_termination_counts(self, db):
        report = db.explain_analyze("SELECT VALUE t.v FROM t AS t LIMIT 4")
        from_stage = next(
            line
            for line in report.splitlines()
            if line.strip().startswith("FROM") and "rows_out" in line
        )
        # Only the four consumed rows were ever pulled from the scan.
        assert "rows_out=4" in from_stage
        scan_line = next(
            line for line in report.splitlines() if "Scan" in line
        )
        assert "rows_out=4" in scan_line
