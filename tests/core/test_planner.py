"""The physical planner: rewrite selection, fallback rules, and
optimized-vs-reference result parity (docs/PLANNER.md).

Every test that runs a query checks ``optimize=True`` against
``optimize=False`` — the reference Core semantics — so a planner bug
shows up as a parity failure, not just a wrong literal.
"""

from __future__ import annotations

import pytest

from repro import Database, EvalConfig, TypeCheckError, errors, to_python
from repro.core.plan_ops import MaterializeJoinOp, ScanOp
from repro.core.planner import (
    free_names,
    is_relocatable,
    plan_block,
    split_conjuncts,
)
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag
from repro.observability import ExecTracer
from repro.syntax.parser import parse_expression
from tests.rows_mode import ROWS, run


def both_ways(db: Database, query: str, **kwargs):
    """Run optimized and reference; assert parity; return the result."""
    optimized = db.execute(query, optimize=True, **kwargs)
    reference = db.execute(query, optimize=False, **kwargs)
    left = Bag(list(optimized)) if isinstance(optimized, (list, Bag)) else optimized
    right = Bag(list(reference)) if isinstance(reference, (list, Bag)) else reference
    assert deep_equals(left, right), (
        f"planner parity violation for {query!r}:\n"
        f"  optimized: {to_python(optimized)!r}\n"
        f"  reference: {to_python(reference)!r}"
    )
    return optimized


@pytest.fixture
def join_db() -> Database:
    db = Database()
    db.set("users", [{"uid": i, "dept": i % 3, "name": f"u{i}"} for i in range(8)])
    db.set(
        "orders",
        [{"oid": i, "user_id": i % 10, "total": i * 10} for i in range(12)],
    )
    db.set("depts", [{"dno": 0, "dname": "eng"}, {"dno": 1, "dname": "ops"}])
    return db


# =========================================================================
# Plan selection
# =========================================================================


class TestPlanSelection:
    def plan_for(self, db, query, **config_kwargs):
        core = db.compile(query)
        config = EvalConfig(**config_kwargs)
        return plan_block(core.body, config)

    def test_equi_join_hashes(self, join_db):
        plan = self.plan_for(
            join_db,
            "SELECT u.uid AS uid FROM users AS u "
            "JOIN orders AS o ON o.user_id = u.uid",
        )
        assert plan is not None
        assert any("hash-equi-join" in r for r in plan.rewrites)

    def test_correlated_right_side_stays_nested_loop(self, join_db):
        join_db.set("emp", [{"id": 1, "projects": [{"name": "p"}]}])
        plan = self.plan_for(
            join_db,
            "SELECT e.id AS id FROM emp AS e "
            "JOIN e.projects AS p ON p.name = 'p'",
        )
        # Lateral right side: no hash join may fire on this item.
        assert plan is None or not any(
            "hash-equi-join" in r for r in plan.rewrites
        )

    def test_non_equi_on_materializes(self, join_db):
        plan = self.plan_for(
            join_db,
            "SELECT u.uid AS uid FROM users AS u "
            "JOIN orders AS o ON o.total > u.uid",
        )
        assert plan is not None
        assert any("materialize-right" in r for r in plan.rewrites)
        assert not any("hash-equi-join" in r for r in plan.rewrites)

    def test_strict_mode_never_plans(self, join_db):
        # ... a rewrite that could hide an error: the block is planned
        # (its tree is the only FROM enumerator), the equi-join is not
        # hashed — a key-category mismatch must raise, not "not match".
        plan = self.plan_for(
            join_db,
            "SELECT u.uid AS uid FROM users AS u "
            "JOIN orders AS o ON o.user_id = u.uid WHERE u.dept = 1",
            typing_mode="strict",
        )
        assert isinstance(plan.op, MaterializeJoinOp)
        assert plan.rewrites == [
            "materialize-right[INNER]: right side enumerated once"
        ]
        assert plan.residual_where is not None and not plan.op.left.filters

    def test_optimize_off_never_plans(self, join_db, monkeypatch):
        # ``optimize=False`` is the reference interpreter: it never
        # reaches the planner, on any surface.
        from repro.core import planner

        def boom(*args, **kwargs):
            raise AssertionError("optimize=False reached the planner")

        monkeypatch.setattr(planner, "plan_block", boom)
        query = (
            "SELECT u.uid AS uid FROM users AS u "
            "JOIN orders AS o ON o.user_id = u.uid"
        )
        assert len(join_db.execute(query, optimize=False)) == 10
        assert "reference pipeline" in join_db.explain_analyze(
            query, optimize=False
        )

    def test_pushdown_skipped_with_let(self, join_db):
        core = join_db.compile(
            "FROM users AS u LET d = u.dept WHERE u.dept = 1 AND d = 1 "
            "SELECT u.uid AS uid"
        )
        plan = plan_block(core.body, EvalConfig())
        # LET evaluates between FROM and WHERE: nothing may be pushed.
        assert plan is None or plan.residual_where is core.body.where

    def test_single_scan_without_filter_uses_reference(self, join_db):
        # One plan per block: a rewrite-free block still has its plan (a
        # bare scan tree) ...
        query = "SELECT u.uid AS uid FROM users AS u"
        plan = self.plan_for(join_db, query)
        assert plan is not None and plan.rewrites == []
        assert isinstance(plan.op, ScanOp)
        # ... and every executor enumerates FROM through it — the
        # reference FROM loop is the oracle's alone: streamed, the scan
        # operator runs and no per-item statistics are recorded.
        core = join_db.compile(query)
        hashes = set()
        for dials in (ROWS, {}):
            tracer = ExecTracer()
            run(join_db.execute, query, tracer=tracer, **dials)
            ran = tracer.plan_for(core.body)
            assert isinstance(ran.op, ScanOp)
            assert tracer.op_stats(ran.op).rows_out == 8
            assert tracer.item_stats(core.body.from_[0]) is None
            hashes.add(join_db.metrics.last.plan_hash)
        assert join_db.metrics.last.batched is True
        assert len(hashes) == 1 and "reference" not in hashes
        tracer = ExecTracer()
        join_db.execute(query, optimize=False, tracer=tracer)
        assert tracer.plan_for(core.body) is None
        assert join_db.metrics.last.plan_hash == "reference"

    def test_only_the_refusal_ladder_returns_no_plan(self, join_db):
        # The one fact left: a block without FROM has nothing to plan.
        core = join_db.compile("SELECT VALUE 1")
        assert plan_block(core.body, EvalConfig()) is None
        assert plan_block(core.body, EvalConfig(typing_mode="strict")) is None


# =========================================================================
# Strict typing mode: the structural fold applies, every rewrite that can
# turn an error into a result is withheld (docs/PLANNER.md)
# =========================================================================

#: The engine on both executors' dials, and the oracle.
THREE_WAYS = ({}, ROWS, {"optimize": False})


class TestStrictWithheldRewrites:
    @pytest.fixture
    def db(self) -> Database:
        db = Database()
        db.set("typed", [{"k": 1, "a": 1}, {"k": "one", "a": 2}])
        db.set("empty", [])
        db.set("scalar", 5)
        return db

    def rewrites(self, db, query):
        text = db.explain_plan(query, typing_mode="strict")
        fired = text.split("rewrites fired:\n")[1].split("\nconsumer:")[0]
        return [line.strip("- ").split(":")[0] for line in fired.splitlines()]

    @pytest.mark.parametrize("dials", THREE_WAYS)
    def test_equi_join_key_category_mismatch_raises(self, db, dials):
        query = "SELECT l.a AS a FROM typed AS l JOIN typed AS r ON l.k = r.k"
        with pytest.raises(TypeCheckError):
            run(db.execute, query, typing_mode="strict", **dials)
        # Permissive, the mismatch is "no match" and the join hashes.
        assert len(run(db.execute, query, **dials)) == 2

    @pytest.mark.parametrize("dials", THREE_WAYS)
    def test_conjunct_raising_on_an_excluded_row_still_raises(self, db, dials):
        # Pushed down, ``l.a = 1`` would drop the row ``l.k < 5`` raises on.
        query = (
            "SELECT VALUE l.a FROM typed AS l, typed AS r "
            "WHERE l.a = 1 AND l.k < 5"
        )
        with pytest.raises(TypeCheckError):
            run(db.execute, query, typing_mode="strict", **dials)
        assert to_python(run(db.execute, query, **dials)) == [1, 1]

    @pytest.mark.parametrize("dials", THREE_WAYS)
    def test_empty_range_with_a_raising_sibling_is_not_pruned(self, db, dials):
        query = (
            "SELECT VALUE l.a FROM typed AS l "
            "WHERE l.a > 5 AND l.a < 3 AND l.k < 5"
        )
        with pytest.raises(TypeCheckError):
            run(db.execute, query, typing_mode="strict", **dials)
        assert to_python(run(db.execute, query, **dials)) == []

    @pytest.mark.parametrize("dials", THREE_WAYS)
    def test_right_side_of_an_empty_left_side_is_never_enumerated(self, db, dials):
        # ``scalar`` is not a collection: enumerating it raises.
        query = "SELECT VALUE b FROM {left} AS a, scalar AS b"
        empty = run(
            db.execute,
            query.format(left="empty"), typing_mode="strict", **dials
        )
        assert to_python(empty) == []
        with pytest.raises(TypeCheckError):
            run(db.execute, query.format(left="typed"), typing_mode="strict", **dials)

    def test_explain_lists_only_materialize_rewrites(self, db):
        assert self.rewrites(
            db,
            "SELECT l.a AS a FROM typed AS l JOIN typed AS r ON l.k = r.k "
            "WHERE l.a = 1 AND TRUE",
        ) == ["materialize-right[INNER]"]
        assert self.rewrites(
            db, "SELECT VALUE b FROM empty AS a, scalar AS b WHERE a.x = 1"
        ) == ["materialize-once"]
        assert self.rewrites(
            db, "SELECT VALUE l.a FROM typed AS l WHERE l.a > 5 AND l.a < 3"
        ) == ["(none)"]
        text = db.explain_plan(
            "SELECT VALUE l.a FROM typed AS l WHERE l.a > 5 AND l.a < 3",
            typing_mode="strict",
        )
        assert "  Scan typed AS l" in text and "pruned:" not in text
        assert "unplanned" not in text


# =========================================================================
# Result parity across the fallback rules (satellite: planner fallback)
# =========================================================================


class TestFallbackParity:
    def test_correlated_lateral_right_side(self, join_db):
        join_db.set(
            "emp",
            [
                {"id": 1, "projects": [{"name": "a"}, {"name": "b"}]},
                {"id": 2, "projects": []},
                {"id": 3},
            ],
        )
        result = both_ways(
            join_db,
            "SELECT e.id AS id, p.name AS name FROM emp AS e "
            "LEFT JOIN e.projects AS p ON p.name != 'b'",
        )
        # emp 1 matches only 'a'; emp 2 (empty) and emp 3 (missing) pad.
        assert len(result) == 3

    def test_non_equi_on(self, join_db):
        both_ways(
            join_db,
            "SELECT u.uid AS uid, o.oid AS oid FROM users AS u "
            "JOIN orders AS o ON o.total > u.uid * 10",
        )

    def test_on_referencing_missing_fields(self, join_db):
        join_db.set(
            "left_t",
            [{"k": 1}, {"k": None}, {"x": "no k attribute"}, {"k": 2}],
        )
        join_db.set("right_t", [{"k": 1}, {"k": None}, {"other": True}])
        for kind in ("JOIN", "LEFT JOIN"):
            result = both_ways(
                join_db,
                f"SELECT l.k AS lk, r.k AS rk FROM left_t AS l "
                f"{kind} right_t AS r ON l.k = r.k",
            )
            # NULL/MISSING keys never match (Core equality).
            matches = [v for v in to_python(result) if v["rk"] is not None]
            assert all(m["lk"] == m["rk"] for m in matches)

    def test_strict_mode_errors_match_reference(self, join_db):
        join_db.set("typed", [{"k": 1}, {"k": "one"}])
        query = (
            "SELECT l.k AS k FROM typed AS l JOIN typed AS r ON l.k < r.k"
        )
        with pytest.raises(TypeCheckError):
            join_db.execute(query, typing_mode="strict", optimize=False)
        with pytest.raises(TypeCheckError):
            join_db.execute(query, typing_mode="strict", optimize=True)

    def test_strict_mode_results_match_when_clean(self, join_db):
        both_ways(
            join_db,
            "SELECT u.uid AS uid, o.oid AS oid FROM users AS u "
            "JOIN orders AS o ON o.user_id = u.uid",
            typing_mode="strict",
        )

    def test_cross_join_and_comma_cross_product(self, join_db):
        both_ways(
            join_db,
            "SELECT u.uid AS uid, d.dno AS dno FROM users AS u "
            "CROSS JOIN depts AS d",
        )
        both_ways(
            join_db,
            "SELECT u.uid AS uid, d.dno AS dno FROM users AS u, depts AS d "
            "WHERE u.dept = d.dno AND d.dname = 'eng' AND u.uid < 5",
        )

    def test_composite_and_residual_on(self, join_db):
        join_db.set(
            "a_t", [{"x": i % 2, "y": i % 3, "z": i} for i in range(9)]
        )
        join_db.set(
            "b_t", [{"x": i % 2, "y": i % 3, "w": i} for i in range(9)]
        )
        both_ways(
            join_db,
            "SELECT a.z AS z, b.w AS w FROM a_t AS a JOIN b_t AS b "
            "ON a.x = b.x AND a.y = b.y AND a.z < b.w",
        )

    def test_left_join_where_on_right_not_pushed_below_padding(self, join_db):
        result = both_ways(
            join_db,
            "SELECT u.uid AS uid, o.oid AS oid FROM users AS u "
            "LEFT JOIN orders AS o ON o.user_id = u.uid "
            "WHERE o.oid IS NOT NULL",
        )
        assert all(v["oid"] is not None for v in to_python(result))

    def test_heterogeneous_join_keys(self, join_db):
        join_db.set(
            "mixed_l", [{"k": 1}, {"k": "1"}, {"k": True}, {"k": [1, 2]}]
        )
        join_db.set(
            "mixed_r", [{"k": 1.0}, {"k": "1"}, {"k": [1, 2]}, {"k": False}]
        )
        result = both_ways(
            join_db,
            "SELECT l.k AS lk, r.k AS rk FROM mixed_l AS l "
            "JOIN mixed_r AS r ON l.k = r.k",
        )
        # 1 = 1.0, '1' = '1', [1,2] = [1,2]; booleans differ.
        assert len(result) == 3


# =========================================================================
# LEFT-join padding (satellite: 3-way LEFT join regression)
# =========================================================================


class TestLeftJoinPadding:
    def test_three_way_left_join_pads_all_downstream_vars(self):
        db = Database()
        db.set("a", [{"x": 1}, {"x": 2}])
        db.set("b", [{"x": 1, "y": 10}])
        db.set("c", [{"y": 10, "z": 100}])
        query = (
            "SELECT a.x AS x, b.y AS y, c.z AS z FROM a AS a "
            "LEFT JOIN b AS b ON a.x = b.x "
            "LEFT JOIN c AS c ON b.y = c.y"
        )
        result = to_python(both_ways(db, query))
        assert sorted(result, key=lambda v: v["x"]) == [
            {"x": 1, "y": 10, "z": 100},
            {"x": 2, "y": None, "z": None},
        ]

    def test_three_way_left_join_with_at_alias_padding(self):
        db = Database()
        db.set("a", [{"x": 1}, {"x": 2}])
        db.set("b", [{"x": 1, "y": 10}])
        query = (
            "SELECT a.x AS x, b.y AS y, pos AS pos FROM a AS a "
            "LEFT JOIN b AS b AT pos ON a.x = b.x"
        )
        result = to_python(both_ways(db, query))
        assert {"x": 2, "y": None, "pos": None} in result

    def test_left_join_unpivot_right_padding(self):
        db = Database()
        db.set("t", [{"m": {"a": 1}}, {"m": {}}])
        query = (
            "SELECT v AS v, k AS k FROM t AS t "
            "LEFT JOIN UNPIVOT t.m AS v AT k ON TRUE"
        )
        result = to_python(both_ways(db, query))
        assert {"v": None, "k": None} in result

    def test_hash_left_join_null_and_missing_keys_pad(self):
        db = Database()
        db.load_value(
            "l", "<< {'k': 1}, {'k': null}, {'nok': 1} >>"
        )
        db.set("r", [{"k": 1, "v": "hit"}])
        result = to_python(
            both_ways(
                db,
                "SELECT l.k AS k, r.v AS v FROM l AS l "
                "LEFT JOIN r AS r ON l.k = r.k",
            )
        )
        assert sum(1 for row in result if row["v"] is None) == 2
        assert sum(1 for row in result if row["v"] == "hit") == 1

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    def test_one_hash_key_matches_by_group_by_identity(self, rows):
        # One key hashes by GROUP BY's identity: 1 = 1.0, while TRUE and
        # '1' are other values, and NULL / MISSING never match.
        db = Database()
        db.load_value(
            "l",
            "<< {'n': 0, 'k': 1}, {'n': 1, 'k': 1.0}, {'n': 2, 'k': true}, "
            "{'n': 3, 'k': '1'}, {'n': 4, 'k': null}, {'n': 5} >>",
        )
        db.load_value(
            "r", "<< {'k': 1.0, 'v': 'one'}, {'k': null, 'v': 'null'}, {'v': 'missing'} >>"
        )
        query = (
            "SELECT l.n AS n, r.v AS v FROM l AS l "
            "LEFT JOIN r AS r ON l.k = r.k"
        )
        assert "HashJoin[LEFT] key (l.k = r.k)" in db.explain_plan(query)
        result = to_python(run(both_ways, db, query, rows=rows))
        assert sorted(result, key=lambda row: row["n"]) == [
            {"n": 0, "v": "one"},
            {"n": 1, "v": "one"},
            {"n": 2, "v": None},
            {"n": 3, "v": None},
            {"n": 4, "v": None},
            {"n": 5, "v": None},
        ]


# =========================================================================
# Pushdown parity
# =========================================================================


class TestPushdown:
    def test_single_variable_conjuncts(self, join_db):
        both_ways(
            join_db,
            "SELECT u.uid AS uid, o.oid AS oid FROM users AS u, orders AS o "
            "WHERE u.dept = 1 AND o.total >= 30 AND u.uid = o.user_id",
        )

    def test_where_only_missing_semantics(self, join_db):
        join_db.set("dirty", [{"v": 1}, {"v": "x"}, {}, {"v": None}])
        # v > 0 is MISSING/NULL on dirty rows — excluded both ways.
        both_ways(
            join_db,
            "SELECT d.v AS v FROM dirty AS d, depts AS x WHERE d.v > 0",
        )

    def test_unknown_name_conjunct_not_pushed(self, join_db):
        core = join_db.compile(
            "SELECT u.uid AS uid FROM users AS u, depts AS d "
            "WHERE unknown_name = 1 AND u.uid = 0"
        )
        plan = plan_block(core.body, EvalConfig())
        assert plan is not None
        assert plan.residual_where is not None
        assert "unknown_name" in free_names(plan.residual_where)


# =========================================================================
# Analysis helpers
# =========================================================================


class TestAnalyses:
    def test_split_conjuncts(self):
        expr = parse_expression("a = 1 AND b = 2 AND (c OR d)")
        assert len(split_conjuncts(expr)) == 3

    def test_free_names_is_conservative(self):
        expr = parse_expression("x.a + (SELECT VALUE s FROM t AS s)[0]")
        names = free_names(expr)
        assert {"x", "t"} <= names  # inner alias may be included too

    def test_relocatable_rejects_parameters_and_subqueries(self):
        assert is_relocatable(parse_expression("x.a = 1"))
        assert not is_relocatable(parse_expression("x.a = ?"))
        assert not is_relocatable(
            parse_expression("x.a IN (SELECT VALUE t.b FROM t AS t)")
        )
        assert not is_relocatable(parse_expression("UNKNOWN_FN(x.a) = 1"))

    def test_relocatable_rejects_what_raises_under_permissive_typing(self):
        # Not dynamic type errors: these raise in both typing modes.
        assert is_relocatable(parse_expression("CAST(x.a AS INT) IS INTEGER"))
        assert not is_relocatable(parse_expression("CAST(x.a AS NOPE)"))
        assert not is_relocatable(parse_expression("x.a IS NOPE"))
        assert is_relocatable(parse_expression("LOWER(x.a)"))
        assert not is_relocatable(parse_expression("LOWER(x.a, x.b)"))

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT VALUE NULL FROM CAST(FALSE AS NOPE) AS q WHERE NULL",
            "SELECT VALUE 1 FROM (1 IS NOPE) AS q WHERE FALSE",
            "SELECT VALUE 1 FROM UNKNOWN_FN(1) AS q WHERE FALSE",
            "SELECT VALUE NULL FROM LOWER(NULL, NULL) AS q WHERE NULL",
            "SELECT VALUE 1 FROM [1, 2] AS q WHERE CAST(q AS NOPE) AND FALSE",
        ],
    )
    def test_prune_empty_keeps_a_raising_from_source(self, query):
        # A never-TRUE WHERE may erase only an enumeration that cannot
        # raise: the engine used to answer <<>> where the oracle raises.
        db = Database()
        assert "pruned:" not in db.explain_plan(query)
        for dials in ({}, ROWS, {"optimize": False}):
            with pytest.raises(errors.EvaluationError):
                run(db.execute, query, **dials)
        # The proof still fires over a source that cannot raise.
        assert "pruned:" in db.explain_plan(
            "SELECT VALUE 1 FROM CAST('1' AS INT) AS q WHERE NULL"
        )


# =========================================================================
# EXPLAIN
# =========================================================================


class TestExplain:
    def test_explain_plan_shows_operators_and_rewrites(self, join_db):
        text = join_db.explain_plan(
            "SELECT u.uid AS uid FROM users AS u "
            "JOIN orders AS o ON o.user_id = u.uid WHERE u.dept = 1"
        )
        assert "HashJoin[INNER]" in text
        assert "rewrites fired:" in text
        assert "predicate-pushdown" in text

    def test_explain_plan_reference_fallback(self, join_db):
        # A rewrite-free block: its plan is shown with nothing fired,
        # and batch and stream both run it — no second FROM path to name.
        query = "SELECT u.uid AS uid FROM users AS u"
        text = join_db.explain_plan(query)
        assert "  Scan users AS u" in text
        assert "rewrites fired:\n  - (none)" in text
        assert "executor: batch" in text
        assert "reference pipeline" not in text
        streamed = join_db.explain_plan(query + " LIMIT 2")
        assert "  Scan users AS u" in streamed
        assert "rewrites fired:\n  - (none)" in streamed
        assert "from:" not in text + streamed
        assert "executor: stream (unordered LIMIT/OFFSET stops" in streamed
        # A block without FROM has nothing to plan; it still streams.
        unplanned = join_db.explain_plan("SELECT VALUE 1")
        assert "plan: unplanned (no FROM clause)" in unplanned
        assert "executor: stream (no FROM clause)" in unplanned

    def test_explain_plan_strict_mode(self, join_db):
        text = join_db.explain_plan(
            "SELECT u.uid AS uid FROM users AS u "
            "JOIN orders AS o ON o.user_id = u.uid",
            typing_mode="strict",
        )
        # The plan says what strict typing withholds (the hash join: a
        # key-category mismatch must raise, not "not match"); which
        # executor runs it does not depend on the typing mode.
        assert "NestedLoopJoin[INNER] (right side materialized once)" in text
        assert "HashJoin" not in text and "hash-equi-join" not in text
        fired = text[text.index("rewrites fired:"):text.index("consumer:")]
        assert [line.split()[1] for line in fired.splitlines()[1:]] == [
            "materialize-right[INNER]:"
        ]
        assert "\nexecutor: batch\n" in text
        assert "strict" not in text

    def test_explain_plan_expression_body(self, join_db):
        text = join_db.explain_plan("1 + 1")
        assert "not a single query block" in text
