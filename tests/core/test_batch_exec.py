"""The batch (chunk-vectorized) executor: eligibility, parity with the
streaming and reference pipelines, aggregate decomposition, statistics
in EXPLAIN, and evaluator memoization (docs/PLANNER.md "Batch
execution").
"""

from __future__ import annotations

import re
import time

import pytest

from repro import Database, errors
from repro.compat.corpus import all_cases
from repro.compat.runner import build_database
from repro.core.clauses import item_vars
from repro.core.vectorized import Decomposition, GroupState, decompose_block
from repro.datamodel.convert import to_python
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag
from repro.functions.aggregates import MEMBERS
from repro.syntax import ast
from repro.syntax.printer import print_ast
from tests.rows_mode import REASON, ROWS, rows_mode, run

#: A ``plan:`` line that says a FROM block has no operator tree
#: (unplanned / reference / none), as opposed to the reuse decision
#: (``plan: built | reused | rebuilt — …``) every planned block prints.
UNPLANNED = re.compile(r"^plan: (?!built|reused|rebuilt)", re.M)


def three_ways(db: Database, query: str, ordered: bool = False, **kwargs):
    """Run columns mode, rows mode and reference; assert 3-way parity."""
    batch = db.execute(query, **kwargs)
    streaming = run(db.execute, query, rows=True, **kwargs)
    reference = db.execute(query, optimize=False, **kwargs)
    if ordered:
        assert deep_equals(list(batch), list(streaming))
        assert deep_equals(list(batch), list(reference))
    else:
        first = Bag(list(batch)) if isinstance(batch, (list, Bag)) else batch
        for other in (streaming, reference):
            other = Bag(list(other)) if isinstance(other, (list, Bag)) else other
            assert deep_equals(first, other), f"parity violation for {query!r}"
    return batch


@pytest.fixture
def db() -> Database:
    db = Database()
    db.set(
        "orders",
        [
            {"oid": i, "cust": i % 7, "total": (i * 13) % 100, "open": i % 2 == 0}
            for i in range(50)
        ],
    )
    db.set("custs", [{"cid": i, "name": f"c{i}"} for i in range(7)])
    return db


class TestBatchedFlag:
    def test_eligible_query_sets_both_flags(self, db):
        db.execute("SELECT VALUE o.oid FROM orders AS o WHERE o.total > 10")
        assert db.metrics.last.batched is True
        assert db.metrics.last.streamed is True

    def test_batch_false_disables(self, db):
        with rows_mode():
            db.execute("SELECT VALUE o.oid FROM orders AS o WHERE o.total > 10")
        assert db.metrics.last.batched is False
        assert db.metrics.last.streamed is True

    def test_reference_path_never_batches(self, db):
        db.execute("SELECT VALUE o.oid FROM orders AS o", optimize=False)
        assert db.metrics.last.batched is False

    def test_limit_stays_streaming(self, db):
        # Early termination belongs to the streaming pipeline; batch
        # must decline the unordered LIMIT — and only that one.
        db.execute("SELECT VALUE o.oid FROM orders AS o LIMIT 3")
        assert db.metrics.last.batched is False
        assert db.metrics.last.streamed is True
        db.execute("SELECT VALUE o.oid FROM orders AS o ORDER BY o.oid LIMIT 3")
        assert db.metrics.last.batched is True

    def test_strict_mode_batches(self, db):
        # The typing mode is not a batch refusal: strict blocks run the
        # same chunk kernels, optimistically (TestStrictReplay).
        db.execute(
            "SELECT VALUE o.oid FROM orders AS o", typing_mode="strict"
        )
        assert db.metrics.last.batched is True
        assert db.metrics.last.streamed is True

    def test_comma_join_folds_into_one_tree_and_batches(self, db):
        # ``FROM a, b`` is ``a INNER JOIN b ON TRUE``: the comma items
        # fold into the block's one operator tree, which the chunk
        # protocol drives.
        query = (
            "SELECT VALUE {'o': o.oid, 'c': c.name} "
            "FROM orders AS o, custs AS c WHERE o.cust = c.cid"
        )
        three_ways(db, query)
        db.execute(query)
        assert db.metrics.last.batched is True
        assert db.metrics.last.streamed is True


class TestBatchParity:
    def test_filter_project(self, db):
        three_ways(
            db,
            "SELECT o.oid AS oid, o.total * 2 AS dbl "
            "FROM orders AS o WHERE o.total >= 50 AND o.open",
        )

    def test_let_chain(self, db):
        three_ways(
            db,
            "SELECT VALUE t + u FROM orders AS o "
            "LET t = o.total + 1, u = t * 2 WHERE u < 150",
        )

    def test_select_star(self, db):
        three_ways(db, "SELECT * FROM orders AS o WHERE o.oid < 5")

    def test_distinct(self, db):
        three_ways(db, "SELECT DISTINCT o.cust AS cust FROM orders AS o")

    def test_order_by_is_order_exact(self, db):
        three_ways(
            db,
            "SELECT o.oid AS oid FROM orders AS o "
            "WHERE o.total > 20 ORDER BY o.total DESC, o.oid",
            ordered=True,
        )

    def test_group_by_aggregates_and_having(self, db):
        three_ways(
            db,
            "SELECT c, COUNT(*) AS n, SUM(o.total) AS spend, "
            "AVG(o.total) AS mean, MIN(o.total) AS low, MAX(o.total) AS top "
            "FROM orders AS o GROUP BY o.cust AS c HAVING COUNT(*) > 2",
        )

    def test_group_by_distinct_aggregate(self, db):
        three_ways(
            db,
            "SELECT c, COUNT(DISTINCT o.total) AS n "
            "FROM orders AS o GROUP BY o.cust AS c",
        )

    def test_group_as_stays_correct(self, db):
        # GROUP AS makes the whole group visible: the fold collects each
        # group's elements beside the aggregate sites.
        three_ways(
            db,
            "SELECT c, (SELECT VALUE g.o.oid FROM g AS g) AS oids "
            "FROM orders AS o GROUP BY o.cust AS c GROUP AS g",
        )

    def test_hash_join(self, db):
        three_ways(
            db,
            "SELECT o.oid AS oid, c.name AS name FROM orders AS o "
            "JOIN custs AS c ON o.cust = c.cid WHERE o.total > 30",
        )

    def test_left_join_pads_missing(self, db):
        db.set("custs_small", [{"cid": 0, "name": "only"}])
        three_ways(
            db,
            "SELECT o.oid AS oid, c.name AS name FROM orders AS o "
            "LEFT JOIN custs_small AS c ON o.cust = c.cid",
        )

    def test_chunk_boundary_sizes(self):
        # 1023 / 1024 / 1025 rows: off-by-one at the chunk boundary.
        db = Database()
        for n in (1023, 1024, 1025):
            db.set("t", [{"x": i} for i in range(n)])
            result = db.execute("SELECT VALUE t.x FROM t AS t WHERE t.x >= 1")
            assert db.metrics.last.batched is True
            assert len(list(result)) == n - 1

    def test_errors_match_streaming(self):
        db = Database(max_rows=10)
        db.set("t", [{"x": i} for i in range(100)])
        with pytest.raises(errors.ResourceExhausted):
            db.execute("SELECT VALUE t.x FROM t AS t")


class TestDecomposition:
    def core(self, db, query):
        return db.compile(query).body

    def test_simple_aggregates_decompose(self, db):
        block = self.core(
            db,
            "SELECT c, COUNT(*) AS n, AVG(o.total) AS mean "
            "FROM orders AS o GROUP BY o.cust AS c",
        )
        decomp = decompose_block(block, ("o",))
        assert decomp is not None
        assert len(decomp.specs) == 2
        assert [spec.distinct for spec in decomp.specs] == [False, False]

        # Every use of the group is a site: no member tuples are kept.
        assert all(spec.value_expr is not None for spec in decomp.specs)

    def test_group_as_reference_collects(self, db):
        block = self.core(
            db,
            "SELECT c, (SELECT VALUE g.o.oid FROM g AS g) AS oids "
            "FROM orders AS o GROUP BY o.cust AS c GROUP AS g",
        )
        decomp = decompose_block(block, ("o",))
        (collector,) = decomp.specs
        assert collector.var == "g" and collector.value_expr is None
        assert collector.machine is MEMBERS
        assert decomp.group_row_vars == ("c", "g")

    def test_rollup_decomposes(self, db):
        block = self.core(
            db,
            "SELECT o.cust AS c, COUNT(*) AS n FROM orders AS o "
            "GROUP BY ROLLUP (o.cust, o.open)",
        )
        decomp = decompose_block(block, ("o",))
        assert [spec.definition.name for spec in decomp.specs] == ["COLL_COUNT"]
        sets = GroupState.sets(decomp.clause, decomp.machines)
        assert [groups.keep for groups in sets] == [(0, 1), (0,), ()]

    def test_window_over_aggregates_is_lowered_after_the_sites(self, db):
        block = self.core(
            db,
            "SELECT c, RANK() OVER (ORDER BY SUM(o.total) DESC) AS rk "
            "FROM orders AS o GROUP BY o.cust AS c",
        )
        decomp = decompose_block(block, ("o",))
        (call,) = decomp.calls
        assert "$fold0" in print_ast(call) and "$window0" in print_ast(decomp.select)

    def test_every_grouped_kit_block_decomposes(self):
        # No refusal is left: every GROUP BY block of the kit, nested
        # ones included, has a fold form.
        grouped = 0
        for case in all_cases():
            try:
                core = build_database(case).compile(case.query)
            except errors.SQLPPError:
                continue
            for node in core.walk():
                if isinstance(node, ast.QueryBlock) and node.group_by is not None:
                    row_vars = [
                        name for item in node.from_ or () for name in item_vars(item)
                    ] + [let.name for let in node.lets]
                    assert isinstance(
                        decompose_block(node, tuple(row_vars)), Decomposition
                    ), case.case_id
                    grouped += 1
        assert grouped >= 13


class TestExplainSurfaces:
    def test_stats_line_per_scanned_collection(self, db):
        plan = db.explain_plan(
            "SELECT VALUE o.oid FROM orders AS o "
            "JOIN custs AS c ON o.cust = c.cid"
        )
        assert "stats: orders: rows=50" in plan
        assert "stats: custs: rows=7" in plan

    def test_order_line_syntactic_when_unchanged(self, db):
        plan = db.explain_plan(
            "SELECT VALUE o.oid FROM orders AS o "
            "JOIN custs AS c ON o.cust = c.cid"
        )
        assert "order: o ⋈ c (syntactic)" in plan

    def test_cost_based_reorder_probes_the_big_side(self):
        # Syntactic order probes the small side; with statistics the
        # planner flips the join so the big side streams through the
        # probe and the small side is built.
        db = Database()
        db.set("small", [{"k": i} for i in range(8)])
        db.set("big", [{"k": i % 8, "v": i} for i in range(4_000)])
        query = (
            "SELECT VALUE {'k': s.k, 'v': b.v} FROM small AS s "
            "JOIN big AS b ON s.k = b.k"
        )
        plan = db.explain_plan(query)
        assert "order: b ⋈ s" in plan
        assert "(syntactic)" not in plan.split("order:")[1].splitlines()[0]
        # And the reordered plan is still correct.
        three_ways(db, query)

    def test_order_by_suppresses_reorder(self):
        db = Database()
        db.set("small", [{"k": i} for i in range(8)])
        db.set("big", [{"k": i % 8, "v": i} for i in range(4_000)])
        plan = db.explain_plan(
            "SELECT VALUE {'k': s.k, 'v': b.v} FROM small AS s "
            "JOIN big AS b ON s.k = b.k ORDER BY b.v"
        )
        assert "order: s ⋈ b (syntactic)" in plan


class TestEvaluatorMemoization:
    def test_same_config_reuses_compiled_closures(self):
        db = Database()
        db.set("t", [{"x": i} for i in range(10)])
        query = "SELECT VALUE t.x + 1 FROM t AS t WHERE t.x > 2"
        db.execute(query)
        evaluators = dict(db._evaluators)
        assert len(evaluators) == 1
        (evaluator,) = evaluators.values()
        compiled_before = len(evaluator._caches.compiled)
        db.execute(query)
        assert dict(db._evaluators) == evaluators
        # A cached plan re-executes without re-running compile_expr.
        assert len(evaluator._caches.compiled) == compiled_before

    def test_parameters_rebind_without_a_fresh_evaluator(self):
        db = Database()
        db.set("t", [{"x": i} for i in range(10)])
        query = "SELECT VALUE t.x FROM t AS t WHERE t.x > ?"
        first = db.execute(query, parameters=[7])
        second = db.execute(query, parameters=[3])
        assert len(list(first)) == 2
        assert len(list(second)) == 6
        assert len(db._evaluators) == 1

    def test_data_change_invalidates_stats_and_plans(self):
        db = Database()
        db.set("t", [{"x": i} for i in range(4)])
        query = "SELECT VALUE t.x FROM t AS t WHERE t.x >= 0"
        assert len(list(db.execute(query))) == 4
        assert "stats: t: rows=4" in db.explain_plan(query)
        db.set("t", [{"x": i} for i in range(9)])
        assert len(list(db.execute(query))) == 9
        assert "stats: t: rows=9" in db.explain_plan(query)

    def test_distinct_configs_get_distinct_evaluators(self):
        db = Database()
        db.set("t", [{"x": 1}])
        query = "SELECT VALUE t.x FROM t AS t"
        db.execute(query)
        db.execute(query, max_rows=10)
        db.execute(query, typing_mode="strict")
        assert len(db._evaluators) == 3


    @pytest.mark.parametrize("batch", [True, False])
    def test_reentrant_execute_gets_its_own_evaluator(self, batch):
        # A lazy-bag factory that queries the same database (same
        # config, so the same memo slot) while its consumer query is
        # mid-execution: the inner query must not rebind the evaluator
        # the outer one is running on.
        db = Database()
        db.set("t", [{"x": i} for i in range(10)])
        inner_results = []

        def factory():
            (memoised,) = db._evaluators.values()
            assert memoised._in_use is True
            inner = db.execute(
                "SELECT VALUE t.x FROM t AS t WHERE t.x > ?", parameters=[7]
            )
            inner_results.append(sorted(inner))
            assert list(db._evaluators.values()) == [memoised]
            return ({"v": x} for x in range(6))

        db.set_lazy("lz", factory)
        outer_query = "SELECT VALUE l.v FROM lz AS l WHERE l.v > ?"
        outer = run(db.execute, outer_query, parameters=[2], rows=not batch)
        # Were the memoised evaluator rebound, `?` would now be 7.
        assert sorted(outer) == [3, 4, 5]
        assert inner_results == [[8, 9]]
        assert db.metrics.last.query == outer_query
        assert db.metrics.last.rows_returned == 3
        assert db.metrics.last.batched is batch
        (memoised,) = db._evaluators.values()
        assert memoised._in_use is False


class TestPartitionedFold:
    """``fold_chunk`` probes each row's group identity into dense group
    ids and steps every aggregate's machine over the whole chunk; the
    state it builds must be exactly the row-at-a-time fold's."""

    #: (Core aggregate, argument) per fold site; ARRAY_AGG's value list
    #: exposes each group's row order.
    SITES = (
        ("COLL_COUNT", "t.v"),
        ("COLL_SUM", "t.v"),
        ("COLL_MAX", "t.v"),
        ("COLL_ARRAY_AGG", "t.i"),
    )

    @classmethod
    def fold(cls, key_sources, rows, chunk_size):
        from repro.config import DEFAULT_CONFIG
        from repro.core import vectorized
        from repro.core.compile_expr import compile_batch
        from repro.core.environment import Environment
        from repro.core.evaluator import Evaluator
        from repro.functions.aggregates import machine_for
        from repro.functions.registry import REGISTRY
        from repro.syntax.parser import parse_expression

        evaluator = Evaluator({})
        row_vars = frozenset({"t"})
        key_fns = [
            compile_batch(parse_expression(source), evaluator, row_vars)
            for source in key_sources
        ]
        value_fns = [
            compile_batch(parse_expression(source), evaluator, row_vars)
            for __, source in cls.SITES
        ]
        machines = [machine_for(REGISTRY.lookup(name)) for name, __ in cls.SITES]
        env = Environment()
        clause = ast.GroupByClause(
            keys=[ast.GroupKey(parse_expression(source), "k") for source in key_sources]
        )
        (groups,) = sets = vectorized.GroupState.sets(clause, machines)
        for start in range(0, len(rows), chunk_size):
            chunk = rows[start : start + chunk_size]
            columns = vectorized.fold_columns(chunk, env, key_fns, value_fns, ["t"])
            vectorized.fold_chunk(len(chunk), *columns, machines, sets, DEFAULT_CONFIG)
        return key_fns, value_fns, machines, groups

    @staticmethod
    def fold_row_at_a_time(key_fns, value_fns, rows):
        """Per-group key values and value lists, row by row: the
        reference the dense-id fold is checked against."""
        from repro.core.environment import Environment
        from repro.datamodel.equality import group_key

        env = Environment()
        groups, order = {}, []
        key_columns = [fn(rows, env) for fn in key_fns]
        value_columns = [fn(rows, env) for fn in value_fns]
        for index in range(len(rows)):
            key_values = [column[index] for column in key_columns]
            identity = tuple(group_key(value) for value in key_values)
            state = groups.get(identity)
            if state is None:
                state = (key_values, [[] for __ in value_columns])
                groups[identity] = state
                order.append(identity)
            for position, column in enumerate(value_columns):
                state[1][position].append(column[index])
        return order, groups

    @staticmethod
    def rows():
        from repro.datamodel.convert import from_python
        from repro.datamodel.values import MISSING

        keys = [3, "a", 3.0, None, True, 1, "a", [1], MISSING, 2, {"x": 1}, 1.0]
        rows = []
        for i in range(40):
            key = keys[(i * 7) % len(keys)]
            row = {"i": i, "v": (i * 5) % 11, "j": i % 3}
            if key is not MISSING:
                row["k"] = key
            rows.append({"t": from_python(row)})
        return rows

    @pytest.mark.parametrize("keys", [[], ["t.k"], ["t.k", "t.j"]])
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 40])
    def test_state_equals_the_row_at_a_time_fold(self, keys, chunk_size):
        # A group spans chunk boundaries at every chunk size < 40; groups
        # are numbered in first-seen order and each folds its values in
        # row order, so every group's final is its aggregate's definition
        # over the row-at-a-time value list.
        from repro.config import DEFAULT_CONFIG
        from repro.functions.registry import REGISTRY

        rows = self.rows()
        key_fns, value_fns, machines, groups = self.fold(keys, rows, chunk_size)
        want_order, want_groups = self.fold_row_at_a_time(key_fns, value_fns, rows)
        assert list(groups.ids.values()) == list(range(len(want_order)))
        assert len(groups.keys) == len(want_order)
        for gid, identity in enumerate(want_order):
            want_keys, want_values = want_groups[identity]
            assert deep_equals(groups.keys[gid], want_keys)
            for (name, __), machine, state, values in zip(
                self.SITES, machines, groups.states, want_values
            ):
                want = REGISTRY.lookup(name).invoke([Bag(values)], DEFAULT_CONFIG)
                got = machine.final(state, gid, DEFAULT_CONFIG)
                assert deep_equals(got, want), (name, gid)

    def test_keyless_aggregate_is_one_group_even_when_empty(self):
        db = Database()
        for n in (0, 1, 2500):
            db.set("t", [{"v": i} for i in range(n)])
            query = "SELECT COUNT(*) AS n, SUM(t.v) AS s FROM t AS t"
            three_ways(db, query)
            rows = list(db.execute(query))
            assert db.metrics.last.batched is True
            assert len(rows) == 1 and rows[0]["n"] == n

    def test_multi_key_group_spanning_chunks(self):
        db = Database()
        db.set("t", [{"a": i % 3, "b": i % 2, "v": i} for i in range(2500)])
        query = (
            "SELECT a, b, COUNT(*) AS n, SUM(t.v) AS s, MIN(t.v) AS lo "
            "FROM t AS t GROUP BY t.a AS a, t.b AS b"
        )
        three_ways(db, query)
        db.execute(query)
        assert db.metrics.last.batched is True


class TestOneGroupBy:
    """Every GROUP BY runs ``fold_chunk``: on the batch executor GROUP
    AS, grouping sets and windows over groups fold binding rows as they
    are — no input row becomes an ``Environment`` — and only the group
    rows reach the tail."""

    #: Kit cases whose GROUP BY left the chunks before one fold existed.
    CASES = (
        "L12", "L14", "L18", "L26", "K-rollup-nested", "K-grouping-sets-nested",
        "K-window-of-aggregates",
    )
    GROUP_AS = (
        "SELECT dept AS dept, (SELECT VALUE v.e.name FROM g AS v) AS names "
        "FROM hr.emp AS e GROUP BY e.dept AS dept GROUP AS g"
    )

    @staticmethod
    def spy(monkeypatch):
        """Count folds, the env-space group elements, and the blocks the
        executor runs in rows mode."""
        from repro.core import clauses, vectorized

        seen = {"folds": 0, "elements": 0, "streamed": []}
        fold_chunk = vectorized.fold_chunk
        group_element = clauses.group_element
        execute_block = vectorized.execute_block

        def fold_spy(*args):
            seen["folds"] += 1
            return fold_chunk(*args)

        def element_spy(*args):
            seen["elements"] += 1
            return group_element(*args)

        def block_spy(evaluator, query, plan, env, rows=False, stream=False):
            if rows:
                seen["streamed"].append(query.body)
            return execute_block(evaluator, query, plan, env, rows, stream)

        monkeypatch.setattr(vectorized, "fold_chunk", fold_spy)
        monkeypatch.setattr(clauses, "group_element", element_spy)
        monkeypatch.setattr(vectorized, "execute_block", block_spy)
        return seen

    def assert_folded(self, db, query, monkeypatch, **dials):
        db.execute(query, **dials)
        seen = self.spy(monkeypatch)
        db.execute(query, **dials)
        assert db.metrics.last.batched
        assert seen["folds"] >= 1 and seen["elements"] == 0
        # Only the per-group subqueries over the group stream.
        assert all(block.group_by is None for block in seen["streamed"])
        monkeypatch.undo()

    @pytest.mark.parametrize("case_id", CASES)
    def test_kit_case_folds_binding_rows(self, case_id, monkeypatch):
        (case,) = [case for case in all_cases() if case.case_id == case_id]
        self.assert_folded(build_database(case), case.query, monkeypatch)

    @pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
    def test_group_as_template_folds_binding_rows(self, typing_mode, monkeypatch):
        db = Database(typing_mode=typing_mode)
        db.set(
            "hr.emp",
            [{"id": i, "dept": f"d{i % 7}", "name": f"n{i}"} for i in range(3000)],
        )
        self.assert_folded(db, self.GROUP_AS, monkeypatch)
        # The stream folds too, with the collector alone; it and the
        # oracle build each element from the row's environment.
        seen = self.spy(monkeypatch)
        three_ways(db, self.GROUP_AS)
        assert seen["folds"] >= 2 and seen["elements"] == 3000 * 2

    def test_aggregates_over_a_lazy_source_collect_no_members(self):
        # COUNT / SUM are sites: no GROUP AS collector, so the fold holds
        # O(groups) state and one chunk of rows (the E15 bar), not 100k
        # member tuples.
        import tracemalloc

        db = Database()
        db.set_lazy("big", lambda: ({"k": i % 7, "x": i} for i in range(100_000)))
        query = (
            "SELECT k AS k, COUNT(*) AS n, SUM(b.x) AS s FROM big AS b "
            "GROUP BY b.k AS k"
        )
        db.execute(query)
        tracemalloc.start()
        try:
            rows = db.execute(query)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert db.metrics.last.batched
        assert peak < 4 * 1024 * 1024, f"GROUP BY peak {peak} bytes"
        assert len(rows) == 7 and sum(row["n"] for row in rows) == 100_000


class TestDerivedTablesBatch:
    """A block batches when it is the top-level query *or* is evaluated
    in the top-level environment (uncorrelated, evaluated once)."""

    @staticmethod
    def batched_blocks(monkeypatch):
        from repro.core import vectorized

        seen = []
        original = vectorized.execute_block

        def spy(evaluator, query, plan, env, rows=False, stream=False):
            if not rows:
                seen.append(query is evaluator._top_query)
            return original(evaluator, query, plan, env, rows, stream)

        monkeypatch.setattr(vectorized, "execute_block", spy)
        return seen

    def test_semijoin_rule_output_batches_its_derived_table(self, db, monkeypatch):
        seen = self.batched_blocks(monkeypatch)
        query = (
            "SELECT c.cid AS cid FROM custs AS c WHERE EXISTS "
            "(SELECT o.oid FROM orders AS o WHERE o.cust = c.cid AND o.total > 90)"
        )
        plan = db.explain_plan(query)
        assert "SQLPPR01" in plan
        assert "executor: batch\n  derived table $semi1: batch" in plan
        three_ways(db, query)
        db.execute(query)
        assert seen[-2:] == [True, False]  # top block, then its derived table

    def test_decorrelate_rule_output_batches_its_derived_table(self, db, monkeypatch):
        seen = self.batched_blocks(monkeypatch)
        query = (
            "SELECT c.cid AS cid, (SELECT SUM(o.total) FROM orders AS o "
            "WHERE o.cust = c.cid) AS spent FROM custs AS c"
        )
        plan = db.explain_plan(query)
        assert "SQLPPR02" in plan
        assert "  derived table $dec2: batch" in plan
        three_ways(db, query)
        db.execute(query)
        assert seen[-2:] == [True, False]

    def test_correlated_subquery_stays_streaming(self, db, monkeypatch):
        seen = self.batched_blocks(monkeypatch)
        query = (
            "SELECT c.cid AS cid, (SELECT VALUE o.oid FROM orders AS o "
            "WHERE o.cust = c.cid AND o.total > 50) AS big FROM custs AS c"
        )
        # No rule decorrelates a collection-valued subquery; EXPLAIN
        # describes the same core.
        plan = db.explain_plan(query)
        assert "rewrites: none" in plan
        three_ways(db, query)
        seen.clear()
        db.execute(query)
        assert seen == [True]  # seven correlated evaluations, none batched
        assert db.metrics.last.batched is True
        assert "derived table" not in plan
        assert "[SubqueryExpr]" in plan.splitlines()[-1]

    def test_flags_describe_the_top_level_block_only(self, db, monkeypatch):
        seen = self.batched_blocks(monkeypatch)
        query = (
            "SELECT VALUE d.oid FROM (SELECT o.oid AS oid FROM orders AS o "
            "WHERE o.total > 10) AS d LIMIT 3"
        )
        result = db.execute(query)
        assert len(list(result)) == 3
        assert seen == [False]  # only the derived table ran batched
        assert db.metrics.last.batched is False
        assert db.metrics.last.streamed is True
        plan = db.explain_plan(query)
        assert "executor: stream (unordered LIMIT/OFFSET stops the producers early)" in plan
        assert "  derived table d: batch" in plan

    def test_limited_top_block_still_terminates_early(self, db):
        # The derived table is materialized once (as it always was) —
        # now on the batch pipeline; the LIMIT-ed block above it still
        # stops pulling after 3 of its 50 rows.
        report = db.explain_analyze(
            "SELECT VALUE d.oid FROM (SELECT o.oid AS oid FROM orders AS o "
            "WHERE o.total >= 0) AS d WHERE d.oid >= 0 LIMIT 3"
        )
        assert "rows returned: 3" in report
        assert "  derived table d: batch" in report
        scan = next(
            line for line in report.splitlines() if line.strip().startswith("Scan (")
        )
        assert "rows_out=3" in scan

    def test_nested_derived_tables_all_batch(self, db, monkeypatch):
        seen = self.batched_blocks(monkeypatch)
        query = (
            "SELECT VALUE outer_.n FROM (SELECT VALUE {'n': inner_.oid + 1} FROM "
            "(SELECT o.oid AS oid FROM orders AS o WHERE o.total > 50) AS inner_) "
            "AS outer_"
        )
        three_ways(db, query)
        db.execute(query)
        assert seen[-3:] == [True, False, False]


class TestExecutorExplain:
    def test_forced_plan_blocks_say_batch(self, db):
        # Rewrite-free blocks: the batch executor runs the block's one
        # plan, which EXPLAIN prints with nothing fired — there is no
        # second, "forced" plan.
        for query in (
            "SELECT o.cust AS c, COUNT(*) AS n FROM orders AS o GROUP BY o.cust",
            "SELECT DISTINCT o.cust AS c FROM orders AS o",
        ):
            plan = db.explain_plan(query)
            assert "executor: batch" in plan
            assert "  Scan orders AS o" in plan
            assert "rewrites fired:\n  - (none)" in plan
            assert "reference pipeline" not in plan
            assert "from:" not in plan
            assert "consumer: bag built a chunk" in plan
            assert "no env-space fallback" in plan
            # The same plan text in rows mode: the stream pulls it.
            plan = run(db.explain_plan, query, rows=True)
            assert "  Scan orders AS o" in plan
            assert "rewrites fired:\n  - (none)" in plan
            assert "from:" not in plan
            assert f"executor: stream ({REASON})" in plan

    def test_refusals_name_the_clause(self, db):
        query = "SELECT VALUE o.oid FROM orders AS o"
        # The typing mode refuses nothing.
        strict = db.explain_plan(query, typing_mode="strict")
        assert "executor: batch\n" in strict and "strict" not in strict
        # Only the unordered LIMIT keeps a block off the chunks (early
        # termination is its point); an ordered one is a batched top-K.
        assert "executor: stream (unordered LIMIT/OFFSET stops" in (
            db.explain_plan(query + " LIMIT 2")
        )
        assert "executor: batch\n" in db.explain_plan(
            query + " ORDER BY o.oid LIMIT 2"
        )
        # A cross product is one tree like any other FROM: no refusal.
        cross = db.explain_plan("SELECT VALUE o.oid FROM orders AS o, custs AS c")
        assert "executor: batch" in cross
        assert "  Scan orders AS o\n" in cross  # the driving scan: no tag
        assert "Scan custs AS c  [materialized once]" in cross
        # Windows and PIVOT are blocking tails over key columns, which
        # the batch executor takes from chunk kernels.
        windowed = db.explain_plan(
            "SELECT o.oid AS oid, RANK() OVER (ORDER BY o.total) AS r "
            "FROM orders AS o"
        )
        assert "executor: batch\n" in windowed
        assert (
            "kernels: 2 columnar (2 stored-column reads), no env-space fallback"
            in windowed
        )
        pivoted = db.explain_plan("PIVOT o.total AT o.status FROM orders AS o")
        assert "executor: batch\n" in pivoted
        assert "consumer: one tuple assembled from the whole binding stream" in pivoted
        with rows_mode():
            assert f"executor: stream ({REASON})" in db.explain_plan(query)
            assert "kernels: none" in db.explain_plan(query)

    def test_set_operation_operands_with_their_own_clauses(self, db, monkeypatch):
        seen = TestDerivedTablesBatch.batched_blocks(monkeypatch)
        query = (
            "(SELECT VALUE o.oid FROM orders AS o WHERE o.total > 90 ORDER BY o.oid) "
            "UNION ALL SELECT VALUE c.cid FROM custs AS c"
        )
        plan = db.explain_plan(query)
        assert "executor: none (query body is not a single query block)" in plan
        assert plan.count("  operand: batch") == 2  # the bare block too
        three_ways(db, query)
        db.execute(query)
        assert seen[-1] is False and db.metrics.last.batched is False

    def test_kernel_fallbacks_are_listed_with_their_node_kind(self, db):
        plan = db.explain_plan(
            "SELECT VALUE o.cust[*] FROM orders AS o WHERE o.total > ?"
        )
        kernels = plan.splitlines()[-1]
        assert kernels == (
            "kernels: 2 columnar (1 stored-column read), "
            "env-space fallback for o.cust[*] [PathWildcard]"
        )
        # A cast and a parameter are kernels of their own, and the
        # cast's operand reads its stored column.
        plan = db.explain_plan(
            "SELECT VALUE CAST(o.oid AS STRING) FROM orders AS o WHERE o.total > ?"
        )
        assert plan.splitlines()[-1] == (
            "kernels: 2 columnar (2 stored-column reads), no env-space fallback"
        )

    def test_analyze_reports_the_traced_run(self, db):
        # EXPLAIN ANALYZE analyses the run ``execute`` makes: a timing
        # tracer does not move a rewrite-free block off the batch
        # executor, and the scan is rendered from the plan that ran.
        query = "SELECT VALUE o.oid FROM orders AS o"
        report = db.explain_analyze(query)
        assert "executor: batch" in report
        assert db.metrics.last.batched is True
        scan = next(
            line for line in report.splitlines() if line.startswith("  Scan orders")
        )
        assert "rows_out=50" in scan and "actual=50" in scan
        assert "plan: reference pipeline" not in report
        db.execute(query)
        assert db.metrics.last.batched is True
        # Streamed, the same block is analysed on the same operator tree.
        report = run(db.explain_analyze, query, rows=True)
        assert f"executor: stream ({REASON})" in report
        streamed_scan = next(
            line for line in report.splitlines() if line.startswith("  Scan orders")
        )
        assert "rows_out=50" in streamed_scan and "actual=50" in streamed_scan
        assert "reference" not in report and not UNPLANNED.search(report)
        assert db.metrics.last.batched is False
        report = db.explain_analyze(
            "SELECT VALUE o.oid FROM orders AS o WHERE o.total > 10"
        )
        assert "executor: batch" in report
        assert (
            "kernels: 2 columnar (2 stored-column reads), no env-space fallback"
            in report
        )


class TestKernelsCompileOnce:
    @staticmethod
    def count_compiles(monkeypatch):
        from repro.core import compile_expr

        calls = []
        original = compile_expr.compile_batch

        def counting(expr, evaluator, row_vars, one_row=False):
            calls.append(expr)
            return original(expr, evaluator, row_vars, one_row)

        monkeypatch.setattr(compile_expr, "compile_batch", counting)
        return calls

    def test_repeated_executes_hit_the_kernel_cache(self, db, monkeypatch):
        calls = self.count_compiles(monkeypatch)
        query = (
            "SELECT c.name AS name, COUNT(*) AS n FROM orders AS o "
            "JOIN custs AS c ON o.cust = c.cid WHERE o.total > 20 "
            "GROUP BY c.name"
        )
        first = db.execute(query)
        assert db.metrics.last.batched is True
        misses = len(calls)
        assert misses > 0
        for __ in range(3):
            again = db.execute(query)
        assert len(calls) == misses
        assert deep_equals(Bag(list(first)), Bag(list(again)))

    def test_kernels_survive_rebind_with_new_parameters(self, db, monkeypatch):
        calls = self.count_compiles(monkeypatch)
        query = "SELECT VALUE o.oid FROM orders AS o WHERE o.total > ? AND o.open"
        high = db.execute(query, parameters=[90])
        misses = len(calls)
        low = db.execute(query, parameters=[10])
        assert len(calls) == misses
        assert len(db._evaluators) == 1
        # The cached kernel reads the rebound parameter, not the first.
        assert len(list(low)) > len(list(high)) > 0
        for result, bound in ((high, 90), (low, 10)):
            reference = db.execute(query, parameters=[bound], optimize=False)
            assert deep_equals(Bag(list(result)), Bag(list(reference)))


# ---------------------------------------------------------------------------
# Nested data on the chunk pipeline: the lateral operator and the
# subquery kernels (docs/PLANNER.md "Lateral operator", "Subquery kernels")
# ---------------------------------------------------------------------------

UNNEST = "SELECT e.id AS id, p.h AS h FROM emp AS e, e.projects AS p"
EXISTS_NESTED = (
    "SELECT e.id AS id FROM emp AS e WHERE EXISTS "
    "(SELECT VALUE p FROM e.projects AS p WHERE p.h >= 0)"
)
NESTED_SELECT = (
    "SELECT e.id AS id, (SELECT VALUE p.h FROM e.projects AS p WHERE p.h >= 0) "
    "AS hs FROM emp AS e"
)


def emp_db(rows: int = 40, projects: int = 50, **kwargs) -> Database:
    db = Database(**kwargs)
    db.set(
        "emp",
        [
            {"id": i, "projects": [{"h": i + j} for j in range(projects)]}
            for i in range(rows)
        ],
    )
    return db


def exhausted(db: Database, query: str, **kwargs) -> errors.ResourceExhausted:
    with pytest.raises(errors.ResourceExhausted) as info:
        db.execute(query, **kwargs)
    return info.value


class TestLateralChunks:
    def test_explain_renders_one_tree(self):
        db = emp_db(rows=3, projects=2)
        plan = db.explain_plan(UNNEST + " WHERE p.h > 1 AND e.id < 2")
        # The driving scan is not a replayed right side: no tag; pushed
        # filters sit on the operator that runs them.
        assert (
            "FROM\n"
            "  Lateral[INNER]  [filter: (p.h > 1)]\n"
            "    Scan emp AS e  [filter: (e.id < 2)]\n"
            "    lateral: e.projects AS p\n"
        ) in plan
        assert "materialized once" not in plan
        assert "executor: batch" in plan
        assert (
            "kernels: 4 columnar (5 stored-column reads), no env-space fallback"
        ) in plan
        three_ways(db, UNNEST + " WHERE p.h > 1 AND e.id < 2")

    def test_unpivot_source_goes_through_the_kernels(self, monkeypatch):
        # Neither the chunk path nor the row path evaluates an UNPIVOT
        # source with the tree-walking interpreter under optimize=True.
        from repro.core.evaluator import Evaluator

        db = Database()
        db.set("prices", [{"day": 1, "a": 10, "b": 20}, {"day": 2, "a": 11}, 7])
        query = (
            "SELECT sym AS sym, price AS price FROM prices AS c, "
            "UNPIVOT c AS price AT sym WHERE sym != 'day'"
        )
        expected = three_ways(db, query)
        assert len(expected) == 4  # a, b, a and the non-tuple's '_1'
        assert "no env-space fallback" in db.explain_plan(query)
        walked = []
        original = Evaluator.eval_expr
        monkeypatch.setattr(
            Evaluator,
            "eval_expr",
            lambda self, expr, env: walked.append(expr) or original(self, expr, env),
        )
        db.execute(query)
        run(db.execute, query, rows=True)
        assert walked == []

    def test_max_rows_fires_inside_a_lateral_chunk(self):
        from repro.core.plan_ops import GOVERNOR_TICK

        db = emp_db(rows=10, projects=500)
        batch = exhausted(db, UNNEST, max_rows=700)
        assert db.metrics.last.batched is True
        streamed = run(exhausted, db, UNNEST, max_rows=700, rows=True)
        assert batch.kind == streamed.kind == "max_rows"
        assert streamed.rows_produced == 701
        assert abs(batch.rows_produced - streamed.rows_produced) <= GOVERNOR_TICK

    def test_limits_fire_inside_a_subquery_kernel(self):
        from repro.core.plan_ops import GOVERNOR_TICK

        db = emp_db(rows=10, projects=500)
        never = EXISTS_NESTED.replace("p.h >= 0", "p.h < 0")
        for query in (never, NESTED_SELECT):
            assert "no env-space fallback" in db.explain_plan(query)
            batch = exhausted(db, query, max_rows=700)
            assert db.metrics.last.batched is True
            streamed = run(exhausted, db, query, max_rows=700, rows=True)
            assert batch.kind == streamed.kind == "max_rows"
            assert (
                abs(batch.rows_produced - streamed.rows_produced) <= GOVERNOR_TICK
            ), query
        # An EXISTS whose first element hits: the stream pulls one
        # project per employee (20 rows in all) and the kernel, which
        # evaluates all 5 000, accounts exactly that.
        for overrides in ({}, ROWS):
            assert len(run(db.execute, EXISTS_NESTED, max_rows=20, **overrides)) == 10
            assert run(exhausted, db, EXISTS_NESTED, max_rows=19, **overrides)
        # One level of nesting is over a max_recursion of 1 either way.
        assert exhausted(db, NESTED_SELECT, max_recursion=1).kind == "max_recursion"

    @pytest.mark.parametrize("query", [UNNEST, NESTED_SELECT])
    def test_timeout_fires_inside_the_flatten(self, query):
        # A row whose collection is a slow lazy bag: the flatten pulls
        # it element-wise and ticks the governor every GOVERNOR_TICK
        # elements, so the deadline interrupts the chunk long before
        # the 100 000 elements (or even one chunk of them) are pulled.
        import time

        from repro.datamodel.values import LazyBag, Struct

        def slow():
            for i in range(100_000):
                time.sleep(0.001)
                yield Struct([("h", i)])

        # (Behind a lazy named value, which statistics never sample.)
        row = Struct([("id", 0), ("projects", LazyBag(slow))])
        db = Database(timeout_s=0.05)
        db.catalog.set_model("emp", LazyBag(lambda: iter([row])))
        started = time.perf_counter()
        error = exhausted(db, query)
        assert db.metrics.last.batched is True
        assert error.kind == "timeout"
        assert error.rows_produced < 1024
        assert time.perf_counter() - started < 1.0

    def test_lazy_source_error_surfaces_unchanged(self):
        def rows():
            for i in range(10):
                if i == 6:
                    raise RuntimeError("source broke at row 6")
                yield {"id": i, "projects": [{"h": i}, {"h": -i}]}

        db = Database()
        db.set_lazy("emp", rows)
        for overrides in ({}, ROWS, {"optimize": False}):
            with pytest.raises(RuntimeError, match="source broke at row 6"):
                run(db.execute, UNNEST, **overrides)

    def test_early_close_closes_the_left_child(self):
        from repro.config import EvalConfig
        from repro.core.environment import Environment
        from repro.core.evaluator import Evaluator
        from repro.core.plan_ops import CHUNK_ROWS, LateralJoinOp
        from repro.core.planner import plan_block

        closed = []

        def rows():
            try:
                for i in range(10 * CHUNK_ROWS):
                    yield {"id": i, "projects": [{"h": i}, {"h": -i}]}
            finally:
                closed.append(True)

        db = Database()
        db.set_lazy("emp", rows)
        config = EvalConfig()
        plan = plan_block(db.compile(UNNEST).body, config)
        assert isinstance(plan.op, LateralJoinOp)
        evaluator = Evaluator(db.catalog, config)
        for size in (CHUNK_ROWS, 1):
            chunks = plan.op.iter_chunks(evaluator, Environment(), size)
            first = next(chunks)
            # ``size`` bounds a chunk, and a full one is cut at it.
            assert len(first) == size
            assert closed == []
            chunks.close()
            assert closed == [True]
            closed.clear()

    def test_left_lateral_pads_in_left_order(self):
        db = Database()
        db.set(
            "emp",
            [
                {"id": 0, "projects": [{"h": 1}, {"h": 9}]},
                {"id": 1, "projects": []},
                {"id": 2},
                {"id": 3, "projects": [{"h": 9}]},
                {"id": 4, "projects": "solo"},
            ],
        )
        query = (
            "SELECT e.id AS id, p AS p, i AS i FROM emp AS e "
            "LEFT JOIN e.projects AS p AT i ON p.h < 5 ORDER BY e.id"
        )
        result = three_ways(db, query, ordered=True)
        assert [row["id"] for row in result] == [0, 1, 2, 3, 4]
        assert [row["p"] for row in result][1:] == [None] * 4
        assert "executor: batch" in db.explain_plan(query)

    def test_collections_larger_than_a_chunk_are_sliced(self):
        from repro.core.plan_ops import CHUNK_ROWS

        db = Database()
        db.set(
            "emp",
            [{"id": i, "projects": [{"h": j} for j in range(3 * CHUNK_ROWS + 7)]}
             for i in range(2)],
        )
        query = UNNEST + " WHERE p.h >= 5"
        assert len(three_ways(db, query)) == 2 * (3 * CHUNK_ROWS + 2)
        three_ways(db, NESTED_SELECT)
        three_ways(db, EXISTS_NESTED)


class TestChunkSize:
    """``size`` bounds one pull of every operator: no chunk is longer,
    and the rows, in order, are the same at every size."""

    SHAPES = {
        "scan": "SELECT VALUE e.id FROM emp AS e WHERE e.id > 2",
        "lateral": "SELECT e.id AS id, p AS p FROM emp AS e, e.projects AS p",
        "left-lateral": (
            "SELECT e.id AS id, p AS p FROM emp AS e "
            "LEFT JOIN e.projects AS p ON p.h > 4"
        ),
        "materialize": (
            "SELECT e.id AS id, d.k AS k FROM emp AS e JOIN dept AS d ON e.id < d.k"
        ),
        "hash": (
            "SELECT e.id AS id, d.k AS k FROM emp AS e "
            "LEFT JOIN dept AS d ON e.id = d.k"
        ),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_no_chunk_is_longer_than_size(self, shape):
        from repro.config import EvalConfig
        from repro.core.environment import Environment
        from repro.core.evaluator import Evaluator
        from repro.core.plan_ops import CHUNK_ROWS
        from repro.core.planner import plan_block

        db = emp_db(rows=12, projects=3)
        db.set("dept", [{"k": k % 8} for k in range(16)])
        config = EvalConfig()
        plan = plan_block(db.compile(self.SHAPES[shape]).body, config)
        evaluator = Evaluator(db.catalog, config)
        runs = {}
        for size in (1, 3, CHUNK_ROWS):
            chunks = list(plan.op.iter_chunks(evaluator, Environment(), size))
            assert all(0 < len(chunk) <= size for chunk in chunks), size
            runs[size] = [row for chunk in chunks for row in chunk.rows()]
        assert runs[1] == runs[3] == runs[CHUNK_ROWS]
        assert runs[1]


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


class TestSubqueryKernels:
    def test_admitted_shapes_leave_the_fallback_list(self):
        db = emp_db(rows=5, projects=3)
        for query in (
            EXISTS_NESTED,
            NESTED_SELECT,
            "SELECT VALUE COLL_SUM((SELECT VALUE p.h FROM e.projects AS p)) "
            "FROM emp AS e",
            "SELECT VALUE (SELECT VALUE [a, v] FROM e.projects AS p, "
            "UNPIVOT p AS v AT a) FROM emp AS e",
        ):
            kernels = db.explain_plan(query).splitlines()[-1]
            assert kernels.endswith("no env-space fallback"), kernels
            three_ways(db, query)

    def test_other_shapes_stay_listed(self):
        db = emp_db(rows=5, projects=3)
        db.set("other", [{"h": 1}])
        for inner, kind in (
            ("SELECT VALUE p.h FROM e.projects AS p ORDER BY p.h LIMIT 1", "SubqueryExpr"),
            ("SELECT DISTINCT VALUE p.h FROM e.projects AS p", "SubqueryExpr"),
            ("SELECT VALUE COLL_COUNT(g) FROM e.projects AS p GROUP BY p.h GROUP AS g",
             "SubqueryExpr"),
            ("SELECT VALUE p.h FROM e.projects AS p LET d = p.h * 2 WHERE d > 2",
             "SubqueryExpr"),
            # Not rooted in the row: re-ranged per row by the evaluator.
            ("SELECT VALUE o.h FROM other AS o WHERE o.h = e.id", "SubqueryExpr"),
            # A non-relocatable predicate pins evaluation order.
            ("SELECT VALUE p.h FROM e.projects AS p WHERE p.h > ?", "SubqueryExpr"),
        ):
            query = f"SELECT e.id AS id, ({inner}) AS v FROM emp AS e"
            kernels = db.explain_plan(query).splitlines()[-1]
            assert f"[{kind}]" in kernels, kernels
            three_ways(db, query, parameters=[1])
        exists = (
            "SELECT e.id AS id FROM emp AS e WHERE EXISTS "
            "(SELECT VALUE p FROM e.projects AS p ORDER BY p.h LIMIT 1)"
        )
        assert "[Exists]" in db.explain_plan(exists).splitlines()[-1]
        three_ways(db, exists)

    def test_result_is_a_bag_per_row_never_missing(self):
        db = Database()
        db.set("emp", [{"id": 0, "projects": [{"h": 1}]}, {"id": 1}, {"id": 2, "projects": 5}])
        result = db.execute(NESTED_SELECT)
        assert db.metrics.last.batched is True
        by_id = {row["id"]: row["hs"] for row in result}
        assert all(type(value) is Bag for value in by_id.values())
        assert [len(by_id[i]) for i in range(3)] == [1, 0, 0]


# ---------------------------------------------------------------------------
# Strict typing on the batch executor: optimistic run, replay on the stream
# ---------------------------------------------------------------------------

STRICT_DIALS = {
    "default": {},
    "rows": ROWS,
    "optimize=False": {"optimize": False},
}


def strict_outcomes(db: Database, query: str, **kwargs) -> dict:
    """Per dial combination: the result as plain data, or the error class."""
    outcomes = {}
    for name, dials in STRICT_DIALS.items():
        try:
            outcomes[name] = to_python(run(db.execute, query, **dials, **kwargs))
        except errors.SQLPPError as error:
            outcomes[name] = type(error)
    return outcomes


class TestStrictReplay:
    """Two-error-class cases where a bare batch run would surface a
    different error than the stream (or an error where the stream returns
    a row): an error escaping the batch attempt re-runs the block on the
    stream, so columns mode agrees with rows mode."""

    @staticmethod
    def strict_db(**values) -> Database:
        db = Database(typing_mode="strict")
        for name, rows in values.items():
            db.set(name, rows)
        return db

    def assert_all(self, db, query, expected, **kwargs):
        outcomes = strict_outcomes(db, query, **kwargs)
        assert outcomes == dict.fromkeys(STRICT_DIALS, expected), (query, outcomes)

    @pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
    def test_only_strict_blocks_mark_the_tracer(self, typing_mode, monkeypatch):
        # A replay point copies every recorded tally; only a strict block
        # can be replayed, so only a strict block takes one.
        from repro.observability import ExecTracer

        marks = []
        mark = ExecTracer.mark
        monkeypatch.setattr(
            ExecTracer, "mark", lambda self: marks.append(1) or mark(self)
        )
        db = Database(typing_mode=typing_mode)
        db.set("t", [{"a": i} for i in range(5)])
        db.explain_analyze("SELECT VALUE t.a FROM t AS t WHERE t.a > 2")
        assert db.metrics.last.batched is True
        assert len(marks) >= 1 if typing_mode == "strict" else not marks

    def test_column_major_surfaces_the_streams_error(self):
        # Row 0 divides by zero, row 1 adds to a string: a column-major
        # run evaluates every ``t.a + 1`` before any division.
        query = "SELECT VALUE (t.a + 1) / t.b FROM t AS t"
        db = self.strict_db(t=[{"a": 1, "b": 0}, {"a": "x", "b": 1}])
        self.assert_all(db, query, errors.EvaluationError)
        db.execute("SELECT VALUE t.b FROM t AS t")
        assert db.metrics.last.batched is True
        with pytest.raises(errors.EvaluationError):
            db.execute(query)
        assert db.metrics.last.batched is False
        assert db.metrics.last.streamed is True
        assert db.metrics.last.status == "error"

    def test_errors_chunks_and_morsels_apart(self):
        # The same two rows 28k apart, in different chunks of the
        # columns-mode run.
        rows = [{"a": i, "b": 1} for i in range(30_000)]
        rows[100] = {"a": 1, "b": 0}
        rows[28_100] = {"a": "x", "b": 1}
        db = self.strict_db(t=rows)
        query = "SELECT VALUE (t.a + 1) / t.b FROM t AS t"
        self.assert_all(db, query, errors.EvaluationError)

    def test_row_major_fold_surfaces_the_group_major_error(self):
        # Group b=1 is first seen at row 0 and holds the mistyped row 2;
        # the stream and the oracle evaluate SUM group by group, the
        # chunk fold row by row (row 1 divides by zero).
        db = self.strict_db(
            t=[{"a": 1, "b": 1}, {"a": 1, "b": 0}, {"a": "x", "b": 1}]
        )
        for argument in ("t.a / t.b", "(t.a + 1) / t.b"):
            self.assert_all(
                db,
                f"SELECT t.b AS b, SUM({argument}) AS s FROM t AS t GROUP BY t.b",
                errors.TypeCheckError,
            )

    def test_exists_kernel_tests_elements_the_stream_never_pulls(self):
        # The streamed EXISTS stops at 5; the flatten-and-segment kernel
        # compares 'z' > 1 too.  The oracle materializes the subquery
        # and raises: the sanctioned exception of docs/LANGUAGE.md §8,
        # now true of the batch executor as well.
        query = (
            "SELECT VALUE u.id FROM u AS u WHERE EXISTS "
            "(SELECT VALUE x FROM u.xs AS x WHERE x > 1)"
        )
        db = self.strict_db(u=[{"id": 7, "xs": [5, 2, "z"]}])
        outcomes = strict_outcomes(db, query)
        assert outcomes.pop("optimize=False") is errors.TypeCheckError
        assert outcomes == dict.fromkeys(outcomes, [7])
        db.execute(query)
        assert db.metrics.last.batched is False
        assert db.metrics.last.streamed is True
        assert db.metrics.last.status == "ok"

    def test_projected_subquery_raises_everywhere(self):
        db = self.strict_db(u=[{"id": 7, "xs": [5, 2, "z"]}])
        self.assert_all(
            db,
            "SELECT VALUE (SELECT VALUE x FROM u.xs AS x WHERE x > 1) FROM u AS u",
            errors.TypeCheckError,
        )

    def test_derived_table_replays_inside_its_enclosing_block(self):
        # Both blocks enter the batch executor; the inner one's error is
        # replayed there, the stream's verdict escapes the outer attempt
        # and is replayed — to the same verdict — once more.
        db = self.strict_db(t=[{"a": 1, "b": 0}, {"a": "x", "b": 1}])
        self.assert_all(
            db,
            "SELECT VALUE d + 1 FROM (SELECT VALUE (t.a + 1) / t.b FROM t AS t) AS d",
            errors.EvaluationError,
        )

    @pytest.mark.parametrize("max_rows", [4000, 6000])
    def test_replay_rewinds_the_governor(self, max_rows):
        # The aborted attempt scanned all 3,000 rows before its SELECT
        # kernel raised; charged again on top of them, the replay's
        # 2,501 would breach max_rows=4000 and hide the type error.
        rows = [{"a": i} for i in range(3_000)]
        rows[2_500] = {"a": "x"}
        db = self.strict_db(t=rows)
        self.assert_all(
            db, "SELECT VALUE t.a + 1 FROM t AS t", errors.TypeCheckError,
            max_rows=max_rows,
        )

    def test_limits_and_binding_errors_are_not_replayed(self, monkeypatch):
        from repro.core import vectorized

        streamed = []
        execute_block = vectorized.execute_block

        def spy(evaluator, query, plan, env, rows=False, stream=False):
            if rows:
                streamed.append(1)
            return execute_block(evaluator, query, plan, env, rows, stream)

        monkeypatch.setattr(vectorized, "execute_block", spy)
        db = self.strict_db(t=[{"a": i} for i in range(100)], two=[1, 2])
        with pytest.raises(errors.ResourceExhausted):
            db.execute("SELECT VALUE t.a FROM t AS t", max_rows=10)
        with pytest.raises(errors.BindingError):
            db.execute("SELECT VALUE t.a + nowhere FROM t AS t, two AS s")
        assert not streamed
        # Permissive typing never replays, whatever escapes.
        with pytest.raises(errors.EvaluationError):
            db.execute("SELECT VALUE NO_SUCH_FN(t.a) FROM t AS t", typing_mode="permissive")
        assert not streamed
        with pytest.raises(errors.TypeCheckError):
            db.execute("SELECT VALUE t.a + 'x' FROM t AS t")
        assert streamed == [1]
