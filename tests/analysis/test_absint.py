"""The abstract-interpretation pass (docs/ANALYZER.md, SQLPP120-124).

Covers the three analyses — constant folding by execution, the
interval/value-set conjunction domain, CASE reachability — plus their
lint surface and the planner integration: folded constants reach the
compiled plan, proven-empty blocks collapse to a zero-row operator
with a ``pruned:`` EXPLAIN line, proven-TRUE conjuncts are dropped,
and every optimization is invisible in results (on/off parity pinned
here for the acceptance query; the property suite generalizes it).
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.analysis.absint import (
    block_prune_reason,
    fold_expr,
    fold_query,
    never_true,
    unreachable_whens,
)
from repro.config import EvalConfig
from repro.core.planner import split_conjuncts
from repro.core.rewriter import rewrite_query
from repro.datamodel.values import MISSING, Bag
from repro.syntax import ast
from repro.syntax.parser import parse
from repro.syntax.printer import print_ast

PERMISSIVE = EvalConfig()
STRICT = EvalConfig(typing_mode="strict")


def _expr(text: str) -> ast.Expr:
    """The Core form of one expression (parsed via a SELECT shell)."""
    core = rewrite_query(
        parse(f"SELECT VALUE {text} FROM [1] AS t"),
        PERMISSIVE,
        catalog_names=(),
    )
    return core.body.select.expr


def _where(text: str, config: EvalConfig = PERMISSIVE) -> ast.Expr:
    core = rewrite_query(
        parse(f"SELECT VALUE t FROM [1] AS t WHERE {text}"),
        config,
        catalog_names=(),
    )
    return core.body.where


class TestConstantFolding:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("1 + 2 * 3", 7),
            ("'a' || 'b'", "ab"),
            ("NOT FALSE", True),
            ("-(2 + 3)", -5),
            ("1 < 2", True),
            ("1 = 1 AND 2 = 2", True),
            ("FALSE OR TRUE", True),
            ("2 BETWEEN 1 AND 3", True),
            ("'abc' LIKE 'a%'", True),
            ("3 IN [1, 2, 3]", True),
            ("NULL IS NULL", True),
            ("MISSING IS MISSING", True),
            ("CASE WHEN TRUE THEN 'y' ELSE 'n' END", "y"),
            ("CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END", "b"),
        ],
    )
    def test_folds_to_literal(self, text, value):
        folded = fold_expr(_expr(text), PERMISSIVE)
        assert isinstance(folded, ast.Literal)
        assert folded.value == value

    def test_fold_keeps_span(self):
        expr = _expr("1 + 2")
        folded = fold_expr(expr, PERMISSIVE)
        assert (folded.line, folded.column) == (expr.line, expr.column)

    def test_absent_comparison_folds_in_both_modes(self):
        # Comparisons against absent literals return early before type
        # checks, so the fold is safe even under strict typing.
        for config in (PERMISSIVE, STRICT):
            folded = fold_expr(_expr("1 = NULL"), config)
            assert isinstance(folded, ast.Literal)
            assert folded.value is None

    def test_raising_subexpression_stays_unfolded_in_strict(self):
        # 1 < 'a' raises TypeError in strict mode: the fold must leave
        # it in place so evaluation still raises.
        expr = _expr("1 < 'a'")
        folded = fold_expr(expr, STRICT)
        assert not isinstance(folded, ast.Literal)
        # ... but permissive mode folds it to its MISSING verdict.
        assert fold_expr(expr, PERMISSIVE).value is MISSING

    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize(
        "collection, negated, value",
        [
            ("[MISSING, 2]", "", False),
            ("[MISSING, 2]", "NOT", True),
            ("<<MISSING, 2>>", "", False),
            ("[NULL, 2]", "", None),
        ],
    )
    def test_in_over_a_literal_holding_missing(
        self, collection, negated, value, optimize
    ):
        # The collection constructors leave a MISSING item out, so the
        # list is [2]: the fold must not compare against MISSING.
        query = f"SELECT VALUE 1 {negated} IN {collection} FROM [1] AS z"
        assert list(Database(optimize=optimize).execute(query)) == [value]

    def test_dynamic_operands_stay(self):
        folded = fold_expr(_where("t > 1 + 1"), PERMISSIVE)
        assert isinstance(folded, ast.Binary)
        assert isinstance(folded.right, ast.Literal)
        assert folded.right.value == 2

    def test_fold_query_counts_and_shares_unchanged(self):
        query = rewrite_query(
            parse("SELECT VALUE t FROM [1] AS t WHERE t > 1"),
            PERMISSIVE,
            catalog_names=(),
        )
        same, folds = fold_query(query, PERMISSIVE)
        assert folds == 0 and same is query
        query2 = rewrite_query(
            parse("SELECT VALUE t FROM [1] AS t WHERE t > 1 + 1"),
            PERMISSIVE,
            catalog_names=(),
        )
        rebuilt, folds2 = fold_query(query2, PERMISSIVE)
        assert folds2 == 1 and rebuilt is not query2


class TestConjunctionSatisfiability:
    @pytest.mark.parametrize(
        "text",
        [
            "t.x > 5 AND t.x < 3",
            "t.x >= 5 AND t.x < 5",
            "t.x = 1 AND t.x = 2",
            "t.x = 1 AND t.x != 1",
            "t.x = 1 AND t.x > 10",
            "t.x < 'a' AND t.x > 5",  # disjoint categories
            "t.x = 1 AND t.x IS NULL",
            "t.x IS MISSING AND t.x IS NOT MISSING",
            "t.x = NULL",  # absent literal never =-matches
            "t.x IN [] AND t.x = 1",
            "t.x IN [1, 2] AND t.x = 3",
            "t.x BETWEEN 5 AND 3",
            "FALSE",
        ],
    )
    def test_proven_never_true(self, text):
        conjuncts = split_conjuncts(_where(text))
        assert never_true(conjuncts, PERMISSIVE) is not None

    @pytest.mark.parametrize(
        "text",
        [
            "t.x > 3 AND t.x < 5",
            "t.x >= 5 AND t.x <= 5",
            "t.x = 1 AND t.x <= 1",
            "t.x IN [1, 2] AND t.x = 2",
            "t.x != 1 AND t.x != 2",
            "t.x IS NULL",
            "t.x > 5 AND t.y < 3",  # different terms
            "t.x < t.y",  # no constant side
        ],
    )
    def test_satisfiable_stays(self, text):
        conjuncts = split_conjuncts(_where(text))
        assert never_true(conjuncts, PERMISSIVE) is None

    def test_contradiction_carries_span(self):
        conjuncts = split_conjuncts(_where("t.x > 5 AND t.x < 3"))
        contradiction = never_true(conjuncts, PERMISSIVE)
        assert contradiction.line is not None


class TestCaseReachability:
    def _case(self, text: str) -> ast.CaseExpr:
        expr = _expr(text)
        assert isinstance(expr, ast.CaseExpr)
        return expr

    def test_constant_false_branch_dead(self):
        node = self._case("CASE WHEN FALSE THEN 1 WHEN t > 0 THEN 2 END")
        assert unreachable_whens(node, PERMISSIVE) == [0]

    def test_branches_after_constant_true_dead(self):
        node = self._case(
            "CASE WHEN t > 0 THEN 1 WHEN TRUE THEN 2 WHEN t < 0 THEN 3 END"
        )
        assert unreachable_whens(node, PERMISSIVE) == [2]

    def test_simple_case_constant_mismatch_dead(self):
        node = self._case("CASE 1 WHEN 2 THEN 'a' WHEN t THEN 'b' END")
        assert unreachable_whens(node, PERMISSIVE) == [0]

    def test_all_dynamic_alive(self):
        node = self._case("CASE WHEN t > 0 THEN 1 WHEN t < 0 THEN 2 END")
        assert unreachable_whens(node, PERMISSIVE) == []

    @pytest.mark.parametrize(
        "text, kept",
        [
            ("CASE WHEN t > 0 THEN 1 WHEN FALSE THEN 2 WHEN t < 0 THEN 3 END", [1, 3]),
            ("CASE WHEN t > 0 THEN 1 WHEN TRUE THEN 2 WHEN t < 0 THEN 3 END", [1, 2]),
            ("CASE WHEN FALSE THEN 1 WHEN t > 0 THEN 2 END", [2]),
        ],
    )
    def test_fold_keeps_the_reachable_branches(self, text, kept):
        folded = fold_expr(self._case(text), PERMISSIVE)
        assert [result.value for __, result in folded.whens] == kept


class TestBlockPruneReason:
    def _block(self, query: str, config: EvalConfig = PERMISSIVE):
        core = rewrite_query(parse(query), config, catalog_names=("t",))
        return core.body

    def test_contradiction_prunes(self):
        block = self._block(
            "SELECT VALUE r FROM t AS r WHERE r.x > 5 AND r.x < 3"
        )
        assert block_prune_reason(block, PERMISSIVE, {"t"}) is not None

    def test_strict_mode_never_prunes(self):
        block = self._block(
            "SELECT VALUE r FROM t AS r WHERE r.x > 5 AND r.x < 3", STRICT
        )
        assert block_prune_reason(block, STRICT, {"t"}) is None

    def test_unbound_catalog_name_blocks_prune(self):
        # Dropping evaluation must not erase the BindingError that
        # enumerating the unknown collection would raise.
        block = self._block(
            "SELECT VALUE r FROM t AS r WHERE r.x > 5 AND r.x < 3"
        )
        assert block_prune_reason(block, PERMISSIVE, set()) is None

    def test_satisfiable_where_blocks_prune(self):
        block = self._block("SELECT VALUE r FROM t AS r WHERE r.x > 5")
        assert block_prune_reason(block, PERMISSIVE, {"t"}) is None


class TestLintFindings:
    def _codes(self, db, query):
        return [d.code for d in db.check(query)]

    def test_sqlpp120_and_124_on_contradiction(self):
        db = Database()
        db.set("t", [{"x": 1}])
        codes = self._codes(
            db, "SELECT VALUE r FROM t AS r WHERE r.x > 5 AND r.x < 3"
        )
        assert "SQLPP120" in codes and "SQLPP124" in codes

    def test_sqlpp121_on_tautology(self):
        db = Database()
        db.set("t", [{"x": 1}, {"x": 2}])
        findings = db.check("SELECT VALUE r FROM t AS r WHERE r.x = r.x")
        tautologies = [d for d in findings if d.code == "SQLPP121"]
        assert len(tautologies) == 1
        assert tautologies[0].fixable == "drop-true"

    def test_sqlpp122_on_constant_expression(self):
        db = Database()
        findings = db.check("SELECT VALUE 1 + 2 * 3 FROM [1] AS t")
        folds = [d for d in findings if d.code == "SQLPP122"]
        assert len(folds) == 1
        assert folds[0].line is not None

    def test_sqlpp123_on_dead_branch(self):
        db = Database()
        codes = self._codes(
            db,
            "SELECT VALUE CASE WHEN FALSE THEN 1 ELSE t END "
            "FROM [1] AS t",
        )
        assert "SQLPP123" in codes

    def test_plain_queries_stay_clean(self):
        db = Database()
        db.set("t", [{"x": 1}])
        codes = self._codes(db, "SELECT VALUE r.x FROM t AS r WHERE r.x > 5")
        assert not any(code.startswith("SQLPP12") for code in codes)


class TestPlannerIntegration:
    ACCEPTANCE = "SELECT VALUE r FROM t AS r WHERE r.x > 5 AND r.x < 3"

    def _db(self, **kwargs) -> Database:
        db = Database(**kwargs)
        db.set(
            "t",
            [{"x": 1}, {"x": 4}, {"x": None}, {"y": 2}, {"x": "s"}],
        )
        return db

    def test_acceptance_query_prunes_to_empty(self):
        db = self._db()
        explained = db.explain_plan(self.ACCEPTANCE)
        assert "pruned:" in explained
        assert "Empty" in explained
        assert db.execute(self.ACCEPTANCE) == Bag() or list(
            db.execute(self.ACCEPTANCE)
        ) == []

    @pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
    def test_acceptance_on_off_parity(self, typing_mode):
        # Same rows in permissive mode; the same TypeCheckError in
        # strict mode (the string row raises before any pruning could
        # apply — which is exactly why pruning is permissive-only).
        from repro import errors

        def outcome(db):
            try:
                return ("value", list(db.execute(self.ACCEPTANCE)))
            except errors.SQLPPError as exc:
                return ("error", type(exc).__name__)

        on = outcome(self._db(typing_mode=typing_mode))
        off = outcome(self._db(typing_mode=typing_mode, optimize=False))
        assert on == off

    def test_strict_mode_does_not_prune(self):
        db = self._db(typing_mode="strict")
        assert "pruned:" not in db.explain_plan(self.ACCEPTANCE)

    def test_drop_true_conjunct(self):
        db = self._db()
        explained = db.explain_plan(
            "SELECT VALUE r FROM t AS r WHERE 1 = 1 AND r.x > 5"
        )
        assert "drop-true" in explained

    def test_folded_constant_reaches_plan(self):
        db = self._db()
        explained = db.explain_plan(
            "SELECT VALUE r FROM t AS r WHERE r.x > 2 + 3"
        )
        assert "(2 + 3)" not in explained

    def test_optimize_off_leaves_everything(self):
        db = self._db(optimize=False)
        rows = list(db.execute("SELECT VALUE r.x FROM t AS r WHERE 1 = 1"))
        assert sorted(str(x) for x in rows) == sorted(
            str(x)
            for x in db.execute("SELECT VALUE r.x FROM t AS r WHERE 1 = 1")
        )

