"""The plan/rewrite structural verifier (docs/ANALYZER.md).

Clean plans must verify with zero violations; deliberately-broken
fixtures — a mutated copy of a real plan per invariant — must each be
caught.  Also pins the three entry points: the ``REPRO_VERIFY_PLANS``
environment gate (off by default, on in the CI sweep), the on-demand
``Database.verify_plan``, and the fact that a violation surfaces as
:class:`PlanVerificationError` (a ``RuntimeError``, *not* an
``SQLPPError``) so parity harnesses cannot swallow it.
"""

from __future__ import annotations

import pytest

from repro import Database, errors
from repro.analysis.verify_plan import (
    PlanVerificationError,
    maybe_verify_block_plan,
    verification_enabled,
    verify_block_plan,
    verify_rewrite,
)
from repro.config import EvalConfig
from repro.core.plan_ops import EmptyOp
from repro.core.planner import BlockPlan, plan_block
from repro.core.rewriter import rewrite_query
from repro.syntax import ast
from repro.syntax.parser import parse

JOIN_QUERY = (
    "SELECT VALUE [a.k, b.k] FROM xs AS a JOIN ys AS b ON a.k = b.k "
    "WHERE a.v > 1"
)


def _plan(query: str = JOIN_QUERY) -> BlockPlan:
    config = EvalConfig()
    core = rewrite_query(parse(query), config, catalog_names=("xs", "ys"))
    plan = plan_block(core.body, config, catalog_names={"xs", "ys"})
    assert plan is not None
    return plan


class TestCleanPlans:
    def test_join_plan_verifies(self):
        assert verify_block_plan(_plan()) == []

    def test_pruned_plan_verifies(self):
        plan = _plan("SELECT VALUE a FROM xs AS a WHERE a.k > 5 AND a.k < 3")
        assert plan.pruned is not None
        assert verify_block_plan(plan) == []

    def test_not_a_plan_is_one_violation(self):
        assert verify_block_plan(object()) == [
            "not a BlockPlan: object"
        ]


class TestBrokenFixtures:
    """Each fixture breaks exactly one invariant of a real plan."""

    def test_duplicate_operator_in_tree(self):
        plan = _plan()
        join = plan.op
        join.right = join.left  # one operator, two parents
        violations = verify_block_plan(plan)
        assert any("more than once" in v for v in violations)

    def test_negative_estimate(self):
        plan = _plan()
        plan.op.est_rows = -1.0
        violations = verify_block_plan(plan)
        assert any("negative row estimate" in v for v in violations)

    def test_model_estimate_above_product(self):
        plan = _plan()
        join = plan.op
        join.left.est_rows = 2.0
        join.right.est_rows = 3.0
        join.est_rows = 100.0
        join.est_source = "model"
        violations = verify_block_plan(plan)
        assert any("exceeds the product" in v for v in violations)

    def test_feedback_estimate_above_product_allowed(self):
        # A feedback hint is an observed actual: it may exceed the model.
        plan = _plan()
        join = plan.op
        join.left.est_rows = 2.0
        join.right.est_rows = 3.0
        join.est_rows = 100.0
        join.est_source = "feedback"
        assert verify_block_plan(plan) == []

    def test_filter_referencing_unbound_name(self):
        plan = _plan("SELECT VALUE a FROM xs AS a WHERE a.v > 1")
        scan = plan.op
        assert scan.filters, "fixture expects a pushed filter"
        rogue = ast.Binary(
            op=">",
            left=ast.Path(base=ast.VarRef(name="ghost"), attr="v"),
            right=ast.Literal(value=1),
        )
        rogue.line, rogue.column = 1, 1
        scan.filters.append(rogue)
        violations = verify_block_plan(plan)
        assert any("unbound names" in v for v in violations)

    def test_filter_without_span(self):
        plan = _plan("SELECT VALUE a FROM xs AS a WHERE a.v > 1")
        scan = plan.op
        for node in scan.filters[0].walk():
            node.line = None
        violations = verify_block_plan(plan)
        assert any("no source span" in v for v in violations)

    def test_vars_not_matching_item(self):
        plan = _plan("SELECT VALUE a FROM xs AS a WHERE a.v > 1")
        plan.op.vars = ["somebody_else"]
        violations = verify_block_plan(plan)
        assert any("item variables" in v for v in violations)

    def test_pruned_claim_without_empty_op(self):
        plan = _plan("SELECT VALUE a FROM xs AS a WHERE a.v > 1")
        plan.pruned = "fabricated"
        violations = verify_block_plan(plan)
        assert any("not a single EmptyOp" in v for v in violations)

    def test_pruned_plan_with_residual(self):
        residual = ast.Literal(value=True)
        residual.line, residual.column = 1, 1
        plan = BlockPlan(
            op=EmptyOp(["a"], "fixture"),
            residual_where=residual,
            rewrites=[],
            pruned="fixture",
        )
        violations = verify_block_plan(plan)
        assert any("residual WHERE" in v for v in violations)


LATERAL_QUERY = (
    "SELECT VALUE [a.k, x] FROM xs AS a, a.items AS x AT p WHERE x > 1"
)


class TestLateralInvariants:
    """The lateral operator: output variables are the left side's then
    the right item's; the right item ranges over the left variables (and
    names resolvable outside the plan); pushed filters stay in scope."""

    def test_clean_lateral_plan_verifies(self):
        from repro.core.plan_ops import LateralJoinOp

        plan = _plan(LATERAL_QUERY)
        assert isinstance(plan.op, LateralJoinOp)
        assert plan.op.vars == ["a", "x", "p"]
        assert plan.op.filters, "fixture expects the filter on the operator"
        assert verify_block_plan(plan) == []
        assert verify_block_plan(plan, scope_names={"xs", "ys"}) == []

    def test_variable_order(self):
        plan = _plan(LATERAL_QUERY)
        plan.op.vars = ["x", "p", "a"]
        violations = verify_block_plan(plan)
        assert any("left variables followed by" in v for v in violations)

    def test_right_vars_not_the_items(self):
        plan = _plan(LATERAL_QUERY)
        plan.op.right_vars = ["x"]
        violations = verify_block_plan(plan)
        assert any("right item's variables" in v for v in violations)

    def test_right_item_not_lateral(self):
        plan = _plan(LATERAL_QUERY)
        plan.op.right_item = ast.FromCollection(
            expr=ast.VarRef(name="ys"), alias="x", at_alias="p"
        )
        violations = verify_block_plan(plan)
        assert any("not lateral" in v for v in violations)

    def test_right_item_references_a_stray_name(self):
        plan = _plan(LATERAL_QUERY)
        plan.op.right_item = ast.FromCollection(
            expr=ast.Binary(
                op="||",
                left=ast.Path(base=ast.VarRef(name="a"), attr="items"),
                right=ast.VarRef(name="ghost"),
            ),
            alias="x",
            at_alias="p",
        )
        # Only checkable when the caller knows what resolves outside.
        assert verify_block_plan(plan) == []
        violations = verify_block_plan(plan, scope_names={"xs", "ys"})
        assert any("'ghost'" in v and "neither" in v for v in violations)

    def test_pushed_filter_out_of_scope(self):
        plan = _plan(LATERAL_QUERY)
        plan.op.left.filters.append(plan.op.filters[0])  # x is not bound there
        violations = verify_block_plan(plan)
        assert any("unbound names ['x']" in v for v in violations)

    def test_database_verify_plan_knows_the_enclosing_scope(self):
        # A lateral right side inside a correlated subquery may mention
        # the outer block's variable; that is not a stray name.
        db = Database()
        db.set("xs", [{"k": 1, "items": [[1, 2], [3]]}])
        for typing_mode in ("permissive", "strict"):
            assert (
                db.verify_plan(
                    "SELECT VALUE (SELECT VALUE y + a.k FROM a.items AS x, "
                    "ARRAY_CONCAT(x, [a.k]) AS y) FROM xs AS a",
                    typing_mode=typing_mode,
                )
                == []
            )


class TestRewriteVerification:
    def test_identity_with_firings_is_a_violation(self):
        core = rewrite_query(
            parse("SELECT VALUE a FROM xs AS a"),
            EvalConfig(),
            catalog_names=("xs",),
        )

        class Fired:
            code = "SQLPPR99"
            line = 1

        violations = verify_rewrite(core, core, [Fired()], ["xs"])
        assert any("returned the input tree" in v for v in violations)

    def test_unstamped_synthesized_node(self):
        config = EvalConfig()
        core = rewrite_query(
            parse("SELECT VALUE a FROM xs AS a WHERE a.k = 1"),
            config,
            catalog_names=("xs",),
        )
        import dataclasses

        bare = ast.VarRef(name="a")  # no span on purpose
        broken = dataclasses.replace(
            core, body=dataclasses.replace(core.body, where=bare)
        )
        violations = verify_rewrite(core, broken, [], ["xs"])
        assert any("without a source span" in v for v in violations)

    def test_binding_regression(self):
        config = EvalConfig()
        core = rewrite_query(
            parse("SELECT VALUE a FROM xs AS a"),
            config,
            catalog_names=("xs",),
        )
        import dataclasses

        rogue = ast.VarRef(name="nowhere")
        rogue.line, rogue.column = 1, 1
        broken = dataclasses.replace(
            core, body=dataclasses.replace(core.body, where=rogue)
        )
        violations = verify_rewrite(core, broken, [], ["xs"])
        assert any("binding error" in v for v in violations)

    def test_binding_regression_inside_case(self):
        core = rewrite_query(
            parse("SELECT VALUE CASE WHEN a > 1 THEN a ELSE 0 END FROM xs AS a"),
            EvalConfig(),
            catalog_names=("xs",),
        )
        import dataclasses

        rogue = ast.VarRef(name="nowhere")
        rogue.line, rogue.column = 1, 1
        case = core.body.select.expr
        broken_case = dataclasses.replace(case, whens=[(rogue, case.whens[0][1])])
        broken = dataclasses.replace(
            core,
            body=dataclasses.replace(
                core.body,
                select=dataclasses.replace(core.body.select, expr=broken_case),
            ),
        )
        violations = verify_rewrite(core, broken, [], ["xs"])
        assert any("'nowhere'" in v for v in violations)

    def test_firing_without_position(self):
        config = EvalConfig()
        core = rewrite_query(
            parse("SELECT VALUE a FROM xs AS a WHERE a.k = 1"),
            config,
            catalog_names=("xs",),
        )
        import dataclasses

        stamped = ast.Literal(value=True)
        stamped.line, stamped.column = 1, 1
        changed = dataclasses.replace(
            core, body=dataclasses.replace(core.body, where=stamped)
        )

        class Fired:
            code = "SQLPPR99"
            line = None

        violations = verify_rewrite(core, changed, [Fired()], ["xs"])
        assert any("records no source position" in v for v in violations)


class TestEntryPoints:
    def test_env_gate_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        assert not verification_enabled()
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
        assert not verification_enabled()
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        assert verification_enabled()

    def test_maybe_verify_raises_non_sqlpp_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        plan = _plan()
        plan.op.est_rows = -5.0
        with pytest.raises(PlanVerificationError) as caught:
            maybe_verify_block_plan(plan)
        assert not isinstance(caught.value, errors.SQLPPError)
        assert caught.value.violations

    def test_maybe_verify_noop_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        plan = _plan()
        plan.op.est_rows = -5.0
        maybe_verify_block_plan(plan)  # must not raise

    def test_database_verify_plan_clean(self):
        db = Database()
        db.set("xs", [{"k": 1, "v": 2}])
        db.set("ys", [{"k": 1}])
        assert db.verify_plan(JOIN_QUERY) == []

    def test_database_verify_plan_both_modes(self):
        db = Database()
        db.set("xs", [{"k": 1, "v": 2}])
        for mode in ("permissive", "strict"):
            assert (
                db.verify_plan(
                    "SELECT VALUE a FROM xs AS a WHERE a.k > 5 AND a.k < 3",
                    typing_mode=mode,
                )
                == []
            )

    def test_execution_under_env_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        db = Database()
        db.set("xs", [{"k": 1, "v": 2}, {"k": 2, "v": 0}])
        db.set("ys", [{"k": 1}, {"k": 3}])
        assert list(db.execute(JOIN_QUERY)) == [[1, 1]]
