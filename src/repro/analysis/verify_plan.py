"""Structural verifier for physical plans and rewrite-registry output.

The planner and the rewrite registry promise invariants the executor
silently relies on: every operator binds exactly the variables its
FROM item declares, pushed filters only reference variables their
operator binds, hash-join keys resolve on the correct side, row
estimates are non-negative and (for model-derived numbers) obey the
join-output <= product-of-inputs monotonicity law, attached
expressions carry source spans, and the operator tree is a proper
tree (an operator shared between two parents would be double-closed
by close() propagation).  Rewrite output must likewise keep every
synthesized node span-stamped and must not unbind any name that
resolved before the rewrite.

This module machine-checks those promises.  It runs in three places:

* automatically on every produced plan when ``REPRO_VERIFY_PLANS=1``
  (any non-empty value other than ``0``) is set — the CI compat-kit
  sweep runs this way;
* on demand via :meth:`repro.catalog.database.Database.verify_plan`;
* from tests, against deliberately-broken plan fixtures.

Violations raise :class:`PlanVerificationError`, which deliberately is
**not** an :class:`repro.errors.SQLPPError`: parity harnesses that
catch engine errors must not swallow a verifier failure.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence, Set

from repro.syntax import ast

#: Relative slack for floating-point estimate comparisons.
_EPSILON = 1e-9


class PlanVerificationError(RuntimeError):
    """A physical plan or rewrite output broke a structural invariant."""

    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        details = "\n".join(f"  - {violation}" for violation in violations)
        super().__init__(
            f"plan verification failed ({len(violations)} violation"
            f"{'s' if len(violations) != 1 else ''}):\n{details}"
        )


def verification_enabled() -> bool:
    """True when ``REPRO_VERIFY_PLANS`` asks for automatic checking."""
    return os.environ.get("REPRO_VERIFY_PLANS", "") not in ("", "0")


def maybe_verify_block_plan(plan: Any) -> None:
    """Verify a freshly-planned block when the env flag is set."""
    if not verification_enabled():
        return
    violations = verify_block_plan(plan)
    if violations:
        raise PlanVerificationError(violations)


def maybe_verify_rewrite(
    pre_core: ast.Query,
    core: ast.Query,
    fired: Sequence[Any],
    catalog_names: Sequence[str] = (),
) -> None:
    """Verify a rewrite-registry output when the env flag is set."""
    if not verification_enabled():
        return
    violations = verify_rewrite(pre_core, core, fired, catalog_names)
    if violations:
        raise PlanVerificationError(violations)


# =========================================================================
# Physical plans
# =========================================================================


def _expr_names(expr: ast.Expr) -> Set[str]:
    from repro.core.planner import free_names

    return free_names(expr)


def _check_span(expr: ast.Expr, where: str, out: List[str]) -> None:
    if expr.line is None:
        from repro.syntax.printer import print_ast

        out.append(
            f"{where}: expression `{print_ast(expr)}` carries no source "
            "span (line is None)"
        )


def _check_vars(op: Any, scope_names: Optional[Set[str]], out: List[str]) -> None:
    """Variable well-formedness for one operator."""
    from repro.core.plan_ops import (
        EmptyOp,
        HashJoinOp,
        LateralJoinOp,
        MaterializeJoinOp,
        ScanOp,
    )
    from repro.core.planner import item_vars

    label = type(op).__name__
    names = getattr(op, "vars", None)
    if not isinstance(names, list) or not all(
        isinstance(name, str) and name for name in names
    ):
        out.append(f"{label}: vars must be a list of non-empty strings")
        return
    if len(set(names)) != len(names):
        out.append(f"{label}: vars contains duplicates: {names}")
    if isinstance(op, ScanOp):
        declared = set(item_vars(op.item))
        if set(names) != declared:
            out.append(
                f"{label}: vars {sorted(names)} != item variables "
                f"{sorted(declared)}"
            )
    elif isinstance(op, (HashJoinOp, MaterializeJoinOp, LateralJoinOp)):
        expected = set(op.left.vars) | set(op.right_vars)
        if set(names) != expected:
            out.append(
                f"{label}: vars {sorted(names)} != left vars + right vars "
                f"{sorted(expected)}"
            )
        if isinstance(op, LateralJoinOp):
            _check_lateral(op, names, scope_names, out)
    elif isinstance(op, EmptyOp):
        pass  # only the generic checks above apply


def _check_lateral(
    op: Any, names: List[str], scope_names: Optional[Set[str]], out: List[str]
) -> None:
    """A lateral operator binds its left variables then its right
    item's, in that order, and the right item ranges over nothing but
    the left variables and names resolvable outside the plan."""
    from repro.core.planner import free_names, item_vars

    label = type(op).__name__
    declared = item_vars(op.right_item)
    if list(op.right_vars) != declared:
        out.append(
            f"{label}: right_vars {op.right_vars} != the right item's "
            f"variables {declared}"
        )
    ordered = list(op.left.vars) + [
        name for name in declared if name not in op.left.vars
    ]
    if names != ordered:
        out.append(
            f"{label}: vars {names} are not the left variables followed by "
            f"the right item's ({ordered})"
        )
    referenced = free_names(op.right_item)
    if not referenced & set(op.left.vars):
        out.append(
            f"{label}: the right item references no left variable "
            f"({sorted(op.left.vars)}) — it is not lateral"
        )
    if scope_names is not None:
        stray = referenced - set(op.left.vars) - set(declared) - scope_names
        if stray:
            out.append(
                f"{label}: the right item references {sorted(stray)}, bound "
                "by neither the left side nor the catalog"
            )
    if op.on is not None:
        _check_span(op.on, f"{label} ON", out)


def _check_filters(op: Any, out: List[str]) -> None:
    """Pushed filters and join keys only reference variables in scope."""
    from repro.core.plan_ops import HashJoinOp

    label = type(op).__name__
    bound = set(getattr(op, "vars", ()) or ())
    for predicate in getattr(op, "filters", ()) or ():
        _check_span(predicate, f"{label} filter", out)
        extra = _expr_names(predicate) - bound
        if extra:
            out.append(
                f"{label}: pushed filter references unbound names "
                f"{sorted(extra)} (operator binds {sorted(bound)})"
            )
    if isinstance(op, HashJoinOp):
        left_bound = set(op.left.vars)
        right_bound = set(op.right_vars)
        for key in op.left_keys:
            extra = _expr_names(key) - left_bound
            if extra:
                out.append(
                    f"{label}: probe key references {sorted(extra)} not "
                    f"bound by the left side {sorted(left_bound)}"
                )
        for key in op.right_keys:
            extra = _expr_names(key) - right_bound
            if extra:
                out.append(
                    f"{label}: build key references {sorted(extra)} not "
                    f"bound by the right side {sorted(right_bound)}"
                )
        for predicate in op.residual:
            _check_span(predicate, f"{label} residual", out)
            extra = _expr_names(predicate) - bound
            if extra:
                out.append(
                    f"{label}: residual ON conjunct references unbound "
                    f"names {sorted(extra)}"
                )


def _check_estimates(op: Any, out: List[str]) -> None:
    """est_rows is never negative; model-derived join estimates obey
    output <= product-of-inputs (feedback overrides are observed
    actuals for this exact plan shape and may exceed the model)."""
    from repro.core.plan_ops import HashJoinOp, MaterializeJoinOp

    label = type(op).__name__
    estimate = getattr(op, "est_rows", None)
    if estimate is not None and estimate < 0:
        out.append(f"{label}: negative row estimate {estimate}")
    if (
        isinstance(op, (HashJoinOp, MaterializeJoinOp))
        and estimate is not None
        and getattr(op, "est_source", "model") == "model"
    ):
        left = getattr(op.left, "est_rows", None)
        right = getattr(op.right, "est_rows", None)
        if left is not None and right is not None:
            bound = left * right
            if op.kind == "LEFT":
                bound = max(bound, left)
            if estimate > bound * (1.0 + _EPSILON):
                out.append(
                    f"{label}: estimate {estimate} exceeds the product of "
                    f"its inputs ({left} x {right} = {bound})"
                )


def query_scope_names(query: ast.Query, catalog_names: Sequence[str]) -> Set[str]:
    """``scope_names`` for the plans of ``query``'s blocks: the catalog's
    names (and the roots of its dotted ones) plus every variable any
    block of the query binds — a superset of each block's enclosing
    scope, which is all the stray-name check needs."""
    from repro.core.clauses import bound_names

    names = bound_names(query)
    for name in catalog_names:
        names.add(name)
        names.add(name.split(".", 1)[0])
    return names


def verify_block_plan(plan: Any, scope_names: Optional[Set[str]] = None) -> List[str]:
    """Every structural violation in one :class:`BlockPlan` (empty =
    the plan upholds its invariants).

    ``scope_names`` — the names resolvable outside the plan (catalog
    names plus any enclosing block's variables), when the caller knows
    them — additionally checks that a lateral right item references
    nothing else."""
    from repro.core.plan_ops import EmptyOp, PlanOp
    from repro.core.planner import BlockPlan, walk_plan_ops

    violations: List[str] = []
    if not isinstance(plan, BlockPlan):
        return [f"not a BlockPlan: {type(plan).__name__}"]
    if not isinstance(plan.op, PlanOp):
        return [f"plan has no operator tree: {type(plan.op).__name__}"]

    seen_ids: Set[int] = set()
    for op in walk_plan_ops(plan.op):
        if id(op) in seen_ids:
            violations.append(
                f"{type(op).__name__} appears more than once in the "
                "operator tree — close() would propagate twice"
            )
            continue
        seen_ids.add(id(op))
        _check_vars(op, scope_names, violations)
        _check_filters(op, violations)
        _check_estimates(op, violations)
    if plan.residual_where is not None:
        _check_span(plan.residual_where, "residual WHERE", violations)
    if plan.pruned is not None:
        if not isinstance(plan.op, EmptyOp):
            violations.append("plan claims `pruned:` but is not a single EmptyOp")
        if plan.residual_where is not None:
            violations.append("pruned plan still carries a residual WHERE")
    return violations


# =========================================================================
# Rewrite-registry output
# =========================================================================


def verify_rewrite(
    pre_core: ast.Query,
    core: ast.Query,
    fired: Sequence[Any],
    catalog_names: Sequence[str] = (),
) -> List[str]:
    """Every violation in one rewrite-registry application.

    Checks (a) span presence — each node the registry synthesized (not
    present in the input tree) must carry a source span pointing at the
    sugar the user wrote, so downstream lint findings and errors stay
    attributable; (b) binding well-formedness — resolving the rewritten
    query must not surface an unbound name the input resolved fine
    (``SQLPP001``-class regressions introduced by a rewrite are bugs in
    its safety conditions); (c) each firing record carries a span.
    """
    violations: List[str] = []
    if core is pre_core:
        if fired:
            violations.append(
                "registry reports firings but returned the input tree"
            )
        return violations

    original_ids = {id(node) for node in pre_core.walk()}
    unstamped = 0
    for node in core.walk():
        if id(node) in original_ids:
            continue
        if node.line is None:
            unstamped += 1
    if unstamped:
        violations.append(
            f"rewrite synthesized {unstamped} node"
            f"{'s' if unstamped != 1 else ''} without a source span"
        )

    for record in fired:
        if getattr(record, "line", None) is None:
            code = getattr(record, "code", "?")
            violations.append(
                f"rewrite firing {code} records no source position"
            )

    violations.extend(_binding_regressions(pre_core, core, catalog_names))
    return violations


def _binding_regressions(
    pre_core: ast.Query,
    core: ast.Query,
    catalog_names: Sequence[str],
) -> List[str]:
    from repro.analysis.typeflow import flow_diagnostics

    def unbound(query: ast.Query) -> Set[str]:
        return {
            diagnostic.message
            for diagnostic in flow_diagnostics(query, catalog_names=catalog_names)
            if diagnostic.code == "SQLPP001"
        }

    before = unbound(pre_core)
    regressions = unbound(core) - before
    return [
        f"rewrite introduced a binding error: {message}"
        for message in sorted(regressions)
    ]
