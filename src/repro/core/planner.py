"""The physical query planner.

Sits between the sugar→Core rewriter and the evaluator: given a Core
:class:`~repro.syntax.ast.QueryBlock`, it analyzes the FROM clause and
the WHERE conjunction and produces a :class:`BlockPlan` of physical
operators (:mod:`repro.core.plan_ops`) plus a residual WHERE.  The
rewrites it can fire:

* **hash-equi-join** — an uncorrelated join whose ``ON`` is a
  conjunction containing at least one equality that splits cleanly
  into a left-side and a right-side key expression becomes a
  :class:`~repro.core.plan_ops.HashJoinOp`;
* **materialize-right** — an uncorrelated join right side that does not
  qualify for hashing (non-equi ``ON``, CROSS) is materialized once
  instead of re-enumerated per left binding;
* **materialize-once** — an uncorrelated later FROM item in a comma
  cross product is enumerated once instead of once per upstream
  binding (``FROM a, b`` is ``a INNER JOIN b ON TRUE``: the same
  :class:`~repro.core.plan_ops.MaterializeJoinOp`);
* **predicate-pushdown** — WHERE conjuncts over a single FROM item's
  variables are evaluated during that item's enumeration, before the
  cross product is materialized; conjuncts over a prefix of items are
  applied by the operator that completes the prefix.

Comma-separated FROM items fold left-deep into the block's one operator
tree; a later item that mentions an earlier variable becomes a
:class:`~repro.core.plan_ops.LateralJoinOp`.  That tree is the engine's
only FROM enumerator: every block with a FROM clause is planned, in both
typing modes (``optimize=False`` never reaches the planner, it runs the
reference interpreter).

What is withheld, and where — see docs/PLANNER.md:

* under strict typing evaluation order is observable through raised
  errors, so only the structural fold (scan, lateral, materialize-once,
  materialize-right — each enumerates and evaluates exactly what the
  nested loop does, a right side never before its left side yields a
  row) applies; the rewrites that could turn an error into a result —
  hash-equi-join, predicate-pushdown / drop-true, prune-empty, join
  reorder — are each withheld where they are chosen below;
* correlated (lateral) right sides never hash or materialize: they
  re-range per left binding (:class:`~repro.core.plan_ops.LateralJoinOp`);
* pushdown is skipped when the block has LET clauses (LET evaluates
  between FROM and WHERE in the reference pipeline);
* a conjunct is only relocated when it is *relocatable*: built from
  node kinds that cannot raise before the WHERE clause would have
  (no window calls, subqueries, parameters, unknown functions);
* duplicate variable names across join sides disable hashing.

Every plan is checked against the reference (``optimize=False``) output
by the property tests and the compat-kit parity test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.config import EvalConfig
from repro.core.clauses import item_vars
from repro.core.plan_ops import (
    EmptyOp,
    HashJoinOp,
    LateralJoinOp,
    MaterializeJoinOp,
    PlanOp,
    ScanOp,
    scan_ops,
    walk_ops,
)
from repro.functions.operators import IS_KINDS
from repro.functions.registry import REGISTRY
from repro.functions.scalar import CAST_TARGETS
from repro.syntax import ast


# =========================================================================
# Analyses
# =========================================================================


def free_names(node: ast.Node) -> Set[str]:
    """Every variable name referenced anywhere under ``node``.

    A conservative over-approximation of the free variables: names bound
    inside nested subqueries are included too, which can only make the
    planner *more* cautious (a rewrite is applied only when the name set
    proves independence).
    """
    return {n.name for n in node.walk() if isinstance(n, ast.VarRef)}


_UNSAFE_NODES = (ast.WindowCall, ast.SubqueryExpr, ast.CoerceSubquery, ast.Parameter)


def is_relocatable(expr: ast.Expr) -> bool:
    """Whether evaluating ``expr`` earlier/fewer times than the
    reference WHERE/ON position is unobservable in permissive mode.

    Permissive typing turns dynamic type errors into MISSING, so most
    expressions are total; the exceptions that can still raise or carry
    evaluation state — window calls, subqueries, positional parameters,
    unknown or ``*`` function calls and calls with the wrong number of
    arguments, an unknown ``CAST`` target or
    ``IS`` type name (an ``EvaluationError`` in both typing modes) —
    keep a conjunct pinned in place, and a FROM source from being
    pruned (:func:`repro.analysis.absint.block_prune_reason`).
    """
    for node in expr.walk():
        if isinstance(node, _UNSAFE_NODES):
            return False
        if isinstance(node, ast.FunctionCall):
            definition = REGISTRY.lookup(node.name)
            if (
                node.star
                or definition is None
                or definition.arity_error(len(node.args)) is not None
            ):
                return False
        elif isinstance(node, ast.CastExpr):
            if node.type_name.upper() not in CAST_TARGETS:
                return False
        elif isinstance(node, ast.IsPredicate):
            if node.kind not in IS_KINDS:
                return False
    return True


def split_conjuncts(expr: ast.Expr) -> List[ast.Expr]:
    """Flatten a conjunction tree into its conjuncts.

    Keeping a binding requires the whole AND tree to be exactly TRUE,
    which (by 3-valued AND) holds iff every conjunct is exactly TRUE —
    so conjunct-wise filtering is equivalent to filtering on the tree.
    """
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_fold(conjuncts: List[ast.Expr]) -> Optional[ast.Expr]:
    """Fold conjuncts back into an AND tree (inverse of
    :func:`split_conjuncts`); None for an empty list.  Shared with the
    semantic rewrite registry (:mod:`repro.core.rewrite_rules`), which
    splits a WHERE, replaces or removes conjuncts, and refolds."""
    if not conjuncts:
        return None
    folded = conjuncts[0]
    for conjunct in conjuncts[1:]:
        rebuilt = ast.Binary(op="AND", left=folded, right=conjunct)
        # The synthesized AND carries its left arm's span so any lint
        # finding or error on the refolded tree points at source the
        # user actually wrote.
        ast.copy_span(rebuilt, folded)
        folded = rebuilt
    return folded


# =========================================================================
# The plan
# =========================================================================


@dataclass
class BlockPlan:
    """The physical plan for one query block's FROM + WHERE stages: one
    operator tree, whatever the number of FROM items."""

    op: PlanOp
    residual_where: Optional[ast.Expr]
    rewrites: List[str]
    #: The names of the collections the tree scans
    #: (:func:`scanned_names`): what the plan's estimates and join order
    #: were derived from, so what its staleness stamp covers.
    reads: Tuple[str, ...] = ()
    #: ``order: a ⋈ b (syntactic: b ⋈ a)`` EXPLAIN line for join plans
    #: costed against statistics; None when no join order was costed.
    order_line: Optional[str] = None
    #: Why the whole FROM/WHERE pipeline was proven empty and replaced
    #: by an :class:`~repro.core.plan_ops.EmptyOp`; None for ordinary
    #: plans.  Rendered as a ``pruned:`` EXPLAIN line.
    pruned: Optional[str] = None
    #: Memo of :func:`repro.observability.query_store.plan_hash` (the
    #: shape never changes once planned; a replan is a new object).
    shape_hash: Optional[str] = field(default=None, repr=False, compare=False)

    def explain(self, tracer=None, notes: Sequence[str] = ()) -> str:
        """The plan as text; with a tracer, annotated with runtime stats
        (EXPLAIN ANALYZE) and the est/actual/q-err comparison, the
        worst misestimate flagged.  ``notes`` are the lines that
        describe the plan's standing rather than its shape — the
        ``plan:`` reuse decision and the current ``stats:``
        (``Evaluator.plan_notes``); the shape alone is what
        :func:`~repro.observability.query_store.plan_hash` hashes."""
        from repro.syntax.printer import print_ast

        worst_id = (
            _worst_misestimate(self.op, tracer) if tracer is not None else None
        )
        lines = ["FROM"] + self.op.explain_lines(1, tracer, worst_id)
        if self.pruned is not None:
            lines.append(f"pruned: {self.pruned}")
        lines.extend(notes)
        if self.order_line is not None:
            lines.append(self.order_line)
        if self.residual_where is not None:
            lines.append(f"WHERE (residual): {print_ast(self.residual_where)}")
        else:
            lines.append("WHERE: (none — fully pushed down or absent)")
        lines.append("rewrites fired:")
        if self.rewrites:
            lines.extend(f"  - {rewrite}" for rewrite in self.rewrites)
        else:
            lines.append("  - (none)")
        return "\n".join(lines)


# =========================================================================
# Planning
# =========================================================================


def plan_block(
    block: ast.QueryBlock,
    config: EvalConfig,
    stats=None,
    reorder_ok: bool = False,
    catalog_names: Optional[Set[str]] = None,
) -> Optional[BlockPlan]:
    """Plan a Core query block; None only for a block without a FROM
    clause.

    Every other block gets the one operator tree it will ever have,
    rewrites or not, and every executor pulls FROM from it in chunks,
    of one row where row order is observable (docs/PLANNER.md, "One
    plan per block").  Under strict typing only the structural fold
    applies (module docstring).

    ``stats`` is an optional
    :class:`repro.catalog.statistics.StatsProvider`; with one, scanned
    collections get ``stats:`` EXPLAIN lines, and when ``reorder_ok``
    additionally holds (the caller proved the block's output order is
    unobservable — no ORDER BY / GROUP BY / DISTINCT downstream), inner
    hash-join trees are re-ordered greedily by estimated cardinality.

    ``catalog_names`` (when the caller knows them) lets abstract
    interpretation prove a never-TRUE WHERE clause's block empty and
    collapse the whole pipeline to a zero-row
    :class:`~repro.core.plan_ops.EmptyOp` (EXPLAIN ``pruned:`` line).
    """
    if block.from_ is None:
        return None
    # Strict typing: a rewrite that skips an evaluation can hide the
    # error it would have raised, so each one below checks this.
    permissive = config.is_permissive

    if block.where is not None and permissive:
        # Lazy import: absint layers on top of this module's helpers.
        from repro.analysis.absint import block_prune_reason

        reason = block_prune_reason(block, config, catalog_names)
        if reason is not None:
            variables: List[str] = []
            for item in block.from_:
                for name in item_vars(item):
                    if name not in variables:
                        variables.append(name)
            return BlockPlan(
                op=EmptyOp(variables, reason),
                residual_where=None,
                rewrites=[f"prune-empty: {reason}"],
                pruned=reason,
            )

    rewrites: List[str] = []
    item_var_sets: List[Set[str]] = []
    op: Optional[PlanOp] = None
    for index, item in enumerate(block.from_):
        if op is None:
            op = _plan_item(item, rewrites, permissive)
        elif free_names(item) & set(op.vars):
            # ``FROM a, b`` is ``a INNER JOIN b ON TRUE`` with the
            # paper's left-correlation: fold it into the one tree.
            op = _fold_lateral(op, item, rewrites, permissive)
        else:
            op = _join(op, item, "INNER", None, rewrites, permissive)
            # A comma's materialize-right goes by its own name.
            rewrites[-1] = f"materialize-once: FROM item #{index + 1}"
        item_var_sets.append(set(item_vars(item)))

    residual_where = block.where
    # Pushdown is only safe when nothing evaluates between FROM and
    # WHERE in the reference pipeline (LET does), only sound when no
    # item rebinds an earlier item's variable (the conjunct would bind
    # to the wrong one below the rebinding), and only invisible under
    # permissive typing (a pushed conjunct excludes rows before a
    # sibling conjunct could raise on them).
    declared = [name for item in block.from_ for name in item_vars(item)]
    distinct = len(set(declared)) == len(declared)
    if block.where is not None and not block.lets and distinct and permissive:
        conjuncts: List[ast.Expr] = []
        for conjunct in split_conjuncts(block.where):
            # A literal TRUE conjunct filters nothing and cannot raise
            # under permissive typing; dropping it before pushdown
            # keeps it out of every per-row filter chain.
            if isinstance(conjunct, ast.Literal) and conjunct.value is True:
                rewrites.append("drop-true: TRUE conjunct removed")
                continue
            conjuncts.append(conjunct)
        residual: List[ast.Expr] = []
        for conjunct in conjuncts:
            if not _push_conjunct(conjunct, op, item_var_sets, rewrites):
                residual.append(conjunct)
        if len(residual) < len(split_conjuncts(block.where)):
            residual_where = and_fold(residual)

    reads = scanned_names(op)
    order_line: Optional[str] = None
    if stats is not None:
        op, order_line = _maybe_reorder(
            op, stats, reorder_ok and permissive, rewrites
        )
        # After any reorder (it replaces operators): pin the planner's
        # row estimate onto every operator, so EXPLAIN ANALYZE can show
        # est= next to actual= and the query store can compute q-errors.
        _estimate_op(op, stats)

    return BlockPlan(
        op=op,
        residual_where=residual_where,
        rewrites=rewrites,
        reads=reads,
        order_line=order_line,
    )


def _push_conjunct(
    conjunct: ast.Expr,
    op: PlanOp,
    item_var_sets: List[Set[str]],
    rewrites: List[str],
) -> bool:
    """Push one WHERE conjunct as deep as it can safely go; False keeps
    it in the residual WHERE."""
    from repro.syntax.printer import print_ast

    names = free_names(conjunct)
    if not names or not is_relocatable(conjunct):
        return False
    # Single-item conjunct: filter during that item's enumeration (or,
    # for a lateral item, on the operator that ranges over it).
    target = None
    for index, variables in enumerate(item_var_sets):
        if names <= variables:
            target = f"FROM item #{index + 1}"
            break
    else:
        # Prefix conjunct: the operator completing the earliest prefix
        # that binds every referenced variable applies it (worthless on
        # the last item — that is just WHERE).
        prefix: Set[str] = set()
        for index, variables in enumerate(item_var_sets[:-1]):
            prefix |= variables
            if names <= prefix:
                target = f"after FROM item #{index + 1}"
                break
    if target is None:
        return False
    _attach_filter(op, conjunct, names)
    rewrites.append(f"predicate-pushdown: {print_ast(conjunct)} → {target}")
    return True


def _attach_filter(op: PlanOp, conjunct: ast.Expr, names: Set[str]) -> None:
    """Attach a pushed conjunct to the deepest operator that binds all
    its variables.  Never descends into the padded (right) side of a
    LEFT join: filtering there before padding would change which rows
    get padded."""
    if isinstance(op, (HashJoinOp, MaterializeJoinOp, LateralJoinOp)):
        if names <= set(op.left.vars):
            _attach_filter(op.left, conjunct, names)
            return
    if isinstance(op, (HashJoinOp, MaterializeJoinOp)) and op.kind != "LEFT":
        if names <= set(op.right.vars):
            _attach_filter(op.right, conjunct, names)
            return
    op.filters.append(conjunct)


def _plan_item(item: ast.FromItem, rewrites: List[str], permissive: bool) -> PlanOp:
    """Plan one FROM item subtree (joins recurse; leaves scan)."""
    if isinstance(item, ast.FromJoin):
        return _plan_join(item, rewrites, permissive)
    op = ScanOp(item)
    op.vars = item_vars(item)
    return op


def _plan_join(item: ast.FromJoin, rewrites: List[str], permissive: bool) -> PlanOp:
    left_op = _plan_item(item.left, rewrites, permissive)
    return _join(left_op, item.right, item.kind, item.on, rewrites, permissive)


def _fold_lateral(
    op: PlanOp, item: ast.FromItem, rewrites: List[str], permissive: bool
) -> PlanOp:
    """Fold a comma item that touches ``op``'s variables onto it.  A
    join item re-associates into the left-deep tree — ``a, (x JOIN z ON
    p)`` is ``(a, x) JOIN z ON p``, for inner and LEFT joins alike — so
    every lateral right side is one range or UNPIVOT item."""
    if isinstance(item, ast.FromJoin):
        op = _fold_lateral(op, item.left, rewrites, permissive)
        return _join(op, item.right, item.kind, item.on, rewrites, permissive)
    return _join(op, item, "INNER", None, rewrites, permissive)


def _join(
    left_op: PlanOp,
    item: ast.FromItem,
    kind: str,
    on: Optional[ast.Expr],
    rewrites: List[str],
    permissive: bool,
) -> PlanOp:
    """``left_op kind JOIN item ON on``: lateral when the item touches
    the left variables, else a hash or materialize-right join."""
    left_vars = set(left_op.vars)
    right_vars = item_vars(item)

    op: PlanOp
    if free_names(item) & left_vars:
        # Lateral right side: the paper's left-correlation semantics.
        op = LateralJoinOp(left_op, item, kind, on, right_vars)
    else:
        right_op = _plan_item(item, rewrites, permissive)
        split = None
        # Strict typing never hashes: comparing keys of different
        # categories must raise, where a hash probe just finds no match.
        if (
            permissive
            and on is not None
            and kind in ("INNER", "LEFT")
            and not (left_vars & set(right_vars))
        ):
            split = _split_equi_on(on, left_vars, set(right_vars))
        if split is not None:
            left_keys, right_keys, residual = split
            op = HashJoinOp(
                left_op,
                right_op,
                kind,
                left_keys,
                right_keys,
                residual,
                right_vars,
            )
            rewrites.append(
                f"hash-equi-join[{kind}]: {op.describe()}"
            )
        else:
            op = MaterializeJoinOp(left_op, right_op, kind, on, right_vars)
            rewrites.append(
                f"materialize-right[{kind}]: right side enumerated once"
            )
    op.vars = left_op.vars + [name for name in right_vars if name not in left_vars]
    return op


# =========================================================================
# Statistics-fed join ordering
# =========================================================================

#: Below this many total base rows, reordering cannot win enough to
#: matter and tiny fixtures keep their syntactic (pin-stable) plans.
MIN_REORDER_ROWS = 512


def scanned_names(op: PlanOp) -> Tuple[str, ...]:
    """The collection names scanned at or below ``op``, each once: the
    sources :func:`repro.catalog.statistics.source_name` recognizes (a
    name the catalog does not hold — a variable — has no statistics and
    never changes epoch, so including it costs nothing)."""
    from repro.catalog.statistics import source_name

    names: List[str] = []
    for scan in scan_ops(op):
        if not isinstance(scan.item, ast.FromCollection):
            continue
        name = source_name(scan.item.expr)
        if name is not None and name not in names:
            names.append(name)
    return tuple(names)


@dataclass
class _JoinLeaf:
    """One base scan of a flattened inner-join tree, with its cost."""

    scan: ScanOp
    alias: str
    name: str
    vars: Set[str]
    #: Estimated surviving rows (row count × pushed-filter selectivity).
    estimate: float
    stats: object


@dataclass
class _JoinEdge:
    """One equi-key conjunct linking two leaves."""

    a_leaf: int
    a_expr: ast.Expr
    a_attr: Optional[str]
    b_leaf: int
    b_expr: ast.Expr
    b_attr: Optional[str]


def _maybe_reorder(
    op: PlanOp, stats, reorder_ok: bool, rewrites: List[str]
) -> Tuple[PlanOp, Optional[str]]:
    """Cost the join order of a pure-inner hash-join tree; reorder it
    greedily when allowed and profitable.  Returns the tree to run and
    the EXPLAIN ``order:`` line (also produced when the order is merely
    *costed*, so EXPLAIN shows the decision either way; None when the
    shape does not qualify)."""
    flattened = _flatten_inner_joins(op, stats)
    if flattened is None:
        return op, None
    leaves, edges, predicates = flattened
    syntactic = list(range(len(leaves)))
    total_rows = sum(leaf.stats.row_count for leaf in leaves)
    chosen = syntactic
    if reorder_ok and total_rows >= MIN_REORDER_ROWS:
        chosen = _greedy_order(leaves, edges, stats)
    order_text = " ⋈ ".join(leaves[i].alias for i in chosen)
    if chosen == syntactic:
        return op, f"order: {order_text} (syntactic)"
    syntactic_text = " ⋈ ".join(leaf.alias for leaf in leaves)
    rewrites.append(
        f"join-reorder: {order_text} (syntactic: {syntactic_text})"
    )
    return (
        _rebuild_join_tree(leaves, edges, predicates, chosen),
        f"order: {order_text} (syntactic: {syntactic_text})",
    )


def _flatten_inner_joins(op: PlanOp, stats):
    """Flatten a pure-INNER HashJoinOp tree over FromCollection scans.

    Returns ``(leaves, edges, predicates)`` — predicates being residual
    conjuncts and join-node filters to reattach after reordering — or
    None when the tree does not qualify (any non-inner or non-hash
    join, a scan without statistics, or a key expression that does not
    fall within exactly one leaf's variables)."""
    from repro.catalog.statistics import source_name

    scans: List[ScanOp] = []
    joins: List[HashJoinOp] = []

    def collect(node: PlanOp) -> bool:
        if isinstance(node, ScanOp):
            scans.append(node)
            return True
        if isinstance(node, HashJoinOp) and node.kind == "INNER":
            joins.append(node)
            return collect(node.left) and collect(node.right)
        return False

    if not isinstance(op, HashJoinOp) or not collect(op):
        return None

    leaves: List[_JoinLeaf] = []
    for scan in scans:
        if not isinstance(scan.item, ast.FromCollection):
            return None
        name = source_name(scan.item.expr)
        if name is None:
            return None
        collected = stats.stats_for(name)
        if collected is None:
            return None
        estimate = float(collected.row_count)
        for predicate in scan.filters:
            estimate *= _selectivity(predicate, scan.item.alias, collected)
        estimate = max(estimate, 1.0)
        # An observed cardinality for this exact scan shape beats the
        # sampled guess: a prefix sample cannot see tail skew, an
        # executed scan counted every surviving row.
        feedback = getattr(stats, "feedback_rows", None)
        if feedback is not None:
            hint = feedback(scan_feedback_key(scan))
            if hint is not None:
                estimate = max(float(hint), 1.0)
        leaves.append(
            _JoinLeaf(
                scan=scan,
                alias=scan.item.alias,
                name=name,
                vars=set(scan.vars),
                estimate=estimate,
                stats=collected,
            )
        )

    def owner(expr: ast.Expr) -> Optional[int]:
        names = free_names(expr)
        if not names:
            return None
        for index, leaf in enumerate(leaves):
            if names <= leaf.vars:
                return index
        return None

    edges: List[_JoinEdge] = []
    predicates: List[ast.Expr] = []
    for join in joins:
        for left_key, right_key in zip(join.left_keys, join.right_keys):
            a = owner(left_key)
            b = owner(right_key)
            if a is None or b is None or a == b:
                return None
            edges.append(
                _JoinEdge(
                    a_leaf=a,
                    a_expr=left_key,
                    a_attr=_key_attr(left_key),
                    b_leaf=b,
                    b_expr=right_key,
                    b_attr=_key_attr(right_key),
                )
            )
        predicates.extend(join.residual)
        predicates.extend(join.filters)
    return leaves, edges, predicates


def _key_attr(expr: ast.Expr) -> Optional[str]:
    """The attribute a simple ``alias.attr`` key navigates, or None."""
    if isinstance(expr, ast.Path) and isinstance(expr.base, ast.VarRef):
        return expr.attr
    return None


def _selectivity(predicate: ast.Expr, alias: str, collected) -> float:
    """Cheap textbook selectivity for one pushed-down conjunct."""
    if isinstance(predicate, ast.Binary):
        attr = None
        for side in (predicate.left, predicate.right):
            candidate = _key_attr(side)
            if candidate is not None and isinstance(side.base, ast.VarRef):
                if side.base.name == alias:
                    attr = candidate
        if predicate.op == "=":
            if attr is not None:
                ndv = collected.ndv_for(attr)
                if ndv:
                    return 1.0 / ndv
            return 0.1
        if predicate.op in ("<", "<=", ">", ">="):
            return 1.0 / 3.0
    return 0.5


def _effective_rows(leaf: _JoinLeaf, attr: Optional[str]) -> float:
    """A leaf's estimate shrunk by its key's MISSING rate (rows whose
    key is absent can never match an equi-join)."""
    rows = leaf.estimate
    if attr is not None:
        rows *= 1.0 - leaf.stats.missing_for(attr)
    return max(rows, 1.0)


def _greedy_order(
    leaves: List[_JoinLeaf], edges: List[_JoinEdge], stats=None
) -> List[int]:
    """Greedy left-deep order: start from the largest leaf (the probe
    side streams; build sides materialize, so big inputs belong on the
    probe spine), then repeatedly append the connected leaf with the
    smallest estimated join output.

    With a feedback-carrying ``stats`` provider, a previously *observed*
    output cardinality for a candidate leaf pair replaces the ndv-model
    cost for that pair — the channel through which a misestimated join
    order corrects itself on re-execution."""
    feedback = (
        getattr(stats, "feedback_rows", None) if stats is not None else None
    )
    remaining = set(range(len(leaves)))
    first = max(remaining, key=lambda i: (leaves[i].estimate, -i))
    order = [first]
    remaining.discard(first)
    acc_rows = leaves[first].estimate
    while remaining:
        best = None
        best_cost = None
        for candidate in sorted(remaining):
            joined = _join_edges(order, candidate, edges)
            if not joined:
                continue
            divisor = 1.0
            cand_rows = leaves[candidate].estimate
            for edge in joined:
                if edge.a_leaf == candidate:
                    inner_attr, outer_attr = edge.a_attr, edge.b_attr
                    outer_leaf = edge.b_leaf
                else:
                    inner_attr, outer_attr = edge.b_attr, edge.a_attr
                    outer_leaf = edge.a_leaf
                cand_rows = min(
                    cand_rows, _effective_rows(leaves[candidate], inner_attr)
                )
                ndvs = []
                if inner_attr is not None:
                    ndv = leaves[candidate].stats.ndv_for(inner_attr)
                    if ndv:
                        ndvs.append(float(ndv))
                if outer_attr is not None:
                    ndv = leaves[outer_leaf].stats.ndv_for(outer_attr)
                    if ndv:
                        ndvs.append(float(ndv))
                if ndvs:
                    divisor = max(divisor, max(ndvs))
                else:
                    divisor = max(
                        divisor, max(acc_rows, cand_rows)
                    )  # |A⋈B| ≈ min(|A|,|B|) when ndv is unknown
            cost = acc_rows * cand_rows / divisor
            if feedback is not None and len(order) == 1:
                hint = feedback(
                    _pair_feedback_key(
                        leaves[order[0]], leaves[candidate], joined
                    )
                )
                if hint is not None:
                    cost = max(float(hint), 1.0)
            if best_cost is None or cost < best_cost:
                best = candidate
                best_cost = cost
        if best is None:
            # Disconnected remainder (cannot happen for trees built by
            # _plan_join, which always links the new leaf): keep the
            # syntactic relative order to stay safe.
            best = min(remaining)
            best_cost = acc_rows * leaves[best].estimate
        order.append(best)
        remaining.discard(best)
        acc_rows = max(best_cost, 1.0)
    return order


def _join_edges(
    order: List[int], candidate: int, edges: List[_JoinEdge]
) -> List[_JoinEdge]:
    placed = set(order)
    return [
        edge
        for edge in edges
        if (edge.a_leaf == candidate and edge.b_leaf in placed)
        or (edge.b_leaf == candidate and edge.a_leaf in placed)
    ]


def _rebuild_join_tree(
    leaves: List[_JoinLeaf],
    edges: List[_JoinEdge],
    predicates: List[ast.Expr],
    order: List[int],
) -> PlanOp:
    """A left-deep pure-INNER hash-join tree in the chosen order.

    Scans keep their pushed filters; equi-key conjuncts become the keys
    of whichever join first has both sides placed; everything else
    (residuals, join-node filters) reattaches by variable coverage —
    all joins are INNER, so conjunct placement commutes."""
    op: PlanOp = leaves[order[0]].scan
    acc_vars = list(leaves[order[0]].scan.vars)
    placed = {order[0]}
    used: Set[int] = set()
    for index in order[1:]:
        leaf = leaves[index]
        left_keys: List[ast.Expr] = []
        right_keys: List[ast.Expr] = []
        for edge_index, edge in enumerate(edges):
            if edge_index in used:
                continue
            if edge.a_leaf == index and edge.b_leaf in placed:
                left_keys.append(edge.b_expr)
                right_keys.append(edge.a_expr)
            elif edge.b_leaf == index and edge.a_leaf in placed:
                left_keys.append(edge.a_expr)
                right_keys.append(edge.b_expr)
            else:
                continue
            used.add(edge_index)
        joined = HashJoinOp(
            op,
            leaf.scan,
            "INNER",
            left_keys,
            right_keys,
            [],
            list(leaf.scan.vars),
        )
        acc_vars = acc_vars + list(leaf.scan.vars)
        joined.vars = list(acc_vars)
        placed.add(index)
        op = joined
    for predicate in predicates:
        _attach_filter(op, predicate, free_names(predicate))
    return op


def _split_equi_on(
    on: ast.Expr, left_vars: Set[str], right_vars: Set[str]
) -> Optional[Tuple[List[ast.Expr], List[ast.Expr], List[ast.Expr]]]:
    """Split a conjunctive ON into hashable key pairs plus residual.

    Returns ``(left_keys, right_keys, residual)`` or None when the join
    cannot hash: no clean equality conjunct, or a conjunct that is not
    relocatable (its evaluation pattern would change observably).
    """
    left_keys: List[ast.Expr] = []
    right_keys: List[ast.Expr] = []
    residual: List[ast.Expr] = []
    for conjunct in split_conjuncts(on):
        if not is_relocatable(conjunct):
            return None
        if isinstance(conjunct, ast.Binary) and conjunct.op == "=":
            a_names = free_names(conjunct.left)
            b_names = free_names(conjunct.right)
            if a_names <= left_vars and b_names <= right_vars:
                left_keys.append(conjunct.left)
                right_keys.append(conjunct.right)
                continue
            if a_names <= right_vars and b_names <= left_vars:
                left_keys.append(conjunct.right)
                right_keys.append(conjunct.left)
                continue
        residual.append(conjunct)
    if not left_keys:
        return None
    return left_keys, right_keys, residual


# =========================================================================
# Cardinality feedback & estimate annotation
# =========================================================================
#
# The query store (repro/observability/query_store.py) measures actual
# per-operator output rows on sampled executions and records them into
# the StatsProvider's FeedbackHints under *shape keys* built here.  The
# keys identify a scan or join by what determines its cardinality — the
# base collection(s) plus the sorted predicate/key prints — so a hint
# survives join reordering (sorted) but never leaks across different
# filters on the same collection.


def scan_feedback_key(scan: PlanOp) -> Optional[str]:
    """The feedback-hint key for a base-collection scan, or None."""
    from repro.catalog.statistics import source_name
    from repro.syntax.printer import print_ast

    if not isinstance(scan, ScanOp) or not isinstance(
        scan.item, ast.FromCollection
    ):
        return None
    name = source_name(scan.item.expr)
    if name is None:
        return None
    filters = ",".join(sorted(print_ast(p) for p in scan.filters))
    return f"scan|{name}|{filters}"


def join_feedback_key(op: PlanOp) -> Optional[str]:
    """The feedback-hint key for a hash join over base scans, or None."""
    from repro.catalog.statistics import source_name
    from repro.syntax.printer import print_ast

    if not isinstance(op, HashJoinOp):
        return None
    names: List[str] = []
    for scan in scan_ops(op):
        if not isinstance(scan.item, ast.FromCollection):
            return None
        name = source_name(scan.item.expr)
        if name is None:
            return None
        names.append(name)
    key_texts = [print_ast(k) for k in list(op.left_keys) + list(op.right_keys)]
    predicate_texts = [
        print_ast(p) for p in list(op.residual) + list(op.filters)
    ]
    return _join_key_text(op.kind, names, key_texts, predicate_texts)


def lateral_feedback_key(op: PlanOp) -> Optional[str]:
    """The feedback-hint key for a lateral operator whose left side has
    a key of its own (so the hint is pinned to the collections, filters
    and joins that feed it), or None."""
    from repro.syntax.printer import print_ast

    if not isinstance(op, LateralJoinOp):
        return None
    left = feedback_key(op.left)
    if left is None:
        return None
    unpivot = "unpivot " if isinstance(op.right_item, ast.FromUnpivot) else ""
    on = print_ast(op.on) if op.on is not None else ""
    filters = ",".join(sorted(print_ast(p) for p in op.filters))
    return (
        f"lateral[{op.kind}]|{left}|{unpivot}{print_ast(op.right_item.expr)}"
        f"|{on}|{filters}"
    )


def feedback_key(op: PlanOp) -> Optional[str]:
    """The feedback-hint key of an operator of any kind that has one."""
    return (
        scan_feedback_key(op)
        or join_feedback_key(op)
        or lateral_feedback_key(op)
    )


def _join_key_text(
    kind: str,
    names: List[str],
    key_texts: List[str],
    predicate_texts: List[str],
) -> str:
    return "|".join(
        [
            f"join[{kind}]",
            ",".join(sorted(names)),
            ",".join(sorted(key_texts)),
            ",".join(sorted(predicate_texts)),
        ]
    )


def _pair_feedback_key(
    leaf_a: _JoinLeaf, leaf_b: _JoinLeaf, joined: List[_JoinEdge]
) -> str:
    """The key an executed 2-leaf hash join would have recorded under.

    A rebuilt pair join carries the edge key expressions and no
    join-node predicates (residuals attach by coverage afterwards), so
    that is the shape looked up here."""
    from repro.syntax.printer import print_ast

    key_texts: List[str] = []
    for edge in joined:
        key_texts.append(print_ast(edge.a_expr))
        key_texts.append(print_ast(edge.b_expr))
    return _join_key_text("INNER", [leaf_a.name, leaf_b.name], key_texts, [])


def _estimate_op(op: PlanOp, stats) -> Optional[float]:
    """Estimate one operator's output rows (children first); None means
    the planner has no basis (statistics-free source, lateral join
    without feedback)."""
    from repro.catalog.statistics import source_name

    feedback = getattr(stats, "feedback_rows", None)
    estimate: Optional[float] = None
    if isinstance(op, EmptyOp):
        # A statically-proven empty pipeline: the one operator whose
        # estimate is exact and allowed to be zero.
        op.est_rows = 0.0
        return 0.0
    if isinstance(op, ScanOp):
        if isinstance(op.item, ast.FromCollection):
            name = source_name(op.item.expr)
            collected = stats.stats_for(name) if name is not None else None
            if collected is not None:
                estimate = float(collected.row_count)
                for predicate in op.filters:
                    estimate *= _selectivity(
                        predicate, op.item.alias, collected
                    )
                estimate = max(estimate, 1.0)
            if feedback is not None:
                hint = feedback(scan_feedback_key(op))
                if hint is not None:
                    estimate = max(float(hint), 1.0)
                    op.est_source = "feedback"
    elif isinstance(op, HashJoinOp):
        left = _estimate_op(op.left, stats)
        right = _estimate_op(op.right, stats)
        if left is not None and right is not None:
            divisor = _key_divisor(op, stats)
            if divisor is None:
                # ndv unknown on both sides: |A⋈B| ≈ min(|A|,|B|).
                estimate = max(min(left, right), 1.0)
            else:
                estimate = left * right / divisor
            if op.kind == "LEFT":
                estimate = max(estimate, left)
            for _ in list(op.residual) + list(op.filters):
                estimate *= 0.5
            estimate = max(estimate, 1.0)
        if feedback is not None:
            hint = feedback(join_feedback_key(op))
            if hint is not None:
                estimate = max(float(hint), 1.0)
                op.est_source = "feedback"
    elif isinstance(op, MaterializeJoinOp):
        left = _estimate_op(op.left, stats)
        right = _estimate_op(op.right, stats)
        if left is not None and right is not None:
            estimate = left * right
            if op.on is not None:
                estimate *= 0.5
            if op.kind == "LEFT":
                estimate = max(estimate, left)
            for _ in op.filters:
                estimate *= 0.5
            estimate = max(estimate, 1.0)
    elif isinstance(op, LateralJoinOp):
        # The right item re-ranges per left binding and the catalog
        # keeps no per-binding statistics, so the model has no basis
        # (est=?); an observed actual for this exact shape does.
        _estimate_op(op.left, stats)
        if feedback is not None:
            hint = feedback(lateral_feedback_key(op))
            if hint is not None:
                estimate = max(float(hint), 1.0)
                op.est_source = "feedback"
    op.est_rows = estimate
    return estimate


def _key_divisor(op: HashJoinOp, stats) -> Optional[float]:
    """The largest ndv among the join's resolvable key attributes."""
    from repro.catalog.statistics import source_name

    best: Optional[float] = None
    for side, keys in ((op.left, op.left_keys), (op.right, op.right_keys)):
        scans = {
            scan.item.alias: scan
            for scan in scan_ops(side)
            if isinstance(scan.item, ast.FromCollection)
        }
        for key in keys:
            attr = _key_attr(key)
            if attr is None or not isinstance(key.base, ast.VarRef):
                continue
            scan = scans.get(key.base.name)
            if scan is None:
                continue
            name = source_name(scan.item.expr)
            collected = stats.stats_for(name) if name is not None else None
            if collected is None:
                continue
            ndv = collected.ndv_for(attr)
            if ndv:
                best = max(best or 1.0, float(ndv))
    return best


def _worst_misestimate(root: PlanOp, tracer) -> Optional[int]:
    """``id()`` of the operator with the largest q-error, or None.

    Only misestimates of at least 2× get flagged — an accurate plan's
    best-of-a-good-bunch is not worth an arrow."""
    from repro.observability.tracer import q_error

    worst_id: Optional[int] = None
    worst_q = 2.0
    for op in walk_ops(root):
        estimate = getattr(op, "est_rows", None)
        if estimate is None:
            continue
        stats = tracer.op_stats(op)
        if stats is None:
            continue
        q = q_error(estimate, stats.rows_out)
        if q >= worst_q:
            worst_q = q
            worst_id = id(op)
    return worst_id
