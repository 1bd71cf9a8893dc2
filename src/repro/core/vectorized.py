"""Batch-vectorized execution of a planned query block.

The streaming clause pipeline (docs/PLANNER.md) moves one binding row
per generator frame; for large scans the interpreter overhead of those
frames dominates.  This module executes the same clause pipeline a
*chunk* (~:data:`~repro.core.plan_ops.CHUNK_ROWS` binding rows) at a
time: the physical operators yield lists of binding dicts
(:meth:`PlanOp.iter_chunks`), compiled expressions map over whole
chunks (:func:`repro.core.compile_expr.compile_batch`), and GROUP BY
folds chunks into per-group accumulator state.

Semantics are the reference interpreter's (:mod:`repro.core.reference`,
which this module never calls): clauses run clause-major (all FROM
rows, then LET over them, and so on within each chunk), which is
exactly the order ``optimize=False`` evaluates in, so any error the
batch path surfaces is one the reference semantics surfaces too.  The
entry point is gated by ``Evaluator._batch_decision`` — permissive
mode, the top-level query or an uncorrelated derived table or
set-operation operand, no LIMIT/OFFSET, PIVOT or window functions — and
anything the gate rejects stays on the streaming path.

Aggregate decomposition
-----------------------

The rewriter lowers SQL aggregates to ``COLL_X((SELECT VALUE expr FROM
grp AS g))`` over the GROUP AS bag.  Evaluated literally, that
materializes every group's members and re-runs a subquery per group.
:func:`decompose_block` recognizes those lowered call sites and inverts
them: each becomes an :class:`AggSpec` whose value expression is
evaluated *per input row* during the fold, so groups accumulate plain
value lists and never materialize member tuples.  The fold is exact —
it keeps the raw per-member values (including NULL/MISSING, which the
``COLL_*`` definitions treat per their own semantics) and invokes the
same registered aggregate definition over them at finalize time — so
results are bit-identical to evaluating the lowered subquery.  Blocks
whose GROUP AS variable is used outside recognized sites fall back to
the semi-batch path (:meth:`Evaluator._iter_group_by` over the folded
rows), which is always available.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import clauses
from repro.core.environment import Environment
from repro.core.grouping_sets import expand_grouping_sets
from repro.core.plan_ops import ScanOp, close_iter, walk_ops
from repro.datamodel.equality import group_key
from repro.datamodel.values import Bag
from repro.errors import EvaluationError, SQLPPError
from repro.functions import operators as ops
from repro.functions.registry import REGISTRY
from repro.observability.tracer import StageTally
from repro.syntax import ast

Binding = Dict[str, Any]

#: Placeholder-variable prefix for decomposed aggregate results; ``$``
#: keeps the names out of the user-writable identifier space.
_FOLD_VAR = "$fold"


# =========================================================================
# Aggregate decomposition
# =========================================================================


@dataclass
class AggSpec:
    """One decomposed aggregate call site.

    During the fold, ``value_expr`` (row-space: the lowered
    ``g.e.salary`` path rewritten back to the binding variable
    ``e.salary``) is evaluated per input row and appended to the
    group's accumulator list; at finalize time ``definition`` is
    invoked over the (optionally deduplicated) list and the result is
    bound to ``var`` in the group's output row.
    """

    var: str
    definition: Any
    distinct: bool
    value_expr: ast.Expr


@dataclass
class Decomposition:
    """A GROUP BY block rewritten into fold + finalize form."""

    clause: ast.GroupByClause
    specs: List[AggSpec]
    #: SELECT VALUE expression with aggregate sites replaced by
    #: ``VarRef($foldN)`` placeholders.
    select_expr: ast.Expr
    #: HAVING predicate with sites replaced likewise, or None.
    having_expr: Optional[ast.Expr]
    #: Row variables of the finalized group rows: key aliases then
    #: placeholder vars.
    group_row_vars: Tuple[str, ...]


def _rebinds(expr: ast.Expr, name: str) -> bool:
    """Whether any scope inside ``expr`` rebinds ``name`` (a nested
    subquery shadowing the group-element variable would make reverse
    substitution unsound)."""
    for node in expr.walk():
        if isinstance(node, ast.FromCollection):
            if node.alias == name or node.at_alias == name:
                return True
        elif isinstance(node, ast.FromUnpivot):
            if node.value_alias == name or node.at_alias == name:
                return True
        elif isinstance(node, ast.LetBinding):
            if node.name == name:
                return True
        elif isinstance(node, ast.GroupKey):
            if node.alias == name:
                return True
        elif isinstance(node, ast.GroupByClause):
            if node.group_as == name:
                return True
    return False


def _match_site(
    node: ast.Expr, group_var: str, row_vars: frozenset
) -> Optional[Tuple[Any, bool, ast.Expr]]:
    """Match one lowered aggregate call site.

    The exact shape ``Rewriter._lower_aggregate_call`` produces:
    ``COLL_X((SELECT VALUE value_expr FROM group_var AS elem))`` with no
    other clauses.  Returns ``(definition, distinct, value_expr)`` with
    ``value_expr`` rewritten from element-space (``elem.v``) back to
    row-space (``v``), or None when the node is not a decomposable
    site.
    """
    if not isinstance(node, ast.FunctionCall) or node.star or node.distinct:
        return None
    definition = REGISTRY.lookup(node.name)
    if definition is None or not definition.is_aggregate:
        return None
    if len(node.args) != 1 or not isinstance(node.args[0], ast.SubqueryExpr):
        return None
    query = node.args[0].query
    if not isinstance(query, ast.Query):
        return None
    if query.order_by or query.limit is not None or query.offset is not None:
        return None
    body = query.body
    if not isinstance(body, ast.QueryBlock):
        return None
    if (
        body.lets
        or body.where is not None
        or body.group_by is not None
        or body.having is not None
    ):
        return None
    if not isinstance(body.select, ast.SelectValue):
        return None
    if body.from_ is None or len(body.from_) != 1:
        return None
    item = body.from_[0]
    if not isinstance(item, ast.FromCollection) or item.at_alias:
        return None
    if not isinstance(item.expr, ast.VarRef) or item.expr.name != group_var:
        return None
    elem = item.alias
    if _rebinds(body.select.expr, elem):
        return None

    failed: List[bool] = []

    def strip(inner: ast.Node) -> ast.Node:
        if (
            isinstance(inner, ast.Path)
            and isinstance(inner.base, ast.VarRef)
            and inner.base.name == elem
        ):
            # ``g.v.attr`` came from substituting the row variable
            # ``v``; an attribute that is not a row variable means the
            # site navigates the group element itself — not invertible.
            if inner.attr not in row_vars:
                failed.append(True)
                return inner
            return ast.copy_span(ast.VarRef(name=inner.attr), inner)
        return inner

    value_expr = body.select.expr.transform(strip)
    if failed:
        return None
    from repro.core.planner import free_names

    names = free_names(value_expr)
    if elem in names or group_var in names:
        return None
    return definition, body.select.distinct, value_expr


def _replace_sites(
    expr: ast.Expr,
    group_var: str,
    row_vars: frozenset,
    specs: List[AggSpec],
) -> ast.Expr:
    """Replace lowered aggregate sites with placeholder variables.

    Top-down so an outer site is matched before its interior is
    touched; unmatched subqueries are left opaque (their aggregate
    sites, if any, reference their *own* group variable and must not
    be folded against ours — a remaining free reference to our group
    variable is caught by the caller's free-name check).
    """

    def rebuild(node: ast.Node) -> ast.Node:
        if isinstance(node, ast.Expr):
            site = _match_site(node, group_var, row_vars)
            if site is not None:
                definition, distinct, value_expr = site
                var = f"{_FOLD_VAR}{len(specs)}"
                specs.append(AggSpec(var, definition, distinct, value_expr))
                return ast.copy_span(ast.VarRef(name=var), node)
        if isinstance(node, (ast.SubqueryExpr, ast.CoerceSubquery)):
            return node
        changes = {}
        for fld in dataclasses.fields(node):
            old = getattr(node, fld.name)
            new = _rebuild_value(old, rebuild)
            if new is not old:
                changes[fld.name] = new
        return dataclasses.replace(node, **changes) if changes else node

    return rebuild(expr)


def _rebuild_value(value: Any, rebuild) -> Any:
    if isinstance(value, ast.Node):
        return rebuild(value)
    if isinstance(value, list):
        new_items = [_rebuild_value(item, rebuild) for item in value]
        if all(new is old for new, old in zip(new_items, value)):
            return value
        return new_items
    if isinstance(value, tuple):
        new_items = tuple(_rebuild_value(item, rebuild) for item in value)
        if all(new is old for new, old in zip(new_items, value)):
            return value
        return new_items
    return value


def decompose_block(
    block: ast.QueryBlock, row_vars: Tuple[str, ...]
) -> Optional[Decomposition]:
    """Fold/finalize decomposition of a GROUP BY block, or None.

    ``row_vars`` are the binding variables in scope at the GROUP BY
    (FROM variables plus LET names).  Decomposition requires a single
    plain grouping set, a ``SELECT VALUE`` projection, and that every
    use of the GROUP AS variable is a recognized lowered-aggregate
    site; anything else returns None and the caller uses the
    general-purpose grouping fallback.
    """
    clause = block.group_by
    if clause is None:
        return None
    sets = expand_grouping_sets(clause)
    if sets != [list(range(len(clause.keys)))]:
        return None
    if not isinstance(block.select, ast.SelectValue):
        return None
    group_var = clause.group_as
    row_var_set = frozenset(row_vars)
    specs: List[AggSpec] = []
    if group_var is not None:
        select_expr = _replace_sites(
            block.select.expr, group_var, row_var_set, specs
        )
        having_expr = (
            _replace_sites(block.having, group_var, row_var_set, specs)
            if block.having is not None
            else None
        )
        from repro.core.planner import free_names

        if group_var in free_names(select_expr):
            return None
        if having_expr is not None and group_var in free_names(having_expr):
            return None
    else:
        select_expr = block.select.expr
        having_expr = block.having
    group_row_vars = tuple(key.alias for key in clause.keys) + tuple(
        spec.var for spec in specs
    )
    return Decomposition(
        clause=clause,
        specs=specs,
        select_expr=select_expr,
        having_expr=having_expr,
        group_row_vars=group_row_vars,
    )


def cached_decomposition(
    evaluator, block: ast.QueryBlock, row_vars: Tuple[str, ...]
) -> Optional[Decomposition]:
    """Per-query memo of :func:`decompose_block` (the block node is
    kept alive alongside the result so id() keys stay unique)."""
    cache = evaluator._caches.decompositions
    entry = cache.get(id(block))
    if entry is None:
        entry = cache[id(block)] = (block, decompose_block(block, row_vars))
    return entry[1]


# =========================================================================
# Group folding (shared by the serial path and the morsel workers)
# =========================================================================

#: Group accumulator: identity tuple -> (key values, one value list per
#: AggSpec).  ``order`` preserves first-seen group order, which is the
#: output order of the reference pipeline.
GroupState = Dict[tuple, Tuple[List[Any], List[List[Any]]]]


def build_fold_fns(
    evaluator, decomp: Decomposition, row_vars: Tuple[str, ...]
) -> Tuple[List[Callable], List[Callable]]:
    """Batch-compiled key and aggregate-value functions for a fold."""
    row_var_set = frozenset(row_vars)
    compiled = evaluator.compiled_batch
    key_fns = [compiled(key.expr, row_var_set) for key in decomp.clause.keys]
    value_fns = [compiled(spec.value_expr, row_var_set) for spec in decomp.specs]
    return key_fns, value_fns


def _identity_column(column: List[Any]) -> List[tuple]:
    """:func:`group_key` of every value, its ``str``/``int`` cases
    inlined (``type(...) is`` keeps ``bool`` on the general path)."""
    return [
        ("4str", value)
        if type(value) is str
        else ("3num", value)
        if type(value) is int
        else group_key(value)
        for value in column
    ]


def fold_chunk(
    chunk: List[Binding],
    env: Environment,
    key_fns: List[Callable],
    value_fns: List[Callable],
    groups: GroupState,
    order: List[tuple],
) -> None:
    """Fold one chunk of binding rows into the group accumulators.

    The chunk is partitioned by group identity and each group's
    accumulators are extended once per chunk, not once per row.  Groups
    are met in first-seen order and a group's values keep row order —
    :func:`merge_folds` and the parallel barrier depend on both.
    """
    memo: dict = {}
    key_columns = [fn(chunk, env, memo) for fn in key_fns]
    value_columns = [fn(chunk, env, memo) for fn in value_fns]
    buckets: Dict[tuple, Any]
    if key_columns:
        buckets = {}
        identities = zip(*[_identity_column(column) for column in key_columns])
        for index, identity in enumerate(identities):
            bucket = buckets.get(identity)
            if bucket is None:
                buckets[identity] = [index]
            else:
                bucket.append(index)
    else:
        # No keys is the implicit single group, not zero groups.
        buckets = {(): range(len(chunk))}
    for identity, indexes in buckets.items():  # dicts keep first-seen order
        state = groups.get(identity)
        if state is None:
            state = (
                [column[indexes[0]] for column in key_columns],
                [[] for __ in value_columns],
            )
            groups[identity] = state
            order.append(identity)
        for accumulator, column in zip(state[1], value_columns):
            if len(indexes) == len(chunk):
                accumulator.extend(column)  # the whole chunk is one group
            elif len(indexes) == 1:
                accumulator.append(column[indexes[0]])
            else:
                accumulator.extend([column[index] for index in indexes])


def merge_folds(
    partials: Iterable[Tuple[List[tuple], GroupState]],
) -> Tuple[List[tuple], GroupState]:
    """Merge per-morsel fold states in morsel order.

    Morsels partition the scan in row order, so first-seen group order
    and per-group value order across the merged state equal the serial
    fold's — the parallel result is bit-identical, not just
    bag-equal.
    """
    groups: GroupState = {}
    order: List[tuple] = []
    for partial_order, partial_groups in partials:
        for identity in partial_order:
            key_values, value_lists = partial_groups[identity]
            state = groups.get(identity)
            if state is None:
                groups[identity] = (key_values, value_lists)
                order.append(identity)
            else:
                for target, part in zip(state[1], value_lists):
                    target.extend(part)
    return order, groups


def finalize_groups(
    decomp: Decomposition,
    order: List[tuple],
    groups: GroupState,
    config,
) -> List[Binding]:
    """Finalize fold state into group output rows.

    Mirrors the reference semantics of the lowered subquery: optional
    DISTINCT over the raw member values, then the registered ``COLL_*``
    definition over a bag of them.  An empty input with no keys still
    produces the single implicit group (SQL's one-row answer).
    """
    clause = decomp.clause
    if not order and not clause.keys:
        groups[()] = ([], [[] for __ in decomp.specs])
        order.append(())
    rows: List[Binding] = []
    for identity in order:
        key_values, value_lists = groups[identity]
        row: Binding = {}
        for key, value in zip(clause.keys, key_values):
            row[key.alias] = value
        for spec, values in zip(decomp.specs, value_lists):
            if spec.distinct:
                values = ops.distinct_elements(values)
            row[spec.var] = spec.definition.invoke([Bag(values)], config)
        rows.append(row)
    return rows


# =========================================================================
# The batch executor
# =========================================================================


@dataclass
class BlockKernels:
    """Everything the batch executor compiles for one block's clauses
    (the plan's operators compile their own, see
    :meth:`PlanOp.batch_kernels`).  All of it comes from
    ``Evaluator.compiled_batch``, so building this per execution is a
    handful of cache probes."""

    var_order: List[str]
    let_names: List[str]
    decomp: Optional[Decomposition]
    let_fns: List[Tuple[str, Callable]]
    residual_fn: Optional[Callable]
    key_fns: List[Callable]
    value_fns: List[Callable]
    #: HAVING / SELECT VALUE kernels over the finalized group rows (or
    #: the kept rows of an ungrouped block); None when absent or when
    #: the semi-batch grouping fallback evaluates them in env space.
    having_fn: Optional[Callable]
    select_fn: Optional[Callable]

    def all(self) -> List[Callable]:
        fns = [fn for __, fn in self.let_fns]
        fns += self.key_fns + self.value_fns
        fns += [self.residual_fn, self.having_fn, self.select_fn]
        return [fn for fn in fns if fn is not None]


def block_kernels(evaluator, body: ast.QueryBlock, plan) -> BlockKernels:
    compiled = evaluator.compiled_batch
    var_order: List[str] = []
    for item in body.from_:
        var_order.extend(clauses.item_vars(item))
    let_names = [let.name for let in body.lets]
    row_vars = tuple(var_order) + tuple(let_names)
    row_var_set = frozenset(row_vars)

    decomp: Optional[Decomposition] = None
    if body.group_by is not None:
        decomp = cached_decomposition(evaluator, body, row_vars)
    key_fns: List[Callable] = []
    value_fns: List[Callable] = []
    having_expr, select_expr, out_vars = None, None, row_var_set
    if decomp is not None:
        key_fns, value_fns = build_fold_fns(evaluator, decomp, row_vars)
        having_expr, select_expr = decomp.having_expr, decomp.select_expr
        out_vars = frozenset(decomp.group_row_vars)
    elif body.group_by is None:
        having_expr = body.having
        if isinstance(body.select, ast.SelectValue):
            select_expr = body.select.expr
    residual = plan.residual_where
    return BlockKernels(
        var_order=var_order,
        let_names=let_names,
        decomp=decomp,
        let_fns=[
            (let.name, compiled(let.expr, frozenset(var_order + let_names[:index])))
            for index, let in enumerate(body.lets)
        ],
        residual_fn=compiled(residual, row_var_set) if residual is not None else None,
        key_fns=key_fns,
        value_fns=value_fns,
        having_fn=compiled(having_expr, out_vars) if having_expr is not None else None,
        select_fn=compiled(select_expr, out_vars) if select_expr is not None else None,
    )


def execute_batch_query(evaluator, query, body, plan, env) -> Any:
    """Run one gated query block on the batch pipeline; returns the
    final query result (an ordered list under ORDER BY, else a Bag).

    The caller has already verified the gate
    (``Evaluator._batch_decision``): optimization on, the top-level
    query or a block evaluated in the top-level environment, no
    LIMIT/OFFSET, and not GROUP BY + ORDER BY together — in either
    typing mode: under strict typing a kernel raises where it would
    have returned MISSING, and the caller re-runs the block on the
    stream when that escapes (``Evaluator._eval_block_query``).
    """
    config = evaluator.config
    tracer = evaluator.tracer
    op = plan.op

    kernels = block_kernels(evaluator, body, plan)
    var_order, let_names = kernels.var_order, kernels.let_names
    row_vars = tuple(var_order) + tuple(let_names)
    decomp = kernels.decomp
    let_fns = kernels.let_fns
    residual_fn = kernels.residual_fn
    key_fns, value_fns = kernels.key_fns, kernels.value_fns

    stages: List[StageTally] = []

    def stage(name: str) -> StageTally:
        tally = StageTally(name)
        stages.append(tally)
        return tally

    from_stage = stage("FROM")
    let_stage = stage("LET") if body.lets else None
    where_stage = stage("WHERE") if residual_fn is not None else None
    group_stage = stage("GROUP BY") if body.group_by is not None else None

    folding = decomp is not None
    groups: GroupState = {}
    group_order: List[tuple] = []
    kept_rows: List[Binding] = []

    def process_chunk(chunk: List[Binding]) -> None:
        """LET -> residual WHERE -> fold/accumulate, one chunk."""
        if let_fns:
            started = perf_counter()
            for name, let_fn in let_fns:
                column = let_fn(chunk, env)
                for row, value in zip(chunk, column):
                    row[name] = value
            let_stage.rows += len(chunk)
            let_stage.elapsed += perf_counter() - started
        if residual_fn is not None:
            started = perf_counter()
            verdicts = residual_fn(chunk, env)
            chunk = [
                row for row, verdict in zip(chunk, verdicts) if verdict is True
            ]
            where_stage.rows += len(chunk)
            where_stage.elapsed += perf_counter() - started
            if not chunk:
                return
        if folding:
            started = perf_counter()
            fold_chunk(chunk, env, key_fns, value_fns, groups, group_order)
            group_stage.elapsed += perf_counter() - started
        else:
            kept_rows.extend(chunk)

    # ---- FROM: serial chunks, or the morsel-parallel driver ----------
    ran_parallel = False
    if config.parallel >= 2 and query is evaluator._top_query:
        # Only the top-level block fans out: a derived table is scanned
        # (and so evaluated) inside each morsel worker, and pool workers
        # cannot fork pools of their own.
        from repro.core.parallel import try_parallel

        parallel_mode = (
            "fold"
            if folding and not let_fns and residual_fn is None
            else "rows"
        )
        outcome = try_parallel(
            evaluator, op, env, parallel_mode, decomp, row_vars
        )
        if outcome is not None:
            ran_parallel = True
            evaluator.parallel_workers = max(
                evaluator.parallel_workers, outcome.workers
            )
            from_stage.rows = outcome.rows_seen
            from_stage.elapsed = outcome.elapsed
            if outcome.mode == "fold":
                group_order, groups = outcome.order, outcome.groups
            else:
                process_chunk(outcome.rows)

    if not ran_parallel:
        source = op.iter_chunks(evaluator, env)
        try:
            while True:
                started = perf_counter()
                try:
                    chunk = next(source)
                except StopIteration:
                    from_stage.elapsed += perf_counter() - started
                    break
                from_stage.rows += len(chunk)
                from_stage.elapsed += perf_counter() - started
                if chunk:
                    process_chunk(chunk)
        finally:
            close_iter(source)

    # ---- GROUP BY ----------------------------------------------------
    group_envs: Optional[List[Environment]] = None
    output_vars: List[str] = list(var_order) + let_names
    if folding:
        started = perf_counter()
        kept_rows = finalize_groups(decomp, group_order, groups, config)
        group_stage.rows += len(kept_rows)
        group_stage.elapsed += perf_counter() - started
    elif body.group_by is not None:
        # Semi-batch fallback: general grouping (grouping sets, GROUP AS
        # consumed directly) over the folded rows via the streaming
        # grouper, then env-space HAVING/SELECT.
        started = perf_counter()
        group_envs = list(
            evaluator._iter_group_by(
                body.group_by,
                (env.extend(row) for row in kept_rows),
                env,
                output_vars,
            )
        )
        group_stage.rows += len(group_envs)
        group_stage.elapsed += perf_counter() - started
        output_vars = clauses.group_output_vars(body.group_by)

    # ---- HAVING ------------------------------------------------------
    if group_envs is not None and body.having is not None:
        having_stage = stage("HAVING")
        started = perf_counter()
        having_fn = evaluator.compiled(body.having)
        group_envs = [
            current for current in group_envs if having_fn(current) is True
        ]
        having_stage.rows = len(group_envs)
        having_stage.elapsed = perf_counter() - started
    elif kernels.having_fn is not None:
        having_stage = stage("HAVING")
        started = perf_counter()
        verdicts = kernels.having_fn(kept_rows, env)
        kept_rows = [
            row for row, verdict in zip(kept_rows, verdicts) if verdict is True
        ]
        having_stage.rows = len(kept_rows)
        having_stage.elapsed = perf_counter() - started

    # ---- SELECT ------------------------------------------------------
    select = body.select
    distinct = select.distinct
    started = perf_counter()
    envs_out: Optional[List[Environment]] = None
    if group_envs is not None:
        if isinstance(select, ast.SelectValue):
            select_fn = evaluator.compiled(select.expr)
            values = [select_fn(current) for current in group_envs]
        else:
            values = [
                clauses.eval_star(current, output_vars) for current in group_envs
            ]
        envs_out = group_envs
    elif kernels.select_fn is not None:
        values = kernels.select_fn(kept_rows, env)
    else:
        values = [
            clauses.eval_star(env.extend(row), output_vars) for row in kept_rows
        ]
    if distinct:
        values = ops.distinct_elements(values)
        envs_out = None
        select_stage = stage("SELECT DISTINCT")
    else:
        select_stage = stage("SELECT")
    select_stage.rows = len(values)
    select_stage.elapsed = perf_counter() - started

    # ---- stage records (streaming-recorder parity) -------------------
    if tracer is not None:
        tracer.flush_stages(body, stages, perf_counter())

    # ---- ORDER BY tail -----------------------------------------------
    if query.order_by:
        if envs_out is None and group_envs is None and not distinct:
            envs_out = [env.extend(row) for row in kept_rows]
        spec = evaluator._order_spec(query.order_by)
        return clauses.apply_order_by(values, envs_out, spec, env)
    return Bag(values)


# =========================================================================
# EXPLAIN: which executor runs which block, and where kernels fell back
# =========================================================================


def explain_query(evaluator, query: ast.Query) -> List[str]:
    """EXPLAIN below its header: the top-level block's one plan (every
    executor enumerates FROM through it), how the output is consumed,
    then :func:`explain_executors`.  All read from ``evaluator`` — the
    database's memoised one — so a query that already ran is explained
    from the plan it ran on."""
    from repro.core.evaluator import describe_consumer

    executors = explain_executors(evaluator, query)
    body = query.body
    if not isinstance(body, ast.QueryBlock):
        return [f"plan: none ({NOT_A_BLOCK})"] + executors
    batched = executors[0] == "executor: batch"
    plan = evaluator._block_plan(body)
    lines = [
        plan.explain(notes=evaluator.plan_notes(body))
        if plan is not None
        else "plan: unplanned (no FROM clause)"
    ]
    lines.append(f"consumer: {describe_consumer(query, batched)}")
    return lines + executors


#: A set operation (whose operands have their own lines) or bare expression.
NOT_A_BLOCK = "query body is not a single query block"


def explain_executors(evaluator, query: ast.Query, tracer=None) -> List[str]:
    """The ``executor:`` / ``kernels:`` lines of EXPLAIN [ANALYZE].

    A dry run of the decisions execution makes, through the same
    functions (``Evaluator._batch_decision``, :func:`block_kernels`,
    ``PlanOp.batch_kernels``) and the same plan and kernel caches, on an
    evaluator that is not executing: which of ``batch | stream`` runs
    the top-level block, each operand of a set operation and each
    derived table reachable in the top-level environment (with the
    clause that refused the batch pipeline), and every expression of a
    batched block that has no chunk kernel and takes the per-row
    env-space fallback, with the node kind responsible.  With the
    ``tracer`` of a finished run (EXPLAIN ANALYZE), a block whose batch
    attempt was replayed on the stream
    (``Evaluator._eval_block_query``) says so.
    """
    from repro.syntax.printer import print_ast

    env = Environment()
    evaluator._enter(query, env)
    lines: List[str] = []
    fallbacks: List[ast.Expr] = []
    try:
        kernels = _explain_block(
            evaluator, query, env, "", "executor", lines, fallbacks, tracer
        )
    except SQLPPError as error:
        # Kernel compilation can reject what execution would reject
        # (a malformed constant LIKE pattern); EXPLAIN still prints.
        return [f"executor: undetermined ({error})"]
    if not kernels:
        lines.append("kernels: none (no block runs on the batch executor)")
    elif not fallbacks:
        lines.append(f"kernels: {kernels} columnar, no env-space fallback")
    else:
        seen: Dict[int, ast.Expr] = {id(node): node for node in fallbacks}
        rendered = "; ".join(
            f"{print_ast(node)} [{type(node).__name__}]" for node in seen.values()
        )
        lines.append(
            f"kernels: {kernels} columnar, env-space fallback for {rendered}"
        )
    return lines


def _explain_block(
    evaluator, query: ast.Query, env, indent: str, title: str,
    lines: List[str], fallbacks: List[ast.Expr], tracer,
) -> int:
    """Append one block's ``executor`` line (then its derived tables',
    indented); returns how many chunk kernels its batched blocks use."""
    body = query.body
    label = indent + title
    indent += "  "
    if not isinstance(body, ast.QueryBlock):
        lines.append(f"{label}: none ({NOT_A_BLOCK})")
        # Each operand of a set operation runs like a query evaluated
        # in this same environment: a bare block without clauses of its
        # own, or a query with them (ORDER BY, LIMIT).
        terms = [body.left, body.right] if isinstance(body, ast.SetOp) else []
        count = 0
        while terms:
            term = terms.pop(0)
            if isinstance(term, ast.SetOp):
                terms[:0] = [term.left, term.right]
                continue
            if isinstance(term, ast.QueryBlock):
                term = ast.Query(body=term)
            elif isinstance(term, ast.SubqueryExpr):
                term = term.query
            if isinstance(term, ast.Query):
                count += _explain_block(
                    evaluator, term, env, indent, "operand", lines, fallbacks,
                    tracer,
                )
        return count
    evaluator._note_reorder(query, body)
    plan, reason = evaluator._batch_decision(query, body, env)
    count = 0
    replayed = tracer.replay_of(body) if tracer is not None else None
    if replayed is not None:
        lines.append(f"{label}: batch → stream (replayed after {replayed})")
    elif plan is not None:
        lines.append(f"{label}: batch")
        fns = block_kernels(evaluator, body, plan).all()
        for op in walk_ops(plan.op):
            fns.extend(op.batch_kernels(evaluator))
        count = len(fns)
        for fn in fns:
            fallbacks.extend(fn.fallbacks)
    else:
        lines.append(f"{label}: stream ({reason})")
        plan = evaluator._block_plan(body)
    # Every scan of the tree is enumerated in the block's own
    # environment (a lateral right side is not an operator, so the walk
    # never reaches one).
    for op in walk_ops(plan.op) if plan is not None else ():
        item = op.item if isinstance(op, ScanOp) else None
        if isinstance(item, ast.FromCollection) and isinstance(
            item.expr, ast.SubqueryExpr
        ):
            count += _explain_block(
                evaluator, item.expr.query, env, indent,
                f"derived table {item.alias}", lines, fallbacks, tracer,
            )
    return count
