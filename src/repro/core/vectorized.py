"""The block executor: every query block runs here.

A query block is one pipeline of clauses (paper, Section V-B), and
:func:`execute_block` is the one function that runs it, in one of two
modes.  In *columns* mode it moves a *chunk*
(~:data:`~repro.core.plan_ops.CHUNK_ROWS` binding rows) at a time: the
physical operators yield chunks of one column per bound variable
(:class:`~repro.core.chunk.Chunk`, :meth:`PlanOp.iter_chunks`),
compiled expressions map over whole chunks
(:func:`repro.core.compile_expr.compile_batch`), and GROUP BY folds
chunks into per-group state machines (:func:`fold_chunk`).  Clauses run
clause-major within each chunk (all FROM rows, then LET over them, and
so on), the order ``optimize=False`` evaluates in, so any error the
columns mode surfaces is one the reference semantics
(:mod:`repro.core.reference`, which this module never calls) surfaces
too.  In *rows* mode the same function evaluates one row's clauses
before the next row's, each expression through its closure, so a
consumer that stops early (LIMIT, EXISTS, IN) stops the producers where
a row-at-a-time pipeline would, and a strict block raises the error
such a pipeline raises first.  ``Evaluator._batch_decision`` picks the
mode.  The block's tail — windows, PIVOT or SELECT, ORDER BY — is the
one every evaluator runs (:mod:`repro.core.tails`).  A top-level GROUP
BY over a collection grown by ``insert`` keeps its fold between runs
and folds only the appended elements (:class:`HeldFold`).

Aggregate decomposition
-----------------------

The rewriter lowers SQL aggregates to ``COLL_X((SELECT VALUE expr FROM
grp AS g))`` over the GROUP AS bag.  Evaluated literally, that
materializes every group's members and re-runs a subquery per group.
:func:`decompose_block` recognizes those lowered call sites and inverts
them: each becomes an :class:`AggSpec` whose value expression is
evaluated *per input row* during the fold and stepped into the
aggregate's state machine (:mod:`repro.functions.aggregates`) at the
row's dense group id.  The fold is exact — ``COLL_X`` *is* the
one-group fold of the same machine, stepped over the same values in the
same order.  Every GROUP BY block decomposes: a GROUP AS variable still
referenced after that gets one more machine collecting the group
(``aggregates.MEMBERS``), and grouping sets keep a :class:`GroupState`
each.  Rows mode runs the same :func:`fold_chunk` with the collector
alone (``decompose_block(..., sites=False)``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Tuple

from repro.core import clauses
from repro.core.chunk import Chunk, cut, survivors
from repro.core.environment import Environment
from repro.core.grouping_sets import expand_grouping_sets
from repro.core.plan_ops import (
    CHUNK_ROWS,
    LateralJoinOp,
    ScanOp,
    close_iter,
    scan_ops,
    walk_ops,
)
from repro.core.tails import EnvColumns, bind_windows, projection, run_tail
from repro.core.windows import find_window_calls, lower_window_calls, window_variable
from repro.datamodel.values import Bag, LazyBag, Struct
from repro.errors import SQLPPError
from repro.functions.aggregates import MEMBERS, Aggregate, Members, State, machine_for
from repro.functions.registry import REGISTRY
from repro.observability.tracer import StageTally
from repro.syntax import ast

#: Placeholder-variable prefix for decomposed aggregate results; ``$``
#: keeps the names out of the user-writable identifier space.
_FOLD_VAR = "$fold"


# =========================================================================
# Aggregate decomposition
# =========================================================================


@dataclass
class AggSpec:
    """One machine of a GROUP BY fold: a decomposed aggregate call site,
    or — ``definition`` None — the GROUP AS collector.

    During the fold, ``value_expr`` (row-space: the lowered
    ``g.e.salary`` path rewritten back to the binding variable
    ``e.salary``) is evaluated per input row and stepped into
    ``machine`` (``aggregates.machine_for(definition, distinct)``), and
    the collector steps each row's group element into
    ``aggregates.MEMBERS``; each group's ``final`` is bound to ``var``.
    """

    var: str
    definition: Any = None
    distinct: bool = False
    value_expr: Optional[ast.Expr] = None
    machine: Aggregate = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        self.machine = (
            MEMBERS
            if self.definition is None
            else machine_for(self.definition, self.distinct)
        )


@dataclass
class Decomposition:
    """A GROUP BY block rewritten into fold + finalize form."""

    clause: ast.GroupByClause
    specs: List[AggSpec]
    #: The SELECT clause with aggregate sites replaced by
    #: ``VarRef($foldN)`` placeholders and its window calls lowered
    #: (:func:`windows.lower_window_calls`).
    select: ast.SelectClause
    #: The SELECT's window calls, sites replaced likewise.
    calls: List[ast.WindowCall]
    #: HAVING predicate with sites replaced likewise, or None.
    having_expr: Optional[ast.Expr]
    #: The query's ORDER BY items with sites replaced likewise.
    order_by: List[ast.OrderItem]

    @property
    def machines(self) -> List[Aggregate]:
        return [spec.machine for spec in self.specs]

    @property
    def group_row_vars(self) -> Tuple[str, ...]:
        """The group rows' variables: key aliases, then spec variables."""
        specs = tuple(spec.var for spec in self.specs)
        return tuple(key.alias for key in self.clause.keys) + specs


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
    if elem in clauses.bound_names(body.select.expr):
        # A nested scope rebinding the element variable would make the
        # reverse substitution below unsound.
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
    node: ast.Node,
    group_var: str,
    row_vars: frozenset,
    specs: List[AggSpec],
) -> ast.Node:
    """Replace lowered aggregate sites under ``node`` (an expression or
    a SELECT clause) with placeholder variables.

    Top-down so an outer site is matched before its interior is
    touched; unmatched subqueries are left opaque (their aggregate
    sites, if any, reference their *own* group variable and must not
    be folded against ours — a remaining free reference to our group
    variable makes the caller collect the group for it).
    """

    def replace(current: ast.Node) -> Optional[ast.Node]:
        if isinstance(current, ast.Expr):
            site = _match_site(current, group_var, row_vars)
            if site is not None:
                definition, distinct, value_expr = site
                var = f"{_FOLD_VAR}{len(specs)}"
                specs.append(AggSpec(var, definition, distinct, value_expr))
                return ast.copy_span(ast.VarRef(name=var), current)
        return current if ast.is_subquery(current) else None

    return node.rewrite(replace)


def decompose_block(
    block: ast.QueryBlock,
    row_vars: Tuple[str, ...],
    order_by: Sequence[ast.OrderItem] = (),
    sites: bool = True,
) -> Decomposition:
    """The fold/finalize form of a GROUP BY block.

    ``row_vars`` are the binding variables in scope at the GROUP BY
    (FROM variables plus LET names), ``order_by`` the ORDER BY of the
    block's query, whose keys see the groups too.  Every recognized
    lowered aggregate site in the SELECT, HAVING and ORDER BY becomes an
    :class:`AggSpec`.  If the GROUP AS variable is still referenced
    after that — or ``SELECT *`` reads it — one more spec collects each
    group's elements for it; otherwise no group keeps member tuples.
    Without ``sites`` (the executor's rows mode) the clauses stay as
    written and the GROUP AS collector is the only spec.
    """
    clause, specs = block.group_by, []
    nodes = [block.select, block.having] + [item.expr for item in order_by]
    if clause.group_as is not None and not sites:
        specs.append(AggSpec(clause.group_as))
    elif clause.group_as is not None:
        from repro.core.planner import free_names

        group_var, scope = clause.group_as, frozenset(row_vars)
        nodes = [
            node if node is None else _replace_sites(node, group_var, scope, specs)
            for node in nodes
        ]
        free = set().union(*[free_names(node) for node in nodes if node is not None])
        if group_var in free or isinstance(nodes[0], ast.SelectStar):
            specs.append(AggSpec(group_var))
    select, having, *order_exprs = nodes
    calls = find_window_calls(select)
    return Decomposition(
        clause=clause,
        specs=specs,
        select=lower_window_calls(select, calls) if calls else select,
        calls=calls,
        having_expr=having,
        order_by=[
            dataclasses.replace(item, expr=expr)
            for item, expr in zip(order_by, order_exprs)
        ],
    )


# =========================================================================
# Group folding (both modes of the block executor)
# =========================================================================

@dataclass
class GroupState:
    """The fold state of one grouping set: groups numbered densely in
    first-seen order — the output order of the reference pipeline — and
    one state machine's state per :class:`AggSpec`."""

    #: Indexes of the GROUP BY keys the set groups by; the others are
    #: NULL in its groups.
    keep: Tuple[int, ...]
    #: Group identity → group id.  One kept key's identity is its
    #: :func:`clauses.identity_column` element, several keys' (or none)
    #: the tuple of theirs.
    ids: Dict[Any, int]
    #: Group id → the key values of the group's first row.
    keys: List[List[Any]]
    #: Per AggSpec, its machine's state (lists indexed by group id).
    states: List[State]

    @classmethod
    def sets(cls, clause: ast.GroupByClause, machines: List[Aggregate]) -> list:
        """One empty state per grouping set of ``clause``, in output order."""
        return [
            cls(tuple(keep), {}, [], [machine.init() for machine in machines])
            for keep in expand_grouping_sets(clause)
        ]


def build_fold_fns(
    evaluator, decomp: Decomposition, row_vars: Tuple[str, ...], one_row: bool = False
) -> Tuple[List[Callable], List[Optional[Callable]]]:
    """Batch-compiled key functions and, per spec, its value function
    (None for the GROUP AS collector)."""
    row_var_set = frozenset(row_vars)
    compiled = evaluator.compiled_batch
    key_fns = [compiled(key.expr, row_var_set, one_row) for key in decomp.clause.keys]
    value_fns = [
        None
        if spec.value_expr is None
        else compiled(spec.value_expr, row_var_set, one_row)
        for spec in decomp.specs
    ]
    return key_fns, value_fns


def fold_columns(
    chunk: Chunk, env, key_fns, value_fns, var_order, one_row: bool = False
) -> tuple:
    """A chunk of binding rows as :func:`fold_chunk`'s key and value
    columns: chunk kernels, and the rows' group elements for the
    collector.  ``one_row`` (the executor's rows mode, whose only spec
    is the collector) evaluates one row's keys before the next row's and
    builds each element from the row's environment."""
    if one_row:
        closures = [fn.closure for fn in key_fns]
        envs = [env.extend(row) for row in chunk.rows()]
        keys = [[closure(row_env) for closure in closures] for row_env in envs]
        elements = [
            [clauses.group_element(row_env, var_order) for row_env in envs]
            for __ in value_fns
        ]
        return list(zip(*keys)), elements
    key_columns = [fn(chunk, env) for fn in key_fns]
    value_columns = [
        clauses.group_elements(
            chunk.size, [chunk.column(name) for name in var_order], var_order
        )
        if fn is None
        else fn(chunk, env)
        for fn in value_fns
    ]
    return key_columns, value_columns


def fold_chunk(size, key_columns, value_columns, machines, sets, config) -> None:
    """Fold ``size`` rows — one column per GROUP BY key, one per machine
    — into every grouping set's state.

    Per set, each row's identity over the keys it keeps is probed into
    its ``ids`` once (an identity not seen before takes the next dense
    id), then every machine steps its whole value column at those ids.
    Groups are numbered in first-seen order and each steps its values in
    row order — a maintained fold (:class:`HeldFold`) depends on both.
    """
    identities = [clauses.identity_column(column) for column in key_columns]
    for groups in sets:
        ids, keys, keep = groups.ids, groups.keys, groups.keep
        if len(keep) == 1:
            kept = identities[keep[0]]
        else:
            kept = list(zip(*[identities[k] for k in keep])) if keep else [()] * size
        gids = list(map(ids.get, kept))
        if None in gids:
            for row in range(gids.index(None), size):
                if gids[row] is None:
                    identity = kept[row]
                    gid = ids.get(identity)
                    if gid is None:
                        gid = ids[identity] = len(keys)
                        keys.append([column[row] for column in key_columns])
                    gids[row] = gid
        for machine, state, column in zip(machines, groups.states, value_columns):
            machine.grow(state, len(keys))
            machine.step(state, gids, column, config)


def finalize_groups(clause, specs, sets: List[GroupState], config) -> Chunk:
    """The group output rows, set after set and in first-seen order
    within each: the key aliases (NULL where the set leaves the key out)
    and each spec's variable bound to its machine's ``final``.  An empty
    input with no keys still produces the single implicit group (SQL's
    one-row answer); a set that keeps no key of a keyed clause, none.
    The fold state is only read, so it can be folded further and
    finalized again."""
    aliases = [key.alias for key in clause.keys]
    names = aliases + [spec.var for spec in specs]
    rows: List[List[Any]] = []
    for groups in sets:
        keys, states = groups.keys, groups.states
        if not keys and not clause.keys:
            keys, states = [[]], [spec.machine.init(1) for spec in specs]
        keep = groups.keep
        finals = [
            (spec.machine.final, state) for spec, state in zip(specs, states)
        ]
        for gid, values in enumerate(keys):
            row = [value if k in keep else None for k, value in enumerate(values)]
            row += [final(state, gid, config) for final, state in finals]
            rows.append(row)
    columns = [list(column) for column in zip(*rows)] or [[] for __ in names]
    return Chunk(len(rows), dict(zip(names, columns)))


# =========================================================================
# The block executor
# =========================================================================


def consumer_kind(query: ast.Query) -> str:
    """How a block's output is consumed — ``pivot`` (one tuple from the
    whole binding stream), ``top-k`` (ORDER BY with LIMIT), ``sort``
    (ORDER BY alone), ``limit`` (unordered LIMIT / OFFSET) or ``bag``:
    what the executor branches on and EXPLAIN prints as ``consumer:``."""
    if isinstance(query.body.select, ast.PivotClause):
        return "pivot"
    if query.order_by:
        return "top-k" if query.limit is not None else "sort"
    if query.limit is not None or query.offset is not None:
        return "limit"
    return "bag"


@dataclass
class BlockKernels:
    """What the executor compiles for one block in one mode: its clauses
    up to HAVING and the pieces of its tail (the operators compile their
    own, :meth:`PlanOp.batch_kernels`; the tail's columns are compiled
    as it asks, :class:`KernelColumns`), through
    ``Evaluator.compiled_batch`` — ``one_row`` in rows mode."""

    plan: Any
    one_row: bool
    #: FROM variables, then LET names: the binding rows' variables.
    row_vars: Tuple[str, ...]
    decomp: Optional[Decomposition]
    let_fns: List[Tuple[str, Callable]]
    residual_fn: Optional[Callable]
    key_fns: List[Callable]
    #: Per fold spec, its value kernel (None: the GROUP AS collector).
    value_fns: List[Optional[Callable]]
    #: HAVING kernel over the finalized group rows (or the kept rows of
    #: an ungrouped block); None when absent.
    having_fn: Optional[Callable]
    #: The tail: the SELECT with its window ``calls`` lowered, the ORDER
    #: BY (aggregate sites replaced), the variables its rows bind, the
    #: ones ``SELECT *`` reads, and whether the SELECT can wait for the
    #: rows the sort keeps (:func:`_defers_select`).
    select: ast.SelectClause
    calls: List[ast.WindowCall]
    order_by: List[ast.OrderItem]
    tail_vars: frozenset
    star_vars: List[str]
    deferred: bool
    #: Why the GROUP BY fold may not be kept between executions by the
    #: rungs decided once per block ("" when it may; None until
    #: :func:`hold_refusal` first needs them).
    maintained: Optional[str] = None

    def all(self) -> List[Callable]:
        fns = [fn for __, fn in self.let_fns] + self.key_fns + self.value_fns
        return [fn for fn in fns + [self.residual_fn, self.having_fn] if fn]

    def columns(self, evaluator, env) -> "KernelColumns":
        return KernelColumns(
            evaluator, env, self.tail_vars, self.star_vars, self.one_row
        )

    def tail(self, chunks, cols, config, stages, bound=None) -> Any:
        """:func:`tails.run_tail` over the block's final binding rows."""
        return run_tail(
            chunks, cols, self.select, self.calls, self.order_by, config,
            stages, self.deferred, bound,
        )


def block_kernels(evaluator, query: ast.Query, plan, one_row: bool = False):
    """The :class:`BlockKernels` of ``query``'s block in one mode, built
    on first use; a rebuilt plan may leave a different residual WHERE,
    whose kernel is the only one compiled again."""
    cache = evaluator._caches.block_kernels
    entry = cache.get((id(query), one_row))
    if entry is None:
        kernels = _compile_block(evaluator, query, plan, one_row)
    elif entry[1].plan is not plan:
        kernels = dataclasses.replace(
            entry[1],
            plan=plan,
            residual_fn=_residual_fn(
                evaluator, query.body, plan, entry[1].row_vars, one_row
            ),
            maintained=None,
        )
    else:
        return entry[1]
    cache[id(query), one_row] = (query, kernels)
    return kernels


def _residual_fn(evaluator, body, plan, row_vars, one_row: bool) -> Optional[Callable]:
    residual = body.where if plan is None else plan.residual_where
    if residual is None:
        return None
    return evaluator.compiled_batch(residual, frozenset(row_vars), one_row)


def _compile_block(evaluator, query: ast.Query, plan, one_row: bool) -> BlockKernels:
    body = query.body
    compiled = evaluator.compiled_batch
    row_vars = tuple(clauses.block_vars(body))
    scope = frozenset(row_vars)
    calls = find_window_calls(body.select)
    select = lower_window_calls(body.select, calls) if calls else body.select
    deferred = _defers_select(select, calls, query.order_by)
    having, order_by, out_vars, star_vars = body.having, query.order_by, scope, row_vars
    decomp: Optional[Decomposition] = None
    key_fns: List[Callable] = []
    value_fns: List[Optional[Callable]] = []
    if body.group_by is not None:
        decomp = decompose_block(body, row_vars, query.order_by, sites=not one_row)
        key_fns, value_fns = build_fold_fns(evaluator, decomp, row_vars, one_row)
        calls, select, order_by = decomp.calls, decomp.select, decomp.order_by
        having, out_vars = decomp.having_expr, frozenset(decomp.group_row_vars)
        star_vars = clauses.group_output_vars(decomp.clause)
    return BlockKernels(
        plan=plan,
        one_row=one_row,
        row_vars=row_vars,
        decomp=decomp,
        let_fns=[
            (let.name, compiled(let.expr, frozenset(row_vars[:k]), one_row))
            for k, let in enumerate(body.lets, len(row_vars) - len(body.lets))
        ],
        residual_fn=_residual_fn(evaluator, body, plan, row_vars, one_row),
        key_fns=key_fns,
        value_fns=value_fns,
        having_fn=None if having is None else compiled(having, out_vars, one_row),
        select=select,
        calls=calls,
        order_by=order_by,
        tail_vars=out_vars | {window_variable(n) for n in range(len(calls))},
        star_vars=list(star_vars),
        deferred=deferred,
    )


def _defers_select(select, calls, order_by: Sequence[ast.OrderItem]) -> bool:
    """Whether no ORDER BY key can observe the projected value, so the
    keys are columns over the binding rows and the SELECT can wait for
    the rows the sort keeps (late materialization) — the big win under
    a top-K when the projection is expensive.

    Sound only for a non-DISTINCT ``SELECT VALUE`` of a tuple literal
    with literal attribute names, none of which occurs as a variable
    name in an ORDER BY key (the keys' sort environment overlays the
    output tuple's attributes, so a shared name could shadow a binding
    variable).  Window values are part of the output rows, so a
    windowed SELECT is never deferred.
    """
    if (
        not order_by
        or calls
        or not isinstance(select, ast.SelectValue)
        or select.distinct
        or not isinstance(select.expr, ast.StructLit)
    ):
        return False
    from repro.core.planner import free_names

    names = clauses.literal_keys(select.expr)
    return names is not None and not any(
        free_names(item.expr) & set(names) for item in order_by
    )


class KernelColumns:
    """Columns over chunks from chunk kernels: how the executor produces
    what :func:`tails.run_tail` consumes.  ``fns`` ends up holding every
    kernel the tail asked for.  ``one_row`` (rows mode) compiles each for
    one-row chunks: its closure per row."""

    def __init__(
        self, evaluator, env, row_vars: frozenset, var_order: List[str],
        one_row: bool = False,
    ):
        self.evaluator, self.env, self.row_vars = evaluator, env, row_vars
        self.var_order, self.one_row = var_order, one_row
        self.fns: Dict[int, Callable] = {}
        self.keys_see_output = False

    def column(self, expr: ast.Expr, rows: Chunk) -> List[Any]:
        fn = self.fns.get(id(expr))
        if fn is None:
            fn = self.fns[id(expr)] = self.evaluator.compiled_batch(
                expr, self.row_vars, self.one_row
            )
        return fn(rows, self.env)

    def kernel(self, expr: ast.Expr) -> Callable[[Chunk], List[Any]]:
        """``expr``'s column as a function of the rows alone."""
        if not self.one_row:
            return lambda rows: self.column(expr, rows)
        fn = self.fns[id(expr)] = self.evaluator.compiled_batch(
            expr, self.row_vars, True
        )
        return partial(fn, env=self.env)

    def _env_columns(self, rows: Optional[Chunk]):
        """The env-space producer, and ``rows`` as environments."""
        extend = self.env.extend
        envs = None if rows is None else [extend(row) for row in rows.rows()]
        return EnvColumns(self.evaluator, self.env, self.var_order), envs

    def star(self, rows: Chunk) -> List[Struct]:
        cols, envs = self._env_columns(rows)
        return cols.star(envs)

    def bind(self, rows: Chunk, columns: Dict[str, List[Any]]) -> Chunk:
        for name, column in columns.items():
            rows.bind(name, column)
        return rows

    def output_keys(self, order_by, rows: Optional[Chunk], values: List[Any]):
        """Keys that can see the output are evaluated per row in
        :func:`clauses.sort_env` (a name the output tuple lacks falls
        through to the row, then outwards): the env-space fallback."""
        self.keys_see_output = True
        cols, envs = self._env_columns(rows)
        return cols.output_keys(order_by, envs, values)

    @staticmethod
    def take(rows: Chunk, picks: List[int]) -> Chunk:
        return rows.take(picks)

    @staticmethod
    def concat(chunks: Iterable[Chunk]) -> Chunk:
        return Chunk.concat(list(chunks))

    @staticmethod
    def payload(rows: Chunk) -> List[Tuple[Chunk, int]]:
        """What a sort keeps of each row: its chunk and index."""
        return list(zip([rows] * rows.size, range(rows.size)))

    @staticmethod
    def gather(payload: List[Tuple[Chunk, int]]) -> Chunk:
        return Chunk.gather(payload)


def _keep_true(rows: Chunk, predicate_fn, env, tally=None) -> Chunk:
    """The rows ``predicate_fn`` is TRUE for (WHERE, HAVING), tallied
    when ``tally`` is given."""
    started = perf_counter() if tally is not None else 0.0
    rows = rows.keep(survivors(predicate_fn(rows, env)))
    if tally is not None:
        tally.lap(len(rows), started)
    return rows


def _one_row_chunks(chunks: Iterable[Chunk]) -> Iterator[Chunk]:
    return (row for chunk in chunks for row in chunk.split())


def execute_block(evaluator, query, plan, env, rows=False, stream=False) -> Any:
    """Run one query block and its query's ORDER BY / LIMIT / OFFSET —
    the engine's one block executor.  Returns the query result (an
    ordered list under ORDER BY, PIVOT's tuple, else a Bag) or, with
    ``stream``, the output values as a lazy iterator (EXISTS, IN).

    *Columns* mode runs each clause over chunks of up to
    :data:`CHUNK_ROWS` rows through chunk kernels and folds GROUP BY
    through the decomposed aggregate sites.  *Rows* mode (``rows``) evaluates what a row-at-a-time
    pipeline does, in its order: every expression is its closure per row
    (``compiled_batch(..., one_row=True)``), the operators are pulled
    ``Evaluator._pull_size`` rows at a time, and one row runs LET and
    WHERE (after GROUP BY: HAVING) before the next.  A bag or unordered
    LIMIT projects a row when it is pulled, so a consumer that stops
    stops the producers; the GROUP BY fold (the GROUP AS collector
    alone) and the blocking tails take the rows regrouped
    ``CHUNK_ROWS`` at a time.  A block without FROM is the single
    binding ``env``.  LIMIT / OFFSET are evaluated before the first
    pull; stage tallies are kept under a timing tracer only.
    """
    body, config = query.body, evaluator.config
    kernels = block_kernels(evaluator, query, plan, rows)
    kind = consumer_kind(query)
    bound = offset = None
    if not stream and kind != "pivot":
        bound, offset = evaluator._bounds(query, env)
    tracer = evaluator.tracer
    timing = tracer is not None and tracer.timing
    stages: List[StageTally] = []
    started = perf_counter() if timing else 0.0

    def tally(name: str) -> Optional[StageTally]:
        return StageTally(name, stages) if timing else None

    let_fns, residual_fn = kernels.let_fns, kernels.residual_fn
    from_stage = tally("FROM") if plan is not None else None
    let_stage = tally("LET") if let_fns else None
    where_stage = tally("WHERE") if residual_fn is not None else None

    def kept_chunks(source: Iterable[Chunk]) -> Iterator[Chunk]:
        """FROM → LET → residual WHERE, a chunk (rows mode: a row) at a
        time."""
        source = iter(source)
        try:
            mark = perf_counter() if timing else 0.0
            for pulled in source:
                if from_stage is not None:
                    from_stage.lap(pulled.size, mark)
                parts = pulled.split() if rows else (pulled,)
                for chunk in parts:
                    if let_fns:
                        mark = perf_counter() if timing else 0.0
                        for name, let_fn in let_fns:
                            chunk.bind(name, let_fn(chunk, env))
                        if let_stage is not None:
                            let_stage.lap(len(chunk), mark)
                    if residual_fn is not None:
                        chunk = _keep_true(chunk, residual_fn, env, where_stage)
                    if chunk.size:
                        yield chunk
                mark = perf_counter() if timing else 0.0
        finally:
            close_iter(source)

    # ---- FROM: the operator tree -----------------------------------------
    decomp = kernels.decomp
    machines = decomp.machines if decomp is not None else []
    groups = GroupState.sets(decomp.clause, machines) if decomp is not None else []
    size = 1
    held = None
    if plan is None:
        source: Iterable[Chunk] = (Chunk(1, {}),)
    elif rows:
        size = evaluator._pull_size(body, stream or kind == "limit")
        source = plan.op.iter_chunks(evaluator, env, size)
    elif decomp is not None and hold_refusal(evaluator, query, kernels) is None:
        # A maintained fold: the groups held from the last run, stepped
        # over the elements appended since.
        held, start = _resume_fold(evaluator, query, plan.reads[0])
        groups = held.groups or groups
        source = plan.op.iter_chunks(evaluator, env, morsel=(start, held.folded))
    else:
        source = plan.op.iter_chunks(evaluator, env)
    if rows and not (timing or let_fns or residual_fn):
        # Nothing runs per row before GROUP BY or the tail.
        chunks = source if size == 1 else _one_row_chunks(source)
    else:
        chunks = kept_chunks(source)

    if decomp is not None:
        group_stage = tally("GROUP BY")

        def grouped(chunks) -> Iterator[Chunk]:
            """Every chunk folded, then the group rows: one chunk of them
            (rows mode: a row at a time)."""
            key_fns, value_fns = kernels.key_fns, kernels.value_fns
            for chunk in cut(chunks, CHUNK_ROWS) if rows else chunks:
                mark = perf_counter() if timing else 0.0
                columns = fold_columns(
                    chunk, env, key_fns, value_fns, kernels.row_vars, rows
                )
                fold_chunk(len(chunk), *columns, machines, groups, config)
                if group_stage is not None:
                    group_stage.lap(0, mark)
            if held is not None:
                _keep_fold(evaluator, query, held, groups)
            mark = perf_counter() if timing else 0.0
            group_rows = finalize_groups(decomp.clause, decomp.specs, groups, config)
            if group_stage is not None:
                group_stage.lap(len(group_rows), mark)
            yield from _one_row_chunks((group_rows,)) if rows else (group_rows,)

        chunks = grouped(chunks)
    if kernels.having_fn is not None:
        having = kernels.having_fn, env, tally("HAVING")
        chunks = (_keep_true(chunk, *having) for chunk in chunks)
    cols = kernels.columns(evaluator, env)

    def lazy_values(chunks) -> Iterator[Any]:
        """Rows mode's bag: SELECT [DISTINCT] a row at a time, as the
        consumer pulls (windows first drain the rows).  The tallies are
        flushed when the stream ends, so a consumer that stops early
        leaves exact counts."""
        chunks = iter(chunks)
        try:
            if kernels.calls:
                window_stage = tally("WINDOW")
                mark = perf_counter() if timing else 0.0
                every = Chunk.concat(list(chunks))
                every = bind_windows(every, cols, kernels.calls, config)
                if window_stage is not None:
                    window_stage.lap(len(every), mark)
                chunks = _one_row_chunks((every,))
            select = kernels.select
            select_stage = tally("SELECT DISTINCT" if select.distinct else "SELECT")
            select_values = projection(select, cols)
            for chunk in chunks:
                mark = perf_counter() if timing else 0.0
                values = select_values(chunk)
                if select_stage is not None:
                    select_stage.lap(len(values), mark)
                yield from values
        finally:
            close_iter(chunks)
            if timing:
                tracer.flush_stages(body, stages, started)

    if rows and kind in ("bag", "limit"):
        values = lazy_values(chunks)
        if stream:
            return values
        try:
            return Bag(islice(values, offset or 0, bound))
        finally:
            close_iter(values)
    if rows:
        chunks = cut(chunks, CHUNK_ROWS)
    try:
        result = kernels.tail(() if bound == 0 else chunks, cols, config, stages, bound)
    finally:
        close_iter(chunks)
        if timing:
            tracer.flush_stages(body, stages, started)
    if kind == "pivot":
        return result
    if query.order_by:
        return result[offset:] if offset else result
    return Bag(result)


# =========================================================================
# Maintained folds: a GROUP BY over a collection grown by insert
# =========================================================================


class HeldFold:
    """A top-level GROUP BY block's fold kept between executions
    (docs/PLANNER.md, "Caching"): ``groups`` (one :class:`GroupState`
    per grouping set; None until a fold finished) has folded the first
    ``folded`` elements of the collection the block scans, as of that
    collection's ``version``."""

    __slots__ = ("version", "folded", "groups")

    def __init__(self) -> None:
        self.version = self.folded = 0
        self.groups: Optional[List[GroupState]] = None


def _maintained(evaluator, query, kernels) -> str:
    """Why a block's fold may not be kept between executions by the
    rungs decided once per compiled block (docs/PLANNER.md, "Caching"),
    or "": the top-level query's block, FROM one scan of a catalog
    collection (with lateral items over it), no other name in the query
    that the catalog could resolve, no ``?`` parameter, O(1) state per
    group in every machine and no resource limit."""
    from repro.catalog.statistics import source_name

    config, plan = evaluator.config, kernels.plan
    if query is not evaluator._caches.root:
        return "not the top-level query's block"
    scans = scan_ops(plan.op)
    item = scans[0].item if len(scans) == 1 else None
    if not isinstance(item, ast.FromCollection) or source_name(item.expr) is None:
        return "FROM is not one scan of a catalog collection"
    catalog = evaluator._catalog_names()
    roots = catalog | {name.split(".", 1)[0] for name in catalog}
    source = item.expr
    while isinstance(source, ast.Path):
        source = source.base
    for node in query.walk():
        if isinstance(node, ast.VarRef) and node.name in roots and node is not source:
            again = "is named again in the query (the catalog could resolve it)"
            return f"{node.name} {again}"
        if isinstance(node, ast.Parameter):
            return "a ? parameter"
    for spec in kernels.decomp.specs:
        if isinstance(spec.machine, Members):
            distinct = " (DISTINCT)" if spec.distinct else ""
            return f"{spec.machine.name}{distinct} keeps every value of its group"
    if config.has_limits:
        return "a resource limit (timeout_s / max_rows / max_recursion) is set"
    return ""


def hold_refusal(evaluator, query, kernels) -> Optional[str]:
    """Why the GROUP BY block of ``kernels`` (columns mode) folds its
    whole input this run, or None when it continues the fold its last
    run kept.  The collection is looked at first — a few dictionary
    probes per run — and the rungs decided once per compiled block
    (:func:`_maintained`) only for one grown by ``insert``."""
    reads, catalog = kernels.plan.reads, evaluator._catalog
    if len(reads) != 1:
        return "FROM is not one scan of a catalog collection"
    name = reads[0]
    if not hasattr(catalog, "appended_since"):
        return "the catalog keeps no append lineage"
    if name not in catalog or type(catalog.get(name)) not in (Bag, list):
        return f"{name} is not a materialised collection"
    if not catalog.appended_since(name, catalog.version_of(name) - 1):
        return f"{name} has not grown by insert since it was last set"
    if kernels.maintained is None:
        kernels.maintained = _maintained(evaluator, query, kernels)
    return kernels.maintained or None


def _resume_fold(evaluator, query: ast.Query, name: str) -> Tuple[HeldFold, int]:
    """The fold a maintained block runs on, moved to collection ``name``
    as it is now, and the first element still to fold.  The held state
    is popped (:func:`_keep_fold` stores it back once the fold finished,
    so a fold that raises leaves none) and continued only when ``name``
    was just appended to since and no tracer is attached: a traced run's
    operator counts and cardinality feedback are whole-collection
    truths."""
    catalog = evaluator._catalog
    held = evaluator._caches.folds.pop(id(query.body), None)
    if (
        held is None
        or evaluator.tracer is not None
        or not catalog.appended_since(name, held.version)
    ):
        held = HeldFold()
    start = held.folded
    held.version, held.folded = catalog.version_of(name), len(catalog.get(name))
    return held, start


def _keep_fold(evaluator, query: ast.Query, held: HeldFold, groups) -> None:
    """Hold ``groups``, the finished fold of :func:`_resume_fold`."""
    evaluator.groups_advanced = evaluator.groups_advanced or held.groups is not None
    held.groups = groups
    evaluator._caches.folds[id(query.body)] = held


def groups_note(evaluator, query: ast.Query, plan, traced: bool = False) -> str:
    """EXPLAIN's ``groups:`` line for a top-level GROUP BY block in
    columns mode (``traced``: EXPLAIN ANALYZE's)."""
    refusal = hold_refusal(evaluator, query, block_kernels(evaluator, query, plan))
    if refusal is not None:
        return f"groups: folded per run — {refusal}"
    if traced:
        return "groups: re-folded (traced run)"
    name, catalog = plan.reads[0], evaluator._catalog
    held = evaluator._caches.folds.get(id(query.body))
    length = len(catalog.get(name))
    if held is None or not catalog.appended_since(name, held.version):
        state = f"nothing held yet: the next read folds {length} rows"
    else:
        state = f"{held.folded} rows folded, {length - held.folded} appended since"
    return f"groups: maintained — {name} grown by insert ({state})"


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
    if plan is None:
        lines = ["plan: unplanned (no FROM clause)"]
    else:
        notes = evaluator.plan_notes(body)
        if batched and body.group_by is not None:
            notes.append(groups_note(evaluator, query, plan))
        lines = [plan.explain(notes=notes)]
    lines.append(f"consumer: {describe_consumer(query, batched)}")
    return lines + executors


#: A set operation (whose operands have their own lines) or bare expression.
NOT_A_BLOCK = "query body is not a single query block"


def explain_executors(evaluator, query: ast.Query, tracer=None) -> List[str]:
    """The ``executor:`` / ``kernels:`` lines of EXPLAIN [ANALYZE].

    A dry run of the decisions execution makes, through the same
    functions (``Evaluator._batch_decision``, :func:`block_kernels`,
    ``PlanOp.batch_kernels``) and the same plan and kernel caches, on an
    evaluator that is not executing: which mode — ``batch`` (columns)
    or ``stream`` (rows) — runs the top-level block, each operand of a
    set operation and each derived table reachable in the top-level
    environment (with the clause that refused columns mode), and every
    expression of a batched block that has no chunk kernel and takes
    the per-row env-space fallback, with the node kind responsible.
    With the ``tracer`` of a finished run (EXPLAIN ANALYZE), a block
    whose columns attempt was replayed in rows mode
    (``Evaluator._eval_block_query``) says so.
    """
    from repro.syntax.printer import print_ast

    env = Environment()
    evaluator._enter(query, env)
    lines: List[str] = []
    fallbacks: List[ast.Expr] = []
    reads: List[Tuple[str, Optional[str]]] = []
    try:
        kernels = _explain_block(
            evaluator, query, env, "", "executor", lines, fallbacks, reads, tracer
        )
    except SQLPPError as error:
        # Kernel compilation can reject what execution would reject
        # (a malformed constant LIKE pattern); EXPLAIN still prints.
        return [f"executor: undetermined ({error})"]
    if not any(line.endswith(": batch") for line in lines):
        lines.append("kernels: none (no block runs on the batch executor)")
        return lines
    head = f"kernels: {kernels} columnar{_stored_note(reads)}"
    if not fallbacks:
        lines.append(f"{head}, no env-space fallback")
    else:
        seen: Dict[int, ast.Expr] = {id(node): node for node in fallbacks}
        rendered = "; ".join(
            f"{print_ast(node)} [{type(node).__name__}]" for node in seen.values()
        )
        lines.append(f"{head}, env-space fallback for {rendered}")
    return lines


def _stored_note(reads: List[Tuple[str, Optional[str]]]) -> str:
    """The ``kernels:`` line's account of the ``alias.attr`` reads: how
    many read stored columns, and why each other variable's do not."""
    stored = sum(why is None for __, why in reads)
    parts = []
    if stored:
        parts.append(f"{stored} stored-column read{'' if stored == 1 else 's'}")
    parts += [f"{name}: {why}" for name, why in dict(reads).items() if why]
    return f" ({'; '.join(parts)})" if parts else ""


def _scan_sources(evaluator, plan, laterals=()) -> Dict[str, Optional[str]]:
    """Per variable a scan of ``plan``, one of its lateral items or one
    of ``laterals`` (the items its segmented subqueries range) binds to
    elements: None when its ``alias.attr`` reads are served from stored
    columns (:meth:`Catalog.column_source`; for a lateral ``v.attr AS
    p``, a child source, :func:`plan_ops.lateral_slices`), else why not."""
    catalog = evaluator._catalog
    column_source = getattr(catalog, "column_source", None)
    strict = not evaluator.config.is_permissive
    sources: Dict[str, Optional[str]] = {}
    #: Under strict typing, the elements of each variable served.
    elements: Dict[str, List[Any]] = {}
    items = []
    # Reversed pre-order: an operator after the ones below it.
    for op in reversed(walk_ops(plan.op)):
        if isinstance(op, LateralJoinOp):
            items.append(op.right_item)
            continue
        if not isinstance(op, ScanOp) or not isinstance(op.item, ast.FromCollection):
            continue
        name, why = op.source_name, "not a catalog scan"
        if name is not None and name in catalog:
            # The scans of a block evaluated in the top-level
            # environment resolve the name to the catalog's value.
            value = catalog[name]
            if type(value) is LazyBag:
                why = "lazy source"
            elif column_source is not None and column_source(name, value):
                why = None
                if strict:
                    elements[op.item.alias] = list(value)
        sources[op.item.alias] = why
    for item in chain(items, laterals):
        if not isinstance(item, ast.FromCollection):
            continue
        expr = item.expr
        if isinstance(expr, ast.VarRef):
            why = "not a catalog scan"  # a variable's collection
        elif not isinstance(expr, ast.Path) or not isinstance(expr.base, ast.VarRef):
            why = "lateral over an expression"
        else:
            why = sources.get(expr.base.name, "not a catalog scan")
            if why is None and strict:
                values = [
                    e.get(expr.attr) if isinstance(e, Struct) else None
                    for e in elements[expr.base.name]
                ]
                if all(type(v) is list or type(v) is Bag for v in values):
                    elements[item.alias] = list(chain.from_iterable(values))
                else:
                    why = "strict: not every value a collection"
        sources[item.alias] = why
    return sources


def _explain_block(
    evaluator, query: ast.Query, env, indent: str, title: str,
    lines: List[str], fallbacks: List[ast.Expr],
    reads: List[Tuple[str, Optional[str]]], tracer,
) -> int:
    """Append one block's ``executor`` line (then its derived tables',
    indented); returns how many chunk kernels its batched blocks use.
    ``fallbacks`` collects their env-space fallbacks, ``reads`` their
    ``alias.attr`` reads, each with why it is not served from stored
    columns (None: it is)."""
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
                    reads, tracer,
                )
        return count
    evaluator._note_reorder(query, body)
    plan, reason = evaluator._batch_decision(query, body, env)
    count = 0
    replayed = tracer.replay_of(body) if tracer is not None else None
    if replayed is not None:
        lines.append(f"{label}: batch → stream (replayed after {replayed})")
    elif reason is None:
        lines.append(f"{label}: batch")
        kernels = block_kernels(evaluator, query, plan)
        fns = kernels.all()
        # The tail's kernels are the ones a run over no rows asks for.
        cols = kernels.columns(evaluator, env)
        kernels.tail((Chunk(0, {}),), cols, evaluator.config, [])
        fns.extend(cols.fns.values())
        if cols.keys_see_output:
            fallbacks.extend(item.expr for item in query.order_by)
        for op in walk_ops(plan.op):
            fns.extend(op.batch_kernels(evaluator))
        count = len(fns)
        laterals = [item for fn in fns for item in fn.laterals]
        sources = _scan_sources(evaluator, plan, laterals)
        for fn in fns:
            fallbacks.extend(fn.fallbacks)
            reads.extend(
                (name, sources.get(name, "not a catalog scan"))
                for name in fn.stored_reads
            )
    else:
        lines.append(f"{label}: stream ({reason})")
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
                f"derived table {item.alias}", lines, fallbacks, reads, tracer,
            )
    return count
