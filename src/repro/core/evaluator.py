"""The SQL++ Core engine.

Evaluates *rewritten* (Core) queries: a query block is a pipeline of
clause functions over binding streams (paper, Section V-B — "it is best
to think of a SQL++ query as being a pipeline of clauses, starting with
the FROM, continuing with the optional WHERE, proceeding to the optional
GROUP BY, and then the optional HAVING, and finishing with the SELECT
clause.  Each clause is a function that inputs data and outputs data.").

Every block runs on one of two executors: the batch (chunk-at-a-time)
pipeline of :mod:`repro.core.vectorized` or the streaming generator
chain below — ``FROM`` → ``LET`` → ``WHERE`` (keep on TRUE only) →
``GROUP BY ... GROUP AS`` → ``HAVING``, then the tail every evaluator
shares (:mod:`repro.core.tails`: windows → ``SELECT VALUE`` / ``SELECT
*`` / ``PIVOT`` → ``ORDER BY`` / ``LIMIT`` / ``OFFSET``), with GROUP BY,
windows and PIVOT as the pipeline breakers.  Every expression is
evaluated through its compiled closure (:mod:`repro.core.compile_expr`).
The eager, tree-walking form of the same semantics is the oracle in
:mod:`repro.core.reference` (``optimize=False``), which this module
never calls; the clause semantics both need live in
:mod:`repro.core.clauses`.

Unordered queries produce bags; ``ORDER BY`` produces arrays; ``PIVOT``
queries produce a single tuple (Section VI-B).
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.config import EvalConfig
from repro.core import clauses, compile_expr, planner
from repro.core.environment import Environment
from repro.core.plan_ops import CHUNK_ROWS, close_iter
from repro.core.tails import EnvColumns, run_tail
from repro.core.windows import find_window_calls, lower_window_calls, window_columns
from repro.datamodel.values import Bag
from repro.errors import EvaluationError, TypeCheckError
from repro.functions import operators as ops
from repro.observability.tracer import StageTally
from repro.syntax import ast


def _tallied(source: Iterable, tally: StageTally) -> Iterator:
    """Count rows and time-in-``next()`` (inclusive of upstream stages,
    like operator timings) as they stream through a stage boundary."""
    it = iter(source)
    try:
        while True:
            started = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                tally.elapsed += perf_counter() - started
                break
            tally.elapsed += perf_counter() - started
            tally.rows += 1
            yield item
    finally:
        close_iter(it)


def consumer_kind(query: ast.Query) -> str:
    """How a block's output is consumed — ``pivot`` (one tuple from the
    whole binding stream), ``top-k`` (ORDER BY with LIMIT), ``sort``
    (ORDER BY alone), ``limit`` (unordered LIMIT / OFFSET) or ``bag``:
    what the executors branch on and EXPLAIN prints as ``consumer:``."""
    if isinstance(query.body.select, ast.PivotClause):
        return "pivot"
    if query.order_by:
        return "top-k" if query.limit is not None else "sort"
    if query.limit is not None or query.offset is not None:
        return "limit"
    return "bag"


#: EXPLAIN's ``consumer:`` text per :func:`consumer_kind`; ``{how}`` is
#: the executor — every consumer but the early-terminating ``limit``
#: runs on either, taking its key columns from kernels or row closures.
_CONSUMERS = {
    "pivot": "one tuple assembled from the whole binding stream (PIVOT): "
    "AT / value columns of the {how} input",
    "top-k": "top-K (ORDER BY with LIMIT): keeps limit+offset rows between "
    "chunks of the {how} input, one sort-key evaluation per row",
    "sort": "full sort over the key columns of the {how} input "
    "(ORDER BY without LIMIT)",
    "limit": "streamed with early termination after OFFSET+LIMIT rows",
    "bag": "streamed bag (operators pulled ~1024 rows at a time, one "
    "where row order is observable)",
    "batched bag": "bag built a chunk (~1024 rows) at a time; under "
    "batch=False a streamed bag (operators pulled the same way, one row "
    "at a time where row order is observable)",
}


def describe_consumer(query: ast.Query, batched: bool) -> str:
    kind = consumer_kind(query)
    if kind == "bag" and batched:
        kind = "batched bag"
    return _CONSUMERS[kind].format(how="batched" if batched else "streamed")


def _let_rows(let_fns, source: Iterable[Environment]) -> Iterator[Environment]:
    for current in source:
        for name, let_fn in let_fns:
            current = current.bind(name, let_fn(current))
        yield current


def _filter_rows(predicate_fn, source: Iterable[Environment]) -> Iterator[Environment]:
    for current in source:
        if predicate_fn(current) is True:
            yield current


class _QueryCaches:
    """Everything the engine derives from the AST nodes of one compiled
    query, keyed by ``id(node)``: created when the query first runs
    (:meth:`Evaluator._enter`), dropped with its compile-cache entry
    (:meth:`Evaluator.forget`).  Each entry keeps its node alive beside
    the derived value, so an id() cannot be reused while it exists."""

    def __init__(self, root: Optional[ast.Query]):
        self.root = root
        self.compiled: Dict[int, Any] = {}
        self.batch_compiled: Dict[Tuple[int, frozenset, bool], Any] = {}
        #: id(block) → :class:`_CachedPlan`; see
        #: :meth:`Evaluator._block_plan`.
        self.plans: Dict[int, "_CachedPlan"] = {}
        self.decompositions: Dict[int, Any] = {}
        self.reorder_flags: Dict[int, Tuple[Any, bool]] = {}
        self.window_selects: Dict[int, Any] = {}


class _CachedPlan:
    """One block's plan with what says it is still good: the statistics
    provider's ``generation`` when it was last found current (the one
    integer the hot path compares), the stamp of the collections it
    reads (looked at only when the generation moved) and their row
    counts when planned (what EXPLAIN measures drift from)."""

    __slots__ = ("block", "plan", "generation", "stamp", "rows")

    def __init__(self, block: ast.QueryBlock, plan: Any):
        self.block = block
        self.plan = plan
        self.generation = 0
        self.stamp: Tuple = ()
        self.rows: Dict[str, int] = {}


class Evaluator(clauses.QueryEvaluator):
    """Evaluates Core queries against a catalog of named values.

    ``catalog`` is any mapping-like object supporting ``__contains__``
    and ``__getitem__`` over dotted names (see
    :class:`repro.catalog.Catalog`).  ``parameters`` supplies values for
    positional ``?`` parameters.
    """

    def __init__(
        self,
        catalog,
        config: Optional[EvalConfig] = None,
        parameters: Optional[Sequence[Any]] = None,
        tracer=None,
        stats=None,
    ):
        self._catalog = catalog if catalog is not None else {}
        self.config = config or EvalConfig()
        #: Per-query caches by ``id(root query)``, and the one in use:
        #: the running query's, or (outside any query — expressions
        #: compiled directly) one that lives as long as the evaluator.
        self._scopes: Dict[int, _QueryCaches] = {}
        self._caches = _QueryCaches(None)
        #: Optional :class:`repro.catalog.statistics.StatsProvider`
        #: feeding the planner's cost-based join ordering.
        self._stats = stats
        #: id(block) → ``built — …`` / ``rebuilt — …`` for every plan
        #: built since the current top-level query was entered; a block
        #: that is not here ran (or is explained from) a reused plan.
        self._plan_events: Dict[int, str] = {}
        #: Set by ``Database`` around ``execute``: a memoized evaluator
        #: that is mid-execution must not be rebound by a reentrant
        #: query (a lazy-bag factory issuing one while its consumer runs).
        self._in_use = False
        self.rebind(parameters, tracer)

    def rebind(self, parameters=None, tracer=None) -> "Evaluator":
        """Reset per-execution state so a memoized evaluator can serve
        a new query with warm compile/plan caches.

        Everything keyed to the *query* survives in its
        :class:`_QueryCaches` (compiled closures, physical plans —
        staleness against catalog data is handled per lookup); anything
        keyed to the *execution* is rebuilt here.
        """
        self._bind(parameters, tracer)
        #: Whether any query block ran on the streaming (pipelined)
        #: clause pipeline — batch included, its chunked form — during
        #: this execution; surfaced as ``QueryMetrics.streamed``.
        self.streamed = False
        #: Whether the top-level block ran on the batch (vectorized)
        #: pipeline; surfaced as ``QueryMetrics.batched``.
        self.batched = False
        #: How many morsel workers the parallel driver actually used
        #: (0 = serial); surfaced as ``QueryMetrics.parallel_workers``.
        self.parallel_workers = 0
        #: Wall time spent in the physical planner, or None when the
        #: planner never ran for this execution (no block has a FROM).
        #: Always measured — planning happens once per block per
        #: evaluator, never per binding — so `plan:` phase reporting
        #: does not depend on a tracer being attached.
        self.plan_time_s: Optional[float] = None
        #: The query object and environment ``execute`` was entered
        #: with.  The batch pipeline engages for that query and for
        #: blocks evaluated in that very environment (no row bindings in
        #: scope, so uncorrelated and evaluated once: derived tables,
        #: set-operation operands); correlated subqueries keep the cheap
        #: streaming path.
        self._top_query: Optional[ast.Query] = None
        self._top_env: Optional[Environment] = None
        return self

    def _enter(self, query: ast.Query, env: Environment) -> None:
        """Make ``query`` the top-level query: its environment and its
        caches are the ones every lookup below uses."""
        self._top_query = query
        self._top_env = env
        self._plan_events = {}
        caches = self._scopes.get(id(query))
        if caches is None:
            caches = self._scopes[id(query)] = _QueryCaches(query)
        self._caches = caches

    def forget(self, query: ast.Query) -> None:
        """Drop everything derived from ``query`` (its compile-cache
        entry is gone, so nothing will present these nodes again)."""
        caches = self._scopes.pop(id(query), None)
        if caches is self._caches:
            self._caches = _QueryCaches(None)

    def compiled(self, expr: ast.Expr):
        """The closure-compiled form of an expression (cached per node,
        :mod:`repro.core.compile_expr`): how the engine evaluates every
        expression outside a chunk kernel."""
        cache = self._caches.compiled
        entry = cache.get(id(expr))
        if entry is None:
            entry = cache[id(expr)] = (expr, compile_expr.compile_expr(expr, self))
        return entry[1]

    def compiled_batch(
        self, expr: ast.Expr, row_vars: frozenset, one_row: bool = False
    ):
        """The chunk kernel of an expression over bindings of
        ``row_vars`` (:func:`repro.core.compile_expr.compile_batch`;
        ``one_row`` for one-row chunks), compiled once per query like
        :meth:`compiled`, not once per execution."""
        cache = self._caches.batch_compiled
        key = (id(expr), row_vars, one_row)
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = (
                expr,
                compile_expr.compile_batch(expr, self, row_vars, one_row),
            )
        return entry[1]

    def eval_expr(self, expr: ast.Expr, env: Environment) -> Any:
        """One expression in one environment: its compiled closure."""
        return self.compiled(expr)(env)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, query: ast.Query, env: Optional[Environment] = None) -> Any:
        """Evaluate ``query`` as the top-level query of this execution."""
        if env is None:
            env = Environment()
        self._enter(query, env)
        return super().execute(query, env)

    def _eval_block_query(
        self, query: ast.Query, body: ast.QueryBlock, env: Environment
    ) -> Any:
        """Run one block with its query's ORDER BY / LIMIT / OFFSET on
        the executor :meth:`_batch_decision` picks: batch or stream.

        Under strict typing the batch run is optimistic.  The chunk
        kernels evaluate column-major, fold aggregates row-major and
        test collection elements an early-terminating stream would never
        pull, so *which* dynamic error a failing block raises — and, for
        the over-evaluating kernels, whether it raises at all — can
        differ from the stream's.  When a ``TypeCheckError`` or
        ``EvaluationError`` escapes the attempt (a morsel worker's
        included: it is re-raised in this process), the attempt is
        discarded and the block runs on :meth:`_eval_query_streaming`,
        whose answer — value or error — is final: batch ≡ ``batch=False``
        by construction, for every kernel.  The replay is a recorded
        decision and nothing else: the governor's row tally returns to
        its value at block entry (its deadline keeps running), the
        tracer forgets the attempt (:meth:`ExecTracer.replay`), and a
        replayed top-level block reports ``batched`` False.
        """
        self._note_reorder(query, body)
        plan, __ = self._batch_decision(query, body, env)
        if plan is None:
            return self._eval_query_streaming(query, body, env)
        from repro.core.vectorized import execute_batch_query

        # The batch pipeline is the chunked form of the streaming
        # pipeline; both flags are observable so existing streaming
        # assertions stay true and the batch path is distinguishable.
        # ``batched`` describes the top-level block only (EXPLAIN
        # reports nested ones).
        self.streamed = True
        top = query is self._top_query
        if top:
            self.batched = True
        governor, tracer = self.governor, self.tracer
        rows_at_entry = governor.rows if governor is not None else 0
        mark = tracer.mark() if tracer is not None else None
        try:
            return execute_batch_query(self, query, body, plan, env)
        except (TypeCheckError, EvaluationError) as error:
            if self.config.is_permissive:
                raise
            if governor is not None:
                governor.rows = rows_at_entry
            if tracer is not None:
                tracer.replay(mark, body, type(error).__name__)
            if top:
                self.batched = False
                self.parallel_workers = 0
        return self._eval_query_streaming(query, body, env)

    # ------------------------------------------------------------------
    # Batch (vectorized) execution
    # ------------------------------------------------------------------

    def _note_reorder(self, query: ast.Query, body: ast.QueryBlock) -> None:
        """Record whether cost-based join reordering may change this
        block's plan.  Reordering permutes the output *bag* order —
        semantically free, but ORDER BY tie-breaking, DISTINCT
        first-seen order and GROUP BY first-group order are all defined
        by input sequence, so those shapes keep the syntactic order."""
        flags = self._caches.reorder_flags
        if id(body) not in flags:
            allowed = (
                not query.order_by
                and body.group_by is None
                and not getattr(body.select, "distinct", False)
            )
            flags[id(body)] = (body, allowed)

    def _batch_refusal(
        self, query: ast.Query, body: ast.QueryBlock, env: Environment
    ) -> Optional[str]:
        """The clause that keeps a block off the batch pipeline, or None.

        Every block streams; batch additionally requires: the block is
        the query ``execute`` was entered with *or* is being evaluated
        in the top-level environment — no row bindings in scope, so it
        is uncorrelated and evaluated once (derived tables, notably the
        ones rules SQLPPR01/SQLPPR02 synthesise over whole collections,
        and set-operation operands); correlated subqueries run once per
        outer row over usually small inputs, where chunking costs more
        than it saves.  An unordered LIMIT / OFFSET streams because
        stopping the producers early is that consumer's whole point.
        Neither a blocking tail nor the typing mode is on the list: a
        strict block runs the same kernels and is replayed on the stream
        if an error escapes them (:meth:`_eval_block_query`).
        """
        if not self.config.batch:
            return "batch=False"
        if query is not self._top_query and env is not self._top_env:
            return "correlated subquery (row bindings in scope)"
        if body.from_ is None:
            return "no FROM clause"
        if consumer_kind(query) == "limit":
            return "unordered LIMIT/OFFSET stops the producers early"
        return None

    def _batch_decision(
        self, query: ast.Query, body: ast.QueryBlock, env: Environment
    ) -> Tuple[Any, Optional[str]]:
        """``(plan, None)`` when the block runs on the batch pipeline,
        else ``(None, the refusing clause)`` — the one decision both
        execution and EXPLAIN (:func:`vectorized.explain_executors`)
        consult."""
        reason = self._batch_refusal(query, body, env)
        if reason is not None:
            return None, reason
        return self._block_plan(body), None

    def _catalog_names(self) -> set:
        """Names the catalog can resolve, for the planner's emptiness
        proof (a free name outside this set might be a binding error at
        runtime, so pruning must not erase its evaluation)."""
        names = getattr(self._catalog, "names", None)
        if callable(names):
            return set(names())
        try:
            return set(self._catalog)
        except TypeError:  # pragma: no cover - defensive
            return set()

    def _eval_query_streaming(
        self, query: ast.Query, body: ast.QueryBlock, env: Environment
    ) -> Any:
        """Pipelined evaluation of one block and its query's ORDER BY /
        LIMIT / OFFSET (docs/PLANNER.md).

        LIMIT/OFFSET cardinals are evaluated *before* the stream starts
        (decision log, docs/LANGUAGE.md §8) so the consumers can bound
        the work: an unordered LIMIT stops the producers as soon as
        enough rows arrived; the blocking tails (:func:`tails.run_tail`)
        take the stream a chunk of rows at a time, and ``ORDER BY ...
        LIMIT k`` keeps k rows between chunks.  Where the SELECT can
        wait (:meth:`_defers_select`) rows a top-K evicted never
        evaluate their projection — including any error it would have
        raised, the same visibility rule as every other
        early-terminating consumer.
        """
        self.streamed = True
        kind = consumer_kind(query)
        bound, offset = (None, None) if kind == "pivot" else self._bounds(query, env)
        if kind in ("bag", "limit"):
            source = iter(self._stream_block(body, env, early=kind == "limit"))
            try:
                return Bag(islice(source, offset or 0, bound))
            finally:
                close_iter(source)
        rows, stages, var_order = self._stream_rows(
            body, env, self._pull_size(body, early=False)
        )
        source = iter(rows)
        # CHUNK_ROWS rows at a time, until a chunk comes back empty.
        chunks = iter(lambda: list(islice(source, CHUNK_ROWS)), [])
        calls, select = self._window_select(body)
        started = perf_counter()
        try:
            result = run_tail(
                chunks if bound != 0 else (),
                EnvColumns(self, env, var_order),
                select,
                calls,
                query.order_by,
                self.config,
                stages,
                self._defers_select(body, query.order_by),
                bound,
            )
        finally:
            close_iter(source)
            if self.tracer is not None and self.tracer.timing:
                self.tracer.flush_stages(body, stages, started)
        return result[offset:] if offset else result

    def column(self, expr: ast.Expr, envs: List[Environment]) -> List[Any]:
        fn = self.compiled(expr)
        return [fn(env) for env in envs]

    def _bounds(
        self, query: ast.Query, env: Environment
    ) -> Tuple[Optional[int], Optional[int]]:
        """``(limit + offset, offset)`` of ``query``, each None where the
        clause (for the sum: LIMIT) is absent."""
        limit = offset = None
        if query.limit is not None:
            limit = clauses.cardinal(self.eval_expr(query.limit, env), "LIMIT")
        if query.offset is not None:
            offset = clauses.cardinal(self.eval_expr(query.offset, env), "OFFSET")
        return (None if limit is None else limit + (offset or 0)), offset

    def _defers_select(
        self, block: ast.QueryBlock, order_by: Sequence[ast.OrderItem]
    ) -> bool:
        """Whether no ORDER BY key can observe the projected value, so
        the keys are columns over the binding rows and the SELECT can
        wait for the rows the sort keeps (late materialization) — the
        big win under a top-K when the projection is expensive.

        Sound only for a non-DISTINCT ``SELECT VALUE`` of a tuple
        literal with literal attribute names, none of which occurs as a
        variable name in an ORDER BY key (the keys' sort environment
        overlays the output tuple's attributes, so a shared name could
        shadow a binding variable).  Window values are part of the
        output rows, so a windowed SELECT is never deferred.
        """
        calls, select = self._window_select(block)
        if (
            not order_by
            or calls
            or not isinstance(select, ast.SelectValue)
            or select.distinct
            or not isinstance(select.expr, ast.StructLit)
        ):
            return False
        names = clauses.literal_keys(select.expr)
        return names is not None and not any(
            planner.free_names(item.expr) & set(names) for item in order_by
        )

    # -- streaming clause pipeline -------------------------------------------

    def _pull_size(self, block: ast.QueryBlock, early: bool) -> int:
        """Rows per operator pull on the stream: one where row order is
        observable — a consumer that can stop ``early`` (unless GROUP BY
        drains the FROM anyway), or strict typing, where the stream is
        the replay target and column-major kernels would change which
        error surfaces — else ``CHUNK_ROWS``."""
        if self.config.is_permissive and not (early and block.group_by is None):
            return CHUNK_ROWS
        return 1

    def _stream_rows(
        self, block: ast.QueryBlock, env: Environment, size: int
    ) -> Tuple[Iterable[Environment], List[StageTally], List[str]]:
        """The block's clause pipeline up to HAVING as a lazy generator
        chain of binding environments, with its stage tallies and the
        variables in scope for ``SELECT *``.

        FROM is the block's operator tree pulled ``size`` rows at a
        time (:meth:`_pull_size`) and flattened; each later clause
        wraps the previous clause's iterator, so a consumer that stops
        early (LIMIT, EXISTS) stops every upstream producer with it.
        GROUP BY is a pipeline breaker but folds rows into group state
        as they arrive instead of buffering the binding stream
        (:meth:`_stream_groups`).  A block without FROM is the
        single binding ``env``.
        """
        stages: List[StageTally] = []
        tally = self._tally
        var_order: List[str] = []
        plan = self._block_plan(block)
        if plan is not None:
            for item in block.from_:
                var_order.extend(clauses.item_vars(item))
        var_order.extend(let.name for let in block.lets)
        rows = iter((env,))
        if plan is not None:
            rows = tally(stages, plan.iter_envs(self, env, size), "FROM")
        if block.lets:
            let_fns = [(let.name, self.compiled(let.expr)) for let in block.lets]
            rows = tally(stages, _let_rows(let_fns, rows), "LET")
        where_expr = block.where if plan is None else plan.residual_where
        if where_expr is not None:
            where_fn = self.compiled(where_expr)
            rows = tally(stages, _filter_rows(where_fn, rows), "WHERE")

        if block.group_by is not None:
            grouped = self._stream_groups(block.group_by, rows, env, var_order)
            rows = tally(stages, grouped, "GROUP BY")
            var_order = clauses.group_output_vars(block.group_by)

        if block.having is not None:
            having_fn = self.compiled(block.having)
            rows = tally(stages, _filter_rows(having_fn, rows), "HAVING")
        return rows, stages, var_order

    def _tally(self, stages: List[StageTally], source: Iterable, name: str):
        """``source`` counted and timed as stage ``name`` — under a
        timing tracer only: in feedback-sampling mode operators count
        their own rows, and stage tallies are pure timing surface."""
        if self.tracer is None or not self.tracer.timing:
            return source
        return _tallied(source, StageTally(name, stages))

    def _stream_block(
        self, block: ast.QueryBlock, env: Environment, early: bool
    ) -> Iterator[Any]:
        """The block's output values as a lazy stream — for the bag, and
        for the consumers that may stop ``early`` (unordered LIMIT,
        EXISTS, IN): a row is projected only when it is pulled.
        Windows break the pipeline."""
        rows, stages, var_order = self._stream_rows(
            block, env, self._pull_size(block, early)
        )
        tally = self._tally
        calls, select = self._window_select(block)
        if calls:
            cols = EnvColumns(self, env, var_order)
            rows = tally(stages, self._window_rows(calls, rows, cols), "WINDOW")
        if isinstance(select, ast.SelectValue):
            select_fn = self.compiled(select.expr)
            values = (select_fn(current) for current in rows)
        elif isinstance(select, ast.SelectStar):
            star = clauses.eval_star
            values = (star(current, var_order) for current in rows)
        else:
            raise EvaluationError(
                f"unexpected SELECT clause after rewriting: {type(select).__name__}"
            )
        if select.distinct:
            values = tally(stages, ops.iter_distinct(values), "SELECT DISTINCT")
        else:
            values = tally(stages, values, "SELECT")
        if self.tracer is None or not self.tracer.timing:
            return values
        return self._record_stream_stages(values, block, stages)

    def _window_select(
        self, block: ast.QueryBlock
    ) -> Tuple[List[ast.WindowCall], ast.SelectClause]:
        """The block's window calls and its SELECT clause with each one
        lowered to the variable its value is bound to
        (:func:`windows.lower_window_calls`) — ``([], block.select)``
        for the ordinary block.  Derived once per block."""
        cache = self._caches.window_selects
        entry = cache.get(id(block))
        if entry is None:
            calls = find_window_calls(block.select)
            select = lower_window_calls(block.select, calls) if calls else block.select
            entry = cache[id(block)] = (block, calls, select)
        return entry[1], entry[2]

    def _window_rows(
        self, calls: List[ast.WindowCall], source: Iterable[Environment], cols
    ) -> Iterator[Environment]:
        envs = list(source)
        columns = window_columns(
            calls, len(envs), lambda expr: self.column(expr, envs), self.config
        )
        yield from cols.bind(envs, columns)

    def _record_stream_stages(
        self,
        source: Iterable[Any],
        block: ast.QueryBlock,
        stages: List[StageTally],
    ) -> Iterator[Any]:
        """Flush per-stage tallies to the tracer when the stream ends.

        The tallies update incrementally as rows pass each boundary, so
        the counts are exact even when the consumer closes the stream
        early; ``rows_in`` chains from the previous stage's output, as
        in the eager recorder (FROM's input is the single seed binding).
        """
        started = perf_counter()
        try:
            yield from source
        finally:
            self.tracer.flush_stages(block, stages, started)

    # -- FROM ----------------------------------------------------------------

    def _block_plan(self, block: ast.QueryBlock):
        """The block's physical plan — the operator tree every executor
        enumerates its FROM with — or None for a block without a FROM
        clause.  One plan per block, built on first use and read by
        every executor and every EXPLAIN surface until a collection it
        scans enters a new epoch or a feedback hint over one changes
        (:class:`repro.catalog.statistics.StatsProvider`); while nothing
        anywhere moved, that check is the one integer comparison below
        (this runs per row for a streamed correlated subquery).  A
        tracer is told which plan ran."""
        if block.from_ is None:
            return None
        entry = self._caches.plans.get(id(block))
        stats = self._stats
        if entry is None or (
            stats is not None and entry.generation != stats.generation
        ):
            entry = self._current_plan(block, entry)
        if self.plan_time_s is None:
            # Cache hit on a memoized evaluator: the planner "ran" for
            # this query (from cache), so the plan phase reports 0 time
            # rather than absent.
            self.plan_time_s = 0.0
        if self.tracer is not None:
            self.tracer.register_plan(block, entry.plan)
        return entry.plan

    def _current_plan(
        self, block: ast.QueryBlock, entry: Optional[_CachedPlan]
    ) -> _CachedPlan:
        """``entry`` revalidated against its stamp when only other
        collections moved, else a newly built plan — a recorded decision
        either way (:meth:`plan_notes`).  Plain mapping catalogs (no
        statistics provider) never invalidate."""
        stats = self._stats
        event = "built — first use"
        if entry is not None:
            why = stats.stale(entry.stamp)
            if why is None:
                entry.generation = stats.generation
                return entry
            event = f"rebuilt — {why}"
        caches = self._caches
        started = perf_counter()
        plan = planner.plan_block(
            block,
            self.config,
            stats=stats,
            reorder_ok=caches.reorder_flags.get(id(block), (None, False))[1],
            catalog_names=self._catalog_names(),
        )
        elapsed = perf_counter() - started
        from repro.analysis.verify_plan import maybe_verify_block_plan

        maybe_verify_block_plan(plan)
        entry = caches.plans[id(block)] = _CachedPlan(block, plan)
        if stats is not None:
            entry.generation = stats.generation
            entry.stamp = stats.stamp(plan.reads, hints=True)
            for name in plan.reads:
                collected = stats.stats_for(name)
                if collected is not None:
                    entry.rows[name] = collected.row_count
        self._plan_events[id(block)] = event
        self.plan_time_s = (self.plan_time_s or 0.0) + elapsed
        if self.tracer is not None and self.tracer.trace is not None:
            self.tracer.trace.event("plan", "phase", started, elapsed)
        return entry

    @property
    def plans_rebuilt(self) -> int:
        """How many cached plans this execution had to build again."""
        return sum(
            event.startswith("rebuilt") for event in self._plan_events.values()
        )

    def plan_notes(self, block: ast.QueryBlock) -> List[str]:
        """EXPLAIN's ``plan:`` line — whether the block's plan was built
        for the query just entered or reused, and why — and one current
        ``stats:`` line per scanned collection with statistics."""
        entry = self._caches.plans.get(id(block))
        stats = self._stats
        if entry is None or stats is None:
            return []
        decision = self._plan_events.get(id(block))
        if decision is None:
            drifts = [
                stats.drift(name, rows) for name, rows in entry.rows.items()
            ]
            decision = "reused"
            if drifts:
                decision += " — " + ", ".join(drifts)
        lines = [f"plan: {decision}"]
        for name in entry.plan.reads:
            collected = stats.stats_for(name)
            if collected is not None:
                lines.append(f"stats: {name}: {collected.summary()}")
        return lines

    def executed_plan(self, query: ast.Query):
        """The cached plan of ``query``'s block (None: no FROM, not a
        block) — what the query store hashes and cardinality feedback
        reads."""
        entry = self._caches.plans.get(id(query.body))
        return entry.plan if entry is not None else None

    def reads(self, query: ast.Query) -> List[str]:
        """The collections scanned by the plans of ``query``'s blocks
        that have one so far, each once."""
        caches = self._scopes.get(id(query))
        entries = caches.plans.values() if caches is not None else ()
        return list(
            dict.fromkeys(name for entry in entries for name in entry.plan.reads)
        )

    def block_plans(self, query: ast.Query) -> List[Any]:
        """The plan of every block under ``query`` that has one, planned
        through the same cache (and reorder rule) execution uses — so
        blocks an execution already planned cost nothing, and the rest
        (per-row subqueries no binding reached) are planned once."""
        self._enter(query, Environment())
        plans = []
        for node in query.walk():
            if isinstance(node, ast.Query) and isinstance(
                node.body, ast.QueryBlock
            ):
                self._note_reorder(node, node.body)
            elif isinstance(node, ast.QueryBlock):
                plan = self._block_plan(node)
                if plan is not None:
                    plans.append(plan)
        return plans

    # -- GROUP BY --------------------------------------------------------------

    def _stream_groups(
        self,
        clause: ast.GroupByClause,
        source: Iterable[Environment],
        outer_env: Environment,
        var_order: List[str],
    ) -> Iterator[Environment]:
        """GROUP BY on the stream: the batch executor's fold
        (:func:`vectorized.fold_chunk`) over ``CHUNK_ROWS`` environments
        at a time, their keys evaluated row-major (one row's keys before
        the next row's).  Only the GROUP AS collector folds: aggregate
        sites are not decomposed, so an aggregate argument is evaluated
        only where the SELECT reads ``COLL_*`` over the group."""
        from repro.core import vectorized

        key_fns = [self.compiled(key.expr) for key in clause.keys]
        specs = [vectorized.AggSpec(clause.group_as)] if clause.group_as else []
        machines = [spec.machine for spec in specs]
        sets = vectorized.GroupState.sets(clause, machines)
        source = iter(source)
        try:
            for chunk in iter(lambda: list(islice(source, CHUNK_ROWS)), []):
                keys = [[key_fn(current) for key_fn in key_fns] for current in chunk]
                values = [
                    [clauses.group_element(current, var_order) for current in chunk]
                    for __ in specs
                ]
                vectorized.fold_chunk(
                    len(chunk), list(zip(*keys)), values, machines, sets, self.config
                )
        finally:
            close_iter(source)
        for binding in vectorized.finalize_groups(clause, specs, sets, self.config):
            yield outer_env.extend(binding)

    # -- subquery value streams ----------------------------------------------

    def open_value_stream(
        self, query: ast.Query, env: Environment
    ) -> Optional[Iterator[Any]]:
        """A lazy iterator over a subquery's output values — what lets
        EXISTS and IN stop the subquery's producers at their first
        answer (docs/LANGUAGE.md §8) — or None when the query's shape
        needs full evaluation first (ORDER BY / LIMIT / OFFSET, set
        operations, PIVOT's single tuple)."""
        body = query.body
        if not isinstance(body, ast.QueryBlock) or consumer_kind(query) != "bag":
            return None
        self.streamed = True
        return self._subquery_value_stream(body, env)

    def _subquery_value_stream(
        self, body: ast.QueryBlock, env: Environment
    ) -> Iterator[Any]:
        governor = self.governor
        if governor is not None:
            governor.enter_query()
        try:
            yield from self._stream_block(body, env, early=True)
        finally:
            if governor is not None:
                governor.exit_query()
