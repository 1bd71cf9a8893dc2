"""The SQL++ Core engine.

Evaluates *rewritten* (Core) queries: a query block is a pipeline of
clause functions over binding streams (paper, Section V-B — "it is best
to think of a SQL++ query as being a pipeline of clauses, starting with
the FROM, continuing with the optional WHERE, proceeding to the optional
GROUP BY, and then the optional HAVING, and finishing with the SELECT
clause.  Each clause is a function that inputs data and outputs data.").

Every block runs on one executor, :func:`repro.core.vectorized.execute_block`:
``FROM`` → ``LET`` → ``WHERE`` (keep on TRUE only) → ``GROUP BY ... GROUP
AS`` → ``HAVING``, then the tail every evaluator shares
(:mod:`repro.core.tails`: windows → ``SELECT VALUE`` / ``SELECT *`` /
``PIVOT`` → ``ORDER BY`` / ``LIMIT`` / ``OFFSET``).  This module decides,
per block, which of its two modes runs — columns (chunk kernels, EXPLAIN's
``executor: batch``) or rows (one row at a time where row order is
observable, ``executor: stream``) — and owns the caches both read: the
compiled closures (:mod:`repro.core.compile_expr`) and kernels, and the
physical plans.  The eager, tree-walking form of the same semantics is
the oracle in :mod:`repro.core.reference` (``optimize=False``), which
this module never calls; the clause semantics both need live in
:mod:`repro.core.clauses`.

Unordered queries produce bags; ``ORDER BY`` produces arrays; ``PIVOT``
queries produce a single tuple (Section VI-B).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import EvalConfig
from repro.core import clauses, compile_expr, planner, vectorized
from repro.core.environment import Environment
from repro.core.plan_ops import CHUNK_ROWS
from repro.core.vectorized import consumer_kind
from repro.errors import EvaluationError, TypeCheckError
from repro.syntax import ast


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
    "batched bag": "bag built a chunk (~1024 rows) at a time; in rows "
    "mode a streamed bag (operators pulled the same way, one row at a "
    "time where row order is observable)",
}


def describe_consumer(query: ast.Query, batched: bool) -> str:
    kind = consumer_kind(query)
    if kind == "bag" and batched:
        kind = "batched bag"
    return _CONSUMERS[kind].format(how="batched" if batched else "streamed")


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
        #: (id(query), rows mode) → ``vectorized.BlockKernels``.
        self.block_kernels: Dict[Tuple[int, bool], Any] = {}
        self.reorder_flags: Dict[int, Tuple[Any, bool]] = {}
        #: id(block) → ``vectorized.HeldFold``: a top-level GROUP BY
        #: block's fold or top-K block's kept rows, held between
        #: executions.
        self.folds: Dict[int, Any] = {}


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
        #: Whether any query block ran on the block executor (either
        #: mode) during this execution; surfaced as
        #: ``QueryMetrics.streamed``.
        self.streamed = False
        #: Whether the top-level block ran in the executor's columns
        #: mode; surfaced as ``QueryMetrics.batched``.
        self.batched = False
        #: The counter to bump when the top-level block continued a held
        #: state (``vectorized.HeldFold``): ``groups_advanced`` for a
        #: GROUP BY fold, ``topk_advanced`` for a top-K; None otherwise.
        self.advanced: Optional[str] = None
        #: Wall time spent in the physical planner, or None when the
        #: planner never ran for this execution (no block has a FROM).
        #: Always measured — planning happens once per block per
        #: evaluator, never per binding — so `plan:` phase reporting
        #: does not depend on a tracer being attached.
        self.plan_time_s: Optional[float] = None
        #: The query object and environment ``execute`` was entered
        #: with.  Columns mode engages for that query and for blocks
        #: evaluated in that very environment (no row bindings in scope,
        #: so uncorrelated and evaluated once: derived tables,
        #: set-operation operands); correlated subqueries keep the cheap
        #: rows mode.
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
        the one executor (:func:`vectorized.execute_block`), in the mode
        :meth:`_batch_decision` picks: columns, or rows for a refused
        block.

        Under strict typing the columns run is optimistic.  The chunk
        kernels evaluate column-major, fold aggregates row-major and
        test collection elements an early-terminating consumer would
        never pull, so *which* dynamic error a failing block raises —
        and, for the over-evaluating kernels, whether it raises at all —
        can differ from rows mode's.  When a ``TypeCheckError`` or
        ``EvaluationError`` escapes the attempt, the attempt is
        discarded and the block runs again in rows mode, whose answer —
        value or error — is final: columns mode ≡ rows mode by
        construction, for every kernel.  The replay is a recorded
        decision and nothing else: the governor's row tally returns to
        its value at block entry (its deadline keeps running), the
        tracer forgets the attempt (:meth:`ExecTracer.replay`), and a
        replayed top-level block reports ``batched`` False.
        """
        self._note_reorder(query, body)
        plan, refusal = self._batch_decision(query, body, env)
        # ``streamed``: the block ran on the engine's pipeline (either
        # mode); ``batched``: the top-level block ran in columns mode
        # (EXPLAIN reports nested ones).
        self.streamed = True
        if refusal is not None:
            return vectorized.execute_block(self, query, plan, env, rows=True)
        top = query is self._top_query
        if top:
            self.batched = True
        governor, tracer = self.governor, self.tracer
        strict = not self.config.is_permissive
        rows_at_entry = governor.rows if governor is not None else 0
        mark = tracer.mark() if tracer is not None and strict else None
        try:
            return vectorized.execute_block(self, query, plan, env)
        except (TypeCheckError, EvaluationError) as error:
            if not strict:
                raise
            if governor is not None:
                governor.rows = rows_at_entry
            if tracer is not None:
                tracer.replay(mark, body, type(error).__name__)
            if top:
                self.batched = False
        return vectorized.execute_block(self, query, plan, env, rows=True)

    # ------------------------------------------------------------------
    # The executor's mode
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
        """The clause that keeps a block out of the executor's columns
        mode (it runs in rows mode instead), or None.

        Columns mode requires: the block is
        the query ``execute`` was entered with *or* is being evaluated
        in the top-level environment — no row bindings in scope, so it
        is uncorrelated and evaluated once (derived tables, notably the
        ones rules SQLPPR01/SQLPPR02 synthesise over whole collections,
        and set-operation operands); correlated subqueries run once per
        outer row over usually small inputs, where chunking costs more
        than it saves.  An unordered LIMIT / OFFSET streams because
        stopping the producers early is that consumer's whole point.
        Neither a blocking tail nor the typing mode is on the list: a
        strict block runs the same kernels and is replayed in rows mode
        if an error escapes them (:meth:`_eval_block_query`).
        """
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
        """The block's plan (None: no FROM) and the clause that keeps it
        out of columns mode (None: it runs there) — the one decision both
        execution and EXPLAIN (:func:`vectorized.explain_executors`)
        consult."""
        reason = self._batch_refusal(query, body, env)
        return self._block_plan(body), reason

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

    def _pull_size(self, block: ast.QueryBlock, early: bool) -> int:
        """Rows per operator pull in rows mode: one where row order is
        observable — a consumer that can stop ``early`` (unless GROUP BY
        drains the FROM anyway), or strict typing, where rows mode is
        the replay target and column-major kernels would change which
        error surfaces — else ``CHUNK_ROWS``."""
        if self.config.is_permissive and not (early and block.group_by is None):
            return CHUNK_ROWS
        return 1

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
        return self._subquery_value_stream(query, env)

    def _subquery_value_stream(
        self, query: ast.Query, env: Environment
    ) -> Iterator[Any]:
        governor = self.governor
        if governor is not None:
            governor.enter_query()
        try:
            plan = self._block_plan(query.body)
            yield from vectorized.execute_block(
                self, query, plan, env, rows=True, stream=True
            )
        finally:
            if governor is not None:
                governor.exit_query()
