"""The SQL++ Core evaluator.

Evaluates *rewritten* (Core) queries: a query block is a pipeline of
clause functions over binding streams (paper, Section V-B — "it is best
to think of a SQL++ query as being a pipeline of clauses, starting with
the FROM, continuing with the optional WHERE, proceeding to the optional
GROUP BY, and then the optional HAVING, and finishing with the SELECT
clause.  Each clause is a function that inputs data and outputs data.").

The pipeline:

``FROM`` → bindings (left-correlated nested loops; variables bind to any
value, Section III-A) → ``LET`` → ``WHERE`` (keep on TRUE only) →
``GROUP BY ... GROUP AS`` (groups become data, Section V-B) → ``HAVING``
→ windows → ``SELECT VALUE`` / ``SELECT *`` / ``PIVOT`` → ``ORDER BY`` /
``LIMIT`` / ``OFFSET``.

Unordered queries produce bags; ``ORDER BY`` produces arrays; ``PIVOT``
queries produce a single tuple (Section VI-B).
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.config import EvalConfig
from repro.core import coercion, planner
from repro.core.environment import Environment, Unbound
from repro.core.grouping_sets import expand_grouping_sets
from repro.core.windows import compute_window_values, find_window_calls
from repro.datamodel.equality import group_key
from repro.datamodel.ordering import sort_key
from repro.datamodel.values import MISSING, Bag, Struct, is_collection, type_name
from repro.errors import BindingError, EvaluationError, TypeCheckError
from repro.functions import operators as ops
from repro.functions.registry import REGISTRY
from repro.functions.scalar import cast_value
from repro.syntax import ast


class _BlockResult:
    """Output of one query block: values plus (optionally) the binding
    environments they came from, used for ORDER BY key evaluation."""

    __slots__ = ("values", "envs", "is_pivot")

    def __init__(
        self,
        values: List[Any],
        envs: Optional[List[Environment]],
        is_pivot: bool = False,
    ):
        self.values = values
        self.envs = envs
        self.is_pivot = is_pivot


class _OrderKey:
    """A composite ORDER BY key with per-component direction.

    ``parts`` holds one ``(absence_rank, sort_key)`` component per ORDER
    BY item; comparison walks the components, flipping any marked
    descending, and resolves full ties by input sequence number — which
    makes the order total and reproduces exactly what the stable
    multi-pass sort (sort once per key, last key first) used to produce.
    """

    __slots__ = ("parts", "descs", "seq")

    def __init__(self, parts: Tuple, descs: Tuple[bool, ...], seq: int):
        self.parts = parts
        self.descs = descs
        self.seq = seq

    def __lt__(self, other: "_OrderKey") -> bool:
        for mine, theirs, desc in zip(self.parts, other.parts, self.descs):
            if mine == theirs:
                continue
            return theirs < mine if desc else mine < theirs
        return self.seq < other.seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _OrderKey):
            return NotImplemented
        return self.parts == other.parts and self.seq == other.seq


class _ReverseKey:
    """Inverts an :class:`_OrderKey` so ``heapq``'s min-heap behaves as
    a max-heap (the top-K consumer evicts the *largest* kept key)."""

    __slots__ = ("key",)

    def __init__(self, key: _OrderKey):
        self.key = key

    def __lt__(self, other: "_ReverseKey") -> bool:
        return other.key < self.key


def _parts_less(mine: Tuple, theirs: Tuple, descs: Tuple[bool, ...]) -> bool:
    """Whether composite key ``mine`` sorts strictly before ``theirs``.

    The allocation-free pre-check of the top-K hot loop: equal
    composites return False because the candidate always carries the
    larger sequence number, so arrival order breaks the tie against it
    — the same verdict :class:`_OrderKey` would reach, without
    building one for the (overwhelmingly common) rejected rows.
    """
    for mine_part, theirs_part, desc in zip(mine, theirs, descs):
        if mine_part == theirs_part:
            continue
        return theirs_part < mine_part if desc else mine_part < theirs_part
    return False


class _StageTally:
    """Per-stage row/time counters for the streaming clause pipeline."""

    __slots__ = ("name", "rows", "elapsed")

    def __init__(self, name: str):
        self.name = name
        self.rows = 0
        self.elapsed = 0.0


def _close_iter(it) -> None:
    """Close a generator-backed iterator promptly (no-op for plain
    iterators); used so early-terminating consumers release upstream
    producers deterministically instead of waiting for garbage
    collection."""
    close = getattr(it, "close", None)
    if close is not None:
        close()


def _tallied(source: Iterable, tally: _StageTally) -> Iterator:
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
        _close_iter(it)


def consumer_kind(query: ast.Query) -> str:
    """How a streamed block's output is consumed — ``top-k`` (ORDER BY
    with LIMIT), ``sort`` (ORDER BY alone), ``limit`` or ``bag``: what
    :meth:`Evaluator._eval_query_streaming` branches on and what EXPLAIN
    prints as ``consumer:`` (:func:`describe_consumer`)."""
    if query.order_by:
        return "top-k" if query.limit is not None else "sort"
    return "limit" if query.limit is not None else "bag"


def describe_consumer(query: ast.Query, batched: bool) -> str:
    """EXPLAIN's ``consumer:`` text for :func:`consumer_kind`.  The
    batch executor refuses LIMIT, so the two bounded consumers only ever
    stream; it builds its bag chunk by chunk."""
    kind = consumer_kind(query)
    if kind == "top-k":
        return (
            "top-K heap (ORDER BY with LIMIT): keeps limit+offset rows, "
            "one sort-key evaluation per row"
        )
    if kind == "sort":
        how = "batched" if batched else "streamed"
        return f"full sort over the {how} input (ORDER BY without LIMIT)"
    if kind == "limit":
        return "streamed with early termination after OFFSET+LIMIT rows"
    if batched:
        return (
            "bag built a chunk (~1024 rows) at a time; under batch=False "
            "a streamed bag (rows pulled one at a time)"
        )
    return "streamed bag (rows pulled one at a time)"


def _let_rows(let_fns, source: Iterable[Environment]) -> Iterator[Environment]:
    for current in source:
        for name, let_fn in let_fns:
            current = current.bind(name, let_fn(current))
        yield current


def _filter_rows(predicate_fn, source: Iterable[Environment]) -> Iterator[Environment]:
    for current in source:
        if predicate_fn(current) is True:
            yield current


class Evaluator:
    """Evaluates Core queries against a catalog of named values.

    ``catalog`` is any mapping-like object supporting ``__contains__``
    and ``__getitem__`` over dotted names (see
    :class:`repro.catalog.Catalog`).  ``parameters`` supplies values for
    positional ``?`` parameters.
    """

    #: Bound on the per-evaluator compiled-closure cache; crossed only
    #: by long-lived memoized evaluators, which clear and re-warm.
    COMPILED_CACHE_SIZE = 8192

    def __init__(
        self,
        catalog,
        config: Optional[EvalConfig] = None,
        parameters: Optional[Sequence[Any]] = None,
        tracer=None,
        stats=None,
    ):
        from repro.datamodel.convert import from_python
        from repro.observability.limits import ResourceGovernor

        self._catalog = catalog if catalog is not None else {}
        self.config = config or EvalConfig()
        self._parameters = [from_python(value) for value in parameters or []]
        self._compiled: Dict[int, Any] = {}
        self._batch_compiled: Dict[Tuple[int, frozenset], Any] = {}
        #: The one physical-plan cache: id(block) → (block, plan or None,
        #: data/feedback version).  See :meth:`_block_plan`.
        self._plans: Dict[int, Any] = {}
        self._decompositions: Dict[int, Any] = {}
        self._streamable: Dict[int, Tuple[Any, bool]] = {}
        self._reorder_flags: Dict[int, Tuple[Any, bool]] = {}
        #: Whether any query block ran on the streaming (pipelined)
        #: clause pipeline during this evaluator's lifetime; surfaced
        #: as ``QueryMetrics.streamed``.
        self.streamed = False
        #: Whether the top-level block ran on the batch (vectorized)
        #: pipeline; surfaced as ``QueryMetrics.batched``.
        self.batched = False
        #: How many morsel workers the parallel driver actually used
        #: (0 = serial); surfaced as ``QueryMetrics.parallel_workers``.
        self.parallel_workers = 0
        #: Optional ExecTracer collecting EXPLAIN ANALYZE statistics.
        self.tracer = tracer
        #: Optional :class:`repro.catalog.statistics.StatsProvider`
        #: feeding the planner's cost-based join ordering.
        self._stats = stats
        #: The query object and environment ``execute`` was entered
        #: with.  The batch pipeline engages for that query and for
        #: blocks evaluated in that very environment (no row bindings in
        #: scope, so uncorrelated and evaluated once: derived tables);
        #: correlated subqueries keep the cheap streaming path.
        self._top_query: Optional[ast.Query] = None
        self._top_env: Optional[Environment] = None
        #: Set by ``Database`` around ``execute``: a memoized evaluator
        #: that is mid-execution must not be rebound by a reentrant
        #: query (a lazy-bag factory issuing one while its consumer runs).
        self._in_use = False
        #: Wall time spent in the physical planner, or None when the
        #: planner never ran for this execution (reference pipeline,
        #: strict mode).  Always measured — planning happens once per
        #: block per evaluator, never per binding — so `plan:` phase
        #: reporting does not depend on a tracer being attached.
        self.plan_time_s: Optional[float] = None
        #: Cooperative limit enforcement; None when the config sets no
        #: limits, so the hot paths pay a single identity check.
        self.governor = ResourceGovernor.for_config(self.config)

    def rebind(self, parameters=None, tracer=None) -> "Evaluator":
        """Reset per-execution state so a memoized evaluator can serve
        a new query with warm compile/plan caches.

        Everything keyed to the *query text or config* survives
        (compiled closures, physical plans, streamability verdicts —
        staleness against catalog data is handled per lookup); anything
        keyed to the *execution* is rebuilt: parameters, tracer, the
        streamed/batched flags, planner timing, and a fresh governor so
        limits measure this query's own clock and rows.
        """
        from repro.datamodel.convert import from_python
        from repro.observability.limits import ResourceGovernor

        self._parameters = [from_python(value) for value in parameters or []]
        self.tracer = tracer
        self.streamed = False
        self.batched = False
        self.parallel_workers = 0
        self.plan_time_s = None
        self._top_query = None
        self._top_env = None
        self.governor = ResourceGovernor.for_config(self.config)
        if len(self._compiled) > self.COMPILED_CACHE_SIZE:
            self._compiled.clear()
        if len(self._batch_compiled) > self.COMPILED_CACHE_SIZE:
            self._batch_compiled.clear()
        return self

    def compiled(self, expr: ast.Expr):
        """The closure-compiled form of an expression (cached per node).

        Semantically identical to ``eval_expr`` (see
        :mod:`repro.core.compile_expr`); used on the per-binding hot
        paths of the clause pipeline.
        """
        entry = self._compiled.get(id(expr))
        if entry is None:
            from repro.core.compile_expr import compile_expr

            # The cache keeps a reference to the node alongside the
            # closure: a key of bare id() could be reused by a new node
            # after the old one is garbage-collected.
            entry = (expr, compile_expr(expr, self))
            self._compiled[id(expr)] = entry
        return entry[1]

    def compiled_batch(self, expr: ast.Expr, row_vars: frozenset):
        """The chunk kernel of an expression over bindings of
        ``row_vars`` (:func:`repro.core.compile_expr.compile_batch`),
        compiled once per evaluator like :meth:`compiled`, not once per
        execution."""
        key = (id(expr), row_vars)
        entry = self._batch_compiled.get(key)
        if entry is None:
            from repro.core import compile_expr

            # The node is kept alive in the entry (same id-reuse guard).
            entry = (expr, compile_expr.compile_batch(expr, self, row_vars))
            self._batch_compiled[key] = entry
        return entry[1]

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, query: ast.Query, env: Optional[Environment] = None) -> Any:
        """Evaluate a query, translating internal signals to public errors."""
        if env is None:
            env = Environment()
        self._top_query = query
        self._top_env = env
        try:
            return self.eval_query(query, env)
        except Unbound as unbound:
            raise BindingError(
                f"unresolved name {unbound.name!r}: not a variable in scope "
                "and not a named value in the database"
            ) from None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def eval_query(self, query: ast.Query, env: Environment) -> Any:
        governor = self.governor
        if governor is None:
            return self._eval_query_impl(query, env)
        # Every (sub)query entry counts toward ``max_recursion`` and is a
        # natural point to check the wall-clock deadline.
        governor.enter_query()
        try:
            return self._eval_query_impl(query, env)
        finally:
            governor.exit_query()

    def _eval_query_impl(self, query: ast.Query, env: Environment) -> Any:
        body = query.body
        if isinstance(body, ast.QueryBlock):
            self._note_reorder(query, body)
            plan, __ = self._batch_decision(query, body, env)
            if plan is not None:
                from repro.core.vectorized import execute_batch_query

                # The batch pipeline is the chunked form of the
                # streaming pipeline; both flags are observable so
                # existing streaming assertions stay true and the batch
                # path is distinguishable.  ``batched`` describes the
                # top-level block only (EXPLAIN reports nested ones).
                self.streamed = True
                if query is self._top_query:
                    self.batched = True
                if self.tracer is not None:
                    self.tracer.register_plan(body, plan)
                return execute_batch_query(self, query, body, plan, env)
            if self._can_stream(body):
                return self._eval_query_streaming(query, body, env)
            result = self.eval_block(body, env)
            if result.is_pivot:
                return result.values[0]
            values, envs = result.values, result.envs
        elif isinstance(body, ast.SetOp):
            values, envs = self._eval_setop(body, env), None
        else:
            value = self.eval_expr(body, env)
            if not query.order_by and query.limit is None and query.offset is None:
                return value
            values = list(self._require_collection(value, "query body"))
            envs = None

        ordered = bool(query.order_by)
        if ordered:
            values = self._apply_order_by(values, envs, query.order_by, env)
        values = self._apply_limit_offset(values, query, env)
        if ordered:
            return values
        return Bag(values)

    # ------------------------------------------------------------------
    # Streaming (pipelined) execution
    # ------------------------------------------------------------------

    def _can_stream(self, block: ast.QueryBlock) -> bool:
        """Whether a block runs on the pipelined clause pipeline.

        Streaming requires ``optimize=True`` (``optimize=False`` is the
        eager executable reference semantics) and a block shape without
        pipeline-incompatible features: PIVOT produces one tuple from
        the whole stream and window functions need the full partition,
        so both stay on the eager path; a block without FROM is a single
        binding and gains nothing from laziness.
        """
        if not self.config.optimize:
            return False
        entry = self._streamable.get(id(block))
        if entry is None:
            streamable = (
                block.from_ is not None
                and not isinstance(block.select, ast.PivotClause)
                and not find_window_calls(block.select)
            )
            entry = (block, streamable)
            self._streamable[id(block)] = entry
        return entry[1]

    # ------------------------------------------------------------------
    # Batch (vectorized) execution
    # ------------------------------------------------------------------

    def _note_reorder(self, query: ast.Query, body: ast.QueryBlock) -> None:
        """Record whether cost-based join reordering may change this
        block's plan.  Reordering permutes the output *bag* order —
        semantically free, but ORDER BY tie-breaking, DISTINCT
        first-seen order and GROUP BY first-group order are all defined
        by input sequence, so those shapes keep the syntactic order."""
        if id(body) not in self._reorder_flags:
            allowed = (
                not query.order_by
                and body.group_by is None
                and not getattr(body.select, "distinct", False)
            )
            self._reorder_flags[id(body)] = (body, allowed)

    def _batch_refusal(
        self, query: ast.Query, body: ast.QueryBlock, env: Environment
    ) -> Optional[str]:
        """The clause that keeps a block off the batch pipeline, or None.

        Batch requires everything streaming requires, plus: the block is
        the query ``execute`` was entered with *or* is being evaluated
        in the top-level environment — no row bindings in scope, so it
        is uncorrelated and evaluated once (derived tables, notably the
        ones rules SQLPPR01/SQLPPR02 synthesise over whole collections);
        correlated subqueries run once per outer row over usually small
        inputs, where chunking costs more than it saves.  No
        LIMIT/OFFSET (bounded consumers are the streaming pipeline's
        home turf).  GROUP BY with ORDER BY stays streaming because the
        sort keys may contain lowered aggregate sites that must see the
        group environments.
        """
        config = self.config
        if not config.batch:
            return "batch=False"
        if not config.optimize:
            return "optimize=False"
        if not config.is_permissive:
            return "strict typing mode"
        if query is not self._top_query and env is not self._top_env:
            return "correlated subquery (row bindings in scope)"
        if query.limit is not None or query.offset is not None:
            return "LIMIT/OFFSET bounds the consumer"
        if body.from_ is None:
            return "no FROM clause"
        if not self._can_stream(body):
            return "PIVOT or window functions need the whole input"
        if body.group_by is not None and query.order_by:
            return "GROUP BY with ORDER BY sorts over the group environments"
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

    def _catalog_data_version(self):
        """The catalog's data + feedback version, for plan staleness —
        0 for plain mapping catalogs (tests), which never invalidate.
        The feedback component makes a new cardinality observation
        (query store, docs/OBSERVABILITY.md) invalidate cached plans
        exactly once, so the corrected join order takes effect on the
        next execution."""
        if self._stats is None:
            return 0
        data_version = getattr(self._catalog, "data_version", 0)
        feedback_version = getattr(self._stats, "feedback_version", None)
        if feedback_version is None:
            return data_version
        return (data_version, feedback_version)

    def _eval_query_streaming(
        self, query: ast.Query, body: ast.QueryBlock, env: Environment
    ) -> Any:
        """Pipelined evaluation of a query whose body is a streamable
        block (docs/PLANNER.md).

        LIMIT/OFFSET cardinals are evaluated *before* the stream starts
        (decision log, docs/LANGUAGE.md §8) so the consumers can bound
        the work: ``ORDER BY ... LIMIT k`` runs a top-K heap in O(k)
        memory, an unordered LIMIT stops the producers as soon as
        enough rows arrived, and a full ORDER BY still materializes but
        over a streamed input.
        """
        self.streamed = True
        limit = (
            self._cardinal(query.limit, env, "LIMIT")
            if query.limit is not None
            else None
        )
        offset = (
            self._cardinal(query.offset, env, "OFFSET")
            if query.offset is not None
            else None
        )
        kind = consumer_kind(query)
        if kind == "top-k":
            bound = limit + (offset or 0)
            select_fn = self._deferred_select_fn(body, query.order_by)
            if select_fn is not None:
                values = self._top_k_deferred(
                    body, query.order_by, bound, env, select_fn
                )
            else:
                stream = self._stream_block(body, env)
                values = self._top_k(stream, query.order_by, bound, env)
            return values[offset:] if offset else values
        if kind == "sort":
            stream = self._stream_block(body, env)
            pairs: List[Tuple[Any, Optional[Environment]]] = []
            source = iter(stream)
            try:
                for pair in source:
                    pairs.append(pair)
            finally:
                _close_iter(source)
            values = [value for value, __ in pairs]
            envs: Optional[List[Environment]] = None
            if pairs and pairs[0][1] is not None:
                envs = [pair_env for __, pair_env in pairs]
            values = self._apply_order_by(values, envs, query.order_by, env)
            if offset:
                values = values[offset:]
            return values
        stream = self._stream_block(body, env)
        values = []
        source = iter(stream)
        try:
            if limit != 0:
                skipped = 0
                for value, __ in source:
                    if offset is not None and skipped < offset:
                        skipped += 1
                        continue
                    values.append(value)
                    if limit is not None and len(values) >= limit:
                        break
        finally:
            _close_iter(source)
        return Bag(values)

    def _top_k(
        self,
        stream: Iterable[Tuple[Any, Optional[Environment]]],
        order_by: Sequence[ast.OrderItem],
        bound: int,
        outer_env: Environment,
    ) -> List[Any]:
        """``ORDER BY ... LIMIT k`` via a bounded heap.

        Keeps the ``bound`` smallest composite keys seen so far (a
        min-heap of inverted keys, so the root is the largest kept key
        and is evicted when a smaller one arrives) — O(k) memory and
        exactly one evaluation of each ORDER BY key per row.  Ties
        resolve by arrival sequence, reproducing the stable full sort
        bit-for-bit.
        """
        source = iter(stream)
        if bound <= 0:
            _close_iter(source)
            return []
        spec = self._order_spec(order_by)
        descs = tuple(item.desc for item in order_by)
        heap: List[Tuple[_ReverseKey, Any]] = []
        root_parts: Optional[Tuple] = None
        seq = 0
        try:
            for value, pair_env in source:
                sort_env = self._sort_env(value, pair_env, outer_env)
                parts = self._composite_parts(spec, sort_env)
                if root_parts is None:
                    key = _OrderKey(parts, descs, seq)
                    heapq.heappush(heap, (_ReverseKey(key), value))
                    if len(heap) == bound:
                        root_parts = heap[0][0].key.parts
                elif _parts_less(parts, root_parts, descs):
                    key = _OrderKey(parts, descs, seq)
                    heapq.heapreplace(heap, (_ReverseKey(key), value))
                    root_parts = heap[0][0].key.parts
                seq += 1
        finally:
            _close_iter(source)
        entries = sorted(heap, key=lambda entry: entry[0].key)
        return [value for __, value in entries]

    def _deferred_select_fn(
        self, block: ast.QueryBlock, order_by: Sequence[ast.OrderItem]
    ) -> Optional[Any]:
        """The compiled SELECT expression when projection can be
        deferred past the top-K heap (late materialization), else None.

        Deferring evaluates the SELECT only for the k rows the heap
        keeps — the big win when the projection is expensive (computed
        attributes, nested subqueries).  It is sound only when the
        ORDER BY keys provably cannot observe the projected value: the
        select must be a non-DISTINCT ``SELECT VALUE`` of a tuple
        literal with literal attribute names, none of which occur as a
        variable name in any ORDER BY key (the keys' sort environment
        overlays the output tuple's attributes, so a shared name could
        shadow a binding variable).
        """
        select = block.select
        if not isinstance(select, ast.SelectValue) or select.distinct:
            return None
        expr = select.expr
        if not isinstance(expr, ast.StructLit):
            return None
        field_names = set()
        for field in expr.fields:
            if not isinstance(field.key, ast.Literal) or not isinstance(
                field.key.value, str
            ):
                return None
            field_names.add(field.key.value)
        from repro.core.planner import free_names

        for item in order_by:
            if free_names(item.expr) & field_names:
                return None
        return self.compiled(expr)

    def _top_k_deferred(
        self,
        block: ast.QueryBlock,
        order_by: Sequence[ast.OrderItem],
        bound: int,
        outer_env: Environment,
        select_fn,
    ) -> List[Any]:
        """Top-K with late materialization: the heap keeps binding
        environments, and the SELECT expression runs only for the
        ``bound`` survivors after the stream is exhausted.  Rows the
        heap evicts never evaluate their projection — including any
        error it would have raised, the same visibility rule as every
        other early-terminating consumer (docs/LANGUAGE.md §8)."""
        stream = self._stream_block(block, outer_env, project=False)
        source = iter(stream)
        if bound <= 0:
            _close_iter(source)
            return []
        spec = self._order_spec(order_by)
        descs = tuple(item.desc for item in order_by)
        heap: List[Tuple[_ReverseKey, Environment]] = []
        root_parts: Optional[Tuple] = None
        seq = 0
        composite_parts = self._composite_parts
        try:
            for current in source:
                parts = composite_parts(spec, current)
                if root_parts is None:
                    key = _OrderKey(parts, descs, seq)
                    heapq.heappush(heap, (_ReverseKey(key), current))
                    if len(heap) == bound:
                        root_parts = heap[0][0].key.parts
                elif _parts_less(parts, root_parts, descs):
                    key = _OrderKey(parts, descs, seq)
                    heapq.heapreplace(heap, (_ReverseKey(key), current))
                    root_parts = heap[0][0].key.parts
                seq += 1
        finally:
            _close_iter(source)
        entries = sorted(heap, key=lambda entry: entry[0].key)
        tracer = self.tracer
        if tracer is not None and not tracer.timing:
            tracer = None
        started = perf_counter() if tracer is not None else 0.0
        values = [select_fn(current) for __, current in entries]
        if tracer is not None:
            elapsed = perf_counter() - started
            tracer.record_stage(block, "SELECT", seq, len(values), elapsed)
            if tracer.trace is not None:
                tracer.trace.event(
                    "SELECT",
                    "stage",
                    started,
                    elapsed,
                    {"rows_in": seq, "rows_out": len(values)},
                )
        return values

    def _order_spec(self, order_by: Sequence[ast.OrderItem]) -> List[Tuple]:
        """``(key_fn, desc, nulls_first)`` per ORDER BY item — the key
        builder shared by the full sort and the top-K heap."""
        return [
            (self.compiled(item.expr), item.desc, item.nulls_first)
            for item in order_by
        ]

    def _composite_parts(self, spec: List[Tuple], sort_env: Environment) -> Tuple:
        """One row's composite sort key: an ``(absence_rank, sort_key)``
        component per ORDER BY item, each key expression evaluated
        exactly once.  The absence rank implements NULLS FIRST/LAST
        (SQL++ default: absent first ascending, last descending)."""
        parts = []
        for key_fn, desc, nulls_first in spec:
            key_value = key_fn(sort_env)
            absent = key_value is None or key_value is MISSING
            if nulls_first is None:
                primary = 0 if absent else 1
            else:
                primary = 0 if (absent == nulls_first) else 1
                if desc:
                    primary = 1 - primary
            parts.append((primary, sort_key(key_value)))
        return tuple(parts)

    def _sort_env(
        self,
        value: Any,
        env: Optional[Environment],
        outer_env: Environment,
    ) -> Environment:
        """The environment ORDER BY keys evaluate in: the row's binding
        environment when available, overlaid with the output element's
        attributes (so both underlying variables and select aliases are
        usable, as in SQL)."""
        base = env if env is not None else outer_env
        if isinstance(value, Struct):
            base = base.extend(dict(value.items()))
        return base

    def _apply_order_by(
        self,
        values: List[Any],
        envs: Optional[List[Environment]],
        order_by: Sequence[ast.OrderItem],
        outer_env: Environment,
    ) -> List[Any]:
        """Stable single-pass sort on one composite key per row.

        Each ORDER BY key expression is evaluated exactly once per row
        and the rows are sorted once, on the composite of all keys —
        direction and absence handled per component — replacing the
        previous evaluate-and-stable-sort-per-key passes (identical
        ordering by lexicographic composition).  Uniform-direction keys
        sort as native tuples; mixed ASC/DESC uses the
        :class:`_OrderKey` comparator that flips components
        individually.
        """
        spec = self._order_spec(order_by)
        all_parts: List[Tuple] = []
        for position, value in enumerate(values):
            sort_env = self._sort_env(
                value, envs[position] if envs is not None else None, outer_env
            )
            all_parts.append(self._composite_parts(spec, sort_env))
        indexed = list(range(len(values)))
        descs = tuple(item.desc for item in order_by)
        if len(set(descs)) <= 1:
            indexed.sort(key=all_parts.__getitem__, reverse=descs[0])
        else:
            indexed.sort(
                key=lambda position: _OrderKey(all_parts[position], descs, position)
            )
        return [values[position] for position in indexed]

    def _apply_limit_offset(
        self, values: List[Any], query: ast.Query, env: Environment
    ) -> List[Any]:
        if query.offset is not None:
            offset = self._cardinal(query.offset, env, "OFFSET")
            values = values[offset:]
        if query.limit is not None:
            limit = self._cardinal(query.limit, env, "LIMIT")
            values = values[:limit]
        return values

    def _cardinal(self, expr: ast.Expr, env: Environment, what: str) -> int:
        value = self.eval_expr(expr, env)
        if isinstance(value, bool) or not isinstance(value, int):
            raise EvaluationError(f"{what} expects an integer, got {type_name(value)}")
        if value < 0:
            raise EvaluationError(f"{what} must be non-negative")
        return value

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------

    def _eval_setop(self, setop: ast.SetOp, env: Environment) -> List[Any]:
        left = self._setop_elements(setop.left, env)
        right = self._setop_elements(setop.right, env)
        if setop.op == "UNION":
            combined = left + right
            return combined if setop.all else ops.distinct_elements(combined)
        if setop.op == "INTERSECT":
            counts = _multiset_counts(right)
            result = []
            for item in left:
                key = group_key(item)
                if counts.get(key, 0) > 0:
                    counts[key] -= 1
                    result.append(item)
            return result if setop.all else ops.distinct_elements(result)
        if setop.op == "EXCEPT":
            counts = _multiset_counts(right)
            result = []
            for item in left:
                key = group_key(item)
                if counts.get(key, 0) > 0:
                    counts[key] -= 1
                else:
                    result.append(item)
            return result if setop.all else ops.distinct_elements(result)
        raise EvaluationError(f"unknown set operation {setop.op}")

    def _setop_elements(self, term: ast.Node, env: Environment) -> List[Any]:
        if isinstance(term, ast.QueryBlock):
            result = self.eval_block(term, env)
            if result.is_pivot:
                raise EvaluationError("PIVOT query cannot be a set-operation input")
            return list(result.values)
        if isinstance(term, ast.SetOp):
            return self._eval_setop(term, env)
        if isinstance(term, ast.Query):
            return list(
                self._require_collection(
                    self.eval_query(term, env), "set-operation input"
                )
            )
        value = self.eval_expr(term, env)
        return list(self._require_collection(value, "set-operation input"))

    def _require_collection(self, value: Any, what: str):
        if is_collection(value):
            return value
        raise EvaluationError(f"{what} must be a collection, got {type_name(value)}")

    # ------------------------------------------------------------------
    # Query blocks
    # ------------------------------------------------------------------

    def eval_block(self, block: ast.QueryBlock, env: Environment) -> _BlockResult:
        # FROM — binding streams; no FROM means a single empty binding.
        # With optimization on (permissive mode only), the planner may
        # replace the FROM loop and part of the WHERE with a physical
        # plan (hash joins, pushed-down predicates — docs/PLANNER.md);
        # ``optimize=False`` is the executable reference semantics.
        tracer = self.tracer
        trace = tracer.trace if tracer is not None else None
        mark = perf_counter() if tracer is not None else 0.0

        def record(stage: str, rows_in: int, rows_out: int) -> None:
            nonlocal mark
            now = perf_counter()
            tracer.record_stage(block, stage, rows_in, rows_out, now - mark)
            if trace is not None:
                trace.event(
                    stage,
                    "stage",
                    mark,
                    now - mark,
                    {"rows_in": rows_in, "rows_out": rows_out},
                )
            mark = now

        var_order: List[str] = []
        plan = None
        if block.from_ is None:
            envs = [env]
        else:
            for item in block.from_:
                self._collect_item_vars(item, var_order)
            plan = self._stream_plan(block)
            if plan is not None:
                envs = plan.execute(self, env)
            else:
                envs = [env]
                for item in block.from_:
                    envs = self._apply_from_item(item, envs)
            if tracer is not None:
                record("FROM", 1, len(envs))

        # LET
        if block.lets:
            rows_in = len(envs)
            for let in block.lets:
                var_order.append(let.name)
                let_fn = self.compiled(let.expr)
                envs = [
                    current.bind(let.name, let_fn(current)) for current in envs
                ]
            if tracer is not None:
                record("LET", rows_in, len(envs))

        # WHERE (the planner may have pushed some conjuncts into FROM)
        where_expr = block.where if plan is None else plan.residual_where
        if where_expr is not None:
            rows_in = len(envs)
            where_fn = self.compiled(where_expr)
            envs = [current for current in envs if where_fn(current) is True]
            if tracer is not None:
                record("WHERE", rows_in, len(envs))

        # GROUP BY ... GROUP AS
        output_vars = var_order
        if block.group_by is not None:
            rows_in = len(envs)
            envs = self._apply_group_by(block.group_by, envs, env, var_order)
            output_vars = [key.alias for key in block.group_by.keys]
            if block.group_by.group_as:
                output_vars = output_vars + [block.group_by.group_as]
            if tracer is not None:
                record("GROUP BY", rows_in, len(envs))

        # HAVING
        if block.having is not None:
            rows_in = len(envs)
            having_fn = self.compiled(block.having)
            envs = [current for current in envs if having_fn(current) is True]
            if tracer is not None:
                record("HAVING", rows_in, len(envs))

        # Window functions (computed over the final binding stream).
        select = block.select
        window_calls = find_window_calls(select)
        if window_calls:
            select, envs = self._bind_windows(select, window_calls, envs)

        # SELECT / PIVOT
        if isinstance(select, ast.PivotClause):
            result = _BlockResult(
                [self._eval_pivot(select, envs)], None, is_pivot=True
            )
            if tracer is not None:
                record("PIVOT", len(envs), 1)
            return result
        if isinstance(select, ast.SelectValue):
            select_fn = self.compiled(select.expr)
            values = [select_fn(current) for current in envs]
            if select.distinct:
                values = ops.distinct_elements(values)
                if tracer is not None:
                    record("SELECT DISTINCT", len(envs), len(values))
                return _BlockResult(values, None)
            if tracer is not None:
                record("SELECT", len(envs), len(values))
            return _BlockResult(values, envs)
        if isinstance(select, ast.SelectStar):
            values = [self._eval_star(current, output_vars) for current in envs]
            if select.distinct:
                values = ops.distinct_elements(values)
                if tracer is not None:
                    record("SELECT DISTINCT", len(envs), len(values))
                return _BlockResult(values, None)
            if tracer is not None:
                record("SELECT", len(envs), len(values))
            return _BlockResult(values, envs)
        raise EvaluationError(
            f"unexpected SELECT clause after rewriting: {type(select).__name__}"
        )

    # -- streaming clause pipeline -------------------------------------------

    def _stream_block(
        self, block: ast.QueryBlock, env: Environment, project: bool = True
    ) -> Iterator[Any]:
        """The block's clause pipeline as a lazy generator chain.

        Yields ``(value, env)`` pairs — the output element plus the
        binding environment it came from (None after DISTINCT, which
        collapses environments), mirroring what :meth:`eval_block`
        returns eagerly.  Each clause wraps the previous clause's
        iterator, so a consumer that stops early (LIMIT, top-K, EXISTS)
        stops every upstream producer with it.  GROUP BY remains a
        pipeline breaker but folds rows into hash-group state as they
        arrive instead of buffering the binding stream.

        With ``project=False`` the SELECT clause is skipped and the
        stream yields bare binding environments — the late-
        materialization mode of :meth:`_top_k_deferred`, which records
        the SELECT stage itself after projecting the survivors.
        """
        tracer = self.tracer
        if tracer is not None and not tracer.timing:
            # Feedback-sampling mode: operators count their own rows
            # inside the plan; the stage tallies (and their closures)
            # are pure timing surface, so skip them entirely.
            tracer = None
        var_order: List[str] = []
        for item in block.from_:
            self._collect_item_vars(item, var_order)
        plan = self._stream_plan(block)
        stages: List[_StageTally] = []

        def tally(source: Iterable, name: str) -> Iterable:
            if tracer is None:
                return source
            stage = _StageTally(name)
            stages.append(stage)
            return _tallied(source, stage)

        rows: Iterable[Environment]
        if plan is not None:
            rows = plan.iter_envs(self, env)
        else:
            rows = iter((env,))
            for item in block.from_:
                rows = self._iter_from_item(item, rows)
        rows = tally(rows, "FROM")

        if block.lets:
            let_fns = []
            for let in block.lets:
                var_order.append(let.name)
                let_fns.append((let.name, self.compiled(let.expr)))
            rows = tally(_let_rows(let_fns, rows), "LET")

        where_expr = block.where if plan is None else plan.residual_where
        if where_expr is not None:
            rows = tally(_filter_rows(self.compiled(where_expr), rows), "WHERE")

        output_vars = var_order
        if block.group_by is not None:
            rows = tally(
                self._iter_group_by(block.group_by, rows, env, var_order),
                "GROUP BY",
            )
            output_vars = [key.alias for key in block.group_by.keys]
            if block.group_by.group_as:
                output_vars = output_vars + [block.group_by.group_as]

        if block.having is not None:
            rows = tally(_filter_rows(self.compiled(block.having), rows), "HAVING")

        if not project:
            if tracer is None:
                return rows
            return self._record_stream_stages(rows, block, stages)

        select = block.select
        if isinstance(select, ast.SelectValue):
            pairs = self._select_value_rows(self.compiled(select.expr), rows)
        elif isinstance(select, ast.SelectStar):
            pairs = self._select_star_rows(rows, output_vars)
        else:
            raise EvaluationError(
                f"unexpected SELECT clause after rewriting: {type(select).__name__}"
            )
        if select.distinct:
            pairs = tally(self._distinct_rows(pairs), "SELECT DISTINCT")
        else:
            pairs = tally(pairs, "SELECT")
        if tracer is None:
            return pairs
        return self._record_stream_stages(pairs, block, stages)

    def _record_stream_stages(
        self,
        source: Iterable[Tuple[Any, Optional[Environment]]],
        block: ast.QueryBlock,
        stages: List[_StageTally],
    ) -> Iterator[Tuple[Any, Optional[Environment]]]:
        """Flush per-stage tallies to the tracer when the stream ends.

        The tallies update incrementally as rows pass each boundary, so
        the counts are exact even when the consumer closes the stream
        early; ``rows_in`` chains from the previous stage's output, as
        in the eager recorder (FROM's input is the single seed binding).
        """
        tracer = self.tracer
        trace = tracer.trace
        started = perf_counter()
        try:
            for pair in source:
                yield pair
        finally:
            _close_iter(source)
            rows_in = 1
            for stage in stages:
                tracer.record_stage(
                    block, stage.name, rows_in, stage.rows, stage.elapsed
                )
                if trace is not None:
                    trace.event(
                        stage.name,
                        "stage",
                        started,
                        stage.elapsed,
                        {"rows_in": rows_in, "rows_out": stage.rows},
                    )
                rows_in = stage.rows

    def _select_value_rows(
        self, select_fn, source: Iterable[Environment]
    ) -> Iterator[Tuple[Any, Optional[Environment]]]:
        for current in source:
            yield select_fn(current), current

    def _select_star_rows(
        self, source: Iterable[Environment], output_vars: List[str]
    ) -> Iterator[Tuple[Any, Optional[Environment]]]:
        for current in source:
            yield self._eval_star(current, output_vars), current

    def _distinct_rows(
        self, pairs: Iterable[Tuple[Any, Optional[Environment]]]
    ) -> Iterator[Tuple[Any, Optional[Environment]]]:
        """First occurrence wins, by SQL++ grouping equality — the
        streaming form of :func:`ops.distinct_elements`."""
        seen = set()
        for value, __ in pairs:
            identity = group_key(value)
            if identity in seen:
                continue
            seen.add(identity)
            yield value, None

    # -- FROM ----------------------------------------------------------------

    def _block_plan(self, block: ast.QueryBlock):
        """The block's physical plan, or None when the planner refuses
        the block (:func:`planner.plan_refusal`: strict mode,
        ``optimize=False``, no FROM — the reference pipeline).  One
        plan per block per (data version, feedback version), built on
        first use and read by every executor and every EXPLAIN surface.
        Cached like ``compiled``: the block node is kept alive
        alongside the plan so id() keys stay unique."""
        if planner.plan_refusal(block, self.config) is not None:
            return None
        version = self._catalog_data_version()
        entry = self._plans.get(id(block))
        if entry is None or entry[2] != version:
            started = perf_counter()
            plan = planner.plan_block(
                block,
                self.config,
                stats=self._stats,
                reorder_ok=self._reorder_flags.get(id(block), (None, False))[1],
                catalog_names=self._catalog_names(),
            )
            elapsed = perf_counter() - started
            from repro.analysis.verify_plan import maybe_verify_block_plan

            maybe_verify_block_plan(plan)
            entry = (block, plan, version)
            self.plan_time_s = (self.plan_time_s or 0.0) + elapsed
            if self.tracer is not None and self.tracer.trace is not None:
                self.tracer.trace.event("plan", "phase", started, elapsed)
            self._plans[id(block)] = entry
        if self.plan_time_s is None:
            # Cache hit on a memoized evaluator: the planner "ran" for
            # this query (from cache), so the plan phase reports 0 time
            # rather than absent.
            self.plan_time_s = 0.0
        return entry[1]

    def _stream_plan(self, block: ast.QueryBlock):
        """The plan the row-at-a-time pipelines run a block on: its one
        plan exactly when a rewrite fired, else None (the direct FROM
        loop).  A rewrite-free tree is that same loop behind
        per-invocation operator overhead, which the per-group ``COLL_*``
        subqueries of every GROUP BY would pay once per group
        (docs/PLANNER.md, "One plan per block", has the measurement)."""
        plan = self._block_plan(block)
        if plan is None or not plan.rewrites:
            return None
        if self.tracer is not None:
            self.tracer.register_plan(block, plan)
        return plan

    def executed_plan(self, query: ast.Query):
        """The plan the last execution ran ``query``'s block on, or None
        when it ran the direct FROM loop — what the query store hashes
        and cardinality feedback reads."""
        entry = self._plans.get(id(query.body))
        plan = entry[1] if entry is not None else None
        if plan is not None and (self.batched or plan.rewrites):
            return plan
        return None

    def block_plans(self, query: ast.Query) -> List[Any]:
        """The plan of every block under ``query`` that has one, planned
        through the same cache (and reorder rule) execution uses — so
        blocks an execution already planned cost nothing, and the rest
        (per-row subqueries no binding reached) are planned once."""
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

    def _apply_from_item(
        self,
        item: ast.FromItem,
        envs: List[Environment],
    ) -> List[Environment]:
        result: List[Environment] = []
        for current in envs:
            for bindings in self._item_bindings(item, current):
                result.append(current.extend(bindings))
        return result

    def _collect_item_vars(self, item: ast.FromItem, var_order: List[str]) -> None:
        if isinstance(item, ast.FromCollection):
            var_order.append(item.alias)
            if item.at_alias:
                var_order.append(item.at_alias)
        elif isinstance(item, ast.FromUnpivot):
            var_order.append(item.value_alias)
            var_order.append(item.at_alias)
        elif isinstance(item, ast.FromJoin):
            self._collect_item_vars(item.left, var_order)
            self._collect_item_vars(item.right, var_order)

    def _item_bindings(
        self, item: ast.FromItem, env: Environment
    ) -> List[Dict[str, Any]]:
        """Bindings for one FROM item — the shared enumeration entry
        point for the reference pipeline and the physical plan's scans.

        All governor row accounting and EXPLAIN ANALYZE item statistics
        hang off this choke point; with neither active it forwards to
        the dispatch unchanged.
        """
        tracer = self.tracer
        governor = self.governor
        if tracer is None and governor is None:
            return self._item_bindings_impl(item, env)
        span = None
        if tracer is not None and tracer.trace is not None:
            from repro.observability.tracer import describe_from_item

            span = tracer.trace.begin(describe_from_item(item), "item")
        started = perf_counter() if tracer is not None else 0.0
        rows = self._item_bindings_impl(item, env)
        if governor is not None:
            governor.add(len(rows))
        if tracer is not None:
            tracer.record_item(item, len(rows), perf_counter() - started)
            if span is not None:
                tracer.trace.end(span, {"rows_out": len(rows)})
        return rows

    def _item_bindings_impl(
        self, item: ast.FromItem, env: Environment
    ) -> List[Dict[str, Any]]:
        if isinstance(item, ast.FromCollection):
            return self._range_bindings(item, env)
        if isinstance(item, ast.FromUnpivot):
            return self._unpivot_bindings(item, env)
        if isinstance(item, ast.FromJoin):
            return self._join_bindings(item, env)
        raise EvaluationError(f"unknown FROM item {type(item).__name__}")

    def _range_bindings(
        self, item: ast.FromCollection, env: Environment
    ) -> List[Dict[str, Any]]:
        """``expr AS v [AT p]``: variables bind to any value (Section
        III-A).

        * array → one binding per element, AT = 0-based position;
        * bag → one binding per element, AT = MISSING (bags are
          unordered, so there is no stable position to report);
        * NULL / MISSING → no bindings in permissive mode (the paper's
          "convenient signal, which most often leads to data exclusion");
        * any other value → a singleton binding in permissive mode;
        * strict mode raises for every non-collection source.
        """
        value = self.compiled(item.expr)(env)
        bindings: List[Dict[str, Any]] = []
        if isinstance(value, list):
            for position, element in enumerate(value):
                binding = {item.alias: element}
                if item.at_alias:
                    binding[item.at_alias] = position
                bindings.append(binding)
            return bindings
        if isinstance(value, Bag):
            for element in value:
                binding = {item.alias: element}
                if item.at_alias:
                    binding[item.at_alias] = MISSING
                bindings.append(binding)
            return bindings
        if not self.config.is_permissive:
            raise TypeCheckError(
                f"FROM expects a collection, got {type_name(value)}"
            )
        if value is None or value is MISSING:
            return []
        binding = {item.alias: value}
        if item.at_alias:
            binding[item.at_alias] = MISSING
        return [binding]

    def _unpivot_bindings(
        self, item: ast.FromUnpivot, env: Environment
    ) -> List[Dict[str, Any]]:
        """``UNPIVOT expr AS v AT a``: ranges over a tuple's attributes
        (Section VI-A), turning attribute names into data."""
        return self._unpivot_value(item, self.eval_expr(item.expr, env))

    def _unpivot_value(
        self, item: ast.FromUnpivot, value: Any
    ) -> List[Dict[str, Any]]:
        if isinstance(value, Struct):
            return [
                {item.value_alias: attr_value, item.at_alias: attr_name}
                for attr_name, attr_value in value.items()
            ]
        if not self.config.is_permissive:
            raise TypeCheckError(f"UNPIVOT expects a tuple, got {type_name(value)}")
        if value is None or value is MISSING:
            return []
        # Permissive mode treats a non-tuple as {'_1': value}.
        return [{item.value_alias: value, item.at_alias: "_1"}]

    def _join_bindings(
        self, item: ast.FromJoin, env: Environment
    ) -> List[Dict[str, Any]]:
        """Explicit JOIN with lateral right side; LEFT pads with NULLs.

        Padding covers every right-side variable — including variables
        bound by joins nested inside the right side and AT position
        variables — via the same helper the physical hash/materialized
        join operators use (:func:`repro.core.plan_ops.pad_right_vars`),
        so the nested-loop and hash paths cannot diverge.
        """
        from repro.core.plan_ops import pad_right_vars

        result: List[Dict[str, Any]] = []
        right_vars: List[str] = []
        self._collect_item_vars(item.right, right_vars)
        for left_binding in self._item_bindings(item.left, env):
            left_env = env.extend(left_binding)
            matched = False
            for right_binding in self._item_bindings(item.right, left_env):
                combined = {**left_binding, **right_binding}
                if item.on is not None:
                    verdict = self.eval_expr(item.on, env.extend(combined))
                    if not ops.is_true(verdict):
                        continue
                matched = True
                result.append(combined)
            if item.kind == "LEFT" and not matched:
                result.append(pad_right_vars(left_binding, right_vars))
        return result

    # -- FROM (streaming) ------------------------------------------------------

    def _iter_from_item(
        self, item: ast.FromItem, upstream: Iterable[Environment]
    ) -> Iterator[Environment]:
        """Lazily extend each upstream binding environment with one FROM
        item's bindings (the left-correlated nested loop, streamed)."""
        upstream = iter(upstream)
        try:
            for current in upstream:
                inner = self._iter_item_bindings(item, current)
                try:
                    for binding in inner:
                        yield current.extend(binding)
                finally:
                    _close_iter(inner)
        finally:
            _close_iter(upstream)

    def _iter_item_bindings(
        self, item: ast.FromItem, env: Environment
    ) -> Iterator[Dict[str, Any]]:
        """Streaming counterpart of :meth:`_item_bindings` — the shared
        enumeration choke point for the pipelined reference chain and
        the physical plan's scan operators.  Governor row accounting
        moves into the row loop (a timeout or ``max_rows`` breach now
        fires mid-stream) and EXPLAIN ANALYZE item statistics count
        rows as they are pulled.
        """
        tracer = self.tracer
        if tracer is not None and not tracer.timing:
            # Feedback-sampling mode measures physical operators only;
            # per-item wall clocks are timing surface, skip them.
            tracer = None
        governor = self.governor
        if tracer is None and governor is None:
            return self._iter_item_rows(item, env)
        return self._iter_item_instrumented(item, env, tracer, governor)

    def _iter_item_instrumented(
        self, item: ast.FromItem, env: Environment, tracer, governor
    ) -> Iterator[Dict[str, Any]]:
        span = None
        if tracer is not None and tracer.trace is not None:
            from repro.observability.tracer import describe_from_item

            span = tracer.trace.begin(describe_from_item(item), "item")
        source = self._iter_item_rows(item, env)
        rows = 0
        elapsed = 0.0
        try:
            while True:
                if tracer is not None:
                    started = perf_counter()
                    try:
                        binding = next(source)
                    except StopIteration:
                        elapsed += perf_counter() - started
                        break
                    elapsed += perf_counter() - started
                else:
                    try:
                        binding = next(source)
                    except StopIteration:
                        break
                rows += 1
                if governor is not None:
                    governor.add(1)
                yield binding
        finally:
            _close_iter(source)
            if tracer is not None:
                tracer.record_item(item, rows, elapsed)
                if span is not None:
                    tracer.trace.end(span, {"rows_out": rows})

    def _iter_item_rows(
        self, item: ast.FromItem, env: Environment
    ) -> Iterator[Dict[str, Any]]:
        if isinstance(item, ast.FromCollection):
            return self._iter_range_bindings(item, env)
        if isinstance(item, ast.FromUnpivot):
            # Source through the closure compiler, like a range item.
            return iter(
                self._unpivot_value(item, self.compiled(item.expr)(env))
            )
        if isinstance(item, ast.FromJoin):
            return self._iter_join_bindings(item, env)
        raise EvaluationError(f"unknown FROM item {type(item).__name__}")

    def _iter_range_bindings(
        self, item: ast.FromCollection, env: Environment
    ) -> Iterator[Dict[str, Any]]:
        """Streaming form of :meth:`_range_bindings` (same case
        analysis); a bag source is pulled element by element, so a
        :class:`~repro.datamodel.values.LazyBag` never materializes."""
        value = self.compiled(item.expr)(env)
        if isinstance(value, list):
            for position, element in enumerate(value):
                binding = {item.alias: element}
                if item.at_alias:
                    binding[item.at_alias] = position
                yield binding
            return
        if isinstance(value, Bag):
            for element in value:
                binding = {item.alias: element}
                if item.at_alias:
                    binding[item.at_alias] = MISSING
                yield binding
            return
        if not self.config.is_permissive:
            raise TypeCheckError(
                f"FROM expects a collection, got {type_name(value)}"
            )
        if value is None or value is MISSING:
            return
        binding = {item.alias: value}
        if item.at_alias:
            binding[item.at_alias] = MISSING
        yield binding

    def _iter_join_bindings(
        self, item: ast.FromJoin, env: Environment
    ) -> Iterator[Dict[str, Any]]:
        """Streaming form of :meth:`_join_bindings`: the left side and
        each lateral right side are pulled row by row; LEFT padding
        still requires draining the right side per left row."""
        from repro.core.plan_ops import pad_right_vars

        right_vars: List[str] = []
        self._collect_item_vars(item.right, right_vars)
        on_fn = self.compiled(item.on) if item.on is not None else None
        left_source = self._iter_item_bindings(item.left, env)
        try:
            for left_binding in left_source:
                left_env = env.extend(left_binding)
                matched = False
                right_source = self._iter_item_bindings(item.right, left_env)
                try:
                    for right_binding in right_source:
                        combined = {**left_binding, **right_binding}
                        if on_fn is not None and not ops.is_true(
                            on_fn(env.extend(combined))
                        ):
                            continue
                        matched = True
                        yield combined
                finally:
                    _close_iter(right_source)
                if item.kind == "LEFT" and not matched:
                    yield pad_right_vars(left_binding, right_vars)
        finally:
            _close_iter(left_source)

    # -- GROUP BY --------------------------------------------------------------

    def _apply_group_by(
        self,
        clause: ast.GroupByClause,
        envs: List[Environment],
        outer_env: Environment,
        var_order: List[str],
    ) -> List[Environment]:
        """Grouping with ``GROUP AS`` (paper, Section V-B, Listing 14).

        Output: one binding per group, mapping each key alias to the key
        value and the GROUP AS variable to the group's content — a bag of
        tuples with one attribute per input variable.
        """
        group_envs: List[Environment] = []
        for key_indexes in expand_grouping_sets(clause):
            active = set(key_indexes)
            groups: Dict[tuple, Dict[str, Any]] = {}
            order: List[tuple] = []
            key_fns = [self.compiled(key.expr) for key in clause.keys]
            for current in envs:
                key_values: List[Any] = []
                for index, key_fn in enumerate(key_fns):
                    if index in active:
                        key_values.append(key_fn(current))
                    else:
                        key_values.append(None)
                identity = tuple(group_key(value) for value in key_values)
                group = groups.get(identity)
                if group is None:
                    group = {
                        "keys": key_values,
                        "members": [],
                    }
                    groups[identity] = group
                    order.append(identity)
                group["members"].append(current)
            if not groups and not clause.keys:
                # Implicit aggregation over empty input still produces a
                # single (empty) group, matching SQL's one-row answer.
                groups[()] = {"keys": [], "members": []}
                order.append(())
            for identity in order:
                group = groups[identity]
                bindings: Dict[str, Any] = {}
                for key, value in zip(clause.keys, group["keys"]):
                    bindings[key.alias] = value
                if clause.group_as:
                    bindings[clause.group_as] = Bag(
                        self._group_element(member, var_order)
                        for member in group["members"]
                    )
                group_envs.append(outer_env.extend(bindings))
        return group_envs

    def _group_element(
        self, env: Environment, var_order: List[str]
    ) -> Struct:
        """One element of a GROUP AS bag: a tuple of the input bindings
        (Listing 14: ``{ e: ..., p: ... }``)."""
        element = Struct()
        for name in var_order:
            try:
                value = env.lookup(name)
            except Unbound:
                continue
            element = element.with_attr(name, value)
        return element

    def _iter_group_by(
        self,
        clause: ast.GroupByClause,
        source: Iterable[Environment],
        outer_env: Environment,
        var_order: List[str],
    ) -> Iterator[Environment]:
        """Streaming hash aggregation: fold each arriving row into the
        per-grouping-set group state instead of buffering the binding
        stream.  Each key expression is evaluated once per row (shared
        across grouping sets, inactive keys masked to NULL) and the
        GROUP AS element is built once per row, so memory is bounded by
        the number of groups — plus the grouped members when GROUP AS
        retains them, which is inherent to its semantics."""
        key_fns = [self.compiled(key.expr) for key in clause.keys]
        key_sets = [set(indexes) for indexes in expand_grouping_sets(clause)]
        # One (groups, first-seen order) pair per grouping set.
        states: List[Tuple[Dict[tuple, Tuple[List[Any], List[Any]]], List[tuple]]]
        states = [({}, []) for __ in key_sets]
        group_as = clause.group_as
        for current in source:
            key_values_all = [key_fn(current) for key_fn in key_fns]
            element = (
                self._group_element(current, var_order) if group_as else None
            )
            for active, (groups, order) in zip(key_sets, states):
                key_values = [
                    value if index in active else None
                    for index, value in enumerate(key_values_all)
                ]
                identity = tuple(group_key(value) for value in key_values)
                group = groups.get(identity)
                if group is None:
                    group = (key_values, [])
                    groups[identity] = group
                    order.append(identity)
                if group_as:
                    group[1].append(element)
        for groups, order in states:
            if not groups and not clause.keys:
                # Implicit aggregation over empty input still produces a
                # single (empty) group, matching SQL's one-row answer.
                groups[()] = ([], [])
                order.append(())
            for identity in order:
                key_values, members = groups[identity]
                bindings: Dict[str, Any] = {}
                for key, value in zip(clause.keys, key_values):
                    bindings[key.alias] = value
                if group_as:
                    bindings[group_as] = Bag(members)
                yield outer_env.extend(bindings)

    # -- SELECT * / PIVOT -------------------------------------------------------

    def _eval_star(self, env: Environment, var_order: List[str]) -> Struct:
        """``SELECT *``: splice tuple-valued bindings, name the rest."""
        result = Struct()
        for name in var_order:
            try:
                value = env.lookup(name)
            except Unbound:
                continue
            if isinstance(value, Struct):
                result = result.merged(value)
            elif value is not MISSING:
                result = result.with_attr(name, value)
        return result

    def _eval_pivot(
        self, clause: ast.PivotClause, envs: List[Environment]
    ) -> Struct:
        """``PIVOT v AT a``: one tuple from the whole binding stream
        (Section VI-B, Listings 24-25)."""
        pairs: List[Tuple[str, Any]] = []
        for env in envs:
            name = self.eval_expr(clause.at, env)
            value = self.eval_expr(clause.value, env)
            if not isinstance(name, str):
                if self.config.is_permissive:
                    continue
                raise TypeCheckError(
                    f"PIVOT attribute name must be a string, got {type_name(name)}"
                )
            if value is MISSING:
                continue
            pairs.append((name, value))
        return Struct(pairs)

    # -- Windows ---------------------------------------------------------------

    def _bind_windows(
        self,
        select: ast.SelectClause,
        window_calls: List[ast.WindowCall],
        envs: List[Environment],
    ) -> Tuple[ast.SelectClause, List[Environment]]:
        """Precompute window values and substitute variable references."""
        replacements: Dict[int, str] = {}
        per_env: List[Dict[str, Any]] = [dict() for __ in envs]
        for number, call in enumerate(window_calls):
            name = f"$window{number}"
            replacements[id(call)] = name
            for position, value in enumerate(
                compute_window_values(call, envs, self)
            ):
                per_env[position][name] = value

        def substitute(node: ast.Node) -> ast.Node:
            if id(node) in replacements:
                return ast.VarRef(name=replacements[id(node)])
            return node

        new_select = select.transform(substitute)
        new_envs = [env.extend(extra) for env, extra in zip(envs, per_env)]
        return new_select, new_envs

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def eval_expr(self, expr: ast.Expr, env: Environment) -> Any:
        method = _DISPATCH.get(type(expr))
        if method is None:
            raise EvaluationError(f"cannot evaluate {type(expr).__name__}")
        return method(self, expr, env)

    def _eval_literal(self, expr: ast.Literal, env: Environment) -> Any:
        return expr.value

    def _eval_varref(self, expr: ast.VarRef, env: Environment) -> Any:
        try:
            return env.lookup(expr.name)
        except Unbound:
            if expr.name in self._catalog:
                return self._catalog[expr.name]
            raise Unbound(expr.name) from None

    def _eval_path(self, expr: ast.Path, env: Environment) -> Any:
        try:
            base = self.eval_expr(expr.base, env)
        except Unbound as unbound:
            # ``hr.emp`` is a namespaced named value, not navigation into
            # a variable.  Try successively longer dotted catalog names.
            if isinstance(expr.base, (ast.VarRef, ast.Path)):
                dotted = f"{unbound.name}.{expr.attr}"
                if dotted in self._catalog:
                    return self._catalog[dotted]
                raise Unbound(dotted) from None
            raise
        return ops.navigate_path(base, expr.attr, self.config)

    def _eval_index(self, expr: ast.Index, env: Environment) -> Any:
        base = self.eval_expr(expr.base, env)
        index = self.eval_expr(expr.index, env)
        return ops.navigate_index(base, index, self.config)

    def _eval_path_wildcard(self, expr: ast.PathWildcard, env: Environment) -> Any:
        """``base[*].a.b`` — map trailing steps over the elements.

        Produces an array of the per-element navigation results, dropping
        MISSING results (the data-exclusion signal).  A further wildcard
        step flattens one level.
        """
        base = self.eval_expr(expr.base, env)
        current = self._wildcard_elements(base, expr.kind)
        for step in expr.steps:
            if step.wildcard is not None:
                flattened: List[Any] = []
                for item in current:
                    flattened.extend(self._wildcard_elements(item, step.wildcard))
                current = flattened
            elif step.attr is not None:
                current = [
                    ops.navigate_path(item, step.attr, self.config)
                    for item in current
                ]
            else:
                index = self.eval_expr(step.index, env)
                current = [
                    ops.navigate_index(item, index, self.config)
                    for item in current
                ]
        return [item for item in current if item is not MISSING]

    def _wildcard_elements(self, value: Any, kind: str) -> List[Any]:
        if kind == "attrs":
            if isinstance(value, Struct):
                return value.values()
        elif isinstance(value, (list, Bag)):
            return list(value)
        if value is None or value is MISSING:
            return []
        checked = self.config.type_error(
            f"path wildcard expects a collection, got {type_name(value)}"
        )
        return [] if checked is MISSING else [checked]

    def _eval_binary(self, expr: ast.Binary, env: Environment) -> Any:
        op = expr.op
        if op == "AND":
            return ops.logical_and(
                self.eval_expr(expr.left, env),
                self.eval_expr(expr.right, env),
                self.config,
            )
        if op == "OR":
            return ops.logical_or(
                self.eval_expr(expr.left, env),
                self.eval_expr(expr.right, env),
                self.config,
            )
        left = self.eval_expr(expr.left, env)
        right = self.eval_expr(expr.right, env)
        if op == "=":
            return ops.equals(left, right, self.config)
        if op == "!=":
            return ops.not_equals(left, right, self.config)
        if op in ("<", "<=", ">", ">="):
            return ops.compare(op, left, right, self.config)
        if op == "||":
            return ops.concat(left, right, self.config)
        return ops.arithmetic(op, left, right, self.config)

    def _eval_unary(self, expr: ast.Unary, env: Environment) -> Any:
        value = self.eval_expr(expr.operand, env)
        if expr.op == "NOT":
            return ops.logical_not(value, self.config)
        if expr.op == "-":
            return ops.negate(value, self.config)
        return ops.unary_plus(value, self.config)

    def _eval_is(self, expr: ast.IsPredicate, env: Environment) -> Any:
        verdict = ops.is_predicate(
            self.eval_expr(expr.operand, env), expr.kind, self.config
        )
        return (not verdict) if expr.negated else verdict

    def _eval_like(self, expr: ast.Like, env: Environment) -> Any:
        verdict = ops.like(
            self.eval_expr(expr.operand, env),
            self.eval_expr(expr.pattern, env),
            self.eval_expr(expr.escape, env) if expr.escape is not None else None,
            self.config,
        )
        if expr.negated:
            return ops.logical_not(verdict, self.config)
        return verdict

    def _eval_between(self, expr: ast.Between, env: Environment) -> Any:
        operand = self.eval_expr(expr.operand, env)
        low = self.eval_expr(expr.low, env)
        high = self.eval_expr(expr.high, env)
        verdict = ops.logical_and(
            ops.compare(">=", operand, low, self.config),
            ops.compare("<=", operand, high, self.config),
            self.config,
        )
        if expr.negated:
            return ops.logical_not(verdict, self.config)
        return verdict

    def _eval_in(self, expr: ast.InPredicate, env: Environment) -> Any:
        verdict = self._in_verdict(expr, env)
        if expr.negated:
            return ops.logical_not(verdict, self.config)
        return verdict

    def _in_verdict(self, expr: ast.InPredicate, env: Environment) -> Any:
        """IN, with early termination over subquery collections.

        A subquery collection whose block can stream is probed row by
        row: the first TRUE comparison stops the subquery's producers
        (docs/LANGUAGE.md §8).  Everything else — including a MISSING
        operand, which needs the collection fully evaluated for its
        side conditions — falls back to :func:`ops.in_collection` on
        the materialized collection.
        """
        collection = expr.collection
        query = None
        coerce_rows = False
        if isinstance(collection, ast.SubqueryExpr):
            query = collection.query
        elif (
            isinstance(collection, ast.CoerceSubquery)
            and collection.mode == "collection"
        ):
            query = collection.query
            coerce_rows = True
        operand = self.eval_expr(expr.operand, env)
        if query is not None and operand is not MISSING:
            stream = self._open_value_stream(query, env)
            if stream is not None:
                return self._in_stream(operand, stream, coerce_rows)
        return ops.in_collection(
            operand, self.eval_expr(collection, env), self.config
        )

    def _in_stream(self, operand: Any, stream, coerce_rows: bool) -> Any:
        """Probe a streamed subquery: TRUE on the first match, keeping
        SQL's three-valued verdict (an unknown comparison anywhere in
        the stream downgrades FALSE to NULL, as in
        :func:`ops.in_collection`)."""
        saw_unknown = False
        try:
            for element in stream:
                if coerce_rows:
                    element = coercion.single_attribute(element, self.config)
                verdict = ops.equals(operand, element, self.config)
                if verdict is True:
                    return True
                if verdict is None or verdict is MISSING:
                    saw_unknown = True
        finally:
            stream.close()
        return None if saw_unknown else False

    def _eval_exists(self, expr: ast.Exists, env: Environment) -> Any:
        return self._exists_verdict(expr.operand, env)

    def _exists_verdict(self, operand: ast.Expr, env: Environment) -> Any:
        """EXISTS, with early termination: a streamable subquery stops
        its producers at the first row (EXISTS only asks whether the
        result is non-empty)."""
        if isinstance(operand, ast.SubqueryExpr):
            stream = self._open_value_stream(operand.query, env)
            if stream is not None:
                try:
                    for __ in stream:
                        return True
                    return False
                finally:
                    stream.close()
        return ops.exists(self.eval_expr(operand, env), self.config)

    def _open_value_stream(
        self, query: ast.Query, env: Environment
    ) -> Optional[Iterator[Any]]:
        """A lazy iterator over a subquery's output values, or None
        when the query's shape needs full evaluation first (ORDER BY /
        LIMIT / OFFSET, set operations, non-streamable block)."""
        body = query.body
        if (
            not isinstance(body, ast.QueryBlock)
            or not self._can_stream(body)
            or query.order_by
            or query.limit is not None
            or query.offset is not None
        ):
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
            source = self._stream_block(body, env)
            try:
                for value, __ in source:
                    yield value
            finally:
                _close_iter(source)
        finally:
            if governor is not None:
                governor.exit_query()

    def _eval_case(self, expr: ast.CaseExpr, env: Environment) -> Any:
        """CASE with the paper's MISSING treatment (Listing 9).

        In Core mode a MISSING comparison/condition makes the whole CASE
        MISSING (rule 3 of Section IV-B: operators propagate MISSING); in
        SQL-compat mode MISSING behaves like NULL — the condition simply
        does not match — because SQL's ``CASE WHEN NULL`` continues to
        the next branch (the Section IV-B compatibility exception).
        """
        operand = (
            self.eval_expr(expr.operand, env) if expr.operand is not None else None
        )
        if expr.operand is not None and operand is MISSING:
            if not self.config.sql_compat:
                return MISSING
        for condition, result in expr.whens:
            if expr.operand is not None:
                verdict = ops.equals(
                    operand, self.eval_expr(condition, env), self.config
                )
            else:
                verdict = self.eval_expr(condition, env)
            if verdict is MISSING and not self.config.sql_compat:
                return MISSING
            if ops.is_true(verdict):
                return self.eval_expr(result, env)
        if expr.else_ is not None:
            return self.eval_expr(expr.else_, env)
        return None

    def _eval_call(self, expr: ast.FunctionCall, env: Environment) -> Any:
        if expr.name == "$TUPLE_MERGE":
            return self._tuple_merge(expr.args, env)
        definition = REGISTRY.lookup(expr.name)
        if definition is None:
            raise EvaluationError(f"unknown function {expr.name}")
        if expr.star:
            raise EvaluationError(
                f"{expr.name}(*) is only meaningful inside a grouped query"
            )
        args = [self.eval_expr(arg, env) for arg in expr.args]
        if expr.distinct and definition.is_aggregate and args:
            first = args[0]
            if is_collection(first):
                args = [ops.distinct_elements(first)] + args[1:]
        return definition.invoke(args, self.config)

    def _tuple_merge(self, args: List[ast.Expr], env: Environment) -> Struct:
        """Internal: merge tuple parts for ``SELECT a.*, b.x`` projections."""
        result = Struct()
        for arg in args:
            value = self.eval_expr(arg, env)
            if isinstance(value, Struct):
                result = result.merged(value)
            elif value is MISSING or value is None:
                continue
            else:
                checked = self.config.type_error(
                    f"SELECT item.* expects a tuple, got {type_name(value)}"
                )
                if checked is MISSING:
                    continue
        return result

    def _eval_windowcall(self, expr: ast.WindowCall, env: Environment) -> Any:
        raise EvaluationError(
            "window functions (OVER) are only allowed in the SELECT clause "
            "of a query block"
        )

    def _eval_subquery(self, expr: ast.SubqueryExpr, env: Environment) -> Any:
        return self.eval_query(expr.query, env)

    def _eval_coerce(self, expr: ast.CoerceSubquery, env: Environment) -> Any:
        result = self.eval_query(expr.query, env)
        if expr.mode == "scalar":
            return coercion.coerce_scalar(result, self.config)
        return coercion.coerce_collection(result, self.config)

    def _eval_parameter(self, expr: ast.Parameter, env: Environment) -> Any:
        if expr.index >= len(self._parameters):
            raise EvaluationError(
                f"no value supplied for parameter #{expr.index + 1}"
            )
        return self._parameters[expr.index]

    def _eval_cast(self, expr: ast.CastExpr, env: Environment) -> Any:
        return cast_value(self.eval_expr(expr.operand, env), expr.type_name, self.config)

    def _eval_struct(self, expr: ast.StructLit, env: Environment) -> Struct:
        """Tuple construction; a MISSING attribute value omits the
        attribute (Section IV-B: "the output tuple will not have a title
        attribute")."""
        result = Struct()
        for field in expr.fields:
            key = self.eval_expr(field.key, env)
            if key is MISSING or key is None:
                if self.config.is_permissive:
                    continue
                raise TypeCheckError("tuple attribute name is absent")
            if not isinstance(key, str):
                checked = self.config.type_error(
                    f"tuple attribute name must be a string, got {type_name(key)}"
                )
                if checked is MISSING:
                    continue
            value = self.eval_expr(field.value, env)
            result = result.with_attr(key, value)
        return result

    def _eval_array(self, expr: ast.ArrayLit, env: Environment) -> list:
        values = (self.eval_expr(item, env) for item in expr.items)
        return [value for value in values if value is not MISSING]

    def _eval_bag(self, expr: ast.BagLit, env: Environment) -> Bag:
        values = (self.eval_expr(item, env) for item in expr.items)
        return Bag(value for value in values if value is not MISSING)


_DISPATCH = {
    ast.Literal: Evaluator._eval_literal,
    ast.VarRef: Evaluator._eval_varref,
    ast.Path: Evaluator._eval_path,
    ast.Index: Evaluator._eval_index,
    ast.PathWildcard: Evaluator._eval_path_wildcard,
    ast.Binary: Evaluator._eval_binary,
    ast.Unary: Evaluator._eval_unary,
    ast.IsPredicate: Evaluator._eval_is,
    ast.Like: Evaluator._eval_like,
    ast.Between: Evaluator._eval_between,
    ast.InPredicate: Evaluator._eval_in,
    ast.Exists: Evaluator._eval_exists,
    ast.CaseExpr: Evaluator._eval_case,
    ast.FunctionCall: Evaluator._eval_call,
    ast.WindowCall: Evaluator._eval_windowcall,
    ast.SubqueryExpr: Evaluator._eval_subquery,
    ast.CoerceSubquery: Evaluator._eval_coerce,
    ast.Parameter: Evaluator._eval_parameter,
    ast.CastExpr: Evaluator._eval_cast,
    ast.StructLit: Evaluator._eval_struct,
    ast.ArrayLit: Evaluator._eval_array,
    ast.BagLit: Evaluator._eval_bag,
}


def _multiset_counts(items: List[Any]) -> Dict[tuple, int]:
    counts: Dict[tuple, int] = {}
    for item in items:
        key = group_key(item)
        counts[key] = counts.get(key, 0) + 1
    return counts
