"""The :class:`Database` facade — the library's main entry point.

Typical use::

    from repro import Database

    db = Database()
    db.set("hr.emp_nest_tuples", [...])          # plain Python data is fine
    result = db.execute('''
        SELECT e.name AS emp_name, p.name AS proj_name
        FROM hr.emp_nest_tuples AS e, e.projects AS p
        WHERE p.name LIKE '%Security%'
    ''')

``execute`` returns SQL++ model values (bags/arrays/structs);
``execute_python`` returns plain Python data.  The two language dials —
typing mode and the SQL-compatibility flag (paper, Sections I and IV) —
can be set per database or overridden per query.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections import OrderedDict
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import EvalConfig
from repro.core.environment import Environment
from repro.core.evaluator import Evaluator
from repro.core.reference import ReferenceEvaluator
from repro.core import rewrite_rules
from repro.core.rewriter import rewrite_query
from repro.catalog.catalog import Catalog
from repro.datamodel.convert import to_python
from repro.datamodel.values import MISSING, Bag, is_collection
from repro.errors import ResourceExhausted, SQLPPError
from repro.observability import (
    ExecTracer,
    MetricsRegistry,
    QueryMetrics,
    QueryStore,
    TraceContext,
    query_fingerprint,
)
from repro.observability.query_store import (
    plan_hash,
    plan_max_qerror,
    record_plan_feedback,
)
from repro.syntax import ast
from repro.syntax.parser import parse
from repro.syntax.printer import print_ast


@dataclasses.dataclass(eq=False)
class CompiledQuery:
    """One compile-cache entry: everything derived from a query text
    under the dials that keyed it.  Built by
    :meth:`Database._compile_query` only; ``execute`` and every EXPLAIN
    surface read it."""

    source: str
    #: What executes: sugar-lowered, semantically rewritten, folded.
    core: ast.Query
    #: Sugar-lowered only — what the query store fingerprints, so
    #: workload history and cardinality feedback survive registry
    #: upgrades and per-query ``rewrite=False`` (docs/REWRITER.md).
    pre_core: ast.Query
    #: Fired semantic rewrites, each with its discharged conditions.
    fired: Tuple[Any, ...]
    typing_mode: str
    sql_compat: bool
    #: Whether the rewrite registry ran (``rewrite`` and ``optimize``).
    rewrite_on: bool
    catalog_version: int
    _fingerprint: Optional[str] = None

    def fingerprint(self) -> str:
        """The query-store fingerprint, computed on first use (never
        for ``compile()``/EXPLAIN alone, at most once per entry)."""
        if self._fingerprint is None:
            self._fingerprint = query_fingerprint(
                self.pre_core,
                self.typing_mode,
                self.sql_compat,
                self.catalog_version,
            )
        return self._fingerprint


class Database:
    """A SQL++ database: a catalog of named values plus query execution."""

    #: Bound on the per-database compiled-query (parse+rewrite) cache.
    COMPILE_CACHE_SIZE = 256

    #: Bound on the per-database memoized-evaluator cache (one
    #: evaluator per distinct effective config).
    EVALUATOR_CACHE_SIZE = 8

    def __init__(
        self,
        typing_mode: str = "permissive",
        sql_compat: bool = True,
        optimize: bool = True,
        timeout_s: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_recursion: Optional[int] = None,
        batch: bool = True,
        rewrite: bool = True,
        metrics_sinks: Optional[List[Any]] = None,
        query_store: Any = True,
    ):
        from repro.catalog.statistics import StatsProvider

        self.catalog = Catalog()
        self._config = EvalConfig(
            typing_mode=typing_mode,
            sql_compat=sql_compat,
            optimize=optimize,
            timeout_s=timeout_s,
            max_rows=max_rows,
            max_recursion=max_recursion,
            batch=batch,
            rewrite=rewrite,
        )
        #: Per-database query metrics: monotonic counters, per-query
        #: records, pluggable sinks (docs/OBSERVABILITY.md).
        self.metrics = MetricsRegistry(sinks=metrics_sinks)
        #: Sampled collection statistics feeding the planner's
        #: cost-based join ordering, per collection: advanced by
        #: ``insert``, re-sampled after ``set``.
        self._stats = StatsProvider(self.catalog, count=self.metrics.increment)
        # Memoized engine evaluators, keyed by effective EvalConfig
        # (frozen, hashable).  Re-running a query through the same
        # config reuses the evaluator's compiled-closure and
        # physical-plan caches — the compile cache returns the same AST
        # object, so the id()-keyed caches hit — until that compile-cache
        # entry is evicted.  ``rebind`` resets per-execution state.
        self._evaluators: "OrderedDict[EvalConfig, Evaluator]" = OrderedDict()
        self._schemas: Dict[str, Any] = {}
        self._schema_version = 0
        # LRU parse+rewrite cache: repeated query texts (benchmark
        # loops, the compat-kit runner, REPL re-runs) skip lexing,
        # parsing and sugar rewriting.  Keyed by query text, both
        # language dials and the catalog/schema state the rewriter
        # consults (name set for dotted-name resolution, schema
        # attributes for disambiguation).
        # The key also includes the semantic-rewrite gate and registry
        # version (:meth:`_compile_query`).
        self._compile_cache: "OrderedDict[Tuple, CompiledQuery]" = (
            OrderedDict()
        )
        #: The query store (docs/OBSERVABILITY.md): ``True`` keeps an
        #: in-memory store, a string persists to that JSON-lines path,
        #: ``False``/``None`` disables workload history and the
        #: cardinality feedback loop entirely.
        if isinstance(query_store, QueryStore):
            self._query_store: Optional[QueryStore] = query_store
        elif isinstance(query_store, str):
            self._query_store = QueryStore(path=query_store)
        elif query_store:
            self._query_store = QueryStore()
        else:
            self._query_store = None
        if self._query_store is not None:
            # Pulled by ``expose_text()``, never pushed per execute.
            self.metrics.add_gauge_source(self._query_store.export_gauges)

    # ------------------------------------------------------------------
    # Named values
    # ------------------------------------------------------------------

    def set(self, name: str, value: Any) -> None:
        """Create or replace a named value.

        When a schema is registered for ``name``, the value is validated
        against it first (schema is *optional*, never required — paper
        tenet 3).
        """
        from repro.datamodel.convert import from_python

        model_value = from_python(value)
        schema = self._schemas.get(name)
        if schema is not None:
            from repro.schema.validate import validate

            validate(model_value, schema, path=name)
        self.catalog.set_model(name, model_value)

    def set_lazy(self, name: str, factory: Any) -> None:
        """Create or replace a named value backed by a generator factory.

        ``factory`` is a zero-argument callable returning a fresh
        iterable of Python elements on every call; the named value
        becomes a :class:`~repro.datamodel.values.LazyBag` that streams
        (and converts) elements per traversal instead of materializing
        them.  Combined with the pipelined evaluator this lets bounded
        consumers — ``ORDER BY ... LIMIT k``, plain ``LIMIT``,
        ``EXISTS`` — run in memory proportional to what they keep, not
        to the collection size (docs/PLANNER.md).

        Lazy values skip schema validation (validating would defeat the
        point by traversing everything up front); register a schema only
        on materialized values.  They are also read-only: the elements
        are the factory's, so :meth:`insert` into one raises
        :class:`~repro.errors.CatalogError` rather than draining the
        generator into a materialized bag.
        """
        from repro.datamodel.convert import from_python
        from repro.datamodel.values import LazyBag

        def model_elements():
            return (from_python(element) for element in factory())

        self.catalog.set_model(name, LazyBag(model_elements))

    def get(self, name: str) -> Any:
        return self.catalog.get(name)

    def insert(self, name: str, values: Any) -> None:
        """Append elements to a named collection.

        ``values`` is an iterable of new elements (a list/bag, *not* one
        element).  Creates the named value as a bag when absent; an
        array keeps its order.  Only the new elements are converted and
        — with a registered schema — validated, the existing ones are
        shared with the value that was there (:meth:`Catalog.append`),
        so the cost follows the batch, not the collection.  The insert
        is rejected wholesale on a violation: the collection, its
        statistics and every cached plan stay as they were.

        Statistics already collected for ``name`` advance by the new
        elements; cached plans that read it are kept until it has grown
        past the feedback tolerance, plans that read other collections
        are never touched (docs/PLANNER.md, "Statistics").  The next
        untraced run of a grouped query that keeps its fold state over
        ``name`` folds only the new elements into it (docs/PLANNER.md,
        "Caching").
        """
        from repro.datamodel.convert import from_python

        new_elements = [from_python(value) for value in values]
        schema = self._schemas.get(name)
        if schema is not None:
            self._validate_appended(name, new_elements, schema)
        self.catalog.append(name, new_elements)

    def _validate_appended(
        self, name: str, new_elements: List[Any], schema: Any
    ) -> None:
        """Validate an insert against ``name``'s schema before anything
        is installed: element by element under ``BAG<T>`` / ``ARRAY<T>``
        (paths say ``name[len(existing) + j]``), as one whole value under
        any other top-level shape (a union of collection types, say)."""
        from repro.catalog.catalog import extended
        from repro.schema.types import ArrayType, BagType
        from repro.schema.validate import validate

        existing = self.catalog.get(name) if name in self.catalog else Bag()
        if isinstance(existing, list):
            elementwise = isinstance(schema, (ArrayType, BagType))
        else:  # a materialized bag (not a LazyBag: ``len`` would drain it)
            elementwise = isinstance(schema, BagType) and type(existing) is Bag
        if elementwise:
            for index, element in enumerate(new_elements, len(existing)):
                validate(element, schema.element, f"{name}[{index}]")
        else:
            # ``extended`` refuses what cannot be appended to.
            validate(extended(name, existing, new_elements), schema, path=name)

    def drop(self, name: str) -> None:
        self.catalog.drop(name)
        if self._schemas.pop(name, None) is not None:
            self._schema_version += 1

    def names(self) -> List[str]:
        return self.catalog.names()

    # ------------------------------------------------------------------
    # Optional schema
    # ------------------------------------------------------------------

    def set_schema(self, name: str, schema: Any) -> None:
        """Impose a schema on a named value.

        ``schema`` is a :mod:`repro.schema` type (or DDL string parsed by
        :func:`repro.schema.parse_schema`).  An existing value is
        validated immediately: imposing a schema on conforming data must
        not change any query result (the paper's *query stability*
        tenet), so only conforming data is accepted.
        """
        if isinstance(schema, str):
            from repro.schema.ddl import parse_schema

            schema = parse_schema(schema)
        if name in self.catalog:
            from repro.schema.validate import validate

            validate(self.catalog.get(name), schema, path=name)
        self._schemas[name] = schema
        self._schema_version += 1

    def get_schema(self, name: str) -> Optional[Any]:
        return self._schemas.get(name)

    def drop_schema(self, name: str) -> None:
        if self._schemas.pop(name, None) is not None:
            self._schema_version += 1

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def _effective_config(self, **dials: Any) -> EvalConfig:
        """The database config with the per-query ``dials`` of any run
        surface (``execute``, ``explain_analyze``, ``trace``) applied.

        The dials are exactly ``EvalConfig``'s fields
        (:func:`dataclasses.replace` raises ``TypeError`` for any other
        name); ``None`` and absent both mean "inherit", so a
        database-level limit cannot be *unset* per query.  The removed
        ``parallel`` dial is still accepted, with a
        ``DeprecationWarning``, and ignored: every query runs serially.
        """
        if dials.pop("parallel", None) is not None:
            warnings.warn(
                "the parallel dial was removed; the query runs serially",
                DeprecationWarning,
                stacklevel=3,
            )
        overrides = {
            name: value for name, value in dials.items() if value is not None
        }
        if not overrides:
            return self._config
        return dataclasses.replace(self._config, **overrides)

    def _evaluator_for(
        self,
        config: EvalConfig,
        parameters: Optional[Sequence[Any]],
        tracer: Optional[ExecTracer],
    ) -> Any:
        """What runs a query under ``config``: a fresh
        :class:`ReferenceEvaluator` with ``optimize=False``, else the
        memoized engine evaluator for this config, rebound to the given
        parameters/tracer — or a fresh one when the cached evaluator is
        mid-execution (reentrancy: a lazy-bag factory issuing a query
        while its consumer query runs)."""
        if not config.optimize:
            return ReferenceEvaluator(self.catalog, config, parameters, tracer)
        cached = self._evaluators.get(config)
        if cached is not None and not cached._in_use:
            self._evaluators.move_to_end(config)
            return cached.rebind(parameters=parameters, tracer=tracer)
        evaluator = Evaluator(
            self.catalog,
            config,
            parameters=parameters,
            tracer=tracer,
            stats=self._stats,
        )
        if cached is None:
            self._evaluators[config] = evaluator
            if len(self._evaluators) > self.EVALUATOR_CACHE_SIZE:
                self._evaluators.popitem(last=False)
        return evaluator

    def _schema_attrs(self) -> Dict[str, Any]:
        """Attribute sets per schemaful named value, for disambiguation."""
        if not self._schemas:
            return {}
        from repro.schema.types import element_attribute_names

        attrs: Dict[str, Any] = {}
        for name, schema in self._schemas.items():
            names = element_attribute_names(schema)
            if names is not None:
                attrs[name] = names
        return attrs

    def compile(
        self,
        query: str,
        typing_mode: Optional[str] = None,
        sql_compat: Optional[bool] = None,
    ) -> ast.Query:
        """Parse and rewrite a query to its executable Core form.

        Results are memoized in a bounded LRU cache keyed by the query
        text, both language dials, and the catalog/schema state the
        rewriter consults, so repeated queries (benchmark loops, the
        compat-kit runner, REPL re-runs) skip lexing, parsing and sugar
        rewriting.  Evaluation never mutates the AST, so sharing the
        compiled tree across executions is safe — and lets the
        evaluator-side plan/closure caches stay warm per query object.
        """
        config = self._effective_config(
            typing_mode=typing_mode, sql_compat=sql_compat
        )
        return self._compile_query(query, config).core

    def _catalog_types(self, sampled: bool = False) -> Dict[str, Any]:
        """Abstract catalog types seeding the type-flow walk.

        Registered schemas give *closed* shapes, trusted because values
        are validated on ``set``: a declared non-optional attribute is
        genuinely never MISSING — the rewrite registry's safety checks
        use these alone.  With ``sampled``, schemaless named values up to
        ``CHECK_SAMPLE_LIMIT`` elements add their inferred shapes,
        *softened* open: a sample proves what exists, not what cannot.
        """
        if not (self._schemas or sampled):
            return {}
        from repro.analysis.lattice import from_schema, soften

        types: Dict[str, Any] = {}
        for name in self.catalog.names() if sampled else self._schemas:
            schema = self._schemas.get(name)
            if schema is not None:
                types[name] = from_schema(schema)
            elif sampled:
                inferred = self._sampled_schema(name)
                if inferred is not None:
                    types[name] = soften(from_schema(inferred))
        return types

    def _compile_query(
        self,
        query: str,
        config: EvalConfig,
        metrics: Optional[QueryMetrics] = None,
        trace: Optional[TraceContext] = None,
    ) -> CompiledQuery:
        """The one compile function: the cached :class:`CompiledQuery`
        for a query text under ``config``, building it on a miss.

        The cache key includes the effective registry gate and
        ``rewrite_rules.REGISTRY_VERSION`` (read dynamically), so a
        registry upgrade invalidates cached rewritten queries exactly
        once, mirroring the stats provider's ``feedback_version``.

        When a :class:`QueryMetrics` record is supplied, its parse and
        rewrite phase timings and fired-rewrite codes are filled in and
        the per-rule ``rewrites_fired:*`` counters bumped; the
        ``compile_cache_hits``/``compile_cache_misses`` counters are
        updated either way.  With a :class:`TraceContext`, a cache miss
        additionally records ``parse`` and ``rewrite`` phase spans.
        """
        rewrite_on = config.rewrite and config.optimize
        key = (
            query,
            config.typing_mode,
            config.sql_compat,
            self.catalog.version,
            self._schema_version,
            rewrite_on,
            rewrite_rules.REGISTRY_VERSION if rewrite_on else 0,
            # Constant folding only runs under optimize, so the dial
            # changes the cached Core tree, not just the plan.
            config.optimize,
        )
        compiled = self._compile_cache.get(key)
        if compiled is not None:
            self._compile_cache.move_to_end(key)
            self.metrics.increment("compile_cache_hits")
            if metrics is not None:
                metrics.cache_hit = True
                self._record_rewrites(metrics, compiled.fired)
            return compiled
        self.metrics.increment("compile_cache_misses")
        started = perf_counter()
        parsed = parse(query)
        parsed_at = perf_counter()
        pre_core = rewrite_query(
            parsed,
            config,
            catalog_names=self.catalog.names(),
            schema_attrs=self._schema_attrs(),
        )
        fired: Tuple[Any, ...] = ()
        core = pre_core
        if rewrite_on:
            core, fired = rewrite_rules.apply_rules(
                pre_core, config, catalog_types=self._catalog_types()
            )
            from repro.analysis.verify_plan import maybe_verify_rewrite

            maybe_verify_rewrite(
                pre_core, core, fired, catalog_names=self.catalog.names()
            )
        if config.optimize:
            # Constant folding runs the engine's compiled closures, so
            # the folded tree is observationally identical (a raising
            # subexpression stays unfolded); ``pre_core`` stays unfolded
            # so query-store fingerprints are unaffected.
            from repro.analysis.absint import fold_query

            core, _folds = fold_query(core, config)
        rewritten_at = perf_counter()
        if metrics is not None:
            metrics.parse_s = parsed_at - started
            metrics.rewrite_s = rewritten_at - parsed_at
            self._record_rewrites(metrics, fired)
        if trace is not None:
            trace.event("parse", "phase", started, parsed_at - started)
            trace.event("rewrite", "phase", parsed_at, rewritten_at - parsed_at)
        compiled = CompiledQuery(
            source=query,
            core=core,
            pre_core=pre_core,
            fired=fired,
            typing_mode=config.typing_mode,
            sql_compat=config.sql_compat,
            rewrite_on=rewrite_on,
            catalog_version=self.catalog.version,
        )
        self._compile_cache[key] = compiled
        if len(self._compile_cache) > self.COMPILE_CACHE_SIZE:
            # Everything an evaluator derived from the evicted entry's
            # AST (closures, kernels, plans) goes with it.
            __, evicted = self._compile_cache.popitem(last=False)
            for evaluator in self._evaluators.values():
                evaluator.forget(evicted.core)
        return compiled

    def _record_rewrites(
        self, metrics: QueryMetrics, fired: Tuple[Any, ...]
    ) -> None:
        """Fold one execution's fired rewrites into its metrics record
        and the per-rule registry counters (Prometheus
        ``repro_rewrites_fired_total{rule=...}``)."""
        if not fired:
            return
        metrics.rewrites = [result.code for result in fired]
        for result in fired:
            self.metrics.increment(f"rewrites_fired:{result.code}")

    def execute(
        self,
        query: str,
        parameters: Optional[Sequence[Any]] = None,
        missing_as_null: bool = False,
        tracer: Optional[ExecTracer] = None,
        **dials: Any,
    ) -> Any:
        """Execute a SQL++ query and return the result as model values.

        ``missing_as_null`` converts top-level MISSING elements of the
        result collection to NULL, the way the paper says JDBC/ODBC
        clients see them (Section IV-B).

        ``dials`` override the database's :class:`EvalConfig` for this
        query (:meth:`_effective_config`; every run surface takes the
        same set): the language dials ``typing_mode`` / ``sql_compat``;
        ``optimize=False`` runs the reference interpreter instead of the
        engine, with identical results (docs/PLANNER.md);
        ``rewrite=False`` disables just the semantic rewrite registry
        (docs/REWRITER.md); ``batch=False`` disables the chunk-vectorized
        executor; ``timeout_s`` / ``max_rows`` /
        ``max_recursion`` tighten the resource limits, a breach raising
        :class:`~repro.errors.ResourceExhausted` (docs/OBSERVABILITY.md).

        Every call — successful or not — produces one
        :class:`~repro.observability.QueryMetrics` record in
        ``self.metrics``.
        """
        config = self._effective_config(**dials)
        result = self._run(query, config, parameters, tracer)[0]
        if missing_as_null:
            result = _missing_to_null(result)
        return result

    def _run(
        self,
        query: str,
        config: EvalConfig,
        parameters: Optional[Sequence[Any]],
        tracer: Optional[ExecTracer],
    ) -> Tuple[Any, CompiledQuery, QueryMetrics]:
        """One execution under ``config``: ``(result, compiled query,
        metrics record)``.  ``execute`` returns the first; EXPLAIN
        ANALYZE formats all three, so what it reports is this run's own
        record, not whatever ``self.metrics.last`` holds by then."""
        metrics = QueryMetrics(query=query)
        trace = tracer.trace if tracer is not None else None
        root = (
            trace.begin("query", category="query")
            if trace is not None
            else None
        )
        started = perf_counter()
        evaluator: Any = None
        store = self._query_store
        compiled: Optional[CompiledQuery] = None
        feedback_tracer: Optional[ExecTracer] = None
        try:
            compiled = self._compile_query(query, config, metrics, trace)
            if store is not None:
                metrics.fingerprint = compiled.fingerprint()
                if tracer is None and store.wants_feedback(
                    metrics.fingerprint, self._stats
                ):
                    # Sampled feedback run: attach the timing-free
                    # tracer so operators count rows (cardinality
                    # feedback, q-errors) without per-row clocks.
                    feedback_tracer = ExecTracer(timing=False)
                    tracer = feedback_tracer
            evaluator = self._evaluator_for(config, parameters, tracer)
            evaluator._in_use = True
            execute_started = perf_counter()
            execute_span = (
                trace.begin("execute", category="phase")
                if trace is not None
                else None
            )
            try:
                result = evaluator.execute(compiled.core, Environment())
            finally:
                evaluator._in_use = False
                if execute_span is not None:
                    trace.end(execute_span)
                metrics.execute_s = perf_counter() - execute_started
            if is_collection(result):
                metrics.rows_returned = len(result)
        except ResourceExhausted as error:
            metrics.status = "resource_exhausted"
            metrics.error = str(error)
            raise
        except SQLPPError as error:
            metrics.status = "error"
            metrics.error = str(error)
            raise
        finally:
            if evaluator is not None:
                metrics.plan_s = evaluator.plan_time_s
                metrics.streamed = evaluator.streamed
                metrics.batched = evaluator.batched
                if evaluator.plans_rebuilt:
                    self.metrics.increment(
                        "plans_rebuilt", evaluator.plans_rebuilt
                    )
                if evaluator.groups_advanced:
                    self.metrics.increment("groups_advanced")
            metrics.total_s = perf_counter() - started
            if store is not None and metrics.fingerprint is not None:
                self._store_observe(
                    store,
                    metrics,
                    compiled.core,
                    evaluator,
                    tracer,
                    feedback_tracer,
                )
            if root is not None:
                trace.end(root, {"status": metrics.status})
            self.metrics.record(metrics)
        return result, compiled, metrics

    # ------------------------------------------------------------------
    # Query store integration
    # ------------------------------------------------------------------

    def query_store(self) -> Optional[QueryStore]:
        """The database's :class:`~repro.observability.QueryStore`
        (None when constructed with ``query_store=False``)."""
        return self._query_store

    def _store_observe(
        self,
        store: QueryStore,
        metrics: QueryMetrics,
        core: ast.Query,
        evaluator: Any,
        tracer: Optional[ExecTracer],
        feedback_tracer: Optional[ExecTracer],
    ) -> None:
        """Fold one finished execution into the query store: plan hash,
        q-error, cardinality feedback.  Runs in ``_run``'s ``finally`` —
        it must never raise over the query's own outcome, and it only
        reads state the execution already produced."""
        executed_plan = None
        if evaluator is not None:
            executed_plan = evaluator.executed_plan(core)
            metrics.plan_hash = plan_hash(executed_plan)
        qerror = None
        if tracer is not None and executed_plan is not None:
            qerror = plan_max_qerror(executed_plan, tracer)
        if feedback_tracer is not None and metrics.status == "ok":
            # Feed actual cardinalities back to the planner — but only
            # from complete runs: LIMIT/OFFSET truncation would record
            # how many rows the consumer *wanted*, not how many exist.
            if (
                executed_plan is not None
                and core.limit is None
                and core.offset is None
            ):
                record_plan_feedback(
                    executed_plan, feedback_tracer, self._stats
                )
            # Mark even when nothing was learnable, so an unplannable
            # fingerprint is not re-traced forever.
            store.mark_feedback(
                metrics.fingerprint, self._stats, evaluator.reads(core)
            )
        store.observe(
            metrics.fingerprint,
            metrics.query,
            metrics.plan_hash,
            metrics.status,
            metrics.total_s,
            metrics.rows_returned,
            qerror,
        )

    #: Bound on the collection size ``check`` will sample to infer an
    #: abstract shape for a schemaless named value.
    CHECK_SAMPLE_LIMIT = 200

    def check(
        self,
        query: str,
        typing_mode: Optional[str] = None,
        sql_compat: Optional[bool] = None,
        suppress: Sequence[str] = (),
    ) -> List[Any]:
        """Statically analyze a query without executing it.

        Runs the :mod:`repro.analysis` passes — parse, rewrite to Core,
        the one type-flow walk — against this database's
        catalog, language dials and registered schemas, and returns the
        list of :class:`~repro.analysis.Diagnostic` findings (empty
        when the query is clean).  Never raises on a bad query: a parse
        failure is itself a finding (``SQLPP000``).

        The abstract-type lattice is seeded from registered schemas
        (closed shapes, trusted because values are validated on
        ``set``); schemaless named values up to ``CHECK_SAMPLE_LIMIT``
        elements are sampled via :func:`repro.schema.infer.infer_schema`
        and contribute *open* shapes, so sampling can sharpen warnings
        but never claims an attribute can't exist.  ``suppress`` drops
        the given rule codes; ``-- sqlpp-ignore: CODE`` comments in the
        query suppress per-line.

        Each call bumps the ``lint_checks`` / ``lint_errors`` /
        ``lint_warnings`` metrics counters (exposed as
        ``repro_lint_*`` in Prometheus text).
        """
        from repro.analysis import AnalyzerOptions, analyze
        from repro.analysis.diagnostics import ERROR, WARNING

        config = self._effective_config(
            typing_mode=typing_mode, sql_compat=sql_compat
        )
        options = AnalyzerOptions(
            config=config,
            catalog_names=tuple(self.catalog.names()),
            catalog_types=self._catalog_types(sampled=True),
            schema_attrs=self._schema_attrs(),
            suppress=tuple(suppress),
        )
        diagnostics = analyze(query, options)
        self.metrics.increment("lint_checks")
        errors = sum(1 for d in diagnostics if d.severity == ERROR)
        warnings = sum(1 for d in diagnostics if d.severity == WARNING)
        if errors:
            self.metrics.increment("lint_errors", errors)
        if warnings:
            self.metrics.increment("lint_warnings", warnings)
        return diagnostics

    def _sampled_schema(self, name: str) -> Optional[Any]:
        """An inferred schema for a small materialized named value
        (None for large, lazy, or un-inferrable values)."""
        from repro.datamodel.values import LazyBag
        from repro.errors import SchemaError
        from repro.schema.infer import infer_schema

        value = self.catalog.get(name)
        if isinstance(value, LazyBag):
            return None
        if isinstance(value, (list, Bag)) and len(value) > self.CHECK_SAMPLE_LIMIT:
            return None
        try:
            return infer_schema(value)
        except SchemaError:
            return None

    def execute_python(
        self,
        query: str,
        parameters: Optional[Sequence[Any]] = None,
        **dials: Any,
    ) -> Any:
        """Execute (under the same ``dials`` as :meth:`execute`) and
        convert the result to plain Python data."""
        return to_python(self.execute(query, parameters=parameters, **dials))

    def explain(
        self,
        query: str,
        typing_mode: Optional[str] = None,
        sql_compat: Optional[bool] = None,
    ) -> str:
        """The rewritten SQL++ Core text for a query.

        Shows the sugar rewritings the paper describes: plain SELECT
        becomes SELECT VALUE, SQL aggregates become ``COLL_*`` over the
        GROUP AS group, coercions become explicit.
        """
        return print_ast(self.compile(query, typing_mode, sql_compat))

    def explain_plan(
        self,
        query: str,
        typing_mode: Optional[str] = None,
        sql_compat: Optional[bool] = None,
    ) -> str:
        """The physical plan the optimizer chose for a query (the
        ``EXPLAIN`` verb): the block's one operator tree — hash joins,
        scans with pushed-down filters, materialization — the residual
        WHERE and the rewrites that fired (strict typing withholds the
        ones that could hide an error); then how the output is consumed
        and which executor runs each block.  A view of the memoised
        evaluator's own plan and decisions
        (:func:`repro.core.vectorized.explain_query`): explaining an
        already-executed query plans nothing again.  Under
        ``optimize=False`` it says the reference interpreter runs.
        """
        from repro.core.vectorized import explain_query

        config = self._effective_config(
            typing_mode=typing_mode, sql_compat=sql_compat
        )
        compiled = self._compile_query(query, config)
        if not config.optimize:
            return "\n".join(
                _explain_header(compiled) + [_REFERENCE_PLAN] + _REFERENCE_EXECUTORS
            )
        evaluator = self._evaluator_for(config, None, None)
        return "\n".join(
            _explain_header(compiled) + explain_query(evaluator, compiled.core)
        )

    def verify_plan(
        self,
        query: str,
        typing_mode: Optional[str] = None,
        sql_compat: Optional[bool] = None,
    ) -> List[str]:
        """Run the structural verifier over a query's rewrite output and
        every physical plan its blocks produce; returns the list of
        violations (empty = every invariant holds).

        This is the on-demand form of the ``REPRO_VERIFY_PLANS=1``
        debug mode (:mod:`repro.analysis.verify_plan`): binding
        well-formedness, filter/key scoping, estimate monotonicity,
        span presence, and operator-tree shape.  Every block has a plan
        whether or not a rewrite fired, nested subquery blocks included
        (``Evaluator.block_plans`` — the plans execution runs, planned
        here only for blocks no execution reached yet).
        """
        from repro.analysis.verify_plan import (
            query_scope_names,
            verify_block_plan,
            verify_rewrite,
        )

        config = self._effective_config(
            typing_mode=typing_mode, sql_compat=sql_compat
        )
        compiled = self._compile_query(query, config)
        violations = list(
            verify_rewrite(
                compiled.pre_core,
                compiled.core,
                compiled.fired,
                catalog_names=self.catalog.names(),
            )
        )
        if config.optimize:
            evaluator = self._evaluator_for(config, None, None)
            scope = query_scope_names(compiled.core, self.catalog.names())
            for plan in evaluator.block_plans(compiled.core):
                violations.extend(verify_block_plan(plan, scope))
        return violations

    def explain_rewrites(
        self,
        query: str,
        typing_mode: Optional[str] = None,
        sql_compat: Optional[bool] = None,
    ) -> str:
        """The semantic rewrites that fire for a query, with the safety
        conditions each firing discharged (the CLI's
        ``--explain-rewrites``; docs/REWRITER.md has the rule catalog).
        """
        config = self._effective_config(
            typing_mode=typing_mode, sql_compat=sql_compat
        )
        compiled = self._compile_query(query, config)
        lines = [f"pre:  {print_ast(compiled.pre_core)}"]
        if not compiled.fired:
            if not compiled.rewrite_on:
                lines.append("rewrites: disabled (rewrite/optimize off)")
            else:
                lines.append("rewrites: none applicable")
            return "\n".join(lines)
        lines.append(f"post: {print_ast(compiled.core)}")
        lines.append("")
        for result in compiled.fired:
            lines.append(result.describe())
            for condition in result.safety:
                lines.append(f"  - {condition}")
        return "\n".join(lines)

    def explain_analyze(
        self,
        query: str,
        parameters: Optional[Sequence[Any]] = None,
        **dials: Any,
    ) -> str:
        """Execute the query and report the plan annotated with runtime
        statistics (the ``EXPLAIN ANALYZE`` verb).

        Each operator line carries its invocation count, rows in/out,
        inclusive wall time and the planner's row estimate against the
        actual (``est= actual= q-err=``, worst misestimate flagged); the
        clause pipeline's stage row counts and the per-phase timings
        (parse/rewrite/plan/execute) follow.  The annotated tree is
        the block's one physical plan — whichever executor ran it — or,
        under ``optimize=False``, the nested-loop FROM tree of the
        reference interpreter; the run analysed is the run ``execute``
        makes under the same ``dials`` (docs/OBSERVABILITY.md).

        The query really runs, so resource limits apply; a breached
        limit raises :class:`~repro.errors.ResourceExhausted` exactly as
        ``execute`` would.
        """
        from repro.core.vectorized import NOT_A_BLOCK, explain_executors, groups_note

        config = self._effective_config(**dials)
        tracer = ExecTracer()
        result, compiled, metrics = self._run(query, config, parameters, tracer)
        core = compiled.core
        lines = _explain_header(compiled)
        body = core.body
        # The memoised evaluator the run used, still holding the run's
        # plan decisions until ``explain_executors`` re-enters the query.
        evaluator = (
            self._evaluator_for(config, None, None) if config.optimize else None
        )
        if isinstance(body, ast.QueryBlock):
            plan = tracer.plan_for(body)
            if plan is not None:
                notes = evaluator.plan_notes(body)
                if metrics.batched and body.group_by is not None:
                    notes.append(groups_note(evaluator, core, plan, traced=True))
                lines.append(plan.explain(tracer, notes))
            elif body.from_ is not None:
                # Only the oracle enumerates FROM without a plan.
                lines.extend([_REFERENCE_PLAN, "FROM"])
                lines.extend(tracer.reference_lines(list(body.from_)))
            else:
                lines.append("plan: expression only (no FROM clause)")
            stages = tracer.stages_for(body)
            if stages:
                lines.append("")
                lines.append("stages:")
                width = max(len(stats.label) for stats in stages)
                lines.extend(
                    f"  {stats.label.ljust(width)}{stats.suffix()}"
                    for stats in stages
                )
        else:
            lines.append(f"plan: none ({NOT_A_BLOCK})")
        lines.append("")
        if evaluator is not None:
            lines.extend(explain_executors(evaluator, core, tracer))
        else:
            lines.extend(_REFERENCE_EXECUTORS)
        lines.append("")
        lines.append("phases:")
        lines.extend("  " + line for line in metrics.format_phases())
        if is_collection(result):
            lines.append(f"rows returned: {len(result)}")
        return "\n".join(lines)

    def trace(
        self,
        query: str,
        parameters: Optional[Sequence[Any]] = None,
        context: Optional[TraceContext] = None,
        **dials: Any,
    ) -> TraceContext:
        """Execute the query and return its structured span trace.

        The returned :class:`~repro.observability.TraceContext` holds
        one span tree for the run — the ``query`` root, the
        ``parse``/``rewrite``/``plan``/``execute`` phases, every
        physical plan operator (or nested-loop FROM item) and every
        clause-pipeline stage — exportable via
        ``to_chrome_trace()`` (Perfetto / ``chrome://tracing``),
        ``to_collapsed()`` (flamegraph.pl / speedscope) and
        ``format_tree()`` (the REPL's ``.trace``).

        The query really runs (same semantics, ``dials``, limits and
        metrics recording as ``execute``); pass ``context`` to
        accumulate several queries into one trace, as ``--trace-out``
        does.  Errors propagate exactly as from ``execute`` — pass your
        own ``context`` when you want to keep the partial trace of a
        failing query.
        """
        trace_context = (
            context if context is not None else TraceContext(name=query[:120])
        )
        self.execute(
            query,
            parameters=parameters,
            tracer=ExecTracer(trace=trace_context),
            **dials,
        )
        return trace_context

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release observability resources (open sink file handles).

        Queries remain executable afterwards — a JSON-lines sink
        reopens its file on the next record — so ``close`` is about
        flushing and releasing descriptors, not ending the database's
        life.  Idempotent.
        """
        self.metrics.close()
        if self._query_store is not None:
            self._query_store.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Data formats
    # ------------------------------------------------------------------

    def load(self, name: str, path: str, format: Optional[str] = None) -> None:
        """Load a file into a named value using a format codec.

        ``format`` defaults from the file extension (``.json``, ``.csv``,
        ``.cbor``, ``.ion``, ``.sqlpp``).
        """
        from repro.formats.registry import read_file

        self.set(name, read_file(path, format))

    def dump(self, name: str, path: str, format: Optional[str] = None) -> None:
        """Write a named value to a file using a format codec."""
        from repro.formats.registry import write_file

        write_file(self.get(name), path, format)

    def load_value(self, name: str, text: str, format: str = "sqlpp") -> None:
        """Load a named value from literal text in a given format."""
        from repro.formats.registry import read_text

        self.set(name, read_text(text, format))


#: What EXPLAIN [ANALYZE] says under ``optimize=False``: nothing is
#: planned and no executor is chosen, the oracle runs the query.
_REFERENCE_PLAN = "plan: reference pipeline (optimize=False)"
_REFERENCE_EXECUTORS = [
    "executor: reference (optimize=False)",
    "kernels: none (no block runs on the batch executor)",
]


def _explain_header(compiled: CompiledQuery) -> List[str]:
    """The ``core:`` / ``rewrites:`` lines EXPLAIN and EXPLAIN ANALYZE
    open with."""
    return [
        f"core: {print_ast(compiled.core)}",
        f"rewrites: {_format_rewrites(compiled.fired)}",
        "",
    ]


def _format_rewrites(fired: Tuple[Any, ...]) -> str:
    """The EXPLAIN ``rewrites:`` line: per-rule fire counts in registry
    order, or ``none``."""
    if not fired:
        return "none"
    counts: "OrderedDict[str, int]" = OrderedDict()
    names: Dict[str, str] = {}
    for result in fired:
        counts[result.code] = counts.get(result.code, 0) + 1
        names[result.code] = result.name
    return ", ".join(
        f"{code} {names[code]} x{count}" for code, count in counts.items()
    )


def _missing_to_null(result: Any) -> Any:
    """Replace top-level MISSING elements with NULL (client adaptation)."""
    if result is MISSING:
        return None
    if isinstance(result, Bag):
        return Bag(None if item is MISSING else item for item in result)
    if isinstance(result, list):
        return [None if item is MISSING else item for item in result]
    return result
