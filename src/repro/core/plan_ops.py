"""Physical FROM-clause operators — the planner's target language.

The SQL++ Core defines ``FROM`` as left-correlated nested loops (paper,
Section III-A); that definition is a *specification*, not an execution
strategy.  This module provides the physical operators the planner
(:mod:`repro.core.planner`) compiles a Core FROM clause into:

* :class:`ScanOp` — enumerate one range/UNPIVOT item, optionally
  applying pushed-down filter conjuncts before the bindings enter any
  cross product;
* :class:`HashJoinOp` — an equi-join executed by hashing the right
  (build) side once and probing per left binding, with LEFT-join NULL
  padding and the Core rule that NULL/MISSING keys never match;
* :class:`MaterializeJoinOp` — a nested loop whose uncorrelated right
  side is materialized once instead of per left binding (exact
  reference semantics for arbitrary ``ON`` predicates);
* :class:`LateralJoinOp` — the paper's left-correlation (``FROM hr.emp
  AS e, e.projects AS p`` and JOINs with a lateral right side): the
  right item ranges over an expression of the left variables, a whole
  left chunk flattened at a time on the chunk protocol.

Operators follow the Volcano (iterator) model: the primary interface is
:meth:`PlanOp.iter_bindings`, a generator yielding binding dicts one at
a time, so a downstream consumer (LIMIT, EXISTS, IN) can stop
pulling and the whole pipeline stops producing.  Probe sides stream;
only what *must* be materialized is — the hash-join build table and the
materialize-once right side of an uncorrelated nested loop (both built
lazily, on the first probe-side row).

Every operator must be observationally equivalent to the reference
interpreter (:mod:`repro.core.reference`, which this module never
calls): the same bag under permissive typing, and under strict typing
the same bag or an error of the class the reference raises (the planner
withholds :class:`HashJoinOp`, pushed filters and :class:`EmptyOp` there
— docs/PLANNER.md, "Strict typing mode").  The property tests
``tests/properties/test_planner_equivalence.py`` and
``tests/properties/test_streaming_equivalence.py`` enforce this on
generated workloads.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro.core.clauses import item_vars, pad_right_vars
from repro.datamodel.equality import group_key
from repro.datamodel.values import Bag, LazyBag, MISSING, Struct, type_name
from repro.errors import TypeCheckError
from repro.syntax import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.environment import Environment
    from repro.core.evaluator import Evaluator

Binding = Dict[str, Any]

#: Target rows per chunk in the batch protocol.  Chunks are advisory —
#: an operator may emit slightly larger or smaller ones — so the value
#: trades Python loop overhead against cache residency, not semantics.
CHUNK_ROWS = 1024

#: Rows between cooperative :class:`ResourceGovernor` checks inside a
#: batch loop.  A timeout or ``max_rows`` breach must fire *mid-chunk*
#: (a chunk of slow rows cannot postpone enforcement by ~1024 rows), so
#: batch producers account rows to the governor in increments of at
#: most this many.
GOVERNOR_TICK = 64


def close_iter(it) -> None:
    """Close a generator-backed iterator promptly (no-op for plain
    iterators); used so early-terminating consumers release upstream
    producers deterministically instead of waiting for garbage
    collection."""
    close = getattr(it, "close", None)
    if close is not None:
        close()


class PlanOp:
    """Base class: produces binding dicts for one FROM item subtree."""

    #: Variables this operator binds (set by the planner).
    vars: List[str]

    def __init__(self) -> None:
        self.vars = []
        #: Pushed-down WHERE conjuncts applied to this operator's output.
        self.filters: List[ast.Expr] = []
        #: The planner's estimated output rows (post attached filters),
        #: set by :func:`repro.core.planner.annotate_estimates` when
        #: statistics are available; None means "no estimate" and
        #: renders as ``est=?`` on EXPLAIN ANALYZE lines.
        self.est_rows: Optional[float] = None
        #: Where ``est_rows`` came from: ``"model"`` (selectivity math
        #: over collected statistics) or ``"feedback"`` (an observed
        #: actual from the query store's cardinality feedback loop).
        #: Feedback estimates are ground truth for *this* plan shape
        #: and may legitimately exceed what the model derives from the
        #: children, so the structural verifier
        #: (:mod:`repro.analysis.verify_plan`) only enforces the
        #: join-output <= product-of-inputs monotonicity law on
        #: model-derived estimates.
        self.est_source: str = "model"

    def iter_bindings(
        self, evaluator: "Evaluator", env: "Environment"
    ) -> Iterator[Binding]:
        """Yield this operator's binding rows one at a time, with pushed
        filters applied per row inside the stream and (when the
        evaluator carries an :class:`~repro.observability.ExecTracer`)
        instrumentation.  Closing the generator closes the whole
        upstream pipeline, so consumers that stop early (LIMIT, top-K,
        EXISTS) stop production too.

        Subclasses implement :meth:`_iter_produce`; recorded timing is
        inclusive of child operators, as is conventional for EXPLAIN
        ANALYZE output, and for a stream it means "time spent inside
        ``next()`` of this operator", which includes its children's
        production time but not the consumer's."""
        tracer = evaluator.tracer
        if tracer is not None:
            if tracer.timing:
                return self._iter_traced(evaluator, env, tracer)
            return self._iter_counted(evaluator, env, tracer)
        if not self.filters:
            return self._iter_produce(evaluator, env)
        return self._iter_filtered(evaluator, env)

    def iter_chunks(
        self,
        evaluator: "Evaluator",
        env: "Environment",
        morsel: Optional[Tuple[int, int]] = None,
        tables: Optional[Dict[int, Dict[Tuple, List[Binding]]]] = None,
    ) -> Iterator[List[Binding]]:
        """Yield this operator's binding rows in chunks of ~CHUNK_ROWS.

        The batch protocol: downstream consumers process a Python list
        of binding dicts at a time, so compiled expressions map over
        whole chunks instead of crossing a generator frame per row.
        This default adapter batches :meth:`iter_bindings` — every
        operator participates from day one; operators with a native
        chunk implementation (scan, hash join, lateral) override it and
        skip the per-row generator entirely.

        ``morsel`` is a ``(start, stop)`` row span over the operator's
        *base scan* for morsel-driven parallelism; only native
        implementations over materialized sources accept one.
        ``tables`` optionally maps ``id(op)`` to a prebuilt hash-join
        build table (shared copy-on-write across forked workers).
        """
        if morsel is not None:
            raise ValueError(
                f"{type(self).__name__} does not support morsel scans"
            )
        return _rechunk(self.iter_bindings(evaluator, env))

    def batch_kernels(self, evaluator: "Evaluator") -> List[Any]:
        """The chunk kernels this operator's native ``iter_chunks`` runs
        (from ``Evaluator.compiled_batch``, so compiled once per
        evaluator); empty for operators that batch through the row
        stream.  EXPLAIN reads their ``fallbacks``."""
        return []

    def _iter_produce(
        self, evaluator: "Evaluator", env: "Environment"
    ) -> Iterator[Binding]:
        raise NotImplementedError

    def _iter_filtered(
        self, evaluator: "Evaluator", env: "Environment"
    ) -> Iterator[Binding]:
        fns = [evaluator.compiled(predicate) for predicate in self.filters]
        for row in self._iter_produce(evaluator, env):
            row_env = env.extend(row)
            if all(fn(row_env) is True for fn in fns):
                yield row

    def _iter_traced(
        self, evaluator: "Evaluator", env: "Environment", tracer
    ) -> Iterator[Binding]:
        """The instrumented stream: counts rows in (produced) and out
        (surviving pushed filters) incrementally, and records the span
        and operator stats when the stream finishes — by exhaustion or
        by an early ``close()`` from a downstream consumer, in which
        case the counts cover exactly the rows that were pulled."""
        trace = tracer.trace
        fns = [evaluator.compiled(predicate) for predicate in self.filters]
        span = trace.begin(self.describe(), "operator") if trace is not None else None
        rows_in = 0
        rows_out = 0
        elapsed = 0.0
        source = self._iter_produce(evaluator, env)
        try:
            while True:
                started = perf_counter()
                try:
                    row = next(source)
                except StopIteration:
                    elapsed += perf_counter() - started
                    break
                rows_in += 1
                keep = True
                if fns:
                    row_env = env.extend(row)
                    keep = all(fn(row_env) is True for fn in fns)
                elapsed += perf_counter() - started
                if keep:
                    rows_out += 1
                    yield row
        finally:
            close_iter(source)
            if span is not None:
                trace.end(span, {"rows_in": rows_in, "rows_out": rows_out})
            tracer.record_op(self, rows_in, rows_out, elapsed)

    def _iter_counted(
        self, evaluator: "Evaluator", env: "Environment", tracer
    ) -> Iterator[Binding]:
        """Row counting without per-row clock reads: the cardinality-
        feedback mode (``ExecTracer(timing=False)``) still needs exact
        rows in/out — including under early termination — but must not
        pay two ``perf_counter`` calls per row on a sampled execution."""
        fns = [evaluator.compiled(predicate) for predicate in self.filters]
        rows_in = 0
        rows_out = 0
        source = self._iter_produce(evaluator, env)
        try:
            for row in source:
                rows_in += 1
                if fns:
                    row_env = env.extend(row)
                    if not all(fn(row_env) is True for fn in fns):
                        continue
                rows_out += 1
                yield row
        finally:
            close_iter(source)
            tracer.record_op(self, rows_in, rows_out, 0.0)

    # -- EXPLAIN -----------------------------------------------------------

    def describe(self) -> str:
        raise NotImplementedError

    def explain_lines(
        self, indent: int = 0, tracer=None, worst_id: Optional[int] = None
    ) -> List[str]:
        """Plan lines; with a tracer, annotated with runtime stats and
        the estimate-vs-actual comparison (``worst_id`` marks the
        operator with the plan's largest q-error)."""
        from repro.observability.tracer import estimate_suffix
        from repro.syntax.printer import print_ast

        line = "  " * indent + self.describe()
        if self.filters:
            rendered = " AND ".join(print_ast(f) for f in self.filters)
            line += f"  [filter: {rendered}]"
        if tracer is not None:
            stats = tracer.op_stats(self)
            if stats is not None:
                line += stats.suffix()
                line += estimate_suffix(
                    self.est_rows, stats.rows_out, worst=id(self) == worst_id
                )
        return [line] + self._child_lines(indent + 1, tracer, worst_id)

    def _child_lines(
        self, indent: int, tracer=None, worst_id: Optional[int] = None
    ) -> List[str]:
        return []


class EmptyOp(PlanOp):
    """A statically-proven zero-row pipeline.

    The planner emits one when abstract interpretation proves the
    block's WHERE conjunction can never be exactly TRUE under
    conditions where erasing the enumeration is unobservable
    (:func:`repro.analysis.absint.block_prune_reason`).  It still
    declares the variables the replaced FROM items would have bound, so
    downstream plumbing (EXPLAIN, the verifier, batch compilation)
    sees a well-formed operator; it just never yields a binding.
    """

    def __init__(self, variables: List[str], reason: str):
        super().__init__()
        self.vars = list(variables)
        self.reason = reason
        self.est_rows = 0.0

    def _iter_produce(self, evaluator, env):
        return iter(())

    def iter_chunks(self, evaluator, env, morsel=None, tables=None):
        # A morsel request would be a driver bug (there is no base scan
        # to partition), but answering it with emptiness is still exact.
        return iter(())

    def describe(self) -> str:
        return f"Empty ({self.reason})"


class ScanOp(PlanOp):
    """Enumerate one FromCollection / FromUnpivot item, then apply
    pushed filters before any cross product."""

    def __init__(self, item: ast.FromItem):
        super().__init__()
        self.item = item

    def _iter_produce(self, evaluator, env):
        return item_rows(evaluator, self.item, env)

    def iter_chunks(self, evaluator, env, morsel=None, tables=None):
        if not isinstance(self.item, ast.FromCollection):
            return super().iter_chunks(evaluator, env, morsel, tables)
        return self._iter_scan_chunks(evaluator, env, morsel)

    def morsel_rows(self, evaluator, env) -> Optional[int]:
        """Row count of a materialized FromCollection source, or None.

        The morsel driver partitions this range into spans; a lazy bag
        (or a non-collection singleton) has no cheap stable range, so
        such scans stay serial.
        """
        if not isinstance(self.item, ast.FromCollection):
            return None
        value = evaluator.compiled(self.item.expr)(env)
        if isinstance(value, LazyBag):
            return None
        if isinstance(value, (list, Bag)):
            return len(value)
        return None

    def batch_kernels(self, evaluator):
        if not isinstance(self.item, ast.FromCollection):
            return []
        row_vars = frozenset(self.vars)
        return [
            evaluator.compiled_batch(predicate, row_vars)
            for predicate in self.filters
        ]

    def _iter_scan_chunks(self, evaluator, env, morsel):
        tracer = evaluator.tracer
        trace = tracer.trace if tracer is not None else None
        span = (
            trace.begin(self.describe(), "operator") if trace is not None else None
        )
        filter_fns = self.batch_kernels(evaluator)
        rows_in = 0
        rows_out = 0
        elapsed = 0.0
        source = self._scan_chunks(evaluator, env, morsel)
        try:
            while True:
                started = perf_counter()
                try:
                    chunk = next(source)
                except StopIteration:
                    elapsed += perf_counter() - started
                    break
                rows_in += len(chunk)
                chunk = _apply_filters(chunk, filter_fns, env)
                elapsed += perf_counter() - started
                if chunk:
                    rows_out += len(chunk)
                    yield chunk
        finally:
            close_iter(source)
            if span is not None:
                trace.end(span, {"rows_in": rows_in, "rows_out": rows_out})
            if tracer is not None:
                tracer.record_op(self, rows_in, rows_out, elapsed)

    def _scan_chunks(self, evaluator, env, morsel):
        """Raw (pre-filter) chunks for one FromCollection: what
        :func:`lateral_bindings` says the source binds, cut into chunks,
        the governor told every GOVERNOR_TICK rows."""
        item = self.item
        alias = item.alias
        at = item.at_alias
        governor = evaluator.governor
        config = evaluator.config
        value = evaluator.compiled(item.expr)(env)
        elements, positions = lateral_bindings(item, value, config)
        if isinstance(elements, LazyBag):
            # Streams element-wise (materializing it would defeat its
            # purpose), ticking the governor as elements are pulled so a
            # slow source cannot defer a timeout to the chunk boundary.
            if morsel is not None:
                raise ValueError("cannot morsel-scan a lazy bag")
            pieces = flatten_lateral(
                item, [{}], [value], config, governor_tick(governor), False
            )
            for chunk, __ in pieces:
                yield chunk
            return
        if isinstance(elements, Bag):
            elements = elements.to_list()
        base = 0
        if morsel is not None:
            # A singleton binding belongs to the first morsel.
            base, stop = morsel
            elements = elements[base:stop]
        for start in range(0, len(elements), CHUNK_ROWS):
            piece = elements[start : start + CHUNK_ROWS]
            if governor is not None:
                _tick(governor, len(piece))
            if not at:
                yield [{alias: element} for element in piece]
            elif positions is None:
                yield [{alias: element, at: MISSING} for element in piece]
            else:
                origin = base + start
                yield [
                    {alias: element, at: origin + offset}
                    for offset, element in enumerate(piece)
                ]

    def describe(self) -> str:
        from repro.syntax.printer import print_ast

        if isinstance(self.item, ast.FromCollection):
            source = print_ast(self.item.expr)
            at = f" AT {self.item.at_alias}" if self.item.at_alias else ""
            return f"Scan {source} AS {self.item.alias}{at}"
        if isinstance(self.item, ast.FromUnpivot):
            source = print_ast(self.item.expr)
            return (
                f"Unpivot {source} AS {self.item.value_alias} "
                f"AT {self.item.at_alias}"
            )
        return f"Scan {type(self.item).__name__}"


class LateralJoinOp(PlanOp):
    """Left-correlated FROM: the right item ranges over an expression of
    the left side's variables, once per left binding.

    Both spellings of the paper's left-correlation plan to it — a comma
    item whose free names touch earlier variables (``FROM hr.emp AS e,
    e.projects AS p``: INNER, no ``ON``) and an explicit JOIN with a
    lateral right side.  The row form is the specification's nested
    loop (:func:`lateral_join_bindings`); when the right item is a plain
    range or UNPIVOT the chunk form flattens a whole left chunk at a
    time (:func:`flatten_lateral`) instead of re-entering the item
    enumeration per left row.
    """

    def __init__(
        self,
        left: PlanOp,
        right_item: ast.FromItem,
        kind: str,
        on: Optional[ast.Expr],
        right_vars: List[str],
    ):
        super().__init__()
        self.left = left
        self.right_item = right_item
        self.kind = kind
        self.on = on
        self.right_vars = right_vars

    @property
    def native_chunks(self) -> bool:
        """Whether :meth:`iter_chunks` flattens natively (and so accepts
        a morsel for its base scan) rather than batching the row form."""
        return isinstance(
            self.right_item, (ast.FromCollection, ast.FromUnpivot)
        )

    def _iter_produce(self, evaluator, env):
        return lateral_join_bindings(
            evaluator, env, self.left.iter_bindings(evaluator, env),
            self.right_item, self.kind, self.on, self.right_vars,
            evaluator.governor,
        )

    def iter_chunks(self, evaluator, env, morsel=None, tables=None):
        if not self.native_chunks:
            return super().iter_chunks(evaluator, env, morsel, tables)
        return self._iter_lateral_chunks(evaluator, env, morsel, tables)

    def _kernels(self, evaluator):
        """``(source, ON or None, filters)``: the right item's source
        over the left variables, the rest over the flattened rows."""
        compiled = evaluator.compiled_batch
        out_vars = frozenset(self.vars)
        return (
            compiled(self.right_item.expr, frozenset(self.left.vars)),
            compiled(self.on, out_vars) if self.on is not None else None,
            [compiled(p, out_vars) for p in self.filters],
        )

    def batch_kernels(self, evaluator):
        if not self.native_chunks:
            return []
        source_fn, on_fn, filter_fns = self._kernels(evaluator)
        return [source_fn] + ([on_fn] if on_fn is not None else []) + filter_fns

    def _iter_lateral_chunks(self, evaluator, env, morsel, tables):
        tracer = evaluator.tracer
        trace = tracer.trace if tracer is not None else None
        span = (
            trace.begin(self.describe(), "operator") if trace is not None else None
        )
        source_fn, on_fn, filter_fns = self._kernels(evaluator)
        item = self.right_item
        config = evaluator.config
        governor = evaluator.governor
        tick = governor_tick(governor)
        is_left = self.kind == "LEFT"
        right_vars = self.right_vars
        rows_in = 0
        rows_out = 0
        elapsed = 0.0
        out: List[Binding] = []
        source = self.left.iter_chunks(
            evaluator, env, morsel=morsel, tables=tables
        )
        try:
            while True:
                started = perf_counter()
                try:
                    left_chunk = next(source)
                except StopIteration:
                    elapsed += perf_counter() - started
                    break
                #: Left rows below ``settled`` have had their LEFT pad
                #: decided; ``matched`` marks rows that kept a binding.
                settled = 0
                matched = bytearray(len(left_chunk)) if is_left else None
                pads = 0
                pieces = flatten_lateral(
                    item, left_chunk, source_fn(left_chunk, env), config,
                    tick, want_owners=is_left,
                )
                for rows, owners in pieces:
                    if on_fn is not None:
                        verdicts = on_fn(rows, env)
                        if is_left:
                            owners = [
                                owner
                                for owner, verdict in zip(owners, verdicts)
                                if verdict is True
                            ]
                        rows = [
                            row
                            for row, verdict in zip(rows, verdicts)
                            if verdict is True
                        ]
                    if is_left:
                        # Owners ascend, so a row of owner ``o`` proves
                        # every earlier left row complete: pad those
                        # that never matched, in left order.
                        merged: List[Binding] = []
                        for row, owner in zip(rows, owners):
                            while settled < owner:
                                if not matched[settled]:
                                    merged.append(
                                        pad_right_vars(
                                            left_chunk[settled], right_vars
                                        )
                                    )
                                    pads += 1
                                settled += 1
                            matched[owner] = 1
                            merged.append(row)
                        rows = merged
                    rows_in += len(rows)
                    if out:
                        out.extend(rows)
                    else:
                        out = rows
                    if len(out) >= CHUNK_ROWS:
                        ready = _apply_filters(out, filter_fns, env)
                        out = []
                        rows_out += len(ready)
                        elapsed += perf_counter() - started
                        if ready:
                            yield ready
                        started = perf_counter()
                if is_left:
                    tail = [
                        pad_right_vars(left_chunk[index], right_vars)
                        for index in range(settled, len(left_chunk))
                        if not matched[index]
                    ]
                    rows_in += len(tail)
                    out.extend(tail)
                    if governor is not None:
                        _tick(governor, pads + len(tail))
                elapsed += perf_counter() - started
            started = perf_counter()
            out = _apply_filters(out, filter_fns, env)
            rows_out += len(out)
            elapsed += perf_counter() - started
            if out:
                yield out
        finally:
            close_iter(source)
            if span is not None:
                trace.end(span, {"rows_in": rows_in, "rows_out": rows_out})
            if tracer is not None:
                tracer.record_op(self, rows_in, rows_out, elapsed)

    def describe(self) -> str:
        from repro.syntax.printer import print_ast

        on = f" ON {print_ast(self.on)}" if self.on is not None else ""
        return f"Lateral[{self.kind}]{on}"

    def _child_lines(
        self, indent: int, tracer=None, worst_id: Optional[int] = None
    ) -> List[str]:
        from repro.syntax.printer import print_ast

        lines = self.left.explain_lines(indent, tracer, worst_id)
        lines.append("  " * indent + "lateral: " + print_ast(self.right_item))
        return lines


class MaterializeJoinOp(PlanOp):
    """Nested loop with the uncorrelated right side materialized once.

    Exact reference semantics for any ``ON`` predicate (same pairs, same
    evaluation order); the saving is that the right side's enumeration
    cost is paid once instead of once per left binding.
    """

    def __init__(
        self,
        left: PlanOp,
        right: PlanOp,
        kind: str,
        on: Optional[ast.Expr],
        right_vars: List[str],
    ):
        super().__init__()
        self.left = left
        self.right = right
        self.kind = kind
        self.on = on
        self.right_vars = right_vars

    def _iter_produce(self, evaluator, env):
        governor = evaluator.governor
        on_fn = evaluator.compiled(self.on) if self.on is not None else None
        # The right side materializes only once a left row exists: the
        # reference never enumerates the right of an empty left side
        # (error parity), and a closed stream never pays for it.
        right_rows: Optional[List[Binding]] = None
        for left_binding in self.left.iter_bindings(evaluator, env):
            if right_rows is None:
                right_rows = list(self.right.iter_bindings(evaluator, env))
            matched = False
            for right_binding in right_rows:
                combined = {**left_binding, **right_binding}
                if on_fn is not None and on_fn(env.extend(combined)) is not True:
                    continue
                matched = True
                if governor is not None:
                    governor.add(1)
                yield combined
            if self.kind == "LEFT" and not matched:
                if governor is not None:
                    governor.add(1)
                yield pad_right_vars(left_binding, self.right_vars)

    def describe(self) -> str:
        from repro.syntax.printer import print_ast

        on = f" ON {print_ast(self.on)}" if self.on is not None else ""
        return f"NestedLoopJoin[{self.kind}] (right side materialized once){on}"

    def _child_lines(
        self, indent: int, tracer=None, worst_id: Optional[int] = None
    ) -> List[str]:
        right = self.right.explain_lines(indent, tracer, worst_id)
        right[0] += "  [materialized once]"
        return self.left.explain_lines(indent, tracer, worst_id) + right


class HashJoinOp(PlanOp):
    """Hash equi-join: build a hash table over the right side once,
    probe it per left binding.

    Key semantics follow Core equality (:func:`repro.functions.operators
    .equals`): a NULL or MISSING key component makes the ``ON``
    conjunct non-TRUE, so such rows never match — they are skipped on
    both sides (and LEFT-padded on the probe side).  Non-absent keys
    hash by :func:`repro.datamodel.equality.group_key`, whose identity
    coincides with the deep equality ``=`` uses on non-absent values.

    ``residual`` holds the non-equi conjuncts of a conjunctive ``ON``;
    they are evaluated per key-matching pair, like the reference.
    """

    def __init__(
        self,
        left: PlanOp,
        right: PlanOp,
        kind: str,
        left_keys: List[ast.Expr],
        right_keys: List[ast.Expr],
        residual: List[ast.Expr],
        right_vars: List[str],
    ):
        super().__init__()
        self.left = left
        self.right = right
        self.kind = kind
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.right_vars = right_vars

    def _iter_produce(self, evaluator, env):
        governor = evaluator.governor
        left_key_fns = [evaluator.compiled(key) for key in self.left_keys]
        right_key_fns = [evaluator.compiled(key) for key in self.right_keys]
        residual_fns = [evaluator.compiled(p) for p in self.residual]

        # The probe (left) side streams; the build table is the one
        # thing a hash join *must* materialize, and it is built lazily
        # on the first probe row so an empty or early-closed probe side
        # never pays for (or observes errors from) the build side.
        table: Optional[Dict[Tuple, List[Binding]]] = None
        for left_binding in self.left.iter_bindings(evaluator, env):
            if table is None:
                table = {}
                for right_binding in self.right.iter_bindings(evaluator, env):
                    key = _key_tuple(right_key_fns, env.extend(right_binding))
                    if key is None:
                        continue  # absent key: can never satisfy the equi-ON
                    table.setdefault(key, []).append(right_binding)
            key = _key_tuple(left_key_fns, env.extend(left_binding))
            matched = False
            for right_binding in (table.get(key, ()) if key is not None else ()):
                combined = {**left_binding, **right_binding}
                if residual_fns:
                    combined_env = env.extend(combined)
                    if not all(fn(combined_env) is True for fn in residual_fns):
                        continue
                matched = True
                if governor is not None:
                    governor.add(1)
                yield combined
            if self.kind == "LEFT" and not matched:
                if governor is not None:
                    governor.add(1)
                yield pad_right_vars(left_binding, self.right_vars)

    def iter_chunks(self, evaluator, env, morsel=None, tables=None):
        return self._iter_join_chunks(evaluator, env, morsel, tables)

    def build_table(
        self, evaluator, env
    ) -> Dict[Tuple, List[Binding]]:
        """Materialize the build-side hash table chunk-at-a-time.

        Factored out of the probe loop so the morsel driver can build
        the table once in the parent process before forking: workers
        then share the pages copy-on-write instead of each re-building.
        """
        key_fns = self._kernels(evaluator)[1]
        table: Dict[Tuple, List[Binding]] = {}
        for chunk in self.right.iter_chunks(evaluator, env):
            key_columns = [fn(chunk, env) for fn in key_fns]
            for index, right_binding in enumerate(chunk):
                parts = []
                for column in key_columns:
                    value = column[index]
                    if value is None or value is MISSING:
                        parts = None
                        break  # absent key: can never satisfy the equi-ON
                    parts.append(group_key(value))
                if parts is not None:
                    table.setdefault(tuple(parts), []).append(right_binding)
        return table

    def _kernels(self, evaluator):
        """``(probe key, build key, residual, filter)`` kernel lists."""
        compiled = evaluator.compiled_batch
        left_vars = frozenset(self.left.vars)
        right_vars = frozenset(self.right.vars)
        out_vars = frozenset(self.vars)
        return (
            [compiled(key, left_vars) for key in self.left_keys],
            [compiled(key, right_vars) for key in self.right_keys],
            [compiled(p, out_vars) for p in self.residual],
            [compiled(p, out_vars) for p in self.filters],
        )

    def batch_kernels(self, evaluator):
        return [fn for fns in self._kernels(evaluator) for fn in fns]

    def _iter_join_chunks(self, evaluator, env, morsel, tables):
        tracer = evaluator.tracer
        governor = evaluator.governor
        trace = tracer.trace if tracer is not None else None
        span = (
            trace.begin(self.describe(), "operator") if trace is not None else None
        )
        left_key_fns, __, residual_fns, filter_fns = self._kernels(evaluator)
        is_left = self.kind == "LEFT"
        right_vars = self.right_vars
        table = tables.get(id(self)) if tables is not None else None
        rows_in = 0
        rows_out = 0
        elapsed = 0.0
        out: List[Binding] = []
        source = self.left.iter_chunks(
            evaluator, env, morsel=morsel, tables=tables
        )
        try:
            while True:
                started = perf_counter()
                try:
                    probe = next(source)
                except StopIteration:
                    elapsed += perf_counter() - started
                    break
                if table is None:
                    # Built lazily on the first probe chunk, like the
                    # streaming path: an empty or early-closed probe
                    # side never pays for (or observes errors from) the
                    # build side.
                    table = self.build_table(evaluator, env)
                key_columns = [fn(probe, env) for fn in left_key_fns]
                # Gather candidate pairs for the whole probe chunk, then
                # batch-evaluate residual conjuncts over all candidates.
                candidates: List[Binding] = []
                candidate_left: List[int] = []
                for index, left_binding in enumerate(probe):
                    parts = []
                    for column in key_columns:
                        value = column[index]
                        if value is None or value is MISSING:
                            parts = None
                            break
                        parts.append(group_key(value))
                    if parts is None:
                        continue
                    for right_binding in table.get(tuple(parts), ()):
                        candidates.append({**left_binding, **right_binding})
                        candidate_left.append(index)
                keep = [True] * len(candidates)
                for fn in residual_fns:
                    verdicts = fn(candidates, env)
                    for pair, verdict in enumerate(verdicts):
                        if keep[pair] and verdict is not True:
                            keep[pair] = False
                per_left: List[List[Binding]] = [[] for _ in probe]
                for pair, combined in enumerate(candidates):
                    if keep[pair]:
                        per_left[candidate_left[pair]].append(combined)
                produced = 0
                for index, left_binding in enumerate(probe):
                    matches = per_left[index]
                    if matches:
                        out.extend(matches)
                        produced += len(matches)
                    elif is_left:
                        out.append(pad_right_vars(left_binding, right_vars))
                        produced += 1
                if governor is not None:
                    _tick(governor, produced)
                rows_in += produced
                ready: Optional[List[Binding]] = None
                if len(out) >= CHUNK_ROWS:
                    ready = _apply_filters(out, filter_fns, env)
                    out = []
                    rows_out += len(ready)
                elapsed += perf_counter() - started
                if ready:
                    yield ready
            if out:
                started = perf_counter()
                out = _apply_filters(out, filter_fns, env)
                rows_out += len(out)
                elapsed += perf_counter() - started
                if out:
                    yield out
        finally:
            close_iter(source)
            if span is not None:
                trace.end(span, {"rows_in": rows_in, "rows_out": rows_out})
            if tracer is not None:
                tracer.record_op(self, rows_in, rows_out, elapsed)

    def describe(self) -> str:
        from repro.syntax.printer import print_ast

        keys = ", ".join(
            f"{print_ast(lk)} = {print_ast(rk)}"
            for lk, rk in zip(self.left_keys, self.right_keys)
        )
        text = f"HashJoin[{self.kind}] key ({keys})"
        if self.residual:
            residual = " AND ".join(print_ast(p) for p in self.residual)
            text += f" residual ({residual})"
        return text

    def _child_lines(
        self, indent: int, tracer=None, worst_id: Optional[int] = None
    ) -> List[str]:
        prefix = "  " * indent
        left = self.left.explain_lines(indent + 1, tracer, worst_id)
        right = self.right.explain_lines(indent + 1, tracer, worst_id)
        return (
            [prefix + "probe:"] + left + [prefix + "build:"] + right
        )


def walk_ops(op: PlanOp) -> List[PlanOp]:
    """Pre-order enumeration of an operator tree — the deterministic
    index space parallel worker tallies are keyed by (identical in
    parent and forked children since the tree itself is inherited)."""
    result = [op]
    for attr in ("left", "right"):
        child = getattr(op, attr, None)
        if child is not None:
            result.extend(walk_ops(child))
    return result


def _rechunk(source: Iterator[Binding]) -> Iterator[List[Binding]]:
    """Batch a row stream into chunks, closing it with the consumer."""
    try:
        chunk: List[Binding] = []
        for row in source:
            chunk.append(row)
            if len(chunk) >= CHUNK_ROWS:
                yield chunk
                chunk = []
        if chunk:
            yield chunk
    finally:
        close_iter(source)


def _apply_filters(chunk: List[Binding], filter_fns, env) -> List[Binding]:
    """The rows of ``chunk`` every pushed-filter kernel finds TRUE."""
    for fn in filter_fns:
        if not chunk:
            break
        verdicts = fn(chunk, env)
        chunk = [row for row, verdict in zip(chunk, verdicts) if verdict is True]
    return chunk


def _tick(governor, produced: int) -> None:
    """Account ``produced`` rows in steps of at most GOVERNOR_TICK, so a
    breach reports a tally within one tick of the row path's."""
    for offset in range(0, produced, GOVERNOR_TICK):
        governor.add(min(GOVERNOR_TICK, produced - offset))


def governor_tick(governor) -> Optional[Callable[[int], None]]:
    """:func:`flatten_lateral`'s ``tick`` for a governor (None: no limits)."""
    return partial(_tick, governor) if governor is not None else None


def item_rows(evaluator, item: ast.FromItem, env) -> Iterator[Binding]:
    """One FROM item's bindings in ``env``, streamed: the row form of
    :class:`ScanOp` and of a lateral right side (which no operator
    stands for — it re-ranges per left binding).  The one place the row
    pipeline tells the governor of an enumerated binding, one at a time,
    so a timeout or ``max_rows`` breach fires mid-stream; the source
    expression is evaluated here, which every caller reaches from inside
    a generator of its own — still "on first pull"."""
    if isinstance(item, ast.FromJoin):
        # Only as a lateral right side (the planner folds every other
        # join into an operator): the same nested loop, whose output the
        # accounting below counts, pads included.
        rows = lateral_join_bindings(
            evaluator, env, item_rows(evaluator, item.left, env),
            item.right, item.kind, item.on, item_vars(item.right),
        )
    else:
        rows = item_bindings(item, evaluator.compiled(item.expr)(env), evaluator.config)
    governor = evaluator.governor
    if governor is None:
        return rows
    return _governed(rows, governor)


def _governed(rows: Iterator[Binding], governor) -> Iterator[Binding]:
    try:
        for row in rows:
            governor.add(1)
            yield row
    finally:
        close_iter(rows)


def lateral_join_bindings(
    evaluator, env, left_source, right_item, kind, on, right_vars, governor=None
) -> Iterator[Binding]:
    """The left-correlated nested loop, streamed: ``right_item`` is
    enumerated once per left binding (:func:`item_rows`, which counts
    each right binding), ``on`` keeps a combined binding on TRUE, and a
    LEFT join pads an unmatched left binding — which requires draining
    the right side per left row.  ``governor`` is told of each padded
    row when no enclosing enumeration counts the join's output
    (:class:`LateralJoinOp`)."""
    on_fn = evaluator.compiled(on) if on is not None else None
    try:
        for left_binding in left_source:
            left_env = env.extend(left_binding)
            matched = False
            right_source = item_rows(evaluator, right_item, left_env)
            try:
                for right_binding in right_source:
                    combined = {**left_binding, **right_binding}
                    if on_fn is not None and on_fn(env.extend(combined)) is not True:
                        continue
                    matched = True
                    yield combined
            finally:
                close_iter(right_source)
            if kind == "LEFT" and not matched:
                if governor is not None:
                    governor.add(1)
                yield pad_right_vars(left_binding, right_vars)
    finally:
        close_iter(left_source)


def lateral_bindings(item: ast.FromItem, value: Any, config) -> Tuple[Any, Any]:
    """``(elements, AT values)`` that one range / UNPIVOT source value
    binds — the engine's one copy of the FROM-item case analysis the
    oracle spells out in ``ReferenceEvaluator._range_bindings`` /
    ``_unpivot_bindings`` (Section III-A).  AT values of ``None`` mean
    "MISSING for every element" (bags, singletons); a bag is returned
    as itself, so a :class:`LazyBag` is still pulled element by element.
    """
    if isinstance(item, ast.FromUnpivot):
        if isinstance(value, Struct):
            return value.values(), value.keys()
        if not config.is_permissive:
            raise TypeCheckError(f"UNPIVOT expects a tuple, got {type_name(value)}")
        if value is None or value is MISSING:
            return (), None
        return (value,), ("_1",)
    if isinstance(value, list):
        return value, range(len(value))
    if isinstance(value, Bag):
        return value, None
    if not config.is_permissive:
        raise TypeCheckError(f"FROM expects a collection, got {type_name(value)}")
    if value is None or value is MISSING:
        return (), None
    return (value,), None


def item_bindings(item: ast.FromItem, value: Any, config) -> Iterator[Binding]:
    """The binding dicts of one range / UNPIVOT item whose source
    evaluated to ``value``, lazily — the row form of
    :func:`flatten_lateral`."""
    elements, positions = lateral_bindings(item, value, config)
    alias = item.value_alias if isinstance(item, ast.FromUnpivot) else item.alias
    at = item.at_alias
    if not at:
        return ({alias: element} for element in elements)
    if positions is None:
        return ({alias: element, at: MISSING} for element in elements)
    return (
        {alias: element, at: position}
        for element, position in zip(elements, positions)
    )


def flatten_lateral(
    item: ast.FromItem,
    rows: List[Binding],
    column: List[Any],
    config,
    tick: Optional[Callable[[int], None]],
    want_owners: bool,
) -> Iterator[Tuple[List[Binding], List[int]]]:
    """Range a FromCollection / FromUnpivot item over ``column`` (its
    source evaluated per row of ``rows``), yielding ``(flat, owners)``
    slices: each row extended with each binding its value produces, and
    (when ``want_owners``) the index of the row every flat row extends.

    Slices are cut at ~CHUNK_ROWS whatever the collections' sizes, so a
    row holding a huge or lazy collection never materializes it whole;
    ``tick`` (the governor's accounting, :func:`governor_tick`) is told
    of the rows produced since its last call.
    """
    unpivot = isinstance(item, ast.FromUnpivot)
    alias = item.value_alias if unpivot else item.alias
    at = item.at_alias
    #: The overwhelmingly common source: a materialized array (tuple,
    #: for UNPIVOT) of chunk size or less.  Runs of them flatten in one
    #: comprehension; anything else takes ``lateral_bindings``.
    simple = Struct if unpivot else list
    flat: List[Binding] = []
    owners: List[int] = []

    def extend_run(start: int, stop: int) -> None:
        pairs = zip(rows[start:stop], column[start:stop])
        if unpivot:
            flat.extend(
                [
                    {**row, alias: attr_value, at: name}
                    for row, value in pairs
                    for name, attr_value in zip(value._shape.names, value._values)
                ]
            )
        elif at:
            flat.extend(
                [
                    {**row, alias: element, at: position}
                    for row, value in pairs
                    for position, element in enumerate(value)
                ]
            )
        else:
            flat.extend(
                [{**row, alias: element} for row, value in pairs for element in value]
            )
        if want_owners:
            sizes = map(len, column[start:stop])
            owners.extend(
                chain.from_iterable(map(repeat, range(start, stop), sizes))
            )

    start = size = 0  # the pending run column[start:owner] and its row count
    for owner, value in enumerate(column):
        quick = type(value) is simple and len(value) <= CHUNK_ROWS
        if quick and size + len(value) <= CHUNK_ROWS:
            size += len(value)
            continue
        if size:
            extend_run(start, owner)
            if tick is not None:
                tick(size)
            if len(flat) >= CHUNK_ROWS:
                yield flat, owners
                flat, owners = [], []
        if quick:
            start, size = owner, len(value)
            continue
        start, size = owner + 1, 0
        row = rows[owner]
        pending = 0
        elements, positions = lateral_bindings(item, value, config)
        if positions is None:
            positions = repeat(MISSING)  # bags have no positions
        for element, position in zip(elements, positions):
            binding = {**row, alias: element}
            if at:
                binding[at] = position
            flat.append(binding)
            if want_owners:
                owners.append(owner)
            pending += 1
            if pending >= GOVERNOR_TICK:
                if tick is not None:
                    tick(pending)
                pending = 0
            if len(flat) >= CHUNK_ROWS:
                yield flat, owners
                flat, owners = [], []
        if pending and tick is not None:
            tick(pending)
    if size:
        extend_run(start, len(column))
        if tick is not None:
            tick(size)
    if flat:
        yield flat, owners


def _key_tuple(key_fns, env) -> Optional[Tuple]:
    """The composite hash key for one binding, or None when any
    component is NULL/MISSING (Core equality: such keys never match)."""
    parts = []
    for fn in key_fns:
        value = fn(env)
        if value is None or value is MISSING:
            return None
        parts.append(group_key(value))
    return tuple(parts)
