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
  left chunk flattened at a time.

One protocol: an operator yields its bindings only as *chunks*
(:class:`repro.core.chunk.Chunk`: a row count and one column per bound
variable) from :meth:`PlanOp.iter_chunks`, whose ``size`` bounds one
pull.  No chunk is longer than ``size``, and an operator pulls from its
source and evaluates expressions at most one slice of ``size`` rows
ahead of the chunk it yields; at ``size=1`` each operator pulls,
evaluates and tells the governor exactly what the specification's
nested loop does, one binding at a time, in the same order, before it
yields.  The executor and the typing mode pick ``size``: the batch
executor pulls :data:`CHUNK_ROWS`, and so does the stream when typing is
permissive and its consumer drains the block; the stream pulls one-row
chunks where row order is observable — a consumer that can stop early
(unordered LIMIT / OFFSET, EXISTS, IN) and strict typing, where it is
the replay target and column-major kernels would change which error
surfaces.  Closing the iterator closes the whole upstream pipeline.
Only what *must* be materialized is — the hash-join build table and the
materialize-once right side (both built lazily, on the first left
chunk).  A scan of a catalog collection binds its alias as positions
into the collection (:meth:`Catalog.column_source`); filters and joins
take positions as they take columns.

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
from itertools import chain, count, islice, repeat
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.core.chunk import Chunk, cut, survivors, taken
from repro.datamodel.equality import group_key
from repro.datamodel.values import Bag, LazyBag, MISSING, Struct, type_name
from repro.errors import TypeCheckError
from repro.syntax import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.environment import Environment
    from repro.core.evaluator import Evaluator

#: Rows per chunk where row order is not observable (module docstring):
#: an upper bound — filtered or final chunks are smaller — trading
#: Python loop overhead against cache residency, not semantics.
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
    """Base class: produces the binding chunks of one FROM item subtree."""

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

    def iter_chunks(
        self,
        evaluator: "Evaluator",
        env: "Environment",
        size: int = CHUNK_ROWS,
        morsel: Optional[Tuple[int, int]] = None,
    ) -> Iterator[Chunk]:
        """Yield this operator's binding rows in chunks of at most
        ``size`` rows, its pushed filters applied — the one way an
        operator yields bindings (module docstring).

        With an :class:`~repro.observability.ExecTracer` the operator's
        rows in (produced) and out (surviving its filters) are counted
        as they pass, and its span and stats recorded when the iterator
        finishes — by exhaustion or by an early ``close()``, in which
        case the counts cover exactly the rows that were pulled.  The
        clock is read only under a timing tracer; recorded time is
        inclusive of child operators, as is conventional for EXPLAIN
        ANALYZE.

        ``morsel`` is a ``(start, stop)`` row span over the operator's
        *base scan*: a maintained GROUP BY fold scans only the elements
        appended since its last run.
        """
        chunks = self._produce(evaluator, env, size, morsel)
        tracer = evaluator.tracer
        if tracer is None and not self.filters:
            return chunks
        return self._observed(evaluator, env, chunks, tracer, size == 1)

    def _produce(
        self, evaluator, env, size: int, morsel
    ) -> Iterator[Chunk]:
        """The operator's rows before its pushed filters, in chunks of
        at most ``size``, each told to the governor before it is
        yielded."""
        raise NotImplementedError

    def _kernels(self, evaluator: "Evaluator", one_row: bool = False) -> List[Any]:
        """The chunk kernels the operator itself runs (join keys and
        conditions, a lateral source); ``one_row`` asks for the kernels
        of one-row pulls (``Evaluator.compiled_batch``)."""
        return []

    def _filter_kernels(
        self, evaluator: "Evaluator", one_row: bool = False
    ) -> List[Any]:
        row_vars = frozenset(self.vars)
        return [evaluator.compiled_batch(p, row_vars, one_row) for p in self.filters]

    def batch_kernels(self, evaluator: "Evaluator") -> List[Any]:
        """Every chunk kernel this operator runs — its own, then its
        pushed filters' — from ``Evaluator.compiled_batch``, so compiled
        once per evaluator.  EXPLAIN counts them and reads their
        ``fallbacks``."""
        return self._kernels(evaluator) + self._filter_kernels(evaluator)

    def _observed(
        self, evaluator, env, chunks, tracer, one_row
    ) -> Iterator[Chunk]:
        """``chunks`` through the pushed-filter kernels, counted (and,
        under a timing tracer, timed) for the tracer."""
        fns = self._filter_kernels(evaluator, one_row)
        timing = tracer is not None and tracer.timing
        trace = tracer.trace if tracer is not None else None
        span = trace.begin(self.describe(), "operator") if trace is not None else None
        rows_in = 0
        rows_out = 0
        elapsed = 0.0
        started = perf_counter() if timing else 0.0
        try:
            for chunk in chunks:
                rows_in += chunk.size
                for fn in fns:
                    verdicts = fn(chunk, env)
                    if chunk.size == 1:
                        # A one-row pull keeps or drops its chunk whole.
                        if verdicts[0] is not True:
                            break
                    else:
                        chunk = chunk.keep(survivors(verdicts))
                        if not chunk.size:
                            break
                else:
                    rows_out += chunk.size
                    if timing:
                        elapsed += perf_counter() - started
                    yield chunk
                    if timing:
                        started = perf_counter()
            if timing:
                elapsed += perf_counter() - started
        finally:
            close_iter(chunks)
            if span is not None:
                trace.end(span, {"rows_in": rows_in, "rows_out": rows_out})
            if tracer is not None:
                tracer.record_op(self, rows_in, rows_out, elapsed)

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

    def _produce(self, evaluator, env, size, morsel):
        return iter(())

    def describe(self) -> str:
        return f"Empty ({self.reason})"


class ScanOp(PlanOp):
    """Enumerate one FromCollection / FromUnpivot item, then apply
    pushed filters before any cross product."""

    def __init__(self, item: ast.FromItem):
        from repro.catalog.statistics import source_name

        super().__init__()
        self.item = item
        #: The catalog name a FromCollection ranges over, if its source
        #: is name-shaped; the scan reads that collection's stored
        #: columns when the name resolves to it (not to a variable).
        self.source_name = (
            source_name(item.expr) if isinstance(item, ast.FromCollection) else None
        )

    def _produce(self, evaluator, env, size, morsel):
        """What :func:`lateral_bindings` says the source binds, ``size``
        elements per pull."""
        item = self.item
        tick = governor_tick(evaluator.governor)
        value = evaluator.compiled(item.expr)(env)
        elements, positions = lateral_bindings(item, value, evaluator.config)
        if isinstance(elements, LazyBag):
            # Pulled element by element, never past the chunk being
            # built, the governor told as elements arrive so a slow
            # source cannot defer a timeout to the chunk boundary.
            for chunk, __ in flatten_lateral(
                item, Chunk(1, {}), [value], evaluator.config, tick, size
            ):
                yield chunk
            return
        alias = item.value_alias if isinstance(item, ast.FromUnpivot) else item.alias
        at = item.at_alias
        if size == 1:
            # One binding per pull, without slicing a chunk out of the
            # source each time: the stream's pull where order shows.
            if positions is None:
                positions = repeat(MISSING)  # bags have no positions
            for element, position in zip(elements, positions):
                if tick is not None:
                    tick(1)
                if at:
                    yield Chunk.of_row({alias: element, at: position})
                else:
                    yield Chunk.of_row({alias: element})
            return
        source = None
        if self.source_name is not None:
            # The catalog's stored columns (Catalog.column_source), when
            # the name resolved to its collection; plain mappings have none.
            column_source = getattr(evaluator._catalog, "column_source", None)
            if column_source is not None:
                source = column_source(self.source_name, value)
        if isinstance(elements, Bag):
            elements = elements._items  # only sliced: a span costs its length
        start, stop = (0, len(elements)) if morsel is None else morsel
        for first in range(start, stop, size):
            last = min(first + size, stop)
            if tick is not None:
                tick(last - first)
            if source is not None:
                chunk = Chunk(last - first, {}, {alias: (source, range(first, last))})
            else:
                chunk = Chunk(last - first, {alias: elements[first:last]})
            if at:
                chunk.columns[at] = (
                    [MISSING] * (last - first)
                    if positions is None
                    else list(positions[first:last])
                )
            yield chunk

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


class _JoinOp(PlanOp):
    """The nested loop every join operator is.

    For each chunk of left rows, :meth:`_pairing` yields the candidate
    rows the right side pairs them with, in left-major slices of at
    most ``size`` rows, with the index of the left row each candidate
    extends; the join's conditions (:meth:`_conditions`) keep a
    candidate on TRUE, a LEFT join pads each left row no candidate
    survived for — in left order — and the output is cut into chunks
    of at most ``size``.  At ``size=1`` that is the specification's
    loop: one left row, then one candidate at a time.
    """

    #: Whether the join tells the governor of each output row: a right
    #: side materialized or hashed was told of once, as it was built,
    #: while a lateral right side is told of as it is ranged
    #: (:func:`flatten_lateral`), before ``ON``.  LEFT pads always are.
    counts_matches = True

    def __init__(
        self,
        left: PlanOp,
        kind: str,
        on: Optional[ast.Expr],
        right_vars: List[str],
    ):
        super().__init__()
        self.left = left
        self.kind = kind
        self.on = on
        self.right_vars = right_vars

    def _kernels(self, evaluator, one_row=False):
        return self._conditions(evaluator, one_row)

    def _conditions(self, evaluator, one_row: bool = False) -> List[Any]:
        """The kernels that keep a candidate row: the ``ON``, if any."""
        if self.on is None:
            return []
        return [evaluator.compiled_batch(self.on, frozenset(self.vars), one_row)]

    def _pairing(self, evaluator, env, size, tick):
        """A function from one left chunk to its ``(candidates,
        owners)`` slices: chunks of left rows paired with right rows,
        and the index of the left row each candidate extends."""
        raise NotImplementedError

    def _produce(self, evaluator, env, size, morsel):
        source = self.left.iter_chunks(evaluator, env, size, morsel)
        try:
            yield from cut(self._pieces(evaluator, env, size, source), size)
        finally:
            close_iter(source)

    def _pieces(self, evaluator, env, size, source) -> Iterator[Chunk]:
        """The output rows in order, in pieces of at most ``size``."""
        conditions = self._conditions(evaluator, size == 1)
        tick = governor_tick(evaluator.governor)
        tell = tick if self.counts_matches else None
        is_left = self.kind == "LEFT"
        right_vars = self.right_vars
        pairing = self._pairing(evaluator, env, size, tick)
        for left_chunk in source:
            #: Left rows below ``settled`` have had their LEFT pad
            #: decided; ``matched`` marks rows that kept a candidate.
            settled = 0
            matched = bytearray(left_chunk.size) if is_left else None
            for rows, owners in pairing(left_chunk):
                for fn in conditions:
                    if not rows.size:
                        break
                    keep = survivors(fn(rows, env))
                    if len(keep) != rows.size:
                        rows = rows.take(keep)
                        if is_left:
                            owners = list(map(owners.__getitem__, keep))
                if tell is not None and rows.size:
                    tell(rows.size)
                if is_left:
                    # Owners ascend, so a row of owner ``o`` proves every
                    # earlier left row complete: pad those that never
                    # matched, in left order.
                    lefts: List[int] = []
                    picks: List[int] = []
                    for k, owner in enumerate(owners):
                        if settled < owner:
                            pads = [
                                j for j in range(settled, owner) if not matched[j]
                            ]
                            lefts += pads
                            picks += [-1] * len(pads)
                            settled = owner
                        matched[owner] = 1
                        lefts.append(owner)
                        picks.append(k)
                    if len(picks) != len(owners):
                        if tick is not None:
                            tick(len(picks) - len(owners))
                        rows = _padded(left_chunk, rows, lefts, picks, right_vars)
                if rows.size:
                    yield rows
            if is_left:
                pads = [j for j in range(settled, left_chunk.size) if not matched[j]]
                if pads:
                    if tick is not None:
                        tick(len(pads))
                    yield _padded(left_chunk, None, pads, None, right_vars)


class LateralJoinOp(_JoinOp):
    """Left-correlated FROM: the right item ranges over an expression of
    the left side's variables, once per left binding.

    Both spellings of the paper's left-correlation plan to it — a comma
    item whose free names touch earlier variables (``FROM hr.emp AS e,
    e.projects AS p``: INNER, no ``ON``) and an explicit JOIN with a
    lateral right side; the right item is always one range or UNPIVOT
    item (the planner re-associates a lateral join item into the
    left-deep tree).  Its source is a kernel over the left chunk, and
    the chunk is flattened (:func:`flatten_lateral`) instead of
    re-entering the item enumeration per left row.
    """

    counts_matches = False

    def __init__(
        self,
        left: PlanOp,
        right_item: ast.FromItem,
        kind: str,
        on: Optional[ast.Expr],
        right_vars: List[str],
    ):
        super().__init__(left, kind, on, right_vars)
        self.right_item = right_item

    def _kernels(self, evaluator, one_row=False):
        source = evaluator.compiled_batch(
            self.right_item.expr, frozenset(self.left.vars), one_row
        )
        return [source] + self._conditions(evaluator, one_row)

    def _pairing(self, evaluator, env, size, tick):
        source_fn = self._kernels(evaluator, size == 1)[0]
        item = self.right_item
        config = evaluator.config
        return lambda left_chunk: lateral_slices(
            item, left_chunk, source_fn, env, config, tick, size
        )

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


class MaterializeJoinOp(_JoinOp):
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
        super().__init__(left, kind, on, right_vars)
        self.right = right

    def _pairing(self, evaluator, env, size, tick):
        right_rows: Optional[Chunk] = None

        def pairing(left_chunk):
            nonlocal right_rows
            if right_rows is None:
                # Materialized only once a left row exists: the
                # reference never enumerates the right of an empty left
                # side (error parity), and a closed stream never pays.
                right_rows = Chunk.concat(
                    list(self.right.iter_chunks(evaluator, env, size))
                )
            every = range(len(right_rows))
            return _pair_slices(
                left_chunk, right_rows, [every] * len(left_chunk), size
            )

        return pairing

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


class HashJoinOp(_JoinOp):
    """Hash equi-join: a hash table over the right (build) side, probed
    with each left chunk's keys.

    The table is built once per execution, lazily, on the first probe
    chunk (an empty or early-closed probe side never pays for the build
    side, nor observes its errors): the build rows are kept as one chunk
    and the table maps each key to the positions of its build rows.  A
    probe chunk's output takes its left columns by owner and the build
    columns by match.

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
        super().__init__(left, kind, None, right_vars)
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual

    def _key_kernels(self, evaluator, one_row=False):
        """``(probe keys, build keys)`` kernel lists."""
        compiled = evaluator.compiled_batch
        left_vars = frozenset(self.left.vars)
        right_vars = frozenset(self.right.vars)
        return (
            [compiled(key, left_vars, one_row) for key in self.left_keys],
            [compiled(key, right_vars) for key in self.right_keys],
        )

    def _kernels(self, evaluator, one_row=False):
        probe, build = self._key_kernels(evaluator, one_row)
        return probe + build + self._conditions(evaluator, one_row)

    def _conditions(self, evaluator, one_row=False):
        out_vars = frozenset(self.vars)
        return [
            evaluator.compiled_batch(p, out_vars, one_row) for p in self.residual
        ]

    def _pairing(self, evaluator, env, size, tick):
        probe_fns, build_fns = self._key_kernels(evaluator, size == 1)
        table: Optional[Dict[Tuple, List[int]]] = None
        build: Optional[Chunk] = None

        def pairing(left_chunk):
            nonlocal table, build
            if table is None:
                # Built a chunk at a time on the first probe chunk (class
                # docstring): key → the positions of its build rows.
                table, chunks, base = {}, [], 0
                for chunk in self.right.iter_chunks(evaluator, env):
                    keys = _hash_keys(build_fns, chunk, env)
                    for position, key in enumerate(keys, base):
                        if key is not None:  # absent: never satisfies the equi-ON
                            found = table.get(key)
                            if found is None:
                                table[key] = [position]
                            else:
                                found.append(position)
                    chunks.append(chunk)
                    base += len(chunk)
                build = Chunk.concat(chunks)
            get = table.get
            matches = [
                () if key is None else get(key, ())
                for key in _hash_keys(probe_fns, left_chunk, env)
            ]
            return _pair_slices(left_chunk, build, matches, size)

        return pairing

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
    """Pre-order enumeration of an operator tree (build sides included)."""
    result = [op]
    for attr in ("left", "right"):
        child = getattr(op, attr, None)
        if child is not None:
            result.extend(walk_ops(child))
    return result


def scan_ops(op: PlanOp) -> List[ScanOp]:
    """The scans at or below ``op``, in :func:`walk_ops` order."""
    return [scan for scan in walk_ops(op) if isinstance(scan, ScanOp)]


def _padded(
    left_chunk: Chunk,
    pairs: Optional[Chunk],
    lefts: List[int],
    picks: Optional[List[int]],
    right_vars: List[str],
) -> Chunk:
    """LEFT-join output in left order: the left rows at ``lefts``, each
    with the right variables of the candidate at ``picks`` in ``pairs``
    or, at ``-1`` (every one without ``pairs``), NULL — the padding
    every join operator and the oracle share."""
    rows = left_chunk.take(lefts)
    for name in right_vars:
        if picks is None:
            column = [None] * len(lefts)
        else:
            values = pairs.column(name)
            column = [None if k < 0 else values[k] for k in picks]
        rows.bind(name, column)
    return rows


def _pair_slices(
    left_chunk: Chunk, right: Chunk, matches: List[Sequence[int]], size: int
) -> Iterator[Tuple[Chunk, List[int]]]:
    """Left-major ``(pairs, owners)`` slices of at most ``size`` rows:
    each left row paired with the right rows at the positions
    ``matches`` lists for it, and the index of the left row each pair
    extends.  The index lists are cut lazily, a slice at a time."""
    picks = chain.from_iterable(matches)
    owners = chain.from_iterable(map(repeat, count(), map(len, matches)))
    while True:
        chosen = list(islice(picks, size))
        if not chosen:
            return
        lefts = list(islice(owners, len(chosen)))
        yield left_chunk.take(lefts).merged(right.take(chosen)), lefts


def _hash_keys(key_fns, rows: Chunk, env) -> List[Optional[Tuple]]:
    """Each row's composite hash key, or None where a component is
    NULL/MISSING (Core equality: such keys never match)."""
    keys: List[Optional[Tuple]] = []
    for values in zip(*[fn(rows, env) for fn in key_fns]):
        key: Optional[Tuple] = ()
        for value in values:
            if value is None or value is MISSING:
                key = None
                break
            key += (group_key(value),)
        keys.append(key)
    return keys


def _tick(governor, produced: int) -> None:
    """Account ``produced`` rows in steps of at most GOVERNOR_TICK, none
    stepping over ``max_rows``: a breach fires, and reports its tally,
    on the row a row-at-a-time count would."""
    limit = governor.max_rows
    while produced > 0:
        step = min(GOVERNOR_TICK, produced)
        if limit is not None and governor.rows <= limit < governor.rows + step:
            step = limit + 1 - governor.rows
        governor.add(step)
        produced -= step


def governor_tick(governor) -> Optional[Callable[[int], None]]:
    """:func:`flatten_lateral`'s ``tick`` for a governor (None: no limits)."""
    return partial(_tick, governor) if governor is not None else None


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


def lateral_slices(
    item: ast.FromItem,
    rows: Chunk,
    source_fn: Callable[[Chunk, Any], List[Any]],
    env: Any,
    config,
    tick: Optional[Callable[[int], None]],
    size: int = CHUNK_ROWS,
    carry: Optional[frozenset] = None,
) -> Iterator[Tuple[Chunk, List[int]]]:
    """The one lateral flatten of a chunk (:func:`flatten_lateral`'s
    slices), ``source_fn`` being the item's source kernel; the slices
    bind only the variables of ``rows`` in ``carry`` (None: all).

    In columns mode (``size`` > 1), when ``item`` is ``v.attr AS p``
    and ``rows`` holds ``v`` as positions into a stored collection,
    ``p`` is bound as positions into that source's
    child of ``attr`` (:meth:`ColumnSource.flatten`), so ``p.attr``
    reads the child's stored columns.  The child encodes the permissive
    FROM cases; under strict typing it serves only a chunk whose every
    value is an array or a bag, and any other runs the per-value
    flatten, which decides the error."""
    expr = item.expr
    stored = None
    if size > 1 and type(item) is ast.FromCollection and type(expr) is ast.Path:
        base = expr.base
        if type(base) is ast.VarRef:
            stored = rows.stored.get(base.name)
    column = None
    if stored is not None and not config.is_permissive:
        column = source_fn(rows, env)
        if not all(type(value) is list or type(value) is Bag for value in column):
            stored = None
    if stored is None and column is None:
        column = source_fn(rows, env)
    if carry is not None:
        rows = rows.project(carry)
    if stored is None:
        return flatten_lateral(item, rows, column, config, tick, size)
    child, places, owners = stored[0].flatten(expr.attr, stored[1])
    return _child_slices(item, rows, child, places, owners, tick, size)


def _child_slices(item, rows, child, places, owners, tick, size):
    """:func:`lateral_slices` over a child source: ``size`` flattened
    rows at a time, the governor told of each slice before it is
    yielded."""
    alias, at = item.alias, item.at_alias
    for start in range(0, len(owners), size):
        local = owners[start : start + size] if len(owners) > size else owners
        picks = places[start : start + size]
        flat = rows.take(local)
        flat.bind_stored(alias, child, picks)
        if at:
            flat.bind(at, taken(child.at, picks))
        if tick is not None:
            tick(len(local))
        yield flat, local


def flatten_lateral(
    item: ast.FromItem,
    rows: Chunk,
    column: List[Any],
    config,
    tick: Optional[Callable[[int], None]],
    size: int = CHUNK_ROWS,
) -> Iterator[Tuple[Chunk, List[int]]]:
    """Range a FromCollection / FromUnpivot item over ``column`` (its
    source evaluated per row of ``rows``), yielding ``(flat, owners)``
    slices: the rows at ``owners`` (each row repeated once per binding
    its value produces) with the item's variables bound to those
    bindings.

    Slices hold at most ``size`` rows whatever the collections' sizes,
    so a row holding a huge or lazy collection never materializes it
    whole and is pulled no further than the slice being built; ``tick``
    (the governor's accounting, :func:`governor_tick`) is told of a
    slice's rows before it is yielded, and at least every GOVERNOR_TICK
    rows while one is built.
    """
    unpivot = isinstance(item, ast.FromUnpivot)
    alias = item.value_alias if unpivot else item.alias
    at = item.at_alias
    #: The overwhelmingly common source: a materialized array (tuple,
    #: for UNPIVOT) that fits the slice.  Runs of them flatten in one
    #: step; anything else takes ``lateral_bindings``.
    simple = Struct if unpivot else list
    owners: List[int] = []
    values: List[Any] = []
    names: List[Any] = []

    def emit() -> Tuple[Chunk, List[int]]:
        nonlocal owners, values, names
        flat = rows.take(owners)
        flat.bind(alias, values)
        if at:
            flat.bind(at, names)
        done = flat, owners
        owners, values, names = [], [], []
        return done

    def extend_run(start: int, stop: int) -> None:
        run = column[start:stop]
        if unpivot:
            values.extend(chain.from_iterable(value._values for value in run))
            sizes = [len(value._values) for value in run]
            if at:
                names.extend(chain.from_iterable(value._shape.names for value in run))
        else:
            values.extend(chain.from_iterable(run))
            sizes = list(map(len, run))
            if at:
                names.extend(chain.from_iterable(map(range, sizes)))
        owners.extend(chain.from_iterable(map(repeat, range(start, stop), sizes)))

    start = run = 0  # the pending run column[start:owner] and its row count
    for owner, value in enumerate(column):
        quick = type(value) is simple
        if quick:
            width = len(value._values) if unpivot else len(value)
            if len(owners) + run + width <= size:
                run += width
                continue
        if run:
            extend_run(start, owner)
            if tick is not None:
                tick(run)
            run = 0
        if quick and width <= size:
            # The run did not fit beside the slice: it starts the next.
            if owners:
                yield emit()
            start, run = owner, width
            continue
        start = owner + 1
        pending = 0
        elements, positions = lateral_bindings(item, value, config)
        if positions is None:
            positions = repeat(MISSING)  # bags have no positions
        for element, position in zip(elements, positions):
            owners.append(owner)
            values.append(element)
            names.append(position)
            pending += 1
            full = len(owners) >= size
            if full or pending >= GOVERNOR_TICK:
                if tick is not None:
                    tick(pending)
                pending = 0
                if full:
                    yield emit()
        if pending and tick is not None:
            tick(pending)
    if run:
        extend_run(start, len(column))
        if tick is not None:
            tick(run)
    if owners:
        yield emit()
