"""Morsel-driven multi-core execution of partitionable scans.

The batch executor (:mod:`repro.core.vectorized`) asks this module to
fan the base scan of a plan's operator tree across worker processes.
The unit of scheduling is a *morsel* — a contiguous ``(start, stop)``
row span of the materialized base collection — following the
morsel-driven design of Leis et al.: workers pull whole spans, so the
per-task overhead amortizes over thousands of rows, and the parent
merges results in morsel order, which makes the combined output
row-for-row identical to the serial run.

Process model
-------------

Workers are forked (``multiprocessing`` ``fork`` context): the parent
sets a module global with everything a worker needs — the evaluator,
the operator tree, prebuilt hash-join build tables — *before* creating
the pool, so nothing query-sized is pickled on the way in; forked
pages are shared copy-on-write.  Only results travel back through
pickling.  Two result modes:

* ``rows`` — workers return their morsel's binding rows; the parent
  runs the remaining clauses (LET, residual WHERE, grouping) serially.
* ``fold`` — workers fold their morsel into GROUP BY state
  (:func:`repro.core.vectorized.fold_chunk`, one state per grouping
  set) and return their machines' partial states; the parent merges
  them in morsel order, set by set, through each machine's ``merge``.

Observability and limits compose across the fork: each worker runs a
fresh :class:`~repro.observability.ExecTracer` and returns per-operator
tallies keyed by a deterministic pre-order operator index, which the
parent merges into its own tracer at the barrier; each worker's forked
:class:`ResourceGovernor` enforces timeout/max_rows locally (the
monotonic deadline survives the fork), and the parent re-accounts the
workers' row deltas at the barrier so the global ``max_rows`` budget is
enforced across the whole fan-out.  Worker errors are returned as
picklable descriptors and re-raised in the parent; any infrastructure
failure (pool creation, unpicklable results) falls back to the serial
batch path — parallelism is an optimization, never a semantic change.

Anything not partitionable — lazy sources, small inputs, operator
trees with non-scan spines — returns None and runs serially.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro import errors
from repro.core.environment import Environment, Unbound
from repro.core.plan_ops import HashJoinOp, LateralJoinOp, ScanOp, walk_ops
from repro.core.vectorized import (
    Decomposition,
    GroupState,
    build_fold_fns,
    fold_chunk,
    fold_columns,
    merge_folds,
)

Binding = Dict[str, Any]

#: Scans below this many base rows are not worth forking for.
#: Module-level so tests can monkeypatch it down.
MIN_PARALLEL_ROWS = 2048

#: Minimum morsel span; spans are sized so each worker gets ~4 morsels
#: (work stealing via the pool's task queue) but never smaller than
#: this.
MIN_MORSEL_ROWS = 1024

#: Worker-side state installed by the parent immediately before the
#: fork; inherited by workers, never pickled.
_WORKER_STATE: Optional[Dict[str, Any]] = None


@dataclass
class ParallelOutcome:
    """What a successful parallel run hands back to the batch executor."""

    mode: str  # "rows" | "fold"
    workers: int
    #: Total binding rows the workers produced (pre any parent-side
    #: filtering) — the FROM stage tally.
    rows_seen: int = 0
    #: Parent-side wall time of the whole fan-out.
    elapsed: float = 0.0
    rows: List[Binding] = field(default_factory=list)
    groups: Optional[List[GroupState]] = None


def _spine(op) -> Optional[Tuple[ScanOp, List[HashJoinOp]]]:
    """The probe spine of an operator tree: the chain of hash joins and
    lateral operators down the left side ending in a morsel-capable
    base scan (with the hash joins, whose tables the parent prebuilds),
    or None."""
    joins: List[HashJoinOp] = []
    node = op
    while isinstance(node, (HashJoinOp, LateralJoinOp)):
        if isinstance(node, HashJoinOp):
            joins.append(node)
        node = node.left
    if not isinstance(node, ScanOp):
        return None
    return node, joins


def _run_morsel(span: Tuple[int, int]):
    """Worker entry: run one morsel and return a picklable result.

    Runs in a forked child.  The evaluator object is the parent's
    (inherited); the tracer is replaced per task so tallies cover
    exactly this morsel, and the governor delta is measured from the
    task's start so a pool worker serving several morsels never
    double-reports.
    """
    state = _WORKER_STATE
    evaluator = state["evaluator"]
    env = state["env"]
    op = state["op"]
    parent_tracer = state["traced"]
    tracer = None
    if parent_tracer:
        from repro.observability import ExecTracer

        tracer = ExecTracer(timing=state["timing"])
    evaluator.tracer = tracer
    governor = evaluator.governor
    governor_base = governor.rows if governor is not None else 0
    try:
        rows_seen = 0
        if state["mode"] == "fold":
            decomp, row_vars = state["decomp"], state["row_vars"]
            key_fns, value_fns = build_fold_fns(evaluator, decomp, row_vars)
            machines = decomp.machines
            groups = GroupState.sets(decomp.clause, machines)
            for chunk in op.iter_chunks(
                evaluator, env, morsel=span, tables=state["tables"]
            ):
                rows_seen += len(chunk)
                columns = fold_columns(chunk, env, key_fns, value_fns, row_vars)
                fold_chunk(len(chunk), *columns, machines, groups, evaluator.config)
            payload: Any = groups
        else:
            rows: List[Binding] = []
            for chunk in op.iter_chunks(
                evaluator, env, morsel=span, tables=state["tables"]
            ):
                rows.extend(chunk)
            rows_seen = len(rows)
            payload = rows
    except errors.ResourceExhausted as error:
        return (
            "error",
            "ResourceExhausted",
            str(error),
            {
                "kind": error.kind,
                "rows_produced": error.rows_produced,
                "elapsed_s": error.elapsed_s,
            },
        )
    except errors.SQLPPError as error:
        return ("error", type(error).__name__, str(error), None)
    except Unbound as unbound:
        return ("unbound", unbound.name)
    tallies: List[Tuple[int, int, int, int, float]] = []
    if tracer is not None:
        for index, node in enumerate(state["op_list"]):
            stats = tracer.op_stats(node)
            if stats is not None:
                tallies.append(
                    (
                        index,
                        stats.invocations,
                        stats.rows_in,
                        stats.rows_out,
                        stats.time_s,
                    )
                )
    governor_delta = (
        governor.rows - governor_base if governor is not None else 0
    )
    return ("ok", rows_seen, payload, tallies, governor_delta)


def _rebuild_error(name: str, message: str, extras: Optional[Dict]) -> Exception:
    """Reconstruct a worker's error in the parent process."""
    if name == "ResourceExhausted" and extras is not None:
        return errors.ResourceExhausted(message, **extras)
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, errors.SQLPPError):
        try:
            return cls(message)
        except TypeError:
            pass
    return errors.EvaluationError(message)


def try_parallel(
    evaluator,
    op,
    env: Environment,
    mode: str,
    decomp: Optional[Decomposition],
    row_vars: Tuple[str, ...],
) -> Optional[ParallelOutcome]:
    """Fan the plan's base scan across forked workers, or None.

    None means "run serially" — the input is too small, the tree is
    not partitionable, fork is unavailable, or the pool failed; a
    worker-side *query* error, by contrast, re-raises here exactly as
    the serial path would have raised it.
    """
    global _WORKER_STATE
    config = evaluator.config
    workers = config.parallel
    if workers < 2:
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    spine = _spine(op)
    if spine is None:
        return None
    scan, joins = spine
    total = scan.morsel_rows(evaluator, env)
    if total is None or total < MIN_PARALLEL_ROWS:
        return None
    if mode == "fold" and decomp is None:
        return None

    started = perf_counter()
    # Build every spine join's hash table in the parent: workers then
    # share the pages copy-on-write instead of re-building per process.
    # (This builds even when the probe side would have filtered down to
    # nothing — the one divergence from the lazy build-on-first-probe
    # of the serial path, documented in docs/PLANNER.md.)
    tables: Dict[int, Any] = {}
    for join in joins:
        tables[id(join)] = join.build_table(evaluator, env)

    span_size = max(math.ceil(total / (workers * 4)), MIN_MORSEL_ROWS)
    spans = [
        (start, min(start + span_size, total))
        for start in range(0, total, span_size)
    ]
    workers = min(workers, len(spans))
    if workers < 2:
        return None

    op_list = walk_ops(op)
    for node in op_list:
        # Compile the operators' chunk kernels before forking, so the
        # workers inherit them instead of each compiling its own.
        node.batch_kernels(evaluator)
    parent_tracer = evaluator.tracer
    _WORKER_STATE = {
        "evaluator": evaluator,
        "env": env,
        "op": op,
        "tables": tables,
        "mode": mode,
        "decomp": decomp,
        "row_vars": row_vars,
        "op_list": op_list,
        "traced": parent_tracer is not None,
        "timing": parent_tracer.timing if parent_tracer is not None else True,
    }
    try:
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=workers) as pool:
            results = pool.map(_run_morsel, spans)
    except Exception:
        # Infrastructure failure (fork, pickling of results, pool
        # teardown): parallelism silently degrades to the serial batch
        # path, which computes the same answer.
        return None
    finally:
        _WORKER_STATE = None
        evaluator.tracer = parent_tracer

    # Surface the first worker error in morsel (= serial row) order.
    for result in results:
        if result[0] == "error":
            raise _rebuild_error(result[1], result[2], result[3])
        if result[0] == "unbound":
            raise Unbound(result[1])

    outcome = ParallelOutcome(mode=mode, workers=workers)
    governor_delta = 0
    partials: List[List[GroupState]] = []
    for result in results:
        __, rows_seen, payload, tallies, delta = result
        outcome.rows_seen += rows_seen
        governor_delta += delta
        if mode == "fold":
            partials.append(payload)
        else:
            outcome.rows.extend(payload)
        if parent_tracer is not None:
            for index, invocations, rows_in, rows_out, time_s in tallies:
                parent_tracer.merge_op(
                    op_list[index], invocations, rows_in, rows_out, time_s
                )
    if mode == "fold":
        outcome.groups = GroupState.sets(decomp.clause, decomp.machines)
        merge_folds(outcome.groups, partials, decomp.machines, config)

    governor = evaluator.governor
    if governor is not None and governor_delta:
        # Re-account the workers' rows against the parent budget: the
        # per-worker governors each saw only their own share, so the
        # global max_rows breach (if any) surfaces here at the barrier.
        governor.add(governor_delta)

    outcome.elapsed = perf_counter() - started
    if parent_tracer is not None and parent_tracer.trace is not None:
        parent_tracer.trace.event(
            "parallel",
            "phase",
            started,
            outcome.elapsed,
            {"workers": workers, "morsels": len(spans), "rows": outcome.rows_seen},
        )
    return outcome
