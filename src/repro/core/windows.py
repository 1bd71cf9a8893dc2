"""Window functions (``OVER``) for SQL++.

The paper (Section V-B) notes that SQL's window functions are "wholly
compatible" with SQL++ and gain the ability to operate over nested and
heterogeneous data.  This module evaluates window calls over the binding
stream of a query block:

* ranking: ``ROW_NUMBER``, ``RANK``, ``DENSE_RANK``, ``NTILE(n)``,
  ``PERCENT_RANK``;
* offsets: ``LAG(x [, n [, default]])``, ``LEAD(...)``;
* value: ``FIRST_VALUE``, ``LAST_VALUE``;
* any SQL aggregate with OVER: with ORDER BY it is a running aggregate
  over the default frame (unbounded preceding → current row), without
  ORDER BY it aggregates the whole partition.

Window values are computed once per binding before the SELECT clause
runs, from *columns* — one value per binding for each partition key,
ordering key and argument; the evaluator replaces each ``WindowCall``
node with a reference to the precomputed value.  The engine and the
reference interpreter both run this module (:mod:`repro.core.tails`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.core.clauses import identity_column, order_parts, sort_positions
from repro.errors import EvaluationError
from repro.functions.aggregates import SQL_AGGREGATES, machine_for
from repro.functions.registry import REGISTRY
from repro.syntax import ast

RANKING_FUNCTIONS = frozenset(
    {"ROW_NUMBER", "RANK", "DENSE_RANK", "NTILE", "PERCENT_RANK"}
)
OFFSET_FUNCTIONS = frozenset({"LAG", "LEAD"})
VALUE_FUNCTIONS = frozenset({"FIRST_VALUE", "LAST_VALUE"})

#: What evaluating a window call anywhere but a block's SELECT raises.
OUTSIDE_SELECT = (
    "window functions (OVER) are only allowed in the SELECT clause "
    "of a query block"
)


def is_window_function(name: str) -> bool:
    upper = name.upper()
    return (
        upper in RANKING_FUNCTIONS
        or upper in OFFSET_FUNCTIONS
        or upper in VALUE_FUNCTIONS
        or upper in SQL_AGGREGATES
    )


def compute_window_values(
    call: ast.WindowCall,
    size: int,
    partition_columns: List[List[Any]],
    order_columns: List[List[Any]],
    arg_columns: List[List[Any]],
    config: Any,
) -> List[Any]:
    """One window call's value for each of ``size`` rows, in input
    order, from its key columns: one column per PARTITION BY expression,
    per ORDER BY key and per call argument, each holding that
    expression's value for every row.  Rows order within a partition by
    the shared ORDER BY sort (:func:`clauses.sort_positions` — direction
    and NULLS FIRST/LAST per key, ties in input order); rows whose keys
    all sort equal are peers."""
    name = call.call.name.upper()
    if not is_window_function(name):
        raise EvaluationError(f"{call.call.name} is not a window function")
    order_by = call.spec.order_by
    parts = [order_parts(column, item) for column, item in zip(order_columns, order_by)]
    # Rows of a partition are peers when all their ORDER BY keys tie.
    if len(parts) == 1:
        peers = parts[0]
    else:
        peers = list(zip(*parts)) if parts else [()] * size
    # One stable sort of the whole input orders every partition.
    ordered = list(range(size))
    if parts:
        sort_positions(parts, [item.desc for item in order_by], ordered)
    identities = [identity_column(column) for column in partition_columns]
    keys = identities[0] if len(identities) == 1 else list(zip(*identities))
    partitions: Dict[Any, List[int]] = {}
    for position in ordered:
        identity = keys[position] if keys else ()
        partitions.setdefault(identity, []).append(position)
    results: List[Any] = [None] * size
    for positions in partitions.values():
        _fill_partition(call, name, positions, peers, arg_columns, config, results)
    return results


def _fill_partition(
    call: ast.WindowCall,
    name: str,
    ordered: List[int],
    peers: List[Any],
    args: List[List[Any]],
    config: Any,
    results: List[Any],
) -> None:
    size = len(ordered)

    if name == "ROW_NUMBER":
        for rank, pos in enumerate(ordered, start=1):
            results[pos] = rank
        return

    if name in ("RANK", "DENSE_RANK", "PERCENT_RANK"):
        rank = dense = 0
        previous = object()
        for index, pos in enumerate(ordered):
            if peers[pos] != previous:
                rank = index + 1
                dense += 1
                previous = peers[pos]
            if name == "RANK":
                results[pos] = rank
            elif name == "DENSE_RANK":
                results[pos] = dense
            else:  # PERCENT_RANK
                results[pos] = 0.0 if size == 1 else (rank - 1) / (size - 1)
        return

    if name == "NTILE":
        if len(args) != 1:
            raise EvaluationError("NTILE expects one argument")
        buckets = args[0][ordered[0]]
        if not isinstance(buckets, int) or isinstance(buckets, bool) or buckets < 1:
            raise EvaluationError("NTILE argument must be a positive integer")
        for index, pos in enumerate(ordered):
            results[pos] = index * buckets // size + 1
        return

    if name in OFFSET_FUNCTIONS:
        if not 1 <= len(args) <= 3:
            raise EvaluationError(f"{name} expects 1 to 3 arguments")
        direction = -1 if name == "LAG" else 1
        for index, pos in enumerate(ordered):
            offset = 1
            if len(args) >= 2:
                offset = args[1][pos]
                if not isinstance(offset, int) or isinstance(offset, bool):
                    raise EvaluationError(f"{name} offset must be an integer")
            target = index + direction * offset
            if 0 <= target < size:
                results[pos] = args[0][ordered[target]]
            elif len(args) == 3:
                results[pos] = args[2][pos]
            else:
                results[pos] = None
        return

    if name in VALUE_FUNCTIONS:
        if len(args) != 1:
            raise EvaluationError(f"{name} expects one argument")
        value = args[0][ordered[0] if name == "FIRST_VALUE" else ordered[-1]]
        for pos in ordered:
            results[pos] = value
        return

    # Aggregate over a window.
    definition = REGISTRY.lookup(SQL_AGGREGATES[name])
    assert definition is not None
    if call.call.star:
        values = [1] * size
    else:
        values = [args[0][pos] for pos in ordered]
    if call.spec.order_by:
        # Running aggregate: unbounded preceding .. current row, peers
        # included (RANGE semantics on ties).  Each peer group steps into
        # one running state, read after the group (a value-list machine's
        # read invokes the definition over the prefix).
        machine = machine_for(definition)
        state = machine.init(1)
        index = 0
        while index < size:
            end = index
            while end + 1 < size and peers[ordered[end + 1]] == peers[ordered[index]]:
                end += 1
            peer_values = values[index : end + 1]
            machine.step(state, [0] * len(peer_values), peer_values, config)
            aggregate = machine.final(state, 0, config)
            for frame_index in range(index, end + 1):
                results[ordered[frame_index]] = aggregate
            index = end + 1
    else:
        aggregate = definition.invoke([values], config)
        for pos in ordered:
            results[pos] = aggregate


def find_window_calls(node: ast.Node) -> List[ast.WindowCall]:
    """Window calls in an expression/clause, not entering subqueries."""

    def prune(sub: ast.Node) -> bool:
        return ast.is_subquery(sub) or isinstance(sub, ast.WindowCall)

    return [call for call in node.walk(prune) if isinstance(call, ast.WindowCall)]


def lower_window_calls(
    select: ast.SelectClause, calls: List[ast.WindowCall]
) -> ast.SelectClause:
    """``select`` with its n-th window call replaced by a reference to
    the variable (:func:`window_variable`) its value is bound to — a
    function of the block alone, so the engine caches it per block."""
    names = {id(call): window_variable(number) for number, call in enumerate(calls)}

    def substitute(node: ast.Node) -> ast.Node:
        name = names.get(id(node))
        return node if name is None else ast.VarRef(name=name)

    return select.transform(substitute)


def window_variable(number: int) -> str:
    """The row variable the ``number``-th window call's value is bound to."""
    return f"$window{number}"


def window_columns(
    calls: List[ast.WindowCall],
    size: int,
    column: Callable[[ast.Expr], List[Any]],
    config: Any,
) -> Dict[str, List[Any]]:
    """Every window call's value column over the ``size`` rows of the
    final binding stream (all of it: a pipeline breaker), keyed by the
    variable the lowered SELECT reads.  ``column(expr)`` is the caller's
    way of evaluating ``expr`` once for every row."""
    return {
        window_variable(number): compute_window_values(
            call,
            size,
            [column(expr) for expr in call.spec.partition_by],
            [column(item.expr) for item in call.spec.order_by],
            [column(arg) for arg in call.call.args],
            config,
        )
        for number, call in enumerate(calls)
    }
