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
runs; the evaluator replaces each ``WindowCall`` node with a reference to
the precomputed value.  Both evaluators — the engine and the reference
interpreter — run this module, each through its own ``eval_expr``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, TYPE_CHECKING

from repro.datamodel.equality import group_key
from repro.datamodel.ordering import sort_key
from repro.errors import EvaluationError
from repro.functions.aggregates import SQL_AGGREGATES
from repro.functions.registry import REGISTRY
from repro.syntax import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.environment import Environment
    from repro.core.evaluator import Evaluator

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
    envs: List["Environment"],
    evaluator: "Evaluator",
) -> List[Any]:
    """Evaluate one window call for every binding, in input order."""
    name = call.call.name.upper()
    if not is_window_function(name):
        raise EvaluationError(f"{call.call.name} is not a window function")

    eval_expr = evaluator.eval_expr
    order_items = call.spec.order_by

    # Partition the binding stream.
    partitions: Dict[tuple, List[int]] = {}
    for position, env in enumerate(envs):
        key = tuple(
            group_key(eval_expr(expr, env)) for expr in call.spec.partition_by
        )
        partitions.setdefault(key, []).append(position)

    results: List[Any] = [None] * len(envs)
    for positions in partitions.values():
        ordered = _order_positions(positions, envs, order_items, eval_expr)
        _fill_partition(call, name, ordered, envs, evaluator, results)
    return results


def _order_positions(
    positions: List[int],
    envs: List["Environment"],
    order_items: List[ast.OrderItem],
    eval_expr: Callable,
) -> List[int]:
    if not order_items:
        return positions
    decorated = list(positions)
    for item in reversed(order_items):
        decorated.sort(
            key=lambda pos: sort_key(eval_expr(item.expr, envs[pos])),
            reverse=item.desc,
        )
    return decorated


def _order_rank_keys(
    ordered: List[int],
    envs: List["Environment"],
    order_items: List[ast.OrderItem],
    eval_expr: Callable,
) -> List[tuple]:
    return [
        tuple(group_key(eval_expr(item.expr, envs[pos])) for item in order_items)
        for pos in ordered
    ]


def _fill_partition(
    call: ast.WindowCall,
    name: str,
    ordered: List[int],
    envs: List["Environment"],
    evaluator: "Evaluator",
    results: List[Any],
) -> None:
    eval_expr = evaluator.eval_expr
    config = evaluator.config
    size = len(ordered)

    if name == "ROW_NUMBER":
        for rank, pos in enumerate(ordered, start=1):
            results[pos] = rank
        return

    if name in ("RANK", "DENSE_RANK", "PERCENT_RANK"):
        keys = _order_rank_keys(ordered, envs, call.spec.order_by, eval_expr)
        rank = dense = 0
        previous = object()
        for index, pos in enumerate(ordered):
            if keys[index] != previous:
                rank = index + 1
                dense += 1
                previous = keys[index]
            if name == "RANK":
                results[pos] = rank
            elif name == "DENSE_RANK":
                results[pos] = dense
            else:  # PERCENT_RANK
                results[pos] = 0.0 if size == 1 else (rank - 1) / (size - 1)
        return

    if name == "NTILE":
        if len(call.call.args) != 1:
            raise EvaluationError("NTILE expects one argument")
        buckets = eval_expr(call.call.args[0], envs[ordered[0]]) if ordered else 1
        if not isinstance(buckets, int) or isinstance(buckets, bool) or buckets < 1:
            raise EvaluationError("NTILE argument must be a positive integer")
        for index, pos in enumerate(ordered):
            results[pos] = index * buckets // size + 1
        return

    if name in OFFSET_FUNCTIONS:
        args = call.call.args
        if not 1 <= len(args) <= 3:
            raise EvaluationError(f"{name} expects 1 to 3 arguments")
        direction = -1 if name == "LAG" else 1
        for index, pos in enumerate(ordered):
            env = envs[pos]
            offset = 1
            if len(args) >= 2:
                offset = eval_expr(args[1], env)
                if not isinstance(offset, int) or isinstance(offset, bool):
                    raise EvaluationError(f"{name} offset must be an integer")
            target = index + direction * offset
            if 0 <= target < size:
                results[pos] = eval_expr(args[0], envs[ordered[target]])
            elif len(args) == 3:
                results[pos] = eval_expr(args[2], env)
            else:
                results[pos] = None
        return

    if name in VALUE_FUNCTIONS:
        if len(call.call.args) != 1:
            raise EvaluationError(f"{name} expects one argument")
        source = ordered[0] if name == "FIRST_VALUE" else ordered[-1]
        value = eval_expr(call.call.args[0], envs[source])
        for pos in ordered:
            results[pos] = value
        return

    # Aggregate over a window.
    coll_name = SQL_AGGREGATES[name]
    definition = REGISTRY.lookup(coll_name)
    assert definition is not None

    def element(pos: int) -> Any:
        if call.call.star:
            return 1
        return eval_expr(call.call.args[0], envs[pos])

    if call.spec.order_by:
        # Running aggregate: unbounded preceding .. current row, peers
        # included (RANGE semantics on ties).
        keys = _order_rank_keys(ordered, envs, call.spec.order_by, eval_expr)
        values = [element(pos) for pos in ordered]
        index = 0
        while index < size:
            end = index
            while end + 1 < size and keys[end + 1] == keys[index]:
                end += 1
            frame = values[: end + 1]
            aggregate = definition.invoke([frame], config)
            for frame_index in range(index, end + 1):
                results[ordered[frame_index]] = aggregate
            index = end + 1
    else:
        frame = [element(pos) for pos in ordered]
        aggregate = definition.invoke([frame], config)
        for pos in ordered:
            results[pos] = aggregate


def find_window_calls(node: ast.Node) -> List[ast.WindowCall]:
    """Window calls in an expression/clause, not entering subqueries."""
    found: List[ast.WindowCall] = []

    def scan(current: ast.Node) -> None:
        if isinstance(current, ast.SubqueryExpr) or isinstance(
            current, ast.CoerceSubquery
        ):
            return
        if isinstance(current, ast.WindowCall):
            found.append(current)
            return
        for child in current.children():
            scan(child)

    scan(node)
    return found


def lower_window_calls(
    select: ast.SelectClause, calls: List[ast.WindowCall]
) -> ast.SelectClause:
    """``select`` with its n-th window call replaced by a reference to
    the variable :func:`bind_window_values` binds its value to — a
    function of the block alone, so the engine caches it per block."""
    names = {id(call): f"$window{number}" for number, call in enumerate(calls)}

    def substitute(node: ast.Node) -> ast.Node:
        name = names.get(id(node))
        return node if name is None else ast.VarRef(name=name)

    return select.transform(substitute)


def bind_window_values(
    calls: List[ast.WindowCall],
    envs: List["Environment"],
    evaluator: "Evaluator",
) -> List["Environment"]:
    """The final binding stream with every window call's value bound
    (windows see the whole stream, so this is a pipeline breaker)."""
    per_env: List[Dict[str, Any]] = [{} for __ in envs]
    for number, call in enumerate(calls):
        values = compute_window_values(call, envs, evaluator)
        for extra, value in zip(per_env, values):
            extra[f"$window{number}"] = value
    return [env.extend(extra) for env, extra in zip(envs, per_env)]
