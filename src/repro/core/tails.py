"""The tail of a query block, written once for every evaluator.

What follows a block's final binding rows (after HAVING) — window
values, then PIVOT's one tuple or ``SELECT [DISTINCT]`` and the query's
``ORDER BY`` / ``LIMIT`` — is a function of *columns* over those rows:
one value per row for each window key and argument, PIVOT operand,
SELECT expression and ORDER BY key.  :func:`run_tail` is that function;
the evaluators differ only in how they produce a column and what holds
their rows — the block executor's chunk kernels over chunks
(``vectorized.KernelColumns``: column kernels in its columns mode, a
compiled closure per row in its rows mode) and a tree-walk per row over
environments in the reference interpreter (:class:`EnvColumns`).
The rows mode's lazy bag runs the same SELECT, a row at a time
(:func:`projection`).  The column-form pieces it assembles live in
:mod:`repro.core.clauses` (sort, top-K, identities) and
:mod:`repro.core.windows`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.clauses import (
    OrderedTail,
    eval_star,
    identity_column,
    literal_keys,
    pivot_struct,
    sort_env,
)
from repro.core.environment import Environment
from repro.core.windows import window_columns
from repro.datamodel.values import Struct
from repro.errors import EvaluationError
from repro.functions import operators as ops
from repro.observability.tracer import StageTally
from repro.syntax import ast


class EnvColumns:
    """Columns over binding *environments*, one evaluation per row: how
    the reference interpreter produces what :func:`run_tail` consumes
    (``vectorized.KernelColumns`` is the other), and where the block
    executor evaluates ORDER BY keys that can see the output."""

    def __init__(self, evaluator, outer_env: Environment, var_order: List[str]):
        self.column = evaluator.column
        self.outer_env = outer_env
        self.var_order = var_order

    def kernel(self, expr: ast.Expr) -> Callable[[list], List[Any]]:
        return lambda envs: self.column(expr, envs)

    def star(self, envs: List[Environment]) -> List[Struct]:
        return [eval_star(env, self.var_order) for env in envs]

    def bind(self, envs: List[Environment], columns: Dict[str, List[Any]]) -> list:
        """``envs`` with one more variable per (window value) column."""
        return [
            env.extend(dict(zip(columns, values)))
            for env, values in zip(envs, zip(*columns.values()))
        ]

    @staticmethod
    def take(envs: List[Environment], picks: List[int]) -> List[Environment]:
        return [envs[k] for k in picks]

    @staticmethod
    def concat(parts: Iterable[List[Environment]]) -> List[Environment]:
        return [env for part in parts for env in part]

    @staticmethod
    def payload(envs: List[Environment]) -> List[Environment]:
        """What a sort keeps of each row (:meth:`gather` gets it back)."""
        return envs

    @staticmethod
    def gather(payload: List[Environment]) -> List[Environment]:
        return payload

    def output_keys(
        self,
        order_by: Sequence[ast.OrderItem],
        envs: Optional[List[Environment]],
        values: List[Any],
    ) -> List[List[Any]]:
        """The ORDER BY key columns once the SELECT ran: evaluated in
        :func:`sort_env` (``envs`` is None after DISTINCT)."""
        if envs is None:
            envs = [None] * len(values)
        outer = self.outer_env
        view = [sort_env(value, env, outer) for value, env in zip(values, envs)]
        return [self.column(item.expr, view) for item in order_by]


def projection(
    select: ast.Node, cols: Any, by_fields: bool = False
) -> Callable[[list], List[Any]]:
    """``SELECT [DISTINCT]`` as a function of one chunk of rows; DISTINCT
    carries the identities it has passed from chunk to chunk.  With
    ``by_fields``, a DISTINCT tuple literal with distinct literal names —
    determined by its field values (an absent one is its own value and
    an omitted attribute) — takes its identity from the field columns
    and is built only for a row seen for the first time."""
    seen: set = set()
    if (
        by_fields
        and isinstance(select, ast.SelectValue)
        and select.distinct
        and isinstance(select.expr, ast.StructLit)
        and len(set(literal_keys(select.expr) or ())) == len(select.expr.fields) > 0
    ):
        fields = [field.value for field in select.expr.fields]

        def distinct_tuples(rows: list) -> List[Any]:
            identities = list(
                zip(*[identity_column(cols.column(expr, rows)) for expr in fields])
            )
            firsts = list(
                ops.iter_distinct(range(len(rows)), identities.__getitem__, seen)
            )
            return cols.column(select.expr, cols.take(rows, firsts))

        return distinct_tuples
    if isinstance(select, ast.SelectValue):
        values = cols.kernel(select.expr)
    elif isinstance(select, ast.SelectStar):
        values = cols.star
    else:
        raise EvaluationError(
            f"unexpected SELECT clause after rewriting: {type(select).__name__}"
        )
    if not select.distinct:
        return values
    return lambda rows: list(ops.iter_distinct(values(rows), seen=seen))


def bind_windows(rows: list, cols: Any, calls: List[ast.WindowCall], config) -> list:
    """``rows`` (the whole input) with each window call's value bound."""
    columns = window_columns(
        calls, len(rows), lambda expr: cols.column(expr, rows), config
    )
    return cols.bind(rows, columns)


def run_tail(
    chunks: Iterable[list],
    cols: Any,
    select: ast.Node,
    calls: List[ast.WindowCall],
    order_by: Sequence[ast.OrderItem],
    config: Any,
    stages: list,
    deferred: bool = False,
    bound: Optional[int] = None,
    order: Optional[OrderedTail] = None,
) -> Any:
    """A block from its final binding rows (after HAVING) on: window
    values, then ``PIVOT``'s one tuple or ``SELECT [DISTINCT]`` and the
    query's ``ORDER BY`` — the output values as a list, sorted and cut
    to ``bound`` (limit + offset) rows when ordered.

    ``chunks`` yields the rows a part at a time and ``cols`` takes
    columns of them and picks, joins and keeps rows of the parts
    (``take``, ``concat``, ``payload`` / ``gather``): that is all an
    evaluator supplies.  Windows and PIVOT need the whole input; every other tail runs per chunk —
    DISTINCT carries the identities it has seen, the sort its kept rows
    (:class:`OrderedTail`).  ``select`` has its ``calls`` lowered
    (:func:`windows.lower_window_calls`).  With ``deferred`` (sound only
    when no ORDER BY key can see a select alias) the keys are columns of
    the binding rows and the SELECT runs last, for the rows the sort
    kept.  ``order`` continues a top-K an earlier run finished (a block
    maintained between runs, ``vectorized.HeldFold``): ``chunks`` are
    then the rows that arrived since.  Each tail opens a tally in
    ``stages`` (EXPLAIN ANALYZE).
    """
    pivot = isinstance(select, ast.PivotClause)
    if calls or pivot:
        chunks = [cols.concat(chunks)]

    window_stage = StageTally("WINDOW", stages) if calls else None
    if order is None and order_by and not pivot:
        order = OrderedTail(order_by, bound)
    order_name = "ORDER BY" if bound is None else "TOP-K"
    if pivot:
        select_stage = StageTally("PIVOT", stages)
    elif deferred:
        order_stage = StageTally(order_name, stages)
        select_stage = StageTally("SELECT", stages)
    else:
        distinct = "SELECT DISTINCT" if select.distinct else "SELECT"
        select_stage = StageTally(distinct, stages)
        order_stage = StageTally(order_name, stages) if order is not None else None
    if not (pivot or deferred):
        select_values = projection(select, cols, by_fields=True)
    pairs: List[Tuple[Any, Any]] = []
    out: List[Any] = []
    for rows in chunks:
        mark = perf_counter()
        if calls:
            rows = bind_windows(rows, cols, calls, config)
            mark = window_stage.lap(len(rows), mark)
        if pivot:
            names = cols.column(select.at, rows)
            pairs.extend(zip(names, cols.column(select.value, rows)))
            mark = select_stage.lap(0, mark)
            continue
        if deferred:
            order.feed(
                [cols.column(item.expr, rows) for item in order_by],
                cols.payload(rows),
            )
            mark = order_stage.lap(0, mark)
            continue
        values = select_values(rows)
        mark = select_stage.lap(len(values), mark)
        if order is None:
            out.extend(values)
        else:
            # DISTINCT collapses the binding rows.
            rows = None if select.distinct else rows
            order.feed(cols.output_keys(order_by, rows, values), values)
            mark = order_stage.lap(0, mark)
    mark = perf_counter()
    if pivot:
        result = pivot_struct(pairs, config)
        select_stage.lap(1, mark)
        return result
    if order is None:
        return out
    values = order.finish()
    mark = order_stage.lap(len(values), mark)
    if deferred:
        rows = cols.gather(values)
        # The kept rows as one part: a top-K held for the next run keeps
        # none of this run's parts alive.
        order.payload = cols.payload(rows)
        values = cols.column(select.expr, rows)
        select_stage.lap(len(values), mark)
    return values
