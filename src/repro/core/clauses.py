"""Clause semantics the engine and the reference interpreter share.

Two evaluators run a Core query: the engine
(:mod:`repro.core.evaluator` — compiled closures, physical plans, the
batch and streaming executors) and the oracle it is checked against
(:mod:`repro.core.reference` — an eager tree-walker).  What both must
agree on *by construction* rather than by test lives here exactly once,
parameterised by how the caller evaluates an expression (``key_fns``,
``(name, value)`` pairs, ``eval_expr``) as :mod:`repro.core.windows` is.
Nothing in this module knows about closures, plans or chunks.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.environment import Environment, Unbound
from repro.datamodel.equality import group_key
from repro.datamodel.ordering import sort_key
from repro.datamodel.values import MISSING, Bag, Struct, is_collection, type_name
from repro.errors import BindingError, EvaluationError, TypeCheckError
from repro.functions import operators as ops
from repro.syntax import ast

Binding = Dict[str, Any]

# -- FROM ---------------------------------------------------------------------


def item_vars(item: ast.FromItem) -> List[str]:
    """The variables a FROM item binds, in binding order."""
    if isinstance(item, ast.FromCollection):
        return [item.alias, item.at_alias] if item.at_alias else [item.alias]
    if isinstance(item, ast.FromUnpivot):
        return [item.value_alias, item.at_alias]
    if isinstance(item, ast.FromJoin):
        return item_vars(item.left) + item_vars(item.right)
    return []


def pad_right_vars(left_binding: Binding, right_vars: List[str]) -> Binding:
    """A LEFT-join padded binding: every right-side variable — including
    variables of joins nested inside the right side and AT position
    variables — becomes NULL.

    Shared by the oracle's nested loop and every physical join operator
    so the padding sets cannot drift apart.
    """
    padded = dict(left_binding)
    for name in right_vars:
        padded[name] = None
    return padded


# -- GROUP AS / SELECT * / PIVOT ----------------------------------------------


def group_output_vars(clause: ast.GroupByClause) -> List[str]:
    """The variables in scope after GROUP BY: key aliases, then GROUP AS."""
    names = [key.alias for key in clause.keys]
    return names + [clause.group_as] if clause.group_as else names


def group_binding(
    clause: ast.GroupByClause, key_values: List[Any], elements: Iterable[Struct]
) -> Binding:
    """One group's output binding: each key alias to its value and the
    GROUP AS variable, if any, to the bag of the group's elements."""
    binding = {key.alias: value for key, value in zip(clause.keys, key_values)}
    if clause.group_as:
        binding[clause.group_as] = Bag(elements)
    return binding


def group_element(env: Environment, var_order: List[str]) -> Struct:
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


def eval_star(env: Environment, var_order: List[str]) -> Struct:
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


def pivot_struct(pairs: Iterable[Tuple[Any, Any]], config) -> Struct:
    """``PIVOT v AT a``: one tuple from the ``(a, v)`` pair of every
    binding (Section VI-B, Listings 24-25).  A non-string name drops the
    pair (strict mode: raises); a MISSING value omits the attribute."""
    kept: List[Tuple[str, Any]] = []
    for name, value in pairs:
        if not isinstance(name, str):
            if config.is_permissive:
                continue
            raise TypeCheckError(
                f"PIVOT attribute name must be a string, got {type_name(name)}"
            )
        if value is not MISSING:
            kept.append((name, value))
    return Struct(kept)


# -- ORDER BY / LIMIT / OFFSET ------------------------------------------------


class OrderKey:
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

    def __lt__(self, other: "OrderKey") -> bool:
        for mine, theirs, desc in zip(self.parts, other.parts, self.descs):
            if mine == theirs:
                continue
            return theirs < mine if desc else mine < theirs
        return self.seq < other.seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderKey):
            return NotImplemented
        return self.parts == other.parts and self.seq == other.seq


#: One ORDER BY item ready to evaluate: ``(key_fn, desc, nulls_first)``
#: (:meth:`QueryEvaluator._order_spec`; the full sort and the top-K heap).
OrderSpec = List[Tuple[Callable[[Environment], Any], bool, Optional[bool]]]


def composite_parts(spec: OrderSpec, sort_env: Environment) -> Tuple:
    """One row's composite sort key: an ``(absence_rank, sort_key)``
    component per ORDER BY item, each key evaluated exactly once.  The
    absence rank implements NULLS FIRST/LAST (SQL++ default: absent
    first ascending, last descending)."""
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


def sort_env(
    value: Any, env: Optional[Environment], outer_env: Environment
) -> Environment:
    """The environment ORDER BY keys evaluate in: the row's binding
    environment when available, overlaid with the output element's
    attributes (so both underlying variables and select aliases are
    usable, as in SQL)."""
    base = env if env is not None else outer_env
    if isinstance(value, Struct):
        base = base.extend(dict(value.items()))
    return base


def apply_order_by(
    values: List[Any],
    envs: Optional[List[Environment]],
    spec: OrderSpec,
    outer_env: Environment,
) -> List[Any]:
    """Stable single-pass sort on one composite key per row.

    Each ORDER BY key is evaluated exactly once per row and the rows are
    sorted once, on the composite of all keys — direction and absence
    handled per component.  Uniform-direction keys sort as native
    tuples; mixed ASC/DESC uses the :class:`OrderKey` comparator that
    flips components individually.
    """
    all_parts = [
        composite_parts(
            spec,
            sort_env(value, envs[position] if envs is not None else None, outer_env),
        )
        for position, value in enumerate(values)
    ]
    indexed = list(range(len(values)))
    descs = tuple(desc for __, desc, ___ in spec)
    if len(set(descs)) <= 1:
        indexed.sort(key=all_parts.__getitem__, reverse=descs[0])
    else:
        indexed.sort(
            key=lambda position: OrderKey(all_parts[position], descs, position)
        )
    return [values[position] for position in indexed]


def cardinal(value: Any, what: str) -> int:
    """A LIMIT / OFFSET operand: a non-negative integer or an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise EvaluationError(f"{what} expects an integer, got {type_name(value)}")
    if value < 0:
        raise EvaluationError(f"{what} must be non-negative")
    return value


# -- set operations -----------------------------------------------------------


def require_collection(value: Any, what: str):
    if is_collection(value):
        return value
    raise EvaluationError(f"{what} must be a collection, got {type_name(value)}")


def combine_setop(setop: ast.SetOp, left: List[Any], right: List[Any]) -> List[Any]:
    """UNION / INTERSECT / EXCEPT [ALL] over two operands' elements,
    with multiset arithmetic under SQL++ grouping equality."""
    if setop.op == "UNION":
        result = left + right
    elif setop.op in ("INTERSECT", "EXCEPT"):
        counts: Dict[tuple, int] = {}
        for item in right:
            key = group_key(item)
            counts[key] = counts.get(key, 0) + 1
        keep_matched = setop.op == "INTERSECT"
        result = []
        for item in left:
            key = group_key(item)
            matched = counts.get(key, 0) > 0
            if matched:
                counts[key] -= 1
            if matched == keep_matched:
                result.append(item)
    else:
        raise EvaluationError(f"unknown set operation {setop.op}")
    return result if setop.all else ops.distinct_elements(result)


# -- the query level ----------------------------------------------------------


class QueryEvaluator:
    """What a query is around its block, written once for both
    evaluators: public-error translation, the governor's per-query
    entry, set operations, and ORDER BY / LIMIT / OFFSET over
    materialized values.  A subclass says how it evaluates an expression
    (``eval_expr(expr, env)``) and how it runs a block-bodied query
    (``_eval_block_query(query, block, env)``)."""

    def _bind(self, parameters: Optional[Sequence[Any]], tracer) -> None:
        """One execution's state: the positional ``?`` values, the
        optional ExecTracer collecting EXPLAIN ANALYZE statistics, and a
        fresh governor — so limits measure this query's own clock and
        rows; None when the config sets no limits, so the hot paths pay
        a single identity check."""
        from repro.datamodel.convert import from_python
        from repro.observability.limits import ResourceGovernor

        self._parameters = [from_python(value) for value in parameters or []]
        self.tracer = tracer
        self.governor = ResourceGovernor.for_config(self.config)

    def execute(self, query: ast.Query, env: Optional[Environment] = None) -> Any:
        """Evaluate a query, translating internal signals to public errors."""
        try:
            return self.eval_query(query, env if env is not None else Environment())
        except Unbound as unbound:
            raise BindingError(
                f"unresolved name {unbound.name!r}: not a variable in scope "
                "and not a named value in the database"
            ) from None

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
            return self._eval_block_query(query, body, env)
        if isinstance(body, ast.SetOp):
            values = self._eval_setop(body, env)
        else:
            value = self.eval_expr(body, env)
            if not query.order_by and query.limit is None and query.offset is None:
                return value
            values = list(require_collection(value, "query body"))
        return self._finish_query(query, values, None, env)

    def _finish_query(
        self,
        query: ast.Query,
        values: List[Any],
        envs: Optional[List[Environment]],
        env: Environment,
    ) -> Any:
        """``query``'s ORDER BY / OFFSET / LIMIT over its body's values
        (and the binding environments they came from, if known)."""
        if query.order_by:
            spec = self._order_spec(query.order_by)
            values = apply_order_by(values, envs, spec, env)
        if query.offset is not None:
            values = values[cardinal(self.eval_expr(query.offset, env), "OFFSET"):]
        if query.limit is not None:
            values = values[: cardinal(self.eval_expr(query.limit, env), "LIMIT")]
        return values if query.order_by else Bag(values)

    def _order_spec(self, order_by: Sequence[ast.OrderItem]) -> OrderSpec:
        return [
            (self._expr_fn(item.expr), item.desc, item.nulls_first)
            for item in order_by
        ]

    def _expr_fn(self, expr: ast.Expr) -> Callable[[Environment], Any]:
        """``expr`` as a function of the environment."""
        return partial(self.eval_expr, expr)

    def _eval_setop(self, setop: ast.SetOp, env: Environment) -> List[Any]:
        return combine_setop(
            setop,
            self._setop_elements(setop.left, env),
            self._setop_elements(setop.right, env),
        )

    def _setop_elements(self, term: ast.Node, env: Environment) -> List[Any]:
        if isinstance(term, ast.SetOp):
            return self._eval_setop(term, env)
        if isinstance(term, ast.QueryBlock):
            if isinstance(term.select, ast.PivotClause):
                raise EvaluationError("PIVOT query cannot be a set-operation input")
            # A bare block operand is a query without clauses of its own.
            term = ast.Query(body=term)
        if isinstance(term, ast.Query):
            value = self.eval_query(term, env)
        else:
            value = self.eval_expr(term, env)
        return list(require_collection(value, "set-operation input"))
