"""Clause semantics the engine and the reference interpreter share.

Two evaluators run a Core query: the engine
(:mod:`repro.core.evaluator` — compiled closures, physical plans, the
batch and streaming executors) and the oracle it is checked against
(:mod:`repro.core.reference` — an eager tree-walker).  What both must
agree on *by construction* rather than by test lives here exactly once
— and in :mod:`repro.core.windows` and :mod:`repro.core.tails` —
parameterised by how the caller evaluates an expression (``(name,
value)`` pairs, key columns, ``eval_expr``).  Nothing in this module
knows about closures, plans or chunks.

The scope helpers at the top (:func:`item_vars`, :func:`block_vars`,
:func:`bound_names`, :class:`FreshNames`) are the compile passes' too:
the rewriter, the rule registry, the executor and the plan verifier ask
them which variables a FROM item, a block or a subtree binds, and which
names are still free to generate.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.environment import Environment, Unbound
from repro.datamodel.equality import group_key
from repro.datamodel.ordering import sort_key
from repro.datamodel.values import MISSING, Bag, Struct, is_collection, type_name
from repro.datamodel.values import positions_of, shape_of
from repro.errors import BindingError, EvaluationError, TypeCheckError
from repro.functions import operators as ops
from repro.syntax import ast

Binding = Dict[str, Any]

# -- FROM ---------------------------------------------------------------------


def item_vars(item: ast.FromItem, at: bool = True) -> List[str]:
    """The variables a FROM item binds, in binding order; without ``at``
    only its range variables (no AT position or UNPIVOT name)."""
    if isinstance(item, ast.FromCollection):
        return [item.alias, item.at_alias] if item.at_alias and at else [item.alias]
    if isinstance(item, ast.FromUnpivot):
        return [item.value_alias, item.at_alias] if at else [item.value_alias]
    if isinstance(item, ast.FromJoin):
        return item_vars(item.left, at) + item_vars(item.right, at)
    return []


def block_vars(block: ast.QueryBlock) -> List[str]:
    """The variables a block binds below its GROUP BY, in binding order:
    every FROM item's, then every LET's."""
    names = [name for item in block.from_ or () for name in item_vars(item)]
    return names + [let.name for let in block.lets]


def bound_names(node: ast.Node) -> Set[str]:
    """Every variable bound anywhere under ``node``: by a FROM or UNPIVOT
    item (AT variables included), a LET, a GROUP BY key or GROUP AS."""
    return {name for sub in node.walk() for name in _binds(sub)}


def _binds(node: ast.Node) -> List[str]:
    if isinstance(node, (ast.FromCollection, ast.FromUnpivot)):
        return item_vars(node)
    if isinstance(node, ast.LetBinding):
        return [node.name]
    if isinstance(node, ast.GroupKey):
        return [node.alias]
    if isinstance(node, ast.GroupByClause) and node.group_as is not None:
        return [node.group_as]
    return []


class FreshNames:
    """The generated variable names of one compile pass (``$group1``,
    ``$g_elem2``, ``$semi3`` ...): one counter across every base, skipping
    any name the query already uses.  ``$`` is a legal identifier
    character, so a user variable can look generated; a generated name
    equal to it would capture its references."""

    def __init__(self, root: ast.Node) -> None:
        self._root = root
        self._taken: Optional[Set[str]] = None
        self._count = 0

    def __call__(self, base: str) -> str:
        if self._taken is None:  # most queries never need a fresh name
            self._taken = {
                name
                for node in self._root.walk()
                for name in (
                    [node.name] if isinstance(node, ast.VarRef) else _binds(node)
                )
            }
        while True:
            self._count += 1
            name = f"{base}{self._count}"
            if name not in self._taken:
                return name


def pad_right_vars(left_binding: Binding, right_vars: List[str]) -> Binding:
    """A LEFT-join padded binding: every right-side variable — including
    variables of joins nested inside the right side and AT position
    variables — becomes NULL.

    The oracle's nested loop pads with it; the physical join operators
    pad the same ``right_vars`` as NULL columns (``plan_ops._padded``).
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
    pairs = []
    for name in var_order:
        try:
            value = env.lookup(name)
        except Unbound:
            continue
        if value is not MISSING:
            pairs.append((name, value))
    return Struct(pairs)


def group_elements(
    size: int, columns: List[List[Any]], var_order: List[str]
) -> List[Struct]:
    """:func:`group_element` of each of ``size`` rows given as
    ``columns``, one per name of ``var_order``; the rows that bind every
    variable share one interned shape."""
    shape = shape_of(tuple(var_order))
    if not columns:
        return [Struct._trusted(shape, ()) for __ in range(size)]
    rows = list(zip(*columns))
    if shape.duplicates:
        absent: Iterable[int] = range(len(rows))
    else:
        absent = set().union(*(positions_of(column, MISSING) for column in columns))
    elements = [Struct._trusted(shape, values) for values in rows]
    for k in absent:
        pairs = [pair for pair in zip(var_order, rows[k]) if pair[1] is not MISSING]
        elements[k] = Struct(pairs)
    return elements


def eval_star(env: Environment, var_order: List[str]) -> Struct:
    """``SELECT *``: splice tuple-valued bindings, name the rest."""
    pairs = []
    for name in var_order:
        try:
            value = env.lookup(name)
        except Unbound:
            continue
        if isinstance(value, Struct):
            pairs += value.items()
        elif value is not MISSING:
            pairs.append((name, value))
    return Struct(pairs)


def literal_keys(expr: ast.StructLit) -> Optional[List[str]]:
    """The constructor's attribute names when all are string literals."""
    keys: List[str] = []
    for field in expr.fields:
        if isinstance(field.key, ast.Literal) and isinstance(field.key.value, str):
            keys.append(field.key.value)
        else:
            return None
    return keys


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


# -- key columns: ORDER BY / top-K, DISTINCT, window partitions ---------------


def identity_column(column: List[Any]) -> List[Any]:
    """A hashable identity per value, equal iff the values are
    :func:`deep_equals`-equal: an ``int``, ``float`` or ``str`` is its
    own identity (Python's ``==`` and ``hash`` already unify ``1`` and
    ``1.0`` and keep strings apart from numbers), anything else its
    :func:`group_key` — ``bool`` included, which ``==`` would confuse
    with ``1`` (``type(...) is`` keeps it off the raw path)."""
    return [
        value
        if (kind := type(value)) is int or kind is str or kind is float
        else group_key(value)
        for value in column
    ]


def order_parts(column: List[Any], item: ast.OrderItem) -> List[tuple]:
    """One ORDER BY item's key column as ``(absence_rank, *sort_key)``
    tuples that sort natively.  The absence rank implements NULLS
    FIRST/LAST (SQL++ default: absent first ascending, last descending);
    :func:`sort_key`'s ``str``, ``int`` and non-NaN ``float`` cases are
    inlined."""
    absent = 0 if item.nulls_first is None or item.nulls_first != item.desc else 1
    present = 1 - absent
    null, missing = (absent,) + sort_key(None), (absent,) + sort_key(MISSING)
    rank = (present,)
    return [
        null
        if value is None
        else missing
        if value is MISSING
        else (present, 3, 1, value)
        if (kind := type(value)) is int or kind is float and value == value
        else (present, 4, value)
        if kind is str
        else rank + sort_key(value)
        for value in column
    ]


def sort_positions(
    parts: List[List[tuple]], descs: List[bool], positions: List[int]
) -> List[int]:
    """``positions`` stably sorted, in place, on their rows of the
    :func:`order_parts` columns ``parts``: rows whose keys all tie keep
    their input order.  Keys of one direction sort once, as native
    tuples; mixed ASC/DESC sorts once per key, last key first — so every
    comparison runs in C."""
    if len(set(descs)) == 1:
        keys = parts[0] if len(parts) == 1 else list(zip(*parts))
        positions.sort(key=keys.__getitem__, reverse=descs[0])
    else:
        for column, desc in zip(reversed(parts), reversed(descs)):
            positions.sort(key=column.__getitem__, reverse=desc)
    return positions


class OrderedTail:
    """``ORDER BY`` (``bound`` None: the full stable sort) or ``ORDER BY
    ... LIMIT`` (the ``bound`` = limit + offset first rows: top-K), fed
    a chunk of key columns and their payload at a time.

    Top-K keeps at most ``bound`` rows between chunks, sorted: a chunk's
    rows that sort strictly after the last kept row on the first key are
    dropped by one comparison each (the later keys' parts are built for
    the survivors only), the rest are merged by
    :func:`sort_positions` and cut back to ``bound`` — O(bound + chunk)
    memory, and ties resolve by arrival order exactly as in the full
    sort, which therefore returns the same prefix.  So a finished top-K
    fed further rows — the next elements of an append-only input — is
    the top-K of the whole input (``vectorized.HeldFold``)."""

    def __init__(self, order_by: Sequence[ast.OrderItem], bound: Optional[int] = None):
        self.items = order_by
        self.descs = [item.desc for item in order_by]
        self.bound = bound
        self.parts: List[List[tuple]] = [[] for __ in order_by]
        self.payload: List[Any] = []
        self._full = False  # payload is sorted and ``bound`` rows long

    def feed(self, key_columns: List[List[Any]], payload: List[Any]) -> None:
        first, *rest = key_columns
        first = order_parts(first, self.items[0])
        if self._full:
            worst = self.parts[0][-1]
            if self.descs[0]:
                picks = [k for k, part in enumerate(first) if part >= worst]
            else:
                picks = [k for k, part in enumerate(first) if part <= worst]
            first = [first[k] for k in picks]
            rest = [[column[k] for k in picks] for column in rest]
            payload = [payload[k] for k in picks]
        if self.bound == 0 or not payload:
            return
        parts = [first] + [
            order_parts(column, item) for column, item in zip(rest, self.items[1:])
        ]
        for kept, column in zip(self.parts, parts):
            kept.extend(column)
        self.payload.extend(payload)
        if self.bound is not None and len(self.payload) >= self.bound:
            self.finish()
            self._full = True

    def finish(self) -> List[Any]:
        """The kept payload in ORDER BY order."""
        order = list(range(len(self.payload)))
        order = sort_positions(self.parts, self.descs, order)[: self.bound]
        self.parts = [[column[k] for k in order] for column in self.parts]
        self.payload = [self.payload[k] for k in order]
        return self.payload


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
        return self._finish_query(query, values, env)

    def _finish_query(
        self, query: ast.Query, values: List[Any], env: Environment,
        ordered: bool = False,
    ) -> Any:
        """``query``'s ORDER BY (unless its block already ``ordered``
        them) / OFFSET / LIMIT over its body's values."""
        if query.order_by and not ordered:
            view = [sort_env(value, None, env) for value in values]
            tail = OrderedTail(query.order_by)
            tail.feed([self.column(item.expr, view) for item in query.order_by], values)
            values = tail.finish()
        if query.offset is not None:
            values = values[cardinal(self.eval_expr(query.offset, env), "OFFSET"):]
        if query.limit is not None:
            values = values[: cardinal(self.eval_expr(query.limit, env), "LIMIT")]
        return values if query.order_by else Bag(values)

    def column(self, expr: ast.Expr, envs: List[Environment]) -> List[Any]:
        """``expr`` in every environment: the env-space way to produce
        the columns the tails consume."""
        eval_expr = self.eval_expr
        return [eval_expr(expr, env) for env in envs]

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
