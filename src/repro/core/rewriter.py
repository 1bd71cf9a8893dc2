"""Lowering SQL sugar onto the SQL++ Core.

The paper defines SQL as "syntactic sugar" rewritings over a fully
composable Core (Section I), and demonstrates the two central rewrites:

* ``SELECT e1 AS a1, ..., en AS an`` ≡ ``SELECT VALUE {a1: e1, ..., an: en}``
  (Section V-A);
* SQL aggregates: ``SELECT AVG(e.salary) FROM ... [GROUP BY k]`` becomes a
  ``GROUP AS`` query whose SELECT applies the composable ``COLL_AVG`` to
  a ``SELECT VALUE`` subquery ranging over the group (Section V-C,
  Listings 15–18).

This module implements those rewrites plus the SQL-compatibility
conveniences that depend on them:

* bare-column disambiguation (``SELECT name FROM emp AS e`` →
  ``e.name``), using the single FROM variable or, when provided, the
  optional schema's attribute sets (Section III: "if schema is available,
  then SQL++ also allows expressions that are disambiguated using the
  schema. Formally, disambiguation results in the rewriting of the
  user-provided SQL++ query into a SQL++ Core query");
* implicit single-group aggregation (``SELECT AVG(x) FROM t`` with no
  GROUP BY);
* group-key aliasing (``SELECT e.deptno ... GROUP BY e.deptno``);
* subquery coercion marking for SQL-compat mode (Section V-A): plain
  ``SELECT`` subqueries coerce to a scalar in scalar positions and to a
  collection of values on the right of ``IN`` / inside aggregate
  arguments.  ``SELECT VALUE`` subqueries are never coerced.

The rewrites that *define* SQL behaviour (aggregates, coercion, bare
columns, key aliasing) run only when ``config.sql_compat`` is on; the
``SELECT`` → ``SELECT VALUE`` lowering runs in both modes, because in
Core mode SELECT is *always* shorthand for SELECT VALUE (Section V-A).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.config import EvalConfig
from repro.core.clauses import FreshNames, block_vars, group_output_vars, item_vars
from repro.errors import RewriteError
from repro.functions.aggregates import SQL_AGGREGATES
from repro.functions.registry import REGISTRY
from repro.syntax import ast
from repro.syntax.ast import copy_span, copy_span_tree
from repro.syntax.printer import print_ast

#: Bases of the generated variable names (numbered by :class:`FreshNames`,
#: which skips every name the query already uses).
_GROUP_VAR = "$group"
_GROUP_ELEM = "$g_elem"

_SCALAR = "scalar"
_COLLECTION = "collection"
_SCALAR_BINOPS = frozenset({"=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||"})


def _argument_context(call: ast.FunctionCall) -> str:
    """Aggregate arguments are collections; every other argument a scalar."""
    definition = REGISTRY.lookup(call.name)
    if (definition is not None and definition.is_aggregate) or _is_sql_aggregate(call):
        return _COLLECTION
    return _SCALAR


#: Section V-A's coercion rule as data: the context each child of an
#: expression kind sits in.  A plain-``SELECT`` subquery in a ``scalar``
#: context coerces to its single value, in a ``collection`` context to
#: the collection of its single attribute's values, and in no context
#: (None, and every kind not listed) stays a collection of tuples.  An
#: entry is one context for every child, a dict by field, or a function
#: of the node giving either; a child that is not an expression (a struct
#: field, path step, window spec or order key) hands its entry on to its
#: own children, and a dict entry for an expression child (a window's
#: own call) replaces that child's row.
_CHILD_CONTEXT: Dict[type, Any] = {
    ast.Binary: lambda expr: _SCALAR if expr.op in _SCALAR_BINOPS else None,
    ast.Unary: lambda expr: _SCALAR if expr.op in ("-", "+") else None,
    ast.FunctionCall: _argument_context,
    ast.WindowCall: {"call": {"args": _SCALAR}, "spec": _SCALAR},
    ast.InPredicate: {"operand": _SCALAR, "collection": _COLLECTION},
    ast.Like: _SCALAR,
    ast.Between: _SCALAR,
    ast.IsPredicate: _SCALAR,
    ast.CaseExpr: _SCALAR,
    ast.CastExpr: _SCALAR,
    ast.Index: {"base": None, "index": _SCALAR},
    ast.PathWildcard: {"base": None, "steps": _SCALAR},
    ast.StructLit: {"fields": {"key": _SCALAR, "value": None}},
}


def rewrite_query(
    query: ast.Query,
    config: EvalConfig,
    catalog_names: Iterable[str] = (),
    schema_attrs: Optional[Dict[str, Set[str]]] = None,
) -> ast.Query:
    """Rewrite a parsed query into an executable Core query.

    ``catalog_names`` is the set of database named values (used so that
    bare-column disambiguation never captures a collection name);
    ``schema_attrs`` optionally maps a catalog name to the attribute
    names of its elements, enabling multi-variable disambiguation.
    """
    rewriter = _Rewriter(config, catalog_names, schema_attrs or {}, FreshNames(query))
    return rewriter.rewrite_query(query, scope=frozenset())


class _Rewriter:
    def __init__(
        self,
        config: EvalConfig,
        catalog_names: Iterable[str],
        schema_attrs: Dict[str, Set[str]],
        fresh: FreshNames,
    ):
        self._config = config
        self._schema_attrs = schema_attrs
        self._catalog_prefixes: Set[str] = set()
        for name in catalog_names:
            parts = name.split(".")
            for end in range(1, len(parts) + 1):
                self._catalog_prefixes.add(".".join(parts[:end]))
        self._fresh = fresh

    # ------------------------------------------------------------------
    # Query / body traversal
    # ------------------------------------------------------------------

    def rewrite_query(self, query: ast.Query, scope: FrozenSet[str]) -> ast.Query:
        body, order_by = query.body, query.order_by
        if isinstance(body, ast.QueryBlock):
            body, order_by = self._rewrite_block(body, order_by, scope)
        else:
            body = self._rewrite_term(body, scope)
            order_by = [self._rewrite(item, scope, _SCALAR) for item in order_by]
        return dataclasses.replace(
            query,
            body=body,
            order_by=order_by,
            limit=self._rewrite(query.limit, scope, _SCALAR),
            offset=self._rewrite(query.offset, scope, _SCALAR),
        )

    def _rewrite_term(self, term: ast.Node, scope: FrozenSet[str]) -> ast.Node:
        if isinstance(term, ast.QueryBlock):
            block, __ = self._rewrite_block(term, [], scope)
            return block
        if isinstance(term, ast.SetOp):
            return dataclasses.replace(
                term,
                left=self._rewrite_term(term.left, scope),
                right=self._rewrite_term(term.right, scope),
            )
        if isinstance(term, ast.Query):
            return self.rewrite_query(term, scope)
        return self._rewrite(term, scope, None)

    # ------------------------------------------------------------------
    # Query blocks
    # ------------------------------------------------------------------

    def _rewrite_block(
        self,
        block: ast.QueryBlock,
        order_by: Sequence[ast.OrderItem],
        scope: FrozenSet[str],
    ) -> Tuple[ast.QueryBlock, List[ast.OrderItem]]:
        variables = frozenset(block_vars(block))
        from_scope = scope | variables

        # 1. Bare-column disambiguation (SQL-compat only, needs a FROM).
        if self._config.sql_compat and block.from_ is not None:
            block = self._disambiguate_block(block, scope, variables)

        # 2. FROM / LET / WHERE expressions rewrite in the binding scope.
        new_from = (
            [self._rewrite(item, from_scope, None) for item in block.from_]
            if block.from_ is not None
            else None
        )
        new_lets = [self._rewrite(let, from_scope, None) for let in block.lets]
        new_where = self._rewrite(block.where, from_scope, None)

        # 3. Aggregate sugar (SQL-compat only).
        group_by = block.group_by
        select = block.select
        having = block.having
        order_items = list(order_by)
        if self._config.sql_compat and block.from_ is not None:
            select, having, order_items, group_by = self._rewrite_aggregation(
                select, having, order_items, group_by, variables
            )

        # 4. Scope for the output clauses.
        output_scope = (
            from_scope if group_by is None else scope.union(group_output_vars(group_by))
        )

        group_by = self._rewrite(group_by, from_scope, None)
        having = self._rewrite(having, output_scope, None)
        order_items = [
            self._rewrite(item, output_scope, _SCALAR) for item in order_items
        ]

        # 5. SELECT sugar → SELECT VALUE (both modes).
        if isinstance(select, ast.SelectList):
            select = self._lower_select_list(select, output_scope)
        else:
            select = self._rewrite(select, output_scope, None)

        return (
            dataclasses.replace(
                block,
                select=select,
                from_=new_from,
                lets=new_lets,
                where=new_where,
                group_by=group_by,
                having=having,
            ),
            order_items,
        )

    # ------------------------------------------------------------------
    # SELECT sugar
    # ------------------------------------------------------------------

    def _lower_select_list(
        self, select: ast.SelectList, scope: FrozenSet[str]
    ) -> ast.SelectValue:
        """``SELECT e1 AS a1, ...`` → ``SELECT VALUE {a1: e1, ...}``.

        ``item.*`` entries splice tuples; when any are present the struct
        is built with the internal ``$TUPLE_MERGE`` function instead of a
        plain constructor.
        """
        parts: List[ast.Expr] = []
        pending_fields: List[ast.StructField] = []
        has_star = any(item.star for item in select.items)
        for position, item in enumerate(select.items):
            expr = self._rewrite(item.expr, scope, _SCALAR)
            if item.star:
                if pending_fields:
                    parts.append(
                        copy_span(ast.StructLit(fields=pending_fields), select)
                    )
                    pending_fields = []
                parts.append(expr)
                continue
            alias = item.alias or _implied_output_name(item.expr, position)
            pending_fields.append(
                copy_span(
                    ast.StructField(
                        key=copy_span(ast.Literal(value=alias), item),
                        value=expr,
                    ),
                    item,
                )
            )
        if pending_fields or not parts:
            parts.append(
                copy_span(ast.StructLit(fields=pending_fields), select)
            )
        if has_star:
            body: ast.Expr = copy_span(
                ast.FunctionCall(name="$TUPLE_MERGE", args=parts), select
            )
        else:
            body = parts[0]
        return copy_span(
            ast.SelectValue(expr=body, distinct=select.distinct), select
        )

    # ------------------------------------------------------------------
    # Aggregation sugar (Listings 15-18)
    # ------------------------------------------------------------------

    def _rewrite_aggregation(
        self,
        select: ast.SelectClause,
        having: Optional[ast.Expr],
        order_items: List[ast.OrderItem],
        group_by: Optional[ast.GroupByClause],
        variables: FrozenSet[str],
    ):
        """Rewrite SQL aggregate calls over the ``GROUP AS`` group.

        Returns the possibly-updated (select, having, order_items,
        group_by).  When aggregates occur without a GROUP BY, an implicit
        single-group clause is synthesised (SQL's one-row-even-when-empty
        semantics are preserved by the evaluator for keyless grouping).
        """
        if group_by is None:
            outputs = [select, having] + [item.expr for item in order_items]
            if not _has_sql_aggregate(root for root in outputs if root is not None):
                return select, having, order_items, group_by
            group_by = ast.GroupByClause(keys=[], group_as=None)

        group_var = group_by.group_as or self._fresh(_GROUP_VAR)
        if group_by.group_as is None:
            group_by = dataclasses.replace(group_by, group_as=group_var)

        key_by_text = {print_ast(key.expr): key.alias for key in group_by.keys}
        elem_var = self._fresh(_GROUP_ELEM)

        def lower(node: ast.Node) -> Optional[ast.Node]:
            """Occurrences of a group-key expression become references to
            the key's alias; SQL aggregate calls become ``COLL_*`` over a
            ``SELECT VALUE`` subquery ranging over the group."""
            if isinstance(node, ast.Expr):
                alias = key_by_text.get(print_ast(node))
                if alias is not None:
                    return copy_span(ast.VarRef(name=alias), node)
            if _is_sql_aggregate(node):
                assert isinstance(node, ast.FunctionCall)
                return self._lower_aggregate_call(node, group_var, elem_var, variables)
            if isinstance(node, ast.SubqueryExpr):
                return node  # nested query blocks manage their own grouping
            if isinstance(node, ast.WindowCall):
                # The window function itself is a *window* aggregate,
                # evaluated over the partition — but aggregates inside
                # its arguments or its PARTITION BY / ORDER BY keys are
                # grouping aggregates (``RANK() OVER (ORDER BY SUM(v))``
                # runs after GROUP BY), so those do get lowered.
                call = node.call.map_children(lambda arg, _field: arg.rewrite(lower))
                spec = node.spec.rewrite(lower)
                return dataclasses.replace(node, call=call, spec=spec)
            return None

        if isinstance(select, (ast.SelectValue, ast.SelectList)):
            select = select.rewrite(lower)
        having = None if having is None else having.rewrite(lower)
        order_items = [item.rewrite(lower) for item in order_items]
        return select, having, order_items, group_by

    def _lower_aggregate_call(
        self,
        call: ast.FunctionCall,
        group_var: str,
        elem_var: str,
        variables: FrozenSet[str],
    ) -> ast.Expr:
        """``AVG(e.salary)`` → ``COLL_AVG((SELECT VALUE g.e.salary FROM grp AS g))``."""
        coll_name = SQL_AGGREGATES[call.name.upper()]
        if call.star:
            value_expr: ast.Expr = copy_span(ast.Literal(value=1), call)
        else:
            if len(call.args) != 1:
                raise RewriteError(
                    f"aggregate {call.name} expects exactly one argument"
                )
            value_expr = _substitute_block_vars(call.args[0], variables, elem_var)
        # Every synthesized node points at the aggregate call; the value
        # expression keeps its own spans.
        source = copy_span_tree(
            ast.FromCollection(expr=ast.VarRef(name=group_var), alias=elem_var), call
        )
        select = ast.SelectValue(expr=value_expr, distinct=call.distinct)
        block = ast.QueryBlock(select=copy_span(select, call), from_=[source])
        query = copy_span(ast.Query(body=copy_span(block, call)), call)
        subquery = copy_span(ast.SubqueryExpr(query=query), call)
        return copy_span(ast.FunctionCall(name=coll_name, args=[subquery]), call)

    # ------------------------------------------------------------------
    # Bare-column disambiguation
    # ------------------------------------------------------------------

    def _disambiguate_block(
        self,
        block: ast.QueryBlock,
        outer_scope: FrozenSet[str],
        variables: FrozenSet[str],
    ) -> ast.QueryBlock:
        from_vars = [
            name for item in block.from_ or () for name in item_vars(item, at=False)
        ]
        if not from_vars:
            return block
        schema_map = self._from_var_schemas(block.from_ or [])
        scope = outer_scope | variables
        if block.group_by is not None:
            output_scope = scope.union(group_output_vars(block.group_by))
        else:
            output_scope = scope

        def resolve(node: Optional[ast.Node], known: FrozenSet[str]) -> Any:
            def qualify(inner: ast.Node) -> Optional[ast.Node]:
                if isinstance(inner, ast.SubqueryExpr):
                    # Nested blocks see the same rule via their own pass;
                    # their additional variables are handled when the
                    # rewriter recurses into the subquery later.
                    return inner
                if not isinstance(inner, ast.VarRef):
                    return None
                name = inner.name
                if name in known or name in self._catalog_prefixes:
                    return inner
                target = self._pick_disambiguation_target(name, from_vars, schema_map)
                if target is None:
                    return inner
                return copy_span(
                    ast.Path(base=copy_span(ast.VarRef(name=target), inner), attr=name),
                    inner,
                )

            return None if node is None else node.rewrite(qualify)

        return dataclasses.replace(
            block,
            where=resolve(block.where, scope),
            lets=[resolve(let, scope) for let in block.lets],
            group_by=resolve(block.group_by, scope),
            having=resolve(block.having, output_scope),
            select=resolve(block.select, output_scope),
        )

    def _pick_disambiguation_target(
        self,
        attr: str,
        from_vars: List[str],
        schema_map: Dict[str, Set[str]],
    ) -> Optional[str]:
        """Choose the FROM variable a bare column belongs to, or None."""
        candidates = [var for var in from_vars if attr in schema_map.get(var, ())]
        if len(candidates) == 1:
            return candidates[0]
        if candidates:
            return None  # genuinely ambiguous; leave for a runtime error
        if len(from_vars) == 1:
            return from_vars[0]
        return None

    def _from_var_schemas(
        self, items: Sequence[ast.FromItem]
    ) -> Dict[str, Set[str]]:
        """Map FROM variables to attribute sets from the optional schema."""
        result: Dict[str, Set[str]] = {}
        for item in items:
            # The FROM items of this block only: expressions (and the
            # subqueries in them) are not entered.
            for node in item.walk(lambda sub: isinstance(sub, ast.Expr)):
                if isinstance(node, ast.FromCollection):
                    name = _catalog_name_of(node.expr)
                    if name is not None and name in self._schema_attrs:
                        result[node.alias] = self._schema_attrs[name]
        return result

    # ------------------------------------------------------------------
    # Expressions: recursion + coercion marking
    # ------------------------------------------------------------------

    def _rewrite(self, node: Any, scope: FrozenSet[str], context: Any) -> Any:
        """Rewrite the query blocks nested in ``node`` and (in SQL-compat
        mode) mark subquery coercions.  ``context`` is the coercion
        context ``node`` sits in; a node that is not an expression hands
        it on to its children, an expression looks theirs up in
        :data:`_CHILD_CONTEXT` (unless handed a dict of its own)."""
        if node is None:
            return None
        if isinstance(node, ast.SubqueryExpr):
            rewritten = self.rewrite_query(node.query, scope)
            if (
                self._config.sql_compat
                and context in (_SCALAR, _COLLECTION)
                and _is_plain_select_query(node.query)
            ):
                coerced = ast.CoerceSubquery(query=rewritten, mode=context)
                return copy_span(coerced, node)
            return dataclasses.replace(node, query=rewritten)
        if isinstance(node, ast.CoerceSubquery):
            return node
        if isinstance(node, ast.Expr) and not isinstance(context, dict):
            context = _CHILD_CONTEXT.get(type(node))
            if callable(context):
                context = context(node)
        if isinstance(context, dict):
            return node.map_children(
                lambda child, field: self._rewrite(child, scope, context.get(field))
            )
        return node.map_children(
            lambda child, _field: self._rewrite(child, scope, context)
        )


# =========================================================================
# Helpers
# =========================================================================


def _catalog_name_of(expr: ast.Expr) -> Optional[str]:
    """The dotted catalog name an expression denotes, if it is one."""
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.Path):
        base = _catalog_name_of(expr.base)
        if base is not None:
            return f"{base}.{expr.attr}"
    return None


def _is_sql_aggregate(node: ast.Node) -> bool:
    return isinstance(node, ast.FunctionCall) and node.name.upper() in SQL_AGGREGATES


def _has_sql_aggregate(roots: Iterable[ast.Node]) -> bool:
    """Whether a SQL aggregate call occurs under ``roots`` outside nested
    subqueries.  A window's own function is not one, but aggregates in
    its arguments or spec are: ``RANK() OVER (ORDER BY SUM(v))`` implies
    SQL's implicit grouping (groups first, ranks after)."""
    window_calls: Set[int] = set()
    for root in roots:
        for node in root.walk(ast.is_subquery):
            if isinstance(node, ast.WindowCall):
                window_calls.add(id(node.call))
            elif _is_sql_aggregate(node) and id(node) not in window_calls:
                return True
    return False


def _substitute_block_vars(
    expr: ast.Expr, variables: FrozenSet[str], elem_var: str
) -> ast.Expr:
    """Replace references to block variables v with ``elem_var.v``.

    Used when moving an aggregate argument into the per-group subquery:
    the group's elements are tuples with one attribute per block variable
    (paper, Listing 14).  Nested blocks that rebind a variable shadow it,
    so the substitution stops for that name inside them.
    """

    def substitute(active: FrozenSet[str]):
        def visit(node: ast.Node) -> Optional[ast.Node]:
            if isinstance(node, ast.VarRef) and node.name in active:
                base = copy_span(ast.VarRef(name=elem_var), node)
                return copy_span(ast.Path(base=base, attr=node.name), node)
            if isinstance(node, ast.Query) and isinstance(node.body, ast.QueryBlock):
                block = node.body  # the query's ORDER BY sees its variables too
            elif isinstance(node, ast.QueryBlock):
                block = node  # an operand of a set operation
            else:
                return None
            inner = active - set(block_vars(block))
            if not inner:
                return node
            return node.map_children(
                lambda child, _field: child.rewrite(substitute(inner))
            )

        return visit

    return expr.rewrite(substitute(variables))


def _is_plain_select_query(query: ast.Query) -> bool:
    """True for sugar-SELECT queries — the only ones coercion touches."""
    body = query.body
    if isinstance(body, ast.QueryBlock):
        return isinstance(body.select, (ast.SelectList, ast.SelectStar))
    return False


def _implied_output_name(expr: ast.Expr, position: int) -> str:
    from repro.syntax.parser import implied_alias

    return implied_alias(expr) or f"_{position + 1}"
