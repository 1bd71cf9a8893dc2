"""Abstract syntax tree for SQL++.

All nodes are dataclasses deriving from :class:`Node`.  The tree is
deliberately close to the surface language; the rewriter
(:mod:`repro.core.rewriter`) transforms SQL-sugar forms (plain ``SELECT``
lists, SQL aggregate calls, implicit grouping, subquery coercion hints)
into SQL++ Core forms (``SELECT VALUE``, ``COLL_*`` over ``GROUP AS``
groups) before evaluation, exactly as the paper describes SQL being
"syntactic sugar" over the Core (Section I).

Generic traversal, derived from the dataclass fields so every compile
pass shares it: :meth:`Node.children` yields child nodes,
:meth:`Node.walk` searches a tree (optionally pruned, e.g. at
:func:`is_subquery`), :meth:`Node.rewrite` rebuilds it top-down and
:meth:`Node.transform` bottom-up, both over :meth:`Node.map_children`.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Tuple, TypeVar


@dataclass
class Node:
    """Base class of every AST node.

    ``line``/``column`` are the 1-based source position of the token the
    node started at, or ``None`` for synthesized nodes (rewriter output
    inherits its origin's span via :func:`copy_span`).  They are
    ``compare=False`` so AST equality stays structural — two parses of
    the same text compare equal even when whitespace shifts positions —
    and ``kw_only`` so every subclass's positional constructor is
    unchanged.
    """

    line: Optional[int] = field(
        default=None, compare=False, repr=False, kw_only=True
    )
    column: Optional[int] = field(
        default=None, compare=False, repr=False, kw_only=True
    )

    def children(self) -> Iterator["Node"]:
        """Yield every direct child node (recursing into lists/tuples)."""
        return iter(_child_nodes(self))

    def walk(
        self, prune: Optional[Callable[["Node"], bool]] = None
    ) -> Iterator["Node"]:
        """Yield this node and every descendant, pre-order.

        A node for which ``prune`` holds is yielded but not entered: a
        walk that stays in one query scope prunes at :func:`is_subquery`.
        """
        stack: List[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if prune is None or not prune(node):
                children = _child_nodes(node)
                children.reverse()
                stack.extend(children)

    def map_children(self, fn: Callable[["Node", str], "Node"]) -> "Node":
        """This node with ``fn(child, field)`` in place of each direct
        child node (inside lists and tuples too), in field declaration
        order.  Nodes are never mutated in place: the node itself is
        returned when no child changed."""
        changes = {}
        for name in _child_fields(type(self)):
            old = getattr(self, name)
            if isinstance(old, Node):
                new = fn(old, name)
            elif isinstance(old, (list, tuple)):
                new = _map_items(old, fn, name)
            else:
                continue
            if new is not old:
                changes[name] = new
        return dataclasses.replace(self, **changes) if changes else self

    def rewrite(self, fn: Callable[["Node"], Optional["Node"]]) -> "Node":
        """Rebuild the tree top-down.

        ``fn(node)`` returns the node's replacement, which is not
        descended into, or None to keep the node and rewrite its
        children (in field declaration order).  Untouched subtrees are
        shared.
        """
        replacement = fn(self)
        if replacement is not None:
            return replacement
        return self.map_children(lambda child, _field: child.rewrite(fn))

    def transform(self, fn: Callable[["Node"], "Node"]) -> "Node":
        """Rebuild the tree bottom-up, applying ``fn`` to every node.

        Children are transformed first, then ``fn`` is applied to the
        (possibly rebuilt) node itself.  Nodes are never mutated in place;
        untouched subtrees are shared.
        """
        return fn(self.map_children(lambda child, _field: child.transform(fn)))


@functools.cache
def _child_fields(cls: type) -> Tuple[str, ...]:
    """The fields of a node class that can hold child nodes: all but the
    span, in declaration order."""
    return tuple(
        fld.name for fld in dataclasses.fields(cls) if fld.name not in ("line", "column")
    )


def _child_nodes(node: Node) -> List[Node]:
    found: List[Node] = []
    for name in _child_fields(type(node)):
        _collect_nodes(getattr(node, name), found)
    return found


def _collect_nodes(value: Any, found: List[Node]) -> None:
    if isinstance(value, Node):
        found.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_nodes(item, found)


def _map_items(value: Any, fn: Callable[[Node, str], Node], name: str) -> Any:
    """A list or tuple of children (nested ones too, as in CASE's WHEN
    pairs) with ``fn`` applied; ``value`` itself when nothing changed."""
    items = []
    for item in value:
        if isinstance(item, Node):
            item = fn(item, name)
        elif isinstance(item, (list, tuple)):
            item = _map_items(item, fn, name)
        items.append(item)
    if all(new is old for new, old in zip(items, value)):
        return value
    return items if isinstance(value, list) else tuple(items)


NodeT = TypeVar("NodeT", bound=Node)


def copy_span(target: NodeT, source: Node) -> NodeT:
    """Stamp ``source``'s span onto ``target`` unless it already has one.

    Used by the rewriter so that synthesized Core nodes (lowered SELECT
    lists, ``COLL_*`` aggregates, coercion wrappers) point diagnostics at
    the user's original surface syntax.
    """
    if target.line is None and source.line is not None:
        target.line = source.line
        target.column = source.column
    return target


def copy_span_tree(target: NodeT, source: Node) -> NodeT:
    """Stamp ``source``'s span onto every unstamped node under ``target``.

    The deep cousin of :func:`copy_span`: rewrite rules synthesize whole
    subtrees (a decorrelated join arm, an IN-list, a hoisted LET), and a
    single-node stamp would leave the nested nodes span-less.  Nodes that
    already carry a span — shared subtrees lifted from the user's query —
    are left untouched, so diagnostics keep pointing at the most precise
    position available.
    """
    if source.line is None:
        return target
    for node in target.walk():
        if node.line is None:
            node.line = source.line
            node.column = source.column
    return target


# =========================================================================
# Expressions
# =========================================================================


@dataclass
class Expr(Node):
    """Base class of expression nodes."""


@dataclass
class Literal(Expr):
    """A scalar literal, ``NULL`` (value None) or ``MISSING``.

    ``MISSING`` is represented by the data-model singleton as the value.
    """

    value: Any


@dataclass
class VarRef(Expr):
    """A bare name.

    Resolved at evaluation time against the binding environment first and
    the database catalog second (names may be dotted via :class:`Path`,
    e.g. ``hr.emp``, matching the paper's namespaced named values).
    """

    name: str


@dataclass
class Path(Expr):
    """Dot navigation ``base.attr`` (``attr`` is the literal name)."""

    base: Expr
    attr: str


@dataclass
class Index(Expr):
    """Bracket navigation ``base[index]``."""

    base: Expr
    index: Expr


@dataclass
class PathWildcard(Expr):
    """A deep-path step: ``base[*]`` or ``base.*``.

    An extension shared by the SQL++ dialects (PartiQL path wildcards):
    ``e.projects[*].name`` evaluates to the collection of ``.name``
    navigations over the elements of ``e.projects``.  ``kind`` is
    ``'values'`` for ``[*]`` (elements of a collection) or ``'attrs'``
    for ``.*`` (attribute values of a tuple).  Path steps *after* a
    wildcard apply per element, which the parser expresses by nesting:
    the wildcard node's ``steps`` records the trailing navigation.
    """

    base: Expr
    kind: str
    steps: List["PathStep"] = field(default_factory=list)


@dataclass
class PathStep(Node):
    """One trailing navigation step after a path wildcard.

    ``attr`` is set for ``.name`` steps; ``index`` for ``[i]`` steps;
    ``wildcard`` for a further ``[*]``/``.*`` (flattening one level).
    """

    attr: Optional[str] = None
    index: Optional[Expr] = None
    wildcard: Optional[str] = None


@dataclass
class StructField(Node):
    """One ``key : value`` entry of a struct constructor.

    ``key`` is an expression: string literals and bare identifiers parse
    to :class:`Literal` strings; computed keys are allowed (PIVOT-style
    construction).
    """

    key: Expr
    value: Expr


@dataclass
class StructLit(Expr):
    """A struct (tuple) constructor ``{ k1: v1, ... }``."""

    fields: List[StructField]


@dataclass
class ArrayLit(Expr):
    """An array constructor ``[ e1, ... ]``."""

    items: List[Expr]


@dataclass
class BagLit(Expr):
    """A bag constructor ``<< e1, ... >>`` or ``{{ e1, ... }}``."""

    items: List[Expr]


@dataclass
class Unary(Expr):
    """Unary operator: ``-``, ``+`` or ``NOT``."""

    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    """Binary operator.

    ``op`` is one of ``OR AND = != < <= > >= || + - * / %``.
    """

    op: str
    left: Expr
    right: Expr


@dataclass
class IsPredicate(Expr):
    """``expr IS [NOT] NULL | MISSING | <typename>``."""

    operand: Expr
    kind: str  # 'NULL', 'MISSING', or a type name like 'INTEGER'
    negated: bool = False


@dataclass
class Like(Expr):
    """``expr [NOT] LIKE pattern [ESCAPE esc]``."""

    operand: Expr
    pattern: Expr
    escape: Optional[Expr] = None
    negated: bool = False


@dataclass
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class InPredicate(Expr):
    """``expr [NOT] IN rhs`` where rhs is a collection or subquery."""

    operand: Expr
    collection: Expr
    negated: bool = False


@dataclass
class Exists(Expr):
    """``EXISTS expr`` — true when the collection is non-empty."""

    operand: Expr


@dataclass
class CaseExpr(Expr):
    """Simple or searched ``CASE``.

    ``operand`` is None for the searched form (``CASE WHEN cond ...``).
    """

    operand: Optional[Expr]
    whens: List[Tuple[Expr, Expr]]
    else_: Optional[Expr] = None


@dataclass
class FunctionCall(Expr):
    """A (possibly aggregate) function call.

    ``star`` marks ``COUNT(*)``; ``distinct`` marks ``COUNT(DISTINCT x)``
    etc.  Whether the name denotes a SQL aggregate (``AVG``), a composable
    Core aggregate (``COLL_AVG``) or a scalar function is decided by the
    function registry, not the parser.
    """

    name: str
    args: List[Expr]
    distinct: bool = False
    star: bool = False


@dataclass
class OrderItem(Node):
    """One ``ORDER BY`` key."""

    expr: Expr
    desc: bool = False
    nulls_first: Optional[bool] = None  # None = SQL default (first if ASC)


@dataclass
class WindowSpec(Node):
    """The ``OVER (PARTITION BY ... ORDER BY ...)`` specification."""

    partition_by: List[Expr] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)


@dataclass
class WindowCall(Expr):
    """``fn(args) OVER (window-spec)``."""

    call: FunctionCall
    spec: WindowSpec


@dataclass
class SubqueryExpr(Expr):
    """A parenthesised query used as an expression.

    ``coercion`` records the syntactic context for SQL-compatibility-mode
    coercion of plain-``SELECT`` subqueries (paper, Section V-A):

    * ``'scalar'`` — comparison/arithmetic position: coerce the singleton
      collection of a single-attribute tuple to that scalar;
    * ``'collection'`` — right-hand side of ``IN``: coerce a collection of
      single-attribute tuples to a collection of values;
    * ``None`` — no coercion (e.g. a FROM source or a SELECT VALUE body).

    The rewriter turns these hints into explicit coercion nodes only when
    SQL-compatibility mode is on; ``SELECT VALUE`` subqueries are never
    coerced.
    """

    query: "Query"
    coercion: Optional[str] = None


@dataclass
class CoerceSubquery(Expr):
    """Explicit coercion inserted by the rewriter in SQL-compat mode."""

    query: "Query"
    mode: str  # 'scalar' or 'collection'


def is_subquery(node: Node) -> bool:
    """Whether ``node`` opens a nested query scope: the ``prune`` of a
    walk that must not look inside another block."""
    return isinstance(node, (SubqueryExpr, CoerceSubquery))


@dataclass
class Parameter(Expr):
    """A positional ``?`` parameter."""

    index: int


@dataclass
class CastExpr(Expr):
    """``CAST(expr AS typename)``."""

    operand: Expr
    type_name: str


# =========================================================================
# Query blocks and clauses
# =========================================================================


@dataclass
class FromItem(Node):
    """Base class of FROM-clause items."""


@dataclass
class FromCollection(FromItem):
    """``expr AS var [AT posvar]`` — range over a collection.

    The FROM variable binds to *any* kind of value, not just tuples
    (paper, Section III-A).  ``expr`` may refer to variables bound by
    earlier items in the same FROM clause (left-correlation).
    """

    expr: Expr
    alias: str
    at_alias: Optional[str] = None


@dataclass
class FromUnpivot(FromItem):
    """``UNPIVOT expr AS valuevar AT namevar`` (paper, Section VI-A).

    Ranges over the attribute name/value pairs of a tuple, binding
    ``valuevar`` to the value and ``namevar`` to the attribute name.
    """

    expr: Expr
    value_alias: str
    at_alias: str


@dataclass
class FromJoin(FromItem):
    """Explicit ``JOIN`` syntax between two FROM items.

    ``kind`` is ``'INNER'``, ``'LEFT'`` or ``'CROSS'``.  ``on`` is None
    for CROSS joins.  ``lateral`` unnesting is expressed by the right
    side's expression referring to left-side variables, same as comma
    items (UNNEST sugar parses to this shape too).
    """

    left: FromItem
    right: FromItem
    kind: str
    on: Optional[Expr] = None


@dataclass
class LetBinding(Node):
    """``LET name = expr`` — extends the current bindings."""

    name: str
    expr: Expr


@dataclass
class GroupKey(Node):
    """One ``GROUP BY`` key with its binding alias."""

    expr: Expr
    alias: str


@dataclass
class GroupByClause(Node):
    """``GROUP BY keys [GROUP AS gvar]``.

    ``mode`` is ``'simple'``, ``'rollup'``, ``'cube'`` or ``'sets'``; for
    ``'sets'``, ``grouping_sets`` lists index-tuples into ``keys``.
    ``group_as`` exposes each group's content as a collection of tuples of
    the input bindings (paper, Section V-B).
    """

    keys: List[GroupKey]
    group_as: Optional[str] = None
    mode: str = "simple"
    grouping_sets: Optional[List[List[int]]] = None


@dataclass
class SelectItem(Node):
    """One projection item of a sugar ``SELECT`` list.

    ``alias`` None means the output name is inferred from the expression
    (last path step / variable name) or positionally (``_1``, ``_2``...).
    ``star`` marks ``v.*`` items, which splice a tuple's attributes.
    """

    expr: Expr
    alias: Optional[str] = None
    star: bool = False


@dataclass
class SelectClause(Node):
    """Base class of the SELECT-position clauses."""


@dataclass
class SelectValue(SelectClause):
    """Core ``SELECT VALUE expr`` — outputs the bare value per binding."""

    expr: Expr
    distinct: bool = False


@dataclass
class SelectList(SelectClause):
    """Sugar ``SELECT e1 AS a1, ...`` — rewritten to ``SELECT VALUE {...}``."""

    items: List[SelectItem]
    distinct: bool = False


@dataclass
class SelectStar(SelectClause):
    """Sugar ``SELECT *`` — splices every in-scope binding's attributes."""

    distinct: bool = False


@dataclass
class PivotClause(SelectClause):
    """``PIVOT value_expr AT name_expr`` — constructs a single tuple from
    the binding stream (paper, Section VI-B)."""

    value: Expr
    at: Expr


@dataclass
class QueryBlock(Node):
    """A single SELECT/FROM/WHERE/GROUP BY/HAVING block.

    ``select_first`` records only the surface clause order (SQL++ allows
    the SELECT clause at either end, Section V-B); semantics are
    identical.
    """

    select: SelectClause
    from_: Optional[List[FromItem]] = None
    lets: List[LetBinding] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: Optional[GroupByClause] = None
    having: Optional[Expr] = None
    select_first: bool = True


@dataclass
class SetOp(Node):
    """``left UNION|INTERSECT|EXCEPT [ALL] right`` over query bodies."""

    op: str
    all: bool
    left: Node  # QueryBlock | SetOp | Query
    right: Node


@dataclass
class Query(Node):
    """A full query: a body plus the post-SELECT clauses.

    ``body`` is a :class:`QueryBlock`, :class:`SetOp` or a bare
    :class:`Expr` (SQL++ is an expression language: ``SELECT VALUE 1`` and
    ``1 + 1`` are both valid queries).
    """

    body: Node
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None
