"""The one static analysis: a type-flow walk over the Core AST.

One walk re-runs the evaluator's binding rules and operator semantics
over the :mod:`repro.analysis.lattice` instead of over values.  Every
name in its environment is a :class:`Name` — the abstract type, the
binding site, and whether anything read it — and every expression gets
an :class:`AType` over-approximating the categories permissive-mode
evaluation can produce.  On the way it reports:

* ``SQLPP001``-``SQLPP004`` — scope: unbound names (the evaluator's
  dotted-catalog-name rescue, ``hr.emp``, included), shadowing
  bindings, unused LETs, calls no builtin accepts;
* ``SQLPP101``-``SQLPP104`` and ``SQLPP106``-``SQLPP108`` — the type
  rules (:data:`TYPE_RULES`): always-MISSING navigation, operands that
  never combine, aggregates over non-collections, absent sort keys,
  FROM / UNPIVOT over the wrong kind of value;
* ``SQLPP120`` / ``SQLPP121`` / ``SQLPP124`` — the conjunction facts of
  :mod:`repro.analysis.absint` at each WHERE / HAVING / ON, with the
  tautology check typed by the walk's own environment.

Binding follows the evaluator: left-correlated FROM items, sequential
LETs, a grouping replaces the block scope (only the key aliases and
the ``GROUP AS`` variable survive, paper Section V-B), correlated
subqueries see the enclosing environment, and ORDER BY keys see the
output element's attributes overlaid on the row environment.  When the
output shape is not statically known, unbound names in ORDER BY are
not reported (a key may name an output attribute).

No rule here is a private table.  Operators read the lattice's
derived :func:`~repro.analysis.lattice.transfer`, which runs the real
operator over representative values of each operand category.  A call
reads the result its builtin declares where it is registered (an
``IS`` kind, "one of the arguments", or unknown) and a CAST the kind
of :data:`repro.functions.scalar.CAST_TARGETS`; the lattice's
:func:`~repro.analysis.lattice.is_kind_categories` turns a kind into
categories.  The arity message of SQLPP004 is the one the builtin
raises at runtime.

Soundness is inclusion, so every rule may err only toward *more*
categories; hypothesis properties in ``tests/analysis`` check the
walk and the transfers against the real evaluator in both typing
modes.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from itertools import product
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.absint import Contradiction, fold_expr, never_true, term_key
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.lattice import (
    ABSENT_CATEGORIES,
    ARRAY,
    BAG,
    BOOLEAN,
    BOOLEAN_T,
    COLLECTION_CATEGORIES,
    MISSING_CAT,
    MISSING_T,
    NULL,
    NULL_T,
    NUMBER,
    STRING,
    TOP,
    TUPLE,
    AType,
    array_of,
    bag_of,
    element_of,
    infer_literal,
    is_kind_categories,
    join,
    join_all,
    narrow,
    scalar,
    transfer,
    tuple_of,
    widen,
)
from repro.analysis.rules import make
from repro.config import EvalConfig
from repro.core.planner import split_conjuncts
from repro.functions.scalar import CAST_TARGETS
from repro.syntax import ast

#: The codes :func:`repro.schema.check_query` reports: findings about
#: types, as opposed to scope, predicates or style.
TYPE_RULES: FrozenSet[str] = frozenset(
    {
        "SQLPP101",
        "SQLPP102",
        "SQLPP103",
        "SQLPP104",
        "SQLPP106",
        "SQLPP107",
        "SQLPP108",
    }
)

def _present(atype: AType) -> FrozenSet[str]:
    return atype.cats - ABSENT_CATEGORIES


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------


@dataclass
class Name:
    """One name in scope: its abstract type, where it was bound, and
    whether anything read it (for unused-LET)."""

    name: str
    type: AType
    kind: str = "from"  # 'from' | 'at' | 'let' | 'group' | 'key' | 'output'
    line: Optional[int] = None
    column: Optional[int] = None
    used: bool = False
    report_unused: bool = False


_Env = Dict[str, Name]


class TypeFlow:
    """One walk over a Core query: scope, types and predicate facts."""

    def __init__(
        self,
        config: Optional[EvalConfig] = None,
        catalog_types: Optional[Mapping[str, AType]] = None,
        catalog_names: Sequence[str] = (),
    ) -> None:
        self.config = config if config is not None else EvalConfig()
        self._types: Dict[str, AType] = dict(catalog_types or {})
        self._names = set(catalog_names) | set(self._types)
        self.diagnostics: List[Diagnostic] = []
        # Depth of lenient contexts (ORDER BY over an unknown output
        # shape): unbound names are not reported there.
        self._lenient = 0

    def _report(
        self,
        code: str,
        message: str,
        at: Union[ast.Node, Name, Contradiction],
        hint: Optional[str] = None,
    ) -> None:
        """One finding, positioned at ``at``'s source span."""
        self.diagnostics.append(
            make(code, message, line=at.line, column=at.column, hint=hint)
        )

    # ------------------------------------------------------------------
    # Queries and blocks
    # ------------------------------------------------------------------

    def flow_query(self, query: ast.Query, env: Optional[_Env] = None) -> AType:
        env = dict(env) if env else {}
        element, block_env, shaped, local = self._flow_body(query.body, env)
        if query.order_by:
            self._flow_order_by(query, env, block_env, element, shaped)
        if query.limit is not None:
            self.infer(query.limit, env)
        if query.offset is not None:
            self.infer(query.offset, env)
        self._report_unused(local)
        if not shaped:
            # PIVOT blocks and bare-expression bodies produce a single
            # value, not a stream.
            return element
        if query.order_by:
            return array_of(element)
        return bag_of(element)

    def _flow_order_by(
        self,
        query: ast.Query,
        env: _Env,
        block_env: _Env,
        element: AType,
        shaped: bool,
    ) -> None:
        order_env = dict(env)
        order_env.update(block_env)
        known = (
            shaped
            and element.only(TUPLE)
            and element.attrs is not None
            and not element.open
        )
        if known:
            # The sort environment: the output element's attributes
            # overlaid on the row environment.
            for name, attr_type in element.attrs or ():
                previous = order_env.get(name)
                if previous is not None:
                    attr_type = join(previous.type, attr_type)
                order_env[name] = Name(name, attr_type, "output", used=True)
        else:
            self._lenient += 1
        try:
            for item in query.order_by:
                key_type = self.infer(item.expr, order_env)
                if key_type.is_always_absent():
                    self._report(
                        "SQLPP104",
                        "ORDER BY key is always "
                        f"{key_type.describe().upper()}; it cannot "
                        "order the result",
                        item,
                    )
        finally:
            if not known:
                self._lenient -= 1

    def _flow_body(
        self, body: ast.Node, env: _Env
    ) -> Tuple[AType, _Env, bool, List[Name]]:
        """``(element_or_value_type, sort_env, is_stream, locals)``."""
        if isinstance(body, ast.QueryBlock):
            return self._flow_block(body, env)
        if isinstance(body, ast.SetOp):
            left, __, left_stream, left_local = self._flow_body(body.left, env)
            right, __, right_stream, right_local = self._flow_body(
                body.right, env
            )
            self._report_unused(left_local + right_local)
            if left_stream and right_stream:
                return join(left, right), {}, True, []
            return TOP, {}, True, []
        if isinstance(body, ast.Query):
            return element_of(self.flow_query(body, env)), {}, True, []
        return self.infer(body, env), {}, False, []

    def _flow_block(
        self, block: ast.QueryBlock, outer_env: _Env
    ) -> Tuple[AType, _Env, bool, List[Name]]:
        env = dict(outer_env)
        local: List[Name] = []
        for item in block.from_ or ():
            local.extend(self._flow_from(item, env))
        for let in block.lets:
            binding = self._bind(env, let.name, "let", let, self.infer(let.expr, env))
            binding.report_unused = not let.name.startswith(("_", "$"))
            local.append(binding)
        if block.where is not None:
            self.infer(block.where, env)
            self._flow_predicate("WHERE", block.where, env, bool(block.from_))

        group_by = block.group_by
        if group_by is not None:
            key_types: List[Tuple[ast.GroupKey, AType]] = []
            for key in group_by.keys:
                key_type = self.infer(key.expr, env)
                if group_by.mode != "simple":
                    # ROLLUP/CUBE/GROUPING SETS: a key not in the
                    # active set evaluates to NULL for that group.
                    key_type = widen(key_type, NULL)
                key_types.append((key, key_type))
            # Grouping replaces the block scope: only the key aliases
            # and the GROUP AS variable survive.
            group_env = dict(outer_env)
            for key, key_type in key_types:
                self._bind(
                    group_env, key.alias, "key", key, key_type, shadow_check=False
                )
            if group_by.group_as is not None:
                # GROUP AS captures every block-local binding into the
                # group's tuples, so they all count as used.
                for binding in local:
                    binding.used = True
                names = {binding.name for binding in local}
                group_type = bag_of(
                    tuple_of(sorted((n, env[n].type) for n in names), open=False)
                )
                self._bind(group_env, group_by.group_as, "group", group_by, group_type)
            env = group_env

        if block.having is not None:
            self.infer(block.having, env)
            self._flow_predicate("HAVING", block.having, env, False)

        select = block.select
        if isinstance(select, ast.SelectValue):
            return self.infer(select.expr, env), env, True, local
        if isinstance(select, ast.SelectStar):
            for binding in env.values():
                binding.used = True
            return tuple_of(None), env, True, local
        if isinstance(select, ast.PivotClause):
            self.infer(select.value, env)
            self.infer(select.at, env)
            return TOP, env, False, local
        return TOP, env, True, local

    def _flow_from(self, item: ast.FromItem, env: _Env) -> List[Name]:
        """Flow one FROM item, binding its names into ``env``."""
        if isinstance(item, ast.FromCollection):
            source = self.infer(item.expr, env)
            present = _present(source)
            parts: List[AType] = []
            if source.cats & COLLECTION_CATEGORIES:
                parts.append(element_of(source))
            if present - COLLECTION_CATEGORIES:
                # Permissive mode ranges over a non-collection as a
                # singleton of itself (NULL/MISSING yield no bindings).
                parts.append(narrow(source, ARRAY, BAG, NULL, MISSING_CAT))
            if present and not present & COLLECTION_CATEGORIES:
                self._report(
                    "SQLPP107",
                    f"FROM ranges over a non-collection ({source.describe()}) "
                    f"as {item.alias!r}: a singleton under permissive typing, "
                    "a type error under strict",
                    item.expr,
                )
            bound = [self._bind(env, item.alias, "from", item, join_all(parts))]
            if item.at_alias is not None:
                # AT over an array is the position; over a bag MISSING.
                bound.append(
                    self._bind(
                        env, item.at_alias, "at", item, scalar(NUMBER, MISSING_CAT)
                    )
                )
            return bound
        if isinstance(item, ast.FromUnpivot):
            source = self.infer(item.expr, env)
            present = _present(source)
            parts = []
            if TUPLE in source.cats:
                if source.attrs is not None and not source.open:
                    parts.append(
                        join_all(
                            narrow(attr_type, MISSING_CAT)
                            for __, attr_type in source.attrs
                        )
                    )
                else:
                    parts.append(TOP)
            if present - {TUPLE}:
                # A non-tuple unpivots as the singleton {_1: value}.
                parts.append(narrow(source, TUPLE, NULL, MISSING_CAT))
            if present and TUPLE not in present:
                self._report(
                    "SQLPP108",
                    f"UNPIVOT over a non-tuple ({source.describe()}) as "
                    f"{item.value_alias!r}: {{'_1': value}} under permissive "
                    "typing, a type error under strict",
                    item.expr,
                )
            return [
                self._bind(env, item.value_alias, "from", item, join_all(parts)),
                self._bind(env, item.at_alias, "at", item, scalar(STRING)),
            ]
        if isinstance(item, ast.FromJoin):
            bound = self._flow_from(item.left, env)
            right = self._flow_from(item.right, env)
            if item.kind == "LEFT":
                # An unmatched left row pads the right side with NULL.
                for binding in right:
                    binding.type = widen(binding.type, NULL)
            if item.on is not None:
                self.infer(item.on, env)
                self._flow_predicate("ON", item.on, env, False)
            return bound + right
        return []

    # ------------------------------------------------------------------
    # Binding and resolution
    # ------------------------------------------------------------------

    def _bind(
        self,
        env: _Env,
        name: str,
        kind: str,
        node: ast.Node,
        atype: AType,
        shadow_check: bool = True,
    ) -> Name:
        previous = env.get(name)
        if shadow_check and previous is not None and not name.startswith("$"):
            self._report(
                "SQLPP002",
                f"{kind.upper()} binding {name!r} shadows the "
                f"{previous.kind.upper()} binding of the same name",
                node,
            )
        binding = Name(name, atype, kind, node.line, node.column)
        env[name] = binding
        return binding

    def _free(self, name: str, env: _Env) -> bool:
        """Neither a variable in scope, a named value, nor a
        rewriter-synthesized name (``$g`` — correct by construction)."""
        return name not in env and name not in self._names and not name.startswith("$")

    def _lookup(self, node: ast.VarRef, env: _Env) -> AType:
        binding = env.get(node.name)
        if binding is not None:
            binding.used = True
            return binding.type
        if self._free(node.name, env):
            self._report_unbound(node.name, env, node)
        return self._types.get(node.name, TOP)

    def _report_unbound(self, name: str, env: _Env, node: ast.Node) -> None:
        if self._lenient:
            return
        close = difflib.get_close_matches(name, sorted(set(env) | self._names), n=1)
        self._report(
            "SQLPP001",
            f"unbound name {name!r}: not a variable in scope and "
            "not a named value in the database",
            node,
            hint=f"did you mean {close[0]!r}?" if close else None,
        )

    def _report_unused(self, local: List[Name]) -> None:
        for binding in local:
            if binding.report_unused and not binding.used:
                self._report(
                    "SQLPP003",
                    f"LET binding {binding.name!r} is never used",
                    binding,
                    hint="remove it, or rename it with a leading "
                    "underscore to keep it intentionally",
                )

    # ------------------------------------------------------------------
    # Predicates: SQLPP120 / 121 / 124
    # ------------------------------------------------------------------

    def _flow_predicate(
        self, clause: str, expr: ast.Expr, env: _Env, has_from: bool
    ) -> None:
        conjuncts = split_conjuncts(expr)
        problem = never_true(
            [fold_expr(conjunct, self.config) for conjunct in conjuncts],
            self.config,
        )
        if problem is not None:
            self._report(
                "SQLPP120",
                f"the {clause} clause can never be TRUE: {problem.reason}",
                problem if problem.line is not None else expr,
                hint="no binding can ever satisfy this conjunction",
            )
            if clause == "WHERE" and has_from:
                self._report(
                    "SQLPP124",
                    "this query block is statically empty: its WHERE "
                    "clause is never TRUE",
                    expr,
                    hint="under optimize=True the planner collapses the "
                    "block to a zero-row plan (EXPLAIN shows `pruned:`)",
                )
            return
        for conjunct in conjuncts:
            if self._tautological(conjunct, env):
                self._report(
                    "SQLPP121",
                    f"`{_printed(conjunct)}` is always TRUE for every "
                    "binding that reaches it",
                    conjunct,
                    hint="the conjunct can be removed; the planner drops "
                    "proven-true conjuncts before pushdown",
                )

    def _tautological(self, conjunct: ast.Expr, env: _Env) -> bool:
        """``x = x`` / ``x <= x`` over a term the walk proves present and
        orderable (an absent operand makes the comparison absent)."""
        if not isinstance(conjunct, ast.Binary) or conjunct.op not in ("=", "<=", ">="):
            return False
        key = term_key(conjunct.left)
        if key is None or key != term_key(conjunct.right):
            return False
        # Already reported on when the clause was flowed: infer quietly.
        reported = self.diagnostics
        self.diagnostics = []
        try:
            inferred = self.infer(conjunct.left, env)
        finally:
            self.diagnostics = reported
        return inferred.only(NUMBER, STRING, BOOLEAN)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def infer(self, node: ast.Expr, env: _Env) -> AType:
        if isinstance(node, ast.Literal):
            return infer_literal(node.value)
        if isinstance(node, ast.VarRef):
            return self._lookup(node, env)
        if isinstance(node, ast.Path):
            return self._infer_path(node, env)
        if isinstance(node, ast.Index):
            return self._infer_index(node, env)
        if isinstance(node, ast.PathWildcard):
            self.infer(node.base, env)
            for step in node.steps:
                if step.index is not None:
                    self.infer(step.index, env)
            return array_of(None)
        if isinstance(node, ast.StructLit):
            return self._infer_struct(node, env)
        if isinstance(node, ast.ArrayLit):
            return array_of(self._element_join(node.items, env))
        if isinstance(node, ast.BagLit):
            return bag_of(self._element_join(node.items, env))
        if isinstance(node, ast.Unary):
            return self._infer_operator(node, [self.infer(node.operand, env)])
        if isinstance(node, ast.Binary):
            left = self.infer(node.left, env)
            return self._infer_operator(node, [left, self.infer(node.right, env)])
        if isinstance(node, ast.IsPredicate):
            self.infer(node.operand, env)
            return BOOLEAN_T
        if isinstance(node, ast.Like):
            self.infer(node.operand, env)
            self.infer(node.pattern, env)
            if node.escape is not None:
                self.infer(node.escape, env)
            return scalar(BOOLEAN, NULL, MISSING_CAT)
        if isinstance(node, ast.Between):
            self.infer(node.operand, env)
            self.infer(node.low, env)
            self.infer(node.high, env)
            # Desugars to AND of comparisons; AND folds absence and
            # permissive type errors into unknown (NULL).
            return scalar(BOOLEAN, NULL)
        if isinstance(node, ast.InPredicate):
            self.infer(node.operand, env)
            self.infer(node.collection, env)
            if node.negated:
                return scalar(BOOLEAN, NULL)
            return scalar(BOOLEAN, NULL, MISSING_CAT)
        if isinstance(node, ast.Exists):
            operand = self.infer(node.operand, env)
            if _present(operand) - COLLECTION_CATEGORIES:
                return widen(BOOLEAN_T, MISSING_CAT)
            return BOOLEAN_T
        if isinstance(node, ast.CaseExpr):
            return self._infer_case(node, env)
        if isinstance(node, ast.FunctionCall):
            return self._infer_call(node, env)
        if isinstance(node, ast.WindowCall):
            # The window-function name is dispatched by the window
            # engine, not the scalar registry: no name check.
            for arg in node.call.args:
                self.infer(arg, env)
            for expr in node.spec.partition_by:
                self.infer(expr, env)
            for item in node.spec.order_by:
                self.infer(item.expr, env)
            return TOP
        if isinstance(node, ast.SubqueryExpr):
            return self.flow_query(node.query, env)
        if isinstance(node, ast.CoerceSubquery):
            self.flow_query(node.query, env)
            return TOP
        if isinstance(node, ast.CastExpr):
            return self._infer_cast(node, env)
        return TOP

    # -- navigation ---------------------------------------------------

    def _infer_path(self, node: ast.Path, env: _Env) -> AType:
        names, root = _name_chain(node)
        if root is not None and self._free(root.name, env):
            # The evaluator's rescue: the shortest dotted prefix that
            # names a catalog value ('hr.emp' stored under one name).
            for length in range(2, len(names) + 1):
                dotted = ".".join(names[:length])
                if dotted in self._names:
                    if length == len(names):
                        return self._types.get(dotted, TOP)
                    break
            else:
                self._report_unbound(root.name, env, root)
                return TOP
        base = self.infer(node.base, env)
        parts: List[AType] = []
        if TUPLE in base.cats:
            if base.attrs is not None:
                attr_type = base.attr_map().get(node.attr)
                if attr_type is not None:
                    parts.append(attr_type)
                elif base.open:
                    parts.append(TOP)
                else:
                    # Provably falls off a closed tuple.
                    parts.append(MISSING_T)
            else:
                parts.append(TOP)
        if NULL in base.cats:
            parts.append(NULL_T)
        if MISSING_CAT in base.cats or _present(base) - {TUPLE}:
            # Navigating a non-tuple value: MISSING (permissive) or a
            # type error (strict).
            parts.append(MISSING_T)
        result = join_all(parts)
        if result.is_always_missing() and not base.is_always_absent():
            self._report(
                "SQLPP101",
                f"navigation .{node.attr} always produces MISSING",
                node,
                hint=f"the closed tuple shape here has no attribute {node.attr!r}"
                if TUPLE in base.cats
                else f"it navigates into a value typed {base.describe()}",
            )
        return result

    def _infer_index(self, node: ast.Index, env: _Env) -> AType:
        base = self.infer(node.base, env)
        index = self.infer(node.index, env)
        if TUPLE in base.cats:
            return TOP
        parts: List[AType] = []
        if base.cats & COLLECTION_CATEGORIES:
            parts.append(element_of(base))
        if NULL in base.cats or (NULL in index.cats and base.cats - {MISSING_CAT}):
            # A NULL base, or a NULL index into anything but MISSING.
            parts.append(NULL_T)
        # Out-of-bounds, non-integer index, or a non-indexable base:
        # MISSING (permissive) / raise (strict).
        parts.append(MISSING_T)
        result = join_all(parts)
        if result.is_always_missing() and not base.is_always_absent():
            self._report(
                "SQLPP101",
                f"indexing into a value typed {base.describe()} always "
                "produces MISSING",
                node,
            )
        return result

    # -- constructors -------------------------------------------------

    def _infer_struct(self, node: ast.StructLit, env: _Env) -> AType:
        attrs: Dict[str, AType] = {}
        literal_keys = True
        for field in node.fields:
            value_type = self.infer(field.value, env)
            key = field.key
            if isinstance(key, ast.Literal) and isinstance(key.value, str):
                # Later duplicates win at runtime; mirror that here.
                attrs[key.value] = value_type
            else:
                self.infer(key, env)
                literal_keys = False
        if not literal_keys:
            return tuple_of(None)
        return tuple_of(sorted(attrs.items()), open=False)

    def _element_join(self, items: List[ast.Expr], env: _Env) -> Optional[AType]:
        # Constructors drop MISSING elements.
        joined = join_all(narrow(self.infer(item, env), MISSING_CAT) for item in items)
        return joined if items else None

    # -- operators ----------------------------------------------------

    def _infer_operator(
        self, node: Union[ast.Unary, ast.Binary], operands: List[AType]
    ) -> AType:
        """The derived transfer over every combination of operand
        categories; a mismatch when every combination of *present*
        categories yields only MISSING."""
        op = node.op.upper()
        present = [transfer(op, *cats) for cats in product(*map(_present, operands))]
        if present and all(cell == MISSING_T.cats for cell in present):
            self._report_mismatch(node, op, operands)
        every = product(*(operand.cats for operand in operands))
        return scalar(*{cat for cats in every for cat in transfer(op, *cats)})

    def _report_mismatch(
        self, node: Union[ast.Unary, ast.Binary], op: str, operands: List[AType]
    ) -> None:
        described = [operand.describe() for operand in operands]
        if op in ("=", "!="):
            self._report(
                "SQLPP102",
                f"{node.op} compares disjoint types ({' vs '.join(described)}); "
                "it can never compare actual values",
                node,
            )
        elif op in ("<", "<=", ">", ">="):
            self._report(
                "SQLPP102",
                f"{node.op} compares values with no common order "
                f"({' vs '.join(described)})",
                node,
            )
        else:
            if len(operands) == 1:
                kind = "unary"
            else:
                kind = "concatenation" if op == "||" else "arithmetic"
            self._report(
                "SQLPP106",
                f"{kind} {node.op} over {' and '.join(described)} never "
                "produces a value: MISSING under permissive typing, a type "
                "error under strict",
                node,
            )

    # -- conditionals, calls, casts ----------------------------------

    def _infer_case(self, node: ast.CaseExpr, env: _Env) -> AType:
        if node.operand is not None:
            self.infer(node.operand, env)
        branches: List[AType] = []
        for when, then in node.whens:
            self.infer(when, env)
            branches.append(self.infer(then, env))
        otherwise = NULL_T if node.else_ is None else self.infer(node.else_, env)
        result = join_all(branches + [otherwise])
        if not self.config.sql_compat:
            # Core semantics: a MISSING operand/condition makes the
            # whole CASE MISSING (compat treats it as a non-match).
            result = widen(result, MISSING_CAT)
        return result

    def _infer_call(self, node: ast.FunctionCall, env: _Env) -> AType:
        from repro.functions.registry import REGISTRY

        definition = REGISTRY.lookup(node.name)
        if definition is None and not node.name.startswith("$"):
            self._report_unknown_function(node)
        elif definition is not None and not node.star:
            refused = definition.arity_error(len(node.args))
            if refused is not None:
                self._report("SQLPP004", refused, node)
        arg_types = [self.infer(arg, env) for arg in node.args]
        if definition is None:
            return TOP
        if definition.is_aggregate and arg_types:
            operand = arg_types[0]
            if operand.cats and not (
                operand.cats & (COLLECTION_CATEGORIES | ABSENT_CATEGORIES)
            ):
                self._report(
                    "SQLPP103",
                    f"{definition.name} applied to a value that is "
                    f"never a collection ({operand.describe()})",
                    node,
                )
        if definition.result == "ARGUMENT":
            return widen(join_all(arg_types), NULL, MISSING_CAT)
        return _of_kind(definition.result)

    def _report_unknown_function(self, node: ast.FunctionCall) -> None:
        from repro.functions.aggregates import SQL_AGGREGATES
        from repro.functions.registry import REGISTRY

        name = node.name.upper()
        if name in SQL_AGGREGATES:
            hint: Optional[str] = (
                "SQL aggregates are compat-mode sugar; in core mode call "
                f"{SQL_AGGREGATES[name]} over a collection"
            )
        else:
            close = difflib.get_close_matches(name, REGISTRY.names(), n=1)
            hint = f"did you mean {close[0]}?" if close else None
        self._report("SQLPP004", f"unknown function {node.name!r}", node, hint=hint)

    def _infer_cast(self, node: ast.CastExpr, env: _Env) -> AType:
        self.infer(node.operand, env)
        return _of_kind(CAST_TARGETS.get(node.type_name.upper()))


def _of_kind(kind: Optional[str]) -> AType:
    """A declared ``IS`` kind's categories (⊤ when None) in the envelope
    of absence propagation and permissive type errors."""
    if kind is None:
        return TOP
    return scalar(*is_kind_categories(kind), NULL, MISSING_CAT)


def _name_chain(node: ast.Path) -> Tuple[List[str], Optional[ast.VarRef]]:
    """``hr.emp.name`` -> ``(['hr', 'emp', 'name'], VarRef('hr'))``; the
    root is None when the path does not bottom out in a variable."""
    names: List[str] = []
    current: ast.Expr = node
    while isinstance(current, ast.Path):
        names.append(current.attr)
        current = current.base
    if not isinstance(current, ast.VarRef):
        return names, None
    names.append(current.name)
    names.reverse()
    return names, current


def _printed(node: ast.Node) -> str:
    from repro.syntax.printer import print_ast

    return print_ast(node)


# ----------------------------------------------------------------------
# Entry points: every client reaches the walk through one of these
# ----------------------------------------------------------------------


def flow_diagnostics(
    query: ast.Query,
    config: Optional[EvalConfig] = None,
    catalog_names: Sequence[str] = (),
    catalog_types: Optional[Mapping[str, AType]] = None,
) -> List[Diagnostic]:
    """Every finding of one walk over a Core query."""
    flow = TypeFlow(config, catalog_types, catalog_names)
    flow.flow_query(query)
    return flow.diagnostics


def infer_in_scope(
    expr: ast.Expr,
    config: Optional[EvalConfig] = None,
    catalog_types: Optional[Mapping[str, AType]] = None,
    items: Sequence[ast.FromItem] = (),
) -> AType:
    """The abstract type of ``expr`` for the bindings of ``items``."""
    flow = TypeFlow(config, catalog_types)
    env: _Env = {}
    for item in items:
        flow._flow_from(item, env)
    return flow.infer(expr, env)


def infer_expression(
    source: str,
    env: Optional[Mapping[str, AType]] = None,
    config: Optional[EvalConfig] = None,
    catalog_types: Optional[Mapping[str, AType]] = None,
) -> Tuple[AType, List[Diagnostic]]:
    """The abstract type of a standalone expression, and the findings
    the walk emitted over it (what the soundness property drives)."""
    from repro.syntax.parser import parse_expression

    flow = TypeFlow(config, catalog_types)
    names = {name: Name(name, atype) for name, atype in (env or {}).items()}
    result = flow.infer(parse_expression(source), names)
    return result, flow.diagnostics
