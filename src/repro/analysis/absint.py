"""Abstract interpretation over the rewritten SQL++ Core.

Three cooperating analyses, all *sound under two-valued absence*
(NULL vs MISSING, paper Section IV) in both typing modes:

* **Constant folding** (:func:`fold_query` / :func:`fold_expr`) —
  literal arithmetic, string concatenation, boolean connectives,
  comparisons, ``BETWEEN`` / ``LIKE`` / ``IN`` / ``IS`` over literal
  operands, and ``CASE`` with a constant scrutinee.  Folding *runs the
  engine's compiled closure* (:func:`repro.core.compile_expr.compile_expr`)
  of the node under the query's own :class:`~repro.config.EvalConfig`,
  so a fold can never disagree with evaluation; a subexpression whose
  evaluation raises (e.g. ``1 + 'a'`` in strict mode) simply stays
  unfolded.

* **Conjunction satisfiability** (:func:`never_true`) — an interval /
  value-set / type-category domain over the conjuncts of a WHERE, ON
  or HAVING clause.  Its categories are the lattice's
  (:mod:`repro.analysis.lattice`), and ``IS [NOT] <kind>`` narrows a
  term to the lattice's derived IS-kind map.  The key observation
  making this mode-safe: a filter keeps a binding only when the
  predicate is *exactly* ``TRUE``
  (:func:`repro.functions.operators.is_true`), so proving the
  conjunction can never be TRUE proves the clause empty even when
  individual conjuncts yield NULL or MISSING.  Comparisons against an
  absent literal can never be TRUE *and can never raise* — ``compare``
  and ``equals`` return NULL/MISSING before any type check — so those
  proofs hold in strict mode too.

* **Emptiness pruning** (:func:`block_prune_reason`) — decides when a
  proven never-TRUE WHERE clause lets the planner collapse the whole
  FROM pipeline to a zero-row operator.  Beyond the proof itself this
  needs an *erasure* argument (dropping the FROM enumeration and the
  per-row predicate evaluation must not erase an error or a side
  effect), which only holds under permissive typing with relocatable,
  fully-bound expressions; the gate mirrors the planner's existing
  pushdown soundness conditions (docs/PLANNER.md).

:func:`constant_diagnostics` reports the folding facts to users as lint
rules SQLPP122 / SQLPP123; the type-flow walk
(:mod:`repro.analysis.typeflow`) reports the conjunction facts as
SQLPP120 / 121 / 124 at each WHERE, HAVING and ON (docs/ANALYZER.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from repro import errors
from repro.config import EvalConfig
from repro.core.compile_expr import compile_expr
from repro.core.environment import Environment
from repro.core.planner import (
    free_names,
    is_relocatable,
    item_vars,
    split_conjuncts,
)
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import MISSING
from repro.functions import operators as ops
from repro.syntax import ast
from repro.syntax.printer import print_ast

if TYPE_CHECKING:
    from repro.analysis.diagnostics import Diagnostic

__all__ = [
    "Contradiction",
    "block_prune_reason",
    "constant_diagnostics",
    "fold_expr",
    "fold_query",
    "never_true",
    "term_key",
    "unreachable_whens",
]


# =========================================================================
# Constant folding
# =========================================================================

#: Sentinel for "this branch's verdict is not statically known".
_UNKNOWN = object()


def _is_scalar(value: Any) -> bool:
    return (
        value is None
        or value is MISSING
        or isinstance(value, (bool, int, float, str))
    )


def _is_const(node: ast.Node) -> bool:
    """True for a literal scalar/absent value we may compute with."""
    return isinstance(node, ast.Literal) and _is_scalar(node.value)


def _const_value(node: ast.Node) -> Any:
    return cast(ast.Literal, node).value


def _literal(value: Any, origin: ast.Node) -> ast.Literal:
    """A folded literal carrying the origin node's source span."""
    folded = ast.Literal(value=value)
    ast.copy_span(folded, origin)
    return folded


#: A CASE branch's static outcome (:func:`_case_outcomes`).
_TAKEN, _ABSENT, _SKIPPED, _DYNAMIC, _DEAD = (
    "taken", "missing", "skipped", "dynamic", "dead"
)


def _case_outcomes(node: ast.CaseExpr, config: EvalConfig) -> List[str]:
    """Each WHEN branch's static outcome, in order, mirroring
    ``ReferenceEvaluator._eval_caseexpr``: taken (reached, it produces
    the result), missing (reached, the whole CASE is MISSING outside
    sql_compat — a MISSING simple-CASE operand makes the first branch
    so), skipped (a constant non-match), dynamic (decided at runtime,
    or comparing the simple-CASE operand would raise), dead (after a
    taken or missing branch).  Empty for a simple CASE whose operand
    is not constant."""
    subject: Any = None
    if node.operand is not None:
        if not _is_const(node.operand):
            return []
        subject = _const_value(node.operand)
    propagate = not config.sql_compat
    outcomes: List[str] = []
    for condition, __ in node.whens:
        if outcomes and outcomes[-1] in (_TAKEN, _ABSENT, _DEAD):
            outcomes.append(_DEAD)
            continue
        verdict: Any = _UNKNOWN
        if subject is MISSING and propagate:
            verdict = MISSING
        elif _is_const(condition):
            verdict = _const_value(condition)
            if node.operand is not None:
                try:
                    verdict = ops.equals(subject, verdict, config)
                except errors.SQLPPError:
                    verdict = _UNKNOWN
        if verdict is _UNKNOWN:
            outcomes.append(_DYNAMIC)
        elif verdict is True:
            outcomes.append(_TAKEN)
        elif verdict is MISSING and propagate:
            outcomes.append(_ABSENT)
        else:  # FALSE / NULL / non-boolean / sql_compat MISSING
            outcomes.append(_SKIPPED)
    return outcomes


def _fold_case(node: ast.CaseExpr, config: EvalConfig) -> ast.Expr:
    """Fold a CASE whose scrutinee (and some conditions) are constant:
    drop the branches that never match (sound because literal
    conditions are pure) and everything after the first branch that
    always does or makes the CASE MISSING."""
    outcomes = _case_outcomes(node, config)
    if not outcomes:
        return node
    kept: List[Tuple[ast.Expr, ast.Expr]] = []
    else_: Optional[ast.Expr] = node.else_
    for (condition, result), outcome in zip(node.whens, outcomes):
        if outcome == _SKIPPED:
            continue
        if outcome in (_TAKEN, _ABSENT) and not kept:
            # No dynamic condition before it: decided.
            return result if outcome == _TAKEN else _literal(MISSING, node)
        kept.append((condition, result))
        if outcome in (_TAKEN, _ABSENT):
            # Reached => decides (the runtime produces the result or the
            # MISSING): the rest is unreachable.
            else_ = None
            break
    if not kept:
        # Every branch statically misses: the CASE is its ELSE arm.
        return else_ if else_ is not None else _literal(None, node)
    if len(kept) == len(node.whens) and else_ is node.else_:
        return node
    folded = ast.CaseExpr(operand=node.operand, whens=kept, else_=else_)
    ast.copy_span(folded, node)
    return folded


#: The node kinds folded when every operand is a constant.
_FOLDABLE = (
    ast.Unary, ast.Binary, ast.IsPredicate, ast.Between, ast.Like, ast.InPredicate
)


def _constant_operands(node: ast.Node) -> bool:
    """Whether ``node`` is foldable and its operands are constants (an
    IN's collection: an array or bag literal of constants)."""
    if not isinstance(node, _FOLDABLE):
        return False
    if isinstance(node, ast.InPredicate):
        collection = node.collection
        return (
            _is_const(node.operand)
            and isinstance(collection, (ast.ArrayLit, ast.BagLit))
            and all(map(_is_const, collection.items))
        )
    return all(map(_is_const, node.children()))


@lru_cache(maxsize=8)
def _constant_evaluator(config: EvalConfig) -> Any:
    """An engine evaluator over no catalog, to run constant closures."""
    from repro.core.evaluator import Evaluator

    return Evaluator({}, config)


def _fold_node(node: ast.Node, config: EvalConfig) -> ast.Node:
    """One bottom-up folding step (children already folded)."""
    if isinstance(node, ast.CaseExpr):
        return _fold_case(node, config)
    if not _constant_operands(node):
        return node
    expr = cast(ast.Expr, node)
    try:
        result = compile_expr(expr, _constant_evaluator(config))(Environment())
    except errors.SQLPPError:
        # Evaluating this operator raises at runtime (e.g. a strict-mode
        # type mismatch, or a LIKE pattern ending in its escape char):
        # keep the node so the runtime raises exactly as before.
        return node
    return _literal(result, node) if _is_scalar(result) else node


def fold_expr(expr: ast.Expr, config: EvalConfig) -> ast.Expr:
    """The expression with every statically-computable subtree folded."""
    return cast(
        ast.Expr, expr.transform(lambda node: _fold_node(node, config))
    )


def fold_query(query: ast.Query, config: EvalConfig) -> Tuple[ast.Query, int]:
    """Constant-fold a Core query; returns ``(query, folds)``.

    ``folds`` counts replaced nodes (0 means the original object is
    returned untouched, preserving object identity for plan caches).
    """
    folds = 0

    def fold(node: ast.Node) -> ast.Node:
        nonlocal folds
        replacement = _fold_node(node, config)
        if replacement is not node:
            folds += 1
        return replacement

    folded = cast(ast.Query, query.transform(fold))
    return (folded, folds) if folds else (query, 0)


# =========================================================================
# Conjunction satisfiability: interval / value-set / category domain
# =========================================================================


@dataclass(frozen=True)
class Contradiction:
    """Why a conjunction can never be exactly TRUE, with a span."""

    reason: str
    line: Optional[int] = None
    column: Optional[int] = None


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}

_CMP_OPS = frozenset(["=", "!=", "<", "<=", ">", ">="])

@dataclass
class _TermState:
    """Accumulated constraints on one comparable term (``x``, ``a.b``):
    the lattice categories it may inhabit, and over its scalar values a
    value set, bounds and exclusions."""

    key: str
    cats: Optional[FrozenSet[str]] = None
    values: Optional[List[Any]] = None
    lower: Optional[Any] = None
    lower_strict: bool = False
    upper: Optional[Any] = None
    upper_strict: bool = False
    excluded: List[Any] = field(default_factory=list)

    def constrain_cats(self, cats: FrozenSet[str]) -> Optional[str]:
        merged = cats if self.cats is None else self.cats & cats
        self.cats = merged
        if not merged:
            return (
                f"the type requirements on `{self.key}` are "
                "simultaneously unsatisfiable"
            )
        return None

    def constrain_value(self, value: Any) -> None:
        if self.values is None:
            self.values = [value]
        else:
            self.values = [
                v for v in self.values if deep_equals(v, value)
            ]

    def exclude_value(self, value: Any) -> None:
        self.excluded.append(value)

    def constrain_lower(self, value: Any, strict: bool) -> None:
        if self.lower is None or value > self.lower:
            self.lower, self.lower_strict = value, strict
        elif value == self.lower:
            self.lower_strict = self.lower_strict or strict

    def constrain_upper(self, value: Any, strict: bool) -> None:
        if self.upper is None or value < self.upper:
            self.upper, self.upper_strict = value, strict
        elif value == self.upper:
            self.upper_strict = self.upper_strict or strict

    def normalize(self) -> Optional[str]:
        """Check consistency after a mutation; a reason means empty."""
        from repro.analysis.lattice import category_of

        if self.values is not None:
            kept = []
            for value in self.values:
                kind = category_of(value)
                if self.cats is not None and kind not in self.cats:
                    continue
                if self.lower is not None:
                    if kind != category_of(self.lower):
                        continue
                    if self.lower_strict:
                        if not value > self.lower:
                            continue
                    elif not value >= self.lower:
                        continue
                if self.upper is not None:
                    if kind != category_of(self.upper):
                        continue
                    if self.upper_strict:
                        if not value < self.upper:
                            continue
                    elif not value <= self.upper:
                        continue
                if any(deep_equals(value, e) for e in self.excluded):
                    continue
                kept.append(value)
            self.values = kept
            if not kept:
                return (
                    f"no value of `{self.key}` satisfies every equality "
                    "and range constraint at once"
                )
        if (
            self.lower is not None
            and self.upper is not None
            and category_of(self.lower) == category_of(self.upper)
        ):
            if self.lower > self.upper or (
                self.lower == self.upper
                and (self.lower_strict or self.upper_strict)
            ):
                return (
                    f"the bounds on `{self.key}` describe an empty range"
                )
            if (
                self.lower == self.upper
                and not self.lower_strict
                and not self.upper_strict
                and any(deep_equals(self.lower, e) for e in self.excluded)
            ):
                return (
                    f"the only value `{self.key}` could take is "
                    "explicitly excluded"
                )
        return None


def term_key(expr: ast.Expr) -> Optional[str]:
    """A stable identity for a deterministic navigation chain, or None."""
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.Path):
        base = term_key(expr.base)
        return None if base is None else f"{base}.{expr.attr}"
    if isinstance(expr, ast.Index) and isinstance(expr.index, ast.Literal):
        position = expr.index.value
        if isinstance(position, int) and not isinstance(position, bool):
            base = term_key(expr.base)
            return None if base is None else f"{base}[{position}]"
    return None


def _absent_contradiction(
    value: Any, origin: ast.Expr
) -> Optional[Contradiction]:
    """A comparison against an absent literal can never be TRUE (and,
    because ``compare``/``equals`` return before any type check, can
    never raise either — the proof is strict-mode safe)."""
    if value is None or value is MISSING:
        rendered = "NULL" if value is None else "MISSING"
        return Contradiction(
            f"`{print_ast(origin)}` compares against {rendered}, "
            "which never yields TRUE",
            origin.line,
            origin.column,
        )
    return None


def _apply_cmp(
    states: Dict[str, _TermState],
    key: str,
    op: str,
    value: Any,
    origin: ast.Expr,
) -> Optional[Contradiction]:
    from repro.analysis.lattice import category_of

    absent = _absent_contradiction(value, origin)
    if absent is not None:
        return absent
    state = states.setdefault(key, _TermState(key))
    reason = state.constrain_cats(frozenset({category_of(value)}))
    if reason is None:
        if op == "=":
            state.constrain_value(value)
        elif op == "!=":
            state.exclude_value(value)
        elif op in (">", ">="):
            state.constrain_lower(value, strict=op == ">")
        else:
            state.constrain_upper(value, strict=op == "<")
        reason = state.normalize()
    if reason is not None:
        return Contradiction(reason, origin.line, origin.column)
    return None


def _apply_conjunct(
    conjunct: ast.Expr,
    states: Dict[str, _TermState],
    config: EvalConfig,
) -> Optional[Contradiction]:
    """Fold one conjunct into the per-term states; unrecognized shapes
    contribute nothing (which is always sound)."""
    # The lattice is imported on first use here and in _TermState /
    # _apply_cmp: folding, which every compile runs, does not need it.
    from repro.analysis.lattice import category_of, is_kind_categories

    if isinstance(conjunct, ast.Binary) and conjunct.op in _CMP_OPS:
        key = term_key(conjunct.left)
        if key is not None and _is_const(conjunct.right):
            return _apply_cmp(
                states, key, conjunct.op, _const_value(conjunct.right), conjunct
            )
        key = term_key(conjunct.right)
        if key is not None and _is_const(conjunct.left):
            return _apply_cmp(
                states,
                key,
                _FLIP[conjunct.op],
                _const_value(conjunct.left),
                conjunct,
            )
        return None

    if isinstance(conjunct, ast.Between):
        low = _const_value(conjunct.low) if _is_const(conjunct.low) else _UNKNOWN
        high = (
            _const_value(conjunct.high) if _is_const(conjunct.high) else _UNKNOWN
        )
        for bound in (low, high):
            if bound is not _UNKNOWN:
                absent = _absent_contradiction(bound, conjunct)
                if absent is not None:
                    return absent
        if conjunct.negated:
            return None
        key = term_key(conjunct.operand)
        if key is None:
            return None
        if low is not _UNKNOWN:
            problem = _apply_cmp(states, key, ">=", low, conjunct)
            if problem is not None:
                return problem
        if high is not _UNKNOWN:
            return _apply_cmp(states, key, "<=", high, conjunct)
        return None

    if (
        isinstance(conjunct, ast.InPredicate)
        and not conjunct.negated
        and isinstance(conjunct.collection, (ast.ArrayLit, ast.BagLit))
        and all(_is_const(item) for item in conjunct.collection.items)
    ):
        key = term_key(conjunct.operand)
        if key is None:
            return None
        values = [
            value
            for value in map(_const_value, conjunct.collection.items)
            if value is not None and value is not MISSING
        ]
        if not values:
            return Contradiction(
                f"`{print_ast(conjunct)}` has no comparable element, "
                "so it never yields TRUE",
                conjunct.line,
                conjunct.column,
            )
        state = states.setdefault(key, _TermState(key))
        reason = state.constrain_cats(frozenset(map(category_of, values)))
        if reason is None:
            if state.values is None:
                state.values = list(values)
            else:
                state.values = [
                    v
                    for v in state.values
                    if any(deep_equals(v, member) for member in values)
                ]
            reason = state.normalize()
        if reason is not None:
            return Contradiction(reason, conjunct.line, conjunct.column)
        return None

    if isinstance(conjunct, ast.IsPredicate):
        key = term_key(conjunct.operand)
        if key is None or conjunct.kind not in ops.IS_KINDS:
            return None
        cats = is_kind_categories(conjunct.kind, conjunct.negated)
        state = states.setdefault(key, _TermState(key))
        reason = state.constrain_cats(cats) or state.normalize()
        if reason is not None:
            return Contradiction(reason, conjunct.line, conjunct.column)
        return None

    return None


def never_true(
    conjuncts: Sequence[ast.Expr], config: EvalConfig
) -> Optional[Contradiction]:
    """Prove a conjunction can never be exactly TRUE, or return None.

    Sound in both typing modes: every recognized fact only narrows what
    a term must be *for its conjunct to yield TRUE*; everything
    unrecognized is ignored.  The caller decides separately whether the
    proof licenses any transformation (see :func:`block_prune_reason`).
    """
    states: Dict[str, _TermState] = {}
    for conjunct in conjuncts:
        if isinstance(conjunct, ast.Literal):
            if conjunct.value is True:
                continue
            return Contradiction(
                f"the conjunct `{print_ast(conjunct)}` is never TRUE",
                conjunct.line,
                conjunct.column,
            )
        problem = _apply_conjunct(conjunct, states, config)
        if problem is not None:
            return problem
    return None


# =========================================================================
# Emptiness pruning (planner entry point)
# =========================================================================


def _enumeration_total(item: ast.FromItem, available: Set[str]) -> bool:
    """True when enumerating this FROM item can neither raise nor have
    effects under permissive typing, extending ``available`` with the
    names it binds.  Permissive range/UNPIVOT enumeration itself is
    total (non-collections become singletons, absent values zero
    bindings), so only the source expressions and ON need checking —
    ``is_relocatable`` refuses what raises in both typing modes (an
    unknown function, ``CAST`` target or ``IS`` type name)."""
    if isinstance(item, ast.FromJoin):
        if not _enumeration_total(item.left, available):
            return False
        if not _enumeration_total(item.right, available):
            return False
        on = item.on
        if on is not None:
            return is_relocatable(on) and free_names(on) <= available
        return True
    if isinstance(item, (ast.FromCollection, ast.FromUnpivot)):
        source = item.expr
        if not is_relocatable(source):
            return False
        if not free_names(source) <= available:
            return False
        available.update(item_vars(item))
        return True
    return False


def block_prune_reason(
    block: ast.QueryBlock,
    config: EvalConfig,
    catalog_names: Optional[Set[str]] = None,
) -> Optional[str]:
    """Why this block's FROM/WHERE pipeline may collapse to zero rows.

    Returns a human-readable reason when (a) the WHERE conjunction is
    proven never-TRUE and (b) erasing the enumeration is invisible:
    permissive typing only (strict enumeration/predicates may raise),
    every conjunct relocatable (no windows, subqueries or parameters),
    all names bound by the catalog or the block's own FROM items, and
    FROM enumeration proven total.  ``None`` means "do not prune".
    """
    if block.where is None or not block.from_ or block.lets:
        return None
    if not config.is_permissive:
        return None
    conjuncts = [
        fold_expr(conjunct, config)
        for conjunct in split_conjuncts(block.where)
    ]
    problem = never_true(conjuncts, config)
    if problem is None:
        return None
    if not all(is_relocatable(conjunct) for conjunct in conjuncts):
        return None
    available: Set[str] = set(catalog_names or ())
    for item in block.from_:
        if not _enumeration_total(item, available):
            return None
    if not free_names(block.where) <= available:
        return None
    return problem.reason


# =========================================================================
# Lint rules SQLPP120-124
# =========================================================================


def unreachable_whens(node: ast.CaseExpr, config: EvalConfig) -> List[int]:
    """Indices of CASE branches that can never produce the result."""
    return [
        index
        for index, outcome in enumerate(_case_outcomes(node, config))
        if outcome not in (_TAKEN, _DYNAMIC)
    ]


def _reportable_fold(node: ast.Expr, config: EvalConfig) -> Optional[ast.Expr]:
    """The folded literal when flagging this node is useful, else None.

    Bare literals and the ``-5`` / ``+5`` parser idiom are not worth a
    finding; everything else that folds to a literal is."""
    if isinstance(node, ast.Literal):
        return None
    if isinstance(node, ast.Unary) and isinstance(node.operand, ast.Literal):
        return None
    folded = fold_expr(node, config)
    if isinstance(folded, ast.Literal) and folded is not node:
        return folded
    return None


def constant_diagnostics(core: ast.Query, config: EvalConfig) -> List["Diagnostic"]:
    """SQLPP122 on each *maximal* constant-foldable subexpression and
    SQLPP123 on each dead CASE branch of one rewritten Core query."""
    from repro.analysis.rules import make

    out: List["Diagnostic"] = []

    def visit(node: ast.Node) -> None:
        if isinstance(node, ast.Expr):
            folded = _reportable_fold(node, config)
            if folded is not None:
                out.append(
                    make(
                        "SQLPP122",
                        f"`{print_ast(node)}` always evaluates to "
                        f"`{print_ast(folded)}`",
                        node.line,
                        node.column,
                        hint="the optimizer folds this to a literal; "
                        "consider writing the value directly",
                    )
                )
                return  # maximal: do not descend into reported nodes
        for child in node.children():
            visit(child)

    visit(core)
    for node in core.walk():
        if isinstance(node, ast.CaseExpr):
            for index in unreachable_whens(node, config):
                condition = node.whens[index][0]
                out.append(
                    make(
                        "SQLPP123",
                        f"CASE branch {index + 1} can never be taken",
                        condition.line,
                        condition.column,
                        hint="the optimizer removes statically dead "
                        "CASE branches",
                    )
                )
    return out
