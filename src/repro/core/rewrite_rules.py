"""Semantic rewrite rules: a safety-checked registry over the Core AST.

The planner (:mod:`repro.core.planner`) rewrites *physical* execution —
hash joins, pushdown — without changing the Core query.  This module
rewrites the Core query itself, between sugar lowering
(:mod:`repro.core.rewriter`) and planning, turning shapes the executor
runs naively (correlated subqueries re-evaluated per outer row,
``OR``-chains probed linearly, repeated subqueries re-computed) into
cheaper equivalents the planner can then accelerate.

Every rule pairs a *matcher* with a *transformer* and, when it fires,
emits a :class:`RewriteResult` recording exactly which safety
conditions it discharged.  Equivalences that are textbook-safe in
two-valued SQL are **not** safe in SQL++ unchecked: the configurable
NULL/MISSING semantics (paper, Section IV) mean a correlation key may
be MISSING, ``=`` may yield MISSING instead of raising, and permissive
mode ranges ``FROM`` over a non-collection as a singleton.  Each rule
therefore either *proves* the hazard away — via the
:mod:`repro.analysis` typeflow lattice when schema information exists —
or *guards* it with an explicit filter (e.g. ``IS NOT MISSING`` on a
semi-join key), and refuses to fire when neither is possible.

The registry:

``SQLPPR01`` exists-to-semijoin
    A correlated ``EXISTS``/``IN``-subquery conjunct becomes an INNER
    join against the DISTINCT correlation-key values of the subquery —
    hash-joinable, turning O(outer x inner) into O(outer + inner).

``SQLPPR02`` decorrelate-scalar
    A correlated single-aggregate scalar subquery becomes a LEFT join
    against the subquery grouped by its correlation key.

``SQLPPR03`` or-to-in
    ``x = c1 OR x = c2 OR ...`` (literals) becomes ``x IN [c1, c2, ...]``,
    unlocking the compiled set-probe fast path and pushdown.

``SQLPPR04`` cse-to-let
    A subquery repeated in unconditional positions is hoisted into a
    ``LET``, evaluated once per binding instead of once per occurrence.

Rewrites run whenever ``config.optimize`` is on; all but ``SQLPPR03``
additionally require permissive typing, because they change how often
subexpressions are evaluated and only permissive evaluation is total.
Results must be indistinguishable from the oracle's
(``optimize=False``, which never rewrites) — the property tests in
``tests/properties/test_rewrite_equivalence.py`` and the full
compat-kit sweep in ``tests/compat/test_rewrite_parity.py`` pin that.

``REGISTRY_VERSION`` participates in the :class:`~repro.catalog.Database`
compile-cache key, so bumping it (any rule change) invalidates cached
rewritten queries exactly once, mirroring the stats provider's
``feedback_version``.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import EvalConfig
from repro.core.clauses import FreshNames, block_vars, bound_names, item_vars
from repro.core.planner import and_fold, free_names, is_relocatable, split_conjuncts
from repro.syntax import ast
from repro.syntax.ast import copy_span, copy_span_tree
from repro.syntax.printer import print_ast

#: Bumped on any change to a rule's matcher or transformer.  Part of the
#: Database compile-cache key: cached (pre, post, fired) entries from an
#: older registry must not survive an upgrade.
REGISTRY_VERSION = 2

#: The aggregate functions SQLPPR02 knows how to decorrelate.  Each maps
#: to how an *empty* group coerces on the original path, which the LEFT
#: join's NULL padding must reproduce: ``COLL_COUNT`` of an empty group
#: is 0 (needs a CASE), every other listed aggregate is NULL (matches
#: the padding directly).
_DECORRELATABLE_AGGREGATES = frozenset(
    {"COLL_SUM", "COLL_COUNT", "COLL_AVG", "COLL_MIN", "COLL_MAX"}
)

#: Minimum ``=``-disjuncts before SQLPPR03 rewrites an OR-chain; below
#: this the linear probe is as fast as the set probe.
_MIN_OR_CHAIN = 3

#: Fire-count bound per rule per block per pass (a runaway matcher must
#: not loop the driver; real queries fire each rule a handful of times).
_MAX_FIRES_PER_BLOCK = 16


@dataclass(frozen=True)
class RewriteResult:
    """One rule firing: what was rewritten and which safety conditions
    were discharged to allow it."""

    #: Registry code, e.g. ``"SQLPPR01"``.
    code: str
    #: Short rule name, e.g. ``"exists-to-semijoin"``.
    name: str
    #: Human description of the fire site ("EXISTS over orders ...").
    detail: str
    #: The safety conditions this firing discharged, as prose — each is
    #: either a proof ("correlation key provably non-MISSING ...") or a
    #: guard ("guarded with IS NOT MISSING").
    safety: Tuple[str, ...]
    #: Source position of the rewritten construct, for lint output.
    line: Optional[int] = None
    column: Optional[int] = None

    def describe(self) -> str:
        """One EXPLAIN line: ``SQLPPR01 exists-to-semijoin: <detail>``."""
        return f"{self.code} {self.name}: {self.detail}"


class RewriteContext:
    """Per-pass state shared by the rules: the config, optional abstract
    catalog types feeding the typeflow safety checks, and the pass's
    fresh-name supply over ``query`` (``$semi1``, ``$dec2`` — numbered
    like the sugar rewriter's ``$group1``, and never a name the query
    already uses)."""

    def __init__(
        self,
        config: EvalConfig,
        catalog_types: Optional[Dict[str, object]],
        query: ast.Query,
    ) -> None:
        self.config = config
        self.catalog_types: Dict[str, object] = dict(catalog_types or {})
        self.fresh = FreshNames(query)

    # ------------------------------------------------------------------
    # Typeflow-backed safety checks
    # ------------------------------------------------------------------

    def key_provably_present(
        self, item: ast.FromItem, key: ast.Expr
    ) -> bool:
        """Whether the typeflow lattice proves ``key`` is never MISSING
        for bindings of ``item`` (so a semi-join needs no ``IS NOT
        MISSING`` guard)."""
        return self._never_missing(key, (item,), elements=False)

    def elements_provably_present(self, collection: ast.Expr) -> bool:
        """Whether the typeflow lattice proves every element of
        ``collection`` (an uncorrelated subquery) is non-MISSING."""
        return self._never_missing(collection, (), elements=True)

    def _never_missing(
        self,
        expr: ast.Expr,
        items: Tuple[ast.FromItem, ...],
        elements: bool,
    ) -> bool:
        """The type-flow walk's verdict over the bindings of ``items``.
        Absence of schema information means "no": the lattice only
        proves presence from declared shapes."""
        if not self.catalog_types:
            return False
        from repro.analysis.lattice import MISSING_CAT, element_of
        from repro.analysis.typeflow import infer_in_scope

        try:
            inferred = infer_in_scope(
                expr, self.config, self.catalog_types, items  # type: ignore[arg-type]
            )
        except Exception:  # pragma: no cover - lattice bugs must not
            return False  # block execution, only widen to "guard".
        if elements:
            inferred = element_of(inferred)
        return not inferred.may(MISSING_CAT)


#: A rule's matcher+transformer: applied to one block, returns the
#: rewritten block and the firing record, or None when it does not match.
RuleFn = Callable[
    [ast.QueryBlock, RewriteContext],
    Optional[Tuple[ast.QueryBlock, RewriteResult]],
]


@dataclass(frozen=True)
class RewriteRule:
    """A registered rewrite: identity, lint cross-reference, behaviour."""

    code: str
    name: str
    summary: str
    #: The lint catalog rule (``SQLPP11x``) that detects this rule's
    #: anti-pattern; its diagnostics carry ``fixable: <code>`` back here.
    lint_code: str
    apply: RuleFn


# =========================================================================
# Shared matching helpers
# =========================================================================


def _single_from_collection(
    block: ast.QueryBlock,
) -> Optional[ast.FromCollection]:
    """The block's sole FROM item when it is a plain collection scan."""
    if block.from_ is None or len(block.from_) != 1:
        return None
    item = block.from_[0]
    if isinstance(item, ast.FromCollection):
        return item
    return None


@dataclass(frozen=True)
class _Correlation:
    """A clean single-equality correlation split of a subquery WHERE."""

    #: The side of ``=`` over the inner (subquery) variables.
    inner_key: ast.Expr
    #: The side of ``=`` over the outer block's variables.
    outer_key: ast.Expr
    #: Conjuncts that reference no outer variable (stay in the subquery).
    inner_only: List[ast.Expr]


def _split_correlation(
    where: Optional[ast.Expr],
    outer_vars: Set[str],
    inner_vars: Set[str],
) -> Optional[_Correlation]:
    """Split a subquery WHERE into exactly one correlation equality plus
    inner-only conjuncts; None unless the split is clean.

    Clean means: exactly one conjunct is ``a = b`` with one side's free
    names touching the outer scope (and none of the inner), the other
    side's touching the inner scope (and none of the outer), both sides
    relocatable (they move to a join ON / SELECT VALUE position and may
    be evaluated a different number of times); every other conjunct
    references no outer variable at all.
    """
    if where is None:
        return None
    correlation: Optional[Tuple[ast.Expr, ast.Expr]] = None
    inner_only: List[ast.Expr] = []
    for conjunct in split_conjuncts(where):
        names = free_names(conjunct)
        if not names & outer_vars:
            inner_only.append(conjunct)
            continue
        if correlation is not None:  # a second correlated conjunct
            return None
        if not isinstance(conjunct, ast.Binary) or conjunct.op != "=":
            return None
        split = _classify_equality(conjunct, outer_vars, inner_vars)
        if split is None:
            return None
        correlation = split
    if correlation is None:
        return None
    inner_key, outer_key = correlation
    return _Correlation(
        inner_key=inner_key, outer_key=outer_key, inner_only=inner_only
    )


def _classify_equality(
    conjunct: ast.Binary, outer_vars: Set[str], inner_vars: Set[str]
) -> Optional[Tuple[ast.Expr, ast.Expr]]:
    """``(inner_key, outer_key)`` for a clean correlation ``=``."""
    for inner_side, outer_side in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        inner_names = free_names(inner_side)
        outer_names = free_names(outer_side)
        if (
            inner_names & inner_vars
            and not inner_names & outer_vars
            and outer_names & outer_vars
            and not outer_names & inner_vars
            and is_relocatable(inner_side)
            and is_relocatable(outer_side)
        ):
            return inner_side, outer_side
    return None


def _outer_scope_ok(
    block: ast.QueryBlock, outer_key: ast.Expr
) -> bool:
    """Whether ``outer_key`` may move into a join ON on the last FROM
    item: it must only use FROM-bound names (a join ON evaluates before
    the block's LETs and before grouping)."""
    let_names = {let.name for let in block.lets}
    return not free_names(outer_key) & let_names


def _join_safe_block(block: ast.QueryBlock) -> bool:
    """Whether adding a fresh, unreferenced FROM binding to ``block`` is
    invisible: the select must not splice unknown attributes
    (``SELECT *`` / PIVOT would expose the new variable) and any GROUP
    BY must not capture whole binding tuples via GROUP AS."""
    if not isinstance(block.select, ast.SelectValue):
        return False
    if block.group_by is not None and block.group_by.group_as is not None:
        return False
    return True


def _no_alias_capture(
    block: ast.QueryBlock, inner_vars: Set[str]
) -> bool:
    """Reject subqueries whose variables shadow an outer name: the
    free-name analysis above cannot tell the two apart."""
    return not inner_vars.intersection(block_vars(block))


def _missing_guard(key: ast.Expr, origin: ast.Node) -> ast.Expr:
    """``key IS NOT MISSING`` — the explicit guard used when typeflow
    cannot prove the correlation key present.  Semantics-preserving on
    its own: an absent key never ``=``-matches anything."""
    return copy_span(
        ast.IsPredicate(operand=key, kind="MISSING", negated=True), origin
    )


def _replace_last_item(
    items: Sequence[ast.FromItem], replacement: ast.FromItem
) -> List[ast.FromItem]:
    out = list(items)
    out[-1] = replacement
    return out


def _describe_source(expr: ast.Expr) -> str:
    text = print_ast(expr)
    return text if len(text) <= 40 else text[:37] + "..."


_GENERATED_NAME = re.compile(r"\$[A-Za-z_][A-Za-z_0-9]*")


def _canonical_text(node: ast.Node) -> str:
    """``print_ast`` with locally-bound generated names alpha-renamed in
    first-appearance order.  The sugar rewriter mints fresh ``$group1``
    / ``$g_elem2`` names per lowering, so two occurrences of the same
    surface subquery print differently; their canonical texts coincide
    exactly when the subqueries differ only in those bound names."""
    # Only names bound inside: renaming free references to enclosing
    # generated bindings would conflate subqueries that read different
    # outer values.
    bound = {name for name in bound_names(node) if name.startswith("$")}
    if not bound:
        return print_ast(node)
    mapping: Dict[str, str] = {}

    def rename(match: "re.Match[str]") -> str:
        token = match.group(0)
        if token not in bound:
            return token
        if token not in mapping:
            mapping[token] = f"$c{len(mapping)}"
        return mapping[token]

    return _GENERATED_NAME.sub(rename, print_ast(node))


_CONDITIONAL = (ast.CaseExpr,)


def _occurrences(
    roots: Sequence[ast.Expr], kinds: Tuple[type, ...], stop: Tuple[type, ...] = ()
) -> List[ast.Expr]:
    """Every ``kinds`` node at block scope under ``roots``: reached
    without entering a subquery (evaluated zero or many times, under a
    different scope) or a ``stop`` node.  Without ``stop``, CASE branches
    are descended: a conditional occurrence at block scope still reads
    the same environment, so substituting it is value-preserving; with
    ``stop=_CONDITIONAL`` only the unconditional occurrences remain (a
    branch may never evaluate)."""

    def prune(node: ast.Node) -> bool:
        return ast.is_subquery(node) or isinstance(node, stop)

    return [
        node  # type: ignore[misc]
        for root in roots
        for node in root.walk(prune)
        if isinstance(node, kinds)
    ]


def _all_occurrence_count(
    roots: Sequence[ast.Expr], kinds: Tuple[type, ...], target: str
) -> int:
    """Occurrences of ``target`` anywhere under ``roots``, including
    nested inside other subqueries (where a shadowing alias could give
    the same text a different meaning — substitution must bail when
    this exceeds the block-scope count)."""
    count = 0
    for root in roots:
        for node in root.walk():
            if isinstance(node, kinds) and _canonical_text(node) == target:
                count += 1
    return count


# =========================================================================
# SQLPPR01: correlated EXISTS / IN subquery -> semi-join
# =========================================================================


def _r01_exists_in_to_semijoin(
    block: ast.QueryBlock, ctx: RewriteContext
) -> Optional[Tuple[ast.QueryBlock, RewriteResult]]:
    """Rewrite one semi-joinable WHERE conjunct.

    ``... WHERE EXISTS (SELECT ... FROM C AS c WHERE c.k = o.k AND p(c))``
    becomes::

        ... FROM <last item> JOIN
            (SELECT DISTINCT VALUE c.k FROM C AS c
             WHERE p(c) [AND c.k IS NOT MISSING]) AS $semiN
            ON o.k = $semiN
        WHERE <remaining conjuncts>

    Equivalent because (a) DISTINCT equivalence classes coincide with
    ``=``-TRUE on present values, so each outer row matches at most one
    semi-side value — multiplicity is preserved exactly; (b) an absent
    (NULL/MISSING) key matches nothing on either path; (c) the original
    conjunct keeps a row iff some inner row makes the correlation
    equality exactly TRUE, which is iff the INNER join finds a match.
    The same construction handles ``x IN (subquery)`` for uncorrelated
    subqueries, whose verdict-position semantics coincide with EXISTS
    over the matching elements.
    """
    if not ctx.config.is_permissive:
        return None
    if block.where is None or not block.from_ or not _join_safe_block(block):
        return None
    conjuncts = split_conjuncts(block.where)
    for index, conjunct in enumerate(conjuncts):
        fired = _try_semijoin_exists(block, conjunct, ctx)
        if fired is None:
            fired = _try_semijoin_in(block, conjunct, ctx)
        if fired is None:
            continue
        semi_item, on, detail, safety = fired
        remaining = conjuncts[:index] + conjuncts[index + 1 :]
        join = copy_span(
            ast.FromJoin(
                left=block.from_[-1], right=semi_item, kind="INNER", on=on
            ),
            conjunct,
        )
        new_block = dataclasses.replace(
            block,
            from_=_replace_last_item(block.from_, join),
            where=and_fold(remaining),
        )
        return new_block, RewriteResult(
            code="SQLPPR01",
            name="exists-to-semijoin",
            detail=detail,
            safety=tuple(safety),
            line=conjunct.line,
            column=conjunct.column,
        )
    return None


def _subquery_of(expr: ast.Expr) -> Optional[ast.Query]:
    if isinstance(expr, ast.SubqueryExpr):
        return expr.query
    if isinstance(expr, ast.CoerceSubquery) and expr.mode == "collection":
        return expr.query
    return None


def _plain_inner_block(query: ast.Query) -> Optional[ast.QueryBlock]:
    """The subquery's block when nothing outside plain FROM/WHERE/SELECT
    could change emptiness or per-row multiplicity (ORDER BY is harmless
    for EXISTS but LIMIT/OFFSET are not; grouping changes cardinality;
    LET/HAVING complicate the split)."""
    if query.order_by or query.limit is not None or query.offset is not None:
        return None
    body = query.body
    if not isinstance(body, ast.QueryBlock):
        return None
    if body.group_by is not None or body.having is not None or body.lets:
        return None
    if not isinstance(body.select, ast.SelectValue):
        return None
    return body


def _try_semijoin_exists(
    block: ast.QueryBlock, conjunct: ast.Expr, ctx: RewriteContext
) -> Optional[Tuple[ast.FromItem, ast.Expr, str, List[str]]]:
    if not isinstance(conjunct, ast.Exists):
        return None
    inner_query = (
        conjunct.operand.query
        if isinstance(conjunct.operand, ast.SubqueryExpr)
        else None
    )
    if inner_query is None:
        return None
    inner = _plain_inner_block(inner_query)
    if inner is None or not is_relocatable(inner.select.expr):
        return None
    scan = _single_from_collection(inner)
    if scan is None:
        return None
    outer_vars = set(block_vars(block))
    inner_vars = set(item_vars(scan))
    if not _no_alias_capture(block, inner_vars):
        return None
    if free_names(scan.expr) & outer_vars:
        return None  # correlated *source*; only the WHERE may correlate
    correlation = _split_correlation(inner.where, outer_vars, inner_vars)
    if correlation is None or not _outer_scope_ok(block, correlation.outer_key):
        return None

    safety = [
        "EXISTS is a top-level WHERE conjunct (verdict position: "
        "TRUE-vs-not is all that is observable)",
        "single clean correlation equality; all other subquery "
        "conjuncts are uncorrelated",
    ]
    semi_where = list(correlation.inner_only)
    if ctx.key_provably_present(scan, correlation.inner_key):
        safety.append(
            "correlation key proved non-MISSING by the typeflow lattice"
        )
    else:
        semi_where.append(_missing_guard(correlation.inner_key, conjunct))
        safety.append(
            "correlation key not provably present: guarded with "
            "IS NOT MISSING (an absent key matches no outer row)"
        )
    alias = ctx.fresh("$semi")
    semi_block = copy_span_tree(
        ast.QueryBlock(
            select=ast.SelectValue(expr=correlation.inner_key, distinct=True),
            from_=[scan],
            where=and_fold(semi_where),
        ),
        conjunct,
    )
    semi_item = copy_span_tree(
        ast.FromCollection(
            expr=ast.SubqueryExpr(query=ast.Query(body=semi_block)),
            alias=alias,
        ),
        conjunct,
    )
    on = copy_span_tree(
        ast.Binary(
            op="=",
            left=correlation.outer_key,
            right=ast.VarRef(name=alias),
        ),
        conjunct,
    )
    detail = (
        f"correlated EXISTS over {_describe_source(scan.expr)} -> "
        f"hash-joinable semi-join {alias}"
    )
    return semi_item, on, detail, safety


def _try_semijoin_in(
    block: ast.QueryBlock, conjunct: ast.Expr, ctx: RewriteContext
) -> Optional[Tuple[ast.FromItem, ast.Expr, str, List[str]]]:
    if not isinstance(conjunct, ast.InPredicate) or conjunct.negated:
        return None
    if _subquery_of(conjunct.collection) is None:
        return None  # a subquery always yields a collection, so the
        # non-collection type error of IN cannot occur — load-bearing!
    outer_vars = set(block_vars(block))
    if free_names(conjunct.collection) & outer_vars:
        return None  # correlated IN-subquery: not handled (yet)
    operand = conjunct.operand
    if not is_relocatable(operand) or not _outer_scope_ok(block, operand):
        return None
    if not free_names(operand) & outer_vars:
        return None  # uncorrelated probe: nothing to join on

    safety = [
        "IN is a top-level WHERE conjunct (verdict position: the "
        "NULL-vs-MISSING distinction of IN is not observable)",
        "collection is a subquery, so it is always a collection "
        "(the FROM-over-scalar singleton divergence cannot occur)",
    ]
    element = ctx.fresh("$e")
    alias = ctx.fresh("$semi")
    semi_where: Optional[ast.Expr] = None
    if ctx.elements_provably_present(conjunct.collection):
        safety.append(
            "subquery elements proved non-MISSING by the typeflow lattice"
        )
    else:
        semi_where = _missing_guard(ast.VarRef(name=element), conjunct)
        safety.append(
            "subquery elements not provably present: guarded with "
            "IS NOT MISSING (an absent element matches nothing)"
        )
    semi_block = copy_span_tree(
        ast.QueryBlock(
            select=ast.SelectValue(
                expr=ast.VarRef(name=element), distinct=True
            ),
            from_=[
                ast.FromCollection(expr=conjunct.collection, alias=element)
            ],
            where=semi_where,
        ),
        conjunct,
    )
    semi_item = copy_span_tree(
        ast.FromCollection(
            expr=ast.SubqueryExpr(query=ast.Query(body=semi_block)),
            alias=alias,
        ),
        conjunct,
    )
    on = copy_span_tree(
        ast.Binary(op="=", left=operand, right=ast.VarRef(name=alias)),
        conjunct,
    )
    detail = (
        f"IN-subquery probe on {_describe_source(operand)} -> "
        f"hash-joinable semi-join {alias}"
    )
    return semi_item, on, detail, safety


# =========================================================================
# SQLPPR02: correlated scalar aggregate subquery -> LEFT join + GROUP BY
# =========================================================================


def _r02_decorrelate_scalar(
    block: ast.QueryBlock, ctx: RewriteContext
) -> Optional[Tuple[ast.QueryBlock, RewriteResult]]:
    """Decorrelate ``(SELECT AGG(...) FROM C AS c WHERE c.k = o.k)``.

    The scalar subquery (post sugar-lowering: a ``CoerceSubquery`` over
    a keyless ``GROUP AS`` block with one ``COLL_*`` aggregate) becomes
    a LEFT join against the subquery grouped by its correlation key::

        FROM <last item> LEFT JOIN
            (SELECT VALUE {'k': $dkN, 'v': COLL_AGG(...)}
             FROM C AS c WHERE p(c) [AND c.k IS NOT MISSING]
             GROUP BY c.k AS $dkN GROUP AS $groupM) AS $decN
            ON o.k = $decN.k

    with every occurrence of the subquery replaced by ``$decN.v``
    (``COLL_COUNT``: ``CASE WHEN $decN IS NULL THEN 0 ELSE $decN.v END``).

    Equivalence leans on three engine facts: a LEFT join pads the right
    side with NULL (not MISSING), matching the NULL a SUM/AVG/MIN/MAX
    over an empty group coerces to; keyed grouping partitions by the
    same equivalence classes ``=``-TRUE induces on present keys, so the
    LEFT join matches at most one group per outer row (cardinality 1,
    exactly like the scalar coercion of the always-one-row keyless
    group); and the keyed group's GROUP AS tuples have the same shape
    as the keyless group's, so the aggregate's group subquery is reused
    verbatim.
    """
    if not ctx.config.is_permissive:
        return None
    if not block.from_ or block.group_by is not None or block.having is not None:
        return None
    if not isinstance(block.select, ast.SelectValue):
        return None

    candidates = _occurrences(
        [block.select.expr] + ([block.where] if block.where else []),
        (ast.CoerceSubquery,),
        _CONDITIONAL,
    )
    for node in candidates:
        assert isinstance(node, ast.CoerceSubquery)
        if node.mode != "scalar":
            continue
        match = _match_decorrelatable(block, node, ctx)
        if match is None:
            continue
        return match
    return None


def _match_decorrelatable(
    block: ast.QueryBlock, node: ast.CoerceSubquery, ctx: RewriteContext
) -> Optional[Tuple[ast.QueryBlock, RewriteResult]]:
    query = node.query
    if query.order_by or query.limit is not None or query.offset is not None:
        return None
    inner = query.body
    if not isinstance(inner, ast.QueryBlock):
        return None
    group = inner.group_by
    if (
        group is None
        or group.keys
        or group.group_as is None
        or group.mode != "simple"
        or inner.having is not None
        or inner.lets
    ):
        return None
    scan = _single_from_collection(inner)
    if scan is None:
        return None
    aggregate = _single_aggregate_struct(inner.select)
    if aggregate is None:
        return None
    key_field, call = aggregate
    outer_vars = set(block_vars(block))
    inner_vars = set(item_vars(scan))
    if not _no_alias_capture(block, inner_vars):
        return None
    if free_names(scan.expr) & outer_vars:
        return None
    correlation = _split_correlation(inner.where, outer_vars, inner_vars)
    if correlation is None or not _outer_scope_ok(block, correlation.outer_key):
        return None

    safety = [
        "subquery is a single COLL_* aggregate over a keyless group: "
        "exactly one row per outer row on both paths",
        "single clean correlation equality; all other subquery "
        "conjuncts are uncorrelated",
        "LEFT join pads with NULL, matching the empty-group NULL of "
        f"{call.name}"
        if call.name != "COLL_COUNT"
        else "LEFT join pads with NULL; COLL_COUNT of an empty group is "
        "0, reproduced with CASE WHEN ... IS NULL THEN 0",
    ]
    dec_where = list(correlation.inner_only)
    if ctx.key_provably_present(scan, correlation.inner_key):
        safety.append(
            "correlation key proved non-MISSING by the typeflow lattice"
        )
    else:
        dec_where.append(_missing_guard(correlation.inner_key, node))
        safety.append(
            "correlation key not provably present: guarded with "
            "IS NOT MISSING (an absent key feeds no outer row's "
            "aggregate on either path)"
        )

    key_alias = ctx.fresh("$dk")
    alias = ctx.fresh("$dec")
    dec_block = copy_span_tree(
        ast.QueryBlock(
            select=ast.SelectValue(
                expr=ast.StructLit(
                    fields=[
                        ast.StructField(
                            key=ast.Literal(value="k"),
                            value=ast.VarRef(name=key_alias),
                        ),
                        ast.StructField(
                            key=ast.Literal(value="v"), value=call
                        ),
                    ]
                )
            ),
            from_=[scan],
            where=and_fold(dec_where),
            group_by=ast.GroupByClause(
                keys=[
                    ast.GroupKey(
                        expr=correlation.inner_key, alias=key_alias
                    )
                ],
                group_as=group.group_as,
            ),
        ),
        node,
    )
    dec_item = copy_span_tree(
        ast.FromCollection(
            expr=ast.SubqueryExpr(query=ast.Query(body=dec_block)),
            alias=alias,
        ),
        node,
    )
    join = copy_span_tree(
        ast.FromJoin(
            left=block.from_[-1],
            right=dec_item,
            kind="LEFT",
            on=ast.Binary(
                op="=",
                left=correlation.outer_key,
                right=ast.Path(base=ast.VarRef(name=alias), attr="k"),
            ),
        ),
        node,
    )
    value = _aggregate_replacement(call.name, alias, node)
    target = _canonical_text(node)
    assert isinstance(block.select, ast.SelectValue)
    roots: List[ast.Expr] = [block.select.expr] + (
        [block.where] if block.where is not None else []
    )
    scope_count = sum(
        1
        for occurrence in _occurrences(roots, (ast.CoerceSubquery,))
        if _canonical_text(occurrence) == target
    )
    if _all_occurrence_count(roots, (ast.CoerceSubquery,), target) != (
        scope_count
    ):
        # The same subquery also occurs nested inside another subquery,
        # where a shadowing alias could give the text a different
        # meaning; the transform-based substitution below cannot tell
        # the scopes apart, so do not fire.
        return None

    def substitute(candidate: ast.Node) -> ast.Node:
        if isinstance(candidate, ast.CoerceSubquery) and (
            _canonical_text(candidate) == target
        ):
            return value
        return candidate

    assert isinstance(block.select, ast.SelectValue)
    new_block = dataclasses.replace(
        block,
        select=dataclasses.replace(
            block.select, expr=block.select.expr.transform(substitute)
        ),
        from_=_replace_last_item(block.from_, join),
        where=(
            block.where.transform(substitute)
            if block.where is not None
            else None
        ),
    )
    detail = (
        f"correlated scalar {call.name} over "
        f"{_describe_source(scan.expr)} -> LEFT join {alias} + GROUP BY"
    )
    del key_field  # the original output attribute name is irrelevant
    return new_block, RewriteResult(
        code="SQLPPR02",
        name="decorrelate-scalar",
        detail=detail,
        safety=tuple(safety),
        line=node.line,
        column=node.column,
    )


def _single_aggregate_struct(
    select: ast.SelectClause,
) -> Optional[Tuple[ast.Expr, ast.FunctionCall]]:
    """Match ``SELECT VALUE {'name': COLL_AGG(<group subquery>)}`` —
    the lowered form of a single-aggregate SQL scalar subquery."""
    if not isinstance(select, ast.SelectValue):
        return None
    struct = select.expr
    if (
        select.distinct
        or not isinstance(struct, ast.StructLit)
        or len(struct.fields) != 1
    ):
        return None
    field = struct.fields[0]
    call = field.value
    if (
        isinstance(call, ast.FunctionCall)
        and call.name in _DECORRELATABLE_AGGREGATES
        and not call.distinct
        and not call.star
        and len(call.args) == 1
    ):
        return field.key, call
    return None


def _aggregate_replacement(
    aggregate: str, alias: str, origin: ast.Node
) -> ast.Expr:
    """What replaces the scalar subquery.

    ``CASE WHEN $dec IS NULL THEN <empty-group value> ELSE $dec.v END``
    — the CASE is load-bearing for *every* aggregate, not just
    COLL_COUNT: a bare ``$dec.v`` would navigate into the LEFT join's
    NULL padding, which is a permissive type error yielding MISSING,
    while the original empty-group COLL_SUM/AVG/MIN/MAX coerces to
    NULL (and COLL_COUNT to 0)."""
    empty_value = 0 if aggregate == "COLL_COUNT" else None
    return copy_span_tree(
        ast.CaseExpr(
            operand=None,
            whens=[
                (
                    ast.IsPredicate(
                        operand=ast.VarRef(name=alias), kind="NULL"
                    ),
                    ast.Literal(value=empty_value),
                )
            ],
            else_=ast.Path(base=ast.VarRef(name=alias), attr="v"),
        ),
        origin,
    )


# =========================================================================
# SQLPPR03: OR-chain of literal equalities -> IN
# =========================================================================


def _r03_or_to_in(
    block: ast.QueryBlock, ctx: RewriteContext
) -> Optional[Tuple[ast.QueryBlock, RewriteResult]]:
    """``x = c1 OR x = c2 OR x = c3`` -> ``x IN [c1, c2, c3]``.

    Safe in verdict positions (top-level WHERE/HAVING conjuncts): the
    TRUE-sets coincide exactly, and where the OR-fold yields NULL while
    IN yields MISSING (absent operand) both drop the row.  In strict
    mode the rewrite additionally requires every literal to share one
    equality category — 3VL OR evaluates *every* disjunct, so a later
    mismatched ``=`` raises where IN's first-match early return would
    not; same-category literals make the two raise (or not) on exactly
    the same inputs, in the same left-to-right order.
    """
    fired = _or_to_in_in_expr(block.where, ctx)
    if fired is not None:
        new_where, result = fired
        return dataclasses.replace(block, where=new_where), result
    fired = _or_to_in_in_expr(block.having, ctx)
    if fired is not None:
        new_having, result = fired
        return dataclasses.replace(block, having=new_having), result
    return None


def _or_to_in_in_expr(
    predicate: Optional[ast.Expr], ctx: RewriteContext
) -> Optional[Tuple[ast.Expr, RewriteResult]]:
    if predicate is None:
        return None
    conjuncts = split_conjuncts(predicate)
    for index, conjunct in enumerate(conjuncts):
        match = _match_or_chain(conjunct, ctx)
        if match is None:
            continue
        operand, literals, safety = match
        replacement = copy_span_tree(
            ast.InPredicate(
                operand=operand,
                collection=ast.ArrayLit(items=list(literals)),
            ),
            conjunct,
        )
        rebuilt = conjuncts[:index] + [replacement] + conjuncts[index + 1 :]
        folded = and_fold(rebuilt)
        assert folded is not None
        result = RewriteResult(
            code="SQLPPR03",
            name="or-to-in",
            detail=(
                f"{len(literals)}-way OR-chain on "
                f"{_describe_source(operand)} -> IN list"
            ),
            safety=tuple(safety),
            line=conjunct.line,
            column=conjunct.column,
        )
        return folded, result
    return None


def _match_or_chain(
    conjunct: ast.Expr, ctx: RewriteContext
) -> Optional[Tuple[ast.Expr, List[ast.Literal], List[str]]]:
    disjuncts = _split_disjuncts(conjunct)
    if len(disjuncts) < _MIN_OR_CHAIN:
        return None
    operand: Optional[ast.Expr] = None
    operand_text = ""
    literals: List[ast.Literal] = []
    for disjunct in disjuncts:
        if not isinstance(disjunct, ast.Binary) or disjunct.op != "=":
            return None
        pair = _literal_equality(disjunct)
        if pair is None:
            return None
        expr, literal = pair
        if operand is None:
            operand = expr
            operand_text = print_ast(expr)
        elif print_ast(expr) != operand_text:
            return None
        literals.append(literal)
    if operand is None or not is_relocatable(operand):
        return None
    safety = [
        "verdict position: OR-fold NULL vs IN MISSING both drop the row",
        "operand relocatable: evaluated once instead of once per disjunct",
    ]
    categories = {_literal_category(lit.value) for lit in literals}
    if len(categories) == 1:
        safety.append(
            "all literals share one equality category: strict-mode "
            "comparisons raise identically on both paths"
        )
    elif ctx.config.is_permissive:
        safety.append(
            "mixed literal categories allowed in permissive mode: a "
            "mismatched = folds to unknown on both paths"
        )
    else:
        return None
    return operand, literals, safety


def _split_disjuncts(expr: ast.Expr) -> List[ast.Expr]:
    if isinstance(expr, ast.Binary) and expr.op == "OR":
        return _split_disjuncts(expr.left) + _split_disjuncts(expr.right)
    return [expr]


def _literal_equality(
    disjunct: ast.Binary,
) -> Optional[Tuple[ast.Expr, ast.Literal]]:
    """``(operand, literal)`` for ``e = lit`` / ``lit = e`` with a
    non-absent scalar literal (NULL/MISSING literals change the OR
    fold's unknown bookkeeping; collections don't belong in IN lists)."""
    for expr, literal in (
        (disjunct.left, disjunct.right),
        (disjunct.right, disjunct.left),
    ):
        if isinstance(literal, ast.Literal) and not isinstance(
            expr, ast.Literal
        ):
            value = literal.value
            if value is None or not isinstance(value, (bool, int, float, str)):
                return None
            return expr, literal
    return None


def _literal_category(value: object) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return "string"


# =========================================================================
# SQLPPR04: repeated subquery -> LET (common subexpression elimination)
# =========================================================================


def _r04_cse_to_let(
    block: ast.QueryBlock, ctx: RewriteContext
) -> Optional[Tuple[ast.QueryBlock, RewriteResult]]:
    """Hoist a subquery repeated >= 2 times into a ``LET``.

    Fires only in permissive mode (LET evaluates once per binding, the
    occurrences evaluated once *per occurrence*; collapsing the count
    is unobservable only when evaluation is total), only when at least
    two occurrences are *unconditional* (not under a CASE branch or
    inside another subquery), and only when an occurrence sits in the
    WHERE — or the block has no WHERE — so the LET never evaluates the
    subquery for a row the original would have discarded first (hoisting
    a SELECT-only occurrence past a selective WHERE could regress).
    Blocks with GROUP BY are skipped: LET names are invisible
    post-grouping.  Known tradeoff (docs/REWRITER.md): the planner skips
    predicate pushdown on blocks with LETs.
    """
    if not ctx.config.is_permissive:
        return None
    if not block.from_ or block.group_by is not None or block.having is not None:
        return None
    if not isinstance(block.select, ast.SelectValue):
        return None
    kinds = (ast.SubqueryExpr, ast.CoerceSubquery)
    where_occurrences = _occurrences(
        [block.where] if block.where is not None else [], kinds, _CONDITIONAL
    )
    select_occurrences = _occurrences([block.select.expr], kinds, _CONDITIONAL)
    roots: List[ast.Expr] = (
        [block.where] if block.where is not None else []
    ) + [block.select.expr]
    counts: Dict[str, int] = {}
    in_where: Set[str] = set()
    order: List[Tuple[str, ast.Expr]] = []
    for node in where_occurrences + select_occurrences:
        text = _canonical_text(node)
        counts[text] = counts.get(text, 0) + 1
        if counts[text] == 1:
            order.append((text, node))
    for node in where_occurrences:
        in_where.add(_canonical_text(node))
    scope_texts = [_canonical_text(node) for node in _occurrences(roots, kinds)]
    for text, node in order:
        if counts[text] < 2:
            continue
        if block.where is not None and text not in in_where:
            continue
        scope_count = sum(1 for t in scope_texts if t == text)
        if _all_occurrence_count(roots, kinds, text) != scope_count:
            # Also occurs nested inside another subquery, where a
            # shadowing alias could change its meaning; the transform
            # below cannot tell scopes apart, so skip this candidate.
            continue
        name = ctx.fresh("$cse")
        safety = [
            f"{counts[text]} unconditional occurrences: the original "
            "evaluated the subquery at least that often per binding",
            "occurrence in WHERE (or no WHERE): the LET evaluates for "
            "no row the original would have discarded first"
            if block.where is not None
            else "no WHERE clause: every binding evaluated the subquery",
            "permissive mode: subquery evaluation is total, so "
            "collapsing the evaluation count is unobservable",
        ]

        def substitute(
            candidate: ast.Node, text: str = text, name: str = name
        ) -> ast.Node:
            if isinstance(
                candidate, (ast.SubqueryExpr, ast.CoerceSubquery)
            ) and _canonical_text(candidate) == text:
                return copy_span(ast.VarRef(name=name), candidate)
            return candidate

        assert isinstance(block.select, ast.SelectValue)
        new_block = dataclasses.replace(
            block,
            lets=list(block.lets)
            + [copy_span(ast.LetBinding(name=name, expr=node), node)],
            where=(
                block.where.transform(substitute)
                if block.where is not None
                else None
            ),
            select=dataclasses.replace(
                block.select, expr=block.select.expr.transform(substitute)
            ),
        )
        result = RewriteResult(
            code="SQLPPR04",
            name="cse-to-let",
            detail=(
                f"subquery repeated x{counts[text]} hoisted into "
                f"LET {name}"
            ),
            safety=tuple(safety),
            line=node.line,
            column=node.column,
        )
        return new_block, result
    return None


# =========================================================================
# The registry and driver
# =========================================================================

#: Applied in order per block; earlier rules see the original shapes
#: (e.g. SQLPPR01 claims an IN-subquery before SQLPPR04 would hoist it).
RULES: Tuple[RewriteRule, ...] = (
    RewriteRule(
        code="SQLPPR03",
        name="or-to-in",
        summary="OR-chain of literal equalities becomes IN, unlocking "
        "the compiled set probe and pushdown",
        lint_code="SQLPP110",
        apply=_r03_or_to_in,
    ),
    RewriteRule(
        code="SQLPPR01",
        name="exists-to-semijoin",
        summary="correlated EXISTS / IN-subquery conjunct becomes a "
        "hash-joinable DISTINCT semi-join",
        lint_code="SQLPP111",
        apply=_r01_exists_in_to_semijoin,
    ),
    RewriteRule(
        code="SQLPPR02",
        name="decorrelate-scalar",
        summary="correlated scalar aggregate subquery becomes a LEFT "
        "join + GROUP BY on the correlation key",
        lint_code="SQLPP112",
        apply=_r02_decorrelate_scalar,
    ),
    RewriteRule(
        code="SQLPPR04",
        name="cse-to-let",
        summary="subquery repeated in unconditional positions is "
        "hoisted into a LET",
        lint_code="SQLPP113",
        apply=_r04_cse_to_let,
    ),
)

RULES_BY_CODE: Dict[str, RewriteRule] = {rule.code: rule for rule in RULES}


def apply_rules(
    query: ast.Query,
    config: EvalConfig,
    catalog_types: Optional[Dict[str, object]] = None,
) -> Tuple[ast.Query, Tuple[RewriteResult, ...]]:
    """Run the registry over every block of a Core query.

    Blocks are visited bottom-up (nested subqueries first); per block,
    rules run in registry order until a full pass fires nothing.  The
    synthesized subqueries a firing emits are final — they are not
    re-visited, so the driver terminates.  Returns the rewritten query
    (``query`` itself when nothing fired) and the ordered firings.

    Gated on ``config.optimize``: the rewrites exist to feed the
    physical planner, and ``optimize=False`` promises the untouched
    reference semantics.
    """
    if not config.optimize:
        return query, ()
    ctx = RewriteContext(config, catalog_types, query)
    fired: List[RewriteResult] = []

    def visit(node: ast.Node) -> ast.Node:
        if isinstance(node, ast.QueryBlock):
            return _apply_block(node, ctx, fired)
        return node

    rewritten = query.transform(visit)
    assert isinstance(rewritten, ast.Query)
    return rewritten, tuple(fired)


def _apply_block(
    block: ast.QueryBlock,
    ctx: RewriteContext,
    fired: List[RewriteResult],
) -> ast.QueryBlock:
    for _round in range(_MAX_FIRES_PER_BLOCK):
        changed = False
        for rule in RULES:
            outcome = rule.apply(block, ctx)
            if outcome is not None:
                block, result = outcome
                fired.append(result)
                changed = True
        if not changed:
            break
    return block


def describe_rules() -> str:
    """The registry catalog, one rule per line (REPL ``.rewrites``)."""
    lines = [f"rewrite registry v{REGISTRY_VERSION}:"]
    for rule in RULES:
        lines.append(f"  {rule.code} {rule.name}: {rule.summary}")
        lines.append(f"    lint: {rule.lint_code} (fixable hint)")
    return "\n".join(lines)
