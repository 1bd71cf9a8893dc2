"""Orchestration: parse, rewrite, run the passes, apply suppressions.

``analyze`` is the library entry point (``Database.check`` and the CLI
``lint`` verb both delegate here).  Per statement of the input script:

1. a *surface pass* over the parse tree — rules about what the user
   literally wrote (duplicate struct keys, ``= NULL``, negative
   LIMIT), before the rewriter normalises it away;
2. the sugar rewrite onto the Core (failures become ``SQLPP000``
   findings, not exceptions);
3. the type-flow walk over the Core tree
   (:mod:`repro.analysis.typeflow`): scope, type and predicate rules
   in one pass;
4. a dry run of the semantic rewrite registry
   (:mod:`repro.core.rewrite_rules`) — each rewrite that would fire
   becomes an info-severity ``SQLPP11x`` finding whose ``fixable``
   field names the rewrite rule;
5. the constant-folding facts of :mod:`repro.analysis.absint`
   (``SQLPP122`` / ``SQLPP123``).

Findings are deduplicated, filtered through inline
``-- sqlpp-ignore`` comments and the caller's suppression set, and
sorted by severity then source position.  ``analyze`` never raises on
bad queries — a query the parser rejects is itself a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.absint import constant_diagnostics
from repro.analysis.diagnostics import (
    Diagnostic,
    dedupe,
    filter_suppressed,
    sort_diagnostics,
)
from repro.analysis.lattice import AType
from repro.analysis.rules import make
from repro.analysis.typeflow import flow_diagnostics
from repro.config import EvalConfig
from repro.errors import LexError, ParseError, RewriteError
from repro.syntax import ast


@dataclass
class AnalyzerOptions:
    """Everything the analyzer needs to know about its surroundings.

    All fields are optional — with none set, the analyzer checks a
    query against an empty database in the default language modes.
    """

    config: EvalConfig = field(default_factory=EvalConfig)
    catalog_names: Tuple[str, ...] = ()
    catalog_types: Dict[str, AType] = field(default_factory=dict)
    schema_attrs: Dict[str, Set[str]] = field(default_factory=dict)
    suppress: Tuple[str, ...] = ()


def _bare_message(error: Exception) -> str:
    """An exception's message without the position suffix/snippet."""
    text = str(error.args[0]) if error.args else str(error)
    return text.split(" (at line", 1)[0]


def analyze(
    source: str, options: Optional[AnalyzerOptions] = None
) -> List[Diagnostic]:
    """Statically analyze a script of ``;``-separated queries."""
    options = options if options is not None else AnalyzerOptions()
    from repro.syntax.parser import parse_script

    try:
        queries = parse_script(source)
    except (LexError, ParseError) as error:
        found = [
            make(
                "SQLPP000",
                _bare_message(error),
                line=error.line or None,
                column=error.column or None,
            )
        ]
        return filter_suppressed(found, source, options.suppress)
    found = []
    for query in queries:
        found.extend(analyze_query(query, options))
    return sort_diagnostics(filter_suppressed(dedupe(found), source, options.suppress))


def analyze_query(
    query: ast.Query, options: Optional[AnalyzerOptions] = None
) -> List[Diagnostic]:
    """Analyze one parsed (surface) query; unsorted, unsuppressed."""
    options = options if options is not None else AnalyzerOptions()
    found: List[Diagnostic] = []
    _surface_pass(query, found)

    from repro.core.rewriter import rewrite_query

    catalog_names = tuple(
        dict.fromkeys(list(options.catalog_names) + list(options.catalog_types))
    )
    try:
        core = rewrite_query(
            query,
            options.config,
            catalog_names=catalog_names,
            schema_attrs=dict(options.schema_attrs) or None,
        )
    except RewriteError as error:
        found.append(make("SQLPP000", _bare_message(error)))
        return found

    found.extend(
        flow_diagnostics(
            core, options.config, catalog_names, options.catalog_types
        )
    )
    found.extend(_rewrite_pass(core, options))
    found.extend(constant_diagnostics(core, options.config))
    return found


def _rewrite_pass(
    core: ast.Query, options: AnalyzerOptions
) -> List[Diagnostic]:
    """Dry-run the semantic rewrite registry over the Core tree.

    Each :class:`~repro.core.rewrite_rules.RewriteResult` becomes one
    info finding in the ``SQLPP11x`` range whose ``fixable`` field
    carries the rewrite code, so ``lint --json`` consumers see exactly
    which registered rewrite the engine would apply.  The dry run
    forces ``optimize`` on — the point is to describe the opportunity
    even for callers that run the oracle — but keeps the caller's
    typing mode, so mode-gated rules report truthfully.
    """
    from repro.core import rewrite_rules

    config = replace(options.config, optimize=True)
    try:
        __, fired = rewrite_rules.apply_rules(
            core, config, catalog_types=dict(options.catalog_types)
        )
    except Exception:  # pragma: no cover - lint must never raise
        return []
    found: List[Diagnostic] = []
    for result in fired:
        lint_code = rewrite_rules.RULES_BY_CODE[result.code].lint_code
        found.append(
            make(
                lint_code,
                result.detail,
                line=result.line,
                column=result.column,
                hint=(
                    f"rewritten automatically as {result.code} "
                    f"({result.name}) when rewrites are enabled"
                ),
            )
        )
    return found


# ----------------------------------------------------------------------
# The surface pass
# ----------------------------------------------------------------------


def _surface_pass(query: ast.Node, found: List[Diagnostic]) -> None:
    """Syntactic rules over the pre-rewrite tree."""
    for node in query.walk():
        if isinstance(node, ast.StructLit):
            _check_duplicate_keys(node, found)
        elif isinstance(node, ast.SelectList):
            _check_duplicate_aliases(node, found)
        elif isinstance(node, ast.Binary):
            _check_equals_null(node, found)
        elif isinstance(node, ast.Query):
            for clause, expr in (("LIMIT", node.limit), ("OFFSET", node.offset)):
                if expr is not None:
                    _check_negative_cardinal(clause, expr, found)


def _check_duplicate_keys(
    node: ast.StructLit, found: List[Diagnostic]
) -> None:
    seen: Dict[str, ast.StructField] = {}
    for struct_field in node.fields:
        key = struct_field.key
        if not (isinstance(key, ast.Literal) and isinstance(key.value, str)):
            continue
        if key.value in seen:
            found.append(
                make(
                    "SQLPP005",
                    f"duplicate attribute {key.value!r} in struct "
                    "constructor; the last occurrence wins",
                    line=struct_field.line,
                    column=struct_field.column,
                )
            )
        else:
            seen[key.value] = struct_field
    return None


def _check_duplicate_aliases(
    node: ast.SelectList, found: List[Diagnostic]
) -> None:
    seen: Set[str] = set()
    for item in node.items:
        if item.alias is None or item.star:
            continue
        if item.alias in seen:
            found.append(
                make(
                    "SQLPP005",
                    f"duplicate output attribute {item.alias!r} in "
                    "SELECT list; the last occurrence wins",
                    line=item.line,
                    column=item.column,
                )
            )
        seen.add(item.alias)


def _check_equals_null(node: ast.Binary, found: List[Diagnostic]) -> None:
    if node.op not in ("=", "!=", "<>"):
        return
    if not any(
        isinstance(side, ast.Literal) and side.value is None
        for side in (node.left, node.right)
    ):
        return
    negated = node.op != "="
    found.append(
        make(
            "SQLPP105",
            f"{node.op} NULL never yields TRUE (comparisons with NULL "
            "are unknown)",
            line=node.line,
            column=node.column,
            hint=f"use IS {'NOT ' if negated else ''}NULL",
        )
    )


def _static_number(expr: ast.Expr) -> Optional[float]:
    """The statically-known numeric value of a literal expression."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, (int, float)):
        if isinstance(expr.value, bool):
            return None
        return float(expr.value)
    if (
        isinstance(expr, ast.Unary)
        and expr.op in ("-", "+")
        and isinstance(expr.operand, ast.Literal)
    ):
        inner = _static_number(expr.operand)
        if inner is None:
            return None
        return -inner if expr.op == "-" else inner
    return None


def _check_negative_cardinal(
    clause: str, expr: ast.Expr, found: List[Diagnostic]
) -> None:
    value = _static_number(expr)
    if value is not None and value < 0:
        found.append(
            make(
                "SQLPP006",
                f"{clause} is {value:g}, which always raises at "
                "runtime (a cardinal must be non-negative)",
                line=expr.line,
                column=expr.column,
            )
        )
