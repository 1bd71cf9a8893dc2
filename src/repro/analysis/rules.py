"""The lint-rule registry: one stable code per finding kind.

Codes never change meaning once released; retired rules keep their
number reserved.  The ``SQLPP0xx`` range is syntactic/structural (the
type-flow walk's scope rules and the surface pass), ``SQLPP1xx`` is
about types and values.  Every rule documents *when it is sound*: error
severity is reserved for findings that are guaranteed runtime failures
in **both** typing modes; anything mode-dependent or merely suspicious
is a warning.

docs/ANALYZER.md carries the narrative catalog; this module is the
single source of truth the docs and renderers read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.diagnostics import ERROR, INFO, WARNING, Diagnostic


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule.

    ``fixable`` cross-references the automatic remedy for the flagged
    construct: a semantic rewrite rule (``SQLPPR01`` ... —
    :mod:`repro.core.rewrite_rules`, docs/REWRITER.md) or a planner
    action (``prune-empty`` / ``drop-true`` / ``fold-constant`` —
    :mod:`repro.analysis.absint`, docs/PLANNER.md); ``None`` for
    findings with no registered remedy.
    """

    code: str
    name: str
    severity: str
    summary: str
    fixable: Optional[str] = None


def _rule(
    code: str,
    name: str,
    severity: str,
    summary: str,
    fixable: Optional[str] = None,
) -> Rule:
    return Rule(
        code=code,
        name=name,
        severity=severity,
        summary=summary,
        fixable=fixable,
    )


#: Every rule the analyzer can emit, by stable code.
RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        _rule(
            "SQLPP000",
            "syntax-error",
            ERROR,
            "The query does not lex, parse, or rewrite onto the SQL++ "
            "Core; nothing downstream can run it.",
        ),
        _rule(
            "SQLPP001",
            "unbound-variable",
            ERROR,
            "A name resolves to neither a variable in scope nor a named "
            "value in the database; evaluation raises BindingError.",
        ),
        _rule(
            "SQLPP002",
            "shadowed-variable",
            WARNING,
            "A FROM/LET/GROUP binding reuses a name already bound in an "
            "enclosing or earlier scope, hiding it for the rest of the "
            "query.",
        ),
        _rule(
            "SQLPP003",
            "unused-let",
            WARNING,
            "A LET binding is never referenced after its definition "
            "(names starting with '_' are exempt).",
        ),
        _rule(
            "SQLPP004",
            "unknown-function",
            ERROR,
            "A function call names no builtin; evaluation raises "
            "EvaluationError in both typing modes.",
        ),
        _rule(
            "SQLPP005",
            "duplicate-key",
            WARNING,
            "A struct constructor or SELECT list repeats an attribute "
            "name; the last occurrence silently wins.",
        ),
        _rule(
            "SQLPP006",
            "negative-limit",
            ERROR,
            "LIMIT or OFFSET has a statically negative argument; "
            "evaluation raises EvaluationError in both typing modes.",
        ),
        _rule(
            "SQLPP101",
            "always-missing",
            WARNING,
            "The expression is statically guaranteed to produce MISSING "
            "(e.g. navigation into a closed tuple that lacks the "
            "attribute).",
        ),
        _rule(
            "SQLPP102",
            "comparison-type-mismatch",
            WARNING,
            "A comparison's operands lie in provably disjoint type "
            "categories, so it can never compare actual values: it "
            "yields MISSING (permissive) or raises (strict).",
        ),
        _rule(
            "SQLPP103",
            "aggregate-non-collection",
            WARNING,
            "A COLL_* aggregate is applied to a value that is provably "
            "never a collection.",
        ),
        _rule(
            "SQLPP104",
            "order-by-never-comparable",
            WARNING,
            "An ORDER BY key is statically always NULL/MISSING, so it "
            "cannot order the result.",
        ),
        _rule(
            "SQLPP105",
            "equals-null",
            WARNING,
            "Comparing with = / != against NULL never yields TRUE; use "
            "IS [NOT] NULL.",
        ),
        # SQLPP106-108 are the checks static typing against a schema
        # makes; like every type rule they are mode-dependent, hence
        # warnings.
        _rule(
            "SQLPP106",
            "operand-type-mismatch",
            WARNING,
            "An arithmetic, concatenation or unary operator's operands lie "
            "in categories it never combines, so it never produces a "
            "value: MISSING (permissive) or a type error (strict).",
        ),
        _rule(
            "SQLPP107",
            "range-over-non-collection",
            WARNING,
            "A FROM item ranges over a value that is provably never a "
            "collection: a singleton binding (permissive) or a type error "
            "(strict).",
        ),
        _rule(
            "SQLPP108",
            "unpivot-non-tuple",
            WARNING,
            "UNPIVOT ranges over a value that is provably never a tuple: "
            "the singleton {'_1': value} (permissive) or a type error "
            "(strict).",
        ),
        # The SQLPP11x range mirrors the semantic rewrite registry
        # (repro.core.rewrite_rules): each rule flags a construct the
        # engine rewrites automatically, at info severity — the query
        # is correct, the lint only explains what the optimizer will do
        # (or would do, were rewrites enabled).
        _rule(
            "SQLPP110",
            "or-chain-rewritable",
            INFO,
            "A chain of OR'd equality comparisons on one operand can "
            "run as a single hashed IN-list membership probe.",
            fixable="SQLPPR03",
        ),
        _rule(
            "SQLPP111",
            "exists-subquery-rewritable",
            INFO,
            "A correlated EXISTS/IN subquery predicate can run as a "
            "hash semi-join instead of a nested re-evaluation per "
            "outer binding.",
            fixable="SQLPPR01",
        ),
        _rule(
            "SQLPP112",
            "scalar-subquery-rewritable",
            INFO,
            "A correlated scalar aggregate subquery can be "
            "decorrelated into a grouped LEFT join computed once.",
            fixable="SQLPPR02",
        ),
        _rule(
            "SQLPP113",
            "repeated-subquery-rewritable",
            INFO,
            "A subquery repeated verbatim inside one block can be "
            "hoisted into a LET binding and evaluated once.",
            fixable="SQLPPR04",
        ),
        # The SQLPP12x range is the abstract-interpretation pass
        # (repro.analysis.absint): constant/interval facts over the
        # rewritten Core.  ``fixable`` here names the *planner action*
        # that exploits the same proof (visible in EXPLAIN `rewrites
        # fired:` / `pruned:` lines) rather than a registry rewrite.
        _rule(
            "SQLPP120",
            "contradictory-predicate",
            WARNING,
            "A WHERE/ON/HAVING conjunction is statically unsatisfiable "
            "— no binding can make every conjunct exactly TRUE — so "
            "the clause filters out everything.",
            fixable="prune-empty",
        ),
        _rule(
            "SQLPP121",
            "tautological-conjunct",
            INFO,
            "A conjunct (e.g. `x = x` over a provably non-absent, "
            "comparable value) is TRUE for every binding that reaches "
            "it and filters nothing.",
            fixable="drop-true",
        ),
        _rule(
            "SQLPP122",
            "constant-foldable",
            INFO,
            "An expression is built entirely from literals and always "
            "evaluates to the same value.",
            fixable="fold-constant",
        ),
        _rule(
            "SQLPP123",
            "unreachable-case-branch",
            WARNING,
            "A CASE branch can never produce the result: its condition "
            "is constant and never matches, or an earlier constant "
            "branch always terminates the chain first.",
            fixable="fold-constant",
        ),
        _rule(
            "SQLPP124",
            "statically-empty-query",
            WARNING,
            "A query block's WHERE clause is proven never TRUE, so the "
            "block always yields zero bindings.",
            fixable="prune-empty",
        ),
    )
}


def rule_for(code: str) -> Rule:
    """The registered rule for a code (KeyError on unknown codes)."""
    return RULES[code]


def make(
    code: str,
    message: str,
    line: Optional[int] = None,
    column: Optional[int] = None,
    hint: Optional[str] = None,
) -> Diagnostic:
    """A :class:`Diagnostic` for ``code`` with the rule's severity."""
    rule = RULES[code]
    return Diagnostic(
        code=code,
        severity=rule.severity,
        message=message,
        line=line,
        column=column,
        hint=hint,
        fixable=rule.fixable,
    )
