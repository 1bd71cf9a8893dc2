"""Static semantic analysis for SQL++ (the ``lint`` subsystem).

The analyzer runs on the *rewritten Core AST* — after the SQL-sugar
rewriter, before planning — so it checks exactly the program the
evaluator will run, with the paper's two language dials (SQL
compatibility and typing mode) already applied.  It is schema-optional,
like everything else in the reproduction: with no schema it reasons
over a coarse abstract-type lattice seeded from nothing; with catalog
schemas it seeds the lattice from them and gets sharper answers.

Layering (each layer only depends on the ones above it):

* :mod:`repro.analysis.diagnostics` — :class:`Diagnostic`, severities,
  suppression parsing (``-- sqlpp-ignore: SQLPP001`` comments).
* :mod:`repro.analysis.rules` — the stable rule registry
  (``SQLPP000``..``SQLPP124``), one place per code.
* :mod:`repro.analysis.lattice` — the abstract type lattice
  (:class:`AType`): scalar categories x collection/tuple shape x the
  NULL/MISSING absence dimension, with ``join`` and schema seeding.
* :mod:`repro.analysis.absint` — constant folding, the conjunction
  satisfiability domain and emptiness pruning (also used by the
  planner and the compile path).
* :mod:`repro.analysis.typeflow` — the one walk over the Core: scope
  (unbound, shadowed, unused names), types (an :class:`AType` per
  expression, operator rules derived from the runtime operators) and
  predicate facts, reported as it goes.
* :mod:`repro.analysis.analyzer` — orchestration: parse, rewrite, run
  the walk, apply suppressions.
* :mod:`repro.analysis.render` — human (caret-context) and JSON
  renderers.

Entry points: :func:`analyze` here, ``Database.check`` on the library
facade, and ``python -m repro lint`` on the command line.  The names
below load their submodule on first use (PEP 562), so the engine can
reach :mod:`~repro.analysis.absint` or
:mod:`~repro.analysis.verify_plan` without loading the analyzer.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AnalyzerOptions": "analyzer",
    "analyze": "analyzer",
    "analyze_query": "analyzer",
    "ERROR": "diagnostics",
    "INFO": "diagnostics",
    "WARNING": "diagnostics",
    "Diagnostic": "diagnostics",
    "filter_suppressed": "diagnostics",
    "sort_diagnostics": "diagnostics",
    "AType": "lattice",
    "from_schema": "lattice",
    "infer_literal": "lattice",
    "RULES": "rules",
    "Rule": "rules",
    "rule_for": "rules",
    "render_json": "render",
    "render_text": "render",
    "infer_expression": "typeflow",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
