"""The SQL++ Core: binding environments, the sugar rewriter, the evaluator.

The paper's central design device (Section I): define a small, fully
composable **SQL++ Core** — query blocks are pipelines of clause
functions over streams of variable bindings, ``SELECT VALUE`` constructs
arbitrary values, ``GROUP AS`` exposes groups as data, ``COLL_*``
aggregate functions are ordinary collection functions — and then explain
SQL itself as *syntactic sugar rewritings* over that Core, toggled by a
SQL-compatibility flag.

* :mod:`repro.core.environment` — variable-binding environments.
* :mod:`repro.core.rewriter` — the sugar → Core lowering.
* :mod:`repro.core.evaluator` — the engine: compiled closures, physical
  plans, the batch and streaming executors.
* :mod:`repro.core.reference` — the oracle: the eager tree-walking
  reference interpreter ``optimize=False`` runs.
* :mod:`repro.core.clauses` — the clause semantics both share.
* :mod:`repro.core.coercion` — SQL-compat subquery coercion.
* :mod:`repro.core.windows` — window functions (``OVER``).
* :mod:`repro.core.grouping_sets` — CUBE / ROLLUP / GROUPING SETS.
"""

from repro.core.environment import Environment
from repro.core.evaluator import Evaluator
from repro.core.rewriter import rewrite_query

__all__ = ["Environment", "Evaluator", "rewrite_query"]
