"""repro — a from-scratch reproduction of *SQL++: We Can Finally Relax!*
(Carey et al., ICDE 2024).

A complete SQL++ query processor in pure Python:

* the relaxed data model — nested, schema-optional, heterogeneous values
  with both ``NULL`` and ``MISSING`` (:mod:`repro.datamodel`);
* the full query language — SELECT VALUE, left-correlated FROM,
  GROUP BY ... GROUP AS, PIVOT/UNPIVOT, windows, set ops
  (:mod:`repro.syntax`);
* the SQL++ Core evaluator and the SQL-as-sugar rewriter with the
  SQL-compatibility flag and permissive / strict typing
  (:mod:`repro.core`, :mod:`repro.config`);
* optional schemas with union types, validation, inference and static
  checking (:mod:`repro.schema`);
* format independence — JSON, CSV, CBOR, Ion and the paper's literal
  notation (:mod:`repro.formats`);
* the compatibility kit the paper calls for — every listing of the paper
  as an executable conformance case (:mod:`repro.compat`);
* baselines for the benchmark harness — a strict SQL-92 engine and a
  "JSON in a column" engine (:mod:`repro.baselines`).

Quick start::

    from repro import Database

    db = Database()
    db.set("hr.emp", [{"name": "Bob", "projects": ["OLTP Security"]}])
    result = db.execute(
        "SELECT e.name AS n, p AS proj "
        "FROM hr.emp AS e, e.projects AS p "
        "WHERE p LIKE '%Security%'"
    )
"""

from repro.catalog.database import Database
from repro.config import EvalConfig, PERMISSIVE, STRICT
from repro.datamodel import MISSING, Bag, Struct, from_python, to_python
from repro.errors import (
    BindingError,
    CatalogError,
    EvaluationError,
    FormatError,
    LexError,
    ParseError,
    RewriteError,
    SchemaError,
    SQLPPError,
    TypeCheckError,
)
from repro.formats import sqlpp_dumps, sqlpp_loads
from repro.syntax.parser import parse, parse_expression
from repro.syntax.printer import print_ast

__version__ = "1.0.0"

__all__ = [
    "Database",
    "EvalConfig",
    "PERMISSIVE",
    "STRICT",
    "MISSING",
    "Bag",
    "Struct",
    "from_python",
    "to_python",
    "sqlpp_loads",
    "sqlpp_dumps",
    "parse",
    "parse_expression",
    "print_ast",
    "SQLPPError",
    "LexError",
    "ParseError",
    "RewriteError",
    "BindingError",
    "TypeCheckError",
    "EvaluationError",
    "SchemaError",
    "FormatError",
    "CatalogError",
    "__version__",
]
