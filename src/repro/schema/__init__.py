"""Optional schemas (paper tenet 3: *optional schema and query stability*).

SQL++ never requires a schema, but accepts one: data can be validated
against it, bare column names can be statically disambiguated through it
(Section III), and queries can be statically type-checked when it is
present (Section I, relaxation 2).  Heterogeneity remains expressible
under schema through union types, mirroring Hive's ``UNIONTYPE``
(Listing 5).

The *query stability* tenet — "the result of a working query should not
change if a schema is imposed on existing data" — holds by construction:
schemas influence validation and static checks only, never evaluation
(tested property-style in ``tests/schema``).

The names below load their submodule on first use (PEP 562): the engine
reaches :mod:`repro.schema.types` without loading DDL parsing,
inference or validation.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:
    from repro.syntax import ast

#: Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "AnyType",
            "ArrayType",
            "BagType",
            "BooleanType",
            "FloatType",
            "IntegerType",
            "NullType",
            "SchemaType",
            "StringType",
            "StructField",
            "StructType",
            "UnionType",
            "element_attribute_names",
        ),
        "types",
    ),
    "validate": "validate",
    "conforms": "validate",
    "parse_schema": "ddl",
    "infer_schema": "infer",
}

__all__ = sorted([*_EXPORTS, "check_query"])


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def check_query(query: ast.Query, schemas: Dict[str, Any]) -> List[str]:
    """Statically type-check a (rewritten) query against schemas.

    A view of the lint analysis: each named value is seeded with its
    schema's abstract type and the messages of the type rules
    (:data:`repro.analysis.typeflow.TYPE_RULES`) come back; an empty
    list means "no static type errors found".  Pass the output of
    :meth:`repro.catalog.Database.compile` together with the database's
    registered schemas.
    """
    from repro.analysis.lattice import from_schema
    from repro.analysis.typeflow import TYPE_RULES, flow_diagnostics

    types = {name: from_schema(schema) for name, schema in schemas.items()}
    return [
        diagnostic.message
        for diagnostic in flow_diagnostics(query, catalog_types=types)
        if diagnostic.code in TYPE_RULES
    ]
