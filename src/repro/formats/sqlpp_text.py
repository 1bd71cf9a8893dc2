"""The paper's literal object notation.

Listings in the paper print data "using SQL literals ... similar to a
data format such as JSON, CBOR, or Ion" (Section II): bags as
``{{ ... }}``, tuples as ``{ 'name': value, ... }``, arrays as
``[ ... ]``, strings single-quoted, plus ``null``/``true``/``false`` and
``missing``.

Reading reuses the SQL++ expression parser (the notation *is* a constant
SQL++ expression) and evaluates it with the reference interpreter, so
the notation automatically stays consistent with the query language — e.g.
a MISSING attribute value omits the attribute.

:func:`dumps` pretty-prints any model value back in the same notation;
it is what the compatibility-kit report uses to show results the way the
paper prints them.
"""

from __future__ import annotations

from typing import Any

from repro.config import EvalConfig
from repro.core.environment import Environment
from repro.core.reference import ReferenceEvaluator
from repro.datamodel.values import MISSING, Bag, Struct, type_name
from repro.errors import FormatError, SQLPPError
from repro.syntax.parser import parse_expression


def loads(text: str) -> Any:
    """Parse a literal value written in the paper's notation."""
    try:
        expr = parse_expression(text)
        oracle = ReferenceEvaluator({}, EvalConfig(typing_mode="strict"))
        return oracle.eval_expr(expr, Environment())
    except SQLPPError as exc:
        raise FormatError(f"invalid SQL++ literal: {exc}") from exc


def dumps(value: Any, indent: int = 0, width: int = 2) -> str:
    """Render a model value in the paper's literal notation."""
    return _render(value, indent, width)


def _render(value: Any, indent: int, width: int) -> str:
    pad = " " * indent
    inner_pad = " " * (indent + width)
    if value is MISSING:
        return "missing"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = ",\n".join(
            inner_pad + _render(item, indent + width, width) for item in value
        )
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, Bag):
        if not len(value):
            return "{{}}"
        items = ",\n".join(
            inner_pad + _render(item, indent + width, width) for item in value
        )
        return "{{\n" + items + "\n" + pad + "}}"
    if isinstance(value, Struct):
        if not len(value):
            return "{}"
        fields = ",\n".join(
            inner_pad
            + "'"
            + name.replace("'", "''")
            + "': "
            + _render(item, indent + width, width)
            for name, item in value.items()
        )
        return "{\n" + fields + "\n" + pad + "}"
    raise FormatError(f"cannot render {type_name(value)} as a SQL++ literal")
