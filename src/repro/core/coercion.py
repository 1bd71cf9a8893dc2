"""SQL-compat subquery coercion (paper, Section V-A).

"When a SQL SELECT appears as a subquery, SQL compatibility requires that
it not be treated simply as being a shorthand of SELECT VALUE.  Rather,
the context of the subquery designates whether the subquery's result
should be coerced into a scalar value (e.g., when ``5 = <subquery>``),
coerced into a collection of scalars (e.g., when ``5 IN <subquery>``),
etc.  None of this implicit 'magic' applies to SELECT VALUE."

The rewriter marks plain-SELECT subqueries in coercing positions with
:class:`~repro.syntax.ast.CoerceSubquery`; this module implements the two
coercions at evaluation time.
"""

from __future__ import annotations

from typing import Any, List

from repro.config import EvalConfig
from repro.datamodel.values import MISSING, Bag, Struct, type_name
from repro.errors import EvaluationError


def _elements(value: Any) -> List[Any]:
    if isinstance(value, Bag):
        return value.to_list()
    if isinstance(value, list):
        return value
    raise EvaluationError(
        f"subquery coercion expects a collection result, got {type_name(value)}"
    )


def single_attribute(element: Any, config: EvalConfig) -> Any:
    """Coerce one subquery row to its single attribute's value — the
    per-row building block of :func:`coerce_collection`, which the
    streaming ``IN <subquery>`` probe applies as rows arrive."""
    if isinstance(element, Struct) and len(element) == 1:
        return element.values()[0]
    return config.type_error(
        "coerced subquery rows must be single-attribute tuples, got "
        f"{type_name(element)}"
    )


def coerce_scalar(result: Any, config: EvalConfig) -> Any:
    """Coerce a subquery result to a scalar.

    Empty result → NULL (SQL's scalar-subquery rule); a single row →
    its single attribute's value; more than one row is a cardinality
    error (MISSING in permissive mode, raised in strict mode).
    """
    elements = _elements(result)
    if not elements:
        return None
    if len(elements) > 1:
        if config.is_permissive:
            return MISSING
        raise EvaluationError(
            f"scalar subquery returned {len(elements)} rows"
        )
    return single_attribute(elements[0], config)


def coerce_collection(result: Any, config: EvalConfig) -> Any:
    """Coerce a subquery result to a collection of values.

    Each single-attribute tuple row contributes its value; the result
    keeps the input's bag/array nature.
    """
    elements = [single_attribute(item, config) for item in _elements(result)]
    if isinstance(result, list):
        return elements
    return Bag(elements)
