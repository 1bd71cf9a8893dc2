"""The total order over SQL++ values used by ``ORDER BY``.

SQL defines ordering only between comparable scalars; SQL++ queries sort
heterogeneous data, so (following the PartiQL specification, which the
paper's unified definition builds on) a *total* order across types is
needed.  The order ranks types:

    MISSING < NULL < booleans < numbers < strings < arrays < tuples < bags

and within a type orders values naturally (numbers by value across
int/float, strings lexicographically, arrays lexicographically by element,
tuples by their sorted attribute pairs, bags by their sorted elements).

``ORDER BY ... ASC`` therefore places absent values first, matching SQL's
``NULLS FIRST`` default for ascending order.
"""

from __future__ import annotations

import math
from typing import Any, Tuple

from repro.datamodel.values import MISSING, Bag, Struct


def sort_key(value: Any) -> Tuple:
    """A key usable with :func:`sorted` implementing the SQL++ total order.

    The returned keys are nested tuples that always compare successfully
    against each other, whatever the original value types were.
    """
    if value is MISSING:
        return (0,)
    if value is None:
        return (1,)
    if isinstance(value, bool):
        return (2, value)
    if isinstance(value, (int, float)):
        if isinstance(value, float) and math.isnan(value):
            # NaN sorts below all other numbers, like SQL engines commonly
            # order it; -inf is the smallest non-NaN float.
            return (3, 0, 0.0)
        return (3, 1, value)
    if isinstance(value, str):
        return (4, value)
    if isinstance(value, list):
        return (5, tuple(sort_key(item) for item in value))
    if isinstance(value, Struct):
        return _struct_sort_key(value)
    if isinstance(value, Bag):
        return (7, tuple(sorted(sort_key(item) for item in value)))
    raise TypeError(f"not a SQL++ value: {value!r}")


def _struct_sort_key(value: Struct) -> Tuple:
    # A function of its own: the comprehension's closure would otherwise
    # cost every scalar key a cell.
    order = value._shape.order
    if order is None:  # duplicate names: sort the pairs themselves
        pairs = sorted((name, sort_key(item)) for name, item in value.items())
        return (6, tuple(pairs))
    values = value._values
    return (6, tuple([(name, sort_key(values[at])) for name, at in order]))
