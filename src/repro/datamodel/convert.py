"""Conversion between plain Python data and the SQL++ data model.

Users hand the engine ordinary Python objects (``dict``/``list``/scalars,
e.g. straight out of ``json.load``); internally the engine works on model
values (:class:`~repro.datamodel.values.Struct`,
:class:`~repro.datamodel.values.Bag`, lists, scalars, ``None``,
``MISSING``).  These two functions are the bridge:

* :func:`from_python` — dicts become structs, lists/tuples become arrays,
  sets and frozensets become bags.  Model values are accepted too, so
  mixed inputs are fine, but they do not pass through: every struct and
  collection is rebuilt, a deep copy whose cost follows the size of the
  input (``Database.insert`` therefore converts only the new elements).
* :func:`to_python` — structs become dicts, bags become lists (a bag's
  unorderedness cannot be expressed in JSON-style data; insertion order is
  kept).  ``MISSING`` elements of collections are dropped and ``MISSING``
  itself converts to ``None`` unless ``missing_as_none=False``, mirroring
  the paper's note that JDBC/ODBC surface MISSING as NULL.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.datamodel.values import MISSING, Bag, Struct, SCALAR_TYPES


def from_python(value: Any) -> Any:
    """Convert plain Python data to a SQL++ model value (recursively).

    An exact ``dict`` or ``list`` (what ``json.load`` produces) is
    recognized by its type before the ``isinstance`` chain every other
    input goes through; both routes build the same value."""
    if value is None or value is MISSING or isinstance(value, SCALAR_TYPES):
        return value
    kind = type(value)
    if kind is dict:
        return Struct(
            [
                (name if type(name) is str else str(name), from_python(item))
                for name, item in value.items()
            ]
        )
    if kind is list:
        return [from_python(item) for item in value]
    if isinstance(value, Struct):
        return Struct([(name, from_python(item)) for name, item in value.items()])
    if isinstance(value, Bag):
        return Bag(from_python(item) for item in value)
    if isinstance(value, Mapping):
        return Struct([(str(name), from_python(item)) for name, item in value.items()])
    if isinstance(value, (list, tuple)):
        return [from_python(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return Bag(from_python(item) for item in value)
    raise TypeError(
        f"cannot represent {type(value).__name__} value {value!r} in the "
        "SQL++ data model"
    )


def to_python(value: Any, missing_as_none: bool = True) -> Any:
    """Convert a SQL++ model value back to plain Python data.

    Structs become dicts (duplicate attribute names collapse to the last
    occurrence, as they would when writing JSON), bags become lists, and
    ``MISSING`` becomes ``None`` (or raises ``ValueError`` when
    ``missing_as_none`` is false).  MISSING *elements* of collections are
    always dropped and MISSING attribute values never occur (structs reject
    them at construction).
    """
    if value is MISSING:
        if missing_as_none:
            return None
        raise ValueError("MISSING cannot be converted to Python data")
    if value is None or isinstance(value, SCALAR_TYPES):
        return value
    if isinstance(value, Struct):
        return {
            name: to_python(item, missing_as_none) for name, item in value.items()
        }
    if isinstance(value, (list, Bag)):
        return [
            to_python(item, missing_as_none)
            for item in value
            if item is not MISSING
        ]
    raise TypeError(f"not a SQL++ value: {value!r}")
