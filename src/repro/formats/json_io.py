"""JSON codec.

JSON objects map to SQL++ tuples and JSON arrays to SQL++ arrays.  JSON
has no bag, so writing a bag serialises its elements as an array; by
default a *top-level* array is read back as a bag (``top_level_bag``),
matching how document stores treat a collection of documents, so that a
load/dump round trip of a named collection is stable.

JSON objects may in principle carry duplicate keys; Python's ``json``
collapses them, so this codec uses ``object_pairs_hook`` to preserve
every pair in the :class:`~repro.datamodel.values.Struct`.
"""

from __future__ import annotations

import json
from typing import Any

from repro.datamodel.values import MISSING, Bag, Struct, type_name
from repro.errors import FormatError


def loads(text: str, top_level_bag: bool = True) -> Any:
    """Parse JSON text into model values."""
    try:
        value = json.loads(text, object_pairs_hook=Struct)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if top_level_bag and isinstance(value, list):
        return Bag(value)
    return value


def dumps(value: Any, indent: int = 2) -> str:
    """Serialise a model value as JSON (bags become arrays)."""
    return json.dumps(_to_jsonable(value), indent=indent)


def _to_jsonable(value: Any) -> Any:
    if value is MISSING:
        raise FormatError("MISSING cannot be serialised as JSON")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Struct):
        # json.dumps cannot emit duplicate keys from a dict; build the
        # text through an ordered pair list via a dict only when safe.
        keys = value.keys()
        if len(set(keys)) != len(keys):
            raise FormatError(
                "tuple with duplicate attribute names cannot round-trip "
                "through JSON; use the cbor or sqlpp format"
            )
        return {name: _to_jsonable(item) for name, item in value.items()}
    if isinstance(value, Bag):
        return [_to_jsonable(item) for item in value if item is not MISSING]
    if isinstance(value, list):
        return [_to_jsonable(item) for item in value if item is not MISSING]
    raise FormatError(f"cannot serialise {type_name(value)} as JSON")
