"""Collection builtins: array/bag manipulation helpers.

These make the FROM-anything and construct-anything style of SQL++
practical; several are used by the examples and benchmarks.
"""

from __future__ import annotations

from typing import Any, List

from repro.config import EvalConfig
from repro.datamodel.values import MISSING, Bag, is_collection, type_name
from repro.functions.operators import distinct_elements, equals
from repro.functions.registry import builtin


def _collection_arg(name: str, value: Any) -> list:
    if isinstance(value, list):
        return value
    if isinstance(value, Bag):
        return value.to_list()
    raise TypeError(f"{name} expects a collection, got {type_name(value)}")


@builtin("ARRAY_LENGTH", 1, 1, result="NUMBER")
def array_length(args: List[Any], config: EvalConfig) -> Any:
    return len(_collection_arg("ARRAY_LENGTH", args[0]))


@builtin("ARRAY_CONTAINS", 2, 2, result="BOOLEAN")
def array_contains(args: List[Any], config: EvalConfig) -> Any:
    items = _collection_arg("ARRAY_CONTAINS", args[0])
    needle = args[1]
    return any(equals(item, needle, config) is True for item in items)


@builtin("ARRAY_CONCAT", 2, None, result="ARRAY")
def array_concat(args: List[Any], config: EvalConfig) -> Any:
    result: list = []
    for value in args:
        result.extend(_collection_arg("ARRAY_CONCAT", value))
    return result


@builtin("ARRAY_DISTINCT", 1, 1, result="ARRAY")
def array_distinct(args: List[Any], config: EvalConfig) -> Any:
    return distinct_elements(_collection_arg("ARRAY_DISTINCT", args[0]))


@builtin("ARRAY_FLATTEN", 1, 1, result="ARRAY")
def array_flatten(args: List[Any], config: EvalConfig) -> Any:
    """Flatten one level of nesting; non-collection elements pass through."""
    result: list = []
    for item in _collection_arg("ARRAY_FLATTEN", args[0]):
        if is_collection(item):
            result.extend(item)
        else:
            result.append(item)
    return result


@builtin("ARRAY_SLICE", 2, 3, result="ARRAY")
def array_slice(args: List[Any], config: EvalConfig) -> Any:
    """``ARRAY_SLICE(a, start [, end])`` — 0-based half-open slice."""
    items = _collection_arg("ARRAY_SLICE", args[0])
    start = args[1]
    if isinstance(start, bool) or not isinstance(start, int):
        raise TypeError("ARRAY_SLICE start must be an integer")
    if len(args) == 3:
        end = args[2]
        if isinstance(end, bool) or not isinstance(end, int):
            raise TypeError("ARRAY_SLICE end must be an integer")
        return items[start:end]
    return items[start:]


@builtin("ARRAY_SORT", 1, 1, result="ARRAY")
def array_sort(args: List[Any], config: EvalConfig) -> Any:
    """Sort a collection into an array using the SQL++ total order."""
    from repro.datamodel.ordering import sort_key

    items = _collection_arg("ARRAY_SORT", args[0])
    return sorted(items, key=sort_key)


@builtin("TO_ARRAY", 1, 1, propagate_absent=False, result="ARRAY")
def to_array(args: List[Any], config: EvalConfig) -> Any:
    """Coerce to an array: arrays pass, bags enumerate, scalars wrap."""
    value = args[0]
    if value is MISSING:
        return []
    if isinstance(value, list):
        return value
    if isinstance(value, Bag):
        return value.to_list()
    return [value]


@builtin("TO_BAG", 1, 1, propagate_absent=False, result="BAG")
def to_bag(args: List[Any], config: EvalConfig) -> Any:
    """Coerce to a bag: bags pass, arrays enumerate, scalars wrap."""
    value = args[0]
    if value is MISSING:
        return Bag()
    if isinstance(value, Bag):
        return value
    if isinstance(value, list):
        return Bag(value)
    return Bag([value])


@builtin("RANGE", 1, 3, result="ARRAY")
def range_fn(args: List[Any], config: EvalConfig) -> Any:
    """``RANGE(stop)`` / ``RANGE(start, stop [, step])`` — integer array."""
    for value in args:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError("RANGE expects integers")
    if len(args) == 1:
        return list(range(args[0]))
    if len(args) == 2:
        return list(range(args[0], args[1]))
    if args[2] == 0:
        raise ValueError("RANGE step must be non-zero")
    return list(range(args[0], args[1], args[2]))
