"""String builtins.

All follow the default absence rule (MISSING in → MISSING out, NULL in →
NULL out) and treat wrongly-typed input as a dynamic type error, which
the registry converts to MISSING in permissive mode.
"""

from __future__ import annotations

from typing import Any, List

from repro.config import EvalConfig
from repro.datamodel.values import type_name
from repro.functions.registry import REGISTRY, builtin


def _string_arg(name: str, value: Any, config: EvalConfig) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} expects a string, got {type_name(value)}")
    return value


@builtin("LOWER", 1, 1, result="STRING")
def lower(args: List[Any], config: EvalConfig) -> Any:
    return _string_arg("LOWER", args[0], config).lower()


@builtin("UPPER", 1, 1, result="STRING")
def upper(args: List[Any], config: EvalConfig) -> Any:
    return _string_arg("UPPER", args[0], config).upper()


@builtin("CHAR_LENGTH", 1, 1, result="NUMBER")
def char_length(args: List[Any], config: EvalConfig) -> Any:
    return len(_string_arg("CHAR_LENGTH", args[0], config))


REGISTRY.alias("CHAR_LENGTH", "CHARACTER_LENGTH", "LENGTH")


@builtin("SUBSTRING", 2, 3, result="STRING")
def substring(args: List[Any], config: EvalConfig) -> Any:
    """``SUBSTRING(s, start [, length])`` with SQL's 1-based start."""
    text = _string_arg("SUBSTRING", args[0], config)
    start = args[1]
    if isinstance(start, bool) or not isinstance(start, int):
        raise TypeError("SUBSTRING start must be an integer")
    begin = max(start - 1, 0)
    if len(args) == 3:
        length = args[2]
        if isinstance(length, bool) or not isinstance(length, int):
            raise TypeError("SUBSTRING length must be an integer")
        if length < 0:
            raise ValueError("SUBSTRING length must be non-negative")
        # Account for a start before position 1, as SQL does.
        end = max(start - 1 + length, 0)
        return text[begin:end]
    return text[begin:]


REGISTRY.alias("SUBSTRING", "SUBSTR")


@builtin("TRIM", 1, 2, result="STRING")
def trim(args: List[Any], config: EvalConfig) -> Any:
    text = _string_arg("TRIM", args[0], config)
    chars = _string_arg("TRIM", args[1], config) if len(args) == 2 else None
    return text.strip(chars)


@builtin("LTRIM", 1, 2, result="STRING")
def ltrim(args: List[Any], config: EvalConfig) -> Any:
    text = _string_arg("LTRIM", args[0], config)
    chars = _string_arg("LTRIM", args[1], config) if len(args) == 2 else None
    return text.lstrip(chars)


@builtin("RTRIM", 1, 2, result="STRING")
def rtrim(args: List[Any], config: EvalConfig) -> Any:
    text = _string_arg("RTRIM", args[0], config)
    chars = _string_arg("RTRIM", args[1], config) if len(args) == 2 else None
    return text.rstrip(chars)


@builtin("REPLACE", 3, 3, result="STRING")
def replace(args: List[Any], config: EvalConfig) -> Any:
    text = _string_arg("REPLACE", args[0], config)
    old = _string_arg("REPLACE", args[1], config)
    new = _string_arg("REPLACE", args[2], config)
    return text.replace(old, new)


@builtin("POSITION", 2, 2, result="NUMBER")
def position(args: List[Any], config: EvalConfig) -> Any:
    """``POSITION(needle, haystack)`` — 1-based index, 0 when absent."""
    needle = _string_arg("POSITION", args[0], config)
    haystack = _string_arg("POSITION", args[1], config)
    return haystack.find(needle) + 1


@builtin("CONTAINS", 2, 2, result="BOOLEAN")
def contains(args: List[Any], config: EvalConfig) -> Any:
    haystack = _string_arg("CONTAINS", args[0], config)
    needle = _string_arg("CONTAINS", args[1], config)
    return needle in haystack


@builtin("STARTS_WITH", 2, 2, result="BOOLEAN")
def starts_with(args: List[Any], config: EvalConfig) -> Any:
    text = _string_arg("STARTS_WITH", args[0], config)
    prefix = _string_arg("STARTS_WITH", args[1], config)
    return text.startswith(prefix)


@builtin("ENDS_WITH", 2, 2, result="BOOLEAN")
def ends_with(args: List[Any], config: EvalConfig) -> Any:
    text = _string_arg("ENDS_WITH", args[0], config)
    suffix = _string_arg("ENDS_WITH", args[1], config)
    return text.endswith(suffix)


@builtin("SPLIT", 2, 2, result="ARRAY")
def split(args: List[Any], config: EvalConfig) -> Any:
    """Split a string into an array on a separator."""
    text = _string_arg("SPLIT", args[0], config)
    separator = _string_arg("SPLIT", args[1], config)
    if not separator:
        raise ValueError("SPLIT separator must be non-empty")
    return text.split(separator)


@builtin("CONCAT", 1, None, result="STRING")
def concat_fn(args: List[Any], config: EvalConfig) -> Any:
    """Variadic string concatenation (function form of ``||``)."""
    return "".join(_string_arg("CONCAT", arg, config) for arg in args)


@builtin("REVERSE", 1, 1, result=None)
def reverse(args: List[Any], config: EvalConfig) -> Any:
    value = args[0]
    if isinstance(value, str):
        return value[::-1]
    if isinstance(value, list):
        return value[::-1]
    raise TypeError(f"REVERSE expects a string or array, got {type_name(value)}")


@builtin("REPEAT", 2, 2, result="STRING")
def repeat(args: List[Any], config: EvalConfig) -> Any:
    text = _string_arg("REPEAT", args[0], config)
    count = args[1]
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise TypeError("REPEAT count must be a non-negative integer")
    return text * count
