"""General-purpose scalar builtins: absence handling, types, casting.

The ``COALESCE`` family implements the Section IV-B exception: SQL's
``COALESCE(NULL, 2)`` returns 2, so in SQL-compatibility mode
``COALESCE(MISSING, 2)`` must also return 2.  In pure Core mode (the
composability-first setting) a MISSING input propagates instead.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.config import EvalConfig
from repro.datamodel.values import MISSING, Bag, Struct, type_name
from repro.errors import EvaluationError
from repro.functions.registry import builtin


@builtin("COALESCE", 1, None, propagate_absent=False, result="ARGUMENT")
def coalesce(args: List[Any], config: EvalConfig) -> Any:
    """First non-absent argument.

    NULL arguments are always skipped.  A MISSING argument is skipped in
    SQL-compatibility mode (Section IV-B exception) but propagates as
    MISSING in Core mode.  All arguments absent → NULL (SQL behaviour).
    """
    for arg in args:
        if arg is None:
            continue
        if arg is MISSING:
            if config.sql_compat:
                continue
            return MISSING
        return arg
    return None


@builtin("IFNULL", 2, 2, propagate_absent=False, result="ARGUMENT")
def ifnull(args: List[Any], config: EvalConfig) -> Any:
    """``IFNULL(x, default)`` — default when x is NULL (MISSING passes through)."""
    value, default = args
    return default if value is None else value


@builtin("IFMISSING", 2, 2, propagate_absent=False, result="ARGUMENT")
def ifmissing(args: List[Any], config: EvalConfig) -> Any:
    """``IFMISSING(x, default)`` — default when x is MISSING."""
    value, default = args
    return default if value is MISSING else value


@builtin("IFMISSINGORNULL", 2, 2, propagate_absent=False, result="ARGUMENT")
def ifmissingornull(args: List[Any], config: EvalConfig) -> Any:
    """``IFMISSINGORNULL(x, default)`` — default when x is absent."""
    value, default = args
    return default if value is None or value is MISSING else value


@builtin("NULLIF", 2, 2, propagate_absent=False, result=None)
def nullif(args: List[Any], config: EvalConfig) -> Any:
    """``NULLIF(a, b)`` — NULL when a = b, else a."""
    from repro.functions.operators import equals

    left, right = args
    if left is MISSING:
        return MISSING
    verdict = equals(left, right, config)
    if verdict is True:
        return None
    return left


@builtin("MISSINGIF", 2, 2, propagate_absent=False, result=None)
def missingif(args: List[Any], config: EvalConfig) -> Any:
    """``MISSINGIF(a, b)`` — MISSING when a = b, else a (Couchbase-style)."""
    from repro.functions.operators import equals

    left, right = args
    if left is MISSING:
        return MISSING
    verdict = equals(left, right, config)
    if verdict is True:
        return MISSING
    return left


@builtin("TYPEOF", 1, 1, propagate_absent=False, result="STRING")
def typeof(args: List[Any], config: EvalConfig) -> str:
    """The SQL++ type name of the argument (``'missing'`` for MISSING)."""
    return type_name(args[0])


_CAST_INTEGER = ("INTEGER", "INT", "BIGINT", "SMALLINT")
_CAST_FLOAT = ("FLOAT", "DOUBLE", "REAL", "DECIMAL")
_CAST_STRING = ("STRING", "VARCHAR", "CHAR", "TEXT")
_CAST_BOOLEAN = ("BOOLEAN", "BOOL")

#: Every type name ``CAST`` converts to, and the ``IS`` kind of what it
#: produces; any other target raises in both typing modes (it is not a
#: dynamic type error).
CAST_TARGETS: Dict[str, str] = {
    **dict.fromkeys(_CAST_INTEGER, "INTEGER"),
    **dict.fromkeys(_CAST_FLOAT, "FLOAT"),
    **dict.fromkeys(_CAST_STRING, "STRING"),
    **dict.fromkeys(_CAST_BOOLEAN, "BOOLEAN"),
}


def cast_value(value: Any, target: str, config: EvalConfig) -> Any:
    """Implementation of ``CAST(x AS target)``.

    NULL casts to NULL and MISSING to MISSING (absence survives casting).
    A failed conversion is a dynamic type error (MISSING / raise).
    """
    if value is MISSING:
        return MISSING
    if value is None:
        return None
    target = target.upper()
    try:
        if target in _CAST_INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, (int, float)):
                return int(value)
            if isinstance(value, str):
                return int(value.strip())
        elif target in _CAST_FLOAT:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value.strip())
        elif target in _CAST_STRING:
            return to_string_value(value)
        elif target in _CAST_BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1"):
                    return True
                if lowered in ("false", "f", "0"):
                    return False
                raise ValueError(f"cannot parse boolean from {value!r}")
            if isinstance(value, (int, float)):
                return bool(value)
        else:
            raise EvaluationError(f"unknown CAST target type {target}")
    except (TypeError, ValueError, OverflowError):
        # OverflowError: an infinite float has no integer.
        return config.type_error(f"cannot cast {type_name(value)} to {target}")
    return config.type_error(f"cannot cast {type_name(value)} to {target}")


def to_string_value(value: Any) -> str:
    """Render a scalar as a string the way SQL++ text output does."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float, str)):
        return str(value)
    raise ValueError(f"cannot convert {type_name(value)} to string")


@builtin("TO_STRING", 1, 1, result="STRING")
def to_string(args: List[Any], config: EvalConfig) -> Any:
    return to_string_value(args[0])


@builtin("ATTRIBUTE_NAMES", 1, 1, result="ARRAY")
def attribute_names(args: List[Any], config: EvalConfig) -> Any:
    """The attribute names of a tuple, as an array of strings."""
    value = args[0]
    if not isinstance(value, Struct):
        return config.type_error(
            f"ATTRIBUTE_NAMES expects a tuple, got {type_name(value)}"
        )
    return value.keys()


@builtin("TUPLE_UNION", 2, None, result="TUPLE")
def tuple_union(args: List[Any], config: EvalConfig) -> Any:
    """Concatenate the attribute pairs of two or more tuples."""
    pairs: list = []
    for value in args:
        if not isinstance(value, Struct):
            return config.type_error(
                f"TUPLE_UNION expects tuples, got {type_name(value)}"
            )
        pairs += value.items()
    return Struct(pairs)


@builtin("GREATEST", 2, None, result=None)
def greatest(args: List[Any], config: EvalConfig) -> Any:
    """Largest of the arguments (pairwise comparable scalars)."""
    from repro.functions.operators import compare

    best = args[0]
    for value in args[1:]:
        if compare(">", value, best, config) is True:
            best = value
    return best


@builtin("LEAST", 2, None, result=None)
def least(args: List[Any], config: EvalConfig) -> Any:
    """Smallest of the arguments (pairwise comparable scalars)."""
    from repro.functions.operators import compare

    best = args[0]
    for value in args[1:]:
        if compare("<", value, best, config) is True:
            best = value
    return best


# Couchbase/AsterixDB-style aliases seen in SQL++ dialects.
from repro.functions.registry import REGISTRY  # noqa: E402

REGISTRY.alias("IFNULL", "NVL")
REGISTRY.alias("TYPEOF", "TYPE")


@builtin("BAG", 0, None, propagate_absent=False, result="BAG")
def bag_constructor(args: List[Any], config: EvalConfig) -> Bag:
    """Function-style bag constructor: ``BAG(1, 2, 3)``."""
    return Bag(arg for arg in args if arg is not MISSING)
