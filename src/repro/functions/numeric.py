"""Numeric builtins (default absence propagation; type errors → MISSING)."""

from __future__ import annotations

import math
from typing import Any, List

from repro.config import EvalConfig
from repro.datamodel.values import type_name
from repro.functions.registry import REGISTRY, builtin


def _number_arg(name: str, value: Any) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} expects a number, got {type_name(value)}")
    return value


@builtin("ABS", 1, 1, result="NUMBER")
def abs_fn(args: List[Any], config: EvalConfig) -> Any:
    return abs(_number_arg("ABS", args[0]))


@builtin("CEIL", 1, 1, result="NUMBER")
def ceil(args: List[Any], config: EvalConfig) -> Any:
    return math.ceil(_number_arg("CEIL", args[0]))


REGISTRY.alias("CEIL", "CEILING")


@builtin("FLOOR", 1, 1, result="NUMBER")
def floor(args: List[Any], config: EvalConfig) -> Any:
    return math.floor(_number_arg("FLOOR", args[0]))


@builtin("ROUND", 1, 2, result="NUMBER")
def round_fn(args: List[Any], config: EvalConfig) -> Any:
    value = _number_arg("ROUND", args[0])
    if len(args) == 2:
        digits = args[1]
        if isinstance(digits, bool) or not isinstance(digits, int):
            raise TypeError("ROUND digits must be an integer")
        return round(value, digits)
    return round(value)


@builtin("TRUNC", 1, 1, result="NUMBER")
def trunc(args: List[Any], config: EvalConfig) -> Any:
    return math.trunc(_number_arg("TRUNC", args[0]))


@builtin("SIGN", 1, 1, result="NUMBER")
def sign(args: List[Any], config: EvalConfig) -> Any:
    value = _number_arg("SIGN", args[0])
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


@builtin("SQRT", 1, 1, result="NUMBER")
def sqrt(args: List[Any], config: EvalConfig) -> Any:
    value = _number_arg("SQRT", args[0])
    if value < 0:
        raise ValueError("SQRT of a negative number")
    return math.sqrt(value)


#: Largest bit length of a POWER result: beyond it an integer result
#: would lie outside the float range, where a float result overflows.
POWER_MAX_BITS = 1024


@builtin("POWER", 2, 2, result="NUMBER")
def power(args: List[Any], config: EvalConfig) -> Any:
    base = _number_arg("POWER", args[0])
    exponent = _number_arg("POWER", args[1])
    out_of_range = OverflowError("result outside the float range")
    if type(base) is int and type(exponent) is int and exponent > 0:
        # |base| >= 2 ** (bits - 1), so this bound on the result's bit
        # length decides a huge power before computing it; below it the
        # result has fewer than 2 * POWER_MAX_BITS bits and is checked
        # exactly.
        if exponent * (abs(base).bit_length() - 1) >= POWER_MAX_BITS:
            raise out_of_range
        result = base**exponent
        if result.bit_length() > POWER_MAX_BITS:
            raise out_of_range
        return result
    try:
        result = base**exponent
    except OverflowError:
        raise out_of_range from None
    if isinstance(result, complex):
        raise ValueError("POWER of a negative number to a non-integral power")
    return result


REGISTRY.alias("POWER", "POW")


@builtin("MOD", 2, 2, result="NUMBER")
def mod(args: List[Any], config: EvalConfig) -> Any:
    left = _number_arg("MOD", args[0])
    right = _number_arg("MOD", args[1])
    if right == 0:
        raise ValueError("MOD by zero")
    return left % right


@builtin("EXP", 1, 1, result="NUMBER")
def exp(args: List[Any], config: EvalConfig) -> Any:
    return math.exp(_number_arg("EXP", args[0]))


@builtin("LN", 1, 1, result="NUMBER")
def ln(args: List[Any], config: EvalConfig) -> Any:
    value = _number_arg("LN", args[0])
    if value <= 0:
        raise ValueError("LN of a non-positive number")
    return math.log(value)


@builtin("LOG10", 1, 1, result="NUMBER")
def log10(args: List[Any], config: EvalConfig) -> Any:
    value = _number_arg("LOG10", args[0])
    if value <= 0:
        raise ValueError("LOG10 of a non-positive number")
    return math.log10(value)


@builtin("PI", 0, 0, result="NUMBER")
def pi(args: List[Any], config: EvalConfig) -> float:
    return math.pi
