"""Operator semantics: arithmetic, comparison, logic, LIKE, navigation.

This module is the heart of the paper's Section IV: every operator
encodes where ``MISSING`` values come from and how they propagate.

The three MISSING-producing cases (Section IV-B):

1. *Navigation into a missing attribute* — :func:`navigate_path` returns
   ``MISSING`` when a tuple lacks the attribute.
2. *Wrongly-typed inputs* — in permissive mode, ``2 * 'a'`` and friends
   return ``MISSING`` via :meth:`EvalConfig.type_error`; in strict mode
   the same call raises.
3. *MISSING in, MISSING out* — operators receiving MISSING return
   MISSING, with the SQL-compatibility exception for expressions that map
   NULL to non-NULL (``AND``/``OR`` absorption, handled in 3-valued
   logic below; ``COALESCE`` handled in its builtin).

Logic (``AND``/``OR``/``NOT``) treats MISSING like NULL (SQL 3-valued
logic never yields MISSING from a logical connective — the connectives
are exactly the SQL expressions that can map NULL to non-NULL).
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from typing import Any, Callable, NamedTuple, Optional, Tuple

from repro.config import EvalConfig
from repro.datamodel.equality import deep_equals, group_key
from repro.datamodel.values import (
    MISSING,
    Bag,
    Struct,
    is_collection,
    type_name,
)
from repro.errors import EvaluationError


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# =========================================================================
# Arithmetic
# =========================================================================


def arithmetic(op: str, left: Any, right: Any, config: EvalConfig) -> Any:
    """``+ - * / %`` with SQL numeric semantics over dynamic types."""
    if left is MISSING or right is MISSING:
        return MISSING
    if left is None or right is None:
        return None
    if not _is_number(left) or not _is_number(right):
        return config.type_error(
            f"cannot apply {op!r} to {type_name(left)} and {type_name(right)}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            if config.is_permissive:
                return MISSING
            raise EvaluationError("division by zero")
        result = left / right
        # Exact integer division keeps integer type, so ``6/2`` is the SQL
        # integer 3 while ``7/2`` is 3.5 (document divergence from SQL's
        # truncating integer division; the data-centric choice avoids
        # silent precision loss on heterogeneous data).
        if isinstance(left, int) and isinstance(right, int) and result == int(result):
            return int(result)
        return result
    if op == "%":
        if right == 0:
            if config.is_permissive:
                return MISSING
            raise EvaluationError("modulo by zero")
        return left % right
    raise EvaluationError(f"unknown arithmetic operator {op!r}")


def negate(value: Any, config: EvalConfig) -> Any:
    """Unary minus."""
    if value is MISSING:
        return MISSING
    if value is None:
        return None
    if not _is_number(value):
        return config.type_error(f"cannot negate {type_name(value)}")
    return -value


def unary_plus(value: Any, config: EvalConfig) -> Any:
    """Unary plus (checks numericity, returns the value)."""
    if value is MISSING or value is None:
        return value
    if not _is_number(value):
        return config.type_error(f"cannot apply unary + to {type_name(value)}")
    return value


def concat(left: Any, right: Any, config: EvalConfig) -> Any:
    """String concatenation ``||`` (also concatenates two arrays)."""
    if left is MISSING or right is MISSING:
        return MISSING
    if left is None or right is None:
        return None
    if isinstance(left, str) and isinstance(right, str):
        return left + right
    if isinstance(left, list) and isinstance(right, list):
        return left + right
    return config.type_error(
        f"cannot concatenate {type_name(left)} and {type_name(right)}"
    )


# =========================================================================
# Comparison
# =========================================================================


def _equality_kind(value: Any) -> str:
    """The type category ``=`` compares within (int/float unify)."""
    if isinstance(value, bool):
        return "boolean"
    if _is_number(value):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, Bag):
        return "bag"
    if isinstance(value, Struct):
        return "tuple"
    raise EvaluationError(f"not a SQL++ value: {value!r}")


def equals(left: Any, right: Any, config: EvalConfig) -> Any:
    """The ``=`` operator.

    SQL equality on scalars and NULL (paper, Section V-B); deep equality
    on same-typed nested values (arrays element-wise, bags as multisets).
    Operands of *different* type categories are wrongly-typed input
    (paper, Section IV-B rule 2): ``2 = 'a'`` yields ``MISSING`` in
    permissive mode and raises :class:`TypeCheckError` in strict mode,
    exactly like ``<``/``<=``/``>``/``>=``.  The total structural
    equality that keeps DISTINCT/GROUP BY/set ops well-defined over
    heterogeneous data is :func:`repro.datamodel.equality.deep_equals`,
    which this operator intentionally does *not* expose across types.
    """
    if left is MISSING or right is MISSING:
        return MISSING
    if left is None or right is None:
        return None
    if _equality_kind(left) != _equality_kind(right):
        return config.type_error(
            f"cannot compare {type_name(left)} with {type_name(right)} "
            "for equality"
        )
    return deep_equals(left, right)


def not_equals(left: Any, right: Any, config: EvalConfig) -> Any:
    result = equals(left, right, config)
    if result is MISSING or result is None:
        return result
    return not result


_ORDERED_KINDS = ("number", "string", "boolean")


def _comparable_kind(value: Any) -> Optional[str]:
    if isinstance(value, bool):
        return "boolean"
    if _is_number(value):
        return "number"
    if isinstance(value, str):
        return "string"
    return None


def compare(op: str, left: Any, right: Any, config: EvalConfig) -> Any:
    """``< <= > >=`` over mutually comparable scalars."""
    if left is MISSING or right is MISSING:
        return MISSING
    if left is None or right is None:
        return None
    left_kind = _comparable_kind(left)
    right_kind = _comparable_kind(right)
    if left_kind is None or right_kind is None or left_kind != right_kind:
        return config.type_error(
            f"cannot compare {type_name(left)} with {type_name(right)}"
        )
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise EvaluationError(f"unknown comparison operator {op!r}")


# =========================================================================
# Three-valued logic (MISSING behaves as NULL — see module docstring)
# =========================================================================


def _to_truth(value: Any, config: EvalConfig) -> Any:
    """Normalise a logic operand to True / False / None (unknown)."""
    if value is MISSING or value is None:
        return None
    if isinstance(value, bool):
        return value
    result = config.type_error(f"expected a boolean, got {type_name(value)}")
    return None if result is MISSING else result


def logical_and(left: Any, right: Any, config: EvalConfig) -> Any:
    left_truth = _to_truth(left, config)
    right_truth = _to_truth(right, config)
    if left_truth is False or right_truth is False:
        return False
    if left_truth is None or right_truth is None:
        return None
    return True


def logical_or(left: Any, right: Any, config: EvalConfig) -> Any:
    left_truth = _to_truth(left, config)
    right_truth = _to_truth(right, config)
    if left_truth is True or right_truth is True:
        return True
    if left_truth is None or right_truth is None:
        return None
    return False


def logical_not(value: Any, config: EvalConfig) -> Any:
    truth = _to_truth(value, config)
    if truth is None:
        return None
    return not truth


def is_true(value: Any) -> bool:
    """WHERE/HAVING/ON keep a binding only when the predicate is exactly TRUE."""
    return value is True


# =========================================================================
# LIKE
# =========================================================================


def like(
    operand: Any,
    pattern: Any,
    escape: Any,
    config: EvalConfig,
) -> Any:
    """SQL ``LIKE`` with ``%``/``_`` wildcards and optional ESCAPE."""
    if MISSING in (operand, pattern, escape):
        return MISSING
    if operand is None or pattern is None:
        return None
    if not isinstance(operand, str) or not isinstance(pattern, str):
        return config.type_error(
            f"LIKE expects strings, got {type_name(operand)} and "
            f"{type_name(pattern)}"
        )
    escape_char = None
    if escape is not None:
        if not isinstance(escape, str) or len(escape) != 1:
            return config.type_error("ESCAPE must be a single character")
        escape_char = escape
    regex = _like_regex(pattern, escape_char)
    return regex.fullmatch(operand) is not None


@lru_cache(maxsize=512)
def _like_regex(pattern: str, escape_char: Optional[str]) -> "re.Pattern[str]":
    """Translate a LIKE pattern to a compiled regex.

    Bounded LRU cache: a dynamic pattern (``s LIKE t.pattern``) is
    evaluated per row, and recompiling the same regex for every row a
    predicate touches dominates the filter's cost (see
    ``benchmarks/bench_e14_like.py``).  Literal patterns are additionally
    hoisted out of the row loop entirely by
    :mod:`repro.core.compile_expr`.  The bad-pattern error (trailing
    escape character) is raised, so it is never cached.
    """
    parts = []
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if escape_char is not None and char == escape_char:
            index += 1
            if index >= len(pattern):
                raise EvaluationError("LIKE pattern ends with escape character")
            parts.append(re.escape(pattern[index]))
        elif char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
        index += 1
    return re.compile("".join(parts), re.DOTALL)


# =========================================================================
# IN / EXISTS / IS
# =========================================================================


def in_collection(operand: Any, collection: Any, config: EvalConfig) -> Any:
    """``x IN coll`` under 3-valued logic.

    True if some element equals x; unknown (NULL) if no element equals x
    but some comparison was unknown — including the MISSING a
    type-mismatched ``=`` yields in permissive mode — else False.  In
    strict mode a type-mismatched element comparison raises, like the
    expanded ``OR`` of ``=`` comparisons would.
    """
    if operand is MISSING or collection is MISSING:
        return MISSING
    if collection is None:
        return None
    if not is_collection(collection):
        return config.type_error(
            f"IN expects a collection, got {type_name(collection)}"
        )
    return in_elements(operand, collection, config)


def in_elements(operand: Any, elements: Any, config: EvalConfig) -> Any:
    """:func:`in_collection` over any iterable of elements, consumed
    only up to the first match (a streamed subquery stops there)."""
    saw_unknown = False
    for element in elements:
        verdict = equals(operand, element, config)
        if verdict is True:
            return True
        if verdict is None or verdict is MISSING:
            saw_unknown = True
    return None if saw_unknown else False


def exists(value: Any, config: EvalConfig) -> Any:
    """``EXISTS coll`` — non-emptiness; never NULL."""
    if value is MISSING or value is None:
        return False
    if not is_collection(value):
        return config.type_error(f"EXISTS expects a collection, got {type_name(value)}")
    return len(value) > 0


_TYPE_KIND_NAMES = {
    "BOOLEAN": "boolean",
    "BOOL": "boolean",
    "INTEGER": "integer",
    "INT": "integer",
    "FLOAT": "float",
    "DOUBLE": "float",
    "STRING": "string",
    "VARCHAR": "string",
    "ARRAY": "array",
    "LIST": "array",
    "BAG": "bag",
    "MULTISET": "bag",
    "TUPLE": "tuple",
    "STRUCT": "tuple",
    "OBJECT": "tuple",
    "NUMBER": "number",
}


#: Every ``kind`` :func:`is_predicate` answers; any other raises.
IS_KINDS = frozenset(_TYPE_KIND_NAMES) | {"NULL", "MISSING", "ABSENT"}


def is_predicate(operand: Any, kind: str, config: EvalConfig) -> bool:
    """``x IS <kind>`` — never errors, never returns NULL.

    ``IS NULL`` is true for NULL and (following PartiQL, for SQL
    compatibility) also for MISSING; ``IS MISSING`` is true only for
    MISSING.  Type kinds test the dynamic type.
    """
    if kind == "NULL":
        return operand is None or operand is MISSING
    if kind == "MISSING":
        return operand is MISSING
    if kind == "ABSENT":
        return operand is None or operand is MISSING
    expected = _TYPE_KIND_NAMES.get(kind)
    if expected is None:
        raise EvaluationError(f"unknown type name in IS: {kind}")
    if operand is MISSING or operand is None:
        return False
    actual = type_name(operand)
    if expected == "number":
        return actual in ("integer", "float")
    return actual == expected


# =========================================================================
# Navigation
# =========================================================================


def navigate_path(base: Any, attr: str, config: EvalConfig) -> Any:
    """Dot navigation ``base.attr`` (paper, Section IV-B case 1).

    * tuple → the attribute's value, or ``MISSING`` when absent (in both
      typing modes: an absent attribute is *data*, not a type error);
    * ``NULL`` → ``NULL``; ``MISSING`` → ``MISSING``;
    * any other type → a type error (→ MISSING in permissive mode).
    """
    if base is MISSING:
        return MISSING
    if base is None:
        return None
    if isinstance(base, Struct):
        return base.get(attr)
    return config.type_error(
        f"cannot navigate into {type_name(base)} with .{attr}"
    )


def navigate_index(base: Any, index: Any, config: EvalConfig) -> Any:
    """Bracket navigation ``base[index]``.

    Arrays take integer indexes (0-based; out of range → MISSING in
    permissive mode); tuples take string keys (same as dot navigation).
    """
    if base is MISSING or index is MISSING:
        return MISSING
    if base is None or index is None:
        return None
    if isinstance(base, list):
        if isinstance(index, bool) or not isinstance(index, int):
            return config.type_error(
                f"array index must be an integer, got {type_name(index)}"
            )
        if 0 <= index < len(base):
            return base[index]
        return config.type_error(f"array index {index} out of range")
    if isinstance(base, Struct):
        if not isinstance(index, str):
            return config.type_error(
                f"tuple index must be a string, got {type_name(index)}"
            )
        return base.get(index)
    return config.type_error(f"cannot index into {type_name(base)}")


def wildcard_elements(value: Any, kind: str, config: EvalConfig) -> list:
    """What one ``[*]`` (``kind`` ``elems``) or ``.*`` (``attrs``) path
    step ranges over: a collection's elements / a tuple's values, nothing
    for NULL or MISSING, and a type error for anything else."""
    if kind == "attrs":
        if isinstance(value, Struct):
            return value.values()
    elif isinstance(value, (list, Bag)):
        return list(value)
    if value is None or value is MISSING:
        return []
    checked = config.type_error(
        f"path wildcard expects a collection, got {type_name(value)}"
    )
    return [] if checked is MISSING else [checked]


def wildcard_path(base: Any, kind: str, steps: Any, config: EvalConfig) -> list:
    """``base[*].a.b`` — map the trailing steps over the elements and
    drop MISSING results (the data-exclusion signal); a further wildcard
    step flattens one level.  Each step is ``(wildcard kind, attribute,
    index thunk)`` with one of them set; an index is computed when its
    step is reached."""
    current = wildcard_elements(base, kind, config)
    for wildcard, attr, index_of in steps:
        if wildcard is not None:
            current = [
                element
                for item in current
                for element in wildcard_elements(item, wildcard, config)
            ]
        elif attr is not None:
            current = [navigate_path(item, attr, config) for item in current]
        else:
            index = index_of()
            current = [navigate_index(item, index, config) for item in current]
    return [item for item in current if item is not MISSING]


# =========================================================================
# Tuple construction
# =========================================================================


def attribute_name(key: Any, config: EvalConfig) -> Any:
    """A computed tuple-constructor attribute name: the string itself,
    or a type error for an absent or non-string one (permissive mode:
    MISSING, and the constructor omits the attribute)."""
    if key is MISSING or key is None:
        return config.type_error("tuple attribute name is absent")
    if not isinstance(key, str):
        return config.type_error(
            f"tuple attribute name must be a string, got {type_name(key)}"
        )
    return key


def tuple_merge(parts: Any, config: EvalConfig) -> Struct:
    """``$TUPLE_MERGE``: the tuple ``SELECT a.*, b.x`` projections
    build, merging tuple parts left to right.  NULL and MISSING parts
    contribute nothing; any other non-tuple is a type error."""
    pairs: list = []
    for value in parts:
        if isinstance(value, Struct):
            pairs += value.items()
        elif value is not MISSING and value is not None:
            config.type_error(
                f"SELECT item.* expects a tuple, got {type_name(value)}"
            )
    return Struct(pairs)


# =========================================================================
# DISTINCT
# =========================================================================


def iter_distinct(items: Any, key: Any = group_key, seen: Optional[set] = None) -> Any:
    """``items`` without duplicates under SQL++ deep equality, first
    occurrence kept, as a stream.  ``key`` maps an item to its identity
    (a caller holding an identity column passes positions and the
    column's ``__getitem__``); ``seen`` carries the identities met so
    far from one chunk of a stream to the next."""
    if seen is None:
        seen = set()
    for item in items:
        identity = key(item)
        if identity not in seen:
            seen.add(identity)
            yield item


def distinct_elements(items: Any) -> list:
    """Remove duplicates under SQL++ deep equality, keeping first occurrence."""
    return list(iter_distinct(items))


def bag_or_list_elements(value: Any, config: EvalConfig):
    """Coerce a value to an iterable of elements for set operations."""
    if isinstance(value, (list, Bag)):
        return list(value)
    return config.type_error(
        f"set operation expects collections, got {type_name(value)}"
    )


# =========================================================================
# The operator table
# =========================================================================

_NUMBERS = (int, float)
_STRINGS = (str,)
_BOOLEANS = (bool,)
_ORDERED = (_NUMBERS, _STRINGS)


class OperatorSpec(NamedTuple):
    """One operator symbol.  ``definition`` is its semantics, and all
    the reference interpreter calls.  ``fast`` is a Python expression
    over the operands ``a`` (and ``b``) that agrees with the definition
    whenever every operand's *exact* type lies in one class of
    ``types`` (``1 < 2.5``, ``'a' < 'b'``; not ``1 < 'a'``); exact types
    keep ``bool``, an ``int`` subclass, off the number path.  The engine
    compiles its row closures and chunk kernels from the two
    (:mod:`repro.core.compile_expr`); without ``fast`` the definition
    is the only path."""

    definition: Callable[..., Any]
    fast: Optional[str] = None
    types: Tuple[Tuple[type, ...], ...] = ()


_BINARY = {
    "AND": OperatorSpec(logical_and, "a and b", (_BOOLEANS,)),
    "OR": OperatorSpec(logical_or, "a or b", (_BOOLEANS,)),
    "=": OperatorSpec(equals, "a == b", _ORDERED),
    "!=": OperatorSpec(not_equals, "a != b", _ORDERED),
    "<": OperatorSpec(partial(compare, "<"), "a < b", _ORDERED),
    "<=": OperatorSpec(partial(compare, "<="), "a <= b", _ORDERED),
    ">": OperatorSpec(partial(compare, ">"), "a > b", _ORDERED),
    ">=": OperatorSpec(partial(compare, ">="), "a >= b", _ORDERED),
    "||": OperatorSpec(concat, "a + b", (_STRINGS,)),
    # Arithmetic has no string path: ``'a' + 'b'`` is a type error.
    "+": OperatorSpec(partial(arithmetic, "+"), "a + b", (_NUMBERS,)),
    "-": OperatorSpec(partial(arithmetic, "-"), "a - b", (_NUMBERS,)),
    "*": OperatorSpec(partial(arithmetic, "*"), "a * b", (_NUMBERS,)),
    # Division by zero and exact integer division: the definition only.
    "/": OperatorSpec(partial(arithmetic, "/")),
    "%": OperatorSpec(partial(arithmetic, "%")),
}
_UNARY = {
    "NOT": OperatorSpec(logical_not, "not a", (_BOOLEANS,)),
    "-": OperatorSpec(negate, "-a", (_NUMBERS,)),
    "+": OperatorSpec(unary_plus, "a", (_NUMBERS,)),
}

#: Every operator symbol :func:`binary_operator` / :func:`unary_operator`
#: serve (the parser normalises ``<>`` to ``!=``).
BINARY_SYMBOLS = tuple(_BINARY)
UNARY_SYMBOLS = tuple(_UNARY)


def binary_spec(op: str) -> OperatorSpec:
    """The table entry of a binary operator symbol (anything else is
    arithmetic, which rejects unknown ones)."""
    return _BINARY.get(op) or OperatorSpec(partial(arithmetic, op))


def unary_spec(op: str) -> OperatorSpec:
    """The table entry of a unary operator symbol (anything else raises
    when it is evaluated, as an unknown binary symbol does)."""
    return _UNARY.get(op) or OperatorSpec(partial(_unknown_unary, op))


def _unknown_unary(op: str, value: Any, config: EvalConfig) -> Any:
    raise EvaluationError(f"unknown unary operator {op!r}")


def binary_operator(op: str):
    """The ``(left, right, config)`` function of a binary operator
    symbol.  Both operands are always evaluated first, AND / OR
    included."""
    return binary_spec(op).definition


def unary_operator(op: str):
    """The ``(value, config)`` function of a unary operator symbol."""
    return unary_spec(op).definition
