"""Deep (structural) equality and hashable grouping keys for SQL++ values.

Two distinct notions of equality exist in SQL++ and both are provided by
the library:

* **Operator equality** (the ``=`` operator) follows SQL: comparing with
  ``NULL`` yields ``NULL``, comparing with ``MISSING`` yields ``MISSING``,
  and comparing values of incomparable types is a dynamic type error —
  ``MISSING`` in permissive mode, raised in strict mode (paper,
  Section IV-B rule 2).  That logic lives in
  :mod:`repro.functions.operators`.

* **Deep equality** (this module) is the structural equality used for bag
  (multiset) equality, ``GROUP BY`` key identity, ``DISTINCT`` and test
  assertions.  Here ``NULL = NULL`` and ``MISSING = MISSING`` hold, arrays
  compare element-wise in order, structs compare as multisets of pairs and
  bags compare as multisets of values — exactly the identity the paper
  relies on when printing expected query results.

Numbers compare by value across ``int``/``float`` (``1 = 1.0``) but
booleans are distinct from numbers, matching SQL's separate BOOLEAN type.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.datamodel.values import MISSING, Bag, Struct


def deep_equals(left: Any, right: Any) -> bool:
    """Structural SQL++ equality. See module docstring for the rules."""
    if left is MISSING or right is MISSING:
        return left is right
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, (int, float)):
        return isinstance(right, (int, float)) and left == right
    if isinstance(left, str):
        return isinstance(right, str) and left == right
    if isinstance(left, list):
        if not isinstance(right, list) or len(left) != len(right):
            return False
        return all(deep_equals(a, b) for a, b in zip(left, right))
    if isinstance(left, Bag):
        if not isinstance(right, Bag) or len(left) != len(right):
            return False
        return _multiset_equals(left.to_list(), right.to_list())
    if isinstance(left, Struct):
        if not isinstance(right, Struct) or len(left) != len(right):
            return False
        shape = left._shape
        if shape is right._shape and not shape.duplicates:
            # One shape of unique names: the pairs line up by position.
            return all(map(deep_equals, left._values, right._values))
        return _multiset_equals(
            [list(pair) for pair in left.items()],
            [list(pair) for pair in right.items()],
        )
    raise TypeError(f"not a SQL++ value: {left!r}")


def _multiset_equals(left_items: list, right_items: list) -> bool:
    """Multiset equality via canonical grouping keys (O(n) expected)."""
    counts: dict = {}
    for item in left_items:
        key = group_key(item)
        counts[key] = counts.get(key, 0) + 1
    for item in right_items:
        key = group_key(item)
        remaining = counts.get(key, 0)
        if remaining == 0:
            return False
        counts[key] = remaining - 1
    return True


def group_key(value: Any) -> Tuple:
    """A hashable canonical key such that two values get the same key iff
    they are :func:`deep_equals`-equal.

    Used for ``GROUP BY``, ``DISTINCT``, set operations and multiset
    equality.  The key is a nested tuple whose first element is a type tag,
    so keys of different types never collide and always compare (the tags
    are strings, giving a total order for canonicalising bags).
    """
    if value is MISSING:
        return ("0missing",)
    if value is None:
        return ("1null",)
    if isinstance(value, bool):
        return ("2bool", value)
    if isinstance(value, (int, float)):
        # Python guarantees hash(1) == hash(1.0) and exact ==-comparison
        # across int/float, so the raw number canonicalises itself.
        return ("3num", value)
    if isinstance(value, str):
        return ("4str", value)
    if isinstance(value, list):
        return ("5arr", tuple(group_key(item) for item in value))
    if isinstance(value, Bag):
        return ("6bag", tuple(sorted(group_key(item) for item in value)))
    if isinstance(value, Struct):
        return _struct_group_key(value)
    raise TypeError(f"not a SQL++ value: {value!r}")


def _struct_group_key(value: Struct) -> Tuple:
    # A function of its own: the comprehension's closure would otherwise
    # cost every scalar key a cell.
    order = value._shape.order
    if order is None:  # duplicate names: sort the pairs themselves
        pairs = sorted((name, group_key(item)) for name, item in value.items())
        return ("7tup", tuple(pairs))
    values = value._values
    return ("7tup", tuple([(name, group_key(values[at])) for name, at in order]))
