"""Value types of the SQL++ data model.

The paper (Section II) relaxes the SQL data model: a value can be absent,
scalar, tuple, collection, or any composition thereof.  Two kinds of absent
values exist: ``NULL`` (a present but unknown value — Python ``None``) and
``MISSING`` (the result of navigation that binds to nothing, or of a
function applied to wrongly-typed input in permissive mode).

Collections are arrays (ordered — plain Python lists) and bags (unordered
multisets — :class:`Bag`).  Tuples (:class:`Struct`) are unordered and may
carry duplicate attribute names for compatibility with non-strict formats
such as JSON or Ion, although duplicate names are discouraged (navigation
returns the first binding).
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from itertools import compress, count, repeat
from operator import is_
from typing import Any, Iterable, Iterator, List, Tuple, Union


class Missing:
    """The type of the special value :data:`MISSING`.

    ``MISSING`` is a singleton: ``Missing()`` always returns the same
    object, so identity checks (``value is MISSING``) are reliable.  It is
    falsy, propagates through expressions (see :mod:`repro.functions`), and
    may not appear as an attribute value in constructed tuples (the
    attribute is omitted instead — paper, Section IV-B).
    """

    _instance: "Missing" = None  # type: ignore[assignment]

    def __new__(cls) -> "Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        # Keep the singleton property across pickling.
        return (Missing, ())


MISSING = Missing()

#: The Python types accepted as SQL++ scalars.
SCALAR_TYPES = (bool, int, float, str)

Value = Union[None, Missing, bool, int, float, str, list, "Bag", "Struct"]


class Shape:
    """The attribute names of a :class:`Struct`, shared by every struct
    with the same name sequence.

    ``names`` is the name tuple, in insertion order; ``index`` maps each
    name to its *first* position (navigation's first-match rule);
    ``duplicates`` says whether a name repeats.  A shape with unique
    names also keeps ``order``, its ``(name, position)`` pairs sorted by
    name, the canonical attribute order of grouping and sort keys.

    Shapes are interned: build them with :func:`shape_of`, never
    directly, so that equal name tuples share one object (and structs of
    one shape can be compared position by position).
    """

    __slots__ = ("names", "index", "duplicates", "order", "__weakref__")

    def __init__(self, names: Tuple[str, ...]):
        self.names = names
        index: dict = {}
        for position, name in enumerate(names):
            index.setdefault(name, position)
        self.index = index
        self.duplicates = len(index) != len(names)
        self.order = None if self.duplicates else tuple(sorted(index.items()))

    def __reduce__(self):
        # Re-intern on unpickling: an unpickled struct shares the live shapes.
        return (shape_of, (self.names,))

    def __repr__(self) -> str:
        return f"Shape{self.names!r}"


#: Every live shape by its name tuple.  Weak-valued, so the name tuples
#: of data that is gone (PIVOT output, one-off JSON objects) do not pile
#: up: a shape lives exactly as long as some struct holds it.
_SHAPES: "weakref.WeakValueDictionary[Tuple[str, ...], Shape]" = (
    weakref.WeakValueDictionary()
)


def shape_of(names: Tuple[str, ...]) -> Shape:
    """The interned :class:`Shape` of the name tuple ``names``."""
    shape = _SHAPES.get(names)
    if shape is None:
        shape = _SHAPES[names] = Shape(names)
    return shape


class Struct:
    """A SQL++ tuple: an unordered multiset of attribute name/value pairs.

    Unlike a Python ``dict``, a :class:`Struct` may contain duplicate
    attribute names (paper, Section II).  Insertion order is preserved for
    deterministic iteration and printing, but **equality ignores order**:
    two structs are equal when their name/value pair multisets are equal.

    Navigation with :meth:`get` (and the evaluator's dot/bracket paths)
    returns the *first* value bound to a name, or :data:`MISSING` when the
    name is absent — the paper notes duplicate names make navigation
    non-reproducible, which this first-match rule makes deterministic for
    a given insertion order.

    Attributes whose value is ``MISSING`` are rejected at construction
    time: MISSING may not appear as an attribute's value (Section IV-B).
    Construct structs through the evaluator (which silently omits MISSING
    attributes) or filter before constructing.

    Physically a struct is its interned :class:`Shape` (the names, stored
    once for every struct that has them) and a tuple of values, one per
    name.  Navigation is a lookup in the shape's first-position index,
    duplicate names or not.
    """

    __slots__ = ("_shape", "_values")

    def __init__(
        self,
        pairs: Union[Mapping[str, Any], Iterable[Tuple[str, Any]], None] = None,
    ):
        names: List[str] = []
        values: List[Any] = []
        if pairs is not None:
            if isinstance(pairs, dict) or (
                # The ABC check is slow; a list of pairs (every reader's
                # tuple) must not pay for it.
                not isinstance(pairs, list) and isinstance(pairs, Mapping)
            ):
                pairs = pairs.items()
            for name, value in pairs:
                if not isinstance(name, str):
                    raise TypeError(
                        f"struct attribute names must be strings, got {name!r}"
                    )
                if value is MISSING:
                    raise ValueError(
                        f"MISSING may not appear as the value of attribute "
                        f"{name!r}; omit the attribute instead"
                    )
                names.append(name)
                values.append(value)
        self._shape = shape_of(tuple(names))
        self._values = tuple(values)

    @classmethod
    def _trusted(cls, shape: Shape, values: Tuple[Any, ...]) -> "Struct":
        """Internal constructor: adopt ``shape`` and the ``values`` tuple
        (one value per name of ``shape``) without validation.

        For callers that guarantee by construction what ``__init__``
        checks — string names, no MISSING values — such as the compiled
        tuple constructors, whose keys are literal strings and which drop
        MISSING attributes themselves.
        """
        struct = _new_struct(cls)
        struct._shape = shape
        struct._values = values
        return struct

    def __reduce__(self):
        return (Struct._trusted, (self._shape, self._values))

    # -- mapping-style access ------------------------------------------------

    def get(self, name: str, default: Any = MISSING) -> Any:
        """Return the first value bound to ``name``, or ``default``."""
        position = self._shape.index.get(name)
        return default if position is None else self._values[position]

    def get_all(self, name: str) -> List[Any]:
        """Return every value bound to ``name`` (duplicates included)."""
        shape = self._shape
        if not shape.duplicates:
            position = shape.index.get(name)
            return [] if position is None else [self._values[position]]
        return [value for key, value in zip(shape.names, self._values) if key == name]

    def __getitem__(self, name: str) -> Any:
        value = self.get(name)
        if value is MISSING:
            raise KeyError(name)
        return value

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._shape.index

    def keys(self) -> List[str]:
        """Attribute names, in insertion order (duplicates included)."""
        return list(self._shape.names)

    def values(self) -> List[Any]:
        return list(self._values)

    def items(self) -> List[Tuple[str, Any]]:
        return list(zip(self._shape.names, self._values))

    def __iter__(self) -> Iterator[str]:
        return iter(self._shape.names)

    def __len__(self) -> int:
        return len(self._values)

    # -- construction helpers ------------------------------------------------

    def with_attr(self, name: str, value: Any) -> "Struct":
        """Return a copy with ``name``/``value`` appended.

        Appending ``MISSING`` returns the struct unchanged, implementing
        the omit-on-MISSING rule for result construction.
        """
        if value is MISSING:
            return self
        if not isinstance(name, str):
            raise TypeError(f"struct attribute names must be strings, got {name!r}")
        return Struct._trusted(
            shape_of(self._shape.names + (name,)), self._values + (value,)
        )

    def merged(self, other: "Struct") -> "Struct":
        """Return the concatenation of this struct's pairs and ``other``'s."""
        return Struct._trusted(
            shape_of(self._shape.names + other._shape.names),
            self._values + other._values,
        )

    def to_dict(self) -> dict:
        """Convert to a ``dict`` (later duplicates win, matching JSON)."""
        return dict(zip(self._shape.names, self._values))

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Struct):
            return NotImplemented
        from repro.datamodel.equality import deep_equals

        return deep_equals(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # type: ignore[assignment]  # mutable-style container

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name!r}: {value!r}"
            for name, value in zip(self._shape.names, self._values)
        )
        return "{" + inner + "}"


_new_struct = object.__new__


class Bag:
    """A SQL++ bag: an unordered multiset of arbitrary values.

    Printed as ``{{ ... }}`` in the paper's literal notation.  Iteration
    follows insertion order (useful for deterministic tests and printing)
    but equality is multiset equality under SQL++ deep equality — two bags
    with the same elements in different orders are equal.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Any] = ()):
        self._items = list(items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: Any) -> None:
        """Append an element to the bag (multisets allow duplicates)."""
        self._items.append(item)

    def to_list(self) -> List[Any]:
        """The bag's elements as a list, in insertion order."""
        return list(self._items)

    def extended(self, items: List[Any]) -> "Bag":
        """A new bag of this bag's elements followed by ``items``.  The
        element objects are shared, not copied (one pointer-level list
        concatenation), and this bag is left as it was."""
        combined = Bag.__new__(Bag)
        combined._items = self._items + items
        return combined

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        from repro.datamodel.equality import deep_equals

        return deep_equals(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inner = ", ".join(repr(item) for item in self._items)
        return "<<" + inner + ">>"


class LazyBag(Bag):
    """A bag whose elements come from a re-iterable factory.

    ``factory`` returns a *fresh* iterator of model values on every
    call; nothing is materialized up front, and each traversal streams
    elements one at a time.  This is what lets the pipelined evaluator
    run ``ORDER BY ... LIMIT k`` or early-terminating consumers in O(k)
    memory over arbitrarily large generated collections (the eager
    paths still work — they simply materialize while iterating).

    Like any bag the element order carries no meaning, so the factory
    is free to produce elements in any (even varying) order; counting
    via ``len`` traverses the factory once without retaining elements.
    """

    __slots__ = ("_factory",)

    def __init__(self, factory):
        self._factory = factory

    def __iter__(self) -> Iterator[Any]:
        return iter(self._factory())

    def __len__(self) -> int:
        return sum(1 for __ in self._factory())

    def add(self, item: Any) -> None:
        raise TypeError("a lazy bag is read-only; materialize it first")

    def extended(self, items: List[Any]) -> "Bag":
        raise TypeError("a lazy bag is read-only; materialize it first")

    def to_list(self) -> List[Any]:
        return list(self._factory())

    def __repr__(self) -> str:
        return f"<<lazy {self._factory!r}>>"


# -- classification helpers ----------------------------------------------


def is_scalar(value: Any) -> bool:
    """True for the SQL scalar types (bool, int, float, str)."""
    return isinstance(value, SCALAR_TYPES)


def is_collection(value: Any) -> bool:
    """True for arrays (lists) and bags."""
    return isinstance(value, (list, Bag))


def positions_of(values: List[Any], marker: Any) -> List[int]:
    """The positions of ``marker`` (MISSING, a sentinel) in ``values``,
    found by identity: ``marker in values`` would call ``__eq__`` on every
    tuple- or bag-valued one.  The common miss is one ``any`` pass."""
    if not any(map(is_, values, repeat(marker))):
        return []
    return list(compress(count(), map(is_, values, repeat(marker))))


def is_absent(value: Any) -> bool:
    """True for ``NULL`` (None) and ``MISSING``."""
    return value is None or value is MISSING


def type_name(value: Any) -> str:
    """The SQL++ type name of a value, for error messages and ``typeof``."""
    if value is MISSING:
        return "missing"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, Bag):
        return "bag"
    if isinstance(value, Struct):
        return "tuple"
    raise TypeError(f"not a SQL++ value: {value!r} ({type(value).__name__})")
