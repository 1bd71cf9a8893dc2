"""The abstract type lattice the type-flow pass computes over.

An :class:`AType` is a *set* of value categories an expression may
produce at runtime — ``number``, ``string``, ``boolean``, ``null``,
``missing``, ``array``, ``bag``, ``tuple`` — plus optional shape
refinements: an element type for collections and an attribute map for
tuples.  The lattice is the powerset of categories ordered by
inclusion; :func:`join` is the least upper bound.

The contract with the runtime (checked by a hypothesis property in
``tests/analysis``): for every expression, the category of the value
permissive-mode evaluation produces is **contained in** the inferred
``cats`` set.  Analyses therefore only draw conclusions that survive
over-approximation — "this is *always* MISSING" needs
``cats == {missing}``, "these can *never* compare" needs provable
disjointness — so imprecision can cause missed warnings, never false
ones.

NULL and MISSING are first-class categories (the paper's two flavors
of absence, Section IV): a closed-schema navigation that falls off the
tuple contributes ``missing``; a nullable schema field contributes
``null``.  With no schema, everything starts at :data:`TOP` (any
category at all) and the pass still runs — schema-optionality all the
way down.

The lattice is also the one abstract domain every analysis reads: it
owns the categories, α (:func:`category_of`), γ (the representative
values of each category) and the transfers derived by running the
engine over γ — :func:`transfer` for the operators of
:mod:`repro.functions.operators` and :func:`is_kind_categories` for
``IS <kind>``.  Both are memoised and computed on first use, never at
import.  A builtin declares its result as an ``IS`` kind where it is
registered (:class:`repro.functions.registry.FunctionDef`), and the
IS-kind map turns that kind into categories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.config import EvalConfig
from repro.datamodel.values import MISSING
from repro.errors import SQLPPError
from repro.functions import operators as ops

NUMBER = "number"
STRING = "string"
BOOLEAN = "boolean"
NULL = "null"
MISSING_CAT = "missing"
ARRAY = "array"
BAG = "bag"
TUPLE = "tuple"

#: Every category in the lattice.
CATEGORIES: FrozenSet[str] = frozenset(
    {NUMBER, STRING, BOOLEAN, NULL, MISSING_CAT, ARRAY, BAG, TUPLE}
)

#: Collection categories (iterable by FROM, aggregable by COLL_*).
COLLECTION_CATEGORIES: FrozenSet[str] = frozenset({ARRAY, BAG})

#: The two absence categories.
ABSENT_CATEGORIES: FrozenSet[str] = frozenset({NULL, MISSING_CAT})


@dataclass(frozen=True)
class AType:
    """An abstract type: possible categories plus optional shape.

    ``element`` refines ``array``/``bag`` members (``None`` = unknown);
    ``attrs`` refines ``tuple`` attributes (``None`` = unknown shape).
    ``open`` only matters for tuples: an open tuple may carry
    attributes beyond ``attrs``.  Shape fields are advisory — the
    soundness contract is on ``cats`` alone.
    """

    cats: FrozenSet[str]
    element: Optional["AType"] = None
    attrs: Optional[Tuple[Tuple[str, "AType"], ...]] = None
    open: bool = True

    def may(self, *categories: str) -> bool:
        """True when any of ``categories`` is possible."""
        return any(cat in self.cats for cat in categories)

    def only(self, *categories: str) -> bool:
        """True when every possible category is among ``categories``."""
        return self.cats <= frozenset(categories)

    def is_always_missing(self) -> bool:
        return self.cats == frozenset({MISSING_CAT})

    def is_always_absent(self) -> bool:
        """Always NULL or MISSING — never an actual value."""
        return bool(self.cats) and self.cats <= ABSENT_CATEGORIES

    def attr_map(self) -> Dict[str, "AType"]:
        return dict(self.attrs) if self.attrs is not None else {}

    def describe(self) -> str:
        """Human-readable form, e.g. ``number|null``."""
        if not self.cats:
            return "never"
        order = [NUMBER, STRING, BOOLEAN, ARRAY, BAG, TUPLE, NULL, MISSING_CAT]
        return "|".join(cat for cat in order if cat in self.cats)


#: Anything at all (the lattice top).
TOP = AType(cats=CATEGORIES)

#: No possible value (the lattice bottom; an unreachable expression).
BOTTOM = AType(cats=frozenset())

NUMBER_T = AType(cats=frozenset({NUMBER}))
STRING_T = AType(cats=frozenset({STRING}))
BOOLEAN_T = AType(cats=frozenset({BOOLEAN}))
NULL_T = AType(cats=frozenset({NULL}))
MISSING_T = AType(cats=frozenset({MISSING_CAT}))


def scalar(*categories: str) -> AType:
    """An :class:`AType` over exactly the given categories."""
    return AType(cats=frozenset(categories))


def array_of(element: Optional[AType]) -> AType:
    return AType(cats=frozenset({ARRAY}), element=element)


def bag_of(element: Optional[AType]) -> AType:
    return AType(cats=frozenset({BAG}), element=element)


def tuple_of(
    attrs: Optional[Iterable[Tuple[str, AType]]], open: bool = True
) -> AType:
    return AType(
        cats=frozenset({TUPLE}),
        attrs=tuple(attrs) if attrs is not None else None,
        open=open,
    )


def widen(base: AType, *categories: str) -> AType:
    """``base`` with extra possible categories (shape preserved)."""
    extra = frozenset(categories)
    if extra <= base.cats:
        return base
    return AType(
        cats=base.cats | extra,
        element=base.element,
        attrs=base.attrs,
        open=base.open,
    )


def narrow(base: AType, *categories: str) -> AType:
    """``base`` without the given categories (shape preserved)."""
    removed = frozenset(categories)
    if not (removed & base.cats):
        return base
    return AType(
        cats=base.cats - removed,
        element=base.element,
        attrs=base.attrs,
        open=base.open,
    )


def _join_element(left: AType, right: AType) -> Optional[AType]:
    """Merged element refinement for a join (None = unknown)."""
    left_coll = bool(left.cats & COLLECTION_CATEGORIES)
    right_coll = bool(right.cats & COLLECTION_CATEGORIES)
    if left_coll and right_coll:
        if left.element is None or right.element is None:
            return None
        return join(left.element, right.element)
    if left_coll:
        return left.element
    if right_coll:
        return right.element
    return None


def _join_attrs(
    left: AType, right: AType
) -> Tuple[Optional[Tuple[Tuple[str, AType], ...]], bool]:
    """Merged attribute refinement for a join: ``(attrs, open)``."""
    left_tuple = TUPLE in left.cats
    right_tuple = TUPLE in right.cats
    if left_tuple and right_tuple:
        if left.attrs is None or right.attrs is None:
            return None, True
        left_map = left.attr_map()
        right_map = right.attr_map()
        merged: Dict[str, AType] = {}
        for name in {**left_map, **right_map}:
            in_left = name in left_map
            in_right = name in right_map
            if in_left and in_right:
                merged[name] = join(left_map[name], right_map[name])
            else:
                # The attribute exists on only one alternative:
                # navigating it may fall off the other and yield
                # MISSING.
                present = left_map[name] if in_left else right_map[name]
                merged[name] = widen(present, MISSING_CAT)
        return tuple(sorted(merged.items())), left.open or right.open
    if left_tuple:
        return left.attrs, left.open
    if right_tuple:
        return right.attrs, right.open
    return None, True


def join(left: AType, right: AType) -> AType:
    """Least upper bound: either side's value is possible."""
    if left is right:
        return left
    if not left.cats:
        return right
    if not right.cats:
        return left
    attrs, open_ = _join_attrs(left, right)
    return AType(
        cats=left.cats | right.cats,
        element=_join_element(left, right),
        attrs=attrs,
        open=open_,
    )


def join_all(types: Iterable[AType]) -> AType:
    """Join of a sequence (BOTTOM when empty)."""
    result = BOTTOM
    for item in types:
        result = join(result, item)
    return result


def element_of(collection: AType) -> AType:
    """The abstract element type when iterating ``collection``.

    Used for FROM ranging and COLL_* aggregation: refinement when the
    element type is known, :data:`TOP` otherwise.
    """
    if collection.cats & COLLECTION_CATEGORIES:
        return collection.element if collection.element is not None else TOP
    return TOP


def infer_literal(value: object) -> AType:
    """The abstract type of a Python literal from the parser."""
    if value is MISSING:
        return MISSING_T
    if value is None:
        return NULL_T
    if isinstance(value, bool):
        return BOOLEAN_T
    if isinstance(value, (int, float)):
        return NUMBER_T
    if isinstance(value, str):
        return STRING_T
    return TOP


def category_of(value: object) -> str:
    """The lattice category of a runtime value (for the soundness
    property test and schema-free seeding from sample data)."""
    from repro.datamodel.values import Bag, Struct

    if value is MISSING:
        return MISSING_CAT
    if value is None:
        return NULL
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, (int, float)):
        return NUMBER
    if isinstance(value, str):
        return STRING
    if isinstance(value, Struct):
        return TUPLE
    if isinstance(value, Bag):
        return BAG
    if isinstance(value, list):
        return ARRAY
    if isinstance(value, dict):
        return TUPLE
    return TUPLE


# ----------------------------------------------------------------------
# γ, and the transfers derived by running the engine over it
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _representatives() -> Dict[str, Tuple[object, ...]]:
    """γ: representative values of each category.  The derived
    transfers are exact on the assumption the engine satisfies: a
    result's category depends only on its operands' categories, except
    where a listed value covers the exception (zero as a divisor,
    ``2.5`` for ``IS INTEGER``)."""
    from repro.datamodel.values import Bag, Struct

    return {
        NUMBER: (0, 1, -1, 2.5),
        STRING: ("", "a"),
        BOOLEAN: (True, False),
        NULL: (None,),
        MISSING_CAT: (MISSING,),
        ARRAY: ([], [1]),
        BAG: (Bag(), Bag([1])),
        TUPLE: (Struct(), Struct({"a": 1})),
    }


_PERMISSIVE = EvalConfig()


@lru_cache(maxsize=None)
def transfer(op: str, *categories: str) -> FrozenSet[str]:
    """The categories operator ``op`` produces under permissive typing
    for one operand of each given category — unary with one category,
    binary with two.  Strict typing produces the same values or raises."""
    apply = ops.unary_operator(op) if len(categories) == 1 else ops.binary_operator(op)
    reps = _representatives()
    results: Set[str] = set()
    for operands in product(*(reps[category] for category in categories)):
        try:
            results.add(category_of(apply(*operands, _PERMISSIVE)))
        except SQLPPError:
            pass  # raises in both modes: contributes no value
    return frozenset(results)


@lru_cache(maxsize=None)
def is_kind_categories(kind: str, negated: bool = False) -> FrozenSet[str]:
    """The categories a value may inhabit when ``value IS <kind>`` (``IS
    NOT <kind>`` when ``negated``) is TRUE, for a kind in
    :data:`repro.functions.operators.IS_KINDS`.  ``IS`` never raises
    and answers alike in both typing modes."""
    return frozenset(
        category
        for category, values in _representatives().items()
        if any(
            ops.is_predicate(value, kind, _PERMISSIVE) is not negated
            for value in values
        )
    )


def soften(abstract: AType) -> AType:
    """Open every tuple shape in an :class:`AType`.

    Used when seeding the lattice from *sampled data* rather than a
    declared schema: a sample proves which attributes exist today, not
    that others never will, so closed-shape conclusions (always-MISSING
    navigation) must not follow from it.
    """
    element = soften(abstract.element) if abstract.element is not None else None
    attrs = (
        tuple((name, soften(attr)) for name, attr in abstract.attrs)
        if abstract.attrs is not None
        else None
    )
    return AType(cats=abstract.cats, element=element, attrs=attrs, open=True)


def from_schema(schema: object) -> AType:
    """Seed an :class:`AType` from a :mod:`repro.schema` type.

    Optional struct fields gain the ``missing`` category (navigation
    may fall off); nullable fields gain ``null``.  ``AnyType`` maps to
    every *value* category — a stored value is never itself MISSING.
    """
    from repro.schema import types as schema_types

    if isinstance(schema, schema_types.AnyType):
        return AType(cats=CATEGORIES - frozenset({MISSING_CAT}))
    if isinstance(schema, schema_types.BooleanType):
        return BOOLEAN_T
    if isinstance(schema, (schema_types.IntegerType, schema_types.FloatType)):
        return NUMBER_T
    if isinstance(schema, schema_types.StringType):
        return STRING_T
    if isinstance(schema, schema_types.NullType):
        return NULL_T
    if isinstance(schema, schema_types.ArrayType):
        return array_of(from_schema(schema.element))
    if isinstance(schema, schema_types.BagType):
        return bag_of(from_schema(schema.element))
    if isinstance(schema, schema_types.StructType):
        attrs = []
        for field in schema.fields:
            field_type = from_schema(field.type)
            if field.nullable:
                field_type = widen(field_type, NULL)
            if field.optional:
                field_type = widen(field_type, MISSING_CAT)
            attrs.append((field.name, field_type))
        return tuple_of(sorted(attrs), open=schema.open)
    if isinstance(schema, schema_types.UnionType):
        return join_all(from_schema(alt) for alt in schema.alternatives)
    return TOP
