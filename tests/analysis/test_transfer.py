"""The lattice's derived transfers, and each builtin's declared result.

``transfer`` and ``is_kind_categories`` run the real operators and
``IS`` over γ, the representative values of each category; the
properties here check the representative-value assumption on arbitrary
values, nested collections included, in both typing modes: the
category of every concrete result is in the derived set.  Every
builtin declares its result type where it is registered, and every
non-absent result it returns, over γ and over generated arguments,
satisfies that declaration.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import lattice
from repro.analysis.lattice import (
    CATEGORIES,
    category_of,
    is_kind_categories,
    transfer,
)
from repro.analysis.typeflow import infer_expression
from repro.config import EvalConfig
from repro.datamodel.values import MISSING, Bag, Struct
from repro.errors import SQLPPError
from repro.functions import operators as ops
from repro.functions.registry import REGISTRY
from repro.functions.scalar import CAST_TARGETS, cast_value

MODES = [EvalConfig(typing_mode="permissive"), EvalConfig(typing_mode="strict")]

scalars = st.one_of(
    st.none(),
    st.just(MISSING),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-10, 10, allow_nan=False),
    st.sampled_from(["", "a", "bee"]),
)

present = st.recursive(
    scalars.filter(lambda v: v is not MISSING),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(Bag),
        st.dictionaries(st.sampled_from("ab"), children, max_size=2).map(Struct),
    ),
    max_leaves=6,
)

values = st.one_of(st.just(MISSING), present)


@settings(max_examples=400, deadline=None)
@given(
    op=st.sampled_from(ops.BINARY_SYMBOLS),
    left=values,
    right=values,
    config=st.sampled_from(MODES),
)
def test_binary_transfer_contains_the_concrete_result(op, left, right, config):
    try:
        result = ops.binary_operator(op)(left, right, config)
    except SQLPPError:
        return  # no value produced
    derived = transfer(op, category_of(left), category_of(right))
    assert category_of(result) in derived, (op, left, right, config.typing_mode)


@settings(max_examples=200, deadline=None)
@given(
    op=st.sampled_from(ops.UNARY_SYMBOLS),
    value=values,
    config=st.sampled_from(MODES),
)
def test_unary_transfer_contains_the_concrete_result(op, value, config):
    try:
        result = ops.unary_operator(op)(value, config)
    except SQLPPError:
        return
    assert category_of(result) in transfer(op, category_of(value))


def test_concat_of_two_arrays_is_an_array():
    assert transfer("||", "array", "array") == {"array"}
    assert transfer("||", "string", "string") == {"string"}
    assert transfer("||", "array", "string") == {"missing"}


def test_derived_rules_are_tighter_than_absence_envelopes():
    assert transfer("<", "string", "null") == {"null"}
    assert transfer("AND", "number", "boolean") == {"boolean", "null"}
    assert transfer("/", "number", "number") == {"number", "missing"}
    assert transfer("NOT", "string") == {"null"}


def test_every_symbol_and_category_pair_has_a_result():
    for op in ops.BINARY_SYMBOLS:
        for left in CATEGORIES:
            for right in CATEGORIES:
                assert transfer(op, left, right) <= CATEGORIES
                assert transfer(op, left, right), (op, left, right)


#: γ: the lattice's representative values of every category.
GAMMA = [v for values in lattice._representatives().values() for v in values]


def _declared_result_holds(definition, args, config):
    """Whether ``definition``'s declared result admits what it returns
    for ``args`` (an error or an absent result admits anything)."""
    try:
        result = definition.invoke(list(args), config)
    except SQLPPError:
        return True
    if result is None or result is MISSING or definition.result is None:
        return True
    if definition.result == "ARGUMENT":
        return any(result is arg for arg in args)
    return ops.is_predicate(result, definition.result, config) is True


@pytest.mark.parametrize("name", REGISTRY.names())
def test_every_builtin_declares_its_abstract_result(name):
    definition = REGISTRY.lookup(name)
    declared = definition.result
    assert declared is None or declared == "ARGUMENT" or declared in ops.IS_KINDS
    most = definition.max_args
    if most is None:
        most = definition.min_args + 1
    for count in range(definition.min_args, min(most, 3) + 1):
        for args in product(GAMMA, repeat=count):
            for config in MODES:
                assert _declared_result_holds(definition, args, config), (name, args)


CANONICAL = sorted({REGISTRY.lookup(name).name for name in REGISTRY.names()})


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(CANONICAL), data=st.data(), config=st.sampled_from(MODES)
)
def test_builtin_results_satisfy_their_declared_kind(name, data, config):
    definition = REGISTRY.lookup(name)
    most = definition.max_args
    if most is None:
        most = definition.min_args + 2
    args = data.draw(st.lists(values, min_size=definition.min_args, max_size=most))
    assert _declared_result_holds(definition, args, config), (name, args)


def test_every_cast_target_declares_its_result():
    for (target, kind), value, config in product(CAST_TARGETS.items(), GAMMA, MODES):
        try:
            result = cast_value(value, target, config)
        except SQLPPError:
            continue
        if result is not None and result is not MISSING:
            assert ops.is_predicate(result, kind, config), (target, value)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(ops.IS_KINDS)), value=values)
def test_is_kind_map_contains_the_category_of_every_verdict(kind, value):
    for config in MODES:
        verdict = ops.is_predicate(value, kind, config)
        assert category_of(value) in is_kind_categories(kind, negated=not verdict)


@pytest.mark.parametrize(
    "source, described",
    [
        ("CAST(x AS NUMERIC)", lattice.TOP.describe()),
        ("CAST(x AS NUMBER)", lattice.TOP.describe()),
        ("CAST(x AS BIGINT)", "number|null|missing"),
        ("CAST(x AS TEXT)", "string|null|missing"),
        ("POWER(x, 2)", "number|null|missing"),
        ("IFNULL(x, 'a')", "number|string|null|missing"),
        ("GREATEST(x, 2)", lattice.TOP.describe()),
    ],
)
def test_calls_and_casts_read_the_declarations(source, described):
    inferred, diagnostics = infer_expression(source, {"x": lattice.NUMBER_T})
    assert inferred.describe() == described
    assert diagnostics == []

