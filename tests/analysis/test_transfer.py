"""The derived operator transfer, and the builtin result table.

``transfer`` runs the real operators over
representative values of each category; the property here checks the
representative-value assumption on arbitrary values, nested collections
included, in both typing modes: the category of every concrete result
is in the derived set.  The exhaustiveness test makes a new builtin
declare its abstract result before it can ship.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import typeflow
from repro.analysis.lattice import CATEGORIES, category_of
from repro.analysis.typeflow import transfer
from repro.config import EvalConfig
from repro.datamodel.values import MISSING, Bag, Struct
from repro.errors import SQLPPError
from repro.functions import operators as ops
from repro.functions.registry import REGISTRY

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


@pytest.mark.parametrize("name", REGISTRY.names())
def test_every_builtin_declares_its_abstract_result(name):
    canonical = REGISTRY.lookup(name).name
    homes = [
        canonical in typeflow._CALL_RESULTS,
        canonical in typeflow._COALESCE_FAMILY,
        canonical in typeflow._UNKNOWN_RESULTS,
    ]
    assert homes.count(True) == 1, (
        f"{name} ({canonical}) needs an abstract result: a _CALL_RESULTS "
        "entry, the COALESCE family, or _UNKNOWN_RESULTS"
    )
