"""Python ↔ model conversion."""

from collections import OrderedDict
from typing import Any, Mapping

import pytest

from repro.datamodel.convert import from_python, to_python
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import MISSING, SCALAR_TYPES, Bag, Struct


def isinstance_chain(value: Any) -> Any:
    """``from_python`` as an ``isinstance`` chain only, with no exact-type
    dispatch: what the converter must keep agreeing with."""
    if value is None or value is MISSING or isinstance(value, SCALAR_TYPES):
        return value
    if isinstance(value, Struct):
        return Struct([(name, isinstance_chain(item)) for name, item in value.items()])
    if isinstance(value, Bag):
        return Bag(isinstance_chain(item) for item in value)
    if isinstance(value, Mapping):
        pairs = [(str(name), isinstance_chain(item)) for name, item in value.items()]
        return Struct(pairs)
    if isinstance(value, (list, tuple)):
        return [isinstance_chain(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return Bag(isinstance_chain(item) for item in value)
    raise TypeError(
        f"cannot represent {type(value).__name__} value {value!r} in the "
        "SQL++ data model"
    )


class Key(str):
    pass


class Row(dict):
    pass


class Items(list):
    pass


CORPUS = [
    {"a": {"b": [1, 2.5, {"c": None}]}, "d": []},
    [[1, [2, [3]]], {"x": "y"}, (4, 5), {6}],
    (1, (2, {"t": (3,)})),
    frozenset({1, 2}),
    OrderedDict([("z", 1), ("a", [OrderedDict(k=2)])]),
    {1: "one", 2.5: "two", None: "none", True: "yes", Key("k"): {Key("j"): 1}},
    Row(a=Row(b=Items([1, Row(c=2)]))),
    Struct([("a", {"b": [1]}), ("a", Bag([{"c": (2,)}]))]),
    Bag([{"a": 1}, [1, {2}], Bag([None])]),
    [MISSING, {"a": MISSING}],
    {"": {}, "nested": [[], [[]], {}]},
]


class TestFromPython:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert from_python(value) is value

    def test_dict_becomes_struct(self):
        value = from_python({"a": {"b": 1}})
        assert isinstance(value, Struct)
        assert isinstance(value["a"], Struct)

    def test_list_becomes_array(self):
        assert from_python([1, [2]]) == [1, [2]]

    def test_tuple_becomes_array(self):
        assert from_python((1, 2)) == [1, 2]

    def test_set_becomes_bag(self):
        value = from_python({1})
        assert isinstance(value, Bag)
        assert value.to_list() == [1]

    def test_model_values_pass_through(self):
        bag = Bag([Struct({"a": 1})])
        converted = from_python(bag)
        assert converted == bag

    def test_nested_python_inside_model_is_converted(self):
        bag = Bag([{"a": [1]}])
        converted = from_python(bag)
        assert isinstance(converted.to_list()[0], Struct)

    def test_non_string_dict_keys_coerced(self):
        value = from_python({1: "x"})
        assert value.keys() == ["1"]

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            from_python(object())


    @pytest.mark.parametrize("value", CORPUS)
    def test_exact_type_dispatch_builds_what_the_isinstance_chain_builds(
        self, value
    ):
        try:
            expected = isinstance_chain(value)
        except Exception as error:  # a MISSING attribute: Struct refuses it
            with pytest.raises(type(error)) as got:
                from_python(value)
            assert str(got.value) == str(error)
            return
        converted = from_python(value)
        assert type(converted) is type(expected)
        assert deep_equals(converted, expected)
        assert repr(converted) == repr(expected)

    @pytest.mark.parametrize("value", [object(), [1, {"a": 1j}], {"k": {3, object}}])
    def test_unrepresentable_message_is_unchanged(self, value):
        with pytest.raises(TypeError) as expected:
            isinstance_chain(value)
        with pytest.raises(TypeError) as got:
            from_python(value)
        assert str(got.value) == str(expected.value)


class TestToPython:
    def test_struct_becomes_dict(self):
        assert to_python(Struct({"a": 1})) == {"a": 1}

    def test_bag_becomes_list(self):
        assert to_python(Bag([1, 2])) == [1, 2]

    def test_missing_becomes_none_by_default(self):
        assert to_python(MISSING) is None

    def test_missing_rejected_when_strict(self):
        with pytest.raises(ValueError):
            to_python(MISSING, missing_as_none=False)

    def test_missing_collection_elements_dropped(self):
        assert to_python(Bag([1, MISSING, 2])) == [1, 2]
        assert to_python([1, MISSING]) == [1]

    def test_round_trip(self):
        data = {"emps": [{"name": "Bob", "projects": ["a", "b"], "title": None}]}
        assert to_python(from_python(data)) == data
