"""Unit tests for the value types (paper, Section II)."""

import gc
import json
import pickle
from collections.abc import Mapping

import pytest

from repro import Database
from repro.datamodel import values
from repro.datamodel.values import (
    MISSING,
    Bag,
    Missing,
    Struct,
    is_absent,
    is_collection,
    is_scalar,
    shape_of,
    type_name,
)


class TestMissing:
    def test_singleton(self):
        assert Missing() is MISSING
        assert Missing() is Missing()

    def test_falsy(self):
        assert not MISSING

    def test_repr(self):
        assert repr(MISSING) == "MISSING"

    def test_pickle_preserves_singleton(self):
        assert pickle.loads(pickle.dumps(MISSING)) is MISSING

    def test_distinct_from_none(self):
        assert MISSING is not None
        assert (MISSING == None) is False  # noqa: E711 - identity semantics


class TestStruct:
    def test_from_dict(self):
        struct = Struct({"a": 1, "b": 2})
        assert struct["a"] == 1
        assert struct.keys() == ["a", "b"]

    def test_from_pairs_allows_duplicates(self):
        struct = Struct([("a", 1), ("a", 2)])
        assert len(struct) == 2
        assert struct.get_all("a") == [1, 2]

    def test_get_returns_first_binding(self):
        struct = Struct([("a", 1), ("a", 2)])
        assert struct.get("a") == 1

    def test_get_absent_is_missing(self):
        assert Struct().get("nope") is MISSING

    def test_getitem_absent_raises(self):
        with pytest.raises(KeyError):
            Struct()["nope"]

    def test_contains(self):
        struct = Struct({"a": 1})
        assert "a" in struct
        assert "b" not in struct

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError):
            Struct([("a", MISSING)])

    def test_non_string_name_rejected(self):
        with pytest.raises(TypeError):
            Struct([(1, "x")])

    def test_with_attr_appends(self):
        struct = Struct({"a": 1}).with_attr("b", 2)
        assert struct.items() == [("a", 1), ("b", 2)]

    def test_with_attr_missing_is_noop(self):
        base = Struct({"a": 1})
        assert base.with_attr("b", MISSING) is base

    def test_merged_keeps_duplicates(self):
        merged = Struct({"a": 1}).merged(Struct({"a": 2}))
        assert merged.get_all("a") == [1, 2]

    def test_null_values_allowed(self):
        struct = Struct({"title": None})
        assert struct["title"] is None
        assert "title" in struct

    def test_equality_is_order_insensitive(self):
        assert Struct([("a", 1), ("b", 2)]) == Struct([("b", 2), ("a", 1)])

    def test_inequality_on_values(self):
        assert Struct({"a": 1}) != Struct({"a": 2})

    def test_to_dict_last_duplicate_wins(self):
        assert Struct([("a", 1), ("a", 2)]).to_dict() == {"a": 2}

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Struct())

    def test_public_constructor_validates_every_input_shape(self):
        # The trusted constructor exists *because* this one checks each
        # pair; pin that the checks hold for dicts, other mappings,
        # lists and plain iterables alike.
        class Custom(Mapping):
            def __init__(self, data):
                self._data = data

            def __getitem__(self, key):
                return self._data[key]

            def __iter__(self):
                return iter(self._data)

            def __len__(self):
                return len(self._data)

        assert Struct(Custom({"a": 1})).items() == [("a", 1)]
        assert Struct(iter([("a", 1)])).items() == [("a", 1)]
        for bad_name in ({1: "x"}, Custom({1: "x"}), [(1, "x")], iter([(1, "x")])):
            with pytest.raises(TypeError):
                Struct(bad_name)
        for bad_value in ({"a": MISSING}, Custom({"a": MISSING}), [("a", MISSING)]):
            with pytest.raises(ValueError):
                Struct(bad_value)

    def test_trusted_constructor_adopts_pairs_unchecked(self):
        shape = shape_of(("a", "b"))
        struct = Struct._trusted(shape, (1, None))
        assert type(struct._values) is tuple
        assert struct == Struct([("a", 1), ("b", None)])
        assert struct.items() == [("a", 1), ("b", None)]
        # Equal name tuples, however built, share one interned shape.
        assert Struct({"a": 2, "b": 3})._shape is shape
        assert Struct([("a", 1)]).with_attr("b", 2)._shape is shape
        assert shape_of(tuple(["a", "b"])) is shape

    def test_shape_records_duplicate_names(self):
        unique = Struct([("a", 1), ("b", 2)])
        repeated = Struct([("a", 1), ("a", 2)])
        assert not unique._shape.duplicates
        assert repeated._shape.duplicates
        assert repeated._shape.index == {"a": 0}  # the first position
        assert repeated.get("a") == 1 and repeated.get_all("a") == [1, 2]
        assert unique.with_attr("a", 3)._shape.duplicates
        assert unique.merged(unique)._shape.duplicates
        assert not unique.merged(Struct({"c": 3}))._shape.duplicates
        assert type(repeated) is Struct and type_name(repeated) == "tuple"
        clone = pickle.loads(pickle.dumps(repeated))
        assert clone._shape is repeated._shape and clone == repeated


class TestShape:
    def test_intern_table_forgets_shapes_of_dropped_data(self):
        # PIVOT and computed attribute names make name tuples out of
        # data; the table of shapes must not keep them once the tuples
        # that use them are gone.
        db = Database()
        db.set("kv", [{"k": f"key{i}", "v": i % 10} for i in range(20_000)])
        gc.collect()
        before = len(values._SHAPES)
        pivoted = db.execute("PIVOT x.v AT x.k FROM kv AS x")
        singletons = db.execute("SELECT VALUE {x.k: x.v} FROM kv AS x")
        assert len(pivoted) == len(singletons) == 20_000
        assert len(values._SHAPES) > before + 20_000
        del pivoted, singletons
        db.close()
        del db
        gc.collect()
        assert len(values._SHAPES) <= before

    def test_flat_rows_leave_one_tracked_object_each(self):
        # A flat row is a struct over an all-atom values tuple, which the
        # collector untracks at its first pass; only the struct remains.
        rows = json.loads(
            json.dumps([{"id": i, "name": f"n{i}", "x": i / 2} for i in range(500)])
        )
        db = Database()
        db.set("t", rows)
        gc.collect()
        stored = list(db.get("t"))
        assert len(stored) == 500
        assert not any(gc.is_tracked(row._values) for row in stored)
        db.close()


class TestBag:
    def test_len_and_iter(self):
        bag = Bag([1, 2, 2])
        assert len(bag) == 3
        assert list(bag) == [1, 2, 2]

    def test_add(self):
        bag = Bag()
        bag.add(5)
        assert bag.to_list() == [5]

    def test_multiset_equality_ignores_order(self):
        assert Bag([1, 2, 3]) == Bag([3, 1, 2])

    def test_multiplicity_matters(self):
        assert Bag([1, 1, 2]) != Bag([1, 2, 2])

    def test_not_equal_to_list(self):
        assert (Bag([1]) == [1]) is False

    def test_repr(self):
        assert repr(Bag([1])) == "<<1>>"


class TestClassifiers:
    @pytest.mark.parametrize("value", [True, 0, 1.5, "s"])
    def test_is_scalar(self, value):
        assert is_scalar(value)

    @pytest.mark.parametrize("value", [None, MISSING, [], Bag(), Struct()])
    def test_not_scalar(self, value):
        assert not is_scalar(value)

    def test_is_collection(self):
        assert is_collection([])
        assert is_collection(Bag())
        assert not is_collection(Struct())
        assert not is_collection("string")

    def test_is_absent(self):
        assert is_absent(None)
        assert is_absent(MISSING)
        assert not is_absent(0)

    @pytest.mark.parametrize(
        "value, name",
        [
            (MISSING, "missing"),
            (None, "null"),
            (True, "boolean"),
            (3, "integer"),
            (3.5, "float"),
            ("x", "string"),
            ([], "array"),
            (Bag(), "bag"),
            (Struct(), "tuple"),
        ],
    )
    def test_type_name(self, value, name):
        assert type_name(value) == name

    def test_type_name_rejects_foreign(self):
        with pytest.raises(TypeError):
            type_name(object())
