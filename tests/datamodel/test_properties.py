"""Property-based tests for the data model (hypothesis).

Strategies build arbitrary SQL++ values; the properties are the laws the
engine relies on everywhere: equality is an equivalence compatible with
``group_key``; bags are permutation-invariant; the total order is, in
fact, total; Python round-trips are stable; and the struct layout (an
interned shape plus a values tuple) behaves as a plain list of pairs.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.datamodel.convert import from_python, to_python
from repro.datamodel.equality import deep_equals, group_key
from repro.datamodel.ordering import sort_key
from repro.core.compile_expr import _literal_struct
from repro.datamodel.values import MISSING, Bag, Struct, shape_of

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)


def values(depth=3):
    if depth == 0:
        return scalars
    inner = values(depth - 1)
    return st.one_of(
        scalars,
        st.lists(inner, max_size=4),
        st.builds(Bag, st.lists(inner, max_size=4)),
        st.builds(
            Struct,
            st.lists(
                st.tuples(st.text(max_size=6), inner), max_size=4
            ),
        ),
    )


VALUES = values()


@given(VALUES)
def test_equality_reflexive(value):
    assert deep_equals(value, value)


@given(VALUES, VALUES)
def test_equality_symmetric(left, right):
    assert deep_equals(left, right) == deep_equals(right, left)


@given(VALUES, VALUES)
def test_group_key_characterises_equality(left, right):
    assert (group_key(left) == group_key(right)) == deep_equals(left, right)


@given(st.lists(VALUES, max_size=6), st.randoms(use_true_random=False))
def test_bag_equality_permutation_invariant(items, rng):
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert deep_equals(Bag(items), Bag(shuffled))


@given(VALUES, VALUES, VALUES)
@settings(max_examples=60)
def test_sort_key_total_and_transitive(a, b, c):
    keys = sorted([sort_key(a), sort_key(b), sort_key(c)])
    assert keys[0] <= keys[1] <= keys[2]


@given(VALUES)
def test_sort_key_consistent_with_equality(value):
    # Equal values must sort identically (same key).
    assert sort_key(value) == sort_key(value)


@given(VALUES)
def test_from_python_idempotent(value):
    once = from_python(value)
    twice = from_python(once)
    assert deep_equals(once, twice)


json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**31), max_value=2**31),
        st.text(max_size=10),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


@given(json_like)
def test_python_round_trip(data):
    assert to_python(from_python(data)) == data


@given(st.lists(VALUES, max_size=8))
def test_multiset_difference_of_self_is_empty(items):
    """The counting logic behind EXCEPT ALL must cancel exactly."""
    counts = {}
    for item in items:
        key = group_key(item)
        counts[key] = counts.get(key, 0) + 1
    for item in random.Random(0).sample(items, len(items)):
        counts[group_key(item)] -= 1
    assert all(count == 0 for count in counts.values())


# -- the struct layout against a list-of-pairs model --------------------------
#
# A struct is stored as an interned shape (its names) plus a values
# tuple; a plain list of pairs is the model it must be indistinguishable
# from.  Names are drawn from a small alphabet so repeats are common.

names = st.sampled_from(["a", "b", "c", "ab", ""])
pair_lists = st.lists(st.tuples(names, values(depth=1)), max_size=6)


def model_get(pairs, name):
    return next((value for key, value in pairs if key == name), MISSING)


def model_equal(left, right):
    def canonical(pairs):
        return sorted((key, group_key(value)) for key, value in pairs)

    return canonical(left) == canonical(right)


@given(pair_lists, names)
def test_struct_accessors_match_pair_model(pairs, name):
    struct = Struct(pairs)
    assert struct.items() == pairs
    assert struct.keys() == [key for key, __ in pairs]
    assert struct.values() == [value for __, value in pairs]
    assert len(struct) == len(pairs)
    assert struct.get(name) is model_get(pairs, name)
    assert struct.get_all(name) == [value for key, value in pairs if key == name]
    assert (name in struct) == any(key == name for key, __ in pairs)
    assert struct._shape.duplicates == (len({key for key, __ in pairs}) < len(pairs))


@given(pair_lists, pair_lists, st.randoms(use_true_random=False))
def test_struct_equality_and_keys_match_pair_model(left, right, rng):
    shuffled = list(left)
    rng.shuffle(shuffled)
    for other in (right, shuffled):
        expected = model_equal(left, other)
        assert deep_equals(Struct(left), Struct(other)) == expected
        assert (group_key(Struct(left)) == group_key(Struct(other))) == expected
        assert (sort_key(Struct(left)) == sort_key(Struct(other))) == expected
    assert group_key(Struct(left)) == (
        "7tup", tuple(sorted((key, group_key(value)) for key, value in left))
    )
    assert sort_key(Struct(left)) == (
        6, tuple(sorted((key, sort_key(value)) for key, value in left))
    )


@given(st.lists(names, max_size=5), st.data())
def test_same_shape_structs_compare_like_the_model(layout, data):
    # One shared shape: the positional fast path of equality.
    row = st.lists(scalars, min_size=len(layout), max_size=len(layout))
    left = list(zip(layout, data.draw(row)))
    right = list(zip(layout, data.draw(row)))
    assert Struct(left)._shape is Struct(right)._shape
    assert deep_equals(Struct(left), Struct(right)) == model_equal(left, right)


@given(st.lists(st.tuples(names, st.one_of(scalars, st.just(MISSING))), max_size=6))
def test_missing_omitting_construction(fields):
    # The literal-keyed constructors (and ``with_attr``) drop MISSING
    # attributes and take the interned shape of the names left.
    present = [(key, value) for key, value in fields if value is not MISSING]
    shape = shape_of(tuple(key for key, __ in fields))
    built = _literal_struct(shape, tuple(value for __, value in fields))
    assert built.items() == present
    assert built._shape is shape_of(tuple(key for key, __ in present))
    grown = Struct()
    for key, value in fields:
        grown = grown.with_attr(key, value)
    assert grown.items() == present and grown._shape is built._shape


@given(st.lists(st.lists(st.tuples(names, scalars), max_size=4), max_size=8))
def test_heterogeneous_rows_share_shapes_by_name_sequence(rows):
    structs = [Struct(pairs) for pairs in rows]
    for left, left_pairs in zip(structs, rows):
        for right, right_pairs in zip(structs, rows):
            same_names = [k for k, __ in left_pairs] == [k for k, __ in right_pairs]
            assert (left._shape is right._shape) == same_names
