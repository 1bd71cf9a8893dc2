"""Property tests for ordering totality and aggregate absence-skipping.

Paper-level guarantees that must hold for *any* value, not just the
listings' data:

* ``ordering.sort_key`` imposes a total order on the entire data model —
  heterogeneous values, NaN included — because ORDER BY must never crash
  on whatever mix of types a schemaless collection holds (paper,
  Section III: one data model, no flat-tables assumption), and the
  ORDER BY key parts every evaluator sorts on are exactly that order;
* every ``COLL_*`` aggregate skips NULL and MISSING *identically* in
  permissive and strict typing modes: absent values are the data-
  exclusion signal, not a type error, so stop-on-error mode must not
  stop on them (paper, Section IV-B).
"""

import math

from hypothesis import given, settings, strategies as st

from repro import Database
from repro.core.clauses import order_parts
from repro.datamodel.equality import deep_equals
from repro.datamodel.ordering import sort_key
from repro.datamodel.values import MISSING, Bag, Struct
from repro.syntax import ast

# -- heterogeneous model values, NaN and infinities included -----------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(Bag),
        st.dictionaries(st.text(max_size=4), children, max_size=3).map(
            lambda d: Struct(d)
        ),
    ),
    max_leaves=12,
)


@given(values, values)
@settings(max_examples=200, deadline=None)
def test_sort_key_is_total(left, right):
    """Any two values are comparable: trichotomy, no exceptions."""
    key_left, key_right = sort_key(left), sort_key(right)
    verdicts = [key_left < key_right, key_left == key_right, key_right < key_left]
    assert sum(verdicts) == 1


@given(values)
@settings(max_examples=200, deadline=None)
def test_sort_key_is_reflexive(value):
    """Every value equals itself under the sort key — including NaN,
    which is ``!=`` itself under IEEE comparison."""
    assert sort_key(value) == sort_key(value)


@given(st.lists(values, max_size=12))
@settings(max_examples=100, deadline=None)
def test_sorting_heterogeneous_lists_is_deterministic(items):
    """sorted() by sort_key never raises and is idempotent."""
    once = sorted(items, key=sort_key)
    twice = sorted(once, key=sort_key)
    assert [sort_key(x) for x in once] == [sort_key(x) for x in twice]


def test_nan_has_a_stable_position():
    nan, items = float("nan"), [2.0, float("nan"), 1, float("-inf")]
    assert sort_key(nan) == sort_key(float("nan"))
    ordered = sorted(items, key=sort_key)
    # NaN sorts below every (other) number, deterministically.
    assert math.isnan(ordered[0])
    assert ordered[1:] == [float("-inf"), 1, 2.0]


# -- COLL_* absence-skipping parity across typing modes ----------------------

PERMISSIVE_DB = Database()
STRICT_DB = Database(typing_mode="strict")

number_tokens = st.lists(
    st.one_of(
        st.sampled_from(["NULL", "MISSING"]),
        st.integers(-50, 50).map(str),
    ),
    max_size=10,
)

boolean_tokens = st.lists(
    st.sampled_from(["NULL", "MISSING", "TRUE", "FALSE"]),
    max_size=10,
)

NUMERIC_AGGREGATES = [
    "COLL_SUM",
    "COLL_AVG",
    "COLL_COUNT",
    "COLL_COUNT_DISTINCT",
    "COLL_MIN",
    "COLL_MAX",
    "COLL_STDDEV",
    "COLL_VARIANCE",
    "COLL_ARRAY_AGG",
]


def _run_both(query):
    permissive = PERMISSIVE_DB.execute(query)
    strict = STRICT_DB.execute(query)
    return permissive, strict


@given(number_tokens)
@settings(max_examples=100, deadline=None)
def test_numeric_aggregates_skip_absence_identically(tokens):
    """For inputs of numbers and absences, every COLL_* aggregate gives
    the same answer in both typing modes, and that answer equals the
    aggregate over the input with the absent elements removed."""
    literal = "[" + ", ".join(tokens) + "]"
    cleaned = "[" + ", ".join(
        t for t in tokens if t not in ("NULL", "MISSING")
    ) + "]"
    for aggregate in NUMERIC_AGGREGATES:
        with_absence, strict_result = _run_both(f"{aggregate}({literal})")
        assert deep_equals(with_absence, strict_result), aggregate
        without_absence = PERMISSIVE_DB.execute(f"{aggregate}({cleaned})")
        assert deep_equals(with_absence, without_absence), aggregate


@given(boolean_tokens)
@settings(max_examples=100, deadline=None)
def test_boolean_aggregates_skip_absence_identically(tokens):
    literal = "[" + ", ".join(tokens) + "]"
    cleaned = "[" + ", ".join(
        t for t in tokens if t not in ("NULL", "MISSING")
    ) + "]"
    for aggregate in ("COLL_EVERY", "COLL_SOME"):
        with_absence, strict_result = _run_both(f"{aggregate}({literal})")
        assert deep_equals(with_absence, strict_result), aggregate
        without_absence = PERMISSIVE_DB.execute(f"{aggregate}({cleaned})")
        assert deep_equals(with_absence, without_absence), aggregate


# -- ORDER BY key parts are the absence rank and the sort key ----------------

order_values = st.one_of(
    values,
    st.just(MISSING),
    st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, True, False, 1, 1.0]
    ),
)


@given(
    st.lists(order_values, max_size=8),
    st.booleans(),
    st.sampled_from([None, True, False]),
)
@settings(max_examples=100, deadline=None)
def test_order_parts_are_the_absence_rank_and_the_sort_key(column, desc, nulls_first):
    """``clauses.order_parts`` inlines ``sort_key``'s common cases.  The
    oracle sorts through it too, so no engine ≡ oracle comparison can
    see a slip there: each part is the row's absence rank followed by
    exactly its ``sort_key``, in both directions and NULLS orders."""
    item = ast.OrderItem(expr=ast.Literal(value=None), desc=desc, nulls_first=nulls_first)
    first = not desc if nulls_first is None else nulls_first
    # The sort runs reversed under DESC: an absent value leads the
    # output when its rank is below the present one's, or above it.
    absent = int(first == desc)
    parts = order_parts(column, item)
    assert len(parts) == len(column)
    for value, part in zip(column, parts):
        rank = absent if value is None or value is MISSING else 1 - absent
        assert part == (rank,) + sort_key(value)
        assert type(part[-1]) is type(sort_key(value)[-1])
