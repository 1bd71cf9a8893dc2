"""Property tests: every aggregate's fold is its Core definition.

Each ``COLL_*`` aggregate is one state machine
(:mod:`repro.functions.aggregates`); the batch GROUP BY folds it over
chunks at dense group ids, running window aggregates step it one peer
group at a time, and the registered ``COLL_X`` is its one-group fold.
These properties pin that the three agree with the definition over the
whole collection, on values mixing NULL / MISSING / booleans / ints /
floats / strings / tuples, in both typing modes:

* COUNT, SUM, AVG, MIN, MAX, EVERY and SOME equal the list-at-a-time
  definitions they replaced, kept here as the reference;
* ``fold_chunk`` + ``finalize_groups`` equals
  ``definition.invoke([Bag(values)])`` per group (DISTINCT sites over
  the deduplicated values), at chunk sizes 1, 3 and ``CHUNK_ROWS``; in
  strict mode, where the definition raises for some group the fold
  raises the same error class;
* end to end, a grouped query returns the same bag in the executor's
  columns mode, its rows mode and on ``optimize=False`` (or raises the
  same error class);
* a running window aggregate equals the prefix definition re-invoked
  per peer group;
* ``AVG(x)`` is ``SUM(x) / COUNT(x)`` bit for bit — one running total.
"""

from __future__ import annotations

import functools
import operator
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.config import EvalConfig
from repro.core import vectorized, windows
from repro.core.chunk import Chunk
from repro.core.environment import Environment
from repro.core.evaluator import Evaluator
from repro.core.plan_ops import CHUNK_ROWS
from repro.datamodel.convert import from_python
from repro.datamodel.equality import deep_equals, group_key
from repro.datamodel.values import MISSING, Bag, type_name
from repro.errors import SQLPPError
from repro.functions.aggregates import ValueList
from repro.functions.operators import compare, distinct_elements
from repro.functions.registry import REGISTRY, FunctionDef
from repro.syntax import ast
from repro.syntax.parser import parse_expression
from tests.rows_mode import ROWS, run

MODES = ("permissive", "strict")

#: Every Core aggregate; the SQL-named ones also run end to end.
CORE_AGGREGATES = (
    "COLL_COUNT",
    "COLL_SUM",
    "COLL_AVG",
    "COLL_MIN",
    "COLL_MAX",
    "COLL_EVERY",
    "COLL_SOME",
    "COLL_ARRAY_AGG",
    "COLL_STDDEV",
    "COLL_VARIANCE",
    "COLL_COUNT_DISTINCT",
)
SQL_AGGREGATES = (
    "COUNT", "SUM", "AVG", "MIN", "MAX", "EVERY", "SOME", "ARRAY_AGG",
    "STDDEV", "VARIANCE",
)

#: Element values: absences, every scalar type, a tuple, a huge int
#: (its float sum overflows) and non-dyadic floats.
elements = st.one_of(
    st.just(None),
    st.just(MISSING),
    st.booleans(),
    st.integers(-20, 20),
    st.sampled_from([0.1, 0.2, 0.3, -1.5, 1e16, 10**400]),
    st.sampled_from(["a", "b", ""]),
    st.just({"x": 1}),
)
# Homogeneous inputs get through the slow paths to a value, so draw
# them as often as mixed ones.
columns = st.one_of(
    st.lists(elements, max_size=24),
    st.lists(st.integers(-5, 5) | st.just(None), max_size=24),
    st.lists(st.booleans() | st.just(MISSING), max_size=24),
    st.lists(st.sampled_from([0.1, 0.7, 2.5, None]), max_size=24),
)
keys = st.lists(st.sampled_from([0, 1, "a", None, True]), min_size=24, max_size=24)


def identical(left, right) -> bool:
    """Deep-equal *and* of one Python type (``1`` is not ``1.0``)."""
    return type(left) is type(right) and deep_equals(left, right)


def outcome(fn):
    """``fn()``'s value, or the class of the SQL++ error it raised."""
    try:
        return ("value", fn())
    except SQLPPError as error:
        return ("raised", type(error).__name__)


def same_outcome(left, right) -> bool:
    if left[0] != right[0]:
        return False
    if left[0] == "raised":
        return left[1] == right[1]
    return deep_equals(left[1], right[1])


def model(values):
    """Drawn values as model values (MISSING stays itself)."""
    return [value if value is MISSING else from_python(value) for value in values]


def decomposition(names, distinct, keys=("t.k",)):
    """A GROUP BY decomposition over ``keys`` with one site per
    aggregate, every site over ``t.v``."""
    specs = [
        vectorized.AggSpec(
            f"$fold{index}", REGISTRY.lookup(name), distinct, parse_expression("t.v")
        )
        for index, name in enumerate(names)
    ]
    clause = ast.GroupByClause(
        keys=[ast.GroupKey(parse_expression(key), "k") for key in keys]
    )
    return vectorized.Decomposition(
        clause=clause,
        specs=specs,
        select=ast.SelectValue(parse_expression("k")),
        calls=[],
        having_expr=None,
        order_by=[],
    )


def rows_of(key_column, value_column):
    rows = []
    for key, value in zip(key_column, value_column):
        row = {"k": key}
        if value is not MISSING:
            row["v"] = value
        rows.append({"t": from_python(row)})
    return rows


def fold(decomp, rows, chunk_size, config):
    evaluator = Evaluator({}, config)
    key_fns, value_fns = vectorized.build_fold_fns(evaluator, decomp, ("t",))
    sets = vectorized.GroupState.sets(decomp.clause, decomp.machines)
    env = Environment()
    for start in range(0, len(rows), chunk_size):
        chunk = Chunk.from_rows(rows[start : start + chunk_size])
        columns = vectorized.fold_columns(chunk, env, key_fns, value_fns, ("t",))
        vectorized.fold_chunk(len(chunk), *columns, decomp.machines, sets, config)
    return vectorized.finalize_groups(decomp.clause, decomp.specs, sets, config).rows()


def by_group(key_column, value_column):
    """Row-order value lists per group, groups in first-seen order."""
    groups = {}
    for key, value in zip(key_column, value_column):
        groups.setdefault(group_key(key), []).append(value)
    return list(groups.values())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("grouped", [True, False], ids=["keyed", "keyless"])
@pytest.mark.parametrize("chunk_size", [1, 3, CHUNK_ROWS])
@given(values=columns, key_column=keys)
@settings(max_examples=40, deadline=None)
def test_fold_equals_the_definition_per_group(
    mode, distinct, grouped, chunk_size, values, key_column
):
    config = EvalConfig(typing_mode=mode)
    if grouped:
        key_column = key_column[: len(values)]
        groups = by_group(key_column, model(values))
    else:
        # No keys: one group, even over no rows.
        key_column, groups = [0] * len(values), [model(values)]
    rows = rows_of(key_column, values)
    for name in CORE_AGGREGATES:
        definition = REGISTRY.lookup(name)
        decomp = decomposition([name], distinct, ("t.k",) if grouped else ())
        expected = []
        for group_values in groups:
            if distinct:
                group_values = distinct_elements(group_values)
            expected.append(
                outcome(lambda: definition.invoke([Bag(group_values)], config))
            )
        got = outcome(lambda: fold(decomp, rows, chunk_size, config))
        raised = {kind for status, kind in expected if status == "raised"}
        if raised:
            # The fold meets the rows in a different order than the
            # per-group definitions, so *which* group's error surfaces
            # may differ; its class may not.
            assert got[0] == "raised" and got[1] in raised, (name, got, expected)
            continue
        assert got[0] == "value", (name, got)
        assert len(got[1]) == len(groups), name
        for row, (__, want) in zip(got[1], expected):
            assert identical(row["$fold0"], want), (name, row["$fold0"], want)


# -- the machines against the list-at-a-time definitions they replaced ------


def _list_definition(name):
    """``name``'s definition as a loop over the whole list of elements —
    the form the machines replaced (AVG with SUM's ``+=`` total rather
    than ``sum()``) — kept as the semantic reference."""

    def numbers(items, config):
        kept = []
        for item in items:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                if config.is_permissive:
                    continue
                raise TypeError(f"{name} expects numbers, got {type_name(item)}")
            kept.append(item)
        return kept

    def fn(args, config):
        if args[0] is None or args[0] is MISSING:
            return None
        items = [item for item in args[0] if item is not None and item is not MISSING]
        if name == "COLL_COUNT":
            return len(items)
        if name in ("COLL_SUM", "COLL_AVG"):
            kept = numbers(items, config)
            if not kept:
                return None
            total = 0
            for item in kept:
                total += item
            return total if name == "COLL_SUM" else total / len(kept)
        if name in ("COLL_MIN", "COLL_MAX"):
            if not items:
                return None
            op, best = "<" if name == "COLL_MIN" else ">", items[0]
            for item in items[1:]:
                verdict = compare(op, item, best, config)
                if verdict is MISSING:
                    return MISSING
                if verdict is True:
                    best = item
            return best
        decisive = name == "COLL_SOME"
        for item in items:
            if not isinstance(item, bool):
                raise TypeError(f"{name} expects booleans, got {type_name(item)}")
            if item is decisive:
                return decisive
        return not decisive

    return FunctionDef(name, fn, 1, 1, propagate_absent=False, is_aggregate=True)


MACHINE_AGGREGATES = CORE_AGGREGATES[:7]


@pytest.mark.parametrize("mode", MODES)
@given(values=columns)
@settings(max_examples=150, deadline=None)
def test_machines_equal_the_list_definitions(mode, values):
    config = EvalConfig(typing_mode=mode)
    bag = Bag(model(values))
    for name in MACHINE_AGGREGATES:
        got = outcome(lambda: REGISTRY.lookup(name).invoke([bag], config))
        want = outcome(lambda: _list_definition(name).invoke([bag], config))
        assert got[0] == want[0], (name, got, want)
        if got[0] == "raised":
            assert got[1] == want[1], name
        else:
            assert identical(got[1], want[1]), (name, got, want)


# -- end to end: columns mode ≡ rows mode ≡ optimize=False -------------------


@pytest.mark.parametrize("mode", MODES)
@given(values=columns, key_column=keys, distinct=st.booleans())
@settings(max_examples=40, deadline=None)
def test_grouped_aggregates_agree_on_every_executor(
    mode, values, key_column, distinct
):
    db = Database(typing_mode=mode)
    db.set(
        "t",
        [
            {"k": key} if value is MISSING else {"k": key, "v": value}
            for key, value in zip(key_column, values)
        ],
    )
    modifier = "DISTINCT " if distinct else ""
    for name in SQL_AGGREGATES:
        query = f"SELECT k, {name}({modifier}t.v) AS a FROM t AS t GROUP BY t.k AS k"
        batch = outcome(lambda: db.execute(query))
        for dials in (ROWS, {"optimize": False}):
            other = outcome(lambda: run(db.execute, query, **dials))
            assert same_outcome(batch, other), (query, dials, batch, other)


# -- running window aggregates ------------------------------------------------

#: ORDER BY keys: few distinct values, so peer groups have ties.
window_keys = st.lists(
    st.integers(0, 3) | st.just(None) | st.just(MISSING), min_size=24, max_size=24
)
WINDOW_AGGREGATES = (
    "SUM", "AVG", "COUNT", "MIN", "MAX", "EVERY", "SOME", "ARRAY_AGG", "STDDEV",
)


@pytest.mark.parametrize("mode", MODES)
@given(values=columns, partition=keys, order=window_keys)
@settings(max_examples=60, deadline=None)
def test_running_window_aggregate_equals_the_prefix_definition(
    mode, values, partition, order
):
    # The running state, read after each peer group, must be what the
    # definition computes over the whole prefix (what a value-list
    # machine reads, forced here for every aggregate).
    config = EvalConfig(typing_mode=mode)
    size = len(values)
    key_columns = ([partition[:size]], [order[:size]], [model(values)])

    def window_values():
        return windows.compute_window_values(call, size, *key_columns, config)

    for name in WINDOW_AGGREGATES:
        call = parse_expression(f"{name}(v) OVER (PARTITION BY p ORDER BY o)")
        running = outcome(window_values)
        with mock.patch.object(windows, "machine_for", ValueList):
            prefix = outcome(window_values)
        assert running[0] == prefix[0], (name, running, prefix)
        if running[0] == "raised":
            assert running[1] == prefix[1], name
            continue
        for got, want in zip(running[1], prefix[1]):
            assert identical(got, want), (name, got, want)


# -- AVG is SUM / COUNT, bit for bit -----------------------------------------


#: Non-dyadic floats whose compensated sum (``sum()`` from Python 3.12
#: on) differs from the left-to-right one.
FLOATS = [0.1] * 10 + [0.7, 1e16, 1.0, -1e16, 0.3]


@pytest.mark.parametrize(
    "dials",
    [{}, ROWS, {"optimize": False}],
    ids=["batch", "stream", "oracle"],
)
def test_avg_is_sum_over_count_bitwise(dials):
    db = Database()
    db.set("t", [{"g": i % 2, "x": x} for i, x in enumerate(FLOATS)])
    naive = functools.reduce(operator.add, FLOATS, 0)
    (whole,) = run(
        db.execute,
        "SELECT AVG(t.x) AS a, SUM(t.x) AS s, COUNT(t.x) AS n FROM t AS t",
        **dials,
    )
    assert whole["s"] == naive  # one left-to-right running total
    assert whole["a"] == whole["s"] / whole["n"]
    grouped = run(
        db.execute,
        "SELECT g, AVG(t.x) AS a, SUM(t.x) AS s, COUNT(t.x) AS n "
        "FROM t AS t GROUP BY t.g AS g",
        **dials,
    )
    for row in grouped:
        assert row["a"] == row["s"] / row["n"]
    core = run(db.execute, f"COLL_AVG({FLOATS!r})", **dials)
    assert core == run(db.execute, f"COLL_SUM({FLOATS!r})", **dials) / len(FLOATS)
