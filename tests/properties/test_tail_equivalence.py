"""Property test: the blocking tails agree on every evaluator.

ORDER BY, top-K, DISTINCT, window functions and PIVOT are functions of
key columns (``repro.core.tails``); the evaluators differ only in how
they produce a column — chunk kernels on the batch executor, one closure
call per row in rows mode, the tree-walker under
``optimize=False``.  Over generated rows whose keys mix NULL, MISSING,
booleans, ints, floats (``1`` and ``1.0``: one key), strings and nested
values with heavy ties, all three must return the same answer in both typing modes: position by
position when the query is ordered — ties keep input order, so a top-K
is a prefix of the full sort — and as a bag otherwise.

The queries evaluate nothing a bounded consumer could skip (the
projections are plain paths), so under strict typing an error is raised
by every evaluator or by none.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag
from repro.errors import SQLPPError
from tests.rows_mode import ROWS, run

#: Few distinct values per kind, so ties, duplicates and peers are the
#: rule; an attribute left out of a row is MISSING.
KEYS = st.sampled_from(
    [None, True, 0, 1, 1.0, 2, 2.5, "a", "b", [1], [1, 2], {"z": 1}, {"z": None}]
)
ROW_LISTS = st.lists(
    st.fixed_dictionaries(
        {"j": st.integers(0, 3), "s": st.sampled_from(["p", "q", "r"])},
        optional={"a": KEYS, "b": KEYS, "c": st.sampled_from([None, 1, 1.0, "x"])},
    ),
    min_size=8,
    max_size=24,
)
ORDER_ITEMS = st.lists(
    st.tuples(
        st.sampled_from(["t.a", "t.b", "t.c", "t.j"]),
        st.sampled_from(["", " ASC", " DESC"]),
        st.sampled_from(["", " NULLS FIRST", " NULLS LAST"]),
    ),
    min_size=1,
    max_size=3,
)
#: 0, inside the input, and past its end.
CARDINALS = st.sampled_from([None, 0, 1, 3, 7, 50])

ENGINE_DIALS = ({}, ROWS)


def order_by(items) -> str:
    return "ORDER BY " + ", ".join("".join(item) for item in items)


def bounds(limit, offset) -> str:
    text = f" LIMIT {limit}" if limit is not None else ""
    return text + (f" OFFSET {offset}" if offset is not None else "")


def database(rows) -> Database:
    db = Database()
    db.set("t", [dict(row, id=index) for index, row in enumerate(rows)])
    return db


def outcome(db: Database, query: str, **dials):
    try:
        return run(db.execute, query, **dials)
    except SQLPPError as error:
        return type(error)


def assert_all_agree(db: Database, query: str, ordered: bool) -> None:
    for typing_mode in ("permissive", "strict"):
        oracle = outcome(db, query, optimize=False, typing_mode=typing_mode)
        for dials in ENGINE_DIALS:
            engine = outcome(db, query, typing_mode=typing_mode, **dials)
            context = (query, typing_mode, dials, engine, oracle)
            if isinstance(oracle, type) or isinstance(engine, type):
                assert engine is oracle, context
            elif ordered:
                assert isinstance(engine, list), context
                assert deep_equals(engine, oracle), context
            elif isinstance(oracle, Bag):
                assert deep_equals(Bag(list(engine)), oracle), context
            else:
                assert deep_equals(engine, oracle), context


@pytest.fixture(autouse=True)
def verified(monkeypatch):
    """Every plan a sample builds goes through the structural
    verifier."""
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")


@given(ROW_LISTS, ORDER_ITEMS, CARDINALS, CARDINALS)
@settings(max_examples=40, deadline=None)
def test_sort_and_top_k(rows, items, limit, offset):
    db = database(rows)
    tail = order_by(items) + bounds(limit, offset)
    # No key can see an alias: keys over the binding rows, SELECT last.
    assert_all_agree(db, f"SELECT t.id AS id, t.a AS x FROM t AS t {tail}", True)
    # A scalar SELECT VALUE is never deferred: keys over the output rows.
    assert_all_agree(db, f"SELECT VALUE t.id FROM t AS t {tail}", True)
    # After a filter that keeps ties and absent keys.
    assert_all_agree(
        db, f"SELECT t.id AS id FROM t AS t WHERE t.j >= 1 {tail}", True
    )


@given(ROW_LISTS, st.sampled_from(["", " DESC"]), CARDINALS)
@settings(max_examples=25, deadline=None)
def test_select_alias_shadowing_a_binding_variable(rows, direction, limit):
    db = database(rows)
    tail = bounds(limit, None)
    # ``t`` is the output attribute where ``t.a`` is present and falls
    # through to the binding tuple where it is MISSING.
    assert_all_agree(
        db,
        f"SELECT t.a AS t, t.id AS id FROM t AS t ORDER BY t{direction}, id{tail}",
        True,
    )
    # ``b`` names an attribute of the output, not the row's ``t.b`` —
    # and where the output lacks it, the named value ``b`` outside.
    db.set("b", 1)
    assert_all_agree(
        db,
        f"SELECT t.a AS b, t.id AS id FROM t AS t "
        f"ORDER BY b{direction} NULLS LAST, t.b, t.id{tail}",
        True,
    )
    # An alias no key mentions shadows nothing.
    assert_all_agree(
        db,
        f"SELECT t.a AS x, t.id AS id FROM t AS t ORDER BY t.b{direction}, t.id{tail}",
        True,
    )


@given(ROW_LISTS, ORDER_ITEMS)
@settings(max_examples=25, deadline=None)
def test_distinct(rows, items):
    db = database(rows)
    # A MISSING field is an omitted attribute and its own identity;
    # ``1`` and ``1.0`` are one key.
    assert_all_agree(db, "SELECT DISTINCT t.a AS a, t.c AS c FROM t AS t", False)
    assert_all_agree(db, "SELECT DISTINCT VALUE t.a FROM t AS t", False)
    assert_all_agree(
        db,
        "SELECT DISTINCT t.a AS a, t.c AS c FROM t AS t ORDER BY a DESC, c LIMIT 5",
        True,
    )
    # Not a tuple literal with literal names: identity of the value.
    assert_all_agree(
        db, "SELECT DISTINCT VALUE [t.a, t.c] FROM t AS t " + order_by(items), True
    )


@given(ROW_LISTS, st.sampled_from(["", " DESC"]), CARDINALS, CARDINALS)
@settings(max_examples=25, deadline=None)
def test_group_by_then_order_by_an_aggregate_alias(rows, direction, limit, offset):
    db = database(rows)
    assert_all_agree(
        db,
        "SELECT t.c AS c, COUNT(*) AS n, SUM(t.j) AS total FROM t AS t "
        f"GROUP BY t.c ORDER BY n{direction}, total, c" + bounds(limit, offset),
        True,
    )
    # The key is the aggregate itself, and a group variable beside it.
    assert_all_agree(
        db,
        "SELECT c AS c, MAX(t.j) AS top FROM t AS t GROUP BY t.c AS c "
        f"ORDER BY COUNT(*){direction}, c NULLS FIRST" + bounds(limit, None),
        True,
    )
    # GROUP AS consumed directly: the fold collects each group's members.
    assert_all_agree(
        db,
        "SELECT c AS c, (SELECT VALUE v.t.id FROM g AS v) AS ids FROM t AS t "
        f"GROUP BY t.c AS c GROUP AS g ORDER BY c{direction}" + bounds(limit, None),
        True,
    )


@given(ROW_LISTS, ORDER_ITEMS)
@settings(max_examples=25, deadline=None)
def test_windows(rows, items):
    db = database(rows)
    over = order_by(items)
    assert_all_agree(
        db,
        "SELECT t.id AS id, "
        f"RANK() OVER (PARTITION BY t.c {over}) AS rk, "
        f"ROW_NUMBER() OVER ({over}) AS rn, "
        f"LAG(t.a, 1, 'none') OVER (PARTITION BY t.s {over}) AS prev, "
        f"SUM(t.j) OVER (PARTITION BY t.s {over}) AS running "
        "FROM t AS t",
        False,
    )
    # A window orders its rows as the query's own ORDER BY would: its
    # NULLS FIRST / LAST are not decoration.
    for dials in ({}, ROWS, {"optimize": False}):
        ids = run(db.execute, f"SELECT VALUE t.id FROM t AS t {over}, t.id", **dials)
        numbered = run(
            db.execute_python,
            f"SELECT t.id AS id, ROW_NUMBER() OVER ({over}, t.id) AS rn FROM t AS t",
            **dials,
        )
        numbered.sort(key=lambda row: row["rn"])
        assert [row["id"] for row in numbered] == ids, (over, dials)
    # Window values are output attributes an ORDER BY key can name.
    assert_all_agree(
        db,
        f"SELECT t.id AS id, DENSE_RANK() OVER ({over}) AS d FROM t AS t "
        "WHERE t.j < 3 ORDER BY d DESC, id LIMIT 6",
        True,
    )


@given(ROW_LISTS)
@settings(max_examples=25, deadline=None)
def test_pivot(rows):
    db = database(rows)
    assert_all_agree(db, "PIVOT t.j AT t.s FROM t AS t", False)
    # Non-string names are dropped (strict: raise), MISSING values omitted.
    assert_all_agree(db, "PIVOT t.a AT t.c FROM t AS t WHERE t.j >= 1", False)
    assert_all_agree(
        db,
        "PIVOT n AT s FROM t AS t GROUP BY t.s AS s GROUP AS g "
        "LET n = COLL_COUNT(g)",
        False,
    )


#: Grouping sets with the machines of every kind: O(1) state (COUNT,
#: SUM, MAX) and a value list (COUNT DISTINCT).
AGGREGATES = (
    "COUNT(*) AS n, SUM(t.j) AS total, MAX(t.j) AS top, COUNT(DISTINCT t.a) AS na"
)
GROUPINGS = (
    f"SELECT t.s AS s, t.j AS j, {AGGREGATES} FROM t AS t GROUP BY ROLLUP (t.s, t.j)",
    f"SELECT t.s AS s, t.c AS c, {AGGREGATES} FROM t AS t GROUP BY CUBE (t.s, t.c)",
    f"SELECT t.j AS j, t.b AS b, {AGGREGATES} FROM t AS t "
    "GROUP BY GROUPING SETS ((t.j), (t.b), ())",
    # GROUP AS consumed in the SELECT and in HAVING.
    "SELECT s AS s, (SELECT VALUE v.t.id FROM g AS v) AS ids FROM t AS t "
    "GROUP BY t.s AS s GROUP AS g HAVING COLL_COUNT(g) > 2",
    # SELECT * over groups, with and without the group.
    "SELECT * FROM t AS t GROUP BY t.s AS s, t.c AS c GROUP AS g",
    "SELECT * FROM t AS t GROUP BY t.a AS a",
    # A window over an aggregate.
    "SELECT s AS s, COUNT(*) AS n, RANK() OVER (ORDER BY COUNT(*) DESC) AS r "
    "FROM t AS t GROUP BY t.s AS s",
    # PIVOT over groups: a decomposed site beside the group itself.
    "PIVOT [COLL_SUM((SELECT VALUE v.t.j FROM g AS v)), COLL_COUNT(g)] AT s "
    "FROM t AS t GROUP BY t.s AS s GROUP AS g",
    # A LET before GROUP BY is an attribute of every group element.
    "SELECT s AS s, g AS g FROM t AS t LET d = t.j * 2 GROUP BY t.s AS s GROUP AS g",
    # Empty input: one group without keys, none with them (a grouping
    # set that keeps no key included).
    "SELECT COUNT(*) AS n, SUM(t.j) AS total FROM t AS t WHERE t.j > 9",
    "SELECT t.s AS s, COUNT(*) AS n FROM t AS t WHERE t.j > 9 GROUP BY ROLLUP (t.s)",
    "SELECT s AS s, g AS g FROM t AS t WHERE t.j > 9 GROUP BY t.s AS s GROUP AS g",
)


@given(ROW_LISTS)
@settings(max_examples=25, deadline=None)
def test_grouping(rows):
    db = database(rows)
    for query in GROUPINGS:
        assert_all_agree(db, query, False)
