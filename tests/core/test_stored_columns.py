"""Stored columns: a scan of a catalog collection binds its alias as
positions, and ``alias.attr`` reads the collection's stored column of
``attr`` through them (:mod:`repro.catalog.columns`).

A stored column is pinned to the collection's version: ``set`` and
``drop`` discard it, ``insert`` extends it past its old length.  It
holds what navigating each element gives and defers every non-tuple
element to the query, so answers — and errors, in both typing modes —
are the oracle's.
"""

from __future__ import annotations

import pytest

from repro import Database, errors
from repro.catalog.columns import NOT_A_TUPLE
from repro.datamodel.convert import from_python
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag, Struct
from tests.rows_mode import ROWS, rows_mode, run

QTY = "SELECT VALUE t.qty FROM t AS t WHERE t.qty >= 0"


def rows(start, stop):
    return [{"id": i, "qty": i % 7, "tag": f"t{i % 3}"} for i in range(start, stop)]


def same(db: Database, query: str, **kwargs):
    """The answer, checked against rows mode and the oracle."""
    got = db.execute(query, **kwargs)
    for dials in (ROWS, {"optimize": False}):
        other = run(db.execute, query, **{**kwargs, **dials})
        assert deep_equals(Bag(list(got)), Bag(list(other))), (query, dials)
    return got


class TestLifecycle:
    def test_a_scan_fills_only_what_it_reads(self):
        db = Database()
        db.set("t", rows(0, 3000))
        assert db.catalog.stored_columns("t") is None
        same(db, QTY)
        source = db.catalog.stored_columns("t")
        assert list(source.columns) == ["qty"]
        assert source.shredded == 3000
        same(db, QTY)
        assert source.shredded == 3000  # read again, never refilled

    def test_set_replaces_and_drop_frees(self):
        db = Database()
        db.set("t", rows(0, 100))
        db.execute(QTY)
        first = db.catalog.stored_columns("t")
        db.set("t", [{"qty": -1}, {"qty": 5}])
        assert db.catalog.stored_columns("t") is None
        assert list(same(db, QTY)) == [5]
        second = db.catalog.stored_columns("t")
        assert second is not first and second.columns["qty"] == [-1, 5]
        db.drop("t")
        assert db.catalog.stored_columns("t") is None

    def test_insert_extends_without_rereading(self):
        db = Database()
        db.set("t", rows(0, 2000))
        db.execute(QTY)
        source = db.catalog.stored_columns("t")
        old = list(source.columns["qty"])
        db.insert("t", rows(2000, 2300))
        assert len(same(db, QTY)) == 2300
        assert db.catalog.stored_columns("t") is source
        assert source.shredded == 2300  # only the 300 appended elements
        assert source.columns["qty"][:2000] == old

    def test_a_value_that_is_not_the_catalogs_is_never_stored(self):
        db = Database()
        db.set("t", rows(0, 50))
        db.set_lazy("lz", lambda: iter(rows(0, 50)))
        # A lazy source, an expression's array, a LET-bound collection
        # and a catalog name an outer variable shadows.
        for query in (
            "SELECT VALUE x.qty FROM lz AS x",
            "SELECT VALUE x.qty FROM [{'qty': 1}] AS x",
            "SELECT VALUE (SELECT VALUE y.qty FROM c AS y) FROM [1] AS z "
            "LET c = [{'qty': 2}]",
            "SELECT VALUE (SELECT VALUE y.qty FROM t AS y) FROM [[{'qty': 3}]] AS t",
        ):
            same(db, query)
        assert db.catalog.stored_columns("lz") is None
        assert db.catalog.stored_columns("t") is None


class TestLimits:
    def test_a_breach_mid_scan_leaves_a_whole_prefix(self):
        db = Database()
        db.set("t", rows(0, 5000))
        with pytest.raises(errors.ResourceExhausted) as info:
            db.execute(QTY, max_rows=1500)
        # A row-at-a-time count fires on the row after the limit.
        assert info.value.rows_produced == 1501
        with pytest.raises(errors.ResourceExhausted) as info, rows_mode():
            db.execute(QTY, max_rows=1500)
        assert info.value.rows_produced == 1501
        source = db.catalog.stored_columns("t")
        column = source.columns["qty"]
        assert len(column) < 5000
        assert column == [i % 7 for i in range(len(column))]
        assert len(same(db, QTY)) == 5000
        assert column == [i % 7 for i in range(5000)]

    def test_a_timeout_leaves_no_partial_column(self, monkeypatch):
        from repro.observability import limits

        clock = iter(range(10**9))  # one millisecond per reading
        monkeypatch.setattr(limits, "perf_counter", lambda: next(clock) / 1000)
        db = Database()
        db.set("t", rows(0, 50_000))
        with pytest.raises(errors.ResourceExhausted) as info:
            db.execute(QTY, timeout_s=0.3)
        assert info.value.kind == "timeout"
        column = db.catalog.stored_columns("t").columns["qty"]
        assert 0 < len(column) < 50_000
        assert column == [i % 7 for i in range(len(column))]
        monkeypatch.undo()
        assert len(same(db, QTY)) == 50_000


#: One attribute read over elements of every kind a collection holds.
HETERO = [
    {"a": 1, "b": 2},
    7,
    [1, 2],
    None,
    {"b": 3},
    {"a": "x", "a2": 0},
    "str",
    {"a": {"n": 4}},
]


def hetero_db(typing_mode: str) -> Database:
    db = Database(typing_mode=typing_mode)
    duplicate = Struct([("a", "first"), ("a", "second")])
    db.catalog.set_model("h", [from_python(e) for e in HETERO] + [duplicate])
    return db


def outcome(db: Database, query: str, **dials):
    try:
        return Bag(list(db.execute(query, **dials)))
    except errors.SQLPPError as error:
        return type(error)


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
@pytest.mark.parametrize(
    "query",
    [
        "SELECT VALUE h.a FROM h AS h",
        "SELECT VALUE h.a.n FROM h AS h",
        "SELECT VALUE {'a': h.a, 'b': h.b} FROM h AS h WHERE h.b > 1",
        "SELECT VALUE h.a FROM h AS h WHERE h.a IS NOT MISSING",
        "SELECT h.a AS a, COUNT(*) AS n FROM h AS h GROUP BY h.a",
        "SELECT VALUE h.a FROM h AS h ORDER BY h.a LIMIT 2",
    ],
)
def test_heterogeneous_elements_read_like_the_oracle(query, typing_mode):
    db = hetero_db(typing_mode)
    got = outcome(db, query)
    for dials in (ROWS, {"optimize": False}):
        other = run(outcome, db, query, **dials)
        if isinstance(got, type):
            assert got is other, (query, dials, got, other)
        else:
            assert deep_equals(got, other), (query, dials, got, other)
    # A column holds a non-tuple element as NOT_A_TUPLE, navigated by
    # the query that reads it.
    columns = db.catalog.stored_columns("h").columns.values()
    assert columns and all(NOT_A_TUPLE in column for column in columns)


def test_stored_columns_read_the_first_of_duplicate_names():
    db = hetero_db("permissive")
    got = db.execute_python("SELECT VALUE h.a FROM h AS h WHERE h.a IS STRING")
    assert sorted(got) == ["first", "x"]
    assert db.catalog.stored_columns("h").columns["a"][-1] == "first"


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
def test_a_limit_stops_before_a_mistyped_element(typing_mode):
    # The scalar 7 is the second element: a LIMIT 1 never navigates it,
    # so strict typing answers too (the oracle, evaluating eagerly,
    # raises; docs/LANGUAGE.md §8).
    db = hetero_db(typing_mode)
    query = "SELECT VALUE h.a FROM h AS h LIMIT 1"
    for dials in ({}, ROWS):
        assert run(db.execute_python, query, **dials) == [1]


def test_dotted_catalog_names_are_stored():
    db = Database()
    db.set("hr.emp", [{"id": i, "dept": i % 4} for i in range(300)])
    query = "SELECT VALUE e.id FROM hr.emp AS e WHERE e.dept = 1"
    assert len(same(db, query)) == 75
    assert set(db.catalog.stored_columns("hr.emp").columns) == {"id", "dept"}
    assert "(2 stored-column reads)" in db.explain_plan(query)


def test_held_folds_advance_over_stored_columns():
    query = "SELECT r.tag AS tag, SUM(r.qty) AS s FROM t AS r GROUP BY r.tag"
    db = Database(query_store=False)
    db.set("t", rows(0, 3000))
    db.insert("t", rows(3000, 3100))
    db.execute(query)
    db.insert("t", rows(3100, 3400))
    got = db.execute(query)
    assert db.metrics.counters["groups_advanced"] == 1
    source = db.catalog.stored_columns("t")
    assert source.shredded == 2 * 3400  # tag and qty, each element once
    fresh = Database()
    fresh.set("t", rows(0, 3400))
    assert deep_equals(got, fresh.execute(query, optimize=False))


class TestExplain:
    def test_kernels_line_counts_stored_reads(self):
        db = Database()
        db.set("t", rows(0, 10))
        line = db.explain_plan(QTY).splitlines()[-1]
        assert line == "kernels: 2 columnar (2 stored-column reads), no env-space fallback"

    def test_a_block_that_cannot_use_them_says_why(self):
        db = Database()
        db.set_lazy("lz", lambda: iter(rows(0, 10)))
        db.set("e", [{"xs": [{"v": 1}]}])
        lazy = db.explain_plan("SELECT VALUE x.qty FROM lz AS x")
        assert lazy.splitlines()[-1] == (
            "kernels: 1 columnar (x: lazy source), no env-space fallback"
        )
        nested = db.explain_plan("SELECT VALUE p.v FROM e AS e, e.xs[0] AS p")
        assert nested.splitlines()[-1] == (
            "kernels: 2 columnar (1 stored-column read; "
            "p: lateral over an expression), no env-space fallback"
        )


def test_threads_share_one_source():
    import sys
    import threading

    db = Database()
    db.set("t", rows(0, 20_000))
    answers = []

    def query():
        answers.append(len(db.execute(QTY)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query) for __ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [20_000] * 6
    source = db.catalog.stored_columns("t")
    assert source.columns["qty"] == [i % 7 for i in range(20_000)]
    assert source.shredded == 20_000
