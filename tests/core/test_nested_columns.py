"""Child sources: a lateral range over ``alias.attr`` of a stored collection.

``FROM t AS e, e.xs AS p`` over a catalog collection binds ``p`` as
positions into the collection's child source of ``xs``
(:meth:`repro.catalog.columns.ColumnSource.flatten`): every element's
``xs`` laid end to end, flattened once per collection version, with
``p.attr`` read from the child's own stored columns.  The child encodes
the permissive FROM cases once; strict typing uses it only over chunks
whose every value is an array or a bag.  Every answer — and every error
class — is the oracle's (``optimize=False``) and rows mode's.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, errors
from repro.datamodel.convert import from_python
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import MISSING, Bag, Struct
from tests.rows_mode import ROWS, run


def parents(start, stop, width=3):
    """Employees with ``width`` projects each, every project two tags."""
    return [
        {
            "id": i,
            "xs": [{"n": (i + j) % 5, "ys": [j, i % 3]} for j in range(width)],
        }
        for i in range(start, stop)
    ]


def outcome(db: Database, query: str, **dials):
    try:
        return Bag(list(run(db.execute, query, **dials)))
    except errors.SQLPPError as error:
        return type(error)


def agrees(db: Database, query: str, **kwargs):
    """The answer or error class, checked against rows mode and the oracle."""
    got = outcome(db, query, **kwargs)
    for dials in (ROWS, {"optimize": False}):
        other = outcome(db, query, **{**kwargs, **dials})
        if isinstance(got, type) or isinstance(other, type):
            assert got is other, (query, dials, got, other)
        else:
            assert deep_equals(got, other), (query, dials, got, other)
    return got


#: One ``xs`` of every kind a FROM item ranges over, between arrays so
#: every chunk mixes them; each parent has an ``id``.
VALUES = [
    [{"n": 1, "ys": [1, 2]}, {"n": 2, "ys": []}],
    Bag([{"n": 3, "ys": [3]}, {"n": 4}]),
    5,
    {"n": 6, "ys": [6]},
    None,
    "missing",
    "not a tuple",
    "duplicate",
    [],
    [{"n": 7, "ys": Bag([7, 8])}, 9, None],
]


def hetero_db(typing_mode: str, copies: int = 40) -> Database:
    elements = []
    for copy in range(copies):
        for k, value in enumerate(VALUES):
            key = copy * len(VALUES) + k
            if value == "missing":
                elements.append(Struct([("id", key)]))
            elif value == "not a tuple":
                elements.append(key)
            elif value == "duplicate":
                elements.append(
                    Struct(
                        [
                            ("id", key),
                            ("xs", from_python([{"n": 8}])),
                            ("xs", from_python([{"n": 9}])),
                        ]
                    )
                )
            else:
                elements.append(Struct([("id", key), ("xs", from_python(value))]))
    db = Database(typing_mode=typing_mode)
    db.catalog.set_model("h", elements)
    return db


SHAPES = {
    "at": (
        "SELECT VALUE {'id': e.id, 'p': p, 'n': p.n, 'i': i} "
        "FROM h AS e, e.xs AS p AT i"
    ),
    "two-level": (
        "SELECT VALUE {'id': e.id, 'n': x.n, 'y': y, 'j': j} "
        "FROM h AS e, e.xs AS x, x.ys AS y AT j"
    ),
    "left-join-on": (
        "SELECT VALUE {'id': e.id, 'n': p.n} FROM h AS e LEFT JOIN e.xs AS p ON p.n > 1"
    ),
    "filtered": (
        "SELECT VALUE p.n FROM h AS e, e.xs AS p WHERE e.id % 3 = 1 AND p.n >= 2"
    ),
    "grouped": "SELECT p.n AS n, COUNT(*) AS c FROM h AS e, e.xs AS p GROUP BY p.n",
    "subquery": (
        "SELECT e.id AS id, (SELECT VALUE p.n FROM e.xs AS p WHERE p.n > 1) AS ns "
        "FROM h AS e"
    ),
    "exists": (
        "SELECT VALUE e.id FROM h AS e WHERE EXISTS "
        "(SELECT VALUE p FROM e.xs AS p WHERE p.n > 2)"
    ),
}


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
@pytest.mark.parametrize("shape", SHAPES)
def test_every_value_kind_ranges_like_the_oracle(shape, typing_mode):
    db = hetero_db(typing_mode)
    got = agrees(db, SHAPES[shape])
    if typing_mode == "permissive":
        assert not isinstance(got, type) and len(got)
        assert "xs" in db.catalog.stored_columns("h").children
    else:
        # NULL, MISSING, a scalar, a tuple and a non-tuple parent are
        # all strict-mode errors.
        assert got is errors.TypeCheckError


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
@pytest.mark.parametrize("shape", SHAPES)
def test_clean_collections_use_the_child_in_both_modes(shape, typing_mode):
    db = Database(typing_mode=typing_mode)
    db.set("h", parents(0, 2500))
    got = agrees(db, SHAPES[shape])
    assert len(got)
    # Filled up to the last parent a chunk asked for.
    child = db.catalog.stored_columns("h").children["xs"]
    assert child.offsets[-1] == len(child.elements) == 3 * (len(child.offsets) - 1)
    assert len(child.elements) > 3 * 2400


def test_the_child_holds_the_permissive_cases():
    db = hetero_db("permissive", copies=1)
    db.execute(SHAPES["at"])
    child = db.catalog.stored_columns("h").children["xs"]
    sizes = [b - a for a, b in zip(child.offsets, child.offsets[1:])]
    # array 2, bag 2, scalar 1, tuple 1, NULL / MISSING / non-tuple 0,
    # the first of duplicate names 1, empty array 0, array 3.
    assert sizes == [2, 2, 1, 1, 0, 0, 0, 1, 0, 3]
    assert child.at == [0, 1, MISSING, MISSING, MISSING, MISSING, 0, 0, 1, 2]
    assert child.elements[4] == 5


@pytest.mark.parametrize("dials", [{}, ROWS], ids=["batch", "rows"])
def test_a_null_in_strict_mode_still_raises(dials):
    db = Database(typing_mode="strict")
    elements = parents(0, 3000)
    elements[1700]["xs"] = None
    db.set("h", elements)
    for query in (SHAPES["at"], SHAPES["subquery"], SHAPES["two-level"]):
        with pytest.raises(errors.TypeCheckError):
            run(db.execute, query, **dials)
        with pytest.raises(errors.TypeCheckError):
            db.execute(query, optimize=False)


class TestLimits:
    QUERY = "SELECT VALUE p.n FROM h AS e, e.xs AS p"

    def test_max_rows_breaches_on_the_same_row(self):
        db = Database()
        db.set("h", parents(0, 3000))
        for limit in (10, 1500, 5000, 9000):
            tallies = set()
            for dials in ({}, ROWS):
                with pytest.raises(errors.ResourceExhausted) as info:
                    run(db.execute, self.QUERY, max_rows=limit, **dials)
                tallies.add(info.value.rows_produced)
            # A row-at-a-time count fires on the row after the limit.
            assert tallies == {limit + 1}
        # 3000 scanned and 9000 ranged.
        assert len(db.execute(self.QUERY, max_rows=12_000)) == 9000
        with pytest.raises(errors.ResourceExhausted):
            db.execute(self.QUERY, max_rows=11_999)

    def test_a_timeout_mid_flatten_leaves_a_whole_child(self, monkeypatch):
        from repro.observability import limits

        clock = iter(range(10**9))  # one millisecond per reading
        monkeypatch.setattr(limits, "perf_counter", lambda: next(clock) / 1000)
        db = Database()
        db.set("h", parents(0, 40_000))
        with pytest.raises(errors.ResourceExhausted) as info:
            db.execute(self.QUERY, timeout_s=0.3)
        assert info.value.kind == "timeout"
        child = db.catalog.stored_columns("h").children["xs"]
        flattened = len(child.offsets) - 1
        assert 0 < flattened < 40_000
        assert child.offsets[-1] == len(child.elements) == 3 * flattened
        monkeypatch.undo()
        assert len(db.execute(self.QUERY)) == 120_000
        assert len(child.elements) == 120_000


class TestLifecycle:
    QUERY = "SELECT VALUE y FROM h AS e, e.xs AS x, x.ys AS y WHERE x.n >= 0"

    def test_insert_extends_only_the_appended_parents(self):
        db = Database()
        db.set("h", parents(0, 2000))
        db.execute(self.QUERY)
        source = db.catalog.stored_columns("h")
        child = source.children["xs"]
        grandchild = child.children["ys"]
        assert source.flattened == 2000
        assert child.flattened == 6000
        assert child.shredded == 2 * 6000  # x.n, and x.ys by the flatten
        db.insert("h", parents(2000, 2300))
        agrees(db, self.QUERY)
        assert db.catalog.stored_columns("h") is source
        assert source.children["xs"] is child and child.children["ys"] is grandchild
        assert source.flattened == 2300
        assert child.flattened == 6900
        assert child.shredded == 2 * 6900
        assert len(grandchild.elements) == 2 * 6900

    def test_set_and_drop_free_the_child(self):
        db = Database()
        db.set("h", parents(0, 100))
        db.execute(self.QUERY)
        first = db.catalog.stored_columns("h")
        assert first.children
        db.set("h", parents(0, 10, width=1))
        assert db.catalog.stored_columns("h") is None
        agrees(db, self.QUERY)
        second = db.catalog.stored_columns("h")
        assert second is not first
        assert len(second.children["xs"].elements) == 10
        db.drop("h")
        assert db.catalog.stored_columns("h") is None


def test_threads_share_one_child():
    db = Database()
    db.set("h", parents(0, 6000))
    query = "SELECT VALUE p.n FROM h AS e, e.xs AS p WHERE p.n >= 0"
    answers = []

    def run():
        answers.append(len(db.execute(query)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for __ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [18_000] * 6
    source = db.catalog.stored_columns("h")
    child = source.children["xs"]
    assert source.flattened == 6000  # each parent flattened once
    assert child.offsets == list(range(0, 18_001, 3))
    assert child.columns["n"] == [(i + j) % 5 for i in range(6000) for j in range(3)]


class TestExplain:
    @staticmethod
    def kernels(db, query, **dials):
        return run(db.explain_plan, query, **dials).splitlines()[-1]

    def test_a_child_served_variable_counts_as_a_stored_read(self):
        db = Database()
        db.set("h", parents(0, 5))
        assert self.kernels(db, SHAPES["two-level"]) == (
            "kernels: 3 columnar (4 stored-column reads), no env-space fallback"
        )
        assert self.kernels(db, SHAPES["subquery"]) == (
            "kernels: 1 columnar (4 stored-column reads), no env-space fallback"
        )
        strict = self.kernels(db, SHAPES["exists"], typing_mode="strict")
        assert strict == (
            "kernels: 2 columnar (3 stored-column reads), no env-space fallback"
        )

    def test_any_other_variable_says_why(self):
        db = Database()
        elements = parents(0, 5)
        elements[3]["xs"] = None
        db.set("h", elements)
        over_expression = "SELECT VALUE p.n FROM h AS e, e.xs[0] AS p"
        assert self.kernels(db, over_expression) == (
            "kernels: 2 columnar (1 stored-column read; p: lateral over an "
            "expression), no env-space fallback"
        )
        assert self.kernels(db, SHAPES["filtered"]) == (
            "kernels: 4 columnar (4 stored-column reads), no env-space fallback"
        )
        assert self.kernels(db, SHAPES["filtered"], typing_mode="strict") == (
            "kernels: 3 columnar (2 stored-column reads; p: strict: not every "
            "value a collection), no env-space fallback"
        )


def test_identity_scans_call_no_tuple_or_bag_eq(monkeypatch):
    calls = []
    for cls in (Struct, Bag):
        original = cls.__eq__

        def counting(self, other, original=original):
            calls.append(type(self))
            return original(self, other)

        monkeypatch.setattr(cls, "__eq__", counting)
    db = Database()
    db.catalog.set_model(
        "t",
        [
            Struct([("k", i % 3), ("s", Struct([("a", i)])), ("b", Bag([i]))])
            for i in range(500)
        ]
        + [7],
    )
    for query in (
        "SELECT VALUE {'s': t.s, 'b': t.b, 'm': t.nope} FROM t AS t",
        "SELECT VALUE {'s': t.s, 'b': t.b} FROM t AS t",
        "SELECT k AS k, g AS g FROM t AS t GROUP BY t.k AS k GROUP AS g",
    ):
        db.execute(query)
    assert calls == []


#: Stands for an element without ``xs``.
ABSENT = object()

XS = st.one_of(
    st.lists(
        st.fixed_dictionaries(
            {"n": st.integers(0, 4)},
            optional={"ys": st.lists(st.integers(0, 3), max_size=3)},
        ),
        max_size=4,
    ),
    st.just(Bag([{"n": 2, "ys": [1]}, {"n": 3}])),
    st.none(),
    st.integers(0, 4),
    st.just({"n": 1}),
    st.just(ABSENT),
)


def nested_parents(start):
    return st.lists(XS, max_size=40).map(
        lambda values: [
            {"id": i} if value is ABSENT else {"id": i, "xs": value}
            for i, value in enumerate(values, start)
        ]
    )


PROPERTY_QUERIES = [
    SHAPES["at"],
    SHAPES["two-level"],
    SHAPES["left-join-on"],
    SHAPES["grouped"],
    SHAPES["subquery"],
    SHAPES["exists"],
]


@settings(max_examples=25, deadline=None)
@given(
    first=nested_parents(0),
    inserts=st.integers(0, 3),
    typing_mode=st.sampled_from(["permissive", "strict"]),
    data=st.data(),
)
def test_children_across_inserts_match_the_oracle(first, inserts, typing_mode, data):
    db = Database(typing_mode=typing_mode)
    db.set("h", first)
    total = len(first)
    for query in PROPERTY_QUERIES:
        agrees(db, query)
    for __ in range(inserts):
        batch = data.draw(nested_parents(10_000 + total))
        db.insert("h", batch)
        total += len(batch)
        for query in PROPERTY_QUERIES:
            agrees(db, query)
