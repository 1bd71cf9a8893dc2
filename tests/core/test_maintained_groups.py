"""Maintained blocks: a grouped read or a top-K over a collection grown
by ``insert`` continues the fold state or the kept rows its last run
left and is fed only the elements appended since (docs/PLANNER.md,
"Caching").

Fold sizes are counted by spying on ``vectorized.fold_chunk``, top-K
inputs on ``OrderedTail.feed``; every answer is checked against a
database rebuilt from the same data (which folds per run: its
collection was only ``set``) and the oracle.
"""

import random

import pytest

from repro import Database
from repro.core import vectorized
from repro.core.clauses import OrderedTail
from repro.datamodel.convert import to_python
from repro.datamodel.equality import deep_equals
from repro.errors import TypeCheckError
from repro.functions.registry import REGISTRY
from tests.rows_mode import ROWS, run

COUNT_BY_KIND = (
    "SELECT ev.kind AS kind, COUNT(*) AS n FROM events AS ev GROUP BY ev.kind"
)
AVG_LATENCY = (
    "SELECT ev.kind AS kind, SUM(ev.latency) AS s, AVG(ev.latency) AS a "
    "FROM events AS ev GROUP BY ev.kind"
)
KINDS = ("view", "click", "buy")


def events(start, stop):
    return [
        {"id": i, "kind": KINDS[i % 3], "uid": i % 4, "latency": i % 50}
        for i in range(start, stop)
    ]


@pytest.fixture
def folded(monkeypatch):
    """``folded()``: the rows ``fold_chunk`` folded since the last call."""
    sizes = []
    fold_chunk = vectorized.fold_chunk

    def spy(size, *args):
        sizes.append(size)
        return fold_chunk(size, *args)

    monkeypatch.setattr(vectorized, "fold_chunk", spy)

    def take():
        total = sum(sizes)
        sizes.clear()
        return total

    return take


@pytest.fixture
def fed(monkeypatch):
    """``fed()``: the rows ``OrderedTail.feed`` was offered since the
    last call."""
    sizes = []
    feed = OrderedTail.feed

    def spy(self, key_columns, payload):
        sizes.append(len(payload))
        return feed(self, key_columns, payload)

    monkeypatch.setattr(OrderedTail, "feed", spy)

    def take():
        total = sum(sizes)
        sizes.clear()
        return total

    return take


def grown(n=1000, k=200, **kwargs):
    """A database whose ``events`` was set to ``n`` rows, then grew by
    an insert of ``k``."""
    db = Database(query_store=False, **kwargs)
    db.set("events", events(0, n))
    db.insert("events", events(n, n + k))
    return db


def rebuilt(db, **kwargs):
    """A database ``set`` to copies of ``db``'s collections."""
    fresh = Database(**kwargs)
    for name in db.names():
        fresh.set(name, db.get(name))
    return fresh


def same_three_ways(db, query, **kwargs):
    result = db.execute(query)
    assert deep_equals(result, rebuilt(db, **kwargs).execute(query))
    assert deep_equals(result, db.execute(query, optimize=False))
    return result


def groups_line(db, query, label="groups:"):
    lines = db.explain_plan(query).splitlines()
    found = [line for line in lines if line.startswith(label)]
    assert len(found) <= 1
    return found[0] if found else None


def held_states(db):
    """Every state the database's evaluators hold between runs."""
    return [
        held
        for evaluator in db._evaluators.values()
        for caches in evaluator._scopes.values()
        for held in caches.folds.values()
    ]


class TestAdvancing:
    def test_a_read_after_an_insert_folds_only_the_delta(self, folded):
        db = grown()
        assert groups_line(db, COUNT_BY_KIND) == (
            "groups: maintained — events grown by insert "
            "(nothing held yet: the next read folds 1200 rows)"
        )
        same_three_ways(db, COUNT_BY_KIND)
        folded()
        db.execute(COUNT_BY_KIND)
        assert folded() == 0  # unchanged: nothing to fold
        db.insert("events", events(1200, 1337))
        assert groups_line(db, COUNT_BY_KIND) == (
            "groups: maintained — events grown by insert "
            "(1200 rows folded, 137 appended since)"
        )
        same_three_ways(db, COUNT_BY_KIND)
        folded()
        db.insert("events", events(1337, 1400))
        db.execute(COUNT_BY_KIND)
        assert folded() == 63
        assert db.metrics.counters["groups_advanced"] == 3

    def test_set_starts_over_and_folds_per_run(self, folded):
        db = grown()
        db.execute(COUNT_BY_KIND)
        db.set("events", events(0, 500))
        assert len(same_three_ways(db, COUNT_BY_KIND)) == 3
        folded()
        db.execute(COUNT_BY_KIND)
        assert folded() == 500
        assert groups_line(db, COUNT_BY_KIND) == (
            "groups: folded per run — events has not grown by insert since "
            "it was last set"
        )
        db.insert("events", events(500, 510))
        db.execute(COUNT_BY_KIND)
        assert folded() == 510  # the first read after the set folds all
        db.insert("events", events(510, 520))
        db.execute(COUNT_BY_KIND)
        assert folded() == 10

    def test_a_traced_read_refolds_and_reseeds(self, folded):
        db = grown()
        db.execute(COUNT_BY_KIND)
        db.insert("events", events(1200, 1400))
        folded()
        report = db.explain_analyze(COUNT_BY_KIND)
        assert "groups: re-folded (traced run)" in report
        assert folded() == 1400
        db.insert("events", events(1400, 1450))
        db.execute(COUNT_BY_KIND)
        assert folded() == 50
        same_three_ways(db, COUNT_BY_KIND)

    def test_the_query_stores_feedback_runs_are_traced(self, folded):
        # With the store on, the first run of each epoch is
        # feedback-sampled: traced by a timing-free tracer, under which
        # the fold continues over the delta alone.
        db = Database()
        db.set("events", events(0, 1000))
        db.insert("events", events(1000, 1200))
        for __ in range(3):
            db.execute(COUNT_BY_KIND)
        db.insert("events", events(1200, 1500))  # +25 %: a new epoch
        store, fingerprint = db.query_store(), db.metrics.last.fingerprint
        assert store.wants_feedback(fingerprint, db._stats)
        folded()
        db.execute(COUNT_BY_KIND)
        assert not store.wants_feedback(fingerprint, db._stats)  # sampled
        assert folded() == 300
        db.execute(COUNT_BY_KIND)
        assert folded() == 0
        assert db.metrics.counters["groups_advanced"] == 4
        same_three_ways(db, COUNT_BY_KIND)

    def test_a_lateral_item_over_the_scan_is_maintained(self):
        db = Database(query_store=False)
        db.set("events", [{"id": 0, "tags": ["a"]}])
        query = (
            "SELECT t AS tag, COUNT(*) AS n FROM events AS ev, ev.tags AS t "
            "GROUP BY t"
        )
        for step in range(1, 6):
            db.insert("events", [{"id": step, "tags": ["a", "b"][: step % 3]}])
            same_three_ways(db, query)
        assert db.metrics.counters["groups_advanced"] >= 4

    def test_an_empty_collection_keeps_its_implicit_group_out_of_the_state(
        self, folded
    ):
        for alias in ("t", "r"):  # ``FROM t AS t`` folds per run
            db = Database(query_store=False)
            db.set("t", [])
            db.insert("t", [])
            query = f"SELECT COUNT(*) AS n, SUM({alias}.v) AS s FROM t AS {alias}"
            assert to_python(same_three_ways(db, query)) == [
                {"n": 0, "s": None}
            ]
            db.insert("t", [{"v": 2}, {"v": 3}])
            assert to_python(same_three_ways(db, query)) == [
                {"n": 2, "s": 5}
            ]

    def test_finalizing_does_not_touch_the_fold_state(self):
        specs = [
            vectorized.AggSpec(f"$fold{k}", REGISTRY.lookup(name))
            for k, name in enumerate(("COLL_COUNT", "COLL_SUM"))
        ]
        machines = [spec.machine for spec in specs]
        db = Database()
        clause = db.compile("SELECT COUNT(*) AS n FROM t AS t").body.group_by
        sets = vectorized.GroupState.sets(clause, machines)
        config = db._config
        first = vectorized.finalize_groups(clause, specs, sets, config)
        second = vectorized.finalize_groups(clause, specs, sets, config)
        assert first.rows() == second.rows() == [{"$fold0": 0, "$fold1": None}]
        assert sets[0].ids == {} and sets[0].keys == []
        assert sets[0].states == [machine.init() for machine in machines]


class TestExactness:
    def test_float_sums_and_averages_equal_a_rebuild_bit_for_bit(self):
        rng = random.Random(7)

        def batch(start):
            return [
                {"id": i, "kind": KINDS[rng.randrange(3)], "latency": rng.uniform(0, 1e3)}
                for i in range(start, start + 50)
            ]

        db = Database(query_store=False)
        db.set("events", batch(0))
        for step in range(1, 21):
            db.insert("events", batch(step * 50))
            db.execute(AVG_LATENCY)
        assert db.metrics.counters["groups_advanced"] == 19
        kept = db.execute_python(AVG_LATENCY)
        assert repr(kept) == repr(rebuilt(db).execute_python(AVG_LATENCY))
        assert repr(kept) == repr(db.execute_python(AVG_LATENCY, optimize=False))

    def test_grouping_sets_having_and_order_by(self):
        db = Database(query_store=False)
        db.set("events", events(0, 40))
        query = (
            "SELECT ev.kind AS kind, ev.uid AS uid, COUNT(*) AS n, "
            "MIN(ev.latency) AS low FROM events AS ev "
            "GROUP BY ROLLUP (ev.kind, ev.uid) HAVING COUNT(*) > 2 "
            "ORDER BY n DESC, kind, uid"
        )
        for step in range(1, 6):
            db.insert("events", events(step * 40, step * 40 + 7 * step))
            result = db.execute(query)
            assert deep_equals(result, rebuilt(db).execute(query))
            assert deep_equals(result, db.execute(query, optimize=False))
        assert db.metrics.counters["groups_advanced"] == 4

    def test_an_array_with_positions(self, folded):
        db = Database(query_store=False)
        db.set("arr", events(0, 10))
        db.insert("arr", events(10, 20))
        query = (
            "SELECT x.kind AS kind, SUM(p) AS s, MAX(p) AS top "
            "FROM arr AS x AT p GROUP BY x.kind"
        )
        db.execute(query)
        db.insert("arr", events(20, 25))
        folded()
        result = db.execute(query)
        assert folded() == 5
        assert isinstance(db.get("arr"), list)
        assert deep_equals(result, rebuilt(db).execute(query))
        assert {row["kind"]: row["top"] for row in to_python(result)} == {
            "view": 24, "click": 22, "buy": 23,
        }

    def test_a_result_returned_before_an_insert_is_unchanged(self):
        db = grown()
        before = db.execute(AVG_LATENCY)
        snapshot = repr(to_python(before))
        db.insert("events", events(1200, 1300))
        after = db.execute(AVG_LATENCY)
        assert repr(to_python(before)) == snapshot
        assert not deep_equals(before, after)

    def test_a_strict_delta_that_raises_leaves_no_state(self):
        db = grown(typing_mode="strict")
        db.execute(AVG_LATENCY)
        bad = [{"id": 1200, "kind": "view", "latency": "timeout"}]
        db.insert("events", bad)
        with pytest.raises(TypeCheckError) as kept:
            db.execute(AVG_LATENCY)
        with pytest.raises(TypeCheckError) as fresh:
            rebuilt(db, typing_mode="strict").execute(AVG_LATENCY)
        assert str(kept.value) == str(fresh.value)
        with pytest.raises(TypeCheckError):
            db.execute(AVG_LATENCY)
        assert db.metrics.counters["groups_advanced"] == 0
        db.set("events", events(0, 300))
        db.insert("events", events(300, 400))
        same_three_ways(db, AVG_LATENCY, typing_mode="strict")
        db.insert("events", events(400, 410))
        same_three_ways(db, AVG_LATENCY, typing_mode="strict")
        assert db.metrics.counters["groups_advanced"] == 1


class TestRefusals:
    """Each shape that does not qualify folds its whole input and, on
    the batch executor, says why."""

    @pytest.mark.parametrize(
        "query, reason",
        [
            (
                "SELECT ev.kind AS kind, COUNT(*) AS n FROM events AS ev "
                "JOIN users AS u ON ev.uid = u.id GROUP BY ev.kind",
                "FROM is not one scan of a catalog collection",
            ),
            (
                "SELECT ev.kind AS kind, COUNT(*) AS n, "
                "(SELECT VALUE u.id FROM users AS u WHERE u.id = 0) AS zero "
                "FROM events AS ev GROUP BY ev.kind",
                "users is named again in the query (the catalog could resolve it)",
            ),
            (
                "SELECT events.kind AS kind, COUNT(*) AS n FROM events AS events "
                "GROUP BY events.kind",
                "events is named again in the query (the catalog could resolve it)",
            ),
            (
                "SELECT ev.kind AS kind, ARRAY_AGG(ev.id) AS ids FROM events AS ev "
                "GROUP BY ev.kind",
                "COLL_ARRAY_AGG keeps every value of its group",
            ),
            (
                "SELECT ev.kind AS kind, COUNT(DISTINCT ev.uid) AS n "
                "FROM events AS ev GROUP BY ev.kind",
                "COLL_COUNT (DISTINCT) keeps every value of its group",
            ),
            (
                "SELECT k AS kind, (SELECT VALUE v.ev.id FROM g AS v) AS ids "
                "FROM events AS ev GROUP BY ev.kind AS k GROUP AS g",
                "GROUP AS keeps every value of its group",
            ),
        ],
    )
    def test_a_refused_shape_folds_per_run(self, folded, query, reason):
        db = grown()
        db.set("users", [{"id": i} for i in range(4)])
        assert groups_line(db, query) == f"groups: folded per run — {reason}"
        db.execute(query)
        db.insert("events", events(1200, 1300))
        folded()
        db.execute(query)
        assert folded() == 1300
        same_three_ways(db, query)
        assert db.metrics.counters["groups_advanced"] == 0

    def test_a_parameter(self, folded):
        db = grown()
        query = (
            "SELECT ev.kind AS kind, COUNT(*) AS n FROM events AS ev "
            "WHERE ev.id >= ? GROUP BY ev.kind"
        )
        assert groups_line(db, query) == "groups: folded per run — a ? parameter"
        db.execute(query, parameters=[0])
        db.insert("events", events(1200, 1210))
        folded()
        db.execute(query, parameters=[0])
        assert folded() == 1210

    @pytest.mark.parametrize(
        "dials, reason",
        [
            (
                {"max_rows": 10**9},
                "a resource limit (timeout_s / max_rows / max_recursion) is set",
            ),
            ({"timeout_s": 60.0}, "a resource limit (timeout_s / max_rows / max_recursion) is set"),
        ],
    )
    def test_a_governed_database(self, dials, reason):
        db = grown(**dials)
        assert groups_line(db, COUNT_BY_KIND) == f"groups: folded per run — {reason}"
        db.execute(COUNT_BY_KIND)
        db.insert("events", events(1200, 1210))
        same_three_ways(db, COUNT_BY_KIND)
        assert db.metrics.counters["groups_advanced"] == 0

    def test_a_lazy_collection(self):
        db = Database(query_store=False)
        db.set_lazy("events", lambda: iter(events(0, 30)))
        assert groups_line(db, COUNT_BY_KIND) == (
            "groups: folded per run — events is not a materialised collection"
        )

    def test_rows_mode_and_nested_blocks_fold_per_run(self, folded):
        db = grown()
        derived = (
            "SELECT VALUE x.n FROM (SELECT ev.kind AS kind, COUNT(*) AS n "
            "FROM events AS ev GROUP BY ev.kind) AS x"
        )
        for query, dials in ((COUNT_BY_KIND, ROWS), (derived, {})):
            run(db.execute, query, **dials)
            db.insert("events", events(1200, 1210))
            folded()
            run(db.execute, query, **dials)
            assert folded() == len(db.get("events"))
            db.set("events", events(0, 1000))
            db.insert("events", events(1000, 1200))
        assert groups_line(db, derived) is None
        assert db.metrics.counters["groups_advanced"] == 0


TOP_LATENCY = (
    "SELECT ev.id AS id, ev.latency AS latency FROM events AS ev "
    "WHERE ev.latency > 0 ORDER BY ev.latency DESC, ev.id LIMIT 10"
)
#: Ties on the one key, broken by arrival order, past an OFFSET.
TIES = "SELECT VALUE ev.id FROM events AS ev ORDER BY ev.latency DESC LIMIT 5 OFFSET 2"
#: The first key sees a select alias: the keys are taken from the output.
BY_ALIAS = (
    "SELECT ev.id AS id, ev.kind AS kind FROM events AS ev "
    "ORDER BY kind DESC NULLS FIRST, ev.uid LIMIT 4"
)


def positive(start, stop):
    """How many of ``events(start, stop)`` pass ``ev.latency > 0``."""
    return sum(row["latency"] > 0 for row in events(start, stop))


def top_line(db, query):
    return groups_line(db, query, label="top-k:")


class TestTopK:
    @pytest.mark.parametrize("query", [TOP_LATENCY, TIES, BY_ALIAS])
    def test_a_read_after_an_insert_feeds_only_the_delta(self, fed, query):
        db = grown()
        assert top_line(db, query) == (
            "top-k: maintained — events grown by insert "
            "(nothing held yet: the next read scans 1200 rows)"
        )
        same_three_ways(db, query)
        fed()
        db.execute(query)
        assert fed() == 0
        # Ties with the kept rows arrive later, so they sort after them.
        tied = [dict(row, latency=49) for row in events(1200, 1290)]
        db.insert("events", tied)
        assert top_line(db, query) == (
            "top-k: maintained — events grown by insert "
            "(1200 rows scanned, 90 appended since)"
        )
        same_three_ways(db, query)
        fed()
        db.insert("events", events(1290, 1300))
        db.execute(query)
        assert fed() == 10
        assert db.metrics.counters["topk_advanced"] == 3
        assert db.metrics.counters["groups_advanced"] == 0

    def test_the_kept_rows_are_one_chunk_of_plain_columns(self):
        db = grown()
        db.execute(TOP_LATENCY)
        for step in range(3):
            db.insert("events", events(1200 + step * 10, 1210 + step * 10))
            db.execute(TOP_LATENCY)
        (held,) = held_states(db)
        assert len(held.state.payload) == 10
        (kept,) = {chunk for chunk, __ in held.state.payload}
        # Plain columns: no positions pin the collection's stored
        # columns once it is replaced.
        assert kept.stored == {} and kept.column("ev")[0]["id"] == 49

    def test_a_strict_delta_that_raises_leaves_no_held_top_k(self):
        query = (
            "SELECT VALUE ev.id FROM events AS ev "
            "ORDER BY ev.latency * 2 DESC, ev.id LIMIT 3"
        )
        db = grown(typing_mode="strict")
        db.execute(query)
        assert len(held_states(db)) == 1
        db.insert("events", [{"id": 1200, "kind": "view", "latency": "timeout"}])
        with pytest.raises(TypeCheckError) as kept:
            db.execute(query)
        assert held_states(db) == []
        with pytest.raises(TypeCheckError) as fresh:
            rebuilt(db, typing_mode="strict").execute(query)
        assert str(kept.value) == str(fresh.value)
        with pytest.raises(TypeCheckError):
            db.execute(query)
        assert held_states(db) == []
        assert db.metrics.counters["topk_advanced"] == 0
        db.set("events", events(0, 300))
        db.insert("events", events(300, 400))
        same_three_ways(db, query, typing_mode="strict")
        db.insert("events", events(400, 410))
        same_three_ways(db, query, typing_mode="strict")
        assert db.metrics.counters["topk_advanced"] == 1

    def test_explain_analyze_still_rescans_and_reseeds(self, fed):
        db = grown()
        db.execute(TOP_LATENCY)
        db.insert("events", events(1200, 1400))
        fed()
        report = db.explain_analyze(TOP_LATENCY)
        assert "top-k: re-sorted (traced run)" in report
        assert "Scan events AS ev  [filter: (ev.latency > 0)]  (calls=1 rows_in=1400" in report
        assert fed() == positive(0, 1400)
        db.insert("events", events(1400, 1450))
        db.execute(TOP_LATENCY)
        assert fed() == positive(1400, 1450)
        same_three_ways(db, TOP_LATENCY)

    @pytest.mark.parametrize(
        "query, reason",
        [
            (
                "SELECT DISTINCT ev.kind AS kind FROM events AS ev "
                "ORDER BY kind LIMIT 2",
                "SELECT DISTINCT needs every row",
            ),
            (
                "SELECT ev.id AS id, RANK() OVER (ORDER BY ev.latency) AS r "
                "FROM events AS ev ORDER BY id LIMIT 2",
                "a window function needs every row",
            ),
            (
                "SELECT VALUE ev.id FROM events AS ev JOIN users AS u "
                "ON ev.uid = u.id ORDER BY ev.id LIMIT 2",
                "FROM is not one scan of a catalog collection",
            ),
            (
                "SELECT VALUE ev.id FROM events AS ev ORDER BY ev.id LIMIT ?",
                "a ? parameter",
            ),
        ],
    )
    def test_a_refused_shape_sorts_per_run(self, query, reason):
        db = grown()
        db.set("users", [{"id": i} for i in range(4)])
        assert top_line(db, query) == f"top-k: sorted per run — {reason}"
        parameters = [3] if "?" in query else None
        db.execute(query, parameters=parameters)
        db.insert("events", events(1200, 1300))
        result = db.execute(query, parameters=parameters)
        assert held_states(db) == []
        oracle = db.execute(query, optimize=False, parameters=parameters)
        assert deep_equals(result, oracle)
        assert db.metrics.counters["topk_advanced"] == 0

    def test_rows_mode_a_limit_and_a_grouped_top_k(self, fed):
        db = grown(max_rows=10**9)
        assert top_line(db, TIES) == (
            "top-k: sorted per run — a resource limit "
            "(timeout_s / max_rows / max_recursion) is set"
        )
        db = grown()
        run(db.execute, TIES, **ROWS)
        db.insert("events", events(1200, 1210))
        fed()
        run(db.execute, TIES, **ROWS)
        assert fed() == 1210
        grouped = COUNT_BY_KIND + " ORDER BY n DESC LIMIT 1"
        assert top_line(db, grouped) is None
        assert groups_line(db, grouped).startswith("groups: maintained")
        assert db.metrics.counters["topk_advanced"] == 0


#: A grouped read with a pushed filter and a lateral item, and a top-K:
#: the operators whose counts the feedback run reports.
SLOW_TAGS = (
    "SELECT t AS tag, COUNT(*) AS n FROM events AS ev, ev.tags AS t "
    "WHERE ev.latency > 10 GROUP BY t"
)


def tagged(start, stop):
    return [
        dict(row, tags=["a", "b", "c"][: row["id"] % 4])
        for row in events(start, stop)
    ]


@pytest.mark.parametrize(
    "query, counter",
    [(SLOW_TAGS, "groups_advanced"), (TOP_LATENCY, "topk_advanced")],
)
def test_a_continued_feedback_run_records_what_a_whole_run_does(query, counter):
    """The query store's sampled run over a held state counts only the
    delta, but credits its tracer the whole collection's counts: the
    feedback hints and q-errors it leaves equal those of a twin
    database whose same run re-folded everything."""
    runs = []
    for continued in (True, False):
        db = Database()
        db.set("events", tagged(0, 1000))
        db.insert("events", tagged(1000, 1200))
        for __ in range(3):
            db.execute(query)
        db.insert("events", tagged(1200, 1500))
        store, fingerprint = db.query_store(), db.metrics.last.fingerprint
        assert store.wants_feedback(fingerprint, db._stats)
        if not continued:
            for evaluator in db._evaluators.values():
                for caches in evaluator._scopes.values():
                    caches.folds.clear()
        before = db.metrics.counters[counter]
        result = db.execute(query)
        assert db.metrics.counters[counter] == before + continued
        entry = store.entry(fingerprint)
        runs.append(
            (
                result,
                list(db._stats.feedback._rows.items()),
                list(entry.qerrors),
                entry.max_qerror,
            )
        )
    (result, hints, qerrors, worst), (twin, *twin_feedback) = runs
    assert deep_equals(result, twin)
    assert qerrors and [hints, qerrors, worst] == twin_feedback
