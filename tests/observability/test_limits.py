"""Resource limits: runaway queries stop with ResourceExhausted."""

import pytest

from repro import Database
from repro.config import EvalConfig
from repro.errors import ResourceExhausted
from tests.rows_mode import ROWS, run


@pytest.fixture
def db():
    database = Database()
    database.set("r", [{"k": i % 10, "v": i} for i in range(100)])
    return database


CROSS_3 = "SELECT a.v FROM r AS a, r AS b, r AS c"
CROSS_4 = "SELECT a.v FROM r AS a, r AS b, r AS c, r AS d"


class TestMaxRows:
    def test_cross_product_stops_on_optimized_path(self, db):
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(CROSS_3, max_rows=5000)
        error = excinfo.value
        assert error.kind == "max_rows"
        # Cooperative granularity: the breach surfaces within one
        # binding batch of the limit, not after the full million rows.
        assert 5000 < error.rows_produced < 5000 + 200

    def test_cross_product_stops_on_reference_path(self, db):
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(CROSS_3, max_rows=5000, optimize=False)
        assert excinfo.value.kind == "max_rows"

    def test_within_limit_succeeds(self, db):
        result = db.execute("SELECT VALUE a.v FROM r AS a", max_rows=1000)
        assert len(result) == 100

    def test_hash_join_ticks_the_governor(self, db):
        db.set("s", [{"k": i % 10} for i in range(1000)])
        # 100 * 100 matching pairs per key decade explode past the cap.
        with pytest.raises(ResourceExhausted):
            db.execute(
                "SELECT a.v FROM r AS a JOIN s AS s ON a.k = s.k",
                max_rows=2000,
            )


#: 10 outer rows, 3 items each; ``p`` matches every ``o.k`` twice.
JOIN_SHAPES = {
    "explicit-lateral": (
        "SELECT o.k AS k, i AS i FROM o AS o JOIN o.items AS i ON TRUE", 40
    ),
    "comma-lateral": ("SELECT o.k AS k, i AS i FROM o AS o, o.items AS i", 40),
    # ON keeps 1 of 3 items: 10 scanned + 30 ranged, no pads.
    "left-lateral": (
        "SELECT o.k AS k, i AS i FROM o AS o LEFT JOIN o.items AS i ON i > 2", 40
    ),
    # 10 probe + 20 build + 20 joined.
    "hash-join": ("SELECT o.k AS k FROM o AS o JOIN p AS p ON o.k = p.k", 50),
    # 10 left + 20 materialized once + the 90 pairs ON keeps.
    "non-equi": ("SELECT o.k AS k FROM o AS o JOIN p AS p ON o.k < p.k", 120),
    # The 3 attributes, before the pushed filter.
    "unpivot": (
        "SELECT VALUE v FROM UNPIVOT {'a': 1, 'b': 2, 'c': 3} AS v AT n "
        "WHERE v > 1",
        3,
    ),
}

#: Under LIMIT 3 the stream pulls one row at a time and stops with the
#: third output row: what a row-at-a-time nested loop would have counted.
LIMIT_SHAPES = {
    # 2 probe rows + 20 build + 3 joined.
    "hash-join": ("SELECT o.k AS k FROM o AS o JOIN p AS p ON o.k = p.k LIMIT 3", 25),
    # 1 left row + 20 materialized once + 3 pairs.
    "comma-cross": ("SELECT o.k AS k FROM o AS o, p AS p LIMIT 3", 24),
    # 1 left row + its 3 items.
    "comma-lateral": ("SELECT o.k AS k, i AS i FROM o AS o, o.items AS i LIMIT 3", 4),
}


class TestOneAccountingPerShape:
    """A query is charged the same ``max_rows`` whichever executor runs
    it: batch and stream pull FROM from the same operator tree, whose
    operators account the same rows whatever size of chunk they are
    asked for."""

    @pytest.fixture
    def join_db(self):
        database = Database()
        database.set("o", [{"k": i, "items": [1, 2, 3]} for i in range(10)])
        database.set("p", [{"k": i % 10} for i in range(20)])
        return database

    @staticmethod
    def threshold(database, query, **dials):
        """The smallest ``max_rows`` the query completes under."""
        for limit in range(1, 400):
            try:
                run(database.execute, query, max_rows=limit, **dials)
            except ResourceExhausted:
                continue
            return limit
        raise AssertionError("never completed")

    @pytest.mark.parametrize("shape", JOIN_SHAPES)
    def test_batch_and_stream_thresholds_agree(self, join_db, shape):
        query, expected = JOIN_SHAPES[shape]
        join_db.execute(query)
        assert join_db.metrics.last.batched is True
        run(join_db.execute, query, rows=True)
        assert join_db.metrics.last.batched is False
        batch = self.threshold(join_db, query)
        stream = self.threshold(join_db, query, rows=True)
        assert batch == stream == expected
        # The oracle keeps its own eager accounting (it also counts a
        # join item's output): never cheaper, not required to be equal.
        assert self.threshold(join_db, query, optimize=False) >= expected

    def test_comma_cross_product_is_charged_its_materialization(self, join_db):
        # 10 left + 20 materialized once + 200 pairs on both executors;
        # the oracle re-enumerates ``p`` per left row and counts those
        # 200 bindings only — the one shape it is cheaper on.
        query = "SELECT o.k AS k FROM o AS o, p AS p"
        join_db.execute(query)
        assert join_db.metrics.last.batched is True
        batch = self.threshold(join_db, query)
        stream = self.threshold(join_db, query, rows=True)
        assert batch == stream == 230
        assert self.threshold(join_db, query, optimize=False) == 210

    @pytest.mark.parametrize("shape", LIMIT_SHAPES)
    def test_limit_stops_the_accounting_with_the_stream(self, join_db, shape):
        query, expected = LIMIT_SHAPES[shape]
        assert self.threshold(join_db, query, rows=True) == expected

    @pytest.mark.parametrize("dials", [{}, ROWS], ids=["batch", "stream"])
    def test_trace_has_one_span_per_scan(self, join_db, dials):
        tree = run(
            join_db.trace,
            "SELECT o.k AS k FROM o AS o, p AS p WHERE o.k = p.k",
            **dials,
        ).format_tree()
        for scan in ("Scan o AS o", "Scan p AS p"):
            assert tree.count(scan) == 1, tree
        assert "[item]" not in tree
        assert tree.count("[operator]") == 3  # the join and its two scans


class TestTimeout:
    def test_timeout_stops_instead_of_hanging(self, db):
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(CROSS_4, timeout_s=0.05)
        error = excinfo.value
        assert error.kind == "timeout"
        # It stopped shortly after the deadline, far below the time the
        # 10^8-binding cross product would need.
        assert error.elapsed_s < 5.0

    def test_timeout_on_reference_path(self, db):
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(CROSS_4, timeout_s=0.05, optimize=False)
        assert excinfo.value.kind == "timeout"

    def test_fast_query_unaffected(self, db):
        assert len(db.execute("SELECT VALUE a.v FROM r AS a", timeout_s=30)) == 100


class TestMaxRecursion:
    def test_nested_subqueries_stop(self, db):
        db.set("one", [1])
        nested = "SELECT VALUE (SELECT VALUE (SELECT VALUE x FROM one AS x) FROM one AS y) FROM one AS z"
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(nested, max_recursion=2)
        assert excinfo.value.kind == "max_recursion"
        # The same query is fine with a deep-enough budget.
        db.execute(nested, max_recursion=10)


class TestDatabaseLevelLimits:
    def test_limits_apply_to_every_query(self):
        db = Database(max_rows=50)
        db.set("r", [{"v": i} for i in range(100)])
        with pytest.raises(ResourceExhausted):
            db.execute("SELECT VALUE a.v FROM r AS a")

    def test_per_query_override_tightens(self, db):
        # No database-level limit; the per-query one still applies.
        with pytest.raises(ResourceExhausted):
            db.execute("SELECT VALUE a.v FROM r AS a", max_rows=10)

    def test_error_carries_partial_progress(self, db):
        with pytest.raises(ResourceExhausted) as excinfo:
            db.execute(CROSS_3, max_rows=100)
        assert excinfo.value.rows_produced > 0
        assert excinfo.value.elapsed_s >= 0.0


class TestConfigValidation:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            EvalConfig(timeout_s=0)

    def test_rejects_negative_max_rows(self):
        with pytest.raises(ValueError):
            EvalConfig(max_rows=-1)

    def test_rejects_zero_max_recursion(self):
        with pytest.raises(ValueError):
            EvalConfig(max_recursion=0)

    def test_has_limits(self):
        assert not EvalConfig().has_limits
        assert EvalConfig(max_rows=10).has_limits
        assert EvalConfig(timeout_s=1.5).has_limits
        assert EvalConfig(max_recursion=4).has_limits
