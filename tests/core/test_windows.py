"""Window functions over the binding stream (Section V-B compatibility)."""

import pytest

from repro.errors import EvaluationError

from tests.conftest import bag_of
from tests.rows_mode import ROWS, run


@pytest.fixture
def wdb(db):
    db.set(
        "emps",
        [
            {"name": "a", "dept": 1, "salary": 100},
            {"name": "b", "dept": 1, "salary": 200},
            {"name": "c", "dept": 1, "salary": 200},
            {"name": "d", "dept": 2, "salary": 50},
            {"name": "e", "dept": 2, "salary": 150},
        ],
    )
    return db


def by_name(result):
    return {row["name"]: row["w"] for row in (s.to_dict() for s in bag_of(result))}


class TestRanking:
    def test_row_number(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, ROW_NUMBER() OVER (PARTITION BY e.dept "
                "ORDER BY e.salary) AS w FROM emps AS e"
            )
        )
        assert result["a"] == 1
        assert result["d"] == 1
        assert result["e"] == 2

    def test_rank_with_ties(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, RANK() OVER (PARTITION BY e.dept "
                "ORDER BY e.salary) AS w FROM emps AS e"
            )
        )
        assert result["b"] == 2 and result["c"] == 2

    def test_dense_rank(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, DENSE_RANK() OVER (ORDER BY e.salary) AS w "
                "FROM emps AS e"
            )
        )
        assert result["b"] == result["c"] == 4 or result["b"] == result["c"] == 3

    def test_percent_rank(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, PERCENT_RANK() OVER (PARTITION BY e.dept "
                "ORDER BY e.salary) AS w FROM emps AS e"
            )
        )
        assert result["d"] == 0.0 and result["e"] == 1.0

    def test_ntile(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, NTILE(2) OVER (ORDER BY e.salary) AS w "
                "FROM emps AS e"
            )
        )
        assert sorted(result.values()) == [1, 1, 1, 2, 2]


class TestOffsetsAndValues:
    def test_lag_default_null(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, LAG(e.salary) OVER (PARTITION BY e.dept "
                "ORDER BY e.salary) AS w FROM emps AS e"
            )
        )
        assert result["d"] is None
        assert result["e"] == 50

    def test_lead_with_default(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, LEAD(e.salary, 1, -1) OVER (PARTITION BY e.dept "
                "ORDER BY e.salary) AS w FROM emps AS e"
            )
        )
        assert result["e"] == -1

    def test_first_value(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, FIRST_VALUE(e.salary) OVER (PARTITION BY e.dept "
                "ORDER BY e.salary) AS w FROM emps AS e"
            )
        )
        assert result["b"] == 100 and result["e"] == 50


class TestWindowedAggregates:
    def test_whole_partition_without_order(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, SUM(e.salary) OVER (PARTITION BY e.dept) AS w "
                "FROM emps AS e"
            )
        )
        assert result["a"] == 500 and result["d"] == 200

    def test_running_sum_with_order(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, SUM(e.salary) OVER (PARTITION BY e.dept "
                "ORDER BY e.salary) AS w FROM emps AS e"
            )
        )
        assert result["a"] == 100
        # b and c are salary peers: RANGE semantics include both.
        assert result["b"] == result["c"] == 500

    @pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
    @pytest.mark.parametrize(
        "dials", [{}, ROWS, {"optimize": False}],
        ids=["batch", "stream", "oracle"],
    )
    def test_running_aggregate_steps_once_per_peer_group(
        self, wdb, typing_mode, dials
    ):
        # Peer groups: dept 1 {100}, {200, 200}; dept 2 {50}, {150}.  The
        # running state takes one step per peer group instead of
        # re-aggregating the prefix.
        from unittest import mock

        from repro.functions.registry import REGISTRY

        machine = REGISTRY.lookup("COLL_SUM").fn
        with mock.patch.object(machine, "step", wraps=machine.step) as step:
            result = by_name(
                run(
                    wdb.execute,
                    "SELECT e.name, SUM(e.salary) OVER (PARTITION BY e.dept "
                    "ORDER BY e.salary) AS w FROM emps AS e",
                    typing_mode=typing_mode,
                    **dials,
                )
            )
        assert step.call_count == 4
        assert sorted(len(call.args[2]) for call in step.call_args_list) == [1, 1, 1, 2]
        assert result == {"a": 100, "b": 500, "c": 500, "d": 50, "e": 200}

    def test_count_star_window(self, wdb):
        result = by_name(
            wdb.execute(
                "SELECT e.name, COUNT(*) OVER (PARTITION BY e.dept) AS w "
                "FROM emps AS e"
            )
        )
        assert result["a"] == 3 and result["d"] == 2

    def test_window_over_nested_data(self, paper_db):
        # Windows compose with unnesting: rank projects per employee.
        result = bag_of(
            paper_db.execute(
                "SELECT e.name, p AS p, ROW_NUMBER() OVER (PARTITION BY e.id "
                "ORDER BY p) AS w FROM hr.emp_nest_scalars AS e, e.projects AS p"
            )
        )
        bob_rows = [s.to_dict() for s in result if s["name"] == "Bob Smith"]
        assert sorted(row["w"] for row in bob_rows) == [1, 2, 3]


class TestWindowErrors:
    def test_window_outside_select_rejected(self, wdb):
        with pytest.raises(EvaluationError):
            wdb.execute(
                "SELECT VALUE e FROM emps AS e "
                "WHERE ROW_NUMBER() OVER (ORDER BY e.salary) = 1"
            )

    def test_non_window_function_with_over(self, wdb):
        with pytest.raises(EvaluationError):
            wdb.execute("SELECT LOWER(e.name) OVER () AS w FROM emps AS e")


class TestWindowOrderingIsTheQuerysOrdering:
    """A window's ORDER BY goes through the sort the query's ORDER BY
    uses, so NULLS FIRST / LAST mean the same in both (they used to be
    parsed and ignored: engine and oracle shared the code, so parity
    never saw it)."""

    TABLE = [{"id": 1, "a": 3}, {"id": 2, "a": None}, {"id": 3, "a": 1}, {"id": 4}]

    @pytest.mark.parametrize(
        "ordering",
        [
            "r.a", "r.a DESC", "r.a NULLS LAST", "r.a NULLS FIRST",
            "r.a DESC NULLS FIRST", "r.a DESC NULLS LAST",
        ],
    )
    @pytest.mark.parametrize(
        "dials", [{}, ROWS, {"optimize": False}], ids=str
    )
    def test_row_number_follows_the_sorted_query(self, db, ordering, dials):
        db.set("t", self.TABLE)
        ordered = run(
            db.execute_python,
            f"SELECT VALUE r.id FROM t AS r ORDER BY {ordering}", **dials
        )
        numbered = run(
            db.execute_python,
            f"SELECT r.id AS id, ROW_NUMBER() OVER (ORDER BY {ordering}) AS rn "
            "FROM t AS r",
            **dials,
        )
        by_number = sorted(numbered, key=lambda row: row["rn"])
        assert [row["id"] for row in by_number] == ordered

    def test_nulls_last_and_desc_nulls_first(self, db):
        db.set("t", self.TABLE)
        assert db.execute_python(
            "SELECT VALUE r.id FROM t AS r ORDER BY r.a NULLS LAST"
        ) == [3, 1, 4, 2]
        lag = db.execute_python(
            "SELECT r.id AS id, LAG(r.id) OVER (ORDER BY r.a DESC NULLS FIRST) "
            "AS prev FROM t AS r"
        )
        assert {row["id"]: row["prev"] for row in lag} == {2: None, 4: 2, 1: 4, 3: 1}
