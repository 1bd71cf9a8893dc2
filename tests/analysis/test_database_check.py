"""``Database.check``: catalog wiring, schema and sample seeding, and
the lint metrics counters."""

from repro import Database
from repro.analysis.diagnostics import ERROR


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestCheck:
    def test_clean_query(self):
        db = Database()
        db.set("emp", [{"name": "bob"}])
        assert db.check("SELECT VALUE e.name FROM emp AS e") == []

    def test_never_raises_on_bad_query(self):
        db = Database()
        assert codes(db.check("SELECT FROM")) == ["SQLPP000"]

    def test_unknown_collection_core_mode(self):
        db = Database(sql_compat=False)
        found = db.check("SELECT VALUE x FROM nowhere AS x")
        assert "SQLPP001" in codes(found)

    def test_registered_schema_closes_the_shape(self):
        db = Database()
        db.set_schema("emp", "BAG<STRUCT<name STRING>>")
        db.set("emp", [{"name": "bob"}])
        found = db.check("SELECT VALUE e.salary FROM emp AS e")
        assert "SQLPP101" in codes(found)

    def test_sampled_values_stay_open(self):
        # Samples prove what exists, not what can't: no always-MISSING
        # conclusion from data alone.
        db = Database()
        db.set("emp", [{"name": "bob"}])
        found = db.check("SELECT VALUE e.salary FROM emp AS e")
        assert "SQLPP101" not in codes(found)

    def test_sampling_still_types_known_attributes(self):
        db = Database()
        db.set("emp", [{"name": "bob", "age": 41}])
        found = db.check(
            "SELECT VALUE e FROM emp AS e WHERE e.name > e.age"
        )
        assert "SQLPP102" in codes(found)

    def test_a_null_index_is_not_always_missing(self):
        # n[i] with i NULL is NULL on the engine and the oracle alike.
        db = Database()
        db.set("t", [{"n": 5, "i": None}])
        query = "SELECT VALUE r.n[r.i] FROM t AS r"
        for typing_mode in ("permissive", "strict"):
            for optimize in (True, False):
                result = db.execute(
                    query, typing_mode=typing_mode, optimize=optimize
                )
                assert list(result) == [None]
            assert db.check(query, typing_mode=typing_mode) == []

    def test_suppress_parameter(self):
        db = Database()
        db.set("emp", [{"name": "bob", "age": 41}])
        found = db.check(
            "SELECT VALUE e FROM emp AS e WHERE e.name > e.age",
            suppress=("SQLPP102",),
        )
        assert found == []

    def test_mode_overrides(self):
        db = Database()
        db.set("emp", [{"name": "bob"}])
        compat_clean = db.check("SELECT VALUE name FROM emp AS e")
        core_found = db.check(
            "SELECT VALUE name FROM emp AS e", sql_compat=False
        )
        assert compat_clean == []
        assert "SQLPP001" in codes(core_found)


class TestMetrics:
    def test_counters_accumulate(self):
        db = Database()
        db.check("SELECT VALUE 1")
        db.check("SELECT FROM")
        db.check("SELECT VALUE 1 = 'a'")
        counters = db.metrics.snapshot()["counters"]
        assert counters["lint_checks"] == 3
        assert counters["lint_errors"] == 1
        assert counters["lint_warnings"] == 1

    def test_exposed_in_prometheus_text(self):
        db = Database()
        db.check("SELECT FROM")
        text = db.metrics.expose_text()
        assert "repro_lint_checks 1" in text
        assert "repro_lint_errors 1" in text


class TestSeverities:
    def test_error_findings_are_runtime_failures(self):
        db = Database(sql_compat=False)
        found = db.check("SELECT VALUE nosuch FROM [1] AS x")
        assert any(d.severity == ERROR for d in found)
