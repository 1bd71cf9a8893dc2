"""Schema inference, static type checking, and the query-stability tenet."""

import pytest

from repro import Database
from repro.datamodel.convert import from_python
from repro.datamodel.equality import deep_equals
from repro.schema import (
    FloatType,
    IntegerType,
    StringType,
    UnionType,
    check_query,
    infer_schema,
    validate,
)


class TestInference:
    def test_scalars(self):
        assert infer_schema(1) == IntegerType()
        assert infer_schema("x") == StringType()

    def test_homogeneous_collection(self):
        schema = infer_schema(from_python([1, 2, 3]))
        assert str(schema) == "ARRAY<INT>"

    def test_numeric_widening(self):
        schema = infer_schema(from_python([1, 2.5]))
        assert schema.element == FloatType()

    def test_heterogeneous_union(self):
        schema = infer_schema(from_python(["a", 1]))
        assert isinstance(schema.element, UnionType)

    def test_optional_fields(self):
        schema = infer_schema(from_python([{"a": 1}, {"a": 2, "b": "x"}]))
        struct = schema.element
        assert not struct.field_named("a").optional
        assert struct.field_named("b").optional

    def test_nullable_fields(self):
        schema = infer_schema(from_python([{"a": None}, {"a": 1}]))
        assert schema.element.field_named("a").nullable

    def test_inferred_schema_validates_its_data(self):
        data = from_python(
            [
                {"id": 1, "tags": ["a"], "meta": {"x": 1}},
                {"id": 2, "tags": [], "extra": 2.5},
                {"id": 3, "tags": ["b", "c"], "meta": {"x": None}},
            ]
        )
        validate(data, infer_schema(data))


class TestStaticChecker:
    def make_db(self):
        db = Database()
        db.set("emp", [{"name": "a", "salary": 10, "projects": ["x"]}])
        db.set_schema(
            "emp", "BAG<STRUCT<name STRING, salary INT, projects ARRAY<STRING>>>"
        )
        return db

    def findings(self, db, query):
        return check_query(db.compile(query), db._schemas)

    def test_clean_query_has_no_findings(self):
        db = self.make_db()
        assert self.findings(db, "SELECT e.name AS n FROM emp AS e") == []

    def test_unknown_attribute_in_closed_struct(self):
        db = self.make_db()
        findings = self.findings(db, "SELECT e.bogus AS b FROM emp AS e")
        assert any("bogus" in finding for finding in findings)

    def test_from_over_scalar_attribute(self):
        db = self.make_db()
        findings = self.findings(
            db, "SELECT VALUE x FROM emp AS e, e.salary AS x"
        )
        assert any("non-collection" in finding for finding in findings)

    def test_arithmetic_on_string(self):
        db = self.make_db()
        findings = self.findings(db, "SELECT VALUE e.name * 2 FROM emp AS e")
        assert any("arithmetic" in finding for finding in findings)

    def test_unnesting_array_is_fine(self):
        db = self.make_db()
        assert (
            self.findings(db, "SELECT VALUE p FROM emp AS e, e.projects AS p")
            == []
        )

    def test_array_concatenation_is_an_array(self):
        db = Database()
        db.set("t", [{"b": [1, 2], "s": "x"}])
        db.set_schema("t", "BAG<STRUCT<b ARRAY<INT>, s STRING>>")
        assert self.findings(db, "SELECT VALUE (r.b || r.b)[0] FROM t AS r") == []

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT VALUE (r.b || r.b)[0] FROM t AS r",
            "SELECT VALUE r.s * 2 FROM t AS r",
            "SELECT VALUE -r.s FROM t AS r",
            "SELECT VALUE x FROM t AS r, r.s AS x",
            "SELECT VALUE r FROM t AS r ORDER BY r.b || r.b",
            "SELECT VALUE r.nosuch FROM t AS r",
        ],
    )
    def test_check_query_is_a_view_of_db_check(self, query):
        from repro.analysis.typeflow import TYPE_RULES

        db = Database()
        db.set("t", [{"b": [1, 2], "s": "x"}])
        db.set_schema("t", "BAG<STRUCT<b ARRAY<INT>, s STRING>>")
        linted = [d.message for d in db.check(query) if d.code in TYPE_RULES]
        assert self.findings(db, query) == linted

    def test_no_schema_means_no_findings(self):
        db = Database()
        db.set("t", [{"anything": 1}])
        assert check_query(db.compile("SELECT VALUE r.x.y FROM t AS r"), {}) == []


class TestQueryStability:
    """Tenet 3: imposing a schema must not change any query result."""

    QUERIES = [
        "SELECT e.name AS n, p AS p FROM emp AS e, e.projects AS p",
        "SELECT e.title AS t, COUNT(*) AS n FROM emp AS e GROUP BY e.title",
        "SELECT VALUE e.salary FROM emp AS e ORDER BY e.salary",
        "PIVOT e.salary AT e.name FROM emp AS e",
    ]

    def make_data(self):
        return [
            {"id": 1, "name": "a", "title": "X", "salary": 10, "projects": ["p"]},
            {"id": 2, "name": "b", "title": "Y", "salary": 20, "projects": []},
        ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_results_identical_with_and_without_schema(self, query):
        without = Database()
        without.set("emp", self.make_data())

        with_schema = Database()
        with_schema.set("emp", self.make_data())
        with_schema.set_schema(
            "emp",
            "BAG<STRUCT<id INT, name STRING, title STRING, salary INT, "
            "projects ARRAY<STRING>>>",
        )
        assert deep_equals(without.execute(query), with_schema.execute(query))

    def test_nonconforming_schema_rejected_upfront(self):
        db = Database()
        db.set("emp", [{"id": "not an int"}])
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            db.set_schema("emp", "BAG<STRUCT<id INT>>")

    def test_set_validates_against_existing_schema(self):
        db = Database()
        db.set("emp", [{"id": 1}])
        db.set_schema("emp", "BAG<STRUCT<id INT>>")
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            db.set("emp", [{"id": "nope"}])
