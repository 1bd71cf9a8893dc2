"""Catalog and Database facade."""

import pytest

from repro import Database
from repro.catalog.catalog import Catalog, validate_name
from repro.datamodel.values import Bag, Struct
from repro.errors import CatalogError


class TestCatalog:
    def test_set_get(self):
        catalog = Catalog()
        catalog.set("t", [1, 2])
        assert catalog.get("t") == [1, 2]

    def test_values_converted_to_model(self):
        catalog = Catalog()
        catalog.set("t", [{"a": 1}])
        assert isinstance(catalog.get("t")[0], Struct)

    def test_dotted_names(self):
        catalog = Catalog()
        catalog.set("hr.emp", [])
        catalog.set("hr.dept", [])
        assert catalog.namespace("hr") == ["hr.dept", "hr.emp"]

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            Catalog().get("nope")

    def test_drop(self):
        catalog = Catalog()
        catalog.set("t", 1)
        catalog.drop("t")
        assert "t" not in catalog
        with pytest.raises(CatalogError):
            catalog.drop("t")

    @pytest.mark.parametrize("name", ["", "1bad", "a..b", "a b", "a.'x'"])
    def test_invalid_names(self, name):
        with pytest.raises(CatalogError):
            validate_name(name)

    @pytest.mark.parametrize("name", ["a", "a.b.c", "_x", "$v", "hr.emp_2"])
    def test_valid_names(self, name):
        assert validate_name(name) == name


class TestDatabase:
    def test_named_value_of_any_kind(self):
        db = Database()
        db.set("answer", 42)  # a scalar named value is fine (Section II)
        assert db.execute("answer + 1") == 43

    def test_mode_defaults_and_overrides(self):
        db = Database(sql_compat=False)
        from repro.errors import BindingError

        with pytest.raises(BindingError):
            db.set("t", [{"a": 1}]) or db.execute("SELECT a FROM t AS t")
        # Per-query override turns compat back on.
        result = list(db.execute("SELECT a FROM t AS t", sql_compat=True))
        assert result[0]["a"] == 1

    def test_typing_mode_override(self):
        db = Database(typing_mode="strict")
        from repro.errors import TypeCheckError

        with pytest.raises(TypeCheckError):
            db.execute("1 + 'a'")
        assert db.execute("(1 + 'a') IS MISSING", typing_mode="permissive") is True

    def test_execute_python(self):
        db = Database()
        db.set("t", [{"a": 1}])
        assert db.execute_python("SELECT VALUE r.a FROM t AS r") == [1]

    def test_missing_as_null_flag(self):
        db = Database()
        db.set("t", [{}, {"a": 1}])
        result = db.execute("SELECT VALUE r.a FROM t AS r", missing_as_null=True)
        assert sorted(x for x in result if x is not None) == [1]
        assert None in list(result)

    def test_explain_returns_text(self):
        db = Database()
        db.set("t", [])
        assert "SELECT VALUE" in db.explain("SELECT 1 AS one FROM t AS t")

    def test_drop_clears_schema(self):
        db = Database()
        db.set("t", [{"a": 1}])
        db.set_schema("t", "BAG<STRUCT<a INT>>")
        db.drop("t")
        assert db.get_schema("t") is None

    def test_invalid_typing_mode_rejected(self):
        with pytest.raises(ValueError):
            Database(typing_mode="sloppy")

    def test_names(self):
        db = Database()
        db.set("b", 1)
        db.set("a", 2)
        assert db.names() == ["a", "b"]

    def test_load_value_literal(self):
        db = Database()
        db.load_value("t", "{{ {'a': 1} }}")
        assert isinstance(db.get("t"), Bag)

    def test_insert_appends(self):
        db = Database()
        db.set("t", [{"a": 1}])
        db.insert("t", [{"a": 2}])
        assert len(list(db.execute("SELECT VALUE r FROM t AS r"))) == 2

    def test_insert_creates_bag(self):
        db = Database()
        db.insert("t", [1, 2])
        assert isinstance(db.get("t"), Bag)

    def test_insert_respects_schema(self):
        from repro.errors import SchemaError

        db = Database()
        db.set("t", [{"a": 1}])
        db.set_schema("t", "BAG<STRUCT<a INT>>")
        with pytest.raises(SchemaError):
            db.insert("t", [{"a": "bad"}])
        assert len(list(db.get("t"))) == 1

    def test_insert_into_scalar_rejected(self):
        db = Database()
        db.set("answer", 42)
        with pytest.raises(CatalogError):
            db.insert("answer", [1])

    def test_parameters_converted(self):
        db = Database()
        result = db.execute("SELECT VALUE ?.a FROM [1] AS x", parameters=[{"a": 5}])
        assert list(result) == [5]


class TestRunSurfacesTakeTheDialsExecuteTakes:
    """``execute``, ``execute_python``, ``explain_analyze`` and ``trace``
    each really run the query, so each takes the same per-query dials —
    ``EvalConfig``'s fields, forwarded through
    ``Database._effective_config`` — and rejects anything else."""

    #: A three-way OR chain is what rule SQLPPR03 rewrites to IN.
    QUERY = (
        "SELECT VALUE o.v FROM orders AS o WHERE o.k = 1 OR o.k = 2 OR o.k = 9"
    )

    @pytest.fixture
    def db(self):
        database = Database()
        database.set("orders", [{"k": i % 4, "v": i} for i in range(40)])
        return database

    def test_explain_analyze(self, db):
        assert "SQLPPR03" in db.explain_analyze(self.QUERY)
        report = db.explain_analyze(self.QUERY, rewrite=False)
        assert "rewrites: none" in report
        assert db.metrics.last.rewrites == []
        assert "rows returned: 20" in report
        streamed = db.explain_analyze(self.QUERY, batch=False, max_rows=1000)
        assert "executor: stream (batch=False)" in streamed
        assert "executor: reference" in db.explain_analyze(
            self.QUERY, optimize=False
        )

    def test_trace(self, db):
        db.trace(self.QUERY)
        assert db.metrics.last.batched is True
        assert db.metrics.last.rewrites == ["SQLPPR03"]
        db.trace(self.QUERY, batch=False)
        assert db.metrics.last.batched is False
        assert db.metrics.last.streamed is True
        db.trace(self.QUERY, rewrite=False)
        assert db.metrics.last.rewrites == []
        context = db.trace(self.QUERY, parallel=2)
        assert db.metrics.last.status == "ok"
        assert "execute" in context.format_tree()

    def test_execute_python(self, db):
        assert sorted(db.execute_python(self.QUERY, batch=False)) == sorted(
            db.execute_python(self.QUERY)
        )
        assert db.metrics.last.batched is True
        db.execute_python(self.QUERY, optimize=False)
        assert db.metrics.last.streamed is False

    def test_limits_apply_on_every_surface(self, db):
        from repro.errors import ResourceExhausted

        for run in (db.execute, db.execute_python, db.explain_analyze, db.trace):
            with pytest.raises(ResourceExhausted):
                run(self.QUERY, max_rows=3)

    def test_an_unknown_dial_is_a_type_error_everywhere(self, db):
        for run in (db.execute, db.execute_python, db.explain_analyze, db.trace):
            with pytest.raises(TypeError):
                run(self.QUERY, vectorise=True)
