"""Catalog and Database facade."""

import pytest

from repro import Database, to_python
from repro.catalog.catalog import Catalog, validate_name
from repro.datamodel.values import Bag, Struct
from repro.errors import CatalogError
from tests.rows_mode import REASON, rows_mode


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


class TestCatalogWatch:
    class Recorder:
        def __init__(self):
            self.seen = []

        def changed(self, name, appended):
            self.seen.append((name, appended))

    def test_watcher_is_told_what_was_appended(self):
        catalog, recorder = Catalog(), self.Recorder()
        catalog.watch(recorder.changed)
        catalog.set("t", [1])
        catalog.append("t", [2, 3])
        catalog.append("u", [4])  # created: nothing to advance from
        catalog.drop("t")
        assert recorder.seen == [("t", None), ("t", [2, 3]), ("u", None), ("t", None)]

    def test_watching_keeps_nothing_alive(self):
        import gc
        import weakref

        catalog, recorder = Catalog(), self.Recorder()
        catalog.watch(recorder.changed)
        gone = weakref.ref(recorder)
        del recorder
        assert gone() is None
        catalog.set("t", [1])  # the dead watcher is skipped
        # ... so a database's catalog and statistics form no cycle:
        # dropping the database frees its data without the collector.
        gc.disable()
        try:
            db = Database()
            db.set("t", [{"a": 1}])
            data = weakref.ref(db.catalog)
            del db
            assert data() is None
        finally:
            gc.enable()


class TestInsertSemantics:
    """``insert`` costs what the batch costs and changes nothing unless
    it succeeds (docs/PLANNER.md "Statistics")."""

    def test_existing_elements_are_shared_and_old_values_stay_snapshots(self):
        db = Database()
        db.set("t", [{"a": 1}, {"a": 2}])
        before = db.get("t")
        elements = list(before)
        db.insert("t", [{"a": 3}])
        after = db.get("t")
        assert after is not before and len(before) == 2
        assert all(x is y for x, y in zip(after, elements))
        assert to_python(after) == [{"a": 1}, {"a": 2}, {"a": 3}]

    def test_array_keeps_order_and_stays_an_array(self):
        db = Database()
        db.catalog.set_model("xs", [3, 1])
        db.insert("xs", [2, 0])
        assert db.get("xs") == [3, 1, 2, 0]
        db.set_schema("xs", "ARRAY<INT>")
        db.insert("xs", [9])
        assert db.get("xs") == [3, 1, 2, 0, 9]

    def test_absent_name_becomes_a_bag_under_its_schema(self):
        from repro.errors import SchemaError

        db = Database()
        db.set_schema("t", "BAG<STRUCT<a INT>>")
        with pytest.raises(SchemaError, match=r"t\[1\]\.a"):
            db.insert("t", [{"a": 1}, {"a": "bad"}])
        assert "t" not in db.catalog
        db.insert("t", [{"a": 1}])
        assert isinstance(db.get("t"), Bag)

    def test_lazy_value_is_read_only(self):
        pulled = []

        def factory():
            for i in range(3):
                pulled.append(i)
                yield {"a": i}

        db = Database()
        db.set_lazy("t", factory)
        lazy = db.get("t")
        with pytest.raises(CatalogError, match="lazy"):
            db.insert("t", [{"a": 9}])
        db.set_schema("u", "BAG<STRUCT<a INT>>")
        db.set_lazy("u", factory)
        with pytest.raises(CatalogError, match="lazy"):
            db.insert("u", [{"a": 9}])
        assert db.get("t") is lazy and pulled == []

    def test_violation_in_element_j_leaves_everything_untouched(self):
        from repro.errors import SchemaError

        db = Database()
        db.set("t", [{"a": i} for i in range(50)])
        db.set_schema("t", "BAG<STRUCT<a INT>>")
        query = "SELECT VALUE r.a FROM t AS r WHERE r.a >= 0"
        db.execute(query)
        db.execute(query)  # past the feedback re-plan
        value, version = db.get("t"), db.catalog.version_of("t")
        stats, generation = db._stats.stats_for("t"), db._stats.generation
        counters = dict(db.metrics.counters)
        with pytest.raises(SchemaError, match=r"^t\[52\]\.a: expected INT"):
            db.insert("t", [{"a": 50}, {"a": 51}, {"a": "bad"}, {"a": 53}])
        assert db.get("t") is value and len(value) == 50
        assert db.catalog.version_of("t") == version
        assert db._stats.stats_for("t") is stats
        assert db._stats.generation == generation
        assert db.metrics.counters == counters
        assert "plan: reused — t +0.0 % rows" in db.explain_plan(query)

    def test_union_of_collection_types_validates_the_whole_value(self):
        from repro.errors import SchemaError
        from repro.schema.types import ArrayType, BagType, IntegerType, UnionType

        schema = UnionType((BagType(IntegerType()), ArrayType(IntegerType())))
        db = Database()
        db.set("t", [1, 2])
        db.set_schema("t", schema)
        db.insert("t", [3])
        with pytest.raises(SchemaError, match="matches no alternative"):
            db.insert("t", ["bad"])
        assert to_python(db.get("t")) == [1, 2, 3]

    def test_versions_are_per_name(self):
        db = Database()
        db.set("a", [1])
        db.set("b", [1])
        db.insert("a", [2])
        assert (db.catalog.version_of("a"), db.catalog.version_of("b")) == (2, 1)
        db.drop("a")
        db.set("a", [1])
        assert db.catalog.version_of("a") == 4  # never repeats across a drop
        assert db.catalog.version_of("nope") == 0


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
        with rows_mode():
            streamed = db.explain_analyze(self.QUERY, max_rows=1000)
        assert f"executor: stream ({REASON})" in streamed
        report = db.explain_analyze(self.QUERY, optimize=False)
        assert "rewrites: none" in report
        assert db.metrics.last.rewrites == []
        assert "rows returned: 20" in report
        assert "executor: reference" in report

    def test_trace(self, db):
        db.trace(self.QUERY)
        assert db.metrics.last.batched is True
        assert db.metrics.last.rewrites == ["SQLPPR03"]
        with rows_mode():
            db.trace(self.QUERY)
        assert db.metrics.last.batched is False
        assert db.metrics.last.streamed is True
        context = db.trace(self.QUERY, optimize=False)
        assert db.metrics.last.rewrites == []
        assert db.metrics.last.status == "ok"
        assert "execute" in context.format_tree()

    def test_execute_python(self, db):
        with rows_mode():
            rows = db.execute_python(self.QUERY, max_rows=1000)
        assert sorted(rows) == sorted(db.execute_python(self.QUERY))
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

    def test_the_removed_parallel_dial(self, db, capsys):
        # A per-query ``parallel`` still runs, serially, with a warning;
        # the constructor keyword and the CLI flag are gone.  ``batch``
        # and ``rewrite`` are gone everywhere: the executor's mode and
        # the rewrite registry are the engine's own decisions.
        from repro.cli import main

        with pytest.warns(DeprecationWarning, match="parallel"):
            fanned = db.execute(self.QUERY, parallel=2)
        assert fanned == db.execute(self.QUERY)
        for removed in ("parallel", "batch", "rewrite"):
            with pytest.raises(TypeError):
                Database(**{removed: 2 if removed == "parallel" else False})
        for removed in ("batch", "rewrite"):
            with pytest.raises(TypeError):
                db.execute(self.QUERY, **{removed: False})
        for flag in ("--parallel", "--no-batch", "--no-rewrite"):
            arguments = [flag, "2"] if flag == "--parallel" else [flag]
            with pytest.raises(SystemExit) as exit_info:
                main(arguments + ["-c", "SELECT VALUE 1"])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_eval_config_holds_the_two_dials_the_oracle_switch_and_limits(self):
        import dataclasses

        from repro.config import EvalConfig

        assert [field.name for field in dataclasses.fields(EvalConfig)] == [
            "typing_mode", "sql_compat", "optimize",
            "timeout_s", "max_rows", "max_recursion",
        ]
        # ``Database`` restates none of them: they pass through.
        assert Database(max_rows=5)._config == EvalConfig(max_rows=5)
