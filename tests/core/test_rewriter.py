"""The sugar → Core rewriter itself, observed through ``explain``."""

import pytest

from repro.datamodel.convert import to_python


@pytest.fixture
def edb(db):
    db.set("emp", [{"name": "a", "deptno": 1, "salary": 10}])
    db.set("dept", [{"deptno": 1, "dname": "eng"}])
    return db


class TestSelectSugar:
    def test_select_list_lowers_to_select_value(self, edb):
        plan = edb.explain("SELECT e.name AS n FROM emp AS e")
        assert "SELECT VALUE {'n': e.name}" in plan

    def test_inferred_aliases_in_struct(self, edb):
        plan = edb.explain("SELECT e.name, e.salary FROM emp AS e")
        assert "'name': e.name" in plan
        assert "'salary': e.salary" in plan

    def test_lowering_happens_in_core_mode_too(self, edb):
        plan = edb.explain("SELECT e.name AS n FROM emp AS e", sql_compat=False)
        assert "SELECT VALUE" in plan

    def test_select_value_untouched(self, edb):
        plan = edb.explain("SELECT VALUE e FROM emp AS e")
        assert plan == "SELECT VALUE e FROM emp AS e"


class TestAggregateSugar:
    def test_listing15_shape(self, edb):
        plan = edb.explain(
            "SELECT AVG(e.salary) AS avgsal FROM emp AS e WHERE e.title = 'x'"
        )
        assert "COLL_AVG" in plan
        assert "GROUP AS" in plan
        assert "SELECT VALUE" in plan

    def test_count_star_becomes_count_of_ones(self, edb):
        plan = edb.explain("SELECT COUNT(*) AS n FROM emp AS e")
        assert "COLL_COUNT((SELECT VALUE 1" in plan

    def test_group_key_replaced_by_alias(self, edb):
        plan = edb.explain(
            "SELECT e.deptno, AVG(e.salary) AS a FROM emp AS e GROUP BY e.deptno"
        )
        # The SELECT references the key alias, not the dead variable e.
        assert "{'deptno': deptno" in plan

    def test_distinct_aggregate(self, edb):
        plan = edb.explain("SELECT COUNT(DISTINCT e.deptno) AS n FROM emp AS e")
        assert "SELECT DISTINCT VALUE" in plan

    def test_no_aggregate_rewrite_in_core_mode(self, edb):
        plan = edb.explain(
            "SELECT VALUE AVG([1, 2]) FROM emp AS e", sql_compat=False
        )
        assert "GROUP AS" not in plan

    def test_existing_group_as_is_reused(self, edb):
        plan = edb.explain(
            "FROM emp AS e GROUP BY e.deptno AS d GROUP AS grp "
            "SELECT d AS d, COUNT(*) AS n"
        )
        assert "FROM grp AS" in plan

    @pytest.mark.parametrize("optimize", [True, False])
    def test_set_operation_operand_shadows_block_variable(self, db, optimize):
        # Each UNION operand rebinds ``e``: its ``e`` is not the grouped
        # row's, so it must not become ``$g_elem.e``.
        db.set("emp", [{"salary": 1}, {"salary": 2}])
        db.set("t", [1, 2, 3])
        query = (
            "SELECT SUM(COLL_SUM((SELECT VALUE e FROM t AS e UNION ALL "
            "SELECT VALUE e FROM t AS e))) AS m FROM emp AS e"
        )
        assert "$g_elem2.e" not in db.explain(query)
        assert to_python(db.execute(query, optimize=optimize)) == [{"m": 24}]


class TestBareColumns:
    def test_single_from_variable(self, edb):
        plan = edb.explain("SELECT name FROM emp AS e WHERE salary > 5")
        assert "e.name" in plan
        assert "e.salary" in plan

    def test_execution_with_bare_columns(self, edb):
        result = list(edb.execute("SELECT name FROM emp AS e"))
        assert result[0]["name"] == "a"

    def test_catalog_names_not_captured(self, edb):
        plan = edb.explain("SELECT e.name FROM emp AS e WHERE EXISTS dept")
        assert "e.dept" not in plan

    def test_group_alias_not_captured(self, edb):
        plan = edb.explain(
            "SELECT d FROM emp AS e GROUP BY e.deptno AS d"
        )
        assert "{'d': d}" in plan

    def test_core_mode_requires_explicit_variables(self, edb):
        from repro.errors import BindingError

        with pytest.raises(BindingError):
            edb.execute("SELECT name FROM emp AS e", sql_compat=False)

    def test_two_from_vars_without_schema_unresolved(self, edb):
        from repro.errors import BindingError

        with pytest.raises(BindingError):
            edb.execute("SELECT name FROM emp AS e, dept AS d")

    def test_schema_disambiguates_across_two_tables(self, edb):
        edb.set_schema(
            "emp", "BAG<STRUCT<name STRING, deptno INT, salary INT>>"
        )
        edb.set_schema("dept", "BAG<STRUCT<deptno INT, dname STRING>>")
        result = list(
            edb.execute(
                "SELECT name, dname FROM emp AS e, dept AS d "
                "WHERE e.deptno = d.deptno"
            )
        )
        assert result[0].to_dict() == {"name": "a", "dname": "eng"}

    def test_ambiguous_column_stays_unresolved(self, edb):
        from repro.errors import BindingError

        edb.set_schema("emp", "BAG<STRUCT<deptno INT, ...>>")
        edb.set_schema("dept", "BAG<STRUCT<deptno INT, ...>>")
        with pytest.raises(BindingError):
            edb.execute("SELECT deptno FROM emp AS e, dept AS d")


class TestCoercionMarking:
    def test_scalar_context_marked(self, edb):
        plan = edb.explain("1 = (SELECT e.salary FROM emp AS e)")
        assert "COERCE_SCALAR" in plan

    def test_collection_context_marked(self, edb):
        plan = edb.explain("1 IN (SELECT e.salary FROM emp AS e)")
        assert "COERCE_COLLECTION" in plan

    def test_select_value_not_marked(self, edb):
        plan = edb.explain("1 = (SELECT VALUE e.salary FROM emp AS e)")
        assert "COERCE" not in plan

    def test_core_mode_never_marks(self, edb):
        plan = edb.explain(
            "1 = (SELECT e.salary FROM emp AS e)", sql_compat=False
        )
        assert "COERCE" not in plan

    def test_window_aggregate_argument_is_scalar(self, edb):
        # A window's own call is not a grouping aggregate: its argument is
        # one value per row, not the collection an aggregate call takes.
        query = (
            "SELECT e.name AS n, SUM((SELECT x.salary FROM emp AS x "
            "WHERE x.name = e.name)) OVER () AS s FROM emp AS e"
        )
        assert "SUM(COERCE_SCALAR(" in edb.explain(query)
        assert to_python(edb.execute(query)) == [{"n": "a", "s": 10}]

    def test_from_position_not_marked(self, edb):
        plan = edb.explain("SELECT VALUE v FROM (SELECT e.name FROM emp AS e) AS v")
        assert "COERCE" not in plan


CAPTURE_QUERY = (
    "SELECT VALUE (SELECT SUM(y.b + {z}.b) AS s FROM t AS y) FROM t AS {z}"
)


class TestGeneratedNames:
    """``$`` is a legal identifier character, so a user variable can be
    spelled like a generated one; the generated names must avoid it."""

    @pytest.mark.parametrize("optimize", [True, False])
    def test_user_variable_spelled_like_group_element_is_not_captured(
        self, db, optimize
    ):
        db.set("t", [{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 5}])
        plain = db.execute(CAPTURE_QUERY.format(z="z"), optimize=optimize)
        renamed = db.execute(CAPTURE_QUERY.format(z="$g_elem2"), optimize=optimize)
        assert sorted(to_python(plain), key=str) == [
            [{"s": 16}],
            [{"s": 19}],
            [{"s": 25}],
        ]
        assert sorted(to_python(renamed), key=str) == sorted(
            to_python(plain), key=str
        )

    def test_generated_names_skip_the_taken_one(self, db):
        db.set("t", [{"b": 1}])
        plan = db.explain(CAPTURE_QUERY.format(z="$g_elem2"))
        assert "$group1 AS $g_elem3" in plan
        assert "$g_elem3.y.b" in plan
