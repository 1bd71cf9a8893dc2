"""One test class per lint rule: every documented code fires on a
minimal trigger, stays silent on the corrected query, and reports a
usable source position."""

import pytest

from repro import Database
from repro.analysis import AnalyzerOptions, analyze
from repro.analysis.lattice import from_schema
from repro.analysis.rules import RULES, rule_for
from repro.config import EvalConfig
from repro.errors import BindingError
from repro.schema.ddl import parse_schema

EMP_SCHEMA = from_schema(
    parse_schema("BAG<STRUCT<name STRING, age INT, dept STRING>>")
)

SCHEMA_OPTS = AnalyzerOptions(
    config=EvalConfig(sql_compat=True),
    catalog_types={"emp": EMP_SCHEMA},
    schema_attrs={"emp": {"name", "age", "dept"}},
)

COMPAT_OPTS = AnalyzerOptions(
    config=EvalConfig(sql_compat=True), catalog_names=("emp",)
)

CORE_OPTS = AnalyzerOptions(
    config=EvalConfig(sql_compat=False), catalog_names=("emp",)
)


def codes(source, options=None):
    return [d.code for d in analyze(source, options)]


def find(source, code, options=None):
    matches = [d for d in analyze(source, options) if d.code == code]
    assert matches, f"expected {code}, got {codes(source, options)}"
    return matches[0]


class TestRegistry:
    def test_catalog_has_at_least_twelve_documented_rules(self):
        assert len(RULES) >= 12
        for code, rule in RULES.items():
            assert code == rule.code
            assert rule.summary
            assert rule.severity in ("error", "warning", "info")

    def test_rule_for_unknown_code(self):
        with pytest.raises(KeyError):
            rule_for("SQLPP999")


class TestSyntaxError000:
    def test_parse_error_is_a_finding(self):
        diagnostic = find("SELECT FROM WHERE", "SQLPP000")
        assert diagnostic.severity == "error"
        assert diagnostic.line == 1

    def test_lex_error_is_a_finding(self):
        assert "SQLPP000" in codes("SELECT VALUE 'unterminated")


class TestUnboundVariable001:
    def test_unbound_name(self):
        diagnostic = find(
            "SELECT VALUE nosuch FROM emp AS e", "SQLPP001", CORE_OPTS
        )
        assert diagnostic.severity == "error"
        assert "nosuch" in diagnostic.message

    def test_compat_single_from_var_disambiguates(self):
        # SQL-compat mode reads a bare name as e.nosuch, which is a
        # legal (MISSING-producing) navigation, not an unbound name.
        assert "SQLPP001" not in codes(
            "SELECT VALUE nosuch FROM emp AS e", COMPAT_OPTS
        )

    def test_catalog_name_resolves(self):
        assert codes("SELECT VALUE e.name FROM emp AS e", CORE_OPTS) == []

    def test_post_group_by_scope(self):
        # After GROUP BY only key aliases and GROUP AS survive.
        assert "SQLPP001" in codes(
            "SELECT VALUE e FROM emp AS e GROUP BY e.dept AS d",
            CORE_OPTS,
        )

    def test_unbound_name_inside_case(self):
        # Two FROM variables: the bare name is not disambiguated, and
        # evaluation raises BindingError.
        query = (
            "SELECT VALUE CASE WHEN nosuch > 1 THEN 1 ELSE 0 END "
            "FROM [1, 2] AS x, [3] AS y"
        )
        assert "nosuch" in find(query, "SQLPP001").message
        with pytest.raises(BindingError):
            Database().execute(query)


class TestShadowedVariable002:
    def test_let_shadows_from(self):
        diagnostic = find(
            "SELECT VALUE e FROM emp AS e LET e = 1", "SQLPP002", CORE_OPTS
        )
        assert diagnostic.severity == "warning"

    def test_distinct_names_are_fine(self):
        assert "SQLPP002" not in codes(
            "SELECT VALUE x FROM emp AS e LET x = e.name", CORE_OPTS
        )


class TestUnusedLet003:
    def test_unused_binding(self):
        diagnostic = find(
            "SELECT VALUE e FROM emp AS e LET unused = 1",
            "SQLPP003",
            CORE_OPTS,
        )
        assert "unused" in diagnostic.message

    def test_underscore_prefix_is_exempt(self):
        assert "SQLPP003" not in codes(
            "SELECT VALUE e FROM emp AS e LET _scratch = 1", CORE_OPTS
        )

    def test_used_binding_is_fine(self):
        assert "SQLPP003" not in codes(
            "SELECT VALUE x FROM emp AS e LET x = e.name", CORE_OPTS
        )

    def test_binding_used_only_inside_case_is_fine(self):
        assert "SQLPP003" not in codes(
            "SELECT VALUE CASE WHEN v > 1 THEN 1 ELSE 0 END "
            "FROM [1, 2] AS x LET v = x"
        )


class TestUnknownFunction004:
    def test_unknown_function_with_hint(self):
        diagnostic = find("SELECT VALUE FLOR(1.5)", "SQLPP004")
        assert diagnostic.severity == "error"
        assert "FLOOR" in (diagnostic.hint or "")

    def test_wrong_arity(self):
        diagnostic = find("SELECT VALUE SUBSTRING('abc')", "SQLPP004")
        assert "argument" in diagnostic.message

    def test_known_function_is_fine(self):
        assert codes("SELECT VALUE ABS(-1)") == []

    def test_unknown_function_inside_case(self):
        diagnostic = find(
            "SELECT VALUE CASE WHEN FLOR(x) > 1 THEN 1 ELSE 0 END "
            "FROM [1, 2] AS x",
            "SQLPP004",
        )
        assert "FLOOR" in (diagnostic.hint or "")


class TestDuplicateKey005:
    def test_duplicate_struct_key(self):
        diagnostic = find("SELECT VALUE {'a': 1, 'a': 2}", "SQLPP005")
        assert "last occurrence wins" in diagnostic.message

    def test_duplicate_select_alias(self):
        assert "SQLPP005" in codes(
            "SELECT e.name AS x, e.age AS x FROM emp AS e", COMPAT_OPTS
        )

    def test_distinct_keys_are_fine(self):
        assert codes("SELECT VALUE {'a': 1, 'b': 2}") == []


class TestNegativeLimit006:
    def test_negative_limit(self):
        diagnostic = find(
            "SELECT VALUE e FROM emp AS e LIMIT -1", "SQLPP006", CORE_OPTS
        )
        assert diagnostic.severity == "error"

    def test_negative_offset(self):
        assert "SQLPP006" in codes(
            "SELECT VALUE e FROM emp AS e OFFSET -2", CORE_OPTS
        )

    def test_zero_limit_is_fine(self):
        assert "SQLPP006" not in codes(
            "SELECT VALUE e FROM emp AS e LIMIT 0", CORE_OPTS
        )


class TestAlwaysMissing101:
    def test_closed_schema_navigation(self):
        diagnostic = find(
            "SELECT VALUE e.salary FROM emp AS e", "SQLPP101", SCHEMA_OPTS
        )
        assert diagnostic.severity == "warning"
        assert "MISSING" in diagnostic.message

    def test_known_attribute_is_fine(self):
        assert codes("SELECT VALUE e.name FROM emp AS e", SCHEMA_OPTS) == []

    def test_no_schema_no_conclusion(self):
        assert "SQLPP101" not in codes(
            "SELECT VALUE e.salary FROM emp AS e", COMPAT_OPTS
        )

    def test_array_concatenation_is_not_missing(self):
        # `||` concatenates two arrays; the attribute is present.
        assert codes("SELECT VALUE v.a FROM [{'a': [1] || [2]}] AS v") == []

    def test_indexing_a_string(self):
        diagnostic = find(
            "SELECT VALUE e.name[0] FROM emp AS e", "SQLPP101", SCHEMA_OPTS
        )
        assert "string" in diagnostic.message


class TestComparisonMismatch102:
    def test_string_vs_number_order(self):
        diagnostic = find(
            "SELECT VALUE e FROM emp AS e WHERE e.name > e.age",
            "SQLPP102",
            SCHEMA_OPTS,
        )
        assert "string" in diagnostic.message
        assert "number" in diagnostic.message

    def test_disjoint_equality(self):
        assert "SQLPP102" in codes("SELECT VALUE 1 = 'a'")

    def test_same_kind_is_fine(self):
        assert "SQLPP102" not in codes(
            "SELECT VALUE e FROM emp AS e WHERE e.age > 30", SCHEMA_OPTS
        )


class TestAggregateNonCollection103:
    def test_coll_aggregate_on_scalar(self):
        diagnostic = find("SELECT VALUE COLL_SUM(1)", "SQLPP103")
        assert "collection" in diagnostic.message

    def test_coll_aggregate_on_array_is_fine(self):
        assert "SQLPP103" not in codes("SELECT VALUE COLL_SUM([1, 2])")

    def test_lowered_sql_aggregate_is_fine(self):
        # SUM over a group lowers to COLL_SUM over a subquery.
        assert "SQLPP103" not in codes(
            "SELECT e.dept AS d, SUM(e.age) AS t "
            "FROM emp AS e GROUP BY e.dept",
            SCHEMA_OPTS,
        )


class TestOrderByNeverComparable104:
    def test_always_missing_key(self):
        diagnostic = find(
            "SELECT e.salary AS k FROM emp AS e ORDER BY k",
            "SQLPP104",
            SCHEMA_OPTS,
        )
        assert "MISSING" in diagnostic.message

    def test_literal_missing_key(self):
        # The MISSING literal is typed ``missing``, as NULL is ``null``.
        diagnostic = find(
            "SELECT VALUE x FROM [1] AS x ORDER BY MISSING", "SQLPP104"
        )
        assert "always MISSING" in diagnostic.message
        null = find("SELECT VALUE x FROM [1] AS x ORDER BY NULL", "SQLPP104")
        assert "always NULL" in null.message

    def test_comparable_key_is_fine(self):
        assert "SQLPP104" not in codes(
            "SELECT e.age AS k FROM emp AS e ORDER BY k", SCHEMA_OPTS
        )

    def test_array_concatenation_key_is_comparable(self):
        assert "SQLPP104" not in codes(
            "SELECT VALUE x FROM [1, 2] AS x ORDER BY [x] || [1]"
        )


class TestEqualsNull105:
    def test_equals_null(self):
        diagnostic = find(
            "SELECT VALUE e FROM emp AS e WHERE e.name = NULL",
            "SQLPP105",
            CORE_OPTS,
        )
        assert "IS NULL" in (diagnostic.hint or "")

    def test_not_equals_null(self):
        diagnostic = find("SELECT VALUE 1 != NULL", "SQLPP105")
        assert "IS NOT NULL" in (diagnostic.hint or "")

    def test_is_null_is_fine(self):
        assert "SQLPP105" not in codes(
            "SELECT VALUE e FROM emp AS e WHERE e.name IS NULL", CORE_OPTS
        )


class TestOperandTypeMismatch106:
    def test_arithmetic_over_a_string(self):
        diagnostic = find(
            "SELECT VALUE e.name * 2 FROM emp AS e", "SQLPP106", SCHEMA_OPTS
        )
        assert diagnostic.severity == "warning"
        assert "arithmetic" in diagnostic.message

    def test_unary_minus_over_a_string(self):
        assert "SQLPP106" in codes(
            "SELECT VALUE -e.name FROM emp AS e", SCHEMA_OPTS
        )

    def test_concatenating_a_number(self):
        assert "||" in find(
            "SELECT VALUE e.age || 'x' FROM emp AS e", "SQLPP106", SCHEMA_OPTS
        ).message

    def test_compatible_operands_are_fine(self):
        assert codes(
            "SELECT VALUE e.age * 2 FROM emp AS e", SCHEMA_OPTS
        ) == []
        assert codes("SELECT VALUE x || [1] FROM [[0]] AS x") == []

    def test_unknown_operands_are_fine(self):
        assert "SQLPP106" not in codes(
            "SELECT VALUE e.name * 2 FROM emp AS e", COMPAT_OPTS
        )


class TestRangeOverNonCollection107:
    def test_from_over_a_scalar_attribute(self):
        diagnostic = find(
            "SELECT VALUE x FROM emp AS e, e.age AS x", "SQLPP107", SCHEMA_OPTS
        )
        assert "non-collection" in diagnostic.message
        assert diagnostic.severity == "warning"

    def test_from_over_a_collection_is_fine(self):
        assert codes("SELECT VALUE x FROM [1] AS x") == []


class TestUnpivotNonTuple108:
    def test_unpivot_a_number(self):
        assert "SQLPP108" in codes(
            "SELECT VALUE v FROM emp AS e, UNPIVOT e.age AS v AT k",
            SCHEMA_OPTS,
        )

    def test_unpivot_a_tuple_is_fine(self):
        assert "SQLPP108" not in codes(
            "SELECT VALUE v FROM emp AS e, UNPIVOT e AS v AT k", SCHEMA_OPTS
        )
