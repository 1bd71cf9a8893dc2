"""Edge semantics and error-path tests across the evaluator."""

import pytest

from repro import Bag, Database, MISSING, Struct
from repro.errors import BindingError, EvaluationError, ParseError, TypeCheckError

from tests.conftest import bag_of


class TestNameResolution:
    def test_longest_dotted_prefix_wins(self, db):
        db.set("a", [{"b": "attr-world"}])
        db.set("a.b", ["name-world"])
        # 'a' resolves first, then .b navigates into its elements? No —
        # 'a' is a collection; navigation into a collection is a type
        # error, so the dotted name would never be reachable if 'a'
        # resolves. Resolution tries the variable/catalog name 'a'
        # first; 'a.b' the named value is shadowed.
        result = db.execute("a.b")
        assert result is MISSING or result == ["name-world"]

    def test_dotted_name_without_prefix_value(self, db):
        db.set("hr.emp", [1, 2])
        assert db.execute("hr.emp") == [1, 2]

    def test_partial_dotted_name_unresolved(self, db):
        db.set("hr.emp", [1])
        with pytest.raises(BindingError):
            db.execute("hr.staff")

    def test_deeply_dotted_names(self, db):
        db.set("x.y.z", 5)
        assert db.execute("x.y.z") == 5

    def test_error_message_names_the_culprit(self, db):
        with pytest.raises(BindingError) as info:
            db.execute("SELECT VALUE zap FROM [1] AS v", sql_compat=False)
        assert "zap" in str(info.value)


class TestShadowing:
    def test_let_shadows_from(self, db):
        result = bag_of(
            db.execute("SELECT VALUE x FROM [1] AS x LET x = 'shadowed'")
        )
        assert result == ["shadowed"]

    def test_subquery_variable_shadows_outer(self, db):
        result = bag_of(
            db.execute(
                "SELECT VALUE (SELECT VALUE v FROM [2] AS v) FROM [1] AS v"
            )
        )
        assert bag_of(result[0]) == [2]

    def test_nested_from_reuses_name_sequentially(self, db):
        db.set("t", [{"xs": [[10]]}])
        result = bag_of(
            db.execute("SELECT VALUE x FROM t AS r, r.xs AS x, x AS x")
        )
        assert result == [10]


class TestHeterogeneousGroupKeys:
    def test_keys_of_mixed_types_group_separately(self, db):
        db.set("t", [{"k": 1}, {"k": "1"}, {"k": True}, {"k": 1.0}])
        result = bag_of(
            db.execute(
                "SELECT VALUE COLL_COUNT(SELECT VALUE 1 FROM g AS v) "
                "FROM t AS r GROUP BY r.k AS k GROUP AS g"
            )
        )
        # 1 and 1.0 group together; '1' and TRUE are their own groups.
        assert sorted(result) == [1, 1, 2]

    def test_nested_group_keys(self, db):
        db.set("t", [{"k": {"a": 1}}, {"k": {"a": 1}}, {"k": {"a": 2}}])
        result = db.execute(
            "SELECT VALUE k FROM t AS r GROUP BY r.k AS k"
        )
        assert len(list(result)) == 2


class TestDuplicateAttributes:
    def test_navigation_takes_first(self, db):
        db.set("t", [Struct([("a", 1), ("a", 2)])])
        assert bag_of(db.execute("SELECT VALUE r.a FROM t AS r")) == [1]

    def test_unpivot_sees_every_pair(self, db):
        db.set("t", Struct([("a", 1), ("a", 2)]))
        result = bag_of(db.execute("SELECT VALUE [n, v] FROM UNPIVOT t AS v AT n"))
        assert sorted(result) == [["a", 1], ["a", 2]]

    def test_select_star_keeps_duplicates(self, db):
        db.set("t", [Struct([("a", 1), ("a", 2)])])
        result = bag_of(db.execute("SELECT * FROM t AS r"))
        assert result[0].get_all("a") == [1, 2]


class TestDegenerateQueries:
    def test_empty_collection_everything(self, db):
        db.set("empty", [])
        assert bag_of(db.execute("SELECT VALUE x FROM empty AS x")) == []
        assert bag_of(db.execute("SELECT VALUE x FROM empty AS x ORDER BY x")) == []
        assert db.execute("PIVOT r.v AT r.k FROM empty AS r") == Struct()

    def test_where_false_short_circuits_groups(self, db):
        db.set("t", [{"k": 1}])
        result = bag_of(
            db.execute("SELECT r.k FROM t AS r WHERE FALSE GROUP BY r.k")
        )
        assert result == []

    def test_limit_zero(self, db):
        assert bag_of(db.execute("SELECT VALUE v FROM [1, 2] AS v LIMIT 0")) == []

    def test_offset_beyond_end(self, db):
        assert bag_of(db.execute("SELECT VALUE v FROM [1] AS v OFFSET 10")) == []

    def test_deep_nesting_depth(self, db):
        # 30 levels of nested arrays navigate fine.
        value = 7
        for __ in range(30):
            value = [value]
        db.set("deep", [value])
        path = "r" + "[0]" * 30
        assert bag_of(db.execute(f"SELECT VALUE {path} FROM deep AS r")) == [7]

    @pytest.mark.parametrize("dials", [{}, {"batch": False}, {"optimize": False}])
    def test_bad_like_pattern_raises_only_over_rows(self, db, dials):
        # A pattern ending in its escape character is an evaluation
        # error: a block with no row to evaluate it on returns nothing.
        query = "SELECT VALUE x FROM {} AS x WHERE x LIKE 'a!' ESCAPE '!'"
        db.set("none", [])
        db.set("one", ["a"])
        assert bag_of(db.execute(query.format("none"), **dials)) == []
        with pytest.raises(EvaluationError, match="ends with escape"):
            db.execute(query.format("one"), **dials)

    def test_self_join_same_collection(self, db):
        db.set("t", [1, 2])
        result = bag_of(db.execute("SELECT VALUE [a, b] FROM t AS a, t AS b"))
        assert len(result) == 4


class TestStrictErrorMessages:
    @pytest.mark.parametrize("pattern", ["'a%'", "r.p"])
    def test_like_over_a_non_string_reports_both_operands(self, pattern):
        # The constant-pattern closure, the chunk kernel and the oracle
        # all raise from ops.like, with the same message.
        db = Database(typing_mode="strict")
        db.set("t", [{"x": 5, "p": "a%"}, {"x": "ab", "p": "a%"}])
        query = f"SELECT VALUE r.x LIKE {pattern} FROM t AS r"
        messages = set()
        for dials in ({}, {"batch": False}, {"optimize": False}):
            with pytest.raises(TypeCheckError) as raised:
                db.execute(query, **dials)
            messages.add(str(raised.value))
        assert messages == {"LIKE expects strings, got integer and string"}


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT",
            "SELECT VALUE",
            "FROM t AS x",          # FROM-first without SELECT
            "SELECT VALUE 1 FROM",  # missing FROM item
            "SELECT VALUE 1 GROUP 2",
            "PIVOT a FROM t AS t",  # missing AT
            "SELECT VALUE {1: }",
            "SELECT VALUE [1, ]",
            "SELECT VALUE CASE END",
        ],
    )
    def test_rejected(self, db, bad):
        with pytest.raises(ParseError):
            db.execute(bad)

    def test_good_error_for_missing_alias(self, db):
        with pytest.raises(ParseError) as info:
            db.execute("SELECT VALUE 1 FROM [1] + [2]")
        assert "alias" in str(info.value)


class TestResultShapes:
    def test_bag_vs_array_vs_tuple_vs_scalar(self, db):
        db.set("t", [{"k": "a", "v": 1}])
        assert isinstance(db.execute("SELECT VALUE r FROM t AS r"), Bag)
        assert isinstance(
            db.execute("SELECT VALUE r FROM t AS r ORDER BY r.k"), list
        )
        assert isinstance(db.execute("PIVOT r.v AT r.k FROM t AS r"), Struct)
        assert db.execute("1 + 1") == 2
