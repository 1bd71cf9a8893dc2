"""Behavioural tests for the builtin function library, via the engine."""

import math

import pytest

from repro.datamodel.values import MISSING
from repro.errors import TypeCheckError
from tests.rows_mode import run as run_in


@pytest.fixture
def run(db):
    return db.execute


class TestStrings:
    def test_case_functions(self, run):
        assert run("LOWER('AbC')") == "abc"
        assert run("UPPER('AbC')") == "ABC"

    def test_length(self, run):
        assert run("CHAR_LENGTH('héllo')") == 5
        assert run("LENGTH('')") == 0

    def test_substring_one_based(self, run):
        assert run("SUBSTRING('hello', 2)") == "ello"
        assert run("SUBSTRING('hello', 2, 3)") == "ell"

    def test_substring_start_before_one(self, run):
        assert run("SUBSTRING('hello', 0, 3)") == "he"

    def test_substring_negative_start_with_length(self, run):
        # SQL semantics: the window starts at the (possibly negative)
        # position and its length counts the virtual characters before
        # position 1, so only the overlap with the string survives.
        assert run("SUBSTRING('hello', -1, 3)") == "h"
        assert run("SUBSTRING('hello', -2, 2)") == ""
        assert run("SUBSTRING('hello', -5, 3)") == ""

    def test_trim_family(self, run):
        assert run("TRIM('  x  ')") == "x"
        assert run("LTRIM('xxa', 'x')") == "a"
        assert run("RTRIM('axx', 'x')") == "a"

    def test_trim_empty_char_set_is_identity(self, run):
        # An empty trim set removes nothing — it must not strip
        # whitespace (the no-argument default) or loop forever.
        assert run("TRIM('  x  ', '')") == "  x  "
        assert run("LTRIM('xxa', '')") == "xxa"
        assert run("RTRIM('axx', '')") == "axx"

    def test_replace(self, run):
        assert run("REPLACE('banana', 'na', 'NA')") == "baNANA"

    def test_position_one_based_zero_absent(self, run):
        assert run("POSITION('ll', 'hello')") == 3
        assert run("POSITION('zz', 'hello')") == 0

    def test_contains_starts_ends(self, run):
        assert run("CONTAINS('hello', 'ell')") is True
        assert run("STARTS_WITH('hello', 'he')") is True
        assert run("ENDS_WITH('hello', 'lo')") is True

    def test_split(self, run):
        assert run("SPLIT('a,b,c', ',')") == ["a", "b", "c"]

    def test_concat_fn(self, run):
        assert run("CONCAT('a', 'b', 'c')") == "abc"

    def test_reverse_string_and_array(self, run):
        assert run("REVERSE('abc')") == "cba"
        assert run("REVERSE([1, 2])") == [2, 1]

    def test_repeat(self, run):
        assert run("REPEAT('ab', 3)") == "ababab"

    def test_wrong_type_is_missing(self, run):
        assert run("LOWER(5) IS MISSING") is True

    def test_null_propagates(self, run):
        assert run("UPPER(NULL) IS NULL") is True


class TestNumerics:
    def test_rounding_family(self, run):
        assert run("CEIL(1.2)") == 2
        assert run("FLOOR(1.8)") == 1
        assert run("ROUND(2.567, 2)") == 2.57
        assert run("TRUNC(-1.9)") == -1

    def test_abs_sign(self, run):
        assert run("ABS(-4)") == 4
        assert run("SIGN(-9)") == -1
        assert run("SIGN(0)") == 0

    def test_sqrt_power_mod(self, run):
        assert run("SQRT(9)") == 3.0
        assert run("POWER(2, 10)") == 1024
        assert run("MOD(7, 3)") == 1

    def test_logs(self, run):
        assert run("EXP(0)") == 1.0
        assert abs(run("LN(EXP(1))") - 1.0) < 1e-12
        assert run("LOG10(1000)") == 3.0

    def test_pi(self, run):
        assert run("PI()") == math.pi

    def test_domain_errors_are_missing(self, run):
        assert run("SQRT(-1) IS MISSING") is True
        assert run("LN(0) IS MISSING") is True
        assert run("MOD(1, 0) IS MISSING") is True

    def test_power_never_returns_a_complex_number(self, db):
        # A negative base to a non-integral power has no real result: a
        # dynamic type error like SQRT(-1), not a Python complex.
        db.set("t", [{"b": -1, "e": 0.5}, {"b": 2, "e": 10}])
        query = "SELECT VALUE POWER(r.b, r.e) + 1 FROM t AS r"
        for optimize in (True, False):
            assert db.execute("POWER(-1, 0.5) IS MISSING", optimize=optimize)
            assert list(db.execute(query, optimize=optimize)) == [MISSING, 1025]
        with pytest.raises(TypeCheckError, match="POWER"):
            db.execute(query, typing_mode="strict")
        assert type(db.execute("POWER(2, 10)")) is int

    @pytest.mark.parametrize("optimize", [True, False], ids=["engine", "oracle"])
    def test_power_outside_the_float_range(self, db, optimize):
        # An integer result keeps its exact type up to 1024 bits; past
        # that it is the dynamic error a float overflow is, decided
        # before the power is computed (so a huge one costs nothing).
        exact = db.execute("POWER(2, 1023)", optimize=optimize)
        assert type(exact) is int and exact == 2**1023
        assert db.execute("POWER(-2, 1023)", optimize=optimize) == -(2**1023)
        for query in (
            "POWER(2, 1024)",
            "POWER(-3, 647)",
            "POWER(7, 3000000)",
            "POWER(2.0, 5000)",
        ):
            assert db.execute(query, optimize=optimize, timeout_s=0.5) is MISSING
            with pytest.raises(
                TypeCheckError, match="POWER: result outside the float range"
            ):
                db.execute(query, optimize=optimize, typing_mode="strict")
        assert db.execute("POWER(1, 10000000000)", optimize=optimize) == 1
        assert db.execute("POWER(2, -3000)", optimize=optimize) == 0.0


class TestCast:
    """CAST of an infinite float to an integer type is the dynamic type
    error CAST('inf' AS INT) is — never a raw Python OverflowError."""

    @pytest.mark.parametrize("optimize", [True, False], ids=["engine", "oracle"])
    def test_a_constant(self, db, optimize):
        assert db.execute("CAST(1e309 AS INT)", optimize=optimize) is MISSING
        assert db.execute("CAST('inf' AS INT)", optimize=optimize) is MISSING
        with pytest.raises(TypeCheckError, match="cannot cast float to INT"):
            db.execute("CAST(1e309 AS INT)", optimize=optimize, typing_mode="strict")

    @pytest.mark.parametrize(
        "dials",
        [{}, {"rows": True}, {"optimize": False}],
        ids=["kernel", "closure", "oracle"],
    )
    def test_a_float_column(self, db, dials):
        db.set("t", [{"x": float("inf")}, {"x": 2.5}, {"x": float("-inf")}])
        query = "SELECT VALUE CAST(t.x AS INT) FROM t AS t"
        assert list(run_in(db.execute, query, **dials)) == [MISSING, 2, MISSING]
        literal = "SELECT VALUE CAST(x AS INT) FROM [1e309, 2.5] AS x"
        assert list(run_in(db.execute, literal, **dials)) == [MISSING, 2]
        with pytest.raises(TypeCheckError, match="cannot cast float to INT"):
            run_in(db.execute, query, typing_mode="strict", **dials)


class TestCollections:
    def test_length_contains(self, run):
        assert run("ARRAY_LENGTH([1, 2, 3])") == 3
        assert run("ARRAY_CONTAINS([1, 2], 2)") is True
        assert run("ARRAY_CONTAINS(<<'a'>>, 'a')") is True

    def test_concat_distinct_flatten(self, run):
        assert run("ARRAY_CONCAT([1], [2], [3])") == [1, 2, 3]
        assert run("ARRAY_DISTINCT([1, 1.0, 2, 'a', 'a'])") == [1, 2, "a"]
        assert run("ARRAY_FLATTEN([[1, 2], 3, [4]])") == [1, 2, 3, 4]

    def test_slice_sort(self, run):
        assert run("ARRAY_SLICE([1,2,3,4], 1, 3)") == [2, 3]
        assert run("ARRAY_SORT(<<3, 1, 2>>)") == [1, 2, 3]

    def test_to_array_to_bag(self, run):
        assert run("TO_ARRAY(5)") == [5]
        assert run("TO_ARRAY(<<1>>)") == [1]
        assert run("TO_BAG([1, 2]) = <<2, 1>>") is True
        assert run("TO_ARRAY(MISSING)") == []

    def test_range(self, run):
        assert run("RANGE(3)") == [0, 1, 2]
        assert run("RANGE(1, 4)") == [1, 2, 3]
        assert run("RANGE(10, 0, -5)") == [10, 5]


class TestAbsenceHelpers:
    def test_ifmissing_family(self, run):
        assert run("IFMISSING(MISSING, 1)") == 1
        assert run("IFMISSING(NULL, 1) IS NULL") is True
        assert run("IFNULL(NULL, 1)") == 1
        assert run("IFMISSINGORNULL(MISSING, 1)") == 1
        assert run("IFMISSINGORNULL(NULL, 1)") == 1

    def test_nvl_alias(self, run):
        assert run("NVL(NULL, 2)") == 2

    def test_missingif(self, run):
        assert run("MISSINGIF(1, 1) IS MISSING") is True
        assert run("MISSINGIF(1, 2)") == 1

    def test_typeof(self, run):
        assert run("TYPEOF(MISSING)") == "missing"
        assert run("TYPEOF({'a': 1})") == "tuple"
        assert run("TYPEOF(<<>>)") == "bag"


class TestTupleHelpers:
    def test_attribute_names(self, run):
        assert run("ATTRIBUTE_NAMES({'a': 1, 'b': 2})") == ["a", "b"]

    def test_tuple_union(self, run):
        result = run("TUPLE_UNION({'a': 1}, {'b': 2})")
        assert result.to_dict() == {"a": 1, "b": 2}

    def test_greatest_least(self, run):
        assert run("GREATEST(3, 9, 1)") == 9
        assert run("LEAST('b', 'a')") == "a"


class TestCollAggregates:
    def test_coll_family(self, run):
        assert run("COLL_SUM([1, 2, 3])") == 6
        assert run("COLL_AVG(<<2, 4>>)") == 3.0
        assert run("COLL_MIN([3, 1])") == 1
        assert run("COLL_MAX([3, 1])") == 3
        assert run("COLL_COUNT([1, NULL, MISSING])") == 1

    def test_coll_skips_absent(self, run):
        assert run("COLL_SUM([1, NULL, 2, MISSING])") == 3

    def test_coll_empty_null(self, run):
        assert run("COLL_AVG([]) IS NULL") is True
        assert run("COLL_MIN([NULL]) IS NULL") is True

    def test_coll_booleans(self, run):
        assert run("COLL_EVERY([TRUE, TRUE])") is True
        assert run("COLL_EVERY([TRUE, FALSE])") is False
        assert run("COLL_EVERY([])") is True
        assert run("COLL_SOME([FALSE, TRUE])") is True
        assert run("COLL_SOME([])") is False

    def test_coll_statistics(self, run):
        assert abs(run("COLL_STDDEV([2, 4, 4, 4, 5, 5, 7, 9])") - 2.138) < 0.01
        assert run("COLL_VARIANCE([1, 3])") == 2.0
        assert run("COLL_STDDEV([1]) IS NULL") is True

    def test_coll_array_agg(self, run):
        assert run("COLL_ARRAY_AGG(<<1, NULL, 2>>)") == [1, 2]

    def test_coll_count_distinct(self, run):
        assert run("COLL_COUNT_DISTINCT([1, 1.0, 2, 'a'])") == 3

    def test_coll_non_collection_is_type_error(self, run):
        assert run("COLL_SUM(5) IS MISSING") is True

    def test_coll_of_absent_collection(self, run):
        assert run("COLL_SUM(MISSING) IS NULL") is True
