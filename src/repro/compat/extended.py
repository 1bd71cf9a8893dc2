"""Extended conformance cases derived from the paper's prose.

The listings pin down the headline examples; these cases pin down the
rules stated in the running text — the three MISSING-producing cases of
Section IV-B, the SQL-compatibility exception, subquery coercion,
FROM-over-anything, the two typing modes — so that an implementation
cannot pass the kit by special-casing the listings.
"""

from __future__ import annotations

from repro.compat.corpus import ConformanceCase, register
from repro.compat.listings import EMP_MISSING, EMP_NULL

# -- Section IV-B, MISSING case 1: navigation ---------------------------------

register(
    ConformanceCase(
        case_id="X-missing-navigation",
        section="IV-B",
        title="Navigation into an absent attribute returns MISSING",
        data={"hr.emp_missing": EMP_MISSING},
        query="""
            SELECT VALUE e.title IS MISSING
            FROM hr.emp_missing AS e
        """,
        expected="{{ true, false, false }}",
    )
)

register(
    ConformanceCase(
        case_id="X-missing-vs-null",
        section="IV-B",
        title="IS MISSING distinguishes what IS NULL conflates",
        data={"hr.emp_null": EMP_NULL},
        query="""
            SELECT VALUE [e.title IS MISSING, e.title IS NULL]
            FROM hr.emp_null AS e
        """,
        expected="{{ [false, true], [false, false], [false, false] }}",
        notes="Bob's title is NULL (present): IS NULL true, IS MISSING false.",
    )
)

# -- Section IV-B, MISSING case 2: wrongly-typed inputs ------------------------

register(
    ConformanceCase(
        case_id="X-type-error-permissive",
        section="IV",
        title="2 * 'some string' is MISSING in permissive mode",
        query="(2 * 'some string') IS MISSING",
        expected="true",
        typing_mode="permissive",
    )
)

register(
    ConformanceCase(
        case_id="X-type-error-strict",
        section="IV",
        title="2 * 'some string' raises in stop-on-error mode",
        query="2 * 'some string'",
        expect_error="TypeCheckError",
        typing_mode="strict",
    )
)

register(
    ConformanceCase(
        case_id="X-healthy-data-proceeds",
        section="IV",
        title="Permissive mode excludes only the offending data",
        data={
            "events": """
                {{
                  {'id': 1, 'latency': 10},
                  {'id': 2, 'latency': 'n/a'},
                  {'id': 3, 'latency': 30}
                }}
            """
        },
        query="""
            SELECT e.id AS id, e.latency * 2 AS doubled
            FROM events AS e
        """,
        expected="""
            {{
              {'id': 1, 'doubled': 20},
              {'id': 2},
              {'id': 3, 'doubled': 60}
            }}
        """,
        notes="The wrongly-typed row keeps flowing; its derived attribute "
        "is simply missing (the 'convenient signal').",
    )
)

# -- Section IV-B, MISSING case 3 and its compatibility exception ---------------

register(
    ConformanceCase(
        case_id="X-missing-propagates",
        section="IV-B",
        title="A function with a MISSING input returns MISSING (Core)",
        query="(UPPER(MISSING) IS MISSING) AND (1 + MISSING IS MISSING)",
        expected="true",
        sql_compat=False,
    )
)

register(
    ConformanceCase(
        case_id="X-coalesce-compat",
        section="IV-B",
        title="COALESCE(MISSING, 2) returns 2 in SQL-compatibility mode",
        query="COALESCE(MISSING, 2)",
        expected="2",
        sql_compat=True,
        notes="The Section IV-B exception, stated with this exact example.",
    )
)

register(
    ConformanceCase(
        case_id="X-coalesce-core",
        section="IV-B",
        title="COALESCE propagates MISSING in Core mode",
        query="COALESCE(MISSING, 2) IS MISSING",
        expected="true",
        sql_compat=False,
    )
)

register(
    ConformanceCase(
        case_id="X-logic-absorption",
        section="IV-B",
        title="Boolean absorption maps MISSING like NULL (both modes)",
        query="[TRUE OR MISSING, FALSE AND MISSING, (TRUE AND MISSING) IS NULL]",
        expected="[true, false, true]",
        notes="AND/OR are SQL expressions that can map NULL to non-NULL, "
        "so MISSING behaves as NULL inside them.",
    )
)

# -- Section IV-B: null-vs-missing output guarantee ----------------------------

register(
    ConformanceCase(
        case_id="X-guarantee-null-input",
        section="IV-B",
        title="Projection over the NULL-typed table",
        data={"hr.emp_null": EMP_NULL},
        query="SELECT e.id, e.title AS title FROM hr.emp_null AS e",
        expected="""
            {{
              {'id': 3, 'title': null},
              {'id': 4, 'title': 'Manager'},
              {'id': 6, 'title': 'Engineer'}
            }}
        """,
    )
)

register(
    ConformanceCase(
        case_id="X-guarantee-missing-input",
        section="IV-B",
        title="The same projection over the missing-attribute table "
        "differs only by absent attributes",
        data={"hr.emp_missing": EMP_MISSING},
        query="SELECT e.id, e.title AS title FROM hr.emp_missing AS e",
        expected="""
            {{
              {'id': 3},
              {'id': 4, 'title': 'Manager'},
              {'id': 6, 'title': 'Engineer'}
            }}
        """,
        notes="Section IV-B guarantee: q(d') equals q(d) except that "
        "null-valued attributes are simply missing.",
    )
)

# -- Section V-A: coercion and its absence -------------------------------------

register(
    ConformanceCase(
        case_id="X-scalar-coercion",
        section="V-A",
        title="A plain-SELECT subquery coerces to a scalar in comparison "
        "position (compat mode)",
        data={"t": "{{ {'a': 5} }}"},
        query="5 = (SELECT x.a FROM t AS x)",
        expected="true",
        sql_compat=True,
    )
)

register(
    ConformanceCase(
        case_id="X-collection-coercion",
        section="V-A",
        title="A plain-SELECT subquery coerces to a collection after IN",
        data={"t": "{{ {'a': 1}, {'a': 5} }}"},
        query="5 IN (SELECT x.a FROM t AS x)",
        expected="true",
        sql_compat=True,
    )
)

register(
    ConformanceCase(
        case_id="X-select-value-never-coerces",
        section="V-A",
        title="SELECT VALUE subqueries are never coerced",
        data={"t": "{{ 5 }}"},
        query="(SELECT VALUE x FROM t AS x) = 5",
        expected="missing",
        sql_compat=True,
        notes="The left side stays a collection; no implicit 'magic' applies "
        "to SELECT VALUE, so ``=`` sees a bag against a number — a "
        "wrongly-typed comparison, MISSING in permissive mode "
        "(Section IV-B rule 2).",
    )
)

register(
    ConformanceCase(
        case_id="X-empty-scalar-subquery",
        section="V-A",
        title="An empty coerced subquery is NULL, as in SQL",
        data={"t": "{{ {'a': 5} }}"},
        query="(SELECT x.a FROM t AS x WHERE x.a > 100) IS NULL",
        expected="true",
        sql_compat=True,
    )
)

# -- Section III: FROM over anything -------------------------------------------

register(
    ConformanceCase(
        case_id="X-from-heterogeneous",
        section="III-A",
        title="One FROM variable ranging over mixed element types",
        data={"mixed": "{{ 1, 'two', [3], {'four': 4} }}"},
        query="SELECT VALUE v FROM mixed AS v",
        expected="{{ 1, 'two', [3], {'four': 4} }}",
    )
)

register(
    ConformanceCase(
        case_id="X-from-scalar-permissive",
        section="III-A",
        title="Ranging over a scalar binds once in permissive mode",
        query="SELECT VALUE v * 10 FROM 4 AS v",
        expected="{{ 40 }}",
        typing_mode="permissive",
    )
)

register(
    ConformanceCase(
        case_id="X-from-scalar-strict",
        section="III-A",
        title="Ranging over a scalar errors in stop-on-error mode",
        query="SELECT VALUE v FROM 4 AS v",
        expect_error="TypeCheckError",
        typing_mode="strict",
    )
)

register(
    ConformanceCase(
        case_id="X-from-missing-excludes",
        section="III-A",
        title="Ranging over an absent nested collection excludes the tuple",
        data={
            "t": """
                {{
                  {'id': 1, 'xs': [10, 20]},
                  {'id': 2}
                }}
            """
        },
        query="SELECT r.id AS id, x AS x FROM t AS r, r.xs AS x",
        expected="{{ {'id': 1, 'x': 10}, {'id': 1, 'x': 20} }}",
    )
)

register(
    ConformanceCase(
        case_id="X-at-position",
        section="III",
        title="AT binds the 0-based position over arrays",
        query="SELECT VALUE [i, v] FROM ['a', 'b'] AS v AT i",
        expected="{{ [0, 'a'], [1, 'b'] }}",
    )
)

# -- Section V: composability odds and ends -------------------------------------

register(
    ConformanceCase(
        case_id="X-select-clause-last",
        section="V-B",
        title="The SELECT clause may come last (pipeline style)",
        data={"t": "{{ {'x': 1}, {'x': 2} }}"},
        query="FROM t AS r WHERE r.x > 1 SELECT VALUE r.x",
        expected="{{ 2 }}",
        sql_compat=False,
    )
)

register(
    ConformanceCase(
        case_id="X-order-by-array",
        section="V-B",
        title="ORDER BY produces an array, absent values first",
        data={"t": "{{ {'x': 2}, {'x': null}, {'x': 1}, {'y': 0} }}"},
        query="SELECT VALUE TYPEOF(r.x) FROM t AS r ORDER BY r.x",
        expected="['missing', 'null', 'integer', 'integer']",
        ordered=True,
        notes="The total order places MISSING before NULL before values.",
    )
)

register(
    ConformanceCase(
        case_id="X-subquery-anywhere",
        section="V-A",
        title="Subqueries compose anywhere an expression may appear",
        data={"n": "{{ 1, 2, 3 }}"},
        query="""
            SELECT VALUE v + COLL_SUM(SELECT VALUE w FROM n AS w)
            FROM (SELECT VALUE x * 10 FROM n AS x) AS v
        """,
        expected="{{ 16, 26, 36 }}",
        sql_compat=False,
    )
)

register(
    ConformanceCase(
        case_id="X-count-star-vs-count",
        section="V-C",
        title="COUNT(*) counts bindings; COUNT(x) skips absent values",
        data={
            "t": "{{ {'x': 1}, {'x': null}, {'y': 9} }}",
        },
        query="SELECT COUNT(*) AS stars, COUNT(r.x) AS xs FROM t AS r",
        expected="{{ {'stars': 3, 'xs': 1} }}",
    )
)

register(
    ConformanceCase(
        case_id="X-aggregate-empty-input",
        section="V-C",
        title="Implicit aggregation over empty input still yields one row",
        data={"t": "{{}}"},
        query="SELECT COUNT(*) AS n, AVG(r.x) AS a FROM t AS r",
        expected="{{ {'n': 0, 'a': null} }}",
    )
)

register(
    ConformanceCase(
        case_id="X-distinct",
        section="V",
        title="DISTINCT uses SQL++ deep equality, across nesting",
        data={"t": "{{ [1, 2], [1, 2], {'a': 1}, {'a': 1}, 1, 1.0 }}"},
        query="SELECT DISTINCT VALUE v FROM t AS v",
        expected="{{ [1, 2], {'a': 1}, 1 }}",
    )
)

register(
    ConformanceCase(
        case_id="X-union-heterogeneous",
        section="V",
        title="Set operations over heterogeneous collections",
        query="(SELECT VALUE v FROM [1, 'a'] AS v) UNION ALL (SELECT VALUE v FROM [{'b': 2}] AS v)",
        expected="{{ 1, 'a', {'b': 2} }}",
    )
)

register(
    ConformanceCase(
        case_id="X-pivot-unpivot-roundtrip",
        section="VI",
        title="UNPIVOT(PIVOT(t)) restores the symbol/price pairs",
        data={
            "today_stock_prices": """
                {{ {'symbol': 'amzn', 'price': 1900},
                   {'symbol': 'goog', 'price': 1120} }}
            """
        },
        query="""
            SELECT sym AS symbol, price AS price
            FROM (PIVOT sp.price AT sp.symbol FROM today_stock_prices sp) AS c,
                 UNPIVOT c AS price AT sym
        """,
        expected="""
            {{ {'symbol': 'amzn', 'price': 1900},
               {'symbol': 'goog', 'price': 1120} }}
        """,
    )
)

register(
    ConformanceCase(
        case_id="X-equality-mismatch-permissive",
        section="IV-B",
        title="Wrongly-typed '=' is MISSING in permissive mode",
        query="SELECT VALUE [v = 'a', (v = 'a') IS MISSING] FROM [1] AS v",
        expected="{{ [true] }}",
        typing_mode="permissive",
        notes="Section IV-B rule 2: ``=`` over mismatched types (here "
        "integer vs string) is a dynamic type error, which permissive "
        "mode maps to MISSING — the MISSING element then vanishes from "
        "the constructed array, leaving only the IS MISSING probe.",
    )
)

register(
    ConformanceCase(
        case_id="X-equality-mismatch-strict",
        section="IV-B",
        title="Wrongly-typed '=' raises in stop-on-error mode",
        query="SELECT VALUE v = 'a' FROM [1] AS v",
        expect_error="TypeCheckError",
        typing_mode="strict",
        notes="The same mismatched comparison stops the query in strict "
        "mode, mirroring the ordering comparators' treatment of "
        "wrongly-typed inputs.",
    )
)

register(
    ConformanceCase(
        case_id="X-prune-empty-raising-source",
        section="IV-B",
        title="A never-TRUE WHERE does not erase a raising FROM source",
        query="SELECT VALUE NULL FROM CAST(FALSE AS NOPE) AS q WHERE NULL",
        expect_error="EvaluationError",
        typing_mode="permissive",
        notes="An unknown CAST target is not a dynamic type error — it "
        "raises in both typing modes — so the FROM source is evaluated "
        "(and raises) even though the WHERE clause could never keep a "
        "binding: an optimizer may prove the block empty only when "
        "enumerating its FROM items cannot raise.",
    )
)
