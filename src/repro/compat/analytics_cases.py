"""Kit extension cases: the analytical features of Section V-B's note.

The paper asserts windows, CUBE/ROLLUP/GROUPING SETS "are wholly
compatible with SQL++ and then become able to operate on and produce
nested and heterogeneous data"; these cases pin that down, plus the
dialect deep-path extension.
"""

from __future__ import annotations

from repro.compat.corpus import ConformanceCase, register

NESTED_SALES = """
{{
  {'region': 'eu', 'orders': [{'product': 'a', 'amount': 10},
                              {'product': 'b', 'amount': 20}]},
  {'region': 'us', 'orders': [{'product': 'a', 'amount': 30}]},
  {'region': 'us', 'orders': [{'product': 'a', 'amount': 40}]}
}}
"""

register(
    ConformanceCase(
        case_id="K-rollup-nested",
        section="V-B",
        title="ROLLUP over unnested document data",
        data={"sales": NESTED_SALES},
        query="""
            SELECT s.region AS r, o.product AS p, SUM(o.amount) AS t
            FROM sales AS s, s.orders AS o
            GROUP BY ROLLUP (s.region, o.product)
        """,
        expected="""
            {{
              {'r': 'eu', 'p': 'a', 't': 10},
              {'r': 'eu', 'p': 'b', 't': 20},
              {'r': 'us', 'p': 'a', 't': 70},
              {'r': 'eu', 'p': null, 't': 30},
              {'r': 'us', 'p': null, 't': 70},
              {'r': null, 'p': null, 't': 100}
            }}
        """,
    )
)

register(
    ConformanceCase(
        case_id="K-grouping-sets-nested",
        section="V-B",
        title="GROUPING SETS over unnested document data",
        data={"sales": NESTED_SALES},
        query="""
            SELECT s.region AS r, o.product AS p, COUNT(*) AS n
            FROM sales AS s, s.orders AS o
            GROUP BY GROUPING SETS ((s.region), (o.product))
        """,
        expected="""
            {{
              {'r': 'eu', 'p': null, 'n': 2},
              {'r': 'us', 'p': null, 'n': 2},
              {'r': null, 'p': 'a', 'n': 3},
              {'r': null, 'p': 'b', 'n': 1}
            }}
        """,
    )
)

register(
    ConformanceCase(
        case_id="K-window-nested",
        section="V-B",
        title="A window function ranking unnested rows",
        data={"sales": NESTED_SALES},
        query="""
            SELECT o.product AS p, o.amount AS a,
                   RANK() OVER (PARTITION BY o.product
                                ORDER BY o.amount DESC) AS rk
            FROM sales AS s, s.orders AS o
        """,
        expected="""
            {{
              {'p': 'a', 'a': 40, 'rk': 1},
              {'p': 'a', 'a': 30, 'rk': 2},
              {'p': 'a', 'a': 10, 'rk': 3},
              {'p': 'b', 'a': 20, 'rk': 1}
            }}
        """,
    )
)

register(
    ConformanceCase(
        case_id="K-window-running",
        section="V-B",
        title="A running aggregate window over heterogeneous rows",
        data={"t": "{{ {'k': 'x', 'v': 1}, {'k': 'x', 'v': 2}, {'k': 'y', 'v': 5} }}"},
        query="""
            SELECT r.k AS k, r.v AS v,
                   SUM(r.v) OVER (PARTITION BY r.k ORDER BY r.v) AS run
            FROM t AS r
        """,
        expected="""
            {{
              {'k': 'x', 'v': 1, 'run': 1},
              {'k': 'x', 'v': 2, 'run': 3},
              {'k': 'y', 'v': 5, 'run': 5}
            }}
        """,
    )
)

register(
    ConformanceCase(
        case_id="K-window-of-aggregates",
        section="V-B",
        title="A window ranking grouped aggregates",
        data={"t": "{{ {'k': 'a', 'v': 1}, {'k': 'a', 'v': 3}, {'k': 'b', 'v': 2} }}"},
        query="""
            SELECT k, SUM(r.v) AS total,
                   RANK() OVER (ORDER BY SUM(r.v) DESC) AS rk
            FROM t AS r GROUP BY r.k AS k
        """,
        expected="""
            {{
              {'k': 'a', 'total': 4, 'rk': 1},
              {'k': 'b', 'total': 2, 'rk': 2}
            }}
        """,
    )
)

ABSENT_KEYS = (
    "{{ {'id': 1, 'a': 3}, {'id': 2, 'a': null}, {'id': 3, 'a': 1}, {'id': 4} }}"
)

register(
    ConformanceCase(
        case_id="K-window-nulls-last",
        section="V-B",
        title="A window's ORDER BY honours NULLS LAST like the query's does",
        data={"t": ABSENT_KEYS},
        query="""
            SELECT r.id AS id,
                   ROW_NUMBER() OVER (ORDER BY r.a NULLS LAST) AS rn
            FROM t AS r
        """,
        expected="""
            {{
              {'id': 3, 'rn': 1},
              {'id': 1, 'rn': 2},
              {'id': 4, 'rn': 3},
              {'id': 2, 'rn': 4}
            }}
        """,
        notes="Absent keys go last; among them MISSING sorts before NULL.",
    )
)

register(
    ConformanceCase(
        case_id="K-window-desc-nulls-first",
        section="V-B",
        title="A window's ORDER BY ... DESC honours NULLS FIRST",
        data={"t": ABSENT_KEYS},
        query="""
            SELECT r.id AS id,
                   ROW_NUMBER() OVER (ORDER BY r.a DESC NULLS FIRST) AS rn
            FROM t AS r
        """,
        expected="""
            {{
              {'id': 2, 'rn': 1},
              {'id': 4, 'rn': 2},
              {'id': 1, 'rn': 3},
              {'id': 3, 'rn': 4}
            }}
        """,
        notes="Descending: NULL before MISSING among the absent keys.",
    )
)

register(
    ConformanceCase(
        case_id="K-deep-path",
        section="ext",
        title="Deep-path wildcards map trailing steps per element",
        data={"t": "{{ {'ps': [{'n': 'a'}, {'n': 'b'}, {'x': 1}]} }}"},
        query="SELECT VALUE r.ps[*].n FROM t AS r",
        expected="{{ ['a', 'b'] }}",
        notes="Dialect extension (PartiQL path wildcards); MISSING "
        "per-element results are dropped.",
    )
)

register(
    ConformanceCase(
        case_id="K-setop-multiset",
        section="V",
        title="EXCEPT ALL uses multiset semantics under deep equality",
        query="""
            (SELECT VALUE v FROM [[1], [1], {'a': 2}] AS v)
            EXCEPT ALL
            (SELECT VALUE v FROM [[1]] AS v)
        """,
        expected="{{ [1], {'a': 2} }}",
    )
)

register(
    ConformanceCase(
        case_id="K-order-heterogeneous",
        section="V-B",
        title="ORDER BY totally orders across types",
        data={"t": "{{ 'str', 2, true, [0], {'a': 1}, null }}"},
        query="SELECT VALUE TYPEOF(v) FROM t AS v ORDER BY v",
        expected="['null', 'boolean', 'integer', 'string', 'array', 'tuple']",
        ordered=True,
    )
)

register(
    ConformanceCase(
        case_id="K-left-join-lateral",
        section="III",
        title="LEFT JOIN against a correlated (lateral) nested collection",
        data={
            "t": """
                {{ {'id': 1, 'xs': [10]},
                   {'id': 2, 'xs': []} }}
            """
        },
        query="""
            SELECT r.id AS id, x AS x
            FROM t AS r LEFT JOIN r.xs AS x ON TRUE
        """,
        expected="{{ {'id': 1, 'x': 10}, {'id': 2, 'x': null} }}",
    )
)

register(
    ConformanceCase(
        case_id="K-strict-stops-on-dirty",
        section="IV",
        title="Stop-on-error mode refuses to aggregate past dirty data",
        data={"t": "{{ {'v': 1}, {'v': 'dirty'} }}"},
        query="SELECT VALUE AVG(r.v) FROM t AS r",
        expect_error="TypeCheckError",
        typing_mode="strict",
    )
)
