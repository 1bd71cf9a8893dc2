"""Property test: the batch (chunk-vectorized) executor preserves
streaming semantics.

For randomly generated workloads — heterogeneous rows with optional
(sometimes-MISSING) attributes, filters, LET chains, joins, GROUP BY
with aggregates and HAVING — execution with ``batch=True`` must produce
the same *bag* as the row-at-a-time streaming pipeline, and the identical *list* when ORDER BY fixes a total order.

Bag comparison (not ordered) is the right contract for unordered
queries: the batch pipeline is clause-major like the eager reference
engine, so its emission order can differ from the streaming pipeline's
row-major order, but SQL++ query results without ORDER BY are bags.

Every workload also runs under ``typing_mode="strict"``, where the
generated rows (integers, strings, NULL and MISSING under one attribute)
make the kernels raise.  The contract there: the engine's executors
agree exactly — same bag or same error class, which the replay of
``Evaluator._eval_block_query`` gives by construction — and against the
oracle: the same bag, or an error of the same class, or the oracle
raises where a bounded consumer (EXISTS, IN, LIMIT) stopped the engine
before the offending element (docs/LANGUAGE.md §8).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.catalog.catalog import Catalog
from repro.config import EvalConfig
from repro.core.chunk import Chunk
from repro.core.compile_expr import compile_batch
from repro.core.environment import Environment
from repro.core.evaluator import Evaluator
from repro.core.reference import ReferenceEvaluator
from repro.core.plan_ops import CHUNK_ROWS
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import MISSING, Bag, Struct
from repro.errors import SQLPPError
from repro.syntax import ast
from repro.syntax.parser import parse_expression


def row_strategy():
    return st.fixed_dictionaries(
        {},
        optional={
            "k": st.one_of(
                st.none(), st.integers(0, 4), st.sampled_from(["a", "b"])
            ),
            "j": st.integers(0, 2),
            "u": st.integers(-10, 10),
        },
    )


def with_ids(rows):
    return [dict(row, id=i) for i, row in enumerate(rows)]


def assert_bag_equal(left, right, query):
    left = Bag(list(left)) if isinstance(left, (list, Bag)) else left
    right = Bag(list(right)) if isinstance(right, (list, Bag)) else right
    assert deep_equals(left, right), f"batch parity violation for {query!r}"


TYPING_MODES = ("permissive", "strict")


def outcome(db: Database, query: str, **dials):
    """The query's result, or the class of the error it raises."""
    try:
        return db.execute(query, **dials)
    except SQLPPError as error:
        return type(error)


def run_modes(db: Database, query: str, ordered: bool = False) -> None:
    for typing_mode in TYPING_MODES:
        streaming = outcome(db, query, batch=False, typing_mode=typing_mode)
        assert db.metrics.last.batched is False
        result = outcome(db, query, typing_mode=typing_mode)
        if isinstance(streaming, type) or isinstance(result, type):
            assert typing_mode == "strict" and result is streaming, (
                query, result, streaming,
            )
        elif ordered:
            assert deep_equals(list(result), list(streaming)), query
        else:
            assert_bag_equal(result, streaming, query)


@pytest.fixture(autouse=True)
def verified(monkeypatch):
    """Every plan any sample produces goes through the structural
    verifier."""
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")


@given(st.lists(row_strategy(), min_size=8, max_size=24))
@settings(max_examples=25, deadline=None)
def test_filter_let_project_parity(rows):
    db = Database()
    db.set("t", with_ids(rows))
    run_modes(
        db,
        "SELECT VALUE {'id': t.id, 'w': w} FROM t AS t "
        "LET w = t.u * 2 WHERE t.j >= 1 AND w > -10",
    )
    run_modes(db, "SELECT DISTINCT t.j AS j FROM t AS t")


@given(st.lists(row_strategy(), min_size=8, max_size=24))
@settings(max_examples=25, deadline=None)
def test_order_by_is_list_identical(rows):
    db = Database()
    db.set("t", with_ids(rows))
    run_modes(
        db,
        "SELECT t.id AS id, t.k AS k FROM t AS t "
        "ORDER BY t.k DESC NULLS FIRST, t.id",
        ordered=True,
    )


@given(st.lists(row_strategy(), min_size=8, max_size=24))
@settings(max_examples=25, deadline=None)
def test_group_by_aggregates_parity(rows):
    db = Database()
    db.set("t", with_ids(rows))
    run_modes(
        db,
        "SELECT j, COUNT(*) AS n, SUM(t.u) AS total, AVG(t.u) AS mean "
        "FROM t AS t GROUP BY t.j AS j HAVING COUNT(*) >= 1",
    )
    run_modes(
        db,
        "SELECT k, (SELECT VALUE e.t.u FROM g AS e) AS members "
        "FROM t AS t GROUP BY t.k AS k GROUP AS g",
    )


@given(
    st.lists(row_strategy(), min_size=8, max_size=20),
    st.lists(row_strategy(), min_size=1, max_size=8),
    st.sampled_from(["JOIN", "LEFT JOIN"]),
)
@settings(max_examples=20, deadline=None)
def test_join_parity(left, right, kind):
    db = Database()
    db.set("lt", with_ids(left))
    db.set("rt", with_ids(right))
    run_modes(
        db,
        "SELECT l.id AS lid, r.id AS rid, r.u AS u FROM lt AS l "
        f"{kind} rt AS r ON l.k = r.k WHERE l.j >= 1",
    )


# ---------------------------------------------------------------------------
# Nested data: lateral unnest / UNPIVOT operators and subquery kernels
# ---------------------------------------------------------------------------
#
# Rows whose nested attribute is any kind of value the Core FROM ranges
# over (paper, Section III-A: array, bag, empty, scalar, tuple, NULL,
# absent, array of arrays), queried through every comma / JOIN / UNPIVOT
# spelling of left-correlation and through subqueries over the row's own
# collection.  Three executions must agree — default (batch), the eager
# reference (``optimize=False``) and streaming (``batch=False``) — in
# value *and* in type: a Bag stays a Bag (an empty one, never MISSING),
# an array an array.

nested_elements = st.one_of(
    st.none(),
    st.integers(-2, 5),
    st.sampled_from(["a", "b"]),
    st.fixed_dictionaries(
        {},
        optional={
            "n": st.one_of(st.integers(0, 4), st.none(), st.just("x")),
            "m": st.integers(0, 2),
        },
    ),
)
nested_attribute = st.one_of(
    st.lists(nested_elements, max_size=4),  # array, the empty one included
    st.lists(nested_elements, max_size=3).map(Bag),
    st.integers(0, 3),
    st.just("solo"),
    st.fixed_dictionaries({"n": st.integers(0, 4)}),
    st.none(),
    st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=3),
)
nested_rows = st.lists(
    st.fixed_dictionaries(
        {"j": st.integers(0, 2)},
        optional={
            "xs": nested_attribute,
            # UNPIVOT sources: tuples and non-tuples.
            "o": st.one_of(
                st.fixed_dictionaries(
                    {}, optional={"a": st.integers(0, 3), "b": st.integers(0, 3)}
                ),
                st.integers(0, 3),
                st.none(),
                st.lists(st.integers(0, 2), max_size=2),
            ),
        },
    ),
    min_size=8,
    max_size=20,
)

#: ``(FROM clause, the variables it binds besides t)``.
NESTED_FROMS = [
    ("t AS t, t.xs AS x", ["x"]),
    ("t AS t, t.xs AS x AT p", ["x", "p"]),
    ("t AS t, t.xs AS x, x AS y", ["x", "y"]),
    ("t AS t, t.xs AS x AT p, x AS y AT q", ["x", "p", "y", "q"]),
    ("t AS t LEFT JOIN t.xs AS x ON x.n >= 1", ["x"]),
    ("t AS t LEFT JOIN t.xs AS x AT p ON TRUE", ["x", "p"]),
    ("t AS t INNER JOIN t.xs AS x ON x.m = t.j", ["x"]),
    ("t AS t, t.xs AS x, u AS u", ["x", "u"]),
    ("t AS t, UNPIVOT t.o AS x AT a", ["x", "a"]),
    ("t AS t, UNPIVOT t.o AS x AT a, t.xs AS y", ["x", "a", "y"]),
]

#: Consumers over ``FROM … `` binding ``t`` and ``x``; ``{vars}`` is the
#: tuple of every bound variable.
NESTED_CONSUMERS = [
    ("SELECT VALUE {{'id': t.id, {vars}}} FROM {from_}", False),
    # Pushdown onto the lateral operator, its left child, and a residual.
    (
        "SELECT VALUE {{'id': t.id, {vars}}} FROM {from_} "
        "WHERE x.n >= 1 AND t.j <= 1 AND (x.m = t.j OR x IS NOT NULL)",
        False,
    ),
    (
        "SELECT k, COUNT(*) AS c, SUM(x.n) AS total, MIN(t.id) AS lo "
        "FROM {from_} GROUP BY x.m AS k",
        False,
    ),
    ("SELECT x AS x, COUNT(*) AS c FROM {from_} GROUP BY x", False),
    ("SELECT DISTINCT x AS x, t.j AS j FROM {from_}", False),
    ("SELECT t.id AS id, x AS x FROM {from_} ORDER BY t.id, x", True),
]

#: Subqueries over the row's own collection.  The first group compiles
#: to the flatten-and-segment kernel, the second must fall back.
NESTED_SUBQUERIES = [
    "SELECT t.id AS id, (SELECT VALUE x.n + 1 FROM t.xs AS x WHERE x.n >= 1) "
    "AS big FROM t AS t",
    "SELECT t.id AS id, (SELECT VALUE x FROM t.xs AS x) AS same FROM t AS t",
    "SELECT t.id AS id FROM t AS t WHERE EXISTS "
    "(SELECT VALUE x FROM t.xs AS x WHERE x.n > 1)",
    "SELECT t.id AS id FROM t AS t WHERE NOT EXISTS (SELECT VALUE x FROM t.xs AS x)",
    "SELECT t.id AS id, COLL_SUM((SELECT VALUE x.m FROM t.xs AS x)) AS s, "
    "COLL_COUNT((SELECT VALUE x FROM t.xs AS x WHERE x.m = t.j)) AS c FROM t AS t",
    "SELECT t.id AS id, (SELECT VALUE [p, q, y] FROM t.xs AS x AT p, x AS y AT q) "
    "AS flat FROM t AS t",
    "SELECT t.id AS id, (SELECT VALUE a FROM UNPIVOT t.o AS v AT a WHERE v >= 1) "
    "AS names FROM t AS t",
    "SELECT j, COLL_COUNT((SELECT VALUE x FROM g AS m, m.t.xs AS x)) AS n "
    "FROM t AS t GROUP BY t.j AS j GROUP AS g",
    # -- fallbacks -------------------------------------------------------
    "SELECT t.id AS id, (SELECT VALUE x.n FROM t.xs AS x ORDER BY x.n, x.m LIMIT 1) "
    "AS least FROM t AS t",
    "SELECT t.id AS id, (SELECT VALUE [n, COLL_COUNT(g)] FROM t.xs AS x "
    "GROUP BY x.n AS n GROUP AS g) AS counts FROM t AS t",
    "SELECT t.id AS id, (SELECT DISTINCT VALUE x.m FROM t.xs AS x) AS ms FROM t AS t",
    "SELECT t.id AS id FROM t AS t WHERE EXISTS (SELECT VALUE x FROM t.xs AS x "
    "WHERE x.m IN (SELECT VALUE u.m FROM u AS u))",
    "SELECT t.id AS id FROM t AS t WHERE t.j IN (SELECT x.m FROM t.xs AS x)",
    "SELECT t.id AS id FROM t AS t WHERE t.j = (SELECT x.m FROM t.xs AS x LIMIT 1)",
]


def typed(value):
    """A canonical, order-free-for-bags form that keeps the collection
    kind and the NULL / MISSING / boolean distinctions."""
    if value is MISSING:
        return ("missing",)
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("number", float(value))
    if isinstance(value, str):
        return ("string", value)
    if isinstance(value, Struct):
        return ("tuple", tuple((name, typed(item)) for name, item in value.items()))
    if isinstance(value, Bag):
        return ("bag", tuple(sorted((typed(item) for item in value), key=repr)))
    assert isinstance(value, list), value
    return ("array", tuple(typed(item) for item in value))


def nested_db(rows, sql_compat: bool = True) -> Database:
    db = Database(sql_compat=sql_compat)
    db.set("t", with_ids(rows))
    db.set("u", [{"m": 0}, {"m": 1}])
    return db


def three_ways(db: Database, query: str, ordered: bool = False) -> None:
    reference = db.execute(query, optimize=False)
    assert isinstance(reference, list if ordered else Bag), query
    expected = typed(reference)
    for overrides in ({}, {"batch": False}):
        result = db.execute(query, **overrides)
        assert typed(result) == expected, (query, overrides)
    db.execute(query)
    assert db.metrics.last.batched is True, query
    assert db.verify_plan(query) == [], query
    three_ways_strict(db, query)


#: Consumers that may stop before an element the oracle's eager
#: evaluation raises on (docs/LANGUAGE.md §8, "early termination").
BOUNDED_CONSUMERS = ("EXISTS", " IN (SELECT", "LIMIT")


def three_ways_strict(db: Database, query: str, one_class: bool = True) -> None:
    """The strict contract.  ``one_class`` False: the data can raise
    errors of two classes, and which the row-major stream meets first
    need not be the one the clause-major oracle meets first.  The
    executor's two modes agree exactly."""

    def strict(**dials):
        result = outcome(db, query, typing_mode="strict", **dials)
        return result if isinstance(result, type) else typed(result)

    reference = strict(optimize=False)
    streaming = strict(batch=False)
    assert strict() == streaming, query
    if isinstance(streaming, type):
        assert isinstance(reference, type), (query, streaming, reference)
        assert streaming is reference or not one_class, (query, streaming, reference)
    elif streaming != reference:
        assert isinstance(reference, type), (query, streaming, reference)
        assert any(word in query for word in BOUNDED_CONSUMERS), query
    assert db.verify_plan(query, typing_mode="strict") == [], query


@given(
    nested_rows,
    st.sampled_from(NESTED_FROMS),
    st.sampled_from(NESTED_CONSUMERS),
)
@settings(max_examples=150, deadline=None)
def test_nested_from_parity(rows, from_, consumer):
    clause, variables = from_
    template, ordered = consumer
    query = template.format(
        from_=clause, vars=", ".join(f"'{name}': {name}" for name in variables)
    )
    three_ways(nested_db(rows), query, ordered)


@given(nested_rows, st.sampled_from(NESTED_SUBQUERIES), st.booleans())
@settings(max_examples=150, deadline=None)
def test_subquery_over_own_collection_parity(rows, query, sql_compat):
    three_ways(nested_db(rows, sql_compat), query)


# ---------------------------------------------------------------------------
# Strict typing: mostly clean rows, a little dirt
# ---------------------------------------------------------------------------
#
# The strategies above are all-or-nothing under strict typing (the flat
# rows never raise, the nested ones nearly always do).  Here the rows are
# well typed except for at most two: a string where a number is expected
# (``TypeCheckError``) and/or a zero divisor (``EvaluationError``) — so
# samples mix results, one error, and two errors of different classes in
# either order, which is where a bare column-major / row-major-fold /
# over-evaluating batch run would surface the wrong one.

clean_rows = st.lists(
    st.fixed_dictionaries(
        {
            "a": st.integers(-3, 3),
            "b": st.integers(1, 3),
            "xs": st.lists(st.integers(0, 5), max_size=4),
        }
    ),
    min_size=8,
    max_size=24,
)
STRING_A, STRING_XS, ZERO_B = {"a": "x"}, {"xs": [5, "z", 2]}, {"b": 0}
#: What to spoil, in row order.  Half the plans hold both error classes.
DIRT_PLANS = [
    (), (STRING_A,), (STRING_XS,), (ZERO_B,), (STRING_A, STRING_XS),
    (ZERO_B, STRING_A), (STRING_A, ZERO_B), (ZERO_B, STRING_XS),
    (STRING_XS, ZERO_B), (ZERO_B, STRING_A, STRING_XS),
]

STRICT_QUERIES = [
    "SELECT VALUE (t.a + 1) / t.b FROM t AS t",
    "SELECT VALUE t.a * 2 FROM t AS t WHERE 6 / t.b > 1 AND t.a < 3",
    "SELECT VALUE w FROM t AS t LET w = t.a - 1, v = w / t.b WHERE v < 2",
    "SELECT t.b AS b, SUM(t.a / t.b) AS s FROM t AS t GROUP BY t.b",
    "SELECT t.b AS b, COUNT(*) AS n, MAX(t.a + 1) AS m FROM t AS t "
    "GROUP BY t.b HAVING SUM(6 / t.b) > 0",
    "SELECT DISTINCT VALUE t.a + t.b FROM t AS t",
    "SELECT t.id AS id, x AS x FROM t AS t, t.xs AS x WHERE x / t.b >= 1",
    "SELECT b, SUM(x) AS s FROM t AS t, t.xs AS x GROUP BY t.b AS b",
    "SELECT VALUE t.id FROM t AS t WHERE EXISTS "
    "(SELECT VALUE x FROM t.xs AS x WHERE x > 1)",
    "SELECT VALUE t.id FROM t AS t WHERE t.a IN (SELECT VALUE x - 2 FROM t.xs AS x)",
    "SELECT VALUE (SELECT VALUE x + t.a FROM t.xs AS x WHERE x > 1) FROM t AS t",
    "SELECT VALUE COLL_SUM((SELECT VALUE x / t.b FROM t.xs AS x)) FROM t AS t",
    "SELECT VALUE d + 1 FROM (SELECT VALUE t.a / t.b FROM t AS t) AS d",
    "(SELECT VALUE t.a + 1 FROM t AS t) UNION ALL (SELECT VALUE 6 / t.b FROM t AS t)",
    "SELECT VALUE t.id FROM t AS t ORDER BY t.a / t.b, t.id",
]


@given(
    clean_rows,
    st.sampled_from(DIRT_PLANS),
    st.lists(st.integers(0, 7), min_size=3, max_size=3, unique=True).map(sorted),
    st.sampled_from(STRICT_QUERIES),
)
@settings(max_examples=200, deadline=None)
def test_strict_executors_agree_on_dirty_rows(rows, dirt, places, query):
    rows = with_ids(rows)
    for index, patch in zip(places, dirt):
        rows[index].update(patch)
    db = Database()
    db.set("t", rows)
    two_classes = ZERO_B in dirt and len(dirt) > 1
    three_ways_strict(db, query, one_class=not two_classes)


# ---------------------------------------------------------------------------
# Chunk kernels: kernel == env-space closure == eval_expr, per node kind
# ---------------------------------------------------------------------------
#
# ``compile_batch`` evaluates a whole column at a time with the
# well-typed case inlined; everything else must still be the one
# ``ops.*`` definition.  So for generated expressions over every node
# kind that has a kernel (and some that fall back), and chunks mixing
# every value category, the kernel's column must be *identical* to what
# the env-space closure and the tree-walking interpreter produce row by
# row — identity for MISSING/NULL/booleans, same type and value for the
# rest, so MISSING-vs-NULL or 1-vs-1.0-vs-TRUE cannot blur.

ROW_VARS = frozenset({"r", "s"})

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.sampled_from([0.5, 2.0, -1.25, float("nan"), float("inf")]),
    st.sampled_from(["", "a", "ab", "x%", "b"]),
)
nested = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.builds(
        Struct,
        st.lists(st.tuples(st.sampled_from(["n", "a"]), scalars), max_size=2),
    ),
)
#: Tuples with the attributes at varying positions, absent or repeated.
tuples_ = st.builds(
    Struct,
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "n", "pad"]), nested), max_size=5
    ),
)
chunk_rows = st.lists(
    st.fixed_dictionaries(
        {
            "r": st.one_of(tuples_, tuples_, scalars, st.just(MISSING)),
            "s": st.one_of(nested, st.just(MISSING)),
        }
    ),
    min_size=1,
    max_size=6,
)

kernel_literals = st.builds(
    ast.Literal,
    st.one_of(
        st.none(), st.just(MISSING), st.booleans(), st.integers(-2, 4),
        st.sampled_from([1.5, 2.0]), st.sampled_from(["a", "b", "a%", "_b"]),
    ),
)
literal_lists = st.one_of(
    st.lists(st.builds(ast.Literal, st.sampled_from(["a", "b", "ab"])), min_size=1, max_size=3),
    st.lists(st.builds(ast.Literal, st.sampled_from([1, 2.0, 3])), min_size=1, max_size=3),
    st.lists(st.builds(ast.Literal, st.sampled_from([1, "a", None])), min_size=1, max_size=3),
).map(lambda items: ast.ArrayLit(items))


def kernel_expressions(depth=3):
    r, s = ast.VarRef("r"), ast.VarRef("s")
    leaves = st.one_of(
        kernel_literals,
        st.sampled_from(
            [
                r, s,
                ast.Path(r, "a"), ast.Path(r, "b"), ast.Path(s, "a"),
                ast.Path(ast.Path(r, "a"), "n"), ast.Path(ast.Path(r, "n"), "a"),
                ast.VarRef("encl"),   # bound by the enclosing environment
                ast.VarRef("named"),   # a catalog name
            ]
        ),
    )
    if depth == 0:
        return leaves
    inner = kernel_expressions(depth - 1)
    binary_ops = st.sampled_from(
        ["+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=", "||", "AND", "OR"]
    )
    return st.one_of(
        leaves,
        st.builds(ast.Path, inner, st.sampled_from(["a", "n"])),
        st.builds(ast.Index, inner, st.one_of(inner, kernel_literals)),
        st.builds(ast.Binary, binary_ops, inner, inner),
        st.builds(ast.Binary, binary_ops, inner, kernel_literals),
        st.builds(ast.Unary, st.sampled_from(["-", "+", "NOT"]), inner),
        st.builds(
            ast.IsPredicate,
            inner,
            st.sampled_from(["NULL", "MISSING", "ABSENT", "INTEGER", "STRING", "NUMBER"]),
            st.booleans(),
        ),
        st.builds(ast.Like, inner, st.one_of(kernel_literals, inner), st.none(), st.booleans()),
        st.builds(ast.Between, inner, st.one_of(kernel_literals, inner), inner, st.booleans()),
        st.builds(ast.InPredicate, inner, st.one_of(literal_lists, inner), st.booleans()),
        st.builds(ast.Exists, inner),
        st.builds(
            ast.CaseExpr,
            st.one_of(st.none(), inner),
            st.lists(st.tuples(inner, inner), min_size=1, max_size=2),
            st.one_of(st.none(), inner),
        ),
        st.builds(
            ast.FunctionCall,
            st.sampled_from(["UPPER", "ABS", "COALESCE", "TYPEOF", "IFMISSING", "NO_SUCH_FN"]),
            st.lists(inner, min_size=1, max_size=2),
        ),
        st.builds(ast.ArrayLit, st.lists(inner, max_size=3)),
        st.builds(ast.BagLit, st.lists(inner, max_size=2)),
        st.builds(
            ast.StructLit,
            st.lists(
                st.builds(
                    ast.StructField,
                    st.builds(ast.Literal, st.sampled_from(["x", "y"])),
                    inner,
                ),
                max_size=3,
            ),
        ),
        # Node kinds without a kernel take the recorded fallback.
        st.builds(ast.CastExpr, inner, st.just("STRING")),
        # A subquery over the row's own value (ranging ``s``, so the
        # inner expressions see the element through the shadowed name):
        # the flatten-and-segment kernel when every part is relocatable,
        # the fallback otherwise.
        st.builds(
            own_collection_subquery,
            st.sampled_from([ast.Path(r, "b"), ast.Path(r, "a"), s, r]),
            inner,
            st.one_of(st.none(), inner),
            st.booleans(),
        ),
    )


def own_collection_subquery(source, select, where, exists):
    if where is not None:
        # The block is planned (and, in this file, verified): a WHERE
        # conjunct the parser produced would carry a source span.
        for node in where.walk():
            node.line, node.column = 1, 1
    subquery = ast.SubqueryExpr(
        ast.Query(
            ast.QueryBlock(
                select=ast.SelectValue(select),
                from_=[ast.FromCollection(source, "s")],
                where=where,
            )
        )
    )
    return ast.Exists(subquery) if exists else subquery


def identical(left, right) -> bool:
    if left is MISSING or left is None or isinstance(left, bool):
        return left is right
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        return (math.isnan(left) and math.isnan(right)) or left == right
    if isinstance(left, (int, str)):
        return left == right
    if isinstance(left, Struct):
        mine, theirs = left.items(), right.items()
        return len(mine) == len(theirs) and all(
            a == b and identical(v, w) for (a, v), (b, w) in zip(mine, theirs)
        )
    mine, theirs = list(left), list(right)
    return len(mine) == len(theirs) and all(map(identical, mine, theirs))


def check_kernel(expr, rows, sql_compat):
    catalog = Catalog()
    catalog.set("named", [1, 2, 3])
    config = EvalConfig(sql_compat=sql_compat)
    evaluator = Evaluator(catalog, config)
    interpreter = ReferenceEvaluator(catalog, config)
    root = Environment({"encl": 2})

    def attempt(fn):
        try:
            return ("value", fn())
        except SQLPPError as exc:
            return ("error", type(exc).__name__)
        except Exception as exc:  # Unbound and friends
            return ("error", type(exc).__name__)

    closure = evaluator.compiled(expr)
    by_closure = [attempt(lambda: closure(root.extend(row))) for row in rows]
    by_interpreter = [
        attempt(lambda: interpreter.eval_expr(expr, root.extend(row))) for row in rows
    ]
    batch = compile_batch(expr, evaluator, ROW_VARS)
    errors = {outcome[1] for outcome in by_interpreter if outcome[0] == "error"}
    catalog.set_model("rs", [row["r"] for row in rows])

    def scanned(positions):
        source = catalog.column_source("rs", catalog.get("rs"))
        s_column = [row["s"] for row in rows]
        return Chunk(len(rows), {"s": s_column}, {"r": (source, positions)})

    def inputs():
        # Twice: whatever the first call leaves behind in the compiled
        # kernel must not change the second call's column.
        yield rows
        yield rows
        # ``r`` scanned from a stored catalog collection: read through
        # the stored columns at its positions, before an insert and,
        # from the extended columns, after it — the prefix by a range,
        # the appended copy by a list of positions (as after a filter).
        yield scanned(range(len(rows)))
        catalog.append("rs", [row["r"] for row in rows])
        yield scanned(range(len(rows)))
        yield scanned([len(rows) + k for k in range(len(rows))])

    for chunk in inputs():
        kernel = attempt(lambda: batch(chunk, root))
        if kernel[0] == "error":
            # Column-major order may surface another row's error first,
            # but only one the reference raises on this chunk too.
            assert kernel[1] in errors, (kernel, by_interpreter)
            continue
        assert not errors, (kernel, by_interpreter)
        assert len(kernel[1]) == len(rows)
        for value, (__, closed), (__, walked) in zip(
            kernel[1], by_closure, by_interpreter
        ):
            assert identical(value, closed), (value, closed)
            assert identical(value, walked), (value, walked)


@given(kernel_expressions(), chunk_rows, st.booleans())
@settings(max_examples=500, deadline=None)
def test_kernel_matches_closure_and_interpreter(expr, rows, sql_compat):
    check_kernel(expr, rows, sql_compat)
    check_kernel(expr, rows[:1], sql_compat)
    check_kernel(expr, [], sql_compat)


@given(kernel_expressions(depth=2), chunk_rows, st.booleans())
@settings(max_examples=25, deadline=None)
def test_kernel_over_more_than_a_chunk(expr, rows, sql_compat):
    tiled = [dict(row) for __ in range(CHUNK_ROWS // len(rows) + 1) for row in rows]
    assert len(tiled) > CHUNK_ROWS
    check_kernel(expr, tiled, sql_compat)


#: One expression (at least) per node kind with a kernel, the literal-
#: and column-operand variants of the binary templates, and the node
#: kinds that fall back.
KERNEL_CASES = [
    "r.a > 1", "r.a >= 2.5", "r.a < 'b'", "r.a <= r.b", "2 > r.a",
    "r.a = 1", "r.a = 'a'", "r.a != 2.5", "r.a = r.b", "r.a != r.b", "r.a = TRUE",
    "r.a + 1", "r.a - 0.5", "r.a * 2", "r.a + r.b", "r.a - r.b", "r.a * r.b",
    "r.a / 2", "r.a / r.b", "r.a % 2", "r.a + 'a'", "1 + r.a",
    "r.a > 1 AND r.b < 3", "r.a OR r.b", "r.a AND TRUE", "NOT r.a", "-r.a", "+r.a",
    "r.a IS NULL", "r.a IS NOT NULL", "r.a IS MISSING", "r.a IS NOT MISSING",
    "r.a IS NOT STRING", "NO_SUCH_FN(r.a)",
    "r.a || r.b", "r.a || 'z'",
    "r.a BETWEEN 1 AND 3", "r.a NOT BETWEEN r.b AND 5",
    "r.a LIKE 'a%'", "r.a NOT LIKE '_'", "r.a LIKE r.b", "r.a LIKE 'a!%' ESCAPE '!'",
    "r.a IN ['a', 'first']", "r.a NOT IN ['a']", "r.a IN [1, 2.5]",
    "r.a IN [1, 'a']", "r.a IN r.b", "r.a IN [TRUE]",
    "r.b[0]", "r['a']", "r.a.n", "s", "r", "s.a", "r.a.n.deep",
    "EXISTS r.b", "UPPER(r.a)", "COALESCE(r.a, r.b, 0)", "ABS(r.a)",
    "{'x': r.a, 'y': r.b}", "{'x': r.a, 'x': r.b}", "[r.a, r.b]", "{{r.a, s}}",
    "CASE WHEN r.a > 1 THEN r.b WHEN r.a IS NULL THEN 'n' ELSE r.a END",
    "CASE r.a WHEN 1 THEN 'one' WHEN r.b THEN 'same' END",
    "CASE WHEN r.a THEN 1 END",
    "CASE WHEN r.a = 1 THEN 1 / 0 WHEN r.a = 'a' THEN UPPER(r.a) ELSE r.a.n END",
    "CAST(r.a AS INT)", "CAST(r.b AS STRING)", "COLL_COUNT(DISTINCT r.b)",
    "$TUPLE_MERGE(r, {'n': r.a})",
    # Names outside the row keep the env-space fallback.
    "encl + r.a", "named[r.a]",
    "(SELECT VALUE x FROM named AS x WHERE x = r.a)",
    # Subqueries over the row's own collection: segment kernels ...
    "(SELECT VALUE x FROM r.b AS x)", "(SELECT VALUE x + 1 FROM r.b AS x WHERE x >= 1)",
    "(SELECT VALUE [p, x] FROM r.b AS x AT p)", "(SELECT VALUE y FROM r.b AS x, x AS y)",
    "(SELECT VALUE [a, v] FROM UNPIVOT r AS v AT a WHERE a != 'pad')",
    "(SELECT VALUE s FROM r.b AS s WHERE s = encl)",
    "EXISTS (SELECT VALUE x FROM r.b AS x WHERE x = 1)",
    "NOT EXISTS (SELECT VALUE x FROM r.a AS x)",
    "EXISTS (SELECT VALUE no_such_name FROM r.b AS x)",
    "COLL_COUNT((SELECT VALUE x FROM s AS x))", "COLL_SUM((SELECT VALUE x FROM r.b AS x))",
    # ... and the shapes that keep the env-space fallback.
    "(SELECT VALUE x FROM r.b AS x ORDER BY x LIMIT 1)",
    "(SELECT DISTINCT VALUE x FROM r.b AS x)",
    "EXISTS (SELECT VALUE x FROM r.b AS x WHERE CAST(x AS STRING) = NO_SUCH_FN(x))",
]

#: Every value category under ``r.a``/``r.b``, the attribute at
#: different positions, absent and repeated, and non-tuple bases.  The
#: repeated-name rows put a second ``a`` where a neighbouring layout
#: has its only one, so reading any position but the first is caught.
DIRTY_CHUNK = [
    {"r": Struct(pairs), "s": s_value}
    for pairs, s_value in [
        ([("a", 1), ("b", 2)], 1),
        ([("pad", 0), ("a", 2.5), ("b", "x")], "s"),
        ([("b", 1), ("a", "a")], None),
        ([("a", True), ("b", False)], MISSING),
        ([("a", None), ("b", 3)], [1, 2]),
        ([("b", [1, "a"])], Struct([("a", 5)])),
        ([], 2.5),
        ([("a", "first"), ("pad", 0), ("a", "second"), ("b", "a%")], True),
        ([("pad", 0), ("b", 0), ("a", 3)], 0),
        ([("a", float("nan")), ("b", float("nan"))], "ab"),
        ([("a", float("inf")), ("b", -1)], ""),
        ([("a", Struct([("n", 1)])), ("b", Struct([("n", 1)]))], 7),
        ([("a", [1, 2]), ("b", [1, 2])], False),
        ([("a", "ab"), ("b", "a_")], "b"),
        ([("a", "a%"), ("b", 5)], 3),
        ([("pad", 1), ("pad", 2), ("a", 4), ("b", 4)], 4),
    ]
] + [
    {"r": base, "s": 1} for base in (5, "str", None, MISSING, [1], True)
]


@pytest.mark.parametrize("sql_compat", [True, False])
@pytest.mark.parametrize("source", KERNEL_CASES)
def test_kernel_per_node_kind_over_a_dirty_chunk(source, sql_compat):
    expr = parse_expression(source)
    check_kernel(expr, DIRTY_CHUNK, sql_compat)
    check_kernel(expr, list(reversed(DIRTY_CHUNK)), sql_compat)
