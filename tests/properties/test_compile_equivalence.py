"""Property: the row compiler is total and agrees with the oracle.

For any generated expression and environment, the engine's
``Evaluator.compiled(expr)(env)`` must produce exactly what the
reference interpreter's ``ReferenceEvaluator.eval_expr(expr, env)``
produces — same value, or the same exception type — in both typing
modes and both compat modes.  The two share no evaluation code (only
the value-level ``ops.*`` definitions), so this is a comparison between
independent implementations, not of the compiler with itself.

The exhaustiveness test holds the three per-node-kind tables against
the AST: every concrete ``ast.Expr`` subclass has a tree-walker entry,
a row closure, and either a chunk kernel or a recorded env-space
``fallback`` — a new node kind cannot ship on one side only.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.catalog.catalog import Catalog
from repro.config import EvalConfig
from repro.core import compile_expr, reference
from repro.core.environment import Environment
from repro.core.evaluator import Evaluator
from repro.core.reference import ReferenceEvaluator
from repro.datamodel.convert import from_python
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import MISSING, Struct
from repro.errors import SQLPPError
from repro.syntax import ast
from repro.syntax.parser import parse_expression

#: ``q`` is the range variable of generated subqueries (unbound elsewhere).
identifiers = st.sampled_from(["x", "y", "r", "zz", "q"])

literals = st.builds(
    ast.Literal,
    st.one_of(
        st.none(),
        st.just(MISSING),
        st.booleans(),
        st.integers(-100, 100),
        st.floats(allow_nan=False, allow_infinity=False, width=16),
        st.text(max_size=6),
    ),
)

#: Two values are supplied; ``?3`` is the "no value supplied" error.
PARAMETERS = [7, "p"]


def subqueries(inner):
    """``(SELECT VALUE <select> FROM <source> AS q [WHERE <where>])``,
    its expressions free to mention ``q`` and the outer ``x`` / ``y`` /
    ``r`` (a correlated subquery)."""

    def build(select, source, where, tuples):
        if tuples:  # what the coercions expect: single-attribute tuples
            select = ast.StructLit(
                [ast.StructField(ast.Literal("a"), select)]
            )
        block = ast.QueryBlock(
            select=ast.SelectValue(select),
            from_=[ast.FromCollection(source, "q")],
            where=where,
        )
        return ast.Query(body=block)

    return st.builds(
        build, inner, inner, st.one_of(st.none(), inner), st.booleans()
    )


def expressions(depth=3):
    base = st.one_of(
        literals,
        st.builds(ast.VarRef, identifiers),
        st.builds(ast.Parameter, st.integers(0, 2)),
    )
    if depth == 0:
        return base
    inner = expressions(depth - 1)
    queries = subqueries(inner)
    subquery_exprs = st.one_of(
        st.builds(ast.SubqueryExpr, queries),
        st.builds(
            ast.CoerceSubquery, queries, st.sampled_from(["scalar", "collection"])
        ),
    )
    path_steps = st.one_of(
        st.builds(ast.PathStep, attr=identifiers),
        st.builds(ast.PathStep, index=inner),
        st.builds(ast.PathStep, wildcard=st.sampled_from(["elems", "attrs"])),
    )
    return st.one_of(
        base,
        st.builds(ast.Path, inner, identifiers),
        st.builds(ast.Index, inner, inner),
        st.builds(
            ast.PathWildcard,
            inner,
            st.sampled_from(["elems", "attrs"]),
            st.lists(path_steps, max_size=2),
        ),
        st.builds(
            ast.Binary,
            st.sampled_from(
                ["+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=",
                 "||", "AND", "OR"]
            ),
            inner,
            inner,
        ),
        st.builds(ast.Unary, st.sampled_from(["-", "+", "NOT"]), inner),
        st.builds(
            ast.IsPredicate,
            inner,
            st.sampled_from(["NULL", "MISSING", "INTEGER", "STRING"]),
            st.booleans(),
        ),
        st.builds(
            ast.Like, inner, inner, st.none(), st.booleans()
        ),
        st.builds(ast.Between, inner, inner, inner, st.booleans()),
        st.builds(
            ast.InPredicate, inner, st.one_of(inner, subquery_exprs), st.booleans()
        ),
        st.builds(ast.Exists, st.one_of(inner, subquery_exprs)),
        # Searched (no operand) and simple CASE.
        st.builds(
            ast.CaseExpr,
            st.one_of(st.none(), inner),
            st.lists(st.tuples(inner, inner), min_size=1, max_size=2),
            st.one_of(st.none(), inner),
        ),
        st.builds(
            ast.CastExpr,
            inner,
            st.sampled_from(["INTEGER", "DOUBLE", "STRING", "BOOLEAN", "NOPE"]),
        ),
        subquery_exprs,
        st.builds(
            ast.FunctionCall,
            st.sampled_from(
                ["LOWER", "UPPER", "ABS", "COALESCE", "COLL_SUM", "TYPEOF",
                 "ARRAY_LENGTH", "IFMISSING", "$TUPLE_MERGE", "NO_SUCH_FN"]
            ),
            st.lists(inner, min_size=1, max_size=2),
            distinct=st.booleans(),
            star=st.sampled_from([False, False, False, True]),
        ),
        st.builds(ast.ArrayLit, st.lists(inner, max_size=3)),
        st.builds(ast.BagLit, st.lists(inner, max_size=3)),
        st.builds(
            ast.StructLit,
            st.lists(
                st.builds(
                    ast.StructField,
                    # Literal names, and computed (dynamic) ones.
                    st.one_of(
                        st.builds(ast.Literal, st.sampled_from(["a", "b"])), inner
                    ),
                    inner,
                ),
                max_size=2,
            ),
        ),
    )


environments = st.fixed_dictionaries(
    {},
    optional={
        "x": st.one_of(st.integers(-5, 5), st.text(max_size=3), st.none()),
        "y": st.one_of(
            st.lists(st.integers(0, 5), max_size=3),
            st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 5)),
        ),
        "r": st.dictionaries(
            st.sampled_from(["x", "zz"]), st.integers(0, 9), max_size=2
        ),
    },
)

configs = st.builds(
    EvalConfig,
    typing_mode=st.sampled_from(["permissive", "strict"]),
    sql_compat=st.booleans(),
)


def stops_early(expr) -> bool:
    """Whether ``expr`` contains an EXISTS / IN over a subquery: the
    engine stops those at their first answer, so under strict typing an
    error in a row it never pulled does not surface (docs/LANGUAGE.md
    §8) while the oracle, which evaluates the whole subquery, raises."""
    for node in expr.walk():
        if isinstance(node, ast.Exists) and isinstance(node.operand, ast.SubqueryExpr):
            return True
        if isinstance(node, ast.InPredicate) and isinstance(
            node.collection, (ast.SubqueryExpr, ast.CoerceSubquery)
        ):
            return True
    return False


def run_both(expr, bindings, config):
    catalog = Catalog()
    catalog.set("zz", [1, 2, 3])
    catalog.set("ns.t", [{"a": 1}])
    engine = Evaluator(catalog, config, parameters=PARAMETERS)
    oracle = ReferenceEvaluator(catalog, config, parameters=PARAMETERS)
    env = Environment({name: from_python(value) for name, value in bindings.items()})

    def attempt(fn):
        try:
            return ("value", fn())
        except SQLPPError as exc:
            return ("error", type(exc).__name__)
        except Exception as exc:  # Unbound and friends
            return ("raise", type(exc).__name__)

    expected = attempt(lambda: oracle.eval_expr(expr, env))
    compiled = attempt(lambda: engine.compiled(expr)(env))
    return expected, compiled


@given(expressions(), environments, configs)
@settings(max_examples=600, deadline=None)
def test_compiled_matches_interpreter(expr, bindings, config):
    expected, compiled = run_both(expr, bindings, config)
    if expected[0] != compiled[0] and not config.is_permissive:
        assume(not (compiled[0] == "value" and stops_early(expr)))
    assert expected[0] == compiled[0], (expected, compiled)
    if expected[0] == "value":
        assert deep_equals(expected[1], compiled[1]), (expected, compiled)
    else:
        assert expected[1] == compiled[1]


def test_dotted_catalog_names_resolve_in_closures():
    # ``ns.t`` is a namespaced named value, ``ns.t.a`` navigation into
    # it, ``ns.u`` unbound under the longer dotted name.
    for source in (
        ast.Path(ast.VarRef("ns"), "t"),
        ast.Path(ast.Path(ast.VarRef("ns"), "t"), "a"),
        ast.Path(ast.VarRef("ns"), "u"),
    ):
        expected, compiled = run_both(source, {}, EvalConfig())
        assert expected[0] == compiled[0]
        if expected[0] == "value":
            assert deep_equals(expected[1], compiled[1])
        else:
            assert expected[1] == compiled[1]


# -- exhaustiveness -----------------------------------------------------------


def concrete_expression_kinds():
    kinds, pending = set(), [ast.Expr]
    while pending:
        for kind in pending.pop().__subclasses__():
            pending.append(kind)
            kinds.add(kind)
    return kinds


X = ast.VarRef("x")
_QUERY = ast.Query(
    body=ast.QueryBlock(
        select=ast.SelectValue(X), from_=[ast.FromCollection(X, "q")]
    )
)

#: One minimal instance per concrete expression kind.
SAMPLES = {
    ast.Literal: ast.Literal(1),
    ast.VarRef: X,
    ast.Path: ast.Path(X, "a"),
    ast.Index: ast.Index(X, ast.Literal(0)),
    ast.PathWildcard: ast.PathWildcard(X, "elems"),
    ast.StructLit: ast.StructLit([ast.StructField(ast.Literal("a"), X)]),
    ast.ArrayLit: ast.ArrayLit([X]),
    ast.BagLit: ast.BagLit([X]),
    ast.Unary: ast.Unary("-", X),
    ast.Binary: ast.Binary("+", X, X),
    ast.IsPredicate: ast.IsPredicate(X, "NULL"),
    ast.Like: ast.Like(X, ast.Literal("a%")),
    ast.Between: ast.Between(X, X, X),
    ast.InPredicate: ast.InPredicate(X, ast.ArrayLit([X])),
    ast.Exists: ast.Exists(X),
    ast.CaseExpr: ast.CaseExpr(None, [(X, X)]),
    ast.FunctionCall: ast.FunctionCall("ABS", [X]),
    ast.WindowCall: ast.WindowCall(
        ast.FunctionCall("ROW_NUMBER", []), ast.WindowSpec()
    ),
    ast.SubqueryExpr: ast.SubqueryExpr(_QUERY),
    ast.CoerceSubquery: ast.CoerceSubquery(_QUERY, "scalar"),
    ast.Parameter: ast.Parameter(0),
    ast.CastExpr: ast.CastExpr(X, "STRING"),
}


def test_every_expression_kind_is_handled_on_every_side():
    kinds = concrete_expression_kinds()
    assert set(SAMPLES) == kinds, "add a sample for the new node kind"
    assert set(reference._DISPATCH) == kinds  # the tree-walker
    assert set(compile_expr._CLOSURES) == kinds  # the row compiler
    assert set(compile_expr._KERNELS) <= kinds
    engine = Evaluator({}, EvalConfig())
    for kind, sample in SAMPLES.items():
        assert callable(engine.compiled(sample))
        batch = compile_expr.compile_batch(sample, engine, frozenset({"x"}))
        # A chunk kernel, or the recorded env-space fallback.
        assert kind in compile_expr._KERNELS or sample in batch.fallbacks, kind


# -- chunk kernels over mixed shapes ------------------------------------------
#
# The ``Path`` kernel reads an attribute through the row's interned shape
# and the struct-literal kernel builds its rows against one precomputed
# shape.  Over chunks whose rows interleave layouts — the attribute at
# different positions, absent, or repeated with the first binding not
# at the position a neighbouring layout uses — both must agree with the
# row closure and the oracle row by row, in both typing modes, and the
# tuples they build must share the shapes the closure's tuples have.

SHAPE_CASES = [
    "r.a", "r.b", "r.a.n", "r['a']", "r.a + 1", "r.a IS MISSING",
    "{'x': r.a, 'y': r.b}", "{'x': r.a, 'x': r.b}", "{'x': r.a}", "{}",
    "{'x': r.a.n, 'y': 1}", "{'a': r.b, 'b': r.a}",
]

MIXED_SHAPE_CHUNK = [
    {"r": from_python(value)}
    for value in [
        {"a": 1, "b": 2},
        {"b": 1, "a": 2},
        {"pad": 0, "a": {"n": 3}},
        {"a": 1, "b": 2},
        {"b": "z"},
        {},
        {"a": None, "b": 4},
        {"pad": 1, "b": 5, "a": 6},
        {"a": 7, "b": 8},
        5,
        None,
        MISSING,
    ]
] + [
    {"r": from_python(Struct(pairs))}
    for pairs in [
        [("b", 1), ("a", "first"), ("a", "second")],
        [("a", {"n": 1}), ("pad", 0), ("a", 2)],
        [("pad", 0), ("pad", 1), ("b", 9)],
        [("b", 1), ("a", "first"), ("a", "second")],
    ]
]


def shapes(value):
    """Every struct shape in ``value``, outermost first."""
    if isinstance(value, Struct):
        found = [value._shape]
        for item in value._values:
            found += shapes(item)
        return found
    return []


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
@pytest.mark.parametrize("source", SHAPE_CASES)
def test_shape_kernels_over_mixed_and_duplicate_layouts(source, typing_mode):
    expr = parse_expression(source)
    config = EvalConfig(typing_mode=typing_mode)
    engine = Evaluator(Catalog(), config)
    oracle = ReferenceEvaluator(Catalog(), config)
    root = Environment({})
    batch = compile_expr.compile_batch(expr, engine, frozenset({"r"}))
    closure = engine.compiled(expr)
    for chunk in (MIXED_SHAPE_CHUNK, MIXED_SHAPE_CHUNK[::-1]):
        outcomes = []
        for row in chunk:
            try:
                closed = closure(root.extend(row))
            except SQLPPError as exc:
                closed = type(exc)
            try:
                walked = oracle.eval_expr(expr, root.extend(row))
            except SQLPPError as exc:
                walked = type(exc)
            if isinstance(closed, type) or isinstance(walked, type):
                assert closed is walked, (row, closed, walked)
            else:
                assert deep_equals(closed, walked), (row, closed, walked)
            outcomes.append(closed)
        errors = {o for o in outcomes if isinstance(o, type)}
        try:
            column = batch(chunk, root)
        except SQLPPError as exc:
            # Strict typing: the kernel raises what some row raises.
            assert type(exc) in errors, (source, exc)
            continue
        assert not errors, (source, errors)
        for value, closed in zip(column, outcomes):
            assert (value is MISSING) == (closed is MISSING)
            assert deep_equals(value, closed), (value, closed)
            assert list(map(id, shapes(value))) == list(map(id, shapes(closed)))
