"""Property: the row compiler is total and agrees with the oracle.

For any generated expression and environment, the engine's
``Evaluator.compiled(expr)(env)`` must produce exactly what the
reference interpreter's ``ReferenceEvaluator.eval_expr(expr, env)``
produces — same value, or the same exception type — in both typing
modes and both compat modes.  The two share no evaluation code (only
the value-level ``ops.*`` definitions), so this is a comparison between
independent implementations, not of the compiler with itself.

The exhaustiveness test holds the engine's one node table and its
hand-written kinds, and the oracle's dispatch, against the AST: every
concrete ``ast.Expr`` subclass has a tree-walker entry, a row closure,
and either a chunk kernel or a recorded env-space ``fallback`` — a new
node kind cannot ship on one side only.  Likewise every operator symbol
has a fast path in the operator table or is on its slow-only list, and
both forms generated from it — row closure and chunk kernel, over a
column or a literal right operand — agree with the operator's
definition and the oracle on the boundary operands where a Python fast
path could drift from SQL++.  The generated forms are kept per body, not
per query: a second run of the compatibility kit adds none.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.catalog.catalog import Catalog
from repro.compat.runner import run_cases
from repro.config import EvalConfig
from repro.core import compile_expr, reference
from repro.core.environment import Environment
from repro.core.evaluator import Evaluator
from repro.core.reference import ReferenceEvaluator
from repro.datamodel.convert import from_python
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import MISSING, Struct
from repro.errors import SQLPPError
from repro.functions import operators as ops
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
    # The engine: declared once in the node table (which also takes a
    # declaration nested in another), or written by hand; only IN /
    # EXISTS over a subquery and computed tuple names are variants a
    # declaration leaves to the hand-written compilers.
    declared = set(compile_expr._NODES) - {tuple}
    by_hand = set(compile_expr._HAND_WRITTEN)
    assert declared | by_hand == kinds
    assert declared & by_hand == {ast.InPredicate, ast.Exists, ast.StructLit}
    engine = Evaluator({}, EvalConfig())
    for kind, sample in SAMPLES.items():
        assert callable(engine.compiled(sample))
        batch = compile_expr.compile_batch(sample, engine, frozenset({"x"}))
        # A chunk kernel, or the recorded env-space fallback.
        kernel = compile_expr._HAND_WRITTEN.get(kind, (None, None))[1]
        assert (
            kind in declared and compile_expr._NODES[kind](sample, engine)
            or kernel is not None
            or sample in batch.fallbacks
        ), kind


def generated_forms():
    return {
        (body.text, body.names, arity): forms
        for body in compile_expr._BODIES
        for arity, forms in body.items()
    }


def test_generated_forms_are_kept_per_body_not_per_query():
    run_cases()
    forms = generated_forms()
    assert forms
    run_cases()
    assert generated_forms() == forms


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


# -- the operator table ---------------------------------------------------------

#: The symbols whose definition is their only path.
SLOW_ONLY = {"/", "%"}

#: Operands where a Python fast path could drift from SQL++: booleans
#: next to numbers (``TRUE < 1``, ``TRUE + 1``), int / float
#: (``1 = 1.0``, ``2 < 2.5``), a negative zero, strings on comparisons,
#: ``||`` and arithmetic, the absent values and nested values.
BOUNDARY = [
    True, False, 1, 1.0, 2, 2.5, -0.0, 0, "a", "b", None, MISSING,
    Struct({"a": 1}), [1],
]


def test_every_operator_symbol_has_a_fast_path_or_is_slow_only():
    for table, symbols in (
        (ops._BINARY, ops.BINARY_SYMBOLS), (ops._UNARY, ops.UNARY_SYMBOLS)
    ):
        assert set(table) == set(symbols)
        for symbol, spec in table.items():
            assert (spec.fast is None) == (symbol in SLOW_ONLY), symbol
            assert (not spec.types) == (spec.fast is None), symbol


def outcome(fn):
    try:
        return ("value", fn())
    except SQLPPError as exc:
        return ("error", type(exc).__name__, str(exc))


def same(left, right):
    if left[0] != "value" or right[0] != "value":
        return left == right
    a, b = left[1], right[1]
    return (a is MISSING) == (b is MISSING) and type(a) is type(b) and (
        deep_equals(a, b)
    )


def forms_over(tree, values, engine):
    """``tree``'s row closure and chunk kernel over one binding of
    ``values`` (``a``, ``b``)."""
    row = dict(zip("ab", values))
    batch = compile_expr.compile_batch(tree, engine, frozenset(row))
    return {
        "closure": lambda: engine.compiled(tree)(Environment(row)),
        "kernel": lambda: batch([row], Environment({}))[0],
    }


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
def test_generated_instances_match_definition_and_oracle(typing_mode):
    config = EvalConfig(typing_mode=typing_mode)
    engine = Evaluator(Catalog(), config)
    oracle = ReferenceEvaluator(Catalog(), config)
    env = Environment({})
    left, right = ast.VarRef("a"), ast.VarRef("b")
    for op in ops.BINARY_SYMBOLS:
        definition = ops.binary_operator(op)
        for a in BOUNDARY:
            for b in BOUNDARY:
                want = outcome(lambda: definition(a, b, config))
                tree = ast.Binary(op, ast.Literal(a), ast.Literal(b))
                runs = {"oracle": lambda: oracle.eval_expr(tree, env)}
                # Over a column, and over a literal right operand (its
                # own variant where the literal lies in a class).
                for shape in (right, ast.Literal(b)):
                    made = forms_over(ast.Binary(op, left, shape), (a, b), engine)
                    runs.update({f"{name} {shape}": run for name, run in made.items()})
                for name, run in runs.items():
                    got = outcome(run)
                    assert same(want, got), (op, a, b, name, want, got)
    for op in ops.UNARY_SYMBOLS:
        definition = ops.unary_operator(op)
        for a in BOUNDARY:
            want = outcome(lambda: definition(a, config))
            tree = ast.Unary(op, ast.Literal(a))
            runs = {"oracle": lambda: oracle.eval_expr(tree, env)}
            runs.update(forms_over(ast.Unary(op, left), (a,), engine))
            for name, run in runs.items():
                got = outcome(run)
                assert same(want, got), (op, a, name, want, got)


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
def test_a_cast_runs_under_the_query_typing_mode(typing_mode):
    config = EvalConfig(typing_mode=typing_mode)
    engine = Evaluator(Catalog(), config)
    oracle = ReferenceEvaluator(Catalog(), config)
    tree = ast.CastExpr(ast.VarRef("a"), "INTEGER")
    want = outcome(lambda: oracle.eval_expr(tree, Environment({"a": "x"})))
    assert want[0] == ("error" if typing_mode == "strict" else "value")
    for name, run in forms_over(tree, ("x",), engine).items():
        assert same(want, outcome(run)), name


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
def test_power_without_a_real_result_is_a_dynamic_type_error(typing_mode):
    config = EvalConfig(typing_mode=typing_mode)
    engine = Evaluator(Catalog(), config)
    oracle = ReferenceEvaluator(Catalog(), config)
    tree = ast.FunctionCall("POWER", [ast.VarRef("a"), ast.VarRef("b")])
    for values, want in (((-1, 0.5), None), ((2, 10), ("value", 1024))):
        runs = forms_over(tree, values, engine)
        env = Environment(dict(zip("ab", values)))
        runs["oracle"] = lambda: oracle.eval_expr(tree, env)
        for name, run in runs.items():
            got = outcome(run)
            if want is not None:
                assert same(want, got), name
            elif typing_mode == "strict":
                assert got[:2] == ("error", "TypeCheckError"), name
            else:
                assert got == ("value", MISSING), name


def test_an_unknown_unary_symbol_raises_when_evaluated():
    # As an unknown binary symbol does: not unary plus, and not before a
    # row reaches it.
    config = EvalConfig()
    engine = Evaluator(Catalog(), config)
    oracle = ReferenceEvaluator(Catalog(), config)
    tree = ast.Unary("~", ast.VarRef("a"))
    message = "unknown unary operator '~'"
    runs = forms_over(tree, (5,), engine)
    runs["oracle"] = lambda: oracle.eval_expr(tree, Environment({"a": 5}))
    for name, run in runs.items():
        assert outcome(run) == ("error", "EvaluationError", message), name
    block = ast.Query(
        body=ast.QueryBlock(
            select=ast.SelectValue(tree),
            from_=[ast.FromCollection(ast.ArrayLit([]), "a")],
        )
    )
    for evaluator in (engine, oracle):
        assert len(evaluator.eval_query(block, Environment({}))) == 0
