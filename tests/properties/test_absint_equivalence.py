"""Property test: folding and pruning preserve bag-equality.

For randomly generated rows — attribute values spanning NULL, MISSING
(dropped attribute), ints, floats, strings, and booleans — evaluation
with ``optimize=True`` (constant folding, drop-true, empty-proof
pruning all active) must be indistinguishable from ``optimize=False``
(the untouched reference pipeline), in both typing modes: the same
result bag, or the same error class.  The query pool concentrates on
the shapes the abstract interpreter acts on: foldable constant
subexpressions, contradictory/tautological conjunctions, constant
CASE scrutinees, and interval bounds that a mixed-type attribute makes
hazardous (a string row raises under strict comparison — pruning must
never erase that error, which is why it is permissive-only).

A second property folds generated constant expressions on their own:
the folded tree evaluates to what the original does, in both typing
modes, with NULL and MISSING items inside array and bag literals.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro import Database, errors
from repro.analysis.absint import fold_expr
from repro.config import EvalConfig
from repro.core.environment import Environment
from repro.core.reference import ReferenceEvaluator
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import MISSING, Bag
from repro.functions import operators as ops
from repro.syntax import ast

value_strategy = st.one_of(
    st.none(),
    st.integers(-5, 10),
    st.sampled_from([0.0, 2.5, 7.0]),
    st.sampled_from(["a", "z"]),
    st.booleans(),
)


def rows():
    # Attributes are optional: a dropped key is how MISSING enters.
    return st.lists(
        st.fixed_dictionaries(
            {}, optional={"x": value_strategy, "y": value_strategy}
        ),
        max_size=8,
    )


QUERIES = [
    # Constant folding in every clause position.
    "SELECT VALUE r.x + 1 * 2 FROM t AS r WHERE r.x >= 0 + 1",
    "SELECT VALUE r FROM t AS r WHERE 1 = 1 AND r.x > 2",
    "SELECT VALUE r FROM t AS r WHERE 'a' || 'b' = 'ab' AND r.x < 5",
    # Statically-empty conjunctions (the pruning acceptance shape).
    "SELECT VALUE r FROM t AS r WHERE r.x > 5 AND r.x < 3",
    "SELECT VALUE r FROM t AS r WHERE r.x = 1 AND r.x = 2",
    "SELECT VALUE r FROM t AS r WHERE r.x IS MISSING AND r.x IS NOT MISSING",
    "SELECT VALUE r FROM t AS r WHERE r.x = NULL",
    "SELECT VALUE r FROM t AS r WHERE FALSE",
    "SELECT VALUE r.x FROM t AS r WHERE r.x BETWEEN 5 AND 3",
    # Tautological conjuncts over possibly-absent values.
    "SELECT VALUE r.x FROM t AS r WHERE r.x = r.x",
    "SELECT VALUE r FROM t AS r WHERE r.x = r.x AND r.y > 0",
    # Constant CASE scrutinees and dead branches.
    "SELECT VALUE CASE WHEN FALSE THEN 0 WHEN r.x > 1 THEN 1 ELSE 2 END "
    "FROM t AS r",
    "SELECT VALUE CASE 1 WHEN 2 THEN 'dead' WHEN 1 THEN r.x END FROM t AS r",
    "SELECT VALUE CASE WHEN TRUE THEN r.x ELSE r.y END FROM t AS r",
    # Folding under absent literals (mode-divergent comparisons).
    "SELECT VALUE r FROM t AS r WHERE r.x > 0 OR 1 = NULL",
    "SELECT VALUE r.x FROM t AS r WHERE NOT (1 > 2) AND r.x <= 10",
]


def outcome(db: Database, query: str, typing_mode: str, optimize: bool):
    try:
        return (
            "value",
            db.execute(query, typing_mode=typing_mode, optimize=optimize),
        )
    except errors.SQLPPError as exc:
        return ("error", type(exc).__name__)


@given(
    rows(),
    st.sampled_from(QUERIES),
    st.sampled_from(["permissive", "strict"]),
)
@settings(max_examples=120, deadline=None)
def test_optimized_equals_reference(data, query, typing_mode):
    db = Database()
    db.set("t", data)
    on = outcome(db, query, typing_mode, optimize=True)
    off = outcome(db, query, typing_mode, optimize=False)
    assert on[0] == off[0], (
        f"{query!r} [{typing_mode}] over {data!r}: on → {on}, off → {off}"
    )
    if on[0] == "error":
        assert on[1] == off[1]
        return
    left, right = on[1], off[1]
    assert deep_equals(Bag(list(left)), Bag(list(right))), (
        f"fold/prune parity violation for {query!r} [{typing_mode}] "
        f"over {data!r}"
    )


# -- folding constant expressions ------------------------------------------

constants = st.builds(
    ast.Literal,
    st.one_of(
        st.none(),
        st.just(MISSING),
        st.booleans(),
        st.integers(-2, 3),
        st.sampled_from([0.0, 2.5]),
        st.sampled_from(["a", "ab", "a%", "_"]),
    ),
)


def constant_expressions(depth=2):
    if depth == 0:
        return constants
    inner = constant_expressions(depth - 1)
    items = st.lists(st.one_of(constants, inner), max_size=3)
    return st.one_of(
        constants,
        st.builds(ast.Binary, st.sampled_from(ops.BINARY_SYMBOLS), inner, inner),
        st.builds(ast.Unary, st.sampled_from(ops.UNARY_SYMBOLS), inner),
        st.builds(
            ast.IsPredicate,
            inner,
            st.sampled_from(["NULL", "MISSING", "INTEGER", "STRING"]),
            st.booleans(),
        ),
        st.builds(ast.Between, inner, inner, inner, st.booleans()),
        st.builds(
            ast.Like, inner, inner, st.one_of(st.none(), constants), st.booleans()
        ),
        st.builds(
            ast.InPredicate,
            inner,
            st.one_of(st.builds(ast.ArrayLit, items), st.builds(ast.BagLit, items)),
            st.booleans(),
        ),
        st.builds(
            ast.CaseExpr,
            st.one_of(st.none(), inner),
            st.lists(st.tuples(inner, inner), min_size=1, max_size=2),
            st.one_of(st.none(), inner),
        ),
    )


def evaluated(expr, config):
    try:
        return ("value", ReferenceEvaluator({}, config).eval_expr(expr, Environment()))
    except errors.SQLPPError as exc:
        return ("error", type(exc).__name__)


@given(
    constant_expressions(),
    st.builds(
        EvalConfig,
        typing_mode=st.sampled_from(["permissive", "strict"]),
        sql_compat=st.booleans(),
    ),
)
@example(
    ast.InPredicate(
        ast.Literal(1), ast.ArrayLit([ast.Literal(MISSING), ast.Literal(2)])
    ),
    EvalConfig(),
)
@settings(max_examples=400, deadline=None)
def test_fold_equals_evaluation(expr, config):
    want = evaluated(expr, config)
    got = evaluated(fold_expr(expr, config), config)
    assert want[0] == got[0], (want, got)
    if want[0] == "error":
        assert want[1] == got[1]
    else:
        assert type(want[1]) is type(got[1]), (want, got)
        assert deep_equals(want[1], got[1]), (want, got)
