"""The lattice soundness property, checked by hypothesis.

For any expression the generator produces and any environment, the
category of the value permissive-mode evaluation returns must be
contained in the statically inferred category set — and in particular
a static always-MISSING verdict means evaluation really returns
MISSING.  Under strict typing, any value evaluation returns instead of
raising must be in the inferred set too.  This is the contract that
makes every ``cats``-based rule (SQLPP101-108) trustworthy:
over-approximation can hide a warning but can never fabricate one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.lattice import (
    AType,
    category_of,
    join_all,
    scalar,
    tuple_of,
)
from repro.analysis.typeflow import infer_expression
from repro.catalog import Catalog
from repro.config import EvalConfig
from repro.core.environment import Environment
from repro.core.evaluator import Evaluator
from repro.datamodel.convert import from_python
from repro.datamodel.values import MISSING, Bag, Struct
from repro.syntax.parser import parse_expression
from repro.errors import SQLPPError


def atype_of_value(value):
    """The exact abstract type of one concrete runtime value."""
    category = category_of(value)
    if isinstance(value, Struct):
        return tuple_of(
            sorted(
                (name, atype_of_value(item))
                for name, item in value.items()
            ),
            open=False,
        )
    if isinstance(value, (list, Bag)):
        element = join_all(atype_of_value(item) for item in value)
        return AType(
            cats=frozenset({category}),
            element=element if len(value) else None,
        )
    return scalar(category)


VARIABLES = {
    "x": st.integers(-20, 20),
    "s": st.sampled_from(["a", "bee", ""]),
    "flag": st.booleans(),
    "nn": st.none(),
    "row": st.fixed_dictionaries(
        {},
        optional={
            "a": st.integers(0, 9),
            "b": st.sampled_from(["p", "q"]),
        },
    ),
    "xs": st.lists(st.integers(0, 5), max_size=3),
    "ys": st.lists(st.sampled_from(["p", None]), max_size=2),
    "bag": st.lists(st.integers(0, 2), max_size=2).map(Bag),
}

LEAVES = st.sampled_from(
    [
        "x",
        "s",
        "flag",
        "nn",
        "xs",
        "ys",
        "bag",
        "[1, 2]",
        "<<1, 'a'>>",
        "row",
        "row.a",
        "row.b",
        "row.nosuch",
        "1",
        "2.5",
        "'lit'",
        "TRUE",
        "NULL",
        "MISSING",
    ]
)


#: Expression templates by arity.  One ``builds`` per arity keeps the
#: recursive strategy small: hypothesis labels every branch that
#: mentions the sub-strategy, at a cost that grows with their number.
UNARY = [
    # Parenthesized as a whole: NOT binds looser than the arithmetic
    # and comparison operators, so a bare "NOT (x)" nested as a
    # binary operand ("x + NOT (x)") would not parse.
    "(NOT ({0}))",
    "({0} IS MISSING)",
    "({0} IS NULL)",
    "ABS({0})",
    "-({0})",
    "(EXISTS ({0}))",
    "{{'k': {0}}}",
    "{{'k': {0}}}.k",
    "ROUND({0})",
    "CHAR_LENGTH({0})",
    "CAST({0} AS INT)",
    "CAST({0} AS STRING)",
    "CAST({0} AS BOOLEAN)",
    # Constant exponents only: nested powers of generated operands
    # would build integers of millions of digits.
    "POWER({0}, 2)",
    "POWER({0}, 0.5)",
    "POWER({0}, 2.5)",
    "POWER({0}, -1)",
    "POWER({0}, nn)",
]

BINARY = [
    *(
        f"({{0}} {op} {{1}})"
        for op in (
            "+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=",
            "AND", "OR", "||", "IN", "LIKE",
        )
    ),
    "({0})[{1}]",
    "[{0}, {1}]",
    "COALESCE({0}, {1})",
    "SUBSTRING({0}, {1})",
    "ROUND({0}, {1})",
]

TERNARY = [
    "CASE WHEN {0} THEN {1} ELSE {2} END",
    "({0} BETWEEN {1} AND {2})",
]

EXPRESSIONS = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        st.builds(str.format, st.sampled_from(UNARY), sub),
        st.builds(str.format, st.sampled_from(BINARY), sub, sub),
        st.builds(str.format, st.sampled_from(TERNARY), sub, sub, sub),
    ),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(
    source=EXPRESSIONS,
    bindings=st.fixed_dictionaries(VARIABLES),
    typing_mode=st.sampled_from(["permissive", "strict"]),
    sql_compat=st.booleans(),
)
def test_static_categories_contain_runtime_category(
    source, bindings, typing_mode, sql_compat
):
    values = {
        name: from_python(value) for name, value in bindings.items()
    }
    env_types = {
        name: atype_of_value(value) for name, value in values.items()
    }
    config = EvalConfig(typing_mode=typing_mode, sql_compat=sql_compat)

    inferred, _diagnostics = infer_expression(
        source, env_types, config=config
    )

    evaluator = Evaluator(Catalog(), config)
    try:
        value = evaluator.eval_expr(
            parse_expression(source), Environment(dict(values))
        )
    except SQLPPError:
        # Evaluation refused outright (every strict type error); the
        # category claim is about produced values only.
        return

    assert category_of(value) in inferred.cats, (
        f"{source!r} evaluated to category {category_of(value)} "
        f"outside inferred {inferred.describe()} ({config})"
    )
    if inferred.is_always_missing():
        assert value is MISSING


@pytest.mark.parametrize(
    "source, category",
    [
        ("[1] || [2]", "array"),
        ("(xs || xs)[0]", "number"),
        ("'a' || 'b'", "string"),
        ("1 IN <<1, 2>>", "boolean"),
        ("EXISTS <<>>", "boolean"),
    ],
)
def test_collection_operands(source, category):
    inferred, diagnostics = infer_expression(
        source, {"xs": atype_of_value([1])}
    )
    assert category in inferred.cats
    assert not inferred.is_always_missing()
    assert diagnostics == []


@pytest.mark.parametrize(
    "source, described",
    [
        ("0[NULL]", "null|missing"),
        ("'abc'[NULL]", "null|missing"),
        ("[1, 2][NULL]", "number|null|missing"),
        ("[1, 2][nn]", "number|null|missing"),
        ("0[1]", "missing"),
    ],
)
def test_a_null_index_may_produce_null(source, described):
    inferred, diagnostics = infer_expression(source, {"nn": scalar("null")})
    assert inferred.describe() == described
    assert [d.code for d in diagnostics] == (
        ["SQLPP101"] if described == "missing" else []
    )


@settings(max_examples=150, deadline=None)
@given(source=EXPRESSIONS, bindings=st.fixed_dictionaries(VARIABLES))
def test_analyzer_never_crashes_on_generated_expressions(
    source, bindings
):
    env_types = {
        name: atype_of_value(from_python(value))
        for name, value in bindings.items()
    }
    inferred, diagnostics = infer_expression(source, env_types)
    assert inferred.cats <= frozenset(
        {
            "number",
            "string",
            "boolean",
            "null",
            "missing",
            "array",
            "bag",
            "tuple",
        }
    )
    for diagnostic in diagnostics:
        assert diagnostic.code.startswith("SQLPP")
