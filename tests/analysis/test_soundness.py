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


def _unary(sub):
    return st.one_of(
        # Parenthesized as a whole: NOT binds looser than the arithmetic
        # and comparison operators, so a bare "NOT (x)" nested as a
        # binary operand ("x + NOT (x)") would not parse.
        sub.map(lambda a: f"(NOT ({a}))"),
        sub.map(lambda a: f"({a} IS MISSING)"),
        sub.map(lambda a: f"({a} IS NULL)"),
        sub.map(lambda a: f"ABS({a})"),
        sub.map(lambda a: f"-({a})"),
        sub.map(lambda a: f"(EXISTS ({a}))"),
    )


def _binary(sub):
    ops = st.sampled_from(
        [
            "+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=",
            "AND", "OR", "||",
        ]
    )
    return st.one_of(
        st.builds(lambda op, a, b: f"({a} {op} {b})", ops, sub, sub),
        st.builds(lambda a, b: f"({a} IN {b})", sub, sub),
    )


def _shaped(sub):
    return st.one_of(
        st.builds(lambda a, b: f"[{a}, {b}]", sub, sub),
        sub.map(lambda a: f"{{'k': {a}}}"),
        sub.map(lambda a: f"{{'k': {a}}}.k"),
        st.builds(lambda a, b: f"COALESCE({a}, {b})", sub, sub),
        st.builds(
            lambda a, b, c: f"CASE WHEN {a} THEN {b} ELSE {c} END",
            sub,
            sub,
            sub,
        ),
    )


EXPRESSIONS = st.recursive(
    LEAVES,
    lambda sub: st.one_of(_unary(sub), _binary(sub), _shaped(sub)),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(
    source=EXPRESSIONS,
    bindings=st.fixed_dictionaries(VARIABLES),
    typing_mode=st.sampled_from(["permissive", "strict"]),
)
def test_static_categories_contain_runtime_category(
    source, bindings, typing_mode
):
    values = {
        name: from_python(value) for name, value in bindings.items()
    }
    env_types = {
        name: atype_of_value(value) for name, value in values.items()
    }
    config = EvalConfig(typing_mode=typing_mode, sql_compat=False)

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
        f"outside inferred {inferred.describe()} ({typing_mode})"
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
