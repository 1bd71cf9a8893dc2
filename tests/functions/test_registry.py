"""Function registry mechanics."""

import pytest

from repro.config import EvalConfig
from repro.datamodel.values import MISSING
from repro.errors import EvaluationError, TypeCheckError
from repro.functions.registry import FunctionRegistry


@pytest.fixture
def registry():
    reg = FunctionRegistry()
    reg.register("ADD", lambda args, config: args[0] + args[1], 2, result="NUMBER")
    reg.register(
        "FIRST_PRESENT",
        lambda args, config: next(
            (a for a in args if a is not None and a is not MISSING), None
        ),
        1,
        None,
        propagate_absent=False,
        result="ARGUMENT",
    )
    return reg


class TestLookup:
    def test_case_insensitive(self, registry):
        assert registry.lookup("add") is registry.lookup("ADD")

    def test_unknown_is_none(self, registry):
        assert registry.lookup("nope") is None

    def test_alias(self, registry):
        registry.alias("ADD", "PLUS")
        assert registry.lookup("plus") is registry.lookup("add")

    def test_contains_and_names(self, registry):
        assert "ADD" in registry
        assert "ADD" in registry.names()


class TestInvoke:
    def test_arity_check(self, registry):
        with pytest.raises(EvaluationError):
            registry.lookup("ADD").invoke([1], EvalConfig())

    def test_variadic(self, registry):
        definition = registry.lookup("FIRST_PRESENT")
        assert definition.invoke([None, 5], EvalConfig()) == 5

    def test_absence_propagation_default(self, registry):
        definition = registry.lookup("ADD")
        assert definition.invoke([1, MISSING], EvalConfig()) is MISSING
        assert definition.invoke([1, None], EvalConfig()) is None

    def test_missing_wins_over_null(self, registry):
        definition = registry.lookup("ADD")
        assert definition.invoke([None, MISSING], EvalConfig()) is MISSING

    def test_opt_out_sees_absent_values(self, registry):
        definition = registry.lookup("FIRST_PRESENT")
        assert definition.invoke([MISSING, None, 7], EvalConfig()) == 7

    def test_internal_type_error_permissive(self, registry):
        definition = registry.lookup("ADD")
        assert definition.invoke([1, "x"], EvalConfig()) is MISSING

    def test_internal_type_error_strict(self, registry):
        definition = registry.lookup("ADD")
        with pytest.raises(TypeCheckError):
            definition.invoke([1, "x"], EvalConfig(typing_mode="strict"))
