"""The function registry.

Every builtin is a :class:`FunctionDef` entry in a
:class:`FunctionRegistry`.  The registry implements the paper's
Section IV-B propagation rule centrally: by default a function returns
``MISSING`` when any input is ``MISSING`` and ``NULL`` when any input is
``NULL``.  Functions that intentionally *consume* absent values — the
``COALESCE`` family, ``EXISTS``, type predicates, the ``COLL_*``
aggregates — opt out with ``propagate_absent=False`` and handle absence
themselves.

The ``COALESCE`` exception of Section IV-B ("if a SQL expression, given a
null input, would return a non-null result, the same expression returns
the same result given MISSING") is carried by the individual function
implementations, which receive the :class:`~repro.config.EvalConfig` and
check its ``sql_compat`` flag.

Each builtin also declares its result type once, where it is
registered: ``result=`` is an ``IS`` kind of
:func:`repro.functions.operators.is_predicate` (``NUMBER``, ``STRING``,
``BOOLEAN``, ``ARRAY``, ``BAG``, ``TUPLE``) that every non-absent
result satisfies, ``"ARGUMENT"`` when the result is one of the
arguments (the ``COALESCE`` family), or None when nothing is known.
The type-flow walk (:mod:`repro.analysis.typeflow`) reads it, and a
property in ``tests/analysis/test_transfer.py`` checks it against the
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.config import EvalConfig
from repro.datamodel.values import MISSING
from repro.errors import EvaluationError, TypeCheckError

#: Builtin signature: fn(args, config) -> value.
BuiltinFn = Callable[[List[Any], EvalConfig], Any]


@dataclass(frozen=True)
class FunctionDef:
    """Metadata and implementation of one builtin function."""

    name: str
    fn: BuiltinFn
    min_args: int
    max_args: Optional[int]  # None = variadic
    propagate_absent: bool = True
    is_aggregate: bool = False  # True for the COLL_* collection aggregates
    result: Optional[str] = None  # the declared result (module docstring)

    def arity_error(self, count: int) -> Optional[str]:
        """Why a call with ``count`` arguments is refused, or None."""
        if count >= self.min_args and (
            self.max_args is None or count <= self.max_args
        ):
            return None
        expected = (
            str(self.min_args)
            if self.max_args == self.min_args
            else f"{self.min_args}..{self.max_args or 'N'}"
        )
        return f"{self.name} expects {expected} argument(s), got {count}"

    def invoke(self, args: List[Any], config: EvalConfig) -> Any:
        """Check arity, apply the absence rule, call the implementation."""
        refused = self.arity_error(len(args))
        if refused is not None:
            raise EvaluationError(refused)
        if self.propagate_absent:
            if any(arg is MISSING for arg in args):
                return MISSING
            if any(arg is None for arg in args):
                return None
        try:
            return self.fn(args, config)
        except TypeCheckError:
            raise
        except (TypeError, ValueError, ArithmeticError) as exc:
            # A builtin tripping over bad input is a dynamic type error:
            # MISSING in permissive mode, raised in strict mode.
            return config.type_error(f"{self.name}: {exc}")


class FunctionRegistry:
    """Name → :class:`FunctionDef`, case-insensitive lookup."""

    def __init__(self) -> None:
        self._functions: Dict[str, FunctionDef] = {}

    def register(
        self,
        name: str,
        fn: BuiltinFn,
        min_args: int,
        max_args: Optional[int] = -1,
        propagate_absent: bool = True,
        is_aggregate: bool = False,
        *,
        result: Optional[str],
    ) -> FunctionDef:
        """Register a builtin.  ``max_args=-1`` means ``max_args=min_args``;
        ``result`` is required (module docstring)."""
        if max_args == -1:
            max_args = min_args
        definition = FunctionDef(
            name=name.upper(),
            fn=fn,
            min_args=min_args,
            max_args=max_args,
            propagate_absent=propagate_absent,
            is_aggregate=is_aggregate,
            result=result,
        )
        self._functions[definition.name] = definition
        return definition

    def alias(self, existing: str, *names: str) -> None:
        """Register additional names for an existing function."""
        definition = self._functions[existing.upper()]
        for name in names:
            self._functions[name.upper()] = definition

    def lookup(self, name: str) -> Optional[FunctionDef]:
        return self._functions.get(name.upper())

    def names(self) -> List[str]:
        return sorted(self._functions)

    def __contains__(self, name: str) -> bool:
        return name.upper() in self._functions


#: The global registry used by the evaluator.
REGISTRY = FunctionRegistry()


def builtin(
    name: str,
    min_args: int,
    max_args: Optional[int] = -1,
    propagate_absent: bool = True,
    is_aggregate: bool = False,
    *,
    result: Optional[str],
):
    """Decorator registering a function in :data:`REGISTRY`."""

    def decorate(fn: BuiltinFn) -> BuiltinFn:
        REGISTRY.register(
            name,
            fn,
            min_args,
            max_args,
            propagate_absent=propagate_absent,
            is_aggregate=is_aggregate,
            result=result,
        )
        return fn

    return decorate
