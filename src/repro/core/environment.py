"""Binding environments.

The SQL++ Core models a query block as a pipeline of clauses that
transform streams of *bindings*: finite maps from variable names to
values (paper, Section III — the FROM clause "delivers bindings of the
variables to arbitrarily typed values").

:class:`Environment` is an immutable-by-convention chain map: extending
produces a child environment, so sibling bindings in a FROM cross product
never interfere and closures over outer scopes (correlated subqueries)
come for free.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional


class Unbound(Exception):
    """Internal signal: a name is bound neither in scope nor the catalog.

    Carries the dotted name accumulated so far, so path evaluation can try
    successively longer catalog names (``hr`` → ``hr.emp``).  Converted to
    :class:`repro.errors.BindingError` at the query boundary.
    """

    def __init__(self, name: str):
        self.name = name
        super().__init__(name)


class Environment:
    """A chain of variable scopes."""

    __slots__ = ("_bindings", "_parent")

    def __init__(
        self,
        bindings: Optional[Dict[str, Any]] = None,
        parent: Optional["Environment"] = None,
    ):
        self._bindings = bindings or {}
        self._parent = parent

    def extend(self, bindings: Dict[str, Any]) -> "Environment":
        """A child environment with the given additional bindings."""
        return Environment(bindings, self)

    def bind(self, name: str, value: Any) -> "Environment":
        """A child environment with one additional binding."""
        return Environment({name: value}, parent=self)

    def lookup(self, name: str) -> Any:
        """The value bound to ``name``; raises :class:`Unbound` otherwise."""
        env: Optional[Environment] = self
        while env is not None:
            if name in env._bindings:
                return env._bindings[name]
            env = env._parent
        raise Unbound(name)

    def is_bound(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env._bindings:
                return True
            env = env._parent
        return False

    def local_names(self) -> Iterator[str]:
        """Names bound in this innermost scope only."""
        return iter(self._bindings)

    def flatten(self) -> Dict[str, Any]:
        """All visible bindings as a dict (inner scopes win)."""
        scopes = []
        env: Optional[Environment] = self
        while env is not None:
            scopes.append(env._bindings)
            env = env._parent
        result: Dict[str, Any] = {}
        for scope in reversed(scopes):
            result.update(scope)
        return result

    def __repr__(self) -> str:
        return f"Environment({self.flatten()!r})"


#: A shared empty root environment.
EMPTY = Environment()
