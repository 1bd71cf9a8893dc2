"""Aggregate functions (paper, Section V-C).

SQL's aggregates lack composability: ``AVG(e.salary)`` only makes sense
inside a grouped query block.  The SQL++ Core instead provides, for each
SQL aggregate, a fully composable function that takes a *collection*
argument and returns its aggregate: ``COLL_AVG``, ``COLL_SUM``,
``COLL_MIN``, ``COLL_MAX``, ``COLL_COUNT``, plus boolean ``COLL_EVERY`` /
``COLL_SOME``, statistics ``COLL_STDDEV`` / ``COLL_VARIANCE`` and the
collection-valued ``COLL_ARRAY_AGG``.

SQL aggregate calls (``AVG`` etc.) are rewritten by
:mod:`repro.core.rewriter` into ``COLL_*`` calls over a ``SELECT VALUE``
subquery ranging over the ``GROUP AS`` group — Listings 15–18 of the
paper, reproduced verbatim in the tests.

Null handling follows SQL: NULL *and* MISSING elements are skipped by
every aggregate except ``COLL_COUNT`` (which counts non-absent elements;
``COUNT(*)`` counts all bindings and is handled in the rewriter).  An
empty (post-skip) input yields NULL, except COUNT which yields 0.

Wrongly-typed elements: the numeric aggregates (SUM/AVG/STDDEV/VARIANCE)
exclude them in permissive mode (see :func:`_numbers`); MIN/MAX instead
return MISSING when elements are mutually incomparable — there is no
principled "skip" for an ordering, so the whole aggregate carries the
data-exclusion signal.  Strict mode raises in both cases.

One state machine per aggregate
-------------------------------

Each aggregate is an :class:`Aggregate`: a state machine over *dense
group ids* 0, 1, 2, …, whose state is a few plain lists indexed by
group id (COUNT's counts; SUM's and AVG's one running ``+=`` total and
count; MIN's and MAX's best element so far; …):

* ``init(n)`` is the state of ``n`` groups at their initial value,
  ``grow(state, n)`` extends a state to ``n`` groups;
* ``step(state, gids, column, config)`` folds a column of values, the
  i-th into group ``gids[i]``: one loop, exact-type cases inlined, the
  generic operators of :mod:`repro.functions.operators` only on the
  slow path;
* ``final(state, gid, config)`` reads one group's aggregate.

The composable Core function is the one-group fold of its machine,
``COLL_X(collection) = final(fold(step, init, collection))`` — calling
an :class:`Aggregate` is that — so the GROUP BY fold the block executor
runs (:func:`repro.core.vectorized.fold_chunk`), running window aggregates
(:mod:`repro.core.windows`), ``COLL_X`` over a GROUP AS bag and the
reference interpreter all run one definition.  COUNT, SUM, AVG, MIN,
MAX, EVERY and SOME fold in O(1) state per group.  ARRAY_AGG, STDDEV,
VARIANCE, COUNT_DISTINCT and every DISTINCT site fold with
:class:`ValueList`, whose state is the group's values and whose
``final`` runs the registered definition over them.  GROUP AS itself
is :data:`MEMBERS`: the same value list, whose ``final`` is the bag.

A permissive type error that the definition answers with MISSING for
the whole aggregate (an incomparable MIN/MAX pair, a non-boolean
before EVERY/SOME decide, an overflowing SUM) *poisons* the group: its
state becomes MISSING and later steps leave it alone.  Under strict
typing the same step raises what :meth:`FunctionDef.invoke` raises for
the definition (``TypeCheckError("COLL_X: …")``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.config import EvalConfig
from repro.datamodel.values import MISSING, Bag, type_name
from repro.functions.operators import compare, distinct_elements
from repro.functions.registry import REGISTRY, FunctionDef, builtin

#: A machine's state: lists of equal length, indexed by group id.
State = List[list]


def _collection(name: str, value: Any) -> Optional[list]:
    """The elements of the collection argument, absent ones included.

    Returns None when the argument itself is absent (aggregate → NULL),
    raises TypeError when it is not a collection.
    """
    if value is None or value is MISSING:
        return None
    if isinstance(value, Bag):
        return value.to_list()
    if isinstance(value, list):
        return value
    raise TypeError(f"{name} expects a collection, got {type_name(value)}")


def _elements(name: str, value: Any) -> Optional[list]:
    """The non-absent elements of the collection argument (see
    :func:`_collection`)."""
    items = _collection(name, value)
    if items is None:
        return None
    return [item for item in items if item is not None and item is not MISSING]


def _numbers(name: str, items: list, config: EvalConfig) -> List[Any]:
    """The numeric elements of an aggregate's input.

    Wrongly-typed elements are a dynamic type error: strict mode raises,
    permissive mode *excludes just those elements* so that aggregation of
    the healthy data proceeds (the paper's data-exclusion signal,
    Section IV) — the behaviour Couchbase's SQL++ implements.
    """
    numbers = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            if config.is_permissive:
                continue
            raise TypeError(f"{name} expects numbers, got {type_name(item)}")
        numbers.append(item)
    return numbers


# =========================================================================
# The machines
# =========================================================================


class Aggregate:
    """One aggregate's ``(init, step, merge, final)`` definition; calling
    it is the composable Core function ``COLL_X`` (module docstring)."""

    #: A group's initial value in each of the state's lists.
    initial: Sequence[Any] = ()

    def __init__(self, name: str):
        self.name = name

    def init(self, groups: int = 0) -> State:
        return [[value] * groups for value in self.initial]

    def grow(self, state: State, groups: int) -> None:
        for column, value in zip(state, self.initial):
            column.extend([value] * (groups - len(column)))

    def step(
        self, state: State, gids: Sequence[int], column: Sequence[Any],
        config: EvalConfig,
    ) -> None:
        raise NotImplementedError

    def final(self, state: State, gid: int, config: EvalConfig) -> Any:
        raise NotImplementedError

    def __call__(self, args: List[Any], config: EvalConfig) -> Any:
        items = _collection(self.name, args[0])
        if items is None:
            return None
        state = self.init(1)
        self.step(state, [0] * len(items), items, config)
        return self.final(state, 0, config)

    def _reject(self, message: str, config: EvalConfig) -> Any:
        """A type error inside the aggregate, exactly as
        :meth:`FunctionDef.invoke` maps one: MISSING (the poisoned
        state) in permissive mode, raised in strict mode."""
        return config.type_error(f"{self.name}: {message}")


class _Count(Aggregate):
    """COUNT: the number of non-absent elements."""

    initial = (0,)

    def step(self, state, gids, column, config):
        counts = state[0]
        for gid, value in zip(gids, column):
            if value is not None and value is not MISSING:
                counts[gid] += 1

    def final(self, state, gid, config):
        return state[0][gid]


class _Total(Aggregate):
    """SUM and AVG: one running ``+=`` total of the numeric elements,
    from int 0 in element order, and their count.  Other elements are
    skipped in permissive mode and raise in strict mode; a total that
    overflows poisons the group."""

    initial = (0, 0)

    def __init__(self, name: str, average: bool):
        super().__init__(name)
        self.average = average

    def step(self, state, gids, column, config):
        totals, counts = state
        for gid, value in zip(gids, column):
            kind = type(value)
            if kind is int or kind is float:
                try:
                    totals[gid] += value
                except (TypeError, ArithmeticError):  # poisoned, or overflow
                    self._add(state, gid, value, config)
                    continue
                counts[gid] += 1
            elif value is not None and value is not MISSING:
                self._add(state, gid, value, config)

    def _add(self, state, gid, value, config):
        totals, counts = state
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            if not config.is_permissive:
                message = f"{self.name} expects numbers, got {type_name(value)}"
                self._reject(message, config)
            return
        if totals[gid] is MISSING:
            return
        try:
            totals[gid] += value
        except ArithmeticError as error:
            totals[gid] = self._reject(str(error), config)
            return
        counts[gid] += 1

    def final(self, state, gid, config):
        total, count = state[0][gid], state[1][gid]
        if total is MISSING:
            return MISSING
        if count == 0:
            return None
        if not self.average:
            return total
        try:
            return total / count
        except ArithmeticError as error:
            return self._reject(str(error), config)


#: Types whose same-type ``<`` / ``>`` is :func:`compare`'s verdict.
_ORDERED = frozenset({int, float, str, bool})


class _Extreme(Aggregate):
    """MIN and MAX: the best element so far — None before the first,
    MISSING once two elements were incomparable (poisoned)."""

    initial = (None,)

    def __init__(self, name: str, op: str):
        super().__init__(name)
        self.op = op

    def step(self, state, gids, column, config):
        best = state[0]
        lower = self.op == "<"
        for gid, value in zip(gids, column):
            current = best[gid]
            kind = type(value)
            if kind is type(current) and kind in _ORDERED:
                if (value < current) if lower else (value > current):
                    best[gid] = value
            elif value is not None and value is not MISSING:
                self._meet(best, gid, value, config)

    def _meet(self, best, gid, value, config):
        current = best[gid]
        if current is None:
            best[gid] = value
        elif current is not MISSING:
            verdict = compare(self.op, value, current, config)
            if verdict is MISSING:
                best[gid] = MISSING
            elif verdict is True:
                best[gid] = value

    def final(self, state, gid, config):
        return state[0][gid]


class _Quantifier(Aggregate):
    """EVERY and SOME: the first non-absent element equal to
    ``decisive`` (EVERY: FALSE, SOME: TRUE) decides the group and later
    elements are not looked at; a non-boolean before that is a type
    error.  Empty → ``not decisive``."""

    def __init__(self, name: str, decisive: bool):
        super().__init__(name)
        self.decisive = decisive
        self.initial = (not decisive,)

    def step(self, state, gids, column, config):
        verdicts = state[0]
        decisive, undecided = self.decisive, not self.decisive
        for gid, value in zip(gids, column):
            if (
                verdicts[gid] is undecided
                and value is not undecided
                and value is not None
                and value is not MISSING
            ):
                verdicts[gid] = (
                    decisive
                    if value is decisive
                    else self._reject(
                        f"{self.name} expects booleans, got {type_name(value)}",
                        config,
                    )
                )

    def final(self, state, gid, config):
        return state[0][gid]


class Members(Aggregate):
    """GROUP AS as a machine: a group's state is its values in row
    order and ``final`` is their bag (Listing 14's group, when the
    values are the rows' group elements)."""

    def init(self, groups=0):
        return [[[] for __ in range(groups)]]

    def grow(self, state, groups):
        lists = state[0]
        lists.extend([] for __ in range(groups - len(lists)))

    def step(self, state, gids, column, config):
        lists = state[0]
        for gid, value in zip(gids, column):
            lists[gid].append(value)

    def final(self, state, gid, config):
        return Bag(state[0][gid])


#: The GROUP AS collector of every fold.
MEMBERS = Members("GROUP AS")


class ValueList(Members):
    """The generic machine: a group's state is its values in row order,
    and ``final`` invokes ``definition`` over them (deduplicated first
    for a DISTINCT site)."""

    def __init__(self, definition: FunctionDef, distinct: bool = False):
        super().__init__(definition.name)
        self.definition = definition
        self.distinct = distinct

    def final(self, state, gid, config):
        values = state[0][gid]
        if self.distinct:
            values = distinct_elements(values)
        return self.definition.invoke([Bag(values)], config)


def machine_for(definition: FunctionDef, distinct: bool = False) -> Aggregate:
    """The machine a fold over ``definition``'s aggregate runs: the
    O(1)-state machine ``definition`` is the one-group fold of, or a
    :class:`ValueList` for value-list aggregates and DISTINCT sites."""
    machine = definition.fn
    if not isinstance(machine, Aggregate) or distinct:
        return ValueList(definition, distinct)
    return machine


for _machine, _result in (
    (_Count("COLL_COUNT"), "NUMBER"),
    (_Total("COLL_SUM", average=False), "NUMBER"),
    (_Total("COLL_AVG", average=True), "NUMBER"),
    (_Extreme("COLL_MIN", "<"), None),
    (_Extreme("COLL_MAX", ">"), None),
    (_Quantifier("COLL_EVERY", decisive=False), "BOOLEAN"),
    (_Quantifier("COLL_SOME", decisive=True), "BOOLEAN"),
):
    REGISTRY.register(
        _machine.name,
        _machine,
        1,
        1,
        propagate_absent=False,
        is_aggregate=True,
        result=_result,
    )


# =========================================================================
# Value-list aggregates
# =========================================================================


@builtin(
    "COLL_ARRAY_AGG", 1, 1, propagate_absent=False, is_aggregate=True, result="ARRAY"
)
def coll_array_agg(args: List[Any], config: EvalConfig) -> Any:
    """Materialise the collection's non-absent elements as an array."""
    items = _elements("COLL_ARRAY_AGG", args[0])
    if items is None:
        return None
    return items


@builtin(
    "COLL_STDDEV", 1, 1, propagate_absent=False, is_aggregate=True, result="NUMBER"
)
def coll_stddev(args: List[Any], config: EvalConfig) -> Any:
    """Sample standard deviation (NULL for fewer than two elements)."""
    items = _elements("COLL_STDDEV", args[0])
    if items is None or len(items) < 2:
        return None
    numbers = _numbers("COLL_STDDEV", items, config)
    if len(numbers) < 2:
        return None
    mean = sum(numbers) / len(numbers)
    variance = sum((x - mean) ** 2 for x in numbers) / (len(numbers) - 1)
    return math.sqrt(variance)


@builtin(
    "COLL_VARIANCE", 1, 1, propagate_absent=False, is_aggregate=True, result="NUMBER"
)
def coll_variance(args: List[Any], config: EvalConfig) -> Any:
    """Sample variance (NULL for fewer than two elements)."""
    items = _elements("COLL_VARIANCE", args[0])
    if items is None or len(items) < 2:
        return None
    numbers = _numbers("COLL_VARIANCE", items, config)
    if len(numbers) < 2:
        return None
    mean = sum(numbers) / len(numbers)
    return sum((x - mean) ** 2 for x in numbers) / (len(numbers) - 1)


@builtin(
    "COLL_COUNT_DISTINCT",
    1,
    1,
    propagate_absent=False,
    is_aggregate=True,
    result="NUMBER",
)
def coll_count_distinct(args: List[Any], config: EvalConfig) -> Any:
    items = _elements("COLL_COUNT_DISTINCT", args[0])
    if items is None:
        return None
    return len(distinct_elements(items))


#: SQL aggregate name → composable Core function name (paper, Section V-C:
#: "The composable version of AVG is named COLL_AVG. This naming
#: convention applies to the other SQL aggregate functions as well.")
SQL_AGGREGATES: Dict[str, str] = {
    "COUNT": "COLL_COUNT",
    "SUM": "COLL_SUM",
    "AVG": "COLL_AVG",
    "MIN": "COLL_MIN",
    "MAX": "COLL_MAX",
    "EVERY": "COLL_EVERY",
    "SOME": "COLL_SOME",
    "ANY": "COLL_SOME",
    "ARRAY_AGG": "COLL_ARRAY_AGG",
    "STDDEV": "COLL_STDDEV",
    "VARIANCE": "COLL_VARIANCE",
}


def is_sql_aggregate(name: str) -> bool:
    """True when ``name`` is a SQL (sugar) aggregate function name."""
    return name.upper() in SQL_AGGREGATES


# Outside a grouped query block the SQL names behave as their composable
# COLL_* twins (``AVG([1, 2, 3])`` → 2), which is the Core reading; the
# rewriter intercepts them *inside* SQL-compat grouped blocks first.
for _sql_name, _coll_name in SQL_AGGREGATES.items():
    REGISTRY.alias(_coll_name, _sql_name)
