"""The engine and the oracle are isolated from each other, both ways.

``optimize=False`` runs :mod:`repro.core.reference` and nothing of the
engine; ``optimize=True`` runs the engine, in either executor mode,
and nothing of the oracle.  Held here by breaking one side and running the whole compat
kit (listings, extended and analytics cases) plus one PIVOT / window /
FROM-less / ``UNION ALL`` / ``INTERSECT`` case on the other, in both
typing modes:

* with ``ReferenceEvaluator``'s block and expression evaluation patched
  to raise, the engine in columns mode and in rows mode still
  produces what the oracle produced beforehand;
* with ``compile_expr.compile_expr``, ``compile_expr.compile_batch`` and
  ``planner.plan_block`` patched to raise, ``optimize=False`` still
  produces what the engine produced beforehand.

Each case is also held to the kit's own expectation in its own typing
mode, so "both sides agree" cannot mean "both sides are wrong".
"""

from __future__ import annotations

import pytest

from repro import errors
from repro.compat.corpus import ConformanceCase, all_cases
from repro.compat.runner import _results_equal, build_database
from repro.core import compile_expr, planner, reference
from repro.formats.sqlpp_text import loads
from tests.rows_mode import ROWS, run

T = "{{ {'k': 'a', 'v': 1}, {'k': 'b', 'v': 2}, {'k': 'a', 'v': 3} }}"

#: One case per block shape that used to run the eager path at default
#: dials (the kit has more of each; these keep the list explicit).
EXTRA_CASES = [
    ConformanceCase(
        case_id="ISO-pivot", section="VI-B", title="PIVOT", data={"t": T},
        query="PIVOT t.v AT t.k || CAST(t.v AS STRING) FROM t AS t",
        expected="{'a1': 1, 'b2': 2, 'a3': 3}",
    ),
    ConformanceCase(
        case_id="ISO-window", section="V-B", title="window function",
        data={"t": T},
        query=(
            "SELECT t.v AS v, RANK() OVER (PARTITION BY t.k ORDER BY t.v DESC) "
            "AS r FROM t AS t"
        ),
        expected="{{ {'v': 1, 'r': 2}, {'v': 2, 'r': 1}, {'v': 3, 'r': 1} }}",
    ),
    ConformanceCase(
        case_id="ISO-from-less", section="V", title="block without FROM",
        data={"t": T}, query="SELECT VALUE {'n': COLL_COUNT(t)}",
        expected="{{ {'n': 3} }}",
    ),
    ConformanceCase(
        case_id="ISO-union-all", section="V", title="UNION ALL", data={"t": T},
        query=(
            "SELECT VALUE t.v FROM t AS t WHERE t.k = 'a' "
            "UNION ALL SELECT VALUE t.v * 10 FROM t AS t"
        ),
        expected="{{ 1, 3, 10, 20, 30 }}",
    ),
    ConformanceCase(
        case_id="ISO-intersect", section="V", title="INTERSECT", data={"t": T},
        query=(
            "SELECT VALUE t.k FROM t AS t INTERSECT "
            "(SELECT VALUE t.k FROM t AS t WHERE t.v > 1 ORDER BY t.k LIMIT 5)"
        ),
        expected="{{ 'a', 'b' }}",
    ),
]

CASES = list(all_cases()) + EXTRA_CASES
TYPING_MODES = ["permissive", "strict"]
ENGINE_DIALS = {"default": {}, "rows": ROWS}


def _boom(*args, **kwargs):
    raise AssertionError("crossed the engine / oracle boundary")


def _outcome(db, case, **dials):
    try:
        return ("value", db.execute(case.query, **dials))
    except errors.SQLPPError as exc:
        return ("error", type(exc).__name__)


def _same(case, left, right) -> bool:
    if left[0] != right[0]:
        return False
    if left[0] == "error":
        return left[1] == right[1]
    return _results_equal(left[1], right[1], ordered=case.ordered)


def _meets_expectation(case, outcome) -> bool:
    if case.expect_error:
        return outcome == ("error", case.expect_error)
    if outcome[0] != "value":
        return False
    if case.expected is None:
        return True
    return _results_equal(outcome[1], loads(case.expected), ordered=case.ordered)


parametrized = pytest.mark.parametrize(
    "case", CASES, ids=lambda case: case.case_id
)


@parametrized
@pytest.mark.parametrize("typing_mode", TYPING_MODES)
def test_engine_never_enters_the_oracle(case, typing_mode, monkeypatch):
    # Everything that needs the oracle happens first: loading literals
    # (formats/sqlpp_text.py evaluates them on it) and its own verdict.
    databases = {name: build_database(case) for name in ENGINE_DIALS}
    oracle = _outcome(
        build_database(case), case, optimize=False, typing_mode=typing_mode
    )
    if typing_mode == case.typing_mode:
        assert _meets_expectation(case, oracle), oracle
    monkeypatch.setattr(reference.ReferenceEvaluator, "_eval_block_query", _boom)
    monkeypatch.setattr(reference.ReferenceEvaluator, "eval_expr", _boom)
    for kind in list(reference._DISPATCH):
        monkeypatch.setitem(reference._DISPATCH, kind, _boom)
    for name, dials in ENGINE_DIALS.items():
        engine = run(
            _outcome, databases[name], case, typing_mode=typing_mode, **dials
        )
        assert _same(case, engine, oracle), (name, engine, oracle)


@parametrized
@pytest.mark.parametrize("typing_mode", TYPING_MODES)
def test_oracle_never_enters_the_engine(case, typing_mode, monkeypatch):
    engine = _outcome(build_database(case), case, typing_mode=typing_mode)
    if typing_mode == case.typing_mode:
        assert _meets_expectation(case, engine), engine
    db = build_database(case)
    monkeypatch.setattr(compile_expr, "compile_expr", _boom)
    monkeypatch.setattr(compile_expr, "compile_batch", _boom)
    monkeypatch.setattr(planner, "plan_block", _boom)
    oracle = _outcome(db, case, optimize=False, typing_mode=typing_mode)
    assert _same(case, oracle, engine), (oracle, engine)
