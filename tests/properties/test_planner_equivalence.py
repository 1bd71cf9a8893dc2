"""Property test: the physical planner preserves Core semantics.

For randomly generated join workloads — random tables with optional
(sometimes-MISSING) attributes and NULL-able keys, random join kinds,
equi / composite / non-equi ON predicates, and conjunctive WHERE
clauses — evaluation with ``optimize=True`` (hash joins, predicate
pushdown, right-side materialization) must produce exactly the same
bag as ``optimize=False`` (the executable reference semantics).

Under ``typing_mode="strict"`` the contract (docs/LANGUAGE.md §8) is the
same bag, or an error of the same class the reference raises: the keys
mix integers and strings, so ``l.k = r.k`` raises whenever two
categories meet, and the planner must not hash, push or prune that
error away.  Run with ``REPRO_VERIFY_PLANS=1`` (CI's ``verify-plans``
job) every plan built here also passes the structural verifier.
"""

from hypothesis import given, settings, strategies as st

from repro import Database, errors
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag
from tests.rows_mode import ROWS, run

# Rows with optional attributes: a dropped key means the attribute is
# MISSING, exercising the planner's NULL/MISSING key handling.
def row_strategy(extra: str):
    return st.fixed_dictionaries(
        {},
        optional={
            "k": st.one_of(
                st.none(), st.integers(0, 4), st.sampled_from(["a", "b"])
            ),
            "j": st.integers(0, 2),
            extra: st.integers(-10, 10),
        },
    )


tables = st.tuples(
    st.lists(row_strategy("u"), max_size=8),
    st.lists(row_strategy("v"), max_size=8),
    st.lists(row_strategy("w"), max_size=5),
)

JOIN_KINDS = ["JOIN", "LEFT JOIN"]
ON_PREDICATES = [
    "l.k = r.k",                      # single-key equi join → hash
    "l.k = r.k AND l.j = r.j",        # composite key → hash
    "l.k = r.k AND l.u < r.v",        # equi + residual
    "l.j >= r.j",                     # non-equi → materialize
    "l.k = r.nope",                   # key always MISSING on one side
    "TRUE",                           # cross product
]
WHERE_CLAUSES = [
    None,
    "l.j = 1",                        # pushable to the left scan
    "r.v > 0",                        # right side: pushable only for INNER
    "l.j = 1 AND r.v > 0 AND l.u <= r.v",
]

query_parts = st.tuples(
    st.sampled_from(JOIN_KINDS),
    st.sampled_from(ON_PREDICATES),
    st.sampled_from(WHERE_CLAUSES),
)


def outcome(db: Database, query: str, **dials):
    try:
        return Bag(list(db.execute(query, **dials)))
    except errors.SQLPPError as error:
        return type(error)


def run_both(db: Database, query: str) -> None:
    """Engine (columns and rows mode) against the oracle, in both typing
    modes."""
    for typing_mode in ("permissive", "strict"):
        reference = outcome(db, query, optimize=False, typing_mode=typing_mode)
        for dials in ({}, ROWS):
            optimized = run(outcome, db, query, typing_mode=typing_mode, **dials)
            if isinstance(reference, type):
                assert typing_mode == "strict" and optimized is reference, (
                    f"{typing_mode} {dials}: {query!r} → {optimized}, "
                    f"reference raises {reference.__name__}"
                )
            else:
                assert not isinstance(optimized, type) and deep_equals(
                    optimized, reference
                ), f"planner parity violation ({typing_mode} {dials}) for {query!r}"


@given(tables, query_parts)
@settings(max_examples=80, deadline=None)
def test_two_way_join_parity(data, parts):
    left, right, _ = data
    kind, on, where = parts
    db = Database()
    db.set("lt", left)
    db.set("rt", right)
    query = f"SELECT l.k AS lk, r.k AS rk FROM lt AS l {kind} rt AS r ON {on}"
    if where is not None:
        query += f" WHERE {where}"
    run_both(db, query)


@given(tables, st.sampled_from(JOIN_KINDS), st.sampled_from(JOIN_KINDS))
@settings(max_examples=50, deadline=None)
def test_three_way_join_parity(data, kind1, kind2):
    left, right, third = data
    db = Database()
    db.set("lt", left)
    db.set("rt", right)
    db.set("wt", third)
    query = (
        "SELECT l.k AS a, r.k AS b, w.k AS c FROM lt AS l "
        f"{kind1} rt AS r ON l.k = r.k "
        f"{kind2} wt AS w ON r.j = w.j"
    )
    run_both(db, query)


@given(tables)
@settings(max_examples=40, deadline=None)
def test_comma_cross_product_with_pushdown_parity(data):
    left, right, _ = data
    db = Database()
    db.set("lt", left)
    db.set("rt", right)
    run_both(
        db,
        "SELECT l.k AS lk, r.k AS rk FROM lt AS l, rt AS r "
        "WHERE l.j = 1 AND r.j = 1 AND l.k = r.k",
    )


@given(st.lists(row_strategy("u"), max_size=6))
@settings(max_examples=40, deadline=None)
def test_lateral_unnest_parity(rows):
    db = Database()
    db.set("src", [{"id": i, "items": rows} for i in range(3)])
    run_both(
        db,
        "SELECT s.id AS id, i.k AS k FROM src AS s "
        "LEFT JOIN s.items AS i ON i.j = s.id",
    )
