"""Property test: the semantic rewrite registry preserves semantics.

Per rule, for randomly generated data — rows whose correlation keys
may be NULL, MISSING, int, float, or the wrong type entirely —
evaluation on the engine, which runs the registry, must be
indistinguishable from the oracle (``optimize=False``), which never
rewrites, in both typing modes (same result bag, or the same error
class, or — strict, over EXISTS / IN — an oracle error where the
engine's early-terminating consumer stopped first).  These are exactly
the hazards each rule's safety conditions discharge: absent keys,
duplicate inner keys, empty groups, mixed equality categories,
int/float key unification.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import Database, errors
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag

# Keys cover every hazard class: absent (dropped attribute = MISSING),
# NULL, int/float unification, and a cross-category string.
key_strategy = st.one_of(
    st.none(),
    st.integers(0, 3),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.sampled_from(["x", "y"]),
)


def outer_rows():
    return st.lists(
        st.fixed_dictionaries({}, optional={"id": key_strategy}),
        max_size=6,
    )


def inner_rows():
    return st.lists(
        st.fixed_dictionaries(
            {},
            optional={"cust": key_strategy, "amt": st.integers(-5, 5)},
        ),
        max_size=8,
    )


def run_both(db: Database, query: str, typing_mode: str) -> None:
    def outcome(optimize: bool):
        try:
            return ("value", db.execute(
                query, typing_mode=typing_mode, optimize=optimize
            ))
        except errors.SQLPPError as exc:
            return ("error", type(exc).__name__)

    on = outcome(True)
    off = outcome(False)
    if typing_mode == "strict" and on[0] == "value" and off[0] == "error":
        # The oracle evaluates a bounded consumer eagerly and may meet
        # an error the engine stopped before (docs/LANGUAGE.md §8).
        assert "EXISTS" in query or " IN (SELECT" in query, (query, on, off)
        return
    assert on[0] == off[0], f"{query!r}: on → {on}, off → {off}"
    if on[0] == "error":
        assert on[1] == off[1]
        return
    left, right = on[1], off[1]
    if isinstance(left, (list, Bag)):
        assert deep_equals(Bag(list(left)), Bag(list(right))), (
            f"rewrite parity violation for {query!r}"
        )
    else:
        assert deep_equals(left, right)


def make_db(customers, orders) -> Database:
    db = Database()
    db.set("customers", customers)
    db.set("orders", orders)
    return db


@given(outer_rows(), inner_rows(), st.sampled_from(["permissive", "strict"]))
@settings(max_examples=60, deadline=None)
def test_r01_exists_semijoin_parity(customers, orders, typing_mode):
    run_both(
        make_db(customers, orders),
        "SELECT VALUE c.id FROM customers AS c WHERE EXISTS "
        "(SELECT VALUE o FROM orders AS o WHERE o.cust = c.id)",
        typing_mode,
    )


@given(outer_rows(), inner_rows(), st.sampled_from(["permissive", "strict"]))
@settings(max_examples=60, deadline=None)
def test_r01_in_subquery_parity(customers, orders, typing_mode):
    run_both(
        make_db(customers, orders),
        "SELECT VALUE c.id FROM customers AS c "
        "WHERE c.id IN (SELECT VALUE o.cust FROM orders AS o)",
        typing_mode,
    )


@given(
    outer_rows(),
    inner_rows(),
    st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX"]),
    st.sampled_from(["permissive", "strict"]),
)
@settings(max_examples=60, deadline=None)
def test_r02_decorrelate_scalar_parity(customers, orders, agg, typing_mode):
    run_both(
        make_db(customers, orders),
        f"SELECT c.id AS id, (SELECT {agg}(o.amt) FROM orders AS o "
        "WHERE o.cust = c.id) AS v FROM customers AS c",
        typing_mode,
    )


@given(
    outer_rows(),
    st.lists(
        st.one_of(
            st.integers(0, 3), st.sampled_from([1.0, "x", True])
        ),
        min_size=3,
        max_size=5,
    ),
    st.sampled_from(["permissive", "strict"]),
)
@settings(max_examples=60, deadline=None)
def test_r03_or_to_in_parity(customers, literals, typing_mode):
    def lit(value):
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, str):
            return f"'{value}'"
        return repr(value)

    chain = " OR ".join(f"c.id = {lit(v)}" for v in literals)
    run_both(
        make_db(customers, []),
        f"SELECT VALUE c.id FROM customers AS c WHERE {chain}",
        typing_mode,
    )


@given(outer_rows(), inner_rows(), st.sampled_from(["permissive", "strict"]))
@settings(max_examples=40, deadline=None)
def test_r04_cse_parity(customers, orders, typing_mode):
    run_both(
        make_db(customers, orders),
        "SELECT VALUE [(SELECT VALUE o.amt FROM orders AS o "
        "WHERE o.cust = c.id), (SELECT VALUE o.amt FROM orders AS o "
        "WHERE o.cust = c.id)] FROM customers AS c",
        typing_mode,
    )


@given(outer_rows(), inner_rows(), st.sampled_from(["permissive", "strict"]))
@settings(max_examples=40, deadline=None)
def test_stacked_rules_parity(customers, orders, typing_mode):
    # One query where several rules can fire on the same block.
    run_both(
        make_db(customers, orders),
        "SELECT c.id AS id, (SELECT SUM(o.amt) FROM orders AS o "
        "WHERE o.cust = c.id) AS total FROM customers AS c "
        "WHERE (c.id = 1 OR c.id = 2 OR c.id = 3) AND EXISTS "
        "(SELECT VALUE o FROM orders AS o WHERE o.cust = c.id)",
        typing_mode,
    )
