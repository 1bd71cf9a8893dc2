"""E18 — the semantic rewrite registry (docs/REWRITER.md).

A/B of the engine with its rule registry against the same engine with
the registry emptied for the call (:func:`naive`; physical
planning on in both arms) on the shapes the registry targets:

* correlated ``EXISTS`` at n=10k and n=100k — SQLPPR01 turns the
  per-outer-row subquery re-evaluation (O(outer × inner)) into a
  DISTINCT semi-side plus one hash join (O(outer + inner)).  The
  headline claim asserted below: **≥10× at n=10k**.  The un-rewritten
  arm at n=100k would run for minutes, so only the rewritten arm is
  timed there (it documents that the rewritten plan stays linear).
* an OR-chain probe — SQLPPR03 unlocks the compiled IN set probe.
* a CSE-heavy query — SQLPPR04 evaluates the repeated subquery once
  per binding instead of once per occurrence.

Both arms must agree exactly on every result (bag comparison); the
compat-kit sweep (tests/compat/test_rewrite_parity.py) pins the
registry against the oracle (``optimize=False``) corpus-wide, which is
too slow to time here.
"""

from __future__ import annotations

import time
from unittest import mock

import pytest

from repro import Database
from repro.core import rewrite_rules
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag

N_SMALL = 10_000
N_BIG = 100_000
#: The acceptance bar: semi-join rewrite at n=10k must beat the naive
#: correlated re-evaluation by at least this factor.
MIN_SPEEDUP = 10.0

EXISTS_QUERY = (
    "SELECT VALUE c.name FROM customers AS c WHERE EXISTS "
    "(SELECT VALUE o FROM orders AS o "
    "WHERE o.cust = c.id AND o.amt > 50)"
)
OR_QUERY = (
    "SELECT VALUE o.amt FROM orders AS o "
    "WHERE o.cust = 3 OR o.cust = 17 OR o.cust = 41 OR o.cust = 99"
)
# No outer WHERE: SQLPPR04's no-work-regression condition refuses to
# hoist SELECT-only occurrences past a selective WHERE.
CSE_QUERY = (
    "SELECT c.id AS id, "
    "(SELECT VALUE o.amt FROM orders AS o WHERE o.cust = c.id) AS a, "
    "(SELECT VALUE o.amt FROM orders AS o WHERE o.cust = c.id) AS b "
    "FROM customers AS c"
)


def naive(db: Database, query: str):
    """``query`` on ``db`` with no rule in the registry; the changed
    registry version keeps it in a compile-cache entry of its own."""
    with mock.patch.multiple(
        rewrite_rules, RULES=(), REGISTRY_VERSION=-rewrite_rules.REGISTRY_VERSION
    ):
        return db.execute(query)


def tables(n: int):
    n_customers = max(n // 10, 10)
    customers = [{"id": i, "name": f"c{i}"} for i in range(n_customers)]
    # cust strides past the customer range so some orders match nobody.
    orders = [
        {"cust": (i * 7) % (n_customers + 5), "amt": i % 100}
        for i in range(n)
    ]
    return customers, orders


def build_db(n: int) -> Database:
    db = Database()
    customers, orders = tables(n)
    db.set("customers", customers)
    db.set("orders", orders)
    return db


@pytest.fixture(scope="module")
def small_db():
    db = build_db(N_SMALL)
    db.execute(EXISTS_QUERY)  # warm both arms' compile caches
    naive(db, EXISTS_QUERY)
    return db


@pytest.fixture(scope="module")
def big_db():
    db = build_db(N_BIG)
    db.execute(EXISTS_QUERY)
    return db


@pytest.fixture(scope="module")
def agreement_verified(small_db):
    """Both arms agree on every benchmarked query (checked once)."""
    for query in (EXISTS_QUERY, OR_QUERY, CSE_QUERY):
        on = small_db.execute(query)
        off = naive(small_db, query)
        assert deep_equals(Bag(list(on)), Bag(list(off))), query
    return True


@pytest.mark.benchmark(group="E18-exists-n10000")
class TestCorrelatedExists:
    def test_naive_correlated(self, benchmark, small_db, agreement_verified):
        benchmark.pedantic(
            lambda: naive(small_db, EXISTS_QUERY),
            rounds=2,
            iterations=1,
        )

    def test_semijoin_rewrite(self, benchmark, small_db, agreement_verified):
        benchmark(lambda: small_db.execute(EXISTS_QUERY))


@pytest.mark.benchmark(group="E18-exists-n100000")
class TestCorrelatedExistsAtScale:
    def test_semijoin_rewrite_n100k(self, benchmark, big_db):
        benchmark(lambda: big_db.execute(EXISTS_QUERY))


@pytest.mark.benchmark(group="E18-or-chain-n10000")
class TestOrChain:
    def test_linear_or_probe(self, benchmark, small_db, agreement_verified):
        benchmark(lambda: naive(small_db, OR_QUERY))

    def test_in_set_probe(self, benchmark, small_db, agreement_verified):
        benchmark(lambda: small_db.execute(OR_QUERY))


@pytest.mark.benchmark(group="E18-cse-n10000")
class TestCse:
    def test_per_occurrence(self, benchmark, small_db, agreement_verified):
        benchmark.pedantic(
            lambda: naive(small_db, CSE_QUERY),
            rounds=2,
            iterations=1,
        )

    def test_hoisted_let(self, benchmark, small_db, agreement_verified):
        benchmark(lambda: small_db.execute(CSE_QUERY))


def test_exists_speedup_claim(small_db, agreement_verified):
    """The tentpole claim: ≥10× for correlated EXISTS at n=10k."""
    small_db.execute(EXISTS_QUERY)  # warm

    started = time.perf_counter()
    reference = naive(small_db, EXISTS_QUERY)
    naive_s = time.perf_counter() - started

    started = time.perf_counter()
    rewritten = small_db.execute(EXISTS_QUERY)
    rewritten_s = time.perf_counter() - started

    assert deep_equals(Bag(list(rewritten)), Bag(list(reference)))
    speedup = naive_s / rewritten_s
    print(
        f"\nE18 n=10k correlated EXISTS: naive {naive_s:.2f}s, "
        f"semi-join {rewritten_s * 1e3:.0f}ms → {speedup:.1f}× speedup"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"semi-join rewrite only {speedup:.1f}× faster than the naive "
        f"correlated re-evaluation (claim: ≥{MIN_SPEEDUP}×)"
    )


def test_rewrites_fired_as_expected(small_db):
    """Each arm of the A/B exercises what its name claims."""
    small_db.execute(EXISTS_QUERY)
    assert small_db.metrics.last.rewrites == ["SQLPPR01"]
    small_db.execute(OR_QUERY)
    assert small_db.metrics.last.rewrites == ["SQLPPR03"]
    small_db.execute(CSE_QUERY)
    assert small_db.metrics.last.rewrites == ["SQLPPR04"]
    naive(small_db, EXISTS_QUERY)
    assert small_db.metrics.last.rewrites == []
