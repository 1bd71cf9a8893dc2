"""E16 — batch-vectorized execution.

The batch executor (docs/PLANNER.md "Batch execution") moves the
row-at-a-time clause loop to ~1024-row chunks with compiled batch
closures.  This experiment measures it at n=100k against the
executor's rows mode — forced here by refusing every block columns
mode, the way a correlated subquery is refused — on a hash join and a
decomposed GROUP BY fold, and asserts the vectorization win on the
fold path.

Morsel parallelism used to be measured here too; it lost on every
template on a 2-CPU host and was removed (EXPERIMENTS.md E16).

Both modes must agree exactly on every result (bag comparison).
"""

from __future__ import annotations

import time
from unittest import mock

import pytest

from repro import Database
from repro.core.evaluator import Evaluator

from conftest import assert_same_bag

N = 100_000
N_DIM = 1_000
#: The serial-batch acceptance bar for the decomposed GROUP BY fold at
#: n=100k: chunked, compiled-closure folding must beat the
#: row-at-a-time streaming pipeline by at least this factor.
MIN_BATCH_SPEEDUP = 1.5

JOIN_QUERY = (
    "SELECT VALUE {'v': f.v, 'name': d.name} "
    "FROM fact AS f JOIN dim AS d ON f.k = d.k "
    "WHERE f.v < 500"
)
GROUP_QUERY = (
    "SELECT VALUE {'k': f.k, 'n': COUNT(*), 'mean': AVG(f.v)} "
    "FROM fact AS f GROUP BY f.k"
)


def fact_rows(n: int):
    return [
        {"k": (i * 7) % N_DIM, "v": (i * 2654435761) % 1_000}
        for i in range(n)
    ]


def dim_rows(n: int):
    return [{"k": i, "name": f"dim-{i}"} for i in range(n)]


class RowsMode:
    """A database whose every query runs in the executor's rows mode:
    each block is refused columns mode, as a correlated subquery is."""

    def __init__(self, db: Database):
        self.db = db

    def execute(self, query: str):
        with mock.patch.object(Evaluator, "_batch_refusal", lambda *_: "rows"):
            return self.db.execute(query)


def build_db() -> Database:
    db = Database()
    db.set("fact", fact_rows(N))
    db.set("dim", dim_rows(N_DIM))
    return db


@pytest.fixture(scope="module")
def engines():
    """{label: database} with warm compile caches, one per mode."""
    built = {
        "streaming": RowsMode(build_db()),
        "batch": build_db(),
    }
    for db in built.values():
        db.execute(JOIN_QUERY)
        db.execute(GROUP_QUERY)
    return built


@pytest.fixture(scope="module")
def agreement_verified(engines):
    """Both modes return the same bag for both queries (checked once)."""
    for query in (JOIN_QUERY, GROUP_QUERY):
        reference = engines["streaming"].execute(query)
        assert_same_bag(engines["batch"].execute(query), reference)
    return True


@pytest.mark.benchmark(group="E16-join-n100000")
class TestJoinModes:
    def test_streaming(self, benchmark, engines, agreement_verified):
        benchmark.pedantic(
            lambda: engines["streaming"].execute(JOIN_QUERY),
            rounds=3,
            iterations=1,
        )

    def test_batch_serial(self, benchmark, engines, agreement_verified):
        benchmark.pedantic(
            lambda: engines["batch"].execute(JOIN_QUERY),
            rounds=3,
            iterations=1,
        )


@pytest.mark.benchmark(group="E16-group-n100000")
class TestGroupModes:
    def test_streaming(self, benchmark, engines, agreement_verified):
        benchmark.pedantic(
            lambda: engines["streaming"].execute(GROUP_QUERY),
            rounds=3,
            iterations=1,
        )

    def test_batch_serial(self, benchmark, engines, agreement_verified):
        benchmark.pedantic(
            lambda: engines["batch"].execute(GROUP_QUERY),
            rounds=3,
            iterations=1,
        )


def _timed(db, query: str) -> float:
    started = time.perf_counter()
    db.execute(query)
    return time.perf_counter() - started


def test_serial_batch_speedup_claim(engines, agreement_verified):
    """Serial batch GROUP BY beats streaming by ≥1.5× at n=100k."""
    streaming_s = min(_timed(engines["streaming"], GROUP_QUERY) for _ in range(3))
    batch_s = min(_timed(engines["batch"], GROUP_QUERY) for _ in range(3))
    speedup = streaming_s / batch_s
    print(
        f"\nE16 n=100k GROUP BY: streaming {streaming_s * 1e3:.0f}ms, "
        f"serial batch {batch_s * 1e3:.0f}ms → {speedup:.1f}× speedup"
    )
    assert engines["batch"].metrics.last.batched is True
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"serial batch only {speedup:.2f}× faster than streaming "
        f"(claim: ≥{MIN_BATCH_SPEEDUP}×)"
    )

