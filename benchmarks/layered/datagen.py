"""Seeded input generators for the layered benchmark.

Plain Python only: nothing here imports ``repro``, so the inputs (and
the oracles computed from them in :mod:`oracles`) are independent of the
engine under test.  The same seed gives byte-identical data; every
numeric value is an integer or a multiple of 0.25, so sums and averages
are exact whatever order an executor adds them in.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

Row = Dict[str, Any]

REGIONS = ("north", "south", "east", "west")
STATUSES = ("new", "paid", "shipped", "returned", "lost")
TIERS = ("gold", "silver", "bronze")
KINDS = ("click", "view", "purchase", "error", "login")
TAGS = ("mobile", "web", "beta", "eu", "us", "retry", "cached", "slow")
SYMBOLS = ("amzn", "goog", "msft", "aapl", "nflx", "ibm", "orcl", "sap")
ROLES = ("lead", "dev", "qa")
N_DEPTS = 12
N_PROJECTS = 40


def _rng(seed: int, stream: str) -> random.Random:
    """One independent generator per collection, so changing one
    collection's size does not shift the others' contents."""
    return random.Random(f"{seed}:{stream}")


def _quarter(rng: random.Random, low: int, high: int) -> Any:
    """An int, or a float that is a multiple of 0.25 (exact in binary)."""
    value = rng.randrange(low * 4, high * 4)
    return value // 4 if value % 4 == 0 else value / 4


def users(seed: int, n: int) -> List[Row]:
    rng = _rng(seed, "users")
    return [
        {
            "uid": uid,
            "name": f"user-{uid}",
            "tier": rng.choice(TIERS),
            "age": rng.randrange(18, 80),
        }
        for uid in range(n)
    ]


def orders(seed: int, n: int, n_users: int) -> List[Row]:
    """Flat but dirty: 5% mistyped / 5% NULL / 5% MISSING ``total``,
    30% carry ``coupon``, ``region`` 10% NULL / 20% MISSING."""
    rng = _rng(seed, "orders")
    rows: List[Row] = []
    for oid in range(n):
        row: Row = {
            "oid": oid,
            "user_id": rng.randrange(n_users),
            "qty": rng.randrange(1, 9),
            "status": rng.choice(STATUSES),
        }
        dirt = rng.random()
        if dirt < 0.05:
            row["total"] = "n/a"
        elif dirt < 0.10:
            row["total"] = None
        elif dirt >= 0.15:
            row["total"] = _quarter(rng, 1, 500)
        if rng.random() < 0.30:
            row["coupon"] = rng.choice(("A", "B", "C"))
        where = rng.random()
        if where < 0.10:
            row["region"] = None
        elif where >= 0.30:
            row["region"] = rng.choice(REGIONS)
        rows.append(row)
    return rows


def employees(seed: int, n: int) -> List[Row]:
    """``hr.emp``: employees with a nested ``projects`` array (0-4)."""
    rng = _rng(seed, "emp")
    rows: List[Row] = []
    for eid in range(n):
        projects = [
            {
                "name": f"proj-{rng.randrange(N_PROJECTS):02d}",
                "hours": rng.randrange(1, 41),
                "role": rng.choice(ROLES),
            }
            for _ in range(rng.randrange(0, 5))
        ]
        rows.append(
            {
                "id": eid,
                "name": f"emp-{eid}",
                "dept": f"d{rng.randrange(N_DEPTS):02d}",
                "salary": rng.randrange(30, 200) * 1000,
                "projects": projects,
            }
        )
    return rows


def events(seed: int, n: int, dirty: bool, start_id: int = 0) -> List[Row]:
    """Heterogeneous event log: optional ``tags``/``user``; with
    ``dirty``, 5% of ``latency`` values are a string, NULL or absent."""
    rng = _rng(seed, f"events:{start_id}:{dirty}")
    rows: List[Row] = []
    for offset in range(n):
        row: Row = {"id": start_id + offset, "kind": rng.choice(KINDS)}
        dirt = rng.random() if dirty else 1.0
        if dirt < 0.02:
            row["latency"] = "timeout"
        elif dirt < 0.035:
            row["latency"] = None
        elif dirt >= 0.05:
            row["latency"] = _quarter(rng, 1, 2000)
        if rng.random() < 0.6:
            row["tags"] = rng.sample(TAGS, rng.randrange(1, 4))
        if rng.random() < 0.5:
            row["user"] = {
                "id": rng.randrange(500),
                "plan": rng.choice(("free", "pro")),
            }
        rows.append(row)
    return rows


def prices(seed: int, days: int) -> List[Row]:
    """Wide stock table (one attribute per symbol) for UNPIVOT."""
    rng = _rng(seed, "prices")
    return [
        {
            "day": day,
            **{symbol: _quarter(rng, 10, 900) for symbol in SYMBOLS},
        }
        for day in range(days)
    ]
