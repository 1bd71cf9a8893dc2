"""EXPLAIN, EXPLAIN ANALYZE and ``execute`` tell one story.

For every compat-kit case and every ``batch_analytics`` template of the
layered benchmark: the ``executor:``/``kernels:`` lines ``explain_plan``
prints, the ones ``explain_analyze`` prints, and the
``batched``/``streamed`` flags a plain ``execute`` records all name the
same executor — EXPLAIN is a view of the evaluator's own decisions, and
EXPLAIN ANALYZE analyses the run ``execute`` makes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import Database, errors
from repro.compat.corpus import all_cases
from repro.compat.runner import build_database

LAYERED = Path(__file__).resolve().parents[2] / "benchmarks" / "layered"


def executor_lines(text: str) -> list:
    lines = text.splitlines()
    start = next(
        index for index, line in enumerate(lines) if line.startswith("executor: ")
    )
    end = next(
        index for index, line in enumerate(lines) if line.startswith("kernels: ")
    )
    return lines[start : end + 1]


def assert_one_story(db: Database, query: str) -> None:
    db.execute(query)
    ran = db.metrics.last
    planned = executor_lines(db.explain_plan(query))
    analyzed = executor_lines(db.explain_analyze(query))
    assert planned == analyzed
    traced = db.metrics.last
    assert (traced.batched, traced.streamed) == (ran.batched, ran.streamed)
    executor = planned[0].split()[1]
    assert ran.batched is (executor == "batch")
    if executor == "stream":
        assert ran.streamed
    if ran.batched:
        assert ran.plan_hash != "reference"


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.case_id)
def test_kit_case(case):
    db = build_database(case)
    try:
        assert_one_story(db, case.query)
    except errors.SQLPPError:
        assert case.expect_error


def test_batch_analytics_templates(monkeypatch):
    # The harness modules import each other by bare name (run.py's way).
    monkeypatch.syspath_prepend(str(LAYERED))
    try:
        import datagen
        import workloads
    finally:
        for name in ("workloads", "datagen", "oracles"):
            sys.modules.pop(name, None)
    db = Database()
    db.set("orders", datagen.orders(1, 300, 30))
    db.set("users", datagen.users(1, 30))
    assert len(workloads.BATCH_TEMPLATES) == 13
    for template in workloads.BATCH_TEMPLATES:
        assert_one_story(db, template.sql)
        assert db.metrics.last.batched, template.name
