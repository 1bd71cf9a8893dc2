"""EXPLAIN, EXPLAIN ANALYZE and ``execute`` tell one story.

For every compat-kit case and every ``batch_analytics`` and
``nested_streaming`` template of the layered benchmark: the ``executor:``/``kernels:`` lines ``explain_plan``
prints, the ones ``explain_analyze`` prints, and the
``batched``/``streamed`` flags a plain ``execute`` records all name the
same executor — EXPLAIN is a view of the evaluator's own decisions, and
EXPLAIN ANALYZE analyses the run ``execute`` makes.

And the story has one FROM implementation in it: over the kit in both
typing modes, every block with a FROM clause that executes under
``optimize=True`` ran — and EXPLAIN, EXPLAIN ANALYZE and the query
store's plan hash report — an operator tree.  That is the regression
guard against a second FROM path reappearing beside the plan; that a
strict case which raises nothing names the same executor as its
permissive twin is the one against a typing-mode batch refusal.
"""

from __future__ import annotations

import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import Database, errors
from repro.compat.corpus import all_cases
from repro.compat.runner import build_database
from repro.core.plan_ops import LateralJoinOp, walk_ops
from repro.observability import ExecTracer
from repro.syntax import ast

#: A ``plan:`` line that says a FROM block has no operator tree
#: (unplanned / reference / none), as opposed to the reuse decision
#: (``plan: built | reused | rebuilt — …``) every planned block prints.
UNPLANNED = re.compile(r"^plan: (?!built|reused|rebuilt)", re.M)

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
    # Strict typing: the batch attempt EXPLAIN announces may be
    # abandoned for the stream, and only the run can say so.
    replayed = "replayed after" in analyzed[0]
    if replayed:
        assert planned[0] == "executor: batch"
    else:
        assert planned == analyzed
    traced = db.metrics.last
    assert (traced.batched, traced.streamed) == (ran.batched, ran.streamed)
    executor = "stream" if replayed else planned[0].split()[1]
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


def assert_operator_trees(db: Database, query: str) -> None:
    core = db.compile(query)
    tracer = ExecTracer()
    db.execute(query, tracer=tracer)
    plan_hash = db.metrics.last.plan_hash
    executed = 0
    for node in core.walk():
        if not isinstance(node, ast.QueryBlock) or node.from_ is None:
            continue
        if not tracer.stages_for(node):
            continue  # no binding reached this block
        executed += 1
        plan = tracer.plan_for(node)
        assert plan is not None, "a FROM block ran without its plan"
        assert any(tracer.op_stats(op) is not None for op in walk_ops(plan.op))
    # Per-item records are the oracle's; the engine enumerates operators.
    assert not tracer._item_stats
    body = core.body
    if isinstance(body, ast.QueryBlock) and body.from_ is not None:
        assert executed
        assert plan_hash != "reference"
        for text in (db.explain_plan(query), db.explain_analyze(query)):
            assert "\nFROM\n  " in text and "\nrewrites fired:\n" in text
            assert not UNPLANNED.search(text) and "\nfrom:" not in text
    else:
        assert plan_hash == "reference"


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.case_id)
def test_kit_case_runs_operator_trees(case, typing_mode):
    native = case.typing_mode == typing_mode
    db = build_database(replace(case, typing_mode=typing_mode))
    try:
        assert_operator_trees(db, case.query)
    except errors.SQLPPError:
        # The other typing mode may reject the case; its own may only
        # where the case says so.
        assert case.expect_error or not native
        return
    if typing_mode == "strict":
        # The typing mode picks what an operator returns, never the
        # executor's mode (columns or rows): the regression guard
        # against a typing-mode rung reappearing in
        # ``Evaluator._batch_refusal``.
        twin = build_database(replace(case, typing_mode="permissive"))
        assert (
            executor_lines(db.explain_plan(case.query))[0]
            == executor_lines(twin.explain_plan(case.query))[0]
        )


#: EXPLAIN's ``kernels:`` line for a query none of whose blocks batches.
NO_KERNELS = "kernels: none (no block runs on the batch executor)"


def assert_kernels_line_agrees(text: str) -> None:
    """The ``kernels:`` line says "none" exactly when no block's
    ``executor`` line is ``batch``: a batched block without a kernel
    reads ``kernels: 0 columnar, …``."""
    lines = executor_lines(text)
    batched = any(line.split(": ", 1)[1] == "batch" for line in lines[:-1])
    assert batched is (lines[-1] != NO_KERNELS), lines


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.case_id)
def test_kit_case_kernels_line(case, typing_mode):
    db = build_database(replace(case, typing_mode=typing_mode))
    try:
        text = db.explain_plan(case.query)
    except errors.SQLPPError:
        assert case.expect_error or case.typing_mode != typing_mode
        return
    assert_kernels_line_agrees(text)


def test_kernels_line_of_a_batched_block_without_kernels():
    db = Database()
    db.set("t", [{"a": 1}, {"a": 2}])
    for query in (
        "SELECT * FROM t AS t",
        "SELECT t.a AS a, COUNT(*) AS n FROM t AS t GROUP BY ROLLUP (t.a)",
    ):
        lines = executor_lines(db.explain_plan(query))
        assert lines[0] == "executor: batch"
        assert lines[-1].startswith("kernels: ") and lines[-1] != NO_KERNELS


#: Shapes whose ON, pushed filters and lateral sources are chunk kernels
#: like any other operator's: a non-equi join, a strict join, a
#: first-item UNPIVOT with a pushed filter, and a lateral join item.
OPERATOR_KERNEL_SHAPES = [
    ("permissive", "SELECT VALUE 1 FROM t AS r JOIN u AS s ON r.a < s.k"),
    ("strict", "SELECT VALUE 1 FROM t AS r JOIN u AS s ON r.a = s.k"),
    (
        "permissive",
        "SELECT VALUE 1 FROM UNPIVOT {'a': 1, 'b': 2} AS v AT k WHERE v > 1",
    ),
    (
        "permissive",
        "SELECT VALUE 1 FROM t AS a, a.xs AS x JOIN u AS z ON x = z.k "
        "WHERE z.k > 0",
    ),
]


def operator_kernels(op) -> int:
    """One kernel per ON, residual, pushed filter, hash key and lateral
    source of ``op``."""
    count = len(op.filters) + len(getattr(op, "residual", ()))
    count += getattr(op, "on", None) is not None
    count += isinstance(op, LateralJoinOp)
    count += len(getattr(op, "left_keys", ())) + len(getattr(op, "right_keys", ()))
    return count


def kernels_count(text: str) -> int:
    return int(executor_lines(text)[-1].split()[1])


@pytest.mark.parametrize("typing_mode, query", OPERATOR_KERNEL_SHAPES)
def test_kernels_line_counts_every_operator_kernel(typing_mode, query):
    db = Database(typing_mode=typing_mode)
    db.set("t", [{"a": 1, "xs": [1, 2]}, {"a": 2, "xs": [3]}])
    db.set("u", [{"k": 1}, {"k": 3}])
    tracer = ExecTracer()
    db.execute(query, tracer=tracer)
    plan = tracer.plan_for(db.compile(query).body)
    expected = sum(operator_kernels(op) for op in walk_ops(plan.op))
    assert expected > 0
    # What the same SELECT over a bare scan counts: the tail's kernels.
    tail = kernels_count(db.explain_plan("SELECT VALUE 1 FROM t AS t"))
    executor, kernels = executor_lines(db.explain_plan(query))
    assert executor == "executor: batch"
    # The count, then the account of the stored-column reads, if any.
    assert re.fullmatch(
        rf"kernels: {tail + expected} columnar( \([^)]*\))?, no env-space fallback",
        kernels,
    ), kernels


def harness_modules(monkeypatch):
    # The harness modules import each other by bare name (run.py's way).
    monkeypatch.syspath_prepend(str(LAYERED))
    try:
        import datagen
        import workloads
    finally:
        for name in ("workloads", "datagen", "oracles"):
            sys.modules.pop(name, None)
    return datagen, workloads


def test_batch_analytics_templates(monkeypatch):
    datagen, workloads = harness_modules(monkeypatch)
    db = Database()
    db.set("orders", datagen.orders(1, 300, 30))
    db.set("users", datagen.users(1, 30))
    assert len(workloads.BATCH_TEMPLATES) == 13
    for template in workloads.BATCH_TEMPLATES:
        assert_one_story(db, template.sql)
        assert db.metrics.last.batched, template.name
    sql = {template.name: template.sql for template in workloads.BATCH_TEMPLATES}
    # The sort has its own row; its keys cannot see a select alias, so
    # the SELECT runs after it.
    assert stage_labels(db, sql["order_full"]) == ["FROM", "ORDER BY", "SELECT"]
    assert stage_labels(db, sql["distinct"]) == ["FROM", "SELECT DISTINCT"]


def test_layered_templates_kernels_line(monkeypatch):
    datagen, workloads = harness_modules(monkeypatch)
    data = {
        "orders": datagen.orders(1, 300, 30),
        "users": datagen.users(1, 30),
        "hr.emp": datagen.employees(1, 120),
        "events": datagen.events(1, 120, dirty=True),
        "events_dirty": datagen.events(1, 120, dirty=True),
        "prices": datagen.prices(1, 20),
    }
    permissive, strict = Database(), Database(typing_mode="strict")
    for db in (permissive, strict):
        for name, rows in data.items():
            db.set(name, rows)
    templates = (
        workloads.BATCH_TEMPLATES
        + workloads.NESTED_TEMPLATES
        + workloads.DASHBOARD_TEMPLATES
        + (workloads.CLI_TEMPLATE,)
    )
    for template in templates:
        assert_kernels_line_agrees(permissive.explain_plan(template.sql))
    for template in workloads.STRICT_TEMPLATES:
        assert_kernels_line_agrees(strict.explain_plan(template.sql))


def stage_labels(db: Database, query: str) -> list:
    """The labels of EXPLAIN ANALYZE's ``stages:`` rows, in order."""
    section = db.explain_analyze(query).split("\nstages:\n")[1].split("\n\n")[0]
    return [line.split("  (")[0].strip() for line in section.splitlines()]


#: ``nested_streaming`` template -> the executor its top-level block runs
#: on.  Comma-unnest, UNPIVOT and the subqueries over a row's own
#: collection are batch, and so are the blocking tails (top-K, windows:
#: key columns from chunk kernels); only the unordered LIMIT streams,
#: because stopping early is its point.
NESTED_EXECUTORS = {
    "unnest": "batch", "unnest_group": "batch", "group_as": "batch",
    "topk": "batch", "limit_early": "stream", "exists_nested": "batch",
    "nested_select": "batch", "unpivot": "batch", "hetero_group": "batch",
    "hetero_tags": "batch", "window_rank": "batch", "construct": "batch",
}


def test_nested_streaming_templates(monkeypatch):
    datagen, workloads = harness_modules(monkeypatch)
    db = Database()
    db.set("hr.emp", datagen.employees(1, 120))
    db.set("events", datagen.events(1, 120, dirty=True))
    db.set("prices", datagen.prices(1, 20))
    assert {t.name for t in workloads.NESTED_TEMPLATES} == set(NESTED_EXECUTORS)
    for template in workloads.NESTED_TEMPLATES:
        assert_one_story(db, template.sql)
        plan = db.explain_plan(template.sql)
        executor, kernels = executor_lines(plan)[0], plan.splitlines()[-1]
        assert executor.split()[1] == NESTED_EXECUTORS[template.name], (
            template.name, executor,
        )
        if template.name in (
            "unnest", "unnest_group", "unpivot", "hetero_tags", "topk", "window_rank"
        ):
            assert kernels.endswith("no env-space fallback"), (template.name, kernels)
        if template.name in ("exists_nested", "nested_select"):
            assert "[Exists]" not in kernels and "[SubqueryExpr]" not in kernels
    # The tails are recorded where they ran: a deferred top-K before the
    # SELECT of the rows it kept, window values before the SELECT.
    sql = {template.name: template.sql for template in workloads.NESTED_TEMPLATES}
    assert stage_labels(db, sql["topk"]) == ["FROM", "TOP-K", "SELECT"]
    assert stage_labels(db, sql["window_rank"]) == ["FROM", "WINDOW", "SELECT"]
    assert "executor: stream (unordered LIMIT/OFFSET stops" in (
        db.explain_plan(sql["limit_early"])
    )
    # A subquery the kernel does not admit is still listed.
    kernels = db.explain_plan(
        "SELECT e.id AS id, (SELECT VALUE p.name FROM e.projects AS p "
        "ORDER BY p.hours LIMIT 1) AS top FROM hr.emp AS e"
    ).splitlines()[-1]
    assert "[SubqueryExpr]" in kernels
