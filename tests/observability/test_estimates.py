"""Per-operator cardinality annotations on EXPLAIN ANALYZE — ``est=``,
``actual=``, ``q-err=`` on every plan line, the worst-misestimate flag —
in both modes of the executor (rows and columns), and tally parity: the same query must report the same per-operator row
counts no matter which engine ran it, including under LIMIT early
termination.
"""

from __future__ import annotations

import re

import pytest

from repro import Database
from repro.observability import ExecTracer
from tests.rows_mode import ROWS, run

JOIN_QUERY = (
    "SELECT r.v AS v, s.name AS name FROM r AS r "
    "JOIN s AS s ON r.k = s.k WHERE r.v > 50"
)

EST = re.compile(r"\(est=[\d.?]+ actual=\d+( q-err=[\d.]+[^)]*)?\)")


def build_db(n: int = 100, **kwargs) -> Database:
    # query_store=False keeps these runs free of feedback hints, so the
    # sampled estimates under test stay deterministic.
    db = Database(query_store=False, **kwargs)
    db.set("r", [{"k": i % 10, "v": i} for i in range(n)])
    db.set("s", [{"k": i, "name": f"n{i}"} for i in range(10)])
    return db


def skew_db(**kwargs) -> Database:
    """First 1024 rows (the statistics sample) distinct on ``k``, the
    tail constant — an equality filter on the constant is massively
    underestimated."""
    db = Database(query_store=False, **kwargs)
    db.set(
        "a",
        [
            {"k": i if i < 1024 else -1, "v": i}
            for i in range(3000)
        ],
    )
    return db


class TestEstimateAnnotations:
    def test_streaming_plan_lines_carry_estimates(self):
        db = build_db()
        out = run(db.explain_analyze, JOIN_QUERY, rows=True)
        assert EST.search(out), out
        assert "q-err=" in out
        # Every operator of the join plan is annotated: the join and
        # both scans.
        assert len(EST.findall(out)) >= 3

    def test_batch_plan_lines_carry_estimates(self):
        db = build_db()
        out = db.explain_analyze(JOIN_QUERY)
        assert EST.search(out), out
        assert "q-err=" in out
        assert len(EST.findall(out)) >= 3

    def test_worst_misestimate_flagged(self):
        db = skew_db()
        out = run(
            db.explain_analyze,
            "SELECT a.v AS v FROM a AS a WHERE a.k = -1",
            rows=True,
        )
        # Sample says k is unique (est ~1); actually 1976 rows match.
        assert "worst misestimate" in out
        flagged = [l for l in out.splitlines() if "worst misestimate" in l]
        assert len(flagged) == 1
        assert "q-err=" in flagged[0]

    def test_no_flag_when_estimates_are_good(self):
        db = build_db()
        out = run(db.explain_analyze, "SELECT r.v AS v FROM r AS r", rows=True)
        assert "worst misestimate" not in out

    def test_unknown_estimate_renders_question_mark(self):
        # A correlated (lateral) right side has no closed-form estimate.
        db = Database(query_store=False)
        db.set("o", [{"items": [1, 2, 3], "k": 1} for _ in range(600)])
        out = run(
            db.explain_analyze,
            "SELECT i AS i FROM o AS o, o.items AS i WHERE o.k = 1 AND i > 1",
            rows=True,
        )
        assert "est=? actual=" in out, out

    def test_explain_plan_unaffected(self):
        # Plain EXPLAIN has no runtime tallies, so no actual=/q-err=.
        db = build_db()
        out = db.explain_plan(JOIN_QUERY)
        assert "actual=" not in out
        assert "q-err=" not in out


def op_tallies(tracer: ExecTracer) -> dict:
    """Per-operator (rows_in, rows_out) keyed by operator label."""
    tallies = {}
    for _op, stats in tracer._op_stats.values():
        rows_in, rows_out = tallies.get(stats.label, (0, 0))
        tallies[stats.label] = (
            rows_in + stats.rows_in,
            rows_out + stats.rows_out,
        )
    return tallies


class TestTallyParity:
    """Satellite (c): per-operator row tallies agree across streaming
    and batch runs of the same query."""

    def test_streaming_and_batch_agree(self):
        db = build_db(n=256)
        streaming, batch = ExecTracer(), ExecTracer()
        r1 = run(db.execute, JOIN_QUERY, tracer=streaming, rows=True)
        r2 = db.execute(JOIN_QUERY, tracer=batch)
        assert len(r1) == len(r2)
        t_stream, t_batch = op_tallies(streaming), op_tallies(batch)
        assert t_stream == t_batch, (t_stream, t_batch)

    def test_lateral_operator_matches_streaming_item_tallies(self):
        # A comma-unnest: batch and the stream pull the same lateral
        # operator's chunks — the same tree, so the same operator
        # tallies, and no per-item statistics (those are the oracle's).
        db = Database(query_store=False)
        db.set("o", [{"k": i % 4, "items": list(range(i % 5))} for i in range(256)])
        query = "SELECT o.k AS k, i AS i FROM o AS o, o.items AS i"
        streaming, batch = ExecTracer(), ExecTracer()
        r1 = run(db.execute, query, tracer=streaming, rows=True)
        r2 = db.execute(query, tracer=batch)
        assert len(r1) == len(r2) == 512 - 2  # i%5 over 256 rows
        expected = {
            "Scan o AS o": (256, 256),
            "Lateral[INNER]": (len(r1), len(r1)),
        }
        assert op_tallies(streaming) == expected
        assert op_tallies(batch) == expected
        scan_item, lateral_item = db.compile(query).body.from_
        assert streaming.item_stats(scan_item) is None
        assert streaming.item_stats(lateral_item) is None
        # With a pushed filter too: operator tallies agree in both modes.
        filtered = query + " WHERE i >= 2 AND o.k < 3"
        tracers = [ExecTracer(), ExecTracer()]
        run(db.execute, filtered, tracer=tracers[0], rows=True)
        db.execute(filtered, tracer=tracers[1])
        tallies = [op_tallies(tracer) for tracer in tracers]
        assert tallies[0] == tallies[1], tallies
        assert tallies[0]["Lateral[INNER]"][0] > tallies[0]["Lateral[INNER]"][1] > 0

    def test_light_tracer_counts_match_full_tracer(self):
        db = build_db()
        full, light = ExecTracer(), ExecTracer(timing=False)
        run(db.execute, JOIN_QUERY, tracer=full, rows=True)
        run(db.execute, JOIN_QUERY, tracer=light, rows=True)
        assert op_tallies(full) == op_tallies(light)

    @pytest.mark.parametrize("dials", [{}, ROWS], ids=str)
    def test_light_tracer_records_no_stages(self, dials):
        # Feedback sampling counts operator rows only, in either mode:
        # stage tallies are timing surface.
        db = build_db()
        query = "SELECT VALUE y FROM r AS r LET y = r.v + 1 WHERE y > 2"
        full, light = ExecTracer(), ExecTracer(timing=False)
        run(db.execute, query, tracer=full, **dials)
        run(db.execute, query, tracer=light, **dials)
        body = db.compile(query).body
        assert [stats.label for stats in full.stages_for(body)] == [
            "FROM", "LET", "WHERE", "SELECT",
        ]
        assert light.stages_for(body) == []
        assert op_tallies(light) == op_tallies(full)

    def test_light_tracer_does_not_change_plan_choice(self):
        # Any tracer must observe the plan an untraced run executes —
        # rewrite-free scan-only shapes included: the batch executor
        # runs the block's one plan under a timing tracer too.
        db = build_db()
        query = "SELECT r.v AS v FROM r AS r"
        db.execute(query)
        assert db.metrics.last.batched is True
        full, light = ExecTracer(), ExecTracer(timing=False)
        db.execute(query, tracer=full)
        assert db.metrics.last.batched is True
        db.execute(query, tracer=light)
        assert db.metrics.last.batched is True
        assert op_tallies(light), "light tracer saw no plan ops"
        assert op_tallies(full) == op_tallies(light)
        assert op_tallies(full)["Scan r AS r"][1] == 100
        # Streamed, the same block runs the same scan operator (its row
        # form) under either tracer: same tallies, no per-item record.
        for streamed in (ExecTracer(), ExecTracer(timing=False)):
            run(db.execute, query, tracer=streamed, rows=True)
            assert op_tallies(streamed) == op_tallies(full)
            assert streamed.item_stats(db.compile(query).body.from_[0]) is None

    def test_limit_early_termination_tallies_exact(self):
        # LIMIT shapes run on the streaming pipeline; the tally must be
        # the rows that actually flowed, not the full input.
        db = build_db()
        for tracer in (ExecTracer(), ExecTracer(timing=False)):
            rows = db.execute(
                "SELECT r.v AS v FROM r AS r WHERE r.v >= 0 LIMIT 4",
                tracer=tracer,
            )
            assert len(rows) == 4
            tallies = op_tallies(tracer)
            scan = next(v for k, v in tallies.items() if k.startswith("Scan"))
            assert scan[1] == 4, tallies

