"""Cardinality feedback (docs/OBSERVABILITY.md "Query store &
cardinality feedback"): observed scan/join actuals recorded as
:class:`~repro.catalog.statistics.FeedbackHints` override the sampled
estimates on the next planning of the same shape — so a join order
chosen from a misestimate corrects itself on the second execution.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.catalog.statistics import FeedbackHints
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag

#: The statistics sampler reads the first 1024 rows.  Making those
#: distinct on ``k`` while the tail is constant (-1) gives the planner
#: an estimate of ~1 row for ``a.k = -1`` when the truth is 3976.
A_ROWS = [
    {"k": i if i < 1024 else -1, "bid": i % 600, "v": i} for i in range(5000)
]
B_ROWS = [{"id": i, "name": f"b{i}"} for i in range(600)]

FLIP_QUERY = (
    "SELECT a.v AS v, b.name AS name FROM a AS a "
    "JOIN b AS b ON a.bid = b.id WHERE a.k = -1"
)


def build_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.set("a", A_ROWS)
    db.set("b", B_ROWS)
    return db


class TestJoinOrderFlip:
    def test_second_execution_corrects_join_order(self):
        db = build_db()
        # Before any execution: the sample says the filtered scan of
        # ``a`` yields ~1 row, so the greedy order builds on ``b``.
        before = db.explain_plan(FLIP_QUERY)
        assert "order: b ⋈ a (syntactic: a ⋈ b)" in before, before

        first = db.execute(FLIP_QUERY)
        assert len(first) == 3976

        # The sampled feedback run recorded the scan's actual 3976 rows;
        # the next planning prefers the hint and flips the build side.
        after = db.explain_plan(FLIP_QUERY)
        assert "order: a ⋈ b (syntactic)" in after, after

        second = db.execute(FLIP_QUERY)
        assert deep_equals(Bag(list(first)), Bag(list(second)))

    def test_flip_is_recorded_as_plan_change(self):
        db = build_db()
        db.execute(FLIP_QUERY)
        db.execute(FLIP_QUERY)
        store = db.query_store()
        entry = store.entry(db.metrics.last.fingerprint)
        assert entry.plan_changes == 1
        assert len(entry.plan_hashes) == 2
        assert any(e["event"] == "plan-change" for e in store.events())

    def test_data_change_invalidates_hints(self):
        db = build_db()
        db.execute(FLIP_QUERY)
        assert "order: a ⋈ b" in db.explain_plan(FLIP_QUERY)
        join_key = next(key for key in db._stats.feedback._rows if "join" in key)
        assert db._stats.feedback_rows("scan|b|") == 600.0
        # Replacing ``a`` starts a new epoch of ``a``: the actuals
        # observed over it (its scan, the join) are stale and planning
        # falls back to fresh sampled estimates — the hint over ``b``
        # alone is as good as it was.
        db.set("a", [{"k": i, "bid": i % 600, "v": i} for i in range(5000)])
        assert db._stats.feedback_rows("scan|a|(a.k = -1)") is None
        assert db._stats.feedback_rows(join_key) is None
        assert db._stats.feedback_rows("scan|b|") == 600.0

    def test_small_append_keeps_hints_and_a_large_one_drops_them(self):
        db = build_db()
        db.execute(FLIP_QUERY)
        db.insert("a", [{"k": -1, "bid": 1, "v": -1}] * 400)  # +8 %
        assert db._stats.feedback_rows("scan|a|(a.k = -1)") == 3976.0
        db.insert("a", [{"k": -1, "bid": 1, "v": -1}] * 200)  # +12 % in all
        assert db._stats.feedback_rows("scan|a|(a.k = -1)") is None

    def test_feedback_skipped_under_limit(self):
        # A LIMIT-truncated run must not poison the hints with partial
        # counts.
        db = build_db()
        db.execute(FLIP_QUERY + " LIMIT 5")
        assert db._stats.feedback_rows("scan|a|(a.k = -1)") is None

    def test_store_disabled_means_no_feedback(self):
        db = build_db(query_store=False)
        db.execute(FLIP_QUERY)
        assert "order: b ⋈ a" in db.explain_plan(FLIP_QUERY)


class TestFeedbackHints:
    """Hints carry the stamp they were observed under — here any
    comparable value; :class:`StatsProvider` passes the epochs of the
    collections the shape reads and judges staleness."""

    def test_record_and_lookup(self):
        hints = FeedbackHints()
        assert hints.record("scan|a|f", 100.0, stamp=(("a", 1),))
        assert hints.get("scan|a|f") == (100.0, (("a", 1),))
        assert hints.get("scan|a|other") is None

    def test_tolerance_suppresses_noise(self):
        hints = FeedbackHints()
        assert hints.record("k", 100.0, stamp=1)
        version = hints.version
        # Within 10%: stored, but no plan-relevant version bump.
        assert not hints.record("k", 105.0, stamp=1)
        assert hints.version == version
        assert hints.get("k") == (105.0, 1)
        # Beyond 10%: replan.
        assert hints.record("k", 200.0, stamp=1)
        assert hints.version > version

    def test_observation_under_a_new_stamp_counts_as_new(self):
        hints = FeedbackHints()
        hints.record("k", 100.0, stamp=1)
        hints.record("other", 5.0, stamp=1)
        version = hints.version
        # Same rows, but the collection entered a new epoch since: the
        # plans built without the (stale) hint must see this one.
        assert hints.record("k", 100.0, stamp=2)
        assert hints.version > version
        assert hints.get("k") == (100.0, 2)
        assert hints.get("other") == (5.0, 1)

    def test_first_observation_is_judged_against_the_plans_estimate(self):
        hints = FeedbackHints()
        # Nothing known and nothing estimated (a lateral operator): news.
        assert hints.record("lateral", 600.0, stamp=1)
        # The plan estimated 100 and 104 arrived: stored, not news ...
        version = hints.version
        assert not hints.record("scan", 104.0, stamp=1, expected=100.0)
        assert hints.get("scan") == (104.0, 1) and hints.version == version
        # ... 3976 where 1 was estimated is.
        assert hints.record("flip", 3976.0, stamp=1, expected=1.0)
        # Once there is a hint, it is what plans assume, not the estimate.
        assert not hints.record("flip", 4000.0, stamp=1, expected=1.0)

    def test_bounded_retention(self):
        hints = FeedbackHints()
        for i in range(FeedbackHints.MAX_HINTS + 10):
            hints.record(f"k{i}", float(i + 1), stamp=1)
        assert len(hints) == FeedbackHints.MAX_HINTS
        assert hints.get("k0") is None
        last = FeedbackHints.MAX_HINTS + 9
        assert hints.get(f"k{last}") == (float(last + 1), 1)


class TestProviderFeedback:
    def test_feedback_version_bumps_invalidate_plan_cache(self):
        # Cached plans are stamped with the hint version of each
        # collection they read; a fresh hint must replan exactly once.
        db = build_db()
        version = db._stats.feedback_version
        db.execute(FLIP_QUERY)
        assert db._stats.feedback_version > version
        db.execute(FLIP_QUERY)
        assert db.metrics.counters["plans_rebuilt"] == 1
        db.execute(FLIP_QUERY)
        assert db.metrics.counters["plans_rebuilt"] == 1

    def test_second_execution_not_retraced(self):
        db = build_db()
        db.set("c", B_ROWS)
        store = db.query_store()
        db.execute(FLIP_QUERY)
        fingerprint = db.metrics.last.fingerprint
        assert not store.wants_feedback(fingerprint, db._stats)
        # Neither another collection's replacement nor a sub-tolerance
        # append to one it reads re-arms the trace ...
        db.set("c", B_ROWS[:10])
        db.insert("b", [{"id": 600, "name": "b600"}])
        assert not store.wants_feedback(fingerprint, db._stats)
        # ... a replacement of one it reads does.
        db.set("b", B_ROWS + [{"id": 600, "name": "b600"}])
        assert store.wants_feedback(fingerprint, db._stats)


class TestLateralFeedback:
    """The lateral operator has no model estimate (the catalog keeps no
    per-binding statistics); the feedback-sampled first run pins one."""

    QUERY = (
        "SELECT o.id AS id, i AS i FROM o AS o, o.items AS i "
        "WHERE o.k = 1 AND i > 1"
    )

    @staticmethod
    def build_db(**kwargs) -> Database:
        db = Database(**kwargs)
        db.set(
            "o", [{"id": n, "k": n % 2, "items": [1, 2, 3]} for n in range(600)]
        )
        return db

    @staticmethod
    def lateral_line(report: str) -> str:
        return next(
            line for line in report.splitlines() if "Lateral[INNER]" in line
        )

    def test_estimate_comes_from_the_observed_run(self):
        from repro.core.plan_ops import LateralJoinOp

        db = self.build_db()
        assert "est=? actual=600" in self.lateral_line(db.explain_analyze(self.QUERY))
        version = db._stats.feedback_version
        db.execute(self.QUERY)  # the feedback-sampled run
        assert db._stats.feedback_version > version
        assert "est=600 actual=600 q-err=1.00" in self.lateral_line(
            db.explain_analyze(self.QUERY)
        )
        evaluator = next(iter(db._evaluators.values()))
        plan = evaluator.block_plans(db.compile(self.QUERY))[0]
        assert isinstance(plan.op, LateralJoinOp)
        assert plan.op.est_source == "feedback"
        assert db.verify_plan(self.QUERY) == []
        # Exactly one replan: the next runs neither re-trace nor re-hint.
        version = db._stats.feedback_version
        db.execute(self.QUERY)
        db.execute(self.QUERY)
        assert db._stats.feedback_version == version

    def test_hint_is_keyed_by_the_feeding_shape(self):
        db = self.build_db()
        db.execute(self.QUERY)
        other = self.QUERY.replace("o.k = 1", "o.k = 0")
        assert "est=? actual=600" in self.lateral_line(db.explain_analyze(other))

    def test_no_store_no_estimate(self):
        db = self.build_db(query_store=False)
        db.execute(self.QUERY)
        assert "est=? actual=" in self.lateral_line(db.explain_analyze(self.QUERY))
