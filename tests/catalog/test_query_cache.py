"""The Database LRU parse+rewrite cache.

Repeated query texts must reuse the compiled Core AST; any change the
rewriter can observe — either language dial, the set of catalog names,
or a schema — must miss; the cache stays bounded.
"""

from __future__ import annotations

from repro import Database
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag
from tests.rows_mode import rows_mode


QUERY = "SELECT r.v AS v FROM t AS r WHERE r.v > 1"


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.set("t", [{"v": 1}, {"v": 2}, {"v": 3}])
    return db


class TestCompileCache:
    def test_repeat_compile_returns_same_ast_object(self):
        db = make_db()
        assert db.compile(QUERY) is db.compile(QUERY)

    def test_cached_execution_still_correct(self):
        db = make_db()
        first = db.execute(QUERY)
        second = db.execute(QUERY)
        assert deep_equals(Bag(list(first)), Bag(list(second)))
        assert len(second) == 2

    def test_language_dials_cached_separately(self):
        db = make_db()
        compat = db.compile("SELECT r.v FROM t AS r")
        core = db.compile("SELECT r.v FROM t AS r", sql_compat=False)
        assert compat is not core
        strict = db.compile(QUERY, typing_mode="strict")
        assert strict is not db.compile(QUERY)

    def test_catalog_name_set_change_invalidates(self):
        db = make_db()
        before = db.compile(QUERY)
        # Replacing an existing name keeps the name set: still a hit.
        db.set("t", [{"v": 9}])
        assert db.compile(QUERY) is before
        # A new name changes what dotted-name resolution can see: miss.
        db.set("u", [])
        after = db.compile(QUERY)
        assert after is not before
        # Rewriting is deterministic, so recompiling is harmless.
        assert len(db.execute(QUERY)) == 1

    def test_drop_invalidates(self):
        db = make_db()
        db.set("u", [])
        before = db.compile(QUERY)
        db.drop("u")
        assert db.compile(QUERY) is not before

    def test_schema_change_invalidates(self):
        db = make_db()
        before = db.compile(QUERY)
        db.set_schema("t", "BAG<STRUCT<v INT>>")
        assert db.compile(QUERY) is not before

    def test_cache_is_bounded(self):
        db = make_db()
        for index in range(db.COMPILE_CACHE_SIZE + 10):
            db.compile(f"SELECT VALUE {index}")
        assert len(db._compile_cache) <= db.COMPILE_CACHE_SIZE

    def test_lru_evicts_oldest_not_hottest(self):
        db = make_db()
        hot = db.compile(QUERY)
        for index in range(db.COMPILE_CACHE_SIZE - 1):
            db.compile(f"SELECT VALUE {index}")
            db.compile(QUERY)  # keep the hot entry recent
        assert db.compile(QUERY) is hot


REWRITABLE = (
    "SELECT r.v AS v FROM t AS r WHERE r.v = 1 OR r.v = 2 OR r.v = 3"
)


class TestRewriteCacheKey:
    """The semantic rewrite registry participates in the cache key:
    bumping ``REGISTRY_VERSION`` invalidates cached rewritten queries
    exactly once, and the oracle (``optimize=False``, which never
    rewrites) compiles into its own entry rather than poisoning (or
    being poisoned by) the default."""

    def test_registry_version_bump_invalidates_exactly_once(
        self, monkeypatch
    ):
        from repro.core import rewrite_rules

        db = make_db()
        db.execute(REWRITABLE)
        before = db.compile(REWRITABLE)
        monkeypatch.setattr(
            rewrite_rules, "REGISTRY_VERSION", rewrite_rules.REGISTRY_VERSION + 1
        )
        misses = db.metrics.counters["compile_cache_misses"]
        after = db.compile(REWRITABLE)
        assert after is not before
        # Exactly one miss for the bump; the recompiled entry is a hit
        # thereafter.
        assert (
            db.metrics.counters["compile_cache_misses"] == misses + 1
        )
        assert db.compile(REWRITABLE) is after
        assert (
            db.metrics.counters["compile_cache_misses"] == misses + 1
        )

    def test_per_query_rewrite_disable_is_a_distinct_entry(self):
        db = make_db()
        on = db.execute(REWRITABLE)
        misses = db.metrics.counters["compile_cache_misses"]
        off = db.execute(REWRITABLE, optimize=False)
        assert db.metrics.counters["compile_cache_misses"] == misses + 1
        # Both now hit their own entries.
        db.execute(REWRITABLE)
        db.execute(REWRITABLE, optimize=False)
        assert db.metrics.counters["compile_cache_misses"] == misses + 1
        from repro.datamodel.equality import deep_equals as eq

        assert eq(Bag(list(on)), Bag(list(off)))

    def test_registry_version_ignored_when_rewrites_off(self, monkeypatch):
        from repro.core import rewrite_rules

        db = make_db(optimize=False)
        before = db.compile(REWRITABLE)
        monkeypatch.setattr(rewrite_rules, "REGISTRY_VERSION", 99)
        # With the registry off the version cannot affect the compiled
        # Core, so the cached entry must survive the bump.
        assert db.compile(REWRITABLE) is before

    def test_schema_change_invalidates_exactly_once(self):
        db = make_db()
        db.execute(REWRITABLE)
        before = db.compile(REWRITABLE)
        db.set_schema("t", "BAG<STRUCT<v INT>>")
        misses = db.metrics.counters["compile_cache_misses"]
        after = db.compile(REWRITABLE)
        assert after is not before
        assert db.compile(REWRITABLE) is after
        db.execute(REWRITABLE)
        assert db.metrics.counters["compile_cache_misses"] == misses + 1


class TestEvaluatorCachesFollowTheCompileCache:
    """The memoised evaluator's per-node caches (closures, kernels,
    plans, reorder flags, each block's compiled clauses) have
    one lifetime rule: exactly as long as the query's compile-cache
    entry."""

    @staticmethod
    def text(index: int) -> str:
        return (
            f"SELECT r.v AS v, COUNT(*) AS n FROM t AS r WHERE r.v > {index} "
            "GROUP BY r.v"
        )

    def test_evicted_queries_take_their_derived_state_along(self):
        # Columns mode and rows mode, each on a database of its own.
        size = Database.COMPILE_CACHE_SIZE
        for rows in (False, True):
            db = make_db(query_store=False)
            with rows_mode(rows):
                for index in range(4 * size):
                    db.execute(self.text(index))
            assert len(db._compile_cache) == size
            live = {id(compiled.core) for compiled in db._compile_cache.values()}
            (evaluator,) = db._evaluators.values()
            scopes = evaluator._scopes
            assert set(scopes) <= live
            assert len(scopes) == size
            for name in (
                "compiled", "batch_compiled", "plans", "block_kernels",
                "reorder_flags",
            ):
                entries = sum(len(getattr(caches, name)) for caches in scopes.values())
                # A handful of nodes per query, none from evicted ones.
                assert entries <= 16 * size, (name, rows, entries)
            blocks = sum(len(caches.plans) for caches in scopes.values())
            assert blocks <= 2 * size  # the block and its COUNT subquery

    def test_an_evicted_text_recompiles_and_reruns(self):
        db = make_db(query_store=False)
        first = db.execute(self.text(0))
        for index in range(1, Database.COMPILE_CACHE_SIZE + 2):
            db.execute(self.text(index))
        (evaluator,) = db._evaluators.values()
        assert len(evaluator._scopes) == Database.COMPILE_CACHE_SIZE
        again = db.execute(self.text(0))
        assert deep_equals(Bag(list(first)), Bag(list(again)))


def count_calls(monkeypatch, owner, name):
    """Wrap the real ``owner.name`` so every call's result is recorded."""
    results = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(owner, name, counting)
    return results


NESTED = (
    "SELECT r.v AS v, (SELECT VALUE s.v FROM t AS s WHERE s.v = r.v) AS same "
    "FROM t AS r WHERE r.v > 100"
)


class TestDeriveOnce:
    """Every per-query artefact is derived by one function, once, and
    read by every surface: one plan per block per (evaluator, data
    version, feedback version), one fingerprint per compile-cache entry,
    one effective config per ``execute``."""

    def surfaces(self, db, query):
        db.explain_plan(query)
        db.explain_analyze(query)
        assert db.verify_plan(query) == []
        db.execute(query)

    def test_one_plan_per_block_across_surfaces(self, monkeypatch):
        from repro.core import planner

        plans = count_calls(monkeypatch, planner, "plan_block")
        db = make_db(query_store=False)
        db.execute(QUERY)
        assert len(plans) == 1 and plans[0] is not None
        self.surfaces(db, QUERY)
        assert len(plans) == 1
        # A data change is a new plan version: exactly one replan, no
        # matter which surface asks first.
        db.set("t", [{"v": 5}])
        assert "Scan t AS r" in db.explain_plan(QUERY)
        assert len(plans) == 2
        self.surfaces(db, QUERY)
        assert len(plans) == 2

    def test_feedback_replans_once_then_every_surface_reads_it(
        self, monkeypatch
    ):
        from repro.core import planner

        plans = count_calls(monkeypatch, planner, "plan_block")
        db = make_db()
        db.execute(QUERY)  # feedback-sampled: records actual cardinalities
        db.execute(QUERY)  # the exactly-one replan
        settled = len(plans)
        assert settled == 2
        self.surfaces(db, QUERY)
        assert len(plans) == settled

    def test_verify_plan_plans_only_blocks_no_execution_reached(
        self, monkeypatch
    ):
        from repro.core import planner

        plans = count_calls(monkeypatch, planner, "plan_block")
        db = make_db(query_store=False)
        # No row passes the WHERE, so the per-row subquery never runs.
        assert len(db.execute(NESTED)) == 0
        assert len(plans) == 1
        assert db.verify_plan(NESTED) == []
        assert len(plans) == 2  # the nested block, planned once
        assert db.verify_plan(NESTED) == []
        self.surfaces(db, NESTED)
        assert len(plans) == 2
        assert all(plan is not None for plan in plans)

    def test_evaluators_are_only_built_by_the_memo(self, monkeypatch):
        from repro.catalog import database

        built = count_calls(monkeypatch, database, "Evaluator")
        db = make_db()
        db.execute(QUERY)
        self.surfaces(db, QUERY)
        db.explain_rewrites(QUERY)
        assert len(built) == 1

    def test_fingerprint_once_per_cache_entry(self, monkeypatch):
        from repro.catalog import database

        prints = count_calls(monkeypatch, database, "query_fingerprint")
        db = make_db()
        db.compile(QUERY)
        db.explain(QUERY)
        db.explain_plan(QUERY)
        db.explain_rewrites(QUERY)
        db.verify_plan(QUERY)
        assert prints == []  # nothing executed, nothing fingerprinted
        for __ in range(3):
            db.execute(QUERY)
        db.explain_analyze(QUERY)
        assert len(prints) == 1
        assert db.metrics.last.fingerprint == prints[0]
        # A new cache entry (different dial) is a new fingerprint.
        db.execute(QUERY, typing_mode="strict")
        db.execute(QUERY, typing_mode="strict")
        assert len(prints) == 2
        # With the store off nothing is ever fingerprinted.
        quiet = make_db(query_store=False)
        quiet.execute(QUERY)
        assert len(prints) == 2

    def test_effective_config_once_per_execute(self, monkeypatch):
        configs = count_calls(monkeypatch, Database, "_effective_config")
        db = make_db()
        db.execute(QUERY)
        assert len(configs) == 1
        db.execute(QUERY, max_rows=100, timeout_s=5.0)
        assert len(configs) == 2
        db.explain_analyze(QUERY)
        assert len(configs) == 3

    def test_cold_kit_pass_plans_each_block_once(self, monkeypatch):
        from repro import errors
        from repro.compat.corpus import all_cases
        from repro.compat.runner import build_database
        from repro.core import planner

        planned = []  # (block, plan): the block kept alive, so ids stay unique
        original = planner.plan_block

        def recording(block, *args, **kwargs):
            plan = original(block, *args, **kwargs)
            planned.append((block, plan))
            return plan

        monkeypatch.setattr(planner, "plan_block", recording)
        for case in all_cases():
            try:
                build_database(case).execute(case.query)
            except errors.SQLPPError:
                assert case.expect_error
        # Every block with a FROM clause that a case reaches, in either
        # typing mode, is planned exactly once.  A per-group aggregate
        # subquery the GROUP BY fold decomposes, or a subquery kernel
        # over the group evaluates, is never reached.
        assert len(planned) == 63
        assert len({id(block) for block, __ in planned}) == len(planned)
        assert all(
            block.from_ is not None and plan is not None for block, plan in planned
        )
