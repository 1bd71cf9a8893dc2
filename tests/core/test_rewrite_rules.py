"""The semantic rewrite registry (docs/REWRITER.md).

Per rule: a fire case, no-fire cases sitting exactly at the safety
boundary, and the NULL/MISSING hazards each rule guards against.  Plus
the registry's surfaces: EXPLAIN's ``rewrites:`` line,
``explain_rewrites``, QueryMetrics / Prometheus exposition, and the
lint catalog's ``fixable`` cross-references.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.config import EvalConfig
from repro.core import rewrite_rules
from repro.core.rewrite_rules import apply_rules
from repro.core.rewriter import rewrite_query
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import MISSING, Bag
from repro.syntax.parser import parse
from repro.syntax.printer import print_ast

CUSTOMERS = [
    {"id": 1, "name": "ann"},
    {"id": 2, "name": "bob"},
    {"id": 3, "name": "cat"},
    {"id": None, "name": "nul"},
    {"name": "mis"},  # id MISSING
]
ORDERS = [
    {"cust": 1, "amt": 10},
    {"cust": 1, "amt": 5},
    {"cust": 3, "amt": 7},
    {"cust": None, "amt": 99},
    {"amt": 42},  # cust MISSING
]


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.set("customers", CUSTOMERS)
    db.set("orders", ORDERS)
    return db


def fired_codes(
    query: str, config: EvalConfig = None, catalog_names=("customers", "orders")
):
    """The rewrite codes the registry fires on a query's Core form."""
    config = config if config is not None else EvalConfig()
    core = rewrite_query(parse(query), config, catalog_names=catalog_names)
    rewritten, fired = apply_rules(core, config)
    return rewritten, [result.code for result in fired]


def assert_same_result(db: Database, query: str, **dials) -> None:
    """Results with the registry on must be indistinguishable from the
    oracle's (``optimize=False``, which never rewrites)."""
    on = db.execute(query, **dials)
    off = db.execute(query, optimize=False, **dials)
    if isinstance(on, (list, Bag)):
        assert deep_equals(Bag(list(on)), Bag(list(off)))
    else:
        assert deep_equals(on, off)


EXISTS_QUERY = (
    "SELECT VALUE c.name FROM customers AS c "
    "WHERE EXISTS (SELECT VALUE o FROM orders AS o WHERE o.cust = c.id)"
)


class TestR01ExistsToSemijoin:
    def test_fires_and_preserves_result(self):
        rewritten, codes = fired_codes(EXISTS_QUERY)
        assert codes == ["SQLPPR01"]
        assert "DISTINCT" in print_ast(rewritten)
        db = make_db()
        result = db.execute(EXISTS_QUERY)
        assert deep_equals(Bag(list(result)), Bag(["ann", "cat"]))
        assert_same_result(db, EXISTS_QUERY)

    def test_missing_guard_emitted_without_schema(self):
        rewritten, codes = fired_codes(EXISTS_QUERY)
        assert codes == ["SQLPPR01"]
        assert "IS NOT MISSING" in print_ast(rewritten)

    def test_typeflow_proof_drops_guard(self):
        db = Database()
        db.set("customers", [{"id": 1, "name": "ann"}])
        db.set("orders", [{"cust": 1, "amt": 10}, {"cust": 2, "amt": 5}])
        db.set_schema("orders", "BAG<STRUCT<cust INT, amt INT>>")
        text = db.explain_rewrites(EXISTS_QUERY)
        assert "proved non-MISSING" in text
        assert "IS NOT MISSING" not in text

    def test_multiplicity_preserved_with_duplicate_inner_keys(self):
        # Customer 1 has two orders; the semi-join's DISTINCT must not
        # double the outer row.
        db = make_db()
        rows = db.execute(
            "SELECT VALUE c.id FROM customers AS c WHERE EXISTS "
            "(SELECT VALUE o FROM orders AS o WHERE o.cust = c.id)"
        )
        assert sorted(rows) == [1, 3]

    def test_no_fire_in_strict_mode(self):
        config = EvalConfig(typing_mode="strict", sql_compat=False)
        __, codes = fired_codes(EXISTS_QUERY, config)
        assert codes == []

    def test_no_fire_on_correlated_source(self):
        # The subquery *ranges over* an outer expression: no clean split.
        __, codes = fired_codes(
            "SELECT VALUE c.name FROM customers AS c "
            "WHERE EXISTS (SELECT VALUE o FROM c.orders AS o "
            "WHERE o.cust = c.id)"
        )
        assert codes == []

    def test_no_fire_on_two_correlated_conjuncts(self):
        __, codes = fired_codes(
            "SELECT VALUE c.name FROM customers AS c "
            "WHERE EXISTS (SELECT VALUE o FROM orders AS o "
            "WHERE o.cust = c.id AND o.amt = c.id)"
        )
        assert codes == []

    def test_no_fire_with_inner_limit(self):
        __, codes = fired_codes(
            "SELECT VALUE c.name FROM customers AS c "
            "WHERE EXISTS (SELECT VALUE o FROM orders AS o "
            "WHERE o.cust = c.id LIMIT 1)"
        )
        assert codes == []

    def test_no_fire_under_select_star(self):
        # SELECT * would splice the synthesized join binding into the
        # output.
        __, codes = fired_codes(
            "SELECT * FROM customers AS c "
            "WHERE EXISTS (SELECT VALUE o FROM orders AS o "
            "WHERE o.cust = c.id)"
        )
        assert codes == []

    def test_in_subquery_probe_fires(self):
        query = (
            "SELECT VALUE c.name FROM customers AS c "
            "WHERE c.id IN (SELECT VALUE o.cust FROM orders AS o)"
        )
        __, codes = fired_codes(query)
        assert codes == ["SQLPPR01"]
        db = make_db()
        assert deep_equals(
            Bag(list(db.execute(query))), Bag(["ann", "cat"])
        )
        assert_same_result(db, query)

    def test_not_in_never_fires(self):
        # NOT IN's unknown bookkeeping is not semi-joinable.
        query = (
            "SELECT VALUE c.name FROM customers AS c "
            "WHERE c.id NOT IN (SELECT VALUE o.cust FROM orders AS o)"
        )
        __, codes = fired_codes(query)
        assert codes == []


SCALAR_QUERY = (
    "SELECT c.name AS n, (SELECT SUM(o.amt) FROM orders AS o "
    "WHERE o.cust = c.id) AS total FROM customers AS c"
)


class TestR02DecorrelateScalar:
    def test_fires_and_preserves_result(self):
        __, codes = fired_codes(SCALAR_QUERY)
        assert codes == ["SQLPPR02"]
        db = make_db()
        rows = db.execute(SCALAR_QUERY)
        by_name = {row["n"]: row["total"] for row in rows}
        assert by_name["ann"] == 15
        assert by_name["cat"] == 7
        # Empty group: SUM coerces to NULL — the LEFT join's padding
        # must reproduce it, not MISSING.
        assert by_name["bob"] is None
        assert by_name["nul"] is None
        assert by_name["mis"] is None
        assert_same_result(db, SCALAR_QUERY)

    def test_count_empty_group_is_zero(self):
        query = (
            "SELECT c.name AS n, (SELECT COUNT(o.amt) FROM orders AS o "
            "WHERE o.cust = c.id) AS cnt FROM customers AS c"
        )
        __, codes = fired_codes(query)
        assert codes == ["SQLPPR02"]
        db = make_db()
        by_name = {row["n"]: row["cnt"] for row in db.execute(query)}
        assert by_name == {"ann": 2, "bob": 0, "cat": 1, "nul": 0, "mis": 0}
        assert_same_result(db, query)

    def test_no_fire_in_strict_mode(self):
        config = EvalConfig(typing_mode="strict")
        __, codes = fired_codes(SCALAR_QUERY, config)
        assert codes == []

    def test_no_fire_on_grouped_outer_block(self):
        __, codes = fired_codes(
            "SELECT c.name AS n, (SELECT SUM(o.amt) FROM orders AS o "
            "WHERE o.cust = c.id) AS total FROM customers AS c "
            "GROUP BY c.name"
        )
        assert "SQLPPR02" not in codes

    def test_no_fire_on_uncorrelated_scalar(self):
        __, codes = fired_codes(
            "SELECT c.name AS n, (SELECT SUM(o.amt) FROM orders AS o) "
            "AS total FROM customers AS c"
        )
        assert "SQLPPR02" not in codes

    def test_no_fire_on_scalar_in_a_nested_block(self):
        # The subquery reads the middle block's LET ``c``, which shadows
        # the outer FROM ``c``; decorrelating it against the outer block
        # would join on the wrong variable.
        query = (
            "SELECT VALUE (SELECT VALUE 0 + (SELECT SUM(o.amt) FROM orders "
            "AS o WHERE o.cust = c.id) FROM [{'id': 3}] AS m LET c = m) "
            "FROM customers AS c"
        )
        __, codes = fired_codes(query)
        assert "SQLPPR02" not in codes
        db = make_db()
        assert [list(row) for row in db.execute(query)] == [[7]] * 5
        assert_same_result(db, query)


OR_QUERY = (
    "SELECT VALUE c.name FROM customers AS c "
    "WHERE c.id = 1 OR c.id = 2 OR c.id = 3"
)


class TestR03OrToIn:
    def test_fires_and_preserves_result(self):
        rewritten, codes = fired_codes(OR_QUERY)
        assert codes == ["SQLPPR03"]
        assert "IN [1, 2, 3]" in print_ast(rewritten)
        db = make_db()
        assert deep_equals(
            Bag(list(db.execute(OR_QUERY))), Bag(["ann", "bob", "cat"])
        )
        assert_same_result(db, OR_QUERY)

    def test_fires_in_strict_mode_same_category(self):
        config = EvalConfig(typing_mode="strict")
        __, codes = fired_codes(OR_QUERY, config)
        assert codes == ["SQLPPR03"]

    def test_strict_mode_rejects_mixed_categories(self):
        # 3VL OR evaluates every disjunct; a later mismatched = raises
        # in strict mode where IN's early return would not.
        query = (
            "SELECT VALUE c.name FROM customers AS c "
            "WHERE c.id = 1 OR c.id = 'two' OR c.id = 3"
        )
        __, strict_codes = fired_codes(query, EvalConfig(typing_mode="strict"))
        assert strict_codes == []
        __, permissive_codes = fired_codes(query)
        assert permissive_codes == ["SQLPPR03"]

    def test_no_fire_below_minimum_chain(self):
        __, codes = fired_codes(
            "SELECT VALUE c.name FROM customers AS c "
            "WHERE c.id = 1 OR c.id = 2"
        )
        assert codes == []

    def test_no_fire_on_null_literal(self):
        __, codes = fired_codes(
            "SELECT VALUE c.name FROM customers AS c "
            "WHERE c.id = 1 OR c.id = 2 OR c.id = NULL"
        )
        assert codes == []

    def test_no_fire_on_differing_operands(self):
        __, codes = fired_codes(
            "SELECT VALUE c.name FROM customers AS c "
            "WHERE c.id = 1 OR c.id = 2 OR c.name = 'x'"
        )
        assert codes == []

    def test_absent_operand_rows_dropped_either_way(self):
        # NULL id: OR folds to NULL; MISSING id: IN yields MISSING.
        # Both are not-TRUE, so the rows drop on both paths.
        db = make_db()
        on = db.execute(OR_QUERY)
        off = db.execute(OR_QUERY, optimize=False)
        assert deep_equals(Bag(list(on)), Bag(list(off)))
        assert "nul" not in list(on) and "mis" not in list(on)


CSE_QUERY = (
    "SELECT VALUE [(SELECT VALUE o.amt FROM orders AS o "
    "WHERE o.cust = c.id), (SELECT VALUE o.amt FROM orders AS o "
    "WHERE o.cust = c.id)] FROM customers AS c"
)


class TestR04CseToLet:
    def test_fires_and_preserves_result(self):
        rewritten, codes = fired_codes(CSE_QUERY)
        assert "SQLPPR04" in codes
        assert "LET" in print_ast(rewritten)
        db = make_db()
        assert_same_result(db, CSE_QUERY)

    def test_no_fire_in_strict_mode(self):
        config = EvalConfig(typing_mode="strict")
        __, codes = fired_codes(CSE_QUERY, config)
        assert "SQLPPR04" not in codes

    def test_no_fire_when_single_occurrence(self):
        __, codes = fired_codes(
            "SELECT VALUE (SELECT VALUE o.amt FROM orders AS o "
            "WHERE o.cust = c.id) FROM customers AS c"
        )
        assert "SQLPPR04" not in codes

    def test_no_fire_select_only_past_selective_where(self):
        # Both occurrences sit in the SELECT and a WHERE exists: the
        # LET would evaluate the subquery for rows the WHERE discards.
        __, codes = fired_codes(
            "SELECT VALUE [(SELECT VALUE o.amt FROM orders AS o "
            "WHERE o.cust = c.id), (SELECT VALUE o.amt FROM orders AS o "
            "WHERE o.cust = c.id)] FROM customers AS c WHERE c.id = 1"
        )
        assert "SQLPPR04" not in codes

    def test_no_fire_when_occurrences_conditional(self):
        # Occurrences under CASE branches may never evaluate; hoisting
        # would force them.
        __, codes = fired_codes(
            "SELECT VALUE (CASE WHEN c.id = 1 THEN (SELECT VALUE o.amt "
            "FROM orders AS o) ELSE (SELECT VALUE o.amt FROM orders AS o) "
            "END) FROM customers AS c"
        )
        assert "SQLPPR04" not in codes


class TestRegistrySurfaces:
    def test_disabled_registry_fires_nothing(self):
        config = EvalConfig(optimize=False)
        core = rewrite_query(
            parse(OR_QUERY), config, catalog_names=("customers",)
        )
        rewritten, fired = apply_rules(core, config)
        assert rewritten is core
        assert fired == ()

    def test_optimize_off_implies_no_rewrites(self):
        db = make_db(optimize=False)
        db.execute(OR_QUERY)
        assert db.metrics.last.rewrites == []
        assert "rewrites: none" in db.explain_plan(OR_QUERY)

    def test_explain_plan_reports_firings(self):
        db = make_db()
        text = db.explain_plan(EXISTS_QUERY)
        assert "rewrites: SQLPPR01 exists-to-semijoin x1" in text

    def test_explain_plan_reports_none(self):
        db = make_db()
        text = db.explain_plan("SELECT VALUE c.id FROM customers AS c")
        assert "rewrites: none" in text

    def test_explain_analyze_reports_firings(self):
        db = make_db()
        text = db.explain_analyze(EXISTS_QUERY)
        assert "rewrites: SQLPPR01 exists-to-semijoin x1" in text

    def test_explain_rewrites_shows_pre_post_and_safety(self):
        db = make_db()
        text = db.explain_rewrites(EXISTS_QUERY)
        assert text.startswith("pre:  ")
        assert "post: " in text
        assert "SQLPPR01 exists-to-semijoin:" in text
        assert "  - " in text  # at least one safety condition

    def test_explain_rewrites_none_applicable(self):
        db = make_db()
        text = db.explain_rewrites("SELECT VALUE c.id FROM customers AS c")
        assert "rewrites: none applicable" in text

    def test_explain_rewrites_disabled(self):
        db = make_db(optimize=False)
        text = db.explain_rewrites(OR_QUERY)
        assert "rewrites: disabled (optimize off)" in text

    def test_metrics_record_rewrites(self):
        db = make_db()
        db.execute(OR_QUERY)
        assert db.metrics.last.rewrites == ["SQLPPR03"]
        assert db.metrics.last.to_dict()["rewrites"] == ["SQLPPR03"]

    def test_metrics_filled_on_cache_hit(self):
        db = make_db()
        db.execute(OR_QUERY)
        db.execute(OR_QUERY)
        assert db.metrics.last.cache_hit
        assert db.metrics.last.rewrites == ["SQLPPR03"]

    def test_prometheus_family(self):
        db = make_db()
        db.execute(OR_QUERY)
        db.execute(OR_QUERY)
        text = db.metrics.expose_text()
        assert 'repro_rewrites_fired_total{rule="SQLPPR03"} 2' in text
        # Not duplicated by the ad-hoc counter fallback.
        assert "repro_rewrites_fired:" not in text

    def test_describe_rules_lists_every_rule(self):
        text = rewrite_rules.describe_rules()
        for rule in rewrite_rules.RULES:
            assert rule.code in text
            assert rule.lint_code in text

    def test_fingerprint_taken_pre_rewrite(self):
        # The query-store fingerprint must survive registry upgrades:
        # the same text fingerprints identically on the engine, which
        # rewrites, and on the oracle, which does not.
        db = make_db()
        db.execute(OR_QUERY)
        on = db.metrics.last.fingerprint
        db.execute(OR_QUERY, optimize=False)
        off = db.metrics.last.fingerprint
        assert on is not None and on == off


class TestLintIntegration:
    def test_lint_codes_cross_reference_registry(self):
        from repro.analysis.rules import RULES as LINT_RULES

        for rule in rewrite_rules.RULES:
            lint_rule = LINT_RULES[rule.lint_code]
            assert lint_rule.fixable == rule.code
            assert lint_rule.severity == "info"

    def test_check_reports_fixable_rewrite(self):
        db = make_db()
        findings = db.check(OR_QUERY)
        by_code = {d.code: d for d in findings}
        assert "SQLPP110" in by_code
        assert by_code["SQLPP110"].fixable == "SQLPPR03"
        assert by_code["SQLPP110"].to_dict()["fixable"] == "SQLPPR03"

    def test_check_reports_exists_rewrite(self):
        db = make_db()
        findings = db.check(EXISTS_QUERY)
        assert any(
            d.code == "SQLPP111" and d.fixable == "SQLPPR01"
            for d in findings
        )


class TestSynthesizedSpans:
    """Every node a rule synthesizes must carry a source span pointing
    at the user's sugar, so SQLPP11x findings, verifier reports, and
    runtime errors over rewritten trees stay attributable.  Pinned both
    directly (walking the rewritten tree) and through the structural
    verifier's span check (docs/ANALYZER.md)."""

    FIRING_QUERIES = {
        "SQLPPR01": EXISTS_QUERY,
        "SQLPPR02": SCALAR_QUERY,
        "SQLPPR03": OR_QUERY,
        "SQLPPR04": CSE_QUERY,
    }

    @pytest.mark.parametrize("code", sorted(FIRING_QUERIES))
    def test_every_synthesized_node_is_stamped(self, code):
        config = EvalConfig()
        core = rewrite_query(
            parse(self.FIRING_QUERIES[code]),
            config,
            catalog_names=("customers", "orders"),
        )
        rewritten, fired = apply_rules(core, config)
        assert code in [result.code for result in fired]
        original = {id(node) for node in core.walk()}
        unstamped = [
            node
            for node in rewritten.walk()
            if id(node) not in original and node.line is None
        ]
        assert unstamped == []

    @pytest.mark.parametrize("code", sorted(FIRING_QUERIES))
    def test_verifier_accepts_rewrite_output(self, code):
        from repro.analysis.verify_plan import verify_rewrite

        config = EvalConfig()
        core = rewrite_query(
            parse(self.FIRING_QUERIES[code]),
            config,
            catalog_names=("customers", "orders"),
        )
        rewritten, fired = apply_rules(core, config)
        assert verify_rewrite(
            core, rewritten, fired, ["customers", "orders"]
        ) == []

    def test_spans_point_at_the_sugar(self):
        # The EXISTS conjunct starts after "WHERE " on the query's one
        # line; the synthesized semi-join subtree must carry its span.
        config = EvalConfig()
        core = rewrite_query(
            parse(EXISTS_QUERY),
            config,
            catalog_names=("customers", "orders"),
        )
        where = core.body.where
        rewritten, fired = apply_rules(core, config)
        assert fired and fired[0].line == where.line
        original = {id(node) for node in core.walk()}
        synthesized = [
            node
            for node in rewritten.walk()
            if id(node) not in original and node.line is not None
        ]
        assert synthesized
        assert {node.line for node in synthesized} <= {
            node.line for node in core.walk() if node.line is not None
        }


SEMI_CAPTURE_QUERY = (
    "SELECT VALUE 1 FROM u AS {x} WHERE EXISTS "
    "(SELECT VALUE 1 FROM o AS o WHERE o.uid = {x}.id AND o.q = 8)"
)


class TestGeneratedNames:
    """The registry's generated names avoid every name in the query:
    an outer alias spelled ``$semi1`` must not be captured by the
    semi-join alias SQLPPR01 introduces."""

    @pytest.fixture
    def uo_db(self) -> Database:
        db = Database()
        db.set("u", [{"id": 1}, {"id": 2}])
        db.set("o", [{"uid": 1, "q": 8}, {"uid": 2, "q": 3}])
        return db

    @pytest.mark.parametrize("optimize", [True, False])
    def test_outer_alias_spelled_like_semijoin_alias(self, uo_db, optimize):
        plain = uo_db.execute(SEMI_CAPTURE_QUERY.format(x="x"), optimize=optimize)
        renamed = uo_db.execute(
            SEMI_CAPTURE_QUERY.format(x="$semi1"), optimize=optimize
        )
        assert list(plain) == [1]
        assert list(renamed) == list(plain)

    def test_semijoin_alias_skips_the_taken_name(self, uo_db):
        text = uo_db.explain_rewrites(SEMI_CAPTURE_QUERY.format(x="$semi1"))
        assert "SQLPPR01" in text
        assert "AS $semi2 ON ($semi1.id = $semi2)" in text

    def test_numbering_unchanged_without_collision(self, uo_db):
        text = uo_db.explain_rewrites(SEMI_CAPTURE_QUERY.format(x="x"))
        assert "AS $semi1 ON (x.id = $semi1)" in text
