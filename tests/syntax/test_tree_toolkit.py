"""The shared Core-tree toolkit: top-down rewrite, pruned walk and the
scope helpers every compile pass uses instead of its own copy."""

from repro.core.clauses import FreshNames, block_vars, bound_names, item_vars
from repro.syntax import ast
from repro.syntax.parser import parse, parse_expression


class TestRewrite:
    def test_returns_the_same_object_when_nothing_changes(self):
        query = parse(
            "SELECT VALUE CASE WHEN a.x > 1 THEN [a.y, {'k': a.z}] END "
            "FROM t AS a LET b = a.x WHERE b IN (SELECT VALUE c FROM u AS c)"
        )
        assert query.rewrite(lambda node: None) is query

    def test_visits_fields_in_declaration_order(self):
        query = parse(
            "SELECT VALUE f(p, q) FROM t AS a, u AS b LET l = r "
            "WHERE w GROUP BY g AS k HAVING h"
        )
        seen = []

        def record(node):
            if isinstance(node, ast.VarRef):
                seen.append(node.name)
            return None

        query.rewrite(record)
        # QueryBlock fields: select, from_, lets, where, group_by, having.
        assert seen == ["p", "q", "t", "u", "r", "w", "g", "h"]

    def test_replacement_is_not_descended_and_siblings_are_shared(self):
        expr = parse_expression("f(a + 1) + (b * c)")
        calls = []

        def replace(node):
            if isinstance(node, ast.FunctionCall):
                calls.append(node)
                return ast.Literal(value=0)
            if isinstance(node, ast.Literal):
                raise AssertionError("descended into a replaced subtree")
            return None

        rewritten = expr.rewrite(replace)
        assert len(calls) == 1
        assert rewritten.left == ast.Literal(value=0)
        assert rewritten.right is expr.right

    def test_rebuilds_tuples_inside_lists(self):
        expr = parse_expression("CASE WHEN a THEN b ELSE c END")

        def rename(node):
            if isinstance(node, ast.VarRef) and node.name == "b":
                return ast.VarRef(name="z")
            return None

        rewritten = expr.rewrite(rename)
        assert rewritten.whens[0][1] == ast.VarRef(name="z")
        assert rewritten.whens[0][0] is expr.whens[0][0]
        assert expr.whens[0][1] == ast.VarRef(name="b")

    def test_map_children_passes_the_field_name(self):
        expr = parse_expression("x BETWEEN lo AND hi")
        fields = []

        def record(child, field):
            fields.append(field)
            return child

        assert expr.map_children(record) is expr
        assert fields == ["operand", "low", "high"]


class TestPrunedWalk:
    def test_prune_stops_descent_but_yields_the_node(self):
        expr = parse_expression("a + (SELECT VALUE b FROM t AS c)")
        names = [
            node.name
            for node in expr.walk(ast.is_subquery)
            if isinstance(node, ast.VarRef)
        ]
        assert names == ["a"]
        assert any(isinstance(node, ast.SubqueryExpr) for node in expr.walk(ast.is_subquery))

    def test_unpruned_walk_enters_subqueries(self):
        expr = parse_expression("a + (SELECT VALUE b FROM t AS c)")
        names = [node.name for node in expr.walk() if isinstance(node, ast.VarRef)]
        assert names == ["a", "b", "t"]

    def test_pruned_root_yields_only_itself(self):
        expr = parse_expression("CASE WHEN a THEN b END")
        assert list(expr.walk(lambda node: isinstance(node, ast.CaseExpr))) == [expr]


class TestScopeHelpers:
    def test_bound_names_cover_every_binder(self):
        query = parse(
            "SELECT VALUE 1 FROM t AS a AT i, UNPIVOT a AS v AT n "
            "LET l = a.x GROUP BY a.y AS k GROUP AS g"
        )
        assert bound_names(query) == {"a", "i", "v", "n", "l", "k", "g"}

    def test_bound_names_include_nested_blocks_but_not_free_names(self):
        query = parse(
            "SELECT VALUE (SELECT VALUE z FROM s AS inner_var) FROM t AS a"
        )
        assert bound_names(query) == {"a", "inner_var"}

    def test_bound_names_see_join_arms(self):
        query = parse("SELECT VALUE 1 FROM t AS a JOIN u AS b AT j ON a.k = b.k")
        assert bound_names(query) == {"a", "b", "j"}

    def test_block_vars_are_from_then_let_in_binding_order(self):
        block = parse("SELECT VALUE 1 FROM t AS a AT i, a.xs AS x LET l = 1").body
        assert block_vars(block) == ["a", "i", "x", "l"]

    def test_item_vars_without_at(self):
        item = parse("SELECT VALUE 1 FROM UNPIVOT t AS v AT n").body.from_[0]
        assert item_vars(item) == ["v", "n"]
        assert item_vars(item, at=False) == ["v"]


class TestFreshNames:
    def test_numbering_is_one_counter_across_bases(self):
        fresh = FreshNames(parse("SELECT VALUE x FROM t AS x"))
        assert [fresh("$group"), fresh("$g_elem"), fresh("$semi")] == [
            "$group1",
            "$g_elem2",
            "$semi3",
        ]

    def test_names_the_query_uses_are_skipped(self):
        fresh = FreshNames(parse("SELECT VALUE $g_elem2 FROM t AS $group1"))
        assert [fresh("$group"), fresh("$g_elem")] == ["$group2", "$g_elem3"]
