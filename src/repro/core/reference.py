"""The reference interpreter: SQL++ Core semantics, executed literally.

``optimize=False`` runs this module and nothing else.  A query block is
the paper's pipeline of clause functions (Section V-B — "Each clause is
a function that inputs data and outputs data"), each applied eagerly to
the whole list of binding environments the previous one produced:

``FROM`` (left-correlated nested loops; variables bind to any value,
Section III-A) → ``LET`` → ``WHERE`` (keep on TRUE only) → ``GROUP BY
... GROUP AS`` (groups become data) → ``HAVING`` → windows → ``SELECT
VALUE`` / ``SELECT *`` / ``PIVOT`` → ``ORDER BY`` / ``LIMIT`` /
``OFFSET``; expressions are evaluated by walking the AST.

It is the oracle every other execution strategy is checked against, so
it is independent of them: no compiled closures, no planner, no
physical operators, no batch / stream code.  It shares with
the engine only the clause semantics of :mod:`repro.core.clauses` and
:mod:`repro.core.windows`, parameterised by this class's own
:meth:`ReferenceEvaluator.eval_expr`, and keeps the tracer and governor
hooks: EXPLAIN ANALYZE and resource limits work here too.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import EvalConfig
from repro.core import clauses, coercion
from repro.core.environment import Environment, Unbound
from repro.core.grouping_sets import expand_grouping_sets
from repro.core.tails import EnvColumns, run_tail
from repro.core.windows import OUTSIDE_SELECT, find_window_calls, lower_window_calls
from repro.datamodel.equality import group_key
from repro.datamodel.values import MISSING, Bag, Struct, is_collection, type_name
from repro.errors import EvaluationError, TypeCheckError
from repro.functions import operators as ops
from repro.functions.registry import REGISTRY
from repro.functions.scalar import cast_value
from repro.observability.tracer import StageTally
from repro.syntax import ast


class ReferenceEvaluator(clauses.QueryEvaluator):
    """Evaluates Core queries against a catalog of named values, eagerly.

    ``catalog`` is any mapping-like object supporting ``__contains__``
    and ``__getitem__`` over dotted names; ``parameters`` supplies values
    for positional ``?`` parameters.  One instance serves one execution.
    """

    #: What ``Database`` reads off any evaluator after a run: the oracle
    #: never plans, streams or batches.
    plan_time_s = None
    streamed = False
    batched = False
    plans_rebuilt = 0
    advanced = None

    def __init__(
        self,
        catalog,
        config: Optional[EvalConfig] = None,
        parameters: Optional[Sequence[Any]] = None,
        tracer=None,
    ):
        self._catalog = catalog if catalog is not None else {}
        self.config = config or EvalConfig()
        self._bind(parameters, tracer)

    def executed_plan(self, query: ast.Query):
        """No physical plan ever runs here (the query store hashes this
        as ``reference``)."""
        return None

    def reads(self, query: ast.Query) -> List[str]:
        """No plan, so no statistics read: nothing to re-trace for."""
        return []

    # ------------------------------------------------------------------
    # Query blocks
    # ------------------------------------------------------------------

    def _eval_block_query(
        self, query: ast.Query, block: ast.QueryBlock, env: Environment
    ) -> Any:
        """One block and its query's ORDER BY / LIMIT / OFFSET: the
        clauses below in order, each over the whole list of binding
        environments, then the tail every evaluator shares
        (:func:`tails.run_tail`), fed all of them at once."""
        eval_expr = self.eval_expr
        stages: List[StageTally] = []
        started = mark = perf_counter()

        def record(stage: str, rows_out: int) -> None:
            nonlocal mark
            mark = StageTally(stage, stages).lap(rows_out, mark)

        # FROM — no FROM means a single empty binding.
        var_order: List[str] = []
        envs = [env]
        if block.from_ is not None:
            for item in block.from_:
                var_order.extend(clauses.item_vars(item))
                envs = [
                    current.extend(binding)
                    for current in envs
                    for binding in self._item_bindings(item, current)
                ]
            record("FROM", len(envs))

        if block.lets:
            for let in block.lets:
                var_order.append(let.name)
                envs = [
                    current.bind(let.name, eval_expr(let.expr, current))
                    for current in envs
                ]
            record("LET", len(envs))

        if block.where is not None:
            envs = [
                current for current in envs if eval_expr(block.where, current) is True
            ]
            record("WHERE", len(envs))

        if block.group_by is not None:
            envs = self._apply_group_by(block.group_by, envs, env, var_order)
            var_order = clauses.group_output_vars(block.group_by)
            record("GROUP BY", len(envs))

        if block.having is not None:
            envs = [
                current
                for current in envs
                if eval_expr(block.having, current) is True
            ]
            record("HAVING", len(envs))

        # Window functions are computed over the final binding stream.
        select = block.select
        window_calls = find_window_calls(select)
        if window_calls:
            select = lower_window_calls(select, window_calls)
        result = run_tail(
            [envs], EnvColumns(self, env, var_order), select, window_calls,
            query.order_by, self.config, stages,
        )
        if self.tracer is not None:
            self.tracer.flush_stages(block, stages, started)
        if isinstance(select, ast.PivotClause):
            return result
        return self._finish_query(query, result, env, ordered=True)

    # -- FROM ----------------------------------------------------------------

    def _item_bindings(
        self, item: ast.FromItem, env: Environment
    ) -> List[Dict[str, Any]]:
        """Bindings for one FROM item: the choke point for governor row
        accounting and EXPLAIN ANALYZE item statistics."""
        tracer = self.tracer
        governor = self.governor
        span = tracer.begin_item(item) if tracer is not None else None
        started = perf_counter() if tracer is not None else 0.0
        if isinstance(item, ast.FromCollection):
            rows = self._range_bindings(item, env)
        elif isinstance(item, ast.FromUnpivot):
            rows = self._unpivot_bindings(item, env)
        elif isinstance(item, ast.FromJoin):
            rows = self._join_bindings(item, env)
        else:
            raise EvaluationError(f"unknown FROM item {type(item).__name__}")
        if governor is not None:
            governor.add(len(rows))
        if tracer is not None:
            tracer.record_item(item, len(rows), perf_counter() - started, span)
        return rows

    def _range_bindings(
        self, item: ast.FromCollection, env: Environment
    ) -> List[Dict[str, Any]]:
        """``expr AS v [AT p]``: variables bind to any value (Section
        III-A).

        * array → one binding per element, AT = 0-based position;
        * bag → one binding per element, AT = MISSING (bags are
          unordered, so there is no stable position to report);
        * NULL / MISSING → no bindings in permissive mode (the paper's
          "convenient signal, which most often leads to data exclusion");
        * any other value → a singleton binding in permissive mode;
        * strict mode raises for every non-collection source.
        """
        value = self.eval_expr(item.expr, env)
        if isinstance(value, list):
            pairs = list(enumerate(value))
        elif isinstance(value, Bag):
            pairs = [(MISSING, element) for element in value]
        elif not self.config.is_permissive:
            raise TypeCheckError(
                f"FROM expects a collection, got {type_name(value)}"
            )
        elif value is None or value is MISSING:
            pairs = []
        else:
            pairs = [(MISSING, value)]
        if item.at_alias:
            return [
                {item.alias: element, item.at_alias: position}
                for position, element in pairs
            ]
        return [{item.alias: element} for __, element in pairs]

    def _unpivot_bindings(
        self, item: ast.FromUnpivot, env: Environment
    ) -> List[Dict[str, Any]]:
        """``UNPIVOT expr AS v AT a``: ranges over a tuple's attributes
        (Section VI-A), turning attribute names into data."""
        value = self.eval_expr(item.expr, env)
        if isinstance(value, Struct):
            return [
                {item.value_alias: attr_value, item.at_alias: attr_name}
                for attr_name, attr_value in value.items()
            ]
        if not self.config.is_permissive:
            raise TypeCheckError(f"UNPIVOT expects a tuple, got {type_name(value)}")
        if value is None or value is MISSING:
            return []
        # Permissive mode treats a non-tuple as {'_1': value}.
        return [{item.value_alias: value, item.at_alias: "_1"}]

    def _join_bindings(
        self, item: ast.FromJoin, env: Environment
    ) -> List[Dict[str, Any]]:
        """Explicit JOIN with lateral right side; LEFT pads every
        right-side variable with NULL (:func:`clauses.pad_right_vars`)."""
        result: List[Dict[str, Any]] = []
        right_vars = clauses.item_vars(item.right)
        for left_binding in self._item_bindings(item.left, env):
            left_env = env.extend(left_binding)
            matched = False
            for right_binding in self._item_bindings(item.right, left_env):
                combined = {**left_binding, **right_binding}
                if item.on is not None:
                    verdict = self.eval_expr(item.on, env.extend(combined))
                    if not ops.is_true(verdict):
                        continue
                matched = True
                result.append(combined)
            if item.kind == "LEFT" and not matched:
                result.append(clauses.pad_right_vars(left_binding, right_vars))
        return result

    # -- GROUP BY --------------------------------------------------------------

    def _apply_group_by(
        self,
        clause: ast.GroupByClause,
        envs: List[Environment],
        outer_env: Environment,
        var_order: List[str],
    ) -> List[Environment]:
        """Grouping with ``GROUP AS`` (paper, Section V-B, Listing 14).

        Output: one binding per group, mapping each key alias to the key
        value and the GROUP AS variable to the group's content — a bag of
        tuples with one attribute per input variable.
        """
        group_envs: List[Environment] = []
        for key_indexes in expand_grouping_sets(clause):
            active = set(key_indexes)
            groups: Dict[tuple, Tuple[List[Any], List[Environment]]] = {}
            for current in envs:
                key_values = [
                    self.eval_expr(key.expr, current) if index in active else None
                    for index, key in enumerate(clause.keys)
                ]
                identity = tuple(group_key(value) for value in key_values)
                group = groups.get(identity)
                if group is None:
                    group = groups[identity] = (key_values, [])
                group[1].append(current)
            if not groups and not clause.keys:
                # Implicit aggregation over empty input still produces a
                # single (empty) group, matching SQL's one-row answer.
                groups[()] = ([], [])
            for key_values, members in groups.values():  # first-seen order
                elements = (clauses.group_element(m, var_order) for m in members)
                binding = clauses.group_binding(clause, key_values, elements)
                group_envs.append(outer_env.extend(binding))
        return group_envs

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def eval_expr(self, expr: ast.Expr, env: Environment) -> Any:
        method = _DISPATCH.get(type(expr))
        if method is None:
            raise EvaluationError(f"cannot evaluate {type(expr).__name__}")
        return method(self, expr, env)

    def _eval_literal(self, expr: ast.Literal, env: Environment) -> Any:
        return expr.value

    def _eval_varref(self, expr: ast.VarRef, env: Environment) -> Any:
        try:
            return env.lookup(expr.name)
        except Unbound:
            if expr.name in self._catalog:
                return self._catalog[expr.name]
            raise Unbound(expr.name) from None

    def _eval_path(self, expr: ast.Path, env: Environment) -> Any:
        try:
            base = self.eval_expr(expr.base, env)
        except Unbound as unbound:
            # ``hr.emp`` is a namespaced named value, not navigation into
            # a variable.  Try successively longer dotted catalog names.
            if isinstance(expr.base, (ast.VarRef, ast.Path)):
                dotted = f"{unbound.name}.{expr.attr}"
                if dotted in self._catalog:
                    return self._catalog[dotted]
                raise Unbound(dotted) from None
            raise
        return ops.navigate_path(base, expr.attr, self.config)

    def _eval_index(self, expr: ast.Index, env: Environment) -> Any:
        base = self.eval_expr(expr.base, env)
        index = self.eval_expr(expr.index, env)
        return ops.navigate_index(base, index, self.config)

    def _eval_pathwildcard(self, expr: ast.PathWildcard, env: Environment) -> Any:
        steps = [
            (step.wildcard, step.attr, partial(self.eval_expr, step.index, env))
            for step in expr.steps
        ]
        return ops.wildcard_path(
            self.eval_expr(expr.base, env), expr.kind, steps, self.config
        )

    def _eval_binary(self, expr: ast.Binary, env: Environment) -> Any:
        # Both operands always evaluate, AND / OR included.
        left = self.eval_expr(expr.left, env)
        right = self.eval_expr(expr.right, env)
        return ops.binary_operator(expr.op)(left, right, self.config)

    def _eval_unary(self, expr: ast.Unary, env: Environment) -> Any:
        value = self.eval_expr(expr.operand, env)
        return ops.unary_operator(expr.op)(value, self.config)

    def _negated(self, verdict: Any, negated: bool) -> Any:
        return ops.logical_not(verdict, self.config) if negated else verdict

    def _eval_ispredicate(self, expr: ast.IsPredicate, env: Environment) -> Any:
        verdict = ops.is_predicate(
            self.eval_expr(expr.operand, env), expr.kind, self.config
        )
        return (not verdict) if expr.negated else verdict

    def _eval_like(self, expr: ast.Like, env: Environment) -> Any:
        verdict = ops.like(
            self.eval_expr(expr.operand, env),
            self.eval_expr(expr.pattern, env),
            self.eval_expr(expr.escape, env) if expr.escape is not None else None,
            self.config,
        )
        return self._negated(verdict, expr.negated)

    def _eval_between(self, expr: ast.Between, env: Environment) -> Any:
        operand = self.eval_expr(expr.operand, env)
        low = self.eval_expr(expr.low, env)
        high = self.eval_expr(expr.high, env)
        verdict = ops.logical_and(
            ops.compare(">=", operand, low, self.config),
            ops.compare("<=", operand, high, self.config),
            self.config,
        )
        return self._negated(verdict, expr.negated)

    def _eval_inpredicate(self, expr: ast.InPredicate, env: Environment) -> Any:
        verdict = ops.in_collection(
            self.eval_expr(expr.operand, env),
            self.eval_expr(expr.collection, env),
            self.config,
        )
        return self._negated(verdict, expr.negated)

    def _eval_exists(self, expr: ast.Exists, env: Environment) -> Any:
        return ops.exists(self.eval_expr(expr.operand, env), self.config)

    def _eval_caseexpr(self, expr: ast.CaseExpr, env: Environment) -> Any:
        """CASE with the paper's MISSING treatment (Listing 9).

        In Core mode a MISSING comparison/condition makes the whole CASE
        MISSING (rule 3 of Section IV-B: operators propagate MISSING); in
        SQL-compat mode MISSING behaves like NULL — the condition simply
        does not match — because SQL's ``CASE WHEN NULL`` continues to
        the next branch (the Section IV-B compatibility exception).
        """
        operand = (
            self.eval_expr(expr.operand, env) if expr.operand is not None else None
        )
        if expr.operand is not None and operand is MISSING:
            if not self.config.sql_compat:
                return MISSING
        for condition, result in expr.whens:
            if expr.operand is not None:
                verdict = ops.equals(
                    operand, self.eval_expr(condition, env), self.config
                )
            else:
                verdict = self.eval_expr(condition, env)
            if verdict is MISSING and not self.config.sql_compat:
                return MISSING
            if ops.is_true(verdict):
                return self.eval_expr(result, env)
        if expr.else_ is not None:
            return self.eval_expr(expr.else_, env)
        return None

    def _eval_functioncall(self, expr: ast.FunctionCall, env: Environment) -> Any:
        if expr.name == "$TUPLE_MERGE":
            return ops.tuple_merge(
                (self.eval_expr(arg, env) for arg in expr.args), self.config
            )
        definition = REGISTRY.lookup(expr.name)
        if definition is None:
            raise EvaluationError(f"unknown function {expr.name}")
        if expr.star:
            raise EvaluationError(
                f"{expr.name}(*) is only meaningful inside a grouped query"
            )
        args = [self.eval_expr(arg, env) for arg in expr.args]
        if expr.distinct and definition.is_aggregate and args:
            first = args[0]
            if is_collection(first):
                args = [ops.distinct_elements(first)] + args[1:]
        return definition.invoke(args, self.config)

    def _eval_windowcall(self, expr: ast.WindowCall, env: Environment) -> Any:
        raise EvaluationError(OUTSIDE_SELECT)

    def _eval_subqueryexpr(self, expr: ast.SubqueryExpr, env: Environment) -> Any:
        return self.eval_query(expr.query, env)

    def _eval_coercesubquery(self, expr: ast.CoerceSubquery, env: Environment) -> Any:
        result = self.eval_query(expr.query, env)
        if expr.mode == "scalar":
            return coercion.coerce_scalar(result, self.config)
        return coercion.coerce_collection(result, self.config)

    def _eval_parameter(self, expr: ast.Parameter, env: Environment) -> Any:
        if expr.index >= len(self._parameters):
            raise EvaluationError(
                f"no value supplied for parameter #{expr.index + 1}"
            )
        return self._parameters[expr.index]

    def _eval_castexpr(self, expr: ast.CastExpr, env: Environment) -> Any:
        return cast_value(self.eval_expr(expr.operand, env), expr.type_name, self.config)

    def _eval_structlit(self, expr: ast.StructLit, env: Environment) -> Struct:
        """Tuple construction; a MISSING attribute value omits the
        attribute (Section IV-B: "the output tuple will not have a title
        attribute")."""
        pairs = []
        for field in expr.fields:
            key = ops.attribute_name(self.eval_expr(field.key, env), self.config)
            if key is MISSING:
                continue
            value = self.eval_expr(field.value, env)
            if value is not MISSING:
                pairs.append((key, value))
        return Struct(pairs)

    def _eval_arraylit(self, expr: ast.ArrayLit, env: Environment) -> list:
        values = (self.eval_expr(item, env) for item in expr.items)
        return [value for value in values if value is not MISSING]

    def _eval_baglit(self, expr: ast.BagLit, env: Environment) -> Bag:
        values = (self.eval_expr(item, env) for item in expr.items)
        return Bag(value for value in values if value is not MISSING)


#: Every concrete ``ast.Expr`` kind → its ``_eval_<kind>`` method (the
#: printer's naming convention); a kind without one fails here, at import.
_DISPATCH = {
    kind: getattr(ReferenceEvaluator, "_eval_" + kind.__name__.lower())
    for kind in vars(ast).values()
    if isinstance(kind, type) and issubclass(kind, ast.Expr) and kind is not ast.Expr
}
