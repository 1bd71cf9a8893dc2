"""Expression compilation: AST → Python closures.

A tree-walking interpreter repeats the same dispatch and field accesses
on every binding — for a query over n rows, n times.  This module
compiles an expression once into a nest of Python closures
(``fn(env) -> value``), eliminating per-row dispatch; it is how the
engine evaluates *every* expression (``Evaluator.eval_expr`` is
``compiled(expr)(env)``).  E3/EXPERIMENTS.md records the interpretation
overhead this addresses; ablation A4 measures the effect.

**Single-source semantics.**  Value-level semantics live in
:mod:`repro.functions.operators`, which the closures, the chunk kernels
and the reference interpreter (:mod:`repro.core.reference`) all call;
what is written per evaluator is only the order in which operands are
evaluated.  Every concrete ``ast.Expr`` kind has a row closure
(:data:`_CLOSURES`) — subqueries re-enter ``Evaluator.eval_query``,
EXISTS / IN over a subquery probe its value stream and stop at the
first answer.  The property test
``tests/properties/test_compile_equivalence.py`` checks
``Evaluator.compiled(expr)(env) == ReferenceEvaluator.eval_expr(expr,
env)`` over generated expressions, so the engine cannot drift from the
reference semantics unnoticed.

**Two forms, one semantics.**  :func:`compile_expr` is the env-space
form (one binding in, one value out) the streaming pipeline calls per
row; :func:`compile_batch` is the column-at-a-time form the batch
pipeline calls per chunk (see "Column-at-a-time kernels" below).  Both
defer to the same ``ops.*`` definitions, and
``tests/properties/test_batch_parallel_equivalence.py`` checks kernel
== closure == interpreter per node kind.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core import coercion
from repro.core.clauses import literal_keys
from repro.core.chunk import Chunk, survivors
from repro.core.environment import Environment, Unbound
from repro.core.plan_ops import governor_tick, lateral_slices
from repro.core.planner import free_names, is_relocatable, item_vars
from repro.core.windows import OUTSIDE_SELECT
from repro.datamodel.equality import group_key
from repro.datamodel.values import (
    MISSING,
    Bag,
    Shape,
    Struct,
    is_collection,
    positions_of,
    shape_of,
    type_name,
)
from repro.errors import EvaluationError
from repro.functions import operators as ops
from repro.functions.registry import REGISTRY
from repro.functions.scalar import cast_value
from repro.syntax import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.evaluator import Evaluator

CompiledExpr = Callable[[Environment], Any]
#: Chunk-at-a-time compiled expression: ``(chunk, outer_env) -> values``
#: (see :func:`compile_batch`).
BatchExpr = Callable[..., List[Any]]


def _literal_probe_set(collection: ast.Expr) -> Any:
    """``(category, keys, representative)`` for an all-literal,
    single-category IN list — or None when the generic path must run.

    Precomputable because :func:`repro.datamodel.equality.group_key`
    classes coincide with ``=``-TRUE on values of one equality category
    (int/float unify in both).  The single-category restriction lets
    the probe decide the no-match outcome wholesale: a probe value of
    the same category compares cleanly against every element (False),
    and one of a different category type-errors against every element
    (NULL in permissive mode, a raise in strict — reproduced via one
    representative comparison).
    """
    if not isinstance(collection, ast.ArrayLit) or not collection.items:
        return None
    category = None
    keys = set()
    for item in collection.items:
        if not isinstance(item, ast.Literal):
            return None
        value = item.value
        if value is None or not isinstance(value, (bool, int, float, str)):
            return None
        kind = ops._equality_kind(value)
        if category is None:
            category = kind
        elif kind != category:
            return None
        keys.add(group_key(value))
    representative = collection.items[0]
    assert isinstance(representative, ast.Literal)
    return category, frozenset(keys), representative.value


def _probe_verdict(value: Any, probe: Any, config: Any) -> Any:
    """``value IN <literal list>`` via the precomputed set — exactly
    :func:`repro.functions.operators.in_collection` on that list."""
    category, keys, representative = probe
    if value is MISSING:
        return MISSING
    if value is None:
        return None
    if ops._equality_kind(value) != category:
        # Same type mismatch against every element: strict mode raises
        # here exactly as the first linear comparison would; permissive
        # turns every comparison unknown, so the verdict is NULL.
        ops.equals(value, representative, config)
        return None
    return group_key(value) in keys


def compile_expr(expr: ast.Expr, evaluator: "Evaluator") -> CompiledExpr:
    """Compile ``expr`` to the closure the engine evaluates it with.

    Compiling never raises for a node that only fails when evaluated
    (an unknown function, a window call outside SELECT): a block's
    closures are built before its first row, and a block without rows
    must not observe the error.
    """
    compiler = _CLOSURES.get(type(expr))
    if compiler is None:
        message = f"cannot evaluate {type(expr).__name__}"
        return lambda env: _raise(message)
    return compiler(expr, evaluator)


def _raise(message: str) -> Any:
    raise EvaluationError(message)


def _compile_literal(expr: ast.Literal, evaluator: "Evaluator") -> CompiledExpr:
    value = expr.value
    return lambda env: value


def _compile_var_ref(expr: ast.VarRef, evaluator: "Evaluator") -> CompiledExpr:
    name = expr.name
    catalog = evaluator._catalog

    def var_ref(env: Environment) -> Any:
        try:
            return env.lookup(name)
        except Unbound:
            if name in catalog:
                return catalog[name]
            raise Unbound(name) from None

    return var_ref


def _compile_path(expr: ast.Path, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    attr = expr.attr
    base_fn = compile_expr(expr.base, evaluator)
    if not isinstance(expr.base, (ast.VarRef, ast.Path)):
        return lambda env: ops.navigate_path(base_fn(env), attr, config)
    # A name-shaped base (``t.v``, ``hr.emp.name``) that turns out
    # unbound makes the path a namespaced named value, not navigation
    # into a variable: try successively longer dotted catalog names.
    catalog = evaluator._catalog

    def named_path(env: Environment) -> Any:
        try:
            base = base_fn(env)
        except Unbound as unbound:
            dotted = f"{unbound.name}.{attr}"
            if dotted in catalog:
                return catalog[dotted]
            raise Unbound(dotted) from None
        return ops.navigate_path(base, attr, config)

    return named_path


def _compile_index(expr: ast.Index, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    base_fn = compile_expr(expr.base, evaluator)
    index_fn = compile_expr(expr.index, evaluator)
    return lambda env: ops.navigate_index(base_fn(env), index_fn(env), config)


def _compile_path_wildcard(
    expr: ast.PathWildcard, evaluator: "Evaluator"
) -> CompiledExpr:
    config = evaluator.config
    base_fn = compile_expr(expr.base, evaluator)
    kind = expr.kind
    # Only an ``[i]`` step's thunk is ever called.
    steps = [
        (step.wildcard, step.attr, step.index and compile_expr(step.index, evaluator))
        for step in expr.steps
    ]

    def path_wildcard(env: Environment) -> list:
        bound = [
            (wildcard, attr, fn and partial(fn, env)) for wildcard, attr, fn in steps
        ]
        return ops.wildcard_path(base_fn(env), kind, bound, config)

    return path_wildcard


def _compile_binary(expr: ast.Binary, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    apply = ops.binary_operator(expr.op)
    left_fn = compile_expr(expr.left, evaluator)
    right_fn = compile_expr(expr.right, evaluator)
    return lambda env: apply(left_fn(env), right_fn(env), config)


def _compile_unary(expr: ast.Unary, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    apply = ops.unary_operator(expr.op)
    operand_fn = compile_expr(expr.operand, evaluator)
    return lambda env: apply(operand_fn(env), config)


def _compile_is(expr: ast.IsPredicate, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    operand_fn = compile_expr(expr.operand, evaluator)
    kind = expr.kind
    if expr.negated:
        return lambda env: not ops.is_predicate(operand_fn(env), kind, config)
    return lambda env: ops.is_predicate(operand_fn(env), kind, config)


def _compile_between(expr: ast.Between, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    operand_fn = compile_expr(expr.operand, evaluator)
    low_fn = compile_expr(expr.low, evaluator)
    high_fn = compile_expr(expr.high, evaluator)
    negated = expr.negated

    def between(env: Environment) -> Any:
        # All three operands evaluate before any comparison, exactly
        # as the reference interpreter orders it (error parity).
        value = operand_fn(env)
        low = low_fn(env)
        high = high_fn(env)
        verdict = ops.logical_and(
            ops.compare(">=", value, low, config),
            ops.compare("<=", value, high, config),
            config,
        )
        return ops.logical_not(verdict, config) if negated else verdict

    return between


def _subquery_stream(collection: ast.Expr) -> Optional[Tuple[ast.Query, bool]]:
    """``(query, rows are coerced)`` for an IN collection that is a
    subquery whose values can be probed one at a time, else None."""
    if isinstance(collection, ast.SubqueryExpr):
        return collection.query, False
    if isinstance(collection, ast.CoerceSubquery) and collection.mode == "collection":
        return collection.query, True
    return None


def _compile_in(expr: ast.InPredicate, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    operand_fn = compile_expr(expr.operand, evaluator)
    negated = expr.negated
    probe = _literal_probe_set(expr.collection)
    if probe is not None:
        # Literal single-category IN list (what the OR→IN rewrite
        # emits): probe a precomputed group-key set instead of
        # re-evaluating the list and comparing linearly per row.
        def contains_probe(env: Environment) -> Any:
            verdict = _probe_verdict(operand_fn(env), probe, config)
            return ops.logical_not(verdict, config) if negated else verdict

        return contains_probe
    collection_fn = compile_expr(expr.collection, evaluator)
    streamed = _subquery_stream(expr.collection)

    def contains(env: Environment) -> Any:
        operand = operand_fn(env)
        stream = None
        if streamed is not None and operand is not MISSING:
            # Probe the subquery row by row: the first TRUE comparison
            # stops its producers (docs/LANGUAGE.md §8).  A MISSING
            # operand needs the collection fully evaluated for its side
            # conditions, like every shape without a value stream.
            stream = evaluator.open_value_stream(streamed[0], env)
        if stream is not None:
            verdict = _in_stream(operand, stream, streamed[1], config)
        else:
            verdict = ops.in_collection(operand, collection_fn(env), config)
        return ops.logical_not(verdict, config) if negated else verdict

    return contains


def _in_stream(operand: Any, stream, coerce_rows: bool, config: Any) -> Any:
    """Probe a streamed subquery: TRUE on the first match, else SQL's
    three-valued verdict over the whole stream."""
    rows = stream
    if coerce_rows:
        rows = (coercion.single_attribute(row, config) for row in stream)
    try:
        return ops.in_elements(operand, rows, config)
    finally:
        stream.close()


def _compile_exists(expr: ast.Exists, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    operand_fn = compile_expr(expr.operand, evaluator)
    if not isinstance(expr.operand, ast.SubqueryExpr):
        return lambda env: ops.exists(operand_fn(env), config)
    query = expr.operand.query

    def exists_subquery(env: Environment) -> Any:
        # EXISTS only asks whether the result is non-empty: stop the
        # subquery's producers at its first row.
        stream = evaluator.open_value_stream(query, env)
        if stream is None:
            return ops.exists(operand_fn(env), config)
        try:
            for __ in stream:
                return True
            return False
        finally:
            stream.close()

    return exists_subquery


def _compile_case(expr: ast.CaseExpr, evaluator: "Evaluator") -> CompiledExpr:
    """CASE with the paper's MISSING treatment (Listing 9): in Core mode
    a MISSING operand or condition makes the whole CASE MISSING; under
    ``sql_compat`` it simply does not match, like SQL's NULL."""
    config = evaluator.config
    propagate = not config.sql_compat
    operand_fn = (
        compile_expr(expr.operand, evaluator) if expr.operand is not None else None
    )
    whens = [
        (compile_expr(condition, evaluator), compile_expr(result, evaluator))
        for condition, result in expr.whens
    ]
    else_fn = compile_expr(expr.else_, evaluator) if expr.else_ is not None else None

    def case(env: Environment) -> Any:
        if operand_fn is not None:
            operand = operand_fn(env)
            if operand is MISSING and propagate:
                return MISSING
        for condition_fn, result_fn in whens:
            verdict = condition_fn(env)
            if operand_fn is not None:
                verdict = ops.equals(operand, verdict, config)
            if verdict is MISSING and propagate:
                return MISSING
            if verdict is True:
                return result_fn(env)
        return else_fn(env) if else_fn is not None else None

    return case


def _compile_window_call(
    expr: ast.WindowCall, evaluator: "Evaluator"
) -> CompiledExpr:
    # A block's SELECT never compiles its window calls: the executor
    # lowers them to variables first (windows.lower_window_calls).
    return lambda env: _raise(OUTSIDE_SELECT)


def _compile_subquery(expr: ast.SubqueryExpr, evaluator: "Evaluator") -> CompiledExpr:
    query = expr.query
    return lambda env: evaluator.eval_query(query, env)


def _compile_coerce(expr: ast.CoerceSubquery, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    query = expr.query
    coerce = (
        coercion.coerce_scalar if expr.mode == "scalar" else coercion.coerce_collection
    )
    return lambda env: coerce(evaluator.eval_query(query, env), config)


def _compile_parameter(expr: ast.Parameter, evaluator: "Evaluator") -> CompiledExpr:
    index = expr.index

    def parameter(env: Environment) -> Any:
        # Read per call: a memoised evaluator is rebound between runs.
        parameters = evaluator._parameters
        if index >= len(parameters):
            raise EvaluationError(f"no value supplied for parameter #{index + 1}")
        return parameters[index]

    return parameter


def _compile_cast(expr: ast.CastExpr, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    operand_fn = compile_expr(expr.operand, evaluator)
    target = expr.type_name
    return lambda env: cast_value(operand_fn(env), target, config)


def _compile_collection(expr: Any, evaluator: "Evaluator") -> CompiledExpr:
    """Array / bag construction; a MISSING item is left out."""
    item_fns = [compile_expr(item, evaluator) for item in expr.items]
    make = Bag if isinstance(expr, ast.BagLit) else list

    def collection(env: Environment) -> Any:
        values = (fn(env) for fn in item_fns)
        return make(value for value in values if value is not MISSING)

    return collection


def _constant_like(expr: ast.Like) -> Optional[Tuple[str, Optional[str]]]:
    """``(pattern, escape char)`` of a LIKE whose pattern and ESCAPE are
    string literals (the overwhelmingly common case), else None."""
    if not (
        isinstance(expr.pattern, ast.Literal)
        and isinstance(expr.pattern.value, str)
    ):
        return None
    if expr.escape is None:
        return expr.pattern.value, None
    if (
        isinstance(expr.escape, ast.Literal)
        and isinstance(expr.escape.value, str)
        and len(expr.escape.value) == 1
    ):
        return expr.pattern.value, expr.escape.value
    return None


def _compile_like(expr: ast.Like, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    operand_fn = compile_expr(expr.operand, evaluator)
    negated = expr.negated

    # A constant pattern compiles its regex exactly once.
    constant = _constant_like(expr)
    if constant is not None:
        regex = ops._like_regex(*constant)

        def like_constant(env: Environment) -> Any:
            value = operand_fn(env)
            if value is MISSING:
                # NOT still applies to the unknown verdict (NOT MISSING
                # normalises to NULL, like the interpreter's
                # ops.logical_not), so fall through instead of returning.
                verdict: Any = MISSING
            elif value is None:
                verdict = None
            elif not isinstance(value, str):
                verdict = config.type_error(
                    f"LIKE expects strings, got {type_name(value)}"
                )
            else:
                verdict = regex.fullmatch(value) is not None
            return ops.logical_not(verdict, config) if negated else verdict

        return like_constant

    pattern_fn = compile_expr(expr.pattern, evaluator)
    escape_fn = (
        compile_expr(expr.escape, evaluator) if expr.escape is not None else None
    )

    def like_dynamic(env: Environment) -> Any:
        verdict = ops.like(
            operand_fn(env),
            pattern_fn(env),
            escape_fn(env) if escape_fn is not None else None,
            config,
        )
        return ops.logical_not(verdict, config) if negated else verdict

    return like_dynamic


def _compile_call(expr: ast.FunctionCall, evaluator: "Evaluator") -> CompiledExpr:
    config = evaluator.config
    arg_fns = [compile_expr(arg, evaluator) for arg in expr.args]
    if expr.name == "$TUPLE_MERGE":
        return lambda env: ops.tuple_merge((fn(env) for fn in arg_fns), config)
    definition = REGISTRY.lookup(expr.name)
    if definition is None:
        message = f"unknown function {expr.name}"
        return lambda env: _raise(message)
    if expr.star:
        message = f"{expr.name}(*) is only meaningful inside a grouped query"
        return lambda env: _raise(message)
    if not (expr.distinct and definition.is_aggregate):
        return lambda env: definition.invoke([fn(env) for fn in arg_fns], config)

    def call_distinct(env: Environment) -> Any:
        args = [fn(env) for fn in arg_fns]
        if args and is_collection(args[0]):
            args[0] = ops.distinct_elements(args[0])
        return definition.invoke(args, config)

    return call_distinct


def _compile_struct(expr: ast.StructLit, evaluator: "Evaluator") -> CompiledExpr:
    value_fns = [compile_expr(field.value, evaluator) for field in expr.fields]
    # Constant string keys (the rewriter's SELECT lowering always makes
    # them) take a fast path.
    keys = literal_keys(expr)
    if keys is not None:
        shape = shape_of(tuple(keys))

        def struct(env: Environment) -> Struct:
            return _literal_struct(shape, tuple([fn(env) for fn in value_fns]))

        return struct
    config = evaluator.config
    key_fns = [compile_expr(field.key, evaluator) for field in expr.fields]

    def struct_dynamic(env: Environment) -> Struct:
        # An absent or mistyped name omits the attribute before its
        # value is evaluated (strict mode: raises).
        pairs = []
        for key_fn, value_fn in zip(key_fns, value_fns):
            key = ops.attribute_name(key_fn(env), config)
            if key is not MISSING and (value := value_fn(env)) is not MISSING:
                pairs.append((key, value))
        return Struct(pairs)

    return struct_dynamic


def _literal_struct(shape: Shape, row: tuple) -> Struct:
    """The tuple a literal-keyed constructor of ``shape`` builds from
    ``row``, one value per name.  The names are literal strings, which
    is all ``Struct.__init__`` would check besides MISSING; a MISSING
    value omits its attribute (Section IV-B), and the row takes the
    interned shape of the names left.  The values are compared by
    identity: ``MISSING in row`` would call a tuple value's ``__eq__``."""
    for value in row:
        if value is MISSING:
            kept = [k for k, value in enumerate(row) if value is not MISSING]
            shape = shape_of(tuple(map(shape.names.__getitem__, kept)))
            return Struct._trusted(shape, tuple(map(row.__getitem__, kept)))
    return Struct._trusted(shape, row)


#: Every concrete ``ast.Expr`` kind → its row-closure compiler (the
#: exhaustiveness test in tests/properties/test_compile_equivalence.py
#: holds this, the reference interpreter's dispatch and the kernel table
#: against the AST).
_CLOSURES: Dict[type, Callable[[Any, "Evaluator"], CompiledExpr]] = {
    ast.Literal: _compile_literal,
    ast.VarRef: _compile_var_ref,
    ast.Path: _compile_path,
    ast.Index: _compile_index,
    ast.PathWildcard: _compile_path_wildcard,
    ast.Binary: _compile_binary,
    ast.Unary: _compile_unary,
    ast.IsPredicate: _compile_is,
    ast.Like: _compile_like,
    ast.Between: _compile_between,
    ast.InPredicate: _compile_in,
    ast.Exists: _compile_exists,
    ast.CaseExpr: _compile_case,
    ast.FunctionCall: _compile_call,
    ast.WindowCall: _compile_window_call,
    ast.SubqueryExpr: _compile_subquery,
    ast.CoerceSubquery: _compile_coerce,
    ast.Parameter: _compile_parameter,
    ast.CastExpr: _compile_cast,
    ast.StructLit: _compile_struct,
    ast.ArrayLit: _compile_collection,
    ast.BagLit: _compile_collection,
}


# =========================================================================
# Column-at-a-time kernels (the batch pipeline)
# =========================================================================
#
# The batch executor evaluates an expression over a whole chunk of
# binding rows (:class:`repro.core.chunk.Chunk`: one column per
# variable).  Each AST node compiles to a *kernel*
# ``kern(chunk, env) -> column``: one tight list comprehension whose
# well-typed case is inlined (``type(v) in {int, float}`` picks
# ``v > lit``) and whose every other case — NULL, MISSING, booleans,
# mistyped or nested values — calls the single definition in
# :mod:`repro.functions.operators`.  The test is on the *exact* type,
# not ``isinstance``, which keeps ``bool`` (an ``int`` subclass) off
# the number path, so ``TRUE > 0`` still type-errors.
#
# A ``VarRef`` kernel is the chunk's own column.  ``Path`` columns are
# kept in the chunk's ``memo`` under a structural key (``("o", "qty")``)
# so a base is dereferenced once per chunk however many kernels use it;
# ``alias.attr`` over a variable a catalog scan binds reads the
# collection's stored column through the chunk's positions
# (:mod:`repro.catalog.columns`).  ``env`` is the enclosing environment,
# for the one other path: a node kind without a kernel evaluates through
# the env-space closure per row (:meth:`_KernelCompiler.fallback`) and is
# recorded on the compiled function's ``fallbacks``.
#
# Sub-expressions are evaluated column-major, so when two rows of a
# chunk would both raise, the error reported may belong to a different
# row than the reference reports — always one the reference raises too
# (docs/LANGUAGE.md §8).

Kernel = Callable[[Chunk, Environment], List[Any]]

_compare = ops.compare
_equals = ops.equals
_not_equals = ops.not_equals
_arithmetic = ops.arithmetic

#: The exact types of the two scalar categories with a fast path.
_NUMBERS = frozenset((int, float))
_STRINGS = frozenset((str,))

#: ``column OP literal`` per operator symbol; ``kinds`` is the literal's
#: own category (:data:`_NUMBERS` or :data:`_STRINGS`).
_LITERAL_OPS: Dict[str, Callable[..., List[Any]]] = {
    "<": lambda column, lit, kinds, config: [
        (v < lit) if type(v) in kinds else _compare("<", v, lit, config)
        for v in column
    ],
    "<=": lambda column, lit, kinds, config: [
        (v <= lit) if type(v) in kinds else _compare("<=", v, lit, config)
        for v in column
    ],
    ">": lambda column, lit, kinds, config: [
        (v > lit) if type(v) in kinds else _compare(">", v, lit, config)
        for v in column
    ],
    ">=": lambda column, lit, kinds, config: [
        (v >= lit) if type(v) in kinds else _compare(">=", v, lit, config)
        for v in column
    ],
    "=": lambda column, lit, kinds, config: [
        (v == lit) if type(v) in kinds else _equals(v, lit, config)
        for v in column
    ],
    "!=": lambda column, lit, kinds, config: [
        (v != lit) if type(v) in kinds else _not_equals(v, lit, config)
        for v in column
    ],
    "+": lambda column, lit, kinds, config: [
        (v + lit) if type(v) in kinds else _arithmetic("+", v, lit, config)
        for v in column
    ],
    "-": lambda column, lit, kinds, config: [
        (v - lit) if type(v) in kinds else _arithmetic("-", v, lit, config)
        for v in column
    ],
    "*": lambda column, lit, kinds, config: [
        (v * lit) if type(v) in kinds else _arithmetic("*", v, lit, config)
        for v in column
    ],
}

#: Arithmetic has no string fast path: ``'a' + 'b'`` is a type error.
_NUMBER_ONLY = frozenset("+-*")

#: ``column OP column`` per operator symbol; the fast path needs exact
#: numbers on both sides.  ``/`` and ``%`` (zero and exact-integer
#: division rules) and anything unknown stay on ``ops.arithmetic``.
_COLUMN_OPS: Dict[str, Callable[..., List[Any]]] = {
    "<": lambda left, right, config: [
        (a < b) if type(a) in _NUMBERS and type(b) in _NUMBERS
        else _compare("<", a, b, config)
        for a, b in zip(left, right)
    ],
    "<=": lambda left, right, config: [
        (a <= b) if type(a) in _NUMBERS and type(b) in _NUMBERS
        else _compare("<=", a, b, config)
        for a, b in zip(left, right)
    ],
    ">": lambda left, right, config: [
        (a > b) if type(a) in _NUMBERS and type(b) in _NUMBERS
        else _compare(">", a, b, config)
        for a, b in zip(left, right)
    ],
    ">=": lambda left, right, config: [
        (a >= b) if type(a) in _NUMBERS and type(b) in _NUMBERS
        else _compare(">=", a, b, config)
        for a, b in zip(left, right)
    ],
    "=": lambda left, right, config: [
        (a == b) if type(a) in _NUMBERS and type(b) in _NUMBERS
        else _equals(a, b, config)
        for a, b in zip(left, right)
    ],
    "!=": lambda left, right, config: [
        (a != b) if type(a) in _NUMBERS and type(b) in _NUMBERS
        else _not_equals(a, b, config)
        for a, b in zip(left, right)
    ],
    "+": lambda left, right, config: [
        (a + b) if type(a) in _NUMBERS and type(b) in _NUMBERS
        else _arithmetic("+", a, b, config)
        for a, b in zip(left, right)
    ],
    "-": lambda left, right, config: [
        (a - b) if type(a) in _NUMBERS and type(b) in _NUMBERS
        else _arithmetic("-", a, b, config)
        for a, b in zip(left, right)
    ],
    "*": lambda left, right, config: [
        (a * b) if type(a) in _NUMBERS and type(b) in _NUMBERS
        else _arithmetic("*", a, b, config)
        for a, b in zip(left, right)
    ],
    # Both sides are always evaluated, as in the reference interpreter.
    "AND": lambda left, right, config: [
        (a and b) if type(a) is bool and type(b) is bool
        else ops.logical_and(a, b, config)
        for a, b in zip(left, right)
    ],
    "OR": lambda left, right, config: [
        (a or b) if type(a) is bool and type(b) is bool
        else ops.logical_or(a, b, config)
        for a, b in zip(left, right)
    ],
    "||": lambda left, right, config: [
        (a + b) if type(a) is str and type(b) is str
        else ops.concat(a, b, config)
        for a, b in zip(left, right)
    ],
}


def _not_column(column: List[Any], config: Any) -> List[Any]:
    return [
        (not v) if type(v) is bool else ops.logical_not(v, config)
        for v in column
    ]


def _streamed_exists_rows(
    owners: List[int], keep: Optional[List[int]], hit: List[bool]
) -> int:
    """How many of a slice's flattened rows the streamed EXISTS would
    have pulled: for each owner not already decided (``hit``), its rows
    up to and including its first survivor (``keep``: surviving
    positions, None for all)."""
    kept = set(keep) if keep is not None else None
    pulled = 0
    decided = -1  # owners ascend, so one "decided in this slice" suffices
    for k, owner in enumerate(owners):
        if owner == decided or hit[owner]:
            continue
        pulled += 1
        if kept is None or k in kept:
            decided = owner
    return pulled


def compile_batch(
    expr: ast.Expr, evaluator: "Evaluator", row_vars: frozenset, one_row: bool = False
) -> "BatchExpr":
    """Compile ``expr`` to a function over a whole chunk of bindings.

    The result maps ``(chunk, env) -> values`` where ``chunk`` is a
    :class:`~repro.core.chunk.Chunk` binding (at least) the names in
    ``row_vars`` — or a list of binding dicts, adapted at the entry —
    and ``env`` is the enclosing environment those bindings would
    extend.  Kernels over the same chunk share its ``memo``, so a
    ``Path`` column is computed once per chunk.  ``fallbacks`` on the
    returned function lists the nodes that had no kernel and run the
    env-space closure per row; ``stored_reads`` the variables of its
    ``alias.attr`` reads, which a chunk whose ``alias`` a catalog scan
    binds serves from stored columns; ``laterals`` the FROM items its
    subqueries range a whole chunk over.  Callers go through
    ``Evaluator.compiled_batch`` so an expression is compiled once per
    evaluator, not per execution.

    ``one_row`` compiles for the one-row chunks the stream pulls where
    row order is observable: the expression's closure (``closure`` on
    the result) over each row, which evaluates exactly what a
    row-at-a-time pipeline does (the segmented subquery works a row's
    whole collection, where a streamed EXISTS stops at its first hit)
    and costs less than columns of one.
    """
    if one_row:
        env_fn = evaluator.compiled(expr)

        def one_row_batch(rows: Chunk, env: Environment) -> List[Any]:
            if type(rows) is list:
                bindings = rows
            else:
                bindings = rows._rows or rows.rows()
            if len(bindings) == 1:
                return [env_fn(env.extend(bindings[0]))]
            extend = env.extend
            return [env_fn(extend(row)) for row in bindings]

        one_row_batch.fallbacks = (expr,)  # type: ignore[attr-defined]
        one_row_batch.stored_reads = ()  # type: ignore[attr-defined]
        one_row_batch.laterals = ()  # type: ignore[attr-defined]
        one_row_batch.closure = env_fn  # type: ignore[attr-defined]
        return one_row_batch
    compiler = _KernelCompiler(evaluator, row_vars)
    kernel = compiler.compile(expr)

    def batch(rows: Chunk, env: Environment) -> List[Any]:
        if type(rows) is list:
            rows = Chunk.from_rows(rows)
        return kernel(rows, env)

    batch.fallbacks = tuple(compiler.fallbacks)  # type: ignore[attr-defined]
    batch.stored_reads = tuple(compiler.stored_reads)  # type: ignore[attr-defined]
    batch.laterals = tuple(compiler.laterals)  # type: ignore[attr-defined]
    return batch


class _KernelCompiler:
    """One ``compile_batch`` call: AST node -> :data:`Kernel`."""

    def __init__(self, evaluator: "Evaluator", row_vars: frozenset):
        self.evaluator = evaluator
        self.config = evaluator.config
        self.row_vars = row_vars
        self.fallbacks: List[ast.Expr] = []
        #: The variable of each ``alias.attr`` read over a row variable.
        self.stored_reads: List[str] = []
        #: The FROM items of the segmented subqueries, outermost first.
        self.laterals: List[ast.FromItem] = []

    def compile(self, expr: ast.Expr) -> Kernel:
        method = _KERNELS.get(type(expr))
        kernel = method(self, expr) if method is not None else None
        return kernel if kernel is not None else self.fallback(expr)

    def fallback(self, expr: ast.Expr) -> Kernel:
        """Subqueries, windows, parameters, casts, wildcards, names
        outside ``row_vars``: bind each row and run the env-space
        closure — the only path besides the kernels."""
        self.fallbacks.append(expr)
        env_fn = self.evaluator.compiled(expr)

        def batch_fallback(rows: Chunk, env) -> List[Any]:
            extend = env.extend
            return [env_fn(extend(row)) for row in rows.rows()]

        return batch_fallback

    # -- leaves ------------------------------------------------------------

    def literal(self, expr: ast.Literal) -> Kernel:
        value = expr.value
        return lambda rows, env: [value] * rows.size

    def var_ref(self, expr: ast.VarRef) -> Optional[Kernel]:
        name = expr.name
        if name not in self.row_vars:
            return None

        return lambda rows, env: rows.column(name)

    def _column_key(self, expr: ast.Expr) -> Any:
        """Structural memo key of a path rooted at a row variable."""
        if isinstance(expr, ast.VarRef):
            return expr.name if expr.name in self.row_vars else None
        if isinstance(expr, ast.Path):
            base_key = self._column_key(expr.base)
            return None if base_key is None else (base_key, expr.attr)
        return None

    def path(self, expr: ast.Path) -> Optional[Kernel]:
        key = self._column_key(expr)
        if key is None and isinstance(expr.base, (ast.VarRef, ast.Path)):
            # Rooted outside the row: possibly a dotted catalog name,
            # which only the env-space closure resolves.
            return None
        attr = expr.attr
        config = self.config
        navigate = ops.navigate_path

        def probe(bases: List[Any]) -> List[Any]:
            # One dict probe in the value's interned shape: the first
            # position of the name (first match, duplicate names or not),
            # or a miss, which is MISSING.
            return [
                (
                    MISSING
                    if (at := base._shape.index.get(attr)) is None
                    else base._values[at]
                )
                if type(base) is Struct
                else navigate(base, attr, config)
                for base in bases
            ]

        if key is not None and isinstance(expr.base, ast.VarRef):
            name = expr.base.name
            self.stored_reads.append(name)

            def variable_path(rows: Chunk, env) -> List[Any]:
                memo = rows.memo
                if memo is None:
                    memo = rows.memo = {}
                column = memo.get(key)
                if column is None:
                    stored = rows.stored.get(name)
                    if stored is not None:
                        column = stored[0].read(attr, stored[1], navigate, config)
                    else:
                        column = probe(rows.column(name))
                    memo[key] = column
                return column

            return variable_path
        base_kernel = self.compile(expr.base)

        def path_column(rows: Chunk, env) -> List[Any]:
            if key is None:
                return probe(base_kernel(rows, env))
            memo = rows.memo
            if memo is None:
                memo = rows.memo = {}
            column = memo.get(key)
            if column is None:
                column = memo[key] = probe(base_kernel(rows, env))
            return column

        return path_column

    def index(self, expr: ast.Index) -> Kernel:
        base = self.compile(expr.base)
        index = self.compile(expr.index)
        config = self.config
        navigate = ops.navigate_index
        return lambda rows, env: [
            navigate(b, i, config)
            for b, i in zip(base(rows, env), index(rows, env))
        ]

    # -- operators ---------------------------------------------------------

    def binary(self, expr: ast.Binary) -> Kernel:
        op = expr.op
        config = self.config
        left = self.compile(expr.left)
        if op in _LITERAL_OPS and isinstance(expr.right, ast.Literal):
            lit = expr.right.value
            kind = type(lit)
            if kind in _NUMBERS or (kind is str and op not in _NUMBER_ONLY):
                template = _LITERAL_OPS[op]
                kinds = _STRINGS if kind is str else _NUMBERS
                return lambda rows, env: template(
                    left(rows, env), lit, kinds, config
                )
        right = self.compile(expr.right)
        columns = _COLUMN_OPS.get(op)
        if columns is not None:
            return lambda rows, env: columns(
                left(rows, env), right(rows, env), config
            )
        return lambda rows, env: [
            _arithmetic(op, a, b, config)
            for a, b in zip(left(rows, env), right(rows, env))
        ]

    def unary(self, expr: ast.Unary) -> Kernel:
        operand = self.compile(expr.operand)
        config = self.config
        if expr.op == "NOT":
            return lambda rows, env: _not_column(operand(rows, env), config)
        if expr.op == "-":
            negate = ops.negate
            return lambda rows, env: [
                -v if type(v) in _NUMBERS else negate(v, config)
                for v in operand(rows, env)
            ]
        unary_plus = ops.unary_plus
        return lambda rows, env: [
            unary_plus(v, config) for v in operand(rows, env)
        ]

    def is_predicate(self, expr: ast.IsPredicate) -> Kernel:
        operand = self.compile(expr.operand)
        kind = expr.kind
        negated = expr.negated
        if kind == "MISSING":
            if negated:
                return lambda rows, env: [
                    v is not MISSING for v in operand(rows, env)
                ]
            return lambda rows, env: [v is MISSING for v in operand(rows, env)]
        if kind in ("NULL", "ABSENT"):
            # ``IS NULL`` holds for MISSING too (ops.is_predicate).
            if negated:
                return lambda rows, env: [
                    v is not None and v is not MISSING
                    for v in operand(rows, env)
                ]
            return lambda rows, env: [
                v is None or v is MISSING for v in operand(rows, env)
            ]
        config = self.config
        test = ops.is_predicate
        if negated:
            return lambda rows, env: [
                not test(v, kind, config) for v in operand(rows, env)
            ]
        return lambda rows, env: [
            test(v, kind, config) for v in operand(rows, env)
        ]

    def between(self, expr: ast.Between) -> Kernel:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        config = self.config
        negated = expr.negated
        at_least, at_most = _COLUMN_OPS[">="], _COLUMN_OPS["<="]
        both = _COLUMN_OPS["AND"]

        def between_column(rows: Chunk, env) -> List[Any]:
            # All three operand columns before any comparison, as the
            # reference interpreter orders it.
            values = operand(rows, env)
            lows = low(rows, env)
            highs = high(rows, env)
            verdicts = both(
                at_least(values, lows, config),
                at_most(values, highs, config),
                config,
            )
            return _not_column(verdicts, config) if negated else verdicts

        return between_column

    def like(self, expr: ast.Like) -> Kernel:
        operand = self.compile(expr.operand)
        config = self.config
        negated = expr.negated
        like = ops.like
        constant = _constant_like(expr)
        if constant is not None:
            pattern, escape = constant
            # The pattern compiles once; non-strings (NULL, MISSING,
            # mistyped) take the one definition in ops.like.
            fullmatch = ops._like_regex(pattern, escape).fullmatch

            def like_column(rows: Chunk, env) -> List[Any]:
                verdicts = [
                    (fullmatch(v) is not None)
                    if type(v) is str
                    else like(v, pattern, escape, config)
                    for v in operand(rows, env)
                ]
                return _not_column(verdicts, config) if negated else verdicts

            return like_column
        pattern_kernel = self.compile(expr.pattern)
        escape_kernel = (
            self.compile(expr.escape) if expr.escape is not None else None
        )

        def like_dynamic_column(rows: Chunk, env) -> List[Any]:
            values = operand(rows, env)
            patterns = pattern_kernel(rows, env)
            escapes = (
                escape_kernel(rows, env)
                if escape_kernel is not None
                else [None] * rows.size
            )
            verdicts = [
                like(v, p, e, config)
                for v, p, e in zip(values, patterns, escapes)
            ]
            return _not_column(verdicts, config) if negated else verdicts

        return like_dynamic_column

    def in_predicate(self, expr: ast.InPredicate) -> Optional[Kernel]:
        if isinstance(expr.collection, (ast.SubqueryExpr, ast.CoerceSubquery)):
            return None  # early-terminating probe lives in the evaluator
        operand = self.compile(expr.operand)
        config = self.config
        negated = expr.negated
        probe = _literal_probe_set(expr.collection)
        if probe is not None:
            category, keys, __ = probe
            # A string list probes its raw literals; every other value
            # (and every other category) asks _probe_verdict.
            members = (
                frozenset(key[1] for key in keys) if category == "string" else None
            )

            def probe_column(rows: Chunk, env) -> List[Any]:
                if members is not None:
                    verdicts = [
                        (v in members)
                        if type(v) is str
                        else _probe_verdict(v, probe, config)
                        for v in operand(rows, env)
                    ]
                else:
                    verdicts = [
                        _probe_verdict(v, probe, config)
                        for v in operand(rows, env)
                    ]
                return _not_column(verdicts, config) if negated else verdicts

            return probe_column
        collection = self.compile(expr.collection)
        contains = ops.in_collection

        def in_column(rows: Chunk, env) -> List[Any]:
            verdicts = [
                contains(v, c, config)
                for v, c in zip(operand(rows, env), collection(rows, env))
            ]
            return _not_column(verdicts, config) if negated else verdicts

        return in_column

    def exists(self, expr: ast.Exists) -> Optional[Kernel]:
        if isinstance(expr.operand, ast.SubqueryExpr):
            # Any other subquery keeps the evaluator's early-terminating
            # stream, as for IN.
            return self._segmented_subquery(expr.operand.query, exists=True)
        operand = self.compile(expr.operand)
        config = self.config
        exists = ops.exists
        return lambda rows, env: [exists(v, config) for v in operand(rows, env)]

    # -- subqueries over a row's own collection ----------------------------

    def subquery(self, expr: ast.SubqueryExpr) -> Optional[Kernel]:
        return self._segmented_subquery(expr.query, exists=False)

    def _segmented_subquery(
        self, query: ast.Query, exists: bool
    ) -> Optional[Kernel]:
        """Flatten-and-segment kernel for ``(SELECT VALUE f FROM r.xs AS
        x [, ...] [WHERE g])`` — the one subquery shape evaluated for a
        whole chunk at once, or None (every other shape: the env-space
        fallback, one ``eval_query`` per row).

        Admitted: a single block, ``SELECT VALUE`` without DISTINCT,
        FROM made only of range / UNPIVOT items whose sources mention
        nothing but row variables and earlier items' variables (so each
        is the lateral flatten of :func:`plan_ops.lateral_slices`), an
        optional WHERE, and no LET / GROUP BY / HAVING / ORDER BY /
        LIMIT / OFFSET; every expression relocatable
        (:func:`planner.is_relocatable`: total under permissive typing,
        so evaluating each element — where the streamed EXISTS stops at
        its first hit — is unobservable; under strict typing an extra
        evaluation can raise, which escapes the block's batch attempt
        and sends it to the stream, ``Evaluator._eval_block_query``).
        The chunk's collections are flattened in slices of ~CHUNK_ROWS
        with the owning row's index kept alongside, WHERE and SELECT run
        as kernels over the slices, and the survivors are segmented back
        by owner: a ``Bag`` per row (empty, never MISSING, without
        survivors) or, for EXISTS, a boolean.
        """
        body = query.body
        if (
            not isinstance(body, ast.QueryBlock)
            or query.order_by
            or query.limit is not None
            or query.offset is not None
            or not isinstance(body.select, ast.SelectValue)
            or body.select.distinct
            or not body.from_
            or body.lets
            or body.group_by is not None
            or body.having is not None
        ):
            return None
        exprs = [body.select.expr]
        if body.where is not None:
            exprs.append(body.where)
        scope = set(self.row_vars)
        scopes: List[frozenset] = []
        for item in body.from_:
            if not isinstance(item, (ast.FromCollection, ast.FromUnpivot)):
                return None
            names = free_names(item.expr)
            if not names or not names <= scope:
                return None
            exprs.append(item.expr)
            scopes.append(frozenset(scope))
            scope.update(item_vars(item))
        if not all(is_relocatable(expr) for expr in exprs):
            return None

        def inner(expr: ast.Expr, row_vars: frozenset) -> Kernel:
            compiler = _KernelCompiler(self.evaluator, row_vars)
            kernel = compiler.compile(expr)
            self.fallbacks.extend(compiler.fallbacks)
            self.stored_reads.extend(compiler.stored_reads)
            self.laterals.extend(compiler.laterals)
            return kernel

        items = body.from_
        self.laterals.extend(items)
        #: Per level, the variables the rows flattened there carry: those
        #: a later item, WHERE or SELECT reads (the subquery holds no
        #: nested query, so free_names sees every reference).
        read = [free_names(body.select.expr)]
        if body.where is not None:
            read.append(free_names(body.where))
        carry = [
            frozenset().union(*read, *map(free_names, (i.expr for i in items[k + 1 :])))
            for k in range(len(items))
        ]
        sources = [inner(item.expr, names) for item, names in zip(items, scopes)]
        inner_vars = frozenset(scope)
        where = inner(body.where, inner_vars) if body.where is not None else None
        select = inner(body.select.expr, inner_vars)
        evaluator = self.evaluator
        config = self.config

        def slices(level: int, rows: Chunk, owners: Any, env, tick):
            """``(flat rows, owner per flat row)`` after ranging items
            ``level``.. over ``rows`` (whose own owners are ``owners``)."""
            if level == len(items):
                yield rows, owners
                return
            for flat, local in lateral_slices(
                items[level], rows, sources[level], env, config, tick,
                carry=carry[level],
            ):
                if owners is not None:
                    local = [owners[k] for k in local]
                yield from slices(level + 1, flat, local, env, tick)

        def subquery_column(rows: Chunk, env) -> List[Any]:
            if not rows:
                return []
            hit = [False] * len(rows)
            segments: List[List[Any]] = []
            if not exists:
                segments = [[] for __ in range(len(rows))]
            governor = evaluator.governor
            account = tick = governor_tick(governor)
            if governor is not None:
                governor.enter_query()
                if exists:
                    # Only the deadline while flattening: the row tally
                    # is what the first-hit-stopping stream would pull.
                    tick = lambda produced: governor.add(0)  # noqa: E731
            try:
                for flat, owners in slices(0, rows, None, env, tick):
                    keep = None
                    if where is not None:
                        keep = survivors(where(flat, env))
                    if exists:
                        if account is not None:
                            account(_streamed_exists_rows(owners, keep, hit))
                        # The streamed EXISTS projects exactly its first
                        # survivor per row, then stops.
                        first = []
                        for k in range(len(flat)) if keep is None else keep:
                            if not hit[owners[k]]:
                                hit[owners[k]] = True
                                first.append(k)
                        if first:
                            select(flat.keep(first), env)
                        continue
                    if keep is not None:
                        if not keep:
                            continue
                        if len(keep) != len(flat):
                            owners = [owners[k] for k in keep]
                        flat = flat.keep(keep)
                    for owner, value in zip(owners, select(flat, env)):
                        segments[owner].append(value)
            finally:
                if governor is not None:
                    governor.exit_query()
            return hit if exists else [Bag(values) for values in segments]

        return subquery_column

    def case(self, expr: ast.CaseExpr) -> Kernel:
        """CASE over selection vectors: each WHEN runs over the rows no
        earlier branch decided, each THEN/ELSE only over the rows its
        WHEN selected — the rows the reference CASE evaluates them on.
        A MISSING operand or condition makes the row MISSING unless
        ``sql_compat`` (Listing 9)."""
        config = self.config
        propagate = not config.sql_compat
        operand = (
            self.compile(expr.operand) if expr.operand is not None else None
        )
        whens = [
            (self.compile(condition), self.compile(result))
            for condition, result in expr.whens
        ]
        otherwise = self.compile(expr.else_) if expr.else_ is not None else None
        equals_columns = _COLUMN_OPS["="]

        def case_column(rows: Chunk, env) -> List[Any]:
            out: List[Any] = [None] * len(rows)
            #: Output positions still undecided, and their rows.
            pending: Any = range(len(rows))
            live = rows
            subjects = None
            if operand is not None:
                subjects = operand(rows, env)
                if propagate:
                    keep = [k for k, v in enumerate(subjects) if v is not MISSING]
                    if len(keep) != len(rows):
                        for k, v in enumerate(subjects):
                            if v is MISSING:
                                out[k] = MISSING
                        pending = keep
                        live = rows.keep(keep)
                        subjects = [subjects[k] for k in keep]
            for condition, result in whens:
                if not live:
                    return out
                verdicts = condition(live, env)
                if subjects is not None:
                    verdicts = equals_columns(subjects, verdicts, config)
                hits = survivors(verdicts)
                if hits:
                    for k, value in zip(hits, result(live.keep(hits), env)):
                        out[pending[k]] = value
                rest = []
                for k, v in enumerate(verdicts):
                    if v is MISSING and propagate:
                        out[pending[k]] = MISSING
                    elif v is not True:
                        rest.append(k)
                if len(rest) != len(live):
                    pending = [pending[k] for k in rest]
                    live = live.keep(rest)
                    if subjects is not None:
                        subjects = [subjects[k] for k in rest]
            if otherwise is not None and live:
                for position, value in zip(pending, otherwise(live, env)):
                    out[position] = value
            return out

        return case_column

    # -- calls and constructors --------------------------------------------

    def call(self, expr: ast.FunctionCall) -> Optional[Kernel]:
        if expr.name == "$TUPLE_MERGE" or expr.star or expr.distinct:
            return None
        definition = REGISTRY.lookup(expr.name)
        if definition is None:
            return None  # the env-space closure raises uniformly
        config = self.config
        invoke = definition.invoke
        args = [self.compile(arg) for arg in expr.args]
        if not args:
            return lambda rows, env: [invoke([], config) for __ in range(rows.size)]
        return lambda rows, env: [
            invoke(list(values), config)
            for values in zip(*[arg(rows, env) for arg in args])
        ]

    def struct(self, expr: ast.StructLit) -> Optional[Kernel]:
        keys = literal_keys(expr)
        if keys is None:
            return None
        values = [self.compile(field.value) for field in expr.fields]
        shape = shape_of(tuple(keys))
        make = Struct._trusted
        if not keys:
            return lambda rows, env: [make(shape, ()) for __ in range(rows.size)]

        def struct_column(rows: Chunk, env) -> List[Struct]:
            columns = [value(rows, env) for value in values]
            out = [make(shape, row) for row in zip(*columns)]
            # Only the rows holding MISSING are rebuilt, found by identity.
            for k in set().union(*(positions_of(c, MISSING) for c in columns)):
                out[k] = _literal_struct(shape, out[k]._values)
            return out

        return struct_column

    def _items(self, items: List[ast.Expr]) -> Kernel:
        """Rows of present item values for an array/bag constructor."""
        kernels = [self.compile(item) for item in items]
        if not kernels:
            return lambda rows, env: [[] for __ in range(rows.size)]
        return lambda rows, env: [
            [v for v in values if v is not MISSING]
            for values in zip(*[kernel(rows, env) for kernel in kernels])
        ]

    def array(self, expr: ast.ArrayLit) -> Kernel:
        return self._items(expr.items)

    def bag(self, expr: ast.BagLit) -> Kernel:
        items = self._items(expr.items)
        return lambda rows, env: [Bag(values) for values in items(rows, env)]


_KERNELS = {
    ast.Literal: _KernelCompiler.literal,
    ast.VarRef: _KernelCompiler.var_ref,
    ast.Path: _KernelCompiler.path,
    ast.Index: _KernelCompiler.index,
    ast.Binary: _KernelCompiler.binary,
    ast.Unary: _KernelCompiler.unary,
    ast.IsPredicate: _KernelCompiler.is_predicate,
    ast.Between: _KernelCompiler.between,
    ast.Like: _KernelCompiler.like,
    ast.InPredicate: _KernelCompiler.in_predicate,
    ast.Exists: _KernelCompiler.exists,
    ast.SubqueryExpr: _KernelCompiler.subquery,
    ast.CaseExpr: _KernelCompiler.case,
    ast.FunctionCall: _KernelCompiler.call,
    ast.StructLit: _KernelCompiler.struct,
    ast.ArrayLit: _KernelCompiler.array,
    ast.BagLit: _KernelCompiler.bag,
}
