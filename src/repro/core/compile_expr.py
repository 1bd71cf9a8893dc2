"""Expression compilation: AST → Python closures and chunk kernels.

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
evaluated.  The property test
``tests/properties/test_compile_equivalence.py`` checks
``Evaluator.compiled(expr)(env) == ReferenceEvaluator.eval_expr(expr,
env)`` over generated expressions, so the engine cannot drift from the
reference semantics unnoticed.

**Two forms, one node table.**  :func:`compile_expr` is the env-space
form (one binding in, one value out) rows mode calls per row;
:func:`compile_batch` is the column-at-a-time form columns mode calls
per chunk (see "Column-at-a-time kernels" below).  A pointwise node —
one whose value is a function of its children's values, all evaluated
first — is declared once in the node table (:data:`_NODES`): its
children and one Python expression over their values.  Both forms are
generated from that declaration ("The node table" below), so they
cannot drift apart.  The table covers the operators (their expressions
come from the operator table of :mod:`repro.functions.operators`),
index, IS, BETWEEN, LIKE, IN and EXISTS over a value, CAST, array and
bag constructors, tuple constructors with literal names, function calls
(registered, DISTINCT aggregates, ``$TUPLE_MERGE`` and the per-row error
of an unknown function or ``f(*)``) and parameters.  Written by hand
(:data:`_HAND_WRITTEN`), each for a reason:

- literals, variables and paths: the chunk's column memo, stored
  columns and dotted catalog names;
- ``e[*]`` / ``e.*`` paths: their ``[i]`` steps are thunks, evaluated
  only where the path reaches them;
- CASE: it short-circuits, and its kernel runs over selection vectors;
- every subquery kind, EXISTS / IN over a subquery included: value
  streams that stop at the first answer, and segment kernels;
- tuple constructors with computed names: a name decides whether its
  value is evaluated;
- window calls: lowered to variables before a SELECT compiles them.

``tests/properties/test_batch_parallel_equivalence.py`` checks kernel ==
closure == interpreter per node kind.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

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
    shape_of,
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
Kernel = Callable[[Chunk, Environment], List[Any]]


# =========================================================================
# The node table
# =========================================================================
#
# A declaration (:data:`_Node`) names a node's children, one body
# (:class:`_Body`) and the values of the body's constants.  A body is a
# Python expression over the children's values, bound to ``a``, ``b``,
# ``c`` … in order, over ``config`` and over its named constants; each
# is declared once, at module level.  The variant is chosen when the
# node is compiled (the IS kind, a literal LIKE pattern, a literal IN
# list, a literal right operand), and the per-node values it needs (the
# pattern, the shape, the cast target, the function) are constants, not
# source text.  One source template turns a body into both forms, each
# of which compiles the children in order: ``row(env)`` evaluates their
# closures, then the body; ``column(rows, env)`` evaluates their
# kernels, then ``[body for a, … in zip(…)]``.  A body's forms are built
# on its first use at an arity and kept for the process; nothing is
# generated per query.

_SOURCE = """
def closure(children, evaluator, values):
    {unpack}config = evaluator.config
{closures}    def row(env):
{reads}        return {body}
    return row
def kernel(children, compiler, values):
    {unpack}config = compiler.config
{kernels}    def column(rows, env):
        return [{body} for {targets} in {source}]
    return column
"""


class _Forms(NamedTuple):
    #: ``(children, evaluator, constants) -> row(env)``
    closure: Callable[..., CompiledExpr]
    #: ``(children, kernel compiler, constants) -> column(rows, env)``
    kernel: Callable[..., Kernel]


#: Every body, for the test that a second run of the same queries
#: generates nothing.
_BODIES: List["_Body"] = []


class _Body(Dict[int, _Forms]):
    """A body over the constants ``names``: an arity → its generated
    forms, built on first use.  ``{tuple}``, ``{args}`` and
    ``{present}`` in its text stand for every child's value as a tuple,
    as arguments, and for "none of them MISSING"."""

    def __init__(self, text: str, *names: str):
        super().__init__()
        self.text, self.names = text, names
        _BODIES.append(self)

    def __missing__(self, arity: int) -> _Forms:
        names = [chr(97 + k) if k < 26 else f"a{k}" for k in range(arity)]
        values = ", ".join(names)
        calls = [f"f_{name}(rows, env)" for name in names]
        source = _SOURCE.format(
            unpack="".join(f"{name}, " for name in self.names) + "= values\n    "
            if self.names else "",
            closures="".join(
                f"    f_{name} = compile_expr(children[{k}], evaluator)\n"
                for k, name in enumerate(names)
            ),
            kernels="".join(
                f"    f_{name} = compiler.compile(children[{k}])\n"
                for k, name in enumerate(names)
            ),
            reads="".join(f"        {name} = f_{name}(env)\n" for name in names),
            body=self.text.format(
                tuple=f"({values},)" if arity == 1 else f"({values})",
                args=values,
                present=" and ".join(f"{n} is not MISSING" for n in names) or "True",
            ),
            targets=values or "__",
            source=(
                f"zip({', '.join(calls)})" if arity > 1
                else calls[0] if calls else "range(rows.size)"
            ),
        )
        namespace = dict(_BODY_NAMES, compile_expr=compile_expr)
        exec(compile(source, f"<node {self.text}>", "exec"), namespace)
        forms = self[arity] = _Forms(namespace["closure"], namespace["kernel"])
        return forms


#: A declaration: its children (AST expressions, or declarations nested
#: in it), its body and one value per name of the body's constants.  A
#: plain tuple: one is built per node compiled.
_Node = Tuple[Tuple[Any, ...], _Body, Tuple[Any, ...]]


def _raise(message: str) -> Any:
    raise EvaluationError(message)


def _tuple_part(value: Any, config: Any) -> Any:
    """A ``$TUPLE_MERGE`` part, checked as soon as it is evaluated, as
    ``ops.tuple_merge`` checks it: a non-tuple is its type error (strict
    mode: raises before the next part is evaluated), else no attribute."""
    if value is None or value is MISSING or isinstance(value, Struct):
        return value
    return ops.tuple_merge((value,), config)


def _parameter(evaluator: "Evaluator", index: int) -> Any:
    # Read per call: a memoised evaluator is rebound between runs.
    parameters = evaluator._parameters
    if index >= len(parameters):
        raise EvaluationError(f"no value supplied for parameter #{index + 1}")
    return parameters[index]


def _call_distinct(invoke: Any, args: List[Any], config: Any) -> Any:
    if args and is_collection(args[0]):
        args[0] = ops.distinct_elements(args[0])
    return invoke(args, config)


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


#: The names a body may read besides its operands, ``config`` and its
#: constants.
_BODY_NAMES: Dict[str, Any] = {
    "MISSING": MISSING,
    "Bag": Bag,
    "trusted": Struct._trusted,
    "literal_struct": _literal_struct,
    "navigate_index": ops.navigate_index,
    "is_predicate": ops.is_predicate,
    "like": ops.like,
    "in_collection": ops.in_collection,
    "probe_verdict": _probe_verdict,
    "exists": ops.exists,
    "cast_value": cast_value,
    "tuple_part": _tuple_part,
    "tuple_merge": ops.tuple_merge,
    "call_distinct": _call_distinct,
    "parameter": _parameter,
    "fail": _raise,
}


def _classes(types: Any, names: str, consts: Dict[str, Any]) -> str:
    """The test that the exact types of the operands ``names`` all lie
    in one class of ``types``; the classes join ``consts``."""
    guards = []
    for k, members in enumerate(types):
        if len(members) == 1:
            consts[f"T{k}"], test = members[0], f"is T{k}"
        else:
            consts[f"K{k}"], test = frozenset(members), f"in K{k}"
        guards.append(" and ".join(f"type({name}) {test}" for name in names))
    return " or ".join(f"({guard})" for guard in guards)


@lru_cache(maxsize=None)
def _operator(symbol: str, arity: int) -> Tuple[_Body, Tuple[Any, ...]]:
    """Operator ``symbol``'s body and constants: the table's Python
    expression where every operand's exact type lies in one of its
    classes, its definition otherwise."""
    spec = ops.binary_spec(symbol) if arity == 2 else ops.unary_spec(symbol)
    names = "ab"[:arity]
    consts: Dict[str, Any] = {"apply": spec.definition}
    text = f"apply({', '.join(names)}, config)"
    if spec.fast is not None:
        text = f"({spec.fast}) if {_classes(spec.types, names, consts)} else {text}"
    return _Body(text, *consts), tuple(consts.values())


@lru_cache(maxsize=None)
def _operator_literal(symbol: str) -> _Body:
    """A binary operator whose right operand is a literal of one of its
    classes, the constant ``b``: only ``a``'s exact type is tested."""
    fast = ops.binary_spec(symbol).fast
    text = f"({fast}) if type(a) in kinds else apply(a, b, config)"
    return _Body(text, "apply", "b", "kinds")


def _declare_binary(expr: ast.Binary, evaluator: "Evaluator") -> _Node:
    if isinstance(expr.right, ast.Literal):
        spec = ops.binary_spec(expr.op)
        for members in spec.types:
            if type(expr.right.value) in members:
                constants = (spec.definition, expr.right.value, frozenset(members))
                return (expr.left,), _operator_literal(expr.op), constants
    return ((expr.left, expr.right), *_operator(expr.op, 2))


def _not_if(negated: bool, node: _Node) -> _Node:
    """``node``'s verdict, under the NOT operator when ``negated``."""
    return ((node,), *_operator("NOT", 1)) if negated else node


#: The IS kinds decided by identity (``IS NULL`` holds for MISSING too,
#: as in ``ops.is_predicate``); every other kind (None) asks it.
_IS_TESTS = {
    "MISSING": "a is MISSING",
    "NULL": "a is None or a is MISSING",
    "ABSENT": "a is None or a is MISSING",
    None: "is_predicate(a, kind, config)",
}
_IS = {
    (kind, negated): _Body(f"not ({test})" if negated else test, "kind")
    for kind, test in _IS_TESTS.items()
    for negated in (False, True)
}


def _declare_is(expr: ast.IsPredicate, evaluator: "Evaluator") -> _Node:
    kind = expr.kind if expr.kind in _IS_TESTS else None
    return (expr.operand,), _IS[kind, expr.negated], (expr.kind,)


#: ``a >= b AND a <= c``: ``b <= a <= c`` where all three lie in one
#: class of the comparisons, the three operators' definitions otherwise.
_BETWEEN_CONSTS = {
    "at_least": ops.binary_operator(">="),
    "at_most": ops.binary_operator("<="),
    "both": ops.binary_operator("AND"),
}
_BETWEEN = _Body(
    f"(b <= a <= c) if {_classes(ops.binary_spec('>=').types, 'abc', _BETWEEN_CONSTS)}"
    " else both(at_least(a, b, config), at_most(a, c, config), config)",
    *_BETWEEN_CONSTS,
)


def _declare_between(expr: ast.Between, evaluator: "Evaluator") -> _Node:
    node = (expr.operand, expr.low, expr.high), _BETWEEN, (*_BETWEEN_CONSTS.values(),)
    return _not_if(expr.negated, node)


def _constant_like(expr: ast.Like) -> Optional[Tuple[Any, str, Optional[str]]]:
    """The compiled ``fullmatch``, pattern and escape character of a
    LIKE whose pattern and ESCAPE are string literals (the
    overwhelmingly common case); else None.  A pattern that ends in its
    escape character is None too: ``ops.like`` raises for it per row,
    so a block without rows must not."""
    if not (
        isinstance(expr.pattern, ast.Literal)
        and isinstance(expr.pattern.value, str)
    ):
        return None
    escape = None
    if expr.escape is not None:
        escape = expr.escape.value if isinstance(expr.escape, ast.Literal) else None
        if not isinstance(escape, str) or len(escape) != 1:
            return None
    try:
        regex = ops._like_regex(expr.pattern.value, escape)
    except EvaluationError:
        return None
    return regex.fullmatch, expr.pattern.value, escape


#: Non-strings (NULL, MISSING, mistyped) take the one definition in
#: ops.like.
_LIKE = _Body(
    "(fullmatch(a) is not None) if type(a) is str"
    " else like(a, pattern, escape, config)",
    "fullmatch",
    "pattern",
    "escape",
)
_LIKE_DYNAMIC = _Body("like(a, b, None, config)")
_LIKE_ESCAPE = _Body("like(a, b, c, config)")


def _declare_like(expr: ast.Like, evaluator: "Evaluator") -> _Node:
    constant = _constant_like(expr)
    if constant is not None:
        node: _Node = (expr.operand,), _LIKE, constant
    elif expr.escape is None:
        node = (expr.operand, expr.pattern), _LIKE_DYNAMIC, ()
    else:
        node = (expr.operand, expr.pattern, expr.escape), _LIKE_ESCAPE, ()
    return _not_if(expr.negated, node)


def _subquery_stream(collection: ast.Expr) -> Optional[Tuple[ast.Query, bool]]:
    """``(query, rows are coerced)`` for an IN collection that is a
    subquery whose values can be probed one at a time, else None."""
    if isinstance(collection, ast.SubqueryExpr):
        return collection.query, False
    if isinstance(collection, ast.CoerceSubquery) and collection.mode == "collection":
        return collection.query, True
    return None


_IN = _Body("in_collection(a, b, config)")
#: A literal single-category IN list (what the OR→IN rewrite emits)
#: probes a precomputed set instead of comparing linearly per row; a
#: string list probes its raw literals.
_IN_STRINGS = _Body(
    "(a in members) if type(a) is str else probe_verdict(a, probe, config)",
    "members",
    "probe",
)
_IN_PROBE = _Body("probe_verdict(a, probe, config)", "probe")


def _declare_in(expr: ast.InPredicate, evaluator: "Evaluator") -> Optional[_Node]:
    if _subquery_stream(expr.collection) is not None:
        return None
    probe = _literal_probe_set(expr.collection)
    if probe is None:
        node: _Node = (expr.operand, expr.collection), _IN, ()
    elif probe[0] == "string":
        members = frozenset(key[1] for key in probe[1])
        node = (expr.operand,), _IN_STRINGS, (members, probe)
    else:
        node = (expr.operand,), _IN_PROBE, (probe,)
    return _not_if(expr.negated, node)


_CALL = _Body("invoke([{args}], config)", "invoke")
_CALL_DISTINCT = _Body("call_distinct(invoke, [{args}], config)", "invoke")
#: Raised per row, without evaluating the arguments: a block without
#: rows must not observe the error.
_FAIL = _Body("fail(message)", "message")
_TUPLE_PART = _Body("tuple_part(a, config)")
_TUPLE_MERGE = _Body("tuple_merge({tuple}, config)")


def _declare_call(expr: ast.FunctionCall, evaluator: "Evaluator") -> _Node:
    if expr.name == "$TUPLE_MERGE":
        parts = tuple(((arg,), _TUPLE_PART, ()) for arg in expr.args)
        return parts, _TUPLE_MERGE, ()
    definition = REGISTRY.lookup(expr.name)
    if definition is None:
        return (), _FAIL, (f"unknown function {expr.name}",)
    if expr.star:
        return (), _FAIL, (f"{expr.name}(*) is only meaningful inside a grouped query",)
    body = _CALL_DISTINCT if expr.distinct and definition.is_aggregate else _CALL
    return tuple(expr.args), body, (definition.invoke,)


#: Constant string keys (the rewriter's SELECT lowering always makes
#: them): one precomputed shape, rebuilt only for a row holding MISSING.
_STRUCT = _Body(
    "trusted(shape, {tuple}) if {present} else literal_struct(shape, {tuple})",
    "shape",
)
_INDEX = _Body("navigate_index(a, b, config)")
_EXISTS = _Body("exists(a, config)")
_CAST = _Body("cast_value(a, target, config)", "target")
_ARRAY = _Body("[item for item in {tuple} if item is not MISSING]")
_BAG = _Body("Bag([item for item in {tuple} if item is not MISSING])")
_PARAMETER = _Body("parameter(owner, index)", "owner", "index")


def _declare_struct(expr: ast.StructLit, evaluator: "Evaluator") -> Optional[_Node]:
    keys = literal_keys(expr)
    if keys is None:
        return None
    values = tuple(field.value for field in expr.fields)
    return values, _STRUCT, (shape_of(tuple(keys)),)


#: Every pointwise kind → its declaration, or None for the variant
#: written by hand (:data:`_HAND_WRITTEN`).  A declaration nested in
#: another (a negated verdict, a ``$TUPLE_MERGE`` part) is its own.
_NODES: Dict[type, Callable[[Any, "Evaluator"], Optional[_Node]]] = {
    ast.Binary: _declare_binary,
    ast.Unary: lambda expr, evaluator: ((expr.operand,), *_operator(expr.op, 1)),
    ast.Index: lambda expr, evaluator: ((expr.base, expr.index), _INDEX, ()),
    ast.IsPredicate: _declare_is,
    ast.Between: _declare_between,
    ast.Like: _declare_like,
    ast.InPredicate: _declare_in,
    ast.Exists: lambda expr, evaluator: (
        None if isinstance(expr.operand, ast.SubqueryExpr)
        else ((expr.operand,), _EXISTS, ())
    ),
    ast.CastExpr: lambda expr, evaluator: ((expr.operand,), _CAST, (expr.type_name,)),
    ast.ArrayLit: lambda expr, evaluator: (tuple(expr.items), _ARRAY, ()),
    ast.BagLit: lambda expr, evaluator: (tuple(expr.items), _BAG, ()),
    ast.StructLit: _declare_struct,
    ast.FunctionCall: _declare_call,
    ast.Parameter: lambda expr, evaluator: ((), _PARAMETER, (evaluator, expr.index)),
    tuple: lambda node, evaluator: node,
}


def compile_expr(expr: ast.Expr, evaluator: "Evaluator") -> CompiledExpr:
    """Compile ``expr`` to the closure the engine evaluates it with.

    Compiling never raises for a node that only fails when evaluated
    (an unknown function, a window call outside SELECT): a block's
    closures are built before its first row, and a block without rows
    must not observe the error.
    """
    declare = _NODES.get(type(expr))
    node = declare(expr, evaluator) if declare is not None else None
    if node is not None:
        children, body, values = node
        return body[len(children)].closure(children, evaluator, values)
    compiler = _HAND_WRITTEN.get(type(expr))
    if compiler is None:
        message = f"cannot evaluate {type(expr).__name__}"
        return lambda env: _raise(message)
    return compiler[0](expr, evaluator)


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


def _compile_in_stream(expr: ast.InPredicate, evaluator: "Evaluator") -> CompiledExpr:
    """IN over a subquery whose values can be probed one at a time."""
    config = evaluator.config
    operand_fn = compile_expr(expr.operand, evaluator)
    collection_fn = compile_expr(expr.collection, evaluator)
    query, coerce_rows = _subquery_stream(expr.collection)  # type: ignore[misc]
    negated = expr.negated

    def contains(env: Environment) -> Any:
        operand = operand_fn(env)
        stream = None
        if operand is not MISSING:
            # Probe the subquery row by row: the first TRUE comparison
            # stops its producers (docs/LANGUAGE.md §8).  A MISSING
            # operand needs the collection fully evaluated for its side
            # conditions, like every shape without a value stream.
            stream = evaluator.open_value_stream(query, env)
        if stream is not None:
            verdict = _in_stream(operand, stream, coerce_rows, config)
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
    """EXISTS over a subquery."""
    config = evaluator.config
    operand_fn = compile_expr(expr.operand, evaluator)
    query = expr.operand.query  # type: ignore[attr-defined]

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


def _compile_struct(expr: ast.StructLit, evaluator: "Evaluator") -> CompiledExpr:
    """A tuple constructor with computed names."""
    config = evaluator.config
    key_fns = [compile_expr(field.key, evaluator) for field in expr.fields]
    value_fns = [compile_expr(field.value, evaluator) for field in expr.fields]

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


# =========================================================================
# Column-at-a-time kernels (the batch pipeline)
# =========================================================================
#
# The batch executor evaluates an expression over a whole chunk of
# binding rows (:class:`repro.core.chunk.Chunk`: one column per
# variable).  Each AST node compiles to a *kernel*
# ``kern(chunk, env) -> column``; a declared node's is its generated
# column form.
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
        declare = _NODES.get(type(expr))
        node = declare(expr, self.evaluator) if declare is not None else None
        if node is not None:
            children, body, values = node
            return body[len(children)].kernel(children, self, values)
        method = _HAND_WRITTEN.get(type(expr), (None, None))[1]
        kernel = method(self, expr) if method is not None else None
        return kernel if kernel is not None else self.fallback(expr)

    def fallback(self, expr: ast.Expr) -> Kernel:
        """Subqueries, windows, wildcards, computed tuple names, names
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

    # -- subqueries over a row's own collection ----------------------------

    def subquery(self, expr: Any) -> Optional[Kernel]:
        """Flatten-and-segment kernel for ``(SELECT VALUE f FROM r.xs AS
        x [, ...] [WHERE g])`` and an EXISTS over it — the one subquery
        shape evaluated for a whole chunk at once, or None (every other
        shape: the env-space fallback, one ``eval_query`` per row, and
        the evaluator's early-terminating stream for EXISTS, as for IN).

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
        exists = isinstance(expr, ast.Exists)
        query = expr.operand.query if exists else expr.query
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
        equals = ops.equals

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
                    verdicts = [
                        equals(s, v, config) for s, v in zip(subjects, verdicts)
                    ]
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


#: The kinds written by hand (module docstring), and the variants their
#: declaration in :data:`_NODES` leaves here: kind → its row-closure
#: compiler and its kernel method (None, or a method that returns None:
#: the env-space fallback).  The exhaustiveness test in
#: tests/properties/test_compile_equivalence.py holds this, the node
#: table and the reference interpreter's dispatch against the AST.
_HAND_WRITTEN: Dict[type, Tuple[Callable[..., CompiledExpr], Any]] = {
    ast.Literal: (_compile_literal, _KernelCompiler.literal),
    ast.VarRef: (_compile_var_ref, _KernelCompiler.var_ref),
    ast.Path: (_compile_path, _KernelCompiler.path),
    ast.PathWildcard: (_compile_path_wildcard, None),
    ast.CaseExpr: (_compile_case, _KernelCompiler.case),
    ast.WindowCall: (_compile_window_call, None),
    ast.SubqueryExpr: (_compile_subquery, _KernelCompiler.subquery),
    ast.CoerceSubquery: (_compile_coerce, None),
    ast.InPredicate: (_compile_in_stream, None),
    ast.Exists: (_compile_exists, _KernelCompiler.subquery),
    ast.StructLit: (_compile_struct, None),
}
