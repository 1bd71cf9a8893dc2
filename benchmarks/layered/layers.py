"""Per-layer metrics: the catalogue, the span recorder, and the sections
of a traced round that fill the catalogue in.

Layers are measured from outside.  :func:`install` wraps the public
function each layer is entered through (``tokenize``, ``parse``,
``rewrite_query``, ``apply_rules``, ``fold_query``, ``plan_block``,
``Evaluator.execute``, ``MetricsRegistry.record`` and the ``Database``
methods) with a span; nothing inside ``src/`` knows it is being timed.
A layer's cost is its spans' *self* time: duration minus the part its
child spans cover.

``LAYERS`` is the single list of per-layer metric names.  ``moves`` and
``on`` record the prediction made before measuring: which end-to-end
metric the layer metric should move, on which workloads; everywhere else
the prediction is "flat".
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from speed import speed_factor

# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    on: Tuple[str, ...]


QUERY_WORKLOADS = ("batch_analytics", "nested_streaming", "strict_nested")
DATA_WORKLOADS = QUERY_WORKLOADS + ("ingest_query",)
ALL_WORKLOADS = ("kit_cold", "kit_warm") + DATA_WORKLOADS + ("cli_cold_start",)

#: Templates of workloads 3-6 (strict_nested shares nested_streaming's
#: names), plus ``insert``: one ``op.<name>.p50_ms`` each.
OP_NAMES = (
    "filter", "group_lo", "group_hi", "join", "join_group", "absent", "or_in",
    "exists_semi", "decorrelate", "case_arith", "distinct", "order_full",
    "prune_empty",
    "unnest", "unnest_group", "group_as", "topk", "limit_early",
    "exists_nested", "nested_select", "unpivot", "hetero_group", "hetero_tags",
    "window_rank", "construct",
    "stop_on_error",
    "count_by_kind", "avg_latency", "top_latency", "tags_count", "insert",
)


def _compile(name: str, unit: str, better: str = "lower") -> Layer:
    return Layer(name, unit, better, "latency_p50_ms", ("kit_cold",))


LAYERS: Tuple[Layer, ...] = (
    # Compile pipeline, per op: moves kit_cold, flat on kit_warm and 3-5.
    _compile("syntax.lexer.tokenize_ms", "ms"),
    _compile("syntax.lexer.tokens", "count"),
    _compile("syntax.parser.parse_ms", "ms"),
    _compile("syntax.parser.ast_nodes", "count"),
    _compile("core.rewriter.rewrite_ms", "ms"),
    _compile("core.rewriter.core_nodes", "count"),
    _compile("core.rewrite_rules.apply_ms", "ms"),
    _compile("core.rewrite_rules.fired", "count", "higher"),
    _compile("analysis.absint.fold_ms", "ms"),
    _compile("analysis.absint.folds", "count", "higher"),
    _compile("core.planner.plan_ms", "ms"),
    _compile("core.planner.planned_share", "fraction", "higher"),
    _compile("catalog.database.compile_miss_ms", "ms"),
    _compile("catalog.database.compile_hit_ms", "ms"),
    _compile("catalog.database.cache_hit_rate", "fraction", "higher"),
    _compile("catalog.database.construct_ms", "ms"),
    _compile("catalog.database.compile_share", "fraction"),
    # Execution: moves 3, 4, 5 (and the query half of 6).
    Layer("core.evaluator.execute_ms", "ms", "lower", "latency_p50_ms", DATA_WORKLOADS),
    Layer("core.evaluator.krows_per_s", "krow/s", "higher", "ops_per_s", DATA_WORKLOADS),
    Layer("core.vectorized.batched_share", "fraction", "higher", "ops_per_s",
          ("batch_analytics",)),
    Layer("core.evaluator.streamed_share", "fraction", "lower", "ops_per_s",
          ("nested_streaming", "strict_nested")),
    Layer("core.evaluator.reference_share", "fraction", "lower", "ops_per_s",
          ("nested_streaming", "strict_nested")),
    Layer("core.parallel.fanout_overhead_ms", "ms", "lower", "latency_p50_ms",
          ("batch_analytics",)),
) + tuple(
    Layer(f"op.{name}.p50_ms", "ms", "lower", "ops_per_s", DATA_WORKLOADS)
    for name in OP_NAMES
) + (
    # Per-call overhead and observability: moves kit_warm, <1% on 3-5.
    Layer("catalog.database.call_overhead_ms", "ms", "lower", "latency_p50_ms",
          ("kit_warm",)),
    Layer("observability.query_store.overhead_ms", "ms", "lower", "latency_p50_ms",
          ("kit_warm",)),
    Layer("observability.metrics.record_ms", "ms", "lower", "latency_p50_ms",
          ("kit_warm",)),
    Layer("observability.share", "fraction", "lower", "latency_p50_ms",
          ("kit_warm",)),
    # Set-up and invalidation.
    Layer("catalog.database.set_ms_per_krow", "ms/krow", "lower", "setup_s",
          ALL_WORKLOADS),
    Layer("datamodel.convert.from_python_ms_per_krow", "ms/krow", "lower", "setup_s",
          ALL_WORKLOADS),
    Layer("catalog.statistics.collect_ms", "ms", "lower", "latency_p50_ms",
          ("ingest_query",)),
    # Kernels (tight loops, min of 5 repeats).
    Layer("core.compile_expr.batch_ns_per_row", "ns", "lower", "ops_per_s",
          ("batch_analytics",)),
    Layer("functions.operators.compare_ns", "ns", "lower", "ops_per_s",
          ("batch_analytics",)),
    Layer("functions.operators.arith_ns", "ns", "lower", "ops_per_s",
          ("batch_analytics",)),
    Layer("datamodel.equality.group_key_ns", "ns", "lower", "ops_per_s",
          ("batch_analytics",)),
    Layer("core.environment.lookup_ns", "ns", "lower", "ops_per_s",
          ("nested_streaming", "strict_nested")),
    Layer("core.environment.extend_ns", "ns", "lower", "ops_per_s",
          ("nested_streaming", "strict_nested")),
    Layer("core.compile_expr.row_call_ns", "ns", "lower", "ops_per_s",
          ("nested_streaming", "strict_nested")),
    Layer("datamodel.ordering.sort_key_ns", "ns", "lower", "ops_per_s",
          ("nested_streaming", "strict_nested")),
    Layer("datamodel.equality.deep_equals_ns", "ns", "lower", "ops_per_s",
          ("nested_streaming", "strict_nested")),
    # CLI: cli_cold_start only.
    Layer("cli.interpreter_ms", "ms", "lower", "latency_p50_ms", ("cli_cold_start",)),
    Layer("cli.import_ms", "ms", "lower", "latency_p50_ms", ("cli_cold_start",)),
    Layer("formats.json.load_ms", "ms", "lower", "latency_p50_ms", ("cli_cold_start",)),
    Layer("cli.first_query_ms", "ms", "lower", "latency_p50_ms", ("cli_cold_start",)),
    # Harness.
    Layer("harness.calibration_ms", "ms", "lower", "-", ()),
    Layer("harness.tracing_overhead_pct", "%", "lower", "-", ()),
)

#: Counts and path shares that must repeat exactly from run to run.
EXACT = (
    "syntax.lexer.tokens", "syntax.parser.ast_nodes", "core.rewriter.core_nodes",
    "core.rewrite_rules.fired", "analysis.absint.folds",
    "core.planner.planned_share", "catalog.database.cache_hit_rate",
    "core.vectorized.batched_share", "core.evaluator.streamed_share",
    "core.evaluator.reference_share",
)


# ---------------------------------------------------------------------------
# Span recorder
# ---------------------------------------------------------------------------

Span = Tuple[str, float, float, int, int]  # name, start, end, parent, op id


class SpanRecorder:
    """In-memory spans: name, start, end, the span that caused it and the
    id of the op they belong to.  Written out when the round ends."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.op_id = -1
        #: When true, wrapped functions also count their result's size
        #: (tokens, nodes, fired rules) into ``counts``.
        self.counting = False
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Optional[Callable[[Any], int]] = None,
    ) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if count is not None and self.counting:
                self.counts[name] = self.counts.get(name, 0) + count(result)
            return result

        return traced

    def self_times(self) -> Dict[str, float]:
        """``name -> total self seconds`` over the spans under an ``op``
        span: each span's duration minus the part of it its child spans
        cover.  Spans outside an op (result checks, the sections that
        follow the measured loop) are not an op's cost."""
        spans = self.spans
        covered = [0.0] * len(spans)
        in_op = [False] * len(spans)
        totals: Dict[str, float] = {}
        for index, span in enumerate(spans):  # parents precede children
            if span is None:
                continue
            name, start, end, parent, _ = span
            in_op[index] = name == "op" or (parent >= 0 and in_op[parent])
            if parent >= 0:
                covered[parent] += end - start
        for index, span in enumerate(spans):
            if span is not None and in_op[index]:
                own = (span[2] - span[1]) - covered[index]
                totals[span[0]] = totals.get(span[0], 0.0) + own
        return totals


def _nodes(tree: Any) -> int:
    return sum(1 for _ in tree.walk())


#: (module, attribute path, span name, result counter).
PATCHES: Tuple[Tuple[str, str, str, Optional[Callable[[Any], int]]], ...] = (
    ("repro.syntax.parser", "tokenize", "syntax.lexer.tokenize", len),
    ("repro.catalog.database", "parse", "syntax.parser.parse", _nodes),
    ("repro.catalog.database", "rewrite_query", "core.rewriter.rewrite", _nodes),
    ("repro.core.rewrite_rules", "apply_rules", "core.rewrite_rules.apply",
     lambda result: len(result[1])),
    ("repro.analysis.absint", "fold_query", "analysis.absint.fold",
     lambda result: result[1]),
    ("repro.core.planner", "plan_block", "core.planner.plan", None),
    ("repro.core.evaluator", "Evaluator.execute", "core.evaluator.execute", None),
    ("repro.observability.metrics", "MetricsRegistry.record",
     "observability.metrics.record", None),
    ("repro.catalog.database", "Database.__init__", "catalog.database.construct", None),
    ("repro.catalog.database", "Database.set", "catalog.database.set", None),
    ("repro.catalog.database", "Database.insert", "catalog.database.insert", None),
    ("repro.catalog.database", "Database.compile", "catalog.database.compile", None),
    ("repro.catalog.database", "Database.execute", "catalog.database.execute", None),
)

COMPILE_STAGES = (
    "syntax.lexer.tokenize", "syntax.parser.parse", "core.rewriter.rewrite",
    "core.rewrite_rules.apply", "analysis.absint.fold", "core.planner.plan",
)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point with a span (this process only)."""
    for module_name, path, span_name, count in PATCHES:
        owner: Any = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        setattr(owner, attribute, recorder.wrap(span_name, getattr(owner, attribute), count))


# ---------------------------------------------------------------------------
# Sections of a traced round
# ---------------------------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def op_layers(
    recorder: SpanRecorder, ops: int, op_seconds: float,
    rows_in: int, tallies: Dict[str, int], factor: float,
) -> Dict[str, float]:
    """Per-op layer costs from the spans recorded so far (the measured
    ops); ``factor`` brings their wall times to reference speed."""
    totals = recorder.self_times()

    def per_op(name: str) -> float:
        return _ms(totals.get(name, 0.0)) * factor / ops

    queries = max(tallies["queries"], 1)
    execute_s = totals.get("core.evaluator.execute", 0.0)
    compile_s = sum(totals.get(name, 0.0) for name in COMPILE_STAGES)
    return {
        "syntax.lexer.tokenize_ms": per_op("syntax.lexer.tokenize"),
        "syntax.parser.parse_ms": per_op("syntax.parser.parse"),
        "core.rewriter.rewrite_ms": per_op("core.rewriter.rewrite"),
        "core.rewrite_rules.apply_ms": per_op("core.rewrite_rules.apply"),
        "analysis.absint.fold_ms": per_op("analysis.absint.fold"),
        "core.planner.plan_ms": per_op("core.planner.plan"),
        "catalog.database.compile_share": compile_s / op_seconds,
        "core.evaluator.execute_ms": per_op("core.evaluator.execute"),
        "core.evaluator.krows_per_s": (
            rows_in / 1e3 / (execute_s * factor) if execute_s > 0 else 0.0
        ),
        "catalog.database.call_overhead_ms": per_op("catalog.database.execute"),
        "observability.metrics.record_ms": per_op("observability.metrics.record"),
        "core.planner.planned_share": tallies["planned"] / queries,
        "catalog.database.cache_hit_rate": tallies["cache_hits"] / queries,
        "core.vectorized.batched_share": tallies["batched"] / queries,
        "core.evaluator.streamed_share": tallies["streamed"] / queries,
        "core.evaluator.reference_share": tallies["reference"] / queries,
    }


def new_tallies() -> Dict[str, int]:
    return dict.fromkeys(
        ("queries", "planned", "cache_hits", "batched", "streamed", "reference"), 0
    )


def tally(tallies: Dict[str, int], record: Any) -> None:
    """Fold one op's ``QueryMetrics`` record into the path counts."""
    tallies["queries"] += 1
    if record.cache_hit:
        tallies["cache_hits"] += 1
    if record.plan_hash not in (None, "reference"):
        tallies["planned"] += 1
    if record.batched:
        tallies["batched"] += 1
    elif record.streamed:
        tallies["streamed"] += 1
    else:
        tallies["reference"] += 1


def compile_section(
    recorder: SpanRecorder, workload: Any, factor: float
) -> Dict[str, float]:
    """Whole ``db.compile`` on a miss and on a hit, ``Database()``
    construction, and the exact size counts of every stage's output."""
    from repro.errors import SQLPPError

    mark = len(recorder.spans)
    misses: List[float] = []
    hits: List[float] = []
    cases = workload.compile_cases()
    for make_db, sql in cases:
        db = make_db(True)
        try:
            started = perf_counter()
            db.compile(sql)
            middle = perf_counter()
            db.compile(sql)
            hits.append(perf_counter() - middle)
            misses.append(middle - started)
        except SQLPPError:
            continue  # an expected-error case of the kit
    constructs = [
        span[2] - span[1]
        for span in recorder.spans[mark:]
        if span is not None and span[0] == "catalog.database.construct"
    ]
    recorder.counting = True
    try:
        for make_db, sql in cases:
            try:
                make_db(True).compile(sql)
            except SQLPPError:
                continue
    finally:
        recorder.counting = False
    counts = recorder.counts
    return {
        "catalog.database.compile_miss_ms": _ms(_mean(misses)) * factor,
        "catalog.database.compile_hit_ms": _ms(_mean(hits)) * factor,
        "catalog.database.construct_ms": _ms(_mean(constructs)) * factor,
        "syntax.lexer.tokens": counts.get("syntax.lexer.tokenize", 0),
        "syntax.parser.ast_nodes": counts.get("syntax.parser.parse", 0),
        "core.rewriter.core_nodes": counts.get("core.rewriter.rewrite", 0),
        "core.rewrite_rules.fired": counts.get("core.rewrite_rules.apply", 0),
        "analysis.absint.folds": counts.get("analysis.absint.fold", 0),
    }


def observability_section(workload: Any) -> float:
    """Per-call cost of the query store in ms: the same queries on paired
    databases with the store on and off, interleaved call by call."""
    from repro.errors import SQLPPError

    differences: List[float] = []
    for make_db, sql in workload.compile_cases():
        with_store, without = make_db(True), make_db(False)
        try:
            for _ in range(2):
                with_store.execute(sql)
                without.execute(sql)
        except SQLPPError:
            continue
        on: List[float] = []
        off: List[float] = []
        for _ in range(15):
            started = perf_counter()
            with_store.execute(sql)
            middle = perf_counter()
            without.execute(sql)
            off.append(perf_counter() - middle)
            on.append(middle - started)
        differences.append(statistics.median(on) - statistics.median(off))
    return _ms(_mean(differences))


def setup_section(workload: Any, factor: float) -> Dict[str, float]:
    from repro.catalog.statistics import collect_stats
    from repro.datamodel.convert import from_python

    name, rows = workload.main_collection()
    started = perf_counter()
    model = from_python(rows)
    convert_s = perf_counter() - started
    collect_s = _best(lambda: collect_stats(name, model), repeats=3, calls=1)
    krows = max(len(rows), 1) / 1e3
    return {
        "datamodel.convert.from_python_ms_per_krow": _ms(convert_s) * factor / krows,
        "catalog.statistics.collect_ms": collect_s * 1e-6 * factor,
        "catalog.database.set_ms_per_krow": (
            _ms(workload.set_seconds) / (max(workload.set_rows, 1) / 1e3)
        ),
    }


def _best(fn: Callable[[], Any], repeats: int = 5, calls: int = 1) -> float:
    """Nanoseconds per call: the fastest of ``repeats`` timed batches."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        fn()
        best = min(best, perf_counter() - started)
    return best * 1e9 / calls


def kernel_section(factor: float) -> Dict[str, float]:
    """The tight loops everything sits on, in ns per call."""
    from repro.config import EvalConfig
    from repro.core.compile_expr import compile_batch
    from repro.core.environment import Environment
    from repro.core.evaluator import Evaluator
    from repro.datamodel.convert import from_python
    from repro.datamodel.equality import deep_equals, group_key
    from repro.datamodel.ordering import sort_key
    from repro.functions import operators as ops
    from repro.syntax.parser import parse_expression

    config = EvalConfig()
    evaluator = Evaluator({}, config)
    expr = parse_expression("o.total > 250 AND o.qty >= 3")
    rows = [
        {"o": from_python({"oid": i, "total": (i * 37) % 500, "qty": i % 8 + 1})}
        for i in range(2_000)
    ]
    root = Environment()
    batch = compile_batch(expr, evaluator, frozenset({"o"}))
    row_fn = evaluator.compiled(expr)
    envs = [root.extend(row) for row in rows]
    deep = Environment({"a": 1}).extend({"b": 2}).extend({"c": 3})
    binding = {"o": rows[0]["o"]}
    values = [1, 2.5, "north", None, True, 17, "x", 3.25] * 250
    left = from_python({"id": 1, "tags": ["a", "b"], "user": {"id": 7, "plan": "pro"}})
    right = from_python({"id": 1, "tags": ["a", "b"], "user": {"id": 7, "plan": "pro"}})
    numbers = [(i, i + 3) for i in range(2_000)]
    n = 2_000

    def compare_loop() -> None:
        compare = ops.compare
        for a, b in numbers:
            compare(">", a, b, config)

    def arith_loop() -> None:
        arithmetic = ops.arithmetic
        for a, b in numbers:
            arithmetic("+", a, b, config)

    def lookup_loop() -> None:
        lookup = deep.lookup
        for _ in range(n):
            lookup("a")

    def extend_loop() -> None:
        extend = root.extend
        for _ in range(n):
            extend(binding)

    def deep_equals_loop() -> None:
        for _ in range(n):
            deep_equals(left, right)

    kernels = {
        "core.compile_expr.batch_ns_per_row": _best(lambda: batch(rows, root), calls=n),
        "core.compile_expr.row_call_ns": _best(
            lambda: [row_fn(env) for env in envs], calls=n
        ),
        "functions.operators.compare_ns": _best(compare_loop, calls=n),
        "functions.operators.arith_ns": _best(arith_loop, calls=n),
        "datamodel.equality.group_key_ns": _best(
            lambda: [group_key(value) for value in values], calls=n
        ),
        "datamodel.ordering.sort_key_ns": _best(
            lambda: [sort_key(value) for value in values], calls=n
        ),
        "datamodel.equality.deep_equals_ns": _best(deep_equals_loop, calls=n),
        "core.environment.lookup_ns": _best(lookup_loop, calls=n),
        "core.environment.extend_ns": _best(extend_loop, calls=n),
    }
    return {name: value * factor for name, value in kernels.items()}


def fanout_overhead_ms(db: Any, sql: str) -> float:
    """``parallel=2`` minus serial on one query, interleaved.  On two
    cores or fewer this is overhead; it is tracked, not gated."""
    serial: List[float] = []
    fanned: List[float] = []
    for _ in range(3):
        started = perf_counter()
        db.execute(sql)
        middle = perf_counter()
        db.execute(sql, parallel=2)
        fanned.append(perf_counter() - middle)
        serial.append(middle - started)
    return _ms(statistics.median(fanned) - statistics.median(serial)) * speed_factor()


def cli_layers(workload: Any, op_p50_ms: float) -> Dict[str, float]:
    """Where a CLI cold start goes: interpreter, ``import repro``, the
    JSON loader, and the residual first query."""
    from repro.formats.registry import read_file

    def spawn(code: str) -> float:
        times = []
        for _ in range(5):
            started = perf_counter()
            subprocess.run(
                [sys.executable, "-c", code], env=workload.env, check=True,
                timeout=60,
            )
            times.append(perf_counter() - started)
        return _ms(statistics.median(times))

    factor = speed_factor()
    interpreter = spawn("pass") * factor
    imported = spawn("import repro.cli") * factor - interpreter
    load = _best(lambda: read_file(str(workload.path))) * 1e-6 * factor
    return {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported,
        "formats.json.load_ms": load,
        "cli.first_query_ms": op_p50_ms - interpreter - imported - load,
    }
