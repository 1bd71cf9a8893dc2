"""The run protocol: rounds in fresh child processes, aggregated by the
parent.

A *round* is one child process (``PYTHONHASHSEED=0``, one load thread, GC
on): set-up -> warm-up -> oracles and the three-way agreement check ->
``gc.collect()`` -> measured passes over the workload's op list until the
round's share of ``--seconds`` is used.  A run is ``ROUNDS`` rounds per
workload, scheduled round-robin across the selected workloads so a slow
phase of the shared machine is spread over all of them.  Timing metrics
are computed per round and reported as the median of the round values;
``latency_p90_ms`` is taken over the pooled ops of all rounds.

Machine speed here flips between a fast and a 15-25% slower state every
few tens of seconds (README.md, "Noise").  So every time is reported at a
reference speed (:mod:`speed`): a short fixed pure-Python loop is timed
beside the work, at least every ``PROBE_EVERY_S``, and each duration is
scaled by ``REFERENCE_MS / probe``.  ``harness.calibration_ms`` reports the
probe itself, so the wall time as measured is ``value * calibration_ms /
REFERENCE_MS``.

A traced run is one untraced and one traced round per workload: the traced
round installs the span recorder (:mod:`layers`) and runs the extra
sections that fill the per-layer catalogue; the difference between the
two rounds is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import layers
import workloads
from speed import PROBE_EVERY_S, at_reference_speed, probe, speed_factor
from workloads import HERE, OUT, REPO, SRC

SCHEMA = "repro-layered-bench/1"
ROUNDS = 3
#: Hard stop for one child process, below the driver's 180 s.
CHILD_TIMEOUT_S = 170

END_TO_END = ("latency_p50_ms", "latency_p90_ms", "ops_per_s", "setup_s", "peak_rss_mb")
UNITS = {
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "ops_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def benchmark_json() -> Dict[str, Any]:
    """The repo's BENCHMARK.json: workload names, run length, bounds."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def spread(values: Sequence[float]) -> float:
    """Interquartile range of a few round values as a share of their
    median (0 for < 2 values).  Inclusive quartiles: with three rounds
    they are the midpoints, not the extremes."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# One round (child process)
# ---------------------------------------------------------------------------


def run_round(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one round in this process and return its measurements."""
    started = perf_counter()
    factors = [speed_factor()]
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[spec["workload"]](spec["seed"])
    try:
        workload.setup()
        factors.append(speed_factor())
        workload.set_seconds *= factors[-1]
        workload.warm_up()
        factors.append(speed_factor())
        setup_s = (perf_counter() - started) * statistics.mean(factors)
        workload.prepare()
        workload.precheck()
        gc.collect()
        return _measure(workload, spec, setup_s)
    finally:
        workload.close()


def _measure(workload: Any, spec: Dict[str, Any], setup_s: float) -> Dict[str, Any]:
    traced, smoke, budget = spec["traced"], spec["smoke"], spec["seconds"]
    recorder = None
    tallies = layers.new_tallies()
    if traced:
        recorder = layers.SpanRecorder()
        layers.install(recorder)
    ops = workload.ops
    runs = [recorder.wrap("op", op.run) if recorder else op.run for op in ops]
    names: List[str] = []
    starts: List[float] = []
    raw: List[float] = []
    failed = passes = rows_in = 0
    clock = perf_counter
    probe_times = [clock()]
    probe_values = [probe()]
    began = probed = clock()
    while True:
        workload.begin_pass()
        full = passes == 0
        for op, run in zip(ops, runs):
            if recorder is not None:
                recorder.op_id = len(raw)
            raised: Optional[BaseException] = None
            result = None
            start = clock()
            try:
                result = run()
            except Exception as exc:  # judged by op.correct, never dropped
                raised = exc
            end = clock()
            starts.append(start)
            raw.append(end - start)
            names.append(op.name)
            if not op.correct(result, raised, full):
                failed += 1
            if traced:
                rows_in += op.rows_in
                if op.kind == "query":
                    layers.tally(tallies, op.db.metrics.last)
            if end - probed >= PROBE_EVERY_S:
                probed = clock()
                probe_times.append(probed)
                probe_values.append(probe())
        passes += 1
        if smoke or clock() - began >= budget:
            break
    probe_times.append(clock())
    probe_values.append(probe())
    latencies = at_reference_speed(starts, raw, probe_times, probe_values)
    attempted = len(latencies)
    measured_s = sum(latencies)
    by_name: Dict[str, List[float]] = {}
    for name, latency in zip(names, latencies):
        by_name.setdefault(name, []).append(latency)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if ops[0].kind == "cli" else resource.RUSAGE_SELF
    )
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(sorted(latencies), 0.9) * 1e3,
        "ops_per_s": attempted / measured_s,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "latencies_us": [round(value * 1e6, 2) for value in latencies],
        "op_p50_ms": {
            name: statistics.median(values) * 1e3 for name, values in by_name.items()
        },
        "calibration_ms": statistics.median(probe_values),
        "wall_latency_p50_ms": statistics.median(raw) * 1e3,
    }
    if recorder is not None:
        # Span times are wall times; bring them to reference speed with
        # the round's overall factor.
        factor = measured_s / sum(raw)
        measured = layers.op_layers(
            recorder, attempted, sum(raw), rows_in, tallies, factor
        )
        measured.update(layers.compile_section(recorder, workload, speed_factor()))
        measured.update(layers.setup_section(workload, speed_factor()))
        measured.update(layers.kernel_section(speed_factor()))
        store_ms = layers.observability_section(workload) * speed_factor()
        measured["observability.query_store.overhead_ms"] = store_ms
        measured["observability.share"] = (
            (store_ms + measured["observability.metrics.record_ms"])
            / (measured_s / attempted * 1e3)
        )
        measured.update(workload.extra_layers(out["op_p50_ms"]))
        out["layers"] = measured
        _write_trace(workload.name, recorder, spec)
    return out


def _write_trace(name: str, recorder: Any, spec: Dict[str, Any]) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace.{name}.json"
    spans = [span for span in recorder.spans if span is not None]
    origin = spans[0][1] if spans else 0.0
    payload = {
        "schema": SCHEMA,
        "workload": name,
        "seed": spec["seed"],
        "columns": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [
            (name, round(start - origin, 7), round(end - origin, 7), parent, op)
            for name, start, end, parent, op in spans
        ],
    }
    path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# A run (parent process)
# ---------------------------------------------------------------------------


def _child(spec: Dict[str, Any]) -> Dict[str, Any]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--round", json.dumps(spec)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"round of {spec['workload']} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def run(
    names: Sequence[str], seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Dict[str, Any]:
    """Run the named workloads and return the result document."""
    if trace:
        plan = [(False, seconds / 2), (True, seconds / 2)]
    else:
        rounds = 1 if smoke else ROUNDS
        plan = [(False, seconds / rounds)] * rounds
    rounds_of: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for traced, share in plan:
        for name in names:
            spec = {
                "workload": name, "seed": seed, "seconds": share,
                "traced": traced, "smoke": smoke,
            }
            rounds_of[name].append(_child(spec))
    return {
        "schema": SCHEMA,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "workloads": {
            name: _aggregate(rounds, trace) for name, rounds in rounds_of.items()
        },
    }


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(REPO), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _aggregate(rounds: List[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    untraced = rounds[:1] if trace else rounds
    pooled = sorted(value for r in untraced for value in r["latencies_us"])
    end_to_end = {}
    for metric in END_TO_END:
        values = [r[metric] for r in untraced]
        end_to_end[metric] = {
            "value": statistics.median(values), "unit": UNITS[metric], "rounds": values,
        }
    # The p90 needs the sample count only the pooled ops have; the round
    # values stay beside it to show its spread.
    end_to_end["latency_p90_ms"].update(
        value=percentile(pooled, 0.9) / 1e3, samples=len(pooled)
    )
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    out: Dict[str, Any] = {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "passes": [r["passes"] for r in rounds],
        "calibration_ms": [r["calibration_ms"] for r in rounds],
        # The median op time as the clock read it, before scaling.
        "wall_latency_p50_ms": [r["wall_latency_p50_ms"] for r in rounds],
    }
    if trace:
        plain, traced = rounds
        measured = dict(traced["layers"])
        for name, value in plain["op_p50_ms"].items():
            measured[f"op.{name}.p50_ms"] = value
        measured["harness.calibration_ms"] = statistics.median(out["calibration_ms"])
        measured["harness.tracing_overhead_pct"] = (
            (traced["latency_p50_ms"] - plain["latency_p50_ms"])
            / plain["latency_p50_ms"] * 100
        )
        # A layer this workload never enters costs it nothing: 0.
        out["per_layer"] = {
            layer.name: {"value": measured.get(layer.name, 0.0), "unit": layer.unit}
            for layer in layers.LAYERS
        }
    return out
