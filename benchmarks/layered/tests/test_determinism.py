"""Same seed, same inputs and same exact counts; another seed, other
inputs.  Run by explicit path (tier-1 ``testpaths`` does not include it):

    PYTHONPATH=src python -m pytest benchmarks/layered/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import oracles
import workloads

HARNESS = Path(__file__).resolve().parents[1]
REPO = HARNESS.parents[1]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(HARNESS / "run.py"), *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_per_seed_and_differ_across_seeds(name):
    first = workloads.generated_inputs(name, 11)
    assert first == workloads.generated_inputs(name, 11)
    assert first != workloads.generated_inputs(name, 12)


def test_digest_ignores_row_and_key_order_unless_ordered():
    rows = [{"a": 1, "b": [1, 2]}, {"a": 2.0, "b": oracles.BagOf([3, 4])}]
    shuffled = [{"b": oracles.BagOf([4, 3]), "a": 2}, {"b": [1, 2], "a": 1.0}]
    assert oracles.digest(rows, False) == oracles.digest(shuffled, False)
    assert oracles.digest(rows, True) != oracles.digest(shuffled, True)
    assert oracles.digest(rows, False) != oracles.digest(rows[:1], False)


@pytest.mark.parametrize("name", ["kit_cold", "batch_analytics"])
def test_exact_counts_repeat(name):
    """Token/node/fired/fold counts and the path shares of a traced round
    are identical from one process to the next."""
    spec = json.dumps({
        "workload": name, "seed": 5, "seconds": 0.1, "traced": True, "smoke": True,
    })
    first = _run("--round", spec)
    second = _run("--round", spec)
    assert first["failed"] == second["failed"] == 0
    assert first["attempted"] == second["attempted"]
    for metric in layers.EXACT:
        assert first["layers"][metric] == second["layers"][metric], metric
    assert first["layers"]["syntax.lexer.tokens"] > 0


def test_driver_command_prints_the_contract_line():
    last = _run("--workload", "kit_warm", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: entry["unit"] for name, entry in last["metrics"].items()} == declared
    assert all(entry["value"] > 0 for entry in last["metrics"].values())


def test_benchmark_json_matches_the_harness():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCHMARK["workloads"])
    assert BENCHMARK["per_layer"] == [
        {"name": layer.name, "unit": layer.unit, "better": layer.better}
        for layer in layers.LAYERS
    ]
    assert len(BENCHMARK["per_layer"]) <= 128
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert any(
        metric["name"] == "setup_s" and metric["unit"] == "s"
        and metric["better"] == "lower"
        for metric in BENCHMARK["end_to_end"]
    )
    # One op.<template>.p50_ms per template of workloads 3-6, plus insert.
    templates = {
        t.name
        for group in (workloads.BATCH_TEMPLATES, workloads.NESTED_TEMPLATES,
                      workloads.STRICT_TEMPLATES, workloads.DASHBOARD_TEMPLATES)
        for t in group
    } | {"insert"}
    assert templates == set(layers.OP_NAMES)
