"""``compare`` verdicts on synthetic result files."""

import json

import compare

BOUNDS = {
    "latency_p50_ms": ("lower", 0.10),
    "ops_per_s": ("higher", 0.10),
}


def _document(latency, ops, error_rate=0.0, layer=1.0):
    return {
        "workloads": {
            "w": {
                "end_to_end": {
                    "latency_p50_ms": {
                        "value": latency[1], "unit": "ms", "rounds": list(latency),
                    },
                    "ops_per_s": {"value": ops[1], "unit": "1/s", "rounds": list(ops)},
                },
                "error_rate": error_rate,
                "per_layer": {"core.evaluator.execute_ms": {"value": layer, "unit": "ms"}},
            }
        }
    }


def _verdicts(a, b):
    lines, reject = compare.compare(a, b, BOUNDS)
    words = {
        line.split()[1]: line.split()[-1]
        for line in lines if line.startswith("w ")
    }
    return words, reject, lines


BASE = _document((9.9, 10.0, 10.1), (99.0, 100.0, 101.0))


def test_same_numbers_are_ok():
    words, reject, _ = _verdicts(BASE, BASE)
    assert words == {"latency_p50_ms": "ok", "ops_per_s": "ok"} and not reject


def test_worse_beyond_the_bound_is_regressed_in_the_metrics_direction():
    slower = _document((11.9, 12.0, 12.1), (79.0, 80.0, 81.0), layer=1.3)
    words, reject, lines = _verdicts(BASE, slower)
    assert words == {"latency_p50_ms": "regressed", "ops_per_s": "regressed"}
    assert reject
    assert any("core.evaluator.execute_ms" in line and "+30.0%" in line for line in lines)


def test_better_beyond_the_bound_is_improved():
    faster = _document((7.9, 8.0, 8.1), (124.0, 125.0, 126.0))
    words, reject, _ = _verdicts(BASE, faster)
    assert words == {"latency_p50_ms": "improved", "ops_per_s": "improved"}
    assert not reject


def test_spread_wider_than_the_bound_is_unresolved_never_ok():
    noisy = _document((8.0, 10.0, 13.0), (99.0, 100.0, 101.0))
    words, reject, _ = _verdicts(BASE, noisy)
    assert words["latency_p50_ms"] == "unresolved" and words["ops_per_s"] == "ok"
    assert not reject


def test_a_higher_error_rate_rejects(tmp_path, capsys, monkeypatch):
    failing = _document((9.9, 10.0, 10.1), (99.0, 100.0, 101.0), error_rate=0.01)
    (tmp_path / "a.json").write_text(json.dumps(BASE))
    (tmp_path / "b.json").write_text(json.dumps(failing))
    monkeypatch.setattr(compare, "load_bounds", lambda: BOUNDS)
    assert compare.main(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 1
    assert "error_rate" in capsys.readouterr().out
    assert compare.main(str(tmp_path / "a.json"), str(tmp_path / "a.json")) == 0
