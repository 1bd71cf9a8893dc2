"""``run.py compare A.json B.json``: did B get worse than A?

One row per (end-to-end metric, workload) with both medians, the change,
the bound from ``BENCHMARK.json``, the noise (the wider of the two sides'
round spreads: interquartile range / median) and a verdict:

``regressed``   B is worse than A by more than the bound
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the pair cannot be judged (never "unchanged")
``improved``    B is better than A by more than the bound
``ok``          anything else

Per-layer changes follow, so a moved end-to-end number names its layer.
Exit status 1 on any ``regressed`` row or a higher error rate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from harness import benchmark_json, spread

#: A per-layer change smaller than this share is not listed.
LAYER_NOISE = 0.05


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` from the repo's BENCHMARK.json."""
    return {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in benchmark_json()["end_to_end"]
    }


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float
) -> Tuple[str, float, float]:
    """``(verdict, worsening, noise)``; worsening > 0 means B is worse."""
    change = (b["value"] - a["value"]) / a["value"]
    worsening = change if better == "lower" else -change
    noise = max(spread(a["rounds"]), spread(b["rounds"]))
    if noise > bound:
        return "unresolved", worsening, noise
    if worsening > bound:
        return "regressed", worsening, noise
    if worsening < -bound:
        return "improved", worsening, noise
    return "ok", worsening, noise


def compare(
    a: Dict[str, Any], b: Dict[str, Any], bounds: Dict[str, Tuple[str, float]]
) -> Tuple[List[str], bool]:
    """Report lines and whether B must be rejected."""
    lines: List[str] = []
    reject = False
    header = (
        f"{'workload':<18}{'metric':<16}{'A':>11}{'B':>11}{'change':>9}"
        f"{'bound':>7}{'noise':>7}  verdict"
    )
    lines.append(header)
    shared = [name for name in a["workloads"] if name in b["workloads"]]
    for name in shared:
        left, right = a["workloads"][name], b["workloads"][name]
        for metric, (better, bound) in bounds.items():
            before = left["end_to_end"].get(metric)
            after = right["end_to_end"].get(metric)
            if before is None or after is None:
                continue
            if min(len(before["rounds"]), len(after["rounds"])) < 2:
                continue  # a traced run has one untraced round: no spread to judge by
            word, worsening, noise = verdict(before, after, better, bound)
            reject = reject or word == "regressed"
            signed = worsening if better == "lower" else -worsening
            lines.append(
                f"{name:<18}{metric:<16}{before['value']:>11.4g}"
                f"{after['value']:>11.4g}{signed:>+9.1%}"
                f"{bound:>7.0%}{noise:>7.1%}  {word}"
            )
        if right["error_rate"] > left["error_rate"]:
            reject = True
            lines.append(
                f"{name:<18}{'error_rate':<16}{left['error_rate']:>11.4g}"
                f"{right['error_rate']:>11.4g}{'':>23}  regressed"
            )
    for name in shared:
        left = a["workloads"][name].get("per_layer")
        right = b["workloads"][name].get("per_layer")
        if not left or not right:
            continue
        lines.append("")
        lines.append(f"per-layer changes on {name} (|change| >= {LAYER_NOISE:.0%}):")
        for layer, before in left.items():
            after = right.get(layer)
            if after is None or before["value"] == after["value"]:
                continue
            base = abs(before["value"])
            change = (after["value"] - before["value"]) / base if base else float("inf")
            if abs(change) >= LAYER_NOISE:
                lines.append(
                    f"  {layer:<44}{before['value']:>12.5g}{after['value']:>12.5g}"
                    f"{change:>+9.1%}  {before['unit']}"
                )
    return lines, reject


def main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    lines, reject = compare(a, b, load_bounds())
    print("\n".join(lines))
    return 1 if reject else 0
