"""Layered, correctness-checked benchmark of the SQL++ engine.

    python3 benchmarks/layered/run.py --seed N             all seven workloads
    python3 benchmarks/layered/run.py --seed N --trace 1   ... per-layer metrics
    python3 benchmarks/layered/run.py --workload kit_cold --seed N \\
            --seconds 10 --trace 0                         one workload
    python3 benchmarks/layered/run.py compare A.json B.json

Every input is generated from ``--seed`` inside this directory; every
result is checked against an oracle; every metric is printed by name with
its unit.  The last line of standard output is one JSON object.  See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402


def _report(name: str, result: Dict[str, Any]) -> List[str]:
    lines = [
        f"== {name}: {result['attempted']} ops, {result['failed']} failed "
        f"(error_rate {result['error_rate']:.4g}), passes per round "
        f"{result['passes']}, calibration_ms "
        + "/".join(f"{value:.3f}" for value in result["calibration_ms"])
    ]
    for metric, entry in result["end_to_end"].items():
        rounds = entry["rounds"]
        detail = (
            "rounds " + " ".join(f"{value:.5g}" for value in rounds)
            + f"  spread {harness.spread(rounds):.1%}"
        )
        if "samples" in entry:
            detail += f"  pooled over {entry['samples']} ops"
        lines.append(f"  {metric:<44}{entry['value']:>14.6g} {entry['unit']:<8}{detail}")
    for metric, entry in result.get("per_layer", {}).items():
        lines.append(f"  {metric:<44}{entry['value']:>14.6g} {entry['unit']}")
    return lines


def _final_line(document: Dict[str, Any], single: Optional[str]) -> Dict[str, Any]:
    results = document["workloads"]
    key = "per_layer" if document["trace"] else "end_to_end"

    def metrics(result: Dict[str, Any]) -> Dict[str, Any]:
        return {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result[key].items()
        }

    final: Dict[str, Any] = {
        "correct": all(result["failed"] == 0 for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
    }
    if single is not None:
        final["metrics"] = metrics(results[single])
    else:
        final["workloads"] = {name: metrics(result) for name, result in results.items()}
    return final


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare.main(argv[1], argv[2])

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one round, one pass (for the tests)")
    parser.add_argument("--out", help="result file (default: out/result.*.json)")
    parser.add_argument("--round", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro").is_dir():
        print(f"engine sources not found under {harness.SRC}", file=sys.stderr)
        return 2
    if args.round is not None:
        print(json.dumps(harness.run_round(json.loads(args.round))))
        return 0

    benchmark = harness.benchmark_json()
    declared = [entry["name"] for entry in benchmark["workloads"]]
    if args.workload is not None and args.workload not in declared:
        parser.error(f"unknown workload {args.workload!r}; one of {declared}")
    names = [args.workload] if args.workload else declared
    seconds = args.seconds or benchmark["run_seconds"]
    document = harness.run(names, args.seed, seconds, bool(args.trace), args.smoke)

    for name in names:
        print("\n".join(_report(name, document["workloads"][name])))
    harness.OUT.mkdir(exist_ok=True)
    target = Path(args.out) if args.out else harness.OUT / (
        f"result.{args.workload or 'all'}.seed{args.seed}.trace{args.trace}.json"
    )
    target.write_text(json.dumps(document, indent=1))
    print(f"result file: {target}")
    print(json.dumps(_final_line(document, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
