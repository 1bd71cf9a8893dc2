"""How much of one workload pass the cyclic garbage collector takes.

    python3 benchmarks/gc_probe.py batch_analytics --seconds 10

Sets a workload of ``benchmarks/layered/workloads.py`` up as the layered
harness does, then runs its ops pass after pass for the given seconds
with a ``gc.callbacks`` hook, and prints per generation the collections
and the milliseconds spent in them per pass.
"""

import argparse
import gc
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE / "layered"), str(HERE.parent / "src")]

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed)
    counts, ms, began = [0, 0, 0], [0.0, 0.0, 0.0], [0.0]

    def hook(phase: str, info: dict) -> None:
        if phase == "start":
            began[0] = perf_counter()
        else:
            counts[info["generation"]] += 1
            ms[info["generation"]] += (perf_counter() - began[0]) * 1e3

    passes = 0
    try:
        workload.setup()
        workload.warm_up()
        workload.prepare()
        gc.collect()
        gc.callbacks.append(hook)
        started = perf_counter()
        while passes == 0 or perf_counter() - started < args.seconds:
            workload.begin_pass()
            for op in workload.ops:
                try:
                    op.run()
                except Exception:  # expected-error templates
                    pass
            passes += 1
        elapsed_ms = (perf_counter() - started) * 1e3
    finally:
        if hook in gc.callbacks:
            gc.callbacks.remove(hook)
        workload.close()
    print(f"{args.workload}: {passes} passes, {elapsed_ms / passes:.1f} ms per pass")
    for gen in range(3):
        print(
            f"  gen {gen}: {counts[gen] / passes:8.2f} collections"
            f" {ms[gen] / passes:8.2f} ms per pass"
        )
    share = sum(ms) / elapsed_ms * 100
    print(f"  total: {sum(ms) / passes:.2f} ms per pass ({share:.1f} % of the pass)")


if __name__ == "__main__":
    main()
