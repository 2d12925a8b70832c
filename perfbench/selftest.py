#!/usr/bin/env python3
"""Self-test of the benchmark at tiny n (about a minute):

    python3 perfbench/selftest.py

For every workload, in both modes, it checks that the metrics named in
BENCHMARK.json and the benchmark's own tables agree, that every named metric
appears, that every end-to-end metric is nonzero, and that the tiny run
passes its reference checks.  It then falsifies one reference value (the x1
of every solve command) and checks that fail_frac rises above 0.  Exits 1
on any problem.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if wanted[False] != dict(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if wanted[True] != {name: unit for name, unit, _, _ in run.LAYERS}:
        problems.append("BENCHMARK.json per_layer differs from run.LAYERS")
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            _, metrics, attempted, failed, messages, _ = run.run_one(
                name, 7, 0.5, trace, size="tiny")
            mode = "traced" if trace else "end-to-end"
            for metric, unit in wanted[trace].items():
                if metric not in metrics:
                    problems.append(f"{name} {mode}: {metric} missing")
                elif metrics[metric][1] != unit:
                    problems.append(f"{name} {mode}: {metric} unit {metrics[metric][1]}")
                elif not trace and metrics[metric][0] <= 0:
                    problems.append(f"{name} {mode}: {metric} = {metrics[metric][0]}")
            if failed or attempted < 1:
                problems.append(f"{name} {mode}: {failed}/{attempted} failed: {messages[:3]}")
            print(f"{name:10s} {mode:10s} {len(metrics)} metrics, {failed}/{attempted} failed")
        _, _, attempted, failed, _, _ = run.run_one(name, 7, 0.5, False, size="tiny", corrupt=True)
        print(f"{name:10s} {'corrupted':10s} fail_frac {failed / attempted:.3f}")
        if failed == 0:
            problems.append(f"{name}: a wrong reference left fail_frac at 0")

    for p in problems:
        print(f"PROBLEM {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
