#!/usr/bin/env python3
"""treespec benchmark: end-to-end CLI timings, or per-layer timings traced.

    python3 perfbench/run.py --workload bisect --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from anywhere; the program under test is ``src/treespec`` next to this
directory, run as ``python -m treespec.cli`` with PYTHONPATH=src.

--trace 0  One client in a closed loop runs the workload's command list as
           subprocesses, one at a time, in round-robin passes, for --seconds
           and at least MIN_PASSES passes (but no more than MAX_OVERRUN times
           --seconds once the first pass is done).  Each pass starts with one set-up
           measurement in a fresh process.  Every distinct output is checked
           against a reference that is not treespec (reference.py).
           A calibration child (CALIBRATION) runs after every measurement;
           each measurement is scaled by CAL_REF_S over the median of the
           2 * CAL_WINDOW calibrations around it, so times read as seconds
           on an unloaded machine.  On a shared 2-core VM the whole machine
           slows by up to 50% for phases of seconds to minutes; a command
           and the calibrations next to it slow alike, so the scaled time
           stays put where a raw time, even a best-of-k, does not.
           End-to-end metrics:
             wall_s          sum over commands of each command's median
                             scaled time in the run (time to solution of
                             the list)
             <sub>_s         the same sum over one subcommand's invocations
             setup_s         median over passes of the scaled time to
                             import treespec.cli, then parse_tree_file +
                             build_matrix every tree file and matrix kind
                             the workload loads, in a fresh process
             peak_rss_mb     the largest max-RSS among the subprocesses
--trace 1  The same commands run in-process through treespec.cli.run(argv)
           (trace_child.py), alternating untraced and traced passes; prints
           per-layer self times and counts (medians over traced passes).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give the run's metadata
and a table of every metric with its unit; fail_frac is failed/attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_PASSES = 2
#: a pass that MIN_PASSES keeps going past --seconds stops at this share of it
MAX_OVERRUN = 1.1
COMMAND_TIMEOUT_S = 120.0

#: The calibration child: Python start-up, numpy's import and a pure-Python
#: loop, the same kinds of work a treespec command does, but none of it
#: treespec's.  Its wall time tracks how fast the machine is at the moment.
CALIBRATION = "import numpy\ns = 0\nfor i in range(400000):\n    s += i * i % 7\n"
#: Calibration wall time on an unloaded machine (Xeon 2.1 GHz vCPU, Python
#: 3.11, numpy 2.4); times are reported as seconds at that speed.
CAL_REF_S = 0.15
#: calibrations on each side of a measurement that set its scale; their
#: median follows phases of a few seconds and up, and not the noise of a
#: single 0.2 s child
CAL_WINDOW = 3

#: end-to-end metrics (name, unit)
END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("locate_s", "s"), ("locate_exact_s", "s"), ("radius_s", "s"), ("eigen_s", "s"),
    ("mlas_s", "s"), ("broom_s", "s"), ("limit_s", "s"), ("random_tree_s", "s"),
    ("recurrence_s", "s"),
)

#: per-layer metrics (name, unit, end-to-end metrics it should move, on which workloads)
LAYERS = (
    ("cli.import_s", "s", "setup_s, wall_s", "all; mostly analytics"),
    ("cli.self_s", "s", "random_tree_s, recurrence_s", "ingest, analytics"),
    ("cli.out_bytes", "bytes", "random_tree_s, recurrence_s", "ingest, analytics"),
    ("treediag.parse_s", "s", "setup_s, locate_s, peak_rss_mb; limit_s, broom_s", "ingest; analytics"),
    ("treediag.build_tree_s", "s", "setup_s, locate_s, peak_rss_mb; limit_s, broom_s", "ingest; analytics"),
    ("treediag.build_tree_calls", "count", "setup_s, locate_s; limit_s, broom_s", "ingest; analytics"),
    ("treediag.build_matrix_s", "s", "setup_s, locate_s, peak_rss_mb; limit_s, broom_s", "ingest; analytics"),
    ("treediag.sweep_float_s", "s", "radius_s, eigen_s; limit_s", "bisect; analytics"),
    ("treediag.sweep_float_calls", "count", "radius_s, eigen_s; limit_s", "bisect; analytics"),
    ("treediag.sweep_float_vps", "1/s", "radius_s, eigen_s; limit_s", "bisect; analytics"),
    ("treediag.bisect_s", "s", "radius_s, eigen_s, limit_s", "bisect, analytics"),
    ("treediag.bisect_sweeps_per_query", "count", "radius_s, eigen_s, limit_s", "bisect, analytics"),
    ("treediag.sweep_exact_s", "s", "locate_exact_s, broom_s", "analytics"),
    ("treediag.sweep_exact_calls", "count", "locate_exact_s, broom_s", "analytics"),
    ("treediag.sweep_exact_vps", "1/s", "locate_exact_s, broom_s", "analytics"),
    ("recurrence.iterate_s", "s", "recurrence_s, mlas_s", "analytics"),
    ("recurrence.iterate_terms", "count", "recurrence_s, mlas_s", "analytics"),
    ("recurrence.solve_s", "s", "recurrence_s", "analytics"),
    ("signs.b_at_s", "s", "mlas_s, broom_s", "analytics"),
    ("signs.b_at_terms", "count", "mlas_s, broom_s", "analytics"),
    ("signs.mlas_direct_s", "s", "mlas_s", "analytics"),
    ("signs.report_s", "s", "mlas_s", "analytics"),
    ("signs.broom_s", "s", "broom_s", "analytics"),
    ("limits.gap_s", "s", "limit_s", "analytics"),
    ("oracle.random_tree_s", "s", "random_tree_s", "ingest"),
    ("trace.untraced_s", "s", "wall_s (in-process, without start-up)", "all"),
    ("trace.overhead_s", "s", "-", "all"),
)

#: span name -> per-layer time metric
SPAN_METRIC = {
    "cli": "cli.self_s",
    "treediag.parse": "treediag.parse_s",
    "treediag.build_tree": "treediag.build_tree_s",
    "treediag.build_matrix": "treediag.build_matrix_s",
    "treediag.sweep_float": "treediag.sweep_float_s",
    "treediag.sweep_exact": "treediag.sweep_exact_s",
    "treediag.bisect": "treediag.bisect_s",
    "recurrence.iterate": "recurrence.iterate_s",
    "recurrence.solve": "recurrence.solve_s",
    "signs.b_at": "signs.b_at_s",
    "signs.mlas_direct": "signs.mlas_direct_s",
    "signs.report": "signs.report_s",
    "signs.broom": "signs.broom_s",
    "limits.gap": "limits.gap_s",
    "oracle.random_tree": "oracle.random_tree_s",
}


class ChildResult(NamedTuple):
    code: int
    out: str
    err: str
    wall: float
    maxrss_kb: int
    timed_out: bool


def child_env() -> Dict[str, str]:
    """PYTHONPATH=src, and single-threaded BLAS.

    treespec makes no BLAS calls, but numpy's import starts a BLAS thread
    pool, which on a 2-core machine costs ~0.07 s per command and makes
    start-up depend on what else runs on the other core.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: List[str], workdir: str, timeout: float) -> ChildResult:
    """Run one subprocess to completion; wall time and its own max-RSS."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out_f, open(err_path, "wb") as err_f:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out_f, stderr=err_f, env=child_env(), cwd=ROOT)
        killed = []
        timer = threading.Timer(timeout, lambda: (killed.append(True), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err = fh.read()
    return ChildResult(proc.returncode, out, err, wall, usage.ru_maxrss, bool(killed))


# ---------------------------------------------------------------------------
# measurement


def measure_setup(items: str, workdir: str) -> Tuple[float, object]:
    """One fresh set-up process: (import + parse/build seconds, NUMBA_ENABLED)."""
    res = run_child([sys.executable, os.path.join(HERE, "setup_child.py"), items],
                    workdir, COMMAND_TIMEOUT_S)
    if res.code != 0:
        raise RuntimeError(f"set-up process failed ({res.code}): {res.err.strip()[-400:]}")
    info = json.loads(res.out)
    return info["import_s"] + info["build_s"], info["numba"]


def measure_calibration(workdir: str) -> float:
    """Wall time of one calibration child, a fixed task that treespec has no part in."""
    res = run_child([sys.executable, "-c", CALIBRATION], workdir, COMMAND_TIMEOUT_S)
    if res.code != 0:
        raise RuntimeError(f"calibration process failed ({res.code}): {res.err.strip()[-400:]}")
    return res.wall


def measure_commands(wl: workloads.Workload, workdir: str, seconds: float):
    """Round-robin passes over the command list until ``seconds`` have
    passed and at least MIN_PASSES passes are complete; the last pass may
    stop part way.  Each pass starts with one set-up measurement.

    A calibration child runs before the first measurement and after every
    one.  A measurement is kept as its seconds times CAL_REF_S over the
    median of the CAL_WINDOW calibrations before it and CAL_WINDOW after.

    Returns per-command scaled and raw wall lists, scaled and raw set-up
    times, the calibration times, the peak max-RSS in KiB, NUMBA_ENABLED,
    and per command the distinct (code, stdout) results with how often
    each was seen.
    """
    raw_walls: List[List[Tuple[float, int]]] = [[] for _ in wl.commands]
    outputs: List[Dict[Tuple[int, str], list]] = [{} for _ in wl.commands]
    raw_setups: List[Tuple[float, int]] = []
    cals = [measure_calibration(workdir)]
    items = json.dumps(wl.setup_items())
    peak = 0
    start = time.perf_counter()

    def calibrated(seconds_taken: float) -> Tuple[float, int]:
        """The measurement, and the index of the calibration right after it."""
        cals.append(measure_calibration(workdir))
        return seconds_taken, len(cals) - 1

    def out_of_time(share: float = 1.0) -> bool:
        return time.perf_counter() - start >= seconds * share

    while len(raw_setups) < MIN_PASSES or not out_of_time():
        setup_s, numba = measure_setup(items, workdir)
        raw_setups.append(calibrated(setup_s))
        for i, cmd in enumerate(wl.commands):
            for _ in range(cmd.repeat):
                if len(raw_setups) > MIN_PASSES and out_of_time():
                    break
                if len(raw_setups) > 1 and out_of_time(MAX_OVERRUN):
                    break
                res = run_child([sys.executable, "-m", "treespec.cli"] + cmd.argv,
                                workdir, COMMAND_TIMEOUT_S)
                raw_walls[i].append(calibrated(res.wall))
                peak = max(peak, res.maxrss_kb)
                key = (-9 if res.timed_out else res.code, res.out)
                outputs[i].setdefault(key, [0, res.err])[0] += 1

    def scaled(samples: List[Tuple[float, int]]) -> List[float]:
        return [t * CAL_REF_S / statistics.median(cals[max(0, j - CAL_WINDOW):j + CAL_WINDOW])
                for t, j in samples]

    walls = [scaled(w) for w in raw_walls]
    setups = scaled(raw_setups)
    raw_walls_s = [[t for t, _ in w] for w in raw_walls]
    raw_setups_s = [t for t, _ in raw_setups]
    return walls, raw_walls_s, setups, raw_setups_s, cals, peak, numba, outputs


def check_outputs(wl: workloads.Workload, outputs) -> Tuple[int, int, List[str]]:
    """(attempted, failed, messages) over every execution of every command."""
    from reference import Checker

    checker = Checker(wl)
    attempted = failed = 0
    messages: List[str] = []
    for cmd, distinct in zip(wl.commands, outputs):
        for (code, out), (count, err) in distinct.items():
            attempted += count
            if code != 0:
                why = "timed out" if code == -9 else f"exit {code}: {err.strip()[-300:]}"
            else:
                why = checker.check(cmd, out)
            if why is not None:
                failed += count
                messages.append(f"{' '.join(cmd.argv)}: {why}")
    return attempted, failed, messages


def end_to_end(wl: workloads.Workload, workdir: str, seconds: float):
    walls, raw_walls, setups, raw_setups, cals, peak_kb, numba, outputs = \
        measure_commands(wl, workdir, seconds)
    attempted, failed, messages = check_outputs(wl, outputs)
    metrics = {name: 0.0 for name, _ in END_TO_END}
    for cmd, w in zip(wl.commands, walls):
        metrics[cmd.metric] += statistics.median(w)
    metrics["wall_s"] = sum(statistics.median(w) for w in walls)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    units = dict(END_TO_END)
    info = {"numba_enabled": numba, "passes": len(setups),
            "calibration_s": {"median": statistics.median(cals), "min": min(cals),
                              "max": max(cals), "runs": len(cals), "ref": CAL_REF_S},
            "unscaled": {"wall_s": sum(statistics.median(w) for w in raw_walls),
                         "setup_s": statistics.median(raw_setups)}}
    return {k: (v, units[k]) for k, v in metrics.items()}, attempted, failed, messages, info


def _layer_metrics(spans: list) -> Dict[str, float]:
    """Self time per layer, plus counts and rates, from one traced pass."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: 0.0 for name, _, _, _ in LAYERS}
    float_n = exact_n = 0
    bisect_queries = bisect_sweeps = 0
    for i, (name, start, end, parent, size) in enumerate(spans):
        out[SPAN_METRIC[name]] += (end - start) - child_time[i]
        if name == "treediag.build_tree":
            out["treediag.build_tree_calls"] += 1
        elif name == "treediag.sweep_float":
            out["treediag.sweep_float_calls"] += 1
            float_n += size
            if parent >= 0 and spans[parent][0] == "treediag.bisect":
                bisect_sweeps += 1
        elif name == "treediag.sweep_exact":
            out["treediag.sweep_exact_calls"] += 1
            exact_n += size
        elif name == "treediag.bisect":
            bisect_queries += 1
        elif name == "recurrence.iterate":
            out["recurrence.iterate_terms"] += size
        elif name == "signs.b_at":
            out["signs.b_at_terms"] += size
    if out["treediag.sweep_float_s"] > 0:
        out["treediag.sweep_float_vps"] = float_n / out["treediag.sweep_float_s"]
    if out["treediag.sweep_exact_s"] > 0:
        out["treediag.sweep_exact_vps"] = exact_n / out["treediag.sweep_exact_s"]
    if bisect_queries:
        out["treediag.bisect_sweeps_per_query"] = bisect_sweeps / bisect_queries
    return out


def traced(wl: workloads.Workload, workdir: str, seconds: float):
    spec_path = os.path.join(workdir, "trace_spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": [c.argv for c in wl.commands], "seconds": seconds}, fh)
    res = run_child([sys.executable, os.path.join(HERE, "trace_child.py"), spec_path],
                    workdir, max(30.0, 170.0 - seconds))
    if res.code != 0:
        raise RuntimeError(f"traced run failed ({res.code}): {res.err.strip()[-400:]}")
    result = json.loads(res.out.splitlines()[-1])
    outputs = [{(code, out): [count, err] for code, out, count, err in per_cmd}
               for per_cmd in result["outputs"]]
    attempted, failed, messages = check_outputs(wl, outputs)

    traced_passes = [p for p in result["passes"] if p["traced"]]
    untraced = statistics.median(sum(p["wall"]) for p in result["passes"] if not p["traced"])
    per_pass = [_layer_metrics(p["spans"]) for p in traced_passes]
    metrics = {}
    for name, unit, _, _ in LAYERS:
        values = [m[name] for m in per_pass]
        metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit)
    out_bytes = sum(len(out.encode()) * count
                    for per_cmd in result["outputs"] for _, out, count, _ in per_cmd)
    runs = len(result["passes"])
    metrics["cli.out_bytes"] = (out_bytes / runs, "bytes")
    metrics["cli.import_s"] = (result["import_s"], "s")
    traced_wall = statistics.median(sum(p["wall"]) for p in traced_passes)
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    self_sum = statistics.median(
        sum(m[k] for k in set(SPAN_METRIC.values())) for m in per_pass)
    info = {"numba_enabled": result["numba"], "passes": runs,
            "layer_self_sum_s": self_sum, "traced_s": traced_wall}
    return metrics, attempted, failed, messages, info


# ---------------------------------------------------------------------------
# reporting


def src_lines() -> int:
    total = 0
    for base, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def git_sha() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(wl: workloads.Workload, args, info: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "src_lines": src_lines(),
        "commands": len(wl.commands), **info, "input_hashes": wl.input_hashes,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            corrupt: bool = False):
    """Build, run and check one workload; returns (workload, metrics,
    attempted, failed, messages, info).  ``corrupt`` shifts the x1 of every
    solve reference, a deliberately wrong reference value (self-test only)."""
    workdir = os.path.join(ROOT, ".perfbench", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.build(name, seed, workdir, size)
        if corrupt:
            for cmd in wl.commands:
                if cmd.kind == "solve":
                    cmd.ref = dict(cmd.ref, x1=cmd.ref["x1"] + 0.5)
        measure = traced if trace else end_to_end
        metrics, attempted, failed, messages, info = measure(wl, workdir, seconds)
        return wl, metrics, attempted, failed, messages, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treespec", "cli.py")):
        print(f"error: no treespec sources under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    total: Dict[str, dict] = {}
    attempted_all = failed_all = 0
    for name in names:
        wl, metrics, attempted, failed, messages, info = run_one(
            name, args.seed, args.seconds, bool(args.trace))
        attempted_all += attempted
        failed_all += failed
        print("meta " + json.dumps(metadata(wl, args, info)))
        for msg in messages[:20]:
            print(f"FAIL {msg}", file=sys.stderr)
        label = "per-layer (traced, in-process)" if args.trace else "end-to-end"
        print(f"== {name}: {label} metrics ==")
        rows = LAYERS if args.trace else [(n, u, "", "") for n, u in END_TO_END]
        for metric, unit, moves, on in rows:
            value = metrics[metric][0]
            note = f"   moves {moves} on {on}" if args.trace else ""
            print(f"{metric:34s} {value:14.6g} {unit:6s}{note}")
        print(f"{'fail_frac':34s} {failed / attempted:14.6g} ({failed}/{attempted})")
        prefix = f"{name}." if len(names) > 1 else ""
        total.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed_all == 0, "attempted": attempted_all,
                      "failed": failed_all, "metrics": total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
