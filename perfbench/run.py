"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fibers --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run repeats passes of the workload, each in a fresh ``worker.py`` process
and on inputs made from ``--seed``, until the next pass would end after
``--seconds`` (at least MIN_PASSES of them).  A pass still running at
2 x ``--seconds`` + 60 s from the start of the run is stopped and the run
fails.  With ``--trace 0`` it reports
the end-to-end metrics as medians over passes; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when every unit passed, 1 when any unit failed (the result is
still printed), 2 when a pass could not run at all (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("fibers", "positivity", "evolve")
MIN_PASSES = 3             # a traced run alternates, so it has a traced pass

END_TO_END = (("wall_s", "s"), ("units_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class PassError(RuntimeError):
    """A worker process ended without a result."""


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One pass in a fresh interpreter; returns the worker's JSON result."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload, str(seed),
           "1" if traced else "0", OUT_DIR]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 pass_fn=run_pass) -> dict:
    """Repeat passes for about ``seconds`` and aggregate them."""
    start = time.perf_counter()
    deadline = start + 2.0 * seconds + 60.0
    passes, lengths = [], []
    while True:
        traced = trace and len(passes) % 2 == 1
        t = time.perf_counter()
        passes.append(pass_fn(workload, seed, traced, max(deadline - t, 1.0)))
        lengths.append(time.perf_counter() - t)
        expected_end = time.perf_counter() - start + statistics.median(lengths)
        if len(passes) >= MIN_PASSES and expected_end > seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    if trace:
        metrics = {}
        for name in traced_passes[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced_passes)
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced_passes)
            / statistics.median(p["wall_s"] for p in plain) - 1.0)
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "units_per_s": statistics.median(p["attempted"] / p["wall_s"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    # the spans of a traced pass account for all of its wall time
    trace_ok = all(abs(p["self_sum_s"] - p["wall_s"]) <= 1e-9 * max(1.0, p["wall_s"])
                   for p in traced_passes)
    return {
        "workload": workload, "seed": seed, "trace": trace, "passes": passes,
        "attempted": attempted, "failed": failed, "trace_ok": trace_ok,
        "metrics": metrics, "env": passes[0]["env"],
    }


def units_of(name: str) -> str:
    units = dict(END_TO_END) | dict(spans.LAYER_METRICS) | {"trace.overhead_frac": "ratio"}
    return units[name]


def report(res: dict) -> None:
    """Human-readable lines for one workload, written before the JSON line."""
    print(f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}  "
          f"passes {len(res['passes'])}")
    for name, value in res["metrics"].items():
        # a per-layer 0 is a function this workload does not call, or a rate
        # whose base is zero; it is still printed, since every run reports
        # every per-layer name
        note = "  (zero base)" if res["trace"] and value == 0 else ""
        print(f"  {name:45s} {value:14.6g} {units_of(name)}{note}")
    if not res["trace"]:
        rate = res["failed"] / res["attempted"]
        print(f"  {'error_rate':45s} {rate:14.6g} ratio "
              f"({res['failed']} of {res['attempted']} units failed)")
    for p in res["passes"]:
        for message in p["failures"]:
            print(f"  FAILED UNIT: {message}")
    if not res["trace_ok"]:
        print("  TRACE ERROR: span self times do not add up to the traced wall time")
    print(f"  env {json.dumps(res['env'], sort_keys=True)}")


def main(argv=None, pass_fn=run_pass) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        pass_fn=pass_fn))
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    for res in results:
        report(res)
        path = os.path.join(OUT_DIR, f"result-{res['workload']}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1)

    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units_of(name)}
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["trace_ok"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
