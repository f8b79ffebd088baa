"""One pass of one workload, in a fresh process.

Usage: ``python3 perfbench/worker.py <workload> <seed> <trace 0|1> <out_dir>``

Times set-up (from before ``import scatterlab`` to inputs ready) and the
timed pass, checks every unit's invariant, and prints one JSON object as the
last line of standard output.  A fresh process per pass means no process
level cache survives from an earlier pass.  With trace 1 the pass runs
under :class:`spans.Tracer` and its spans are written to ``out_dir``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import spans  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(workloads.sl.__file__).startswith(SRC + os.sep):
    sys.exit(f"scatterlab was imported from {workloads.sl.__file__}, not from {SRC}")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SCATTER_THREADS")


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_pass(workload: str, seed: int, traced: bool, out_dir: str) -> dict:
    setup, run = workloads.WORKLOADS[workload]
    inputs = setup(seed)
    setup_s = time.perf_counter() - T0
    tally = workloads.Tally()
    result = {"workload": workload, "seed": seed, "traced": traced, "setup_s": setup_s}
    if traced:
        tracer = spans.Tracer(workload, seed)
        with tracer.installed():
            with tracer.span(spans.ROOT_SPAN):
                extra = run(inputs, tally)
        wall_s = tracer.ends[0] - tracer.starts[0]
        layers = spans.layer_metrics(tracer, extra.get("steps", 0))
        # every instant of the pass belongs to exactly one span's self time
        result["self_sum_s"] = float(tracer.self_times().sum())
        result["layers"] = layers
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl.gz"))
    else:
        t = time.perf_counter()
        extra = run(inputs, tally)
        wall_s = time.perf_counter() - t
    result.update({
        "wall_s": wall_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": environment(),
    })
    return result


def main(argv) -> int:
    workload, seed, trace, out_dir = argv
    print(json.dumps(run_pass(workload, int(seed), trace == "1", out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
