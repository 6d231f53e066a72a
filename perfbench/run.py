"""Benchmark of the qtc package: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload haar-usd --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. An untraced run starts fresh worker
processes (``worker.py``), one after another, with BLAS pinned to one
thread: two that only set up, then three that set up and each run a third
of the timed phase on rounds of their own. Latencies and round throughputs
are pooled over the three, so one process that lands on a busy core or an
unlucky memory layout moves the result less. ``setup_s`` is the median
set-up time over all five, from process start to the first timed call. A
traced run is one worker. The last line of standard output is the result as
JSON; the same object, and in a traced run the spans, are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("haar-usd", "cli-scan", "large-register")  # as in workloads.py, which needs NumPy and qtc
SETUPS = 5  # set-up time is the median over this many processes
PARTS = 3  # timed processes per untraced run, each running a third of --seconds
WORKER_LIMIT_S = 150  # a worker still running after this is killed and the run fails
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str]) -> tuple[float, str]:
    """Start a worker; return its set-up time and everything it printed after READY."""
    env = dict(os.environ, **PINNED_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    killer = threading.Timer(WORKER_LIMIT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker {' '.join(argv)} exited {code}")
    return setup, rest


def end_to_end(parts: list[dict], setups: list[float]) -> dict:
    """Pool the untraced timed processes of one run into its result line."""
    latencies = [t for part in parts for t in part["latencies"]]
    rounds = [inputs / seconds for part in parts for inputs, seconds in part["rounds"]]
    metrics = {
        "inputs_per_s": (statistics.median(rounds), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "peak_rss_mb": (max(part["peak_rss_mb"] for part in parts), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {
        "correct": all(part["correct"] for part in parts),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "qtc" / "__init__.py").is_file():
        print(f"error: no qtc package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    try:
        if args.trace:
            spans = OUT / f"spans-{stem}.json"
            output = run_worker(common + ["--seconds", str(args.seconds), "--spans-out", str(spans)])[1]
            result = json.loads(output.strip().splitlines()[-1])
        else:
            setups = [run_worker(common + ["--seconds", "0", "--setup-only"])[0] for _ in range(SETUPS - PARTS)]
            parts = []
            for part in range(PARTS):
                argv = common + ["--seconds", str(args.seconds / PARTS), "--part", str(part)]
                setup, output = run_worker(argv)
                setups.append(setup)
                parts.append(json.loads(output.strip().splitlines()[-1]))
            result = end_to_end(parts, setups)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = json.dumps(result, sort_keys=True)
    (OUT / f"result-{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
