"""Repeat the benchmark over seeds and report each metric's median and quartiles.

    python3 perfbench/spread.py --workload haar-usd --seeds 1-10 --seconds 30

Before every run it times a fixed pure-Python loop (the probe), whose spread
shows how much the machine itself drifted while the runs were made. The
spread of a metric is the distance between its first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def probe_ms(seconds: float = 1.0) -> float:
    """Median time of a fixed pure-Python loop of 10^5 additions."""
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(name: str, values: list[float]) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else float("nan")
    return f"{name:30s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,5,9")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    values: dict[str, list[float]] = {"probe_ms": []}
    shares = set()
    for seed in seed_list(args.seeds):
        values["probe_ms"].append(probe_ms())
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: failed share {sorted(shares)}")
    for name, vals in sorted(values.items()):
        print(summary(name, vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
