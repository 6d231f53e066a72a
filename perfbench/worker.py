"""One workload process: set up, signal readiness, run the timed phase, report.

Started by ``run.py``, which times the set-up from process start to the
``READY`` line. The timed phase runs whole rounds until ``--seconds`` have
passed. An untraced worker prints its raw latencies and round throughputs,
which ``run.py`` pools over the run's timed processes. With ``--trace 1``
rounds alternate between untraced and traced, so the tracing overhead is
measured against the same stretch of machine time, and the worker prints
the per-layer result itself. The last line of standard output is JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before NumPy loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qtc  # noqa: E402

if Path(qtc.__file__).resolve().parent != ROOT / "src" / "qtc":
    sys.exit(f"qtc imported from {qtc.__file__}, not from this checkout's src/")

from checks import CheckFailed  # noqa: E402
from spans import ROOT, Tracer  # noqa: E402
from workloads import WORKLOADS, Counts  # noqa: E402

BYTES_PER_AMPLITUDE = 16  # complex128
MB = 2**20
PART_STRIDE = 1_000_000  # first round of each timed process: parts never share inputs


class Phase:
    """Latencies, per-round inputs and times, and report counts of one mode's operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.rounds: list[tuple[int, float]] = []  # (inputs completed, seconds in calls)
        self._round = (0, 0.0)
        self.inputs = 0
        self.branches = self.nonzero = self.report_bytes = 0
        self.register = 0

    def add(self, op, seconds: float, counts: Counts | None) -> None:
        """Record a call that returned; ``counts`` is None when its output failed a check."""
        self.latencies.append(seconds)
        inputs = 0 if counts is None else op.inputs
        self._round = (self._round[0] + inputs, self._round[1] + seconds)
        if counts is None:
            return
        self.inputs += inputs
        self.branches += counts.branches
        self.nonzero += counts.nonzero
        self.report_bytes += counts.report_bytes
        self.register = max(self.register, op.register)

    def end_round(self) -> None:
        if self._round[1] > 0:
            self.rounds.append(self._round)
        self._round = (0, 0.0)


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def fail(self, op, message: str) -> None:
        self.failed += 1
        if not op.known_fault:
            self.correct = False
            print(f"check failed: {message}", file=sys.stderr)


def run_op(op, tally: Tally, tracer: Tracer | None, call_id: int):
    """Time one call, then check its output.

    Returns None when the call raised, else (seconds, counts), with counts
    None when the output failed its check.
    """
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = tracer.timed(call_id, op.call) if tracer else op.call()
    except Exception:
        tally.fail(op, traceback.format_exc())
        return None
    seconds = time.perf_counter() - start
    try:
        return seconds, op.check(result)
    except (CheckFailed, KeyError, ValueError, TypeError, IndexError) as exc:
        tally.fail(op, f"{type(exc).__name__}: {exc}")
        return seconds, None


def warm_up(workload) -> None:
    tally = Tally()
    for op in workload.warmup():
        run_op(op, tally, None, -1)
    if not tally.correct:
        sys.exit("warm-up operations failed their checks")


def timed_phase(workload, start: int, first_round, seconds: float, traced: bool):
    """Whole rounds from round ``start`` until the time is up.

    Traced runs alternate untraced and traced rounds.
    """
    tally = Tally()
    phases = {False: Phase(), True: Phase()}
    tracer = Tracer() if traced else None
    deadline = time.perf_counter() + seconds
    ops, done_rounds, call_id = first_round, 0, 0
    while True:
        tracing = traced and done_rounds % 2 == 1
        if tracing:
            tracer.install()
        try:
            for op in ops:
                done = run_op(op, tally, tracer if tracing else None, call_id)
                call_id += 1
                if done:
                    phases[tracing].add(op, *done)
        finally:
            if tracing:
                tracer.uninstall()
        phases[tracing].end_round()
        done_rounds += 1
        if time.perf_counter() >= deadline and (not traced or done_rounds >= 2):
            break
        ops = workload.round(start + done_rounds)
    try:
        workload.finish()
    except CheckFailed as exc:
        tally.correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    return tally, phases, tracer


def raw_result(tally: Tally, phase: Phase) -> dict:
    """What ``run.py`` pools over the timed processes of an untraced run."""
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "latencies": phase.latencies,
        "rounds": phase.rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
    }


def per_layer(plain: Phase, traced: Phase, tracer: Tracer) -> dict:
    n = len(traced.latencies)
    self_s = tracer.self_times()
    calls = tracer.calls()
    total = sum(end - start for name, start, end, *_ in tracer.spans if name == ROOT)
    if abs(sum(self_s.values()) - total) > 1e-6 * max(n, 1):
        raise AssertionError("layer self times do not add up to the traced call time")

    def ms(layer):
        return self_s.get(layer, 0.0) / n * 1e3

    return {
        "symmetric.ms_per_op": (ms("symmetric"), "ms"),
        "symmetric.calls_per_op": (calls.get("symmetric", 0) / n, "count"),
        "bell.ms_per_op": (ms("bell"), "ms"),
        "discrimination.ms_per_op": (ms("discrimination"), "ms"),
        "registers.ms_per_op": (ms("registers"), "ms"),
        "protocol.self_ms_per_op": (ms("protocol"), "ms"),
        "protocol.self_us_per_input": (self_s.get("protocol", 0.0) / traced.inputs * 1e6, "us"),
        "protocol.branches_per_input": (traced.branches / traced.inputs, "count"),
        "protocol.nonzero_branch_share": (traced.nonzero / max(traced.branches, 1), "ratio"),
        "protocol.register_mb": (traced.register * BYTES_PER_AMPLITUDE / MB, "MB"),
        "formulas.ms_per_op": (ms("formulas"), "ms"),
        "formulas.calls_per_op": (calls.get("formulas", 0) / n, "count"),
        "cli.self_ms_per_op": (ms("cli"), "ms"),
        "cli.report_bytes_per_op": (traced.report_bytes / n, "B"),
        "traced.ms_per_op": (total / n * 1e3, "ms"),
        "unattributed.ms_per_op": (ms(ROOT), "ms"),
        "trace.overhead_ms_per_op": (
            (statistics.median(traced.latencies) - statistics.median(plain.latencies)) * 1e3, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0, help="which timed process of the run this is")
    parser.add_argument("--setup-only", action="store_true", help="exit after signalling readiness")
    parser.add_argument("--spans-out", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    warm_up(workload)
    start = args.part * PART_STRIDE
    first_round = workload.round(start)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally, phases, tracer = timed_phase(workload, start, first_round, args.seconds, bool(args.trace))
    if not args.trace:
        print(json.dumps(raw_result(tally, phases[False])), flush=True)
        return 0
    metrics = per_layer(phases[False], phases[True], tracer)
    if args.spans_out:
        tracer.write(args.spans_out)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
