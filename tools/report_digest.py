"""Digest the reports of a fixed grid of ``qtc`` invocations, to compare two versions.

Runs every invocation of the grid below through ``qtc.cli.main`` in this
process (or, with ``--fresh``, each in its own ``python -m qtc.cli``
process) and prints one line per invocation: the exit code, the sha256 of
its stdout and stderr, and its arguments. The last line is the sha256 of
all the lines before it. Two versions whose total agrees wrote the same
bytes and exit codes for every invocation; where it does not, ``diff`` of
the two outputs names the invocations that changed.

The grid covers ``simulate`` and ``haar`` in JSON and CSV, d in {2, 3},
M in {1, 2, 3, 5}, three channels per d (one rank deficient at d=3), every
strategy, both reconstruction variants, an explicit and the default input,
Haar seeds below and above 2**32, ``sweep``, ``--help`` and ``--version``.

Usage, from the root of a checkout (point PYTHONPATH at the ``src`` of the
version to digest)::

    PYTHONPATH=src python3 tools/report_digest.py [--fresh] > digest.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from qtc import cli

CHANNELS = {
    2: ("maximal", "c=[0.8,0.6]", "c=[0.95,0.3122498999]"),
    3: ("maximal", "c=[0.7,0.5,0.5099019514]", "c=[0.8,0.6,0]"),
}
INPUTS = {2: "0.6,0.8j", 3: "0.5,0.5j,-0.7071067812"}
STRATEGIES = ("none", "usd", "minerror", "sep:maximal", "maxconf")


def grid() -> list[list[str]]:
    runs = []
    for d, channels in CHANNELS.items():
        for channel in channels:
            for m in (1, 2, 3, 5):
                for strategy in STRATEGIES:
                    base = ["--d", str(d), "--m-copies", str(m), "--channel", channel, "--strategy", strategy]
                    runs += [
                        ["simulate", *base, "--input", INPUTS[d]],
                        ["simulate", *base, "--input", INPUTS[d], "--format", "csv", "--recon", "s2"],
                        ["simulate", *base, "--recon", "s2"],
                        ["haar", *base, "--input", "haar:17:50"],
                        ["haar", *base, "--input", "haar:4294967299:20", "--format", "csv", "--recon", "s2"],
                    ]
    runs += [
        ["sweep", "--d", "2..4", "--channel", "cmin2=[0.05..0.25:9]"],
        ["sweep", "--d", "2,3", "--channel", "c=[0.8,0.6]", "--m-copies", "3", "--format", "json"],
        ["--help"],
        ["simulate", "--help"],
        ["--version"],
    ]
    return runs


def run_in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_fresh(argv: list[str]) -> tuple[int, bytes, bytes]:
    done = subprocess.run([sys.executable, "-m", "qtc.cli", *argv], capture_output=True, check=False)
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--fresh", action="store_true", help="run each invocation in its own process")
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"  # --help wraps to the terminal width
    run = run_fresh if args.fresh else run_in_process
    total = hashlib.sha256()
    for argv in grid():
        code, out, err = run(argv)
        digest = hashlib.sha256(out + b"\0" + err).hexdigest()
        line = f"{code} {digest} {' '.join(argv)}\n"
        total.update(line.encode())
        sys.stdout.write(line)
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
