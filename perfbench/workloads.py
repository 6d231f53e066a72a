"""The three benchmark workloads: their inputs, their timed calls and their checks.

A workload hands the runner one round of operations at a time. Every round
holds the same kinds of operation in the same order, and its inputs come
from ``default_rng([seed, round + 1])`` (warm-up uses ``[seed, 0]``), so a seed fixes the inputs and every run
attempts whole rounds of the same mix. Each operation's ``call`` is the timed
region; its ``check`` runs afterwards, untimed, and raises ``CheckFailed``
when an output disagrees with the benchmark's own closed forms.

The package is reached through module attributes (``cli.main``,
``protocol.run_exact``) at call time, so the traced run's wrappers, which
replace those attributes, see every call.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from qtc import cli, protocol

from checks import (
    Branch,
    SimCase,
    check_comparisons,
    check_haar_usd,
    check_marginal,
    check_pooled_failure_mean,
    check_simulation,
    check_sweep_rows,
    expect,
    haar_inputs,
)

CSV_COLUMNS = [
    "run_id", "d", "M", "channel", "strategy", "branch_m", "branch_n", "flag",
    "probability", "fidelity", "formula_name", "formula_value", "abs_diff",
]


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


class Counts(NamedTuple):
    """What one operation did, read from its report."""

    branches: int = 0
    nonzero: int = 0
    report_bytes: int = 0


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], Counts]
    inputs: int
    register: int  # amplitudes of the largest register, d^(2M+1); 0 when none is built
    known_fault: bool = False  # fails every time until the fault it shows is fixed


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


# --- input generation ---------------------------------------------------------


def full_rank_channel(rng, d: int) -> np.ndarray:
    x = rng.uniform(0.05, 1.0, d)
    return np.sqrt(x / x.sum())


def rank_deficient_channel(rng, d: int) -> np.ndarray:
    """Between 2 and d-1 nonzero coefficients, as maximum confidence needs."""
    support = rng.choice(d, int(rng.integers(2, d)), replace=False)
    x = np.zeros(d)
    x[support] = rng.uniform(0.05, 1.0, support.size)
    return np.sqrt(x / x.sum())


def more_entangled(rng, c: np.ndarray) -> np.ndarray:
    lam = rng.uniform(0.3, 0.9)
    return np.sqrt((1 - lam) * c**2 + lam / c.size)


def random_input(rng, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def coeff_token(c: np.ndarray) -> str:
    return "c=[" + ",".join(repr(float(v)) for v in c) + "]"


def input_token(alpha: np.ndarray) -> str:
    return ",".join(repr(complex(a)) for a in alpha)


# --- report parsing ---------------------------------------------------------------


def _fidelities(values) -> tuple[float, ...] | None:
    return None if values is None else tuple(float(v) for v in values)


def json_branches(results: dict) -> list[Branch]:
    return [
        Branch(b["m"], b["n"], b["flag"], b["probability"], _fidelities(b["clone_fidelities"]))
        for b in results["branches"]
    ]


def parse_simulate(res: CliResult, fmt: str):
    """Branches and (name, status) comparison rows of a simulate report."""
    expect(res.code in (0, 2), f"simulate exited {res.code}: {res.err.strip()}")
    if fmt == "json":
        results = json.loads(res.out)["results"]
        comps = [(c["name"], c["status"]) for c in results["comparisons"]]
        return json_branches(results), comps
    rows = list(csv.reader(io.StringIO(res.out)))
    expect(rows[0] == CSV_COLUMNS, f"CSV header {rows[0]}")
    branches, comps = [], []
    for row in rows[1:]:
        if row[10]:
            comps.append((row[10], row[7]))
            continue
        fid = None if row[9] == "" else (float(row[9]),)
        n = None if row[6] == "" else int(row[6])
        branches.append(Branch(int(row[5]), n, row[7] or None, float(row[8]), fid))
    return branches, comps


def parse_sweep(res: CliResult, fmt: str) -> list[dict]:
    expect(res.code == 0, f"sweep exited {res.code}: {res.err.strip()}")
    if fmt == "json":
        return [dict(r, M=r["m_copies"]) for r in json.loads(res.out)["rows"]]
    rows = list(csv.DictReader(io.StringIO(res.out)))
    floats = ("cmin2", "p_success", "f_av", "f_est", "f_opt")
    return [
        dict(r, **{k: float(r[k]) for k in floats}, above_threshold=r["above_threshold"] == "True")
        for r in rows
    ]


def _counts(branches: list[Branch], report_bytes: int = 0, per: int = 1) -> Counts:
    live = sum(b.fidelities is not None for b in branches)
    return Counts(len(branches) * per, live * per, report_bytes)


# --- haar-usd ---------------------------------------------------------------------


class HaarUsd:
    """``qtc haar`` with USD correction on acceptance criterion 4's two channels.

    A round is two d=2 calls and one d=3 call, so the median call lies
    inside the d=2 population rather than between the two.
    """

    name = "haar-usd"
    CHANNELS = {2: (0.9, 0.1), 3: (0.5, 0.4, 0.1)}  # squared coefficients
    ROUND = (2, 2, 3)
    WARMUP = {4: (0.4, 0.3, 0.2, 0.1)}  # a (d, M) the timed calls never use

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.samples = 8 if tiny else 100
        self.failure_means: dict[int, list] = {d: [] for d in self.CHANNELS}

    def op(self, d: int, c2, haar_seed: int, samples: int, pooled: list | None) -> Op:
        c = np.sqrt(np.asarray(c2, dtype=float))
        argv = ["haar", "--d", str(d), "--channel", coeff_token(c), "--strategy", "usd",
                "--input", f"haar:{haar_seed}:{samples}", "--format", "json"]

        def check(res: CliResult) -> Counts:
            expect(res.code in (0, 2), f"haar exited {res.code}: {res.err.strip()}")
            results = json.loads(res.out)["results"]
            branches = json_branches(results)
            haar = results["haar"]
            fail = check_haar_usd(
                c, 2, haar_inputs(haar_seed, samples, d), branches, haar["class_stats"],
                (haar["overall_mean"], haar["overall_stderr"]), results["bands"], res.code,
            )
            if pooled is not None:
                pooled.append(fail)
            return _counts(branches, len(res.out), per=samples)

        return Op(lambda: run_cli(argv), check, samples, d**5)

    def warmup(self) -> list[Op]:
        return [self.op(d, c2, 7, 10, None) for d, c2 in self.WARMUP.items()]

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r + 1])
        return [
            self.op(d, self.CHANNELS[d], int(rng.integers(2**31)), self.samples, self.failure_means[d])
            for d in self.ROUND
        ]

    def finish(self) -> None:
        for d, calls in self.failure_means.items():
            if calls:
                check_pooled_failure_mean(d, calls)


# --- cli-scan -----------------------------------------------------------------------


def simulate_op(kind: str, case: SimCase, recon: str, fmt: str) -> Op:
    d, copies = case.d, case.copies
    channel = "maximal" if kind == "maximal" else coeff_token(case.coeffs)
    strategy = kind
    if kind == "maximal":
        strategy = "none"
    elif kind == "sep:c":
        strategy = "sep:" + coeff_token(case.target)
    argv = ["simulate", "--d", str(d), "--m-copies", str(copies), "--channel", channel,
            "--strategy", strategy, "--input", input_token(case.alpha), "--recon", recon, "--format", fmt]

    def check(res: CliResult) -> Counts:
        branches, comps = parse_simulate(res, fmt)
        check_comparisons(comps, res.code)
        check_simulation(case, branches)
        return _counts(branches, len(res.out))

    return Op(lambda: run_cli(argv), check, 1, d ** (2 * copies + 1))


def sweep_op(dims: str, grid_token: str, grid: list[tuple[int, float]], copies: int, fmt: str, known_fault=False) -> Op:
    argv = ["sweep", "--d", dims, "--m-copies", str(copies), "--channel", grid_token, "--format", fmt]

    def check(res: CliResult) -> Counts:
        check_sweep_rows(parse_sweep(res, fmt), grid, copies)
        return Counts(report_bytes=len(res.out))

    return Op(lambda: run_cli(argv), check, 1, 0, known_fault)


class CliScan:
    """In-process ``qtc simulate`` and ``qtc sweep`` calls, one configuration each.

    A round runs every (strategy, d, M) slot once with a fresh channel and
    input, a few seeded sweeps at M=2, and one sweep at M=3 whose grid
    depends on the round index only. That sweep shows a known fault (the
    sweep prints the 1->2 forms whatever ``--m-copies`` is), so it fails
    every time, and failed operations are the same share of every run.
    """

    name = "cli-scan"
    KINDS = ("none", "maximal", "usd", "minerror", "sep:maximal", "sep:c", "maxconf")
    REGISTER_CAP = 20_000  # amplitudes of the full register, d^(2M+1)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        cap = 300 if tiny else self.REGISTER_CAP
        self.slots = [
            (kind, d, m)
            for kind in self.KINDS
            for d in range(2, 6)
            for m in range(1, 5)
            if d ** (2 * m + 1) <= cap and (kind != "maxconf" or d >= 3)
        ]

    def _case(self, rng, kind: str, d: int, copies: int) -> SimCase:
        if kind == "maximal":
            coeffs = np.full(d, 1 / np.sqrt(d))
        elif kind == "maxconf":
            coeffs = rank_deficient_channel(rng, d)
        else:
            coeffs = full_rank_channel(rng, d)
        target = None
        if kind == "sep:maximal":
            target = np.full(d, 1 / np.sqrt(d))
        elif kind == "sep:c":
            target = more_entangled(rng, coeffs)
        check_kind = {"maximal": "none", "sep:maximal": "sep", "sep:c": "sep"}.get(kind, kind)
        return SimCase(d, copies, check_kind, coeffs, random_input(rng, d), target)

    def warmup(self) -> list[Op]:
        # d=6 lies outside every timed slot, so nothing cached per (d, M) carries over
        rng = np.random.default_rng([self.seed, 0])
        ops = [
            simulate_op(kind, self._case(rng, kind, 6, 1), "s4", fmt)
            for kind, fmt in (("usd", "json"), ("minerror", "csv"), ("maxconf", "json"), ("sep:c", "csv"))
        ]
        ops.append(sweep_op("6", "cmin2=[0.05,0.1]", [(6, 0.05), (6, 0.1)], 2, "json"))
        return ops

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r + 1])
        ops = []
        for i, (kind, d, copies) in enumerate(self.slots):
            recon = ("s2", "s4")[(i + r) % 2]
            fmt = ("json", "csv")[(i // 2 + r) % 2]
            ops.append(simulate_op(kind, self._case(rng, kind, d, copies), recon, fmt))

        values = [float(v) for v in rng.uniform(0.005, 0.25, 4)]
        token = "cmin2=[" + ",".join(repr(v) for v in values) + "]"
        ops.append(sweep_op("2..4", token, [(d, v) for d in (2, 3, 4) for v in values], 2, ("csv", "json")[r % 2]))
        lo, hi = sorted(float(v) for v in rng.uniform(0.005, 0.2, 2))
        token = f"cmin2=[{lo!r}..{hi!r}:5]"
        grid = [(d, float(v)) for d in (2, 5) for v in np.linspace(lo, hi, 5)]
        ops.append(sweep_op("2,5", token, grid, 2, ("json", "csv")[r % 2]))

        # seed-independent: the fault shows on every input, so keep its inputs fixed
        fixed = [0.01 * (1 + r % 10), 0.2 - 0.01 * (r % 7)]
        token = "cmin2=[" + ",".join(repr(v) for v in fixed) + "]"
        grid = [(d, v) for d in (2, 3, 4, 5) for v in fixed]
        ops.append(sweep_op("2..5", token, grid, 3, ("csv", "json")[r % 2], known_fault=True))
        return ops

    def finish(self) -> None:
        pass


# --- large-register -------------------------------------------------------------------


class LargeRegister:
    """Exact runs near the largest sizes, each on a fresh channel and input.

    Each input is the ``config`` block of a saved JSON report, turned into a
    configuration by ``qtc.cli.config_from_report``; the call is then what
    ``qtc simulate`` does (``run_exact`` keeping states, ``compare_to_formulas``)
    plus ``clone_marginal`` on the most probable branch.
    """

    name = "large-register"
    SIZES = ((2, 9, "usd"), (2, 8, "none"), (4, 4, "none"), (5, 3, "usd"), (3, 5, "usd"), (3, 4, "sep:maximal"))
    TINY = ((2, 3, "usd"), (2, 2, "none"), (3, 2, "sep:maximal"))
    WARMUP = ((2, 3, "usd"), (3, 2, "none"), (2, 4, "sep:maximal"))  # sizes the timed calls never use

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.sizes = self.TINY if tiny else self.SIZES

    @staticmethod
    def op(rng, d: int, copies: int, strategy: str, recon: str) -> Op:
        coeffs = full_rank_channel(rng, d)
        alpha = random_input(rng, d)
        doc = {"config": {
            "d": d, "m_copies": copies, "flow": "bell" if strategy == "none" else "gxor",
            "strategy": strategy, "recon": recon, "channel_coefficients": [float(v) for v in coeffs],
            "input_amplitudes": [[float(a.real), float(a.imag)] for a in alpha],
        }}
        target = np.full(d, 1 / np.sqrt(d)) if strategy == "sep:maximal" else None
        case = SimCase(d, copies, "sep" if target is not None else strategy, coeffs, alpha, target)

        def call():
            config = cli.config_from_report(doc)
            report = protocol.compare_to_formulas(protocol.run_exact(config))
            top = max(report.branches, key=lambda b: b.probability)
            return report, top, protocol.clone_marginal(top)

        def check(result) -> Counts:
            report, top, rho = result
            branches = [Branch(b.m, b.n, b.flag, b.probability, b.clone_fidelities) for b in report.branches]
            check_comparisons([(c.name, c.status) for c in report.comparisons], None)
            check_simulation(case, branches)
            check_marginal(rho.matrix, alpha, top.clone_fidelities[0])
            return _counts(branches)

        return Op(call, check, 1, d ** (2 * copies + 1))

    def warmup(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 0])
        return [self.op(rng, d, m, s, "s4") for d, m, s in self.WARMUP]

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r + 1])
        return [self.op(rng, d, m, s, ("s4", "s2")[r % 2]) for d, m, s in self.sizes]

    def finish(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (HaarUsd, CliScan, LargeRegister)}
