"""Command-line front end: exact runs, threshold sweeps, Haar averages.

Three subcommands:

* ``simulate``: run the exact protocol once, cross-check every applicable
  closed form, and write a JSON or CSV report. Exit code 2 if any
  comparison is flagged DISCREPANCY.

* ``sweep``: closed-form threshold analysis over a grid of dimensions and
  channels; one row per grid point with the correction success probability,
  the corrected average fidelity, the classical estimation fidelity, the
  optimal cloning fidelity, and an exact above-threshold boolean.

* ``haar``: average the exact protocol over Haar-random inputs and check
  the known targets (for example the failure-branch mean against 1/d)
  within 3 standard errors.

Reports are deterministic: keys are sorted, floats use shortest repr, the
run id is a hash of the resolved configuration, and no timestamps are
embedded, so the same arguments yield byte-identical output. The only
randomness is the Haar input stream, seeded by ``--input haar:SEED:N``.

CSV reports use one fixed column set: run_id, d, M, channel, strategy,
branch_m, branch_n, flag, probability, fidelity, formula_name,
formula_value, abs_diff. Branch rows leave the formula columns empty;
comparison rows leave the branch columns empty and reuse ``flag`` for the
MATCH/DISCREPANCY status. Sweep tables are a separate plot-ready schema.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, formulas
from .discrimination import Strategy
from .protocol import (
    COMPARE_TOL,
    HaarSpec,
    ProtocolConfig,
    RunReport,
    compare_to_formulas,
    haar_average,
    run_exact,
)
from .registers import MemoryBudgetError, StateVector
from .symmetric import Channel

__all__ = ["main", "build_parser", "load_report", "config_from_report"]

CSV_COLUMNS = [
    "run_id",
    "d",
    "M",
    "channel",
    "strategy",
    "branch_m",
    "branch_n",
    "flag",
    "probability",
    "fidelity",
    "formula_name",
    "formula_value",
    "abs_diff",
]

SWEEP_COLUMNS = [
    "run_id",
    "d",
    "M",
    "channel",
    "strategy",
    "cmin2",
    "p_success",
    "f_av",
    "f_est",
    "f_opt",
    "above_threshold",
]


class CliError(Exception):
    """Configuration or I/O problem; the message names the offending field."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise CliError instead of exiting."""

    def error(self, message):
        raise CliError(message)


def _parse_input(text: str, d: int) -> StateVector | HaarSpec:
    if text.startswith("haar:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"--input: expected haar:SEED:SAMPLES, got {text!r}")
        try:
            seed, samples = int(parts[1]), int(parts[2])
        except ValueError:
            raise CliError(f"--input: non-integer seed/samples in {text!r}") from None
        try:
            return HaarSpec(seed, samples)
        except ValueError as exc:
            raise CliError(f"--input: {exc}") from None
    try:
        amps = np.array([complex(tok) for tok in text.split(",")])
    except ValueError:
        raise CliError(f"--input: could not parse amplitudes {text!r}") from None
    if amps.size != d:
        raise CliError(f"--input: {amps.size} amplitudes for dimension {d}")
    if not np.all(np.isfinite(amps)):
        raise CliError(f"--input: amplitudes must be finite, got {text!r}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(amps)
    if not math.isfinite(norm):
        raise CliError(f"--input: the norm of {text!r} overflows")
    if norm < 1e-12:
        raise CliError("--input: zero vector")
    return StateVector((d,), ("X",), amps / norm)


def _parse_int_grid(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise CliError(f"--d: expected integers (2,3 or 2..4), got {text!r}") from None


def _parse_channel_grid(text: str) -> tuple[str, list]:
    """Sweep channel token: fixed spec, or a cmin2=[...] grid."""
    if text.startswith("cmin2="):
        body = text[len("cmin2="):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise CliError(f"--channel: expected cmin2=[...], got {text!r}")
        body = body[1:-1].strip()
        if not body:
            return "cmin2", []
        try:
            if ".." in body:
                span, _, steps = body.partition(":")
                lo, hi = span.split("..")
                n = int(steps) if steps else 10
                if n < 1:
                    raise CliError(f"--channel: cmin2 grid needs at least one point, got {n}")
                return "cmin2", [float(v) for v in np.linspace(float(lo), float(hi), n)]
            return "cmin2", [float(tok) for tok in body.split(",")]
        except ValueError:
            raise CliError(f"--channel: could not parse the cmin2 grid {text!r}") from None
    return "fixed", [text]


def _cmin2_channel(d: int, q: float) -> Channel:
    if not 0 < q <= 1 / d + 1e-12:
        raise CliError(f"--channel: cmin2 value {q} outside (0, 1/d] for d={d}")
    rest = (1 - q) / (d - 1)
    return Channel(np.sqrt([q] + [rest] * (d - 1)))


def _resolve_strategy(token: str, d: int) -> Strategy:
    try:
        return Strategy.parse(token, d)
    except ValueError as exc:
        raise CliError(f"--strategy: {exc}") from None


def _resolve_channel(token: str, d: int) -> Channel:
    # surface the library's renormalization warning on stderr every time,
    # even when warning filters would dedupe it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            channel = Channel.parse(token, d)
        except ValueError as exc:
            raise CliError(f"--channel: {exc}") from None
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return channel


def _config_dict(args, config: ProtocolConfig) -> dict:
    spec = config.input_spec
    if isinstance(spec, HaarSpec):
        input_token = f"haar:{spec.seed}:{spec.samples}"
        input_amps = None
    elif isinstance(spec, StateVector):
        input_token = args.input
        input_amps = [[float(a.real), float(a.imag)] for a in spec.amps]
    else:
        input_token = None
        input_amps = None
    return {
        "command": args.command,
        "d": config.d,
        "m_copies": config.copies,
        "channel": args.channel,
        "channel_coefficients": [float(c) for c in config.channel.coeffs],
        "strategy": args.strategy,
        "flow": config.flow,
        "recon": config.recon_variant,
        "input": input_token,
        "input_amplitudes": input_amps,
        "tol": args.tol,
    }


def _run_id(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _branch_rows(run_id: str, cfg: dict, report: RunReport) -> list[list]:
    head = [run_id, cfg["d"], cfg["m_copies"], cfg["channel"], cfg["strategy"]]
    rows = []
    for b in report.branches:
        rows.append(
            head
            + [
                b.m,
                "" if b.n is None else b.n,
                b.flag or "",
                repr(b.probability),
                "" if b.zero else repr(b.clone_fidelities[0]),
                "",
                "",
                "",
            ]
        )
    for c in report.comparisons:
        rows.append(head + ["", "", c.status, "", "", c.name, repr(c.closed_form), repr(c.abs_diff)])
    return rows


def _branches_json(report: RunReport) -> list[dict]:
    out = []
    for b in report.branches:
        out.append(
            {
                "m": b.m,
                "n": b.n,
                "flag": b.flag,
                "probability": b.probability,
                "clone_fidelities": None if b.zero else list(b.clone_fidelities),
                "zero": b.zero,
            }
        )
    return out


def _report_json(run_id: str, cfg: dict, report: RunReport, extra: dict | None = None) -> str:
    results: dict = {
        "average_fidelity": report.average_fidelity,
        "conditional_averages": report.conditional_averages,
        "branches": _branches_json(report),
        "comparisons": [
            {
                "name": c.name,
                "simulated": c.simulated,
                "closed_form": c.closed_form,
                "abs_diff": c.abs_diff,
                "status": c.status,
            }
            for c in report.comparisons
        ],
        "notes": list(report.notes),
        "discrepancies": sum(c.status == "DISCREPANCY" for c in report.comparisons),
    }
    if report.haar is not None:
        results["haar"] = {
            "samples": report.haar.samples,
            "seed": report.haar.seed,
            "overall_mean": report.haar.overall_mean,
            "overall_stderr": report.haar.overall_stderr,
            "class_stats": report.haar.class_stats,
        }
    if extra:
        results.update(extra)
    return _json_text({"version": __version__, "run_id": run_id, "config": cfg, "results": results})


def _json_text(doc: dict) -> str:
    """The one serialization of every JSON report: sorted keys, strict floats (no NaN)."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write(out_path: str | None, text: str) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"--out: {exc}") from None
    else:
        sys.stdout.write(text)


def _csv_text(columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _build_config(args, input_required: bool = True) -> ProtocolConfig:
    if args.d < 2:
        raise CliError(f"--d: dimension must be at least 2, got {args.d}")
    if args.m_copies < 1:
        raise CliError(f"--m-copies: need at least one clone, got {args.m_copies}")
    channel = _resolve_channel(args.channel, args.d)
    strategy = _resolve_strategy(args.strategy, args.d)
    flow = "bell" if strategy.kind == "none" else "gxor"
    if args.input is None:
        if input_required:
            args.input = ",".join(["1"] + ["0"] * (args.d - 1))
        input_spec = None
    if args.input is not None:
        input_spec = _parse_input(args.input, args.d)
    try:
        return ProtocolConfig(
            channel=channel,
            copies=args.m_copies,
            flow=flow,
            strategy=strategy,
            recon_variant=args.recon,
            input_spec=input_spec,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_simulate(args) -> int:
    config = _build_config(args)
    if isinstance(config.input_spec, HaarSpec):
        raise CliError("--input: simulate needs explicit amplitudes; use the haar command")
    report = compare_to_formulas(run_exact(config, keep_states=False), args.tol)
    cfg = _config_dict(args, config)
    run_id = _run_id(cfg)
    if args.format == "json":
        _write(args.out, _report_json(run_id, cfg, report))
    else:
        _write(args.out, _csv_text(CSV_COLUMNS, _branch_rows(run_id, cfg, report)))
    return 2 if any(c.status == "DISCREPANCY" for c in report.comparisons) else 0


def _haar_bands(config: ProtocolConfig, report: RunReport) -> list[dict]:
    d, m_copies = config.d, config.copies
    kind = config.strategy.kind
    stats = report.haar
    bands = []

    def band(name: str, mean: float, stderr: float, target: float) -> dict:
        width = max(3 * stderr, 1e-10)
        return {
            "class": name,
            "mean": mean,
            "stderr": stderr,
            "target": float(target),
            "within_3sigma": bool(abs(mean - target) <= width),
        }

    if kind in ("none", "minerror") and m_copies == 2:
        bands.append(band("all", stats.overall_mean, stats.overall_stderr, formulas.clone_fidelity_haar(config.channel)))
    if kind == "usd":
        p = formulas.usd_success_probability(config.channel)
        target_all = p * formulas.optimal_fidelity(d, m_copies) + (1 - p) / d
        bands.append(band("all", stats.overall_mean, stats.overall_stderr, target_all))
        for cls, target in (("success", formulas.optimal_fidelity(d, m_copies)), ("fail", formulas.failure_fidelity_avg(d))):
            if cls in stats.class_stats:
                cs = stats.class_stats[cls]
                bands.append(band(cls, cs["mean"], cs["stderr"], target))
    if kind == "separation" and m_copies == 2 and "success" in stats.class_stats:
        cs = stats.class_stats["success"]
        bands.append(band("success", cs["mean"], cs["stderr"], formulas.clone_fidelity_haar(config.strategy.target)))
    return bands


def cmd_haar(args) -> int:
    config = _build_config(args, input_required=False)
    if not isinstance(config.input_spec, HaarSpec):
        raise CliError("--input: the haar command needs --input haar:SEED:SAMPLES")
    report = haar_average(config)
    bands = _haar_bands(config, report)
    cfg = _config_dict(args, config)
    run_id = _run_id(cfg)
    if args.format == "json":
        _write(args.out, _report_json(run_id, cfg, report, {"bands": bands}))
    else:
        rows = _branch_rows(run_id, cfg, report)
        for b in bands:
            rows.append(
                [run_id, cfg["d"], cfg["m_copies"], cfg["channel"], cfg["strategy"], "", "", b["class"], "", repr(b["mean"]), "haar_target", repr(b["target"]), repr(abs(b["mean"] - b["target"]))]
            )
        _write(args.out, _csv_text(CSV_COLUMNS, rows))
    return 0 if all(b["within_3sigma"] for b in bands) else 2


def cmd_sweep(args) -> int:
    if args.strategy not in ("usd", "none"):
        raise CliError("--strategy: sweep reports the filter-correction threshold; use usd (or none)")
    if args.m_copies < 1:
        raise CliError(f"--m-copies: need at least one clone, got {args.m_copies}")
    dims = _parse_int_grid(args.d)
    if any(d < 2 for d in dims):
        raise CliError("--d: dimensions must be at least 2")
    mode, values = _parse_channel_grid(args.channel)
    points = [(d, v) for d in dims for v in values]
    if not points:
        raise CliError("empty sweep grid")
    rows = []
    json_rows = []
    for index, (d, value) in enumerate(points):
        if mode == "cmin2":
            channel = _cmin2_channel(d, value)
            token = f"cmin2={value!r}"
        else:
            channel = _resolve_channel(value, d)
            token = value
        q = float(channel.c_min**2)
        p = d * q
        f_av = formulas.usd_average_fidelity(d, p, args.m_copies)
        f_est = formulas.estimation_fidelity(d)
        f_opt = formulas.optimal_fidelity(d, args.m_copies)
        above = q >= formulas.classical_threshold(d, args.m_copies)
        run_id = _run_id({"command": "sweep", "d": d, "channel": token, "m": args.m_copies, "index": index})
        rows.append([run_id, d, args.m_copies, token, "usd", repr(q), repr(p), repr(f_av), repr(f_est), repr(f_opt), above])
        json_rows.append(
            {
                "run_id": run_id,
                "d": d,
                "m_copies": args.m_copies,
                "channel": token,
                "strategy": "usd",
                "cmin2": q,
                "p_success": p,
                "f_av": f_av,
                "f_est": f_est,
                "f_opt": f_opt,
                "above_threshold": above,
            }
        )
    if args.format == "json":
        doc = {
            "version": __version__,
            "config": {"command": "sweep", "d": args.d, "m_copies": args.m_copies, "channel": args.channel},
            "rows": json_rows,
        }
        _write(args.out, _json_text(doc))
    else:
        _write(args.out, _csv_text(SWEEP_COLUMNS, rows))
    return 0


def load_report(path: str) -> dict:
    """Parse a JSON report emitted by this tool."""
    with open(path) as fh:
        return json.load(fh)


def config_from_report(doc: dict) -> ProtocolConfig:
    """Rebuild the protocol configuration a JSON report was produced with."""
    cfg = doc["config"]
    channel = Channel(np.asarray(cfg["channel_coefficients"]))
    strategy = Strategy.parse(cfg["strategy"], cfg["d"])
    if cfg.get("input_amplitudes") is not None:
        amps = np.array([complex(re, im) for re, im in cfg["input_amplitudes"]])
        input_spec = StateVector((cfg["d"],), ("X",), amps)
    elif cfg.get("input"):
        input_spec = _parse_input(cfg["input"], cfg["d"])
    else:
        input_spec = None
    return ProtocolConfig(
        channel=channel,
        copies=cfg["m_copies"],
        flow=cfg["flow"],
        strategy=strategy,
        recon_variant=cfg["recon"],
        input_spec=input_spec,
    )


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the ``qtc`` command line."""
    parser = _Parser(
        prog="qtc",
        description="Exact simulation of qudit telecloning through partially entangled channels.",
    )
    parser.add_argument("--version", action="version", version=f"qtc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, d_type=int):
        p.add_argument("--d", type=d_type, default=d_type(2), help="qudit dimension")
        p.add_argument("--m-copies", type=int, default=2, help="number of clones")
        p.add_argument("--channel", default="maximal", help="maximal | rank1 | c=[...]")
        p.add_argument(
            "--strategy",
            default="none",
            help="none | usd | minerror | sep:<maximal|c=[...]> | maxconf",
        )
        p.add_argument("--input", default=None, help="comma amplitudes or haar:SEED:SAMPLES")
        p.add_argument("--recon", default="s4", choices=["s2", "s4"], help="reconstruction phase convention")
        p.add_argument("--format", default=None, choices=["json", "csv"], help="report format")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=COMPARE_TOL, help="comparison tolerance")

    sim = sub.add_parser("simulate", help="single exact run with closed-form cross-checks")
    add_common(sim)
    sim.set_defaults(func=cmd_simulate, default_format="json")

    sweep = sub.add_parser("sweep", help="closed-form threshold table over a (d, channel) grid")
    add_common(sweep, d_type=str)
    sweep.set_defaults(func=cmd_sweep, default_format="csv")
    sweep.set_defaults(strategy="usd")

    haar = sub.add_parser("haar", help="Haar-average the exact protocol")
    add_common(haar)
    haar.set_defaults(func=cmd_haar, default_format="json")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses; parsing mutates only the Namespace it returns."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.format is None:
            args.format = args.default_format
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise CliError(f"--tol: must be finite and non-negative, got {args.tol!r}")
        return args.func(args)
    except SystemExit as exc:
        # only --help and --version exit from argparse; usage errors raise CliError
        return 0 if not exc.code else 1
    except (CliError, ValueError, TypeError, OSError, MemoryBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
