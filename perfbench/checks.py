"""Independent closed forms and the output checks built on them.

Nothing here imports ``qtc``: every expected value is computed with NumPy
from the paper's closed forms, so a check compares the package against a
second route to the same number, never against a stored earlier output.

Notation: ``alpha`` are the input amplitudes, ``c`` the channel's Schmidt
coefficients, ``M`` the number of clones; shifted indices are mod d.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

TOL = 1e-9
"""Absolute tolerance of every exact check; the engine agrees to ~1e-14."""

HAAR_POOLED_SIGMAS = 5.0
"""Width, in pooled standard errors, of the run-level Haar check (see README)."""


class CheckFailed(AssertionError):
    """An output disagrees with the value the benchmark computed itself."""


class Branch(NamedTuple):
    """One protocol branch as a report shows it; zero branches carry no fidelities."""

    m: int
    n: int | None
    flag: str | None
    probability: float
    fidelities: tuple[float, ...] | None


class SimCase(NamedTuple):
    """The inputs of one exact run, as the benchmark generated them."""

    d: int
    copies: int
    kind: str  # none | usd | minerror | sep | maxconf
    coeffs: np.ndarray
    alpha: np.ndarray
    target: np.ndarray | None = None


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(name: str, got: float, want: float, tol: float = TOL) -> None:
    expect(abs(got - want) <= tol, f"{name}: got {got!r}, expected {want!r}")


# --- closed forms ---------------------------------------------------------


def optimal_fidelity(d: int, copies: int) -> float:
    """Optimal universal 1 -> M cloning fidelity (2M+d-1)/(M(d+1))."""
    return (2 * copies + d - 1) / (copies * (d + 1))


def shrinking_factor(d: int, copies: int) -> float:
    """Werner's eta_M = (M+d)/(M(d+1)) (PRA 58, 1827 (1998))."""
    return (copies + d) / (copies * (d + 1))


def shift_terms(alpha: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m = sum_k |alpha_k|^2 c_{k+m}^2 and S_m = sum_k |alpha_k|^2 c_{k+m}.

    ``alpha`` may carry leading sample axes; m runs over the last axis.
    """
    w = np.abs(alpha) ** 2
    d = c.size
    shifted = np.stack([np.roll(c, -m) for m in range(d)])  # [m, k] = c_{k+m}
    return w @ (shifted**2).T, w @ shifted.T


def branch_fidelity(d: int, copies: int, p_m, s_m):
    """Uncorrected branch fidelity (1 - eta_M)/d + eta_M S_m^2 / P_m."""
    eta = shrinking_factor(d, copies)
    return (1 - eta) / d + eta * s_m**2 / p_m


def usd_failure_terms(alpha: np.ndarray, c: np.ndarray, copies: int):
    """Per-shift USD failure weights W_m = P_m - c_min^2 and weighted fidelities.

    The weighted fidelity is W_m F_m = (1 - eta_M)/d W_m + eta_M sum_j
    |alpha_j|^2 |alpha_{j+m}|^2 (c_{j+m}^2 - c_min^2); ``alpha`` may carry
    leading sample axes.
    """
    d = c.size
    eta = shrinking_factor(d, copies)
    cmin2 = float(c.min()) ** 2
    p, _ = shift_terms(alpha, c)
    w = np.abs(alpha) ** 2
    seg = np.stack(
        [np.sum(w * np.roll(w, -m, axis=-1) * (np.roll(c, -m) ** 2 - cmin2), axis=-1) for m in range(d)],
        axis=-1,
    )
    weight = p - cmin2
    return weight, (1 - eta) / d * weight + eta * seg


def sweep_row(d: int, copies: int, cmin2: float) -> dict:
    """Threshold-table entries for a channel with smallest c^2 equal to cmin2."""
    p = d * cmin2
    f_opt = optimal_fidelity(d, copies)
    return {
        "p_success": p,
        "f_av": p * f_opt + (1 - p) / d,
        "f_est": 2 / (d + 1),
        "f_opt": f_opt,
        "above_threshold": cmin2 >= copies / (d * (copies + d)),
    }


# --- checks on one exact run ------------------------------------------------


def _mass(branches, pred) -> float:
    return sum(b.probability for b in branches if pred(b))


def check_simulation(case: SimCase, branches: list[Branch]) -> None:
    """Every branch of one exact run against the closed forms."""
    d, copies, kind = case.d, case.copies, case.kind
    c, alpha = case.coeffs, case.alpha
    f_opt = optimal_fidelity(d, copies)
    p_m, s_m = shift_terms(alpha, c)
    expect(len(branches) > 0, "report has no branches")
    close("branch probabilities sum", _mass(branches, lambda b: True), 1.0)
    for m in range(d):
        close(f"P_{m}", _mass(branches, lambda b: b.m == m), p_m[m])
    for b in branches:
        if b.fidelities is None:
            continue
        close(f"clone symmetry of branch {b[:3]}", max(b.fidelities), min(b.fidelities))
    live = [b for b in branches if b.fidelities is not None]
    maximal = bool(np.allclose(c, 1 / np.sqrt(d), atol=1e-12))

    if kind in ("none", "minerror"):
        for b in live:
            close(f"probability of branch {b[:3]}", b.probability, p_m[b.m] / d)
            close(f"fidelity of branch {b[:3]}", b.fidelities[0], branch_fidelity(d, copies, p_m[b.m], s_m[b.m]))
    success = [b for b in live if b.flag == "success"]
    sep_maximal = kind == "sep" and bool(np.allclose(case.target, 1 / np.sqrt(d), atol=1e-12))
    if kind == "usd" or sep_maximal:
        close("success mass d*c_min^2", _mass(branches, lambda b: b.flag == "success"), d * float(c.min()) ** 2)
        for b in success:
            close(f"success fidelity of branch {b[:3]}", b.fidelities[0], f_opt)
    if kind == "usd":
        weight, weighted = usd_failure_terms(alpha, c, copies)
        for m in range(d):
            fail = [b for b in live if b.flag == "fail" and b.m == m]
            close(f"failure weight W_{m}", _mass(fail, lambda b: True), weight[m])
            close(f"failure weighted fidelity m={m}", sum(b.probability * b.fidelities[0] for b in fail), weighted[m])
    if kind == "sep" and not sep_maximal:
        t = case.target
        gamma2 = float(np.min(c / t)) ** 2
        tp, ts = shift_terms(alpha, t)
        close("separation success mass", _mass(branches, lambda b: b.flag == "success"), gamma2)
        for b in success:
            close(f"separation probability of branch {b[:3]}", b.probability, gamma2 * tp[b.m] / d)
            close(f"separation fidelity of branch {b[:3]}", b.fidelities[0], branch_fidelity(d, copies, tp[b.m], ts[b.m]))
    if kind == "maxconf":
        nonzero = c[c > 1e-14]
        want = 1 - nonzero.size * float(nonzero.min()) ** 2
        close("inconclusive mass", _mass(branches, lambda b: b.flag == "inconclusive"), want)
    if maximal and kind != "sep":
        for b in live:
            close(f"maximal-channel fidelity of branch {b[:3]}", b.fidelities[0], f_opt)


def check_comparisons(comparisons: list[tuple[str, str]], exit_code: int | None) -> None:
    """Non-printed comparison rows MATCH; exit 2 exactly when a row is DISCREPANCY.

    ``exit_code`` is None for library runs, which have no exit code.
    """
    expect(len(comparisons) > 0, "report has no comparison rows")
    for name, status in comparisons:
        expect(status in ("MATCH", "DISCREPANCY"), f"comparison {name}: unknown status {status!r}")
        if "printed" not in name:
            expect(status == "MATCH", f"comparison {name} is {status}")
    if exit_code is not None:
        flagged = any(status == "DISCREPANCY" for _, status in comparisons)
        expect(exit_code == (2 if flagged else 0), f"exit code {exit_code} with DISCREPANCY rows: {flagged}")


def check_marginal(rho: np.ndarray, alpha: np.ndarray, fidelity: float) -> None:
    """A clone marginal has unit trace and <psi|rho|psi> equal to the branch fidelity."""
    close("marginal trace", float(np.trace(rho).real), 1.0)
    close("marginal fidelity", float(np.vdot(alpha, rho @ alpha).real), fidelity)


def check_sweep_rows(rows: list[dict], grid: list[tuple[int, float]], copies: int) -> None:
    """One threshold row per (d, cmin2) grid point, each equal to the closed forms."""
    expect(len(rows) == len(grid), f"{len(rows)} sweep rows for {len(grid)} grid points")
    for row, (d, cmin2) in zip(rows, grid):
        expect(int(row["d"]) == d and int(row["M"]) == copies, f"sweep row {row} is not d={d}, M={copies}")
        close(f"cmin2 at d={d}", row["cmin2"], cmin2, 1e-12)
        want = sweep_row(d, copies, row["cmin2"])
        for key in ("p_success", "f_av", "f_est", "f_opt"):
            close(f"sweep {key} at d={d}, cmin2={cmin2}", row[key], want[key])
        expect(
            row["above_threshold"] == want["above_threshold"],
            f"sweep above_threshold at d={d}, M={copies}, cmin2={cmin2}: {row['above_threshold']}",
        )


# --- checks on one Haar-averaged run -----------------------------------------


def haar_inputs(seed: int, samples: int, d: int) -> np.ndarray:
    """The Haar inputs of ``haar:SEED:SAMPLES``, drawn by the documented contract.

    Sample i comes from ``default_rng([seed, i])``: d standard normals for the
    real parts, then d for the imaginary parts, normalized.
    """
    out = np.empty((samples, d), dtype=np.complex128)
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        out[i] = z / np.linalg.norm(z)
    return out


def _mean_sem(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def check_haar_usd(
    c: np.ndarray,
    copies: int,
    alphas: np.ndarray,
    branches: list[Branch],
    class_stats: dict,
    overall: tuple[float, float],
    bands: list[dict],
    exit_code: int,
) -> tuple[int, float, float]:
    """A USD Haar report against per-sample closed forms over the same inputs.

    Returns the failure class's (samples, mean, stderr) for the pooled check.
    """
    d = c.size
    f_opt = optimal_fidelity(d, copies)
    p_succ = d * float(c.min()) ** 2
    p_m, _ = shift_terms(alphas, c)
    weight, weighted = usd_failure_terms(alphas, c, copies)
    close("mean branch probabilities sum", _mass(branches, lambda b: True), 1.0)
    for m in range(d):
        close(f"mean P_{m}", _mass(branches, lambda b: b.m == m), float(p_m[:, m].mean()))
    close("success mass d*c_min^2", _mass(branches, lambda b: b.flag == "success"), p_succ)
    for b in branches:
        if b.flag == "success" and b.fidelities is not None:
            close(f"success fidelity of branch {b[:3]}", b.fidelities[0], f_opt)
    for m in range(d):
        fail = [b for b in branches if b.flag == "fail" and b.m == m and b.fidelities is not None]
        close(f"mean failure weight W_{m}", _mass(fail, lambda b: True), float(weight[:, m].mean()))
        close(
            f"mean failure weighted fidelity m={m}",
            sum(b.probability * b.fidelities[0] for b in fail),
            float(weighted[:, m].mean()),
        )

    per_sample_fail = weighted.sum(axis=1) / (1 - p_succ)
    per_sample_all = p_succ * f_opt + weighted.sum(axis=1)
    want_fail = _mean_sem(per_sample_fail)
    fail = class_stats.get("fail", {})
    expect(fail.get("samples") == alphas.shape[0], f"failure class counts {fail.get('samples')} samples")
    close("failure class mean", fail["mean"], want_fail[0])
    close("failure class stderr", fail["stderr"], want_fail[1])
    want_all = _mean_sem(per_sample_all)
    close("overall mean", overall[0], want_all[0])
    close("overall stderr", overall[1], want_all[1])

    targets = {"all": p_succ * f_opt + (1 - p_succ) / d, "success": f_opt, "fail": 1 / d}
    expect(sorted(b["class"] for b in bands) == sorted(targets), f"bands {[b['class'] for b in bands]}")
    for band in bands:
        target = targets[band["class"]]
        close(f"band {band['class']} target", band["target"], target)
        inside = abs(band["mean"] - target) <= max(3 * band["stderr"], 1e-10)
        expect(band["within_3sigma"] == inside, f"band {band['class']} verdict {band['within_3sigma']}")
    want_code = 0 if all(b["within_3sigma"] for b in bands) else 2
    expect(exit_code == want_code, f"haar exit code {exit_code}, expected {want_code}")
    return alphas.shape[0], fail["mean"], fail["stderr"]


def check_pooled_failure_mean(d: int, calls: list[tuple[int, float, float]]) -> None:
    """The failure class pooled over a run's calls sits near 1/d."""
    n = np.array([k for k, _, _ in calls], dtype=float)
    mean = float(np.sum(n * [m for _, m, _ in calls]) / n.sum())
    sem = float(np.sqrt(np.sum((n * [s for _, _, s in calls]) ** 2)) / n.sum())
    expect(
        abs(mean - 1 / d) <= HAAR_POOLED_SIGMAS * sem,
        f"pooled failure mean {mean} at d={d} is {abs(mean - 1 / d) / sem:.1f} standard errors from 1/d",
    )
