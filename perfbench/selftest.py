"""Self-test of the benchmark's checks, and a tiny run of every workload.

    python3 perfbench/selftest.py

Each check is first shown to accept a real output of the package, then fed
the same output with one value perturbed (a fidelity off by 1e-6, a flipped
exit code or verdict, probability moved between branches) and shown to
reject it, so no check passes vacuously. Then every workload runs one
untraced and one traced round at its smallest sizes. Exits 1 on any
surprise.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
import worker  # puts this checkout's src/ on the path and pins BLAS before NumPy loads
from checks import (
    CheckFailed,
    check_comparisons,
    check_haar_usd,
    check_marginal,
    check_pooled_failure_mean,
    check_simulation,
    check_sweep_rows,
    haar_inputs,
)
from workloads import (
    WORKLOADS,
    CliScan,
    CliResult,
    LargeRegister,
    simulate_op,
    sweep_op,
    coeff_token,
    json_branches,
    parse_simulate,
    parse_sweep,
    run_cli,
)

EPS = 1e-6
failures: list[str] = []


def verdict(label: str, fn, *args, accept: bool) -> None:
    try:
        fn(*args)
        ok = accept
    except CheckFailed:
        ok = not accept
    print(f"{'ok  ' if ok else 'FAIL'} {'accepts' if accept else 'rejects'} {label}")
    if not ok:
        failures.append(label)


def bump(branches, index, field="probability", delta=EPS, clone=0):
    out = list(branches)
    b = out[index]
    if field == "probability":
        out[index] = b._replace(probability=b.probability + delta)
    else:
        fids = list(b.fidelities)
        fids[clone] += delta
        out[index] = b._replace(fidelities=tuple(fids))
    return out


def move_mass(branches, src_flag, dst_flag):
    """Move EPS of probability between two flags of the same shift m."""
    src = next(i for i, b in enumerate(branches) if b.flag == src_flag and b.fidelities)
    dst = next(i for i, b in enumerate(branches) if b.flag == dst_flag and b.m == branches[src].m)
    return bump(bump(branches, src, delta=-EPS), dst, delta=EPS)


def first(branches, pred):
    return next(i for i, b in enumerate(branches) if b.fidelities and pred(b))


def simulate_checks() -> None:
    scan = CliScan(seed=5)
    rng = np.random.default_rng(5)
    for kind in CliScan.KINDS:
        case = scan._case(rng, kind, 3, 2)
        op = simulate_op(kind, case, "s4", "json")
        res = op.call()
        branches, comps = parse_simulate(res, "json")
        verdict(f"simulate {kind}", op.check, res, accept=True)
        verdict(f"{kind}: probability +1e-6", check_simulation, case, bump(branches, 0), accept=False)
        verdict(f"{kind}: clone 2 fidelity +1e-6", check_simulation, case,
                bump(branches, first(branches, lambda b: True), "fid", clone=1), accept=False)
        if case.kind in ("none", "minerror"):
            verdict(f"{kind}: branch fidelity +1e-6", check_simulation, case,
                    bump(branches, first(branches, lambda b: True), "fid"), accept=False)
        if case.kind in ("usd", "sep"):
            verdict(f"{kind}: success fidelity +1e-6", check_simulation, case,
                    bump(branches, first(branches, lambda b: b.flag == "success"), "fid"), accept=False)
            verdict(f"{kind}: success mass moved to fail", check_simulation, case,
                    move_mass(branches, "success", "fail"), accept=False)
        if case.kind == "usd":
            verdict(f"{kind}: failure fidelity +1e-6", check_simulation, case,
                    bump(branches, first(branches, lambda b: b.flag == "fail"), "fid"), accept=False)
        if case.kind == "maxconf":
            verdict(f"{kind}: inconclusive mass moved to success", check_simulation, case,
                    move_mass(branches, "inconclusive", "success"), accept=False)
        verdict(f"{kind}: exit code flipped", check_comparisons, comps, 2 - res.code, accept=False)
        matched = next(i for i, (name, status) in enumerate(comps) if status == "MATCH" and "printed" not in name)
        flagged = list(comps)
        flagged[matched] = (comps[matched][0], "DISCREPANCY")
        verdict(f"{kind}: comparison row turned DISCREPANCY", check_comparisons, flagged, 2, accept=False)

    case = scan._case(rng, "none", 3, 3)
    op = simulate_op("none", case, "s2", "csv")
    res = op.call()
    verdict("simulate csv", op.check, res, accept=True)
    row = res.out.splitlines()[1].split(",")
    row[-4] = repr(float(row[-4]) + EPS)
    lines = res.out.splitlines()
    lines[1] = ",".join(row)
    edited = CliResult(res.code, "\n".join(lines) + "\n", res.err)
    verdict("csv fidelity +1e-6", lambda: check_simulation(case, parse_simulate(edited, "csv")[0]), accept=False)


def sweep_checks() -> None:
    grid = [(d, v) for d in (2, 3) for v in (0.05, 0.2)]
    for copies, accept in ((2, True), (3, False)):
        op = sweep_op("2..3", "cmin2=[0.05,0.2]", grid, copies, "csv")
        verdict(f"sweep at M={copies} (the M=3 rows carry the 1->2 forms)", op.check, op.call(), accept=accept)
    rows = parse_sweep(run_cli(["sweep", "--d", "2..3", "--channel", "cmin2=[0.05,0.2]", "--format", "json"]), "json")
    for key, change in (("f_av", lambda v: v + EPS), ("p_success", lambda v: v + EPS), ("above_threshold", lambda v: not v)):
        edited = [dict(r) for r in rows]
        edited[1][key] = change(edited[1][key])
        verdict(f"sweep {key} perturbed", check_sweep_rows, edited, grid, 2, accept=False)


def haar_checks() -> None:
    c = np.sqrt([0.9, 0.1])
    seed, samples = 11, 30
    res = run_cli(["haar", "--d", "2", "--channel", coeff_token(c), "--strategy", "usd",
                   "--input", f"haar:{seed}:{samples}"])
    results = json.loads(res.out)["results"]
    branches = json_branches(results)
    haar = results["haar"]
    alphas = haar_inputs(seed, samples, 2)

    def run(branches=branches, stats=haar["class_stats"], overall=(haar["overall_mean"], haar["overall_stderr"]),
            bands=results["bands"], code=res.code):
        check_haar_usd(c, 2, alphas, branches, stats, overall, bands, code)

    verdict("haar report", run, accept=True)
    fail = dict(haar["class_stats"]["fail"])
    fail["mean"] += EPS
    verdict("haar failure mean +1e-6", lambda: run(stats=dict(haar["class_stats"], fail=fail)), accept=False)
    verdict("haar overall mean +1e-6", lambda: run(overall=(haar["overall_mean"] + EPS, haar["overall_stderr"])), accept=False)
    verdict("haar success fidelity +1e-6",
            lambda: run(branches=bump(branches, first(branches, lambda b: b.flag == "success"), "fid")), accept=False)
    moved = bump(bump(branches, 0, delta=-EPS), next(i for i, b in enumerate(branches) if b.m != branches[0].m), delta=EPS)
    verdict("haar mass moved between shifts", lambda: run(branches=moved), accept=False)
    bands = [dict(b) for b in results["bands"]]
    bands[0]["within_3sigma"] = not bands[0]["within_3sigma"]
    verdict("haar band verdict flipped", lambda: run(bands=bands), accept=False)
    verdict("haar exit code flipped", lambda: run(code=2 - res.code), accept=False)
    verdict("pooled failure mean at 1/d", check_pooled_failure_mean, 2, [(100, 0.5, 0.01)] * 4, accept=True)
    verdict("pooled failure mean 10 standard errors off", check_pooled_failure_mean, 2, [(100, 0.55, 0.01)] * 4,
            accept=False)


def marginal_checks() -> None:
    op = LargeRegister.op(np.random.default_rng(3), 2, 3, "usd", "s4")
    report, top, rho = op.call()
    verdict("large-register run", op.check, (report, top, rho), accept=True)
    alpha = report.input_state.amps
    verdict("marginal scaled by 1+1e-6", check_marginal, rho.matrix * (1 + EPS), alpha, top.clone_fidelities[0],
            accept=False)
    verdict("marginal against fidelity +1e-6", check_marginal, rho.matrix, alpha, top.clone_fidelities[0] + EPS,
            accept=False)


def tiny_runs() -> None:
    for name, cls in WORKLOADS.items():
        wl = cls(seed=1, tiny=True)
        worker.warm_up(wl)
        tally, phases, tracer = worker.timed_phase(wl, 0, wl.round(0), 0.0, traced=True)
        known = sum(op.known_fault for op in wl.round(0)) * 2
        result = run.end_to_end([worker.raw_result(tally, phases[False])], [0.0])
        values = [m["value"] for m in result["metrics"].values()]
        values += [v for v, _ in worker.per_layer(phases[False], phases[True], tracer).values()]
        ok = tally.correct and tally.failed == known and all(np.isfinite(values))
        print(f"{'ok  ' if ok else 'FAIL'} tiny {name}: {tally.attempted} attempted, {tally.failed} failed")
        if not ok:
            failures.append(f"tiny {name}")


def main() -> int:
    simulate_checks()
    sweep_checks()
    haar_checks()
    marginal_checks()
    tiny_runs()
    print(f"{len(failures)} surprises" + (": " + ", ".join(failures) if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
