"""Acceptance suite: the protocol's headline quantitative claims.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with -s, or in the captured output on failure). Tolerances are
stated inline; none are loosened.
"""

import time

import numpy as np
import pytest

from qtc import (
    HaarSpec,
    ProtocolConfig,
    compare_to_formulas,
    haar_average,
    run_exact,
)
from qtc import formulas as fm
from qtc.bell import bell_state, channel_bell_state, fourier, gxor_operator, reconstruction_unitaries
from qtc.cli import main
from qtc.discrimination import (
    Strategy,
    filter_unitary,
    max_confidence_readout,
    usd_failure_states,
    usd_kraus,
)
from qtc.registers import StateVector, haar_random_state
from qtc.symmetric import Channel, channel_state, clone_basis


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num}: {label}: {'PASS' if ok else 'FAIL'}", flush=True)


def random_channel(d, rng, floor=0.1):
    c = np.abs(rng.normal(size=d)) + floor
    return Channel(c / np.linalg.norm(c))


def haar_input(d, rng):
    s = haar_random_state(d, rng)
    return StateVector((d,), ("X",), s.amps)


def test_criterion_01_optimal_telecloning():
    ok = False
    try:
        rng = np.random.default_rng(101)
        for d in (2, 3, 5):
            for _ in range(20):
                cfg = ProtocolConfig(
                    channel=Channel.maximal(d), copies=2, input_spec=haar_input(d, rng)
                )
                rep = run_exact(cfg)
                want = fm.optimal_fidelity(d, 2)
                for b in rep.branches:
                    for f in b.clone_fidelities:
                        assert abs(f - want) < 1e-10
        assert abs(fm.optimal_fidelity(2, 2) - 5 / 6) < 1e-15
        rep = run_exact(
            ProtocolConfig(channel=Channel.maximal(2), copies=3, input_spec=haar_input(2, rng))
        )
        for b in rep.branches:
            for f in b.clone_fidelities:
                assert abs(f - 7 / 9) < 1e-10
        ok = True
    finally:
        _verdict(1, "maximal channel reaches the optimal cloning fidelity", ok)


def test_criterion_02_partial_entanglement_closed_forms():
    ok = False
    try:
        rng = np.random.default_rng(102)
        cases = [2] * 17 + [3] * 17 + [4] * 16  # 50 (alpha, c) pairs over d = 2..4
        for d in cases:
            psi = haar_input(d, rng)
            chan = random_channel(d, rng)
            rep = run_exact(ProtocolConfig(channel=chan, copies=2, input_spec=psi))
            for m in range(d):
                p_sim = sum(b.probability for b in rep.branches if b.m == m)
                assert abs(p_sim - fm.shift_probability(psi.amps, chan, m)) < 1e-10
                f_sim = rep.branch(m=m, n=0).clone_fidelities[0]
                assert abs(f_sim - fm.clone_fidelity_m(psi.amps, chan, m)) < 1e-10
            assert abs(rep.average_fidelity - fm.clone_fidelity_avg(psi.amps, chan)) < 1e-10
            if d == 2:
                printed = fm.clone_fidelity_qubit_printed(
                    psi.amps[0], psi.amps[1], chan.coeffs[0], chan.coeffs[1]
                )
                # the printed qubit expression evaluates the shift-0 branch
                assert abs(printed - rep.branch(m=0, n=0).clone_fidelities[0]) < 1e-10
        ok = True
    finally:
        _verdict(2, "partial-entanglement probabilities and fidelities match closed forms", ok)


def test_criterion_03_unambiguous_discrimination():
    ok = False
    try:
        rng = np.random.default_rng(103)
        cases = [2] * 17 + [3] * 17 + [4] * 16  # 50 full-rank channels over d = 2..4
        for d in cases:
            chan = random_channel(d, rng)
            psi = haar_input(d, rng)
            cfg = ProtocolConfig(
                channel=chan, copies=2, flow="gxor", strategy=Strategy.usd(), input_spec=psi
            )
            rep = run_exact(cfg)
            assert abs(rep.total_probability("success") - d * chan.c_min**2) < 1e-10
            want = fm.optimal_fidelity(d, 2)
            for b in rep.branches:
                if b.flag == "success" and not b.zero:
                    assert abs(b.clone_fidelities[0] - want) < 1e-10
            for m in range(d):
                fails = [b for b in rep.branches if b.flag == "fail" and b.m == m and not b.zero]
                mass = sum(b.probability for b in fails)
                if mass < 1e-12:
                    continue
                f_sim = sum(b.probability * b.clone_fidelities[0] for b in fails) / mass
                assert abs(f_sim - fm.failure_fidelity_m(psi.amps, chan, m, "branch")) < 1e-10
            checked = compare_to_formulas(rep)
            assert any("certified" in note for note in checked.notes)
            chi = np.stack([s.amps for s in usd_failure_states(chan)])
            svals = np.linalg.svd(chi, compute_uv=False)
            assert np.sum(svals > 1e-10) == d - 1
        ok = True
    finally:
        _verdict(3, "unambiguous correction restores optimal universal clones", ok)


def test_criterion_04_haar_failure_average():
    ok = False
    try:
        start = time.perf_counter()
        channels = {
            2: Channel(np.sqrt([0.9, 0.1])),
            3: Channel(np.sqrt([0.5, 0.4, 0.1])),
        }
        for d, chan in channels.items():
            cfg = ProtocolConfig(
                channel=chan, copies=2, flow="gxor", strategy=Strategy.usd(),
                input_spec=HaarSpec(seed=42, samples=10_000),
            )
            rep = haar_average(cfg)
            fail = rep.haar.class_stats["fail"]
            assert abs(fail["mean"] - 1 / d) <= 3 * fail["stderr"]
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        ok = True
    finally:
        _verdict(4, "Haar-averaged failure fidelity sits within 3 sigma of 1/d", ok)


def test_criterion_05_threshold_identity():
    ok = False
    try:
        for d in range(2, 7):
            q = fm.classical_threshold(d)
            f_at = fm.usd_average_fidelity(d, d * q)
            assert abs(f_at - fm.estimation_fidelity(d)) < 1e-10
            assert fm.usd_average_fidelity(d, d * (q + 1e-3)) > fm.estimation_fidelity(d)
            assert fm.usd_average_fidelity(d, d * (q - 1e-3)) < fm.estimation_fidelity(d)
        ok = True
    finally:
        _verdict(5, "correction beats classical estimation exactly above the threshold", ok)


def test_criterion_06_minimum_error(tmp_path):
    ok = False
    try:
        rng = np.random.default_rng(106)
        for d in (2, 3):
            psi = haar_input(d, rng)
            chan = random_channel(d, rng)
            direct = run_exact(ProtocolConfig(channel=chan, copies=2, input_spec=psi))
            guessed = run_exact(
                ProtocolConfig(
                    channel=chan, copies=2, flow="gxor",
                    strategy=Strategy.min_error(), input_spec=psi,
                )
            )
            assert abs(guessed.average_fidelity - direct.average_fidelity) < 1e-10
            printed = fm.min_error_fidelity_avg(psi.amps, chan)
            assert abs(printed - guessed.average_fidelity / d**3) < 1e-10
        code = main(
            [
                "simulate", "--d", "2", "--channel", "c=[0.894427191,0.4472135955]",
                "--strategy", "minerror", "--input", "0.6,0.8",
                "--out", str(tmp_path / "minerror.json"),
            ]
        )
        assert code == 2
        ok = True
    finally:
        _verdict(6, "minimum-error run equals the plain protocol; printed 1/d^3 flagged", ok)


def test_criterion_07_separation():
    ok = False
    try:
        rng = np.random.default_rng(107)
        # orthogonalizing case: maximal target
        for d in (2, 3):
            chan = random_channel(d, rng)
            psi = haar_input(d, rng)
            cfg = ProtocolConfig(
                channel=chan, copies=2, flow="gxor",
                strategy=Strategy.separation(Channel.maximal(d)), input_spec=psi,
            )
            rep = compare_to_formulas(run_exact(cfg))
            want = fm.optimal_fidelity(d, 2)
            for b in rep.branches:
                if b.flag == "success" and not b.zero:
                    assert abs(b.clone_fidelities[0] - want) < 1e-10
            assert abs(rep.total_probability("success") - d * chan.c_min**2) < 1e-10
            by_name = {c.name: c for c in rep.comparisons}
            printed = by_name["separation_success[printed]"]
            orth = by_name["separation_success[printed-orthogonal]"]
            assert abs(printed.closed_form - chan.c_min**2 * d) < 1e-12
            assert abs(orth.closed_form - chan.c_min**2 / d) < 1e-12
            assert orth.status == "DISCREPANCY"
        # non-orthogonal targets
        for d in (2, 3):
            chan = random_channel(d, rng, floor=0.3)
            target = random_channel(d, rng, floor=0.5)
            psi = haar_input(d, rng)
            cfg = ProtocolConfig(
                channel=chan, copies=2, flow="gxor",
                strategy=Strategy.separation(target), input_spec=psi,
            )
            rep = run_exact(cfg)
            for m in range(d):
                succ = [b for b in rep.branches if b.flag == "success" and b.m == m and not b.zero]
                mass = sum(b.probability for b in succ)
                if mass < 1e-12:
                    continue
                f_sim = sum(b.probability * b.clone_fidelities[0] for b in succ) / mass
                assert abs(f_sim - fm.separation_fidelity_m(psi.amps, target, m)) < 1e-10
        ok = True
    finally:
        _verdict(7, "state separation reaches the target-family fidelities; both printed probabilities reported", ok)


def test_criterion_08_maximum_confidence():
    ok = False
    try:
        rng = np.random.default_rng(108)
        channels = {
            3: Channel(np.sqrt([0.7, 0.3, 0.0])),
            4: Channel(np.sqrt([0.6, 0.4, 0.0, 0.0])),
        }
        for d, chan in channels.items():
            n_nonzero = chan.rank
            posterior = max_confidence_readout(chan).posterior_correct()
            assert abs(posterior - n_nonzero / d) < 1e-10
            rep = run_exact(
                ProtocolConfig(
                    channel=chan, copies=2, flow="gxor",
                    strategy=Strategy.max_confidence(), input_spec=haar_input(d, rng),
                )
            )
            p_inc = rep.total_probability("inconclusive")
            assert abs(p_inc - (1 - n_nonzero * chan.min_nonzero() ** 2)) < 1e-10
        ok = True
    finally:
        _verdict(8, "maximum-confidence posterior N/d and inconclusive mass match", ok)


def test_criterion_09_structural_suite():
    ok = False
    try:
        rng = np.random.default_rng(109)
        w_tol = 1e-10
        for d in (2, 3, 4):
            chan = random_channel(d, rng)
            # Kraus completeness and unitary dilations
            pair = usd_kraus(chan)
            assert pair.completeness_defect() < 1e-12
            assert filter_unitary(pair, d).is_unitary(1e-12)
            assert fourier(d).is_unitary(1e-12)
            assert gxor_operator(d).is_unitary(1e-12)
            for n in range(d):
                for m in range(d):
                    for variant in ("s2", "s4"):
                        ua, uc = reconstruction_unitaries(d, n, m, variant)
                        assert ua.is_unitary(1e-12) and uc.is_unitary(1e-12)
            # Bell completeness: sum of projectors is the identity on d^2
            total = np.zeros((d * d, d * d), dtype=complex)
            for n in range(d):
                for m in range(d):
                    b = bell_state(d, n, m).amps
                    total += np.outer(b, b.conj())
            assert np.max(np.abs(total - np.eye(d * d))) < 1e-12

            for copies in (2, 3):
                psi = haar_input(d, rng)
                # probability sums and clone symmetry, both flows
                for cfg in (
                    ProtocolConfig(channel=chan, copies=copies, input_spec=psi),
                    ProtocolConfig(
                        channel=chan, copies=copies, flow="gxor",
                        strategy=Strategy.usd(), input_spec=psi,
                    ),
                ):
                    rep = run_exact(cfg)
                    assert abs(rep.total_probability() - 1) < 1e-10
                    for b in rep.branches:
                        if not b.zero:
                            fs = b.clone_fidelities
                            assert max(fs) - min(fs) < w_tol
                # assembly equivalence: product state vs branch resolution
                alpha = psi.amps
                direct = np.kron(alpha, channel_state(chan, copies).amps)
                phis = [s.amps for s in clone_basis(d, copies).states]
                w = np.exp(2j * np.pi * np.arange(d) / d)
                resolved = np.zeros_like(direct)
                for n in range(d):
                    for m in range(d):
                        xp = channel_bell_state(chan, n, m).amps
                        ac = np.zeros_like(phis[0])
                        for j in range(d):
                            ac += w[(-(j + m) * n) % d] * alpha[j] * phis[(j + m) % d]
                        resolved += np.kron(xp, ac) / d
                assert np.max(np.abs(direct - resolved)) < 1e-10
        ok = True
    finally:
        _verdict(9, "structural invariants hold at d=2..4, M=2..3", ok)
