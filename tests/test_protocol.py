"""Protocol engine against the brute-force oracle and the closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracle
from qtc import (
    HaarSpec,
    ProtocolConfig,
    clone_marginal,
    compare_to_formulas,
    haar_average,
    run_exact,
)
from qtc import formulas as fm
from qtc import protocol
from qtc.bell import bell_state, gxor_operator, reconstruction_unitaries
from qtc.discrimination import RankDeficientChannelError, Strategy
from qtc.registers import MemoryBudgetError, Operator, StateVector, haar_random_state
from qtc.symmetric import Channel, SymmetricState

CHAN82 = Channel(np.sqrt([0.8, 0.2]))
CHAN532 = Channel(np.sqrt([0.5, 0.3, 0.2]))


def state(amps):
    a = np.asarray(amps, dtype=complex)
    return StateVector((a.size,), ("X",), a / np.linalg.norm(a))


def random_state(d, rng):
    a = rng.normal(size=d) + 1j * rng.normal(size=d)
    return state(a)


def random_channel(d, rng):
    c = np.abs(rng.normal(size=d)) + 0.1
    return Channel(c / np.linalg.norm(c))


class TestOracleCrossCheck:
    def test_frozen_qubit_case(self):
        rep = run_exact(ProtocolConfig(channel=CHAN82, input_spec=state([0.6, 0.8])))
        for n in range(2):
            assert rep.branch(m=0, n=n).probability == pytest.approx(
                0.2079999999999999, abs=1e-12
            )
            assert rep.branch(m=1, n=n).probability == pytest.approx(
                0.2919999999999999, abs=1e-12
            )
            assert rep.branch(m=0, n=n).clone_fidelities[0] == pytest.approx(
                0.7594871794871793, abs=1e-12
            )
            assert rep.branch(m=1, n=n).clone_fidelities[0] == pytest.approx(
                0.7807305936073059, abs=1e-12
            )
        assert rep.average_fidelity == pytest.approx(0.771893333333333, abs=1e-12)

    def test_frozen_qutrit_case(self):
        rep = run_exact(
            ProtocolConfig(channel=CHAN532, input_spec=state([0.6, 0.48j, 0.64]))
        )
        per_m = {0: 0.1103466666666667, 1: 0.1196266666666667, 2: 0.10336000000000002}
        fids = {0: 0.725417925104667, 1: 0.7309161944468742, 2: 0.7308731304936601}
        for m in range(3):
            for n in range(3):
                b = rep.branch(m=m, n=n)
                assert b.probability == pytest.approx(per_m[m], abs=1e-12)
                assert b.clone_fidelities[0] == pytest.approx(fids[m], abs=1e-12)
        assert rep.average_fidelity == pytest.approx(0.7290826940932175, abs=1e-12)

    @pytest.mark.parametrize("d,copies", [(2, 2), (3, 2), (2, 3)])
    @pytest.mark.parametrize("variant", ["s2", "s4"])
    def test_random_cases_branch_by_branch(self, d, copies, variant):
        rng = np.random.default_rng(100 * d + 10 * copies + (variant == "s4"))
        for _ in range(3):
            psi = random_state(d, rng)
            chan = random_channel(d, rng)
            cfg = ProtocolConfig(
                channel=chan, copies=copies, recon_variant=variant, input_spec=psi
            )
            rep = run_exact(cfg)
            want = oracle.protocol_branches(psi.amps, chan.coeffs, copies, variant)
            for n, m, p, f in want:
                b = rep.branch(m=m, n=n)
                assert abs(b.probability - p) < 1e-10
                if f is not None:
                    assert abs(b.clone_fidelities[0] - f) < 1e-10

    @pytest.mark.parametrize("variant", ["s2", "s4"])
    @pytest.mark.parametrize("d,copies", [(d, m) for d in (2, 3, 4) for m in (1, 2, 3, 4)])
    def test_bell_branches_match_oracle_tightly(self, d, copies, variant):
        rng = np.random.default_rng([d, copies, variant == "s4"])
        psi, chan = random_state(d, rng), random_channel(d, rng)
        rep = run_exact(ProtocolConfig(channel=chan, copies=copies, recon_variant=variant, input_spec=psi))
        for n, m, p, f in oracle.protocol_branches(psi.amps, chan.coeffs, copies, variant):
            b = rep.branch(m=m, n=n)
            assert abs(b.probability - p) <= 1e-14
            assert abs(b.clone_fidelities[0] - f) <= 1e-14

    def test_all_clones_identical(self):
        rng = np.random.default_rng(5)
        for copies in (2, 3):
            rep = run_exact(
                ProtocolConfig(
                    channel=CHAN82, copies=copies, input_spec=random_state(2, rng)
                )
            )
            for b in rep.branches:
                assert max(b.clone_fidelities) - min(b.clone_fidelities) < 1e-10


class TestStructure:
    def test_bell_branch_count_and_flags(self):
        rep = run_exact(ProtocolConfig(channel=CHAN532, input_spec=state([1, 0, 0])))
        assert len(rep.branches) == 9
        assert all(b.flag is None for b in rep.branches)
        assert rep.total_probability() == pytest.approx(1.0, abs=1e-12)

    def test_zero_branches_kept(self):
        chan = Channel(np.sqrt([1.0, 0.0]))
        rep = run_exact(ProtocolConfig(channel=chan, input_spec=state([1, 0])))
        zeros = [b for b in rep.branches if b.zero]
        assert len(rep.branches) == 4
        assert zeros and all(b.clone_fidelities is None for b in zeros)
        assert all(b.probability < 1e-14 for b in zeros)

    def test_clone_marginal_maximal(self):
        # frozen by the brute-force oracle: diag(5/6, 1/6) for input |0>
        rep = run_exact(
            ProtocolConfig(channel=Channel.maximal(2), input_spec=state([1, 0]))
        )
        rho = clone_marginal(rep.branch(m=0, n=0))
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert rho.matrix[0, 0].real == pytest.approx(5 / 6, abs=1e-10)
        assert rho.matrix[1, 1].real == pytest.approx(1 / 6, abs=1e-10)
        for b in rep.branches:
            assert b.clone_fidelities[0] == pytest.approx(5 / 6, abs=1e-10)

    def test_single_copy_is_teleportation(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            psi = random_state(d, rng)
            rep = run_exact(
                ProtocolConfig(channel=Channel.maximal(d), copies=1, input_spec=psi)
            )
            for b in rep.branches:
                assert b.clone_fidelities[0] == pytest.approx(1.0, abs=1e-10)

    def test_flows_agree_without_discrimination(self):
        rng = np.random.default_rng(7)
        for d in (2, 3):
            psi = random_state(d, rng)
            chan = random_channel(d, rng)
            rb = run_exact(ProtocolConfig(channel=chan, input_spec=psi))
            rg = run_exact(ProtocolConfig(channel=chan, flow="gxor", input_spec=psi))
            assert len(rb.branches) == len(rg.branches) == d * d
            for m in range(d):
                for n in range(d):
                    bb, bg = rb.branch(m=m, n=n), rg.branch(m=m, n=n)
                    assert abs(bb.probability - bg.probability) < 1e-10
                    assert abs(bb.clone_fidelities[0] - bg.clone_fidelities[0]) < 1e-10

    def test_variants_agree_on_physical_quantities(self):
        rng = np.random.default_rng(8)
        psi = random_state(3, rng)
        chan = random_channel(3, rng)
        r2 = run_exact(ProtocolConfig(channel=chan, recon_variant="s2", input_spec=psi))
        r4 = run_exact(ProtocolConfig(channel=chan, recon_variant="s4", input_spec=psi))
        for b2, b4 in zip(sorted(r2.branches, key=lambda b: b.key()),
                          sorted(r4.branches, key=lambda b: b.key())):
            assert abs(b2.probability - b4.probability) < 1e-12
            assert abs(b2.clone_fidelities[0] - b4.clone_fidelities[0]) < 1e-12


class TestUnambiguousFlow:
    def cfg(self, chan, psi):
        return ProtocolConfig(
            channel=chan, flow="gxor", strategy=Strategy.usd(), input_spec=psi
        )

    def test_branch_count_and_masses(self):
        rep = run_exact(self.cfg(CHAN82, state([0.6, 0.8])))
        assert len(rep.branches) == 8  # 2 d^2: success + fail per (m, n)
        assert rep.total_probability("success") == pytest.approx(0.4, abs=1e-10)
        assert rep.total_probability("fail") == pytest.approx(0.6, abs=1e-10)

    def test_success_branches_uniform(self):
        # each success branch carries c_min^2 / d regardless of the input
        rng = np.random.default_rng(9)
        for d, chan in ((2, CHAN82), (3, CHAN532)):
            rep = run_exact(self.cfg(chan, random_state(d, rng)))
            for b in rep.branches:
                if b.flag == "success":
                    assert b.probability == pytest.approx(
                        chan.c_min**2 / d, abs=1e-10
                    )

    def test_success_fidelity_is_optimal_and_universal(self):
        rng = np.random.default_rng(10)
        for d, chan in ((2, CHAN82), (3, CHAN532)):
            for _ in range(3):
                rep = run_exact(self.cfg(chan, random_state(d, rng)))
                for b in rep.branches:
                    if b.flag == "success":
                        assert b.clone_fidelities[0] == pytest.approx(
                            fm.optimal_fidelity(d, 2), abs=1e-10
                        )

    def test_failure_fidelity_matches_branch_weight_form(self):
        rng = np.random.default_rng(11)
        for d, chan in ((2, CHAN82), (3, CHAN532)):
            psi = random_state(d, rng)
            rep = run_exact(self.cfg(chan, psi))
            for m in range(d):
                fails = [b for b in rep.branches if b.flag == "fail" and b.m == m]
                mass = sum(b.probability for b in fails)
                fid = sum(b.probability * b.clone_fidelities[0] for b in fails) / mass
                assert fid == pytest.approx(
                    fm.failure_fidelity_m(psi.amps, chan, m, "branch"), abs=1e-10
                )

    def test_maximal_channel_never_fails(self):
        rep = run_exact(self.cfg(Channel.maximal(2), state([0.6, 0.8])))
        assert rep.total_probability("success") == pytest.approx(1.0, abs=1e-12)
        assert all(b.zero for b in rep.branches if b.flag == "fail")

    def test_rank_deficient_rejected(self):
        chan = Channel(np.sqrt([0.5, 0.5, 0.0]))
        with pytest.raises(RankDeficientChannelError):
            run_exact(self.cfg(chan, state([1, 0, 0])))


class TestMinErrorFlow:
    def test_identical_to_direct_flow(self):
        # the renormalized guess branches coincide with the plain protocol
        rng = np.random.default_rng(12)
        for d, chan in ((2, CHAN82), (3, CHAN532)):
            psi = random_state(d, rng)
            direct = run_exact(ProtocolConfig(channel=chan, input_spec=psi))
            guessed = run_exact(
                ProtocolConfig(
                    channel=chan, flow="gxor", strategy=Strategy.min_error(), input_spec=psi
                )
            )
            assert guessed.average_fidelity == pytest.approx(
                direct.average_fidelity, abs=1e-12
            )
            for m in range(d):
                for n in range(d):
                    bd = direct.branch(m=m, n=n)
                    bg = guessed.branch(m=m, n=n, flag="guess")
                    assert abs(bd.probability - bg.probability) < 1e-12
                    assert abs(bd.clone_fidelities[0] - bg.clone_fidelities[0]) < 1e-12

    def test_all_branches_flagged_guess(self):
        rep = run_exact(
            ProtocolConfig(
                channel=CHAN82, flow="gxor", strategy=Strategy.min_error(),
                input_spec=state([0.6, 0.8]),
            )
        )
        assert all(b.flag == "guess" for b in rep.branches)
        assert len(rep.branches) == 4


class TestSeparationFlow:
    def test_maximal_target(self):
        psi = state([0.6, 0.8])
        cfg = ProtocolConfig(
            channel=CHAN82, flow="gxor",
            strategy=Strategy.separation(Channel.maximal(2)), input_spec=psi,
        )
        rep = run_exact(cfg)
        assert len(rep.branches) == 8
        assert rep.total_probability("success") == pytest.approx(
            2 * CHAN82.c_min**2, abs=1e-10
        )
        for b in rep.branches:
            if b.flag == "success":
                assert b.clone_fidelities[0] == pytest.approx(5 / 6, abs=1e-10)

    def test_partial_target(self):
        target = Channel(np.sqrt([0.6, 0.4]))
        psi = state([0.6, 0.8])
        rep = run_exact(
            ProtocolConfig(
                channel=CHAN82, flow="gxor",
                strategy=Strategy.separation(target), input_spec=psi,
            )
        )
        assert rep.total_probability("success") == pytest.approx(
            fm.separation_probability_constructed(CHAN82, target), abs=1e-10
        )
        for m in range(2):
            succ = [b for b in rep.branches if b.flag == "success" and b.m == m]
            mass = sum(b.probability for b in succ)
            fid = sum(b.probability * b.clone_fidelities[0] for b in succ) / mass
            assert fid == pytest.approx(
                fm.separation_fidelity_m(psi.amps, target, m), abs=1e-10
            )


class TestMaxConfidenceFlow:
    def test_uniform_support_never_inconclusive(self):
        chan = Channel(np.sqrt([0.5, 0.5, 0.0]))
        rep = run_exact(
            ProtocolConfig(
                channel=chan, flow="gxor", strategy=Strategy.max_confidence(),
                input_spec=state([1, 0, 0]),
            )
        )
        assert rep.total_probability("inconclusive") == pytest.approx(0.0, abs=1e-12)
        assert rep.total_probability("success") == pytest.approx(1.0, abs=1e-12)

    def test_inconclusive_mass(self):
        chan = Channel(np.sqrt([0.7, 0.3, 0.0]))
        rep = run_exact(
            ProtocolConfig(
                channel=chan, flow="gxor", strategy=Strategy.max_confidence(),
                input_spec=state([0.6, 0.8j, 0.0]),
            )
        )
        assert rep.total_probability("inconclusive") == pytest.approx(
            fm.inconclusive_probability(chan), abs=1e-10
        )

    def test_full_rank_rejected(self):
        with pytest.raises(ValueError, match="unambiguous"):
            run_exact(
                ProtocolConfig(
                    channel=CHAN532, flow="gxor", strategy=Strategy.max_confidence(),
                    input_spec=state([1, 0, 0]),
                )
            )


class TestHaarAverage:
    def test_maximal_channel_has_no_variance(self):
        cfg = ProtocolConfig(
            channel=Channel.maximal(2), input_spec=HaarSpec(seed=1, samples=50)
        )
        rep = haar_average(cfg)
        assert rep.average_fidelity == pytest.approx(5 / 6, abs=1e-10)
        assert rep.haar.overall_stderr < 1e-12

    def test_matches_closed_form_haar_average(self):
        cfg = ProtocolConfig(channel=CHAN82, input_spec=HaarSpec(seed=2, samples=600))
        rep = haar_average(cfg)
        want = fm.clone_fidelity_haar(CHAN82)
        assert abs(rep.haar.overall_mean - want) < 4 * rep.haar.overall_stderr

    def test_usd_failure_class_near_half(self):
        cfg = ProtocolConfig(
            channel=CHAN82, flow="gxor", strategy=Strategy.usd(),
            input_spec=HaarSpec(seed=3, samples=400),
        )
        rep = haar_average(cfg)
        fail = rep.haar.class_stats["fail"]
        assert abs(fail["mean"] - 0.5) < 4 * fail["stderr"]
        succ = rep.haar.class_stats["success"]
        assert succ["mean"] == pytest.approx(5 / 6, abs=1e-10)
        assert succ["stderr"] < 1e-12

    def test_deterministic(self):
        cfg = ProtocolConfig(channel=CHAN82, input_spec=HaarSpec(seed=4, samples=40))
        assert haar_average(cfg).haar.overall_mean == haar_average(cfg).haar.overall_mean

    def test_requires_haar_spec(self):
        cfg = ProtocolConfig(channel=CHAN82, input_spec=state([1, 0]))
        with pytest.raises(TypeError, match="HaarSpec"):
            haar_average(cfg)


def reference_haar(cfg, spec):
    """Per-sample ``run_exact`` loop over the inputs of ``spec``, aggregated as a Haar report."""
    prob_sums = fid_sums = keys = None
    overall, by_class = [], {}
    for i in range(spec.samples):
        psi = haar_random_state(cfg.d, np.random.default_rng([spec.seed, i]))
        branches = run_exact(cfg, psi, keep_states=False).branches
        if keys is None:
            keys = [(b.m, b.n, b.flag) for b in branches]
            prob_sums, fid_sums = np.zeros(len(keys)), np.zeros(len(keys))
        avg, classes = 0.0, {}
        for j, b in enumerate(branches):
            prob_sums[j] += b.probability
            if b.zero:
                continue
            fid_sums[j] += b.probability * b.clone_fidelities[0]
            avg += b.probability * b.clone_fidelities[0]
            if b.flag is not None:
                acc = classes.setdefault(b.flag, [0.0, 0.0])
                acc[0] += b.probability
                acc[1] += b.probability * b.clone_fidelities[0]
        overall.append(avg)
        for flag, (mass, wsum) in classes.items():
            if mass > 1e-14:
                by_class.setdefault(flag, []).append(wsum / mass)

    def stats(vals):
        v = np.asarray(vals)
        return v.mean(), (v.std(ddof=1) / np.sqrt(v.size) if v.size > 1 else 0.0), v.size

    branches = [
        (key, p / spec.samples, f / p if p > 1e-14 else None)
        for key, p, f in zip(keys, prob_sums, fid_sums)
    ]
    return branches, np.mean(overall), {flag: stats(v) for flag, v in by_class.items()}


class TestHaarAgainstRunExact:
    """Compiled per-branch maps against a loop of exact runs on the same inputs."""

    RANK2 = Channel(np.sqrt([0.5, 0.5, 0.0]))  # never inconclusive: zero branches

    @pytest.mark.parametrize(
        "chan,copies,flow,strategy",
        [
            (CHAN82, 2, "bell", Strategy.none()),
            (Channel.maximal(3), 2, "bell", Strategy.none()),
            (CHAN82, 3, "bell", Strategy.none()),
            (CHAN532, 2, "gxor", Strategy.none()),
            (CHAN82, 3, "gxor", Strategy.min_error()),
            (CHAN532, 2, "gxor", Strategy.usd()),
            (Channel.maximal(2), 3, "gxor", Strategy.usd()),
            (CHAN82, 2, "gxor", Strategy.separation(Channel.maximal(2))),
            (CHAN532, 2, "gxor", Strategy.separation(Channel(np.sqrt([0.4, 0.35, 0.25])))),
            (RANK2, 2, "gxor", Strategy.max_confidence()),
        ],
        ids=["bell", "bell-maximal", "bell-M3", "gxor-none", "minerror-M3", "usd",
             "usd-maximal-M3", "sep-maximal", "sep-partial", "maxconf-rank2"],
    )
    def test_matches_reference_loop(self, chan, copies, flow, strategy):
        spec = HaarSpec(seed=11, samples=25)
        cfg = ProtocolConfig(
            channel=chan, copies=copies, flow=flow, strategy=strategy, input_spec=spec
        )
        rep = haar_average(cfg)
        want_branches, want_mean, want_classes = reference_haar(cfg, spec)
        assert [(b.m, b.n, b.flag) for b in rep.branches] == [k for k, _, _ in want_branches]
        for b, (_, p, f) in zip(rep.branches, want_branches):
            assert abs(b.probability - p) < 1e-12
            assert b.zero == (f is None)
            if f is not None:
                assert abs(b.clone_fidelities[0] - f) < 1e-12
        assert abs(rep.haar.overall_mean - want_mean) < 1e-12
        assert set(rep.haar.class_stats) == set(want_classes)
        assert set(rep.conditional_averages) == set(want_classes)
        for flag, cond in rep.conditional_averages.items():
            mass = sum(p for key, p, _ in want_branches if key[2] == flag)
            assert abs(cond["probability"] - mass) < 1e-12
            assert cond["fidelity"] == rep.haar.class_stats[flag]["mean"]
        for flag, (mean, sem, count) in want_classes.items():
            got = rep.haar.class_stats[flag]
            assert got["samples"] == count
            assert abs(got["mean"] - mean) < 1e-12
            assert abs(got["stderr"] - sem) < 1e-12

    @pytest.mark.parametrize(
        "d,seed,samples",
        [
            pytest.param(2, 23, 30, id="2"),
            pytest.param(3, 23, 30, id="3"),
            pytest.param(5, 23, 30, id="5"),
            (2, 0, 1),
            (7, 0, 257),
            (4, 2**32 - 1, 257),
            (6, 2**32, 1),
            (2, 2**32, 257),
            (3, 2**64 + 7, 257),
            (7, 10**30, 40),
            (16, 5, 40),
        ],
    )
    def test_inputs_are_haar_random_states(self, d, seed, samples):
        spec = HaarSpec(seed=seed, samples=samples)
        want = np.stack(
            [haar_random_state(d, np.random.default_rng([spec.seed, i])).amps for i in range(spec.samples)],
            axis=1,
        )
        assert np.array_equal(protocol._haar_inputs(spec, d), want)

    @pytest.mark.parametrize("seed", [0, 17, 2**32 - 1, 2**32, 2**64 + 7, 10**30])
    def test_seed_words_match_seed_sequence(self, seed):
        # sample indices from 2**32 on take two entropy words
        indices = [0, 1, 2, 256, 2**32 - 1, 2**32, 2**32 + 5, 2**40 + 3, 2**64 - 1]
        want = np.stack(
            [np.random.SeedSequence([seed, i]).generate_state(4, np.uint64) for i in indices]
        )
        assert np.array_equal(protocol._seed_words(seed, np.array(indices, dtype=np.uint64)), want)

    @pytest.mark.parametrize(
        "seed,samples,needle",
        [(-3, 10, "seed"), (1, 0, "sample count"), (1, -5, "sample count")],
    )
    def test_spec_rejects_bad_fields(self, seed, samples, needle):
        with pytest.raises(ValueError, match=needle):
            HaarSpec(seed=seed, samples=samples)

    def test_rejects_maps_that_lose_probability(self, monkeypatch):
        engine = protocol._engine
        monkeypatch.setattr(
            protocol, "_engine", lambda ctx, cols: [(k, 0.9 * b) for k, b in engine(ctx, cols)]
        )
        with pytest.raises(AssertionError, match="identity"):
            haar_average(ProtocolConfig(channel=CHAN82, input_spec=HaarSpec(seed=1, samples=3)))

    def test_zero_branches_covered(self):
        for chan, copies, strategy in (
            (self.RANK2, 2, Strategy.max_confidence()),
            (Channel.maximal(2), 3, Strategy.usd()),
        ):
            cfg = ProtocolConfig(
                channel=chan, copies=copies, flow="gxor", strategy=strategy,
                input_spec=HaarSpec(seed=11, samples=5),
            )
            assert any(b.zero for b in haar_average(cfg).branches)


class TestComparisons:
    def test_plain_run_all_match(self):
        rep = compare_to_formulas(
            run_exact(ProtocolConfig(channel=CHAN82, input_spec=state([0.6, 0.8])))
        )
        assert rep.comparisons
        assert all(c.status == "MATCH" for c in rep.comparisons)
        names = {c.name for c in rep.comparisons}
        assert "clone_fidelity_avg" in names
        assert "clone_fidelity_qubit[printed]" in names
        assert any("shift-0 branch" in n for n in rep.notes)

    def test_maximal_run_reports_optimum(self):
        rep = compare_to_formulas(
            run_exact(ProtocolConfig(channel=Channel.maximal(3), input_spec=state([1, 0, 0])))
        )
        opt = [c for c in rep.comparisons if c.name == "optimal_fidelity"]
        assert opt and opt[0].status == "MATCH"

    def test_min_error_flags_printed_form(self):
        rep = compare_to_formulas(
            run_exact(
                ProtocolConfig(
                    channel=CHAN82, flow="gxor", strategy=Strategy.min_error(),
                    input_spec=state([0.6, 0.8]),
                )
            )
        )
        by_name = {c.name: c for c in rep.comparisons}
        assert by_name["min_error_fidelity_avg[printed]"].status == "DISCREPANCY"
        assert by_name["min_error_scaled_identity"].status == "MATCH"
        assert any("1/d^3" in n for n in rep.notes)

    def test_usd_certifies_failure_weight(self):
        rep = compare_to_formulas(
            run_exact(
                ProtocolConfig(
                    channel=CHAN82, flow="gxor", strategy=Strategy.usd(),
                    input_spec=state([0.6, 0.8]),
                )
            )
        )
        assert all(c.status == "MATCH" for c in rep.comparisons)
        assert any("certified" in n for n in rep.notes)

    def test_separation_flags_orthogonal_printed_value(self):
        rep = compare_to_formulas(
            run_exact(
                ProtocolConfig(
                    channel=CHAN82, flow="gxor",
                    strategy=Strategy.separation(Channel.maximal(2)),
                    input_spec=state([0.6, 0.8]),
                )
            )
        )
        by_name = {c.name: c for c in rep.comparisons}
        assert by_name["separation_success[constructed]"].status == "MATCH"
        assert by_name["separation_success[printed]"].status == "MATCH"
        assert by_name["separation_success[printed-orthogonal]"].status == "DISCREPANCY"

    def test_max_confidence_rows(self):
        chan = Channel(np.sqrt([0.7, 0.3, 0.0]))
        rep = compare_to_formulas(
            run_exact(
                ProtocolConfig(
                    channel=chan, flow="gxor", strategy=Strategy.max_confidence(),
                    input_spec=state([1, 0, 0]),
                )
            )
        )
        by_name = {c.name: c for c in rep.comparisons}
        assert by_name["confidence"].closed_form == pytest.approx(2 / 3, abs=1e-12)
        assert by_name["confidence"].status == "MATCH"
        assert by_name["inconclusive_probability"].status == "MATCH"

    def test_aggregate_reports_skip(self):
        cfg = ProtocolConfig(channel=CHAN82, input_spec=HaarSpec(seed=5, samples=10))
        rep = compare_to_formulas(haar_average(cfg))
        assert not rep.comparisons
        assert any("skipped" in n for n in rep.notes)


class TestValidation:
    def test_bell_flow_rejects_strategy(self):
        with pytest.raises(ValueError, match="Bell"):
            ProtocolConfig(channel=CHAN82, flow="bell", strategy=Strategy.usd())

    def test_unknown_flow_and_variant(self):
        with pytest.raises(ValueError, match="flow"):
            ProtocolConfig(channel=CHAN82, flow="teleport")
        with pytest.raises(ValueError, match="variant"):
            ProtocolConfig(channel=CHAN82, recon_variant="s3")

    def test_copies_lower_bound(self):
        with pytest.raises(ValueError, match="clone"):
            ProtocolConfig(channel=CHAN82, copies=0)

    def test_run_exact_needs_state(self):
        with pytest.raises(TypeError, match="input"):
            run_exact(ProtocolConfig(channel=CHAN82))
        with pytest.raises(TypeError, match="haar_average"):
            run_exact(ProtocolConfig(channel=CHAN82, input_spec=HaarSpec(seed=0, samples=5)))

    def test_run_exact_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            run_exact(ProtocolConfig(channel=CHAN82), state([1, 0, 0]))

    def test_clone_marginal_needs_state(self):
        rep = run_exact(
            ProtocolConfig(channel=CHAN82, input_spec=state([1, 0])), keep_states=False
        )
        with pytest.raises(ValueError, match="post-state"):
            clone_marginal(rep.branches[0])

    def test_separation_target_dimension(self):
        with pytest.raises(ValueError, match="separation target"):
            ProtocolConfig(channel=CHAN532, flow="gxor", strategy=Strategy.separation(CHAN82))

    @pytest.mark.parametrize(
        "chan,copies,flow,strategy",
        [
            (CHAN82, 3, "bell", Strategy.none()),
            (CHAN532, 2, "gxor", Strategy.min_error()),
            (CHAN532, 2, "gxor", Strategy.usd()),
            (CHAN82, 2, "gxor", Strategy.separation(Channel.maximal(2))),
            (Channel(np.sqrt([0.6, 0.0, 0.4])), 2, "gxor", Strategy.max_confidence()),
        ],
        ids=["bell-M3", "minerror", "usd", "sep-maximal", "maxconf"],
    )
    def test_keep_states_leaves_numbers_unchanged(self, chan, copies, flow, strategy):
        cfg = ProtocolConfig(
            channel=chan, copies=copies, flow=flow, strategy=strategy,
            input_spec=random_state(chan.d, np.random.default_rng(copies)),
        )
        kept, bare = run_exact(cfg), run_exact(cfg, keep_states=False)
        assert [b.probability for b in kept.branches] == [b.probability for b in bare.branches]
        assert [b.clone_fidelities for b in kept.branches] == [b.clone_fidelities for b in bare.branches]
        assert all(b.ac_state is None for b in bare.branches)
        assert any(b.ac_state is not None for b in kept.branches)

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setenv("QTC_MEM_BUDGET", "16")
        with pytest.raises(MemoryBudgetError, match="QTC_MEM_BUDGET"):
            run_exact(ProtocolConfig(channel=CHAN532, copies=3, input_spec=state([1, 0, 0])))

    def test_memory_budget_checked_before_tables(self, monkeypatch):
        def table(*args):
            raise AssertionError("table built before the budget check")

        for name in ("raising", "occupations", "reconstruction_matrices", "gxor_operator", "filter_unitary"):
            monkeypatch.setattr(protocol, name, table)
        # the reconstruction gathers of d=3, M=3: d^2 outcomes, D_3 = 10 occupations of d entries
        monkeypatch.setenv("QTC_MEM_BUDGET", "269")
        with pytest.raises(MemoryBudgetError, match="270 amplitudes"):
            run_exact(ProtocolConfig(channel=CHAN532, copies=3, input_spec=state([1, 0, 0])))
        # a filter's d dilations of d^4 amplitudes each are larger
        cfg = ProtocolConfig(channel=CHAN532, flow="gxor", strategy=Strategy.usd(), input_spec=state([1, 0, 0]))
        monkeypatch.setenv("QTC_MEM_BUDGET", "242")
        with pytest.raises(MemoryBudgetError, match="243 amplitudes"):
            run_exact(cfg)
        # large d at small M: the channel is small, the d^3 D_M gathers are not
        monkeypatch.delenv("QTC_MEM_BUDGET")
        for copies in (2, 3):
            with pytest.raises(MemoryBudgetError, match="QTC_MEM_BUDGET"):
                protocol._Context(ProtocolConfig(channel=Channel.maximal(100), copies=copies))

    def test_memory_budget_of_a_pass(self, monkeypatch):
        # d=2, M=5: the tables need d^3 * D_5 = 48 amplitudes, the annihilation
        # gather of a pass d * D_4 * D_5 = 60 per input column
        cfg = ProtocolConfig(channel=CHAN82, copies=5, input_spec=state([1, 0]))
        monkeypatch.setenv("QTC_MEM_BUDGET", "59")
        with pytest.raises(MemoryBudgetError, match="60 amplitudes"):
            run_exact(cfg)
        monkeypatch.setenv("QTC_MEM_BUDGET", "60")
        run_exact(cfg)
        # haar_average stacks d^2 branch maps of d input columns, checked before the compile
        monkeypatch.setattr(protocol, "_engine", lambda *args: pytest.fail("compiled before the budget check"))
        haar = replace(cfg, input_spec=HaarSpec(seed=0, samples=2))
        monkeypatch.setenv("QTC_MEM_BUDGET", "239")
        with pytest.raises(MemoryBudgetError, match="240 amplitudes"):
            haar_average(haar)
        monkeypatch.undo()
        monkeypatch.setenv("QTC_MEM_BUDGET", "240")
        haar_average(haar)


def _apply_per_axis(mat, arr, axis):
    """Reference: ``mat`` on one axis through a moved copy, the per-axis form the gather replaces."""
    moved = np.moveaxis(arr, axis, 0)
    out = (mat @ moved.reshape(mat.shape[1], -1)).reshape(moved.shape)
    return np.moveaxis(out, 0, axis)


def _to_dense(d, copies, block):
    """Symmetric ancilla-and-clone coordinates (AC, K) -> the dense register A1..A(M-1), C1..CM.

    The isometry is the product of oracle's symmetrized vectors, which share
    the engine's lexicographic multiset order: coordinate a * D_M + c is
    ancilla state a times clone state c.
    """
    anc = np.stack(oracle.sym_vectors(d, copies - 1), axis=1)
    clone = np.stack(oracle.sym_vectors(d, copies), axis=1)
    sym = block.reshape(anc.shape[1], clone.shape[1], -1)
    return np.einsum("xa,yc,ack->xyk", anc, clone, sym, optimize=True).reshape(-1, block.shape[-1])


class TestEngineSteps:
    """The engine's inner steps, in symmetric coordinates, against the full-register forms they replace."""

    @pytest.mark.parametrize("variant", ["s2", "s4"])
    @pytest.mark.parametrize("d,copies", [(d, m) for d in (2, 3, 4) for m in (1, 2, 3, 4)])
    def test_gather_matches_per_axis_apply(self, d, copies, variant):
        ctx = protocol._Context(ProtocolConfig(channel=Channel.maximal(d), copies=copies, recon_variant=variant))
        rng = np.random.default_rng(d * 10 + copies)
        shape = (math.prod(ctx.ac_dims), 2)
        # moduli up to 1, as in any block of a normalized input
        block = rng.uniform(size=shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
        dense = _to_dense(d, copies, block).reshape((d,) * (2 * copies - 1) + (2,))
        for n in range(d):
            for m in range(d):
                ua, uc = reconstruction_unitaries(d, n, m, variant)
                want = dense
                for axis in range(2 * copies - 1):
                    want = _apply_per_axis(ua.matrix if axis < copies - 1 else uc.matrix, want, axis)
                got = _to_dense(d, copies, ctx.reconstruct(block, n, m))
                assert np.max(np.abs(got - want.reshape(-1, 2))) <= 1e-15

    def test_non_monomial_rejected(self):
        for mat in ([[1, 1], [0, 1]], [[1, 0], [0, 0]], [[0, 1], [0, 1j]]):
            with pytest.raises(ValueError, match="monomial"):
                protocol._monomial(np.array(mat, dtype=complex))
        index, phase = protocol._monomial(np.array([[0, 1j], [-1, 0]]))
        assert index.tolist() == [1, 0] and phase.tolist() == [1j, -1]

    @pytest.mark.parametrize("d,copies", [(2, 1), (2, 3), (3, 2), (4, 2)])
    def test_clone_fidelity_is_gram_form(self, d, copies):
        rng = np.random.default_rng(copies)
        psi = random_state(d, rng).amps
        ctx = protocol._Context(ProtocolConfig(channel=Channel.maximal(d), copies=copies))
        size = math.prod(ctx.ac_dims)
        block = rng.normal(size=size) + 1j * rng.normal(size=size)
        block /= np.linalg.norm(block)
        weight = ctx.clone_weight(block[:, None], psi[:, None])[0]
        kept = protocol.BranchResult(0, 0, None, 1.0, None, False, SymmetricState(d, copies, block.reshape(ctx.ac_dims)))
        dense = _to_dense(d, copies, block[:, None]).reshape((d,) * (2 * copies - 1))
        for axis in range(copies - 1, 2 * copies - 1):
            flat = np.moveaxis(dense, axis, 0).reshape(d, -1)
            rho = flat @ flat.conj().T
            assert abs(weight - np.vdot(psi, rho @ psi).real) <= 1e-14
            assert np.max(np.abs(clone_marginal(kept, axis - copies + 1).matrix - rho)) <= 1e-14

    @pytest.mark.parametrize("flow", ["bell", "gxor"])
    @pytest.mark.parametrize("chan,copies", [(CHAN82, 1), (CHAN82, 3), (CHAN532, 2)])
    def test_sender_contraction_matches_full_register(self, flow, chan, copies):
        d = chan.d
        ctx = protocol._Context(ProtocolConfig(channel=chan, copies=copies, flow=flow))
        chan_amps = oracle.channel_vector(chan.coeffs, copies)
        rng = np.random.default_rng(copies)
        for cols in (np.eye(d, dtype=complex), rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))):
            # the register X, P, AC, input built in full, then projected on (X, P)
            full = (cols[:, None, :] * chan_amps[None, :, None]).reshape(d, d, -1, cols.shape[1])
            if flow == "bell":
                rows = np.stack([bell_state(d, n, m).amps for n in range(d) for m in range(d)]).conj()
                want = (rows @ full.reshape(d * d, -1)).reshape(d * d, -1, cols.shape[1])
            else:
                # GXOR with control P and target X, then X read as m: rows (m, P)
                gxor = gxor_operator(d).matrix
                want = np.moveaxis(full, 1, 0)
                want = (gxor @ want.reshape(d * d, -1)).reshape(want.shape)
                want = np.moveaxis(want, 1, 0).reshape(d * d, -1, cols.shape[1])
            got = np.stack([_to_dense(d, copies, ctx.lift(core)) for core in ctx.sender @ cols])
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_flag_leak_detected(self, monkeypatch):
        d = 3
        shift = np.kron(np.eye(d), np.roll(np.eye(d), 2, axis=0))  # flag x -> x + 2 on P (x) X
        monkeypatch.setattr(protocol, "filter_unitary", lambda pair, d, flag: Operator.square(shift, (d, d)))
        cfg = ProtocolConfig(channel=CHAN532, flow="gxor", strategy=Strategy.usd(), input_spec=state([1, 1, 1]))
        with pytest.raises(AssertionError, match="leaked"):
            run_exact(cfg)


class TestSharedTables:
    """The channel-independent tables that every call of one shape shares."""

    @staticmethod
    def _tables(ctx):
        arrays = [ctx.raised, ctx.root, *ctx.recon, ctx.sender]
        return arrays + ([ctx.fourier_inv] if ctx.config.flow == "gxor" else [])

    @pytest.mark.parametrize("flow,strategy", [("bell", Strategy.none()), ("gxor", Strategy.usd())])
    def test_tables_are_read_only_and_shared(self, flow, strategy):
        contexts = [
            protocol._Context(ProtocolConfig(channel=chan, copies=3, flow=flow, strategy=strategy))
            for chan in (CHAN532, Channel(np.sqrt([0.6, 0.3, 0.1])))
        ]
        for first, second in zip(*(self._tables(ctx) for ctx in contexts)):
            assert first is second
            with pytest.raises(ValueError, match="read-only"):
                first[(0,) * first.ndim] = 0

    @pytest.mark.parametrize("flow,strategy", [("bell", Strategy.none()), ("gxor", Strategy.usd())])
    def test_warm_runs_equal_cold_runs(self, flow, strategy):
        rng = np.random.default_rng(5)
        configs = [
            ProtocolConfig(channel=random_channel(3, rng), copies=3, flow=flow, strategy=strategy)
            for _ in range(2)
        ]
        psi = random_state(3, rng)

        def outputs():
            numbers, arrays = [], []
            for cfg in configs:
                rep = run_exact(cfg, psi)
                haar = haar_average(replace(cfg, input_spec=HaarSpec(seed=9, samples=20)))
                for r in (rep, haar):
                    numbers.append([(b.probability, b.clone_fidelities) for b in r.branches])
                numbers.append((haar.haar.overall_mean, haar.haar.overall_stderr, haar.haar.class_stats))
                for b in rep.branches:
                    if not b.zero:
                        arrays += [b.ac_state.amps, clone_marginal(b).matrix]
            return numbers, arrays

        outputs()
        warm_numbers, warm_arrays = outputs()
        protocol._TABLES.clear()
        cold_numbers, cold_arrays = outputs()
        assert warm_numbers == cold_numbers
        assert len(warm_arrays) == len(cold_arrays)
        assert all(np.array_equal(a, b) for a, b in zip(warm_arrays, cold_arrays))

    def test_budget_checked_on_every_call(self, monkeypatch):
        cfg = ProtocolConfig(channel=CHAN532, copies=3, input_spec=state([1, 0, 0]))
        run_exact(cfg)  # the shape is stored now
        # the reconstruction gathers of d=3, M=3 need 270 amplitudes
        monkeypatch.setenv("QTC_MEM_BUDGET", "269")
        with pytest.raises(MemoryBudgetError, match="270 amplitudes"):
            run_exact(cfg)

    def test_retained_tables_stay_within_budget(self, monkeypatch):
        budget = 5000
        monkeypatch.setenv("QTC_MEM_BUDGET", str(budget))
        protocol._TABLES.clear()
        built = {}  # every distinct table handed out, by id (kept alive here)
        for copies in range(1, 9):
            for flow, strategy in (("bell", Strategy.none()), ("gxor", Strategy.usd())):
                cfg = ProtocolConfig(
                    channel=CHAN532, copies=copies, flow=flow, strategy=strategy,
                    input_spec=state([1, 2, 3]),
                )
                built.update((id(t), t) for t in self._tables(protocol._Context(cfg)))
                assert run_exact(cfg).total_probability() == pytest.approx(1.0, abs=1e-12)
                assert protocol._TABLES.retained <= budget
        assert sum(t.size for t in built.values()) > budget  # so the loop evicted
        # at d=3, M=8 the reconstruction gathers (1458 entries) outgrow a budget
        # that the compile's check (27 * D_8 = 1215) lets through; they are not kept
        monkeypatch.setenv("QTC_MEM_BUDGET", "1215")
        ctx = protocol._Context(ProtocolConfig(channel=CHAN532, copies=8))
        assert sum(t.size for t in ctx.recon) == 1458
        assert protocol._TABLES.retained <= 1215
        # lowering the budget drops what no longer fits on the next lookup
        monkeypatch.setenv("QTC_MEM_BUDGET", "100")
        protocol._Context(ProtocolConfig(channel=CHAN82, copies=1))
        assert protocol._TABLES.retained <= 100


class TestReach:
    """Sizes whose dense register would hold 2^129 or 3^33 amplitudes."""

    @pytest.mark.parametrize(
        "chan,copies",
        [(Channel(np.sqrt([0.7, 0.3])), 64), (CHAN532, 16)],
        ids=["d2-M64", "d3-M16"],
    )
    def test_usd_at_large_m(self, chan, copies):
        d = chan.d
        psi = random_state(d, np.random.default_rng(copies))
        cfg = ProtocolConfig(channel=chan, copies=copies, flow="gxor", strategy=Strategy.usd(), input_spec=psi)
        rep = run_exact(cfg, keep_states=False)
        f_opt = fm.optimal_fidelity(d, copies)
        assert abs(rep.total_probability() - 1.0) <= 1e-12
        assert abs(rep.conditional_averages["success"]["fidelity"] - f_opt) <= 1e-12
        for b in rep.branches:
            assert len(b.clone_fidelities) == copies and len(set(b.clone_fidelities)) == 1
            if b.flag == "success":
                assert abs(b.clone_fidelities[0] - f_opt) <= 1e-12
        for m in range(d):
            fail = [b for b in rep.branches if b.flag == "fail" and b.m == m]
            mass = sum(b.probability for b in fail)
            fid = sum(b.probability * b.clone_fidelities[0] for b in fail) / mass
            assert abs(fid - fm.failure_fidelity_m(psi.amps, chan, m, "branch", copies)) <= 1e-12
