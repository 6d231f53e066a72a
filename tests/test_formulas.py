"""Closed-form layer: frozen example values, internal identities, edge cases.

Frozen decimals come from tests/oracle.py, which rebuilds the protocol by
brute force with no qtc imports.
"""

import numpy as np
import pytest

from qtc.symmetric import Channel
from qtc import formulas as fm

CHAN82 = Channel(np.sqrt([0.8, 0.2]))
CHAN532 = Channel(np.sqrt([0.5, 0.3, 0.2]))
ALPHA2 = np.array([0.6, 0.8])
ALPHA3 = np.array([0.6, 0.48j, 0.64])


def random_state(d, rng):
    a = rng.normal(size=d) + 1j * rng.normal(size=d)
    return a / np.linalg.norm(a)


def random_channel(d, rng):
    c = np.abs(rng.normal(size=d)) + 0.1
    return Channel(c / np.linalg.norm(c))


class TestBenchmarks:
    def test_optimal_fidelity_values(self):
        assert fm.optimal_fidelity(2, 2) == pytest.approx(5 / 6, abs=1e-15)
        assert fm.optimal_fidelity(2, 3) == pytest.approx(7 / 9, abs=1e-15)
        assert fm.optimal_fidelity(3, 2) == pytest.approx(3 / 4, abs=1e-15)

    def test_single_copy_is_perfect(self):
        for d in range(2, 7):
            assert fm.optimal_fidelity(d, 1) == pytest.approx(1.0, abs=1e-15)

    def test_estimation_values(self):
        assert fm.estimation_fidelity(2) == pytest.approx(2 / 3, abs=1e-15)
        assert fm.estimation_fidelity(3) == pytest.approx(1 / 2, abs=1e-15)

    def test_estimation_is_many_copy_limit(self):
        for d in range(2, 5):
            assert fm.optimal_fidelity(d, 10**9) == pytest.approx(
                fm.estimation_fidelity(d), abs=1e-8
            )


class TestShiftProbability:
    def test_frozen_qubit_values(self):
        assert fm.shift_probability(ALPHA2, CHAN82, 0) == pytest.approx(0.416, abs=1e-12)
        assert fm.shift_probability(ALPHA2, CHAN82, 1) == pytest.approx(0.584, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4):
            for _ in range(5):
                a = random_state(d, rng)
                chan = random_channel(d, rng)
                total = sum(fm.shift_probability(a, chan, m) for m in range(d))
                assert abs(total - 1) < 1e-12

    def test_maximal_channel_is_uniform(self):
        rng = np.random.default_rng(8)
        for d in (2, 3, 5):
            a = random_state(d, rng)
            chan = Channel.maximal(d)
            for m in range(d):
                assert fm.shift_probability(a, chan, m) == pytest.approx(1 / d, abs=1e-12)

    def test_rejects_unnormalized_input(self):
        with pytest.raises(ValueError, match="normalized"):
            fm.shift_probability([1.0, 1.0], CHAN82, 0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            fm.shift_probability([1.0, 0.0, 0.0], CHAN82, 0)


class TestCloneFidelity:
    def test_frozen_qubit_values(self):
        assert fm.clone_fidelity_m(ALPHA2, CHAN82, 0) == pytest.approx(
            0.7594871794871793, abs=1e-12
        )
        assert fm.clone_fidelity_m(ALPHA2, CHAN82, 1) == pytest.approx(
            0.7807305936073059, abs=1e-12
        )
        assert fm.clone_fidelity_avg(ALPHA2, CHAN82) == pytest.approx(
            0.771893333333333, abs=1e-12
        )

    def test_frozen_qutrit_values(self):
        assert fm.clone_fidelity_m(ALPHA3, CHAN532, 0) == pytest.approx(
            0.725417925104667, abs=1e-12
        )
        assert fm.clone_fidelity_m(ALPHA3, CHAN532, 1) == pytest.approx(
            0.7309161944468742, abs=1e-12
        )
        assert fm.clone_fidelity_m(ALPHA3, CHAN532, 2) == pytest.approx(
            0.7308731304936601, abs=1e-12
        )
        assert fm.clone_fidelity_avg(ALPHA3, CHAN532) == pytest.approx(
            0.7290826940932175, abs=1e-12
        )

    def test_average_is_probability_weighted(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            for _ in range(5):
                a = random_state(d, rng)
                chan = random_channel(d, rng)
                direct = sum(
                    fm.shift_probability(a, chan, m) * fm.clone_fidelity_m(a, chan, m)
                    for m in range(d)
                )
                assert abs(direct - fm.clone_fidelity_avg(a, chan)) < 1e-12

    def test_maximal_channel_reaches_optimum(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 4):
            a = random_state(d, rng)
            chan = Channel.maximal(d)
            for m in range(d):
                assert fm.clone_fidelity_m(a, chan, m) == pytest.approx(
                    fm.optimal_fidelity(d, 2), abs=1e-12
                )

    def test_qubit_printed_form_is_branch_zero(self):
        # the printed d=2 expression reproduces the shift-0 branch, not the mean
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_state(2, rng)
            chan = random_channel(2, rng)
            c0, c1 = chan.coeffs
            assert fm.clone_fidelity_qubit_printed(a[0], a[1], c0, c1) == pytest.approx(
                fm.clone_fidelity_m(a, chan, 0), abs=1e-12
            )

    def test_qubit_printed_form_differs_from_mean(self):
        c0, c1 = CHAN82.coeffs
        printed = fm.clone_fidelity_qubit_printed(ALPHA2[0], ALPHA2[1], c0, c1)
        assert printed == pytest.approx(0.7594871794871793, abs=1e-12)
        assert abs(printed - fm.clone_fidelity_avg(ALPHA2, CHAN82)) > 1e-3

    def test_qubit_printed_form_matches_mean_for_maximal(self):
        rng = np.random.default_rng(21)
        a = random_state(2, rng)
        r = 1 / np.sqrt(2)
        assert fm.clone_fidelity_qubit_printed(a[0], a[1], r, r) == pytest.approx(
            fm.clone_fidelity_avg(a, Channel.maximal(2)), abs=1e-12
        )

    def test_zero_branch_rejected(self):
        chan = Channel.rank1(2)
        with pytest.raises(ZeroDivisionError):
            fm.clone_fidelity_m([1.0, 0.0], chan, 1)


class TestHaarAverages:
    def test_moment_values(self):
        for d in (2, 3, 5):
            assert fm.haar_moment(d, 0, 0) == pytest.approx(2 / (d * (d + 1)), abs=1e-15)
            assert fm.haar_moment(d, 0, 1) == pytest.approx(1 / (d * (d + 1)), abs=1e-15)

    def test_moments_sum_to_one(self):
        # sum_jk E[|psi_j|^2 |psi_k|^2] = E[1] = 1
        for d in (2, 3, 4):
            total = sum(fm.haar_moment(d, j, k) for j in range(d) for k in range(d))
            assert abs(total - 1) < 1e-12

    def test_maximal_channel_haar_is_optimum(self):
        for d in (2, 3, 4):
            assert fm.clone_fidelity_haar(Channel.maximal(d)) == pytest.approx(
                fm.optimal_fidelity(d, 2), abs=1e-12
            )

    def test_haar_formula_matches_sampled_average(self):
        rng = np.random.default_rng(14)
        chan = CHAN82
        samples = [fm.clone_fidelity_avg(random_state(2, rng), chan) for _ in range(4000)]
        mean = np.mean(samples)
        stderr = np.std(samples) / np.sqrt(len(samples))
        assert abs(mean - fm.clone_fidelity_haar(chan)) < 4 * stderr


class TestUnambiguous:
    def test_success_probability_frozen(self):
        assert fm.usd_success_probability(CHAN82) == pytest.approx(0.4, abs=1e-12)

    def test_maximal_channel_always_succeeds(self):
        for d in (2, 3, 4):
            assert fm.usd_success_probability(Channel.maximal(d)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="full-rank"):
            fm.usd_success_probability(Channel(np.sqrt([0.5, 0.5, 0.0])))

    def test_failure_normalizations_differ(self):
        branch = fm.failure_fidelity_m(ALPHA2, CHAN82, 0, normalization="branch")
        printed = fm.failure_fidelity_m(ALPHA2, CHAN82, 0, normalization="printed")
        # same numerator, weights P_m - c_min^2 vs P_m
        w0 = 0.416 - 0.2
        assert branch == pytest.approx(
            1 / 6 + (printed - 1 / 6) * 0.416 / w0, abs=1e-12
        )
        assert branch > printed

    def test_failure_numerator_orientation(self):
        # d=3 distinguishes w_{j+m} from w_{j-m} in the numerator; d=2 cannot
        w = np.abs(ALPHA3) ** 2
        c = CHAN532.coeffs
        cmin2 = CHAN532.c_min**2
        for m in range(3):
            num = sum(
                w[j] * w[(j + m) % 3] * (c[(j + m) % 3] ** 2 - cmin2) for j in range(3)
            )
            weight = fm.shift_probability(ALPHA3, CHAN532, m) - cmin2
            want = 1 / 8 + (5 / 8) * num / weight
            assert fm.failure_fidelity_m(ALPHA3, CHAN532, m) == pytest.approx(
                want, abs=1e-12
            )

    def test_failure_unknown_normalization(self):
        with pytest.raises(ValueError, match="normalization"):
            fm.failure_fidelity_m(ALPHA2, CHAN82, 0, normalization="other")

    def test_failure_haar_identity(self):
        # termwise moment computation collapses to 1/d for every full-rank channel
        rng = np.random.default_rng(15)
        for d in (2, 3, 4):
            for _ in range(5):
                chan = random_channel(d, rng)
                assert fm.failure_fidelity_haar(chan) == pytest.approx(
                    fm.failure_fidelity_avg(d), abs=1e-12
                )

    def test_failure_haar_rejects_maximal(self):
        with pytest.raises(ZeroDivisionError):
            fm.failure_fidelity_haar(Channel.maximal(3))

    def test_average_with_correction_frozen(self):
        # p = 0.4: 0.4 * 5/6 + 0.6 * 1/2
        got = fm.usd_average_fidelity(2, 0.4)
        assert got == pytest.approx(0.4 * 5 / 6 + 0.6 / 2, abs=1e-14)

    def test_threshold_values(self):
        assert fm.classical_threshold(2) == pytest.approx(0.25, abs=1e-15)
        assert fm.classical_threshold(3) == pytest.approx(2 / 15, abs=1e-15)

    def test_threshold_identity(self):
        # at c_min^2 = 2/(d(d+2)) the corrected average meets the estimation benchmark
        for d in range(2, 7):
            p = d * fm.classical_threshold(d)
            assert fm.usd_average_fidelity(d, p) == pytest.approx(
                fm.estimation_fidelity(d), abs=1e-12
            )

    def test_threshold_sign_flips(self):
        for d in range(2, 7):
            thresh = fm.classical_threshold(d)
            above = fm.usd_average_fidelity(d, d * (thresh + 0.01))
            below = fm.usd_average_fidelity(d, d * (thresh - 0.01))
            assert above > fm.estimation_fidelity(d) > below


class TestMinError:
    def test_correct_probability_frozen(self):
        assert fm.min_error_correct_probability(CHAN82) == pytest.approx(0.9, abs=1e-12)

    def test_correct_probability_maximal(self):
        for d in (2, 3, 4):
            assert fm.min_error_correct_probability(Channel.maximal(d)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_printed_scaling(self):
        rng = np.random.default_rng(16)
        for d in (2, 3):
            a = random_state(d, rng)
            chan = random_channel(d, rng)
            for m in range(d):
                assert fm.min_error_fidelity_m(a, chan, m) == pytest.approx(
                    fm.clone_fidelity_m(a, chan, m) / d**3, abs=1e-14
                )
            assert fm.min_error_fidelity_avg(a, chan) == pytest.approx(
                fm.clone_fidelity_avg(a, chan) / d**3, abs=1e-14
            )

    def test_qubit_printed_prefactor(self):
        # 1/96 = (1/12)/8: the qubit min-error form is the qubit clone form over d^3
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = random_state(2, rng)
            chan = random_channel(2, rng)
            c0, c1 = chan.coeffs
            assert fm.min_error_fidelity_qubit_printed(a[0], a[1], c0, c1) == pytest.approx(
                fm.clone_fidelity_qubit_printed(a[0], a[1], c0, c1) / 8, abs=1e-14
            )
            assert fm.min_error_fidelity_qubit_printed(a[0], a[1], c0, c1) == pytest.approx(
                fm.min_error_fidelity_m(a, chan, 0), abs=1e-12
            )


class TestSeparation:
    TARGET = Channel(np.sqrt([0.5, 0.5]))

    def test_printed_frozen(self):
        assert fm.separation_probability_printed(CHAN82, self.TARGET) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_constructed_frozen(self):
        assert fm.separation_probability_constructed(CHAN82, self.TARGET) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_orthogonal_printed_frozen(self):
        # the value as published, at odds with the filter construction
        assert fm.separation_probability_orthogonal_printed(CHAN82) == pytest.approx(
            0.1, abs=1e-12
        )
        assert fm.separation_probability_constructed(CHAN82, self.TARGET) == pytest.approx(
            2 * CHAN82.c_min**2, abs=1e-12
        )

    def test_printed_matches_constructed_for_maximal_target(self):
        rng = np.random.default_rng(18)
        for d in (2, 3, 4):
            chan = random_channel(d, rng)
            target = Channel.maximal(d)
            assert fm.separation_probability_printed(chan, target) == pytest.approx(
                fm.separation_probability_constructed(chan, target), abs=1e-12
            )

    def test_identity_target(self):
        assert fm.separation_probability_constructed(CHAN82, CHAN82) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_constructed_rejects_support_mismatch(self):
        target = Channel(np.sqrt([0.7, 0.3, 0.0]))
        with pytest.raises(ValueError, match="support"):
            fm.separation_probability_constructed(CHAN532, target)

    def test_constructed_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            fm.separation_probability_constructed(CHAN82, CHAN532)

    def test_printed_rejects_rank_deficient_target(self):
        with pytest.raises(ValueError, match="full rank"):
            fm.separation_probability_printed(CHAN82, Channel(np.sqrt([1.0, 0.0])))

    def test_fidelity_is_clone_fidelity_at_target(self):
        rng = np.random.default_rng(19)
        a = random_state(2, rng)
        for m in range(2):
            assert fm.separation_fidelity_m(a, self.TARGET, m) == pytest.approx(
                fm.clone_fidelity_m(a, self.TARGET, m), abs=1e-14
            )
        assert fm.separation_fidelity_avg(a, self.TARGET) == pytest.approx(
            fm.clone_fidelity_avg(a, self.TARGET), abs=1e-14
        )
        t0, t1 = self.TARGET.coeffs
        assert fm.separation_fidelity_qubit_printed(a[0], a[1], t0, t1) == pytest.approx(
            fm.separation_fidelity_m(a, self.TARGET, 0), abs=1e-12
        )

    def test_maximal_target_reaches_optimum(self):
        rng = np.random.default_rng(20)
        for d in (2, 3):
            a = random_state(d, rng)
            assert fm.separation_fidelity_avg(a, Channel.maximal(d)) == pytest.approx(
                fm.optimal_fidelity(d, 2), abs=1e-12
            )


class TestMaxConfidence:
    def test_confidence_frozen(self):
        chan = Channel(np.sqrt([0.5, 0.5, 0.0]))
        assert fm.discrimination_confidence(chan) == pytest.approx(2 / 3, abs=1e-12)
        assert fm.inconclusive_probability(chan) == pytest.approx(0.0, abs=1e-12)

    def test_nonuniform_support(self):
        chan = Channel(np.sqrt([0.7, 0.3, 0.0]))
        assert fm.discrimination_confidence(chan) == pytest.approx(2 / 3, abs=1e-12)
        assert fm.inconclusive_probability(chan) == pytest.approx(0.4, abs=1e-12)

    def test_d4_rank2(self):
        chan = Channel(np.sqrt([0.6, 0.4, 0.0, 0.0]))
        assert fm.discrimination_confidence(chan) == pytest.approx(0.5, abs=1e-12)
        assert fm.inconclusive_probability(chan) == pytest.approx(1 - 2 * 0.4, abs=1e-12)

    def test_full_rank_rejected(self):
        with pytest.raises(ValueError, match="full rank"):
            fm.discrimination_confidence(CHAN82)
        with pytest.raises(ValueError):
            fm.inconclusive_probability(CHAN82)

    def test_single_state_rejected(self):
        chan = Channel(np.sqrt([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            fm.discrimination_confidence(chan)
        with pytest.raises(ValueError):
            fm.inconclusive_probability(chan)
