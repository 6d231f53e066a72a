"""Filter constructions, dilations, and readout statistics for each strategy."""

import math

import numpy as np
import pytest

from qtc import (
    Channel,
    KrausPair,
    Operator,
    RankDeficientChannelError,
    Strategy,
    max_confidence,
    separation_filter,
    usd_failure_states,
    usd_kraus,
)
from qtc import formulas as fm
from qtc.bell import fourier, symmetric_states
from qtc.discrimination import filter_unitary, max_confidence_readout

CHAN82 = Channel(np.sqrt([0.8, 0.2]))


def readout_table(chan, pass_op=None):
    """Joint probabilities [t, n] of preparing family member t, passing the
    filter ``pass_op`` (none: always pass) and reading n after the inverse
    Fourier transform, uniform prior."""
    d = chan.d
    fam = np.stack([s.amps for s in symmetric_states(chan).states], axis=1)
    kept = fam if pass_op is None else pass_op @ fam
    return (np.abs(fourier(d).matrix.conj().T @ kept) ** 2).T / d


def random_full_rank(d, seed):
    rng = np.random.default_rng(seed)
    c = rng.random(d) + 0.15
    return Channel(c / np.linalg.norm(c))


def filter_pair(kind, d):
    """Kraus pair of one filter strategy on a random channel of dimension d."""
    if kind == "usd":
        return usd_kraus(random_full_rank(d, 40 + d))
    if kind == "separation":
        return separation_filter(random_full_rank(d, 40 + d), random_full_rank(d, 50 + d))
    # rank-deficient channel with a hole inside the support
    c = np.random.default_rng(60 + d).random(d) + 0.15
    c[1] = 0.0
    return max_confidence(Channel(c / np.linalg.norm(c)))


def diagonal_pair(success, fail):
    return KrausPair(
        Operator.square(np.diag(success), (2,)),
        Operator.square(np.diag(fail), (2,)),
        (0, 1),
    )


class TestUsdKraus:
    def test_maximal_is_trivial(self):
        pair = usd_kraus(Channel.maximal(3))
        assert np.max(np.abs(pair.success.matrix - np.eye(3))) < 1e-12
        assert np.max(np.abs(pair.fail.matrix)) < 1e-12

    def test_success_probability_enters_diagonal(self):
        pair = usd_kraus(CHAN82)
        # A_s scales each coefficient down to c_min
        out = pair.success.matrix @ CHAN82.coeffs
        assert np.allclose(out, [CHAN82.c_min] * 2, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_completeness(self, seed):
        pair = usd_kraus(random_full_rank(4, seed))
        assert pair.completeness_defect() < 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientChannelError):
            usd_kraus(Channel(np.sqrt([0.7, 0.3, 0.0])))


class TestFilterUnitary:
    def test_maximal_block_identity(self):
        u = filter_unitary(usd_kraus(Channel.maximal(2)), 2)
        assert np.max(np.abs(u.matrix - np.eye(4))) < 1e-12

    def test_success_projection_norms(self):
        # project the flag slot back on the incoming flag value: the squared
        # norm is the success probability c_min^2 * d / d = 0.4 per state
        u = filter_unitary(usd_kraus(CHAN82), 2, flag=0)
        fam = symmetric_states(CHAN82)
        for n in range(2):
            inp = np.kron(fam.states[n].amps, [1, 0])
            out = (u.matrix @ inp).reshape(2, 2)
            assert np.vdot(out[:, 0], out[:, 0]).real == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_unitarity_random_channels(self, seed):
        u = filter_unitary(usd_kraus(random_full_rank(3, seed)), 3, flag=seed % 3)
        assert u.is_unitary(1e-10)

    def test_flag_offset_moves_failure_slot(self):
        u = filter_unitary(usd_kraus(CHAN82), 2, flag=1)
        fam = symmetric_states(CHAN82)
        inp = np.kron(fam.states[0].amps, [0, 1])
        out = (u.matrix @ inp).reshape(2, 2)
        # success amplitude stays on flag 1, failure moves to flag 0
        assert np.vdot(out[:, 1], out[:, 1]).real == pytest.approx(0.4, abs=1e-12)
        assert np.vdot(out[:, 0], out[:, 0]).real == pytest.approx(0.6, abs=1e-12)

    def test_action_matches_kraus(self):
        chan = random_full_rank(3, 11)
        pair = usd_kraus(chan)
        u = filter_unitary(pair, 3, flag=0)
        rng = np.random.default_rng(0)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        out = (u.matrix @ np.kron(v, np.eye(3)[0])).reshape(3, 3)
        assert np.max(np.abs(out[:, 0] - pair.success.matrix @ v)) < 1e-10
        assert np.max(np.abs(out[:, 1] - pair.fail.matrix @ v)) < 1e-10

    @pytest.mark.parametrize(
        "kind,d",
        [(kind, d) for kind in ("usd", "separation", "maxconf") for d in range(2, 6) if (kind, d) != ("maxconf", 2)],
    )
    def test_closed_form_dilation(self, kind, d):
        pair = filter_pair(kind, d)
        s, f = pair.success.matrix, pair.fail.matrix
        eye = np.eye(d)
        for flag in range(d):
            u = filter_unitary(pair, d, flag).matrix
            for k in pair.support:
                want = np.kron(s[:, k], eye[flag]) + np.kron(f[:, k], eye[(flag + 1) % d])
                assert np.array_equal(u[:, k * d + flag], want)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d * d))) < 1e-14

    def test_partial_prescription_filter_action(self):
        # flag-qubit filter built by hand for c^2 = (0.8, 0.2):
        # |k>|0> -> a_k|k>|0> + b_k|k>|1> extends to a unitary whose success
        # amplitudes have squared norm d*c_min^2 = 0.4 on both family members
        c = np.sqrt([0.8, 0.2])
        a = c.min() / c
        u = filter_unitary(diagonal_pair(a, np.sqrt(1 - a**2)), 2, flag=0)
        assert u.is_unitary(1e-10)
        for n in range(2):
            psi_n = c * np.array([1, (-1) ** n])
            out = (u.matrix @ np.kron(psi_n, [1, 0])).reshape(2, 2)
            assert np.vdot(out[:, 0], out[:, 0]).real == pytest.approx(0.4, abs=1e-12)

    def test_incomplete_pair_rejected(self):
        with pytest.raises(ValueError, match="incomplete"):
            filter_unitary(diagonal_pair([1.0, 0.5], [0.0, 0.5]), 2)

    def test_off_diagonal_pair_rejected(self):
        swap = KrausPair(
            Operator.square(np.array([[0.0, 1.0], [1.0, 0.0]]), (2,)),
            Operator.square(np.zeros((2, 2)), (2,)),
            (0, 1),
        )
        assert swap.completeness_defect() == 0.0
        with pytest.raises(ValueError, match="diagonal"):
            filter_unitary(swap, 2)


class TestUsdFailureStates:
    def test_d2_failure_family_rank_one(self):
        states = usd_failure_states(CHAN82)
        stacked = np.stack([s.amps for s in states])
        rank = np.linalg.matrix_rank(stacked, tol=1e-10)
        assert rank == 1

    @pytest.mark.parametrize("d", [3, 4])
    def test_rank_is_d_minus_one(self, d):
        chan = random_full_rank(d, d)
        states = usd_failure_states(chan)
        stacked = np.stack([s.amps for s in states])
        assert np.linalg.matrix_rank(stacked, tol=1e-10) == d - 1

    def test_unit_norm(self):
        for s in usd_failure_states(CHAN82):
            assert np.linalg.norm(s.amps) == pytest.approx(1.0, abs=1e-10)

    def test_proportional_to_filtered_family(self):
        chan = random_full_rank(3, 21)
        pair = usd_kraus(chan)
        fam = symmetric_states(chan)
        for n, s in enumerate(usd_failure_states(chan)):
            v = pair.fail.matrix @ fam.states[n].amps
            v /= np.linalg.norm(v)
            overlap = abs(np.vdot(v, s.amps))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_explicit_component_form(self):
        # components proportional to w^{nk} sqrt(c_k^2 - c_min^2)
        chan = random_full_rank(4, 33)
        c = chan.coeffs
        w = np.exp(2j * np.pi / 4)
        for n, s in enumerate(usd_failure_states(chan)):
            want = w ** (n * np.arange(4)) * np.sqrt(c**2 - chan.c_min**2)
            want /= np.linalg.norm(want)
            assert abs(abs(np.vdot(want, s.amps)) - 1) < 1e-10

    def test_maximal_rejected(self):
        with pytest.raises(ValueError):
            usd_failure_states(Channel.maximal(2))


class TestMinError:
    """Minimum error: the inverse Fourier readout of the unfiltered family."""

    def test_correct_probability_frozen(self):
        # (c_0 + c_1)^2 / d with c = (sqrt(0.8), sqrt(0.2)): exactly 0.9
        assert np.trace(readout_table(CHAN82)) == pytest.approx(0.9, abs=1e-12)

    def test_maximal_always_correct(self):
        assert np.trace(readout_table(Channel.maximal(3))) == pytest.approx(1.0, abs=1e-12)

    def test_readout_marginal_uniform(self):
        chan = Channel(np.sqrt([0.5, 0.3, 0.2]))
        table = readout_table(chan)
        assert np.allclose(table.sum(axis=0), [1 / 3] * 3, atol=1e-12)
        assert np.trace(table) == pytest.approx(fm.min_error_correct_probability(chan), abs=1e-12)

    def test_conclusive_rows_sum_to_one(self):
        assert readout_table(CHAN82).sum() == pytest.approx(1.0, abs=1e-12)


class TestSeparation:
    def test_identity_target(self):
        pair = separation_filter(CHAN82, CHAN82)
        assert np.max(np.abs(pair.success.matrix - np.eye(2))) < 1e-12
        assert np.max(np.abs(pair.fail.matrix)) < 1e-12

    def test_orthogonalization_probability(self):
        pair = separation_filter(CHAN82, Channel.maximal(2))
        out = pair.success.matrix @ CHAN82.coeffs
        assert np.vdot(out, out).real == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_completeness(self, seed):
        chan = random_full_rank(3, seed)
        target = random_full_rank(3, seed + 100)
        pair = separation_filter(chan, target)
        assert pair.completeness_defect() < 1e-12

    def test_post_success_family_overlap(self):
        target = Channel(np.sqrt([0.6, 0.4]))
        pair = separation_filter(CHAN82, target)
        fam = symmetric_states(CHAN82)
        outs = []
        for n in range(2):
            v = pair.success.matrix @ fam.states[n].amps
            outs.append(v / np.linalg.norm(v))
        want = abs(0.6 - 0.4)  # |sum c~_k^2 (-1)^k|
        assert abs(np.vdot(outs[0], outs[1])) == pytest.approx(want, abs=1e-12)

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError):
            separation_filter(Channel(np.sqrt([0.7, 0.3, 0.0])), Channel.maximal(3))


def inconclusive_probability(chan):
    """Mass the maximum-confidence filter rejects, read from its Kraus pair."""
    fail = max_confidence(chan).fail.matrix
    return float(np.mean([np.linalg.norm(fail @ s.amps) ** 2 for s in symmetric_states(chan).states]))


class TestMaxConfidence:
    def test_two_state_qutrit_confidence(self):
        chan = Channel(np.sqrt([0.5, 0.5, 0.0]))
        assert max_confidence_readout(chan).posterior_correct() == pytest.approx(2 / 3, abs=1e-12)
        assert inconclusive_probability(chan) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_qutrit(self):
        chan = Channel(np.sqrt([0.7, 0.3, 0.0]))
        assert inconclusive_probability(chan) == pytest.approx(0.4, abs=1e-12)
        assert max_confidence_readout(chan).inconclusive.sum() == pytest.approx(0.4, abs=1e-12)
        assert max_confidence_readout(chan).posterior_correct() == pytest.approx(2 / 3, abs=1e-12)

    def test_d4_posterior_from_bayes(self):
        chan = Channel(np.sqrt([0.6, 0.4, 0.0, 0.0]))
        ro = max_confidence_readout(chan)
        assert ro.posterior_correct() == pytest.approx(0.5, abs=1e-12)
        assert ro.inconclusive.sum() == pytest.approx(0.2, abs=1e-12)

    def test_uniform_support_never_inconclusive(self):
        chan = Channel(np.sqrt([1 / 3, 1 / 3, 1 / 3, 0.0]))
        assert inconclusive_probability(chan) == pytest.approx(0.0, abs=1e-12)

    def test_kraus_completeness_on_support(self):
        pair = max_confidence(Channel(np.sqrt([0.7, 0.3, 0.0])))
        assert pair.completeness_defect() < 1e-12

    def test_unitary_dilation(self):
        pair = max_confidence(Channel(np.sqrt([0.55, 0.25, 0.2, 0.0])))
        assert filter_unitary(pair, 4).is_unitary(1e-10)

    def test_full_rank_rejected(self):
        with pytest.raises(ValueError, match="unambiguous"):
            max_confidence(Channel.maximal(3))

    def test_single_state_support_rejected(self):
        with pytest.raises(ValueError):
            max_confidence(Channel(np.sqrt([1.0, 0.0, 0.0])))


class TestUsdReadout:
    def test_success_readout_is_error_free(self):
        chan = random_full_rank(3, 5)
        table = readout_table(chan, usd_kraus(chan).success.matrix)
        off = table - np.diag(np.diag(table))
        assert np.max(np.abs(off)) < 1e-12
        assert np.trace(table) == pytest.approx(fm.usd_success_probability(chan), abs=1e-12)

    def test_inconclusive_mass(self):
        table = readout_table(CHAN82, usd_kraus(CHAN82).success.matrix)
        assert 1 - table.sum() == pytest.approx(0.6, abs=1e-12)


class TestStrategy:
    def test_parse_round_trip(self):
        for token in ("none", "usd", "minerror", "maxconf"):
            s = Strategy.parse(token, 3)
            assert s.kind == {"minerror": "minerror", "maxconf": "maxconf"}.get(token, token)
        sep = Strategy.parse("sep:maximal", 2)
        assert sep.kind == "separation" and sep.target.is_maximal
        sep2 = Strategy.parse("sep:c=[0.6,0.8]", 2)
        assert np.allclose(sep2.target.coeffs, [0.6, 0.8])

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            Strategy.parse("bogus", 2)
        with pytest.raises(ValueError):
            Strategy.parse("sep:", 2)

    def test_separation_requires_target(self):
        with pytest.raises(ValueError):
            Strategy("separation")

    def test_describe(self):
        assert "usd" in Strategy.usd().describe()
