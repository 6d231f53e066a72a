"""Generalized Bell states, GXOR, Fourier, and reconstruction unitaries."""

import math

import numpy as np
import pytest

import oracle
from qtc import (
    Channel,
    ProtocolConfig,
    StateVector,
    bell_state,
    channel_bell_state,
    channel_state,
    clone_basis,
    fourier,
    gxor_operator,
    haar_random_state,
    partial_trace,
    reconstruction_unitaries,
    run_exact,
    symmetric_states,
)
from qtc.formulas import shift_probability


def bell_vectors(d):
    return [bell_state(d, n, m).amps for n in range(d) for m in range(d)]


def gxor_px(full: StateVector) -> StateVector:
    """GXOR with control P and target X on a register whose first two qudits are X, P."""
    d = full.dims[0]
    g = gxor_operator(d).matrix.reshape(d, d, d, d)  # (P', X', P, X)
    out = np.einsum("pxqy,yqr->xpr", g, full.amps.reshape(d, d, -1))
    return StateVector(full.dims, full.labels, out.reshape(-1))


class TestBellStates:
    def test_standard_pair(self):
        assert np.allclose(bell_state(2, 0, 0).amps, [1, 0, 0, 1] / np.sqrt(2))
        assert np.allclose(bell_state(2, 1, 0).amps, [1, 0, 0, -1] / np.sqrt(2))

    def test_shift_pair(self):
        assert np.allclose(bell_state(2, 0, 1).amps, [0, 1, 1, 0] / np.sqrt(2))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gram_identity(self, d):
        vecs = bell_vectors(d)
        g = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.max(np.abs(g - np.eye(d * d))) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_completeness(self, d):
        total = sum(np.outer(v, v.conj()) for v in bell_vectors(d))
        assert np.max(np.abs(total - np.eye(d * d))) < 1e-12

    def test_matches_oracle(self):
        for d in (2, 3):
            for n in range(d):
                for m in range(d):
                    assert np.max(np.abs(bell_state(d, n, m).amps - oracle.bell_vector(d, n, m))) < 1e-12


class TestChannelBellStates:
    def test_maximal_reduces_to_orthonormal_family(self):
        d = 3
        vecs = [channel_bell_state(Channel.maximal(d), n, m).amps for n in range(d) for m in range(d)]
        g = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.max(np.abs(g - np.eye(d * d))) < 1e-10

    def test_same_shift_overlap(self):
        chan = Channel(np.sqrt([0.8, 0.2]))
        for m in range(2):
            a = channel_bell_state(chan, 0, m).amps
            b = channel_bell_state(chan, 1, m).amps
            assert abs(np.vdot(a, b)) == pytest.approx(0.6, abs=1e-12)

    def test_distinct_shift_orthogonal(self):
        chan = Channel(np.sqrt([0.5, 0.3, 0.2]))
        for n in range(3):
            for np_ in range(3):
                a = channel_bell_state(chan, n, 0).amps
                b = channel_bell_state(chan, np_, 2).amps
                assert abs(np.vdot(a, b)) < 1e-14


class TestAssemblyEquivalence:
    """The X (x) channel product must equal its branch-by-branch resolution.

    Direct form: |psi>_X (x) |xi>_PAC. Resolved form: (1/d) sum_nm
    |channel Bell_nm>_XP (x) sum_j w^{-(j+m)n} alpha_j |phi_{j+m}>. Equality
    certifies that the Bell-measurement flow and the branch bookkeeping
    partition the state without loss.
    """

    @pytest.mark.parametrize("d,m_copies", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
    def test_decomposition(self, d, m_copies):
        rng = np.random.default_rng(d * 10 + m_copies)
        alpha = haar_random_state(d, rng).amps
        c = rng.random(d) + 0.1
        chan = Channel(c / np.linalg.norm(c))
        direct = np.kron(alpha, channel_state(chan, m_copies).amps)

        phis = [s.amps for s in clone_basis(d, m_copies).states]
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


class TestGxor:
    def test_cnot_case(self):
        psi = np.kron([0, 1], [1, 0])  # |1>_P |0>_X, control first
        assert np.allclose(gxor_operator(2).matrix @ psi, [0, 0, 0, 1])

    def test_d3_fixed_point(self):
        psi = np.kron([0, 0, 1], [0, 1, 0])  # |2>_P |1>_X
        assert np.allclose(gxor_operator(3).matrix @ psi, psi)  # 2 - 1 = 1 mod 3

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_involution_every_dimension(self, d):
        # |n>|m> -> |n>|n-m> applied twice restores |n>|m> for every d,
        # since n - (n - m) = m mod d; the map is its own inverse
        g = gxor_operator(d).matrix
        assert np.max(np.abs(g @ g - np.eye(d * d))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitary(self, d):
        assert gxor_operator(d).is_unitary(1e-12)

    def test_sender_marginal_diagonal_after_gxor(self):
        # after GXOR(P -> X) on psi (x) channel, the P marginal is exactly
        # diag(c_k^2) and the X outcome probabilities are the shift weights
        d = 3
        rng = np.random.default_rng(17)
        psi = haar_random_state(d, rng, "X")
        c = np.sqrt([0.5, 0.3, 0.2])
        chan = Channel(c)
        xi = channel_state(chan, 2)
        full = StateVector((d,) + xi.dims, ("X",) + xi.labels, np.kron(psi.amps, xi.amps))
        out = gxor_px(full)
        rho_p = partial_trace(out, ["P"]).matrix
        assert np.max(np.abs(rho_p - np.diag(c**2))) < 1e-12
        rho_x = partial_trace(out, ["X"]).matrix
        want = [shift_probability(psi.amps, chan, m) for m in range(d)]
        assert np.max(np.abs(np.diag(rho_x).real - want)) < 1e-12

    def test_receiver_marginal_can_stay_coherent(self):
        # the X marginal is not diagonal in general: maximal channel and a
        # balanced input leave X in the pure |+> state after GXOR
        xi = channel_state(Channel.maximal(2), 2)
        full = StateVector((2,) + xi.dims, ("X",) + xi.labels, np.kron([1, 1] / np.sqrt(2), xi.amps))
        out = gxor_px(full)
        rho_x = partial_trace(out, ["X"]).matrix
        assert np.max(np.abs(rho_x - 0.5 * np.ones((2, 2)))) < 1e-12


class TestFourier:
    def test_d2_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.max(np.abs(fourier(2).matrix - h)) < 1e-12

    def test_unitary_d5(self):
        f = fourier(5).matrix
        assert np.max(np.abs(f.conj().T @ f - np.eye(5))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_columns_are_phase_states(self, d):
        f = fourier(d).matrix
        w = np.exp(2j * np.pi * np.arange(d) / d)
        for n in range(d):
            want = w[(n * np.arange(d)) % d] / math.sqrt(d)
            assert np.max(np.abs(f[:, n] - want)) < 1e-12


class TestSymmetricStates:
    def test_maximal_gives_fourier_family(self):
        fam = symmetric_states(Channel.maximal(3))
        f = fourier(3).matrix
        for n, state in enumerate(fam.states):
            assert np.max(np.abs(state.amps - f[:, n])) < 1e-12

    def test_overlap(self):
        fam = symmetric_states(Channel(np.sqrt([0.8, 0.2])))
        assert abs(np.vdot(fam.states[0].amps, fam.states[1].amps)) == pytest.approx(0.6, abs=1e-12)

    def test_z_shift_property(self):
        d = 4
        fam = symmetric_states(Channel.maximal(d))
        z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        for n in range(d - 1):
            assert np.max(np.abs(fam.states[n + 1].amps - z @ fam.states[n].amps)) < 1e-12


class TestReconstruction:
    def test_trivial_branch_is_identity(self):
        for variant in ("s2", "s4"):
            ua, uc = reconstruction_unitaries(3, 0, 0, variant)
            assert np.allclose(ua.matrix, np.eye(3))
            assert np.allclose(uc.matrix, np.eye(3))

    def test_d2_phase_permutation(self):
        ua, uc = reconstruction_unitaries(2, 1, 1)
        assert ua.is_unitary(1e-12) and uc.is_unitary(1e-12)
        # one nonzero entry per row/column: phased permutation
        assert np.count_nonzero(np.abs(ua.matrix) > 1e-14) == 2
        assert np.count_nonzero(np.abs(uc.matrix) > 1e-14) == 2

    @pytest.mark.parametrize("variant", ["s2", "s4"])
    def test_maximal_every_branch_aligns(self, variant):
        d = 3
        rng = np.random.default_rng(5)
        psi = haar_random_state(d, rng)
        cfg = ProtocolConfig(channel=Channel.maximal(d), recon_variant=variant)
        rep = run_exact(cfg, psi)
        ref = rep.branch(0, 0).ac_state.amps
        for b in rep.branches:
            overlap = abs(np.vdot(ref, b.ac_state.amps))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_variants_differ_by_global_phase(self):
        d = 3
        rng = np.random.default_rng(6)
        psi = haar_random_state(d, rng)
        chan = Channel(np.sqrt([0.5, 0.3, 0.2]))
        rep2 = run_exact(ProtocolConfig(channel=chan, recon_variant="s2"), psi)
        rep4 = run_exact(ProtocolConfig(channel=chan, recon_variant="s4"), psi)
        # the two phase conventions differ by exp(2 pi i m n / d) per branch:
        # each of the M clone corrections gains exp(2 pi i m n / d) and each
        # of the M-1 ancilla corrections loses it
        w = np.exp(2j * np.pi / d)
        for b2, b4 in zip(rep2.branches, rep4.branches):
            assert b2.probability == pytest.approx(b4.probability, abs=1e-12)
            ratio = np.vdot(b2.ac_state.amps, b4.ac_state.amps)
            assert abs(ratio) == pytest.approx(1.0, abs=1e-10)
            assert ratio == pytest.approx(w ** (b2.m * b2.n), abs=1e-10)

    def test_matches_oracle(self):
        for variant in ("s2", "s4"):
            for n in range(3):
                for m in range(3):
                    ua, uc = reconstruction_unitaries(3, n, m, variant)
                    oa, oc = oracle.recon_matrices(3, n, m, variant)
                    assert np.max(np.abs(ua.matrix - oa)) < 1e-12
                    assert np.max(np.abs(uc.matrix - oc)) < 1e-12
