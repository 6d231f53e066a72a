"""Symmetrized bases, clone basis, and channel construction."""

import itertools
import math

import numpy as np
import pytest

import oracle
from qtc import Channel, channel_state, clone_basis, partial_trace, symmetric_basis, symmetric_dimension
from qtc.symmetric import ancilla_labels, clone_labels, occupation_index, occupations, raising


class TestSymmetricDimension:
    @pytest.mark.parametrize(
        "d,m,want", [(2, 1, 2), (2, 2, 3), (3, 2, 6), (2, 3, 4), (4, 3, 20)]
    )
    def test_values(self, d, m, want):
        assert symmetric_dimension(d, m) == want

    def test_matches_binomial(self):
        for d in range(2, 6):
            for m in range(1, 5):
                assert symmetric_dimension(d, m) == math.comb(d + m - 1, m)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            symmetric_dimension(10**6, 12)


class TestOccupations:
    @pytest.mark.parametrize("d,m", [(2, 0), (3, 0), (2, 5), (3, 4), (5, 3), (2, 300), (3, 40), (7, 6)])
    def test_rows_follow_multiset_order_and_index_inverts(self, d, m):
        occ = occupations(d, m)
        want = [np.bincount(ms, minlength=d) for ms in itertools.combinations_with_replacement(range(d), m)]
        assert np.array_equal(occ, np.reshape(want, (-1, d)))
        assert np.array_equal(occupation_index(occ), np.arange(len(occ)))

    @pytest.mark.parametrize("d,m", [(2, 1), (3, 2), (4, 3)])
    def test_raising_is_creation(self, d, m):
        # a_v^dag on Sym^(m-1) through the dense forms: sqrt(m) * symmetrize(|v> (x) xi_n)
        index, root = raising(d, m)
        lower, upper = oracle.sym_vectors(d, m - 1), np.stack(oracle.sym_vectors(d, m))
        for v in range(d):
            for n, xi in enumerate(lower):
                created = upper.conj() @ (math.sqrt(m) * np.kron(np.eye(d)[v], xi))
                want = np.zeros(len(upper))
                want[index[v, n]] = root[v, n]
                assert np.max(np.abs(created - want)) < 1e-14


class TestSymmetricBasis:
    def test_d2_m2_explicit(self):
        basis = symmetric_basis(2, 2)
        assert basis.multisets == ((0, 0), (0, 1), (1, 1))
        vecs = [s.amps for s in basis.states]
        assert np.allclose(vecs[0], [1, 0, 0, 0])
        assert np.allclose(vecs[1], [0, 1, 1, 0] / np.sqrt(2))
        assert np.allclose(vecs[2], [0, 0, 0, 1])

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
    def test_orthonormal(self, d, m):
        basis = symmetric_basis(d, m)
        assert len(basis.states) == symmetric_dimension(d, m)
        g = np.array([[np.vdot(a.amps, b.amps) for b in basis.states] for a in basis.states])
        assert np.max(np.abs(g - np.eye(len(basis.states)))) < 1e-10

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 2)])
    def test_permutation_invariance(self, d, m):
        for state in symmetric_basis(d, m).states:
            arr = state.amps.reshape((d,) * m)
            for perm in itertools.permutations(range(m)):
                assert np.max(np.abs(np.transpose(arr, perm) - arr)) < 1e-12

    def test_bit_identical_to_permutation_construction(self):
        # the construction that enumerated every permutation of each multiset
        def by_permutations(d, copies):
            radix = [d**k for k in range(copies - 1, -1, -1)]
            out = []
            for ms in itertools.combinations_with_replacement(range(d), copies):
                arrangements = set(itertools.permutations(ms))
                vec = np.zeros(d**copies, dtype=np.complex128)
                for arr in arrangements:
                    vec[sum(a * r for a, r in zip(arr, radix))] = 1.0 / math.sqrt(len(arrangements))
                out.append((ms, vec))
            return out

        for d in range(2, 5):
            for m in range(1, 6):
                basis = symmetric_basis(d, m)
                want = by_permutations(d, m)
                assert basis.multisets == tuple(ms for ms, _ in want)
                for s, (_, vec) in zip(basis.states, want):
                    assert np.array_equal(s.amps, vec)

    def test_matches_oracle(self):
        for d, m in [(2, 2), (3, 2), (2, 3)]:
            ours = [s.amps for s in symmetric_basis(d, m).states]
            theirs = oracle.sym_vectors(d, m)
            assert len(ours) == len(theirs)
            for a, b in zip(ours, theirs):
                assert np.max(np.abs(a - b)) < 1e-12


class TestCloneBasis:
    @pytest.mark.parametrize("d", [2, 3])
    def test_two_copy_explicit_form(self, d):
        # with two clones the basis reduces to
        # sqrt(1/(2(d+1))) sum_k |k>_A (|jk> + |kj>)_C1C2
        states = clone_basis(d, 2).states
        scale = math.sqrt(1 / (2 * (d + 1)))
        for j, state in enumerate(states):
            want = np.zeros(d**3, dtype=complex)
            for k in range(d):
                want[k * d * d + j * d + k] += scale
                want[k * d * d + k * d + j] += scale
            assert np.max(np.abs(state.amps - want)) < 1e-12

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (2, 3), (4, 2)])
    def test_orthonormal(self, d, m):
        states = clone_basis(d, m).states
        g = np.array([[np.vdot(a.amps, b.amps) for b in states] for a in states])
        assert np.max(np.abs(g - np.eye(d))) < 1e-10

    def test_clone_slot_exchange_symmetry(self):
        d, m = 2, 3
        for state in clone_basis(d, m).states:
            arr = state.amps.reshape((d,) * (2 * m - 1))
            # clone slots are the last m axes
            swapped = np.swapaxes(arr, m - 1, m)
            assert np.max(np.abs(swapped - arr)) < 1e-12
            swapped = np.swapaxes(arr, m, m + 1)
            assert np.max(np.abs(swapped - arr)) < 1e-12

    def test_single_copy_is_teleportation_basis(self):
        states = clone_basis(3, 1).states
        for j, state in enumerate(states):
            want = np.zeros(3)
            want[j] = 1
            assert np.allclose(state.amps, want)

    def test_labels(self):
        cb = clone_basis(2, 3)
        assert cb.states[0].labels == ("A1", "A2", "C1", "C2", "C3")
        assert ancilla_labels(3) == ("A1", "A2")
        assert clone_labels(3) == ("C1", "C2", "C3")

    def test_matches_kron_construction(self):
        # phi_j = sqrt(d/D) sum_k (<j|_P xi_k) (x) xi_k, one Kronecker product per k;
        # each amplitude has a single nonzero term, so the sums agree exactly
        def by_kron(d, copies):
            sym = symmetric_basis(d, copies)
            out = []
            for j in range(d):
                acc = np.zeros(d ** (2 * copies - 1), dtype=np.complex128)
                for xi in sym.states:
                    acc += np.kron(xi.amps.reshape(d, -1)[j], xi.amps)
                out.append(math.sqrt(d / sym.size) * acc)
            return out

        for d in range(2, 5):
            for m in range(1, 5):
                for s, want in zip(clone_basis(d, m).states, by_kron(d, m)):
                    assert np.array_equal(s.amps, want)

    def test_matches_oracle(self):
        for d, m in [(2, 2), (3, 2), (2, 3)]:
            ours = [s.amps for s in clone_basis(d, m).states]
            theirs = oracle.phi_states(d, m)
            for a, b in zip(ours, theirs):
                assert np.max(np.abs(a - b)) < 1e-12


class TestChannel:
    def test_maximal(self):
        chan = Channel.maximal(3)
        assert np.allclose(chan.coeffs, [1 / math.sqrt(3)] * 3)
        assert chan.is_maximal and chan.is_full_rank
        assert chan.rank == 3

    def test_maximal_is_absolute(self):
        h = 1 / math.sqrt(2)
        assert Channel(np.array([h + 4e-13, h - 4e-13])).is_maximal
        assert not Channel(np.array([0.7070894877186531, 0.7071240742315119])).is_maximal
        assert Channel(np.array([0.7071046473382793, 0.7071089150283765])).describe() != "maximal"

    def test_rank1(self):
        chan = Channel.rank1(4)
        assert chan.rank == 1
        assert not chan.is_full_rank
        assert chan.nonzero_support == (0,)

    def test_renormalization_warning(self):
        with pytest.warns(UserWarning):
            chan = Channel([0.8, 0.5, 0.33])
        assert np.linalg.norm(chan.coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_exact_norm_no_warning(self, recwarn):
        Channel(np.sqrt([0.8, 0.2]))
        assert len(recwarn) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Channel([0.8, -0.6])

    def test_single_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Channel([1.0])

    def test_parse(self):
        assert Channel.parse("maximal", 3).is_maximal
        assert Channel.parse("rank1", 2).rank == 1
        chan = Channel.parse("c=[0.6,0.8]", 2)
        assert np.allclose(chan.coeffs, [0.6, 0.8])
        with pytest.raises(ValueError):
            Channel.parse("c=[0.6,0.8]", 3)
        with pytest.raises(ValueError):
            Channel.parse("bogus", 2)

    def test_min_nonzero(self):
        chan = Channel(np.sqrt([0.7, 0.3, 0.0]))
        assert chan.min_nonzero() == pytest.approx(math.sqrt(0.3))
        assert chan.c_min == pytest.approx(0.0)


class TestChannelState:
    def test_maximal_schmidt_uniform(self):
        xi = channel_state(Channel.maximal(2), 2)
        mat = xi.amps.reshape(2, -1)
        sv = np.linalg.svd(mat, compute_uv=False)
        assert np.allclose(sv, [1 / math.sqrt(2)] * 2, atol=1e-10)

    def test_rank1_is_product(self):
        xi = channel_state(Channel.rank1(2), 2)
        mat = xi.amps.reshape(2, -1)
        sv = np.linalg.svd(mat, compute_uv=False)
        assert sv[0] == pytest.approx(1.0, abs=1e-12)
        assert sv[1] == pytest.approx(0.0, abs=1e-12)

    def test_partial_schmidt_matches_coefficients(self):
        c = np.sqrt([0.8, 0.2])
        xi = channel_state(Channel(c), 2)
        sv = np.linalg.svd(xi.amps.reshape(2, -1), compute_uv=False)
        assert np.allclose(np.sort(sv), np.sort(c), atol=1e-10)

    def test_sender_marginal_is_diagonal(self):
        c = np.sqrt([0.5, 0.3, 0.2])
        xi = channel_state(Channel(c), 2)
        rho = partial_trace(xi, ["P"])
        assert np.allclose(rho.matrix, np.diag(c**2), atol=1e-12)

    def test_unit_norm_and_labels(self):
        xi = channel_state(Channel(np.sqrt([0.5, 0.3, 0.2])), 3)
        assert xi.labels == ("P", "A1", "A2", "C1", "C2", "C3")
        assert np.linalg.norm(xi.amps) == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle(self):
        c = np.sqrt([0.5, 0.3, 0.2])
        xi = channel_state(Channel(c), 2)
        assert np.max(np.abs(xi.amps - oracle.channel_vector(c, 2))) < 1e-12
