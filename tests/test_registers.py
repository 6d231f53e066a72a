"""Dense register layer: tensor, apply, measure, trace, sampling."""

import math

import numpy as np
import pytest

from qtc import (
    Channel,
    DensityMatrix,
    Operator,
    StateVector,
    apply,
    basis_state,
    bell_state,
    channel_state,
    fidelity,
    fourier,
    haar_random_state,
    measure_projective,
    partial_trace,
    tensor,
)
from qtc.registers import MemoryBudgetError, _squared_norm, check_memory


def plus(label="X"):
    return StateVector((2,), (label,), np.array([1, 1]) / math.sqrt(2))


class TestSquaredNorm:
    def test_long_vector_matches_exact_sum(self):
        # equal amplitudes make a running sum drift: a single-threaded BLAS
        # dot product is off by about 4e-12 here, past the 1e-12 tolerance
        n = 3 * 2**19 + 7
        amps = np.full(n, 0.6 / math.sqrt(n)) + 1j * np.full(n, 0.8 / math.sqrt(n))
        exact = math.fsum(np.square(amps.view(np.float64)))
        assert abs(_squared_norm(amps) - exact) < 1e-15
        assert StateVector((n,), ("X",), amps).dim == n

    def test_short_vectors(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 1000):
            amps = rng.normal(size=n) + 1j * rng.normal(size=n)
            exact = math.fsum(np.square(amps.view(np.float64)))
            assert _squared_norm(amps) == pytest.approx(exact, rel=1e-15)


class TestStateVector:
    def test_validates_norm(self):
        with pytest.raises(ValueError):
            StateVector((2,), ("X",), np.array([1.0, 1.0]))

    def test_unnormalized_flag(self):
        sv = StateVector((2,), ("X",), np.array([1.0, 1.0]), normalized=False)
        assert sv.dim == 2

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            StateVector((2, 2), ("X",), np.zeros(4))

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            StateVector((2, 2), ("X", "X"), np.array([1, 0, 0, 0.0]))

    def test_amps_read_only(self):
        sv = basis_state(2, 0)
        with pytest.raises(ValueError):
            sv.amps[0] = 5.0

    def test_reordered(self):
        sv = tensor(basis_state(2, 0, "A"), plus("B"))
        flipped = sv.reordered(("B", "A"))
        assert flipped.labels == ("B", "A")
        back = flipped.reordered(("A", "B"))
        assert np.allclose(back.amps, sv.amps)


class TestTensor:
    def test_zero_zero(self):
        out = tensor(basis_state(2, 0, "A"), basis_state(2, 0, "B"))
        assert np.allclose(out.amps, [1, 0, 0, 0])

    def test_plus_zero(self):
        out = tensor(plus("A"), basis_state(2, 0, "B"))
        assert np.allclose(out.amps, [1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0])

    def test_random_shapes_and_norm(self):
        rng = np.random.default_rng(3)
        a = haar_random_state(3, rng, "A")
        b = haar_random_state(2, rng, "B")
        out = tensor(a, b)
        assert out.dim == 6
        assert abs(np.linalg.norm(out.amps) - 1) < 1e-12

    def test_label_collision(self):
        with pytest.raises(ValueError):
            tensor(basis_state(2, 0, "A"), basis_state(2, 0, "A"))


class TestApply:
    def test_identity(self):
        psi = plus()
        out = apply(Operator.square(np.eye(2), (2,)), psi, ["X"])
        assert np.allclose(out.amps, psi.amps)

    def test_fourier_d2_is_hadamard(self):
        out = apply(fourier(2), basis_state(2, 0, "P"), ["P"])
        assert np.allclose(out.amps, [1, 1] / np.sqrt(2))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        psi = tensor(haar_random_state(3, rng, "A"), haar_random_state(3, rng, "B"))
        u = fourier(3)
        there = apply(u, psi, ["B"])
        back = apply(u.dagger(), there, ["B"])
        assert np.max(np.abs(back.amps - psi.amps)) < 1e-12

    def test_multi_target(self):
        psi = tensor(basis_state(2, 1, "P"), basis_state(2, 0, "X"))
        cnot = np.eye(4)[[0, 1, 3, 2]]
        out = apply(Operator.square(cnot, (2, 2)), psi, ["P", "X"])
        assert np.allclose(out.amps, tensor(basis_state(2, 1, "P"), basis_state(2, 1, "X")).amps)


class TestMeasure:
    def comp_basis(self, d):
        return [np.eye(d)[k] for k in range(d)]

    def test_basis_state(self):
        branches = measure_projective(basis_state(2, 0), ["X"], self.comp_basis(2))
        assert branches[0].probability == pytest.approx(1.0, abs=1e-14)
        assert branches[1].zero and branches[1].post is None

    def test_plus_state(self):
        branches = measure_projective(plus(), ["X"], self.comp_basis(2))
        assert [b.probability for b in branches] == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("d", [2, 3])
    def test_bell_measurement_on_maximal_channel_uniform(self, d):
        rng = np.random.default_rng(d)
        psi = haar_random_state(d, rng, "X")
        xi = channel_state(Channel.maximal(d), 2)
        full = tensor(psi, xi)
        basis = [bell_state(d, n, m).amps for n in range(d) for m in range(d)]
        branches = measure_projective(full, ["X", "P"], basis)
        for b in branches:
            assert b.probability == pytest.approx(1 / d**2, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        psi = haar_random_state(4, rng)
        branches = measure_projective(psi, ["X"], self.comp_basis(4))
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)

    def test_non_orthonormal_basis_rejected(self):
        bad = [np.array([1.0, 0]), np.array([1.0, 1]) / math.sqrt(2)]
        with pytest.raises(ValueError):
            measure_projective(plus(), ["X"], bad)


class TestPartialTrace:
    def test_product_state(self):
        full = tensor(basis_state(2, 0, "A"), plus("B"))
        rho = partial_trace(full, ["A"])
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_maximally_entangled_half(self):
        rho = partial_trace(bell_state(2, 0, 0), ["X"])
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_channel_clone_marginal_unit_trace(self):
        xi = channel_state(Channel(np.sqrt([0.8, 0.2])), 2)
        rho = partial_trace(xi, ["C1", "C2"])
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        rho.validate()

    def test_density_matrix_input(self):
        full = tensor(basis_state(2, 0, "A"), plus("B"))
        dm = DensityMatrix(full.dims, full.labels, np.outer(full.amps, full.amps.conj()))
        rho = partial_trace(dm, ["B"])
        assert np.allclose(rho.matrix, np.outer(plus().amps, plus().amps))


class TestFidelity:
    def test_self(self):
        psi = haar_random_state(3, np.random.default_rng(1))
        rho = DensityMatrix(psi.dims, psi.labels, np.outer(psi.amps, psi.amps.conj()))
        assert fidelity(psi, rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix((2,), ("X",), np.eye(2) / 2)
        assert fidelity(basis_state(2, 0), rho) == pytest.approx(0.5, abs=1e-14)

    def test_clone_marginal_is_five_sixths(self):
        # d=2, two clones, maximal channel: the clone marginal of the branch
        # state for input |0> must sit at the optimal cloning point
        psi = basis_state(2, 0)
        xi = channel_state(Channel.maximal(2), 2)
        full = tensor(psi, xi)
        basis = [bell_state(2, n, m).amps for n in range(2) for m in range(2)]
        branch = measure_projective(full, ["X", "P"], basis)[0]
        rho = partial_trace(branch.post, ["C1"])
        assert fidelity(psi, rho) == pytest.approx(5 / 6, abs=1e-12)


class TestHaarSampling:
    def test_determinism(self):
        a = haar_random_state(5, 123)
        b = haar_random_state(5, 123)
        assert np.array_equal(a.amps, b.amps)

    def test_first_moment(self):
        rng = np.random.default_rng(2024)
        d, samples = 2, 100_000
        acc = np.zeros(d)
        for _ in range(samples):
            acc += np.abs(haar_random_state(d, rng).amps) ** 2
        mean = acc / samples
        # Var(|psi_j|^2) = (d-1)/(d^2(d+1))
        sigma = math.sqrt((d - 1) / (d**2 * (d + 1)) / samples)
        assert np.all(np.abs(mean - 1 / d) < 3 * sigma + 1e-12)

    def test_second_moment_cross_term(self):
        rng = np.random.default_rng(77)
        d, samples = 3, 100_000
        acc = 0.0
        sq = 0.0
        for _ in range(samples):
            w = np.abs(haar_random_state(d, rng).amps) ** 2
            v = w[0] * w[1]
            acc += v
            sq += v * v
        mean = acc / samples
        var = sq / samples - mean**2
        sigma = math.sqrt(var / samples)
        assert abs(mean - 1 / (d * (d + 1))) < 3 * sigma


class TestMemoryBudget:
    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("QTC_MEM_BUDGET", "100")
        with pytest.raises(MemoryBudgetError):
            check_memory(101)
        check_memory(99)

    def test_default_budget_generous(self):
        check_memory(1 << 20)


class TestOperator:
    def test_is_unitary(self):
        assert fourier(7).is_unitary(1e-12)
        assert not Operator.square(np.array([[1, 1], [0, 1.0]]), (2,)).is_unitary()

    def test_density_matrix_psd_check(self):
        with pytest.raises(ValueError):
            DensityMatrix((2,), ("X",), np.array([[1.5, 0], [0, -0.5]])).validate()
