"""Dense register layer: states, operators, partial trace, sampling, budget."""

import math

import numpy as np
import pytest

from qtc import (
    Channel,
    DensityMatrix,
    Operator,
    StateVector,
    bell_state,
    channel_state,
    fourier,
    haar_random_state,
    partial_trace,
)
from qtc.registers import MemoryBudgetError, _squared_norm, check_memory


def plus(label="X"):
    return StateVector((2,), (label,), np.array([1, 1]) / math.sqrt(2))


def zero_plus():
    """|0>_A (x) |+>_B."""
    return StateVector((2, 2), ("A", "B"), np.kron([1, 0], plus().amps))


def bell_branch(psi, xi, n, m):
    """Unnormalized post-state on the channel's A, C after Bell outcome (n, m) on X (x) P."""
    d = psi.size
    full = np.kron(psi, xi).reshape(d * d, -1)
    return bell_state(d, n, m).amps.conj() @ full


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

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            StateVector((2, 2), ("X",), np.zeros(4))

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            StateVector((2, 2), ("X", "X"), np.array([1, 0, 0, 0.0]))

    def test_amps_read_only(self):
        sv = StateVector((2,), ("X",), [1.0, 0.0])
        with pytest.raises(ValueError):
            sv.amps[0] = 5.0


class TestMeasure:
    @pytest.mark.parametrize("d", [2, 3])
    def test_bell_measurement_on_maximal_channel_uniform(self, d):
        rng = np.random.default_rng(d)
        psi = haar_random_state(d, rng, "X").amps
        xi = channel_state(Channel.maximal(d), 2).amps
        for n in range(d):
            for m in range(d):
                post = bell_branch(psi, xi, n, m)
                assert np.vdot(post, post).real == pytest.approx(1 / d**2, abs=1e-12)


class TestPartialTrace:
    def test_product_state(self):
        rho = partial_trace(zero_plus(), ["A"])
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
        full = zero_plus()
        dm = DensityMatrix(full.dims, full.labels, np.outer(full.amps, full.amps.conj()))
        rho = partial_trace(dm, ["B"])
        assert np.allclose(rho.matrix, np.outer(plus().amps, plus().amps))


class TestFidelity:
    def test_clone_marginal_is_five_sixths(self):
        # d=2, two clones, maximal channel: the clone marginal of the branch
        # state for input |0> must sit at the optimal cloning point
        psi = np.array([1.0, 0.0])
        xi = channel_state(Channel.maximal(2), 2)
        post = bell_branch(psi, xi.amps, 0, 0)
        branch = StateVector(xi.dims[1:], xi.labels[1:], post / np.linalg.norm(post))
        rho = partial_trace(branch, ["C1"]).matrix
        assert np.vdot(psi, rho @ psi).real == pytest.approx(5 / 6, abs=1e-12)


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

    def test_is_unitary_has_no_relative_slack(self):
        # a diagonal entry 4e-6 off modulus 1 is far outside atol=1e-12
        assert not Operator.square(np.diag([1 + 4e-6, 1.0]), (2,)).is_unitary(1e-12)

    def test_density_matrix_hermiticity_has_no_relative_slack(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix((2,), ("A",), [[0.5, 0.3], [0.3 + 2e-6, 0.5]])

    def test_density_matrix_psd_check(self):
        with pytest.raises(ValueError):
            DensityMatrix((2,), ("X",), np.array([[1.5, 0], [0, -0.5]])).validate()
