"""Dense states and operators on labeled qudit registers.

Registers are ordered collections of named subsystems; amplitudes are stored
flat in row-major mixed-radix order over the label order (first label is the
most significant digit). The protocol engine runs on plain arrays; these
types carry its inputs, its operators and the clone marginals it returns.
Haar sampling and the amplitude budget live here too.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DEFAULT_ATOL",
    "PROB_FLOOR",
    "DensityMatrix",
    "MemoryBudgetError",
    "Operator",
    "StateVector",
    "haar_random_state",
    "memory_budget",
    "partial_trace",
]

DEFAULT_ATOL = 1e-10
NORM_ATOL = 1e-12
PROB_FLOOR = 1e-14
DEFAULT_MEMORY_BUDGET = 1 << 26
NORM_CHUNK = 1 << 16  # floats per pairwise partial sum in _squared_norm


class MemoryBudgetError(MemoryError):
    """Raised when a register would exceed the amplitude budget."""


def memory_budget() -> int:
    """Amplitude budget for any single register (QTC_MEM_BUDGET overrides)."""
    raw = os.environ.get("QTC_MEM_BUDGET")
    return int(raw) if raw else DEFAULT_MEMORY_BUDGET


def _squared_norm(amps: np.ndarray) -> float:
    """Sum of |a|^2 over a contiguous complex128 vector, accurate at any length.

    NumPy sums each chunk pairwise and ``math.fsum`` adds the chunk sums
    exactly, so the rounding error grows with the logarithm of the chunk
    size; a BLAS dot product lets it grow with the length of the vector.
    """
    flat = amps.view(np.float64)  # real and imaginary parts interleaved
    return math.fsum(
        float(np.sum(np.square(flat[i : i + NORM_CHUNK]))) for i in range(0, flat.size, NORM_CHUNK)
    )


def check_memory(total_amplitudes: int) -> None:
    budget = memory_budget()
    if total_amplitudes > budget:
        raise MemoryBudgetError(
            f"register of {total_amplitudes} amplitudes exceeds the budget of "
            f"{budget}; set QTC_MEM_BUDGET to raise it"
        )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state on a labeled qudit register.

    ``amps[i]`` is the amplitude of the computational basis state whose
    mixed-radix digits (most significant first, radix ``dims``) encode ``i``.
    The norm must be 1 within 1e-12.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        labels = tuple(str(lb) for lb in self.labels)
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if any(d < 1 for d in dims):
            raise ValueError("subsystem dimensions must be positive")
        if len(labels) != len(dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate register labels: {labels}")
        if amps.ndim != 1 or amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude vector of length {amps.size} does not match dims {dims}"
            )
        nrm = math.sqrt(_squared_norm(amps))
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {NORM_ATOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no subsystem labeled {label!r} in {self.labels}") from None

    def tensor_view(self) -> np.ndarray:
        return self.amps.reshape(self.dims)


@dataclass(frozen=True, eq=False)
class Operator:
    """Linear map between labeled-register spaces, stored dense."""

    dims_in: tuple[int, ...]
    dims_out: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims_in = tuple(int(d) for d in self.dims_in)
        dims_out = tuple(int(d) for d in self.dims_out)
        matrix = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if matrix.shape != (math.prod(dims_out), math.prod(dims_in)):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match dims {dims_out}x{dims_in}"
            )
        matrix.flags.writeable = False
        object.__setattr__(self, "dims_in", dims_in)
        object.__setattr__(self, "dims_out", dims_out)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def square(cls, matrix: np.ndarray, dims: Sequence[int]) -> "Operator":
        dims = tuple(dims)
        return cls(dims, dims, matrix)

    def dagger(self) -> "Operator":
        return Operator(self.dims_out, self.dims_in, self.matrix.conj().T)

    def is_unitary(self, atol: float = DEFAULT_ATOL) -> bool:
        if self.dims_in != self.dims_out:
            return False
        eye = np.eye(self.matrix.shape[0])
        return bool(np.allclose(self.matrix.conj().T @ self.matrix, eye, rtol=0, atol=atol))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state on a labeled register; Hermiticity and unit trace enforced."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        labels = tuple(str(lb) for lb in self.labels)
        matrix = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        n = math.prod(dims)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims}")
        if len(labels) != len(dims) or len(set(labels)) != len(labels):
            raise ValueError(f"bad labels {labels} for dims {dims}")
        if not np.allclose(matrix, matrix.conj().T, rtol=0, atol=NORM_ATOL):
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = np.trace(matrix).real
        if abs(tr - 1.0) > DEFAULT_ATOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1")
        matrix.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", matrix)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def validate(self, atol: float = DEFAULT_ATOL) -> None:
        """Full positivity check; raises if any eigenvalue dips below -atol."""
        lo = self.min_eigenvalue()
        if lo < -atol:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")


def _target_axes(state: StateVector, targets: Sequence[str]) -> list[int]:
    axes = [state.axis(t) for t in targets]
    if len(set(axes)) != len(axes):
        raise ValueError(f"repeated target labels: {tuple(targets)}")
    return axes


def _pure_reduced(state: StateVector, keep_axes: Sequence[int]) -> np.ndarray:
    rest = [ax for ax in range(len(state.dims)) if ax not in keep_axes]
    arr = np.transpose(state.tensor_view(), list(keep_axes) + rest)
    m = arr.reshape(math.prod([state.dims[a] for a in keep_axes]), -1)
    return m @ m.conj().T


def partial_trace(state, keep: Sequence[str]) -> DensityMatrix:
    """Reduced density matrix on the named subsystems, in the order given."""
    keep = list(keep)
    if isinstance(state, StateVector):
        axes = _target_axes(state, keep)
        rho = _pure_reduced(state, axes)
        dims = tuple(state.dims[a] for a in axes)
        return DensityMatrix(dims, tuple(keep), rho)
    if isinstance(state, DensityMatrix):
        n = len(state.dims)
        axes = [state.labels.index(k) for k in keep]
        arr = state.matrix.reshape(state.dims + state.dims)
        # contract every traced subsystem's ket axis with its bra axis
        traced = arr
        removed = 0
        for ax in range(n):
            if ax in axes:
                continue
            a = ax - removed
            traced = np.trace(traced, axis1=a, axis2=a + n - removed)
            removed += 1
        k = len(axes)
        kept_sorted = [ax for ax in range(n) if ax in axes]
        perm = [kept_sorted.index(a) for a in axes]
        traced = np.transpose(traced, perm + [p + k for p in perm])
        dims = tuple(state.dims[a] for a in axes)
        m = math.prod(dims)
        return DensityMatrix(dims, tuple(keep), traced.reshape(m, m))
    raise TypeError(f"cannot trace object of type {type(state).__name__}")


def haar_random_state(d: int, seed=None, label: str = "X") -> StateVector:
    """Haar-random pure qudit state: normalized complex Gaussian amplitudes."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector((d,), (label,), z / np.linalg.norm(z))
