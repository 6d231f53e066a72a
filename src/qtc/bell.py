"""Generalized Bell states, GXOR gate, Fourier ops, and reconstruction unitaries.

All phase arithmetic uses omega = exp(2*pi*i/d) powered by exact index
arithmetic mod d (a precomputed d-entry table), never repeated multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .registers import Operator, StateVector
from .symmetric import Channel

__all__ = [
    "SymmetricFamily",
    "bell_state",
    "channel_bell_state",
    "fourier",
    "gxor_operator",
    "omega_powers",
    "reconstruction_matrices",
    "reconstruction_unitaries",
    "symmetric_states",
]


def omega_powers(d: int) -> np.ndarray:
    """Table of omega^k for k = 0..d-1, omega = exp(2*pi*i/d)."""
    return np.exp(2j * np.pi * np.arange(d) / d)


def bell_state(d: int, n: int, m: int, labels=("X", "P")) -> StateVector:
    """Maximally entangled |B_nm> = (1/sqrt(d)) sum_k omega^{kn} |k>|k+m>."""
    w = omega_powers(d)
    amps = np.zeros(d * d, dtype=np.complex128)
    for k in range(d):
        amps[k * d + (k + m) % d] = w[(k * n) % d] / math.sqrt(d)
    return StateVector((d, d), tuple(labels), amps)


def channel_bell_state(channel: Channel, n: int, m: int, labels=("X", "P")) -> StateVector:
    """Bell-like state skewed by the channel: sum_k c_k omega^{kn} |k-m>|k>.

    For a non-maximal channel these d^2 states are normalized but not
    mutually orthogonal; same-m pairs overlap by sum_k c_k^2 omega^{k(n-n')}.
    """
    d = channel.d
    w = omega_powers(d)
    amps = np.zeros(d * d, dtype=np.complex128)
    for k in range(d):
        amps[((k - m) % d) * d + k] = channel.coeffs[k] * w[(k * n) % d]
    return StateVector((d, d), tuple(labels), amps)


def gxor_operator(d: int) -> Operator:
    """GXOR on (control, target): |n>|m> -> |n>|n - m mod d>; self-inverse."""
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for n in range(d):
        for m in range(d):
            mat[n * d + (n - m) % d, n * d + m] = 1.0
    return Operator.square(mat, (d, d))


def fourier(d: int) -> Operator:
    """Discrete Fourier operator F|n> = (1/sqrt(d)) sum_k omega^{kn} |k>."""
    k, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    w = omega_powers(d)
    return Operator.square(w[(k * n) % d] / math.sqrt(d), (d,))


@dataclass(frozen=True, eq=False)
class SymmetricFamily:
    """The d phase-shifted channel states sum_k c_k omega^{nk} |k> on P.

    State n equals Z^n applied to state 0, Z = diag(omega^j); pairwise
    overlaps are sum_k c_k^2 omega^{k(n-n')}.
    """

    channel: Channel
    states: tuple[StateVector, ...]


def symmetric_states(channel: Channel, label: str = "P") -> SymmetricFamily:
    d = channel.d
    w = omega_powers(d)
    states = []
    for n in range(d):
        amps = channel.coeffs * w[(n * np.arange(d)) % d]
        states.append(StateVector((d,), (label,), amps))
    return SymmetricFamily(channel, tuple(states))


def reconstruction_matrices(d: int, variant: str = "s4") -> tuple[np.ndarray, np.ndarray]:
    """Correction matrices for every Bell outcome, stacked as [n, m, row, col].

    variant 's2': U_A = sum_j omega^{-jn} |j><j+m|, U_C with +jn phases.
    variant 's4': phases omega^{-(j+m)n} / omega^{+(j+m)n} instead.
    The two variants differ only by a global phase omega^{-+mn} on the
    corrected state; both restore |phi_{j+m}> families to |phi_j>.
    """
    n, m, j = np.ix_(range(d), range(d), range(d))
    if variant == "s2":
        exp = (j * n) % d
    elif variant == "s4":
        exp = ((j + m) * n) % d
    else:
        raise ValueError(f"unknown reconstruction variant {variant!r}")
    w = omega_powers(d)
    n, m, j, exp = np.broadcast_arrays(n, m, j, exp)
    ua = np.zeros((d, d, d, d), dtype=np.complex128)
    uc = np.zeros((d, d, d, d), dtype=np.complex128)
    ua[n, m, j, (j + m) % d] = w[(-exp) % d]
    uc[n, m, j, (j + m) % d] = w[exp]
    return ua, uc


def reconstruction_unitaries(d: int, n: int, m: int, variant: str = "s4") -> tuple[Operator, Operator]:
    """Correction unitaries (ancilla op, clone op) for Bell outcome (n, m); see ``reconstruction_matrices``."""
    ua, uc = reconstruction_matrices(d, variant)
    return Operator.square(ua[n, m], (d,)), Operator.square(uc[n, m], (d,))
