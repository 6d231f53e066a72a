"""Closed-form fidelities and probabilities for telecloning with correction.

Everything here is plain arithmetic on input amplitudes and channel
coefficients, fully independent of the state-vector simulator, so the two
can be compared as separate routes to the same numbers.

Index convention: alpha_j are the (complex) input amplitudes, c_j the real
non-negative channel coefficients; shifted subscripts are mod d.

Some published forms are reproduced verbatim even though the simulator
disagrees with them, so the comparison layer can document the discrepancy:
the min-error average fidelity (carries a spurious 1/d^3 factor), the
orthogonal-target separation probability c_min^2/d (the filter construction
gives d*c_min^2), and the qubit expressions billed as branch averages that
actually evaluate the shift-0 branch (names carry a _printed suffix).
"""

from __future__ import annotations

import numpy as np

from .symmetric import Channel

__all__ = [
    "classical_threshold",
    "clone_fidelity_avg",
    "clone_fidelity_haar",
    "clone_fidelity_m",
    "clone_fidelity_qubit_printed",
    "discrimination_confidence",
    "estimation_fidelity",
    "failure_fidelity_avg",
    "failure_fidelity_haar",
    "failure_fidelity_m",
    "haar_moment",
    "inconclusive_probability",
    "min_error_correct_probability",
    "min_error_fidelity_avg",
    "min_error_fidelity_m",
    "min_error_fidelity_qubit_printed",
    "optimal_fidelity",
    "separation_fidelity_avg",
    "separation_fidelity_m",
    "separation_fidelity_qubit_printed",
    "separation_probability_constructed",
    "separation_probability_orthogonal_printed",
    "separation_probability_printed",
    "shift_probability",
    "usd_average_fidelity",
    "usd_success_probability",
]


def _alpha(alpha) -> np.ndarray:
    a = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    if abs(np.linalg.norm(a) - 1.0) > 1e-10:
        raise ValueError("input amplitudes must be normalized")
    return a


def _weights(alpha, channel: Channel) -> tuple[np.ndarray, np.ndarray]:
    a = _alpha(alpha)
    if a.size != channel.d:
        raise ValueError(f"input has {a.size} amplitudes but channel dimension is {channel.d}")
    return np.abs(a) ** 2, channel.coeffs


def optimal_fidelity(d: int, copies: int) -> float:
    """Optimal universal symmetric 1->M cloning fidelity (2M+d-1)/(M+Md)."""
    return (2 * copies + d - 1) / (copies + copies * d)


def estimation_fidelity(d: int) -> float:
    """Classical estimate-and-reprepare benchmark 2/(d+1)."""
    return 2 / (d + 1)


def shift_probability(alpha, channel: Channel, m: int) -> float:
    """Probability of shift outcome m: sum_j |alpha_j|^2 c_{j+m}^2."""
    w, c = _weights(alpha, channel)
    return float(np.sum(w * np.roll(c, -m) ** 2))


def _overlap_sum(w: np.ndarray, c: np.ndarray, m: int) -> float:
    # sum_k |alpha_k|^2 c_{k+m}
    return float(np.sum(w * np.roll(c, -m)))


def _shrinking(d: int, copies: int) -> tuple[float, float]:
    """(1 - eta_M)/d and eta_M = (M+d)/(M(d+1)), Werner's shrinking factor.

    A clone of the universal 1->M cloner is eta_M rho + (1 - eta_M) I/d for
    the state rho it is fed (R. F. Werner, PRA 58, 1827 (1998)). Both are
    built from 1/(M(d+1)), so M=2 gives the 1->2 forms' exact arithmetic.
    """
    unit = 1 / (copies * (d + 1))
    return unit * (copies - 1), unit * (copies + d)


def clone_fidelity_m(alpha, channel: Channel, m: int, copies: int = 2) -> float:
    """Per-branch 1->M clone fidelity without discrimination.

    (1 - eta_M)/d + eta_M * (sum_k |alpha_k|^2 c_{k+m})^2 / P_m; at M=2,
    1/(2(d+1)) + (2+d)/(2(d+1)) * (sum_k |alpha_k|^2 c_{k+m})^2 / P_m
    """
    w, c = _weights(alpha, channel)
    pm = shift_probability(alpha, channel, m)
    if pm < 1e-14:
        raise ZeroDivisionError(f"branch m={m} has zero probability")
    base, eta = _shrinking(channel.d, copies)
    return base + eta * _overlap_sum(w, c, m) ** 2 / pm


def clone_fidelity_avg(alpha, channel: Channel, copies: int = 2) -> float:
    """Branch-averaged 1->M fidelity: the P_m weights cancel the 1/P_m."""
    w, c = _weights(alpha, channel)
    base, eta = _shrinking(channel.d, copies)
    total = sum(_overlap_sum(w, c, m) ** 2 for m in range(channel.d))
    return base + eta * total


def clone_fidelity_qubit_printed(a: complex, b: complex, c0: float, c1: float) -> float:
    """Printed qubit (d=2) fidelity expression.

    (N^2/12) [5|a|^4 c0^2 + 5|b|^4 c1^2 + |a|^2 |b|^2 (1 + 8 c0 c1)],
    N^2 = 2 / (|a|^2 c0^2 + |b|^2 c1^2).

    Presented as the branch average, but N^2 is the shift-0 branch weight and
    the expression is algebraically identical to clone_fidelity_m(.., m=0).
    It equals the true branch-weighted mean only when every branch has the
    same fidelity (maximal channel, or a basis-state input).
    """
    wa, wb = abs(a) ** 2, abs(b) ** 2
    nsq = 2 / (wa * c0**2 + wb * c1**2)
    return (nsq / 12) * (5 * wa**2 * c0**2 + 5 * wb**2 * c1**2 + wa * wb * (1 + 8 * c0 * c1))


def haar_moment(d: int, j: int, k: int) -> float:
    """Haar average of |psi_j|^2 |psi_k|^2: (delta_jk + 1)/(d(d+1))."""
    return ((1 if j == k else 0) + 1) / (d * (d + 1))


def clone_fidelity_haar(channel: Channel) -> float:
    """Haar-input average of the 1->2 fidelity, via the quartic moment identity."""
    c = channel.coeffs
    d = channel.d
    base = 1 / (2 * (d + 1))
    total = 0.0
    for m in range(d):
        cm = np.roll(c, -m)
        for j in range(d):
            for k in range(d):
                total += cm[j] * cm[k] * haar_moment(d, j, k)
    return base + base * (2 + d) * total


def usd_success_probability(channel: Channel) -> float:
    """Unambiguous discrimination success probability d * c_min^2."""
    if not channel.is_full_rank:
        raise ValueError("unambiguous discrimination needs a full-rank channel")
    return channel.d * channel.c_min**2


def failure_fidelity_m(alpha, channel: Channel, m: int, normalization: str = "branch", copies: int = 2) -> float:
    """Clone fidelity of the discrimination-failure branch with shift m (1->M).

    (1 - eta_M)/d + eta_M * sum_j |alpha_j|^2 |alpha_{j+m}|^2
                               (c_{j+m}^2 - c_min^2) / W,
    with eta_M as in ``clone_fidelity_m``.

    normalization 'branch' uses the failure-branch weight
    W = P_m - c_min^2 (what the simulation reproduces); 'printed' uses
    W = P_m as published.
    """
    w, c = _weights(alpha, channel)
    cmin2 = channel.c_min**2
    pm = shift_probability(alpha, channel, m)
    if normalization == "branch":
        weight = pm - cmin2
    elif normalization == "printed":
        weight = pm
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    if abs(weight) < 1e-14:
        raise ZeroDivisionError(f"failure branch m={m} has zero weight")
    seg = float(np.sum(w * np.roll(w, -m) * (np.roll(c, -m) ** 2 - cmin2)))
    base, eta = _shrinking(channel.d, copies)
    return base + eta * seg / weight


def failure_fidelity_avg(d: int) -> float:
    """Haar-averaged failure-branch fidelity: 1/d."""
    return 1 / d


def failure_fidelity_haar(channel: Channel) -> float:
    """Haar average of the failure fidelity via the quartic moment identity.

    Equals 1/d for every full-rank channel; computed termwise anyway so the
    identity is verified rather than assumed.
    """
    c = channel.coeffs
    d = channel.d
    cmin2 = channel.c_min**2
    p_fail = 1 - d * cmin2
    if p_fail < 1e-14:
        raise ZeroDivisionError("maximal channel has no failure branch")
    base = 1 / (2 * (d + 1))
    total = 0.0
    for m in range(d):
        # E[P_m - c_min^2] term plus the quartic term, both from the moment identity
        total += base * (1 / d - cmin2)
        quart = 0.0
        for j in range(d):
            quart += (c[(j + m) % d] ** 2 - cmin2) * haar_moment(d, j, (j + m) % d)
        total += base * (2 + d) * quart
    return total / p_fail


def usd_average_fidelity(d: int, p_success: float, copies: int = 2) -> float:
    """Overall 1->M fidelity with unambiguous correction.

    p_d * (2M+d-1)/(M(d+1)) + (1 - p_d)/d: the optimal fidelity on success,
    1/d on failure.
    """
    return p_success * (2 * copies + d - 1) / (copies * (d + 1)) + (1 - p_success) / d


def classical_threshold(d: int, copies: int = 2) -> float:
    """c_min^2 above which USD-corrected 1->M telecloning beats estimation: M/(d(M+d))."""
    return copies / (d * (copies + d))


def min_error_fidelity_m(alpha, channel: Channel, m: int) -> float:
    """Printed per-branch minimum-error fidelity; carries a spurious 1/d^3.

    The renormalized post-measurement state coincides with the
    no-discrimination branch state, so the simulator's branch fidelity is
    clone_fidelity_m; the printed form is that value divided by d^3.
    """
    return clone_fidelity_m(alpha, channel, m) / channel.d**3


def min_error_fidelity_avg(alpha, channel: Channel) -> float:
    """Printed branch-averaged minimum-error fidelity (spurious 1/d^3 kept)."""
    return clone_fidelity_avg(alpha, channel) / channel.d**3


def min_error_fidelity_qubit_printed(a: complex, b: complex, c0: float, c1: float) -> float:
    """Printed qubit minimum-error fidelity: prefactor N^2/96 = (N^2/12)/8.

    Inherits both quirks of its ingredients: the spurious 1/d^3 = 1/8 factor
    and the shift-0 branch reading of the qubit expression.
    """
    return clone_fidelity_qubit_printed(a, b, c0, c1) / 8


def min_error_correct_probability(channel: Channel) -> float:
    """Probability the Fourier readout names the prepared phase state.

    |sum_k c_k|^2 / d for a uniformly drawn member of the family.
    """
    return float(np.sum(channel.coeffs)) ** 2 / channel.d


def separation_probability_printed(channel: Channel, target: Channel) -> float:
    """Printed separation success probability c_min^2 / c~_min^2."""
    if target.c_min <= 0:
        raise ValueError("target family must be full rank")
    return channel.c_min**2 / target.c_min**2


def separation_probability_constructed(channel: Channel, target: Channel) -> float:
    """Success probability gamma^2 of the actual filter, gamma = min_k c_k/c~_k."""
    if channel.d != target.d:
        raise ValueError("channel and target dimensions differ")
    mask = target.coeffs > 1e-14
    if np.any(~mask & (channel.coeffs > 1e-14)):
        raise ValueError("target family must cover the channel support")
    gamma = float(np.min(channel.coeffs[mask] / target.coeffs[mask]))
    return gamma**2


def separation_probability_orthogonal_printed(channel: Channel) -> float:
    """Printed success probability for separation to the maximal family: c_min^2/d.

    Inconsistent with the filter construction, which succeeds with
    d * c_min^2; both numbers are reported so the conflict stays visible.
    """
    return channel.c_min**2 / channel.d


def separation_fidelity_m(alpha, target: Channel, m: int) -> float:
    """Per-branch fidelity after separating into the target family."""
    return clone_fidelity_m(alpha, target, m)


def separation_fidelity_avg(alpha, target: Channel) -> float:
    """Success-conditioned average fidelity after separation."""
    return clone_fidelity_avg(alpha, target)


def discrimination_confidence(channel: Channel) -> float:
    """Maximum-confidence posterior for a rank-deficient family: N/d."""
    n = channel.rank
    if n >= channel.d:
        raise ValueError("channel is full rank; unambiguous discrimination applies")
    if n < 2:
        raise ValueError("maximum-confidence readout needs at least two nonzero coefficients")
    return n / channel.d


def inconclusive_probability(channel: Channel) -> float:
    """Inconclusive probability 1 - N * c_min^2, c_min the smallest nonzero coefficient."""
    n = channel.rank
    if n >= channel.d or n < 2:
        raise ValueError("maximum-confidence readout needs 2 <= N < d nonzero coefficients")
    return 1 - n * channel.min_nonzero() ** 2


def separation_fidelity_qubit_printed(a: complex, b: complex, t0: float, t1: float) -> float:
    """Printed qubit separation fidelity: the printed qubit form at the target.

    Same shift-0 branch reading as clone_fidelity_qubit_printed, with the
    target family's coefficients in place of the channel's.
    """
    return clone_fidelity_qubit_printed(a, b, t0, t1)
