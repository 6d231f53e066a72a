"""Discrimination strategies for the phase-shifted channel family on P.

All four strategies act on the sender's qudit P after the GXOR step, where
the relevant ensemble is the family sum_k c_k omega^{nk} |k>, n = 0..d-1,
with uniform prior. Filter strategies (unambiguous, separation,
maximum-confidence) are diagonal Kraus pairs on P dilated to a genuine
unitary on P (x) X, with the already-measured X register reused as the
success flag: outcome m stays |m> on success and shifts to |m+1> on
failure. A single unitary cannot realize that flag pattern for every m at
once (the success and failure P-states overlap), so the dilation is built
for one initial flag value; the engine rebuilds it per branch, which is
exactly the information the sender has in hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import fourier, symmetric_states
from .registers import Operator, StateVector
from .symmetric import Channel

__all__ = [
    "EnsembleReadout",
    "KrausPair",
    "RankDeficientChannelError",
    "Strategy",
    "filter_unitary",
    "max_confidence",
    "max_confidence_readout",
    "separation_filter",
    "usd_failure_states",
    "usd_kraus",
]


class RankDeficientChannelError(ValueError):
    """Raised when a strategy needs a full-rank channel but got zeros."""


@dataclass(frozen=True, eq=False)
class KrausPair:
    """Two-outcome filter {success, fail} acting on P.

    Completeness A_s^+ A_s + A_f^+ A_f equals the projector onto the
    channel's support (the identity for full-rank channels).
    """

    success: Operator
    fail: Operator
    support: tuple[int, ...]

    def completeness_defect(self) -> float:
        s, f = self.success.matrix, self.fail.matrix
        total = s.conj().T @ s + f.conj().T @ f
        proj = np.zeros_like(total)
        for k in self.support:
            proj[k, k] = 1.0
        return float(np.max(np.abs(total - proj)))


def _filter_pair(channel: Channel, pass_amp: np.ndarray) -> KrausPair:
    """Diagonal pair keeping amplitude pass_amp[k] on |k> over the support."""
    d = channel.d
    a = np.zeros((d, d), dtype=np.complex128)
    b = np.zeros((d, d), dtype=np.complex128)
    for k in channel.nonzero_support:
        a[k, k] = pass_amp[k]
        b[k, k] = math.sqrt(max(0.0, 1.0 - abs(pass_amp[k]) ** 2))
    return KrausPair(Operator.square(a, (d,)), Operator.square(b, (d,)), channel.nonzero_support)


def usd_kraus(channel: Channel) -> KrausPair:
    """Unambiguous-discrimination filter: success = diag(c_min / c_k).

    Success maps every family member onto the orthogonal Fourier frame with
    amplitude sqrt(d) c_min, so the total success probability is d c_min^2.
    """
    if not channel.is_full_rank:
        raise RankDeficientChannelError(
            "channel has zero coefficients; unambiguous discrimination is impossible, "
            "use the maximum-confidence strategy instead"
        )
    pass_amp = channel.c_min / channel.coeffs
    return _filter_pair(channel, pass_amp)


def filter_unitary(pair: KrausPair, d: int, flag: int = 0) -> Operator:
    """Unitary on P (x) X dilating the filter with X as the success flag.

    Maps |k>|flag> -> A_s|k> (x) |flag> + A_f|k> (x) |flag+1> for every
    support index k. The pair is diagonal, so with a = A_s[k, k] and
    b = A_f[k, k] the dilation is the rotation [[a, -b*], [b, a*]] on
    span{|k, flag>, |k, flag+1>} for each k, and the identity elsewhere.
    """
    s, f = pair.success.matrix, pair.fail.matrix
    if np.any(s - np.diag(np.diag(s))) or np.any(f - np.diag(np.diag(f))):
        raise ValueError("filter dilation needs diagonal Kraus operators")
    defect = pair.completeness_defect()
    if defect > 1e-12:
        raise ValueError(f"Kraus pair is incomplete (defect {defect:.3e}); no unitary dilation exists")
    k = np.array(pair.support, dtype=np.intp)
    a, b = s[k, k], f[k, k]
    keep, flip = k * d + flag % d, k * d + (flag + 1) % d
    u = np.eye(d * d, dtype=np.complex128)
    u[keep, keep] = a
    u[flip, keep] = b
    u[keep, flip] = -b.conj()
    u[flip, flip] = a.conj()
    return Operator.square(u, (d, d))


def usd_failure_states(channel: Channel) -> tuple[StateVector, ...]:
    """Normalized failure-branch states chi_n on P.

    chi_n ~ sum_k omega^{nk} sqrt(c_k^2 - c_min^2) |k>; the family spans only
    d-1 dimensions (the c_min slot drops out). These are the states as they
    leave the filter; the protocol rotates them by the inverse Fourier
    transform before reading out, so post-readout descriptions of the same
    family carry that extra rotation.
    """
    pair = usd_kraus(channel)
    p_fail = 1 - channel.d * channel.c_min**2
    if p_fail < 1e-14:
        raise ValueError("maximal channel: discrimination never fails, no failure states")
    fam = symmetric_states(channel)
    out = []
    for psi in fam.states:
        vec = pair.fail.matrix @ psi.amps
        out.append(StateVector((channel.d,), ("P",), vec / np.linalg.norm(vec)))
    return tuple(out)


def separation_filter(channel: Channel, target: Channel) -> KrausPair:
    """Filter steering the family onto the target coefficient profile.

    A_s = gamma diag(c~_k / c_k), gamma = min_k c_k / c~_k, succeeding with
    total probability gamma^2 and leaving the target-family states behind.
    """
    if channel.d != target.d:
        raise ValueError("channel and target dimensions differ")
    if not channel.is_full_rank:
        raise RankDeficientChannelError(
            "channel has zero coefficients; separate within the support or use "
            "the maximum-confidence strategy"
        )
    if not target.is_full_rank:
        raise ValueError("separation target must be full rank")
    gamma = float(np.min(channel.coeffs / target.coeffs))
    pass_amp = gamma * target.coeffs / channel.coeffs
    return _filter_pair(channel, pass_amp)


def max_confidence(channel: Channel) -> KrausPair:
    """Maximum-confidence filter for rank-deficient families (2 <= N < d).

    Success = diag(c_min / c_k) on the support, c_min the smallest nonzero
    coefficient. The conclusive branch maps family member n onto
    (1/sqrt(N)) sum_{k in support} omega^{nk} |k>; Fourier readout then names
    n with posterior confidence N/d, and the filter fails with probability
    1 - N c_min^2.
    """
    d = channel.d
    n = channel.rank
    if n >= d:
        raise ValueError("channel is full rank; use unambiguous discrimination")
    if n < 2:
        raise ValueError("maximum-confidence readout needs at least two nonzero coefficients")
    cmin = channel.min_nonzero()
    pass_amp = np.zeros(d)
    for k in channel.nonzero_support:
        pass_amp[k] = cmin / channel.coeffs[k]
    return _filter_pair(channel, pass_amp)


@dataclass(frozen=True, eq=False)
class EnsembleReadout:
    """Exact outcome table for the uniform-prior family pushed through a strategy.

    conclusive[t, n] is the joint probability of preparing member t, passing
    the filter, and reading n after the inverse Fourier transform;
    inconclusive[t] is the joint probability of the filter rejecting member t.
    """

    conclusive: np.ndarray
    inconclusive: np.ndarray

    def readout_marginal(self) -> np.ndarray:
        return self.conclusive.sum(axis=0)

    def posterior_correct(self) -> float:
        """Bayesian posterior that the named member was prepared, given a
        conclusive readout (uniform over readouts by symmetry)."""
        marg = self.readout_marginal()
        diag = np.diagonal(self.conclusive)
        vals = diag[marg > 1e-14] / marg[marg > 1e-14]
        if vals.size == 0:
            raise ValueError("no conclusive outcomes")
        if np.ptp(vals) > 1e-10:
            raise ValueError(f"posterior varies across readouts: {vals}")
        return float(vals[0])


def max_confidence_readout(channel: Channel) -> EnsembleReadout:
    d = channel.d
    pass_op = max_confidence(channel).success.matrix
    f_inv = fourier(d).dagger().matrix
    conclusive = np.zeros((d, d))
    inconclusive = np.zeros(d)
    for t, psi in enumerate(symmetric_states(channel).states):
        vec = pass_op @ psi.amps
        conclusive[t] = np.abs(f_inv @ vec) ** 2 / d
        inconclusive[t] = (1.0 - float(np.vdot(vec, vec).real)) / d
    return EnsembleReadout(conclusive, inconclusive)


@dataclass(frozen=True, eq=False)
class Strategy:
    """Correction strategy tag; 'separation' carries its target family."""

    kind: str
    target: Channel | None = None

    KINDS = ("none", "usd", "minerror", "separation", "maxconf")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}; expected one of {self.KINDS}")
        if self.kind == "separation" and self.target is None:
            raise ValueError("separation strategy needs a target family")
        if self.kind != "separation" and self.target is not None:
            raise ValueError(f"strategy {self.kind!r} takes no target")

    @classmethod
    def none(cls) -> "Strategy":
        return cls("none")

    @classmethod
    def usd(cls) -> "Strategy":
        return cls("usd")

    @classmethod
    def min_error(cls) -> "Strategy":
        return cls("minerror")

    @classmethod
    def separation(cls, target: Channel) -> "Strategy":
        return cls("separation", target)

    @classmethod
    def max_confidence(cls) -> "Strategy":
        return cls("maxconf")

    @classmethod
    def parse(cls, token: str, d: int) -> "Strategy":
        token = token.strip()
        if token in ("none", "usd", "minerror", "maxconf"):
            return cls(token)
        if token.startswith("sep:"):
            body = token[4:]
            if body.startswith(("maximal", "rank1", "c=")):
                return cls.separation(Channel.parse(body, d))
            return cls.separation(Channel(np.array([float(v) for v in body.split(",") if v])))
        raise ValueError(f"unknown strategy token {token!r}")

    def describe(self) -> str:
        if self.kind == "separation":
            return f"sep:{self.target.describe()}"
        return self.kind
