"""Symmetric-subspace bases, clone bases, and entanglement channels.

The 1 -> M cloning structure is built from the bosonic (permutation
symmetric) subspace of M qudits:

    |xi_k> : equal-amplitude superposition of all distinct arrangements of
             the k-th size-M multiset over {0..d-1}, multisets ordered
             lexicographically.

    |phi_j> = sqrt(d / D) * sum_k (<j|_P |xi_k>_PA) (x) |xi_k>_C,
              D = binom(d+M-1, M),

an orthonormal family on the (M-1) ancilla qudits A and M clone qudits C.
The channel state for coefficients c_j (real, non-negative, sum c_j^2 = 1) is

    |chan> = sum_j c_j |j>_P (x) |phi_j>_AC .

The protocol engine never builds these dense vectors. It works in the
occupation coordinates of ``occupations`` (one row n_0..n_(d-1) per basis
state |xi_k>), with ``occupation_index`` as the closed-form inverse and
``raising`` as the creation and annihilation maps between M-1 and M
qudits. ``symmetric_basis``, ``clone_basis`` and ``channel_state`` build
the dense forms, which the tests use as references.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .registers import NORM_ATOL, StateVector, _squared_norm, check_memory

__all__ = [
    "Channel",
    "SymBasis",
    "SymmetricState",
    "CloneBasis",
    "ancilla_labels",
    "clone_basis",
    "clone_labels",
    "channel_state",
    "occupation_index",
    "occupations",
    "raising",
    "symmetric_basis",
    "symmetric_dimension",
]

MAX_INDEX = 2**63 - 1
RENORM_WARN = 1e-6


def symmetric_dimension(d: int, copies: int) -> int:
    """Dimension binom(d+M-1, M) of the symmetric subspace of M qudits."""
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    if copies < 1:
        raise ValueError(f"copy count must be >= 1, got {copies}")
    size = math.comb(d + copies - 1, copies)
    if size > MAX_INDEX or d**copies > MAX_INDEX:
        raise ValueError(f"d={d}, M={copies} exceeds 64-bit indexing")
    return size


def ancilla_labels(copies: int) -> tuple[str, ...]:
    return tuple(f"A{i}" for i in range(1, copies))


def clone_labels(copies: int) -> tuple[str, ...]:
    return tuple(f"C{i}" for i in range(1, copies + 1))


@dataclass(frozen=True, eq=False)
class SymBasis:
    """Orthonormal symmetric basis of M qudits, one state per multiset."""

    d: int
    copies: int
    multisets: tuple[tuple[int, ...], ...]
    states: tuple[StateVector, ...]

    @property
    def size(self) -> int:
        return len(self.states)


def occupations(d: int, copies: int) -> np.ndarray:
    """Occupation numbers n_v of the symmetric basis of ``copies`` qudits, one row per state.

    Rows follow the basis order: the lexicographic order of sorted multisets,
    which is the descending order of occupations. Builds D = binom(d+M-1, M)
    rows and never touches the d^M dense indices.
    """
    size = math.comb(d + copies - 1, copies)
    multisets = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(d), copies))
    values = np.fromiter(multisets, dtype=np.intp, count=size * copies).reshape(size, copies)
    flat = (values + d * np.arange(size)[:, None]).ravel()
    return np.bincount(flat, minlength=size * d).reshape(size, d)


def occupation_index(occ: np.ndarray) -> np.ndarray:
    """Index of each occupation row (last axis) of ``occ`` in the symmetric basis of its total.

    Closed form: the states before occupation n are counted value by value;
    those that agree with n below v and hold more of v number
    binom(s_v + d - v - 2, d - v - 1), with s_v the count of values above v.
    """
    d = occ.shape[-1]
    above = np.cumsum(occ[..., :0:-1], axis=-1)[..., ::-1]  # s_v for v = 0..d-2
    table = np.array(
        [[math.comb(s + d - v - 2, d - v - 1) for v in range(d - 1)] for s in range(int(above.max(initial=0)) + 1)],
        dtype=np.intp,
    )
    return table[above, np.arange(d - 1)].sum(axis=-1)


def raising(d: int, copies: int) -> tuple[np.ndarray, np.ndarray]:
    """The creation maps Sym^(M-1) -> Sym^M as gathers: a_v^dag |n> = sqrt(n_v + 1) |n + e_v>.

    Returns ``index`` and ``root``, both shaped (d, D_(M-1)): state n of
    Sym^(M-1) goes to state ``index[v, n]`` of Sym^M with factor
    ``root[v, n]``. Read backwards, they are the annihilation maps
    a_v |n'> = sqrt(n'_v) |n' - e_v>.
    """
    lower = occupations(d, copies - 1)
    eye = np.eye(d, dtype=lower.dtype)
    return occupation_index(lower[None, :, :] + eye[:, None, :]), np.sqrt(lower.T + 1.0)


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """Pure state on Sym^(M-1) of the ancillas (x) Sym^M of the clones, qudit dimension d.

    ``amps[a, c]`` is the amplitude of ancilla state ``occupations(d, M-1)[a]``
    and clone state ``occupations(d, M)[c]``. The embedding into the dense
    register A1..A(M-1), C1..CM is an isometry, so overlaps and norms are
    the dense ones. The norm must be 1 within 1e-12.
    """

    d: int
    copies: int
    amps: np.ndarray

    def __post_init__(self):
        d, copies = self.d, self.copies
        shape = (math.comb(d + copies - 2, copies - 1), math.comb(d + copies - 1, copies))
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if amps.shape != shape:
            raise ValueError(f"amplitudes of shape {amps.shape} do not match {shape} for d={d}, M={copies}")
        nrm = math.sqrt(_squared_norm(amps.reshape(-1)))
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {NORM_ATOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)


def symmetric_basis(d: int, copies: int) -> SymBasis:
    """The symmetric basis as dense vectors on d^M amplitudes."""
    size = symmetric_dimension(d, copies)
    check_memory(size * d**copies)
    labels = tuple(f"S{i}" for i in range(1, copies + 1))
    dims = (d,) * copies
    # occupation numbers of every basis index, first digit most significant
    eye = np.eye(d, dtype=np.intp)
    occupation = np.zeros((1, d), dtype=np.intp)
    for _ in range(copies):
        occupation = (occupation[:, None, :] + eye[None, :, :]).reshape(-1, d)
    rank = occupation_index(occupation)
    # a multiset with occupations n_v has M! / prod(n_v!) distinct arrangements
    amps = np.array(
        [
            1.0 / math.sqrt(math.factorial(copies) // math.prod(math.factorial(int(k)) for k in occ))
            for occ in occupations(d, copies)
        ]
    )
    vecs = np.zeros((size, d**copies), dtype=np.complex128)
    vecs[rank, np.arange(d**copies)] = amps[rank]
    multisets = tuple(itertools.combinations_with_replacement(range(d), copies))
    states = tuple(StateVector(dims, labels, vec) for vec in vecs)
    return SymBasis(d, copies, multisets, states)


@dataclass(frozen=True, eq=False)
class CloneBasis:
    """The d orthonormal states |phi_j> on ancillas A1..A(M-1), clones C1..CM."""

    d: int
    copies: int
    states: tuple[StateVector, ...]


def clone_basis(d: int, copies: int) -> CloneBasis:
    sym = symmetric_basis(d, copies)
    n_anc = copies - 1
    check_memory(d ** (n_anc + copies))
    xi = np.stack([state.amps for state in sym.states])
    # phi_j[a, c] = sum_k (<j|_P xi_k)[a] xi_k[c]: the P slot is the first of M
    phis = np.einsum("kja,kc->jac", xi.reshape(sym.size, d, d**n_anc), xi)
    phis *= math.sqrt(d / sym.size)
    labels = ancilla_labels(copies) + clone_labels(copies)
    dims = (d,) * (n_anc + copies)
    states = tuple(StateVector(dims, labels, phi.reshape(-1)) for phi in phis)
    return CloneBasis(d, copies, states)


@dataclass(frozen=True, eq=False)
class Channel:
    """Schmidt profile of the pure entanglement channel: real c_j >= 0, sum c_j^2 = 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        if coeffs.ndim != 1 or coeffs.size < 2:
            raise ValueError("channel needs at least two coefficients")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("channel coefficients must be finite")
        if np.any(coeffs < 0):
            raise ValueError("channel coefficients must be non-negative")
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(coeffs)
        if not math.isfinite(nrm):
            raise ValueError("the norm of the channel coefficients overflows")
        if nrm == 0:
            raise ValueError("channel coefficients are all zero")
        if abs(nrm - 1.0) > RENORM_WARN:
            warnings.warn(
                f"channel coefficients renormalized (norm deviation {abs(nrm - 1.0):.3e})",
                stacklevel=2,
            )
        if abs(nrm - 1.0) > 1e-15:
            coeffs = coeffs / nrm
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def d(self) -> int:
        return self.coeffs.size

    @property
    def c_min(self) -> float:
        """Smallest coefficient (zero if the channel is rank deficient)."""
        return float(self.coeffs.min())

    @property
    def nonzero_support(self) -> tuple[int, ...]:
        return tuple(int(k) for k in np.flatnonzero(self.coeffs > 1e-14))

    @property
    def rank(self) -> int:
        return len(self.nonzero_support)

    @property
    def is_full_rank(self) -> bool:
        return self.rank == self.d

    @property
    def is_maximal(self) -> bool:
        return bool(np.allclose(self.coeffs, 1.0 / math.sqrt(self.d), rtol=0, atol=1e-12))

    def min_nonzero(self) -> float:
        return float(min(self.coeffs[k] for k in self.nonzero_support))

    @classmethod
    def maximal(cls, d: int) -> "Channel":
        return cls(np.full(d, 1.0 / math.sqrt(d)))

    @classmethod
    def rank1(cls, d: int) -> "Channel":
        c = np.zeros(d)
        c[0] = 1.0
        return cls(c)

    @classmethod
    def parse(cls, text: str, d: int | None = None) -> "Channel":
        """Parse a channel preset: 'maximal', 'rank1', or 'c=[0.894,0.447]'."""
        token = text.strip()
        if token == "maximal":
            if d is None:
                raise ValueError("preset 'maximal' needs the qudit dimension")
            return cls.maximal(d)
        if token == "rank1":
            if d is None:
                raise ValueError("preset 'rank1' needs the qudit dimension")
            return cls.rank1(d)
        if token.startswith("c="):
            body = token[2:].strip()
            if body.startswith("[") and body.endswith("]"):
                body = body[1:-1]
            try:
                values = [float(v) for v in body.split(",") if v.strip()]
            except ValueError:
                raise ValueError(f"cannot parse channel coefficients from {text!r}") from None
            chan = cls(np.array(values))
            if d is not None and chan.d != d:
                raise ValueError(f"channel lists {chan.d} coefficients but d={d}")
            return chan
        raise ValueError(f"unknown channel spec {text!r}")

    def describe(self) -> str:
        if self.is_maximal:
            return "maximal"
        return "c=[" + ",".join(f"{c:.12g}" for c in self.coeffs) + "]"


def channel_state(channel: Channel, copies: int) -> StateVector:
    """Pure channel sum_j c_j |j>_P |phi_j> on registers P, A1.., C1..CM."""
    d = channel.d
    basis = clone_basis(d, copies)
    block = basis.states[0].amps.size
    check_memory(d * block)
    amps = np.zeros(d * block, dtype=np.complex128)
    for j in range(d):
        amps[j * block : (j + 1) * block] = channel.coeffs[j] * basis.states[j].amps
    dims = (d,) * (1 + (copies - 1) + copies)
    labels = ("P",) + ancilla_labels(copies) + clone_labels(copies)
    return StateVector(dims, labels, amps)
