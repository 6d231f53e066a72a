"""Exact branch-by-branch simulation of the telecloning protocol.

Two flows are implemented on the register X, P, A1..A(M-1), C1..CM:

* ``bell``: the sender measures X (x) P in the generalized Bell basis and
  broadcasts (n, m); ancilla and clones apply the reconstruction unitaries.
  d^2 branches labeled (n, m).

* ``gxor``: GXOR with control P and target X, computational measurement of X
  (outcome m), an optional discrimination strategy on P with X reused as the
  success flag, inverse Fourier on P, computational measurement of P
  (outcome n), then reconstruction on success (identity on failure, since n
  carries no usable information there). d^2 branches for none/minerror,
  2 d^2 for the filter strategies.

Every branch is enumerated exactly; zero-probability branches are kept and
flagged rather than dropped, so report schemas are deterministic. The
engine runs on inputs stacked as columns and yields unnormalized branch
blocks; a single finishing step turns a block into probability, fidelities
and post-state. The register is never materialized: the sender-side steps
act on X and P alone, so they run on a small sender tensor that is
contracted with the channel state once per branch.

Ancillas and clones are carried in symmetric occupation coordinates. Every
channel slice, and so every branch block, lies in Sym^(M-1)(A) (x) Sym^M(C)
(Murao, Jonathan, Plenio and Vedral, PRA 59, 156 (1999)), which takes
D_(M-1) * D_M coordinates, D_k = binom(d+k-1, k), instead of d^(2M-1).
Three tables, built in closed form from occupation numbers, do the work:

* channel: slice j holds c_j sqrt(d/D_M) sqrt(n_j/M) at (n - e_j, n);
* reconstruction: U^(x)k of a monomial U maps occupation n to a permuted
  occupation times prod_v phase_v^(n_v), so it is one gather;
* annihilation: a_v |n> = sqrt(n_v) |n - e_v>. A clone's reduced state is
  rho_uv = <a_v B, a_u B> / M for a normalized block B, so every clone has
  the fidelity ||sum_v psi_v* a_v B||^2 / M.

The tables that depend only on the shape of a configuration (d, M, flow,
reconstruction variant) are built once per process and shared, read-only,
by every later call of that shape: the creation and annihilation maps, the
reconstruction gathers, the sender operator and the inverse Fourier matrix.
The tables kept between calls hold at most ``QTC_MEM_BUDGET`` numbers in
total; the least recently used are dropped first. Only the
channel-dependent pieces (channel amplitudes, slice weights, filter
dilations) are built per call.

Haar-input averaging compiles each branch's linear map once and evaluates
all samples with batched products.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .bell import bell_state, fourier, gxor_operator, reconstruction_matrices
from .discrimination import (
    Strategy,
    filter_unitary,
    max_confidence,
    max_confidence_readout,
    separation_filter,
    usd_kraus,
)
from .registers import DEFAULT_ATOL, PROB_FLOOR, DensityMatrix, StateVector, check_memory, memory_budget
from .symmetric import Channel, SymmetricState, occupation_index, occupations, raising
from . import formulas

__all__ = [
    "BranchResult",
    "FormulaComparison",
    "HaarSpec",
    "HaarStats",
    "ProtocolConfig",
    "RunReport",
    "clone_marginal",
    "compare_to_formulas",
    "haar_average",
    "run_exact",
]

COMPARE_TOL = 1e-8
# amplitudes per batch of Haar samples, which bounds the evaluation's working set
HAAR_CHUNK = 1 << 12
# NumPy's SeedSequence hash constants and PCG64's multiplier, for seeding Haar samples
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


@dataclass(frozen=True, eq=False)
class HaarSpec:
    """Haar-random input specification: ``samples`` draws from stream ``seed``."""

    seed: int
    samples: int

    def __post_init__(self):
        if operator.index(self.seed) < 0:
            raise ValueError(f"haar seed must be non-negative, got {self.seed}")
        if operator.index(self.samples) < 1:
            raise ValueError(f"haar sample count must be at least 1, got {self.samples}")


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    channel: Channel
    copies: int = 2
    flow: str = "bell"
    strategy: Strategy = field(default_factory=Strategy.none)
    recon_variant: str = "s4"
    input_spec: StateVector | HaarSpec | None = None

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("need at least one clone")
        if self.flow not in ("bell", "gxor"):
            raise ValueError(f"unknown flow {self.flow!r}")
        if self.recon_variant not in ("s2", "s4"):
            raise ValueError(f"unknown reconstruction variant {self.recon_variant!r}")
        if self.flow == "bell" and self.strategy.kind != "none":
            raise ValueError("the Bell-measurement flow takes no discrimination strategy")
        target = self.strategy.target
        if target is not None and target.d != self.channel.d:
            raise ValueError(
                f"separation target has dimension {target.d} but the channel has d={self.channel.d}"
            )

    @property
    def d(self) -> int:
        return self.channel.d


@dataclass(frozen=True, eq=False)
class BranchResult:
    """One exact branch of the protocol.

    ``flag`` is None for flows without discrimination, else one of
    success / fail / inconclusive / guess. Zero-probability branches carry
    no post-state and no fidelities.
    """

    m: int
    n: int | None
    flag: str | None
    probability: float
    clone_fidelities: tuple[float, ...] | None
    zero: bool
    ac_state: SymmetricState | None = None

    def key(self) -> tuple:
        return (self.m, self.flag or "", -1 if self.n is None else self.n)


@dataclass(frozen=True, eq=False)
class FormulaComparison:
    name: str
    simulated: float
    closed_form: float
    abs_diff: float
    status: str  # MATCH | DISCREPANCY


@dataclass(frozen=True, eq=False)
class HaarStats:
    samples: int
    seed: int
    overall_mean: float
    overall_stderr: float
    class_stats: dict


@dataclass(frozen=True, eq=False)
class RunReport:
    config: ProtocolConfig
    input_state: StateVector | None
    branches: tuple[BranchResult, ...]
    average_fidelity: float
    conditional_averages: dict
    comparisons: tuple[FormulaComparison, ...] = ()
    notes: tuple[str, ...] = ()
    haar: HaarStats | None = None

    def branch(self, m: int, n: int | None = None, flag: str | None = None) -> BranchResult:
        for b in self.branches:
            if b.m == m and b.n == n and b.flag == flag:
                return b
        raise KeyError(f"no branch with m={m}, n={n}, flag={flag}")

    def total_probability(self, flag: str | None = None) -> float:
        return sum(b.probability for b in self.branches if flag is None or b.flag == flag)


def _apply_leading(mat: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """``mat`` acting on the leading axes of ``arr`` whose sizes multiply to its width."""
    return (mat @ arr.reshape(mat.shape[1], -1)).reshape(arr.shape)


def _swap_factors(mat: np.ndarray, d: int) -> np.ndarray:
    """The two-qudit operator ``mat`` with its tensor factors exchanged."""
    return mat.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def _monomial(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column index and entry of each row of stacked monomial matrices (..., d, d).

    U v = phase * v[index] for a monomial U; anything else is rejected.
    """
    nonzero = mats != 0
    if np.any(nonzero.sum(axis=-1) != 1) or np.any(nonzero.sum(axis=-2) != 1):
        raise ValueError("reconstruction matrix is not monomial")
    index = np.argmax(nonzero, axis=-1)
    return index, np.take_along_axis(mats, index[..., None], axis=-1)[..., 0]


def _symmetric_power(index: np.ndarray, phase: np.ndarray, occ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gathers of U^(x)k on Sym^k for stacked monomials (rows of ``index``/``phase``).

    ``occ`` lists the occupations of Sym^k. Since (U v)[r] = phase_r v[index_r],
    U^(x)k takes the basis state with occupation n', n'[index_v] = n_v, to
    the one with occupation n, times prod_v phase_v^(n_v). Row r of the
    result holds that source state and that phase for every n.
    """
    inverse = np.argsort(index, axis=-1)  # inverse[r, index[r, v]] = v
    source = occ[:, inverse].transpose(1, 0, 2)  # source[r, i, index[r, v]] = occ[i, v]
    return occupation_index(source), np.prod(phase[:, None, :] ** occ[None, :, :], axis=-1)


def _lowered(blocks: np.ndarray, raised: np.ndarray, root: np.ndarray) -> np.ndarray:
    """The annihilated blocks a_v B of (..., ancilla, clone, K) blocks B, shaped (..., ancilla, v, x, K).

    ``raised`` and ``root`` are ``raising``'s tables: a_v |n'> = sqrt(n'_v) |n' - e_v>,
    so (a_v B)[a, x] = root[v, x] B[a, raised[v, x]].
    """
    return blocks[..., raised, :] * root[:, :, None]


class _TableStore:
    """Tables shared across calls, keyed by their builder and its arguments.

    Every array handed out is read-only. The arrays kept between calls hold
    at most ``memory_budget()`` numbers in total, the unit ``check_memory``
    counts, with the budget read on every lookup: the least recently used
    entries are dropped first, and a table larger than the budget goes to
    its caller without being kept.
    """

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()  # key -> (tables, numbers they hold)
        self._lock = threading.Lock()
        self.retained = 0

    def get(self, build, *args):
        key = (build, *args)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._evict()
                return entry[0]
        tables = build(*args)
        arrays = tables if isinstance(tables, tuple) else (tables,)
        for arr in arrays:
            arr.flags.writeable = False
        size = sum(arr.size for arr in arrays)
        with self._lock:
            if key not in self._entries:
                self._entries[key] = (tables, size)
                self.retained += size
            self._evict()
        return tables

    def _evict(self) -> None:
        budget = memory_budget()
        while self.retained > budget:
            _, (_, size) = self._entries.popitem(last=False)
            self.retained -= size

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.retained = 0


_TABLES = _TableStore()


def _recon_gathers(d: int, copies: int, variant: str) -> tuple[np.ndarray, ...]:
    """Per (n, m) at row n*d + m: ancilla source and phase, clone source and phase."""
    ua, uc = reconstruction_matrices(d, variant)
    return (
        *_symmetric_power(*_monomial(ua.reshape(d * d, d, d)), occupations(d, copies - 1)),
        *_symmetric_power(*_monomial(uc.reshape(d * d, d, d)), occupations(d, copies)),
    )


def _sender(d: int, flow: str) -> np.ndarray:
    """Sender operator of every branch, indexed (branch, channel P, X)."""
    if flow == "bell":
        sender = np.stack([bell_state(d, n, m).amps for n in range(d) for m in range(d)]).conj()
    else:
        # GXOR with control P and target X, acting on (X, P); its rows for
        # X = m are the sender operator of outcome m
        sender = _swap_factors(gxor_operator(d).matrix, d)
    # (branch, X, P) -> (branch, P, X), so that sender @ cols contracts X
    return sender.reshape(d * d, d, d).transpose(0, 2, 1)


def _fourier_inv(d: int) -> np.ndarray:
    return fourier(d).dagger().matrix


class _Context:
    """The machinery of one configuration: the channel, the sender operator,
    the filter dilations and the symmetric-coordinate tables.

    Tables that depend only on (d, M, flow, reconstruction variant) come
    from the process-wide store (``_TABLES``) and are read-only; the
    channel amplitudes, the slice weights and the filter dilations are
    built per call. The budget is checked on every call, before any table
    is looked up.

    Sender tensors are indexed by the branch (or the physical P), then the
    channel's P index, then the input column. Branch blocks are indexed by
    the ancilla occupation and the clone occupation, flattened, then the
    input column.
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        d, m_copies = config.d, config.copies
        self.d = d
        self.ac_dims = (math.comb(d + m_copies - 2, m_copies - 1), math.comb(d + m_copies - 1, m_copies))
        filtered = config.flow == "gxor" and config.strategy.kind in ("usd", "separation", "maxconf")
        self.branch_count = d * d * (2 if filtered else 1)
        # the largest table built below: the reconstruction gathers, d^2
        # outcomes times D_M occupations of d entries, which outgrow the d^4
        # of the sender operator and the reconstruction matrices, unless a
        # filter's d dilations of d^4 amplitudes each are larger
        check_memory(max(d**3 * self.ac_dims[1], d**5 if filtered else 0))
        # creating value j on ancilla occupation a gives clone occupation
        # raised[j, a], with factor root[j, a]
        self.raised, self.root = _TABLES.get(raising, d, m_copies)
        self.anc = np.arange(self.ac_dims[0])
        scale = config.channel.coeffs * math.sqrt(d / (self.ac_dims[1] * m_copies))
        self.chan_amps = scale[:, None] * self.root  # channel slice j at (a, raised[j, a])
        self.weights = config.channel.coeffs**2  # squared norms of the channel's P slices
        self.recon = _TABLES.get(_recon_gathers, d, m_copies, config.recon_variant)
        self.sender = _TABLES.get(_sender, d, config.flow)
        if config.flow == "bell":
            self.bell_order = [(n, m) for n in range(d) for m in range(d)]
        else:
            self.fourier_inv = _TABLES.get(_fourier_inv, d)
            kind = config.strategy.kind
            self.flag_unitaries = None
            if kind == "usd":
                pair = usd_kraus(config.channel)
            elif kind == "separation":
                pair = separation_filter(config.channel, config.strategy.target)
            elif kind == "maxconf":
                pair = max_confidence(config.channel)
            else:
                pair = None
            if pair is not None:
                self.flag_unitaries = [
                    _swap_factors(filter_unitary(pair, d, flag=m).matrix, d) for m in range(d)
                ]
            self.flag_names = {
                "usd": ("success", "fail"),
                "separation": ("success", "fail"),
                "maxconf": ("success", "inconclusive"),
            }.get(kind)
            self.plain_flag = "guess" if kind == "minerror" else None

    def lift(self, core: np.ndarray) -> np.ndarray:
        """Contract a (channel P, K) sender slice with the channel: shape (AC, K).

        The slices of the channel have disjoint supports, so this is one scatter.
        """
        out = np.zeros(self.ac_dims + core.shape[-1:], dtype=np.complex128)
        out[self.anc, self.raised] = self.chan_amps[:, :, None] * core[:, None, :]
        return out.reshape(-1, core.shape[-1])

    def mass(self, core: np.ndarray) -> np.ndarray:
        """Squared norm, per input column, of the state a (P, channel P, K) sender tensor stands for."""
        return np.einsum("apk,p->k", np.abs(core) ** 2, self.weights)

    def reconstruct(self, block: np.ndarray, n: int, m: int) -> np.ndarray:
        """U_A^(M-1) (x) U_C^M on an (AC, K) block, as one gather times phases."""
        ia, pa, ic, pc = (table[n * self.d + m] for table in self.recon)
        out = block.reshape(ia.size, ic.size, -1)[ia[:, None], ic[None, :]]
        out *= pa[:, None, None]
        out *= pc[None, :, None]
        return out.reshape(block.shape)

    def clone_weight(self, block: np.ndarray, psis: np.ndarray) -> np.ndarray:
        """||sum_v psi_v* a_v B||^2 / M per input column of (..., AC, K) blocks and (d, K) inputs.

        For a block of squared norm p this is p times the fidelity of every
        clone with its column of ``psis``.
        """
        blocks = block.reshape(block.shape[:-2] + self.ac_dims + block.shape[-1:])
        proj = np.einsum("...avxk,vk->...axk", _lowered(blocks, self.raised, self.root), psis.conj())
        return np.einsum("...axk,...axk->...k", proj, proj.conj()).real / self.config.copies


# An engine pass maps K inputs stacked as columns to unnormalized branch
# blocks, yielded one ((m, n, flag), block) pair per branch, block shaped
# (AC, K). Every step is linear in the input, so zero amplitudes simply
# flow through, and the blocks of a pass on the d basis columns are the
# branches' linear maps.


def _run_bell(ctx: _Context, cores: np.ndarray):
    for (n, m), core in zip(ctx.bell_order, cores):
        yield (m, n, None), ctx.reconstruct(ctx.lift(core), n, m)


def _readout(ctx: _Context, m: int, flag, arr: np.ndarray, correct: bool):
    """Inverse Fourier on P (axis 0), split on its outcome n, then reconstruct (or not)."""
    arr = _apply_leading(ctx.fourier_inv, arr)
    for n in range(ctx.d):
        block = ctx.lift(arr[n])
        yield (m, n, flag), ctx.reconstruct(block, n, m) if correct else block


def _run_gxor(ctx: _Context, cores: np.ndarray):
    d = ctx.d
    # outcome m of X, then P, the channel's P index and the input column
    for m, sub in enumerate(cores.reshape(d, d, d, -1)):
        if ctx.flag_names is None:
            yield from _readout(ctx, m, ctx.plain_flag, sub, correct=True)
            continue
        # reattach the measured X register as the strategy's flag
        staged = np.zeros((d,) + sub.shape, dtype=np.complex128)
        staged[m] = sub
        staged = _apply_leading(ctx.flag_unitaries[m], staged)  # acts on X (x) P
        flags = (m, (m + 1) % d)
        leak = sum(ctx.mass(staged[x]) for x in range(d) if x not in flags)
        if np.any(leak > 1e-12 * ctx.mass(sub)):
            raise AssertionError(f"flag register leaked probability {np.max(leak)}")
        for flag, x in zip(ctx.flag_names, flags):
            yield from _readout(ctx, m, flag, staged[x], correct=flag == ctx.flag_names[0])


def _branch(ctx: _Context, psi: np.ndarray, key: tuple, block: np.ndarray, keep: bool) -> BranchResult:
    """Finish one branch of one input (a (d, 1) column) from its unnormalized block (shape (AC, 1))."""
    m, n, flag = key
    prob = float(np.vdot(block, block).real)
    if prob < PROB_FLOOR:
        return BranchResult(m, n, flag, prob, None, True)
    fids = (float(ctx.clone_weight(block, psi)[0]) / prob,) * ctx.config.copies
    state = None
    if keep:
        state = SymmetricState(ctx.d, ctx.config.copies, block.reshape(ctx.ac_dims) / math.sqrt(prob))
    return BranchResult(m, n, flag, prob, fids, False, state)


def _engine(ctx: _Context, cols: np.ndarray):
    """Contract the inputs with the sender operator, then run the flow's branches lazily."""
    # the largest array of a pass is clone_weight's annihilation gather, d
    # blocks per input column; the sender tensors of d^3 per column are no
    # larger than the tables checked in _Context
    check_memory(ctx.d * math.prod(ctx.ac_dims) * cols.shape[1])
    runner = _run_bell if ctx.config.flow == "bell" else _run_gxor
    return runner(ctx, ctx.sender @ cols)


def _assemble(config, input_state, branches) -> RunReport:
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > DEFAULT_ATOL:
        raise AssertionError(f"branch probabilities sum to {total!r}")
    avg = sum(b.probability * b.clone_fidelities[0] for b in branches if not b.zero)
    cond: dict = {}
    for b in branches:
        if b.flag is None or b.zero:
            continue
        slot = cond.setdefault(b.flag, {"probability": 0.0, "fidelity": 0.0})
        slot["probability"] += b.probability
        slot["fidelity"] += b.probability * b.clone_fidelities[0]
    for slot in cond.values():
        if slot["probability"] > 0:
            slot["fidelity"] /= slot["probability"]
    return RunReport(config, input_state, tuple(branches), float(avg), cond)


def _resolve_input(config: ProtocolConfig, input_state) -> StateVector:
    state = input_state if input_state is not None else config.input_spec
    if isinstance(state, HaarSpec):
        raise TypeError("run_exact needs an explicit input state; use haar_average for Haar specs")
    if not isinstance(state, StateVector):
        raise TypeError("no input state given")
    if state.dims != (config.d,):
        raise ValueError(f"input dims {state.dims} do not match qudit dimension {config.d}")
    return state if state.labels == ("X",) else StateVector((config.d,), ("X",), state.amps)


def run_exact(config: ProtocolConfig, input_state: StateVector | None = None, *, keep_states: bool = True) -> RunReport:
    """Enumerate every protocol branch exactly for one input state."""
    state = _resolve_input(config, input_state)
    ctx = _Context(config)
    col = state.amps[:, None]
    branches = [_branch(ctx, col, key, block, keep_states) for key, block in _engine(ctx, col)]
    return _assemble(config, state, branches)


def clone_marginal(branch: BranchResult, clone_index: int = 0) -> DensityMatrix:
    """Reduced state of clone ``clone_index`` (0-based) in a non-zero branch.

    From the kept symmetric block B: rho_uv = <a_v B, a_u B> / M, the same
    for every clone.
    """
    state = branch.ac_state
    if state is None:
        raise ValueError("branch has no post-state (zero probability or states not kept)")
    if not 0 <= clone_index < state.copies:
        raise ValueError(f"clone index {clone_index} out of range for M={state.copies}")
    lowered = _lowered(state.amps[:, :, None], *_TABLES.get(raising, state.d, state.copies))[..., 0]
    rows = lowered.transpose(1, 0, 2).reshape(state.d, -1)
    rho = rows @ rows.conj().T / state.copies
    return DensityMatrix((state.d,), (f"C{clone_index + 1}",), rho)


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative integer, least significant first."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """One of SeedSequence's hash streams: each call hashes a word with the next constant."""

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return step


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return value ^ (value >> np.uint32(16))


def _seed_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """Rows ``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for i in ``indices``.

    NumPy's SeedSequence hash, run as uint32 array arithmetic with one lane
    per index. The entropy of [seed, i] is the 32-bit words of seed, then
    those of i: one word below 2**32, two from there to 2**64.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    out = np.empty((indices.size, 8), dtype=np.uint32)
    seed_words = [np.full(1, w, dtype=np.uint32) for w in _uint32_words(operator.index(seed))]
    narrow = indices >> np.uint64(32) == 0
    for lanes, width in ((narrow, 1), (~narrow, 2)):
        idx = indices[lanes]
        if not idx.size:
            continue
        entropy = seed_words + [(idx >> np.uint64(32 * k)).astype(np.uint32) for k in range(width)]
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(1, np.uint32)) for k in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        draw = _hasher(_INIT_B, _MULT_B)
        for k in range(8):
            out[lanes, k] = draw(pool[k % 4])
    return out[:, 0::2].astype(np.uint64) | out[:, 1::2].astype(np.uint64) << np.uint64(32)


def _haar_inputs(spec: HaarSpec, d: int) -> np.ndarray:
    """The inputs of ``spec`` as columns: sample i is drawn from ``default_rng([seed, i])``.

    Each draw is ``haar_random_state``'s: d normals for the real parts, then
    d for the imaginary parts, normalized. Building a generator per sample
    would cost most of a Haar run, so the seed words of every sample are
    hashed at once (``_seed_words``), each turned into the PCG64 state that
    ``default_rng`` starts from, and one generator is re-seeded per sample.
    The samples are bit-identical to ``haar_random_state`` on the per-sample
    generators.
    """
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    raw = np.empty((spec.samples, 2, d))
    words = _seed_words(spec.seed, np.arange(spec.samples, dtype=np.uint64))
    for i, (s_hi, s_lo, inc_hi, inc_lo) in enumerate(words.tolist()):
        # pcg64_set_seed: inc = 2 * seq + 1, state = (inc + seed) * MULT + inc
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state["state"] = {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, "inc": inc}
        bits.state = state
        gen.standard_normal(out=raw[i])  # one draw of 2d normals is the stream of two draws of d
    z = raw[:, 0] + 1j * raw[:, 1]
    # np.linalg.norm(z[i]) is sqrt(re.dot(re) + im.dot(im)) on the strided parts;
    # a batched row-by-column matmul calls the same dot per sample, so it rounds
    # alike, where einsum or dots of the contiguous raw rows sum in another order
    re, im = z.real[:, None, :], z.imag[:, None, :]
    norms = np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
    return np.ascontiguousarray((z / norms).T)


def _stats(vals: np.ndarray) -> tuple[float, float]:
    sem = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), sem


def haar_average(config: ProtocolConfig) -> RunReport:
    """Average the exact protocol over Haar-random inputs.

    The configuration is compiled once: an engine pass on the d basis
    inputs gives each branch's linear map L_b from the input to its
    unnormalized post-state. Each sample psi then costs only batched
    products: the branch probability is |L_b psi|^2 and the
    probability-weighted clone fidelity is ||sum_v psi_v* a_v L_b psi||^2 / M,
    the contraction ``run_exact`` uses. Sample i is drawn from
    ``default_rng([seed, i])``, so results do not depend on how the samples
    might be split. Branch entries carry mean probabilities and
    probability-weighted mean fidelities; class statistics are means with
    standard errors over per-sample conditional fidelities, and each
    class's conditional average pairs its mean mass with that mean.
    """
    spec = config.input_spec
    if not isinstance(spec, HaarSpec):
        raise TypeError("haar_average needs a HaarSpec input in the configuration")
    d = config.d
    ctx = _Context(config)
    check_memory(ctx.branch_count * math.prod(ctx.ac_dims) * d)  # the stacked maps
    # probabilities and weights hold branch_count >= d^2 >= 2d entries per sample,
    # more than the raw normals (2d) and the inputs (d)
    check_memory(ctx.branch_count * spec.samples)
    compiled = list(_engine(ctx, np.eye(d, dtype=np.complex128)))
    keys = [key for key, _ in compiled]
    maps = np.stack([block for _, block in compiled])  # (branch, AC, input)
    deviation = np.max(np.abs(np.einsum("bxj,bxk->jk", maps.conj(), maps) - np.eye(d)))
    if deviation > DEFAULT_ATOL:
        raise AssertionError(f"sum of L_b^dag L_b deviates from the identity by {deviation!r}")

    psis = _haar_inputs(spec, d)
    probs = np.empty((len(keys), spec.samples))
    weighted = np.empty_like(probs)
    step = max(1, HAAR_CHUNK // maps[..., 0].size)
    for lo in range(0, spec.samples, step):
        cols = psis[:, lo : lo + step]
        amps = maps @ cols
        probs[:, lo : lo + step] = np.einsum("bxn,bxn->bn", amps, amps.conj()).real
        weighted[:, lo : lo + step] = ctx.clone_weight(amps, cols)
    zero = probs < PROB_FLOOR
    weighted[zero] = 0.0
    live_probs = np.where(zero, 0.0, probs)

    n = spec.samples
    mean_branches = []
    for (m, b_n, flag), p_sum, f_sum in zip(keys, probs.sum(axis=1), weighted.sum(axis=1)):
        f = (float(f_sum / p_sum),) if p_sum > PROB_FLOOR else None
        mean_branches.append(BranchResult(m, b_n, flag, float(p_sum / n), f, f is None))

    o_mean, o_sem = _stats(weighted.sum(axis=0))
    class_stats = {}
    for flag in dict.fromkeys(flag for _, _, flag in keys if flag is not None):
        rows = [j for j, key in enumerate(keys) if key[2] == flag]
        mass = live_probs[rows].sum(axis=0)
        kept = mass > PROB_FLOOR
        if np.any(kept):
            vals = weighted[rows].sum(axis=0)[kept] / mass[kept]
            class_stats[flag] = dict(zip(("mean", "stderr", "samples"), (*_stats(vals), len(vals))))
    stats = HaarStats(n, spec.seed, o_mean, o_sem, class_stats)
    cond = {
        flag: {
            "probability": sum(b.probability for b in mean_branches if b.flag == flag),
            "fidelity": cs["mean"],
        }
        for flag, cs in class_stats.items()
    }
    return RunReport(config, None, tuple(mean_branches), o_mean, cond, haar=stats)


def _compare(name, simulated, closed, tol) -> FormulaComparison:
    diff = abs(simulated - closed)
    return FormulaComparison(
        name, float(simulated), float(closed), float(diff), "MATCH" if diff <= tol else "DISCREPANCY"
    )


def _weighted_fidelity(branches, pred) -> tuple[float, float]:
    mass = sum(b.probability for b in branches if pred(b))
    if mass < PROB_FLOOR:
        return 0.0, 0.0
    f = sum(b.probability * b.clone_fidelities[0] for b in branches if pred(b) and not b.zero)
    return f / mass, mass


def compare_to_formulas(report: RunReport, tol: float = COMPARE_TOL) -> RunReport:
    """Attach closed-form cross-checks; |diff| > tol is flagged DISCREPANCY.

    Printed forms known to disagree with the exact simulation (the
    minimum-error average and the orthogonal-target separation probability)
    are attached as comparisons so the discrepancy is visible in reports;
    the corrected relations are attached alongside and must MATCH.
    """
    if report.input_state is None:
        return replace(report, notes=report.notes + ("comparisons skipped: aggregate report",))
    cfg = report.config
    d, m_copies = cfg.d, cfg.copies
    alpha = report.input_state.amps
    chan = cfg.channel
    comps: list[FormulaComparison] = []
    notes: list[str] = []
    branches = report.branches
    kind = cfg.strategy.kind if cfg.flow == "gxor" else "none"
    two_copies = m_copies == 2

    # shift-outcome probabilities hold for every flow and strategy
    for m in range(d):
        sim = sum(b.probability for b in branches if b.m == m)
        comps.append(_compare(f"shift_probability[m={m}]", sim, formulas.shift_probability(alpha, chan, m), tol))

    if kind in ("none", "minerror"):
        for n in range(d):
            sim = sum(b.probability for b in branches if b.n == n)
            comps.append(_compare(f"readout_probability[n={n}]", sim, 1 / d, tol))
        for m in range(d):
            fid, mass = _weighted_fidelity(branches, lambda b, m=m: b.m == m)
            if mass < PROB_FLOOR:
                continue
            want = formulas.clone_fidelity_m(alpha, chan, m, m_copies)
            comps.append(_compare(f"clone_fidelity[m={m}]", fid, want, tol))
        want = formulas.clone_fidelity_avg(alpha, chan, m_copies)
        comps.append(_compare("clone_fidelity_avg", report.average_fidelity, want, tol))
        if two_copies and d == 2:
            fid0, mass0 = _weighted_fidelity(branches, lambda b: b.m == 0)
            if mass0 > PROB_FLOOR:
                printed = formulas.clone_fidelity_qubit_printed(
                    alpha[0], alpha[1], chan.coeffs[0], chan.coeffs[1]
                )
                comps.append(_compare("clone_fidelity_qubit[printed]", fid0, printed, tol))
                if abs(printed - report.average_fidelity) > tol:
                    notes.append(
                        "printed qubit expression evaluates the shift-0 branch "
                        f"({printed:.12f}); the branch-weighted mean is "
                        f"{report.average_fidelity:.12f}"
                    )
        if chan.is_maximal:
            comps.append(_compare("optimal_fidelity", report.average_fidelity, formulas.optimal_fidelity(d, m_copies), tol))
        if kind == "minerror" and two_copies:
            printed = formulas.min_error_fidelity_avg(alpha, chan)
            comps.append(_compare("min_error_fidelity_avg[printed]", report.average_fidelity, printed, tol))
            comps.append(_compare("min_error_scaled_identity", report.average_fidelity / d**3, printed, tol))
            notes.append(
                "printed minimum-error fidelity carries a spurious 1/d^3: "
                f"simulated/printed = {report.average_fidelity / printed:.6f}, d^3 = {d**3}"
            )

    if kind == "usd":
        p_succ = report.total_probability("success")
        comps.append(_compare("usd_success_probability", p_succ, formulas.usd_success_probability(chan), tol))
        comps.append(_compare("usd_failure_probability", report.total_probability("fail"), 1 - formulas.usd_success_probability(chan), tol))
        fid, mass = _weighted_fidelity(branches, lambda b: b.flag == "success")
        if mass > PROB_FLOOR:
            comps.append(_compare("success_fidelity_vs_optimal", fid, formulas.optimal_fidelity(d, m_copies), tol))
        certified = []
        for m in range(d):
            fid, mass = _weighted_fidelity(branches, lambda b, m=m: b.m == m and b.flag == "fail")
            if mass < PROB_FLOOR:
                continue
            want = formulas.failure_fidelity_m(alpha, chan, m, "branch", m_copies)
            comps.append(_compare(f"failure_fidelity[m={m}]", fid, want, tol))
            certified.append(abs(fid - want) <= tol)
            if two_copies:
                printed = formulas.failure_fidelity_m(alpha, chan, m, "printed")
                notes.append(
                    f"failure fidelity m={m}: simulated {fid:.12f}, printed-weight form {printed:.12f}, "
                    f"branch-weight form {want:.12f}"
                )
        if two_copies and certified and all(certified):
            notes.append(
                "failure-fidelity normalization certified: branch weight P_m - c_min^2 "
                "(the printed form divides by P_m)"
            )

    if kind == "separation":
        target = cfg.strategy.target
        p_succ = report.total_probability("success")
        comps.append(
            _compare("separation_success[constructed]", p_succ, formulas.separation_probability_constructed(chan, target), tol)
        )
        comps.append(
            _compare("separation_success[printed]", p_succ, formulas.separation_probability_printed(chan, target), tol)
        )
        if target.is_maximal:
            comps.append(
                _compare(
                    "separation_success[printed-orthogonal]",
                    p_succ,
                    formulas.separation_probability_orthogonal_printed(chan),
                    tol,
                )
            )
            fid, mass = _weighted_fidelity(branches, lambda b: b.flag == "success")
            if mass > PROB_FLOOR:
                comps.append(_compare("success_fidelity_vs_optimal", fid, formulas.optimal_fidelity(d, m_copies), tol))
        if two_copies:
            succ = [b for b in branches if b.flag == "success"]
            for m in range(d):
                fid, mass = _weighted_fidelity(succ, lambda b, m=m: b.m == m)
                if mass < PROB_FLOOR:
                    continue
                comps.append(_compare(f"separation_fidelity[m={m}]", fid, formulas.separation_fidelity_m(alpha, target, m), tol))
            fid, mass = _weighted_fidelity(succ, lambda b: True)
            if mass > PROB_FLOOR:
                comps.append(_compare("separation_fidelity_avg", fid, formulas.separation_fidelity_avg(alpha, target), tol))

    if kind == "maxconf":
        comps.append(
            _compare(
                "confidence",
                max_confidence_readout(chan).posterior_correct(),
                formulas.discrimination_confidence(chan),
                tol,
            )
        )
        comps.append(
            _compare(
                "inconclusive_probability",
                report.total_probability("inconclusive"),
                formulas.inconclusive_probability(chan),
                tol,
            )
        )

    return replace(report, comparisons=tuple(comps), notes=report.notes + tuple(notes))
