"""Qudit telecloning through partially entangled channels.

Exact state-vector simulation of 1 -> M universal symmetric telecloning with
probabilistic correction via state discrimination, plus the closed-form
fidelities and probabilities the simulation is checked against.
"""

__version__ = "0.1.0"

from .registers import (
    DensityMatrix,
    Operator,
    StateVector,
    haar_random_state,
    partial_trace,
)
from .symmetric import (
    Channel,
    channel_state,
    clone_basis,
    symmetric_basis,
    symmetric_dimension,
)
from .bell import (
    bell_state,
    channel_bell_state,
    fourier,
    gxor_operator,
    reconstruction_unitaries,
    symmetric_states,
)
from .discrimination import (
    KrausPair,
    RankDeficientChannelError,
    Strategy,
    max_confidence,
    separation_filter,
    usd_failure_states,
    usd_kraus,
)
from .protocol import (
    BranchResult,
    HaarSpec,
    ProtocolConfig,
    RunReport,
    clone_marginal,
    compare_to_formulas,
    haar_average,
    run_exact,
)
from . import formulas

__all__ = [
    "Channel",
    "BranchResult",
    "DensityMatrix",
    "HaarSpec",
    "KrausPair",
    "Operator",
    "ProtocolConfig",
    "RankDeficientChannelError",
    "RunReport",
    "StateVector",
    "Strategy",
    "bell_state",
    "channel_bell_state",
    "channel_state",
    "clone_basis",
    "clone_marginal",
    "compare_to_formulas",
    "formulas",
    "fourier",
    "gxor_operator",
    "haar_average",
    "haar_random_state",
    "max_confidence",
    "partial_trace",
    "reconstruction_unitaries",
    "run_exact",
    "separation_filter",
    "symmetric_basis",
    "symmetric_dimension",
    "symmetric_states",
    "usd_failure_states",
    "usd_kraus",
]
