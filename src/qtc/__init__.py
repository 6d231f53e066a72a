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
    apply,
    basis_state,
    fidelity,
    haar_random_state,
    measure_projective,
    partial_trace,
    tensor,
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
    gxor,
    gxor_operator,
    reconstruction_unitaries,
    symmetric_states,
)
from .discrimination import (
    KrausPair,
    RankDeficientChannelError,
    Strategy,
    max_confidence,
    min_error_measurement,
    separation_filter,
    usd_failure_states,
    usd_kraus,
    usd_unitary,
)
from .protocol import (
    BranchResult,
    HaarSpec,
    ProtocolConfig,
    RunReport,
    clone_marginal,
    compare_to_formulas,
    haar_average,
    monte_carlo,
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
    "apply",
    "basis_state",
    "bell_state",
    "channel_bell_state",
    "channel_state",
    "clone_basis",
    "clone_marginal",
    "compare_to_formulas",
    "fidelity",
    "formulas",
    "fourier",
    "gxor",
    "gxor_operator",
    "haar_average",
    "haar_random_state",
    "max_confidence",
    "measure_projective",
    "min_error_measurement",
    "monte_carlo",
    "partial_trace",
    "reconstruction_unitaries",
    "run_exact",
    "separation_filter",
    "symmetric_basis",
    "symmetric_dimension",
    "symmetric_states",
    "tensor",
    "usd_failure_states",
    "usd_kraus",
    "usd_unitary",
]
