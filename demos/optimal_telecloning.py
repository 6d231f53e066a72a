"""
Optimal telecloning over a maximally entangled channel
======================================================

One unknown qudit goes in; M approximate clones come out at the receivers,
all with the same input-independent fidelity (2M + d - 1) / (M + M d).
This script runs the exact branch-by-branch simulation and shows that every
measurement branch of every run hits that number.
"""

import numpy as np

from qtc import ProtocolConfig, clone_marginal, run_exact
from qtc.formulas import optimal_fidelity
from qtc.registers import StateVector, haar_random_state
from qtc.symmetric import Channel

rng = np.random.default_rng(7)

for d, copies in [(2, 2), (2, 3), (3, 2), (5, 2), (2, 64)]:
    # a random unknown input state; the result must not depend on it
    psi = haar_random_state(d, rng)
    config = ProtocolConfig(
        channel=Channel.maximal(d),
        copies=copies,
        input_spec=StateVector((d,), ("X",), psi.amps),
    )
    report = run_exact(config)
    fids = sorted({round(f, 12) for b in report.branches for f in b.clone_fidelities})
    print(f"d={d} M={copies}: branch fidelities {fids}, "
          f"optimum {optimal_fidelity(d, copies):.12f}")

# every clone of a qubit pair carries the textbook 5/6; its reduced state
# is a depolarized copy of the input
config = ProtocolConfig(
    channel=Channel.maximal(2),
    input_spec=StateVector((2,), ("X",), np.array([1.0, 0.0], dtype=complex)),
)
report = run_exact(config)
rho = clone_marginal(report.branch(m=0, n=0))
print("\nclone of |0> at d=2, M=2:")
print(np.array_str(rho.matrix.real, precision=6, suppress_small=True))
print(f"average fidelity {report.average_fidelity:.12f} (5/6 = {5 / 6:.12f})")
