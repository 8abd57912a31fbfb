"""Teleportation-like circuits read as one qubit running with and against the
observer's clock, checked against a tensor-product simulator, plus an
idealized NMR spin-dynamics engine."""

from .linalg import (
    ATOL,
    bell_state,
    basis_state,
    conjugate,
    dagger,
    equal_up_to_global_phase,
    is_unitary,
    kron,
    partial_trace,
    projector,
    transpose,
)
from .reversal import (
    Encoding,
    amplitude_matrix,
    backward_state,
    canonical_pair,
    conjugation_sign,
    is_maximally_entangled,
    local_frame_gate,
    photon_number,
    spin_half,
    state_of_matrix,
    time_reverse_gate,
    time_reverse_state,
    transfer_matrix,
)
from .circuits import (
    GateCircuit,
    NonmaxReport,
    OutcomeReport,
    TeleportCircuit,
    acausal_experiment,
    forward_oracle,
    nonmax_loss,
    run_gate_circuit,
    timeflow_eval,
    timeflow_trace,
)
from .nmr import (
    SpinSystem,
    Spectrum,
    acausality_sequence,
    build_hamiltonian,
    evolve,
    fid,
    gradient_crush,
    pauli_decompose,
    pseudopure_init,
    run_sequence,
    spectral_overlap,
    spectrum,
)

__version__ = "0.1.0"
