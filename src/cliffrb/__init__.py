"""Clifford-group computation and randomized-benchmarking toolkit."""

from .pauli import PauliChannel, PauliOperator, pauli_commutes, pauli_multiply, pauli_support
from .clifford import (
    CliffordTableau,
    GateSequence,
    clifford_apply,
    clifford_compose,
    clifford_inverse,
    enumerate_group,
    group_order,
    pauli_tableau,
    sample_uniform,
)
from .gates import GateSet, find_mapping, get_gate, sequence_tableau, standard_gate_set
from .stabilizer import (StabilizerState, apply_clifford, measure_pauli, measure_z,
                         reduce_gssf, zero_state)
from .errors import ErrorModel, expected_sequence_fidelity
from .dense import DenseSuperoperator, depolarization_strength, gate_fidelity, group_twirl
from .subgroups import q_subgroup, t_subgroup, verify_twirl_set
from .decomp import DecompositionTable, block_decompose, cayley_search, translate_sequence
from .protocol import (
    ExperimentDesign,
    RBDataset,
    RBSequence,
    gen_exact_sequence,
    gen_interleaved_sequence,
    run_experiment,
)
from .analysis import (
    BootstrapReport,
    FitReport,
    bootstrap,
    consistency_check,
    embed_depolarizing,
    fit,
    interleaved_gate_error,
    length_statistics,
)
from .bounds import (
    GroupDistribution,
    convolve_steps,
    kappa_bounds,
    step_comparison_bound,
    total_variation,
)

__all__ = [
    "PauliChannel",
    "PauliOperator",
    "pauli_commutes",
    "pauli_multiply",
    "pauli_support",
    "CliffordTableau",
    "GateSequence",
    "clifford_apply",
    "clifford_compose",
    "clifford_inverse",
    "enumerate_group",
    "find_mapping",
    "group_order",
    "pauli_tableau",
    "sample_uniform",
    "GateSet",
    "get_gate",
    "sequence_tableau",
    "standard_gate_set",
    "StabilizerState",
    "apply_clifford",
    "measure_pauli",
    "measure_z",
    "reduce_gssf",
    "zero_state",
    "ErrorModel",
    "expected_sequence_fidelity",
    "DenseSuperoperator",
    "depolarization_strength",
    "gate_fidelity",
    "group_twirl",
    "q_subgroup",
    "t_subgroup",
    "verify_twirl_set",
    "DecompositionTable",
    "block_decompose",
    "cayley_search",
    "translate_sequence",
    "ExperimentDesign",
    "RBDataset",
    "RBSequence",
    "gen_exact_sequence",
    "gen_interleaved_sequence",
    "run_experiment",
    "BootstrapReport",
    "FitReport",
    "bootstrap",
    "consistency_check",
    "embed_depolarizing",
    "fit",
    "interleaved_gate_error",
    "length_statistics",
    "GroupDistribution",
    "convolve_steps",
    "kappa_bounds",
    "step_comparison_bound",
    "total_variation",
]

__version__ = "0.1.0"
