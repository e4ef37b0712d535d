"""Qubit transfer between an atom and a cavity field as quantum channels.

The package models the excitation exchange of a two-level atom with a
single truncated field mode, extracts the resulting one-amplitude qubit
channels (conversion, fiber loss, concatenated links, decaying variants),
classifies their degradability and evaluates their single-letter quantum
capacity.  Every closed form is cross-checked against an independent
brute-force oracle; see the verify module and the test suite.
"""

from types import ModuleType as _ModuleType

from .capacity import (CapacityResult, DegradabilityStatus, NotDegradable, capacity_grid_oracle, classify,
                       coherent_information, coherent_information_diagonal, degrading_channel, degrading_map,
                       golden_section_max, quantum_capacity)
from .channels import (LossChannel, TransferChannel, compose, concatenate, conversion_channel, extended_apply,
                       extended_state, reception_channel)
from .jc import (JCParams, channel_output, evolve_joint, hamiltonian, joint_unitary, kraus_operators,
                 reception_residual_amplitude, residual_amplitude, transfer_amplitude)
from .lindblad import (DecayConstants, DecayedConversion, DecayParams, StepFailure, closed_form_state,
                       decay_degradability, decayed_conversion, degradability_expression, derive_constants,
                       integrate_master_equation, oracle_grid)
from .qmat import (DimensionError, DomainError, NonHermitianInput, QubitInput, binary_entropy, check_state,
                   hermitian_eigenvalues, partial_trace, trace_distance, von_neumann_entropy)
from .verify import VerifyReport, expm_taylor, run_verify

__version__ = "0.1.0"

# every name imported above; the submodules they come from are not exports
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
