"""Alignment-free Bell test: exact verification, Monte Carlo sampling, LHV audit."""

__version__ = "0.2.0"

from .qstate import StateVector, build_phi, build_psi
from .observables import (
    PVM,
    LocalProtocol,
    build_F,
    build_G,
    local_protocol_for,
)
from .rotations import split_seed
from .experiment import (
    TrialLog,
    count_trials,
    epr_audit,
    exact_behavior,
    run_trials,
)
from .lhv import (
    Constraint,
    FeasibilityCertificate,
    Strategy,
    check_feasibility,
    max_hardy_fraction,
    quantum_constraints,
    verify_certificate,
)

__all__ = [
    "__version__",
    "StateVector", "build_phi", "build_psi",
    "PVM", "LocalProtocol", "build_F", "build_G", "local_protocol_for",
    "split_seed",
    "TrialLog", "count_trials", "epr_audit", "exact_behavior", "run_trials",
    "Constraint", "FeasibilityCertificate", "Strategy", "check_feasibility",
    "max_hardy_fraction", "quantum_constraints", "verify_certificate",
]
