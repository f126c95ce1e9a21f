"""Alignment-free Bell test: exact verification, Monte Carlo sampling, LHV audit."""

__version__ = "0.2.0"

from .qstate import (
    StateVector,
    build_eta,
    build_phi,
    build_psi,
    expand_eta_in,
    inner_product,
)
from .observables import (
    PVM,
    LocalProtocol,
    build_F,
    build_G,
    local_protocol_for,
)
from .rotations import CollectiveRotation, split_seed
from .experiment import (
    ExactBehavior,
    JointStats,
    Setting,
    SetupRotations,
    TrialLog,
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
    "StateVector", "build_eta", "build_phi", "build_psi", "expand_eta_in",
    "inner_product",
    "PVM", "LocalProtocol", "build_F", "build_G", "local_protocol_for",
    "CollectiveRotation", "split_seed",
    "ExactBehavior", "JointStats", "Setting", "SetupRotations", "TrialLog",
    "epr_audit", "exact_behavior", "run_trials",
    "Constraint", "FeasibilityCertificate", "Strategy", "check_feasibility",
    "max_hardy_fraction", "quantum_constraints", "verify_certificate",
]
