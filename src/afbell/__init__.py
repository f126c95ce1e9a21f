"""Alignment-free Bell test: exact verification, Monte Carlo sampling, LHV audit.

States and measurements are held as arrays only: the invariant pairs are
the rows of qstate._pair, and F's and G's projectors experiment._PROJECTORS.
"""

__version__ = "0.2.0"

from .observables import LocalProtocol, local_protocol_for
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
    "LocalProtocol", "local_protocol_for",
    "split_seed",
    "TrialLog", "count_trials", "epr_audit", "exact_behavior", "run_trials",
    "Constraint", "FeasibilityCertificate", "Strategy", "check_feasibility",
    "max_hardy_fraction", "quantum_constraints", "verify_certificate",
]
