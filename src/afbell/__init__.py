"""Alignment-free Bell test: exact verification, Monte Carlo sampling, LHV audit.

States and measurements are held as arrays only, indexed by setting code
(F 0 reads phi, G 1 reads psi): the invariant pairs are qstate.PAIRS, F's
and G's projectors experiment._PROJECTORS, and the single-qubit protocol
observables.PROTOCOL_ROWS and PROTOCOL_LABELS.  There is no measurement class.
"""

__version__ = "0.2.0"

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
    "split_seed",
    "TrialLog", "count_trials", "epr_audit", "exact_behavior", "run_trials",
    "Constraint", "FeasibilityCertificate", "Strategy", "check_feasibility",
    "max_hardy_fraction", "quantum_constraints", "verify_certificate",
]
