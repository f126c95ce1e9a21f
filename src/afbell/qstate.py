"""Dense state vectors over small qubit registers and the named entangled states.

Basis convention: qubit 1 is the most significant bit, so the 4-qubit ket
|0101> sits at index 5 and kets read left to right exactly as written.
All amplitudes are stored as complex128; exact values such as 1/(2*sqrt(3))
are built from closed-form expressions so that 1e-12 tolerances stay
meaningful.  States are immutable after construction and hold at most
MAX_QUBITS = 8 qubits, the size of the source state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)

NORM_TOL = 1e-12

# Dense storage grows as 2^n; the 8-qubit source state is the largest register.
MAX_QUBITS = 8


def basis_index(bits: str) -> int:
    """Index of the computational basis ket written as a bit string."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    return int(bits, 2)


@dataclass(frozen=True)
class StateVector:
    """Immutable dense amplitude vector over an n-qubit register."""

    num_qubits: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"num_qubits must be in 1..{MAX_QUBITS}, got {self.num_qubits}"
            )
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the basis ket labelled by a bit string."""
        if len(bits) != self.num_qubits:
            raise ValueError(f"label {bits!r} has wrong length for {self.num_qubits} qubits")
        return complex(self.amps[basis_index(bits)])


def from_terms(num_qubits: int, terms: dict[str, complex]) -> StateVector:
    """Build a state from a {bit string: amplitude} table (no normalization)."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    for bits, amp in terms.items():
        if len(bits) != num_qubits:
            raise ValueError(f"label {bits!r} has wrong length for {num_qubits} qubits")
        amps[basis_index(bits)] += amp
    return StateVector(num_qubits, amps)


def basis_state(num_qubits: int, bits: str) -> StateVector:
    """Computational basis ket |bits>."""
    return from_terms(num_qubits, {bits: 1.0})


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's qubits become the most significant ones."""
    n = a.num_qubits + b.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(
            f"tensor product would need {n} qubits, above the cap of {MAX_QUBITS}"
        )
    return StateVector(n, np.kron(a.amps, b.amps))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return complex(np.vdot(a.amps, b.amps))


def distance(a: StateVector, b: StateVector) -> float:
    """Euclidean norm of the amplitude difference."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(a.amps - b.amps))


def permute_qubits(state: StateVector, order: tuple[int, ...]) -> StateVector:
    """Reorder qubits; order[k] is the 1-based source qubit for target slot k+1."""
    n = state.num_qubits
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}, got {order}")
    cube = state.amps.reshape((2,) * n)
    return StateVector(n, cube.transpose([q - 1 for q in order]).reshape(-1))


def swap_qubits_2_3(state: StateVector) -> StateVector:
    """Exchange qubits 2 and 3 of a 4-qubit state."""
    if state.num_qubits != 4:
        raise ValueError("swap_qubits_2_3 expects a 4-qubit state")
    return permute_qubits(state, (1, 3, 2, 4))


# Amplitude tables of the four invariant 4-qubit states.  Each is a total-spin
# zero combination: the pair (phi0, phi1) spans the two-dimensional singlet
# sector reachable by fixed local measurements, and (psi0, psi1) is the same
# pair with qubits 2 and 3 exchanged.
_HALF = 0.5
_SIXTH = 1.0 / (2.0 * SQRT3)

_PHI_TERMS: dict[int, dict[str, float]] = {
    0: {"0101": _HALF, "0110": -_HALF, "1001": -_HALF, "1010": _HALF},
    1: {
        "0011": 2 * _SIXTH,
        "0101": -_SIXTH,
        "0110": -_SIXTH,
        "1001": -_SIXTH,
        "1010": -_SIXTH,
        "1100": 2 * _SIXTH,
    },
}

_PSI_TERMS: dict[int, dict[str, float]] = {
    0: {"0011": _HALF, "0110": -_HALF, "1001": -_HALF, "1100": _HALF},
    1: {
        "0011": -_SIXTH,
        "0101": 2 * _SIXTH,
        "0110": -_SIXTH,
        "1001": -_SIXTH,
        "1010": 2 * _SIXTH,
        "1100": -_SIXTH,
    },
}


def build_phi(j: int) -> StateVector:
    """The j-th collectively invariant 4-qubit state (j in {0, 1})."""
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    return from_terms(4, _PHI_TERMS[j])


def build_psi(j: int) -> StateVector:
    """build_phi(j) with qubits 2 and 3 exchanged (j in {0, 1})."""
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    return from_terms(4, _PSI_TERMS[j])


def build_eta() -> StateVector:
    """The 8-qubit source state (|phi0 phi0> + sqrt3 |phi0 phi1> + sqrt3 |phi1 phi0>)/sqrt7."""
    phi0, phi1 = build_phi(0), build_phi(1)
    amps = (
        np.kron(phi0.amps, phi0.amps)
        + SQRT3 * np.kron(phi0.amps, phi1.amps)
        + SQRT3 * np.kron(phi1.amps, phi0.amps)
    ) / SQRT7
    return StateVector(8, amps)


def _basis_pair(name: str) -> tuple[StateVector, StateVector]:
    if name == "phi":
        return build_phi(0), build_phi(1)
    if name == "psi":
        return build_psi(0), build_psi(1)
    raise ValueError(f"unknown basis {name!r} (expected 'phi' or 'psi')")


def expand_eta_in(basis_a: str, basis_b: str) -> np.ndarray:
    """2x2 table of <x_a y_b|eta> for the chosen per-side bases ('phi' or 'psi')."""
    av = np.array([s.amps for s in _basis_pair(basis_a)])
    bv = np.array([s.amps for s in _basis_pair(basis_b)])
    grid = build_eta().amps.reshape(16, 16)
    return av.conj() @ grid @ bv.conj().T


# Closed-form two-sided expansion coefficients of the source state, one table
# per (Alice basis, Bob basis).  expand_eta_in must reproduce these, and
# reassembling the 8-qubit vector from any table must reproduce build_eta().
ETA_EXPANSION_TABLES: dict[tuple[str, str], np.ndarray] = {
    ("phi", "phi"): np.array([[1.0, SQRT3], [SQRT3, 0.0]]) / SQRT7,
    ("phi", "psi"): np.array([[4.0, 0.0], [SQRT3, 3.0]]) / (2.0 * SQRT7),
    ("psi", "phi"): np.array([[4.0, SQRT3], [0.0, 3.0]]) / (2.0 * SQRT7),
    ("psi", "psi"): np.array([[7.0, 3.0 * SQRT3], [3.0 * SQRT3, -3.0]]) / (4.0 * SQRT7),
}


def eta_from_table(basis_a: str, basis_b: str, table: np.ndarray) -> StateVector:
    """Assemble an 8-qubit state as sum_ab table[a,b] |x_a> (x) |y_b>."""
    av = np.array([s.amps for s in _basis_pair(basis_a)])
    bv = np.array([s.amps for s in _basis_pair(basis_b)])
    return StateVector(8, (av.T @ table @ bv).reshape(256))
