"""Dense state vectors over small qubit registers and the named entangled states.

Basis convention: qubit 1 is the most significant bit, so the 4-qubit ket
|0101> sits at index 5 and kets read left to right exactly as written.
All amplitudes are stored as complex128.  The invariant states are stated once,
as integer kets with one scale 1/sqrt(n) each, and their float amplitudes and
exact basis change are derived from those integers.  The source state is stated
once too, as its exact (phi, phi) expansion; its other expansions, its exact
Born tables and its one float table are derived from that.  States are
immutable after construction and hold at most MAX_QUBITS = 8 qubits, the size
of the source state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)

# Dense storage grows as 2^n; the 8-qubit source state is the largest register.
MAX_QUBITS = 8


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


# The invariant pair, the one statement of the four states' amplitudes: phi_j
# is an integer vector over the kets times 1/sqrt(n_j), so phi0 is 1/2 and phi1
# 1/(2 sqrt3) times its integers (sqrt(12) rounds to exactly 2 sqrt(3)).  Both
# have total spin zero and together span the singlet sector reachable by fixed
# local measurements; (psi0, psi1) is the pair with qubits 2 and 3 exchanged.
_PHI_KETS: tuple[tuple[int, dict[str, int]], ...] = (
    (4, {"0101": 1, "0110": -1, "1001": -1, "1010": 1}),
    (12, {"0011": 2, "0101": -1, "0110": -1, "1001": -1, "1010": -1, "1100": 2}),
)
_phi = np.array([[terms.get(format(i, "04b"), 0) for i in range(16)] for _, terms in _PHI_KETS])
# Read-only (2, 16) integer vectors per basis, row j for pair member j.
INTEGER_KETS: dict[str, np.ndarray] = {
    "phi": _phi, "psi": _phi.reshape(2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(2, 16)}
for _ints in INTEGER_KETS.values():
    _ints.setflags(write=False)
_SCALES = np.array([1.0 / math.sqrt(n) for n, _ in _PHI_KETS])[:, None]


def _pair(basis: str) -> np.ndarray:
    """(2, 16) complex amplitudes of the 'phi' or 'psi' pair, row j for member j."""
    if basis not in INTEGER_KETS:
        raise ValueError(f"unknown basis {basis!r} (expected 'phi' or 'psi')")
    return INTEGER_KETS[basis] * _SCALES + 0j


def _build(basis: str, j: int) -> StateVector:
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    return StateVector(4, _pair(basis)[j])


def build_phi(j: int) -> StateVector:
    """The j-th collectively invariant 4-qubit state (j in {0, 1})."""
    return _build("phi", j)


def build_psi(j: int) -> StateVector:
    """build_phi(j) with qubits 2 and 3 exchanged (j in {0, 1})."""
    return _build("psi", j)


# Matrices over Q(sqrt3) are pairs (rational part, sqrt3 part) of Fraction arrays.
_rational = np.vectorize(Fraction, otypes=[object])


def _mul(x: tuple, y: tuple) -> tuple:
    return x[0] @ y[0] + 3 * x[1] @ y[1], x[0] @ y[1] + x[1] @ y[0]


def _real(x: tuple) -> np.ndarray:
    return x[0].astype(float) + SQRT3 * x[1].astype(float)


def _inv_sqrt(n: int) -> tuple[Fraction, Fraction]:
    """1/sqrt(n) over Q(sqrt3): 1/m for n = m^2, sqrt3/k for n = k^2/3."""
    m, k = math.isqrt(n), math.isqrt(3 * n)
    assert n == m * m or 3 * n == k * k, f"1/sqrt({n}) is not in Q(sqrt3)"
    return (Fraction(1, m), Fraction(0)) if n == m * m else (Fraction(0), Fraction(1, k))


# The source state eta is stated once, as its (phi, phi) expansion E times
# sqrt7: eta = (|phi0 phi0> + sqrt3 |phi0 phi1> + sqrt3 |phi1 phi0>)/sqrt7.  Its
# other expansions follow from the invariant pair.  The basis change
# B[i][j] = <phi_i|psi_j> is the pair's integer Gram matrix [[2, 6], [6, -6]]
# times the two scales.  B is symmetric, so <psi_i phi_j|eta> = (B E)[i][j] and
# <phi_i psi_j|eta> = (E B)[i][j].
_ETA_PHI_PHI = (_rational([[1, 0], [0, 0]]), _rational([[0, 1], [1, 0]]))
_GRAM = INTEGER_KETS["phi"] @ INTEGER_KETS["psi"].T
_scale = [np.array(p, dtype=object)[:, None] for p in zip(*(_inv_sqrt(n) for n, _ in _PHI_KETS))]
_BASIS_CHANGE = tuple(_GRAM * part for part in _mul(_scale, [part.T for part in _scale]))
_ETA_EXACT = {
    ("phi", "phi"): _ETA_PHI_PHI,
    ("phi", "psi"): _mul(_ETA_PHI_PHI, _BASIS_CHANGE),
    ("psi", "phi"): _mul(_BASIS_CHANGE, _ETA_PHI_PHI),
    ("psi", "psi"): _mul(_mul(_BASIS_CHANGE, _ETA_PHI_PHI), _BASIS_CHANGE),
}
# Every coefficient is purely rational or purely sqrt3 times a rational, so |c|^2 is rational.
assert all(np.all(a * b == 0) for a, b in _ETA_EXACT.values()), "a coefficient mixes 1 and sqrt3"

# The one float of eta: its (phi, phi) expansion, which the sampler reads.
ETA_PHI_PHI = _real(_ETA_PHI_PHI) / SQRT7

# Exact Born probabilities |<x_a y_b|eta>|^2 as Fractions, one table per (Alice
# basis, Bob basis); index 0 is the pair member x_0, index 1 is x_1.
ETA_BORN_TABLES: dict[tuple[str, str], np.ndarray] = {
    k: (a * a + 3 * b * b) / 7 for k, (a, b) in _ETA_EXACT.items()
}
