"""The invariant 4-qubit pairs and the 8-qubit source state, as arrays.

Basis convention: qubit 1 is the most significant bit, so the 4-qubit ket
|0101> sits at index 5 and kets read left to right exactly as written.
All amplitudes are complex128.  The invariant states are stated once, as
integer kets K with one scale 1/sqrt(n) each, and their float amplitudes,
the rows of _pair, are derived from those integers.  The source state is
stated once too, as an integer expansion over the kets; its exact Born
tables, integer squares over 112 n_a n_b in one (4, 2, 2) array by basis
pair, and its one float table are derived from that.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SQRT7 = math.sqrt(7.0)

# The invariant pair, the one statement of the four states' amplitudes: phi_j
# is an integer vector over the kets times 1/sqrt(n_j), so phi0 is 1/2 and phi1
# 1/(2 sqrt3) times its integers (sqrt(12) rounds to exactly 2 sqrt(3)).  Both
# have total spin zero and together span the singlet sector reachable by fixed
# local measurements; (psi0, psi1) is the pair with qubits 2 and 3 exchanged.
_PHI_KETS: tuple[tuple[int, dict[str, int]], ...] = (
    (4, {"0101": 1, "0110": -1, "1001": -1, "1010": 1}),
    (12, {"0011": 2, "0101": -1, "0110": -1, "1001": -1, "1010": -1, "1100": 2}),
)
_NORMS = tuple(n for n, _ in _PHI_KETS)
_phi = np.array([[terms.get(format(i, "04b"), 0) for i in range(16)] for _, terms in _PHI_KETS])
# Read-only (2, 16) integer vectors per basis, row j for pair member j.
INTEGER_KETS: dict[str, np.ndarray] = {
    "phi": _phi, "psi": _phi.reshape(2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(2, 16)}
for _ints in INTEGER_KETS.values():
    _ints.setflags(write=False)
_SCALES = 1.0 / np.sqrt(_NORMS)[:, None]


def _pair(basis: str) -> np.ndarray:
    """(2, 16) complex amplitudes of the 'phi' or 'psi' pair, row j for member j."""
    if basis not in INTEGER_KETS:
        raise ValueError(f"unknown basis {basis!r} (expected 'phi' or 'psi')")
    return INTEGER_KETS[basis] * _SCALES + 0j


# The source state eta is stated once, as its expansion E over the pair's
# integer kets: eta = (K0 K0 + K0 K1 + K1 K0)/(4 sqrt7), which is
# (|phi0 phi0> + sqrt3 |phi0 phi1> + sqrt3 |phi1 phi0>)/sqrt7 since phi0 = K0/2
# and phi1 = K1/(2 sqrt3).  So <x_a y_b|eta> = A[a, b]/(4 sqrt(7 n_a n_b)) with
# the integers A = (K_x K_phi^T) E (K_phi K_y^T), one matrix per pair of bases.
_E = np.array([[1, 1], [1, 0]])
_ETA_AMPS: dict[tuple[str, str], np.ndarray] = {
    (x, y): INTEGER_KETS[x] @ _phi.T @ _E @ _phi @ INTEGER_KETS[y].T
    for x in INTEGER_KETS for y in INTEGER_KETS
}

# The one float of eta: its (phi, phi) expansion, which the sampler reads.
ETA_PHI_PHI = _E * np.sqrt(np.outer(_NORMS, _NORMS)) / (4 * SQRT7)

# Exact Born probabilities |<x_a y_b|eta>|^2 = A[a, b]^2/(112 n_a n_b) as
# Fractions of Python ints: one read-only (4, 2, 2) array, indexed by the pair
# code 2 x + y of Alice's and Bob's bases (phi 0, psi 1), then by the pair
# members a and b (index 0 is x_0, index 1 is x_1).
ETA_BORN_TABLES = np.array([
    [[Fraction(int(c) ** 2, 112 * m * n) for c, n in zip(row, _NORMS)]
     for row, m in zip(a, _NORMS)]
    for a in _ETA_AMPS.values()], dtype=object)
ETA_BORN_TABLES.setflags(write=False)
