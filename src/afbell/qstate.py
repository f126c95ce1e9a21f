"""The invariant 4-qubit pairs and the 8-qubit source state, as arrays.

Basis convention: qubit 1 is the most significant bit, so the 4-qubit ket
|0101> sits at index 5 and kets read left to right exactly as written.
All amplitudes are complex128.  The invariant pairs are stated once, as
integer kets K with one scale 1/sqrt(n) each, held by setting code (F 0
reads phi, G 1 reads psi) in INTEGER_KETS; their float amplitudes, PAIRS,
are derived from those integers.  The source state is stated once too, as
an integer expansion over the kets; its exact Born tables, integer squares
over 112 n_a n_b in one (4, 2, 2) array by pair code, and its one float
table are derived from that.
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
# Read-only (2, 2, 16) integer kets by setting code (F 0 reads phi, G 1 reads
# psi), then pair member j, and their complex amplitudes, member j scaled by
# 1/sqrt(n_j).
INTEGER_KETS = np.array([_phi, _phi.reshape(2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(2, 16)])
PAIRS = INTEGER_KETS * (1.0 / np.sqrt(_NORMS)[:, None]) + 0j
INTEGER_KETS.setflags(write=False)
PAIRS.setflags(write=False)

# The source state eta is stated once, as its expansion E over the pair's
# integer kets: eta = (K0 K0 + K0 K1 + K1 K0)/(4 sqrt7), which is
# (|phi0 phi0> + sqrt3 |phi0 phi1> + sqrt3 |phi1 phi0>)/sqrt7 since phi0 = K0/2
# and phi1 = K1/(2 sqrt3).  So <x_a y_b|eta> = A[a, b]/(4 sqrt(7 n_a n_b)) with
# the integers A = (K_x K_phi^T) E (K_phi K_y^T), one (4, 2, 2) array by the
# pair code 2 x + y of Alice's and Bob's bases.
_E = np.array([[1, 1], [1, 0]])
_ETA_AMPS = (INTEGER_KETS[:, None] @ _phi.T @ _E @ _phi
             @ INTEGER_KETS[None].swapaxes(2, 3)).reshape(4, 2, 2)

# The one float of eta: its (phi, phi) expansion, which the sampler reads.
ETA_PHI_PHI = _E * np.sqrt(np.outer(_NORMS, _NORMS)) / (4 * SQRT7)

# Exact Born probabilities |<x_a y_b|eta>|^2 = A[a, b]^2/(112 n_a n_b) as
# Fractions of Python ints: one read-only (4, 2, 2) array, indexed by the pair
# code 2 x + y of Alice's and Bob's bases (phi 0, psi 1), then by the pair
# members a and b (index 0 is x_0, index 1 is x_1).
ETA_BORN_TABLES = np.array([
    [[Fraction(int(c) ** 2, 112 * m * n) for c, n in zip(row, _NORMS)]
     for row, m in zip(a, _NORMS)]
    for a in _ETA_AMPS], dtype=object)
ETA_BORN_TABLES.setflags(write=False)
