"""The single-qubit protocol that measures the collective observables F and G.

F and G each distinguish a pair of invariant 4-qubit states with outcomes -1
and +1; their complete bases, whose other 14 rows carry the label 0, are
experiment._PVM_BASES.  The same discrimination can be done with fixed
single-qubit measurements: two qubits along z, two along x, and a parity
classifier over the 16 outcome strings.  The protocol is three read-only
arrays by setting code (F 0, G 1), row i for the outcome string of i's four
bits, qubit 1 first: PROTOCOL_ROWS, the product eigenbasis; its integer rows
PROTOCOL_INTEGER_ROWS, twice PROTOCOL_ROWS, so `verify` can prove it
exactly; and PROTOCOL_LABELS, the classifier.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Per-axis eigenbases as (squared norm n, integer rows), each row 1/sqrt(n)
# times its integers, one row per recorded bit: the +1 eigenvector of sigma_x
# is bit 0, the -1 eigenvector is bit 1 (mirroring the z-basis convention).
_AXIS_BASES: dict[str, tuple[int, np.ndarray]] = {
    "z": (1, np.eye(2, dtype=int)),
    "x": (2, np.array([[1, 1], [1, -1]])),
}

# Each setting's axes, qubit 1 first: G is F with qubits 2 and 3 exchanged.
_AXES = ("zzxx", "zxzx")

# Scaled in complex before the kron, which fixes the signed zeros.
PROTOCOL_ROWS = np.array([
    functools.reduce(np.kron, (rows * (1.0 / math.sqrt(n)) + 0j
                               for n, rows in map(_AXIS_BASES.get, axes)))
    for axes in _AXES])
PROTOCOL_INTEGER_ROWS = np.array([
    functools.reduce(np.kron, (_AXIS_BASES[a][1] for a in axes)) for axes in _AXES])

# A string is labelled -1 exactly when its two z bits differ and its two x
# bits differ, each pair's sum odd: 4 strings on -1, 12 on +1, per setting.
_BITS = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1
PROTOCOL_LABELS = np.array([
    1 - 2 * np.prod([_BITS[:, [a == t for a in axes]].sum(axis=1) % 2 for t in "zx"], axis=0)
    for axes in _AXES], dtype=np.int8)

for _arr in (PROTOCOL_ROWS, PROTOCOL_INTEGER_ROWS, PROTOCOL_LABELS):
    _arr.setflags(write=False)
