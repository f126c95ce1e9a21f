"""The single-qubit protocol that measures the collective observables F and G.

F and G each distinguish a pair of invariant 4-qubit states with outcomes -1
and +1; their projectors, with the rank-14 rest that carries the label 0, are
experiment._PROJECTORS.  The same discrimination can be done with fixed
single-qubit measurements: two qubits along z, two along x, and a parity
classifier over the 16 outcome strings, with integer axis bases so `verify`
can prove it exactly.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

# Per-axis eigenbases as (squared norm n, integer rows), each row 1/sqrt(n)
# times its integers, one row per recorded bit: the +1 eigenvector of sigma_x
# is bit 0, the -1 eigenvector is bit 1 (mirroring the z-basis convention).
_AXIS_BASES: dict[str, tuple[int, np.ndarray]] = {
    "z": (1, np.eye(2, dtype=int)),
    "x": (2, np.array([[1, 1], [1, -1]])),
}

ALL_STRINGS = tuple(format(i, "04b") for i in range(16))


@dataclass(frozen=True)
class LocalProtocol:
    """Fixed per-qubit measurement axes plus a total outcome classifier.

    Construction also fixes the protocol's read-only product eigenbasis,
    ``eigenvectors`` (row i is the eigenvector of outcome string
    ALL_STRINGS[i]), its integer rows ``integer_eigenvectors`` (twice
    eigenvectors), and ``labels`` (int8, labels[i] = classifier[ALL_STRINGS[i]]).
    """

    axes: tuple[str, str, str, str]
    classifier: Mapping[str, int]
    eigenvectors: np.ndarray = field(init=False, compare=False, repr=False)
    integer_eigenvectors: np.ndarray = field(init=False, compare=False, repr=False)
    labels: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if sorted(self.axes) != ["x", "x", "z", "z"]:
            raise ValueError(f"axes must contain two z and two x tags, got {self.axes}")
        if set(self.classifier) != set(ALL_STRINGS):
            raise ValueError("classifier must be total on all 16 outcome strings")
        if any(v not in (-1, +1) for v in self.classifier.values()):
            raise ValueError("classifier labels must be -1 or +1")
        bases = [_AXIS_BASES[a] for a in self.axes]
        # Scaled in complex before the kron, which fixes the signed zeros.
        vecs = functools.reduce(np.kron, (rows * (1.0 / math.sqrt(n)) + 0j for n, rows in bases))
        ints = functools.reduce(np.kron, (rows for _, rows in bases))
        labels = np.array([self.classifier[s] for s in ALL_STRINGS], dtype=np.int8)
        for name, arr in zip(("eigenvectors", "integer_eigenvectors", "labels"),
                             (vecs, ints, labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def classifier_json(self) -> str:
        """Classifier table as JSON (outcome string -> label), sorted by string."""
        return json.dumps({s: self.classifier[s] for s in ALL_STRINGS})


def _f_classifier(bits: str) -> int:
    # The four strings with differing z bits and differing x bits flag phi0.
    return -1 if (bits[0] != bits[1] and bits[2] != bits[3]) else +1


_PROTOCOLS = {
    "F": LocalProtocol(("z", "z", "x", "x"), {s: _f_classifier(s) for s in ALL_STRINGS}),
    # Same construction conjugated by the qubit 2 <-> 3 exchange.
    "G": LocalProtocol(("z", "x", "z", "x"),
                       {s: _f_classifier(s[0] + s[2] + s[1] + s[3]) for s in ALL_STRINGS}),
}


def local_protocol_for(setting: str) -> LocalProtocol:
    """Protocol measuring F (z on qubits 1,2; x on 3,4) or G (qubits 2,3 swapped)."""
    if setting not in _PROTOCOLS:
        raise ValueError(f"setting must be 'F' or 'G', got {setting!r}")
    return _PROTOCOLS[setting]

