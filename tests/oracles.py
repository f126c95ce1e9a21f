"""Brute-force oracles used to freeze expected values, independent of afbell.

States are plain {bit string: amplitude} dicts and all arithmetic is scalar
Python, so these never share a code path with the library under test.
``rotate_pvm`` is the dense reference for rotated measurements: it builds the
full 16x16 four-fold power with np.kron instead of the library's kernel.
"""

import functools
import math

import numpy as np

from afbell.observables import PVM

SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)

PHI0 = {"0101": 0.5, "0110": -0.5, "1001": -0.5, "1010": 0.5}
PHI1 = {
    "0011": 1.0 / SQRT3,
    "0101": -0.5 / SQRT3,
    "0110": -0.5 / SQRT3,
    "1001": -0.5 / SQRT3,
    "1010": -0.5 / SQRT3,
    "1100": 1.0 / SQRT3,
}
PSI0 = {"0011": 0.5, "0110": -0.5, "1001": -0.5, "1100": 0.5}
PSI1 = {
    "0011": -0.5 / SQRT3,
    "0101": 1.0 / SQRT3,
    "0110": -0.5 / SQRT3,
    "1001": -0.5 / SQRT3,
    "1010": 1.0 / SQRT3,
    "1100": -0.5 / SQRT3,
}


def dict_scale(a, factor):
    return {k: factor * v for k, v in a.items()}


def dict_add(*terms):
    out = {}
    for t in terms:
        for k, v in t.items():
            out[k] = out.get(k, 0.0) + v
    return out


def dict_kron(a, b):
    return {ka + kb: va * vb for ka, va in a.items() for kb, vb in b.items()}


def dict_inner(a, b):
    """<a|b> for real-amplitude ket dicts."""
    return sum(v * b.get(k, 0.0) for k, v in a.items())


def dict_norm(a):
    return math.sqrt(sum(v * v for v in a.values()))


ETA = dict_scale(
    dict_add(
        dict_kron(PHI0, PHI0),
        dict_scale(dict_kron(PHI0, PHI1), SQRT3),
        dict_scale(dict_kron(PHI1, PHI0), SQRT3),
    ),
    1.0 / SQRT7,
)


def rotate_pvm(r, m):
    """Conjugate every projector of a 16-dim PVM by R = U (x) U (x) U (x) U."""
    big = functools.reduce(np.kron, [r.u] * 4)
    return PVM(tuple((label, big @ proj @ big.conj().T) for label, proj in m.outcomes))
