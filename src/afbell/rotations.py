"""Haar-random SU(2) rotations applied collectively to one observer's qubits.

A physical rotation of one observer's apparatus lifts to the same single-qubit
special unitary on each of that observer's four qubits, i.e. the four-fold
Kronecker power U (x) U (x) U (x) U.  All four qubits carry the same U, so
each entry of the power is a degree-4 monomial in U's four entries, one of 35;
_monomials forms them, and it is the one evaluation of the power in the
package.  fourfold reads each matrix's 16x16 power off them; the table
kernel in experiment expands its amplitudes in the same monomials of
U^dagger.  An 8-qubit state is handled as its 16x16 amplitude grid: Alice's
qubits 1-4 index axis 0 (the rows), Bob's qubits 5-8 axis 1 (the columns),
so powers P_a and P_b rotate a grid to P_a @ grid @ P_b^T.

Determinism contract: every random draw is a pure function of a 64-bit seed.
split_seed is the one derivation of a child seed from a parent; it mixes the
parent before adding the key, so the children of nearby parents stay apart.
It gives each trial's base seed (key: the trial index), that trial's four
substreams (key: a STREAM_* tag), the four fixed-rotation setup seeds (key: a
setup tag) and verify's seeds, so results do not depend on execution order.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULT_2 = np.uint64(0x94D049BB133111EB)
_SEQ_INCREMENT = 0x9E3779B97F4A7C15

# Keys that split a trial's base seed into independent substreams.
STREAM_ALICE = 0xA5A5A5A5A11CE001
STREAM_BOB = 0x5A5A5A5A0B0B0002
STREAM_SETTINGS = 0xC3C3C3C35E770003
STREAM_OUTCOME = 0x3C3C3C3C00DE0004


def mix64_array(x: np.ndarray) -> np.ndarray:
    """64-bit mixing permutation (splitmix64 finalizer) over uint64 values."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= _MIX_MULT_1
        x ^= x >> np.uint64(27)
        x *= _MIX_MULT_2
        x ^= x >> np.uint64(31)
    return x


def _as_uint64(x: int | np.ndarray) -> np.ndarray | np.uint64:
    """x as uint64; a Python int is reduced mod 2^64 first."""
    return x.astype(np.uint64) if isinstance(x, np.ndarray) else np.uint64(int(x) & _MASK64)


def split_seed(parent: int | np.ndarray, key: int | np.ndarray) -> int | np.ndarray:
    """Child seed mix64(mix64(parent) + key * _SEQ_INCREMENT) mod 2^64, the
    splittable scheme of Steele, Lea & Flood (OOPSLA 2014).  A uint64 array
    when either argument is an array, else a Python int."""
    with np.errstate(over="ignore"):
        mixed = mix64_array(_as_uint64(parent)) + _as_uint64(key) * np.uint64(_SEQ_INCREMENT)
    child = mix64_array(mixed)
    if isinstance(parent, np.ndarray) or isinstance(key, np.ndarray):
        return child
    return int(child)


def _uniforms_batch(seeds: np.ndarray, count: int) -> np.ndarray:
    """(len(seeds), count) floats in (0, 1], one independent stream per seed."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_SEQ_INCREMENT)
    with np.errstate(over="ignore"):
        states = seeds.astype(np.uint64)[:, None] + steps[None, :]
    bits = mix64_array(states)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0**-53)


def _normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Box-Muller: (..., 4) uniforms in (0, 1] -> (..., 4) standard normals."""
    r1 = np.sqrt(-2.0 * np.log(u[..., 0]))
    r2 = np.sqrt(-2.0 * np.log(u[..., 2]))
    t1 = 2.0 * math.pi * u[..., 1]
    t2 = 2.0 * math.pi * u[..., 3]
    return np.stack(
        [r1 * np.cos(t1), r1 * np.sin(t1), r2 * np.cos(t2), r2 * np.sin(t2)], axis=-1
    )


def sample_su2_batch(seeds: np.ndarray) -> np.ndarray:
    """(n, 2, 2) Haar SU(2) matrices, each a function of its own seed only.

    Four seed-derived standard normals form a quaternion that is normalized
    onto the unit 3-sphere; the uniform measure there is the Haar measure.
    """
    u = _uniforms_batch(np.asarray(seeds, dtype=np.uint64), 4)
    q = _normals_from_uniforms(u)
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    # Unit quaternion (w, x, y, z) -> w*I - i(x*sx + y*sy + z*sz).
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((len(q), 2, 2), dtype=complex)
    out[:, 0, 0] = w - 1j * z
    out[:, 0, 1] = -y - 1j * x
    out[:, 1, 0] = y - 1j * x
    out[:, 1, 1] = w + 1j * z
    return out


# A matrix's entries e = (e00, e01, e10, e11) by index 2i + j.  _PAIRS holds
# the 10 index pairs a <= b and _MONOMIALS the 35 sorted 4-tuples
# (a, b, c, d), both in lexicographic order; tuple (a, b, c, d) is pair (a, b)
# times pair (c, d), and the pairs with c >= b run from _FIRST_PAIR[b] to the
# end.
_PAIRS = [(a, b) for a in range(4) for b in range(a, 4)]
_FIRST_PAIR = [_PAIRS.index((b, b)) for b in range(4)]
_MONOMIALS = [(a, b, c, d) for a, b in _PAIRS for c, d in _PAIRS[_FIRST_PAIR[b]:]]

# Entry (I, J) of the four-fold power is the product over qubits q of
# e[2 i_q + j_q], so it depends only on the multiset of those entry indices;
# _WORD_MONOMIAL[I, J] is that multiset's index in _MONOMIALS, matched by the
# sum of 5^index.  Built by array arithmetic to keep a Python loop over the
# 256 entries out of import time.
_WORD_BITS = (np.arange(256)[:, None] >> np.arange(7, -1, -1)) & 1
_WORD_MONOMIAL = np.argmax((5 ** (2 * _WORD_BITS[:, :4] + _WORD_BITS[:, 4:])).sum(axis=1)[:, None]
                           == (5 ** np.array(_MONOMIALS)).sum(axis=1), axis=1).reshape(16, 16)
del _WORD_BITS


def _monomials(e: np.ndarray) -> np.ndarray:
    """(35, n) degree-4 monomials of n 2x2 matrices' entries e (4, n), rows
    e00, e01, e10, e11, in the order of _MONOMIALS: the 10 pair products,
    then each monomial as a pair times a pair.  Any 2x2 matrices go through
    the same formula.  Callers pass e contiguous, so each product reads an
    entry's trials at unit stride, and make it in one expression, so no
    other copy of the matrices (such as U's conjugate) is alive here."""
    pairs = np.empty((10, e.shape[1]), e.dtype)
    for a in range(4):
        np.multiply(e[a:], e[a], out=pairs[_FIRST_PAIR[a]:_FIRST_PAIR[a] + 4 - a])
    mono = np.empty((35, e.shape[1]), e.dtype)
    lo = 0
    for i, (_, b) in enumerate(_PAIRS):
        hi = lo + 10 - _FIRST_PAIR[b]
        np.multiply(pairs[_FIRST_PAIR[b]:], pairs[i], out=mono[lo:hi])
        lo = hi
    return mono


def fourfold(u: np.ndarray) -> np.ndarray:
    """(n, 16, 16) four-fold powers U (x) U (x) U (x) U of n 2x2 matrices u
    (n, 2, 2), read off their 35 monomials through _WORD_MONOMIAL."""
    return _monomials(np.ascontiguousarray(u.reshape(-1, 4).T)).T[:, _WORD_MONOMIAL]
