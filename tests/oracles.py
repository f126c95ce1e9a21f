"""Brute-force oracles used to freeze expected values, independent of afbell.

States are plain {bit string: amplitude} dicts and all arithmetic is scalar
Python, so these never share a code path with the library under test.
``rotate_pvm``, ``rotated_bras`` and ``born_table`` are the dense
references for rotated measurements: they build the full 16x16 four-fold
power with np.kron instead of the library's kernels, and ``sequential_joint``
is the Born rule by sequential projection.  ``basis_index``, ``basis_state``,
``tensor`` and ``amplitude`` are the register plumbing the tests build with,
and ``swap_qubits`` exchanges two qubits one ket at a time.
``born`` is the Born rule <s|P|s> read off a PVM's projectors, and
``classified`` and ``coarse_grained`` are a protocol's two-outcome
distribution and PVM, built from its eigenvectors and classifier.
``mix64`` is the splitmix64 finalizer in pure-int arithmetic and ``split`` the
seed-split rule built from it, the references for the library's uint64 seed
derivation; ``su2`` is the Haar draw from one seed in scalar ``math``.
``trials_csv`` formats a trial log one row at a time from Python ints, the
reference for the chunked CSV writer.
"""

import functools
import math

import numpy as np

from afbell.observables import PVM
from afbell.qstate import StateVector

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


def mix64(x):
    """splitmix64 finalizer on a Python int, reduced mod 2^64."""
    mask = (1 << 64) - 1
    x &= mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def split(parent, key):
    """Child seed mix64(mix64(parent) + key * gamma) mod 2^64, gamma the
    golden-ratio increment of splitmix64."""
    return mix64(mix64(parent) + key * 0x9E3779B97F4A7C15)


def su2(seed):
    """Haar SU(2) matrix of one seed: four uniforms in (0, 1] from
    mix64(seed + k * gamma), k = 1..4, two Box-Muller pairs of normals, and
    the unit quaternion (w, x, y, z) as w*I - i(x*sx + y*sy + z*sz)."""
    u = [((mix64(seed + k * 0x9E3779B97F4A7C15) >> 11) + 1) * 2.0**-53 for k in range(1, 5)]
    q = []
    for radial, angle in ((u[0], u[1]), (u[2], u[3])):
        r, t = math.sqrt(-2.0 * math.log(radial)), 2.0 * math.pi * angle
        q += [r * math.cos(t), r * math.sin(t)]
    norm = math.sqrt(sum(c * c for c in q))
    w, x, y, z = (c / norm for c in q)
    return np.array([[complex(w, -z), complex(-y, -x)], [complex(y, -x), complex(w, z)]])


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


def rotate_pvm(u, m):
    """Conjugate every projector of a 16-dim PVM by R = U (x) U (x) U (x) U."""
    big = functools.reduce(np.kron, [u] * 4)
    return PVM(tuple((label, big @ proj @ big.conj().T) for label, proj in m.outcomes))


def rotated_bras(u, vectors):
    """Rows conj(R v_i)^T for the rows v_i of ``vectors``, outcome vectors
    measured through a setup rotated by R = U (x) U (x) U (x) U."""
    return (functools.reduce(np.kron, [u] * 4) @ vectors.T).T.conj()


def born_table(grid, u_a, u_b, vectors_a, vectors_b):
    """Joint outcome table of two rotated measurements on an 8-qubit grid G:
    |K_a G K_b^T|^2 with K the dense rotated_bras of each side's vectors.
    Computed in np.clongdouble (80-bit on x86-64), so its own rounding stays
    well below a float64 kernel's."""
    grid, u_a, u_b, vectors_a, vectors_b = (
        np.asarray(x, dtype=np.clongdouble) for x in (grid, u_a, u_b, vectors_a, vectors_b))
    amps = rotated_bras(u_a, vectors_a) @ grid @ rotated_bras(u_b, vectors_b).T
    return (amps.real**2 + amps.imag**2).astype(float)


def born(state, pvm):
    """Born distribution {label: <s|P|s>} of a PVM on a state."""
    return {label: float(np.vdot(state.amps, proj @ state.amps).real)
            for label, proj in pvm.outcomes}


def classified(state, protocol):
    """{-1, +1} distribution of a protocol: each outcome string's |<e_i|s>|^2,
    e_i its eigenvector, added to the label the classifier gives it."""
    out = {-1: 0.0, +1: 0.0}
    for i, vec in enumerate(protocol.eigenvectors):
        out[protocol.classifier[format(i, "04b")]] += abs(np.vdot(vec, state.amps)) ** 2
    return out


def coarse_grained(protocol):
    """Two-outcome PVM of a protocol: per label, the sum of |e_i><e_i| over
    the eigenvectors of the strings the classifier gives that label."""
    proj = {-1: np.zeros((16, 16), complex), +1: np.zeros((16, 16), complex)}
    for i, vec in enumerate(protocol.eigenvectors):
        proj[protocol.classifier[format(i, "04b")]] += np.outer(vec, vec.conj())
    return PVM(tuple(proj.items()))


def sequential_joint(state, pvm_a, pvm_b):
    """Joint distribution via sequential projection: measure A, project and
    renormalize (the post-measurement convention), then measure B."""
    grid = state.amps.reshape(16, 16)
    probs = {}
    for la, pa in pvm_a.outcomes:
        collapsed = pa @ grid
        p_a = float(np.real(np.vdot(collapsed, collapsed)))
        for lb, pb in pvm_b.outcomes:
            if p_a <= 0.0:
                probs[(la, lb)] = 0.0
                continue
            post = collapsed / math.sqrt(p_a)
            p_b = float(np.real(np.vdot(post, post @ pb.T)))
            probs[(la, lb)] = p_a * max(p_b, 0.0)
    return probs


def trials_csv(log, metadata):
    """The text of a trial log's CSV file, built row by row from Python ints."""
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append("trial,setting_a,setting_b,seed_a,seed_b,outcome_a,outcome_b")
    for i in range(len(log)):
        lines.append(",".join([
            str(int(log.trial[i])),
            "FG"[int(log.setting_a[i])],
            "FG"[int(log.setting_b[i])],
            str(int(log.seed_a[i])),
            str(int(log.seed_b[i])),
            str(int(log.outcome_a[i])),
            str(int(log.outcome_b[i])),
        ]))
    return "".join(line + "\n" for line in lines)


def basis_index(bits):
    """Index of the computational basis ket written as a bit string; qubit 1
    is the most significant bit."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    return int(bits, 2)


def basis_state(num_qubits, bits):
    """Computational basis ket |bits>."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[basis_index(bits)] = 1.0
    return StateVector(num_qubits, amps)


def tensor(a, b):
    """Kronecker product; a's qubits become the most significant ones.
    StateVector enforces the qubit cap."""
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amps, b.amps))


def amplitude(state, bits):
    """Amplitude of the basis ket labelled by a bit string."""
    if len(bits) != state.num_qubits:
        raise ValueError(f"label {bits!r} has wrong length for {state.num_qubits} qubits")
    return complex(state.amps[basis_index(bits)])


def swap_qubits(state, i, j):
    """The state with qubits i and j (1-based) exchanged: each ket's amplitude
    moves to the bit string with its characters i and j swapped."""
    n = state.num_qubits
    amps = np.zeros(2**n, dtype=complex)
    for index, amp in enumerate(state.amps):
        bits = list(format(index, f"0{n}b"))
        bits[i - 1], bits[j - 1] = bits[j - 1], bits[i - 1]
        amps[basis_index("".join(bits))] = amp
    return StateVector(n, amps)
