"""Brute-force oracles used to freeze expected values, independent of afbell.

The published states are plain {bit string: amplitude} dicts, and no state
or measurement comes from afbell, so these never share a code path with the
library under test.
``rotate_pvm``, ``rotated_bras`` and ``born_table`` are the dense
references for rotated measurements: they build the full 16x16 four-fold
power with np.kron instead of the library's kernels; ``joint_born`` is the
dense Born rule of two measurements on an 8-qubit state, and
``sequential_joint`` the same by sequential projection.  ``basis_index``, ``basis_state``,
``tensor``, ``amplitude`` and ``distance`` are the register plumbing the
tests build with, and ``swap_qubits`` exchanges two qubits one ket at a time.
A state is a 1-D complex array of 2^n amplitudes, and a measurement a
{label: projector} dict.  ``ket`` is a ket dict's array, ``ETA`` the source
state as a ket dict built from the published coefficients, and ``eta`` its
array.  ``projectors`` is the {-1, +1, 0} measurement that tells two ket
dicts apart, and ``F`` and ``G`` are its measurements of the published pairs.
``pvm_violation`` is how far a measurement's projectors are from a
projector-valued measure, ``born`` the Born rule <s|P|s> read off them, and
``classified`` and ``coarse_grained`` are a protocol's two-outcome
distribution and measurement, built from its eigenvector rows and labels.
``PROTOCOL_AXES`` and ``PROTOCOL_MINUS`` state the single-qubit protocol
apart from afbell, each setting's axes and its four strings labelled -1, and
``PROTOCOL_INTEGER_ROWS`` and ``PROTOCOL_LABELS`` are built from them alone.
``mix64`` is the splitmix64 finalizer in pure-int arithmetic and ``split`` the
seed-split rule built from it, the references for the library's uint64 seed
derivation, and ``unmix64`` inverts ``mix64``; ``su2`` is the Haar draw from
one seed in scalar ``math``, and ``su2_batch_reference`` the frozen batch
formulation of the same draw in numpy, seeds first, whose bits the
library's trials-last draw must keep.
``trials_csv`` formats a trial log one row at a time from Python ints, the
reference for the chunked CSV writer.
``INTEGER_PAIRS`` are the invariant pairs as integer vectors, ``born_numerators``
a table of integer outcome rows on the source state as integers over one
denominator, and ``replay_trials`` every column of a sampled trial log
rebuilt from the root seed and those integers alone, with no float and no
rotation: the exact reference for what each sampled row should be;
``replay_csv`` replays a written trials.csv from its own metadata block.
``chi2_sf`` is the chi^2 survival function in closed form, for G-tests.
``fraction_phase_one`` is the phase-1 simplex on a ``Fraction`` tableau that
the integer tableau replaced, kept verbatim, and ``fraction_certificate``
the LP around it, built by calling each constraint's event on every
strategy: the references for ``lhv.check_feasibility``'s pivots,
witness and Farkas vector.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from afbell.experiment import _SETUP_TAGS
from afbell.lhv import FeasibilityCertificate, Strategy, all_strategies
from afbell.rotations import STREAM_ALICE, STREAM_BOB, STREAM_OUTCOME, STREAM_SETTINGS

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


def unmix64(y):
    """The x with mix64(x) == y: each xor-shift and odd multiply undone in
    reverse order."""
    mask = (1 << 64) - 1
    y ^= (y >> 31) ^ (y >> 62)
    y = (y * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    y ^= (y >> 27) ^ (y >> 54)
    y = (y * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    return y ^ (y >> 30) ^ (y >> 60)


def su2_batch_reference(seeds):
    """(n, 2, 2) Haar SU(2) matrices of n uint64 seeds, seeds first: the
    (n, 4) uniforms ((mix64(seed + k * gamma) >> 11) + 1) * 2^-53, k = 1..4,
    Box-Muller normals stacked on the last axis, np.linalg.norm along it, and
    the quaternion (w, x, y, z) assembled by complex arithmetic as
    w*I - i(x*sx + y*sy + z*sz)."""
    steps = np.arange(1, 5, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        x = np.asarray(seeds, dtype=np.uint64)[:, None] + steps[None, :]
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    u = ((x >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0**-53)
    r1 = np.sqrt(-2.0 * np.log(u[..., 0]))
    r2 = np.sqrt(-2.0 * np.log(u[..., 2]))
    t1 = 2.0 * math.pi * u[..., 1]
    t2 = 2.0 * math.pi * u[..., 3]
    q = np.stack([r1 * np.cos(t1), r1 * np.sin(t1), r2 * np.cos(t2), r2 * np.sin(t2)], axis=-1)
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((len(q), 2, 2), dtype=complex)
    out[:, 0, 0] = w - 1j * z
    out[:, 0, 1] = -y - 1j * x
    out[:, 1, 0] = y - 1j * x
    out[:, 1, 1] = w + 1j * z
    return out


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


def split_array(parent, key):
    """``split`` elementwise on uint64 arrays, in wrapping uint64 arithmetic."""
    def mix(x):
        x = x ^ (x >> np.uint64(30))
        x = x * np.uint64(0xBF58476D1CE4E5B9)
        x = x ^ (x >> np.uint64(27))
        x = x * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    parent, key = np.broadcast_arrays(*(np.asarray(v, dtype=np.uint64) for v in (parent, key)))
    return mix(mix(parent) + key * np.full_like(key, 0x9E3779B97F4A7C15))


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


def _integer_ket(ket, scale):
    """A 4-qubit ket dict times scale, rounded to an integer vector over the
    16 basis kets."""
    return [round(scale * ket.get(format(i, "04b"), 0.0)) for i in range(16)]


# phi0 = K0/2 and phi1 = K1/(2 sqrt3) with integer K, the same for psi: per
# setting (F reads phi, G reads psi), the (2, 16) integer rows.
INTEGER_PAIRS = (
    np.array([_integer_ket(PHI0, 2.0), _integer_ket(PHI1, 2.0 * SQRT3)]),
    np.array([_integer_ket(PSI0, 2.0), _integer_ket(PSI1, 2.0 * SQRT3)]),
)


# The single-qubit protocol by setting (F 0, G 1): each qubit's axis, qubit
# 1 first, and the four outcome strings labelled -1; the other 12 are +1.
PROTOCOL_AXES = ("zzxx", "zxzx")
PROTOCOL_MINUS = ({"0101", "0110", "1001", "1010"}, {"0011", "0110", "1001", "1100"})


def _axis_entry(axis, bit, index):
    """Entry index of the integer eigenvector of one qubit's outcome bit:
    along z, |bit>; along x, |0> + (-1)^bit |1>, sqrt(2) times the unit one."""
    return int(bit == index) if axis == "z" else (-1) ** (bit * index)


def _protocol_rows(axes):
    """(16, 16) integer rows, row i the product over the qubits of the axis
    eigenvectors that string i's bits select, entry by entry."""
    bits = [[int(b) for b in format(i, "04b")] for i in range(16)]
    return np.array([[math.prod(_axis_entry(a, s, t) for a, s, t in zip(axes, row, col))
                      for col in bits] for row in bits])


PROTOCOL_INTEGER_ROWS = np.array([_protocol_rows(axes) for axes in PROTOCOL_AXES])
PROTOCOL_LABELS = np.array([[-1 if format(i, "04b") in minus else 1 for i in range(16)]
                            for minus in PROTOCOL_MINUS])


def born_numerators(rows_a, rows_b):
    """The joint outcome table of integer rows on the source state, as
    integer numerators over one denominator D: (numerators, D).

    With K the phi pair's integer rows, eta = (K0 K0 + K0 K1 + K1 K0)/(4 sqrt7),
    the published (phi0 phi0 + sqrt3 phi0 phi1 + sqrt3 phi1 phi0)/sqrt7.  A row
    r of squared norm n measures r/sqrt(n), so cell (s, t) has integer
    amplitude B = r_s (K0^T K0 + K0^T K1 + K1^T K0) r_t^T over
    4 sqrt(7 n_s n_t), and probability B^2/(112 n_s n_t)."""
    k0, k1 = INTEGER_PAIRS[0]
    grid = np.outer(k0, k0) + np.outer(k0, k1) + np.outer(k1, k0)
    b = rows_a @ grid @ rows_b.T
    n_a, n_b = (rows_a * rows_a).sum(axis=1), (rows_b * rows_b).sum(axis=1)
    scale = max(n_a.max(), n_b.max()) ** 2
    if (scale % np.outer(n_a, n_b)).any():
        raise ValueError("row norms have no common denominator of this form")
    numerators = b * b * (scale // np.outer(n_a, n_b))
    denominator = 112 * int(scale)
    if int(numerators.sum()) != denominator:
        raise ValueError("the rows are not complete on the source state")
    return numerators, denominator


def replay_trials(n, root, policy, fixed_rotations, rows, labels, streams, setup_tags):
    """The columns (trial, setting_a, setting_b, seed_a, seed_b, outcome_a,
    outcome_b) of n sampled trials, replayed from the root seed and exact
    integer tables, with no float and no rotation.

    ``rows[x]`` are setting x's integer outcome rows (F 0, G 1) and
    ``labels[x]`` their outcome labels; ``streams`` the (settings, Alice,
    Bob, outcome) stream keys and ``setup_tags`` the four fixed-rotation
    setup tags.  Trial i splits base = split(root, i) by each stream key.  A
    trial picks the first cell, row-major, whose cumulative numerator c over
    D reaches u = (bits + 1)/2^53, bits the outcome draw's top 53 bits:
    c 2^53 >= (bits + 1) D.  Both denominators are 2^8 times an odd number
    (16128 = 2^8 63, 1792 = 2^8 7), so that is c 2^45 >= (bits + 1) (D / 2^8),
    which fits uint64."""
    trial = np.arange(n, dtype=np.uint64)
    base = split_array(root, trial)
    bits, seed_a, seed_b, draw = (split_array(base, key) for key in streams)
    if policy == "uniform":
        setting_a, setting_b = bits & np.uint64(1), (bits >> np.uint64(1)) & np.uint64(1)
    elif policy == "cycle":
        setting_a, setting_b = (trial % np.uint64(4)) >> np.uint64(1), trial & np.uint64(1)
    else:
        x, y = ("FG".index(c) for c in policy[len("fixed:"):])
        setting_a, setting_b = np.full(n, x, np.uint64), np.full(n, y, np.uint64)
    setting_a, setting_b = setting_a.astype(np.int64), setting_b.astype(np.int64)
    if fixed_rotations:
        setup = split_array(root, setup_tags)
        seed_a, seed_b = setup[setting_a], setup[2 + setting_b]
    outcome_a, outcome_b = np.empty((2, n), np.int64)
    for x in (0, 1):
        for y in (0, 1):
            numerators, denominator = born_numerators(rows[x], rows[y])
            if denominator % 2**8:
                raise ValueError("denominator is not a multiple of 2^8")
            cum = np.cumsum(numerators.ravel()).astype(np.uint64) << np.uint64(45)
            mine = (setting_a == x) & (setting_b == y)
            need = ((draw[mine] >> np.uint64(11)) + np.uint64(1)) * np.uint64(denominator >> 8)
            row, col = np.divmod(np.searchsorted(cum, need, side="left"), len(rows[y]))
            outcome_a[mine], outcome_b[mine] = labels[x][row], labels[y][col]
    return trial, setting_a, setting_b, seed_a, seed_b, outcome_a, outcome_b


def replay_csv(path):
    """Check every column of every data row of a trials.csv that ``afbell
    sample`` wrote against replay_trials, run on the file's own '# key:
    value' block (root seed, trials, policy, fixed rotations, measurement
    path).  Returns the number of rows checked."""
    with open(path, encoding="ascii") as f:
        lines = f.read().splitlines()
    meta = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    header, *data = (line for line in lines if not line.startswith("#"))
    columns = header.split(",")
    if meta["measurement_path"] == "pvm":
        rows, labels = INTEGER_PAIRS, np.array([[-1, 1]] * 2)
    else:
        rows, labels = PROTOCOL_INTEGER_ROWS, PROTOCOL_LABELS
    replay = replay_trials(
        int(meta["trials"]), int(meta["root_seed"]), meta["setting_policy"],
        {"true": True, "false": False}[meta["fixed_rotations"]], rows, labels,
        (STREAM_SETTINGS, STREAM_ALICE, STREAM_BOB, STREAM_OUTCOME), _SETUP_TAGS)
    assert columns == ["trial", "setting_a", "setting_b", "seed_a", "seed_b",
                       "outcome_a", "outcome_b"], columns
    assert len(data) == len(replay[0]), (len(data), len(replay[0]))
    fields = [line.split(",") for line in data]
    for k, (name, want) in enumerate(zip(columns, replay)):
        got = [int("FG".index(f[k]) if name.startswith("setting") else f[k]) for f in fields]
        assert got == want.tolist(), (path, name)
    return len(data)


def eta():
    """The 8-qubit source state, amplitudes read from the ETA dict."""
    return ket(ETA)


def pvm_violation(m):
    """Worst entrywise deviation of a measurement's projectors from
    Hermiticity, idempotence, mutual orthogonality and completeness."""
    projs = list(m.values())
    residuals = [p - p.conj().T for p in projs] + [p @ p - p for p in projs]
    residuals += [p @ q for i, p in enumerate(projs) for q in projs[:i]]
    residuals.append(sum(projs) - np.eye(len(projs[0])))
    return max(float(np.abs(r).max()) for r in residuals)


def rotate_pvm(u, m):
    """Conjugate every projector of a 16-dim measurement by R = U (x) U (x) U (x) U."""
    big = functools.reduce(np.kron, [u] * 4)
    return {label: big @ proj @ big.conj().T for label, proj in m.items()}


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
    """Born distribution {label: <s|P|s>} of a measurement on a state."""
    return {label: float(np.vdot(state, proj @ state).real) for label, proj in pvm.items()}


def classified(state, rows, labels):
    """{-1, +1} distribution of a protocol: each outcome string's |<e_i|s>|^2,
    e_i its eigenvector rows[i], added to its label labels[i]."""
    out = {-1: 0.0, +1: 0.0}
    for vec, label in zip(rows, labels):
        out[int(label)] += abs(np.vdot(vec, state)) ** 2
    return out


def coarse_grained(rows, labels):
    """Two-outcome measurement of a protocol: per label, the sum of |e_i><e_i| over
    the eigenvector rows of the strings with that label."""
    proj = {-1: np.zeros((16, 16), complex), +1: np.zeros((16, 16), complex)}
    for vec, label in zip(rows, labels):
        proj[int(label)] += np.outer(vec, vec.conj())
    return proj


def chi2_sf(x, df):
    """P(X >= x) for X ~ chi^2(df), x > 0, in closed form: Q(x; 2) =
    exp(-x/2), Q(x; 1) = erfc(sqrt(x/2)), and Q(x; k + 2) = Q(x; k) +
    (x/2)^(k/2) exp(-x/2) / Gamma(k/2 + 1)."""
    k = 2 - df % 2
    q = math.exp(-x / 2) if k == 2 else math.erfc(math.sqrt(x / 2))
    for k in range(k, df, 2):
        q += math.exp(k / 2 * math.log(x / 2) - x / 2 - math.lgamma(k / 2 + 1))
    return q


def joint_born(state, pvm_a, pvm_b):
    """Dense Born rule for side-by-side measurements on an 8-qubit state's
    16x16 grid G: the table P(a, b) = Re <G, Pa G Pb^T>, clipped at 0, in
    the measurements' label order."""
    grid = state.reshape(16, 16)
    return np.array([[max(float(np.real(np.vdot(grid, pa @ grid @ pb.T))), 0.0)
                      for pb in pvm_b.values()] for pa in pvm_a.values()])


def sequential_joint(state, pvm_a, pvm_b):
    """Joint distribution via sequential projection: measure A, project and
    renormalize (the post-measurement convention), then measure B."""
    grid = state.reshape(16, 16)
    probs = {}
    for la, pa in pvm_a.items():
        collapsed = pa @ grid
        p_a = float(np.real(np.vdot(collapsed, collapsed)))
        for lb, pb in pvm_b.items():
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
    if len(bits) != num_qubits:
        raise ValueError(f"label {bits!r} has wrong length for {num_qubits} qubits")
    return ket({bits: 1.0})


def ket(terms):
    """The amplitude array of a ket dict {bit string: amplitude}, over as
    many qubits as its bit strings have."""
    amps = np.zeros(2 ** len(next(iter(terms))), dtype=complex)
    for bits, amp in terms.items():
        amps[basis_index(bits)] = amp
    return amps


def projectors(minus, plus):
    """{-1: |m><m|, +1: |p><p|, 0: I - |m><m| - |p><p|} of two orthonormal
    4-qubit ket dicts m and p."""
    p_minus, p_plus = (np.outer(ket(k), ket(k).conj()) for k in (minus, plus))
    return {-1: p_minus, +1: p_plus, 0: np.eye(16) - p_minus - p_plus}


# F tells phi0 (-1) from phi1 (+1), and G psi0 from psi1, built here from
# the published coefficient dicts alone.
F = projectors(PHI0, PHI1)
G = projectors(PSI0, PSI1)


def tensor(a, b):
    """Kronecker product; a's qubits become the most significant ones."""
    return np.kron(a, b)


def amplitude(state, bits):
    """Amplitude of the basis ket labelled by a bit string."""
    if 2 ** len(bits) != len(state):
        raise ValueError(f"label {bits!r} has wrong length for {len(state)} amplitudes")
    return complex(state[basis_index(bits)])


def distance(a, b):
    """Euclidean norm of two states' amplitude difference."""
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(a - b))


def swap_qubits(state, i, j):
    """The state with qubits i and j (1-based) exchanged: each ket's amplitude
    moves to the bit string with its characters i and j swapped."""
    n = len(state).bit_length() - 1
    amps = np.zeros(2**n, dtype=complex)
    for index, amp in enumerate(state):
        bits = list(format(index, f"0{n}b"))
        bits[i - 1], bits[j - 1] = bits[j - 1], bits[i - 1]
        amps[basis_index("".join(bits))] = amp
    return amps


def fraction_phase_one(matrix: list[list[Fraction]], rhs: list[Fraction]
                       ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Phase-1 simplex with Bland's rule on ``matrix x = rhs, x >= 0`` (rhs >= 0).

    Returns ``(x, None)`` with a basic solution x when the system is feasible,
    else ``(None, y)`` with the phase-1 dual y_i = 1 - the reduced cost of
    artificial i.
    """
    rows, cols = len(matrix), len(matrix[0])
    one, zero = Fraction(1), Fraction(0)
    tableau = [matrix[r] + [one if k == r else zero for k in range(rows)] + [rhs[r]]
               for r in range(rows)]
    basis = list(range(cols, cols + rows))
    # Phase-1 objective row: reduced costs of minimizing the sum of artificials.
    cost = [-sum(row[j] for row in tableau) for j in range(cols)] + [zero] * rows
    cost.append(-sum(rhs))
    while True:
        enter = next((j for j in range(cols + rows) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [(row[-1] / row[enter], basis[r], r)
                  for r, row in enumerate(tableau) if row[enter] > 0]
        _, _, leave = min(ratios)
        pivot = tableau[leave]
        pivot[:] = [v / pivot[enter] for v in pivot]
        for row in tableau + [cost]:
            if row is not pivot and row[enter] != 0:
                f = row[enter]
                row[:] = [a - f * b if b else a for a, b in zip(row, pivot)]
        basis[leave] = enter
    if cost[-1] != 0:
        return None, [1 - cost[cols + r] for r in range(rows)]
    solution = [zero] * cols
    for r, j in enumerate(basis):
        if j < cols:
            solution[j] = tableau[r][-1]
    return solution, None


def fraction_certificate(constraints) -> FeasibilityCertificate:
    """check_feasibility's certificate on the Fraction tableau, with each
    event called on every strategy: a column per distinct event pattern
    (its first strategy stands for the rest), a row per constraint plus
    normalization."""
    patterns: dict[tuple[bool, ...], Strategy] = {}
    for s in all_strategies():
        patterns.setdefault(tuple(c.event(s) for c in constraints), s)
    reps = list(patterns.items())
    matrix = [[Fraction(int(p[i])) for p, _ in reps] for i in range(len(constraints))]
    matrix.append([Fraction(1)] * len(reps))
    rhs = [c.value for c in constraints] + [Fraction(1)]

    solution, dual = fraction_phase_one(matrix, rhs)
    if dual is not None:
        return FeasibilityCertificate(feasible=False, farkas=tuple(dual))
    witness = tuple(sorted((s, m) for (_, s), m in zip(reps, solution) if m > 0))
    return FeasibilityCertificate(feasible=True, witness=witness)
