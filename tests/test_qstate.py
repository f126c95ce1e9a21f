"""State construction, expansion tables, and register plumbing."""

import hashlib

import numpy as np
import pytest

import oracles
from oracles import SQRT3, SQRT7, amplitude, basis_index, basis_state, distance, tensor
from afbell import experiment, qstate
from afbell.qstate import ETA_PHI_PHI, PAIRS

TOL = 1e-12
NORMS = (4, 12)

# sha256 of the complex128 bytes of phi0, phi1, psi0, psi1 in that order,
# recorded when the four states were still hand-typed float tables, and of
# the float64 bytes of eta's (phi, phi) expansion, the one float of eta the
# sampler reads.  Every float amplitude the package uses starts here.
STATE_AMPS_SHA256 = "17586c54acc2cbaa17112e58efaa9f5da1e763e93879cc170d261cba56d9caac"
ETA_PHI_PHI_SHA256 = "032e6321d6b401cedc14b3dcaf22fd1f90a4f3c141a93f17bfc68db4020815a0"


def _expansion(x, y):
    """2x2 table of <x_a y_b|eta> from the oracle pairs and the oracle eta, for
    basis codes x and y (phi 0, psi 1)."""
    pairs = ((oracles.PHI0, oracles.PHI1), (oracles.PSI0, oracles.PSI1))
    return np.array([[oracles.dict_inner(oracles.dict_kron(a, b), oracles.ETA)
                      for b in pairs[y]] for a in pairs[x]])


def _floats_of_exact(x, y):
    """The float of qstate's integer amplitudes A[a, b]/(4 sqrt7 sqrt(n_a n_b))
    for basis codes x and y, with the stated squared norms n = (4, 12)."""
    return qstate._ETA_AMPS[2 * x + y] / (4 * SQRT7 * np.sqrt(np.outer(NORMS, NORMS)))


def test_basis_index_convention():
    # Qubit 1 is the most significant bit.
    assert basis_index("0101") == 5
    assert basis_index("1000") == 8
    for i in range(16):
        assert basis_index(format(i, "04b")) == i


def test_basis_index_rejects_garbage():
    with pytest.raises(ValueError):
        basis_index("01a1")


def test_phi_amplitudes():
    phi0, phi1 = PAIRS[0]
    assert amplitude(phi0, "0101") == pytest.approx(0.5, abs=TOL)
    assert amplitude(phi0, "0110") == pytest.approx(-0.5, abs=TOL)
    assert amplitude(phi1, "0011") == pytest.approx(1.0 / SQRT3, abs=TOL)
    assert amplitude(phi1, "0101") == pytest.approx(-1.0 / (2.0 * SQRT3), abs=TOL)
    # Exactly the published coefficient tables, entry by entry.
    for state, table in ((phi0, oracles.PHI0), (phi1, oracles.PHI1)):
        for bits in (format(i, "04b") for i in range(16)):
            assert amplitude(state, bits).real == pytest.approx(table.get(bits, 0.0), abs=TOL)
            assert amplitude(state, bits).imag == 0.0


def test_derived_amplitudes_bytes_pinned():
    amps = PAIRS.tobytes()
    assert hashlib.sha256(amps).hexdigest() == STATE_AMPS_SHA256
    assert hashlib.sha256(ETA_PHI_PHI.tobytes()).hexdigest() == ETA_PHI_PHI_SHA256
    # The sampler's Bob-side pair is that table times the phi pair.
    assert np.array_equal(experiment._C_PHI, ETA_PHI_PHI @ experiment._PHI)


def test_phi_unit_norm_and_orthogonal():
    phi0, phi1 = PAIRS[0]
    assert abs(np.linalg.norm(phi0) - 1.0) < TOL
    assert abs(np.linalg.norm(phi1) - 1.0) < TOL
    # Oracle: direct inner product of the two amplitude lists.
    assert oracles.dict_inner(oracles.PHI0, oracles.PHI1) == pytest.approx(0.0, abs=TOL)
    assert abs(np.vdot(phi0, phi1)) < TOL


def test_psi_amplitudes_and_relations():
    (phi0, phi1), (psi0, psi1) = PAIRS
    assert amplitude(psi0, "0011") == pytest.approx(0.5, abs=TOL)
    for state, table in ((psi0, oracles.PSI0), (psi1, oracles.PSI1)):
        for bits in (format(i, "04b") for i in range(16)):
            assert amplitude(state, bits).real == pytest.approx(table.get(bits, 0.0), abs=TOL)
    assert abs(np.vdot(psi0, psi1)) < TOL
    assert np.vdot(phi0, psi0).real == pytest.approx(0.5, abs=TOL)
    assert np.vdot(phi1, psi1).real == pytest.approx(-0.5, abs=TOL)


def test_psi_equals_phi_combination():
    # (phi0 + sqrt3 phi1)/2 and (sqrt3 phi0 - phi1)/2 match the explicit kets.
    (phi0, phi1), (psi0, psi1) = PAIRS
    assert distance((phi0 + SQRT3 * phi1) / 2.0, psi0) < TOL
    assert distance((SQRT3 * phi0 - phi1) / 2.0, psi1) < TOL


def test_psi_is_phi_with_qubits_2_3_swapped():
    for phi, psi in zip(*PAIRS):
        assert np.array_equal(oracles.swap_qubits(phi, 2, 3), psi)


def test_change_of_basis_matrix():
    phi, psi = PAIRS
    expected = np.array([[0.5, SQRT3 / 2.0], [SQRT3 / 2.0, -0.5]])
    got = np.array([[np.vdot(phi[i], psi[j]) for j in (0, 1)] for i in (0, 1)])
    assert np.abs(got - expected).max() < TOL
    # Exactly: the integer cross-Gram K_phi K_psi^T, over sqrt(n_i n_j).
    gram = qstate.INTEGER_KETS[0] @ qstate.INTEGER_KETS[1].T
    assert gram.tolist() == [[2, 6], [6, -6]]
    assert np.abs(gram / np.sqrt(np.outer(NORMS, NORMS)) - expected).max() < TOL
    # Symmetric orthogonal: its own inverse.
    assert np.abs(expected @ expected - np.eye(2)).max() < TOL


def test_eta_norm_and_overlaps():
    eta = oracles.eta()
    assert abs(np.linalg.norm(eta) - 1.0) < TOL
    phi0, phi1 = PAIRS[0]
    assert abs(np.vdot(tensor(phi0, phi0), eta)) ** 2 == pytest.approx(1.0 / 7.0, abs=TOL)
    assert abs(np.vdot(tensor(phi1, phi1), eta)) < TOL


def test_eta_matches_dict_oracle():
    # The grid the sampler and verify read, PHI^T (C PHI), is eta's.
    eta = (experiment._PHI.T @ experiment._C_PHI).reshape(256)
    assert abs(oracles.dict_norm(oracles.ETA) - 1.0) < TOL
    for bits, amp in oracles.ETA.items():
        assert amplitude(eta, bits).real == pytest.approx(amp, abs=TOL)
    assert distance(eta, oracles.eta()) < TOL


def test_expand_eta_tables_match_closed_forms():
    assert qstate._ETA_AMPS.shape == (4, 2, 2)
    for x in (0, 1):
        for y in (0, 1):
            assert np.abs(_expansion(x, y) - _floats_of_exact(x, y)).max() < TOL


def test_expand_eta_specific_entries():
    psi_psi = _expansion(1, 1)
    expected = np.array([[7.0, 3.0 * SQRT3], [3.0 * SQRT3, -3.0]]) / (4.0 * SQRT7)
    assert np.abs(psi_psi - expected).max() < TOL
    phi_psi = _expansion(0, 1)
    assert abs(phi_psi[0, 1]) < TOL  # no phi0 psi1 component
    phi_phi = _expansion(0, 0)
    assert np.abs(phi_phi - np.array([[1.0, SQRT3], [SQRT3, 0.0]]) / SQRT7).max() < TOL
    assert np.abs(ETA_PHI_PHI - np.array([[1.0, SQRT3], [SQRT3, 0.0]]) / SQRT7).max() < TOL


def test_eta_reconstruction_from_all_tables():
    # sum_ab table[a, b] |x_a> (x) |y_b> over each pair of bases' float table.
    eta = oracles.eta()
    for x in (0, 1):
        for y in (0, 1):
            rebuilt = (PAIRS[x].T @ _floats_of_exact(x, y) @ PAIRS[y]).reshape(256)
            assert distance(eta, rebuilt) < TOL


def test_tensor_basics():
    zero = basis_state(1, "0")
    one = basis_state(1, "1")
    assert amplitude(tensor(zero, one), "01") == 1.0
    both = tensor(PAIRS[0, 0], PAIRS[0, 0])
    assert amplitude(both, "01010101").real == pytest.approx(0.25, abs=TOL)
    # Oracle: product of the two 1/2 amplitudes.
    assert oracles.PHI0["0101"] * oracles.PHI0["0101"] == 0.25


def test_tensor_norm_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ab = tensor(a, b)
        norms = [np.linalg.norm(s) for s in (ab, a, b)]
        assert norms[0] == pytest.approx(norms[1] * norms[2], rel=1e-12)


def test_tensor_associative_exact_on_basis_states():
    for bits in ("0", "1"):
        a = basis_state(1, bits)
        b = basis_state(2, "10")
        c = basis_state(1, "1")
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.array_equal(left, right)


def test_tensor_associative_general():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert distance(left, right) < 1e-14 * np.linalg.norm(left)


def test_state_arrays_immutable():
    # The integer kets, their amplitudes, eta's one float and every array
    # built from them at import are read-only, so no caller can change the
    # amplitudes, bases, labels or coefficients the package reads: the
    # complete F/G bases, their labels and one-hot, C PHI, and the
    # coefficient matrices and labels of the exact kernel and of each
    # measurement path.
    assert qstate.INTEGER_KETS.shape == (2, 2, 16) and PAIRS.shape == (2, 2, 16)
    arrays = [qstate.INTEGER_KETS, PAIRS, ETA_PHI_PHI, experiment._PVM_BASES,
              experiment._PVM_LABELS, experiment._LABEL_ONE_HOT, experiment._C_PHI,
              *experiment._EXACT_KERNEL]
    for kernel, labels, _ in experiment._MEASUREMENTS.values():
        arrays += [*kernel, labels]
    assert len(arrays) == 15
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
