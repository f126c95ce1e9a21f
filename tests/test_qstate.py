"""State construction, expansion tables, and register plumbing."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import amplitude, basis_index, basis_state, tensor
from afbell import qstate
from afbell.qstate import (
    BASIS_CHANGE,
    ETA_EXPANSION_TABLES,
    SQRT3,
    SQRT7,
    StateVector,
    build_eta,
    build_phi,
    build_psi,
    distance,
    eta_from_table,
    expand_eta_in,
    inner_product,
    permute_qubits,
    swap_qubits_2_3,
)

TOL = 1e-12

# sha256 of the complex128 bytes of phi0, phi1, psi0, psi1 in that order, and
# of BASIS_CHANGE's float64 bytes, recorded when the four states were still
# hand-typed float tables.  Every float amplitude the package uses starts here.
STATE_AMPS_SHA256 = "17586c54acc2cbaa17112e58efaa9f5da1e763e93879cc170d261cba56d9caac"
BASIS_CHANGE_SHA256 = "b4a715125d2c5165145c9d6d1050f0affcf217fea784af59a07174d40932462f"


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
    phi0, phi1 = build_phi(0), build_phi(1)
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
    amps = b"".join(build(j).amps.tobytes() for build in (build_phi, build_psi) for j in (0, 1))
    assert hashlib.sha256(amps).hexdigest() == STATE_AMPS_SHA256
    assert hashlib.sha256(BASIS_CHANGE.tobytes()).hexdigest() == BASIS_CHANGE_SHA256


def test_phi_unit_norm_and_orthogonal():
    phi0, phi1 = build_phi(0), build_phi(1)
    assert abs(phi0.norm() - 1.0) < TOL
    assert abs(phi1.norm() - 1.0) < TOL
    # Oracle: direct inner product of the two amplitude lists.
    assert oracles.dict_inner(oracles.PHI0, oracles.PHI1) == pytest.approx(0.0, abs=TOL)
    assert abs(inner_product(phi0, phi1)) < TOL


def test_build_phi_rejects_bad_index():
    with pytest.raises(ValueError):
        build_phi(2)
    with pytest.raises(ValueError):
        build_psi(-1)


def test_psi_amplitudes_and_relations():
    psi0, psi1 = build_psi(0), build_psi(1)
    assert amplitude(psi0, "0011") == pytest.approx(0.5, abs=TOL)
    for state, table in ((psi0, oracles.PSI0), (psi1, oracles.PSI1)):
        for bits in (format(i, "04b") for i in range(16)):
            assert amplitude(state, bits).real == pytest.approx(table.get(bits, 0.0), abs=TOL)
    assert abs(inner_product(psi0, psi1)) < TOL
    assert inner_product(build_phi(0), psi0).real == pytest.approx(0.5, abs=TOL)
    assert inner_product(build_phi(1), psi1).real == pytest.approx(-0.5, abs=TOL)


def test_psi_equals_phi_combination():
    # (phi0 + sqrt3 phi1)/2 and (sqrt3 phi0 - phi1)/2 match the explicit kets.
    phi0, phi1 = build_phi(0), build_phi(1)
    combo0 = StateVector(4, (phi0.amps + SQRT3 * phi1.amps) / 2.0)
    combo1 = StateVector(4, (SQRT3 * phi0.amps - phi1.amps) / 2.0)
    assert distance(combo0, build_psi(0)) < TOL
    assert distance(combo1, build_psi(1)) < TOL


def test_psi_is_phi_with_qubits_2_3_swapped():
    for j in (0, 1):
        swapped = swap_qubits_2_3(build_phi(j))
        assert distance(swapped, build_psi(j)) < TOL


def test_change_of_basis_matrix():
    phi = [build_phi(0), build_phi(1)]
    psi = [build_psi(0), build_psi(1)]
    expected = np.array([[0.5, SQRT3 / 2.0], [SQRT3 / 2.0, -0.5]])
    got = np.array([[inner_product(phi[i], psi[j]) for j in (0, 1)] for i in (0, 1)])
    assert np.abs(got - expected).max() < TOL
    # Exactly, as qstate derives it from the integer kets: (rational, sqrt3) parts.
    rational, sqrt3 = qstate._BASIS_CHANGE
    half = Fraction(1, 2)
    assert rational.tolist() == [[half, 0], [0, -half]]
    assert sqrt3.tolist() == [[0, half], [half, 0]]
    assert all(type(x) is Fraction for x in (*rational.flat, *sqrt3.flat))
    # Symmetric orthogonal: its own inverse.
    assert np.abs(expected @ expected - np.eye(2)).max() < TOL


def test_eta_norm_and_overlaps():
    eta = build_eta()
    assert abs(eta.norm() - 1.0) < TOL
    phi00 = tensor(build_phi(0), build_phi(0))
    phi11 = tensor(build_phi(1), build_phi(1))
    assert abs(inner_product(phi00, eta)) ** 2 == pytest.approx(1.0 / 7.0, abs=TOL)
    assert abs(inner_product(phi11, eta)) < TOL


def test_eta_matches_dict_oracle():
    eta = build_eta()
    assert abs(oracles.dict_norm(oracles.ETA) - 1.0) < TOL
    for bits, amp in oracles.ETA.items():
        assert amplitude(eta, bits).real == pytest.approx(amp, abs=TOL)


def test_expand_eta_tables_match_closed_forms():
    for basis_a in ("phi", "psi"):
        for basis_b in ("phi", "psi"):
            got = expand_eta_in(basis_a, basis_b)
            assert np.abs(got.imag).max() < TOL
            expected = ETA_EXPANSION_TABLES[(basis_a, basis_b)]
            assert np.abs(got - expected).max() < TOL


def test_expand_eta_specific_entries():
    psi_psi = expand_eta_in("psi", "psi")
    expected = np.array([[7.0, 3.0 * SQRT3], [3.0 * SQRT3, -3.0]]) / (4.0 * SQRT7)
    assert np.abs(psi_psi - expected).max() < TOL
    phi_psi = expand_eta_in("phi", "psi")
    assert abs(phi_psi[0, 1]) < TOL  # no phi0 psi1 component
    phi_phi = expand_eta_in("phi", "phi")
    assert np.abs(phi_phi - np.array([[1.0, SQRT3], [SQRT3, 0.0]]) / SQRT7).max() < TOL


def test_expand_eta_rejects_unknown_basis():
    with pytest.raises(ValueError):
        expand_eta_in("phi", "chi")


def test_eta_reconstruction_from_all_tables():
    eta = build_eta()
    for (basis_a, basis_b), table in ETA_EXPANSION_TABLES.items():
        rebuilt = eta_from_table(basis_a, basis_b, table)
        assert distance(eta, rebuilt) < TOL


def test_tensor_basics():
    zero = basis_state(1, "0")
    one = basis_state(1, "1")
    assert amplitude(tensor(zero, one), "01") == 1.0
    both = tensor(build_phi(0), build_phi(0))
    assert amplitude(both, "01010101").real == pytest.approx(0.25, abs=TOL)
    # Oracle: product of the two 1/2 amplitudes.
    assert oracles.PHI0["0101"] * oracles.PHI0["0101"] == 0.25


def test_tensor_norm_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = StateVector(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        b = StateVector(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        ab = tensor(a, b)
        assert ab.norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12)


def test_tensor_associative_exact_on_basis_states():
    for bits in ("0", "1"):
        a = basis_state(1, bits)
        b = basis_state(2, "10")
        c = basis_state(1, "1")
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.array_equal(left.amps, right.amps)


def test_tensor_associative_general():
    rng = np.random.default_rng(12)
    a = StateVector(1, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    b = StateVector(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    c = StateVector(1, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert distance(left, right) < 1e-14 * left.norm()


def test_tensor_qubit_cap():
    eta = build_eta()
    with pytest.raises(ValueError):
        tensor(eta, basis_state(1, "0"))


def test_inner_product_properties():
    phi0 = build_phi(0)
    assert inner_product(phi0, phi0).real == pytest.approx(1.0, abs=TOL)
    assert inner_product(basis_state(4, "0101"), build_phi(1)).real == pytest.approx(
        -1.0 / (2.0 * SQRT3), abs=TOL)
    # Conjugate-linear in the first argument.
    scaled = StateVector(4, (0.3 + 0.4j) * phi0.amps)
    lhs = inner_product(scaled, phi0)
    assert lhs == pytest.approx((0.3 - 0.4j) * inner_product(phi0, phi0), abs=TOL)
    with pytest.raises(ValueError):
        inner_product(phi0, build_eta())


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(0, np.array([1.0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(9, np.zeros(512))


def test_statevector_immutable():
    phi0 = build_phi(0)
    with pytest.raises(ValueError):
        phi0.amps[0] = 1.0


def test_permute_qubits_roundtrip():
    eta = build_eta()
    ident = permute_qubits(eta, (1, 2, 3, 4, 5, 6, 7, 8))
    assert np.array_equal(ident.amps, eta.amps)
    with pytest.raises(ValueError):
        permute_qubits(eta, (1, 1, 3, 4, 5, 6, 7, 8))
