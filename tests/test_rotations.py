"""Seed splitting, Haar sampling, and collective-rotation invariance."""

import math

import numpy as np
import pytest

from oracles import basis_state, born, mix64, rotate_pvm, split, su2
from afbell.observables import build_F
from afbell.qstate import StateVector, build_eta, build_phi, build_psi, distance
from afbell.rotations import (
    fourfold,
    mix64_array,
    sample_su2_batch,
    split_seed,
)

INV_TOL = 1e-10


def _draw(seed):
    """The Haar SU(2) matrix of one seed, as a batch of one."""
    return sample_su2_batch(np.array([seed], dtype=np.uint64))[0]


def _rotate(u, s):
    """A 4-qubit state rotated by u's four-fold power."""
    return StateVector(4, fourfold(u[None])[0] @ s.amps)


def _rotate_pair(u_a, u_b, s):
    """An 8-qubit state rotated by u_a on qubits 1-4 and u_b on qubits 5-8."""
    p_a, p_b = fourfold(np.array([u_a, u_b]))
    return StateVector(8, (p_a @ s.amps.reshape(16, 16) @ p_b.T).reshape(256))


def test_mix64_is_deterministic_and_bijective_looking():
    xs = np.arange(4096, dtype=np.uint64)
    outs = mix64_array(xs)
    assert outs.dtype == np.uint64
    assert np.array_equal(outs, mix64_array(xs))
    assert len(set(outs.tolist())) == 4096
    assert np.array_equal(xs, np.arange(4096, dtype=np.uint64))  # input left as it was


def test_mix64_array_matches_scalar():
    xs = [0, 1, 2**63, 2**64 - 1, 123456789]
    vec = mix64_array(np.array(xs, dtype=np.uint64))
    assert [int(v) for v in vec] == [mix64(x) for x in xs]


def test_split_seed_rule():
    root, index = 0xDEADBEEF, 42
    assert split_seed(root, index) == split(root, index)
    assert split_seed(root, 1) != split_seed(root, 2)
    # Ints are reduced mod 2^64, as a uint64 seed would be.
    assert split_seed(-1, 5) == split_seed(2**64 - 1, 5) == split(2**64 - 1, 5)


def test_split_seed_int_and_array_agree():
    parents = [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF]
    keys = [0, 7, 2**63 + 5, 0xA5A5A5A5A11CE001, 2**64 - 1]
    scalar = [split_seed(p, k) for p, k in zip(parents, keys)]
    assert all(type(s) is int for s in scalar)
    assert scalar == [split(p, k) for p, k in zip(parents, keys)]
    p_arr, k_arr = np.array(parents, dtype=np.uint64), np.array(keys, dtype=np.uint64)
    out = split_seed(p_arr, k_arr)
    assert out.dtype == np.uint64 and out.tolist() == scalar
    # One side an array, the other an int: an array out, element by element.
    assert split_seed(p_arr, keys[3]).tolist() == [split_seed(p, keys[3]) for p in parents]
    assert split_seed(parents[4], k_arr).tolist() == [split_seed(parents[4], k) for k in keys]
    assert type(split_seed(np.uint64(parents[2]), keys[2])) is int
    # A Python int beside an array is reduced mod 2^64 too, not an overflow.
    idx = np.arange(3)
    assert split_seed(-1, idx).tolist() == [split_seed(2**64 - 1, k) for k in range(3)]
    assert split_seed(2**64 + 5, idx).tolist() == [split_seed(5, k) for k in range(3)]


def test_sample_su2_deterministic():
    a = _draw(987654321)
    b = _draw(987654321)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, _draw(987654322))


def test_sample_su2_special_unitary():
    for u in sample_su2_batch(split_seed(31337, np.arange(200))):
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_sample_su2_batch_matches_scalar():
    # Against the scalar reference on 2000 split seeds plus both ends of the
    # uint64 range: at most 5.6e-17 apart, 1999 of the 2002 draws bit-equal.
    # test_su2_batch_row_is_its_batch_of_one compares rows with batches of one.
    seeds = [split(7, k) for k in range(2000)] + [0, 2**64 - 1]
    batch = sample_su2_batch(np.array(seeds, dtype=np.uint64))
    worst = max(float(np.abs(u - su2(seed)).max()) for u, seed in zip(batch, seeds))
    assert worst <= 1e-15


def test_haar_trace_moment():
    # For Haar SU(2) the mean of |tr U|^2 is 1, so |tr U|^2/4 averages 1/4.
    n = 10_000
    seeds = np.array([split_seed(2718281828, k) for k in range(n)], dtype=np.uint64)
    us = sample_su2_batch(seeds)
    stat = np.abs(us[:, 0, 0] + us[:, 1, 1]) ** 2 / 4.0
    mean = stat.mean()
    stderr = stat.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 0.25) < 3.0 * stderr


def test_axis_angle_x_pi_flips_all_bits():
    # An x-axis pi rotation is -i X per qubit; the fourth tensor power has
    # phase (-i)^4 = 1, so |0011> maps exactly to |1100>.
    u = np.array([[0, -1j], [-1j, 0]])
    out = _rotate(u, basis_state(4, "0011"))
    assert distance(out, basis_state(4, "1100")) < 1e-14


def test_apply_fourfold_identity_and_norm():
    s = build_phi(1)
    assert distance(_rotate(np.eye(2, dtype=complex), s), s) == 0.0
    out = _rotate(_draw(1234), s)
    assert abs(out.norm() - 1.0) < 1e-12


def test_invariance_of_all_four_states():
    states = [build_phi(0), build_phi(1), build_psi(0), build_psi(1)]
    worst = 0.0
    for u in sample_su2_batch(split_seed(404, np.arange(100))):
        for s in states:
            worst = max(worst, distance(_rotate(u, s), s))
    assert worst < INV_TOL


def test_pair_invariance_of_eta():
    eta = build_eta()
    ident = np.eye(2, dtype=complex)
    assert distance(_rotate_pair(ident, ident, eta), eta) == 0.0
    worst = 0.0
    us = sample_su2_batch(split_seed(808, np.arange(200)))
    for k in range(100):
        worst = max(worst, distance(_rotate_pair(us[2 * k], us[2 * k + 1], eta), eta))
    assert worst < INV_TOL


def test_pair_changes_non_invariant_state():
    # A y-axis pi/2 rotation.
    u = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    zeros = basis_state(8, "0" * 8)
    moved = _rotate_pair(u, u, zeros)
    fidelity = abs(np.vdot(zeros.amps, moved.amps)) ** 2
    assert fidelity < 0.999


def test_rotate_pvm_leaves_F_unchanged():
    f = build_F()
    ident = rotate_pvm(np.eye(2, dtype=complex), f)
    for (_, p), (_, q) in zip(f.outcomes, ident.outcomes):
        assert np.abs(p - q).max() == 0.0
    for k in range(10):
        rotated = rotate_pvm(_draw(split_seed(55, k)), f)
        rotated.validate()
        for (_, p), (_, q) in zip(f.outcomes, rotated.outcomes):
            assert np.abs(p - q).max() < INV_TOL
        dist = born(build_phi(0), rotated)
        assert dist[-1] == pytest.approx(1.0, abs=1e-10)


def test_general_unitary_picks_up_global_phase_only():
    # U = e^{i theta} V with V special: the fourfold power multiplies the
    # invariant states by e^{4 i theta}; probabilities are unchanged.
    theta = 0.3721
    u = np.exp(1j * theta) * _draw(991)
    for s in (build_phi(0), build_phi(1)):
        out = _rotate(u, s)
        expected = np.exp(4j * theta) * s.amps
        assert np.abs(out.amps - expected).max() < INV_TOL
        dist = born(out, build_F())
        assert dist == pytest.approx(born(s, build_F()), abs=1e-10)


def test_collective_rotation_matrix_expansion():
    u = _draw(4321)
    # Column j of the power is its image of basis state j.
    big = fourfold(u[None])[0]
    manual = np.kron(np.kron(u, u), np.kron(u, u))
    assert np.abs(big - manual).max() < 1e-15
    assert np.abs(big @ big.conj().T - np.eye(16)).max() < 1e-12
    # A (n, 2, 2) stack of unitaries gives each trial's power, which rotates
    # that trial's (16, k) columns.
    us = sample_su2_batch(np.arange(3, dtype=np.uint64))
    vecs = np.random.default_rng(1).standard_normal((16, 5, 3)) + 0j
    powers = fourfold(us)
    for n, u in enumerate(us):
        expanded = np.kron(np.kron(u, u), np.kron(u, u))
        assert np.abs(powers[n] @ vecs[..., n] - expanded @ vecs[..., n]).max() < 1e-14

