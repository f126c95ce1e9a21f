"""Seed splitting, Haar sampling, and collective-rotation invariance."""

import math

import numpy as np
import pytest

import oracles
from oracles import (basis_state, born, chi2_sf, distance, mix64, rotate_pvm, split, su2,
                     su2_batch_reference, unmix64)
from afbell.qstate import PAIRS
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
    return fourfold(u[None])[0] @ s


def _rotate_pair(u_a, u_b, s):
    """An 8-qubit state rotated by u_a on qubits 1-4 and u_b on qubits 5-8."""
    p_a, p_b = fourfold(np.array([u_a, u_b]))
    return (p_a @ s.reshape(16, 16) @ p_b.T).reshape(256)


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


def _bits(a):
    """A complex array's float64 bits as uint64, sign of zero included."""
    return np.ascontiguousarray(a).view(np.uint64)


# Seeds whose k-th uniform is exactly 1 (mix64 of seed + k * gamma at least
# 2^64 - 2^11), k = 1 and 3: Box-Muller's radius is then -0.0, so two
# quaternion components are zeros, whose signs the matrix keeps.
UNIT_UNIFORM_SEEDS = [(unmix64(2**64 - 1 - j) - k * 0x9E3779B97F4A7C15) % 2**64
                      for k in (1, 3) for j in (0, 1, 2**10, 2**11 - 1)]


DRAW_BATCHES = [1, 2, 3, 97, 4096, 8192, 100_000]


def _draw_seeds(n):
    """n split seeds; the 100 000 start with 0, 2^64 - 1 and the unit-uniform
    seeds."""
    seeds = split_seed(0x5EED5, np.arange(n, dtype=np.uint64))
    if n == 100_000:
        seeds[:2 + len(UNIT_UNIFORM_SEEDS)] = [0, 2**64 - 1, *UNIT_UNIFORM_SEEDS]
    return seeds


@pytest.mark.parametrize("n", DRAW_BATCHES)
def test_sample_su2_batch_keeps_the_reference_bits(n):
    # The draw against the frozen seeds-first formulation, bit for bit.
    seeds = _draw_seeds(n)
    assert np.array_equal(_bits(sample_su2_batch(seeds)), _bits(su2_batch_reference(seeds)))


@pytest.mark.parametrize("n", DRAW_BATCHES)
def test_sample_su2_batch_into_a_buffer_keeps_the_reference_bits(n):
    # The same bits written into a caller's (2, 2, n) buffer, trials last,
    # and returned as its (n, 2, 2) view.
    seeds = _draw_seeds(n)
    want = _bits(su2_batch_reference(seeds))
    out = np.empty((2, 2, n), complex)
    got = sample_su2_batch(seeds, out=out)
    assert np.shares_memory(got, out) and got.shape == (n, 2, 2)
    assert np.array_equal(_bits(got), want)


def test_unit_uniform_seeds_draw_signed_zeros():
    # The edge seeds above reach the uniform 1.0 and a matrix with zero
    # entries, so the bit comparison sees the signs of zeros.
    assert all(mix64((seed + k * 0x9E3779B97F4A7C15) % 2**64) >> 11 == 2**53 - 1
               for seed, k in zip(UNIT_UNIFORM_SEEDS, [1] * 4 + [3] * 4))
    u = sample_su2_batch(np.array(UNIT_UNIFORM_SEEDS, np.uint64))
    assert (u.real == 0).any() and np.signbit(u.real[u.real == 0]).any()


def test_haar_trace_moment():
    # For Haar SU(2) the mean of |tr U|^2 is 1, so |tr U|^2/4 averages 1/4.
    n = 10_000
    seeds = np.array([split_seed(2718281828, k) for k in range(n)], dtype=np.uint64)
    us = sample_su2_batch(seeds)
    stat = np.abs(us[:, 0, 0] + us[:, 1, 1]) ** 2 / 4.0
    mean = stat.mean()
    stderr = stat.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 0.25) < 3.0 * stderr


# The Haar test's root seed, draws, bins per G-test and rejection threshold,
# fixed before its first run.  Every Haar U in SU(2) is cos a I - i sin a
# (n . sigma), U00 = cos a - i n_z sin a: the angle a in [0, pi] has CDF
# (a - sin a cos a)/pi, and the axis n is uniform on the sphere, so n_z is
# uniform on [-1, 1] (Mezzadri, Notices AMS 54, 592, 2007).
HAAR_ROOT = 0x5EED_4AA2
HAAR_DRAWS = 100_000
HAAR_BINS = 20
HAAR_P_MIN = 1e-6


def _uniform_p(u):
    """G-test p-value of values u in [0, 1] against HAAR_BINS equal bins."""
    observed = np.bincount(np.minimum((u * HAAR_BINS).astype(int), HAAR_BINS - 1),
                           minlength=HAAR_BINS)
    hit = observed[observed > 0]
    g = 2.0 * float((hit * np.log(hit * HAAR_BINS / len(u))).sum())
    return chi2_sf(g, HAAR_BINS - 1)


def _haar_p_values(us):
    """G-test p-values of (n, 2, 2) matrices' angles a, through their CDF,
    and of their axes' n_z, both read off U00."""
    a = np.arccos(np.clip(us[:, 0, 0].real, -1.0, 1.0))
    n_z = np.clip(-us[:, 0, 0].imag / np.sin(a), -1.0, 1.0)
    return _uniform_p((a - np.sin(a) * np.cos(a)) / math.pi), _uniform_p((n_z + 1.0) / 2.0)


def test_chi2_survival_closed_form():
    # The 5% critical values of chi^2 with 1, 2, 19 and 20 degrees of freedom.
    for x, df in ((3.841459, 1), (5.991465, 2), (30.143527, 19), (31.410433, 20)):
        assert chi2_sf(x, df) == pytest.approx(0.05, rel=1e-5)


def test_haar_angle_and_axis_distributions():
    us = sample_su2_batch(split_seed(HAAR_ROOT, np.arange(HAAR_DRAWS)))
    assert min(_haar_p_values(us)) > HAAR_P_MIN
    # The test's power: normalized uniform-cube quaternions, symmetric under
    # permuting their components, meet test_haar_trace_moment's E[w^2] = 1/4,
    # but neither the Haar angle law nor the uniform axis.
    q = np.random.default_rng(HAAR_ROOT).uniform(-1.0, 1.0, (4, HAAR_DRAWS))
    w, x, y, z = q / np.linalg.norm(q, axis=0)
    assert abs(np.mean(w * w) - 0.25) < 3.0 * np.std(w * w) / math.sqrt(HAAR_DRAWS)
    cube = np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]]).transpose(2, 0, 1)
    assert max(_haar_p_values(cube)) < HAAR_P_MIN


def test_axis_angle_x_pi_flips_all_bits():
    # An x-axis pi rotation is -i X per qubit; the fourth tensor power has
    # phase (-i)^4 = 1, so |0011> maps exactly to |1100>.
    u = np.array([[0, -1j], [-1j, 0]])
    out = _rotate(u, basis_state(4, "0011"))
    assert distance(out, basis_state(4, "1100")) < 1e-14


def test_apply_fourfold_identity_and_norm():
    s = PAIRS[0, 1]
    assert distance(_rotate(np.eye(2, dtype=complex), s), s) == 0.0
    out = _rotate(_draw(1234), s)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_invariance_of_all_four_states():
    states = PAIRS.reshape(4, 16)
    worst = 0.0
    for u in sample_su2_batch(split_seed(404, np.arange(100))):
        for s in states:
            worst = max(worst, distance(_rotate(u, s), s))
    assert worst < INV_TOL


def test_pair_invariance_of_eta():
    eta = oracles.eta()
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
    fidelity = abs(np.vdot(zeros, moved)) ** 2
    assert fidelity < 0.999


def test_rotate_pvm_leaves_F_unchanged():
    f = oracles.F
    ident = rotate_pvm(np.eye(2, dtype=complex), f)
    for p, q in zip(f.values(), ident.values()):
        assert np.abs(p - q).max() == 0.0
    for k in range(10):
        rotated = rotate_pvm(_draw(split_seed(55, k)), f)
        assert oracles.pvm_violation(rotated) < 1e-12
        for p, q in zip(f.values(), rotated.values()):
            assert np.abs(p - q).max() < INV_TOL
        dist = born(PAIRS[0, 0], rotated)
        assert dist[-1] == pytest.approx(1.0, abs=1e-10)


def test_general_unitary_picks_up_global_phase_only():
    # U = e^{i theta} V with V special: the fourfold power multiplies the
    # invariant states by e^{4 i theta}; probabilities are unchanged.
    theta = 0.3721
    u = np.exp(1j * theta) * _draw(991)
    f = oracles.F
    for s in PAIRS[0]:
        out = _rotate(u, s)
        expected = np.exp(4j * theta) * s
        assert np.abs(out - expected).max() < INV_TOL
        dist = born(out, f)
        assert dist == pytest.approx(born(s, f), abs=1e-10)


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

