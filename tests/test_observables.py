"""PVM structure, Born distributions, and the single-qubit protocol.

Born, classified and coarse-grained distributions come from the references
in oracles; what is under test is the arrays they read, all by setting code
(F 0, G 1): F and G are experiment._PROJECTORS, as {label: projector} dicts
in LABEL_ORDER, the states are qstate.PAIRS, and the protocol is
observables' PROTOCOL_ROWS, PROTOCOL_INTEGER_ROWS and PROTOCOL_LABELS."""

import hashlib
import math

import numpy as np
import pytest

import oracles
from afbell.experiment import LABEL_ORDER, _PROJECTORS
from afbell import observables
from afbell.observables import PROTOCOL_INTEGER_ROWS, PROTOCOL_LABELS, PROTOCOL_ROWS
from afbell.qstate import PAIRS

TOL = 1e-12

F, G = (dict(zip(LABEL_ORDER, projectors)) for projectors in _PROJECTORS)
(PHI0, PHI1), (PSI0, PSI1) = PAIRS
STRINGS = [format(i, "04b") for i in range(16)]


def _pvm_ranks(m):
    return [int(round(np.trace(p).real)) for p in m.values()]


@pytest.mark.parametrize("setting", ["F", "G"])
def test_pvm_structure(setting):
    x = "FG".index(setting)
    projectors = _PROJECTORS[x]
    assert LABEL_ORDER == (-1, +1, 0) and projectors.shape == (3, 16, 16)
    assert not projectors.flags.writeable
    assert _pvm_ranks((F, G)[x]) == [1, 1, 14]
    assert np.abs(projectors.sum(axis=0) - np.eye(16)).max() < TOL
    for i, p in enumerate(projectors):
        assert np.abs(p - p.conj().T).max() < TOL
        assert np.abs(p @ p - p).max() < TOL
        for q in projectors[:i]:
            assert np.abs(p @ q).max() < TOL
    # The projectors of the paper's published pairs, built apart from PAIRS.
    published = (oracles.F, oracles.G)[x]
    assert np.abs(projectors - np.array(list(published.values()))).max() < TOL


def test_born_on_eigenstates():
    assert oracles.born(PHI1, F) == pytest.approx(
        {-1: 0.0, +1: 1.0, 0: 0.0}, abs=TOL)
    assert oracles.born(PHI0, F) == pytest.approx(
        {-1: 1.0, +1: 0.0, 0: 0.0}, abs=TOL)
    assert oracles.born(PSI0, G) == pytest.approx(
        {-1: 1.0, +1: 0.0, 0: 0.0}, abs=TOL)


def test_born_cross_values():
    # Oracle: squared inner products from the coefficient dicts.
    p_plus = oracles.dict_inner(oracles.PHI1, oracles.PSI0) ** 2
    assert p_plus == pytest.approx(0.75, abs=TOL)
    assert oracles.born(PSI0, F) == pytest.approx(
        {-1: 0.25, +1: 0.75, 0: 0.0}, abs=TOL)
    assert oracles.born(PSI1, F) == pytest.approx(
        {-1: 0.75, +1: 0.25, 0: 0.0}, abs=TOL)
    assert oracles.born(PHI0, G)[+1] == pytest.approx(
        oracles.dict_inner(oracles.PSI1, oracles.PHI0) ** 2, abs=TOL)
    assert oracles.born(PHI0, G)[+1] == pytest.approx(0.75, abs=TOL)
    assert oracles.born(PHI1, G)[+1] == pytest.approx(0.25, abs=TOL)


def test_born_outside_the_span():
    # Oracle: |0000> has no overlap with either discriminated state.
    assert oracles.dict_inner({"0000": 1.0}, oracles.PHI0) == 0.0
    assert oracles.dict_inner({"0000": 1.0}, oracles.PHI1) == 0.0
    dist = oracles.born(oracles.basis_state(4, "0000"), F)
    assert dist == pytest.approx({-1: 0.0, +1: 0.0, 0: 1.0}, abs=TOL)


def test_born_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = amps / np.linalg.norm(amps)
        for m in (F, G):
            dist = oracles.born(state, m)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-11)
            assert all(p >= 0.0 for p in dist.values())


def _label(x, bits):
    return int(PROTOCOL_LABELS[x, int(bits, 2)])


def test_protocol_axes_and_partition():
    assert observables._AXES == ("zzxx", "zxzx")
    assert PROTOCOL_LABELS.shape == (2, 16) and PROTOCOL_LABELS.dtype == np.int8
    for labels in PROTOCOL_LABELS:
        minus = [s for s, label in zip(STRINGS, labels) if label == -1]
        plus = [s for s, label in zip(STRINGS, labels) if label == +1]
        assert len(minus) == 4 and len(plus) == 12
        assert sorted(minus + plus) == STRINGS
    assert [s for s in STRINGS if _label(0, s) == -1] == ["0101", "0110", "1001", "1010"]


def test_protocol_example_strings():
    assert _label(0, "0101") == -1  # z=01, x-bits 01
    assert _label(0, "0000") == +1
    assert _label(1, "0011") == -1  # differs on qubits (1,3) and (2,4)
    assert _label(1, "0101") == +1


def test_protocol_eigenbasis_orthonormal():
    assert PROTOCOL_ROWS.shape == (2, 16, 16)
    for vecs, labels in zip(PROTOCOL_ROWS, PROTOCOL_LABELS):
        gram = vecs.conj() @ vecs.T
        assert np.abs(gram - np.eye(16)).max() < TOL
        coarse = oracles.coarse_grained(vecs, labels)
        total = coarse[-1] + coarse[+1]
        assert np.abs(total - np.eye(16)).max() < TOL


def test_protocol_eigenbasis_oracle():
    # Reference: row i is the Kronecker product, qubit by qubit, of the axis
    # eigenvector selected by bit i (sigma_x +1 eigenvector is bit 0).
    s = 1.0 / math.sqrt(2.0)
    axis_vectors = {
        "z": ([1.0, 0.0], [0.0, 1.0]),
        "x": ([s, s], [s, -s]),
    }
    for x, axes in enumerate(oracles.PROTOCOL_AXES):
        for i, bits in enumerate(STRINGS):
            row = np.array([1.0 + 0j])
            for axis, b in zip(axes, bits):
                row = np.kron(row, np.array(axis_vectors[axis][int(b)], dtype=complex))
            assert np.array_equal(PROTOCOL_ROWS[x, i], row), (x, bits)
            assert PROTOCOL_LABELS[x, i] == (-1 if bits in oracles.PROTOCOL_MINUS[x] else 1)
    for arr in (PROTOCOL_ROWS, PROTOCOL_INTEGER_ROWS, PROTOCOL_LABELS):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def test_protocol_arrays_match_the_oracle():
    # The oracle states the protocol apart from afbell, each setting's -1
    # strings as literals and its integer rows entry by entry per qubit.
    assert np.array_equal(PROTOCOL_INTEGER_ROWS, oracles.PROTOCOL_INTEGER_ROWS)
    assert np.array_equal(PROTOCOL_LABELS, oracles.PROTOCOL_LABELS)
    assert np.abs(PROTOCOL_ROWS - oracles.PROTOCOL_INTEGER_ROWS / 2).max() < TOL


# sha256 of each protocol's complex128 eigenvector bytes, the rows the
# protocol sampler reads, recorded when the axes were float constants:
# stating them as integers must not move a bit of the sampled outcomes.
EIGENVECTOR_SHA256 = {
    "F": "f73564079c395b89ae112db8d32a277edbb76c64500a760d0572a172ca924401",
    "G": "31a418b625c42c6bb71ff1834cdc27c33f6c81b0e5246d81d6882958d1b275ee",
}


@pytest.mark.parametrize("tag", sorted(EIGENVECTOR_SHA256))
def test_protocol_eigenvectors_pinned(tag):
    x = "FG".index(tag)
    assert hashlib.sha256(PROTOCOL_ROWS[x].tobytes()).hexdigest() == EIGENVECTOR_SHA256[tag]
    # Two x axes make every integer row twice its unit eigenvector.
    ints = PROTOCOL_INTEGER_ROWS[x]
    assert ints.dtype.kind == "i" and set(np.unique(ints)) == {-1, 0, 1}
    assert np.abs(ints - 2 * PROTOCOL_ROWS[x]).max() < TOL


def _string_probs(state, x):
    """Each outcome string's probability, by STRINGS: |<e_i|s>|^2."""
    return dict(zip(STRINGS, np.abs(PROTOCOL_ROWS[x].conj() @ state) ** 2))


def test_string_probabilities_on_discriminated_states():
    for bits, prob in _string_probs(PHI0, 0).items():
        target = 0.25 if _label(0, bits) == -1 else 0.0
        assert prob == pytest.approx(target, abs=TOL)
    for bits, prob in _string_probs(PHI1, 0).items():
        target = 1.0 / 12.0 if _label(0, bits) == +1 else 0.0
        assert prob == pytest.approx(target, abs=TOL)
    for bits, prob in _string_probs(PSI0, 1).items():
        target = 0.25 if _label(1, bits) == -1 else 0.0
        assert prob == pytest.approx(target, abs=TOL)


def test_classified_distribution_on_span_members():
    f = PROTOCOL_ROWS[0], PROTOCOL_LABELS[0]
    assert oracles.classified(PHI0, *f) == pytest.approx(
        {-1: 1.0, +1: 0.0}, abs=TOL)
    assert oracles.classified(PSI0, *f) == pytest.approx(
        {-1: 0.25, +1: 0.75}, abs=TOL)


def test_coarse_grain_matches_pvm_on_span():
    rng = np.random.default_rng(17)
    for (v0, v1), pvm, rows, labels in zip(PAIRS, (F, G), PROTOCOL_ROWS, PROTOCOL_LABELS):
        coarse = oracles.coarse_grained(rows, labels)
        assert sorted(_pvm_ranks(coarse)) == [4, 12]
        for _ in range(100):
            c = rng.standard_normal(4)
            amps = (c[0] + 1j * c[1]) * v0 + (c[2] + 1j * c[3]) * v1
            state = amps / np.linalg.norm(amps)
            via_protocol = oracles.classified(state, rows, labels)
            via_coarse = oracles.born(state, coarse)
            exact = oracles.born(state, pvm)
            for label in (-1, +1):
                assert abs(via_protocol[label] - exact[label]) < TOL
                assert abs(via_coarse[label] - exact[label]) < TOL
            assert exact[0] < TOL


def test_g_protocol_is_swapped_f_protocol():
    # Conjugating the F coarse projectors by the qubit 2<->3 permutation
    # must give the G coarse projectors.
    perm = np.zeros((16, 16))
    for i in range(16):
        bits = format(i, "04b")
        j = int(bits[0] + bits[2] + bits[1] + bits[3], 2)
        perm[j, i] = 1.0
    cf, cg = (oracles.coarse_grained(rows, labels)
              for rows, labels in zip(PROTOCOL_ROWS, PROTOCOL_LABELS))
    for label in (-1, +1):
        swapped = perm @ cf[label] @ perm.T
        assert np.abs(swapped - cg[label]).max() < TOL
