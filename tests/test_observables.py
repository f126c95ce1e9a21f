"""PVM structure, Born distributions, and the single-qubit protocol.

Born, classified and coarse-grained distributions come from the references
in oracles; what is under test is the PVMs and protocols they read."""

import hashlib
import json
import math

import numpy as np
import pytest

import oracles
from afbell.observables import (
    ALL_STRINGS,
    PVM,
    LocalProtocol,
    build_F,
    build_G,
    local_protocol_for,
    string_distribution,
)
from afbell.qstate import StateVector, build_phi, build_psi

TOL = 1e-12


def _pvm_ranks(m):
    return [int(round(np.trace(p).real)) for _, p in m.outcomes]


@pytest.mark.parametrize("builder", [build_F, build_G])
def test_pvm_structure(builder):
    m = builder()
    assert [label for label, _ in m.outcomes] == [-1, +1, 0]
    assert _pvm_ranks(m) == [1, 1, 14]
    total = sum(p for _, p in m.outcomes)
    assert np.abs(total - np.eye(16)).max() < TOL
    for _, p in m.outcomes:
        assert np.abs(p - p.conj().T).max() < TOL
        assert np.abs(p @ p - p).max() < TOL


def test_pvm_rejects_non_projector():
    broken = np.eye(16) * 0.5
    with pytest.raises(ValueError):
        PVM(((1, broken),))


@pytest.mark.filterwarnings("error")
def test_pvm_rejects_non_finite_projector():
    for bad in (np.nan, np.inf):
        proj = np.eye(16, dtype=complex)
        proj[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PVM(((1, proj),))


def test_born_on_eigenstates():
    f = build_F()
    assert oracles.born(build_phi(1), f) == pytest.approx(
        {-1: 0.0, +1: 1.0, 0: 0.0}, abs=TOL)
    assert oracles.born(build_phi(0), f) == pytest.approx(
        {-1: 1.0, +1: 0.0, 0: 0.0}, abs=TOL)
    g = build_G()
    assert oracles.born(build_psi(0), g) == pytest.approx(
        {-1: 1.0, +1: 0.0, 0: 0.0}, abs=TOL)


def test_born_cross_values():
    # Oracle: squared inner products from the coefficient dicts.
    p_plus = oracles.dict_inner(oracles.PHI1, oracles.PSI0) ** 2
    assert p_plus == pytest.approx(0.75, abs=TOL)
    f = build_F()
    assert oracles.born(build_psi(0), f) == pytest.approx(
        {-1: 0.25, +1: 0.75, 0: 0.0}, abs=TOL)
    assert oracles.born(build_psi(1), f) == pytest.approx(
        {-1: 0.75, +1: 0.25, 0: 0.0}, abs=TOL)
    g = build_G()
    assert oracles.born(build_phi(0), g)[+1] == pytest.approx(
        oracles.dict_inner(oracles.PSI1, oracles.PHI0) ** 2, abs=TOL)
    assert oracles.born(build_phi(0), g)[+1] == pytest.approx(0.75, abs=TOL)
    assert oracles.born(build_phi(1), g)[+1] == pytest.approx(0.25, abs=TOL)


def test_born_outside_the_span():
    # Oracle: |0000> has no overlap with either discriminated state.
    assert oracles.dict_inner({"0000": 1.0}, oracles.PHI0) == 0.0
    assert oracles.dict_inner({"0000": 1.0}, oracles.PHI1) == 0.0
    dist = oracles.born(oracles.basis_state(4, "0000"), build_F())
    assert dist == pytest.approx({-1: 0.0, +1: 0.0, 0: 1.0}, abs=TOL)


def test_born_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = StateVector(4, amps / np.linalg.norm(amps))
        for m in (build_F(), build_G()):
            dist = oracles.born(state, m)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-11)
            assert all(p >= 0.0 for p in dist.values())


def test_protocol_axes_and_partition():
    f = local_protocol_for("F")
    assert f.axes == ("z", "z", "x", "x")
    g = local_protocol_for("G")
    assert g.axes == ("z", "x", "z", "x")
    for proto in (f, g):
        minus = [s for s in ALL_STRINGS if proto.classifier[s] == -1]
        plus = [s for s in ALL_STRINGS if proto.classifier[s] == +1]
        assert len(minus) == 4 and len(plus) == 12
        assert sorted(minus + plus) == sorted(ALL_STRINGS)
    assert [s for s in ALL_STRINGS if f.classifier[s] == -1] == [
        "0101", "0110", "1001", "1010"]
    with pytest.raises(ValueError):
        local_protocol_for("H")


def test_protocol_example_strings():
    f = local_protocol_for("F")
    assert f.classifier["0101"] == -1  # z=01, x-bits 01
    assert f.classifier["0000"] == +1
    g = local_protocol_for("G")
    assert g.classifier["0011"] == -1  # differs on qubits (1,3) and (2,4)
    assert g.classifier["0101"] == +1


def test_protocol_eigenbasis_orthonormal():
    for tag in ("F", "G"):
        proto = local_protocol_for(tag)
        vecs = proto.eigenvectors
        assert vecs.shape == (16, 16)
        gram = vecs.conj() @ vecs.T
        assert np.abs(gram - np.eye(16)).max() < TOL
        coarse = oracles.coarse_grained(proto)
        total = coarse.projector(-1) + coarse.projector(+1)
        assert np.abs(total - np.eye(16)).max() < TOL


def test_protocol_eigenbasis_oracle():
    # Reference: row i is the Kronecker product, qubit by qubit, of the axis
    # eigenvector selected by bit i (sigma_x +1 eigenvector is bit 0).
    s = 1.0 / math.sqrt(2.0)
    axis_vectors = {
        "z": ([1.0, 0.0], [0.0, 1.0]),
        "x": ([s, s], [s, -s]),
    }
    for tag in ("F", "G"):
        proto = local_protocol_for(tag)
        for i, bits in enumerate(ALL_STRINGS):
            row = np.array([1.0 + 0j])
            for axis, b in zip(proto.axes, bits):
                row = np.kron(row, np.array(axis_vectors[axis][int(b)], dtype=complex))
            assert np.array_equal(proto.eigenvectors[i], row), (tag, bits)
            assert proto.labels[i] == proto.classifier[bits], (tag, bits)
        assert proto.labels.dtype == np.int8
        for arr in (proto.eigenvectors, proto.integer_eigenvectors, proto.labels):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    assert local_protocol_for("F") is local_protocol_for("F")
    assert local_protocol_for("G") is local_protocol_for("G")


# sha256 of each protocol's complex128 eigenvector bytes, the rows the
# protocol sampler reads, recorded when the axes were float constants:
# stating them as integers must not move a bit of the sampled outcomes.
EIGENVECTOR_SHA256 = {
    "F": "f73564079c395b89ae112db8d32a277edbb76c64500a760d0572a172ca924401",
    "G": "31a418b625c42c6bb71ff1834cdc27c33f6c81b0e5246d81d6882958d1b275ee",
}


@pytest.mark.parametrize("tag", sorted(EIGENVECTOR_SHA256))
def test_protocol_eigenvectors_pinned(tag):
    proto = local_protocol_for(tag)
    assert hashlib.sha256(proto.eigenvectors.tobytes()).hexdigest() == EIGENVECTOR_SHA256[tag]
    # Two x axes make every integer row twice its unit eigenvector.
    ints = proto.integer_eigenvectors
    assert ints.dtype.kind == "i" and set(np.unique(ints)) == {-1, 0, 1}
    assert np.abs(ints - 2 * proto.eigenvectors).max() < TOL


def test_string_probabilities_on_discriminated_states():
    f = local_protocol_for("F")
    dist0 = string_distribution(build_phi(0), f)
    for bits, prob in dist0.items():
        target = 0.25 if f.classifier[bits] == -1 else 0.0
        assert prob == pytest.approx(target, abs=TOL)
    dist1 = string_distribution(build_phi(1), f)
    for bits, prob in dist1.items():
        target = 1.0 / 12.0 if f.classifier[bits] == +1 else 0.0
        assert prob == pytest.approx(target, abs=TOL)
    g = local_protocol_for("G")
    for bits, prob in string_distribution(build_psi(0), g).items():
        target = 0.25 if g.classifier[bits] == -1 else 0.0
        assert prob == pytest.approx(target, abs=TOL)


def test_classified_distribution_on_span_members():
    f = local_protocol_for("F")
    assert oracles.classified(build_phi(0), f) == pytest.approx(
        {-1: 1.0, +1: 0.0}, abs=TOL)
    assert oracles.classified(build_psi(0), f) == pytest.approx(
        {-1: 0.25, +1: 0.75}, abs=TOL)


def test_coarse_grain_matches_pvm_on_span():
    rng = np.random.default_rng(17)
    for tag, v0, v1, pvm in (
        ("F", build_phi(0), build_phi(1), build_F()),
        ("G", build_psi(0), build_psi(1), build_G()),
    ):
        proto = local_protocol_for(tag)
        coarse = oracles.coarse_grained(proto)
        assert sorted(_pvm_ranks(coarse)) == [4, 12]
        for _ in range(100):
            c = rng.standard_normal(4)
            amps = (c[0] + 1j * c[1]) * v0.amps + (c[2] + 1j * c[3]) * v1.amps
            state = StateVector(4, amps / np.linalg.norm(amps))
            via_protocol = oracles.classified(state, proto)
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
    cf = oracles.coarse_grained(local_protocol_for("F"))
    cg = oracles.coarse_grained(local_protocol_for("G"))
    for label in (-1, +1):
        swapped = perm @ cf.projector(label) @ perm.T
        assert np.abs(swapped - cg.projector(label)).max() < TOL


def test_protocol_validation():
    with pytest.raises(ValueError):
        LocalProtocol(("z", "z", "z", "x"), {s: 1 for s in ALL_STRINGS})
    table = {s: 1 for s in ALL_STRINGS}
    table.pop("0000")
    with pytest.raises(ValueError):
        LocalProtocol(("z", "z", "x", "x"), table)
    bad = {s: (2 if s == "0000" else 1) for s in ALL_STRINGS}
    with pytest.raises(ValueError):
        LocalProtocol(("z", "z", "x", "x"), bad)


def test_classifier_json_roundtrip():
    f = local_protocol_for("F")
    table = json.loads(f.classifier_json())
    assert set(table) == set(ALL_STRINGS)
    assert table["0101"] == -1
    assert table["1111"] == 1
