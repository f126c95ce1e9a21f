"""Exact-rational feasibility engine and its certificates."""

import dataclasses
import inspect
import json
import random
from fractions import Fraction

import pytest

from afbell import lhv
from afbell.lhv import (
    HARDY_VALUE,
    Constraint,
    FeasibilityCertificate,
    Strategy,
    all_strategies,
    certificate_to_json_dict,
    check_feasibility,
    max_hardy_fraction,
    quantum_constraints,
    render_certificate,
    verify_certificate,
)


def _weights(cert, constraints):
    """The Farkas vector keyed by constraint name."""
    names = [c.name for c in constraints] + ["normalization"]
    return dict(zip(names, cert.farkas, strict=True))


def _replace_weight(cert, constraints, name, weight):
    weights = _weights(cert, constraints) | {name: Fraction(weight)}
    return dataclasses.replace(cert, farkas=tuple(weights.values()))


def test_strategy_space_sizes():
    assert len(all_strategies()) == 81
    assert all_strategies()[0] == Strategy(-1, -1, -1, -1)
    assert len(set(all_strategies())) == 81


def test_quantum_constraints_shape():
    cons = quantum_constraints()
    assert len(cons) == 5
    by_name = {c.name: c for c in cons}
    assert by_name["gg_hardy"].value == Fraction(9, 112)
    assert by_name["ff_zero"].value == Fraction(0, 1)
    assert set(by_name) == {
        "ff_zero", "gb_implies_fa", "ga_implies_fb", "gg_hardy", "no_zero_outcome"}
    # Event sanity on the full space.
    assert len(by_name["gg_hardy"].event_set()) == 9
    assert len(by_name["ff_zero"].event_set()) == 9
    assert len(by_name["no_zero_outcome"].event_set()) == 81 - 16


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint("bad", Fraction(3, 2), lambda s: True)


def test_quantum_constraints_infeasible():
    cons = quantum_constraints()
    cert = check_feasibility(cons)
    assert not cert.feasible
    assert cert.witness is None
    # Hardy's inequality: P(GG) <= P(FF) + P(G_B, not F_A) + P(G_A, not F_B).
    assert _weights(cert, cons) == {
        "ff_zero": -1, "gb_implies_fa": -1, "ga_implies_fb": -1, "gg_hardy": 1,
        "no_zero_outcome": 0, "normalization": 0}
    assert verify_certificate(cert, cons)


def test_dropping_zero_exclusion_changes_nothing():
    cons = [c for c in quantum_constraints() if c.name != "no_zero_outcome"]
    cert = check_feasibility(cons)
    assert not cert.feasible
    assert verify_certificate(cert, cons)


def test_hardy_value_zero_becomes_feasible():
    cons = [
        dataclasses.replace(c, value=Fraction(0)) if c.name == "gg_hardy" else c
        for c in quantum_constraints()
    ]
    cert = check_feasibility(cons)
    assert cert.feasible
    assert cert.witness == ((Strategy(-1, -1, -1, -1), Fraction(1)),)
    assert verify_certificate(cert, cons)


@pytest.mark.parametrize("dropped", [
    "ff_zero", "gb_implies_fa", "ga_implies_fb", "gg_hardy"])
def test_dropping_one_load_bearing_constraint_is_feasible(dropped):
    cons = [c for c in quantum_constraints() if c.name != dropped]
    cert = check_feasibility(cons)
    assert cert.feasible
    assert verify_certificate(cert, cons)
    masses = dict(cert.witness)
    assert sum(masses.values()) == 1
    if dropped == "ff_zero":
        # Hardy mass must sit on the all-ones strategy.
        assert masses.get(Strategy(1, 1, 1, 1)) == HARDY_VALUE


def test_single_half_constraint_equal_mixture():
    cons = [Constraint("half_fa", Fraction(1, 2), lambda s: s.f_a == 1)]
    cert = check_feasibility(cons)
    assert cert.feasible
    masses = dict(cert.witness)
    assert len(masses) == 2
    assert set(masses.values()) == {Fraction(1, 2)}
    in_event = [s for s in masses if s.f_a == 1]
    assert len(in_event) == 1
    assert verify_certificate(cert, cons)


def test_unsatisfiable_overlapping_positives():
    cons = [
        Constraint("a", Fraction(9, 10), lambda s: s.f_a == 1),
        Constraint("b", Fraction(9, 10), lambda s: s.f_a == -1),
    ]
    cert = check_feasibility(cons)
    assert not cert.feasible
    # P(a) + P(b) <= 1 on every strategy, against 9/10 + 9/10.
    assert _weights(cert, cons) == {"a": 1, "b": 1, "normalization": -1}
    assert verify_certificate(cert, cons)


def test_everything_forbidden_is_infeasible():
    cons = [Constraint("nothing", Fraction(0), lambda s: True)]
    cert = check_feasibility(cons)
    assert not cert.feasible
    # Normalization alone is refuted: 1 <= P(nothing) = 0.
    assert _weights(cert, cons) == {"nothing": -1, "normalization": 1}
    assert verify_certificate(cert, cons)


def test_max_hardy_fraction_values():
    cons = quantum_constraints()
    zeros = [c for c in cons if c.value == 0]
    assert max_hardy_fraction(zeros) == Fraction(0)
    dropped_ff = [c for c in zeros if c.name != "ff_zero"]
    assert max_hardy_fraction(dropped_ff) == Fraction(1)
    only_zero_exclusion = [c for c in zeros if c.name == "no_zero_outcome"]
    assert max_hardy_fraction(only_zero_exclusion) == Fraction(1)
    with pytest.raises(ValueError):
        max_hardy_fraction([cons[3]])  # the positive hardy constraint


def test_bell_gap_is_a_strict_rational_inequality():
    zeros = [c for c in quantum_constraints() if c.value == 0]
    assert max_hardy_fraction(zeros) < HARDY_VALUE
    assert HARDY_VALUE == Fraction(9, 112)


def test_verify_rejects_tampered_containment():
    cons = quantum_constraints()
    cert = check_feasibility(cons)
    # Without gg_hardy the bound reads 0 <= ...; without one zero event some
    # both-G strategy escapes the right side.
    for name in ("gg_hardy", "ff_zero", "gb_implies_fa", "ga_implies_fb"):
        assert verify_certificate(_replace_weight(cert, cons, name, 0), cons) is False


def test_verify_rejects_mismatched_citations():
    cons = quantum_constraints()
    cert = check_feasibility(cons)
    hardy_zero = [
        dataclasses.replace(c, value=Fraction(0)) if c.name == "gg_hardy" else c
        for c in cons
    ]
    assert verify_certificate(cert, hardy_zero) is False
    assert verify_certificate(cert, cons[:-1]) is False  # wrong length


def test_verify_never_calls_the_solver(monkeypatch):
    cons = quantum_constraints()
    cert = check_feasibility(cons)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_certificate re-decided feasibility")

    monkeypatch.setattr(lhv, "check_feasibility", refuse)
    assert verify_certificate(cert, cons)


def test_verify_rejects_perturbed_witness():
    cons = [c for c in quantum_constraints() if c.name != "ff_zero"]
    cert = check_feasibility(cons)
    assert cert.feasible and verify_certificate(cert, cons)
    masses = dict(cert.witness)
    eps = Fraction(1, 112)
    shifted = {s: m for s, m in masses.items()}
    all_ones = Strategy(1, 1, 1, 1)
    rest = next(s for s in shifted if s != all_ones)
    shifted[all_ones] -= eps
    shifted[rest] += eps
    bad = dataclasses.replace(cert, witness=tuple(sorted(shifted.items())))
    assert verify_certificate(bad, cons) is False


def test_verify_rejects_a_strategy_listed_twice():
    # Appending (s, 5) and then s's own mass leaves the last mass of every
    # strategy as it was, so a check that keeps one mass per strategy passes
    # a witness whose listed masses sum to far more than 1.
    cons = [c for c in quantum_constraints() if c.name != "ff_zero"]
    cert = check_feasibility(cons)
    first, mass = cert.witness[0]
    padded = dataclasses.replace(
        cert, witness=(*cert.witness, (first, Fraction(5)), (first, mass)))
    assert sum(m for _, m in padded.witness) == 6 + mass
    assert verify_certificate(padded, cons) is False


def test_verify_rejects_malformed_certificates():
    cons = quantum_constraints()
    with pytest.raises(ValueError):
        verify_certificate(FeasibilityCertificate(feasible=True), cons)
    with pytest.raises(ValueError):
        verify_certificate(FeasibilityCertificate(feasible=False), cons)
    with pytest.raises(TypeError):
        verify_certificate("certificate", cons)
    float_mass = FeasibilityCertificate(
        feasible=True, witness=((Strategy(-1, -1, -1, -1), 1.0),))
    with pytest.raises(ValueError):
        verify_certificate(float_mass, cons)
    int_weights = FeasibilityCertificate(feasible=False, farkas=(-1, -1, -1, 1, 0, 0))
    with pytest.raises(ValueError):
        verify_certificate(int_weights, cons)


def test_verify_every_corpus_certificate():
    corpora = [
        quantum_constraints(),
        [c for c in quantum_constraints() if c.name != "gg_hardy"],
        [Constraint("half", Fraction(1, 2), lambda s: s.g_b == 1)],
        [],
    ]
    for cons in corpora:
        cert = check_feasibility(cons)
        assert verify_certificate(cert, cons)


def test_no_floating_point_in_module():
    source = inspect.getsource(lhv)
    assert "numpy" not in source
    assert "float(" not in source
    cert = check_feasibility(quantum_constraints())
    # Everything numeric in certificates is int or Fraction.
    if cert.witness:
        assert all(isinstance(m, Fraction) for _, m in cert.witness)


def test_certificate_json_export():
    cons = quantum_constraints()
    cert = check_feasibility(cons)
    payload = certificate_to_json_dict(cert, cons)
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert parsed["feasible"] is False
    assert parsed["outcome_values"] == [-1, 0, 1]
    assert len(parsed["constraints"]) == 5
    hardy = next(c for c in parsed["constraints"] if c["name"] == "gg_hardy")
    assert Fraction(hardy["value"]) == Fraction(9, 112)
    assert len(hardy["event"]) == 9
    assert [w["constraint"] for w in parsed["farkas"]] == [
        "ff_zero", "gb_implies_fa", "ga_implies_fb", "gg_hardy", "no_zero_outcome",
        "normalization"]
    assert [Fraction(w["weight"]) for w in parsed["farkas"]] == [-1, -1, -1, 1, 0, 0]

    feasible = check_feasibility([c for c in cons if c.name != "ff_zero"])
    payload2 = certificate_to_json_dict(feasible, cons[1:])
    assert any(Fraction(w["probability"]) == Fraction(9, 112)
               for w in payload2["witness"])


def test_render_certificate_text():
    cons = quantum_constraints()
    cert = check_feasibility(cons)
    text = render_certificate(cert, cons)
    assert "INFEASIBLE" in text
    assert "step 1" in text and "step 3" in text
    assert "gg_hardy" in text
    step1 = next(line for line in text.splitlines() if "step 1" in line)
    assert "[s in gg_hardy] <= [s in ff_zero] + [s in gb_implies_fa] + " \
           "[s in ga_implies_fb] (checked on all 81 strategies)" in step1
    assert "left side = 9/112 and the right side = 0" in text

    feasible = check_feasibility([])
    text2 = render_certificate(feasible, [])
    assert "FEASIBLE" in text2


def test_derivation_statement_matches_semantics():
    cons = quantum_constraints()
    cert = check_feasibility(cons)
    weights = _weights(cert, cons)
    # The -1 weighted zero events cover the +1 weighted Hardy event.
    union = set()
    for c in cons:
        if weights[c.name] < 0:
            union |= set(c.event_set())
    target_event = next(c for c in cons if weights[c.name] > 0).event_set()
    assert target_event <= union


# Verdicts of check_feasibility recorded before the LP replaced the greedy
# cover and support enumeration ('F' feasible, 'I' infeasible).
# Subset k keeps quantum_constraints()[j] for every bit j set in k.
SUBSET_VERDICTS = "FFFFFFFFFFFFFFFIFFFFFFFFFFFFFFFI"
RANDOM_VERDICTS = (
    "FFFFIFFFFFFFFFFFFFFFFFFIFFFFFFFFFFFFFFFFFFFFFFFFFF"
    "FFFFFFFFFFFFFFIFFFIFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF"
    "FFFFFFFFIFFFFIIFFFFFFFFFIFFFFFFFFFFFFFFFFFIFFFFFFF"
    "FFFFFFFFFFFFFFFFFFFFFIIFFFFFFFFFIFFFFFFFFFFFFFFFFF"
)


def _random_corpus():
    """Seeded constraint sets of 0-4 random events over the 81 strategies, each
    row paired with the kind its pin was taken with: an equality, or the
    retired at-least row P(E) >= value."""
    rng = random.Random(0)
    space = all_strategies()
    corpus = []
    for i in range(len(RANDOM_VERDICTS)):
        rows = []
        for j in range(rng.randint(0, 4)):
            density = rng.choice((0.05, 0.2, 0.5, 0.8))
            members = frozenset(s for s in space if rng.random() < density)
            value = Fraction(rng.choice((0, rng.randint(1, 12))), 12)
            kind = rng.choice(("equals", "at_least"))
            rows.append((kind, Constraint(f"r{i}_{j}", value, members.__contains__)))
        corpus.append(rows)
    return corpus


RANDOM_CORPUS = _random_corpus()


@pytest.mark.parametrize("subset", range(32))
def test_subset_verdict_pins(subset):
    cons = [c for j, c in enumerate(quantum_constraints()) if subset >> j & 1]
    cert = check_feasibility(cons)
    assert cert.feasible == (SUBSET_VERDICTS[subset] == "F")
    assert verify_certificate(cert, cons)


@pytest.mark.parametrize("index", range(len(RANDOM_VERDICTS)))
def test_random_corpus_verdict_pins(index):
    # Dropping an entry's at-least rows relaxes it and posing them as
    # equalities tightens it, so a feasible pin holds for the first and an
    # infeasible pin for the second.  For the 77 all-equality entries both
    # are the entry itself, so the pin holds exactly.
    rows = RANDOM_CORPUS[index]
    relaxed = [c for kind, c in rows if kind == "equals"]
    cons = relaxed if RANDOM_VERDICTS[index] == "F" else [c for _, c in rows]
    cert = check_feasibility(cons)
    assert cert.feasible == (RANDOM_VERDICTS[index] == "F")
    assert verify_certificate(cert, cons)
