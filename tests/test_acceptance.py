"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single line so the run doubles as a checklist:
    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction

import numpy as np

import oracles
from afbell.cli import main as cli_main
from afbell.experiment import (
    LABEL_ORDER,
    epr_audit,
    exact_behavior,
    run_trials,
)
from afbell.lhv import (
    HARDY_VALUE,
    check_feasibility,
    max_hardy_fraction,
    quantum_constraints,
    verify_certificate,
)
from afbell import qstate
from afbell.observables import PROTOCOL_LABELS, PROTOCOL_ROWS
from afbell.rotations import fourfold, sample_su2_batch, split_seed

HARDY = float(Fraction(9, 112))

# A behavior's axes: the setting pair's code 2 x + y (F 0, G 1), then Alice's
# and Bob's outcome indices in LABEL_ORDER.
FF, FG, GF, GG = range(4)
ONE = LABEL_ORDER.index(1)


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_exact_identity_suite():
    t0 = time.perf_counter()
    behavior = exact_behavior()
    dev_ff = float(behavior[FF, ONE, ONE])
    chain = epr_audit(None, behavior).exact
    dev_ab = abs(chain.cond_ab - 1.0)
    dev_ba = abs(chain.cond_ba - 1.0)
    dev_gg = abs(float(behavior[GG, ONE, ONE]) - HARDY)
    elapsed = time.perf_counter() - t0
    assert dev_ff < 1e-12
    assert dev_ab < 1e-12
    assert dev_ba < 1e-12
    assert dev_gg < 1e-12
    assert elapsed < 1.0
    _report("1 exact-identities",
            f"max deviation {max(dev_ff, dev_ab, dev_ba, dev_gg):.2e}, {elapsed:.2f}s")


def test_criterion_2_rotation_robustness():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(20):
        b = exact_behavior(split_seed(20260810, k))
        chain = epr_audit(None, b).exact
        worst = max(worst, float(b[FF, ONE, ONE]))
        worst = max(worst, abs(chain.cond_ab - 1.0))
        worst = max(worst, abs(chain.cond_ba - 1.0))
        worst = max(worst, abs(float(b[GG, ONE, ONE]) - HARDY))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    _report("2 rotation-robustness",
            f"20 rotation 4-tuples, max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_state_invariance():
    eta = oracles.eta()
    grid = eta.reshape(16, 16)
    states = qstate.PAIRS.reshape(4, 16)
    pairs = fourfold(sample_su2_batch(split_seed(11, np.arange(200))))
    singles = fourfold(sample_su2_batch(split_seed(13, np.arange(100))))
    worst_pair = 0.0
    worst_single = 0.0
    for k in range(100):
        moved = (pairs[2 * k] @ grid @ pairs[2 * k + 1].T).reshape(256)
        worst_pair = max(worst_pair, oracles.distance(moved, eta))
        for s in states:
            worst_single = max(worst_single, oracles.distance(singles[k] @ s, s))
    assert worst_pair < 1e-10
    assert worst_single < 1e-10
    _report("3 state-invariance",
            f"100 seeded pairs (eta {worst_pair:.2e}) and singles ({worst_single:.2e})")


def test_criterion_4_expansion_consistency():
    # eta rebuilt as sum_ab table[a, b] |x_a> (x) |y_b> from the floats
    # A/(4 sqrt7 sqrt(n_a n_b)) of each of the four integer amplitude
    # matrices, n = (4, 12), against the published coefficients.
    eta = oracles.eta()
    scale = 4 * oracles.SQRT7 * np.sqrt(np.outer((4, 12), (4, 12)))
    worst = 0.0
    for code, amps in enumerate(qstate._ETA_AMPS):
        table = amps / scale
        rebuilt = qstate.PAIRS[code // 2].T @ table @ qstate.PAIRS[code % 2]
        worst = max(worst, oracles.distance(eta, rebuilt.reshape(256)))
    assert worst < 1e-12
    table = exact_behavior()[GG]
    expected = np.array(
        [[Fraction(49, 112), Fraction(27, 112), 0],
         [Fraction(27, 112), Fraction(9, 112), 0],
         [0, 0, 0]], dtype=float)
    dev = float(np.abs(table - expected).max())
    assert dev < 1e-12
    _report("4 expansion-consistency",
            f"reconstruction {worst:.2e}, (49,27,27,9)/112 table {dev:.2e}")


def test_criterion_5_local_protocol_equivalence():
    worst_string = 0.0
    for (minus_state, plus_state), rows, labels in zip(qstate.PAIRS, PROTOCOL_ROWS, PROTOCOL_LABELS):
        assert np.count_nonzero(labels == -1) == 4
        assert np.count_nonzero(labels == +1) == 12
        for state, label, share in ((minus_state, -1, 0.25), (plus_state, +1, 1.0 / 12.0)):
            probs = np.abs(rows.conj() @ state) ** 2
            target = np.where(labels == label, share, 0.0)
            worst_string = max(worst_string, float(np.abs(probs - target).max()))
    assert worst_string < 1e-12

    rng = np.random.default_rng(20260810)
    worst_dist = 0.0
    for (v0, v1), pvm, rows, labels in zip(
            qstate.PAIRS, (oracles.F, oracles.G), PROTOCOL_ROWS, PROTOCOL_LABELS):
        coarse = oracles.coarse_grained(rows, labels)
        for _ in range(100):
            c = rng.standard_normal(4)
            amps = (c[0] + 1j * c[1]) * v0 + (c[2] + 1j * c[3]) * v1
            state = amps / np.linalg.norm(amps)
            exact = oracles.born(state, pvm)
            fine = oracles.classified(state, rows, labels)
            via_coarse = oracles.born(state, coarse)
            for label in (-1, +1):
                worst_dist = max(worst_dist, abs(fine[label] - exact[label]))
                worst_dist = max(worst_dist, abs(via_coarse[label] - exact[label]))
    assert worst_dist < 1e-12
    _report("5 protocol-equivalence",
            f"4/12 split exact, string probs {worst_string:.2e}, "
            f"100 span states {worst_dist:.2e}")


def test_criterion_6_monte_carlo_reproduction():
    t0 = time.perf_counter()
    _, counts_gg = run_trials(1_000_000, 424242, "fixed:GG")
    n = int(counts_gg[GG].sum())
    p_hat = int(counts_gg[GG, ONE, ONE]) / n
    bound = 3.0 * math.sqrt(HARDY * (1.0 - HARDY) / n)
    assert n == 1_000_000
    assert abs(p_hat - HARDY) < bound

    _, counts_ff = run_trials(100_000, 515151, "fixed:FF")
    ff_ones = counts_ff[FF, ONE, ONE]
    assert ff_ones == 0

    _, counts_gf = run_trials(100_000, 616161, "fixed:GF")
    gf = counts_gf[GF]
    a_one_b_not_one = int(gf[1, 0] + gf[1, 2])
    assert a_one_b_not_one == 0
    assert int(gf[1, 1]) > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("6 monte-carlo",
            f"GG 1e6: {p_hat:.6f} in 9/112 +- {bound:.1e}; FF 1e5: 0 both-ones; "
            f"GF 1e5: A=1 implies B=1; {elapsed:.1f}s")


def test_criterion_7_lhv_infeasibility():
    t0 = time.perf_counter()
    constraints = quantum_constraints()
    cert = check_feasibility(constraints)
    assert not cert.feasible
    assert verify_certificate(cert, constraints)
    zeros = [c for c in constraints if c.value == 0]
    ceiling = max_hardy_fraction(zeros)
    assert ceiling == Fraction(0)
    assert ceiling < HARDY_VALUE == Fraction(9, 112)
    quantum_value = float(exact_behavior()[GG, ONE, ONE])
    assert abs(quantum_value - float(HARDY_VALUE)) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("7 lhv-infeasibility",
            f"certificate verified, ceiling 0 < 9/112, {elapsed:.2f}s")


def test_criterion_8_no_signaling():
    worst = 0.0
    for behavior in (exact_behavior(),
                     exact_behavior(split_seed(88, 1))):
        # Axes (Alice's setting, Bob's setting, Alice's outcome, Bob's outcome).
        tables = behavior.reshape(2, 2, 3, 3)
        for own in (0, 1):
            # Alice's marginal under Bob's two settings, and Bob's under Alice's.
            alice = [tables[own, remote].sum(axis=1) for remote in (0, 1)]
            bob = [tables[remote, own].sum(axis=0) for remote in (0, 1)]
            for m_f, m_g in (alice, bob):
                worst = max(worst, float(np.abs(m_f - m_g).max()))
    assert worst < 1e-12
    _report("8 no-signaling", f"canonical and rotated, max deviation {worst:.2e}")


def test_criterion_9_determinism(tmp_path, capsys):
    args = ["sample", "--trials", "10000", "--seed", "0xFEEDFACE",
            "--policy", "uniform"]
    assert cli_main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "run2")]) == 0
    capsys.readouterr()
    log1 = (tmp_path / "run1" / "trials.csv").read_bytes()
    log2 = (tmp_path / "run2" / "trials.csv").read_bytes()
    assert log1 == log2
    _report("9 determinism", f"two cmd_sample runs byte-identical ({len(log1)} bytes)")
