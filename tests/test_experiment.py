"""Exact behavior tables, the inference chain, and the seeded Monte Carlo engine."""

import functools
import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import born_table, joint_born, rotate_pvm, sequential_joint, trials_csv
from afbell import experiment
from afbell.experiment import (
    LABEL_ORDER,
    SETTING_PAIRS,
    ChainValues,
    TrialLog,
    count_trials,
    epr_audit,
    exact_behavior,
    parse_policy,
    run_trials,
    stats_report,
)
from afbell.lhv import HARDY_VALUE, quantum_constraints
from afbell.observables import PROTOCOL_LABELS, PROTOCOL_ROWS
from afbell.qstate import ETA_BORN_TABLES
from afbell.rotations import (
    STREAM_ALICE,
    STREAM_BOB,
    STREAM_OUTCOME,
    STREAM_SETTINGS,
    sample_su2_batch,
    split_seed,
)

TOL = 1e-12

# A behavior's axes: the setting pair's code 2 x + y (F 0, G 1), then
# Alice's and Bob's outcome indices in LABEL_ORDER.
FF, FG, GF, GG = range(4)

# Joint tables as exact rationals by setting pair, rows/cols ordered (-1, +1, 0).
EXPECTED = {
    "FF": [[Fraction(1, 7), Fraction(3, 7), 0], [Fraction(3, 7), 0, 0], [0, 0, 0]],
    "FG": [[Fraction(4, 7), 0, 0], [Fraction(3, 28), Fraction(9, 28), 0], [0, 0, 0]],
    "GF": [[Fraction(4, 7), Fraction(3, 28), 0], [0, Fraction(9, 28), 0], [0, 0, 0]],
    "GG": [[Fraction(49, 112), Fraction(27, 112), 0],
           [Fraction(27, 112), Fraction(9, 112), 0], [0, 0, 0]],
}


LOG_COLUMNS = ("trial", "setting_a", "setting_b", "seed_a", "seed_b", "outcome_a", "outcome_b")

# sha256 of outcome_a || outcome_b (int8 bytes) for fixed seeds and
# policies.  A ~1e-16 change in the batched tables can flip an inverse-CDF
# pick and move a pin; such a change must be reported, not hidden by
# re-seeding or resizing.  Each chunk hands the kernel its trials grouped by
# setting pair: under cycle every chunk holds all four groups interleaved in
# trial order, under fixed:XY one group.
GOLDEN_OUTCOMES = [
    ("pvm", 50_000, 0, "uniform", False,
     "43d3d6935bf9e68e97d2e3efa80cd623a0dd96792e0d8a3d78c93cb9d9a04e4c"),
    ("pvm", 50_000, 42, "uniform", False,
     "d3153de0785d7139a38f9d8f511c0ed7f22408f95732811991ddbfad21e660c5"),
    ("pvm", 50_000, 2024, "uniform", False,
     "750613b1d6e9c71ee8910772b01b5f3fc83e8826c740f1a460e088c866b98c8c"),
    ("pvm", 50_000, 0xDEADBEEF12345678, "uniform", False,
     "1cb80dd191d654498e1db7acf10020474e72729629eecf0cbec9e02c1adb9e8b"),
    ("pvm", 50_000, 7, "uniform", True,
     "8c3da7330bcb5b7138617182f736dcd305f7a794097e3ded55c303f574897c2d"),
    ("pvm", 10_001, 5, "cycle", False,
     "f43085740301e92726207441b4e138cf639f1f6d5c389ab40184a38c9e65c009"),
    ("pvm", 10_001, 6, "fixed:GF", False,
     "7494f3c4a0fd6fc606b5972d9a01740cc1d541fdf8467e3dc2f5b0bf25deb899"),
    ("protocol", 10_000, 0, "uniform", False,
     "549c41ebcf9ae4370ecc36cf8354a5b5347265e2dd851f13f2d7902b2f24144e"),
    ("protocol", 10_000, 42, "uniform", False,
     "8038ed45f36e71e0f6937fb992bd555633534d029915a27d0d2108f4c6ecc291"),
    ("protocol", 10_000, 2024, "uniform", False,
     "47dae5a335cc251ab43b46540d520f30e4516419605aa0ec5e535eb013e67013"),
    ("protocol", 10_000, 0xDEADBEEF12345678, "uniform", False,
     "b2953474ec2981c0c8fbc3821cb208b88d53e0462fa9265425883050fa44e4ae"),
    ("protocol", 10_000, 7, "uniform", True,
     "623ae992ad4da8881f0eda94986377bded99d5fbe0811a3a59bd170cc3d3d8ef"),
    ("protocol", 10_001, 5, "cycle", False,
     "9c23c3269ae5a94db6edf51fffbd1674a22c03981996557aee0a098285611c88"),
    ("protocol", 10_001, 6, "fixed:FG", False,
     "3e0dcc1b40de031e7cffa4a8526504bc28637a32d5d751b57238e1d534c9ffa5"),
]


# sha256 of the float64 bytes of exact_behavior(), the kernel's four exact
# tables in setting pair order.  No output prints these floats (report and
# sample print EXACT_BEHAVIOR, the floats of the rationals); only verify's
# deviations read them, so a kernel change that moves any bit moves those
# deviations and this pin, and must be reported.  Recorded for the rank-2
# kernel: against the dense-grid kernel before it, the 13 nonzero cells kept
# every bit and 23 zero cells moved within rounding dust (below 1.5e-32).
# The 35-monomial kernel that replaced its mode products kept every bit of
# these tables.
EXACT_TABLES_SHA256 = "ab021e35a14cf17bc087c35d99af624572bf5d91b8533485ef7a55ca64666e45"


def _setup(seed):
    """The (4, 2, 2) unitaries, in setup order (Alice F, Alice G, Bob F,
    Bob G), of the setup drawn from seed: one Haar draw per setup tag."""
    return np.array([sample_su2_batch(np.array([split_seed(seed, tag)], np.uint64))[0]
                     for tag in experiment._SETUP_TAGS.tolist()])


@pytest.fixture(scope="module")
def behavior():
    return exact_behavior()


def test_exact_tables_bytes_pinned(behavior):
    assert behavior.shape == (4, 3, 3) and behavior.dtype == np.float64
    assert hashlib.sha256(behavior.tobytes()).hexdigest() == EXACT_TABLES_SHA256


def test_exact_tables_match_rationals(behavior):
    assert list(EXPECTED) == list(SETTING_PAIRS)
    for table, expected in zip(behavior, EXPECTED.values()):
        for i in range(3):
            for j in range(3):
                assert table[i, j] == pytest.approx(float(expected[i][j]), abs=TOL)


def test_derived_born_tables_and_constraint_values_are_exact():
    # qstate derives the tables from the invariant pair's integer kets and
    # eta's integer expansion over them; no tolerance anywhere.
    assert ETA_BORN_TABLES.shape == (4, 2, 2) and not ETA_BORN_TABLES.flags.writeable
    born = dict(zip(EXPECTED, ETA_BORN_TABLES))
    for key, expected in EXPECTED.items():
        assert born[key].tolist() == [row[:2] for row in expected[:2]], key
        # Python ints, which an LP's Fraction products cannot overflow.
        assert all(type(x) is Fraction and type(x.numerator) is int
                   and type(x.denominator) is int for x in born[key].flat)
    values = {c.name: c.value for c in quantum_constraints()}
    assert values == {
        "ff_zero": born["FF"][1, 1],
        "gb_implies_fa": born["FG"][0, 1],
        "ga_implies_fb": born["GF"][1, 0],
        "gg_hardy": born["GG"][1, 1],
        "no_zero_outcome": 1 - born["FF"].sum(),
    }
    assert HARDY_VALUE == born["GG"][1, 1] == Fraction(9, 112)


def test_exact_tables_are_distributions(behavior):
    rotated = [exact_behavior(split_seed(271828, k)) for k in range(5)]
    for b in (behavior, *rotated):
        for t in b:
            assert abs(t.sum() - 1.0) < TOL
            assert t.min() >= 0.0
            # The 0 label's mass, its row plus its column.
            assert t[2, :].sum() + t[:, 2].sum() < 1e-14


def test_the_four_identities(behavior):
    chain = epr_audit(None, behavior).exact
    assert behavior[FF, 1, 1] < TOL
    assert chain.cond_ab == pytest.approx(1.0, abs=TOL)
    assert chain.cond_ba == pytest.approx(1.0, abs=TOL)
    assert behavior[GG, 1, 1] == pytest.approx(
        float(Fraction(9, 112)), abs=TOL)


def test_marginals_and_no_signaling(behavior):
    # Alice's marginals are row sums and Bob's column sums of the tables,
    # here by (Alice's setting, Bob's setting).
    tables = behavior.reshape(2, 2, 3, 3)
    for own in (0, 1):
        alice = [tables[own, remote].sum(axis=1) for remote in (0, 1)]
        bob = [tables[remote, own].sum(axis=0) for remote in (0, 1)]
        for m_f, m_g in (alice, bob):
            assert np.abs(m_f - m_g).max() < TOL
    # Known marginal values.
    assert behavior[FF].sum(axis=1)[1] == pytest.approx(3.0 / 7.0, abs=TOL)
    assert behavior[FG].sum(axis=0)[1] == pytest.approx(9.0 / 28.0, abs=TOL)


def test_rotated_behavior_identical(behavior):
    for k in range(5):
        rotated = exact_behavior(split_seed(314159, k))
        assert np.abs(rotated - behavior).max() < 1e-10


def test_exact_behavior_matches_dense_born_rule():
    # Every cell, the 0 row and column included, against the oracle's dense
    # Born rule on its own F and G projectors, rotated by the dense four-fold
    # power.
    eta = oracles.eta()
    canonical = (oracles.F, oracles.G)
    assert all(list(pvm) == list(LABEL_ORDER) for pvm in canonical)
    for k in range(5):
        seed = split_seed(4242, k)
        behavior = exact_behavior(seed)
        alice_f, alice_g, bob_f, bob_g = _setup(seed)
        alice, bob = (alice_f, alice_g), (bob_f, bob_g)
        for pair, (sa, sb) in enumerate(np.ndindex(2, 2)):
            probs = joint_born(eta, rotate_pvm(alice[sa], canonical[sa]),
                               rotate_pvm(bob[sb], canonical[sb]))
            assert probs.shape == (3, 3)
            for (i, j), p in np.ndenumerate(probs):
                assert abs(behavior[pair, i, j] - p) < 1e-14, (k, pair, i, j)


def test_joint_born_agrees_with_sequential_projection():
    eta = oracles.eta()
    f, g = oracles.F, oracles.G
    for pvm_a, pvm_b in ((f, f), (f, g), (g, g)):
        joint = joint_born(eta, pvm_a, pvm_b)
        seq = sequential_joint(eta, pvm_a, pvm_b)
        assert joint.shape == (3, 3) and len(seq) == 9
        for (i, la), (j, lb) in itertools.product(enumerate(pvm_a), enumerate(pvm_b)):
            assert joint[i, j] == pytest.approx(seq[la, lb], abs=TOL)
    alice_f, _, _, bob_g = _setup(777)
    ra = rotate_pvm(alice_f, f)
    rb = rotate_pvm(bob_g, g)
    joint = joint_born(eta, ra, rb)
    seq = sequential_joint(eta, ra, rb)
    for (i, la), (j, lb) in itertools.product(enumerate(ra), enumerate(rb)):
        assert joint[i, j] == pytest.approx(seq[la, lb], abs=TOL)


def test_parse_policy():
    assert parse_policy("uniform") == ("uniform", None)
    assert parse_policy("uniform_random") == ("uniform", None)
    assert parse_policy("cycle") == ("cycle", None)
    assert parse_policy("fixed:GF") == ("fixed", (1, 0))
    assert parse_policy("fixed:FG") == ("fixed", (0, 1))
    with pytest.raises(ValueError):
        parse_policy("fixed:XY")
    with pytest.raises(ValueError):
        parse_policy("sometimes")


def test_run_trials_reproducible():
    log1, stats1 = run_trials(4000, 2024, "uniform")
    log2, stats2 = run_trials(4000, 2024, "uniform")
    for col in LOG_COLUMNS:
        assert np.array_equal(getattr(log1, col), getattr(log2, col))
    log3, _ = run_trials(4000, 2025, "uniform")
    assert not np.array_equal(log1.outcome_a, log3.outcome_a)
    assert stats1.shape == (4, 3, 3) and stats1.dtype == np.int64
    assert np.array_equal(stats1, stats2)
    assert log1.trial.tolist() == list(range(4000))
    # Per-trial seeds differ across trials (fresh rotations every trial) and sides.
    assert len(set(log1.seed_a.tolist())) == 4000
    assert not np.any(log1.seed_a == log1.seed_b)


def test_nearby_roots_share_no_trials():
    # Parent XOR key gave roots 0..15 the same 4096 trials in permuted order;
    # runs from nearby roots must draw disjoint rotation pairs.
    n, roots = 4096, range(16)
    pairs = set()
    for root in roots:
        log, _ = run_trials(n, root, "uniform")
        pairs.update(zip(log.seed_a.tolist(), log.seed_b.tolist()))
    assert len(pairs) == n * len(roots)


# The cross-root independence test's root, trials per run and threshold,
# fixed before its first run: p < 1e-6 overall, Bonferroni-split over the
# six pairs of runs at r, r + 1, r ^ 1 and r ^ 2^63.  The root is odd, so
# r + 1 and r ^ 1 are different roots.
INDEPENDENCE_ROOT = 0x1DE9_0D0D_5EED_0001
INDEPENDENCE_TRIALS = 20_000
INDEPENDENCE_P_MIN = 1e-6 / 6


def _categories(root):
    """Each trial's (setting pair, Alice's outcome) as one code in 0..7."""
    log, _ = run_trials(INDEPENDENCE_TRIALS, root, "uniform")
    return (4 * log.setting_a + 2 * log.setting_b + (log.outcome_a == 1)).astype(np.int64)


def _independence_p(c1, c2, k1=8, k2=8):
    """G-test p-value of the independence of two paired codes, c1 in 0..k1-1
    and c2 in 0..k2-1: their k1 x k2 contingency table."""
    observed = np.bincount(k2 * c1 + c2, minlength=k1 * k2).reshape(k1, k2)
    assert observed.sum(axis=0).all() and observed.sum(axis=1).all()
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    hit = observed > 0
    g = 2.0 * float((observed[hit] * np.log(observed[hit] / expected[hit])).sum())
    return oracles.chi2_sf(g, (k1 - 1) * (k2 - 1))


def test_runs_at_related_roots_are_independent():
    r = INDEPENDENCE_ROOT
    runs = [_categories(root) for root in (r, r + 1, r ^ 1, r ^ 2**63)]
    p_values = [_independence_p(a, b) for a, b in itertools.combinations(runs, 2)]
    assert min(p_values) > INDEPENDENCE_P_MIN, p_values
    # The test's power: a run against itself is as dependent as can be.
    assert _independence_p(runs[0], runs[0]) < INDEPENDENCE_P_MIN


# The stream independence test's root and threshold, fixed before its first
# run: p < 1e-6 overall, Bonferroni-split over six pairs of streams within a
# trial and four streams against the next trial's.
STREAM_TEST_ROOT = 0x57E4_11DE_9E4D_0002
STREAM_TEST_P_MIN = 1e-6 / 10


def test_streams_of_a_trial_and_of_adjacent_trials_are_independent():
    # Each trial's four STREAM_* draws, coded with their number of values:
    # the setting pair, and the top 3 bits of seed_a, of seed_b and of the
    # outcome draw, which the log does not keep and oracles re-derives.
    log, _ = run_trials(INDEPENDENCE_TRIALS, STREAM_TEST_ROOT, "uniform")
    draw = oracles.split_array(oracles.split_array(STREAM_TEST_ROOT, log.trial), STREAM_OUTCOME)
    top = np.uint64(61)
    streams = {
        "settings": (2 * log.setting_a.astype(np.int64) + log.setting_b, 4),
        "seed_a": ((log.seed_a >> top).astype(np.int64), 8),
        "seed_b": ((log.seed_b >> top).astype(np.int64), 8),
        "outcome": ((draw >> top).astype(np.int64), 8),
    }
    p_values = {}
    for (n1, (c1, k1)), (n2, (c2, k2)) in itertools.combinations(streams.items(), 2):
        p_values[n1, n2] = _independence_p(c1, c2, k1, k2)
    for name, (c, k) in streams.items():
        p_values[name, "next"] = _independence_p(c[:-1], c[1:], k, k)
    assert len(p_values) == 10
    assert min(p_values.values()) > STREAM_TEST_P_MIN, p_values
    # The test's power: a stream against itself is as dependent as can be.
    c, k = streams["outcome"]
    assert _independence_p(c, c, k, k) < STREAM_TEST_P_MIN


def test_run_trials_seed_streams(monkeypatch):
    # Trial i's base seed is split_seed(root, i), split again by each
    # STREAM_* key: the setting bits, each side's rotation seed, whose Haar U
    # the kernel gets, and the outcome draw.  The rule holds across chunk
    # boundaries.  The kernel sees each chunk's trials grouped by setting
    # pair, and the log gets each picked row back at its own trial.
    monkeypatch.setattr(experiment, "_CHUNK", 97)
    seen = {"u_a": [], "u_b": [], "draw": [], "rows": []}
    amplitudes, pick = experiment._amplitudes, experiment._pick

    def spy_amplitudes(kernel, u_a, u_b, *rest):
        seen["u_a"].append(u_a.copy())
        seen["u_b"].append(u_b.copy())
        return amplitudes(kernel, u_a, u_b, *rest)

    def spy_pick(y_a, y_b, bits, *rest):
        seen["draw"].append(bits.copy())
        seen["rows"].append(pick(y_a, y_b, bits, *rest))
        return seen["rows"][-1]

    monkeypatch.setattr(experiment, "_amplitudes", spy_amplitudes)
    monkeypatch.setattr(experiment, "_pick", spy_pick)
    root = 0xFEEDFACE
    log, _ = run_trials(300, root, "uniform")
    assert [len(d) for d in seen["draw"]] == [97, 97, 97, 9]
    bases = [split_seed(root, i) for i in range(300)]
    settings = [split_seed(b, STREAM_SETTINGS) for b in bases]
    assert log.setting_a.tolist() == [s & 1 for s in settings]
    assert log.setting_b.tolist() == [s >> 1 & 1 for s in settings]
    assert log.seed_a.tolist() == [split_seed(b, STREAM_ALICE) for b in bases]
    assert log.seed_b.tolist() == [split_seed(b, STREAM_BOB) for b in bases]
    # Each chunk's order, rebuilt from the log: a stable sort of its trials
    # on 2 setting_a + setting_b.
    pair = (2 * log.setting_a + log.setting_b).tolist()
    order = [i for start in range(0, 300, 97)
             for i in sorted(range(start, min(start + 97, 300)), key=pair.__getitem__)]
    assert np.concatenate(seen["draw"]).tolist() == [
        split_seed(bases[i], STREAM_OUTCOME) >> 11 for i in order]
    for side, seeds in (("u_a", log.seed_a), ("u_b", log.seed_b)):
        assert np.array_equal(np.concatenate(seen[side]),
                              [sample_su2_batch(np.array([seeds[i]]))[0] for i in order])
    labels = experiment._MEASUREMENTS["pvm"][1]
    row_a, row_b = (np.concatenate(rows) for rows in zip(*seen["rows"]))
    assert np.array_equal(log.outcome_a[order], labels[log.setting_a[order], row_a])
    assert np.array_equal(log.outcome_b[order], labels[log.setting_b[order], row_b])


@pytest.mark.parametrize("root", [0, 2**64 - 1])
@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("policy", ["uniform", "cycle", "fixed:FF", "fixed:FG", "fixed:GF",
                                    "fixed:GG"])
@pytest.mark.parametrize("path", ["pvm", "protocol"])
def test_rows_replay_from_the_root_and_the_integer_tables(path, policy, fixed, root):
    # Every column of every row is a function of the root seed and the exact
    # integer tables alone: the replay uses no float and no rotation.  One
    # trial past a whole chunk leaves a one-trial last chunk.
    if path == "pvm":
        rows, labels = oracles.INTEGER_PAIRS, np.array([[-1, 1]] * 2)
    else:
        rows, labels = oracles.PROTOCOL_INTEGER_ROWS, oracles.PROTOCOL_LABELS
    n = experiment._MEASUREMENTS[path][2] + 1
    log, _ = run_trials(n, root, policy, fixed_rotations=fixed, measurement_path=path)
    replay = oracles.replay_trials(
        n, root, policy, fixed, rows, labels,
        (STREAM_SETTINGS, STREAM_ALICE, STREAM_BOB, STREAM_OUTCOME), experiment._SETUP_TAGS)
    for col, want in zip(LOG_COLUMNS, replay):
        assert getattr(log, col).tolist() == want.tolist(), col


def test_setup_rotations_seeds_are_split_seeds():
    tags = experiment._SETUP_TAGS.tolist()
    # Python ints are reduced mod 2^64, as split_seed reduces them.
    for seed in (0, 3, 0xFEEDFACE, 2**64 - 1, -1, 2**64 + 3):
        seeds, u = experiment._draw_setups(np.array([seed % 2**64], np.uint64))
        assert seeds.tolist() == [[split_seed(seed, tag) for tag in tags]]
        assert np.array_equal(u[0], _setup(seed))
        assert np.array_equal(exact_behavior(seed), exact_behavior(seed % 2**64))


def test_run_trials_policies():
    _, stats = run_trials(2000, 3, "fixed:GG")
    assert stats[GG].sum() == 2000
    assert stats.sum() == 2000

    log, stats = run_trials(8, 3, "cycle")
    assert stats.sum(axis=(1, 2)).tolist() == [2, 2, 2, 2]
    # Setting codes: 0 is F, 1 is G.
    assert log.setting_a.tolist() == [0, 0, 1, 1] * 2
    assert log.setting_b.tolist() == [0, 1, 0, 1] * 2

    _, stats = run_trials(20_000, 4, "uniform")
    for total in stats.sum(axis=(1, 2)):
        assert abs(total - 5000) < 4 * math.sqrt(20_000 * 0.25 * 0.75)


def test_run_trials_outcome_zero_never_occurs():
    log, stats = run_trials(20_000, 99, "uniform")
    assert not np.any(log.outcome_a == 0)
    assert not np.any(log.outcome_b == 0)
    for c in stats:
        assert c[2, :].sum() == 0 and c[:, 2].sum() == 0


def test_pick_draw_ends_pick_nonzero_cells():
    # The 53-bit draws 0 and 2^53 - 1 are u = 2^-53 and u = 1, the ends of
    # (0, 1].  Cell 0 of the canonical protocol FF table, the string pair
    # (0000, 0000), has probability exactly 0 and both-F labels (+1, +1), so
    # a draw mapped to u = 0 would record the forbidden event.
    eye = np.eye(2, dtype=complex)[None]
    kernel, code = experiment._MEASUREMENTS["protocol"][0], np.array([0])
    table = experiment._born_tables(kernel, eye, eye, code, code)[..., 0]
    assert table[0, 0] == 0.0 and PROTOCOL_LABELS[0, 0] == +1
    y_a, y_b = (np.repeat(y, 2, axis=-1) for y in experiment._amplitudes(
        kernel, eye, eye, code, code, experiment._workspace(kernel, 1)))
    row_a, row_b = experiment._pick(y_a, y_b, np.array([0, 2**53 - 1], dtype=np.uint64),
                                    experiment._workspace(kernel, 2)[0])
    assert np.all(table[row_a, row_b] > 0.0), (row_a, row_b)


@pytest.mark.parametrize("k", [2, 16])
def test_two_stage_pick_matches_full_table_inverse_cdf(k):
    # Random rank-2 amplitudes with zero rows and columns, scaled to unit
    # mass, against the inverse CDF walked over each trial's whole table
    # row-major.  The picks agree except where u times the total lies within
    # rounding of a cell boundary, and no pick lands on a zero cell.
    rng = np.random.default_rng(20240611)
    n = 20_000
    y_a, y_b = rng.standard_normal((2, k, 2, n)) + 1j * rng.standard_normal((2, k, 2, n))
    # Row 1 of y_a and row 0 of y_b stay, so no trial's table is all zero.
    y_a *= (rng.random((k, 1, n)) >= 0.3) | (np.arange(k) == 1)[:, None, None]
    y_b *= (rng.random((k, 1, n)) >= 0.3) | (np.arange(k) == 0)[:, None, None]
    y_a[0, :, : n // 4] = y_b[-1, :, : n // 2] = 0.0
    table = np.abs(np.einsum("ipn,jpn->ijn", y_a, y_b)) ** 2
    y_a /= np.sqrt(table.sum(axis=(0, 1)))
    table = np.abs(np.einsum("ipn,jpn->ijn", y_a, y_b)) ** 2
    bits = rng.integers(0, 2**53, n, dtype=np.uint64)
    bits[:4] = 0, 2**53 - 1, 0, 2**53 - 1
    u = (bits.astype(np.float64) + 1.0) * (2.0**-53)
    cum = np.cumsum(table.reshape(k * k, n), axis=0)
    want = (cum < u * cum[-1]).sum(axis=0)

    # _pick computes in its scratch; NaN there must never reach a pick.
    row_a, row_b = experiment._pick(y_a, y_b, bits, np.full(2 * k * n, np.nan, complex))
    assert np.all(table[row_a, row_b, np.arange(n)] > 0.0)
    moved = np.flatnonzero(row_a * k + row_b != want)
    gap = np.abs(cum[:, moved] - u[moved] * cum[-1, moved]).min(axis=0)
    assert np.all(gap <= 1e-14), (moved, gap)


@pytest.mark.parametrize("path", ["pvm", "protocol"])
@pytest.mark.parametrize("fixed", [False, True])
def test_run_trials_independent_of_chunking(monkeypatch, path, fixed):
    # Each chunk groups its trials by setting pair and the kernel makes one
    # product per run of equal setting, so grouping within 97 trials puts a
    # trial in another column block than grouping within 2048 or 4096; the
    # log must not move.
    reference, _ = run_trials(1000, 0xC0FFEE, "uniform", fixed_rotations=fixed,
                              measurement_path=path)
    # _CHUNK caps every path's chunk, so patching it splits both paths.
    monkeypatch.setattr(experiment, "_CHUNK", 97)
    sizes, pick = [], experiment._pick
    # The chunk's size is the length of _pick's draw argument.
    monkeypatch.setattr(experiment, "_pick",
                        lambda y_a, y_b, bits, *rest: sizes.append(len(bits))
                        or pick(y_a, y_b, bits, *rest))
    chunked, _ = run_trials(1000, 0xC0FFEE, "uniform", fixed_rotations=fixed,
                            measurement_path=path)
    assert sizes == [97] * 10 + [30]
    prefix, _ = run_trials(333, 0xC0FFEE, "uniform", fixed_rotations=fixed,
                           measurement_path=path)
    for col in LOG_COLUMNS:
        assert np.array_equal(getattr(chunked, col), getattr(reference, col)), col
        assert np.array_equal(getattr(prefix, col), getattr(reference, col)[:333]), col


# The ids leave the digest out, so re-recording a pin keeps its test name,
# and name the policy only where it is not uniform.
@pytest.mark.parametrize("path,n,root,policy,fixed,digest", GOLDEN_OUTCOMES, ids=[
    f"{p}-{n}-{r}-{'' if policy == 'uniform' else policy + '-'}{f}"
    for p, n, r, policy, f, _ in GOLDEN_OUTCOMES])
def test_golden_outcome_pins(path, n, root, policy, fixed, digest):
    log, _ = run_trials(n, root, policy, fixed_rotations=fixed, measurement_path=path)
    got = hashlib.sha256(log.outcome_a.tobytes() + log.outcome_b.tobytes()).hexdigest()
    assert got == digest


def _chunk_kernel_peak(path):
    """tracemalloc peak of one full chunk of the sampling kernel on a path,
    its trials grouped by setting pair as run_trials hands them over: the
    _workspace that run_trials allocates once, both sides' amplitudes in it
    and the two-stage pick."""
    kernel, _, chunk = experiment._MEASUREMENTS[path]
    n = min(chunk, experiment._CHUNK)
    u_a = sample_su2_batch(np.arange(n, dtype=np.uint64))
    u_b = sample_su2_batch(np.arange(n, 2 * n, dtype=np.uint64))
    pair = np.arange(n) * 4 // n
    code_a, code_b = pair // 2, pair % 2
    bits = split_seed(0, np.arange(n, dtype=np.uint64)) >> np.uint64(11)

    def chunk_pick():
        work = experiment._workspace(kernel, n)
        return experiment._pick(*experiment._amplitudes(kernel, u_a, u_b, code_a, code_b, work),
                                bits, work[0])

    chunk_pick()
    tracemalloc.start()
    try:
        chunk_pick()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pvm_kernel_memory_peak():
    # At 4096 trials the _workspace's 45 complex rows of scratch (2.8 MiB;
    # the (35, n) monomials are 2.2 MiB of it) are the largest array; both
    # sides reuse them, and the pick computes in them.  It traces 3.7 MiB
    # (numpy 2.4), buffers included, against 3.4 MiB when each chunk
    # allocated its own arrays and 6.6 MiB at the 8192-trial chunk before;
    # the mode-product kernel before that traced 10.0 MiB at 8192.  The
    # draw is outside this peak (test_cli's sample memory test holds it), so
    # the trials-last draw left it at 3.7 MiB.
    assert _chunk_kernel_peak("pvm") <= 16 * 2**20


def test_protocol_kernel_memory_peak():
    # At 2048 trials both sides' (16, 2, n) amplitudes (2 MiB together) and
    # the _workspace's scratch (1.4 MiB) are the largest arrays; each side's
    # product writes only its trials' setting, and no (16, 16, n) table is
    # formed.  It traces 3.8 MiB (numpy 2.4), buffers included, against
    # 4.1 MiB when each side formed both settings' amplitudes and kept one
    # with np.where; the full-table kernel before it traced 14.1 MiB, and
    # the one that built dense 16x16 bras per trial 96 MiB at its 8192-trial
    # chunk.  The trials-last draw, outside this peak, left it at 3.8 MiB.
    assert _chunk_kernel_peak("protocol") <= 24 * 2**20


# Kernel against the extended-precision dense oracle.  Over 200 random seeds
# the largest cell error was 1.3e-15 on the F/G rows and 1.9e-16 on the
# protocol rows, the same as the two kernels this one replaced.
KERNEL_TOL = 2e-15

# Each use's outcome rows by setting, conjugated, and the stored kernel of
# them: the complete F/G bases (exact), their -1/+1 rows (pvm) and the
# protocols' product eigenbases.
ROW_SETS = {"exact": experiment._PVM_BASES, "pvm": experiment._PVM_BASES[:, :2],
            "protocol": PROTOCOL_ROWS.conj()}
KERNELS = {"exact": experiment._EXACT_KERNEL,
           **{path: kernel for path, (kernel, _, _) in experiment._MEASUREMENTS.items()}}


def _kernel_against_oracle(kernels, grid, seed):
    """Run the table kernel on each (name: kernel) for four trials, one per
    setting pair, each with its own random setups, and compare every trial's
    table with the dense oracle's for that name's rows, the same setups and
    grid."""
    code_a, code_b = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    u = sample_su2_batch(split_seed(seed, np.arange(8, dtype=np.uint64)))
    u_a, u_b = u[:4], u[4:]
    tables = {}
    for name, kernel in kernels.items():
        rows = ROW_SETS[name]
        got = experiment._born_tables(kernel, u_a, u_b, code_a, code_b)
        k = rows.shape[1]
        assert got.shape == (k, k, 4), name
        for t in range(4):
            expected = born_table(grid, u_a[t], u_b[t], rows[code_a[t]].conj(),
                                  rows[code_b[t]].conj())
            assert np.abs(got[..., t] - expected).max() <= KERNEL_TOL, (name, seed, t)
        tables[name] = got
    return tables


def test_table_kernel_matches_dense_oracle():
    # One kernel serves all three uses, which differ only in their rows.
    # Unrotated setups first: the Born table of the rows themselves.
    grid = oracles.eta().reshape(16, 16)
    code = np.array([0, 1])
    eye = np.array([np.eye(2, dtype=complex)] * 2)
    for name, kernel in KERNELS.items():
        rows = ROW_SETS[name]
        got = experiment._born_tables(kernel, eye, eye, code, code)
        for t in range(2):
            expected = np.abs(rows[code[t]] @ grid @ rows[code[t]].T) ** 2
            assert np.abs(got[..., t] - expected).max() <= KERNEL_TOL
    for k in range(8):
        _kernel_against_oracle(KERNELS, grid, split_seed(0x0FAC7, k))


def _some_unitaries(seed):
    """Haar SU(2) matrices, the same times a phase (U(2)) and scaled by 1.01."""
    u = sample_su2_batch(split_seed(seed, np.arange(12, dtype=np.uint64)))
    phase = np.exp(2j * np.pi * np.linspace(0.05, 0.95, 12))[:, None, None]
    return {"haar": u, "phase": phase * u, "scaled": 1.01 * u}


@pytest.mark.parametrize("name", sorted(ROW_SETS))
def test_monomial_amplitudes_match_the_fourfold_rotation(name):
    # Each side's amplitudes rows . (U^dagger)^(x)4 . pair through the 35
    # monomials, against the dense Kronecker power, for any 2x2 u.
    # fourfold runs the same monomials, so it is no reference here.
    rows = ROW_SETS[name]
    code = np.arange(12) % 2
    for kind, u in _some_unitaries(0xB0B).items():
        y = experiment._amplitudes(KERNELS[name], u, u, code, code,
                                   experiment._workspace(KERNELS[name], 12))
        for side, pair in zip(y, (experiment._PHI, experiment._C_PHI)):
            for n, un in enumerate(u):
                dense = functools.reduce(np.kron, [un.conj().T] * 4)
                want = rows[code[n]] @ dense @ pair.T
                assert np.abs(side[..., n] - want).max() <= 1e-15, (name, kind, n)


@pytest.mark.parametrize("name", sorted(ROW_SETS))
def test_amplitudes_keep_their_bits_in_any_run(name):
    # _amplitudes makes one product per run of equal setting code, so a
    # trial's column block depends on its neighbours' settings.  Its bits
    # must not: the same 40 trials under mixed codes, with runs of one trial
    # among them, against each setting's amplitudes over all 40 in one run.
    kernel, n = KERNELS[name], 40
    u = sample_su2_batch(split_seed(0x5EED, np.arange(2 * n, dtype=np.uint64)))
    u_a, u_b = u[:n], u[n:]
    work = experiment._workspace(kernel, n)
    whole = [[y.copy() for y in experiment._amplitudes(kernel, u_a, u_b, code, code, work)]
             for code in (np.zeros(n, int), np.ones(n, int))]
    code_a = np.array([0, 1, 1, 0] * 10)
    code_b = np.repeat([0, 1, 0, 1, 1, 0, 1, 0], [1, 1, 2, 3, 10, 1, 20, 2])
    mixed = experiment._amplitudes(kernel, u_a, u_b, code_a, code_b, work)
    for side, code in enumerate((code_a, code_b)):
        for t in range(n):
            assert np.array_equal(mixed[side][..., t], whole[code[t]][side][..., t]), (side, t)


@pytest.mark.parametrize("path", ["pvm", "protocol"])
def test_one_trial_run_keeps_the_bits_of_a_wider_run(path):
    # A one-trial chunk, the last of run_trials(4097) on the pvm path or of
    # run_trials(2049) on the protocol path, must give its trial the
    # amplitudes any wider chunk gives it, bit for bit.
    kernel, n = KERNELS[path], 64
    u = sample_su2_batch(split_seed(0x1, np.arange(2 * n, dtype=np.uint64)))
    code_a, code_b = np.arange(n) // 32, np.arange(n) // 16 % 2
    wide = [y.copy() for y in experiment._amplitudes(kernel, u[:n], u[n:], code_a, code_b,
                                                     experiment._workspace(kernel, n))]
    work = experiment._workspace(kernel, 1)
    for t in range(n):
        one = experiment._amplitudes(kernel, u[t:t + 1], u[n + t:n + t + 1],
                                     code_a[t:t + 1], code_b[t:t + 1], work)
        for side in range(2):
            assert np.array_equal(one[side][..., 0], wide[side][..., t]), (side, t)


def test_table_kernel_rotates_a_non_invariant_source(monkeypatch):
    # The source's two Schmidt vectors are rotation invariant, so its tables
    # cannot show whether the kernel rotates them.  Put |0000> and |1111> in
    # their place with an asymmetric C and build the kernels from them: that
    # source is not invariant, and a rotation that is skipped, applied to the
    # wrong side, not taken as its adjoint or read through a wrong
    # word-to-monomial map moves the tables off the oracle's.  C is complex
    # because with real rows, pair and C, U^T in place of U^dagger only
    # conjugates every amplitude.  Only complete row sets keep all of the
    # mass, so the pvm rows are left out.
    pair = np.zeros((2, 16), dtype=complex)
    pair[0, 0] = pair[1, 15] = 1.0
    c = np.array([[0.6, 0.0], [0.48j, 0.64]])
    monkeypatch.setattr(experiment, "_PHI", pair)
    monkeypatch.setattr(experiment, "_C_PHI", c @ pair)
    kernels = {name: experiment._kernel(ROW_SETS[name]) for name in ("exact", "protocol")}
    grid = pair.T @ c @ pair
    first = _kernel_against_oracle(kernels, grid, 0xA5)
    second = _kernel_against_oracle(kernels, grid, 0x5A)
    for name in kernels:
        assert np.abs(first[name] - second[name]).max() > 0.05, name


@pytest.mark.parametrize("path", ["pvm", "protocol", "exact"])
@pytest.mark.parametrize("scale", [0.99, 1.01])
def test_mass_off_one_raises_on_each_path(monkeypatch, path, scale):
    # A non-unitary setup moves a trial's total mass off 1 in either direction.
    # The patch keeps the draw's signature: with ``out`` it scales the draw
    # in the caller's buffer.
    def scaled(seeds, out=None):
        u = sample_su2_batch(seeds, out)
        u *= scale
        return u

    with pytest.raises(RuntimeError, match="total mass off 1") as excinfo:
        if path == "exact":
            u = scaled(np.arange(4, dtype=np.uint64))
            experiment._born_tables(experiment._EXACT_KERNEL, u, u,
                                    np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
        else:
            monkeypatch.setattr(experiment, "sample_su2_batch", scaled)
            run_trials(64, 3, "uniform", measurement_path=path)
    assert excinfo.traceback[-1].name == "_born_close"


@pytest.mark.filterwarnings("error")
def test_born_close_rejects_non_finite_mass():
    # A NaN mass compares False against the tolerance either way round.
    for bad in (np.nan, np.inf):
        with pytest.raises(RuntimeError, match="total mass off 1"):
            experiment._born_close(np.array([1.0, bad]))


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials(0, 1, "uniform")
    with pytest.raises(ValueError):
        run_trials(10, 1, "uniform", measurement_path="telepathy")


def test_fixed_rotations_mode():
    log, stats = run_trials(3000, 6, "uniform", fixed_rotations=True)
    # One seed per (side, setting): at most two distinct values per column.
    assert len(set(log.seed_a.tolist())) <= 2
    assert len(set(log.seed_b.tolist())) <= 2
    setup_seeds = [split_seed(6, tag) for tag in experiment._SETUP_TAGS.tolist()]
    f_mask = log.setting_a == 0
    assert set(log.seed_a[f_mask].tolist()) == {setup_seeds[0]}
    assert set(log.seed_a[~f_mask].tolist()) == {setup_seeds[1]}
    f_mask = log.setting_b == 0
    assert set(log.seed_b[f_mask].tolist()) == {setup_seeds[2]}
    assert set(log.seed_b[~f_mask].tolist()) == {setup_seeds[3]}
    # Statistics still follow the exact tables.
    behavior = exact_behavior()
    n = stats[GG].sum()
    freq = stats[GG] / n
    if n > 200:
        bound = 4 * math.sqrt(0.5 / n)
        assert np.abs(freq[:2, :2] - behavior[GG, :2, :2]).max() < bound


@pytest.mark.parametrize("path", ["pvm", "protocol"])
def test_fixed_rotations_draw_the_setup_once(monkeypatch, path):
    # Fixed-rotation mode draws its one setup's four rotations once per run,
    # over several chunks, and gathers every trial's rotations from them.
    draws = []
    monkeypatch.setattr(experiment, "sample_su2_batch",
                        lambda seeds: draws.append(seeds.tolist()) or sample_su2_batch(seeds))
    run_trials(3 * experiment._CHUNK + 5, 6, "uniform", fixed_rotations=True,
               measurement_path=path)
    assert draws == [[split_seed(6, tag) for tag in experiment._SETUP_TAGS.tolist()]]


# Every digit-count and base-10^4 group boundary of a uint64, up to 2^64 - 1.
CSV_EDGE_VALUES = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**12, 10**16,
                   10**19 - 1, 10**19, 2**64 - 1]


@pytest.mark.parametrize("n", [250, 2 * 97 + 1])
def test_to_csv_matches_row_oracle(tmp_path, monkeypatch, n):
    # n rows span three 97-row chunks, the last one partial: 56 rows, or one
    # row rendered in the file's buffers of 97.  Seeds and trial indices
    # reach past 2^63 up to 2^64 - 1, the last trial's index among them.
    # Each number column also holds every CSV_EDGE_VALUES entry, at 250 rows
    # in a different chunk per column.
    monkeypatch.setattr(experiment, "_CHUNK", 97)
    idx = np.arange(n, dtype=np.uint64)
    seed_a = split_seed(0xABCDEF, idx)
    seed_b = split_seed(0x123456, idx)
    seed_a[:3] = [2**63, 2**64 - 1, 0]
    trial = idx.copy()
    trial[-1] = 2**64 - 1
    edges = len(CSV_EDGE_VALUES)
    trial[100:100 + edges] = CSV_EDGE_VALUES
    seed_a[n - 50:n - 50 + edges] = CSV_EDGE_VALUES
    seed_b[3:3 + edges] = CSV_EDGE_VALUES
    seed_b[3 + edges:3 + 2 * edges] = CSV_EDGE_VALUES[::-1]
    assert (seed_a >= 2**63).sum() > 50 and (seed_b >= 2**63).sum() > 50
    log = TrialLog(trial, idx % 2, idx // 2 % 2, seed_a, seed_b,
                   np.where(idx % 3 == 0, -1, 1), np.where(idx % 5 == 0, 1, -1))
    metadata = {"version": "x", "root_seed": "5"}
    log.to_csv(tmp_path / "trials.csv", metadata=metadata)
    assert (tmp_path / "trials.csv").read_text() == trials_csv(log, metadata)


def test_to_csv_of_an_empty_log_is_its_header(tmp_path):
    log = TrialLog(*([] for _ in range(7)))
    log.to_csv(tmp_path / "trials.csv", metadata={"trials": "0"})
    text = (tmp_path / "trials.csv").read_text()
    assert text == trials_csv(log, {"trials": "0"}) == f"# trials: 0\n{TrialLog.CSV_HEADER}\n"


# A valid two-trial log, column by column.
TWO_TRIALS = {"trial": [0, 1], "setting_a": [0, 1], "setting_b": [1, 0], "seed_a": [0, 0],
              "seed_b": [0, 0], "outcome_a": [1, -1], "outcome_b": [-1, 1]}


@pytest.mark.parametrize("column, value", [
    ("setting_a", 2), ("setting_b", -1), ("setting_a", 256),
    ("outcome_a", 0), ("outcome_b", 2), ("outcome_a", -2), ("outcome_b", 257),
])
def test_trial_log_rejects_codes_the_csv_cannot_print(monkeypatch, column, value):
    # The writer prints a setting as 'F' + code and an outcome's sign from
    # its code, so a setting of 2 would print as H and an outcome of 2 as 1.
    # 256 and 257 would wrap to valid int8 codes if cast before the check.
    # Codes are checked _CHUNK at a time; with a chunk of 1 the bad code is
    # in the second chunk.
    cols = dict(TWO_TRIALS)
    cols[column] = np.array([cols[column][0], value])
    with pytest.raises(ValueError, match="codes must be in"):
        TrialLog(**cols)
    monkeypatch.setattr(experiment, "_CHUNK", 1)
    with pytest.raises(ValueError, match="codes must be in"):
        TrialLog(**cols)


@pytest.mark.parametrize("column, values", [
    ("trial", np.array([0, -1])), ("seed_a", [0, -5]), ("seed_b", np.array([0, 2.7])),
    ("seed_a", [0, 2**64]), ("trial", np.array([0, 2.0**64])),
])
def test_trial_log_rejects_ids_the_uint64_cast_would_change(column, values):
    # Cast unchecked, -1 would be stored as 2^64 - 1, -5 as 2^64 - 5 and 2.7 as 2.
    with pytest.raises(ValueError, match="integers in"):
        TrialLog(**dict(TWO_TRIALS, **{column: values}))


def test_trial_log_keeps_every_uint64_id():
    top = 2**64 - 1
    # A Python list, a uint64 array and float zeros.
    log = TrialLog(**dict(TWO_TRIALS, trial=[0, top], seed_a=np.array([top, 0], np.uint64),
                          seed_b=np.zeros(2)))
    assert (log.trial.tolist(), log.seed_a.tolist(), log.seed_b.tolist()) == (
        [0, top], [top, 0], [0, 0])
    assert {col.dtype for col in (log.trial, log.seed_a, log.seed_b)} == {np.dtype(np.uint64)}


def _to_csv_peak(n, path):
    """tracemalloc peak of writing an n-trial log, above the log itself."""
    idx = np.arange(n, dtype=np.uint64)
    log = TrialLog(idx, idx % 2, idx // 2 % 2, split_seed(1, idx), split_seed(2, idx),
                   np.where(idx % 3 == 0, -1, 1), np.where(idx % 5 == 0, 1, -1))
    tracemalloc.start()
    try:
        log.to_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_to_csv_memory_is_per_chunk(tmp_path):
    # Only one chunk's rows, keep flags and bytes are alive at a time: 1.0
    # MiB at 4096 rows (numpy 2.4), the same at 50k and 400k trials, and 2.0
    # MiB at 8192 rows.  The f-string writer before it traced 2.3 MiB.
    # np.compress in place of the boolean index builds an int64 index of
    # every kept byte and traced 5.6 at 8192 rows.
    small = _to_csv_peak(50_000, tmp_path / "small.csv")
    large = _to_csv_peak(400_000, tmp_path / "large.csv")
    assert large <= 8 * 2**20
    assert abs(large - small) <= 2**19


def test_jointstats_paths_agree():
    # Both count paths, run_trials' counts and count_trials(log), against a
    # pure-Python Counter of (setting_a, setting_b, outcome_a, outcome_b) rows.
    log, stats = run_trials(2500, 8, "uniform")
    rows = Counter(zip(log.setting_a.tolist(), log.setting_b.tolist(),
                       log.outcome_a.tolist(), log.outcome_b.tolist()))
    for counts in (stats, count_trials(log)):
        assert counts.shape == (4, 3, 3) and counts.dtype == np.int64
        for (pair, i, j), n in np.ndenumerate(counts):
            assert n == rows[(*divmod(pair, 2), LABEL_ORDER[i], LABEL_ORDER[j])]


def test_jointstats_merge_commutative():
    # Merging joint counts is +: either order gives the same int64 tables,
    # and each pair's total is the sum of the parts' totals.
    _, s1 = run_trials(1000, 9, "uniform")
    _, s2 = run_trials(1000, 10, "uniform")
    ab, ba = s1 + s2, s2 + s1
    assert ab.dtype == np.int64 and np.array_equal(ab, ba)
    for pair in range(4):
        assert ab[pair].sum() == s1[pair].sum() + s2[pair].sum()


def test_jointstats_starts_from_zero_counts():
    # Counts come only from count_trials; an empty log counts zero trials in
    # every cell of every pair.
    empty = count_trials(TrialLog(*[[]] * len(LOG_COLUMNS)))
    assert empty.shape == (4, 3, 3) and empty.dtype == np.int64 and not empty.any()


def test_sampled_frequencies_match_exact():
    _, stats = run_trials(100_000, 31337, "fixed:GG")
    p_hat = stats[GG, 1, 1] / stats[GG].sum()
    p = float(Fraction(9, 112))
    assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / 100_000)


def test_forbidden_and_certain_events_in_samples():
    _, stats = run_trials(50_000, 777, "fixed:FF")
    assert stats[FF, 1, 1] == 0
    _, stats = run_trials(50_000, 778, "fixed:GF")
    gf = stats[GF]
    row_plus = gf[1, :]
    assert row_plus[0] == 0 and row_plus[2] == 0 and row_plus[1] > 0


def test_protocol_path_agrees_with_pvm_path():
    n = 24_000
    log_p, stats_p = run_trials(n, 515, "uniform", measurement_path="protocol")
    log_v, stats_v = run_trials(n, 515, "uniform", measurement_path="pvm")
    # Identical setting and rotation streams.
    assert np.array_equal(log_p.setting_a, log_v.setting_a)
    assert np.array_equal(log_p.seed_b, log_v.seed_b)
    behavior = exact_behavior()
    for counts_p, counts_v, exact_t in zip(stats_p, stats_v, behavior):
        n_pair = counts_p.sum()
        bound = 4 * math.sqrt(0.5 / n_pair)
        freq_p, freq_v = counts_p / n_pair, counts_v / counts_v.sum()
        assert np.abs(freq_p[:2, :2] - exact_t[:2, :2]).max() < bound
        assert np.abs(freq_p - freq_v).max() < 2 * bound
    # The structurally forbidden events stay exactly empty on both paths.
    assert stats_p[FF, 1, 1] == 0
    assert stats_p[FG, 0, 1] == 0


def test_epr_audit_exact_chain(behavior):
    audit = epr_audit(None, behavior)
    assert audit.exact.hardy_fraction == pytest.approx(float(Fraction(9, 112)), abs=TOL)
    assert audit.exact.cond_ab == pytest.approx(1.0, abs=TOL)
    assert audit.exact.cond_ba == pytest.approx(1.0, abs=TOL)
    assert audit.exact.joint_ff == pytest.approx(0.0, abs=TOL)
    assert audit.contradiction_witnessed
    assert audit.empirical is None
    assert "contradiction witnessed" in audit.note


def test_epr_audit_degenerate_behavior(behavior):
    # Move the both-1 mass of the (G,G) table elsewhere: no contradiction left.
    degenerate = behavior.copy()
    t = degenerate[GG]
    t[0, 0] += t[1, 1]
    t[1, 1] = 0.0
    audit = epr_audit(None, degenerate)
    assert not audit.contradiction_witnessed
    assert audit.note == "no contradiction witnessed"


def test_epr_audit_with_samples(behavior):
    log, _ = run_trials(40_000, 11, "uniform")
    audit = epr_audit(log, behavior)
    assert audit.empirical is not None
    n_gg = count_trials(log)[GG].sum()
    p = float(Fraction(9, 112))
    assert abs(audit.empirical.hardy_fraction - p) < 3 * math.sqrt(p * (1 - p) / n_gg)
    assert audit.empirical.cond_ab == pytest.approx(1.0)
    assert audit.empirical.joint_ff == 0.0


def _counter_chain(log: TrialLog) -> ChainValues:
    """Pure-Python chain from the log's rows: None where a pair has no
    trials or a conditioning count is 0."""
    rows = Counter(zip(log.setting_a.tolist(), log.setting_b.tolist(),
                       log.outcome_a.tolist(), log.outcome_b.tolist()))
    f, g = 0, 1

    def count(sa, sb, oa=None, ob=None):
        return sum(n for (a, b, x, y), n in rows.items() if (a, b) == (sa, sb)
                   and oa in (None, x) and ob in (None, y))

    def ratio(num, den):
        return num / den if den else None

    return ChainValues(
        hardy_fraction=ratio(count(g, g, 1, 1), count(g, g)),
        cond_ab=ratio(count(f, g, 1, 1), count(f, g, ob=1)),
        cond_ba=ratio(count(g, f, 1, 1), count(g, f, oa=1)),
        joint_ff=ratio(count(f, f, 1, 1), count(f, f)),
    )


@pytest.mark.parametrize("policy,path,fixed", [
    ("fixed:GG", "pvm", False),
    ("fixed:FG", "protocol", False),
    ("cycle", "pvm", False),
    ("cycle", "protocol", True),
])
def test_epr_audit_empirical_matches_counter_oracle(behavior, policy, path, fixed):
    log, _ = run_trials(2000, 17, policy, fixed_rotations=fixed, measurement_path=path)
    empirical = epr_audit(log, behavior).empirical
    expected = _counter_chain(log)
    assert empirical == expected
    present = {"fixed:GG": ("hardy_fraction",), "fixed:FG": ("cond_ab",)}.get(
        policy, ("hardy_fraction", "cond_ab", "cond_ba", "joint_ff"))
    for name, value in vars(empirical).items():
        assert (value is None) == (name not in present), name


@pytest.mark.parametrize("policy", ["uniform", "fixed:GG"])
def test_epr_audit_reads_the_counts_of_its_log(behavior, policy):
    # cmd_sample passes the counts run_trials returns; a TrialLog is counted
    # first, so both give one audit.
    log, counts = run_trials(3000, 5, policy)
    assert epr_audit(counts, behavior) == epr_audit(log, behavior)
    assert epr_audit(counts, behavior).empirical is not None
    empty = TrialLog(*np.zeros((7, 0), np.int64))
    assert epr_audit(empty, behavior).empirical is None
    assert epr_audit(count_trials(empty), behavior) == epr_audit(empty, behavior)


def test_epr_audit_empirical_none_on_zero_conditioning_count(behavior):
    # Both pairs have trials, but neither conditioning outcome (B: G=1 in
    # FG, A: G=1 in GF) ever occurs.
    n = 8
    log = TrialLog(np.arange(n), [0, 1] * 4, [1, 0] * 4, np.zeros(n), np.zeros(n),
                   [1, -1] * 4, [-1, 1] * 4)
    empirical = epr_audit(log, behavior).empirical
    assert empirical == _counter_chain(log)
    assert empirical == ChainValues(None, None, None, None)


def test_stats_report_structure(behavior):
    _, stats = run_trials(1000, 21, "uniform")
    report = stats_report(stats, behavior)
    assert report["outcome_order"] == list(LABEL_ORDER)
    assert set(report["setting_pairs"]) == {"FF", "FG", "GF", "GG"}
    gg = report["setting_pairs"]["GG"]
    assert gg["trials"] == stats[GG].sum()
    assert np.array(gg["abs_deviation"]).shape == (3, 3)


def _audit_and_report(exact):
    """Both callers that check an exact behavior a caller passes."""
    _, counts = run_trials(8, 3, "cycle")
    return epr_audit(None, exact), stats_report(counts, exact)


def test_exact_behavior_validation():
    bad = np.full((4, 3, 3), 1.0 / 9.0)
    _audit_and_report(bad)  # uniform tables are fine
    bad[FF] = np.full((3, 3), 0.2)
    with pytest.raises(ValueError, match="table FF sums to"):
        epr_audit(None, bad)
    with pytest.raises(ValueError, match="table FF sums to"):
        stats_report(np.zeros((4, 3, 3), np.int64), bad)
    bad[FF] = 1.0 / 9.0
    bad[GG, 0, 1] += bad[GG, 0, 0] + 2e-13
    bad[GG, 0, 0] = -2e-13
    with pytest.raises(ValueError, match="negative probability in table GG"):
        _audit_and_report(bad)


@pytest.mark.filterwarnings("error")
def test_exact_behavior_rejects_non_finite_and_missing_tables():
    tables = np.full((4, 3, 3), 1.0 / 9.0)
    for bad in (np.nan, np.inf):
        tables[GF] = bad
        with pytest.raises(ValueError, match="non-finite probability in table GF"):
            _audit_and_report(tables)
    # A missing table, or a missing outcome, is the wrong shape.
    for shape in ((3, 3, 3), (4, 2, 2), (36,)):
        with pytest.raises(ValueError, match="3x3 outcome table for each of the 4"):
            _audit_and_report(np.full(shape, 1.0 / 9.0))


_ONES = np.ones((4, 3, 3), np.int64)


@pytest.mark.parametrize("bad,match", [
    (np.ones((2, 3, 3), np.int64), "3x3 integer outcome table"),
    (np.ones((3, 3), np.int64), "3x3 integer outcome table"),
    (_ONES.astype(float), "3x3 integer outcome table"),
    (np.where(np.arange(36).reshape(4, 3, 3) == 5, -9, _ONES), "must not be negative"),
], ids=["two-tables", "one-table", "float", "negative"])
def test_counts_validation(behavior, bad, match):
    # Counts are a (4, 3, 3) integer array with no negative cell, in both
    # callers that take counts.
    with pytest.raises(ValueError, match=match):
        stats_report(bad, behavior)
    with pytest.raises(ValueError, match=match):
        epr_audit(bad, behavior)
