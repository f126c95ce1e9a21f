"""Property-based checks: chunking, batch-of-one sampling, the four-fold
rotation, counting and merging counts, and the CSV writer."""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import trials_csv
from afbell import experiment
from afbell.experiment import (
    LABEL_ORDER,
    MEASUREMENT_PATHS,
    JointStats,
    Setting,
    TrialLog,
    run_trials,
)
from afbell.rotations import fourfold, sample_su2_batch

LOG_COLUMNS = ("trial", "setting_a", "setting_b", "seed_a", "seed_b", "outcome_a", "outcome_b")

# Bounded example counts and no per-example deadline: a run_trials example
# with a chunk of 1 makes hundreds of kernel calls, and timing here is noisy.
PROPERTY = settings(max_examples=25, deadline=None)

uint64s = st.integers(0, 2**64 - 1)


@PROPERTY
@given(root=uint64s, n=st.integers(1, 300), chunk=st.integers(1, 300),
       prefix=st.integers(1, 300), path=st.sampled_from(MEASUREMENT_PATHS),
       fixed=st.booleans())
def test_log_invariant_under_chunk_and_prefix(root, n, chunk, prefix, path, fixed):
    # Each trial is a function of (root, trial index) alone, so no chunk size
    # and no shorter run can change any trial of the log.  _CHUNK caps every
    # path's chunk, so the patch splits the protocol path's 2048 too.
    reference, _ = run_trials(n, root, fixed_rotations=fixed, measurement_path=path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "_CHUNK", chunk)
        chunked, _ = run_trials(n, root, fixed_rotations=fixed, measurement_path=path)
    head, _ = run_trials(min(prefix, n), root, fixed_rotations=fixed, measurement_path=path)
    for col in LOG_COLUMNS:
        assert np.array_equal(getattr(chunked, col), getattr(reference, col)), col
        assert np.array_equal(getattr(head, col), getattr(reference, col)[:prefix]), col


@PROPERTY
@given(seeds=st.lists(uint64s, min_size=1, max_size=64))
def test_su2_batch_row_is_its_batch_of_one(seeds):
    batch = sample_su2_batch(np.array(seeds, dtype=np.uint64))
    for row, seed in zip(batch, seeds):
        assert np.array_equal(row, sample_su2_batch(np.array([seed], dtype=np.uint64))[0])


@st.composite
def two_by_twos(draw, n):
    """(n, 2, 2) complex matrices of one kind: Haar SU(2), SU(2) times a
    phase, or any entries."""
    kind = draw(st.sampled_from(["unitary", "phase", "any"]))
    if kind == "any":
        parts = draw(st.lists(st.floats(-2, 2), min_size=8 * n, max_size=8 * n))
        return np.array(parts).view(complex).reshape(n, 2, 2)
    u = sample_su2_batch(np.array(draw(st.lists(uint64s, min_size=n, max_size=n)), np.uint64))
    if kind == "phase":
        angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=n, max_size=n))
        u = u * np.exp(1j * np.array(angles))[:, None, None]
    return u


@PROPERTY
@given(data=st.data(), n=st.integers(1, 4))
def test_fourfold_is_the_dense_kronecker_power(data, n):
    us = data.draw(two_by_twos(n))
    powers = fourfold(us)
    assert powers.shape == (n, 16, 16)
    # Each entry is a product of four entries, off by a few roundings in
    # either form.
    tol = 16 * np.finfo(float).eps * max(1.0, np.abs(us).max()) ** 4
    for u, power in zip(us, powers):
        assert np.abs(power - functools.reduce(np.kron, [u] * 4)).max() <= tol


def _log(rows: list[tuple[int, int, int, int]]) -> TrialLog:
    """A log of (setting_a, setting_b, outcome_a, outcome_b) rows; the trial
    indices and seeds do not enter the counts."""
    setting_a, setting_b, outcome_a, outcome_b = np.array(rows, dtype=int).reshape(-1, 4).T
    zeros = np.zeros(len(rows))
    return TrialLog(np.arange(len(rows)), setting_a, setting_b, zeros, zeros, outcome_a, outcome_b)


count_rows = st.tuples(st.integers(0, 1), st.integers(0, 1), st.sampled_from([-1, 1]),
                       st.sampled_from([-1, 1]))
trial_logs = st.lists(count_rows, max_size=40).map(_log)


def _concat(logs: list[TrialLog]) -> TrialLog:
    return TrialLog(*(np.concatenate([getattr(log, col) for log in logs]) for col in LOG_COLUMNS))


@PROPERTY
@given(logs=st.lists(trial_logs, min_size=3, max_size=3))
def test_merge_is_associative_and_counts_the_concatenated_log(logs):
    a, b, c = map(JointStats.from_records, logs)
    left, right = a.merge(b).merge(c), a.merge(b.merge(c))
    whole = JointStats.from_records(_concat(logs))
    for pair, counts in whole.counts.items():
        assert np.array_equal(left.counts[pair], counts)
        assert np.array_equal(right.counts[pair], counts)


@PROPERTY
@given(rows=st.lists(count_rows, max_size=400), chunk=st.integers(1, 300))
def test_counts_are_independent_of_chunking(rows, chunk):
    # from_records counts _CHUNK trials at a time; any chunk size gives the
    # counts of a Counter over the rows.
    codes = {Setting.F: 0, Setting.G: 1}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "_CHUNK", chunk)
        stats = JointStats.from_records(_log(rows))
    want = Counter(rows)
    for (sa, sb), counts in stats.counts.items():
        assert counts.tolist() == [[want[(codes[sa], codes[sb], la, lb)] for lb in LABEL_ORDER]
                                   for la in LABEL_ORDER]


@PROPERTY
@given(rows=st.lists(st.tuples(uint64s, st.integers(0, 1), st.integers(0, 1), uint64s, uint64s,
                               st.sampled_from([-1, 1]), st.sampled_from([-1, 1])),
                     max_size=400),
       chunk=st.integers(1, 300))
def test_csv_bytes_match_the_row_oracle(tmp_path_factory, rows, chunk):
    # Rows in LOG_COLUMNS order; trial and seeds span the whole uint64 range.
    log = TrialLog(*(list(zip(*rows)) or [()] * len(LOG_COLUMNS)))
    path = tmp_path_factory.mktemp("csv") / "trials.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "_CHUNK", chunk)
        log.to_csv(path, metadata={"root_seed": "0"})
    assert path.read_bytes() == trials_csv(log, {"root_seed": "0"}).encode()
