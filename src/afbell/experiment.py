"""Exact computation and seeded Monte Carlo sampling of the two-observer behavior.

The behavior P(a, b | x, y), exact or counted, is one (4, 3, 3) array: the
setting pair's code 2 x + y (F 0, G 1), then Alice's and Bob's outcomes in
LABEL_ORDER; setting letters appear only where it is rendered.  F and G are
arrays by setting code too: _PVM_BASES holds their complete bases, built at
import from qstate.PAIRS, with the labels _PVM_LABELS, and the protocol path
reads observables' rows and labels.  Every Born table comes from the one
kernel below.

Alice holds qubits 1-4 of the source state and Bob holds qubits 5-8; each side
measures F or G, possibly through an independently rotated setup.  One batched
Born-rule kernel gives each side's amplitudes for its outcome rows through
every trial's own rotated setups, trials last.  The source grid has rank 2,
G = PHI^T C PHI with PHI the invariant pair and C eta's stated (phi, phi)
expansion, so each side needs its rows against two rotated 16-vectors per
trial.  With the same U on all four qubits those are degree-4 polynomials in
U^dagger's four entries: per side and run of trials with one setting, one
product of that setting's coefficients, built at import, with the trials' 35
monomials.  The three uses differ only in their rows: the exact path passes
complete F/G bases and forms, squares and sums the full table by label, the
pvm sampling path the -1/+1 rows, and the protocol path the 16 product
eigenvectors per setting, in chunks of 2048 trials rather than 4096, since
its amplitudes grow with the chunk.  The sampling paths draw fresh Haar
rotations per trial and pick a row pair in two stages, Alice's row by its
mass and then the cell within it, so no table is formed.  Each chunk hands
the kernel its trials grouped by setting pair, a stable sort that moves one
seed, code or draw per trial and no amplitude, and scatters the picked rows
back to trial order.  Every random quantity is a pure function of the root
seed and the trial index, so results are identical regardless of execution
order or chunk boundaries.  Each chunk writes its slice of the trial log,
allocated once, and the log is counted and checked a chunk at a time.  The
kernel's buffers, and the buffer both sides' rotations are drawn into, are
sized to one chunk and allocated once per run, so a run holds the log's 28
bytes per trial plus one chunk's buffers, and no chunk allocates its own.
The CSV writer likewise renders every chunk in buffers allocated once per
file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observables import PROTOCOL_LABELS, PROTOCOL_ROWS
from .qstate import ETA_BORN_TABLES, ETA_PHI_PHI, PAIRS
from .rotations import (
    STREAM_ALICE,
    STREAM_BOB,
    STREAM_OUTCOME,
    STREAM_SETTINGS,
    _WORD_MONOMIAL,
    _monomials,
    sample_su2_batch,
    split_seed,
)

# A behavior's axis 0, by pair code, as rendered; its outcome axes' labels.
SETTING_PAIRS = ("FF", "FG", "GF", "GG")
LABEL_ORDER = (-1, +1, 0)

# How far a trial's table mass may stray from 1, in either direction (mass on
# the never-occurring 0 outcome, or a setup that is not unitary), before a run
# aborts.
ZERO_OUTCOME_TOL = 1e-12

# Below this, an event's probability is numerical dust, not a real event.
ZERO_EVENT_TOL = 1e-14

# How far the exact chain's values may sit from 0 and 1 for epr_audit to call
# the contradiction witnessed.
CHAIN_TOL = 1e-9

# Trials per chunk: the pvm path's, and the most any path's chunk holds (see
# _MEASUREMENTS); also the rows per write of the CSV writer, and the trials
# counted or code-checked at a time.
_CHUNK = 4096

# Tags for deriving a setup's one rotation seed per (side, setting), in setup
# order (Alice F, Alice G, Bob F, Bob G), for fixed-rotation mode,
# exact_behavior and verify's setups; arbitrary fixed 64-bit constants.
_SETUP_TAGS = np.array([0x11111111A11CE00F, 0x22222222A11CE00A,
                        0x33333333B0B0000F, 0x44444444B0B0000A], dtype=np.uint64)

# A trial's four substream keys, in the order run_trials unpacks them.
_STREAMS = np.array([STREAM_SETTINGS, STREAM_ALICE, STREAM_BOB, STREAM_OUTCOME], dtype=np.uint64)


def parse_policy(policy: str) -> tuple[str, tuple[int, int] | None]:
    """Parse a setting policy: 'uniform_random'/'uniform', 'fixed:XY', or 'cycle';
    a fixed pair comes back as its two setting codes."""
    if policy in ("uniform", "uniform_random"):
        return "uniform", None
    if policy == "cycle":
        return "cycle", None
    if policy.startswith("fixed:"):
        pair = policy[len("fixed:"):]
        if len(pair) == 2 and all(c in "FG" for c in pair):
            return "fixed", ("FG".index(pair[0]), "FG".index(pair[1]))
    raise ValueError(
        f"bad setting policy {policy!r}; expected uniform, cycle, or fixed:XY with X,Y in FG"
    )


def _draw_setups(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, 4) rotation seeds and (m, 4, 2, 2) unitaries, in setup order, of
    the setups drawn from m uint64 seeds: each split by _SETUP_TAGS.  A setup
    has no other form; fixed-rotation run_trials draws one and gathers from it."""
    setup_seeds = split_seed(seeds[:, None], _SETUP_TAGS)
    return setup_seeds, sample_su2_batch(setup_seeds.ravel()).reshape(-1, 4, 2, 2)


# The exact behavior that report and sample print: each cell the float of its
# Fraction in qstate.ETA_BORN_TABLES (F reads phi, G reads psi), the 0 row and
# column exactly 0.  verify checks the kernel's tables against it.
EXACT_BEHAVIOR = np.pad(ETA_BORN_TABLES.astype(float), ((0, 0), (0, 1), (0, 1)))
EXACT_BEHAVIOR.setflags(write=False)


def _check_behavior(exact) -> np.ndarray:
    """A caller's exact behavior as a (4, 3, 3) float array, its cells
    clipped at 0, or ValueError if it has another shape, a non-finite or
    negative cell, or a table whose sum is not 1."""
    t = np.asarray(exact, dtype=float)
    if t.shape != (4, 3, 3):
        raise ValueError("a behavior needs a 3x3 outcome table for each of the 4 setting pairs")
    for pair, table in zip(SETTING_PAIRS, t):
        if not np.isfinite(table).all():
            raise ValueError(f"non-finite probability in table {pair}")
        if table.min() < -1e-13:
            raise ValueError(f"negative probability in table {pair}")
        if abs(table.sum() - 1.0) > 1e-12:
            raise ValueError(f"table {pair} sums to {table.sum()}, not 1")
    return np.clip(t, 0.0, None)


def _check_counts(counts) -> np.ndarray:
    """A caller's counts as a (4, 3, 3) integer array, or ValueError if they
    have another shape or dtype, or a negative cell."""
    c = np.asarray(counts)
    if c.shape != (4, 3, 3) or c.dtype.kind not in "iu":
        raise ValueError("counts need a 3x3 integer outcome table for each of the 4 setting pairs")
    if (c < 0).any():
        raise ValueError("counts must not be negative")
    return c


def exact_behavior(seed: int | None = None) -> np.ndarray:
    """All four setting pairs' joint outcome tables on the source state, as
    a (4, 3, 3) array.

    Each side measures each setting through the identity setup or, with
    ``seed``, through the setup _draw_setups draws from seed mod 2^64; the
    tables are provably independent of the choice.  The 0 cells are Born
    masses on the 0 rows, not differences.
    """
    u = (np.broadcast_to(np.eye(2, dtype=complex), (1, 4, 2, 2)) if seed is None
         else _draw_setups(np.array([seed % 2**64], np.uint64))[1])
    return _setup_tables(u)[0]


def _setup_tables(u: np.ndarray) -> np.ndarray:
    """(m, 4, 3, 3) outcome tables of m setups, by setting pair, from their
    (m, 4, 2, 2) unitaries in setup order (Alice F, Alice G, Bob F, Bob G):
    one kernel call on the complete F/G bases over all 4m
    (setting pair, setup) trials, pair-major so they come grouped by
    setting, each 16x16 table summed by label."""
    m = len(u)
    fine = _born_tables(_EXACT_KERNEL, u[:, [0, 0, 1, 1]].swapaxes(0, 1).reshape(-1, 2, 2),
                        u[:, [2, 3, 2, 3]].swapaxes(0, 1).reshape(-1, 2, 2),
                        np.repeat([0, 0, 1, 1], m), np.repeat([0, 1, 0, 1], m))
    tables = _LABEL_ONE_HOT.T @ np.moveaxis(fine, -1, 0) @ _LABEL_ONE_HOT
    return tables.reshape(4, m, 3, 3).swapaxes(0, 1)


def _complete_basis(pair: np.ndarray) -> np.ndarray:
    """Rows pair[0], pair[1], then the columns of the rank-14 rest
    I - |m><m| - |p><p| of the pair (m, p), orthonormalized against the rows
    so far (Gram-Schmidt run twice); columns in their span drop out."""
    minus, plus = (np.outer(v, v.conj()) for v in pair)
    rest = np.eye(16) - minus - plus
    rows = list(pair)
    for col in rest.T:
        for _ in range(2):
            basis = np.array(rows)
            col = col - basis.T @ (basis.conj() @ col)
        norm = np.linalg.norm(col)
        if norm > 1e-6:
            rows.append(col / norm)
    return np.array(rows)


# Conjugated complete F/G bases by setting code (F 0, G 1), their row
# labels and the labels' one-hot.
_PVM_BASES = np.array([_complete_basis(pair) for pair in PAIRS]).conj()
_PVM_LABELS = np.array([[-1, +1] + [0] * 14] * 2, dtype=np.int8)
_LABEL_ONE_HOT = (_PVM_LABELS[0][:, None] == np.array(LABEL_ORDER)).astype(float)

# The source grid has rank 2: G = PHI^T C PHI, row p of _PHI the invariant
# state phi_p and C the float of eta's stated (phi, phi) expansion; _C_PHI is
# C PHI, the pair Bob's side rotates.
_PHI = PAIRS[0]
_C_PHI = ETA_PHI_PHI @ _PHI
for _arr in (_PVM_BASES, _PVM_LABELS, _LABEL_ONE_HOT, _C_PHI):
    _arr.setflags(write=False)


def _kernel(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's (2, k*2, 35) coefficient matrices, by setting, for
    conjugated rows (2, k, 16) by setting.

    Side pair P (PHI for Alice, C PHI for Bob) gives amplitudes y[s, r, p] =
    rows[s, r] (U^dagger)^(x)4 P[p], the sum over (I, J) of rows[s, r, I]
    P[p, J] times monomial _WORD_MONOMIAL[I, J].  So P's entries are summed
    by (I, monomial), and one product with the rows sums over I.  It never
    uses that P is rotation invariant, so every trial's amplitudes still come
    from that trial's own U.
    """
    def side(pair):
        by_monomial = np.zeros((16, 2, 35), complex)
        np.add.at(by_monomial, (np.arange(16)[:, None, None], np.arange(2)[:, None],
                                _WORD_MONOMIAL[:, None]), pair)
        return (rows.reshape(-1, 16) @ by_monomial.reshape(16, 70)).reshape(2, -1, 35)

    return side(_PHI), side(_C_PHI)


def _workspace(kernel: tuple[np.ndarray, np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Buffers for kernel calls of up to n trials: a flat complex scratch of
    45 rows of n, for the 10 pair products and 35 monomials of U^dagger's
    entries, which _pick reuses once both sides' amplitudes exist; and the
    two sides' (k, 2, n) amplitudes, flat, one row per side.  run_trials
    keeps one more run-long buffer beside them, the 8n complex entries that
    sample_su2_batch draws both sides' unitaries into, trials last, and
    that _amplitudes reads them from."""
    return np.empty(45 * n, complex), np.empty((2, kernel[0].shape[1] * n), complex)


def _amplitudes(kernel: tuple[np.ndarray, np.ndarray], u_a: np.ndarray, u_b: np.ndarray,
                code_a: np.ndarray, code_b: np.ndarray,
                work: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's (k, 2, n) amplitudes y[r, p], trials last, through
    every trial's own setups, written into the _workspace ``work``.  Per
    side, each run of trials with equal setting code makes one
    (2k x 35) (35 x m) product of that setting's coefficients with the run's
    monomials, written straight into the run's columns; callers hand over
    trials grouped by setting, so Alice has at most 2 runs and Bob 4.

    With R = U (x) U (x) U (x) U, row pair (v, w) has amplitude
    conj(R_a v)^T G conj(R_b w), and G = PHI^T (C PHI) has rank 2, so that is
    sum_p y_a[v, p] y_b[w, p].  The phi_p are rotation invariant; the
    rotation is applied all the same, because the sampled tables are the
    Monte Carlo test of that invariance.
    """
    scratch, amps = work
    n = len(code_a)

    def side(coef, u, code, y):
        y = y[:coef.shape[1] * n].reshape(-1, n)
        # U^dagger's entries wait in the side's first 4 amplitude rows (k is
        # at least 2), which no product writes before the monomials exist.
        entries = y[:4]
        np.conjugate(u.transpose(2, 1, 0), out=entries.reshape(2, 2, n))
        mono = _monomials(entries, out=scratch[:45 * n].reshape(45, n))
        ends = [*(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist(), n]
        for lo, hi in zip([0, *ends], ends):
            if hi - lo > 1:
                np.matmul(coef[code[lo]], mono[:, lo:hi], out=y[:, lo:hi])
            else:
                # numpy hands a one-column product to gemv, whose sums round
                # differently from gemm's; two copies of the column keep the
                # trial's bits those of any wider run.
                y[:, lo] = (coef[code[lo]] @ mono[:, [lo, lo]])[:, 0]
        return y.reshape(-1, 2, n)

    return side(kernel[0], u_a, code_a, amps[0]), side(kernel[1], u_b, code_b, amps[1])


def _born_close(total: np.ndarray) -> np.ndarray:
    """The mass check of every Born table: returns each trial's total mass,
    or aborts if any differs from 1 by more than ZERO_OUTCOME_TOL.  A deficit
    is mass on the 0 label (outside the k x k outcomes), an excess a setup
    that is not unitary.  A NaN mass fails the check too."""
    worst = float(np.abs(1.0 - total).max())
    if not worst <= ZERO_OUTCOME_TOL:
        raise RuntimeError(
            f"a trial's outcome table has total mass off 1 by {worst:.3e} "
            "(outcome 0 acquired probability, or a setup is not unitary)"
        )
    return total


def _born_tables(kernel: tuple[np.ndarray, np.ndarray], u_a: np.ndarray, u_b: np.ndarray,
                 code_a: np.ndarray, code_b: np.ndarray) -> np.ndarray:
    """(k, k, n) joint probabilities, trials last, of each side's k outcome
    rows through that trial's rotated setups: the rank-2 products of the
    _amplitudes, squared, mass-checked and normalized per trial.  The exact
    path's kernel.  The sampling paths pick from the same amplitudes with
    _pick and never form this table, so the _workspace, not a (k, k, n)
    array, sets what a chunk holds."""
    y_a, y_b = _amplitudes(kernel, u_a, u_b, code_a, code_b, _workspace(kernel, len(code_a)))
    p = np.abs(np.einsum("ipn,jpn->ijn", y_a, y_b))
    p **= 2
    p /= _born_close(p.sum(axis=(0, 1)))
    return p


def _pick(y_a: np.ndarray, y_b: np.ndarray, bits: np.ndarray,
          scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF pick of a row pair (a, b) per trial from the (k, k) table
    |sum_p y_a[a, p] y_b[b, p]|^2 of (k, 2, n) amplitudes, walked row-major, at
    u = (bits + 1)/2^53 in (0, 1], bits its 53-bit draw: the first cell whose
    cumulative mass reaches u times the total.  A u of 0 would pick cell 0
    even at probability 0.

    Two stages, so the table is never formed.  Row a's mass is
    P(a) = y_a[a] M y_a[a]^H with the 2x2 matrix M[p, q] =
    sum_b y_b[b, p] conj(y_b[b, q]); their running sum, whose end _born_close
    checks, picks a.  Then only row a's k cells are walked, from the mass
    before row a, toward u times the total capped at the row's own end, so
    rounding between P(a) and the row's cells cannot carry the pick past the
    row's last nonzero cell.

    Every (k, n) intermediate is computed in place in ``scratch``, a flat
    complex array of at least 2k n entries that is free to overwrite (the
    _workspace's, whose monomials are dead once the amplitudes exist): a
    complex block c, and a second block that holds the float blocks t and
    cum, then, once cum is read, the complex block d.
    """
    k, _, n = y_a.shape
    c, d = scratch[:2 * k * n].reshape(2, k, n)
    t, cum = d.view(np.float64).reshape(2, k, n)
    u = (bits.astype(np.float64) + 1.0) * (2.0**-53)
    trial = np.arange(n)
    a0, a1 = y_a[:, 0], y_a[:, 1]
    b0, b1 = y_b[:, 0], y_b[:, 1]
    np.abs(b0, out=t)
    t **= 2
    m00 = t.sum(axis=0)
    np.abs(b1, out=t)
    t **= 2
    m11 = t.sum(axis=0)
    m01 = np.multiply(b0, np.conjugate(b1, out=c), out=c).sum(axis=0)
    # |a0|^2 m00 + |a1|^2 m11 + 2 Re(a0 conj(a1) m01), term by term.
    np.abs(a0, out=cum)
    cum **= 2
    cum *= m00
    np.abs(a1, out=t)
    t **= 2
    t *= m11
    cum += t
    np.multiply(a0, np.conjugate(a1, out=c), out=c)
    c *= m01
    cum += np.multiply(2.0, c.real, out=t)
    # A zero row's quadratic form can round below 0; the running sum must not.
    np.maximum(cum, 0.0, out=cum)
    # Row by row over all trials at once; np.cumsum along axis 0 walks each
    # trial's column at a large stride.
    for a in range(1, k):
        cum[a] += cum[a - 1]
    target = u * _born_close(cum[-1])
    row = (cum < target).sum(axis=0)
    before = np.where(row > 0, cum[row - 1, trial], 0.0)
    # cum is read, so d may take its block, and the cells then t's.
    np.multiply(b0, a0[row, trial], out=c)
    c += np.multiply(b1, a1[row, trial], out=d)
    cells = np.abs(c, out=t)
    cells **= 2
    cells[0] += before
    for b in range(1, k):
        cells[b] += cells[b - 1]
    return row, (cells < np.minimum(target, cells[-1])).sum(axis=0)


# Per measurement path: the kernel of its conjugated outcome rows, their
# labels by (setting, row), and the trials per chunk.  The pvm path keeps the
# -1/+1 rows, so its mass check catches any 0 mass.  A chunk's peak is the
# _workspace, kept for the run: the 45 complex rows of scratch (the
# monomials' among them), and both sides' (k, 2, n) amplitudes, which on the
# protocol path grow with the chunk too; at 2048 trials its peak is about the
# pvm path's at 4096.
_EXACT_KERNEL = _kernel(_PVM_BASES)
_MEASUREMENTS = {
    "pvm": (_kernel(_PVM_BASES[:, :2]), _PVM_LABELS[:, :2], _CHUNK),
    "protocol": (_kernel(PROTOCOL_ROWS.conj()), PROTOCOL_LABELS, 2048),
}
for _arr in (*_EXACT_KERNEL, *(m for kernel, _, _ in _MEASUREMENTS.values() for m in kernel)):
    _arr.setflags(write=False)
MEASUREMENT_PATHS = tuple(_MEASUREMENTS)


# ---------------------------------------------------------------------------
# Monte Carlo trials
# ---------------------------------------------------------------------------


class TrialLog:
    """Columnar trial log, one array per field (cheap at millions of trials).

    Settings are 0 (F) or 1 (G) and outcomes -1 or +1; any other code is
    rejected, since the CSV writer prints codes by byte arithmetic.
    """

    def __init__(self, trial: np.ndarray, setting_a: np.ndarray, setting_b: np.ndarray,
                 seed_a: np.ndarray, seed_b: np.ndarray,
                 outcome_a: np.ndarray, outcome_b: np.ndarray) -> None:
        self.trial = _ids(trial, "trial")
        self.setting_a = _codes(setting_a, (0, 1), "setting")
        self.setting_b = _codes(setting_b, (0, 1), "setting")
        self.seed_a = _ids(seed_a, "seed")
        self.seed_b = _ids(seed_b, "seed")
        self.outcome_a = _codes(outcome_a, (-1, 1), "outcome")
        self.outcome_b = _codes(outcome_b, (-1, 1), "outcome")
        n = len(self.trial)
        if any(len(col) != n for col in (self.setting_a, self.setting_b, self.seed_a,
                                         self.seed_b, self.outcome_a, self.outcome_b)):
            raise ValueError("column length mismatch")

    def __len__(self) -> int:
        return len(self.trial)

    CSV_HEADER = "trial,setting_a,setting_b,seed_a,seed_b,outcome_a,outcome_b"

    def to_csv(self, path, metadata: dict[str, str] | None = None) -> None:
        """Write the trial log as CSV, preceded by '# key: value' metadata lines.

        Rows are rendered by numpy array operations into one byte array per
        _CHUNK rows, one write each (see _csv_rows).  Each row's bytes equal
        f"{trial},{F or G},{F or G},{seed_a},{seed_b},{outcome_a},{outcome_b}\\n".
        """
        head = "".join(f"# {key}: {value}\n" for key, value in (metadata or {}).items())
        cols = (self.trial, self.setting_a, self.setting_b, self.seed_a, self.seed_b,
                self.outcome_a, self.outcome_b)
        buffers = _csv_buffers(min(len(self), _CHUNK))
        with open(path, "wb") as f:
            f.write((head + self.CSV_HEADER + "\n").encode())
            for start in range(0, len(self), _CHUNK):
                f.write(_csv_rows(buffers, *(col[start:start + _CHUNK] for col in cols)))


def _ids(values, what: str) -> np.ndarray:
    """uint64 column, rejecting any value the cast would change: a negative,
    fractional or non-finite one, or one of 2^64 or more.  Python numbers are
    checked as objects, since numpy reads [0, 2**64 - 1] as float64."""
    values = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if values.dtype.kind not in "bu" and not (((values >= 0) & (values < 2**64)).all()
                                              and (values % 1 == 0).all()):
        raise ValueError(f"a trial log's {what} values must be integers in [0, 2^64)")
    return values.astype(np.uint64, copy=False)


def _codes(values, allowed: tuple[int, int], what: str) -> np.ndarray:
    """int8 column of codes, rejecting any value outside ``allowed``.  The
    check runs _CHUNK values at a time, so no temporary grows with the
    column (np.isin's table method forms an intp array of every value)."""
    values = np.asarray(values)
    lo, hi = allowed
    if not all(((block == lo) | (block == hi)).all()
               for block in (values[i:i + _CHUNK] for i in range(0, len(values), _CHUNK))):
        raise ValueError(f"a trial log's {what} codes must be in {allowed}")
    return values.astype(np.int8, copy=False)


# The CSV row template: trial, seed_a and seed_b as 20 digits each (2^64 - 1
# has 20), both setting letters F and both outcomes -1; the byte offsets of
# the three numbers, the two letters and the two signs.
_CSV_ROW = np.frombuffer(b"%s,F,F,%s,%s,-1,-1\n" % ((b"0" * 20,) * 3), np.uint8)
_CSV_NUMBERS = (0, 25, 46)
_CSV_SETTINGS = (21, 23)
_CSV_SIGNS = (67, 70)
# Each base-10^4 group 0..9999 as its four ASCII digits in one uint32, built
# by array arithmetic: a Python loop over the 10^4 groups would add to the
# import time of every CLI call.
_DIGIT_GROUPS = ((np.arange(10**4, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]))
                 % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
# np.searchsorted(_POWERS_OF_TEN, x, "right") is x's digit count (0 for 0);
# row d of _KEEP_DIGITS keeps the last max(d, 1) of 20 digits, so 0 prints as
# 0.  Viewed as 5 uint32 per row, so one gather copies a row's 20 flags.
_POWERS_OF_TEN = np.uint64(10) ** np.arange(20, dtype=np.uint64)
_KEEP_DIGITS = (np.arange(20) >= 20 - np.maximum(np.arange(21), 1)[:, None]).view(np.uint32)


def _csv_buffers(n: int) -> tuple[np.ndarray, ...]:
    """Buffers for _csv_rows of up to n rows, allocated once per file: the
    (n, 73) rows, each _CSV_ROW, and their keep flags, all True, whose fixed
    bytes are set once; the (n, 5) base-10^4 groups of one number column, as
    intp indices, and the uint32 words gathered by them; and (3, n) uint64
    scratch for the quotients and products that split the column."""
    return (np.tile(_CSV_ROW, (n, 1)), np.ones((n, 73), bool), np.empty((n, 5), np.intp),
            np.empty((n, 5), np.uint32), np.empty((3, n), np.uint64))


def _csv_rows(buffers: tuple[np.ndarray, ...], trial, setting_a, setting_b,
              seed_a, seed_b, outcome_a, outcome_b) -> np.ndarray:
    """The CSV bytes of up to n trials, as one uint8 array, rendered in the
    _csv_buffers ``buffers`` of n rows; the template bytes and keep flags it
    does not write stay as they were set once per file.

    Each number is split into five base-10^4 groups by uint64 division, and
    its four-digit words are gathered from _DIGIT_GROUPS; its keep flags,
    gathered from _KEEP_DIGITS by its digit count, drop the leading zeros.
    A setting letter is 'F' + code, and an outcome's '-' is kept only for -1.
    """
    m = len(trial)
    rows, keep, groups, words = (b[:m] for b in buffers[:4])
    quotients, product = buffers[4][:2, :m], buffers[4][2, :m]
    for first, number in zip(_CSV_NUMBERS, (trial, seed_a, seed_b)):
        x = number
        for g in range(4, 0, -1):
            rest = np.floor_divide(x, 10**4, out=quotients[g % 2])
            np.subtract(x, np.multiply(rest, 10**4, out=product), out=groups[:, g])
            x = rest
        groups[:, 0] = x
        # Every index is in range; mode="clip" lets np.take write straight
        # into ``out``, which the default mode="raise" would buffer.
        rows[:, first:first + 20] = np.take(_DIGIT_GROUPS, groups, out=words,
                                            mode="clip").view(np.uint8)
        digits = np.searchsorted(_POWERS_OF_TEN, number, "right")
        keep[:, first:first + 20] = np.take(_KEEP_DIGITS, digits, axis=0, out=words,
                                            mode="clip").view(bool)
    for col, setting in zip(_CSV_SETTINGS, (setting_a, setting_b)):
        rows[:, col] = setting + ord("F")
    for col, outcome in zip(_CSV_SIGNS, (outcome_a, outcome_b)):
        np.less(outcome, 0, out=keep[:, col])
    return rows.ravel()[keep.ravel()]


def count_trials(log: TrialLog) -> np.ndarray:
    """(4, 3, 3) int64 counts of a log's trials, by setting pair code and
    outcome pair in LABEL_ORDER; the counts of two logs add with +."""
    flat = np.zeros(36, np.int64)
    # _CHUNK trials at a time, so no temporary grows with the log.
    for start in range(0, len(log), _CHUNK):
        sa, sb, oa, ob = (col[start:start + _CHUNK] for col in (
            log.setting_a, log.setting_b, log.outcome_a, log.outcome_b))
        code = ((sa.astype(np.int64) * 2 + sb) * 3 + (oa == 1)) * 3 + (ob == 1)
        flat += np.bincount(code, minlength=36)
    return flat.reshape(4, 3, 3)


def _frequency(counts: np.ndarray) -> np.ndarray:
    """Empirical (4, 3, 3) tables of counts: each pair's counts over its
    trials, zeros for a pair with none."""
    return counts / np.maximum(counts.sum(axis=(1, 2), keepdims=True), 1)


def run_trials(n: int, root_seed: int, setting_policy: str = "uniform_random",
               fixed_rotations: bool = False,
               measurement_path: str = "pvm") -> tuple[TrialLog, np.ndarray]:
    """Run n seeded trials and return the trial log plus its count_trials.

    measurement_path 'pvm' samples the outcome pair from the joint table of
    the -1/+1 states; 'protocol' samples a 16x16 outcome-string pair from the
    per-qubit protocol eigenbasis and classifies each side's string.  Both
    paths draw rotations and outcomes from the same per-trial seed streams.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    if measurement_path not in _MEASUREMENTS:
        raise ValueError(f"unknown measurement path {measurement_path!r}")
    kernel, labels, chunk = _MEASUREMENTS[measurement_path]
    chunk = min(chunk, _CHUNK)
    kind, fixed_pair = parse_policy(setting_policy)
    root = root_seed & ((1 << 64) - 1)
    # In fixed-rotation mode every trial measures through the one setup
    # _draw_setups draws from the root, drawn once per run.
    if fixed_rotations:
        (fixed_seeds,), (fixed_u,) = _draw_setups(np.array([root], np.uint64))

    # The log's columns, allocated once; each chunk fills its own slice.
    trial = np.arange(n, dtype=np.uint64)
    setting_a, setting_b, outcome_a, outcome_b = np.empty((4, n), np.int8)
    seed_a, seed_b = seeds = np.empty((2, n), np.uint64)
    # The kernel's buffers and both sides' draws, allocated once; no chunk
    # allocates its own.
    work = _workspace(kernel, min(chunk, n))
    drawn = np.empty(8 * min(chunk, n), complex)
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        idx = trial[sl]
        code_a, code_b = setting_a[sl], setting_b[sl]
        # All four substreams in one call, so the base seeds are mixed once.
        bits, seed_a[sl], seed_b[sl], draw = split_seed(split_seed(root, idx), _STREAMS[:, None])

        if kind == "uniform":
            code_a[:] = bits & np.uint64(1)
            code_b[:] = (bits >> np.uint64(1)) & np.uint64(1)
        elif kind == "fixed":
            code_a[:], code_b[:] = fixed_pair
        else:  # cycle through FF, FG, GF, GG by trial index
            cyc = idx % np.uint64(4)
            code_a[:], code_b[:] = cyc >> np.uint64(1), cyc & np.uint64(1)

        # The kernel takes the chunk's trials grouped by setting pair: a
        # stable sort, whose order the picked rows are scattered back by.
        order = np.argsort(2 * code_a + code_b, kind="stable")
        grouped_a, grouped_b = code_a[order], code_b[order]
        if fixed_rotations:
            # A sample_su2_batch row equals its batch of one, so gathering
            # gives the bits a fresh draw of the same seeds would.
            seed_a[sl], seed_b[sl] = fixed_seeds[code_a], fixed_seeds[2 + code_b]
            u_a, u_b = fixed_u[grouped_a], fixed_u[2 + grouped_b]
        else:
            # Both sides' rotations in one draw from the grouped seeds; each
            # seed still gives its own U.
            grouped = seeds[:, sl][:, order].ravel()
            u_a, u_b = sample_su2_batch(grouped, out=drawn[:4 * len(grouped)].reshape(2, 2, -1)
                                        ).reshape(2, -1, 2, 2)

        y_a, y_b = _amplitudes(kernel, u_a, u_b, grouped_a, grouped_b, work)
        # Gathered fixed-rotation unitaries are copies, which the next
        # chunk's gather need not hold.
        del u_a, u_b
        row_a, row_b = _pick(y_a, y_b, draw[order] >> np.uint64(11), work[0])
        outcome_a[sl][order] = labels[grouped_a, row_a]
        outcome_b[sl][order] = labels[grouped_b, row_b]

    log = TrialLog(trial, setting_a, setting_b, seed_a, seed_b, outcome_a, outcome_b)
    return log, count_trials(log)


# ---------------------------------------------------------------------------
# Audit of the element-of-reality inference chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainValues:
    """The four numbers of the inference chain, in narrative order."""

    hardy_fraction: float | None   # P(1, 1 | G, G)
    cond_ab: float | None          # P(A: F=1 | B: G=1)
    cond_ba: float | None          # P(B: F=1 | A: G=1)
    joint_ff: float | None         # P(1, 1 | F, F)


@dataclass(frozen=True)
class EprAudit:
    """Exact and (optionally) sampled values of the inference chain."""

    exact: ChainValues
    empirical: ChainValues | None
    contradiction_witnessed: bool
    note: str


def _chain(tables: np.ndarray) -> ChainValues:
    """The chain read off a (4, 3, 3) behavior.  A joint value is None when
    its table is empty (no trials), a conditional when its conditioning
    probability is at most ZERO_EVENT_TOL."""
    one = LABEL_ORDER.index(1)

    def _joint(t):
        return float(t[one, one]) if t.any() else None

    def _cond(t, given):
        return float(t[one, one] / given) if given > ZERO_EVENT_TOL else None

    ff, fg, gf, gg = tables
    return ChainValues(
        hardy_fraction=_joint(gg),
        cond_ab=_cond(fg, fg[:, one].sum()),
        cond_ba=_cond(gf, gf[one, :].sum()),
        joint_ff=_joint(ff),
    )


def epr_audit(trials: TrialLog | np.ndarray | None, exact: np.ndarray) -> EprAudit:
    """Report the inference chain of the (4, 3, 3) exact behavior: a nonzero
    both-G fraction, two perfect conditionals, and a forbidden both-F event.

    ``trials`` is a TrialLog, its (4, 3, 3) count_trials, or None for an
    exact-only audit.
    """
    chain = _chain(_check_behavior(exact))
    empirical = None
    if trials is not None:
        counts = count_trials(trials) if isinstance(trials, TrialLog) else _check_counts(trials)
        if counts.any():
            empirical = _chain(_frequency(counts))

    witnessed = (
        chain.hardy_fraction is not None and chain.hardy_fraction > CHAIN_TOL
        and chain.joint_ff is not None and chain.joint_ff <= CHAIN_TOL
        and chain.cond_ab is not None and abs(chain.cond_ab - 1.0) <= CHAIN_TOL
        and chain.cond_ba is not None and abs(chain.cond_ba - 1.0) <= CHAIN_TOL
    )
    if witnessed:
        note = (
            f"contradiction witnessed: both-G fraction {chain.hardy_fraction:.6f} > 0 "
            "while certainty propagation forbids any both-F event"
        )
    else:
        note = "no contradiction witnessed"
    return EprAudit(exact=chain, empirical=empirical,
                    contradiction_witnessed=witnessed, note=note)


def stats_report(counts: np.ndarray, exact: np.ndarray) -> dict:
    """JSON-ready summary of (4, 3, 3) counts against the exact behavior,
    keyed by setting pair: counts, frequencies, exact, deviations."""
    exact, counts = _check_behavior(exact), _check_counts(counts)
    freq = _frequency(counts)
    return {"outcome_order": list(LABEL_ORDER), "setting_pairs": {
        pair: {
            "trials": int(c.sum()),
            "counts": c.tolist(),
            "empirical": f.tolist(),
            "exact": e.tolist(),
            "abs_deviation": np.abs(f - e).tolist(),
        } for pair, c, f, e in zip(SETTING_PAIRS, counts, freq, exact)}}
