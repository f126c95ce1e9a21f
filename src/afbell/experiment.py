"""Exact computation and seeded Monte Carlo sampling of the two-observer behavior.

Alice holds qubits 1-4 of the source state and Bob holds qubits 5-8; each side
measures F or G, possibly through an independently rotated setup.  One batched
Born-rule kernel gives each side's amplitudes for its outcome rows through
every trial's own rotated setups, trials last.  The source grid has rank 2,
G = PHI^T C PHI with PHI the invariant pair and C eta's stated (phi, phi)
expansion, so each side needs its rows against two rotated 16-vectors per
trial.  With the same U on all four qubits those are degree-4 polynomials in
U^dagger's four entries: per side, one product of coefficients built at import
with each trial's 35 monomials.  The three uses differ only in their rows: the
exact path passes complete F/G bases and forms, squares and sums the full
table by label, the pvm sampling path the -1/+1 rows, and the protocol path
the 16 product eigenvectors per setting, in chunks of 2048 trials rather than
4096, since its amplitudes and the monomials grow with the chunk.  The
sampling paths draw fresh Haar rotations per trial and pick a row pair in two
stages, Alice's row by its mass and then the cell within it, so no table is
formed.  Every random quantity is a pure function of the root seed and the
trial index, so results are identical regardless of execution order or chunk
boundaries.  Each chunk writes its slice of the trial log, allocated once,
and the log is counted and checked a chunk at a time, so a run holds the
log's 28 bytes per trial plus one chunk's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .observables import PVM, build_F, build_G, local_protocol_for
from .qstate import ETA_BORN_TABLES, ETA_EXPANSION_TABLES, StateVector, _pair, build_phi, build_psi
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

# Index order of the outcome labels in every 3x3 table below.
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


class Setting(Enum):
    """One observer's choice of measurement."""

    F = "F"
    G = "G"

    def __str__(self) -> str:
        return self.value


SETTING_PAIRS = (
    (Setting.F, Setting.F),
    (Setting.F, Setting.G),
    (Setting.G, Setting.F),
    (Setting.G, Setting.G),
)


def _label_index(label: int) -> int:
    try:
        return LABEL_ORDER.index(label)
    except ValueError:
        raise ValueError(f"unknown outcome label {label}") from None


def parse_policy(policy: str) -> tuple[str, tuple[Setting, Setting] | None]:
    """Parse a setting policy: 'uniform_random'/'uniform', 'fixed:XY', or 'cycle'."""
    if policy in ("uniform", "uniform_random"):
        return "uniform", None
    if policy == "cycle":
        return "cycle", None
    if policy.startswith("fixed:"):
        pair = policy[len("fixed:"):]
        if len(pair) == 2 and all(c in "FG" for c in pair):
            return "fixed", (Setting(pair[0]), Setting(pair[1]))
    raise ValueError(
        f"bad setting policy {policy!r}; expected uniform, cycle, or fixed:XY with X,Y in FG"
    )


def _draw_setups(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, 4) rotation seeds and (m, 4, 2, 2) unitaries, in setup order, of
    the setups drawn from m uint64 seeds: each split by _SETUP_TAGS.  A setup
    has no other form; fixed-rotation run_trials reads only its seeds."""
    setup_seeds = split_seed(seeds[:, None], _SETUP_TAGS)
    return setup_seeds, sample_su2_batch(setup_seeds.ravel()).reshape(-1, 4, 2, 2)


def joint_born(state: StateVector, pvm_a: PVM, pvm_b: PVM) -> dict[tuple[int, int], float]:
    """Dense Born rule for side-by-side PVMs on an 8-qubit state's 16x16 grid G:
    P(a, b) = Re <G, Pa G Pb^T>."""
    if state.num_qubits != 8 or pvm_a.dim != 16 or pvm_b.dim != 16:
        raise ValueError("joint_born expects an 8-qubit state and 16-dim PVMs")
    grid = state.amps.reshape(16, 16)
    return {
        (la, lb): max(float(np.real(np.vdot(grid, pa @ grid @ pb.T))), 0.0)
        for la, pa in pvm_a.outcomes for lb, pb in pvm_b.outcomes
    }


@dataclass(frozen=True)
class ExactBehavior:
    """Joint probability tables P(outcome_a, outcome_b | setting_a, setting_b)."""

    tables: dict[tuple[Setting, Setting], np.ndarray]

    def __post_init__(self) -> None:
        fixed = {}
        for pair in SETTING_PAIRS:
            if pair not in self.tables:
                raise ValueError(f"no table for setting pair {pair[0]}{pair[1]}")
            t = np.asarray(self.tables[pair], dtype=float)
            if t.shape != (3, 3):
                raise ValueError("each setting pair needs a 3x3 outcome table")
            if not np.isfinite(t).all():
                raise ValueError(f"non-finite probability in table {pair}")
            if t.min() < -1e-13:
                raise ValueError(f"negative probability in table {pair}")
            if abs(t.sum() - 1.0) > 1e-12:
                raise ValueError(f"table {pair} sums to {t.sum()}, not 1")
            t = np.clip(t, 0.0, None)
            t.setflags(write=False)
            fixed[pair] = t
        object.__setattr__(self, "tables", fixed)

    def table(self, setting_a: Setting, setting_b: Setting) -> np.ndarray:
        """3x3 table indexed by LABEL_ORDER for both sides."""
        return self.tables[(setting_a, setting_b)]

    def prob(self, setting_a: Setting, setting_b: Setting,
             outcome_a: int, outcome_b: int) -> float:
        return float(
            self.table(setting_a, setting_b)[_label_index(outcome_a), _label_index(outcome_b)]
        )

    def to_json_dict(self) -> dict:
        return {
            "outcome_order": list(LABEL_ORDER),
            "tables": {
                f"{sa.value}{sb.value}": self.table(sa, sb).tolist()
                for sa, sb in SETTING_PAIRS
            },
        }


# The exact tables that report and sample print: each cell the float of its
# Fraction in qstate.ETA_BORN_TABLES (F reads phi, G reads psi), the 0 row and
# column exactly 0.  verify checks the kernel's tables against it.
_BASIS = {Setting.F: "phi", Setting.G: "psi"}
EXACT_BEHAVIOR = ExactBehavior({
    (sa, sb): np.pad(ETA_BORN_TABLES[(_BASIS[sa], _BASIS[sb])].astype(float), (0, 1))
    for sa, sb in SETTING_PAIRS})


def exact_behavior(seed: int | None = None) -> ExactBehavior:
    """All four setting pairs' joint outcome tables on the source state.

    Each side measures each setting through the identity setup or, with
    ``seed``, through the setup _draw_setups draws from seed mod 2^64; the
    tables are provably independent of the choice.  The 0 cells are Born
    masses on the 0 rows, not differences.
    """
    u = (np.broadcast_to(np.eye(2, dtype=complex), (1, 4, 2, 2)) if seed is None
         else _draw_setups(np.array([seed % 2**64], np.uint64))[1])
    return ExactBehavior(dict(zip(SETTING_PAIRS, _setup_tables(u)[0])))


def _setup_tables(u: np.ndarray) -> np.ndarray:
    """(m, 4, 3, 3) outcome tables of m setups, by SETTING_PAIRS, from their
    (m, 4, 2, 2) unitaries in setup order (Alice F, Alice G, Bob F, Bob G):
    one kernel call on the complete F/G bases over all 4m
    (setup, setting pair) trials, each 16x16 table summed by label."""
    m = len(u)
    fine = _born_tables(_EXACT_KERNEL, u[:, [0, 0, 1, 1]].reshape(-1, 2, 2),
                        u[:, [2, 3, 2, 3]].reshape(-1, 2, 2),
                        np.tile([0, 0, 1, 1], m), np.tile([0, 1, 0, 1], m))
    return (_LABEL_ONE_HOT.T @ np.moveaxis(fine, -1, 0) @ _LABEL_ONE_HOT).reshape(m, 4, 3, 3)


def _complete_basis(pvm: PVM, minus: StateVector, plus: StateVector) -> np.ndarray:
    """Rows minus, plus, then the 0 projector's columns orthonormalized against
    the rows so far (Gram-Schmidt run twice); columns in their span drop out."""
    rows = [minus.amps, plus.amps]
    for col in pvm.projector(0).T:
        for _ in range(2):
            basis = np.array(rows)
            col = col - basis.T @ (basis.conj() @ col)
        norm = np.linalg.norm(col)
        if norm > 1e-6:
            rows.append(col / norm)
    return np.array(rows)


# Conjugated complete F/G bases, their row labels and the labels' one-hot.
_PVM_BASES = np.array([
    _complete_basis(build_F(), build_phi(0), build_phi(1)),
    _complete_basis(build_G(), build_psi(0), build_psi(1)),
]).conj()
_PVM_LABELS = np.array([[-1, +1] + [0] * 14] * 2, dtype=np.int8)
_LABEL_ONE_HOT = (_PVM_LABELS[0][:, None] == np.array(LABEL_ORDER)).astype(float)

# The source grid has rank 2: G = PHI^T C PHI, row p of _PHI the invariant
# state phi_p and C eta's stated (phi, phi) expansion; _C_PHI is C PHI, the
# pair Bob's side rotates.
_PHI = _pair("phi")
_C_PHI = ETA_EXPANSION_TABLES[("phi", "phi")] @ _PHI

def _kernel(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's (2k*2, 35) coefficient matrices for conjugated rows
    (2, k, 16) by setting.

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
        return (rows.reshape(-1, 16) @ by_monomial.reshape(16, 70)).reshape(-1, 35)

    return side(_PHI), side(_C_PHI)


def _amplitudes(kernel: tuple[np.ndarray, np.ndarray], u_a: np.ndarray, u_b: np.ndarray,
                code_a: np.ndarray, code_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's (k, 2, n) amplitudes y[r, p], trials last, through
    every trial's own setups: per side one (2k*2 x 35) (35 x n) product of
    the kernel's coefficients with the trials' monomials, then one np.where
    keeps each trial's setting.

    With R = U (x) U (x) U (x) U, row pair (v, w) has amplitude
    conj(R_a v)^T G conj(R_b w), and G = PHI^T (C PHI) has rank 2, so that is
    sum_p y_a[v, p] y_b[w, p].  The phi_p are rotation invariant; the
    rotation is applied all the same, because the sampled tables are the
    Monte Carlo test of that invariance.
    """
    def side(coef, u, code):
        y = coef @ _monomials(np.ascontiguousarray(u.conj().swapaxes(-1, -2).reshape(-1, 4).T))
        y = y.reshape(2, -1, 2, len(code))
        return np.where(code == 0, y[0], y[1])

    return side(kernel[0], u_a, code_a), side(kernel[1], u_b, code_b)


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
    _pick and never form this table, so the amplitudes and the monomials, not
    a (k, k, n) array, set what a chunk holds."""
    y_a, y_b = _amplitudes(kernel, u_a, u_b, code_a, code_b)
    p = np.abs(np.einsum("ipn,jpn->ijn", y_a, y_b))
    p **= 2
    p /= _born_close(p.sum(axis=(0, 1)))
    return p


def _pick(y_a: np.ndarray, y_b: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    """
    u = (bits.astype(np.float64) + 1.0) * (2.0**-53)
    trial = np.arange(len(u))
    a0, a1 = y_a[:, 0], y_a[:, 1]
    b0, b1 = y_b[:, 0], y_b[:, 1]
    m00, m11 = (np.abs(b0) ** 2).sum(axis=0), (np.abs(b1) ** 2).sum(axis=0)
    m01 = (b0 * b1.conj()).sum(axis=0)
    # A zero row's quadratic form can round below 0; the running sum must not.
    cum = np.maximum(np.abs(a0) ** 2 * m00 + np.abs(a1) ** 2 * m11
                     + 2.0 * (a0 * a1.conj() * m01).real, 0.0)
    # Row by row over all trials at once; np.cumsum along axis 0 walks each
    # trial's column at a large stride.
    for a in range(1, len(cum)):
        cum[a] += cum[a - 1]
    target = u * _born_close(cum[-1])
    row = (cum < target).sum(axis=0)
    cells = np.abs(b0 * a0[row, trial] + b1 * a1[row, trial])
    cells **= 2
    cells[0] += np.where(row > 0, cum[row - 1, trial], 0.0)
    for b in range(1, len(cells)):
        cells[b] += cells[b - 1]
    return row, (cells < np.minimum(target, cells[-1])).sum(axis=0)


# Per measurement path: the kernel of its conjugated outcome rows, their
# labels by (setting, row), and the trials per chunk.  The pvm path keeps the
# -1/+1 rows, so its mass check catches any 0 mass.  The (35, n) monomials
# set the pvm path's chunk peak; on the protocol path each side's
# (2, 16, 2, n) amplitudes grow with the chunk too, and at 2048 trials its
# peak is about the pvm path's at 4096.
_EXACT_KERNEL = _kernel(_PVM_BASES)
_MEASUREMENTS = {
    "pvm": (_kernel(_PVM_BASES[:, :2]), _PVM_LABELS[:, :2], _CHUNK),
    "protocol": (_kernel(np.array([local_protocol_for(s).eigenvectors for s in ("F", "G")]).conj()),
                 np.array([local_protocol_for(s).labels for s in ("F", "G")]), 2048),
}
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
        rows = np.tile(_CSV_ROW, (min(len(self), _CHUNK), 1))
        keep = np.ones(rows.shape, bool)
        with open(path, "wb") as f:
            f.write((head + self.CSV_HEADER + "\n").encode())
            for start in range(0, len(self), _CHUNK):
                f.write(_csv_rows(rows, keep, *(col[start:start + _CHUNK] for col in cols)))


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


def _csv_rows(rows: np.ndarray, keep: np.ndarray, trial, setting_a, setting_b,
              seed_a, seed_b, outcome_a, outcome_b) -> np.ndarray:
    """The CSV bytes of up to len(rows) trials, as one uint8 array.

    ``rows`` (n, 73) holds _CSV_ROW in every row and ``keep`` (n, 73) is
    True wherever this function does not write, so their fixed bytes are set
    once per file.  Each number is split into five base-10^4 groups by
    uint64 division and looked up in _DIGIT_GROUPS; its keep flags drop the
    leading zeros.  A setting letter is 'F' + code, and an outcome's '-' is
    kept only for -1.
    """
    m = len(trial)
    rows, keep = rows[:m], keep[:m]
    groups = np.empty((m, 5), np.uint64)
    for first, number in zip(_CSV_NUMBERS, (trial, seed_a, seed_b)):
        x = number
        for g in range(4, 0, -1):
            rest = x // np.uint64(10**4)
            np.subtract(x, rest * np.uint64(10**4), out=groups[:, g])
            x = rest
        groups[:, 0] = x
        rows[:, first:first + 20] = _DIGIT_GROUPS[groups].view(np.uint8)
        digits = np.searchsorted(_POWERS_OF_TEN, number, "right")
        keep[:, first:first + 20] = _KEEP_DIGITS[digits].view(bool)
    for col, setting in zip(_CSV_SETTINGS, (setting_a, setting_b)):
        rows[:, col] = setting + ord("F")
    for col, outcome in zip(_CSV_SIGNS, (outcome_a, outcome_b)):
        np.less(outcome, 0, out=keep[:, col])
    return rows.ravel()[keep.ravel()]


class JointStats:
    """Outcome-pair counts per setting pair; merging is commutative and associative."""

    def __init__(self) -> None:
        self.counts = {pair: np.zeros((3, 3), dtype=np.int64) for pair in SETTING_PAIRS}

    @classmethod
    def from_records(cls, log: TrialLog) -> "JointStats":
        """Counts of every trial in a log."""
        flat = np.zeros(36, np.int64)
        # _CHUNK trials at a time, so no temporary grows with the log.
        for start in range(0, len(log), _CHUNK):
            sa, sb, oa, ob = (col[start:start + _CHUNK] for col in (
                log.setting_a, log.setting_b, log.outcome_a, log.outcome_b))
            code = ((sa.astype(np.int64) * 2 + sb) * 3 + (oa == 1)) * 3 + (ob == 1)
            flat += np.bincount(code, minlength=36)
        stats = cls()
        for k, pair in enumerate(SETTING_PAIRS):
            stats.counts[pair] = flat[k * 9:(k + 1) * 9].reshape(3, 3)
        return stats

    def total(self, setting_a: Setting, setting_b: Setting) -> int:
        return int(self.counts[(setting_a, setting_b)].sum())

    def count(self, setting_a: Setting, setting_b: Setting,
              outcome_a: int, outcome_b: int) -> int:
        return int(self.counts[(setting_a, setting_b)][_label_index(outcome_a),
                                                       _label_index(outcome_b)])

    def frequency(self, setting_a: Setting, setting_b: Setting) -> np.ndarray:
        """Empirical 3x3 probability table (zeros when the pair has no trials)."""
        c = self.counts[(setting_a, setting_b)]
        n = c.sum()
        return c / n if n else np.zeros((3, 3))

    def merge(self, other: "JointStats") -> "JointStats":
        merged = JointStats()
        for pair in SETTING_PAIRS:
            merged.counts[pair] = self.counts[pair] + other.counts[pair]
        return merged


def run_trials(n: int, root_seed: int, setting_policy: str = "uniform_random",
               fixed_rotations: bool = False,
               measurement_path: str = "pvm") -> tuple[TrialLog, JointStats]:
    """Run n seeded trials and return the trial log plus aggregated counts.

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
    # In fixed-rotation mode every trial's rotation seeds are the four seeds
    # of the setup _draw_setups draws from the root.
    fixed_seeds = split_seed(root, _SETUP_TAGS) if fixed_rotations else None

    # The log's columns, allocated once; each chunk fills its own slice.
    trial = np.arange(n, dtype=np.uint64)
    setting_a, setting_b, outcome_a, outcome_b = np.empty((4, n), np.int8)
    seed_a, seed_b = seeds = np.empty((2, n), np.uint64)
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
            code_a[:] = 0 if fixed_pair[0] is Setting.F else 1
            code_b[:] = 0 if fixed_pair[1] is Setting.F else 1
        else:  # cycle through FF, FG, GF, GG by trial index
            cyc = idx % np.uint64(4)
            code_a[:], code_b[:] = cyc >> np.uint64(1), cyc & np.uint64(1)

        if fixed_seeds is not None:
            seed_a[sl] = np.where(code_a == 0, *fixed_seeds[:2])
            seed_b[sl] = np.where(code_b == 0, *fixed_seeds[2:])
        # Both sides' rotations in one draw; each seed still gives its own U.
        u_a, u_b = sample_su2_batch(seeds[:, sl].ravel()).reshape(2, -1, 2, 2)

        # No amplitude outlives its chunk, so the kernel's peak is the loop's peak.
        row_a, row_b = _pick(*_amplitudes(kernel, u_a, u_b, code_a, code_b),
                             draw >> np.uint64(11))
        outcome_a[sl] = labels[code_a, row_a]
        outcome_b[sl] = labels[code_b, row_b]

    log = TrialLog(trial, setting_a, setting_b, seed_a, seed_b, outcome_a, outcome_b)
    return log, JointStats.from_records(log)


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


def _chain(tables: dict[tuple[Setting, Setting], np.ndarray]) -> ChainValues:
    """The chain read off 3x3 probability tables by setting pair.  A joint
    value is None when its table is empty (no trials), a conditional when its
    conditioning probability is at most ZERO_EVENT_TOL."""
    one = _label_index(1)

    def _joint(t):
        return float(t[one, one]) if t.any() else None

    def _cond(t, given):
        return float(t[one, one] / given) if given > ZERO_EVENT_TOL else None

    fg, gf = tables[(Setting.F, Setting.G)], tables[(Setting.G, Setting.F)]
    return ChainValues(
        hardy_fraction=_joint(tables[(Setting.G, Setting.G)]),
        cond_ab=_cond(fg, fg[:, one].sum()),
        cond_ba=_cond(gf, gf[one, :].sum()),
        joint_ff=_joint(tables[(Setting.F, Setting.F)]),
    )


def epr_audit(trials: TrialLog | None, exact: ExactBehavior) -> EprAudit:
    """Report the inference chain: a nonzero both-G fraction, two perfect
    conditionals, and a forbidden both-F event.

    ``trials`` is a TrialLog, or None for an exact-only audit.
    """
    chain = _chain(exact.tables)
    empirical = None
    if trials is not None and len(trials):
        stats = JointStats.from_records(trials)
        empirical = _chain({pair: stats.frequency(*pair) for pair in SETTING_PAIRS})

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


def stats_report(stats: JointStats, exact: ExactBehavior) -> dict:
    """JSON-ready summary keyed by setting pair: counts, frequencies, exact, deviations."""
    report: dict = {"outcome_order": list(LABEL_ORDER), "setting_pairs": {}}
    for sa, sb in SETTING_PAIRS:
        freq = stats.frequency(sa, sb)
        exact_t = exact.table(sa, sb)
        report["setting_pairs"][f"{sa.value}{sb.value}"] = {
            "trials": stats.total(sa, sb),
            "counts": stats.counts[(sa, sb)].tolist(),
            "empirical": freq.tolist(),
            "exact": exact_t.tolist(),
            "abs_deviation": np.abs(freq - exact_t).tolist(),
        }
    return report
