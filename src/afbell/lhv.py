"""Exact-rational audit of local deterministic models against the observed behavior.

A local hidden-variable model is a probability distribution over deterministic
strategies, each assigning one outcome to every (side, setting) pair in
advance.  This module decides, in exact rational arithmetic with no floating
point anywhere, whether any such distribution gives a list of events their
exact probabilities, and emits a machine-checkable certificate either way.

Each constraint states its event's membership over the 81 strategies once,
when it is built; the solver, the verifier and the JSON export read that
membership and never call the event again.  The decision is one linear
program over the strategy space: a column per distinct membership pattern, a
row per constraint plus normalization, solved by a phase-1 simplex with
Bland's rule on an integer tableau.  Each row is kept as a primitive integer
multiple of the rational row, and the cost row as integers over one positive
denominator; Bland's rule reads only signs and in-row ratios, which a
positive multiple leaves alone, so every pivot is the rational tableau's.
A feasible answer carries the basic solution as a witness distribution.  An
infeasible answer carries the phase-1 dual as a Farkas vector: one weight per
constraint and one for normalization, turning the constraints into an
inequality every strategy satisfies and the constraint values violate.  For
the quantum constraints it is Hardy's argument (Hardy, PRL 71, 1665, 1993):
P(both G=1) <= P(both F=1) + P(G_B=1, F_A!=1) + P(G_A=1, F_B!=1), with
``HARDY_VALUE`` on the left and 0 on the right.  ``verify_certificate``
checks either verdict over all 81 strategies without calling the solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .qstate import ETA_BORN_TABLES

OUTCOME_VALUES = (-1, 0, 1)

# The exact quantum tables by setting pair in FF, FG, GF, GG order, rows
# Alice's outcome and columns Bob's, index 0 for -1 and 1 for +1: F
# discriminates the phi pair and G the psi pair.
_FF, _FG, _GF, _GG = ETA_BORN_TABLES

HARDY_VALUE = _GG[1, 1]


class Strategy(NamedTuple):
    """Deterministic local assignments: one outcome per (side, setting)."""

    f_a: int
    g_a: int
    f_b: int
    g_b: int


_STRATEGIES = tuple(Strategy(*t) for t in itertools.product(OUTCOME_VALUES, repeat=4))
_INDEX = {s: k for k, s in enumerate(_STRATEGIES)}


def all_strategies() -> tuple[Strategy, ...]:
    """The 81 strategies over OUTCOME_VALUES, in lexicographic enumeration order."""
    return _STRATEGIES


@dataclass(frozen=True)
class Constraint:
    """The exact probability an event over strategies must have.

    ``members`` is the event's membership, one bool per strategy in
    ``all_strategies()`` order, stated once when the constraint is built.
    """

    name: str
    value: Fraction
    event: Callable[[Strategy], bool]
    description: str = ""
    members: tuple[bool, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        value = Fraction(self.value)
        if not 0 <= value <= 1:
            raise ValueError(f"constraint value {value} outside [0, 1]")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "members", tuple(bool(self.event(s)) for s in _STRATEGIES))

    def event_set(self) -> frozenset[Strategy]:
        return frozenset(itertools.compress(_STRATEGIES, self.members))


def quantum_constraints() -> list[Constraint]:
    """The constraints the quantum behavior imposes on any local model; each
    value is a cell of the exact Born tables (the 0 mass is 1 - sum FF)."""
    return [
        Constraint(
            name="ff_zero",
            value=_FF[1, 1],
            event=lambda s: s.f_a == 1 and s.f_b == 1,
            description="both sides never obtain F=1 together",
        ),
        Constraint(
            name="gb_implies_fa",
            value=_FG[0, 1],
            event=lambda s: s.g_b == 1 and s.f_a != 1,
            description="Bob obtaining G=1 makes Alice's F=1 certain",
        ),
        Constraint(
            name="ga_implies_fb",
            value=_GF[1, 0],
            event=lambda s: s.g_a == 1 and s.f_b != 1,
            description="Alice obtaining G=1 makes Bob's F=1 certain",
        ),
        Constraint(
            name="gg_hardy",
            value=HARDY_VALUE,
            event=lambda s: s.g_a == 1 and s.g_b == 1,
            description=f"both sides obtain G=1 in exactly {HARDY_VALUE} of the runs",
        ),
        Constraint(
            name="no_zero_outcome",
            value=1 - _FF.sum(),
            event=lambda s: 0 in s,
            description="the third outcome never occurs on either side",
        ),
    ]


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Outcome of a feasibility decision, carrying its own evidence.

    ``farkas`` holds one weight per constraint followed by one for
    normalization; see ``verify_certificate`` for what makes it a proof.
    """

    feasible: bool
    witness: tuple[tuple[Strategy, Fraction], ...] | None = None
    farkas: tuple[Fraction, ...] | None = None


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries: the same equation, smaller."""
    g = math.gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _phase_one(matrix: list[list[int]], rhs: list[Fraction]
               ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Phase-1 simplex with Bland's rule on ``matrix x = rhs, x >= 0`` (rhs >= 0),
    for an integer matrix.

    Returns ``(x, None)`` with a basic solution x when the system is feasible,
    else ``(None, y)`` with the phase-1 dual y_i = 1 - the reduced cost of
    artificial i.  Each tableau row is a primitive integer multiple of the
    rational tableau's row, whose basic entry is 1, and the cost row is
    ``cost`` over ``denom`` > 0.  A pivot on entry p > 0 of row P keeps P and
    replaces every other row R with entry f by p R - f P, a positive multiple
    of the rational update.
    """
    rows, cols = len(matrix), len(matrix[0])
    tableau = []
    for r, (row, b) in enumerate(zip(matrix, rhs)):
        # Row r times b's denominator: the artificial's 1 becomes d.
        d = b.denominator
        tableau.append([d * a for a in row] + [d if k == r else 0 for k in range(rows)]
                       + [b.numerator])
    basis = list(range(cols, cols + rows))
    # Phase-1 objective row: reduced costs of minimizing the sum of artificials.
    total = sum(rhs)
    denom = total.denominator
    cost = [-denom * sum(col) for col in zip(*matrix)] + [0] * rows + [-total.numerator]
    while True:
        enter = next((j for j in range(cols + rows) if cost[j] < 0), None)
        if enter is None:
            break
        # The least ratio rhs/entry over rows with a positive entry, ties to
        # the least basic index; compared across rows by cross-multiplying.
        leave = None
        for r, row in enumerate(tableau):
            a = row[enter]
            if a > 0 and (leave is None or row[-1] * den < num * a
                          or row[-1] * den == num * a and basis[r] < basis[leave]):
                leave, num, den = r, row[-1], a
        pivot = tableau[leave]
        p = pivot[enter]
        for r, row in enumerate(tableau):
            f = row[enter]
            if f and r != leave:
                tableau[r] = _primitive([p * a - f * b if b else p * a
                                         for a, b in zip(row, pivot)])
        f = cost[enter]
        cost = _primitive([p * a - f * b if b else p * a for a, b in zip(cost, pivot)]
                          + [p * denom])
        denom = cost.pop()
        basis[leave] = enter
    if cost[-1] != 0:
        return None, [1 - Fraction(cost[cols + r], denom) for r in range(rows)]
    solution = [Fraction(0)] * cols
    for row, j in zip(tableau, basis):
        if j < cols:
            solution[j] = Fraction(row[-1], row[j])
    return solution, None


def _patterns(constraints: list[Constraint]) -> dict[tuple[bool, ...], Strategy]:
    """Each distinct membership pattern over the constraints, in order of
    first appearance, with the first strategy that has it."""
    patterns: dict[tuple[bool, ...], Strategy] = {}
    for *pattern, s in zip(*(c.members for c in constraints), _STRATEGIES):
        patterns.setdefault(tuple(pattern), s)
    return patterns


def check_feasibility(constraints: list[Constraint]) -> FeasibilityCertificate:
    """Exact decision: can a distribution over the 81 strategies meet every constraint?

    One linear program in exact rationals: a column per distinct
    membership pattern (its first strategy stands for the rest), a row per
    constraint plus normalization.
    """
    patterns = _patterns(constraints)
    matrix = [list(row) for row in zip(*patterns)]
    matrix.append([1] * len(patterns))
    rhs = [c.value for c in constraints] + [Fraction(1)]

    solution, dual = _phase_one(matrix, rhs)
    if dual is not None:
        return FeasibilityCertificate(feasible=False, farkas=tuple(dual))
    witness = tuple(sorted((s, m) for s, m in zip(patterns.values(), solution) if m > 0))
    return FeasibilityCertificate(feasible=True, witness=witness)


def max_hardy_fraction(other_constraints: list[Constraint]) -> Fraction:
    """Largest P(g_a=1 and g_b=1) any local model allows under the constraints.

    Supports probability-zero constraints (the audit's class); all mass may
    be piled on a single surviving strategy, so the maximum is 1 if any
    survivor lies in the event and 0 otherwise.
    """
    if any(c.value != 0 for c in other_constraints):
        raise ValueError("max_hardy_fraction handles probability-zero constraints only")
    hardy = any(s.g_a == 1 and s.g_b == 1 and not any(hits)
                for s, *hits in zip(_STRATEGIES, *(c.members for c in other_constraints)))
    return Fraction(1) if hardy else Fraction(0)


def verify_certificate(c: FeasibilityCertificate, constraints: list[Constraint]) -> bool:
    """Independently re-check a certificate with exact arithmetic.

    A witness must be a distribution over the 81 strategies giving every
    event its value.  A Farkas vector y (weights y_i per constraint, y_norm for
    normalization) proves infeasibility when every strategy s has
    sum_i y_i [s in E_i] + y_norm <= 0 and sum_i y_i value_i + y_norm > 0:
    averaging the first inequality over any model satisfying the constraints
    would give the opposite of the last.  The first holds for every strategy
    once it holds for one strategy of each distinct membership pattern.  No
    solver is consulted.
    """
    if not isinstance(c, FeasibilityCertificate):
        raise TypeError("not a FeasibilityCertificate")

    if c.feasible:
        if c.witness is None:
            raise ValueError("malformed certificate: feasible but no witness")
        masses = dict(c.witness)
        if any(not isinstance(m, Fraction) for m in masses.values()):
            raise ValueError("malformed certificate: witness masses must be Fractions")
        # A strategy listed twice would keep only its last mass here.
        if len(masses) != len(c.witness) or any(s not in _INDEX for s in masses):
            return False
        if any(m < 0 for m in masses.values()) or sum(masses.values()) != 1:
            return False
        index = [_INDEX[s] for s in masses]
        for constraint in constraints:
            p = sum((m for k, m in zip(index, masses.values()) if constraint.members[k]),
                    Fraction(0))
            if p != constraint.value:
                return False
        return True

    if not c.farkas:
        raise ValueError("malformed certificate: infeasible but no Farkas vector")
    if any(not isinstance(w, Fraction) for w in c.farkas):
        raise ValueError("malformed certificate: Farkas weights must be Fractions")
    if len(c.farkas) != len(constraints) + 1:
        return False
    *weights, y_norm = c.farkas
    for pattern in _patterns(constraints):
        if sum(w for w, hit in zip(weights, pattern) if hit) + y_norm > 0:
            return False
    return sum(w * con.value for w, con in zip(weights, constraints)) + y_norm > 0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def constraints_to_json_dict(constraints: list[Constraint]) -> list[dict]:
    """Constraints, all of kind "equals", with their satisfying-strategy lists."""
    return [
        {
            "index": i,
            "name": c.name,
            "kind": "equals",
            "value": str(c.value),
            "description": c.description,
            "event": sorted([list(s) for s in c.event_set()]),
        }
        for i, c in enumerate(constraints)
    ]


def certificate_to_json_dict(c: FeasibilityCertificate,
                             constraints: list[Constraint]) -> dict:
    """Certificate plus constraint table, ready for json.dump."""
    out: dict = {
        "feasible": c.feasible,
        "outcome_values": list(OUTCOME_VALUES),
        "constraints": constraints_to_json_dict(constraints),
    }
    if c.witness is not None:
        out["witness"] = [
            {"strategy": list(s), "probability": str(m)} for s, m in c.witness
        ]
    if c.farkas is not None:
        names = [con.name for con in constraints] + ["normalization"]
        out["farkas"] = [
            {"constraint": name, "weight": str(w)} for name, w in zip(names, c.farkas)
        ]
    return out


def render_certificate(c: FeasibilityCertificate, constraints: list[Constraint]) -> str:
    """Plain-text rendering of the witness, or of the Farkas vector as a 3-step proof."""
    if c.feasible:
        lines = ["FEASIBLE: a local model reproduces the constraints"]
        for s, m in c.witness or ():
            lines.append(f"  P(f_a={s.f_a:+d}, g_a={s.g_a:+d}, f_b={s.f_b:+d}, g_b={s.g_b:+d}) = {m}")
        return "\n".join(lines)

    *weights, y_norm = c.farkas
    # Positive weights on the left, negative on the right: each step reads "left <= right".
    left = [(w, con) for w, con in zip(weights, constraints) if w > 0]
    right = [(-w, con) for w, con in zip(weights, constraints) if w < 0]
    sides = ((left, max(y_norm, 0)), (right, max(-y_norm, 0)))

    def inequality(symbol: str) -> str:
        texts = []
        for terms, constant in sides:
            parts = [(symbol if w == 1 else f"{w}*{symbol}").format(con.name) for w, con in terms]
            texts.append(" + ".join(parts + ([str(constant)] if constant else [])) or "0")
        return " <= ".join(texts)

    lhs, rhs = (sum((w * con.value for w, con in terms), constant) for terms, constant in sides)
    n = len(all_strategies())
    return "\n".join([
        "INFEASIBLE: no local model satisfies the constraints",
        f"  step 1 every strategy s satisfies {inequality('[s in {}]')}"
        f" (checked on all {n} strategies)",
        f"  step 2 hence every distribution satisfies {inequality('P({})')}",
        f"  step 3 the constraints make the left side = {lhs} and the right side"
        f" = {rhs}, but {lhs} > {rhs}: no local model exists",
    ])
