"""Exact-rational audit of local deterministic models against the observed behavior.

A local hidden-variable model is a probability distribution over deterministic
strategies, each assigning one outcome to every (side, setting) pair in
advance.  This module decides, in exact rational arithmetic with no floating
point anywhere, whether any such distribution gives a list of events their
exact probabilities, and emits a machine-checkable certificate either way.

The decision is one linear program over the strategy space: a column per
distinct event-membership pattern, a row per constraint plus normalization,
solved by a phase-1 simplex with Bland's rule.  A feasible answer carries the
basic solution as a witness distribution.  An infeasible answer carries the
phase-1 dual as a Farkas vector: one weight per constraint and one for
normalization, turning the constraints into an inequality every strategy
satisfies and the constraint values violate.  For the quantum constraints it
is Hardy's argument (Hardy, PRL 71, 1665, 1993): P(both G=1) <= P(both F=1)
+ P(G_B=1, F_A!=1) + P(G_A=1, F_B!=1), with ``HARDY_VALUE`` on the left and 0
on the right.  ``verify_certificate`` checks either verdict over all 81
strategies without calling the solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .qstate import ETA_BORN_TABLES

OUTCOME_VALUES = (-1, 0, 1)

# The exact quantum tables, rows Alice's outcome and columns Bob's, index 0
# for -1 and 1 for +1: F discriminates the phi pair and G the psi pair.
_FF, _FG, _GF, _GG = (ETA_BORN_TABLES[k] for k in (
    ("phi", "phi"), ("phi", "psi"), ("psi", "phi"), ("psi", "psi")))

HARDY_VALUE = _GG[1, 1]


class Strategy(NamedTuple):
    """Deterministic local assignments: one outcome per (side, setting)."""

    f_a: int
    g_a: int
    f_b: int
    g_b: int


def all_strategies() -> tuple[Strategy, ...]:
    """The 81 strategies over OUTCOME_VALUES, in lexicographic enumeration order."""
    return tuple(Strategy(*t) for t in itertools.product(OUTCOME_VALUES, repeat=4))


@dataclass(frozen=True)
class Constraint:
    """The exact probability an event over strategies must have."""

    name: str
    value: Fraction
    event: Callable[[Strategy], bool]
    description: str = ""

    def __post_init__(self) -> None:
        value = Fraction(self.value)
        if not 0 <= value <= 1:
            raise ValueError(f"constraint value {value} outside [0, 1]")
        object.__setattr__(self, "value", value)

    def event_set(self) -> frozenset[Strategy]:
        return frozenset(s for s in all_strategies() if self.event(s))


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


def _phase_one(matrix: list[list[Fraction]], rhs: list[Fraction]
               ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Phase-1 simplex with Bland's rule on ``matrix x = rhs, x >= 0`` (rhs >= 0).

    Returns ``(x, None)`` with a basic solution x when the system is feasible,
    else ``(None, y)`` with the phase-1 dual y_i = 1 - the reduced cost of
    artificial i.
    """
    rows, cols = len(matrix), len(matrix[0])
    one, zero = Fraction(1), Fraction(0)
    tableau = [matrix[r] + [one if k == r else zero for k in range(rows)] + [rhs[r]]
               for r in range(rows)]
    basis = list(range(cols, cols + rows))
    # Phase-1 objective row: reduced costs of minimizing the sum of artificials.
    cost = [-sum(row[j] for row in tableau) for j in range(cols)] + [zero] * rows
    cost.append(-sum(rhs))
    while True:
        enter = next((j for j in range(cols + rows) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [(row[-1] / row[enter], basis[r], r)
                  for r, row in enumerate(tableau) if row[enter] > 0]
        _, _, leave = min(ratios)
        pivot = tableau[leave]
        pivot[:] = [v / pivot[enter] for v in pivot]
        for row in tableau + [cost]:
            if row is not pivot and row[enter] != 0:
                f = row[enter]
                row[:] = [a - f * b if b else a for a, b in zip(row, pivot)]
        basis[leave] = enter
    if cost[-1] != 0:
        return None, [1 - cost[cols + r] for r in range(rows)]
    solution = [zero] * cols
    for r, j in enumerate(basis):
        if j < cols:
            solution[j] = tableau[r][-1]
    return solution, None


def check_feasibility(constraints: list[Constraint]) -> FeasibilityCertificate:
    """Exact decision: can a distribution over the 81 strategies meet every constraint?

    One linear program in exact rationals: a column per distinct
    event-membership pattern (its first strategy stands for the rest), a row
    per constraint plus normalization.
    """
    patterns: dict[tuple[bool, ...], Strategy] = {}
    for s in all_strategies():
        patterns.setdefault(tuple(c.event(s) for c in constraints), s)
    reps = list(patterns.items())
    matrix = [[Fraction(int(p[i])) for p, _ in reps] for i in range(len(constraints))]
    matrix.append([Fraction(1)] * len(reps))
    rhs = [c.value for c in constraints] + [Fraction(1)]

    solution, dual = _phase_one(matrix, rhs)
    if dual is not None:
        return FeasibilityCertificate(feasible=False, farkas=tuple(dual))
    witness = tuple(sorted((s, m) for (_, s), m in zip(reps, solution) if m > 0))
    return FeasibilityCertificate(feasible=True, witness=witness)


def max_hardy_fraction(other_constraints: list[Constraint]) -> Fraction:
    """Largest P(g_a=1 and g_b=1) any local model allows under the constraints.

    Supports probability-zero constraints (the audit's class); all mass may
    be piled on a single surviving strategy, so the maximum is 1 if any
    survivor lies in the event and 0 otherwise.
    """
    if any(c.value != 0 for c in other_constraints):
        raise ValueError("max_hardy_fraction handles probability-zero constraints only")
    survivors = [s for s in all_strategies()
                 if not any(c.event(s) for c in other_constraints)]
    hardy = any(s.g_a == 1 and s.g_b == 1 for s in survivors)
    return Fraction(1) if hardy else Fraction(0)


def verify_certificate(c: FeasibilityCertificate, constraints: list[Constraint]) -> bool:
    """Independently re-check a certificate with exact arithmetic.

    A witness must be a distribution over the 81 strategies giving every
    event its value.  A Farkas vector y (weights y_i per constraint, y_norm for
    normalization) proves infeasibility when every strategy s has
    sum_i y_i [s in E_i] + y_norm <= 0 and sum_i y_i value_i + y_norm > 0:
    averaging the first inequality over any model satisfying the constraints
    would give the opposite of the last.  No solver is consulted.
    """
    if not isinstance(c, FeasibilityCertificate):
        raise TypeError("not a FeasibilityCertificate")
    space = all_strategies()

    if c.feasible:
        if c.witness is None:
            raise ValueError("malformed certificate: feasible but no witness")
        masses = dict(c.witness)
        if any(not isinstance(m, Fraction) for m in masses.values()):
            raise ValueError("malformed certificate: witness masses must be Fractions")
        # A strategy listed twice would keep only its last mass here.
        if len(masses) != len(c.witness) or any(s not in space for s in masses):
            return False
        if any(m < 0 for m in masses.values()) or sum(masses.values()) != 1:
            return False
        for constraint in constraints:
            p = sum((m for s, m in masses.items() if constraint.event(s)), Fraction(0))
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
    for s in space:
        if sum(w for w, con in zip(weights, constraints) if con.event(s)) + y_norm > 0:
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
