"""Command line: exact verification suite, Monte Carlo runs, LHV audit, reports.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, lhv
from .experiment import (
    EXACT_BEHAVIOR,
    LABEL_ORDER,
    MEASUREMENT_PATHS,
    SETTING_PAIRS,
    epr_audit,
    parse_policy,
    run_trials,
    stats_report,
    _C_PHI,
    _PHI,
    _draw_setups,
    _setup_tables,
)
from .observables import PROTOCOL_INTEGER_ROWS, PROTOCOL_LABELS
from .qstate import INTEGER_KETS, PAIRS, _NORMS
from .rotations import fourfold, sample_su2_batch, split_seed

ENV_OUTPUT_DIR = "AFBELL_OUT"

_SUFFIX = {"json": "json", "csv": "csv", "text": "txt"}

# Draws per randomized verify check: rotations, rotation pairs; seeded setups
# for rotation-robustness.
INVARIANCE_SAMPLES = 100
ROBUSTNESS_SAMPLES = 20

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated options for one CLI invocation; its defaults are the CLI's."""

    command: str
    trials: int = 1_000_000
    root_seed: int = 0
    setting_policy: str = "uniform_random"
    fixed_rotations: bool = False
    measurement_path: str = "pvm"
    output_dir: Path | None = None
    format: str = "text"
    tolerance: float | None = None
    drop_constraints: tuple[str, ...] = ()
    max_hardy: bool = False

    def __post_init__(self) -> None:
        # Dropped constraints are a set: order and repetition change nothing.
        object.__setattr__(self, "drop_constraints", tuple(sorted(set(self.drop_constraints))))

    def validate(self) -> None:
        if self.command not in ("verify", "sample", "lhv-audit", "report"):
            raise ValueError(f"unknown command {self.command!r}")
        if self.trials < 1:
            raise ValueError("--trials must be at least 1")
        # The log keeps both seed columns in one (2, n) uint64 array of 16n
        # bytes; numpy sizes no array past 2^63 - 1 bytes and raises
        # ValueError, not MemoryError, from n = 2^59.
        if self.trials >= 2**59:
            raise ValueError("--trials must be below 2^59")
        if not 0 <= self.root_seed < 2**64:
            raise ValueError("--seed must fit in 64 bits")
        if self.format not in ("json", "csv", "text"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.command in ("sample", "lhv-audit") and self.format == "csv":
            raise ValueError(f"{self.command} has no csv format; use text or json")
        if self.tolerance is not None and not (math.isfinite(self.tolerance)
                                               and self.tolerance > 0):
            raise ValueError("--tolerance must be positive and finite")
        parse_policy(self.setting_policy)
        if self.measurement_path not in MEASUREMENT_PATHS:
            raise ValueError(f"unknown measurement path {self.measurement_path!r}")

    def config_hash(self) -> str:
        """Hash of the fields that determine computed content (not where it goes).
        The default pvm measurement path stays out, so older hashes hold."""
        payload = {k: str(v) for k, v in asdict(self).items()
                   if k not in ("output_dir", "format")
                   and not (k == "measurement_path" and v == "pvm")}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]

    def metadata(self) -> dict[str, str]:
        return {
            "version": __version__,
            "root_seed": str(self.root_seed),
            "config_hash": self.config_hash(),
        }


def parse_seed(text: str) -> int:
    """Seed from a decimal or 0x-prefixed hex string."""
    text = text.strip()
    value = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed {text} does not fit in 64 bits")
    return value


def parse_trials(text: str) -> int:
    """Trial count from an integer-valued decimal or scientific string, such
    as 1000000 or 1e6; RunConfig.validate checks the range."""
    try:
        return int(text, 10)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError(f"trial count {text} is not a whole number")
    return int(value)


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _row_norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a C-contiguous complex (n, k) array, bit
    for bit.  norm computes sqrt(re.re + im.im) with one BLAS dot per part
    on the strided real and imaginary views; a stacked (1, k) @ (k, 1)
    matmul calls the same dot on the same views, so an axis= norm's other
    summation order never enters."""
    re, im = d.real[:, None], d.imag[:, None]
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]


def run_verify_suite(tolerance: float | None = None, seed: int = 0) -> list[CheckResult]:
    """Run every check; ``tolerance`` overrides the 1e-12 exact-class default.

    The first four rows are exact integer identities at tolerance 0: the
    invariant pairs' Gram matrices, the protocol's partition and PVM, and the
    su(2) generators.  ``seed`` drives every randomized check; the exact rows
    draw nothing.  The table rows all read one batched kernel call over the
    identity setup and the seeded setups.

    The looser rotation-invariance class (1e-10) and the stricter
    zero-outcome-mass bound (1e-14) are pinned.  Overrides below ~1e-15 sit
    under the double-precision floor and are expected to fail.
    """
    exact_tol = tolerance if tolerance is not None else 1e-12
    results: list[CheckResult] = []

    # Each pair's integer kets K meet K K^T = diag(n) with n the stated
    # squared norms, so the states K_j / sqrt(n_j) are orthonormal.
    dev = int(np.abs(INTEGER_KETS @ INTEGER_KETS.swapaxes(1, 2) - np.diag(_NORMS)).max())
    results.append(CheckResult("state-gram", float(dev), 0.0,
                               detail=f"exact K K^T = diag{_NORMS} for phi, psi"))

    # Pair member j has integer ket K_j of squared norm n_j and is
    # flagged by label 2j - 1.  The integer rows W of a protocol's eigenbasis
    # (two x axes) meet W W^T = 4 I, and A = W K^T holds each string's integer
    # amplitudes, so the labels realize the PVM on span{x0, x1} exactly when
    # label j's strings s sum A_s^T A_s to 4 n_j e_j e_j^T.
    partition, agreement = 0, 0
    for kets, w, labels in zip(INTEGER_KETS, PROTOCOL_INTEGER_ROWS, PROTOCOL_LABELS):
        norms, amps = (kets * kets).sum(1), w @ kets.T
        agreement = max(agreement, int(np.abs(w @ w.T - 4 * np.eye(16, dtype=int)).max()))
        for j in (0, 1):
            mask = labels == 2 * j - 1
            partition = max(partition, abs(np.count_nonzero(mask) - norms[j]))
            target = 4 * np.diag(norms * (np.arange(2) == j))
            agreement = max(agreement, int(np.abs(amps[mask].T @ amps[mask] - target).max()))
    results.append(CheckResult("protocol-partition", float(partition), 0.0,
                               detail=f"{norms[0]} strings map to -1, {norms[1]} to +1, "
                                      "per setting"))
    results.append(CheckResult("protocol-pvm-agreement", float(agreement), 0.0,
                               detail="exact W W^T = 4I and per-label sums of A^T A"))

    # su(2) is spanned by the totals over qubits 2S_z, S+ and S-, and SU(2) is
    # connected, so kets all three annihilate are fixed by every U(x)U(x)U(x)U.
    kets = INTEGER_KETS.reshape(4, 2, 2, 2, 2)
    dev = max(int(np.abs(sum(np.moveaxis(np.tensordot(op, kets, (1, q)), 0, q)
                             for q in range(1, 5))).max())
              for op in ([[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]))
    results.append(CheckResult("invariance-generators", float(dev), 0.0,
                               detail="exact 2S_z, S+, S- on the integer kets of phi, psi"))

    # Each check draws its rotations in one batch and takes its deviations'
    # norms as _row_norms, bit for bit np.linalg.norm of each row.  The two
    # rows draw at disjoint keys (even; 1 and 3 mod 4), so no rotation is
    # checked twice.
    keys = np.arange(INVARIANCE_SAMPLES)
    rows = PAIRS.reshape(4, 16).T
    moved = fourfold(sample_su2_batch(split_seed(seed, 2 * keys))) @ rows
    worst = float(_row_norms((moved - rows).swapaxes(1, 2).reshape(-1, 16)).max())
    results.append(CheckResult("invariance-phi-psi", worst, 1e-10,
                               detail=f"{INVARIANCE_SAMPLES} collective rotations x 4 states"))

    # eta's 16x16 grid, derived from its one statement as the sampler's
    # rank-2 product PHI^T (C PHI).
    grid = _PHI.T @ _C_PHI
    moved = (fourfold(sample_su2_batch(split_seed(seed, 4 * keys + 1))) @ grid
             @ fourfold(sample_su2_batch(split_seed(seed, 4 * keys + 3))).swapaxes(1, 2))
    worst = float(_row_norms((moved - grid).reshape(INVARIANCE_SAMPLES, 256)).max())
    results.append(CheckResult("invariance-eta-pairs", worst, 1e-10,
                               detail=f"{INVARIANCE_SAMPLES} independent rotation pairs"))

    # One kernel call tables every setup below: the identity, then the setups
    # _draw_setups draws from split_seed(seed, 77) and (1000 + k).
    # exact-tables reads the identity's, no-signaling the identity's and
    # setup 77's, and rotation-robustness the rest against the identity's.
    _, drawn = _draw_setups(split_seed(seed, np.r_[77, 1000:1000 + ROBUSTNESS_SAMPLES]))
    tables = _setup_tables(np.concatenate([np.broadcast_to(np.eye(2), (1, 4, 2, 2)), drawn]))

    # The identity setup's 36 cells against the exact rationals, indexed by
    # LABEL_ORDER (-1, +1, 0); the paper's four identities are among them.
    gap = np.abs(tables[0] - EXACT_BEHAVIOR)
    results.append(CheckResult("exact-tables", float(gap.max()), exact_tol))
    # EXACT_BEHAVIOR's 0 row and column are 0.0, so their gaps are the 0 label's mass.
    mass = gap[:, 2].sum(-1) + gap[:, :, 2].sum(-1) - gap[:, 2, 2]
    results.append(CheckResult("zero-outcome-mass", float(mass.max()), 1e-14))

    worst = float(np.abs(tables[2:] - tables[0]).max())
    results.append(CheckResult("rotation-robustness", worst, 1e-10,
                               detail=f"{ROBUSTNESS_SAMPLES} independently seeded rotation 4-tuples"))

    # Marginals by (setup, Alice's setting, Bob's setting, own outcome).
    alice, bob = (tables[:2].reshape(2, 2, 2, 3, 3).sum(axis) for axis in (-1, -2))
    worst = float(max(np.abs(np.diff(alice, axis=2)).max(), np.abs(np.diff(bob, axis=1)).max()))
    results.append(CheckResult("no-signaling", worst, exact_tol,
                               detail="canonical and rotated setups"))

    return results


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _resolve_output_dir(cfg: RunConfig) -> Path | None:
    if cfg.output_dir is not None:
        return cfg.output_dir
    env = os.environ.get(ENV_OUTPUT_DIR)
    return Path(env) if env else None


def _prepare(out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _render_checks(results: list[CheckResult], fmt: str, meta: dict[str, str]) -> str:
    if fmt == "json":
        rows = [
            {"name": r.name, "passed": r.passed, "deviation": r.deviation,
             "tolerance": r.tolerance, "detail": r.detail}
            for r in results
        ]
        return json.dumps({"metadata": meta, "checks": rows}, indent=2)
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    if fmt == "csv":
        lines.append("name,passed,deviation,tolerance")
        lines += [f"{r.name},{int(r.passed)},{r.deviation:.3e},{r.tolerance:.1e}"
                  for r in results]
        return "\n".join(lines) + "\n"
    lines += [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<26} "
              f"deviation={r.deviation:.3e}  tolerance={r.tolerance:.1e}"
              + (f"  ({r.detail})" if r.detail else "")
              for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def _chain_lines(audit) -> list[str]:
    def _fmt(x):
        return "n/a" if x is None else f"{x:.6f}"

    e, h = audit.exact, lhv.HARDY_VALUE
    lines = [
        f"both measure G, both obtain 1:        P = {_fmt(e.hardy_fraction)}  (exact {h} = {float(h):.6f})",
        f"Bob G=1 makes Alice F=1 certain:      P = {_fmt(e.cond_ab)}",
        f"Alice G=1 makes Bob F=1 certain:      P = {_fmt(e.cond_ba)}",
        f"both measure F, both obtain 1:        P = {_fmt(e.joint_ff)}",
        audit.note,
    ]
    if audit.empirical is not None:
        m = audit.empirical
        lines.insert(4, "sampled: hardy={} cond_ab={} cond_ba={} joint_ff={}".format(
            _fmt(m.hardy_fraction), _fmt(m.cond_ab), _fmt(m.cond_ba), _fmt(m.joint_ff)))
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    results = run_verify_suite(tolerance=cfg.tolerance, seed=cfg.root_seed)
    text = _render_checks(results, cfg.format, cfg.metadata())
    print(text, end="")
    out_dir = _resolve_output_dir(cfg)
    if out_dir is not None:
        _prepare(out_dir, f"verify.{_SUFFIX[cfg.format]}").write_text(text)
    failing = [r for r in results if not r.passed]
    if failing:
        print(f"first failing check: {failing[0].name}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_sample(cfg: RunConfig) -> int:
    try:
        log, counts = run_trials(cfg.trials, cfg.root_seed, cfg.setting_policy,
                                 fixed_rotations=cfg.fixed_rotations,
                                 measurement_path=cfg.measurement_path)
    except MemoryError:
        print(f"usage error: --trials {cfg.trials} needs a trial log of 28 bytes per trial, "
              f"{28 * cfg.trials} bytes, which cannot be allocated", file=sys.stderr)
        return EXIT_USAGE
    audit = epr_audit(counts, EXACT_BEHAVIOR)
    report = {
        "metadata": cfg.metadata() | {
            "trials": str(cfg.trials),
            "setting_policy": cfg.setting_policy,
            "fixed_rotations": str(cfg.fixed_rotations).lower(),
            "measurement_path": cfg.measurement_path,
        },
        "stats": stats_report(counts, EXACT_BEHAVIOR),
        "audit": {
            "exact": vars(audit.exact),
            "empirical": vars(audit.empirical) if audit.empirical else None,
            "contradiction_witnessed": audit.contradiction_witnessed,
            "note": audit.note,
        },
    }
    if cfg.fixed_rotations:
        # The setup run_trials measured through: each matrix as [re, im] pairs.
        seeds, u = _draw_setups(np.array([cfg.root_seed % 2**64], np.uint64))
        report["fixed_rotations"] = {
            **dict(zip(("alice_F", "alice_G", "bob_F", "bob_G"),
                       np.stack((u[0].real, u[0].imag), axis=-1).tolist())),
            "seeds": seeds[0].tolist(),
        }

    out_dir = _resolve_output_dir(cfg) or Path("afbell-out")
    log.to_csv(_prepare(out_dir, "trials.csv"), metadata=report["metadata"])
    _prepare(out_dir, "stats.json").write_text(json.dumps(report, indent=2))

    gg = counts[3]
    n_gg = int(gg.sum())
    if n_gg:
        p_hat = int(gg[1, 1]) / n_gg
        h = float(lhv.HARDY_VALUE)
        sigma3 = 3.0 * math.sqrt(h * (1.0 - h) / n_gg)
        print(f"hardy fraction: {p_hat:.6f} +- {sigma3:.6f} (3-sigma), "
              f"exact {lhv.HARDY_VALUE} = {h:.6f}")
    else:
        print("hardy fraction: no (G,G) trials under this policy")
    print(f"wrote {out_dir / 'trials.csv'} and {out_dir / 'stats.json'}")
    if cfg.format == "json":
        print(json.dumps(report["audit"], indent=2))
    return EXIT_OK


def cmd_lhv_audit(cfg: RunConfig) -> int:
    constraints = lhv.quantum_constraints()
    known = {c.name for c in constraints}
    unknown = set(cfg.drop_constraints) - known
    if unknown:
        print(f"unknown constraint name(s): {', '.join(sorted(unknown))}; "
              f"known: {', '.join(sorted(known))}", file=sys.stderr)
        return EXIT_USAGE
    kept = [c for c in constraints if c.name not in cfg.drop_constraints]

    cert = lhv.check_feasibility(kept)
    valid = lhv.verify_certificate(cert, kept)
    rendering = lhv.render_certificate(cert, kept)
    meta = cfg.metadata()
    payload = lhv.certificate_to_json_dict(cert, kept)
    payload["metadata"] = meta
    payload["verified"] = valid
    if cfg.max_hardy:
        zeros = [c for c in kept if c.value == 0]
        payload["max_hardy_fraction"] = str(lhv.max_hardy_fraction(zeros))
    certificate = json.dumps(payload, indent=2)

    if cfg.format == "json":
        print(certificate)
    else:
        print(rendering)
        print(f"certificate verification: {'ok' if valid else 'FAILED'}")
        if cfg.max_hardy:
            print(f"max both-G fraction: {payload['max_hardy_fraction']} "
                  f"(local models) vs {lhv.HARDY_VALUE} (quantum)")

    out_dir = _resolve_output_dir(cfg)
    if out_dir is not None:
        _prepare(out_dir, "certificate.json").write_text(certificate)
        meta_lines = "".join(f"# {k}: {v}\n" for k, v in meta.items())
        _prepare(out_dir, "derivation.txt").write_text(meta_lines + rendering + "\n")
        if cfg.format != "json":
            print(f"wrote {out_dir / 'certificate.json'} and {out_dir / 'derivation.txt'}")
    return EXIT_OK if valid else EXIT_CHECK_FAILURE


def cmd_report(cfg: RunConfig) -> int:
    audit = epr_audit(None, EXACT_BEHAVIOR)
    constraints = lhv.quantum_constraints()
    cert = lhv.check_feasibility(constraints)
    zeros = [c for c in constraints if c.value == 0]
    payload = {
        "metadata": cfg.metadata(),
        "exact_behavior": {
            "outcome_order": list(LABEL_ORDER),
            "tables": dict(zip(SETTING_PAIRS, EXACT_BEHAVIOR.tolist())),
        },
        "inference_chain": vars(audit.exact),
        "contradiction_witnessed": audit.contradiction_witnessed,
        "classifiers": {s: {format(i, "04b"): int(label) for i, label in enumerate(labels)}
                        for s, labels in zip("FG", PROTOCOL_LABELS)},
        "lhv": {
            "feasible": cert.feasible,
            "verified": lhv.verify_certificate(cert, constraints),
            "max_hardy_fraction": str(lhv.max_hardy_fraction(zeros)),
        },
    }
    if cfg.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif cfg.format == "csv":
        lines = [f"# {k}: {v}" for k, v in cfg.metadata().items()]
        lines.append("setting_pair,outcome_a,outcome_b,probability")
        for pair, table in payload["exact_behavior"]["tables"].items():
            for i, la in enumerate(LABEL_ORDER):
                for j, lb in enumerate(LABEL_ORDER):
                    lines.append(f"{pair},{la},{lb},{table[i][j]:.15f}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"# {k}: {v}" for k, v in cfg.metadata().items()]
        lines += ["", "afbell exact report", ""]
        lines += _chain_lines(audit)
        lines.append("")
        lines.append("local-model audit: " + (
            "no local model reproduces these numbers (certificate verified)"
            if not cert.feasible else "feasible (unexpected)"))
        lines.append(f"max both-G fraction for local models: "
                     f"{payload['lhv']['max_hardy_fraction']} vs {lhv.HARDY_VALUE} quantum")
        text = "\n".join(lines) + "\n"
    print(text, end="")
    out_dir = _resolve_output_dir(cfg)
    if out_dir is not None:
        _prepare(out_dir, f"report.{_SUFFIX[cfg.format]}").write_text(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afbell",
        description="Verify, sample, and audit the alignment-free Bell construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # Options left off the command line stay out of the namespace, so
        # RunConfig's field defaults apply; each dest is a RunConfig field.
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--seed", dest="root_seed", metavar="SEED", type=parse_seed,
                       help="64-bit root seed, decimal or 0x hex (default 0)")
        p.add_argument("--out", dest="output_dir", metavar="OUT", type=Path,
                       help=f"output directory (env {ENV_OUTPUT_DIR} overrides the default)")
        p.add_argument("--format", choices=("json", "csv", "text"))
        return p

    p_verify = command("verify", "run the exact verification suite")
    p_verify.add_argument("--tolerance", type=float,
                          help="override the exact-identity tolerance (default 1e-12; "
                               "values below ~1e-15 sit under the floating-point floor "
                               "and are expected to fail)")

    p_sample = command("sample", "run seeded Monte Carlo trials")
    p_sample.add_argument("--trials", type=parse_trials, help="number of trials (default 1e6)")
    # sample's own spelling of the uniform policy; the other commands hash
    # RunConfig's "uniform_random", so the two defaults stay distinct.
    p_sample.add_argument(
        "--policy", dest="setting_policy",
        choices=("uniform", "fixed:FF", "fixed:FG", "fixed:GF", "fixed:GG", "cycle"),
        default="uniform",
        help="setting selection policy (default uniform)",
    )
    p_sample.add_argument("--fixed-rotations", action="store_true",
                          help="reuse one rotation 4-tuple instead of fresh draws per trial")
    p_sample.add_argument("--measurement", dest="measurement_path", choices=MEASUREMENT_PATHS,
                          help="pvm: sample the -1/+1 projectors directly; protocol: "
                               "z/x single-qubit measurements plus the 4-vs-12 "
                               "classifier (default pvm)")

    p_audit = command("lhv-audit", "exact local-model feasibility audit")
    p_audit.add_argument("--drop-constraint", dest="drop_constraints", action="append",
                         metavar="NAME", help="drop a named constraint (repeatable)")
    p_audit.add_argument("--max-hardy", action="store_true",
                         help="also print the local-model ceiling for the both-G fraction")

    command("report", "emit the consolidated exact report")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = config_from_args(args)
        cfg.validate()
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "verify": cmd_verify,
        "sample": cmd_sample,
        "lhv-audit": cmd_lhv_audit,
        "report": cmd_report,
    }
    try:
        return handlers[cfg.command](cfg)
    except OSError as exc:
        print(f"I/O error: {exc} (path: {getattr(exc, 'filename', 'unknown')})",
              file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
