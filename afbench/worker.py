"""Run one benchmark workload in this (fresh) process and print one JSON line.

Usage: python3 afbench/worker.py --workload NAME --root SEED --seconds S
           --trace 0|1 --out DIR

The process imports afbell from the checkout's src/, calls exact_behavior()
once (the set-up every CLI invocation pays), then repeats passes of the
workload until S seconds have passed and at least MIN_PASSES are done.
Each pass is timed on its own, including writing its output files; the
correctness gate runs after the timer stops.  afbell is reached only
through module attributes looked up at call time, so a traced run sees
every call.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import LAYERS, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
SAMPLE_PVM_TRIALS = 200_000
SAMPLE_PROTOCOL_TRIALS = 16_384
# exact-suite counts as its trials the seeded random checks one default
# `afbell verify` makes: 2 x 100 span states, 100 collective rotations,
# 100 rotation pairs and 20 rotated setups.
VERIFY_RANDOM_TRIALS = 420
TRIALS = {"sample-pvm": SAMPLE_PVM_TRIALS, "sample-protocol": SAMPLE_PROTOCOL_TRIALS,
          "exact-suite": VERIFY_RANDOM_TRIALS}
HARDY = 9 / 112
# A GG (1,1) frequency further than this many binomial sigmas from 9/112
# fails the gate; at 6 sigma a correct sampler fails about once in 5e8 runs.
SIGMA_BOUND = 6.0
REPORT_TOL = 1e-12
# exact-suite runs at least five passes, so a traced run sees more than 110
# exact_behavior() calls and at least ten of them lie beyond the p90.
MIN_PASSES = {"sample-pvm": 3, "sample-protocol": 3, "exact-suite": 5}
PAIRS = ("FF", "FG", "GF", "GG")
# Row/column index of each outcome label in afbell's 3x3 tables (-1, +1, 0).
LABEL_INDEX = {b"-1": 0, b"1": 1, b"0": 2}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def check_sample(out: Path, trials: int) -> tuple[str | None, dict]:
    """Gate one sampling pass from its trials.csv and stats.json.

    Returns (reason the pass failed or None, informational record).  The CSV
    is streamed, so the gate's memory stays below the workload's peak RSS.
    """
    digest = hashlib.sha256()
    tally: Counter = Counter()
    rows = -1  # the header line is not a row
    with open(out / "trials.csv", "rb") as f:
        for line in f:
            digest.update(line)
            if line.startswith(b"#"):
                continue
            rows += 1
            if rows:
                fields = line.rstrip(b"\n").split(b",")
                tally[(fields[1] + fields[2], fields[5], fields[6])] += 1
    info: dict = {"sha256": digest.hexdigest()}
    pairs = json.loads((out / "stats.json").read_text())["stats"]["setting_pairs"]
    counts = {pair: entry["counts"] for pair, entry in pairs.items()}
    info["joint_stats"] = counts
    csv_counts = {pair: [[0] * 3 for _ in range(3)] for pair in PAIRS}
    for (pair, oa, ob), k in tally.items():
        csv_counts[pair.decode()][LABEL_INDEX[oa]][LABEL_INDEX[ob]] += k

    total = sum(sum(map(sum, c)) for c in counts.values())
    zero = sum(c[2][j] + c[j][2] for c in counts.values() for j in range(3))
    if rows != trials:
        return f"trials.csv has {rows} rows, expected {trials}", info
    if total != trials:
        return f"JointStats total {total}, expected {trials}", info
    if csv_counts != counts:
        return "trials.csv outcome tally differs from JointStats", info
    if zero:
        return f"outcome 0 appears {zero} times", info
    if counts["FF"][1][1]:
        return f"(F,F)->(1,1) occurred {counts['FF'][1][1]} times", info
    if counts["FG"][0][1] or counts["GF"][1][0]:
        return "a cross-prediction (FG: A=-1,B=1 or GF: A=1,B=-1) was violated", info
    n_gg = sum(map(sum, counts["GG"]))
    if n_gg:
        freq = counts["GG"][1][1] / n_gg
        sigma = math.sqrt(HARDY * (1 - HARDY) / n_gg)
        info["gg_sigmas"] = (freq - HARDY) / sigma
        if abs(freq - HARDY) > SIGMA_BOUND * sigma:
            return (f"GG (1,1) frequency {freq:.6f} is {info['gg_sigmas']:+.1f} sigma "
                    "from 9/112", info)
    return None, info


def check_verify(out: Path) -> str | None:
    checks = json.loads((out / "verify.json").read_text())["checks"]
    failing = [c["name"] for c in checks if not c["passed"]]
    return f"verify checks failed: {', '.join(failing)}" if failing else None


def check_report(out: Path) -> str | None:
    gg = json.loads((out / "report.json").read_text())["exact_behavior"]["tables"]["GG"]
    dev = abs(gg[1][1] - HARDY)
    return f"report GG (1,1) is {dev:.3e} from 9/112" if dev > REPORT_TOL else None


def check_audit(out: Path, feasible: bool) -> str | None:
    cert = json.loads((out / "certificate.json").read_text())
    if cert["feasible"] != feasible or not cert["verified"]:
        return (f"audit gave feasible={cert['feasible']} verified={cert['verified']}, "
                f"expected feasible={feasible} verified=True")
    return None


# ---------------------------------------------------------------------------
# Workloads: each pass returns [(operation, error or None, gate)]
# ---------------------------------------------------------------------------


def _reset(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


def call_cli(argv: list[str]) -> str | None:
    """One afbell CLI invocation; returns why it failed, or None."""
    import afbell.cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = afbell.cli.main(argv)
    except Exception as exc:  # a raising command is a failed operation, not a crash
        return f"raised {type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


def pass_sample_pvm(out: Path, root: int, trials: int = SAMPLE_PVM_TRIALS):
    error = call_cli(["sample", "--trials", str(trials), "--seed", str(root),
                      "--policy", "uniform", "--out", str(out)])
    return [("sample", error, lambda: check_sample(out, trials))]


def pass_sample_protocol(out: Path, root: int, trials: int = SAMPLE_PROTOCOL_TRIALS):
    """The calls cmd_sample makes, on the protocol path the CLI cannot select."""
    from afbell import experiment

    try:
        log, stats = experiment.run_trials(trials, root, "uniform",
                                           measurement_path="protocol")
        behavior = experiment.exact_behavior()
        audit = experiment.epr_audit(log, behavior)
        metadata = {"root_seed": str(root), "trials": str(trials),
                    "setting_policy": "uniform", "measurement_path": "protocol"}
        report = {
            "metadata": metadata,
            "stats": experiment.stats_report(stats, behavior),
            "audit": {
                "exact": vars(audit.exact),
                "empirical": vars(audit.empirical) if audit.empirical else None,
                "contradiction_witnessed": audit.contradiction_witnessed,
                "note": audit.note,
            },
        }
        log.to_csv(out / "trials.csv", metadata=metadata)
        (out / "stats.json").write_text(json.dumps(report, indent=2))
        error = None
    except Exception as exc:  # a raising pass is a failed operation, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    return [("run_trials", error, lambda: check_sample(out, trials))]


def pass_exact_suite(out: Path, root: int):
    """verify, report and both audits; exact paths only, no seed involved."""
    ops = []
    for name, argv, gate in (
        ("verify", ["verify", "--format", "json"], check_verify),
        ("report", ["report", "--format", "json"], check_report),
        ("lhv-audit", ["lhv-audit", "--max-hardy"],
         lambda d: check_audit(d, feasible=False)),
        ("lhv-audit-drop", ["lhv-audit", "--drop-constraint", "ff_zero"],
         lambda d: check_audit(d, feasible=True)),
    ):
        target = out / name
        error = call_cli(argv + ["--out", str(target)])
        ops.append((name, error, lambda g=gate, d=target: (g(d), {})))
    return ops


PASSES = {
    "sample-pvm": pass_sample_pvm,
    "sample-protocol": pass_sample_protocol,
    "exact-suite": pass_exact_suite,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------

# Per-layer metric prefix -> the span names it sums.
NAMED_SPANS = {
    "rotations.mix64_array": ("rotations.mix64_array",),
    "rotations.sample_su2_batch": ("rotations.sample_su2_batch",),
    "rotations.apply_pair": ("rotations.apply_pair",),
    "rotations.apply_collective": ("rotations.apply_collective",),
    "rotations.rotate_pvm": ("rotations.rotate_pvm",),
    "experiment.run_trials": ("experiment.run_trials",),
    "experiment.exact_behavior": ("experiment.exact_behavior",),
    "experiment.joint_born": ("experiment.joint_born",),
    "experiment.to_csv": ("experiment.TrialLog.to_csv",),
    "experiment.stats": ("experiment.JointStats.from_arrays", "experiment.JointStats.from_records",
                         "experiment.stats_report", "experiment.epr_audit"),
    "observables.protocol_eigenvectors": ("observables.protocol_eigenvectors",),
    "observables.coarse_grain": ("observables.coarse_grain",),
    "observables.classified_distribution": ("observables.classified_distribution",),
    "observables.born_distribution": ("observables.born_distribution",),
    "qstate.build_eta": ("qstate.build_eta",),
    "lhv.check_feasibility": ("lhv.check_feasibility",),
    "lhv.verify_certificate": ("lhv.verify_certificate",),
}


def make_tracer(counts: dict) -> Tracer:
    """Tracer whose observers add trial, log-byte and CSV-byte counts."""
    counts.update(trials=0, log_bytes=0, csv_bytes=0)

    def on_run_trials(args, kwargs, result):
        log = result[0]
        counts["trials"] += len(log)
        counts["log_bytes"] += sum(v.nbytes for v in vars(log).values() if hasattr(v, "nbytes"))

    def on_to_csv(args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[1]
        counts["csv_bytes"] += Path(path).stat().st_size

    return Tracer({"experiment.run_trials": on_run_trials,
                   "experiment.TrialLog.to_csv": on_to_csv})


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by the exclusive method of statistics.quantiles."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(tracer: Tracer, counts: dict, walls: list[float]) -> dict:
    """Per-pass per-layer metrics: (value, unit) by metric name."""
    summary = tracer.summary()
    n = len(walls)
    wall = sum(walls)

    def total(names, key):
        return sum(summary[s][key] for s in names if s in summary)

    m: dict[str, tuple[float, str]] = {}
    for prefix, names in NAMED_SPANS.items():
        m[f"{prefix}.calls"] = (total(names, "calls") / n, "count")
        m[f"{prefix}.self_s"] = (total(names, "self_s") / n, "s")
    run_trials_s = total(NAMED_SPANS["experiment.run_trials"], "self_s")
    m["experiment.run_trials.self_share"] = (run_trials_s / wall, "ratio")
    calls_ms = [d * 1e3 for d in summary.get("experiment.exact_behavior", {}).get("durations", [])]
    m["experiment.exact_behavior.call_ms_p50"] = (percentile(calls_ms, 50), "ms")
    m["experiment.exact_behavior.call_ms_p90"] = (percentile(calls_ms, 90), "ms")
    m["experiment.trials"] = (counts["trials"] / n, "count")
    m["experiment.log_bytes"] = (counts["log_bytes"] / n, "B")
    csv_s = total(NAMED_SPANS["experiment.to_csv"], "self_s")
    m["experiment.to_csv.bytes"] = (counts["csv_bytes"] / n, "B")
    m["experiment.to_csv.mb_per_s"] = (counts["csv_bytes"] / 1e6 / csv_s if csv_s else 0.0, "MB/s")
    covered = 0.0
    for layer in LAYERS:
        layer_s = sum(row["self_s"] for name, row in summary.items()
                      if name.startswith(layer + "."))
        m[f"{layer}.self_s"] = (layer_s / n, "s")
        if layer != "cli":
            covered += layer_s
    m["trace.coverage"] = (covered / wall, "ratio")
    m["trace.spans"] = (len(tracer.spans) / n, "count")
    return m


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def check_source(module_file: str) -> None:
    """Refuse to measure an afbell imported from anywhere but SRC."""
    if Path(module_file).resolve().parent != SRC.resolve() / "afbell":
        raise RuntimeError(f"afbell was imported from {module_file}, not from {SRC}")


def blas_info() -> dict:
    """BLAS library name, version and thread count as numpy loaded it."""
    import numpy as np

    info = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    blas = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas.update(threads=fn(), library=Path(path).name)
                return blas
    return blas


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--root", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import afbell.cli  # set-up: the import every CLI invocation pays
    from afbell import experiment

    experiment.exact_behavior()
    setup_s = time.perf_counter() - start
    check_source(afbell.cli.__file__)

    run_pass = PASSES[args.workload]
    counts: dict = {}
    tracer = make_tracer(counts) if args.trace else None
    passes = []
    begin = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        # Measure for the given seconds; a slow program gets up to three
        # times that to finish its minimum passes.
        while ((elapsed := time.perf_counter() - begin) < args.seconds
               or (len(passes) < MIN_PASSES[args.workload] and elapsed < 3 * args.seconds)):
            _reset(args.out)
            t0 = time.perf_counter()
            ops = run_pass(args.out, args.root)
            wall = time.perf_counter() - t0
            record: dict = {"wall_s": wall, "ops": []}
            for name, error, gate in ops:
                try:
                    reason, info = (error, {}) if error else gate()
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    reason, info = f"output unreadable: {type(exc).__name__}: {exc}", {}
                record["ops"].append({"name": name, "ok": reason is None, "reason": reason})
                record.update(info)
            passes.append(record)
    finally:
        if tracer is not None:
            tracer.uninstall()
    shutil.rmtree(args.out, ignore_errors=True)

    import numpy as np

    result = {
        "setup_in_process_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
        "blas": blas_info(),
        "passes": passes,
    }
    if tracer is not None:
        walls = [p["wall_s"] for p in passes]
        result["layers"] = {k: list(v) for k, v in layer_metrics(tracer, counts, walls).items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
