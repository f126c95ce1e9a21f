"""Tiny-size smoke test of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest -q afbench/test_smoke.py
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _gate(ops):
    return [(name, error or gate()[0]) for name, error, gate in ops]


def test_sampling_passes_pass_the_gate(tmp_path):
    for run_pass in (worker.pass_sample_pvm, worker.pass_sample_protocol):
        out = tmp_path / run_pass.__name__
        out.mkdir()
        ops = run_pass(out, 0x9E3779B97F4A7C15, trials=300)
        assert _gate(ops) == [(ops[0][0], None)]
        reason, info = ops[0][2]()
        assert len(info["sha256"]) == 64
        assert sum(sum(map(sum, c)) for c in info["joint_stats"].values()) == 300


def test_exact_suite_pass_passes_the_gate(tmp_path):
    ops = worker.pass_exact_suite(tmp_path, 0)
    assert _gate(ops) == [(name, None) for name in
                          ("verify", "report", "lhv-audit", "lhv-audit-drop")]


def test_gate_flags_a_forbidden_ff_event(tmp_path):
    counts = {pair: [[0] * 3 for _ in range(3)] for pair in worker.PAIRS}
    counts["FF"][1][1] = 1
    counts["GG"][0][0] = 1
    (tmp_path / "trials.csv").write_text(
        "# root_seed: 0\ntrial,setting_a,setting_b,seed_a,seed_b,outcome_a,outcome_b\n"
        "0,F,F,1,2,1,1\n1,G,G,3,4,-1,-1\n")
    (tmp_path / "stats.json").write_text(json.dumps(
        {"stats": {"setting_pairs": {p: {"counts": c} for p, c in counts.items()}}}))
    reason, _ = worker.check_sample(tmp_path, 2)
    assert reason.startswith("(F,F)->(1,1)")


def _bindings():
    import afbell

    modules = [afbell] + [sys.modules[f"afbell.{layer}"] for layer in LAYERS]
    owners = modules + [obj for m in modules for obj in vars(m).values() if inspect.isclass(obj)]
    return {(id(owner), attr): id(value) for owner in owners for attr, value in vars(owner).items()
            if callable(value) or isinstance(value, (classmethod, staticmethod))}


def test_tracer_spans_nest_and_every_binding_is_restored(tmp_path):
    import afbell.cli  # noqa: F401

    before = _bindings()
    counts: dict = {}
    tracer = worker.make_tracer(counts)
    tracer.install()
    try:
        assert _bindings() != before
        ops = worker.pass_sample_pvm(tmp_path, 7, trials=300)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert _gate(ops) == [("sample", None)]
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] == -1
    run = tracer.spans[names.index("experiment.run_trials")]
    assert tracer.spans[run[3]][0] == "cli.cmd_sample"
    assert "rotations.mix64_array" in names and "rotations.sample_su2_batch" in names
    metrics = worker.layer_metrics(tracer, counts, [tracer.spans[0][2] - tracer.spans[0][1]])
    assert metrics["experiment.trials"][0] == 300
    assert metrics["experiment.to_csv.bytes"][0] == (tmp_path / "trials.csv").stat().st_size
    assert metrics["trace.coverage"][0] > 0.5


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sample-pvm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
