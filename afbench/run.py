"""afbell benchmark: one workload, measured end to end or layer by layer.

    python3 afbench/run.py --workload sample-pvm --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark tests the afbell package in
``src/`` next to this directory and nothing else.  With ``--trace 0`` it
times fresh-process set-up several times, then runs the workload in one
fresh, untraced worker process and reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced worker, half the seconds
each, and reports the per-layer metrics.  Every operation passes through the
correctness gate.  The last line of standard output is the JSON result; a
record with the environment, every pass, each seed's JointStats and the
trials.csv hashes goes to ``afbench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PASSES, SRC, TRIALS, check_source

BENCH = Path(__file__).resolve().parent
ROOT = SRC.parent
OUT = BENCH / "out"

# Fresh interpreters timed per --trace 0 run for setup_s; the median is
# reported.  One more probe runs first, outside the median, to warm the file
# cache; the record keeps it, because the BLAS stall tends to hit it.
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150

PROBE = """\
import time
t0 = time.perf_counter()
import afbell.cli
from afbell import experiment
t1 = time.perf_counter()
experiment.exact_behavior()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, afbell.cli.__file__, flush=True)
"""


def derive_root(seed: int) -> int:
    """afbell root seed for a benchmark seed.

    afbell derives trial i from ``mix64(root ^ i)``, so roots that differ
    only in their low bits replay the same trials.  Hashing the benchmark
    seed makes every seed's root differ from every other's in its high bits.
    """
    digest = hashlib.sha256(f"afbench-root-{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_probe(env: dict[str, str]) -> dict:
    """Time a fresh interpreter until afbell.cli is imported and the first
    exact_behavior() has returned."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    fields = line.split()
    if code != 0 or len(fields) != 3:
        raise RuntimeError(f"set-up probe failed (exit code {code})")
    check_source(fields[2])
    return {"setup_s": ready, "import_s": float(fields[0]),
            "first_exact_behavior_ms": float(fields[1]) * 1e3}


def run_worker(workload: str, root: int, seconds: float, trace: int,
               out: Path, env: dict[str, str]) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--root", str(root), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit code {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment(worker: dict) -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "blas": worker["blas"],
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read as files; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the afbell sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "afbell").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def operations(*workers: dict) -> tuple[int, int, list[str]]:
    ops = [op for w in workers for p in w["passes"] for op in p["ops"]]
    reasons = [f"{op['name']}: {op['reason']}" for op in ops if not op["ok"]]
    return len(ops), len(reasons), reasons


def end_to_end(workload: str, probes: list[dict], worker: dict) -> dict:
    walls = [p["wall_s"] for p in worker["passes"]]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "trials_per_s": (statistics.median(TRIALS[workload] / w for w in walls), "trials/s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }


def per_layer(base: dict, traced: dict) -> dict:
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    base_wall = statistics.median(p["wall_s"] for p in base["passes"])
    traced_wall = statistics.median(p["wall_s"] for p in traced["passes"])
    metrics["trace.overhead_frac"] = (traced_wall / base_wall - 1.0, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="afbell benchmark")
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "afbell" / "__init__.py").is_file():
        print(f"no afbell package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    root = derive_root(args.seed)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    warmup: dict | None = None
    probes: list[dict] = []
    try:
        if args.trace:
            base = run_worker(args.workload, root, args.seconds / 2, 0, work, env)
            traced = run_worker(args.workload, root, args.seconds / 2, 1, work, env)
            workers = [base, traced]
            metrics = per_layer(base, traced)
        else:
            warmup, *probes = [setup_probe(env) for _ in range(SETUP_PROBES + 1)]
            workers = [run_worker(args.workload, root, args.seconds, 0, work, env)]
            metrics = end_to_end(args.workload, probes, workers[0])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, reasons = operations(*workers)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    env_block = environment(workers[0])
    record = {
        "workload": args.workload, "seed": args.seed, "root_seed": root,
        "seconds": args.seconds, "trace": args.trace, "environment": env_block,
        "setup_warmup_probe": warmup, "setup_probes": probes,
        "workers": [{k: v for k, v in w.items() if k != "layers"} for w in workers],
        "attempted": attempted, "failed": failed, "failures": reasons,
        "metrics": reported,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))

    blas = env_block["blas"]
    print(f"afbench {args.workload} seed={args.seed} root={root:#018x} trace={args.trace}")
    print(f"env: host={env_block['host']} nproc={env_block['nproc']} "
          f"python={env_block['python']} numpy={env_block['numpy']} "
          f"blas={blas.get('name')} {blas.get('version')} threads={blas.get('threads')} "
          f"commit={env_block['git_commit']} src={env_block['src_sha256'][:12]}")
    if probes:
        print(f"setup warm-up probe (not in the median): {warmup['setup_s']:.3f} s, "
              f"first exact_behavior {warmup['first_exact_behavior_ms']:.1f} ms")
        print("setup probes (s): " + " ".join(f"{p['setup_s']:.3f}" for p in probes)
              + "; first exact_behavior (ms): "
              + " ".join(f"{p['first_exact_behavior_ms']:.1f}" for p in probes))
    for w in workers:
        print("pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in w["passes"]))
        hashes = sorted({p["sha256"] for p in w["passes"] if "sha256" in p})
        if hashes:
            print("trials.csv sha256: " + " ".join(hashes))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(f"{'failed_frac':<44} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} operations)")
    for reason in reasons:
        print(f"FAILED {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
