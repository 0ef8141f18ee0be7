"""rsheston benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload simulate_set1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``worker.py`` imports the
library from ``src/``, nothing is installed.  The workload runs in its own
single-threaded process (``worker.py``).  Before it, set-up is timed
``SETUP_RUNS`` times in fresh processes, from process start until the
first op is ready, and the median is reported as ``setup_s``.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The last line on
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it and ``.perfbench_run/<workload>-s<seed>-t<trace>.json`` add
the run environment, op count, median op latency, the mean
latency of the slowest quarter of ops and the tail percentile.  See README.md for
the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_run"
SETUP_RUNS = 7
WORKLOADS = ("simulate_set1", "solve_mc", "solve_ode")
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict[str, str]:
    return dict(os.environ, **SINGLE_THREAD)


def time_setup(args, workdir: Path, timeout: float) -> float:
    """Seconds from starting a fresh process until its first op is ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--probe", *worker_args(args, workdir)]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready


def worker_args(args, workdir: Path) -> list[str]:
    return [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--workdir", str(workdir),
    ]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one rsheston benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny ops for the tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rsheston" / "__init__.py").is_file():
        print(f"no rsheston source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    budget = 150.0  # the whole run must end within 180 s
    started = time.perf_counter()
    setups = []
    if not args.trace:
        setups = [time_setup(args, workdir, timeout=30.0) for _ in range(SETUP_RUNS)]
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args(args, workdir)]
    remaining = budget - (time.perf_counter() - started)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {budget:.0f} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"workload exited with code {done.returncode}", file=sys.stderr)
        return 1
    shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(done.stdout.strip().splitlines()[-1])

    if not args.trace:
        res["metrics"]["setup_s"] = statistics.median(setups)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(res["metrics"]))
    if missing and res["failed"] == 0:
        print(f"worker did not report {missing}", file=sys.stderr)
        return 1
    # a run in which every op failed has no rates; they read null and "correct" is false
    metrics = {k: {"value": res["metrics"].get(k), "unit": u} for k, u in units.items()}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "ops": res["attempted"],
        "failed_frac": res["failed"] / res["attempted"],
        "op_p50_s": None if args.trace else res["metrics"]["op_p50_s"],
        "op_slow_s": None if args.trace else res["metrics"].get("op_slow_s"),
        "op_tail_percentile": res.get("op_tail_percentile"),
        "traced_ops": res.get("traced_ops"),
        "absent_layers": res.get("absent"),
        "setup_runs_s": setups,
        "op_latencies_s": res["op_latencies_s"],
        "environment": dict(
            res["environment"],
            nproc=os.cpu_count(),
            cpus_usable=len(os.sched_getaffinity(0)),
            platform=platform.platform(),
            git_commit=git_commit(),
            threads=SINGLE_THREAD,
        ),
    }
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    (OUT / f"{name}.json").write_text(json.dumps(dict(result, details=details), indent=1), encoding="utf-8")
    print("details " + json.dumps(details))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
