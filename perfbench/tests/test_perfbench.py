"""Smoke tests of the benchmark itself, at a tiny op size.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import layertrace  # noqa: E402
import worker  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int, seconds: int = 1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", str(seconds), "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def wrong_simulate(monkeypatch):
    monkeypatch.setattr(worker.SimulateSet1, "reference", 20.0)


def wrong_solve_ode(monkeypatch):
    monkeypatch.setattr(worker.SolveODE, "references", {"set1": 7.4261, "set2": -0.09})


def wrong_solve_mc(monkeypatch):
    calibrate = worker.SolveMC.calibrate

    def shifted(self):
        calibrate(self)
        self.refs[1]["mmh"] = (self.refs[1]["mmh"][0] + 1.0, self.refs[1]["mmh"][1])

    monkeypatch.setattr(worker.SolveMC, "calibrate", shifted)


@pytest.mark.parametrize(
    "workload, corrupt",
    [("simulate_set1", wrong_simulate), ("solve_mc", wrong_solve_mc), ("solve_ode", wrong_solve_ode)],
)
def test_wrong_reference_counts_as_failed(workload, corrupt, monkeypatch, tmp_path, capsys):
    corrupt(monkeypatch)
    res = worker.run(workload, 5, 0.0, False, worker.SIZES["smoke"], tmp_path)
    assert res["attempted"] == worker.SIZES["smoke"]["min_ops"]
    assert res["failed"] == res["attempted"]
    assert "failed its check" in capsys.readouterr().err


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "solve_ode", 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_missing_layer_is_reported_absent(monkeypatch, tmp_path):
    import rsheston.riccati as riccati

    monkeypatch.setattr(riccati, "__all__", [n for n in riccati.__all__ if n != "D_leverage"])
    tracer = layertrace.Tracer()
    tracer.prepare()
    assert tracer.absent == ["riccati.D_leverage"]
    tracer.install()
    tracer.begin_op(0)
    try:
        worker.run_op([["solve", str(worker.cli.shipped_config("set2")), "--t-grid", "3",
                        "--out", str(tmp_path / "o.csv")]])
    finally:
        tracer.end_op()
        tracer.remove()
    m = layertrace.layer_metrics(tracer, 1, 0, (("regime_expectation.xi_ode", "incl"),))
    assert m["riccati.D_leverage.calls"] == 0
    assert m["regime_expectation.xi_ode.calls"] == 1
    assert m["regime_expectation.xi_ode.fn_all_evals"] > 0
    assert 0.5 < m["why_share"] <= 1.0


def test_check_that_raises_counts_as_failed(monkeypatch, tmp_path, capsys):
    def broken(self, i):
        raise RuntimeError("unreadable output")

    monkeypatch.setattr(worker.SolveODE, "check", broken)
    res = worker.run("solve_ode", 5, 0.0, False, worker.SIZES["smoke"], tmp_path)
    assert res["failed"] == res["attempted"]
    assert "unreadable output" in capsys.readouterr().err


def test_run_in_which_every_op_fails_still_reports(monkeypatch, tmp_path):
    monkeypatch.setattr(worker.cli, "main", lambda argv: 1)
    res = worker.run("simulate_set1", 5, 0.0, False, worker.SIZES["smoke"], tmp_path)
    assert res["failed"] == res["attempted"] == worker.SIZES["smoke"]["min_ops"]
    assert "work_per_s" not in res["metrics"] and res["metrics"]["op_tail_s"] > 0
