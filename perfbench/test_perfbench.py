"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import copy
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from admmtune import engine, problems, tuner  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=120)


def test_corrupted_grid_entry_counts_as_failed():
    snapshot = workloads.load_snapshot()
    clean = workloads.Grid(snapshot, smoke=True).run_pass(random.Random(0), None)
    assert clean.attempted == 4 and clean.failed == 0

    bad = copy.deepcopy(snapshot)
    bad["grid"]["tv"][3][0] += 1
    result = workloads.Grid(bad, smoke=True).run_pass(random.Random(0), None)
    assert result.attempted == 4 and result.failed == 1
    assert "grid tv gamma=1.0" in result.errors[0]


def test_corrupted_zoo_entry_counts_as_failed(tmp_path):
    bad = copy.deepcopy(workloads.load_snapshot())
    bad["zoo"]["lad"]["estimated"] = [30, True]
    result = workloads.Zoo(bad, str(tmp_path), smoke=True).run_pass(random.Random(0), None)
    assert result.attempted == 8 and result.failed == 1
    assert result.errors[0].startswith("zoo lad estimated")


def test_traced_solve_children_plus_self_equal_solve():
    tracer = Tracer()
    original = problems.generate
    tracer.install()
    try:
        inst = problems.generate("tv", profile="desk", seed=8)
        rec = engine.solve(inst.spec, tuner.StepSizePlan.estimated(), init=None,
                           rule=workloads.ESTIMATE_RULE)
    finally:
        tracer.uninstall()
    assert problems.generate is original
    m = tracer.close_pass()
    children = m["prox.x_s"] + m["prox.z_s"] + m["problems.objective_s"] + m["tuner.estimate_s"]
    assert children + m["engine.self_s"] == pytest.approx(m["engine.solve_s"], rel=1e-12)
    assert m["engine.solve_calls"] == 1 and m["engine.sweeps"] == rec.iterations
    assert m["prox.x_calls"] == m["prox.z_calls"] == rec.iterations
    assert m["tuner.estimate_calls"] == rec.iterations - 1
    distinct = len({row[1] for row in rec.rows})
    assert m["prox.x_new_gamma_calls"] == distinct


def test_timings_take_each_unit_at_its_fastest():
    passes = [{"traced": False, "units_s": {"a": 2.0, "b": 1.0}, "sweeps": 30,
               "latencies_ms": {"a": 2000.0, "b": 1000.0}},
              {"traced": False, "units_s": {"a": 3.0, "b": 0.5}, "sweeps": 30,
               "latencies_ms": {"a": 3000.0, "b": 500.0}}]
    metrics = run.end_to_end([0.4], {"passes": passes, "peak_rss_mib": 60.0})
    assert metrics["wall_s"][0] == 2.5
    assert metrics["sweeps_per_s"][0] == 12.0
    assert metrics["solve_ms_p50"][0] == 500.0 and metrics["solve_ms_p90"][0] == 2000.0


@pytest.mark.parametrize("workload", ["grid", "estimate"])
def test_every_solve_failing_gives_an_incorrect_result(workload, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("broken build")

    snapshot = workloads.load_snapshot()
    bench = workloads.make(workload, snapshot, None, smoke=True)
    monkeypatch.setattr(engine, "solve", broken)
    passes = [bench.run_pass(random.Random(seed), {"tv": 1.0}) for seed in (0, 1)]
    assert all(p.failed == p.attempted > 0 for p in passes)
    report = {"passes": [p.entry(traced=False) for p in passes],
              "peak_rss_mib": 60.0, "env": {}}
    result = run.result(report, [0.5], 0, run.declared(ROOT)[0])
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mib"}
    assert "error_rate" in capsys.readouterr().out


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.declared(ROOT)[int(trace)])
    assert "error_rate" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
