"""Tests of the benchmark itself, on the small "smoke" inputs.

    python3 -m pytest perfbench

They check that every workload runs and emits every metric BENCHMARK.json
names, that a corrupted output is counted as a failure, that tracing
rebinds and restores every namespace, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from bchseries import engine  # noqa: E402
from bchseries.algebra import FreePoly  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_emits_every_metric(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def _negate_one(poly: FreePoly) -> FreePoly:
    word, coeff = poly.sorted_items()[0]
    return FreePoly({**dict(poly.items()), word: -coeff})


def _fail_ratio(failures: list) -> float:
    return sum(f is not None for f in failures) / len(failures)


@pytest.mark.parametrize("workload", ["series-short-product", "series-long-product"])
def test_flipped_series_coefficient_fails(workload):
    ops = workloads.run_series(workload, "smoke")
    assert _fail_ratio(workloads.check_series("smoke", 7, ops)) == 0
    terms = list(ops[0].output)
    terms[2] = engine.SeriesTerm(3, _negate_one(terms[2].body))
    ops[0].output = tuple(terms)
    assert _fail_ratio(workloads.check_series("smoke", 7, ops)) > 0


def test_flipped_word_coefficient_fails():
    ops = workloads.run_words("smoke", seed=7)
    assert _fail_ratio(workloads.check_words("smoke", 7, ops)) == 0
    op = next(op for op in ops if op.name.startswith("engine:") and op.output != 0)
    op.output = -op.output
    assert _fail_ratio(workloads.check_words("smoke", 7, ops)) > 0


def test_flipped_cli_coefficient_fails(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    ops, _ = workloads.run_cli("smoke", 7, workloads.CLI_LAUNCHER)
    assert _fail_ratio(workloads.check_cli("smoke", ops)) == 0
    op = next(op for op in ops if op.name.startswith("terms"))
    code, stdout = op.output
    op.output = (code, stdout.replace(b'"num": "', b'"num": "-', 1))
    assert _fail_ratio(workloads.check_cli("smoke", ops)) > 0


def test_tracing_rebinds_every_namespace_and_restores_it():
    from bchseries import cli, lie  # noqa: F401  (cli must be loaded to be rebound)
    from tracing import Tracer, install

    census_module = sys.modules["bchseries.census"]
    original = engine.series_terms
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert census_module.series_terms is engine.series_terms is not original
        assert sys.modules["bchseries.cli"].series_terms is engine.series_terms
        census_module.census_sweep(5, engine.preset("standard"))
        lie.expand_comm_poly(lie.comm_parse("[XY]"))
    finally:
        uninstall()
    assert census_module.series_terms is original and engine.series_terms is original
    metrics = tracer.metrics()
    assert metrics["engine.series_calls"] == 1 and metrics["engine.series_keys"] == 1
    assert metrics["lie.expand_calls"] == 1 and metrics["algebra.mul_calls"] > 0
    assert metrics["census.sweep_s"] >= metrics["engine.log_self_s"] > 0
    assert FreePoly.__mul__.__qualname__ == "FreePoly.__mul__"


def test_refuses_to_run_without_the_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_benchmark(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
