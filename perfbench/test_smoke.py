"""Smoke test of the benchmark at its shortest run length; no timing assertions.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == metric["unit"]
        # None marks a metric whose wrapped function no longer exists
        assert got["value"] is None or isinstance(got["value"], (int, float))
    detail = json.loads(lines[-2])["detail"]
    assert detail["workload"] == workload
    assert {"nproc", "cpu_count", "blas", "blas_thread_vars", "numpy", "scipy",
            "python"} <= set(detail["environment"])
    assert len(detail["loadavg_1m"]) == 2


def test_deleted_function_reads_absent(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import granger_mdl.cli  # noqa: F401  (loads every module the tracer wraps)
    import granger_mdl.regression

    monkeypatch.delattr(granger_mdl.regression, "ols_order_scan")
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    assert spans.absent == ["regression.ols_order_scan"]
    metrics = spans.metrics()
    assert metrics["regression.scan_calls"] == (None, "count")
    assert metrics["regression.fit_calls"] == (0, "count")


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
