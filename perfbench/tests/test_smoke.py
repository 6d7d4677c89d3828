"""Tiny-draw runs of every workload: every named metric is emitted."""

import os
import shutil
import subprocess
import sys

import pytest

import catalog
import run

TINY = {
    "report-cold": [("crc32", "small")],
    "report-warm": [("crc32", "small")],
    "sweep-replay": [("crc32", "small")],
}


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.measure(workload, 1, 0.0, trace=False,
                         pairs=TINY[workload], log=lambda line: None)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert [(name, metrics[name]["unit"]) for name, *_ in
            catalog.END_TO_END] == [(name, unit) for name, unit, *_ in
                                    catalog.END_TO_END]
    assert all(metrics[name]["value"] > 0 for name in metrics
               if name != "nondet_binaries")


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    result = run.measure(workload, 1, 0.0, trace=True,
                         pairs=TINY[workload], log=lambda line: None)
    assert result["correct"], result
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(name for name, *_ in catalog.PER_LAYER)
    assert all(metrics[name]["unit"] == catalog.UNITS[name]
               for name in metrics)
    assert metrics["engine.unattributed_s"]["value"] >= 0
    trace_path = run.WORK / f"trace-{workload}-1.json"
    summary = subprocess.run(
        [sys.executable, "-m", "repro.obs", "summary", str(trace_path)],
        env={**os.environ, "PYTHONPATH": str(run.SRC)},
        capture_output=True, text=True, check=True)
    assert "engine" in summary.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
