"""One short run of the benchmark's ``oracle`` and ``deep`` workloads,
untraced and traced: every op of one pass must be correct, so a change
to the oracle, the stage loop or annotation that alters their outputs
fails here before the benchmark would reject it, and the traced run
must still produce the per-layer metrics."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0
    return result


def _traced_metrics(workload):
    metrics = {name: m["value"] for name, m in _run_workload(workload, 1)["metrics"].items()}
    assert metrics["ops.failed_ratio"] == 0, metrics
    return metrics


def test_oracle_workload_runs_correct():
    _run_workload("oracle", 0)


def test_deep_workload_runs_correct():
    _run_workload("deep", 0)


def test_oracle_workload_traced_runs_correct():
    metrics = _traced_metrics("oracle")
    assert metrics["normalform.oracle_frames"] > 0, metrics


def test_deep_workload_traced_runs_correct():
    # deep runs no oracle, so its own layers must count the work instead
    metrics = _traced_metrics("deep")
    assert metrics["normalform.oracle_frames"] == 0, metrics
    assert metrics["semantics.stages"] > 0 and metrics["annotation.entries"] > 0, metrics
