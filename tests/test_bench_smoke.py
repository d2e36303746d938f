"""One short run of the benchmark's ``oracle`` and ``deep`` workloads:
every op of one pass must be correct, so a change to the oracle, the
stage loop or annotation that alters their outputs fails here before
the benchmark would reject it."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0


def test_oracle_workload_runs_correct():
    _check_workload_runs_correct("oracle")


def test_deep_workload_runs_correct():
    _check_workload_runs_correct("deep")
