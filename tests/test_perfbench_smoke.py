"""Toy-size runs of benchmark workloads, so the harness cannot rot.

The exact-deep run also checks the exact engine end to end: convexity and
monotonicity of every sequence, and a cylinder brute force at depth 5.
Each run writes its record under perfbench/out/, which git ignores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["needle", "exact-deep"])
def test_toy_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
