"""Toy-size runs of benchmark workloads, so the harness cannot rot.

The exact-deep run also checks the exact engine end to end: convexity and
monotonicity of every sequence, and a cylinder brute force at depth 5.
The traced runs patch every function the tracer names, so renaming or
deleting one fails here rather than in the benchmark.
Each run writes its record under perfbench/out/, which git ignores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# Workload -> --trace value.
TOY_RUNS = {"needle": 0, "exact-deep": 0, "quadrature": 1, "cli-session": 1}


@pytest.mark.parametrize("workload", list(TOY_RUNS))
def test_toy_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(TOY_RUNS[workload]),
         "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    if workload == "quadrature":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # every quadrature pass is one sheared_measures call, and
        # the tracer's node_evals counts those calls
        assert metrics["favard.favard.node_evals"] > 0
        assert metrics["favard.favard.node_evals"] == \
            metrics["projection.sheared_measures.calls"]
