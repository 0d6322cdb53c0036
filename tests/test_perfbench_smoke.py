"""Toy-size run of the benchmark's needle workload, so the harness cannot rot.

The run writes its record under perfbench/out/, which git ignores.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_needle_toy_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "needle",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
