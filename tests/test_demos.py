"""The demos run from a checkout and print their key results.

Each demo runs as a subprocess with ``PYTHONPATH=src``, as the README
runs it.  ``02_certificate.py`` is left out: it takes about 15 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Demo -> lines its output must contain.
DEMOS = {
    "01_special_angle.py": ["t = 1/2: tiles = True, defect = 0, pieces after merging = 1",
                            "generation 8: 1 interval(s): [0, 3/2]"],
    "03_dimension.py": ["dimension estimate 1 - s = ",
                        "64 intervals, min length"],
    "04_needle.py": ["400000 needle drops per generation, seed 1",
                     "hit rate at 2W:"],
    "05_counterexample.py": ["convex: False, first violation at k = 1"],
}


@pytest.mark.parametrize("demo", list(DEMOS))
def test_demo(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for line in DEMOS[demo]:
        assert line in proc.stdout
