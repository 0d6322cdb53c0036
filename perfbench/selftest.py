"""Toy-size self-run of all four workloads, traced and untraced.

    python3 perfbench/selftest.py

Checks that every run exits 0 with a correct result whose metrics are
exactly the ones BENCHMARK.json lists, that the traced runs show the
workloads isolated from each other's layers, and that the benchmark exits
non-zero without a result where the package sources are missing.  Takes
about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 180

# (workload, layer metric) pairs that must read 0 in a traced run.
ISOLATION = [
    ("quadrature", "intervals.merge_int64_arrays.calls"),
    ("needle", "intervals.merge_int64_arrays.calls"),
    ("exact-deep", "intervals.merge_float_arrays.calls"),
    ("exact-deep", "intervals._merge_scaled.calls"),
] + [(w, "needle.estimate_favard_mc.self_s")
     for w in ("quadrature", "exact-deep", "cli-session")]


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=TIMEOUT_S)


def check_result(workload: str, trace: int, problems: list) -> dict:
    done = run(workload, trace)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        problems.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
        return {}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(want))}")
    if not trace and any(v["value"] <= 0 for v in result["metrics"].values()):
        problems.append(f"{where}: an end-to-end metric is not positive")
    return result["metrics"]


def check_bare_directory(problems: list) -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run("quadrature", 0, cwd=bare)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        if done.returncode == 0 or last[0].startswith("{"):
            problems.append("bare directory: expected a non-zero exit "
                            "and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list = []
    traced = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0, problems)
        traced[workload] = check_result(workload, 1, problems)
    for workload, metric in ISOLATION:
        value = traced[workload].get(metric, {}).get("value")
        if value != 0:
            problems.append(f"{workload}: {metric} = {value}, expected 0")
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
