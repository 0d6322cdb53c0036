"""Closed-loop benchmark of favardlab, end to end and per layer.

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  One caller in one process runs the
workload's fixed operation list pass after pass, each operation starting
when the previous one returns, with BLAS and the package limited to one
thread.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record, with the
machine facts and sample counts, goes to ``perfbench/out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Before numpy is imported, by this process and by the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["FAVARD_LAB_THREADS"] = "0"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("quadrature", "exact-deep", "needle", "cli-session")
# Not used while the benchmark or a change is written; a change that claims
# a gain confirms it on this seed too.
HELD_OUT_SEED = 7211
SETUP_SAMPLES = 5           # this process plus four fresh probe processes
PROBE_TIMEOUT_S = 60
MIN_PASSES = 3              # untraced passes; a traced run needs 2 of each kind
TAIL_BEYOND = 10            # samples beyond the reported tail percentile


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy-size inputs, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(args, workdir: Path):
    """Import favardlab, build presets and inputs, make the warm-up call."""
    start = perf_counter()
    workloads = importlib.import_module("workloads")
    wl = workloads.build(args.workload, args.seed, args.toy, workdir)
    wl.warm_up()
    return wl, perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--toy"] if args.toy else [])
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list = []

    def add(self, correct: bool, failed: bool, note: str) -> None:
        self.attempted += 1
        self.failed += failed
        self.correct &= correct
        if note and note not in self.notes:
            self.notes.append(note)


def one_pass(wl, tally: Tally, tracer=None) -> float:
    """Run every operation once; returns the summed operation wall time."""
    busy = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for i, (label, fn) in enumerate(wl.ops):
            start = perf_counter()
            try:
                result = fn() if tracer is None else tracer.operation(fn)
            except Exception as exc:  # an operation that raises counts as failed
                busy += perf_counter() - start
                tally.add(False, True, f"{label}: raised {exc!r}")
                continue
            busy += perf_counter() - start
            verdict = wl.check(i, result)
            tally.add(verdict.correct, verdict.failed, verdict.note)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return busy


def run_passes(wl, seconds: float, tally: Tally, tracer=None):
    """Passes until the next would end after ``seconds``; traced ones alternate.

    Returns the untraced and traced pass times and, per input variant, the
    per-pass layer counts of every traced pass of that variant.
    """
    plain, traced, signatures = [], [], {}
    start = perf_counter()
    while True:
        use_tracer = tracer is not None and len(plain) > len(traced)
        wl.begin_pass(len(plain) + len(traced))
        if use_tracer:
            before = tracer.counts()
            traced.append(one_pass(wl, tally, tracer))
            after = tracer.counts()
            signatures.setdefault(wl.variant, []).append(
                {k: v - before.get(k, 0) for k, v in after.items()
                 if v != before.get(k, 0)})
        else:
            plain.append(one_pass(wl, tally))
        elapsed = perf_counter() - start
        last = (traced if use_tracer else plain)[-1]
        enough = (len(plain) >= 2 and len(traced) >= 2) if tracer is not None \
            else len(plain) >= MIN_PASSES
        if enough and elapsed + last > seconds:
            return plain, traced, signatures


def summarize(samples: list) -> dict:
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered),
               "min": ordered[0], "max": ordered[-1]}
    if n >= 2 * TAIL_BEYOND:
        summary[f"p{100 * (n - TAIL_BEYOND) // n}"] = ordered[n - TAIL_BEYOND - 1]
    return summary


def machine_facts() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def code_fingerprint() -> str:
    """Hash of the package and benchmark sources, so that stored counts are
    only compared between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "favardlab").rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_signature(key: str, signature: dict) -> list:
    """Compare exact counts with the last run of the same seed and code,
    then store them."""
    path = OUT / "counts.json"
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    problems = []
    previous = known.get(key, {})
    for name, value in signature.items():
        if name in previous and previous[name] != value:
            problems.append(f"{name} = {value}, earlier run of this seed "
                            f"gave {previous[name]}")
    known[key] = {**previous, **signature}
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "favardlab" / "__init__.py").is_file():
        print(f"error: no favardlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"

    wl, setup = timed_setup(args, workdir)
    import favardlab
    if Path(favardlab.__file__).resolve().parent != SRC / "favardlab":
        print(f"error: imported favardlab from {favardlab.__file__}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup))
        return 0

    setups = [setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    try:
        plain, traced, signatures = run_passes(wl, args.seconds, tally, tracer)
        problems = wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    signature = dict(wl.signature())
    for variant, passes in sorted(signatures.items()):
        if any(s != passes[0] for s in passes[1:]):
            problems.append("per-pass layer counts differ between traced "
                            f"passes of input variant {variant}")
        prefix = f"variant{variant}." if wl.variants > 1 else ""
        signature.update({prefix + k: v for k, v in passes[0].items()})
    size = "toy" if args.toy else "full"
    problems += check_signature(
        f"{args.workload}/{args.seed}/{size}/{code_fingerprint()}", signature)
    tally.notes += problems
    correct = tally.correct and not problems

    pass_plain = summarize(plain)
    extra = wl.extra_metrics()
    fail_ratio = tally.failed / tally.attempted
    if args.trace:
        layers = tracing.layer_metrics(tracer.stats, len(traced))
        pass_traced = summarize(traced)
        layers["trace.pass_s"] = (pass_traced["median"], "s")
        layers["trace.overhead_s"] = (pass_traced["median"] - pass_plain["median"], "s")
        layers["fail_ratio"] = (fail_ratio, "ratio")
        layers["abs_err"] = (extra.get("abs_err", 0.0), "1")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.write_spans(OUT / f"spans-{args.workload}.csv")
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "pass_s": {"value": pass_plain["median"], "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
        "operations_per_pass": len(wl.ops), "machine": machine_facts(),
        "setup_s": {"samples": setups, "n": len(setups)},
        "pass_s": pass_plain,
        "traced_pass_s": summarize(traced) if traced else None,
        "fail_ratio": fail_ratio, **extra, "peak_rss_mb": peak_rss_mb,
        "signature": signature, "notes": tally.notes,
        "result": {"correct": correct, "attempted": tally.attempted,
                   "failed": tally.failed, "metrics": metrics},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for note in tally.notes:
        print(f"note: {note}")
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"{args.workload} seed {args.seed}: {pass_plain['n']} passes of "
          f"{len(wl.ops)} operations, pass median {pass_plain['median']:.4f} s, "
          f"setup median {statistics.median(setups):.4f} s of {len(setups)}, "
          f"fail_ratio {tally.failed}/{tally.attempted}"
          + (f", abs_err {extra['abs_err']:.3e}" if "abs_err" in extra else ""))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
