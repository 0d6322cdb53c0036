"""The four benchmark workloads: inputs from a seed, operations, output checks.

Each workload builds its inputs from the seed alone (the package only sees
the generated values), exposes a fixed list of operations that one pass
runs in order, and checks every result.  Functions of the package are
looked up on their module at call time, so the wrappers that the traced run
installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import favardlab
import favardlab.cli

# Exact Favard lengths of generations of the four-corner set, from
# closed-form integration of the piecewise-linear sheared shadow length.
FAVARD_REFERENCE = {1: 6.596737554, 2: 5.830402103, 3: 5.300861512}
# Room for the 9-digit rounding of the references above.
REFERENCE_SLACK = 1e-8
# Quadrature value of Fav(generation 6) and its error bar, the needle's target.
NEEDLE_REFERENCE = 4.28971
NEEDLE_REFERENCE_ERROR = 1.7e-4
NEEDLE_SIGMAS = 5

TILING_SLOPE = Fraction(1, 2)
SNAP_DENOMINATOR = 10 ** 6          # the package's slope snapping bound
SMALL_DENOMINATORS = range(3, 65, 2)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one operation: output checks, and whether it failed."""

    correct: bool
    failed: bool
    note: str = ""


def _random(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so inputs do not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random(f"{workload}/{seed}")


class Workload:
    name = ""
    # Input sets that passes rotate through; pass k runs variant k % variants.
    variants = 1

    def __init__(self):
        self.ops: list = []          # (label, zero-argument callable)
        self.variant = 0

    def begin_pass(self, number: int) -> None:
        self.variant = number % self.variants

    def warm_up(self) -> None:
        """One small call through the same code path, part of set-up."""

    def check(self, index: int, result) -> Verdict:
        raise NotImplementedError

    def finish(self) -> list:
        """Whole-run checks after the timed passes; returns problems."""
        return []

    def signature(self) -> dict:
        """Exact counts that must repeat on every run of the same seed."""
        return {}

    def extra_metrics(self) -> dict:
        return {}


class Quadrature(Workload):
    """favard(four_corner(), n) with the default QuadratureConfig.

    The inputs do not depend on the seed.  At n = 3 the package reports
    ``unconverged``; that counts as a failed operation.
    """

    name = "quadrature"

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__()
        self.ifs = favardlab.four_corner()
        self.ns = (1,) if toy else (2, 3)
        self.ops = [(f"favard n={n}", lambda n=n: favardlab.favard(self.ifs, n))
                    for n in self.ns]
        self.abs_err = 0.0

    def warm_up(self) -> None:
        favardlab.favard(self.ifs, 1, favardlab.QuadratureConfig(max_refinements=1))

    def check(self, index, est) -> Verdict:
        err = abs(est.value - FAVARD_REFERENCE[est.n])
        self.abs_err = max(self.abs_err, err)
        within = err <= est.error + REFERENCE_SLACK
        note = "" if within else (
            f"n={est.n}: |{est.value!r} - {FAVARD_REFERENCE[est.n]}| = {err:.3e} "
            f"exceeds the reported error {est.error:.3e}")
        if within and not est.converged:
            note = f"n={est.n}: {est.status}"
        return Verdict(within, not within or not est.converged, note)

    def extra_metrics(self) -> dict:
        return {"abs_err": self.abs_err}


def _stratified_slopes(rng: random.Random, strata: int) -> list:
    """One slope per stratum [j/K, (j+1)/K) of |slope|, random sign.

    Even strata take a small odd denominator (<= 63, so never the tiling
    slope 1/2), odd strata the snapping bound 10^6.  Charts alternate in
    pairs so both classes appear in both charts.
    """
    out = []
    for j in range(strata):
        x = (j + rng.random()) / strata
        if j % 2 == 0:
            q = rng.choice(SMALL_DENOMINATORS)
            slope = Fraction(round(x * q), q)
        else:
            slope = Fraction(x).limit_denominator(SNAP_DENOMINATOR)
        sign = rng.choice((-1, 1))
        out.append(("xy"[(j // 2) % 2], sign * slope))
    return out


def _window_slope(rng: random.Random, depth: int) -> Fraction:
    """A slope inside the upper half of the certificate window at ``depth``.

    The window has angular half-width 1/(40 n) around the tiling direction;
    its upper half holds the largest merged sets, so this operation sets
    the memory peak of every pass.
    """
    center = math.atan(float(TILING_SLOPE))
    theta = center + (1.0 - rng.random()) / (40 * depth)
    return Fraction(math.tan(theta)).limit_denominator(SNAP_DENOMINATOR)


def _functional(chart: str, slope: Fraction, x: Fraction, y: Fraction) -> Fraction:
    return x + slope * y if chart == "x" else y + slope * x


def _union_length(intervals: list) -> Fraction:
    intervals.sort()
    total = Fraction(0)
    lo, hi = intervals[0]
    for a, b in intervals[1:]:
        if a > hi:
            total += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
    return total + (hi - lo)


def brute_force_shadows(ifs, chart: str, slope: Fraction, depth: int) -> list:
    """Sheared shadow lengths of generations 0..depth by cylinder enumeration.

    Every cylinder z -> s*z + o of the system maps the base rectangle to a
    rectangle whose shadow is the hull of its four projected corners; the
    generation's shadow is the union of those hulls.  Independent of the
    package's merged-set engine.
    """
    x0, y0, x1, y1 = ifs.base
    cylinders = [(Fraction(0), Fraction(0), Fraction(1))]
    lengths = []
    for _ in range(depth + 1):
        hulls = []
        for ox, oy, s in cylinders:
            corners = [_functional(chart, slope, ox + s * x, oy + s * y)
                       for x in (x0, x1) for y in (y0, y1)]
            hulls.append((min(corners), max(corners)))
        lengths.append(_union_length(hulls))
        cylinders = [(ox + s * m.translation[0], oy + s * m.translation[1],
                      s * m.ratio)
                     for ox, oy, s in cylinders for m in ifs.maps]
    return lengths


class ExactDeep(Workload):
    """alpha_sequence(..., backend="exact") then check_convexity.

    One operation per seeded slope: stratified over |slope| in [0, 1) in
    both charts, half with denominators <= 63 and half up to 10^6, plus one
    slope in the certificate window next to the tiling slope 1/2.
    """

    name = "exact-deep"
    BRUTE_FORCE_DEPTH = 5

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__()
        rng = _random(self.name, seed)
        self.ifs = favardlab.four_corner()
        self.depth = 6 if toy else 12
        slopes = _stratified_slopes(rng, 4 if toy else 32)
        slopes.append(("x", _window_slope(rng, self.depth)))
        self.directions = [favardlab.Direction(c, s) for c, s in slopes]
        self.ops = [(d.label(), lambda d=d: self._run(d)) for d in self.directions]
        self.first_values = None

    def _run(self, d):
        seq = favardlab.alpha_sequence(self.ifs, d, self.depth, backend="exact")
        return seq, favardlab.check_convexity(seq)

    def warm_up(self) -> None:
        d = self.directions[0]
        favardlab.check_convexity(favardlab.alpha_sequence(self.ifs, d, 4))

    def check(self, index, result) -> Verdict:
        seq, report = result
        d = self.directions[index]
        problems = []
        if len(seq.values) != self.depth + 1:
            problems.append(f"{len(seq.values)} values for depth {self.depth}")
        if not (report.exact and report.nonincreasing and report.convex):
            problems.append(f"not exact/nonincreasing/convex "
                            f"(first violation {report.first_violation})")
        # Base is the unit square: its sheared shadow has width 1 + |slope|.
        if seq.values[0] != 1 + abs(d.slope):
            problems.append(f"alpha_0 = {seq.values[0]} != 1 + |{d.slope}|")
        if index == 0:
            self.first_values = seq.values
        note = f"{d.label()}: " + "; ".join(problems) if problems else ""
        return Verdict(not problems, bool(problems), note)

    def finish(self) -> list:
        if self.first_values is None:
            return ["first operation produced no values"]
        d = self.directions[0]
        depth = min(self.BRUTE_FORCE_DEPTH, self.depth)
        expected = brute_force_shadows(self.ifs, d.chart, d.slope, depth)
        got = list(self.first_values[:depth + 1])
        if got != expected:
            return [f"{d.label()}: engine {got} != cylinder enumeration {expected}"]
        return []


class Needle(Workload):
    """estimate_favard_mc(four_corner(), NeedleConfig(trials, seed_i, 6))."""

    name = "needle"
    GENERATION = 6
    CALLS = 2

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__()
        rng = _random(self.name, seed)
        self.ifs = favardlab.four_corner()
        trials = 2_000 if toy else 20_000
        self.configs = [favardlab.NeedleConfig(trials, rng.getrandbits(63),
                                               self.GENERATION)
                        for _ in range(self.CALLS)]
        self.ops = [(f"needle seed={c.seed}",
                     lambda c=c: favardlab.estimate_favard_mc(self.ifs, c))
                    for c in self.configs]
        self.hits: dict = {}

    def warm_up(self) -> None:
        favardlab.estimate_favard_mc(
            self.ifs, favardlab.NeedleConfig(1_000, self.configs[0].seed,
                                             self.GENERATION))

    def check(self, index, est) -> Verdict:
        problems = []
        first = self.hits.setdefault(index, est.hits)
        if est.hits != first:
            problems.append(f"replay gave {est.hits} hits, first run {first}")
        bar = NEEDLE_SIGMAS * est.standard_error + NEEDLE_REFERENCE_ERROR
        if abs(est.estimate - NEEDLE_REFERENCE) > bar:
            problems.append(f"estimate {est.estimate:.5f} is more than "
                            f"{NEEDLE_SIGMAS} standard errors from "
                            f"{NEEDLE_REFERENCE}")
        note = f"seed {est.seed}: " + "; ".join(problems) if problems else ""
        return Verdict(not problems, bool(problems), note)

    def finish(self) -> list:
        # Passes replay every operation already; replay the first once more
        # so that a run with a single pass is checked too.
        replay = favardlab.estimate_favard_mc(self.ifs, self.configs[0])
        if replay.hits != self.hits.get(0):
            return [f"replay of seed {self.configs[0].seed} gave {replay.hits} "
                    f"hits, first run {self.hits.get(0)}"]
        return []

    def signature(self) -> dict:
        return {"needle.hits": [self.hits.get(i) for i in range(len(self.ops))]}


@dataclass(frozen=True)
class _Command:
    name: str
    argv: list
    out: Path
    expect: tuple           # substrings the printed line must contain
    rows: dict              # CSV file -> expected data rows (int or printed-count regex)


def _csv_rows(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh) - 1


def _cli_slopes(rng: random.Random, count: int) -> list:
    """``count`` slopes stratified over [0.30, 0.33], denominators up to 10^4.

    The number of generation intervals up to depth 9 changes tenfold
    across all slopes, and still by about 11% (interquartile range) between
    single slopes inside this band.  Passes rotate through the slopes, so
    the median pass covers all of them and the size of a run stays steady
    between seeds while every exact input still changes with the seed.
    """
    return [Fraction(0.30 + 0.03 * (j + rng.random()) / count)
            .limit_denominator(10 ** 4) for j in range(count)]


class CliSession(Workload):
    """favardlab.cli.main in-process on a fixed script writing to --out.

    Pass k runs the script at the seeded slope k % variants.
    """

    name = "cli-session"
    variants = 8

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__()
        rng = _random(self.name, seed)
        self.workdir = workdir
        self.toy = toy
        self.scripts = [self._script(favardlab.rational_str(t))
                        for t in _cli_slopes(rng, self.variants)]
        self.ops = [(c.name, lambda i=i: self._run(self.scripts[self.variant][i]))
                    for i, c in enumerate(self.scripts[0])]

    def _script(self, t: str) -> list:
        fc = ["--preset", "four-corner"]
        depth = 5 if self.toy else 9
        radius = "1/256" if self.toy else "1/65536"
        cert_n = "2" if self.toy else "8"
        dim_max = "5" if self.toy else "6"
        pieces = r"(\d+) pieces"

        def cmd(name, argv, expect=(), rows=None):
            out = self.workdir / name
            return _Command(name, [*argv, "--out", str(out)], out, tuple(expect),
                            rows or {})

        return [
            cmd("alpha", ["alpha", *fc, "--slope", t, "--depth", str(depth),
                          "--backend", "exact", "--generations"],
                [f"n=0..{depth}"], {"alpha.csv": depth + 1}),
            cmd("cover", ["cover", *fc, "--slope", t, "--radius", radius,
                          "--intervals"],
                ["floor>=2r True"], {"intervals.csv": pieces}),
            cmd("convexity", ["convexity", *fc, "--slope", t],
                ["convex (theorem applies)"],
                {"alpha.csv": 9, "convexity.csv": 7}),
            cmd("certificate", ["certificate", *fc, "--n", cert_n],
                ["PASS"], {"certificate.csv": r"\((\d+) slopes\)"}),
            cmd("dimension", ["dimension", "--preset", "sparse-corner(8)",
                              "--depth-max", dim_max],
                [], {"decay.csv": r"over (\d+) scales"}),
            cmd("lattice", ["counterexample"],
                ["NOT convex (first violation k=1)"], {"neighborhood.csv": 5}),
            cmd("seesaw", ["counterexample", "--seesaw", "0,1/4,5;20,1/64,3"],
                ["NOT convex"], {"neighborhood.csv": 5}),
            cmd("special-angle", ["special-angle", *fc, "--slope", "1/2"],
                ["generation 1 tiles"]),
            cmd("validate", ["validate", *fc],
                ["convexity applies", "nesting ok"]),
        ]

    @staticmethod
    def _run(command: _Command):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = favardlab.cli.main(list(command.argv))
        return code, buf.getvalue()

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            favardlab.cli.main(["validate", "--preset", "four-corner"])

    def check(self, index, result) -> Verdict:
        command = self.scripts[self.variant][index]
        code, text = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        problems += [f"output lacks {s!r}" for s in command.expect if s not in text]
        jsons = sorted(command.out.glob("*.json"))
        if not jsons:
            problems.append("no JSON output")
        for path in jsons:
            try:
                json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"{path.name} does not parse: {exc}")
        for name, want in command.rows.items():
            if isinstance(want, str):
                m = re.search(want, text)
                if not m:
                    problems.append(f"no printed count for {name}")
                    continue
                want = int(m.group(1))
            try:
                got = _csv_rows(command.out / name)
            except OSError as exc:
                problems.append(f"{name}: {exc}")
                continue
            if got != want:
                problems.append(f"{name} has {got} rows, expected {want}")
        # Start the next pass from an empty directory.
        shutil.rmtree(command.out, ignore_errors=True)
        note = f"{command.name}: " + "; ".join(problems) if problems else ""
        return Verdict(not problems, bool(problems), note)


WORKLOADS = {w.name: w for w in (Quadrature, ExactDeep, Needle, CliSession)}


def build(name: str, seed: int, toy: bool, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, toy, workdir)
