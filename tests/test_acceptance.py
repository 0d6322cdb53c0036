"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
check is a hard assert at the stated tolerance; nothing is skipped or
weakened.  Shared heavy computations (quadrature values) are cached in
module-scope fixtures so the suite stays inside its runtime targets.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from oracles import union_measure
from favardlab.dimension import (
    DecayRecord,
    cover_stats,
    decay_series,
    exponent_fit,
    neighborhood_sequence,
    section_lattice,
)
from favardlab.favard import (
    alpha_sequence,
    check_convexity,
    favard,
    lipschitz_scan,
    lower_bound_certificate,
    special_slope_check,
)
from favardlab.ifs import IFS2D, Similitude2D, four_corner, preset
from favardlab.intervals import IntervalSet
from favardlab.needle import NeedleConfig, estimate_favard_mc
from favardlab.projection import Direction, generation

ATAN_HALF = math.atan(0.5)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def fc():
    return four_corner()


@pytest.fixture(scope="module")
def quad_values(fc):
    # n -> FavardEstimate, shared by criteria 3, 4 and 9
    return {n: favard(fc, n) for n in range(9)}


def test_criterion_01_special_angle_tiling(fc):
    t0 = time.perf_counter()
    rep = special_slope_check(fc, Fraction(1, 2))
    d = Direction("x", Fraction(1, 2))
    target = IntervalSet.from_intervals([(Fraction(0), Fraction(3, 2))])
    tiled = []
    for n in range(9):
        gen = generation(fc, d, n)
        tiled.append(gen == target)
    elapsed = time.perf_counter() - t0
    ok = (rep.defect == 0 and rep.tiles and all(tiled) and elapsed < 1.0)
    report(1, "special-angle-tiling", ok,
           f"defect {rep.defect}, n<=8 single interval, {elapsed:.2f}s")
    assert rep.defect == 0
    assert rep.tiles
    assert all(tiled)
    assert elapsed < 1.0


def test_criterion_02_exact_convexity(fc):
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    violations = 0
    checked = 0
    while checked < 200:
        num = rng.randint(-50, 50)
        den = rng.randint(1, 50)
        t = Fraction(num, den)
        d = Direction("x", t) if abs(t) <= 1 else Direction("y", 1 / t)
        seq = alpha_sequence(fc, d, 8, backend="exact")
        rep = check_convexity(seq)
        assert rep.exact
        if not rep.convex:
            violations += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    report(2, "exact-convexity-depth-8", ok,
           f"200 slopes, {violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 120.0


def test_criterion_03_closed_form_favard(quad_values):
    est = quad_values[0]
    ok = est.converged and abs(est.value - 8.0) <= 1e-4
    report(3, "favard-n0-closed-form", ok,
           f"{est.value:.8f} vs 8, err bar {est.error:.1e}")
    assert est.converged
    assert abs(est.value - 8.0) <= 1e-4


def test_criterion_04_corollary_bound(fc, quad_values):
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 9):
        cert = lower_bound_certificate(fc, n)
        est = quad_values[n]
        bound = 1.0 / (40 * n)
        if not cert.passed:
            failures.append(f"certificate n={n}")
        if est.value < bound - est.error:
            failures.append(f"favard n={n} {est.value:.6f} < {bound:.6f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    report(4, "certified-1-over-40n", ok,
           failures[0] if failures else f"n=1..8 certified, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 600.0


def test_criterion_05_lipschitz_scan(fc):
    rep = lipschitz_scan(fc, nodes=10_000)
    near = [z for z in rep.zeros if abs(z - ATAN_HALF) <= 1e-3]
    ok = rep.sup_slope <= 10.5 and bool(near)
    report(5, "lipschitz-evidence", ok,
           f"sup slope {rep.sup_slope:.3f}, zero at "
           f"{near[0]:.5f}" if near else
           f"sup slope {rep.sup_slope:.3f}, no zero near {ATAN_HALF:.5f}")
    assert rep.sup_slope <= 10.5
    assert near, rep.zeros


def test_criterion_06_lattice_counterexample():
    seq = neighborhood_sequence(section_lattice(), 4, 4)
    values = [m for _, m in seq]
    expected = [Fraction(102), Fraction(201, 2), Fraction(401, 8),
                Fraction(401, 32), Fraction(401, 128)]
    rep = check_convexity(values)
    k1 = dict(rep.margins)[1]
    # second-difference margin -391/8; the same violation in midpoint
    # form (a1 - (a0+a2)/2) is 391/16
    midpoint_excess = values[1] - (values[0] + values[2]) / 2
    ok = (values == expected and not rep.convex
          and rep.first_violation == 1 and k1 == Fraction(-391, 8)
          and midpoint_excess == Fraction(391, 16))
    report(6, "lattice-counterexample", ok,
           f"margin k=1 {k1}, midpoint excess {midpoint_excess}")
    assert values == expected
    assert not rep.convex
    assert rep.first_violation == 1
    assert k1 == Fraction(-391, 8)
    assert midpoint_excess == Fraction(391, 16)


def test_criterion_07_dimension_pipeline():
    sc = preset("sparse-corner(8)")
    scales = [Fraction(8) ** -k for k in range(3, 7)]
    fit = exponent_fit(decay_series(sc, scales))
    synthetic = [DecayRecord(2.0 ** -k, 3.0 * (2.0 ** -k) ** (1 / 3), k)
                 for k in range(2, 9)]
    syn = exponent_fit(synthetic)
    ok = (0.28 <= fit.s <= 0.40 and abs(fit.dim_bound - 2 / 3) <= 0.05
          and abs(syn.s - 1 / 3) <= 1e-6 and syn.residual < 1e-6)
    report(7, "dimension-pipeline", ok,
           f"s={fit.s:.4f}, bound {fit.dim_bound:.4f} vs 2/3, "
           f"synthetic residual {syn.residual:.1e}")
    assert 0.28 <= fit.s <= 0.40
    assert abs(fit.dim_bound - 2 / 3) <= 0.05
    assert abs(syn.s - 1 / 3) <= 1e-6
    assert syn.residual < 1e-6


def test_criterion_08_cover_machinery(fc):
    d = Direction("x", Fraction(0))
    bad = []
    for n in range(2, 9):
        r = Fraction(1, 2) * Fraction(4) ** -n
        stats = cover_stats(fc, d, r, (Fraction(1, 2),))
        hs = stats.holder_sums[Fraction(1, 2)]
        if stats.count != 2 ** n:
            bad.append(f"count n={n}")
        if stats.min_length != 2.0 * 0.25 ** n or stats.min_length < 2 * r:
            bad.append(f"min_length n={n}")
        if abs(hs - math.sqrt(2)) > 1e-12:
            bad.append(f"holder n={n}: {hs!r}")
    ok = not bad
    report(8, "cover-machinery", ok,
           bad[0] if bad else "n=2..8: count 2^n, floor 2*4^-n, sum sqrt(2)")
    assert not bad, bad


def test_criterion_09_needle_oracle(fc, quad_values):
    cfg = NeedleConfig(trials=10 ** 6, seed=20260816, generation=2)
    est = estimate_favard_mc(fc, cfg)
    quad = quad_values[2]
    gap = abs(est.estimate - quad.value)
    again = estimate_favard_mc(fc, cfg)
    identical = (again.estimate == est.estimate and again.hits == est.hits)
    ok = gap <= 3 * est.standard_error and identical
    report(9, "needle-vs-quadrature", ok,
           f"gap {gap:.5f} vs 3se {3 * est.standard_error:.5f}, "
           f"replay identical {identical}")
    assert gap <= 3 * est.standard_error
    assert identical


def test_criterion_10_monotonicity_suite(fc):
    systems = [fc, preset("sparse-corner(8)"), preset("sierpinski-gasket"),
               IFS2D("overlap-pair",
                     (Similitude2D.of(Fraction(1, 2), 0, 0),
                      Similitude2D.of(Fraction(1, 2), Fraction(1, 4), 0)),
                     (0, 0, 1, 1))]
    slopes = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
              Fraction(-2, 5), Fraction(7, 9)]
    mono_bad = []
    for ifs in systems:
        for chart in ("x", "y"):
            for t in slopes:
                seq = alpha_sequence(ifs, Direction(chart, t), 6,
                                     backend="exact")
                for n in range(6):
                    if seq.values[n + 1] > seq.values[n]:
                        mono_bad.append((ifs.name, chart, t, n))

    rng = random.Random(7)
    invariant_bad = 0
    for _ in range(10_000):
        k = rng.randint(1, 6)
        raw = []
        for _ in range(k):
            a = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
            b = a + Fraction(rng.randint(0, 40), rng.randint(1, 12))
            raw.append((a, b))
        s = IntervalSet.from_intervals(raw)
        if s.measure != union_measure(raw):
            invariant_bad += 1
            continue
        r = Fraction(rng.randint(1, 8), rng.randint(1, 16))
        grown = s.expand(r)
        lo = s.measure + 2 * r
        hi = s.measure + 2 * r * s.count
        if s.count and not (lo <= grown.measure <= hi):
            invariant_bad += 1
        if s.count and not grown.issuperset(s):
            invariant_bad += 1

    ok = not mono_bad and invariant_bad == 0
    report(10, "monotonicity-and-invariants", ok,
           f"{len(systems) * 2 * len(slopes)} alpha sequences, "
           f"10000 interval lists, {invariant_bad} invariant failures")
    assert not mono_bad, mono_bad[:3]
    assert invariant_bad == 0
