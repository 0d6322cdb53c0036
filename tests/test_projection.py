import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from favardlab import intervals, projection
from favardlab.errors import SizeCapExceeded
from favardlab.favard import QuadratureConfig, alpha_sequence, favard
from favardlab.ifs import (
    IFS2D,
    Similitude2D,
    four_corner,
    sierpinski_gasket,
    sparse_corner,
)
from favardlab.intervals import MERGE_EPSILON, IntervalSet, merge_float_arrays
from favardlab.projection import (
    Direction,
    DirectionBatch,
    ProjectedIFS1D,
    _ExactEngine,
    _float_walk,
    _merge_images,
    generation,
    iter_generations,
    neighborhood_lengths,
    project_ifs,
    projected_lengths,
    sheared_measures,
)

from oracles import (
    cylinder_generation,
    exact_step_reference,
    float_generations_reference,
    project_square_ifs,
)

slopes = st.fractions(min_value=-1, max_value=1, max_denominator=12)


def _ifs_as_tuples(ifs):
    return [(m.ratio, m.translation) for m in ifs.maps]


class TestDirection:
    def test_chart_validation(self):
        with pytest.raises(ValueError):
            Direction("z", Fraction(0))
        with pytest.raises(ValueError):
            Direction("x", Fraction(3, 2))

    def test_angle_and_scale(self):
        d = Direction("x", Fraction(1))
        assert d.angle == pytest.approx(math.pi / 4)
        assert d.scale == pytest.approx(1 / math.sqrt(2))
        dy = Direction("y", Fraction(0))
        assert dy.angle == pytest.approx(math.pi / 2)
        assert dy.scale == 1.0

    def test_shear_norm_sq_exact(self):
        d = Direction("x", Fraction(1, 2))
        assert d.shear_norm_sq == Fraction(5, 4)
        assert d.scale ** 2 == pytest.approx(float(1 / d.shear_norm_sq))

    def test_functional(self):
        d = Direction("x", Fraction(1, 2))
        assert d.functional(Fraction(3, 4), Fraction(1, 2)) == 1
        dy = Direction("y", Fraction(1, 3))
        assert dy.functional(Fraction(3), Fraction(1)) == 2

    def test_from_angle_reduces_mod_pi(self):
        for theta, chart in ((0.1, "x"), (1.0, "y"), (2.0, "y"),
                             (-0.3, "x"), (3.3, "x"), (math.pi / 2, "y")):
            d = Direction.from_angle(theta)
            assert d.chart == chart
            want = math.fmod(theta, math.pi)
            if want < -math.pi / 4:
                want += math.pi
            elif want >= 3 * math.pi / 4:
                want -= math.pi
            assert d.angle == pytest.approx(want, abs=2e-6)

    def test_from_angle_matches_scalar_reduction(self):
        # the scalar reduction from_angle made before it became a batch of
        # one, on the certificate's 64-slope grids and on seeded angles
        def reference(theta):
            q = math.pi / 4
            t = math.fmod(theta, math.pi)
            if t < -q:
                t += math.pi
            elif t >= 3 * q:
                t -= math.pi
            chart = "x" if -q <= t <= q else "y"
            if chart == "y":
                t = math.pi / 2 - t
            slope = Fraction(math.tan(t)).limit_denominator(
                projection.DEFAULT_SLOPE_DENOMINATOR)
            return Direction(chart, min(max(slope, Fraction(-1)), Fraction(1)))

        centre = math.atan(0.5)
        thetas = [float(t) for n in range(1, 9) for t in np.linspace(
            centre - 1 / (40 * n), centre + 1 / (40 * n), 64)]
        rng = random.Random(17)
        thetas += [rng.uniform(-10, 10) for _ in range(2000)]
        for theta in thetas:
            assert Direction.from_angle(theta) == reference(theta), theta

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_from_angle_rejects_non_finite(self, theta):
        with pytest.raises(ValueError, match=f"angle must be finite, got {theta}"):
            Direction.from_angle(theta)

    @given(slopes)
    def test_from_angle_recovers_exact_slopes(self, t):
        d = Direction.from_angle(math.atan(float(t)))
        assert d.chart == "x"
        assert abs(float(d.slope) - float(t)) < 1e-6

    def test_label(self):
        assert Direction("x", Fraction(1, 2)).label() == "x:1/2"

    def test_from_slope_switches_chart_when_steep(self):
        assert Direction.from_slope("1/2") == Direction("x", Fraction(1, 2))
        assert Direction.from_slope(-1, "y") == Direction("y", Fraction(-1))
        # x + 2y = 2(y + x/2) and y + 2x = 2(x + y/2)
        assert Direction.from_slope(2) == Direction("y", Fraction(1, 2))
        assert Direction.from_slope(2, "y") == Direction("x", Fraction(1, 2))
        assert Direction.from_slope("-5/2", "y") == Direction("x", Fraction(-2, 5))
        with pytest.raises(ValueError):
            Direction.from_slope(2, "z")


class TestProject:
    def test_four_corner_half_slope(self):
        proj = project_ifs(four_corner(), Direction("x", Fraction(1, 2)))
        assert proj.base == (Fraction(0), Fraction(3, 2))
        assert sorted(c for _, c in proj.maps) == [
            Fraction(0), Fraction(3, 8), Fraction(3, 4), Fraction(9, 8)]

    def test_negative_slope_base(self):
        proj = project_ifs(four_corner(), Direction("x", Fraction(-1, 2)))
        assert proj.base == (Fraction(-1, 2), Fraction(1))

    def test_chart_y_matches_transpose(self):
        # chart y at slope u projects like chart x on the transposed system;
        # the four-corner set is symmetric, so bases and offsets agree
        u = Fraction(1, 3)
        px = project_ifs(four_corner(), Direction("x", u))
        py = project_ifs(four_corner(), Direction("y", u))
        assert px.base == py.base
        assert sorted(px.maps) == sorted(py.maps)


class TestGenerationEngine:
    @given(slopes, st.sampled_from(["x", "y"]), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_cylinder_oracle_four_corner(self, t, chart, n):
        ifs = four_corner()
        d = Direction(chart, t)
        got = generation(ifs, d, n)
        maps1d, base = project_square_ifs(_ifs_as_tuples(ifs), ifs.base,
                                          chart, t)
        want = cylinder_generation(maps1d, base, n)
        assert [(iv.lo, iv.hi) for iv in got.intervals] == want

    @given(slopes, st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_cylinder_oracle_gasket(self, t, n):
        ifs = sierpinski_gasket()
        d = Direction("x", t)
        got = generation(ifs, d, n)
        maps1d, base = project_square_ifs(_ifs_as_tuples(ifs), ifs.base,
                                          "x", t)
        want = cylinder_generation(maps1d, base, n)
        assert [(iv.lo, iv.hi) for iv in got.intervals] == want

    def test_iter_matches_one_shot(self):
        ifs = sparse_corner(5)
        d = Direction("x", Fraction(2, 7))
        gens = list(iter_generations(ifs, d, 5))
        assert len(gens) == 6
        for n, g in enumerate(gens):
            assert g == generation(ifs, d, n)

    def test_nested_generations(self):
        ifs = four_corner()
        d = Direction("x", Fraction(3, 7))
        gens = list(iter_generations(ifs, d, 6))
        for a, b in zip(gens, gens[1:]):
            assert a.issuperset(b)

    def test_float_tracks_exact(self):
        # a one-row batch at the float slope follows the exact engine
        ifs = four_corner()
        for t in (Fraction(0), Fraction(1, 3), Fraction(4, 5), Fraction(-1, 2)):
            ex = sheared_measures(ifs, Direction("x", t), 7)
            batch = DirectionBatch(np.array([False]), np.array([float(t)]))
            fl = sheared_measures(ifs, batch, 7)[:, 0]
            for e, f in zip(ex, fl):
                assert f == pytest.approx(float(e), abs=1e-9)

    def test_size_cap(self, monkeypatch):
        ifs = four_corner()
        d = Direction("x", Fraction(355, 452))
        monkeypatch.setattr(projection, "MAX_COUNT", 10)
        with pytest.raises(SizeCapExceeded):
            generation(ifs, d, 8)

    def test_negative_generation_rejected(self):
        ifs = four_corner()
        d = Direction("x", Fraction(0))
        with pytest.raises(ValueError):
            generation(ifs, d, -1)
        with pytest.raises(ValueError):
            list(iter_generations(ifs, d, -1))
        with pytest.raises(ValueError):
            sheared_measures(ifs, d, -1)
        with pytest.raises(ValueError):
            sheared_measures(ifs, DirectionBatch(np.array([False]),
                                                 np.array([0.0])), -1)

    def test_unknown_backend(self):
        ifs = four_corner()
        d = Direction("x", Fraction(0))
        with pytest.raises(ValueError):
            alpha_sequence(ifs, d, 1, backend="decimal")
        # a Direction is answered exactly: float angles go through
        # projected_lengths, not alpha_sequence
        with pytest.raises(ValueError, match="unknown backend 'float'"):
            alpha_sequence(ifs, d, 1, backend="float")

    def test_bigint_fallback_matches_oracle(self):
        # a slope with a large denominator forces denominators past the
        # int64 window within a few steps
        ifs = four_corner()
        t = Fraction(999_999_937, 10 ** 9)
        d = Direction("x", t)
        got = generation(ifs, d, 3)
        maps1d, base = project_square_ifs(_ifs_as_tuples(ifs), ifs.base,
                                          "x", t)
        want = cylinder_generation(maps1d, base, 3)
        assert [(iv.lo, iv.hi) for iv in got.intervals] == want


def _python_measure(eng):
    """|E_n| of the engine's materialized endpoints, summed in Python ints."""
    return Fraction(sum(eng.hi.tolist()) - sum(eng.lo.tolist()), eng.den)


def _engine_vs_reference(proj, steps):
    """Step the exact engine and check (den, lo, hi) against the re-sorting
    reference after every step, the carried measure against the Python sum
    of the endpoints, the dtype of the path the reference took (int64, or
    object arrays of Python ints), and that the endpoints own their buffers
    (no view keeps a larger array alive); returns the int64/bigint path of
    each."""
    eng = _ExactEngine(proj)
    assert eng.measure == _python_measure(eng)
    paths = []
    for _ in range(steps):
        den, lo, hi, int64 = exact_step_reference(eng.den, eng.lo, eng.hi,
                                                  proj.maps)
        eng.step()
        assert eng.den == den
        assert eng.lo.dtype == eng.hi.dtype == (np.int64 if int64 else object)
        assert eng.lo.base is None and eng.hi.base is None
        if int64:
            assert np.array_equal(eng.lo, lo) and np.array_equal(eng.hi, hi)
        else:
            assert (eng.lo.tolist(), eng.hi.tolist()) == (lo, hi)
        assert eng.count == len(lo)
        assert eng.measure == _python_measure(eng)
        paths.append(int64)
    return paths


def _window_slopes():
    rng = random.Random(20260418)
    fixed = [Fraction(v) for v in ("0", "1", "-1", "1/2", "-1/2", "1/3", "-2/3")]
    small = [Fraction(rng.randint(-q, q), q)
             for q in (rng.randint(2, 63) for _ in range(12))]
    snapped = [Direction.from_angle(rng.uniform(-math.pi / 4, math.pi / 4)).slope
               for _ in range(6)]
    return fixed + small + snapped


# Five maps with unequal ratios whose x-shadows [dx, dx + r] overlap three
# at a time; the y translations spread them apart at other slopes.
_OVERLAP5 = IFS2D("overlap-5", tuple(Similitude2D.of(r, dx, dy) for r, dx, dy in (
    ("1/2", "0", "0"), ("3/8", "1/5", "1/2"), ("1/3", "2/5", "1/4"),
    ("3/10", "11/20", "1/8"), ("2/5", "3/5", "3/5"))),
    (Fraction(0), Fraction(0), Fraction(1), Fraction(1)))


class TestImageWindowMerge:
    @pytest.mark.parametrize("ifs", [four_corner(), sierpinski_gasket(),
                                     sparse_corner(5), sparse_corner(8),
                                     _OVERLAP5], ids=lambda f: f.name)
    @pytest.mark.parametrize("chart", ["x", "y"])
    def test_bit_identical_to_resorting(self, ifs, chart):
        steps = 6 if len(ifs.maps) > 4 else 7
        for t in _window_slopes():
            proj = project_ifs(ifs, Direction(chart, t))
            assert all(_engine_vs_reference(proj, steps))

    @pytest.mark.parametrize("ifs", [four_corner(), sierpinski_gasket(),
                                     sparse_corner(5), _OVERLAP5], ids=lambda f: f.name)
    @pytest.mark.parametrize("chart", ["x", "y"])
    def test_bigint_windows_bit_identical_to_resorting(self, ifs, chart):
        # denominators near 10^18 put every step after the first past 2^62,
        # onto object arrays, where images still overlap and merge
        q = 10 ** 18 + 9
        steps = 5 if len(ifs.maps) > 4 else 6
        for p in (618033988749894848, -285714285714285717):
            proj = project_ifs(ifs, Direction(chart, Fraction(p, q)))
            assert not any(_engine_vs_reference(proj, steps)[1:])
            eng = _ExactEngine(proj)
            for _ in range(steps):
                prev = eng.count
                eng.step()
                assert eng.count < len(proj.maps) * prev

    def test_tiling_slope_touching_images_merge(self):
        proj = project_ifs(four_corner(), Direction("x", Fraction(1, 2)))
        eng = _ExactEngine(proj)
        for _ in range(6):
            eng.step()
            assert eng.count == 1

    def test_overlap5_covers_three_at_a_time(self):
        proj = project_ifs(_OVERLAP5, Direction("x", Fraction(0)))
        cover = [sum(1 for r, c in proj.maps if c <= x <= c + r)
                 for x in (Fraction(k, 100) for k in range(101))]
        assert max(cover) == 3

    def test_crosses_into_bigint(self):
        ifs = IFS2D("tiny", (Similitude2D.of("1/1048576", "0", "0"),
                             Similitude2D.of("1/524288", "1/2", "1/3")),
                    (Fraction(0), Fraction(0), Fraction(1), Fraction(1)))
        paths = _engine_vs_reference(project_ifs(ifs, Direction("x", Fraction(2, 7))), 5)
        assert paths[0] and not paths[-1]

    def test_snapshot_endpoints_are_python_ints(self):
        # the set keeps the engine's int64 or object arrays, int64 exactly when
        # the reduced denominator and every numerator lie below 2^62; its
        # numerators come out as plain ints, and it is the canonical set of
        # the engine's endpoints
        tiny = IFS2D("tiny", (Similitude2D.of("1/1048576", "0", "0"),
                              Similitude2D.of("1/524288", "1/2", "1/3")),
                     (Fraction(0), Fraction(0), Fraction(1), Fraction(1)))
        dtypes = set()
        for ifs, t, steps in ((four_corner(), Fraction(3, 10), 6),
                              (tiny, Fraction(2, 7), 5)):
            eng = _ExactEngine(project_ifs(ifs, Direction("x", t)))
            for _ in range(steps):
                eng.step()
                snap = eng.snapshot()
                lo, hi = snap.numerators
                assert all(type(v) is int for v in lo + hi)
                small = max([snap.denominator] + [abs(v) for v in lo + hi]) < 2 ** 62
                assert snap._lo.dtype == snap._hi.dtype == (np.int64 if small else object)
                dtypes.add(snap._lo.dtype)
                assert snap == IntervalSet.from_intervals(
                    (Fraction(int(a), eng.den), Fraction(int(b), eng.den))
                    for a, b in zip(eng.lo, eng.hi))
            assert (eng.lo.dtype == object) == (ifs is tiny)
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}

    def test_touch_through_a_gap(self):
        # A = S ends at 6 where C = S + 6 starts, and B = S + 3 has a gap
        # around 6: the touching pair must land in one window and merge.
        lo, hi = np.array([0, 4]), np.array([2, 6])
        coeffs = [(1, 0), (1, 3), (1, 6)]
        count, loss, mlo, mhi = _merge_images(lo, hi, coeffs)
        assert (mlo.tolist(), mhi.tolist()) == ([0, 3, 10], [2, 9, 12])
        # three images of length 4 whose union has length 10
        assert (count, loss) == (3, 2)
        assert _merge_images(lo, hi, coeffs, keep=False) == (3, 2, None, None)

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                    min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(1, 3), st.integers(-30, 30)),
                    min_size=2, max_size=6),
           st.integers(-10, 10))
    @settings(max_examples=300, deadline=None)
    def test_random_small_images(self, steps, coeffs, origin):
        # a canonical set from (gap, length) steps, mapped by small a*x + c
        lo, hi, x = [], [], origin
        for gap, length in steps:
            lo.append(x + gap)
            hi.append(x + gap + length)
            x = hi[-1]
        lo, hi = np.array(lo), np.array(hi)
        count, loss, mlo, mhi = _merge_images(lo, hi, coeffs)
        _, want_lo, want_hi, _ = exact_step_reference(
            1, lo, hi, [(Fraction(a), Fraction(c)) for a, c in coeffs])
        assert np.array_equal(mlo, want_lo) and np.array_equal(mhi, want_hi)
        raw = sum(a for a, _ in coeffs) * sum(length for _, length in steps)
        assert count == want_lo.size
        assert loss == raw - int(np.sum(want_hi - want_lo))
        assert _merge_images(lo, hi, coeffs, keep=False) == \
            (count, loss, None, None)
        # the same images as object arrays of Python ints, as past 2^62
        got = _merge_images(lo.astype(object), hi.astype(object), coeffs)
        assert got[2].dtype == got[3].dtype == object
        assert got[:2] == (count, loss)
        assert (got[2].tolist(), got[3].tolist()) == (mlo.tolist(), mhi.tolist())

    def test_nonpositive_ratio_rejected(self):
        proj = ProjectedIFS1D(((Fraction(-1, 2), Fraction(0)),
                               (Fraction(1, 2), Fraction(1, 2))),
                              (Fraction(0), Fraction(1)))
        with pytest.raises(ValueError):
            _ExactEngine(proj)

    def test_degenerate_base(self):
        # project_ifs of an IFS2D never gives one: its base has positive
        # width and height
        proj = ProjectedIFS1D(((Fraction(1, 2), Fraction(0)),
                               (Fraction(1, 2), Fraction(1, 2))),
                              (Fraction(1, 3), Fraction(1, 3)))
        with pytest.raises(ValueError):
            _ExactEngine(proj)



def _symmetric_case(steps, gap, middle, pairs, centre_map, span0, shift, wide):
    """A set symmetric about S/2, S = lo[0] + hi[-1], and coefficients in
    mirrored pairs (a, c), (a, span - a*S - c), with span the new sum of
    ends.  The set is a left half from (gap, length) steps, an optional
    self-symmetric middle interval of length ``middle`` and the mirrored
    half; a ``centre_map`` (a, c) is its own mirror, span = 2c + a*S.  The
    case is made with S in {0, 1}, then moved by ``shift``, and ``wide``
    scales it until its largest magnitude lies just below 2^62."""
    lo, hi, x = [], [], 0
    for g, length in steps:
        lo.append(x + g)
        hi.append(x + g + length)
        x = hi[-1]
    if middle or not steps:
        mid = [(x + gap, x + gap + max(middle, 1))]
        total = sum(mid[0])
    else:
        mid, total = [], 2 * x + gap
    left_lo, left_hi = lo, hi
    lo = left_lo + [a for a, _ in mid] + [total - v for v in reversed(left_hi)]
    hi = left_hi + [b for _, b in mid] + [total - v for v in reversed(left_lo)]
    lo = [v - total // 2 for v in lo]
    hi = [v - total // 2 for v in hi]
    s = lo[0] + hi[-1]
    coeffs, span = [], span0
    if centre_map is not None:
        a, c = centre_map
        coeffs, span = [(a, c)], 2 * c + a * s
    for a, c in pairs:
        coeffs += [(a, c), (a, span - a * s - c)]
    # move the set, the images and the new ends by shift
    lo, hi = [v + shift for v in lo], [v + shift for v in hi]
    coeffs = [(a, c + shift - a * shift) for a, c in coeffs]
    span += 2 * shift
    if wide:
        top = max([abs(span)] + [a * max(abs(lo[0]), abs(hi[-1])) + abs(c)
                                 for a, c in coeffs])
        f = ((1 << 62) - 1) // top
        lo, hi = [v * f for v in lo], [v * f for v in hi]
        coeffs = [(a, c * f) for a, c in coeffs]
        span *= f
    return lo, hi, coeffs, span


# Five ratio-1/3 maps in an X: four corners and the centre.
_X5 = IFS2D("x-five", tuple(Similitude2D.of("1/3", dx, dy) for dx, dy in (
    ("0", "0"), ("2/3", "0"), ("1/3", "1/3"), ("0", "2/3"), ("2/3", "2/3"))),
    (Fraction(0), Fraction(0), Fraction(1), Fraction(1)))
# Centrally symmetric with unequal ratios: at slope 0 the images sorted by
# left end do not reverse onto their mirrors, so the step cannot mirror.
_UNEQUAL = IFS2D("unequal-symmetric", tuple(
    Similitude2D.of(r, dx, dy) for r, dx, dy in (
        ("1/2", "0", "0"), ("1/4", "0", "3/4"),
        ("1/2", "1/2", "1/2"), ("1/4", "3/4", "0"))),
    (Fraction(0), Fraction(0), Fraction(1), Fraction(1)))
_MIRROR_SLOPES = [Fraction(v) for v in
                  ("0", "1", "-1", "1/2", "1/3", "-2/7", "314159/1000000")]


def _plain_merge(monkeypatch):
    """Make the engine take the plain path: every window merged, no mirror."""
    merge = projection._merge_images
    monkeypatch.setattr(projection, "_merge_images",
                        lambda lo, hi, coeffs, keep=True, span=None, *rest:
                        merge(lo, hi, coeffs, keep, None, *rest))


def _merged_elements(monkeypatch):
    """Count the endpoints the engine's window sweeps take in."""
    seen = [0]
    sweep = projection._sweep_window

    def spy(*args):
        result = sweep(*args)
        seen[0] += result[2][0].size
        return result
    monkeypatch.setattr(projection, "_sweep_window", spy)
    return seen


def _engine_run(ifs, d, n):
    """Every generation 0..n as (den, dtype, lo, hi), then the measures."""
    gens = [(s.denominator, s._lo.dtype, s._lo.tolist(), s._hi.tolist())
            for s in iter_generations(ifs, d, n)]
    return gens, sheared_measures(ifs, d, n)


class TestMirroredStep:
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=5),
           st.integers(1, 4), st.integers(0, 3),
           st.lists(st.tuples(st.integers(1, 3), st.integers(-30, 30)),
                    min_size=1, max_size=3),
           st.none() | st.tuples(st.integers(1, 3), st.integers(-20, 20)),
           st.integers(-20, 20), st.integers(-40, 40), st.booleans())
    @settings(max_examples=400, deadline=None)
    @example(steps=[], gap=1, middle=1, pairs=[(1, 10)], centre_map=(1, 5),
             span0=0, shift=0, wide=False)  # three clean images, odd stack
    @example(steps=[(1, 2)], gap=2, middle=1, pairs=[(1, 3)], centre_map=(1, 0),
             span0=0, shift=0, wide=True)   # centre window, |lo| near 2^62
    @example(steps=[(1, 1)], gap=1, middle=0, pairs=[(2, 1), (1, 0)],
             centre_map=None, span0=1, shift=40, wide=True)  # span near 2^62
    def test_matches_resorting(self, steps, gap, middle, pairs, centre_map,
                               span0, shift, wide):
        lo, hi, coeffs, span = _symmetric_case(steps, gap, middle, pairs,
                                               centre_map, span0, shift, wide)
        _, want_lo, want_hi, _ = exact_step_reference(
            1, lo, hi, [(Fraction(a), Fraction(c)) for a, c in coeffs])
        want_lo, want_hi = [int(v) for v in want_lo], [int(v) for v in want_hi]
        raw = sum(a for a, _ in coeffs) * (sum(hi) - sum(lo))
        want = (len(want_lo), raw - (sum(want_hi) - sum(want_lo)))
        top = max([abs(span)] + [a * max(abs(lo[0]), abs(hi[-1])) + abs(c)
                                 for a, c in coeffs])
        dtypes = [object] + ([np.int64] if top < 1 << 62 else [])
        for dtype in dtypes:
            arrays = np.array(lo, dtype=dtype), np.array(hi, dtype=dtype)
            count, loss, mlo, mhi = _merge_images(*arrays, coeffs, True, span)
            assert (count, loss) == want
            assert mlo.dtype == mhi.dtype == np.dtype(dtype)
            assert (mlo.tolist(), mhi.tolist()) == (want_lo, want_hi)
            assert _merge_images(*arrays, coeffs, False, span) == \
                (count, loss, None, None)

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=5),
           st.integers(1, 4), st.integers(0, 3),
           st.lists(st.tuples(st.integers(1, 3), st.integers(-30, 30)),
                    min_size=1, max_size=3),
           st.none() | st.tuples(st.integers(1, 3), st.integers(-20, 20)),
           st.integers(-20, 20), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_ends_keep_a_head_and_a_tail(self, steps, gap, middle, pairs,
                                         centre_map, span0, h, t):
        # with ends (h, t), a head of at least h and a tail of at least t,
        # or all; for a symmetric set (span given) the two are mirrors
        lo, hi, coeffs, span = _symmetric_case(steps, gap, middle, pairs,
                                               centre_map, span0, 0, False)
        lo, hi = np.array(lo), np.array(hi)
        count, loss, want_lo, want_hi = _merge_images(lo, hi, coeffs)
        for s in (span, None):
            got = _merge_images(lo, hi, coeffs, True, s, (h, t))
            assert got[:2] == (count, loss)
            got_lo, got_hi = got[2].tolist(), got[3].tolist()
            size = len(got_lo)
            if size == count:
                assert (got_lo, got_hi) == (want_lo.tolist(), want_hi.tolist())
                continue
            assert h + t <= size == len(got_hi)
            head = [k for k in range(h, size - t + 1)
                    if got_lo == want_lo[:k].tolist() + want_lo[count - size + k:].tolist()
                    and got_hi == want_hi[:k].tolist() + want_hi[count - size + k:].tolist()]
            assert len(head) == 1
            if s is not None:
                assert 2 * head[0] == size

    @pytest.mark.parametrize("ifs", [four_corner(), sparse_corner(8), _X5,
                                     _UNEQUAL, sierpinski_gasket()],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("chart", ["x", "y"])
    def test_engine_matches_plain_path(self, ifs, chart, monkeypatch):
        n = 6 if len(ifs.maps) > 4 else 7
        runs = [_engine_run(ifs, Direction(chart, t), n) for t in _MIRROR_SLOPES]
        _plain_merge(monkeypatch)
        assert runs == [_engine_run(ifs, Direction(chart, t), n)
                        for t in _MIRROR_SLOPES]

    def test_mirror_halves_the_merges(self, monkeypatch):
        seen = _merged_elements(monkeypatch)
        d = Direction("x", Fraction(3, 10))
        mirrored = sheared_measures(four_corner(), d, 9)
        half = seen[0]
        _plain_merge(monkeypatch)
        seen[0] = 0
        assert sheared_measures(four_corner(), d, 9) == mirrored
        assert 0 < half <= seen[0] // 2

    # the gasket's shadow is symmetric only at x:0, the unequal set's
    # layout is not index-symmetric at x:0 and x:1/3
    @pytest.mark.parametrize("ifs, t", [(_UNEQUAL, "0"), (_UNEQUAL, "1/3"),
                                        (sierpinski_gasket(), "1/3")])
    def test_falls_back_to_plain_path(self, ifs, t, monkeypatch):
        seen = _merged_elements(monkeypatch)
        d = Direction("x", Fraction(t))
        sheared_measures(ifs, d, 6)
        mirrored = seen[0]
        _plain_merge(monkeypatch)
        seen[0] = 0
        sheared_measures(ifs, d, 6)
        assert mirrored == seen[0] > 0


def _true_alpha(ifs, d, n):
    seq = alpha_sequence(ifs, d, n)
    return float(seq.values[n]) * seq.scale


class TestAlpha:
    def test_true_length_contract_values(self):
        ifs = four_corner()
        assert _true_alpha(ifs, Direction("x", Fraction(0)), 0) == pytest.approx(1.0)
        a = _true_alpha(ifs, Direction("x", Fraction(1, 2)), 3)
        assert a == pytest.approx(1.5 / math.sqrt(1.25))

    def test_alpha_parts_split(self):
        ifs = four_corner()
        d = Direction("x", Fraction(1, 2))
        seq = alpha_sequence(ifs, d, 2)
        assert seq.values[2] == Fraction(3, 2)
        assert seq.scale == d.scale

    def test_chart_seam_consistency(self):
        # slope 1 in chart x and slope 1 in chart y both mean theta = pi/4
        ifs = four_corner()
        ax = _true_alpha(ifs, Direction("x", Fraction(1)), 4)
        ay = _true_alpha(ifs, Direction("y", Fraction(1)), 4)
        assert ax == pytest.approx(ay, rel=1e-12)

    @given(slopes)
    @settings(max_examples=40, deadline=None)
    def test_dihedral_slope_symmetry(self, t):
        # reflecting the square swaps charts and flips slopes
        ifs = four_corner()
        a1 = _true_alpha(ifs, Direction("x", t), 3)
        a2 = _true_alpha(ifs, Direction("x", -t), 3)
        a3 = _true_alpha(ifs, Direction("y", t), 3)
        assert a1 == pytest.approx(a2, rel=1e-12)
        assert a1 == pytest.approx(a3, rel=1e-12)


class TestExactMeasure:
    def test_int64_path_matches_python_sum(self):
        for t in _window_slopes():
            eng = _ExactEngine(project_ifs(four_corner(), Direction("y", t)))
            for _ in range(6):
                eng.step()
                assert eng.lo.dtype == np.int64
                want = sum(int(b) - int(a) for a, b in zip(eng.lo, eng.hi))
                assert eng.measure == Fraction(want, eng.den)

    def test_bigint_path_matches_python_sum(self):
        ifs = IFS2D("tiny", (Similitude2D.of("1/1048576", "0", "0"),
                             Similitude2D.of("1/524288", "1/2", "1/3")),
                    (Fraction(0), Fraction(0), Fraction(1), Fraction(1)))
        eng = _ExactEngine(project_ifs(ifs, Direction("x", Fraction(2, 7))))
        for _ in range(5):
            eng.step()
        assert eng.lo.dtype == object
        want = sum(b - a for a, b in zip(eng.lo, eng.hi))
        assert eng.measure == Fraction(want, eng.den)

    def test_endpoint_sums_wrap_past_int64(self):
        # One int64 step whose endpoints reach +-2^62 and whose endpoint
        # sums both leave int64, while the carried total stays exact.
        den = (1 << 57) - 1
        top, gap = 31 * den // 32, den // 10
        offsets = [top - j * gap for j in range(7)] + [top - den // 40, -top]
        proj = ProjectedIFS1D(tuple((Fraction(1, 32), Fraction(c, den))
                                    for c in offsets), (Fraction(-1), Fraction(1)))
        eng = _ExactEngine(proj)
        eng.step()
        assert eng.lo.dtype == np.int64 and eng.count == 8
        lo, hi = eng.lo.tolist(), eng.hi.tolist()
        assert min(lo) < -(1 << 61) and max(hi) > 1 << 61
        assert sum(lo) > 1 << 63 and sum(hi) > 1 << 63
        assert eng.measure == _python_measure(eng)
        assert eng.measure == Fraction(9 * 2, 32) - Fraction(1, 16) + Fraction(den // 40, den)
        last = _ExactEngine(proj, measure_at=1)
        last.step()
        assert last.lo is None and last.count == 8
        assert last.measure == eng.measure

    @pytest.mark.parametrize("slope", [Fraction(1, 3), Fraction(241, 480)])
    def test_cap_raises_before_writing(self, monkeypatch, slope):
        # the step past the cap raises before it allocates the new set, so
        # the peak stays below the rejected generation's own arrays
        d = Direction("x", slope)
        rejected = generation(four_corner(), d, 10)
        count = rejected.count
        monkeypatch.setattr(projection, "MAX_COUNT", count - 1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapExceeded) as err:
                generation(four_corner(), d, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == (f"merged interval count {count} exceeds cap "
                                  f"{count - 1} at generation 10")
        assert rejected._lo.dtype == np.int64
        assert peak < 2 * count * 8

    def test_last_step_measure_only(self):
        # sheared_measures never builds generation n_max, yet gives the same
        # Fraction as the materialized set, on both the int64 and bigint paths
        tiny = IFS2D("tiny", (Similitude2D.of("1/1048576", "0", "0"),
                              Similitude2D.of("1/524288", "1/2", "1/3")),
                     (Fraction(0), Fraction(0), Fraction(1), Fraction(1)))
        cases = [(ifs, Direction(chart, t))
                 for ifs in (four_corner(), sierpinski_gasket(), sparse_corner(5),
                             _OVERLAP5)
                 for chart in ("x", "y")
                 for t in (Fraction(0), Fraction(1, 2), Fraction(-2, 7),
                           Fraction(355, 452))]
        cases.append((tiny, Direction("x", Fraction(2, 7))))
        for ifs, d in cases:
            for n in range(8):
                assert sheared_measures(ifs, d, n)[n] == generation(ifs, d, n).measure


# Three ratio-1/4 corners: not symmetric, and at most slopes generation n
# keeps gaps, so a trimmed generation keeps a head and a tail apart.
_THREE = IFS2D("three-corner", tuple(Similitude2D.of("1/4", dx, dy) for dx, dy in (
    ("0", "0"), ("3/4", "0"), ("0", "3/4"))),
    (Fraction(0), Fraction(0), Fraction(1), Fraction(1)))
# (system, deepest n): the five systems of the mirrored step, and _THREE,
# whose generations take the trimmed path without a mirror; the depth is
# lower where k**n would pass about 10^5
_TRIM_CASES = [(four_corner(), 8), (sierpinski_gasket(), 8), (sparse_corner(8), 5),
               (_X5, 6), (_UNEQUAL, 8), (_THREE, 8)]
_BIG_DENOMINATOR = Fraction(618033988749894848, 10 ** 18 + 9)
# Any slope, or one within 1/40 of a slope whose images nearly tile, where
# the last step reads little of generation n - 1.
_TRIM_SLOPES = st.fractions(min_value=-1, max_value=1, max_denominator=10 ** 6) | st.builds(
    Fraction.__add__, st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]),
    st.fractions(min_value=Fraction(-1, 40), max_value=Fraction(1, 40),
                 max_denominator=10 ** 6))


def _measure_only_counts(ifs, d, n):
    """The counts of a measure-only engine (``measure_at`` = n) at
    generations 1..n, and the set of the intervals it held at generation
    n - 1."""
    eng = _ExactEngine(project_ifs(ifs, d), n)
    counts, held = [], None
    for k in range(1, n + 1):
        if k == n:
            held = IntervalSet.from_scaled(eng.den, eng.lo, eng.hi)
        eng.step()
        counts.append(eng.count)
    return counts, held


class TestTrimmedGeneration:
    # n counts down from the deepest, where trims are most common
    @given(st.sampled_from(_TRIM_CASES).flatmap(lambda case: st.tuples(
               st.just(case[0]), st.integers(0, case[1]).map(lambda k: case[1] - k))),
           st.sampled_from(["x", "y"]), _TRIM_SLOPES)
    @settings(max_examples=100, deadline=None)
    @example(case=(four_corner(), 8), chart="x", t=Fraction(241, 480))
    @example(case=(_THREE, 8), chart="y", t=Fraction(1, 3))
    def test_matches_untrimmed(self, case, chart, t):
        # measures, counts and the size cap of the trimmed path against
        # the generations of iter_generations, which are built whole
        ifs, n = case
        d = Direction(chart, t)
        gens = list(iter_generations(ifs, d, n))
        counts = [g.count for g in gens]
        assert sheared_measures(ifs, d, n) == [g.measure for g in gens]
        assert _measure_only_counts(ifs, d, n)[0] == counts[1:]
        if n:
            # a cap just below the last count: the last step must count
            # the intervals left out of generation n - 1
            cap = counts[n] - 1
            first = next(k for k in range(1, n + 1) if counts[k] > cap)
            with patch.object(projection, "MAX_COUNT", cap):
                with pytest.raises(SizeCapExceeded, match=(
                        f"count {counts[first]} exceeds cap {cap} "
                        f"at generation {first}$")):
                    sheared_measures(ifs, d, n)

    @pytest.mark.parametrize("ifs, d, n, dtype", [
        (four_corner(), Direction("x", Fraction(241, 480)), 8, np.int64),
        (_THREE, Direction("y", Fraction(1, 3)), 8, np.int64),
        # past 2^62 from the second step on
        (four_corner(), Direction("x", _BIG_DENOMINATOR), 6, object),
        (_THREE, Direction("y", _BIG_DENOMINATOR), 6, object),
    ], ids=["mirrored", "plain", "object-mirrored", "object-plain"])
    def test_trims_and_stays_exact(self, ifs, d, n, dtype):
        gens = list(iter_generations(ifs, d, n))
        counts, held = _measure_only_counts(ifs, d, n)
        assert counts == [g.count for g in gens[1:]]
        assert held._lo.dtype == dtype
        # generation n - 1 was trimmed to a head and a tail of at least one
        # interval each
        full, size = gens[n - 1].intervals, held.count
        assert 2 <= size < len(full)
        assert any(held.intervals == full[:h] + full[len(full) - size + h:]
                   for h in range(1, size))
        assert sheared_measures(ifs, d, n) == [g.measure for g in gens]


class TestWorkspace:
    def test_snapshots_survive_later_measures(self):
        ifs, d = four_corner(), Direction("x", Fraction(3, 10))
        kept = list(iter_generations(ifs, d, 7)) + [generation(ifs, d, 7)]
        want = [g.numerators for g in kept]
        for t in _window_slopes():
            sheared_measures(ifs, Direction("x", t), 8)
        assert [g.numerators for g in kept] == want
        assert kept[-1] == kept[-2]

    def test_threads_match_serial(self):
        # more threads than cores, switching often: each steps in its own
        # scratch arrays, so each gets the serial values
        ifs = four_corner()
        ds = [Direction(c, t) for c in "xy" for t in _window_slopes()[7:13]]
        serial = [alpha_sequence(ifs, d, 10).values for d in ds]
        orders = (1, -1, 1, -1)
        start = threading.Barrier(len(orders))
        got = {}

        def run(i, order):
            start.wait(timeout=60)
            got[i] = [alpha_sequence(ifs, d, 10).values for d in ds[::order]]

        threads = [threading.Thread(target=run, args=pair)
                   for pair in enumerate(orders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {i: serial[::order] for i, order in enumerate(orders)}

    def test_import_allocates_no_workspace(self):
        code = ("import favardlab\n"
                "from favardlab import projection\n"
                "print(len(projection._WORKSPACE.arrays))\n")
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


def _last_step_windows(monkeypatch):
    """Record each window swept by a step that builds no set, as (span,
    lo, hi): the span of its step and the window's sorted ends."""
    seen, step = [], {}
    merge, sweep = projection._merge_images, projection._sweep_window

    def merge_spy(lo, hi, coeffs, keep=True, span=None, *rest):
        step.update(keep=keep, span=span)
        return merge(lo, hi, coeffs, keep, span, *rest)

    def sweep_spy(*args):
        count, lost, win = sweep(*args)
        if not step["keep"]:
            seen.append((step["span"], win[0], win[1]))
        return count, lost, win
    monkeypatch.setattr(projection, "_merge_images", merge_spy)
    monkeypatch.setattr(projection, "_sweep_window", sweep_spy)
    return seen


_BIG_SLOPE = Fraction(3, 10) + Fraction(1, 2 ** 63)


class TestLastStep:
    """The last step of ``sheared_measures`` sweeps in the spent
    generation's arrays and writes its gaps over its window's right ends."""

    # middle: a centre window with a middle interval, whose largest right
    # end is read after the gaps are written; object: past 2^62
    @pytest.mark.parametrize("ifs, d, n, kind", [
        (four_corner(), Direction("x", Fraction(3, 5)), 8, "middle"),
        (four_corner(), Direction("y", Fraction(-7, 10)), 8, "middle"),
        (four_corner(), Direction("x", Fraction(9, 16)), 1, "middle"),
        (four_corner(), Direction("x", _BIG_SLOPE), 6, "object"),
        (four_corner(), Direction("y", _BIG_SLOPE), 1, "object"),
        (_UNEQUAL, Direction("x", Fraction(0)), 8, None),
        (_UNEQUAL, Direction("y", Fraction(2, 5)), 8, None),
        (_UNEQUAL, Direction("x", Fraction(1, 3)), 1, None),
    ], ids=["x:3/5", "y:-7/10", "x:9/16-n1", "object", "object-n1",
            "unequal-x:0", "unequal-y:2/5", "unequal-n1"])
    def test_matches_snapshots(self, ifs, d, n, kind, monkeypatch):
        seen = _last_step_windows(monkeypatch)
        want = [g.measure for g in iter_generations(ifs, d, n)]
        assert sheared_measures(ifs, d, n) == want
        assert seen
        if kind == "middle":
            assert any(span is not None and 2 * int(hi[-1]) >= span
                       for span, _, hi in seen)
        assert all((lo.dtype == object) == (kind == "object") for _, lo, _ in seen)

    def test_last_window_takes_no_scratch(self, monkeypatch):
        # a fresh thread starts with an empty workspace
        seen = _last_step_windows(monkeypatch)
        held = {}

        def run():
            sheared_measures(four_corner(), Direction("y", Fraction(-3, 5)), 12)
            held.update(projection._WORKSPACE.arrays)
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        last = max(lo.size for _, lo, _ in seen)
        generations = [held[("generation", k), side] for k in (0, 1)
                       for side in ("lo", "hi")]
        # the window lies in a generation's arrays, and no other int64
        # scratch is as large as it
        assert all(any(np.shares_memory(end, buf) for buf in generations)
                   for _, lo, hi in seen for end in (lo, hi))
        scratch = [buf.size for buf in held.values()
                   if buf.dtype == np.int64 and not any(buf is g for g in generations)]
        assert scratch and max(scratch) < last


_BATCH_SYSTEMS = [four_corner(), sierpinski_gasket(), sparse_corner(8)]


def _float_oracle(ifs, d, n_max):
    """Float generations of one Direction by the per-direction step, with the
    floats of the exact projected offsets and base."""
    proj = project_ifs(ifs, d)
    maps = [(float(r), float(c)) for r, c in proj.maps]
    return float_generations_reference(maps, [float(v) for v in proj.base],
                                       n_max, MERGE_EPSILON)


def _row_oracle(ifs, row, n_max):
    """Float generations of a one-row DirectionBatch by the per-direction
    step, with the offsets and base corners of the row's own functional."""
    offsets = row.functional(np.array([float(m.translation[0]) for m in ifs.maps]),
                             np.array([float(m.translation[1]) for m in ifs.maps]))
    x0, y0, x1, y1 = (float(v) for v in ifs.base)
    corners = row.functional(np.array([x0, x0, x1, x1]), np.array([y0, y1, y0, y1]))
    maps = [(float(m.ratio), c) for m, c in zip(ifs.maps, offsets[0].tolist())]
    return float_generations_reference(maps, [corners.min(), corners.max()],
                                       n_max, MERGE_EPSILON)


# Two ratio-1/2 maps on a base square of side 1e-20: projected, the image
# at offset about 1/2 is a point in binary64, which holds it to 17 digits.
_THIN_BASE = IFS2D("thin-base", (Similitude2D.of("1/2", "0", "0"),
                                 Similitude2D.of("1/2", "1/2", "1/2")),
                   (0, 0, Fraction(1, 10 ** 20), Fraction(1, 10 ** 20)))


def _exact_neighborhoods(ifs, batch, n, r):
    """The true length of the exact r-neighborhood of generation n in each
    direction of ``batch``, at the batch's own float slopes and sheared
    radii, as ``neighborhood_lengths`` measures it."""
    out = []
    for chart_y, slope, scale in zip(batch.chart_y, batch.slope, batch.scale):
        d = Direction("y" if chart_y else "x", Fraction(float(slope)))
        grown = generation(ifs, d, n).expand(Fraction(float(r / scale)))
        out.append(float(grown.measure) * scale)
    return out


def _float_slopes():
    rng = random.Random(20261018)
    return ([0.0, 1.0, -1.0, 0.5, -0.5, math.tan(0.3), 1 / 3]
            + [rng.uniform(-1, 1) for _ in range(9)])


class TestFloatBatch:
    @pytest.mark.parametrize("ifs", _BATCH_SYSTEMS, ids=lambda f: f.name)
    def test_rows_match_one_direction_oracle(self, ifs):
        slopes = _float_slopes()
        chart_y = np.array([False] * len(slopes) + [True] * len(slopes))
        batch = DirectionBatch(chart_y, np.array(slopes * 2))
        got = sheared_measures(ifs, batch, 6)
        assert got.shape == (7, len(batch))
        for i, (cy, s) in enumerate(zip(chart_y, batch.slope)):
            d = Direction("y" if cy else "x", Fraction(float(s)))
            _, want = _float_oracle(ifs, d, 6)
            assert np.max(np.abs(got[:, i] - want)) <= 1e-12

    @pytest.mark.parametrize("ifs", _BATCH_SYSTEMS, ids=lambda f: f.name)
    @pytest.mark.parametrize("chart", ["x", "y"])
    def test_one_direction_bit_identical_to_oracle(self, ifs, chart):
        # a one-row batch, against the oracle fed the batch's own offsets
        for s in [float(t) for t in _window_slopes()] + _float_slopes():
            row = DirectionBatch(np.array([chart == "y"]), np.array([s]))
            sets, want = _row_oracle(ifs, row, 6)
            assert sheared_measures(ifs, row, 6)[:, 0].tolist() == want
            walk = list(_float_walk(ifs, row, 6))
            assert [n for _, n, _, _, _ in walk] == list(range(7))
            # one row is laid out at every generation, the deepest included
            assert all(starts is None for *_, starts in walk)
            for (_, _, lo, hi, _), (want_lo, want_hi) in zip(walk, sets):
                assert np.array_equal(lo[0], want_lo) and np.array_equal(hi[0], want_hi)

    @pytest.mark.parametrize("ifs", _BATCH_SYSTEMS, ids=lambda f: f.name)
    def test_deepest_generation_read_off_the_sweep(self, ifs):
        # a group of several rows reads generation n off its sweep when n is
        # the deepest, and lays it out when the walk steps on, in the same
        # groups; the neighborhoods read the same chains, so the same bits
        thetas = np.linspace(-math.pi / 4, 3 * math.pi / 4, 48)
        batch = DirectionBatch.from_angles(thetas)
        laid_out = sheared_measures(ifs, batch, 5)
        for n in range(1, 5):
            walk = [(rows, starts) for rows, m, _, _, starts in _float_walk(ifs, batch, n)
                    if m == n]
            assert any(starts is not None and rows.stop - rows.start > 1
                       for rows, starts in walk)
            swept = sheared_measures(ifs, batch, n)
            assert swept[:n].tobytes() == laid_out[:n].tobytes()
            assert np.allclose(swept[n], laid_out[n], rtol=1e-15, atol=0)
            for r in (4.0 ** -n, 0.5 * 4.0 ** -n, 8.0 ** -n, 1e-6):
                alone = neighborhood_lengths(ifs, thetas, [(n, r)])
                deeper = neighborhood_lengths(ifs, thetas, [(n, r), (n + 1, r)])
                assert alone[0].tobytes() == deeper[0].tobytes()

    def test_cap_counts_merged_intervals_of_swept_rows(self, monkeypatch):
        # the gasket's images are 3 intervals a row, merged into 1: a cap
        # of 2 counts the merged intervals of the deepest, swept group
        monkeypatch.setattr(projection, "MAX_COUNT", 2)
        batch = DirectionBatch.from_angles(np.linspace(0.1, 0.7, 5))
        assert np.all(sheared_measures(sierpinski_gasket(), batch, 4) > 0)
        monkeypatch.setattr(projection, "MAX_COUNT", 0)
        with pytest.raises(SizeCapExceeded, match="generation 1"):
            sheared_measures(sierpinski_gasket(), batch, 1)

    def test_swept_point_grows_into_its_neighborhood(self):
        # image rounding can collapse an interval to a point [x, x] that
        # starts a merged interval of its own; the merge keeps it, as the
        # int64 merge keeps one, so it grows into a neighborhood of length
        # 2p, and the rows read off the sweep are the laid-out rows
        lo = np.array([[0.0, 0.5, 0.9], [0.0, 0.2, 0.6]])
        hi = np.array([[0.25, 0.5, 1.0], [0.1, 0.4, 0.8]])
        laid_out = merge_float_arrays(lo, hi)
        assert laid_out[0].tolist() == lo.tolist()
        assert laid_out[1].tolist() == hi.tolist()
        swept = lo.copy(), hi.copy()
        starts = intervals._swept_in_place(*swept, MERGE_EPSILON)
        assert starts.all()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(swept, laid_out))
        radius = np.array([0.01, 0.02])
        grown = [projection._grown_measures(*rows, radius)
                 for rows in ((*laid_out, None), (*swept, starts))]
        assert grown[0] == pytest.approx([0.27 + 0.02 + 0.12, 0.14 + 0.24 + 0.24],
                                         rel=1e-15)
        assert grown[0].tobytes() == grown[1].tobytes()
        assert projection._row_measures(*swept, starts) == \
            pytest.approx([0.35, 0.5], rel=1e-15)

    @pytest.mark.parametrize("thetas", [[0.0], [0.0, 0.3, 1.0, math.pi / 2, 2.0]],
                             ids=["one", "several"])
    def test_rounded_points_keep_their_neighborhoods(self, thetas):
        # on a base of side 1e-20 the image at offset about 1/2 rounds to a
        # point in binary64; it and its images keep their neighborhoods, as
        # in the exact expanded generation (the point's images are 2r long)
        batch = DirectionBatch.from_angles(thetas)
        r = 1e-3
        for wanted in ([(1, r)], [(2, r)], [(1, r), (2, r)]):
            got = neighborhood_lengths(_THIN_BASE, thetas, wanted)
            for (n, _), row in zip(wanted, got):
                want = _exact_neighborhoods(_THIN_BASE, batch, n, r)
                assert row == pytest.approx(want, rel=1e-12, abs=0)

    def test_split_keeps_a_point_in_the_last_column(self, monkeypatch):
        # four rows of generation 1 are [0, tiny] and a point [c, c] in
        # their last column; 16 endpoints of images pass a budget of 8, so
        # the walk splits the rows into halves, cut to the widest row
        monkeypatch.setattr(projection, "_GROUP_ENDPOINTS", 8)
        thetas = [0.0, 0.3, 1.0, 2.0]
        batch = DirectionBatch.from_angles(thetas)
        walk = [(rows, n, lo, hi) for rows, n, lo, hi, _
                in _float_walk(_THIN_BASE, batch, 3)]
        (_, _, lo, hi), = [w for w in walk if w[1] == 1]
        assert lo.shape == (4, 2) and np.all(lo[:, 1] == hi[:, 1])
        assert [rows.stop - rows.start for rows, n, _, _ in walk if n == 2] == [2, 2]
        got = neighborhood_lengths(_THIN_BASE, thetas, [(2, 1e-3), (3, 1e-4)])
        for (n, r), row in zip([(2, 1e-3), (3, 1e-4)], got):
            want = _exact_neighborhoods(_THIN_BASE, batch, n, r)
            assert row == pytest.approx(want, rel=1e-12, abs=0)

    def test_from_angles_matches_from_angle(self):
        rng = random.Random(11)
        q = math.pi / 4
        thetas = [0.0, q, -q, 3 * q, 2 * q, math.pi, -3 * q] + \
            [rng.uniform(-10, 10) for _ in range(200)]
        ds = DirectionBatch.from_angles(thetas)
        for theta, cy, s, scale in zip(thetas, ds.chart_y, ds.slope, ds.scale):
            d = Direction.from_angle(theta)
            assert ("y" if cy else "x") == d.chart
            assert s == pytest.approx(float(d.slope), abs=1e-6)
            assert scale == pytest.approx(d.scale, abs=1e-6)

    def test_groups_stay_within_budget(self, monkeypatch):
        ifs = four_corner()
        thetas = np.linspace(-math.pi / 4, 3 * math.pi / 4, 101)
        ns = range(5)
        want = [projected_lengths(ifs, thetas, n) for n in ns]
        fav = favard(ifs, 2, QuadratureConfig(max_refinements=1))
        sizes = []
        real = intervals._sweep

        # every float step sweeps its images once, the deepest one in place
        def spy(lo, *args, **kwargs):
            sizes.append(lo.shape)
            return real(lo, *args, **kwargs)

        monkeypatch.setattr(projection, "_GROUP_ENDPOINTS", 64)
        monkeypatch.setattr(intervals, "_sweep", spy)
        for n, w in zip(ns, want):
            sizes.clear()
            got = projected_lengths(ifs, thetas, n)
            # each shape is (rows, k * width) of the images swept
            assert all(rows * k_width <= 64 or rows == 1 for rows, k_width in sizes)
            assert sum(rows for rows, _ in sizes) == n * len(thetas)
            assert np.max(np.abs(got - w)) <= 1e-12
        sizes.clear()
        est = favard(ifs, 2, QuadratureConfig(max_refinements=1))
        assert sizes and all(rows * k_width <= 64 for rows, k_width in sizes)
        assert est.value == pytest.approx(fav.value, abs=1e-12)

    def test_narrow_rows_share_one_group(self, monkeypatch):
        # every projection of the gasket's generations is one interval, so
        # 4096 rows stay one group: one sweep per step
        calls = []
        real = intervals._sweep

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(intervals, "_sweep", spy)
        thetas = np.linspace(-math.pi / 4, 3 * math.pi / 4, 4096)
        got = projected_lengths(sierpinski_gasket(), thetas, 9)
        assert calls == [(4096, 3)] * 9
        assert np.all(got > 0)

    def test_size_cap_per_row(self, monkeypatch):
        # at generation 5, slope 0 keeps 32 intervals and slope 1/3 keeps 232
        batch = DirectionBatch(np.array([False, False]), np.array([0.0, 1 / 3]))
        monkeypatch.setattr(projection, "MAX_COUNT", 100)
        row = DirectionBatch(np.array([False]), np.array([0.0]))
        assert sheared_measures(four_corner(), row, 5)[5, 0] > 0
        with pytest.raises(SizeCapExceeded):
            sheared_measures(four_corner(), batch, 5)
        monkeypatch.setattr(projection, "MAX_COUNT", 10)
        with pytest.raises(SizeCapExceeded):
            projected_lengths(four_corner(), np.linspace(0.1, 0.7, 5), 5)
        with pytest.raises(SizeCapExceeded):
            favard(four_corner(), 5)

    def test_negative_generation_rejected(self):
        batch = DirectionBatch.from_angles(np.linspace(0.1, 0.7, 5))
        with pytest.raises(ValueError):
            sheared_measures(four_corner(), batch, -1)
        with pytest.raises(ValueError):
            projected_lengths(four_corner(), batch.slope, -1)
        with pytest.raises(ValueError):
            favard(four_corner(), -1)
