import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favardlab import needle
from favardlab.errors import PreconditionError
from favardlab.favard import favard
from favardlab.ifs import IFS2D, Similitude2D, four_corner, preset
from favardlab.needle import (
    BATCH_SIZE,
    NeedleConfig,
    _cylinder_tree,
    circumradius,
    estimate_favard_mc,
)

from oracles import (
    needle_descent_reference,
    needle_hits_bruteforce,
    needle_squares_bruteforce,
)


def _maps(ifs):
    return [(m.ratio, m.translation) for m in ifs.maps]


def _line_args(ifs, cfg):
    w = cfg.strip_halfwidth
    return (_maps(ifs), ifs.base, cfg.generation, cfg.seed, cfg.trials,
            circumradius(ifs) if w is None else w, BATCH_SIZE)


def _bruteforce(ifs, cfg):
    return needle_hits_bruteforce(*_line_args(ifs, cfg))


def _reference(ifs, cfg):
    return needle_descent_reference(*_line_args(ifs, cfg))


class TestConfig:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            NeedleConfig(trials=0, seed=1, generation=0)
        with pytest.raises(PreconditionError):
            NeedleConfig(trials=1, seed=1, generation=-1)
        with pytest.raises(PreconditionError):
            NeedleConfig(trials=1, seed=2 ** 64, generation=0)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf,
                                       0.0, -1.0, 1e308])
    def test_strip_halfwidth_must_be_finite_and_positive(self, width):
        with pytest.raises(PreconditionError):
            NeedleConfig(trials=1, seed=1, generation=0,
                         strip_halfwidth=width)

    def test_circumradius(self):
        assert circumradius(four_corner()) == pytest.approx(math.sqrt(2) / 2)


class TestEstimator:
    def test_unit_square_closed_form(self):
        cfg = NeedleConfig(trials=400_000, seed=20260816, generation=0)
        est = estimate_favard_mc(four_corner(), cfg)
        assert abs(est.estimate - 8.0) <= 3 * est.standard_error
        assert est.hits <= est.trials

    def test_single_trial_dichotomy(self):
        for seed in (1, 2, 3, 4, 5):
            est = estimate_favard_mc(
                four_corner(), NeedleConfig(trials=1, seed=seed, generation=0))
            span = 2 * math.pi * 2 * est.strip_halfwidth
            assert est.estimate in (0.0, span)

    def test_seed_determinism(self):
        cfg = NeedleConfig(trials=300_000, seed=99, generation=2)
        a = estimate_favard_mc(four_corner(), cfg)
        b = estimate_favard_mc(four_corner(), cfg)
        assert a.estimate == b.estimate
        assert a.hits == b.hits
        assert a.standard_error == b.standard_error

    def test_different_seeds_differ(self):
        a = estimate_favard_mc(four_corner(),
                               NeedleConfig(trials=100_000, seed=1,
                                            generation=1))
        b = estimate_favard_mc(four_corner(),
                               NeedleConfig(trials=100_000, seed=2,
                                            generation=1))
        assert a.hits != b.hits

    def test_agrees_with_quadrature_at_n2(self):
        cfg = NeedleConfig(trials=400_000, seed=20260816, generation=2)
        est = estimate_favard_mc(four_corner(), cfg)
        quad = favard(four_corner(), 2)
        assert abs(est.estimate - quad.value) <= \
            3 * est.standard_error + quad.error

    def test_unbiased_across_seeds(self):
        quad = favard(four_corner(), 1)
        trials = 50_000
        ests = []
        ses = []
        for seed in range(50):
            est = estimate_favard_mc(
                four_corner(),
                NeedleConfig(trials=trials, seed=seed, generation=1))
            ests.append(est.estimate)
            ses.append(est.standard_error)
        mean = sum(ests) / len(ests)
        pooled = math.sqrt(sum(se * se for se in ses)) / len(ses)
        assert abs(mean - quad.value) < 4 * pooled

    def test_wider_strip_same_expectation(self):
        w = circumradius(four_corner())
        a = estimate_favard_mc(
            four_corner(),
            NeedleConfig(trials=400_000, seed=7, generation=1))
        b = estimate_favard_mc(
            four_corner(),
            NeedleConfig(trials=400_000, seed=7, generation=1,
                         strip_halfwidth=2 * w))
        combined = math.hypot(a.standard_error, b.standard_error)
        assert abs(a.estimate - b.estimate) < 4 * combined

    def test_narrow_strip_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_favard_mc(
                four_corner(),
                NeedleConfig(trials=100, seed=1, generation=0,
                             strip_halfwidth=0.5))

    def test_generation_cap(self):
        with pytest.raises(PreconditionError):
            estimate_favard_mc(
                four_corner(),
                NeedleConfig(trials=1, seed=1, generation=9))

    def test_batch_boundary_determinism(self):
        # trial counts straddling the batch size must still be reproducible
        # and consistent prefixes of the same stream
        cfg_small = NeedleConfig(trials=(1 << 17) + 17, seed=5, generation=1)
        a = estimate_favard_mc(four_corner(), cfg_small)
        b = estimate_favard_mc(four_corner(), cfg_small)
        assert a.estimate == b.estimate

    def test_int_base_and_float_maps(self):
        # numbers given as ints or floats are stored exactly
        ifs = IFS2D("x", (Similitude2D(0.5, (0, 0)),
                          Similitude2D(0.5, (0.5, 0.5))), (0, 0, 1, 1))
        est = estimate_favard_mc(ifs, NeedleConfig(trials=200_000, seed=3,
                                                   generation=1))
        quad = favard(ifs, 1)
        assert quad.value == pytest.approx(6.828, abs=1e-3)
        assert abs(est.estimate - quad.value) <= \
            3 * est.standard_error + quad.error

    def test_needs_square_base_and_equal_ratios(self):
        rect = IFS2D("rect", (Similitude2D.of(Fraction(1, 4), 0, 0),
                              Similitude2D.of(Fraction(1, 4), Fraction(3, 4), 0)),
                     (0, 0, 2, 1))
        with pytest.raises(PreconditionError):
            estimate_favard_mc(rect, NeedleConfig(trials=1, seed=1,
                                                  generation=0))
        mixed = IFS2D("mixed", (Similitude2D.of(Fraction(1, 4), 0, 0),
                                Similitude2D.of(Fraction(1, 2), 0, 0)),
                      (0, 0, 1, 1))
        with pytest.raises(PreconditionError):
            estimate_favard_mc(mixed, NeedleConfig(trials=1, seed=1,
                                                   generation=0))


class TestTreeDescent:
    """The cylinder-tree descent counts exactly the lines that the
    all-squares predicate counts, and makes exactly the (line, node) tests
    of the descent that builds every node's box."""

    CASES = ([("four-corner", n) for n in range(7)]
             + [("sparse-corner(8)", n) for n in range(5)]
             + [("sierpinski-gasket", n) for n in range(6)])

    @pytest.mark.parametrize("name,n", CASES)
    def test_leaf_centers_match_fraction_enumeration(self, name, n):
        ifs = preset(name)
        levels, _, centres = _cylinder_tree(ifs, n, circumradius(ifs))
        cx, cy = centres(np.arange(len(ifs.maps) ** n))
        ox, oy, ohalf = needle_squares_bruteforce(_maps(ifs), ifs.base, n)
        assert np.array_equal(cx, ox)
        assert np.array_equal(cy, oy)
        # a leaf's box is its square
        assert levels[-1][2] == levels[-1][3] == ohalf

    @pytest.mark.parametrize("name,n", CASES)
    def test_hits_match_bruteforce(self, name, n):
        ifs = preset(name)
        for seed in (3, 11, 2 ** 63 + 5):
            cfg = NeedleConfig(trials=3_000, seed=seed, generation=n)
            est = estimate_favard_mc(ifs, cfg)
            assert est.hits == _bruteforce(ifs, cfg)
            assert (est.hits, est.tests) == _reference(ifs, cfg)

    def test_hits_match_bruteforce_across_batches(self):
        cfg = NeedleConfig(trials=BATCH_SIZE + 17, seed=5, generation=3)
        est = estimate_favard_mc(four_corner(), cfg)
        assert est.hits == _bruteforce(four_corner(), cfg)
        assert (est.hits, est.tests) == _reference(four_corner(), cfg)

    def test_hits_match_bruteforce_wide_strip(self):
        cfg = NeedleConfig(trials=20_000, seed=7, generation=3,
                           strip_halfwidth=2 * circumradius(four_corner()))
        est = estimate_favard_mc(four_corner(), cfg)
        assert est.hits == _bruteforce(four_corner(), cfg)
        assert (est.hits, est.tests) == _reference(four_corner(), cfg)

    @given(st.integers(2, 5), st.sampled_from([2, 3, 4]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_systems_match_bruteforce(self, m, q, data):
        # translations on the 1/12 grid in [-1/6, 1]^2, so images may
        # overlap each other or stick out of the base; the base square has
        # a grid corner and a rational side, integer bounds given as ints
        grid = st.integers(-2, 12).map(lambda i: Fraction(i, 12))
        maps = tuple(Similitude2D(Fraction(1, q), (data.draw(grid),
                                                   data.draw(grid)))
                     for _ in range(m))
        x0, y0 = data.draw(grid), data.draw(grid)
        side = data.draw(st.sampled_from([1, 2, Fraction(2, 3),
                                          Fraction(5, 4)]))
        base = (x0, y0, x0 + side, y0 + side)
        ifs = IFS2D("random", maps, tuple(
            int(v) if v.denominator == 1 else v for v in base))
        cfg = NeedleConfig(trials=500,
                           seed=data.draw(st.integers(0, 2 ** 64 - 1)),
                           generation=data.draw(st.integers(0, 4)))
        est = estimate_favard_mc(ifs, cfg)
        assert est.hits == _bruteforce(ifs, cfg)
        assert (est.hits, est.tests) == _reference(ifs, cfg)

    @pytest.mark.parametrize("name,n", [("four-corner", 0), ("four-corner", 5),
                                        ("sparse-corner(8)", 3),
                                        ("sierpinski-gasket", 5)])
    def test_exact_leaf_fallback(self, name, n, monkeypatch):
        # a band wider than any offset sends every leaf pair to the
        # all-squares predicate; nothing but the fallback then decides hits
        ifs = preset(name)
        cfg = NeedleConfig(trials=3_000, seed=13, generation=n)
        carried = estimate_favard_mc(ifs, cfg)
        monkeypatch.setattr(needle, "_LEAF_BAND", math.inf)
        exact = estimate_favard_mc(ifs, cfg)
        assert 0 < exact.hits == carried.hits == _bruteforce(ifs, cfg)
        assert exact.tests == carried.tests

    def test_counts_predicate_evaluations(self):
        flat = estimate_favard_mc(
            four_corner(), NeedleConfig(trials=5_000, seed=1, generation=0))
        assert flat.tests == 5_000
        deep = estimate_favard_mc(
            four_corner(), NeedleConfig(trials=5_000, seed=1, generation=6))
        # one line per node would be 5461 tests per line; pruning keeps it
        # to a few dozen
        assert 5_000 < deep.tests < 5_000 * 100
