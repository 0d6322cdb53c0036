import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favardlab.errors import PreconditionError
from favardlab.favard import (
    AlphaSequence,
    QuadratureConfig,
    _gauss_legendre,
    _panel_nodes,
    alpha_sequence,
    check_convexity,
    favard,
    lipschitz_scan,
    lower_bound_certificate,
    special_slope_check,
)
from favardlab.ifs import IFS2D, Similitude2D, four_corner, sierpinski_gasket
from favardlab.projection import Direction

from oracles import second_difference_margins

slopes = st.fractions(min_value=-1, max_value=1, max_denominator=50)


def overlap_pair():
    """Ratio-sum-1 system whose images overlap, so alpha drifts downward."""
    maps = (Similitude2D.of(Fraction(1, 2), 0, 0),
            Similitude2D.of(Fraction(1, 2), Fraction(1, 4), 0))
    return IFS2D("overlap-pair", maps, (0, 0, 1, 1))


class TestAlphaSequence:
    def test_axis_slope_halves(self):
        seq = alpha_sequence(four_corner(), Direction("x", Fraction(0)), 3)
        assert seq.values == (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))

    def test_tiling_slope_constant(self):
        seq = alpha_sequence(four_corner(), Direction("x", Fraction(1, 2)), 3)
        assert seq.values == (Fraction(3, 2),) * 4
        assert len(seq) == 4

    def test_gasket_axis_fills_base(self):
        seq = alpha_sequence(sierpinski_gasket(), Direction("x", Fraction(0)), 2)
        assert seq.values == (1, 1, 1)

    def test_negative_generation_rejected(self):
        with pytest.raises(ValueError):
            alpha_sequence(four_corner(), Direction("x", Fraction(1, 3)), -1)

    @given(slopes, st.sampled_from(["x", "y"]))
    @settings(max_examples=50, deadline=None)
    def test_nonincreasing(self, t, chart):
        seq = alpha_sequence(four_corner(), Direction(chart, t), 6)
        for a, b in zip(seq.values, seq.values[1:]):
            assert b <= a


class TestConvexity:
    def test_geometric_example(self):
        rep = check_convexity([1, Fraction(1, 2), Fraction(1, 4)])
        assert rep.convex
        assert rep.margins == ((1, Fraction(1, 4)),)
        assert rep.exact

    def test_constant_sequence(self):
        rep = check_convexity([Fraction(3, 2)] * 3)
        assert rep.convex
        assert rep.margins[0][1] == 0

    def test_lattice_counterexample_values(self):
        rep = check_convexity([102, Fraction(201, 2), Fraction(401, 8)])
        assert not rep.convex
        assert rep.first_violation == 1
        assert rep.margins[0][1] == Fraction(-391, 8)
        assert not rep.diffs_nonincreasing

    def test_accepts_alpha_sequence(self):
        seq = alpha_sequence(four_corner(), Direction("x", Fraction(1, 3)), 4)
        rep = check_convexity(seq)
        assert rep.convex
        assert rep.exact

    def test_float_inputs_reported_inexact(self):
        rep = check_convexity([1.0, 0.5, 0.25])
        assert rep.convex
        assert not rep.exact

    def test_too_short(self):
        with pytest.raises(ValueError):
            check_convexity([1, 2])

    @given(slopes, st.sampled_from(["x", "y"]))
    @settings(max_examples=60, deadline=None)
    def test_exact_convexity_random_slopes(self, t, chart):
        seq = alpha_sequence(four_corner(), Direction(chart, t), 6)
        rep = check_convexity(seq)
        assert rep.convex
        assert rep.diffs_nonincreasing
        assert rep.nonincreasing
        assert rep.margins == tuple(second_difference_margins(seq.values))

    @given(slopes)
    @settings(max_examples=40, deadline=None)
    def test_iterated_bound_soundness(self, t):
        seq = alpha_sequence(four_corner(), Direction("x", t), 6)
        a0 = seq.values[0]
        d1 = seq.values[0] - seq.values[1]
        for n, an in enumerate(seq.values):
            assert an >= a0 - n * d1


class TestFavardQuadrature:
    def test_square_closed_form(self):
        est = favard(four_corner(), 0)
        assert est.converged
        assert est.value == pytest.approx(8.0, abs=1e-6)

    def test_non_dihedral_domain_also_exact(self):
        # the gasket preset shares the unit-square base, so generation 0
        # exercises the half-period split with the same closed form
        est = favard(sierpinski_gasket(), 0)
        assert est.value == pytest.approx(8.0, abs=1e-5)

    def test_nonincreasing_in_generation(self):
        vals = [favard(four_corner(), n).value for n in range(3)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_unconverged_status(self):
        quad = QuadratureConfig(tol=1e-15, max_refinements=1,
                                initial_panels=1, panel_order=4)
        est = favard(four_corner(), 3, quad)
        assert est.status == "unconverged"
        assert est.error > 0

    @pytest.mark.parametrize("ifs, n, value, status, panels", [
        (four_corner(), 1, 6.596736989742694, "converged", 64),
        (four_corner(), 2, 5.830402354833069, "converged", 256),
        (four_corner(), 3, 5.300862263416933, "unconverged", 256),
        (sierpinski_gasket(), 1, 7.23606804806243, "converged", 256),
        (sierpinski_gasket(), 2, 6.854102072093369, "converged", 256),
    ], ids=["four-corner-1", "four-corner-2", "four-corner-3", "gasket-1",
            "gasket-2"])
    def test_float_values_kept(self, ifs, n, value, status, panels):
        # default settings; reference values computed with every node
        # snapped to a rational slope, which unsnapped float slopes must
        # reproduce to 1e-9 with the same status and panel count
        est = favard(ifs, n)
        assert abs(est.value - value) <= 1e-9
        assert (est.status, est.panels) == (status, panels)

    @pytest.mark.parametrize("quad", [QuadratureConfig(initial_panels=0),
                                      QuadratureConfig(panel_order=0)])
    def test_empty_rule_rejected(self, quad):
        # zero panels or zero-point panels would integrate to 0 and agree
        # with themselves, a false "converged"
        with pytest.raises(PreconditionError):
            favard(four_corner(), 1, quad)


    @pytest.mark.parametrize("kwargs", [
        {"tol": -1.0}, {"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf},
        {"max_refinements": -1},
    ], ids=["tol-negative", "tol-zero", "tol-nan", "tol-inf", "refinements-negative"])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(PreconditionError):
            QuadratureConfig(**kwargs)

    def test_rule_kept_per_order(self, monkeypatch):
        # the rule of an order is computed once and kept read-only; the
        # nodes and weights handed out are new arrays, so writing to them
        # does not reach the next call
        real = np.polynomial.legendre.leggauss
        calls = []
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda order: calls.append(order) or real(order))
        _gauss_legendre.cache_clear()
        for panels in (1, 3):
            first = [a.copy() for a in _panel_nodes(0.0, 1.0, panels, 7)]
            for a in _panel_nodes(0.0, 1.0, panels, 7):
                a[:] = 0.0
            again = _panel_nodes(0.0, 1.0, panels, 7)
            assert [a.tobytes() for a in again] == [a.tobytes() for a in first]
        x, w = _panel_nodes(-1.0, 1.0, 1, 7)
        assert [x.tobytes(), w.tobytes()] == [a.tobytes() for a in real(7)]
        assert calls == [7]
        assert not any(a.flags.writeable for a in _gauss_legendre(7))

    def test_import_computes_no_rule(self):
        code = ("import sys\n"
                "import favardlab\n"
                "rule = sys.modules['favardlab.favard']._gauss_legendre\n"
                "print(rule.cache_info().currsize)\n")
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_zero_refinements_allowed(self):
        est = favard(four_corner(), 1, QuadratureConfig(max_refinements=0))
        assert est.panels == QuadratureConfig().initial_panels


class TestSpecialSlope:
    def test_half_tiles(self):
        rep = special_slope_check(four_corner(), Fraction(1, 2))
        assert rep.tiles
        assert rep.defect == 0
        assert rep.pieces == 1
        assert rep.base_measure == Fraction(3, 2)

    def test_axis_defect(self):
        rep = special_slope_check(four_corner(), Fraction(0))
        assert not rep.tiles
        assert rep.defect == Fraction(1, 2)

    def test_diagonal_defect(self):
        rep = special_slope_check(four_corner(), Fraction(1))
        assert not rep.tiles
        assert rep.defect == Fraction(1, 2)

    def test_steep_slope_switches_chart(self):
        # slope 2 is the reflection of slope 1/2; the square's symmetry
        # makes it tile as well
        rep = special_slope_check(four_corner(), Fraction(2))
        assert rep.tiles


class TestLipschitzScan:
    def test_scan_contract(self):
        rep = lipschitz_scan(four_corner(), nodes=2001)
        assert rep.sup_slope <= 10.5
        assert rep.nonnegative
        assert any(abs(z - math.atan(0.5)) < 1e-3 for z in rep.zeros)
        assert rep.min_value >= -1e-12
        assert rep.spacing == pytest.approx(math.pi / 2000)

    def test_all_four_tiling_directions_found(self):
        rep = lipschitz_scan(four_corner(), nodes=4001)
        star = math.atan(0.5)
        expected = (-star, star, math.pi / 2 - star, math.pi / 2 + star)
        for target in expected:
            assert any(abs(z - target) < 1e-3 for z in rep.zeros)

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            lipschitz_scan(four_corner(), nodes=2)


class TestCertificate:
    def test_passes_small_n(self):
        for n in (1, 2, 3):
            cert = lower_bound_certificate(four_corner(), n, grid_count=24)
            assert cert.passed
            assert cert.claimed_bound == pytest.approx(1 / (40 * n))
            assert cert.window_halfwidth == pytest.approx(1 / (40 * n))
            assert cert.window_center == pytest.approx(math.atan(0.5))
            assert len(cert.grid) == 24
            assert cert.witness is None

    def test_rows_are_exact_and_consistent(self):
        cert = lower_bound_certificate(four_corner(), 2, grid_count=8)
        for row in cert.grid:
            assert isinstance(row.alpha0, Fraction)
            assert row.d1 == row.alpha0 - row.alpha1
            assert row.lower == row.alpha0 - 2 * row.d1
            scale = 1 / math.sqrt(1 + float(row.slope) ** 2)
            assert row.ok == (float(row.lower) * scale >= 0.5 - 1e-12)

    def test_gasket_precondition(self):
        with pytest.raises(PreconditionError):
            lower_bound_certificate(sierpinski_gasket(), 2)

    def test_bad_generation_and_grid(self):
        with pytest.raises(PreconditionError):
            lower_bound_certificate(four_corner(), 0)
        with pytest.raises(PreconditionError):
            lower_bound_certificate(four_corner(), 1, grid_count=1)

    def test_nesting_precondition(self):
        maps = (Similitude2D.of(Fraction(1, 2), 0, 0),
                Similitude2D.of(Fraction(1, 2), Fraction(3, 4), 0))
        escaping = IFS2D("escape", maps, (0, 0, 1, 1))
        with pytest.raises(PreconditionError, match="nesting fails"):
            lower_bound_certificate(escaping, 1)

    def test_overlap_pair_fails_at_depth(self):
        # d1 stays near 1/2 on the whole window, so the iterated bound
        # collapses by n = 3 and the certificate must refuse to pass
        cert = lower_bound_certificate(overlap_pair(), 3, grid_count=8)
        assert not cert.passed
        assert cert.witness is not None

    def test_overlap_pair_passes_at_n1(self):
        cert = lower_bound_certificate(overlap_pair(), 1, grid_count=8)
        assert cert.passed
