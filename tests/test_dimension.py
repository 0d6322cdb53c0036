import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favardlab import intervals, projection
from favardlab.errors import DegenerateFitError, PreconditionError
from favardlab.dimension import (
    DecayRecord,
    cover_stats,
    decay_series,
    exponent_fit,
    lattice,
    matched_depth,
    neighborhood_sequence,
    read_points,
    section_lattice,
    seesaw_builder,
    sheared_radius,
)
from favardlab.favard import _half_period, _panel_nodes
from favardlab.ifs import four_corner, sierpinski_gasket, sparse_corner
from favardlab.intervals import MERGE_EPSILON, IntervalSet
from favardlab.projection import (
    Direction,
    DirectionBatch,
    neighborhood_lengths,
)

from oracles import (
    expand_components,
    float_generations_reference,
    float_step_reference,
    neighborhood_measure,
    project_square_ifs,
    union_measure,
)


class TestMatchedDepth:
    def test_exact_powers_land_on_depth(self):
        fc = four_corner()
        for k in range(1, 7):
            assert matched_depth(fc, Fraction(1, 4 ** k)) == k

    def test_between_powers_rounds_up(self):
        fc = four_corner()
        assert matched_depth(fc, Fraction(1, 2 * 4 ** 3)) == 4
        assert matched_depth(fc, Fraction(1, 5)) == 2

    def test_large_scale_is_depth_zero(self):
        assert matched_depth(four_corner(), 2) == 0

    def test_positive_scale_required(self):
        with pytest.raises(ValueError):
            matched_depth(four_corner(), 0)

    def test_depth_capped(self):
        with pytest.raises(ValueError, match="too small to match a depth"):
            matched_depth(sierpinski_gasket(), Fraction(1, 2 ** 10_001))

    def test_depth_capped_message_names_cap_and_ratio(self):
        # 1/4**10001 has more than the 4300 digits Python prints of an int
        # by default: the message names the cap and the ratio instead
        with pytest.raises(ValueError) as err:
            matched_depth(four_corner(), Fraction(1, 4 ** 10_001))
        assert str(err.value) == (
            "scale is too small to match a depth: it lies below 1/4**10000, "
            "the largest ratio to the power of the 10000-step cap")


class TestShearedRadius:
    def test_axis_slope_exact(self):
        d = Direction("x", Fraction(0))
        assert sheared_radius(Fraction(1, 8), d) == Fraction(1, 8)

    @given(st.fractions(min_value="1/100", max_value=1, max_denominator=100),
           st.fractions(min_value=-1, max_value=1, max_denominator=20))
    @settings(max_examples=100, deadline=None)
    def test_dominates_true_radius_tightly(self, r, t):
        d = Direction("x", t)
        rs = sheared_radius(r, d)
        # exact domination: rs^2 >= r^2 (1 + t^2)
        assert rs * rs >= r * r * d.shear_norm_sq
        # and within snapping distance of it
        assert float(rs) <= float(r) * math.sqrt(1 + float(t) ** 2) + 2e-12


class TestCoverStats:
    def test_axis_closed_form(self):
        fc = four_corner()
        d = Direction("x", Fraction(0))
        for n in range(2, 9):
            cs = cover_stats(fc, d, Fraction(1, 2 * 4 ** n))
            assert cs.count == 2 ** n
            assert cs.min_length_sheared == Fraction(2, 4 ** n)
            assert cs.min_length == 2.0 / 4 ** n
            assert cs.floor_ok
            assert cs.count_ceiling_ok
            total = cs.holder_sums[Fraction(1, 2)]
            assert abs(total - math.sqrt(2)) <= 1e-12
            assert cs.q_values[Fraction(1, 2)] == 1

    def test_coarse_radius_merges_to_one(self):
        cs = cover_stats(four_corner(), Direction("x", Fraction(0)),
                         Fraction(1, 4))
        assert cs.count == 1
        assert cs.intervals.intervals[0].lo == Fraction(-1, 4)
        assert cs.intervals.intervals[0].hi == Fraction(5, 4)

    def test_sheared_direction_floor_holds(self):
        cs = cover_stats(four_corner(), Direction("x", Fraction(1, 3)),
                         Fraction(1, 64))
        assert cs.floor_ok
        assert cs.count_ceiling_ok
        assert cs.measure >= cs.count * 2 * (1 / 64)

    def test_holder_ladder(self):
        # with every piece shorter than 1, p -> sum |I|^p is nonincreasing
        cs = cover_stats(four_corner(), Direction("x", Fraction(0)),
                         Fraction(1, 512),
                         exponents=(Fraction(1, 4), Fraction(1, 2),
                                    Fraction(3, 4)))
        sums = [cs.holder_sums[p] for p in (Fraction(1, 4), Fraction(1, 2),
                                            Fraction(3, 4))]
        assert sums[0] >= sums[1] >= sums[2]

    def test_exponent_validation(self):
        fc = four_corner()
        d = Direction("x", Fraction(0))
        with pytest.raises(ValueError):
            cover_stats(fc, d, Fraction(1, 8), exponents=(Fraction(1),))
        with pytest.raises(ValueError):
            cover_stats(fc, d, Fraction(1, 8), exponents=(0,))
        with pytest.raises(ValueError):
            cover_stats(fc, d, 0)

    @pytest.mark.parametrize("direction", [
        Direction("x", Fraction(0)),
        Direction("x", Fraction(3117, 10000)),
        Direction("y", Fraction(-2, 7) + Fraction(1, 3 ** 40)),
    ], ids=Direction.label)
    def test_fields_match_interval_path(self, direction):
        # the statistics read from one Interval of Fractions per piece; the
        # last denominator is past 2^53, where float(p) / float(q) would
        # round twice
        ps = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        cs = cover_stats(four_corner(), direction, Fraction(1, 4096), ps)
        lengths = [iv.length for iv in cs.intervals.intervals]
        true_lengths = [float(l) * direction.scale for l in lengths]
        assert cs.count == len(lengths) > 1
        assert cs.min_length_sheared == min(lengths)
        assert cs.min_length == float(min(lengths)) * direction.scale
        assert cs.measure == float(sum(lengths)) * direction.scale
        assert cs.holder_sums == {p: math.fsum(l ** float(p) for l in true_lengths)
                                  for p in ps}

    def test_scale_monotonicity(self):
        fc = four_corner()
        d = Direction("x", Fraction(2, 5))
        radii = [Fraction(1, 4 ** k) for k in (1, 2, 3, 4)]
        stats = [cover_stats(fc, d, r) for r in radii]
        gen = {s.depth for s in stats}
        assert len(gen) == len(stats)
        # at fixed depth, growing r grows measure and cannot split pieces
        base = stats[-1]
        grown = base.intervals.expand(Fraction(1, 100))
        assert grown.measure >= base.intervals.measure
        assert grown.count <= base.count


def records(pairs):
    return [DecayRecord(r, total, depth) for depth, (r, total) in enumerate(pairs)]


class TestDecayAndFit:
    def test_synthetic_power_law(self):
        rows = records((8.0 ** -k, (8.0 ** -k) ** (1 / 3)) for k in (3, 4, 5, 6))
        fit = exponent_fit(rows)
        assert fit.s == pytest.approx(1 / 3, abs=1e-9)
        assert fit.residual < 1e-6
        assert fit.dim_bound == pytest.approx(2 / 3, abs=1e-9)

    def test_constant_totals(self):
        fit = exponent_fit(records([(0.1, 2.0), (0.01, 2.0), (0.001, 2.0)]))
        assert fit.s == pytest.approx(0.0, abs=1e-12)
        assert fit.dim_bound == pytest.approx(1.0)

    def test_degenerate_inputs(self):
        with pytest.raises(PreconditionError):
            exponent_fit(records([(0.1, 1.0), (0.01, 0.5)]))
        with pytest.raises(DegenerateFitError):
            exponent_fit(records([(0.1, 1.0), (0.1, 0.5), (0.1, 0.2)]))
        with pytest.raises(DegenerateFitError):
            exponent_fit(records([(0.1, 1.0), (0.01, 0.0), (0.001, 0.2)]))

    def test_sparse_corner_pipeline(self):
        sc = sparse_corner(8)
        series = decay_series(sc, [Fraction(8) ** -k for k in (3, 4, 5, 6)])
        totals = [rec.total for rec in series]
        assert all(b < a for a, b in zip(totals, totals[1:]))
        fit = exponent_fit(series)
        assert 0.28 <= fit.s <= 0.40
        assert abs(fit.dim_bound - 2 / 3) < 0.05

    def test_four_corner_decays_slower(self):
        fc = four_corner()
        series = decay_series(fc, [Fraction(4) ** -k for k in (3, 4, 5, 6)])
        fit = exponent_fit(series)
        assert fit.s < 0.25

    def test_scales_must_decrease(self):
        with pytest.raises(PreconditionError):
            decay_series(four_corner(), [Fraction(1, 4), Fraction(1, 2)])

    def test_depth_sensitivity_brackets(self):
        fc = four_corner()
        series = decay_series(fc, [Fraction(1, 64)], sensitivity=True)
        rec = series[0]
        assert rec.total_shallower is not None
        assert rec.total_deeper is not None
        # deeper generations are smaller sets, shallower ones larger
        assert rec.total_deeper <= rec.total <= rec.total_shallower

    def test_explicit_window(self):
        series = decay_series(four_corner(), [Fraction(1, 16)],
                              window=(0.0, 0.1))
        full = decay_series(four_corner(), [Fraction(1, 16)])
        assert series[0].total < full[0].total

    @pytest.mark.parametrize("ifs, scales, window", [
        (four_corner(), [Fraction(1, 16), Fraction(1, 64)], None),
        (sparse_corner(8), [Fraction(1, 64), Fraction(1, 512)], None),
        (sierpinski_gasket(), [Fraction(1, 8), Fraction(1, 32)],
         (-math.pi / 4, 3 * math.pi / 4)),
    ], ids=["four-corner", "sparse-corner(8)", "gasket"])
    def test_per_direction_rows_match_one_node_reference(self, ifs, scales,
                                                         window):
        # each node's float generation, at the same unsnapped slope, built by
        # the per-direction step, then expanded by r / scale and merged
        series = decay_series(ifs, scales, window=window, panels=4, order=8)
        lo, hi, factor = _half_period(ifs) if window is None else (*window, 1.0)
        thetas, weights = _panel_nodes(lo, hi, 4, 8)
        batch = DirectionBatch.from_angles(thetas)
        maps2d = [(m.ratio, m.translation) for m in ifs.maps]
        rows = neighborhood_lengths(ifs, thetas,
                                    [(rec.depth, rec.r) for rec in series])
        for rec, measures in zip(series, rows):
            assert rec.total == float(np.dot(factor * weights, measures))
            for measure, cy, s, scale in zip(
                    measures, batch.chart_y, batch.slope, batch.scale):
                maps1d, base = project_square_ifs(
                    maps2d, ifs.base, "y" if cy else "x", Fraction(float(s)))
                sets, _ = float_generations_reference(
                    [(float(r), float(c)) for r, c in maps1d],
                    [float(v) for v in base], rec.depth, MERGE_EPSILON)
                lo, hi = sets[-1]
                radius = rec.r / scale
                lo, hi = float_step_reference(lo - radius, hi + radius,
                                              [(1.0, 0.0)], MERGE_EPSILON)
                assert measure == pytest.approx(float(np.sum(hi - lo)) * scale,
                                                rel=1e-12)

    def test_one_pass_per_call(self, monkeypatch):
        # brackets 2..7: the call projects the system once and steps each
        # node 7 times, where a pass per (scale, bracket) steps 54; every
        # step sweeps its images once, the deepest one in place
        sc = sparse_corner(8)
        calls = {"functional": 0, "rows": 0}
        functional, sweep = DirectionBatch.functional, intervals._sweep

        def counted_functional(self, *args):
            calls["functional"] += 1
            return functional(self, *args)

        def counted_sweep(lo, *args):
            calls["rows"] += lo.shape[0]
            return sweep(lo, *args)

        monkeypatch.setattr(DirectionBatch, "functional", counted_functional)
        monkeypatch.setattr(intervals, "_sweep", counted_sweep)
        decay_series(sc, [Fraction(8) ** -k for k in (3, 4, 5, 6)],
                     sensitivity=True)
        nodes, _ = _panel_nodes(*_half_period(sc)[:2], 8, 16)
        # the maps' offsets and the base corners
        assert calls == {"functional": 2, "rows": len(nodes) * 7}

    def test_no_pairs(self):
        thetas, _ = _panel_nodes(-0.5, 2.0, 4, 8)
        rows = neighborhood_lengths(four_corner(), thetas, [])
        assert rows.shape == (0, len(thetas))

    @pytest.mark.parametrize("ifs", [four_corner(), sierpinski_gasket()],
                             ids=["four-corner", "gasket"])
    def test_each_pair_matches_its_own_call(self, ifs):
        # shuffled pairs with repeated depths; pairing each with the
        # deepest one keeps the row groups, so the rows agree bit for bit
        wanted = [(3, 0.01), (1, 0.1), (3, 0.02), (0, 0.5), (5, 0.003),
                  (1, 0.07), (3, 0.01), (2, 0.3)]
        random.Random(5).shuffle(wanted)
        thetas, _ = _panel_nodes(-0.5, 2.0, 4, 8)
        rows = neighborhood_lengths(ifs, thetas, wanted)
        assert rows.shape == (len(wanted), len(thetas))
        for pair, row in zip(wanted, rows):
            alone = neighborhood_lengths(ifs, thetas, [pair, (5, 0.25)])[0]
            assert row.tobytes() == alone.tobytes()

    def test_no_merge_after_the_engine(self, monkeypatch):
        # a grown merged row is measured from its chains: only the engine's
        # steps call merge_float_arrays
        callers = []
        real = projection.merge_float_arrays

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)

        monkeypatch.setattr(projection, "merge_float_arrays", spy)
        decay_series(sparse_corner(8), [Fraction(8) ** -k for k in (3, 4, 5, 6)])
        assert callers and set(callers) == {"_float_walk"}

    @pytest.mark.parametrize("r, pieces", [
        (0.25, 1),                  # the grown intervals touch
        (0.25 - 2.5e-13, 1),        # a gap of 5e-13 <= MERGE_EPSILON is glued
        (0.25 - 2.0 ** -22, 2),     # a gap of 2^-21 stays open
    ])
    def test_gap_glued_as_the_merge_glues_it(self, r, pieces):
        # four-corner at angle 0, generation 1: [0, 1/4] u [3/4, 1]
        lo, hi = np.array([0.0, 0.75]), np.array([0.25, 1.0])
        mlo, mhi = float_step_reference(lo - r, hi + r, [(1.0, 0.0)],
                                        MERGE_EPSILON)
        assert mlo.size == pieces
        got = neighborhood_lengths(four_corner(), [0.0], [(1, r)])
        assert got[0, 0] == float(np.sum(mhi - mlo))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            neighborhood_lengths(four_corner(), [0.1], [(2, 0.1), (-1, 0.1)])

    def test_sparse_corner_pinned_to_snapped_values(self):
        # totals and fit before the nodes stopped being snapped to rational
        # slopes (denominator <= 10^6); the move is a few 1e-12
        sc = sparse_corner(8)
        series = decay_series(sc, [Fraction(8) ** -k for k in (3, 4, 5, 6)])
        snapped = [0.9585972863253329, 0.47692162731044274,
                   0.23810689841342614, 0.11898494021296699]
        for rec, want in zip(series, snapped):
            assert rec.total == pytest.approx(want, abs=1e-10)
        assert exponent_fit(series).s == pytest.approx(0.3344193467127999,
                                                       abs=1e-10)

    @pytest.mark.parametrize("window", [(math.nan, 1.0), (0.0, math.inf),
                                        (-math.inf, 0.5)], ids=str)
    def test_non_finite_window_rejected(self, window):
        with pytest.raises(PreconditionError):
            decay_series(four_corner(), [Fraction(1, 16)], window=window)

    def test_needs_a_scale(self):
        with pytest.raises(ValueError, match="at least one scale"):
            decay_series(four_corner(), [])

    @pytest.mark.parametrize("window", [(0.5, 0.5), (0.5, 0.25)], ids=str)
    def test_empty_window_rejected(self, window):
        with pytest.raises(ValueError, match="positive length"):
            decay_series(four_corner(), [Fraction(1, 16)], window=window)

    def test_sanity_ceiling(self):
        # window length times the largest possible projected length
        series = decay_series(four_corner(), [Fraction(1, 16)])
        assert series[0].total <= math.pi * (math.sqrt(2) + 2 / 16)


class TestNeighborhoodSequence:
    def test_quarter_lattice_exact_values(self):
        seq = neighborhood_sequence(section_lattice(), 4, 4)
        assert [m for _, m in seq] == [
            102, Fraction(201, 2), Fraction(401, 8), Fraction(401, 32),
            Fraction(401, 128)]

    def test_single_point_geometric(self):
        seq = neighborhood_sequence([Fraction(0)], 4, 3)
        assert [m for _, m in seq] == [2, Fraction(1, 2), Fraction(1, 8),
                                       Fraction(1, 32)]

    def test_matches_brute_force_oracle(self):
        pts = [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(5, 2)]
        seq = neighborhood_sequence(pts, 3, 4)
        for n, m in seq:
            assert m == neighborhood_measure(pts, Fraction(3) ** -n)

    def test_interval_sources(self):
        pairs = [(0, 1), (2, Fraction(5, 2))]
        seq = neighborhood_sequence(IntervalSet.from_intervals(pairs), 2, 2)
        for n, m in seq:
            assert m == union_measure(
                expand_components(pairs, Fraction(2) ** -n))

    def test_empty_source(self):
        seq = neighborhood_sequence([], 4, 2)
        assert [m for _, m in seq] == [0, 0, 0]

    def test_base_validation(self):
        with pytest.raises(PreconditionError):
            neighborhood_sequence([0], 1, 2)
        with pytest.raises(ValueError):
            neighborhood_sequence([0], 4, -1)


class TestSeesaw:
    def test_single_stage_reproduces_lattice(self):
        res = seesaw_builder([(50, Fraction(1, 4), 50)], base=4, n_max=4)
        assert res.points == section_lattice()
        assert [m for _, m in res.sequence] == [
            102, Fraction(201, 2), Fraction(401, 8), Fraction(401, 32),
            Fraction(401, 128)]
        assert not res.convexity.convex
        assert res.convexity.first_violation == 1

    def test_two_stage_seesaw_flips_twice(self):
        res = seesaw_builder([(0, Fraction(1, 4), 5),
                              (20, Fraction(1, 64), 3)], base=4, n_max=5)
        signs = [1 if m > 0 else -1 for _, m in res.convexity.margins
                 if m != 0]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes >= 2
        assert res.overlaps == ()

    def test_overlap_warning(self):
        with pytest.warns(UserWarning):
            res = seesaw_builder([(0, Fraction(1, 4), 2),
                                  (1, Fraction(1, 16), 2)], base=4, n_max=3)
        assert res.overlaps == ((0, 1),)

    def test_spacing_must_decrease(self):
        with pytest.raises(PreconditionError):
            seesaw_builder([(0, Fraction(1, 4), 1), (5, Fraction(1, 2), 1)])

    def test_empty_stages(self):
        res = seesaw_builder([], base=4, n_max=3)
        assert res.points == ()
        assert [m for _, m in res.sequence] == [0, 0, 0, 0]
        assert res.convexity.convex

    def test_lattice_helper(self):
        pts = lattice(0, Fraction(1, 2), 1)
        assert pts == (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            lattice(0, 0, 1)
        with pytest.raises(ValueError, match="extent must be nonnegative"):
            lattice(0, 1, -1)


class TestReadPoints:
    def test_reads_rationals_with_comments(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("# lattice\n0\n1/4\n\n0.5\n", encoding="utf-8")
        assert read_points(path) == (0, Fraction(1, 4), Fraction(1, 2))

    def test_bad_line_reported(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0\nnope\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_points(path)
        assert "2" in str(exc.value)
