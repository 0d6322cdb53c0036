import csv
import io
import itertools
import math
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from favardlab import intervals
from favardlab.errors import MalformedIntervalError
from favardlab.intervals import (
    FloatIntervalSet,
    Interval,
    IntervalSet,
    MERGE_EPSILON,
    merge_float_arrays,
    merge_int64_arrays,
    rational_str,
    to_fraction,
)

from oracles import reference_sweep, union_components, union_measure


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@st.composite
def interval_lists(draw, max_size=12):
    n = draw(st.integers(min_value=0, max_value=max_size))
    out = []
    for _ in range(n):
        a = draw(rationals)
        b = draw(rationals)
        lo, hi = (a, b) if a <= b else (b, a)
        out.append((lo, hi))
    return out


@st.composite
def integer_rows(draw):
    """Equal-length rows of unsorted integer intervals [a, a + w] near a
    base below 2^40 in magnitude: the narrow range of a gives touching and
    nested intervals, and w = 0 degenerate ones."""
    rows = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    lo, hi = [], []
    for _ in range(rows):
        base = draw(st.integers(-2**40, 2**40 - 64))
        pairs = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 8)),
                              min_size=m, max_size=m))
        lo.append([base + a for a, _ in pairs])
        hi.append([base + a + w for a, w in pairs])
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


@st.composite
def grid_rows(draw):
    """Unsorted intervals on a grid, one row (1D) or 1-4 rows (2D) of up to
    12: as integers (a, w, s, t), the interval [a, a + w] with jitters s
    and t of the float ends.  The narrow range of a gives nested, tied and
    touching intervals, and w = 0 degenerate ones."""
    rows = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    shape = (m,) if rows == 1 and draw(st.booleans()) else (rows, m)
    cells = draw(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 6),
                                    st.integers(0, 3), st.integers(0, 3)),
                          min_size=rows * m, max_size=rows * m))
    return [np.array(v, dtype=np.int64).reshape(shape) for v in zip(*cells)]


class TestScalars:
    def test_to_fraction_forms(self):
        assert to_fraction("3/4") == Fraction(3, 4)
        assert to_fraction("-7") == -7
        assert to_fraction("0.25") == Fraction(1, 4)
        assert to_fraction(5) == 5
        assert to_fraction(Fraction(2, 3)) == Fraction(2, 3)
        # floats convert exactly, not by decimal approximation
        assert to_fraction(0.1) == Fraction(0.1)

    def test_to_fraction_rejects(self):
        for bad in (math.inf, math.nan, "abc", "1/0"):
            with pytest.raises((ValueError, ZeroDivisionError)):
                to_fraction(bad)

    def test_rational_str_round_trip(self):
        for f in (Fraction(3, 4), Fraction(-5), Fraction(0), Fraction(22, 7)):
            assert to_fraction(rational_str(f)) == f
        assert rational_str(Fraction(6, 1)) == "6"
        assert rational_str(Fraction(1, 2)) == "1/2"


class TestInterval:
    def test_orders_endpoints_strictly(self):
        with pytest.raises(MalformedIntervalError):
            Interval(Fraction(1), Fraction(0))

    def test_rejects_non_finite(self):
        with pytest.raises((MalformedIntervalError, ValueError)):
            Interval(0.0, math.inf)

    def test_length(self):
        assert Interval(Fraction(1, 4), Fraction(3, 4)).length == Fraction(1, 2)


class TestExactSet:
    def test_touching_intervals_merge(self):
        s = IntervalSet.from_intervals([(0, 1), (1, 2)])
        assert s.count == 1
        assert s.measure == 2

    def test_overlap_and_containment(self):
        s = IntervalSet.from_intervals([(0, 2), (1, 3), (Fraction(1, 2), 1)])
        assert s.count == 1
        assert s.measure == 3

    def test_degenerates_dropped(self):
        s = IntervalSet.from_intervals([(1, 1), (2, 2), (0, Fraction(1, 2))])
        assert s.count == 1
        assert s.measure == Fraction(1, 2)

    def test_from_points_keeps_degenerates(self):
        s = IntervalSet.from_points([0, Fraction(1, 2), Fraction(1, 2), 3])
        assert s.count == 3
        assert s.measure == 0

    def test_empty(self):
        s = IntervalSet.from_intervals([])
        assert s.count == 0
        assert s.measure == 0
        assert s.bounds is None

    def test_equality_is_canonical(self):
        a = IntervalSet.from_intervals([(0, Fraction(1, 2))])
        b = IntervalSet.from_scaled(4, [0], [2])
        c = IntervalSet.from_scaled(8, [0], [4])
        assert a == b == c
        assert len({a, b, c}) == 1

    def test_expand_point_set(self):
        s = IntervalSet.from_points([0]).expand(Fraction(1, 4))
        assert s.intervals == (Interval(Fraction(-1, 4), Fraction(1, 4)),)

    def test_expand_merges_near_neighbors(self):
        s = IntervalSet.from_intervals([(0, 1), (Fraction(3, 2), 2)])
        grown = s.expand(Fraction(1, 4))
        assert grown.count == 1
        assert grown.bounds == (Fraction(-1, 4), Fraction(9, 4))

    def test_expand_requires_positive(self):
        s = IntervalSet.from_intervals([(0, 1)])
        with pytest.raises(ValueError):
            s.expand(0)

    def test_issuperset(self):
        big = IntervalSet.from_intervals([(0, 4)])
        small = IntervalSet.from_intervals([(1, 2), (3, 4)])
        assert big.issuperset(small)
        assert not small.issuperset(big)
        assert small.issuperset(IntervalSet.from_intervals([]))

    def test_min_length(self):
        s = IntervalSet.from_intervals([(0, 1), (2, Fraction(9, 4))])
        assert s.min_length() == Fraction(1, 4)

    @given(interval_lists())
    @settings(max_examples=300, deadline=None)
    def test_measure_count_match_oracle(self, items):
        s = IntervalSet.from_intervals(items)
        assert s.measure == union_measure(items)
        assert s.count == len(union_components(items))

    @given(interval_lists())
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_order_free(self, items):
        s = IntervalSet.from_intervals(items)
        again = IntervalSet.from_intervals([(iv.lo, iv.hi) for iv in s.intervals])
        assert again == s
        shuffled = list(items)
        random.Random(0).shuffle(shuffled)
        assert IntervalSet.from_intervals(shuffled) == s

    @given(interval_lists(), st.fractions(min_value="1/64", max_value=4,
                                          max_denominator=64))
    @settings(max_examples=200, deadline=None)
    def test_expand_bounds(self, items, r):
        s = IntervalSet.from_intervals(items)
        if s.count == 0:
            return
        grown = s.expand(r)
        assert grown.issuperset(s)
        assert grown.measure >= s.measure + 2 * r
        assert grown.measure <= s.measure + 2 * r * s.count
        assert grown.count <= s.count
        lo, hi = s.bounds
        assert grown.bounds == (lo - r, hi + r)


wide_rationals = st.one_of(
    rationals, st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                         st.integers(1, 2 ** 70)))
# small radii keep int64 sets int64; a denominator or a numerator past 2^62
# makes the expansion of an int64 set cross into object arrays
radii = st.one_of(
    st.fractions(min_value="1/64", max_value=4, max_denominator=64),
    st.builds(Fraction, st.integers(1, 2 ** 70), st.integers(2 ** 62, 2 ** 70)),
    st.integers(2 ** 61, 2 ** 63).map(Fraction))


def components(s):
    return [(iv.lo, iv.hi) for iv in s.intervals]


def assert_dtype_rule(s):
    lo, hi = s.numerators
    small = max([s.denominator] + [abs(v) for v in lo + hi]) < 2 ** 62
    assert s._lo.dtype == s._hi.dtype == (np.int64 if small else object)
    assert not (s._lo.flags.writeable or s._hi.flags.writeable)
    assert all(type(v) is int for v in lo + hi)


def contains(outer, inner):
    return all(any(a <= c and d <= b for a, b in outer) for c, d in inner)


class TestBothDtypes:
    @given(st.lists(st.tuples(wide_rationals, wide_rationals), max_size=10),
           radii, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_references(self, raw, r, data):
        items = [(min(p), max(p)) for p in raw]
        s = IntervalSet.from_intervals(items)
        comps = union_components(items)
        assert components(s) == comps
        assert s.measure == union_measure(items)
        assert_dtype_rule(s)
        if comps:
            assert s.min_length() == min(b - a for a, b in comps)

        grown = s.expand(r)
        widened = [(a - r, b + r) for a, b in comps]
        assert components(grown) == union_components(widened)
        assert grown.measure == union_measure(widened)
        assert_dtype_rule(grown)
        if comps:
            assert grown.min_length() == min(b - a for a, b in union_components(widened))

        subset = data.draw(st.lists(st.sampled_from(items), max_size=4)) if items else []
        # the endpoints of s lie in s and in grown, the right ends of grown
        # only in grown
        ends = [x for ab in comps for x in ab]
        others = (s, grown, IntervalSet.from_intervals(subset),
                  IntervalSet.from_points(ends),
                  IntervalSet.from_points(ends + [b + r for _, b in comps]))
        for big in (s, grown):
            for other in others:
                assert big.issuperset(other) == contains(components(big),
                                                         components(other))
        assert s.issuperset(grown) == (not comps)

        again = IntervalSet.from_intervals(reversed(components(grown)))
        assert again == grown and hash(again) == hash(grown)
        k = 2 ** 40 + 1
        lo, hi = s.numerators
        scaled = IntervalSet.from_scaled(s.denominator * k, [v * k for v in lo],
                                         [v * k for v in hi])
        assert scaled == s and hash(scaled) == hash(s)
        assert (grown == s) == (not comps)


def _aliases(x):
    """The rational-like values equal to the Fraction x: itself, its p/q
    text, and the int or float of the same value where there is one."""
    return ([x, rational_str(x)] + [int(x)] * (x.denominator == 1)
            + [float(x)] * (Fraction(float(x)) == x))


def object_numerators(values):
    """Numerators over the least common denominator as an object array, as
    the exact constructors scaled them before picking the engine's dtype."""
    den = math.lcm(*(x.denominator for x in values))
    return den, np.array([x.numerator * (den // x.denominator) for x in values],
                         dtype=object)


class TestConstructorDtype:
    @pytest.mark.parametrize("values, den, num, dtype", [
        ([Fraction(1, 3), Fraction(-5, 4)], 12, [4, -15], np.int64),
        ([Fraction(2 ** 62 - 1)], 1, [2 ** 62 - 1], np.int64),
        ([Fraction(-2 ** 62), Fraction(1, 2)], 2, [-2 ** 63, 1], object),
        ([Fraction(1, 2 ** 62)], 2 ** 62, [1], object),
        ([], 1, [], np.int64),
    ])
    def test_dtype_follows_magnitude(self, values, den, num, dtype):
        got_den, got = intervals._over_lcd(values)
        assert (got_den, got.tolist(), got.dtype) == (den, num, dtype)

    def test_small_intervals_merge_as_int64(self):
        seen = []

        def spy(lo, hi):
            seen.append((lo.dtype, hi.dtype))
            return merge_int64_arrays(lo, hi)

        items = [(Fraction(k, 7), Fraction(k + 3, 5)) for k in range(40, 0, -1)]
        with patch.object(intervals, "merge_int64_arrays", spy):
            IntervalSet.from_intervals(items)
            IntervalSet.from_intervals([(0, Fraction(1, 2 ** 62))])
        assert seen == [(np.int64, np.int64), (object, object)]

    @given(st.lists(st.tuples(wide_rationals, wide_rationals), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_sets_match_object_construction(self, raw):
        items = [(min(p), max(p)) for p in raw]
        den, num = object_numerators([x for ab in items for x in ab])
        want = intervals._merge_scaled(den, num[0::2], num[1::2])
        assert IntervalSet.from_intervals(items) == want
        pts = sorted({x for ab in items for x in ab})
        den, num = object_numerators(pts)
        assert IntervalSet.from_points(pts) == IntervalSet.from_scaled(den, num, num)

    @given(st.lists(wide_rationals.flatmap(lambda x: st.lists(
        st.sampled_from(_aliases(x)), min_size=1, max_size=3)), max_size=12).map(
            lambda groups: [p for group in groups for p in group]).flatmap(st.permutations))
    @settings(max_examples=200, deadline=None)
    @example([])
    @example(["1/2", 0.5, Fraction(1, 2)])
    def test_points_sort_as_integers(self, points):
        # the points as numerators over their lcd, merged as degenerate
        # intervals, give the set of sorting the Fractions, whatever types
        # equal points come as
        den, num = intervals._over_lcd(sorted({to_fraction(p) for p in points}))
        want = IntervalSet.from_scaled(den, num, num)
        got = IntervalSet.from_points(points)
        assert got == want and got.denominator == want.denominator
        assert got._lo.dtype == want._lo.dtype and got._hi.dtype == want._hi.dtype


def decimal_widths(least):
    """Integers from ``least`` up to 2^62 - 1 of a drawn decimal width, 1 to
    19 digits."""
    return st.integers(1, 19).flatmap(lambda d: st.integers(
        max(least, 10 ** (d - 1) if d > 1 else 0), min(10 ** d, 2 ** 62) - 1))


@st.composite
def scaled_sets(draw):
    """Canonical sets over a drawn denominator: below 60 or past 2^62, with
    numerators within 3 times it or within 2^70, or int64 sets whose
    denominator and numerators have every decimal width from 1 to 19."""
    if draw(st.booleans()):
        den = draw(decimal_widths(1))
        ends = decimal_widths(0).flatmap(lambda v: st.sampled_from([v, -v]))
    else:
        den = draw(st.one_of(st.integers(1, 60), st.integers(2 ** 62, 2 ** 80)))
        reach = draw(st.sampled_from([3 * den, 2 ** 70]))
        ends = st.integers(-reach, reach)
    cuts = sorted(draw(st.lists(ends, max_size=24, unique=True)))
    if len(cuts) % 2:
        cuts.pop()
    return IntervalSet.from_scaled(den, cuts[::2], cuts[1::2])


def fraction_strs(s):
    den = s.denominator
    return [(rational_str(Fraction(a, den)), rational_str(Fraction(b, den)))
            for a, b in zip(*s.numerators)]


def writer_text(fields, pairs):
    """``csv.writer`` text of the rows (*fields, lo, hi)."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows((*fields, lo, hi) for lo, hi in pairs)
    return buf.getvalue()


# 0, 1, 9, 10, 99, 100, ..., 10^18 - 1, 10^18 and 2^62 - 1: every decimal
# width from 1 to 19 at its least and its largest value below 2^62.
WIDTH_EDGES = sorted({0, 1, 2 ** 62 - 1,
                      *(10 ** k - e for k in range(1, 19) for e in (1, 0))})


def width_edge_set(den, past):
    """The set with every ±WIDTH_EDGES value and ±den as an end, over den,
    plus ±2^62 if ``past``: ±1 reads 1/den and ±den reads ±1."""
    ends = {v * sign for v in (*WIDTH_EDGES, den, *([2 ** 62] if past else []))
            for sign in (1, -1)}
    if len(ends) % 2:
        ends.add(2)
    cuts = sorted(ends)
    return IntervalSet.from_scaled(den, cuts[::2], cuts[1::2])


class TestRationalStrs:
    @given(scaled_sets(), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_matches_rational_str(self, s, block):
        # small blocks, so most sets cross a block boundary
        with patch.object(intervals, "_TEXT_BLOCK", block):
            got = list(s.rational_strs())
            text = repr(s)
        assert got == fraction_strs(s)
        assert text == ("IntervalSet(" + ", ".join(f"[{a}, {b}]" for a, b in got) + ")"
                        if got else "IntervalSet(empty)")

    # den = 2^62 - 1 and every end below 2^62 is the largest int64 set;
    # den = 2^62, or an end of 2^62, makes the set an object one
    @pytest.mark.parametrize("den, past, dtype", [
        (1, False, np.int64), (7, False, np.int64), (10 ** 9, False, np.int64),
        (2 ** 62 - 1, False, np.int64), (2 ** 62, False, object),
        (7, True, object),
    ])
    def test_digit_width_edges(self, den, past, dtype):
        s = width_edge_set(den, past)
        assert s.denominator == den and s._lo.dtype == dtype
        want = fraction_strs(s)
        assert list(s.rational_strs()) == want
        assert "".join(s.csv_text("9,y,-3/7,")) == writer_text(("9", "y", "-3/7"), want)
        texts = [t for pair in want for t in pair]
        assert {"0", "1", "-1"} <= set(texts)                   # q = 1
        assert den == 1 or {f"1/{den}", f"-1/{den}"} <= set(texts)  # q = den
        if den in (1, 7):
            assert {len(t.lstrip("-").split("/")[0]) for t in texts} == set(range(1, 20))

    def test_signs_zero_and_integers(self):
        s = IntervalSet.from_intervals([(-3, Fraction(-5, 2)), (Fraction(-1, 6), 0),
                                        (1, Fraction(7, 3)), (4, 9)])
        assert list(s.rational_strs()) == [("-3", "-5/2"), ("-1/6", "0"),
                                           ("1", "7/3"), ("4", "9")]
        assert list(IntervalSet.from_intervals([]).rational_strs()) == []

    @pytest.mark.parametrize("den, big", [(3 ** 20, False), (3 ** 40, True)],
                             ids=["int64", "object"])
    def test_several_blocks_both_dtypes(self, den, big):
        rng = random.Random(den)
        count = 2 * intervals._TEXT_BLOCK + 7
        cuts = list(itertools.accumulate(
            (rng.randrange(1, den // 3) for _ in range(2 * count)),
            initial=-500 * den))[1:]
        s = IntervalSet.from_scaled(den, cuts[::2], cuts[1::2])
        assert s.count == count
        assert (den >= 2 ** 62) == big
        assert list(s.rational_strs()) == fraction_strs(s)


class TestCsvText:
    @given(scaled_sets(), st.integers(1, 5),
           st.lists(st.one_of(st.integers(0, 20).map(str), st.sampled_from("xy"),
                              rationals.map(rational_str)), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_csv_writer(self, s, block, fields):
        prefix = "".join(f"{v}," for v in fields)
        with patch.object(intervals, "_TEXT_BLOCK", block):
            blocks = list(s.csv_text(prefix))
        assert "".join(blocks) == writer_text(fields, fraction_strs(s))
        assert [b.count("\n") for b in blocks] == \
            [min(block, s.count - i) for i in range(0, s.count, block)]

    def test_empty_prefix_and_empty_set(self):
        s = IntervalSet.from_intervals([(-3, Fraction(-5, 2)), (Fraction(-1, 6), 0)])
        assert list(s.csv_text()) == ["-3,-5/2\r\n-1/6,0\r\n"]
        assert list(IntervalSet.from_intervals([]).csv_text("0,x,0,")) == []


@st.composite
def float_rows(draw):
    """2-5 equal-length rows of unsorted float intervals off the integers:
    [a, a + w] on a tenth-unit grid from -1.2, with jitters s and t near
    1e-13 of the ends.  The narrow range of a gives nested, tied and
    touching intervals, and w = 0 with t = 0 degenerate ones."""
    rows = draw(st.integers(2, 5))
    m = draw(st.integers(1, 10))
    cells = draw(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 6),
                                    st.integers(0, 3), st.integers(0, 3)),
                          min_size=rows * m, max_size=rows * m))
    a, w, s, t = (np.array(v, dtype=float).reshape(rows, m) for v in zip(*cells))
    lo = a * 0.1 - 1.2 + s * 3e-13
    return lo, lo + (w * 0.1 + t * 3e-13)


class TestMergeKernels:
    @given(st.lists(st.tuples(st.integers(-10**6, 10**6),
                              st.integers(0, 10**5)), max_size=40))
    def test_int64_matches_python(self, raws):
        pairs = [(a, a + w) for a, w in raws]
        lo = np.array([a for a, _ in pairs], dtype=np.int64)
        hi = np.array([b for _, b in pairs], dtype=np.int64)
        klo, khi = merge_int64_arrays(lo, hi)
        comp = union_components(pairs)
        comp = [(a, b) for a, b in comp]
        got = [(int(a), int(b)) for a, b in zip(klo, khi) if b > a]
        want = [(int(a), int(b)) for a, b in comp]
        assert got == want
        # Python-int object arrays merge to the same endpoints
        olo, ohi = merge_int64_arrays(lo.astype(object), hi.astype(object))
        assert olo.dtype == ohi.dtype == object
        assert (olo.tolist(), ohi.tolist()) == (klo.tolist(), khi.tolist())

    @given(integer_rows())
    def test_float_rows_follow_the_int64_rule(self, rows):
        # integers below 2^40 are exact in binary64, so with no tolerance
        # both kernels apply the one merge rule and keep the same merged
        # intervals, points included: every float row is the int64 merge of
        # its integers, then pads, copies of its last right end
        lo, hi = rows
        mlo, mhi = merge_float_arrays(lo.astype(float), hi.astype(float), 0.0)
        for row in range(len(lo)):
            klo, khi = merge_int64_arrays(lo[row], hi[row])
            pads = [float(khi[-1])] * (mlo.shape[1] - klo.size)
            assert mlo[row].tolist() == klo.tolist() + pads
            assert mhi[row].tolist() == khi.tolist() + pads

    @pytest.mark.parametrize("kind, eps", [
        ("int64", None), ("object", None), ("float", 0.0),
        ("float", MERGE_EPSILON), ("float", 0.25)])
    @given(grid=grid_rows(), base=st.integers(-2**40, 2**40))
    @settings(max_examples=150, deadline=None)
    def test_sweep_matches_running_maximum(self, kind, eps, grid, base):
        # sorting the ends apart in place gives the starts and endpoints of
        # a stable argsort and a running maximum, bit for bit, and for
        # integers the overlap loss of the reference merge
        a, w, s, t = grid
        if kind == "float":
            # an eighth-unit grid puts gaps on 0.25, jitters near 1e-12
            lo = a * 0.125 + s * 5e-13
            hi = lo + (w * 0.125 + t * 5e-13)
        else:
            lo = base + a if kind == "int64" else a.astype(object) + base * 2**30
            hi = lo + w
        wlo, whi = lo.copy(), hi.copy()
        starts = np.empty(lo.shape, dtype=bool)
        assert intervals._sweep(wlo, whi, starts, eps) is None
        assert wlo.tolist() == np.sort(lo).tolist()
        assert whi.tolist() == np.sort(hi).tolist()
        rows = list(zip(np.atleast_2d(lo), np.atleast_2d(hi)))
        want = [reference_sweep(r_lo, r_hi, eps) for r_lo, r_hi in rows]
        assert np.array_equal(starts.reshape(len(want), -1),
                              [mask for _, _, mask in want])
        mlo, mhi, mstarts = intervals._merged(lo, hi, eps)
        assert np.array_equal(mstarts, starts)
        for got, part in ((mlo, 0), (mhi, 1)):
            ref = np.concatenate([row[part] for row in want])
            assert got.dtype == ref.dtype == lo.dtype
            assert got.tolist() == ref.tolist()
        if kind == "float":
            return
        sorted_rows = zip(np.atleast_2d(wlo), np.atleast_2d(whi))
        for (r_lo, r_hi), (s_lo, s_hi), (k_lo, k_hi, _) in zip(rows, sorted_rows, want):
            gaps = np.empty(r_lo.size - 1, dtype=r_lo.dtype)
            loss = int(np.sum(r_hi - r_lo)) - int(np.sum(k_hi - k_lo))
            assert intervals._overlap_loss(s_lo, s_hi, gaps) == loss

    def test_float_merge_uses_epsilon(self):
        lo = np.array([0.0, 1.0 + 1e-13])
        hi = np.array([1.0, 2.0])
        mlo, mhi = merge_float_arrays(lo, hi, 1e-12)
        assert len(mlo) == 1
        mlo, mhi = merge_float_arrays(lo, hi, 1e-14)
        assert len(mlo) == 2

    def test_float_merge_rows(self):
        # rows merge as they would alone, padded with their own right end;
        # degenerate results are kept, so row 1 keeps its point [2, 2] and
        # row 2, all copies of one point, comes back as that one point
        lo = np.array([[3.0, 0.0, 1.0, 5.0], [0.0, 0.0, 2.0, 2.5],
                       [4.0, 4.0, 4.0, 4.0]])
        hi = np.array([[4.0, 1.0, 2.0, 6.0], [0.5, 1.0, 2.0, 3.0],
                       [4.0, 4.0, 4.0, 4.0]])
        mlo, mhi = merge_float_arrays(lo, hi)
        assert mlo.tolist() == [[0.0, 3.0, 5.0], [0.0, 2.0, 2.5],
                                [4.0, 4.0, 4.0]]
        assert mhi.tolist() == [[2.0, 4.0, 6.0], [1.0, 2.0, 3.0],
                                [4.0, 4.0, 4.0]]
        for row in range(3):
            want = merge_float_arrays(lo[row], hi[row])
            n = len(want[0])
            assert mlo[row, :n].tolist() == want[0].tolist()
            assert mhi[row, :n].tolist() == want[1].tolist()
        # merging the padded rows again changes nothing
        again = merge_float_arrays(mlo, mhi)
        assert again[0].tolist() == mlo.tolist()
        assert again[1].tolist() == mhi.tolist()
        points = np.full((2, 4), 4.0)
        for got in merge_float_arrays(points, points):
            assert got.tolist() == [[4.0], [4.0]]
        one = merge_float_arrays(points[0], points[0])
        assert one[0].tolist() == one[1].tolist() == [4.0]

    @given(rows=float_rows(),
           eps=st.sampled_from([MERGE_EPSILON, 4e-13, 0.05, 0.1, 0.25]))
    @example(rows=(np.array([[0.1, 0.7, 0.3], [0.5, 0.5, 0.5]]),
                   np.array([[0.2, 0.7, 0.4], [0.5, 0.5, 0.5]])), eps=0.05)
    @settings(max_examples=300, deadline=None)
    def test_rows_merge_as_they_would_alone(self, rows, eps):
        # each row of a multi-row merge is its one-row merge byte for byte,
        # points kept, padded with copies of its last right end, which is
        # the row's largest right end (the example: an isolated point in
        # row 0, and row 1 all one point, kept as that point)
        lo, hi = rows
        mlo, mhi = merge_float_arrays(lo, hi, eps)
        alone = [merge_float_arrays(r_lo, r_hi, eps) for r_lo, r_hi in zip(lo, hi)]
        assert mlo.shape == mhi.shape == (len(lo), max(a.size for a, _ in alone))
        for got_lo, got_hi, (a_lo, a_hi), r_hi in zip(mlo, mhi, alone, hi):
            n = a_lo.size
            assert n >= 1 and a_hi[-1] == r_hi.max()
            assert got_lo[:n].tobytes() == a_lo.tobytes()
            assert got_hi[:n].tobytes() == a_hi.tobytes()
            for got in (got_lo[n:], got_hi[n:]):
                assert got.tobytes() == np.repeat(a_hi[-1:], got.size).tobytes()

    @given(rows=float_rows(),
           eps=st.sampled_from([MERGE_EPSILON, 4e-13, 0.05, 0.1, 0.25]))
    @example(rows=(np.array([[0.1, 0.7, 0.3], [0.5, 0.6, 0.5]]),
                   np.array([[0.2, 0.7, 0.4], [0.5, 0.8, 0.6]])), eps=0.05)
    @settings(max_examples=300, deadline=None)
    def test_swept_in_place_reads_the_merged_rows(self, rows, eps):
        # the rows swept in place hold the merged rows of merge_float_arrays
        # at their starts and ends, sorted in place, a degenerate merged
        # interval included (the example: the point 0.7 in row 0)
        lo, hi = rows
        mlo, mhi = merge_float_arrays(lo, hi, eps)
        slo, shi = lo.copy(), hi.copy()
        starts = intervals._swept_in_place(slo, shi, eps)
        assert slo.tobytes() == np.sort(lo).tobytes()
        assert shi.tobytes() == np.sort(hi).tobytes()
        ends = intervals._ends(starts)
        assert np.count_nonzero(starts, axis=1).max() == mlo.shape[1]
        for row in range(len(lo)):
            n = np.count_nonzero(starts[row])
            assert slo[row][starts[row]].tobytes() == mlo[row, :n].tobytes()
            assert shi[row][ends[row]].tobytes() == mhi[row, :n].tobytes()

    def test_no_rows(self):
        for width in (0, 3):
            mlo, mhi = merge_float_arrays(np.empty((0, width)), np.empty((0, width)))
            assert mlo.shape == mhi.shape == (0, 0)

    def test_empty_kernels(self):
        mlo, mhi = merge_int64_arrays(np.array([], dtype=np.int64),
                                      np.array([], dtype=np.int64))
        assert len(mlo) == 0
        flo, fhi = merge_float_arrays(np.array([]), np.array([]))
        assert len(flo) == 0


class TestOverlapLoss:
    @pytest.mark.parametrize("copies, top", [(5, (1 << 62) - 1), (10, 1 << 60)])
    def test_loss_past_int64(self, copies, top):
        # copies of one interval [-top, top]: each term 2*top is below 2^63,
        # and their sum (copies - 1) * 2*top is not
        lo = np.full(copies, -top, dtype=np.int64)
        hi = np.full(copies, top, dtype=np.int64)
        loss = intervals._overlap_loss(lo, hi, np.empty(copies - 1, dtype=np.int64))
        assert loss == (copies - 1) * 2 * top
        assert loss >= 1 << 63


class TestFloatSet:
    def test_basic(self):
        # the constructor drops the point [3, 3] that the merge keeps
        s = FloatIntervalSet.from_intervals([(0.0, 0.5), (0.5, 1.0), (2.0, 2.5),
                                             (3.0, 3.0)])
        assert s.count == 2
        assert s.measure == pytest.approx(1.5)
        assert s.min_length() == pytest.approx(0.5)

    def test_immutable_arrays(self):
        s = FloatIntervalSet.from_intervals([(0.0, 1.0)])
        lo, _ = s.arrays()
        with pytest.raises((ValueError, RuntimeError)):
            lo[0] = 5.0

    def test_expand(self):
        s = FloatIntervalSet.from_intervals([(0.0, 1.0), (3.0, 4.0)])
        grown = s.expand(0.25)
        assert grown.count == 2
        assert grown.measure == pytest.approx(3.0)

    def test_issuperset_with_slack(self):
        big = FloatIntervalSet.from_intervals([(0.0, 1.0)])
        small = FloatIntervalSet.from_intervals([(-1e-15, 0.5)])
        assert big.issuperset(small, slack=1e-12)
        assert not big.issuperset(FloatIntervalSet.from_intervals([(2.0, 3.0)]),
                                  slack=1e-12)

    @pytest.mark.parametrize("eps", [-1.5, -1e-300, math.nan, math.inf, 0.0])
    def test_merge_eps_must_be_finite_and_not_negative(self, eps):
        # a negative tolerance kept overlapping [0, 2] and [1, 3] apart
        # (measure 4.0 for a union of 3.0), and NaN glued [0, 1] to [2, 3]
        overlap, gap = [(0, 2), (1, 3)], [(0, 1), (2, 3)]
        if eps == 0.0:
            assert FloatIntervalSet.from_intervals(overlap, eps).measure == 3.0
            assert FloatIntervalSet.from_intervals(gap, eps).count == 2
            return
        for items in (overlap, gap, []):
            with pytest.raises(ValueError, match="merge_eps"):
                FloatIntervalSet.from_intervals(items, merge_eps=eps)
        with pytest.raises(ValueError, match="merge_eps"):
            merge_float_arrays(np.array([[0.0, 1.0]]), np.array([[2.0, 3.0]]), eps)

    @given(interval_lists())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_exact(self, items):
        exact = IntervalSet.from_intervals(items)
        approx = FloatIntervalSet.from_intervals(
            [(float(a), float(b)) for a, b in items])
        assert approx.measure == pytest.approx(float(exact.measure), abs=1e-9)
        # float merge may glue across sub-epsilon gaps, never split
        assert approx.count <= exact.count


class TestNormalizeFactory:
    def test_default_epsilon_constant(self):
        assert MERGE_EPSILON == 1e-12
