"""Directions, sheared projections, and projected generations.

A direction is held as an exact rational slope in one of two charts:

* chart ``x``, slope t with |t| <= 1: functional p(x, y) = x + t*y,
  covering angles in [-pi/4, pi/4];
* chart ``y``, slope u with |u| <= 1: functional p(x, y) = y + u*x,
  covering angles in [pi/4, 3*pi/4].

Together the charts span a half period of directions (projected length has
period pi).  The sheared length equals the true projected length divided by
``scale = 1/sqrt(1 + slope^2)``, the single irrational factor in play; all
interval geometry happens on the sheared side in rational arithmetic.

Projecting a planar homothety system gives a 1D affine system
``T_i(x) = r_i x + p(beta_i)`` acting on the projection of the base
rectangle.  Generation n is computed by mapping the current *merged*
interval set through every map and renormalizing, which is exponentially
cheaper than enumerating cylinders whenever images overlap.  The type of
the direction picks the engine: the exact one for a ``Direction``, the
float one for a ``DirectionBatch``.  ``sheared_measures``, ``generation``
and ``iter_generations`` are the one path from a system and a direction
to generations: each projects the system itself and rejects n < 0.

The exact engine tracks one shared integer denominator, so each step is
integer work on numpy arrays: int64 while magnitudes stay below 2^62 and
``dtype=object`` arrays of Python ints past that, through the same code.
A snapshot (``generation``, ``iter_generations``) hands these arrays to
``IntervalSet.from_scaled`` as they are, so the set shares them unless
reducing it to lowest terms makes new ones.  A step does not re-sort.
Every ratio is positive, so each image ``a*E_n + c`` of the canonical set
is already sorted with positive gaps.
The images are stacked in order of their exact left ends, and only the
index windows where image hulls overlap (found by binary search at each
image boundary, touching counted as overlapping) are computed and merged by
``merge_int64_arrays``.  The clean stretches between them are already
merged; each is written once, straight into its slot of output arrays of
the exact merged size.  The measure is carried, not recounted: the engine
keeps the exact integer numerator of |E_n|, and a step multiplies it by
the sum of the scaled ratios and subtracts the overlap loss of the windows
(their summed image lengths minus their merged length), all in Python
ints.  ``sheared_measures`` reads only the measure of its last
generation, so its last step merges the windows and never builds that
set.  A system whose maps the reflection of the base about its midpoint
permutes has every generation symmetric about that midpoint.  Its steps
mirror whenever the images, sorted by left end, reverse onto their own
mirrors: only the windows left of the centre are merged, and the right
half of the step is the left half reflected, so the merge work halves.
Other layouts, and systems that are not symmetric, merge every window.
Results are bit-identical to concatenating all images and merging them,
the reference kept in ``tests/oracles.py``, on either path.

The float engine holds one row per direction of a ``DirectionBatch`` and
steps all rows at once.  Each row's merged endpoints are a per-direction
float engine's bit for bit (reference in ``tests/oracles.py``); its measure
is summed over the row padded to the group's width, so its last bits
depend on that width.  It gives measures only, since generations are exact
only.  A batch takes float slopes, ``tan`` of the angles, and projects in
float arithmetic with no snapping and no Fractions (``Direction.from_angle``
snaps its row of a batch of one).  At small generations a float step costs
per-call overhead, so ``projected_lengths`` (``favard``, ``lipschitz_scan``)
and ``neighborhood_lengths`` (``decay_series``) step all their angles once,
in row groups bounded by ``_GROUP_ENDPOINTS`` at the deepest generation
they read.  Once k**n reaches the bound (n = 6 for four maps) a group is
one row and a step is sort-bound.  Only the steps merge: each grown row of
``neighborhood_lengths`` is measured from its gaps under ``_apart``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Literal, Union

import numpy as np

from .errors import SizeCapExceeded
from .ifs import IFS2D
from .intervals import (
    MERGE_EPSILON,
    IntervalSet,
    _apart,
    _exact_dtype,
    _extreme,
    merge_float_arrays,
    merge_int64_arrays,
    rational_str,
    to_fraction,
)

# A step whose merged interval count passes this raises SizeCapExceeded.
MAX_COUNT = 50_000_000
DEFAULT_SLOPE_DENOMINATOR = 10 ** 6

_QUARTER_PI = math.pi / 4
# Endpoints per row group of the float engine: a group of g rows of a
# k-map system at generation n holds at most g * k**n.
_GROUP_ENDPOINTS = 4096


@dataclass(frozen=True)
class Direction:
    """An exact direction: chart ('x' or 'y') plus rational slope in [-1, 1]."""

    chart: Literal["x", "y"]
    slope: Fraction

    def __post_init__(self):
        if self.chart not in ("x", "y"):
            raise ValueError(f"chart must be 'x' or 'y', got {self.chart!r}")
        object.__setattr__(self, "slope", to_fraction(self.slope))
        if abs(self.slope) > 1:
            raise ValueError(
                f"|slope| must be <= 1 within a chart, got {self.slope}; "
                "switch charts for steeper directions"
            )

    @property
    def angle(self) -> float:
        """Angle in radians within [-pi/4, 3*pi/4]."""
        a = math.atan(float(self.slope))
        return a if self.chart == "x" else math.pi / 2 - a

    @property
    def scale(self) -> float:
        """True projected length per unit of sheared length, in (0, 1]."""
        return 1.0 / math.sqrt(1.0 + float(self.slope) ** 2)

    @property
    def shear_norm_sq(self) -> Fraction:
        """Exact 1 + slope^2 = 1/scale^2, for squared-length certificates."""
        return 1 + self.slope * self.slope

    def functional(self, bx: Fraction, by: Fraction) -> Fraction:
        """Sheared coordinate of the point (bx, by)."""
        if self.chart == "x":
            return bx + self.slope * by
        return by + self.slope * bx

    @classmethod
    def from_slope(cls, slope, chart: str = "x") -> "Direction":
        """The direction of a slope in a chart, switching charts when steep.

        Slope t with |t| > 1 in one chart is the direction of slope 1/t in
        the other: x + t*y = t*(y + x/t), and likewise for chart y.
        """
        t = to_fraction(slope)
        if abs(t) <= 1:
            return cls(chart, t)
        return cls({"x": "y", "y": "x"}.get(chart, chart), 1 / t)

    @classmethod
    def from_angle(cls, theta: float) -> "Direction":
        """Snap an angle to the nearest rational-slope direction: its row of
        ``DirectionBatch.from_angles``, with the float slope snapped to the
        best rational of denominator at most ``DEFAULT_SLOPE_DENOMINATOR``
        (continued fractions).  A non-finite angle raises ValueError."""
        if not math.isfinite(theta):
            raise ValueError(f"angle must be finite, got {theta!r}")
        d = DirectionBatch.from_angles([theta])
        slope = Fraction(float(d.slope[0])).limit_denominator(DEFAULT_SLOPE_DENOMINATOR)
        return cls("y" if d.chart_y[0] else "x", slope)

    def label(self) -> str:
        return f"{self.chart}:{rational_str(self.slope)}"


@dataclass(frozen=True)
class ProjectedIFS1D:
    """The line system T_i(x) = ratio_i * x + offset_i on a base interval."""

    maps: tuple[tuple[Fraction, Fraction], ...]
    base: tuple[Fraction, Fraction]


def project_ifs(ifs: IFS2D, d: Direction) -> ProjectedIFS1D:
    """Project a planar system through the direction's chart functional."""
    maps = tuple((m.ratio, d.functional(m.translation[0], m.translation[1]))
                 for m in ifs.maps)
    x0, y0, x1, y1 = ifs.base
    corners = [d.functional(x, y) for x in (x0, x1) for y in (y0, y1)]
    return ProjectedIFS1D(maps, (min(corners), max(corners)))


def _overlap_windows(lo: np.ndarray, hi: np.ndarray, coeffs: list) -> list:
    """Index ranges of the stacked images that may merge across images.

    Image j is block j (length n) of the stacked image arrays; images are
    sorted with positive gaps and ordered by their left ends f_j.  Let T_j
    be the largest right end among images 0..j.  The cut before element i
    of image j (cut 0 and cut n are the block boundaries) is clean, with
    everything left of it strictly below everything right of it, exactly
    when lo_j[i] > T_{j-1}, hi_j[i-1] < f_{j+1} and T_{j-1} < f_{j+1}.  So
    the clean cuts of image j are the run [s_j, e_j], where s_j counts the
    elements at or below T_{j-1} and e_j those strictly below f_{j+1}: the
    elements before s_j chain into earlier images, those from e_j on into
    later ones.  Touching endpoints count as overlapping (closed
    intervals).  Both counts come from searches in the source arrays, since
    a*x + c <= t iff x <= (t - c) // a for a > 0.  Returns (start, stop)
    pairs into the stacked arrays.
    """
    n, k = lo.size, len(coeffs)
    lo0, hi1 = int(lo[0]), int(hi[-1])
    firsts = [a * lo0 + c for a, c in coeffs]
    tops = list(accumulate((a * hi1 + c for a, c in coeffs), max))
    s = [0] + np.searchsorted(
        lo, [(t - c) // a for t, (a, c) in zip(tops, coeffs[1:])], "right").tolist()
    e = np.searchsorted(
        hi, [-((c - f) // a) for f, (a, c) in zip(firsts[1:], coeffs)], "left").tolist() + [n]
    windows = []
    start = None
    for j in range(k):
        if s[j] <= e[j] and (j in (0, k - 1) or tops[j - 1] < firsts[j + 1]):
            if s[j] > 0:
                windows.append((start, j * n + s[j]))
            start = j * n + e[j] if e[j] < n else None
    return windows


def _image_pieces(n: int, start: int, stop: int):
    """The pieces (j, i0, i1) of the stacked index range [start, stop):
    elements i0..i1-1 of image j, which occupies stacked indices j*n..j*n+n-1."""
    for j in range(start // n, -(-stop // n)):
        i0, i1 = max(start - j * n, 0), min(stop - j * n, n)
        if i0 < i1:
            yield j, i0, i1


def _write_images(dst_lo: np.ndarray, dst_hi: np.ndarray, w: int,
                  lo: np.ndarray, hi: np.ndarray, coeffs: list,
                  start: int, stop: int) -> int:
    """Write the stacked images [start, stop) into dst from index w on;
    returns the index after the last one written."""
    for j, i0, i1 in _image_pieces(lo.size, start, stop):
        a, c = coeffs[j]
        end = w + i1 - i0
        for src, dst in ((lo, dst_lo), (hi, dst_hi)):
            part = dst[w:end]
            np.multiply(a, src[i0:i1], out=part)
            part += c
        w = end
    return w


def _merge_images(lo: np.ndarray, hi: np.ndarray, coeffs: list,
                 keep: bool = True, span: int | None = None) -> tuple:
    """Merged union of the images a*[lo, hi] + c of a canonical integer set.

    ``lo`` and ``hi`` are int64 arrays, or ``dtype=object`` arrays of Python
    ints, and the merged arrays keep their dtype.  Under a positive ratio
    each image of a set sorted with positive gaps is sorted with positive
    gaps, so the images are stacked in order of their left ends and only
    the windows where image hulls overlap are computed and merged, each by
    ``merge_int64_arrays``; everything between them is already merged.
    Returns ``(count, loss, lo, hi)``: the merged interval count; the
    overlap loss, the summed lengths of the images minus the length of
    their union, as an exact int; and, when ``keep`` is set, the merged
    endpoints in new arrays of exactly ``count`` entries, with each clean
    stretch written straight into its final slot.  Without ``keep`` the
    clean stretches are never computed and lo, hi are None.

    The caller passes ``span`` only for a set symmetric about its midpoint
    S/2, S = lo[0] + hi[-1].  The step then mirrors when the sorted images
    map onto themselves reversed under x -> span - x (image j onto image
    k-1-j, so stacked element i onto element k*n-1-i, and each window onto
    a window): only the windows left of the centre are merged, the window
    across it only for its elements with 2*lo < span, and the right half
    of the output is the left half mirrored.  Otherwise, and always
    without ``span``, every window is merged.  Both give the same arrays.
    """
    n = lo.size
    if n == 0:
        return 0, 0, lo.copy(), hi.copy()
    lo0 = int(lo[0])
    coeffs = sorted(coeffs, key=lambda ac: ac[0] * lo0 + ac[1])
    size = len(coeffs) * n
    if span is not None and coeffs[::-1] != [
            (a, span - a * (lo0 + int(hi[-1])) - c) for a, c in coeffs]:
        span = None
    # Windows starting at or after the cut are mirrors of merged ones.
    cut = size if span is None else -(-size // 2)
    windows = _overlap_windows(lo, hi, coeffs)
    count, loss, merged = size, 0, []
    for start, stop in windows:
        if start >= cut:
            break
        wlo = np.empty(stop - start, dtype=lo.dtype)
        whi = np.empty_like(wlo)
        _write_images(wlo, whi, 0, lo, hi, coeffs, start, stop)
        # Python ints: a piece's lengths, and the merged ones, are disjoint
        # and sum within int64, but a times such a sum need not.
        raw = sum(coeffs[j][0] * int(np.subtract(hi[i0:i1], lo[i0:i1]).sum())
                  for j, i0, i1 in _image_pieces(n, start, stop))
        centre = stop > cut
        if centre:
            left = wlo < -(-span // 2)
            wlo, whi = wlo[left], whi[left]
        mlo, mhi = merge_int64_arrays(wlo, whi)
        middle = centre and 2 * int(mhi[-1]) >= span
        if middle:
            # an interval reaching the centre is its own mirror
            mhi[-1] = span - mlo[-1]
        m, length = mlo.size, int(np.subtract(mhi, mlo).sum())
        if centre:
            # the centre window's union: the merged left half and its
            # mirror, which share any middle interval
            m = 2 * m - middle
            length = 2 * length - middle * (span - 2 * int(mlo[-1]))
        # a window left of the centre stands for its mirror too
        weight = 1 if span is None or centre else 2
        count -= weight * (stop - start - m)
        loss += weight * (raw - length)
        merged.append((mlo, mhi))
    if not keep:
        return count, loss, None, None
    out_lo = np.empty(count, dtype=lo.dtype)
    out_hi = np.empty_like(out_lo)
    w = r = 0
    for (start, stop), (mlo, mhi) in zip(windows, merged):
        w = _write_images(out_lo, out_hi, w, lo, hi, coeffs, r, start)
        out_lo[w:w + mlo.size] = mlo
        out_hi[w:w + mhi.size] = mhi
        w += mlo.size
        r = stop
    # past a centre window r > cut, and this writes nothing
    w = _write_images(out_lo, out_hi, w, lo, hi, coeffs, r, cut)
    if w < count:
        # the mirror tail: past any middle interval, the left half reflected
        np.subtract(span, out_hi[:count - w][::-1], out=out_lo[w:])
        np.subtract(span, out_lo[:count - w][::-1], out=out_hi[w:])
    return count, loss, out_lo, out_hi


def _check_cap(count: int, n: int) -> None:
    if count > MAX_COUNT:
        raise SizeCapExceeded(f"merged interval count {count} exceeds cap "
                              f"{MAX_COUNT} at generation {n}")


class _ExactEngine:
    """Iterates E_{n+1} = union T_i(E_n) over scaled-integer interval sets.

    The endpoints are numerators over the shared denominator ``den``, held
    in int64 arrays while a step's images fit below 2^62 and in
    ``dtype=object`` arrays of Python ints after that; every step is the
    same window merge, ``_merge_images``, on either dtype.  The measure is
    carried, not recounted: ``total`` is the exact integer numerator of
    |E_n| over ``den``, and a step sets total_{n+1} = sum_j a_j * total_n -
    loss from the overlap loss of the merged windows.  A step with
    ``keep=False`` leaves the set unbuilt (lo and hi None), so it must be
    the last one.  ``symmetric`` is tested once, exactly, on the projected
    maps: when it holds every step passes ``_merge_images`` the sum of
    ends of the next generation, and the step mirrors when its image
    layout allows, with bit-identical results.
    """

    def __init__(self, proj: ProjectedIFS1D):
        if any(r <= 0 for r, _ in proj.maps):
            raise ValueError("the exact engine needs positive map ratios")
        lo, hi = proj.base
        den = math.lcm(lo.denominator, hi.denominator)
        self.den = den
        self.lo = np.array([lo.numerator * (den // lo.denominator)], dtype=object)
        self.hi = np.array([hi.numerator * (den // hi.denominator)], dtype=object)
        self.total = self.hi[0] - self.lo[0]
        self.count = 1
        self.maps = [(r.numerator, r.denominator, c.numerator, c.denominator)
                     for r, c in proj.maps]
        self.ratio_lcm = math.lcm(*(q for _, q, _, _ in self.maps))
        self.offset_lcm = math.lcm(*(b for _, _, _, b in self.maps))
        # Maps that the reflection x -> lo + hi - x of the base permutes keep
        # every generation symmetric about the base's midpoint.
        self.symmetric = sorted(proj.maps) == sorted(
            (r, (lo + hi) * (1 - r) - c) for r, c in proj.maps)
        self.n = 0

    def _coefficients(self) -> tuple[int, list[tuple[int, int]]]:
        den = self.den
        new_den = math.lcm(den * self.ratio_lcm, self.offset_lcm)
        coeffs = []
        for p, q, a, b in self.maps:
            coeffs.append((p * (new_den // (q * den)), a * (new_den // b)))
        return new_den, coeffs

    def step(self, keep: bool = True) -> None:
        new_den, coeffs = self._coefficients()
        xmax = _extreme(self.lo, self.hi)
        span = None
        if self.symmetric and self.total:
            # x -> span - x reflects E_{n+1}, as lo[0] + hi[-1] - x does E_n
            span = (int(self.lo[0]) + int(self.hi[-1])) * (new_den // self.den)
        dtype = _exact_dtype(new_den, abs(span or 0),
                             *(abs(a) * xmax + abs(c) for a, c in coeffs))
        if self.total == 0:
            # Empty, or the degenerate base: every image has length 0.
            self.lo = self.hi = np.empty(0, dtype=dtype)
            self.count = 0
        else:
            self.count, loss, self.lo, self.hi = _merge_images(
                self.lo.astype(dtype, copy=False),
                self.hi.astype(dtype, copy=False), coeffs, keep, span)
            self.total = sum(a for a, _ in coeffs) * self.total - loss
        self.den = new_den
        self.n += 1
        _check_cap(self.count, self.n)

    @property
    def measure(self) -> Fraction:
        return Fraction(self.total, self.den)

    def snapshot(self) -> IntervalSet:
        return IntervalSet.from_scaled(self.den, self.lo, self.hi)


@dataclass(frozen=True)
class DirectionBatch:
    """Float directions for the float engine, one row each.

    Row i is chart y where ``chart_y[i]`` is true and chart x otherwise, with
    float slope ``slope[i]`` in [-1, 1].  Nothing is snapped to a rational.
    """

    chart_y: np.ndarray
    slope: np.ndarray

    @classmethod
    def from_angles(cls, thetas) -> "DirectionBatch":
        """Each angle reduced mod pi into [-pi/4, 3pi/4), chart y above pi/4,
        with its float tangent in that chart, clipped to [-1, 1], as slope."""
        t = np.fmod(np.asarray(thetas, dtype=np.float64), math.pi)
        t[t < -_QUARTER_PI] += math.pi
        t[t >= 3 * _QUARTER_PI] -= math.pi
        chart_y = t > _QUARTER_PI
        t[chart_y] = math.pi / 2 - t[chart_y]
        slope = np.tan(t, out=t)
        return cls(chart_y, np.clip(slope, -1.0, 1.0, out=slope))

    def __len__(self) -> int:
        return len(self.slope)

    def __getitem__(self, rows: slice) -> "DirectionBatch":
        return DirectionBatch(self.chart_y[rows], self.slope[rows])

    @property
    def scale(self) -> np.ndarray:
        """True projected length per unit of sheared length, per row."""
        return 1.0 / np.sqrt(1.0 + self.slope * self.slope)

    def functional(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sheared coordinates of the points (x, y), one row per direction."""
        s = self.slope[:, None]
        chart_y = self.chart_y[:, None]
        return np.where(chart_y, y + s * x, x + s * y)


class _FloatEngine:
    """Float twin of :class:`_ExactEngine`, one row per direction.

    The rows of a DirectionBatch are projected in float arithmetic.  Each
    step maps every row through all maps and merges all rows at once with
    ``merge_float_arrays``.  Rows shorter than the longest are padded with
    degenerate copies [x, x] of their right end x.  Under a map the image
    of a pad is the right end of the image of the row's last interval, so
    it lies in that image and changes neither the union nor a gap: the
    sweep sorts left and right ends apart, so its result depends only on
    the intervals, not their order, and every row merges as it would
    alone.
    """

    def __init__(self, ifs: IFS2D, d: DirectionBatch):
        offsets = d.functional(
            np.array([float(m.translation[0]) for m in ifs.maps]),
            np.array([float(m.translation[1]) for m in ifs.maps]))
        x0, y0, x1, y1 = (float(v) for v in ifs.base)
        corners = d.functional(np.array([x0, x0, x1, x1]),
                               np.array([y0, y1, y0, y1]))
        base = np.stack([corners.min(axis=1), corners.max(axis=1)], axis=1)
        self.ratios = np.array([float(m.ratio) for m in ifs.maps])[:, None]
        self.offsets = offsets[:, :, None]
        self.lo, self.hi = base[:, :1], base[:, 1:]
        self.n = 0

    def step(self, keep: bool = True) -> None:
        """One generation for every row.  The rows are always kept, whatever
        ``keep`` says: their measures are summed from them."""
        rows = self.lo.shape[0]
        if self.lo.size:
            lo = self.ratios * self.lo[:, None, :]
            lo += self.offsets
            hi = self.ratios * self.hi[:, None, :]
            hi += self.offsets
            self.lo, self.hi = merge_float_arrays(
                lo.reshape(rows, -1), hi.reshape(rows, -1))
        self.n += 1
        # Rows are padded to the longest, so the width is the largest count.
        _check_cap(self.count, self.n)

    @property
    def count(self) -> int:
        return int(self.lo.shape[1])

    @property
    def measure(self) -> np.ndarray:
        """Sheared measure of each row."""
        return np.sum(self.hi - self.lo, axis=1)


def _engine(ifs: IFS2D, d: Union[Direction, DirectionBatch], n: int):
    """Start the engine for generation n of the system projected through d:
    the exact engine for a Direction, the float engine for a DirectionBatch."""
    if n < 0:
        raise ValueError("generation index must be >= 0")
    if isinstance(d, DirectionBatch):
        return _FloatEngine(ifs, d)
    return _ExactEngine(project_ifs(ifs, d))


def generation(ifs: IFS2D, d: Direction, n: int) -> IntervalSet:
    """Generation n projected in direction d, as an exact canonical set in
    sheared coordinates."""
    eng = _engine(ifs, d, n)
    for _ in range(n):
        eng.step()
    return eng.snapshot()


def iter_generations(ifs: IFS2D, d: Direction,
                     n_max: int) -> Iterator[IntervalSet]:
    """Yield the exact generations 0..n_max in order, as ``generation``
    gives them, reusing the merged set between steps."""
    eng = _engine(ifs, d, n_max)
    yield eng.snapshot()
    for _ in range(n_max):
        eng.step()
        yield eng.snapshot()


def sheared_measures(ifs: IFS2D, d: Union[Direction, DirectionBatch],
                     n_max: int):
    """Sheared measures of generations 0..n_max in direction d.

    The sets are not materialized.  For a Direction the result is a list
    of exact Fractions, carried from step to step rather than summed from
    the endpoints, and the last step only merges the overlap windows: the
    intervals of generation n_max are never built.  The true projected
    length of generation n is ``values[n] * d.scale``.  A DirectionBatch
    runs on the float engine and gives an array of shape
    (n_max + 1, len(d)), one column per direction.
    """
    eng = _engine(ifs, d, n_max)
    values = [eng.measure]
    for k in range(1, n_max + 1):
        eng.step(keep=k < n_max)
        values.append(eng.measure)
    if isinstance(d, DirectionBatch):
        return np.array(values)
    return values


def _row_groups(ifs: IFS2D, thetas, n_max: int) -> list:
    """The float angles as (columns, ``DirectionBatch``) row groups.

    Slopes are ``tan`` of the angles, unsnapped.  A group holds at most
    ``_GROUP_ENDPOINTS // k**n_max`` rows (at least one) for a system of k
    maps, which bounds its endpoints at generation n_max.
    """
    if n_max < 0:
        raise ValueError("generation index must be >= 0")
    ds = DirectionBatch.from_angles(thetas)
    size = max(1, _GROUP_ENDPOINTS // len(ifs.maps) ** n_max)
    return [(slice(i, i + size), ds[i:i + size])
            for i in range(0, len(ds), size)]


def projected_lengths(ifs: IFS2D, thetas, n_max: int) -> np.ndarray:
    """True projected lengths of generations 0..n_max at float angles.

    Each row group of ``_row_groups`` goes through ``sheared_measures`` on
    the float engine.  Returns an array of shape (n_max + 1, len(thetas)).
    """
    out = np.empty((n_max + 1, len(thetas)))
    for cols, group in _row_groups(ifs, thetas, n_max):
        out[:, cols] = sheared_measures(ifs, group, n_max) * group.scale
    return out


def neighborhood_lengths(ifs: IFS2D, thetas, wanted) -> np.ndarray:
    """True lengths of the r-neighborhood of projected generation n at each
    float angle, one row per pair (n, r) of ``wanted``.

    Each row group of ``_row_groups``, sized for the deepest n, is stepped
    once on the float engine.  At each generation that ``wanted`` names,
    each merged row grows by its own sheared radius p = r / scale and stays
    sorted, so its measure is read from its gaps g = l_{j+1} - h_j with no
    second merge: the lengths, plus 2p, plus 2p for each gap the merge
    rule ``_apart`` keeps open between grown intervals [l - p, h + p] at
    MERGE_EPSILON, and g for each other.  The pads [x, x] have g = 0.
    """
    if min(wanted)[0] < 0:
        raise ValueError("generation index must be >= 0")
    measures = np.empty((len(wanted), len(thetas)))
    for cols, group in _row_groups(ifs, thetas, max(wanted)[0]):
        eng = _FloatEngine(ifs, group)
        scale = group.scale
        for i, (n, r) in sorted(enumerate(wanted), key=lambda pair: pair[1][0]):
            while eng.n < n:
                eng.step()
            radius = (r / scale)[:, None]
            lo, hi = eng.lo[:, 1:], eng.hi[:, :-1]
            apart = _apart(lo - radius, hi + radius, MERGE_EPSILON)
            gaps = np.where(apart, 2 * radius, lo - hi).sum(axis=1)
            measures[i, cols] = (eng.measure + 2 * radius[:, 0] + gaps) * scale
    return measures
