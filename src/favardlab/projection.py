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
cheaper than enumerating cylinders whenever images overlap.  The engine
tracks one shared integer denominator so each step is pure integer work,
vectorized through int64 arrays when magnitudes allow and falling back to
Python integers otherwise.  ``sheared_measures``, ``generation`` and
``iter_generations`` are the one path from a system and a direction to
generations: each projects the system itself and rejects n < 0.

The int64 step does not re-sort.  Every ratio is positive, so each image
``a*E_n + c`` of the canonical set is already sorted with positive gaps.
The images are stacked in order of their exact left ends, and only the
index windows where image hulls overlap (found by binary search at each
image boundary, touching counted as overlapping) go through
``merge_int64_arrays``; clean stretches are compacted in place around the
merged windows.  Results are bit-identical to concatenating all images and
merging them, the reference kept in ``tests/oracles.py``.  On the
``exact-deep`` benchmark workload (four-corner to generation 12 in 33
directions, 2-core Xeon VM, 10 alternating 28 s runs per side) this took
the pass median from 7.58 s to 2.18 s, the peak RSS from 932 MB to 289 MB,
and the merge input from 119.2 M to 21.7 M endpoints per pass.

The float engine holds one row per direction and steps all rows at once.
A ``Direction`` is a one-row batch whose offsets are the floats of the
exact projected ones, so its results are those of a per-direction float
engine bit for bit (reference in ``tests/oracles.py``).  A
``DirectionBatch`` takes float slopes, from ``tan`` of the angles for
``projected_lengths``, and projects in float arithmetic with no snapping
and no Fractions.  At small generations the cost of a float step is
per-call overhead, so ``favard`` and ``lipschitz_scan`` send whole
quadrature passes through ``projected_lengths`` in groups bounded by
``_GROUP_ENDPOINTS``: favard(four_corner(), n) for n = 2 and 3 fell from
3.6 s to 0.1 s in-process, at the same peak RSS.  Once k**n reaches the
bound (n = 6 for four maps) a group is one row and a step is sort-bound,
as before.
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
    FloatIntervalSet,
    IntervalSet,
    MERGE_EPSILON,
    _INT64_SAFE,
    _lcm,
    _merge_scaled,
    merge_float_arrays,
    merge_int64_arrays,
    rational_str,
    to_fraction,
)

DEFAULT_MAX_COUNT = 50_000_000
DEFAULT_SLOPE_DENOMINATOR = 10 ** 6

_QUARTER_PI = math.pi / 4
# Endpoints per row group of the float engine in projected_lengths: a group
# of g rows of a k-map system at generation n holds at most g * k**n.
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
    def from_angle(cls, theta: float,
                   max_denominator: int = DEFAULT_SLOPE_DENOMINATOR) -> "Direction":
        """Snap an angle to the nearest rational-slope direction.

        The angle is reduced mod pi into [-pi/4, 3pi/4); the tangent (or
        cotangent) is approximated by its best rational with denominator at
        most ``max_denominator`` (continued fractions).
        """
        t = math.fmod(theta, math.pi)
        if t < -_QUARTER_PI:
            t += math.pi
        elif t >= 3 * _QUARTER_PI:
            t -= math.pi
        if -_QUARTER_PI <= t <= _QUARTER_PI:
            slope = Fraction(math.tan(t)).limit_denominator(max_denominator)
            return cls("x", min(max(slope, Fraction(-1)), Fraction(1)))
        slope = Fraction(math.tan(math.pi / 2 - t)).limit_denominator(max_denominator)
        return cls("y", min(max(slope, Fraction(-1)), Fraction(1)))

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


@dataclass(frozen=True)
class GenerationSet:
    """Generation n of a projected system, in sheared coordinates."""

    n: int
    direction: Direction
    set: Union[IntervalSet, FloatIntervalSet]


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


def _merge_images_int64(lo: np.ndarray, hi: np.ndarray,
                        coeffs: list) -> tuple[np.ndarray, np.ndarray]:
    """Merged union of the images a*[lo, hi] + c of a canonical int64 set.

    Under a positive ratio each image of a set sorted with positive gaps is
    sorted with positive gaps, so the images are stacked in order of their
    left ends and only the windows where image hulls overlap go through
    ``merge_int64_arrays``; the stacked arrays are compacted in place
    around them.
    """
    if lo.size == 0:
        return lo, hi
    lo0 = int(lo[0])
    coeffs = sorted(coeffs, key=lambda ac: ac[0] * lo0 + ac[1])
    a = np.array([[a] for a, _ in coeffs], dtype=np.int64)
    c = np.array([[c] for _, c in coeffs], dtype=np.int64)
    out_lo = np.multiply(a, lo)
    out_lo += c
    out_hi = np.multiply(a, hi)
    out_hi += c
    out_lo, out_hi = out_lo.ravel(), out_hi.ravel()
    w = r = 0
    for start, stop in _overlap_windows(lo, hi, coeffs):
        if w < r:
            out_lo[w:w + start - r] = out_lo[r:start]
            out_hi[w:w + start - r] = out_hi[r:start]
        w += start - r
        mlo, mhi = merge_int64_arrays(out_lo[start:stop], out_hi[start:stop])
        out_lo[w:w + mlo.size] = mlo
        out_hi[w:w + mhi.size] = mhi
        w += mlo.size
        r = stop
    end = w + out_lo.size - r
    if w < r:
        out_lo[w:end] = out_lo[r:]
        out_hi[w:end] = out_hi[r:]
    return out_lo[:end], out_hi[:end]


class _ExactEngine:
    """Iterates E_{n+1} = union T_i(E_n) over scaled-integer interval sets."""

    def __init__(self, proj: ProjectedIFS1D, max_count: int = DEFAULT_MAX_COUNT):
        if any(r <= 0 for r, _ in proj.maps):
            raise ValueError("the exact engine needs positive map ratios")
        self.max_count = max_count
        lo, hi = proj.base
        den = _lcm(lo.denominator, hi.denominator)
        self.den = den
        self.lo: Union[list, np.ndarray] = [lo.numerator * (den // lo.denominator)]
        self.hi: Union[list, np.ndarray] = [hi.numerator * (den // hi.denominator)]
        self.maps = [(r.numerator, r.denominator, c.numerator, c.denominator)
                     for r, c in proj.maps]
        self.ratio_lcm = 1
        self.offset_lcm = 1
        for _, q, _, b in self.maps:
            self.ratio_lcm = _lcm(self.ratio_lcm, q)
            self.offset_lcm = _lcm(self.offset_lcm, b)
        self.n = 0

    def _coefficients(self) -> tuple[int, list[tuple[int, int]]]:
        den = self.den
        new_den = _lcm(den * self.ratio_lcm, self.offset_lcm)
        coeffs = []
        for p, q, a, b in self.maps:
            coeffs.append((p * (new_den // (q * den)), a * (new_den // b)))
        return new_den, coeffs

    def _extreme(self) -> int:
        if isinstance(self.lo, np.ndarray):
            if self.lo.size == 0:
                return 0
            return max(abs(int(self.lo[0])), abs(int(self.hi[-1])))
        if not self.lo:
            return 0
        return max(abs(self.lo[0]), abs(self.hi[-1]))

    def step(self) -> None:
        new_den, coeffs = self._coefficients()
        xmax = self._extreme()
        fits = new_den < _INT64_SAFE and all(
            abs(a) * xmax + abs(c) < _INT64_SAFE for a, c in coeffs
        )
        if fits:
            lo = np.asarray(self.lo, dtype=np.int64)
            hi = np.asarray(self.hi, dtype=np.int64)
            mlo, mhi = _merge_images_int64(lo, hi, coeffs)
            if self.n == 0:
                # Only the base can be degenerate: positive ratios map the
                # canonical sets of later generations to nondegenerate images.
                keep = mhi > mlo
                mlo, mhi = mlo[keep], mhi[keep]
            self.lo, self.hi = mlo, mhi
        else:
            if isinstance(self.lo, np.ndarray):
                self.lo = [int(v) for v in self.lo]
                self.hi = [int(v) for v in self.hi]
            pairs = []
            for a, c in coeffs:
                pairs.extend((a * x + c, a * y + c) for x, y in zip(self.lo, self.hi))
            mlo, mhi = _merge_scaled(pairs)
            self.lo = [x for x, y in zip(mlo, mhi) if y > x]
            self.hi = [y for x, y in zip(mlo, mhi) if y > x]
        self.den = new_den
        self.n += 1
        if self.count > self.max_count:
            raise SizeCapExceeded(
                f"merged interval count {self.count} exceeds cap {self.max_count} "
                f"at generation {self.n}"
            )

    @property
    def count(self) -> int:
        return len(self.lo) if isinstance(self.lo, list) else int(self.lo.size)

    @property
    def measure(self) -> Fraction:
        if isinstance(self.lo, np.ndarray):
            # Both int64 sums wrap modulo 2**64 and the true total lies in
            # [0, 2**63), so the difference reduced modulo 2**64 is exact.
            total = (int(self.hi.sum()) - int(self.lo.sum())) % (1 << 64)
        else:
            total = sum(b - a for a, b in zip(self.lo, self.hi))
        return Fraction(total, self.den)

    def snapshot(self) -> IntervalSet:
        if isinstance(self.lo, np.ndarray):
            lo = [int(v) for v in self.lo]
            hi = [int(v) for v in self.hi]
        else:
            lo, hi = list(self.lo), list(self.hi)
        return IntervalSet.from_scaled(self.den, lo, hi, canonical=True)


@dataclass(frozen=True)
class DirectionBatch:
    """Float directions for the float backend, one row each.

    Row i is chart y where ``chart_y[i]`` is true and chart x otherwise, with
    float slope ``slope[i]`` in [-1, 1].  Nothing is snapped to a rational.
    """

    chart_y: np.ndarray
    slope: np.ndarray

    @classmethod
    def from_angles(cls, thetas) -> "DirectionBatch":
        """The chart and slope of each angle, reduced as ``Direction.from_angle``
        reduces one, with the slope taken as the float tangent directly."""
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
    """Float-backend twin of :class:`_ExactEngine`, one row per direction.

    A single Direction is a one-row batch whose map offsets and base are the
    floats of the exact projected ones; a DirectionBatch projects in float
    arithmetic.  Each step maps every row through all maps and merges all
    rows at once with ``merge_float_arrays``.  Rows shorter than the longest
    are padded with degenerate copies [x, x] of their right end x.  Under a
    map the image of a pad is the right end of the image of the row's last
    interval and comes after it in the stable sort, so a pad never starts a
    merged interval nor raises a running maximum: every row merges as it
    would alone.
    """

    def __init__(self, ifs: IFS2D, d: Union[Direction, DirectionBatch],
                 max_count: int = DEFAULT_MAX_COUNT,
                 merge_eps: float = MERGE_EPSILON):
        self.max_count = max_count
        self.eps = merge_eps
        if isinstance(d, Direction):
            proj = project_ifs(ifs, d)
            ratios = [float(r) for r, _ in proj.maps]
            offsets = np.array([[float(c) for _, c in proj.maps]])
            base = np.array([[float(v) for v in proj.base]])
        else:
            ratios = [float(m.ratio) for m in ifs.maps]
            offsets = d.functional(
                np.array([float(m.translation[0]) for m in ifs.maps]),
                np.array([float(m.translation[1]) for m in ifs.maps]))
            x0, y0, x1, y1 = (float(v) for v in ifs.base)
            corners = d.functional(np.array([x0, x0, x1, x1]),
                                   np.array([y0, y1, y0, y1]))
            base = np.stack([corners.min(axis=1), corners.max(axis=1)], axis=1)
        self.ratios = np.array(ratios)[:, None]
        self.offsets = offsets[:, :, None]
        self.lo, self.hi = base[:, :1], base[:, 1:]
        self.n = 0

    def step(self) -> None:
        rows = self.lo.shape[0]
        if self.lo.size:
            lo = self.ratios * self.lo[:, None, :]
            lo += self.offsets
            hi = self.ratios * self.hi[:, None, :]
            hi += self.offsets
            self.lo, self.hi = merge_float_arrays(
                lo.reshape(rows, -1), hi.reshape(rows, -1), self.eps)
        self.n += 1
        # Rows are padded to the longest, so the width is the largest count.
        if self.count > self.max_count:
            raise SizeCapExceeded(
                f"merged interval count {self.count} exceeds cap {self.max_count} "
                f"at generation {self.n}"
            )

    @property
    def count(self) -> int:
        return int(self.lo.shape[1])

    @property
    def measure(self) -> np.ndarray:
        """Sheared measure of each row."""
        return np.sum(self.hi - self.lo, axis=1)

    def snapshot(self) -> FloatIntervalSet:
        return FloatIntervalSet._trusted(self.lo[0].copy(), self.hi[0].copy(),
                                         self.eps)


def _engine(ifs: IFS2D, d, n: int, backend: str, max_count: int):
    """Start the engine for generation n of the system projected through d."""
    if n < 0:
        raise ValueError("generation index must be >= 0")
    if backend == "float":
        return _FloatEngine(ifs, d, max_count)
    if not isinstance(d, Direction):
        raise ValueError("a DirectionBatch needs the float backend")
    if backend == "exact":
        return _ExactEngine(project_ifs(ifs, d), max_count)
    raise ValueError(f"unknown backend {backend!r}")


def generation(ifs: IFS2D, d: Direction, n: int, backend: str = "exact",
               max_count: int = DEFAULT_MAX_COUNT) -> GenerationSet:
    """Generation n projected in direction d, as a canonical interval set."""
    eng = _engine(ifs, d, n, backend, max_count)
    for _ in range(n):
        eng.step()
    return GenerationSet(n, d, eng.snapshot())


def iter_generations(ifs: IFS2D, d: Direction, n_max: int,
                     backend: str = "exact",
                     max_count: int = DEFAULT_MAX_COUNT) -> Iterator[GenerationSet]:
    """Yield generations 0..n_max, reusing the merged set between steps."""
    eng = _engine(ifs, d, n_max, backend, max_count)
    yield GenerationSet(0, d, eng.snapshot())
    for k in range(1, n_max + 1):
        eng.step()
        yield GenerationSet(k, d, eng.snapshot())


def sheared_measures(ifs: IFS2D, d: Union[Direction, DirectionBatch],
                     n_max: int, backend: str = "exact",
                     max_count: int = DEFAULT_MAX_COUNT):
    """Sheared measures of generations 0..n_max in direction d.

    The sets are not materialized.  For a Direction the result is a list,
    of Fractions on the exact backend and floats on the float backend; the
    true projected length of generation n is ``values[n] * d.scale``.  A
    DirectionBatch runs on the float backend only and gives an array of
    shape (n_max + 1, len(d)), one column per direction.
    """
    eng = _engine(ifs, d, n_max, backend, max_count)
    values = [eng.measure]
    for _ in range(n_max):
        eng.step()
        values.append(eng.measure)
    if isinstance(d, DirectionBatch):
        return np.array(values)
    if backend == "float":
        return [float(v[0]) for v in values]
    return values


def projected_lengths(ifs: IFS2D, thetas, n_max: int,
                      max_count: int = DEFAULT_MAX_COUNT) -> np.ndarray:
    """True projected lengths of generations 0..n_max at float angles.

    Float backend, with slopes taken as ``tan`` of the angles unsnapped.
    The angles go through ``sheared_measures`` in groups of at most
    ``_GROUP_ENDPOINTS // k**n_max`` rows (at least one) for a system of
    k maps, which bounds the endpoints one group can hold.  Returns an
    array of shape (n_max + 1, len(thetas)).
    """
    if n_max < 0:
        raise ValueError("generation index must be >= 0")
    ds = DirectionBatch.from_angles(thetas)
    size = max(1, _GROUP_ENDPOINTS // len(ifs.maps) ** n_max)
    out = np.empty((n_max + 1, len(ds)))
    for start in range(0, len(ds), size):
        group = ds[start:start + size]
        out[:, start:start + size] = sheared_measures(
            ifs, group, n_max, "float", max_count) * group.scale
    return out
