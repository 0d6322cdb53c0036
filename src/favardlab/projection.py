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
float walk for a ``DirectionBatch``.  ``sheared_measures``, ``generation``
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
image boundary, touching counted as overlapping) are computed, into
scratch arrays, and swept there in place by ``_sweep``.  The
clean stretches between them are already merged; each is written once,
straight into its slot of output arrays of the exact merged size.  The
measure is carried, not recounted: the engine keeps the exact integer
numerator of |E_n|, and a step multiplies it by the sum of the scaled
ratios and subtracts the overlap loss of the windows, read off their
sorted ends as the sum of max(0, H[i-1] - L[i]), in Python ints.  A
system whose maps the reflection of the base about its midpoint permutes
has every generation symmetric about that midpoint.  Its steps mirror
whenever the images, sorted by left end, reverse onto their own mirrors:
only the windows left of the centre are merged, and of the window across
it only its left half, and the right half of the step is the left half
reflected, so the merge work halves.  Other layouts, and systems that are
not symmetric, merge every window.  Results are bit-identical to
concatenating all images and merging them, the reference kept in
``tests/oracles.py``, on either path.

``sheared_measures`` reads only the measure of its last generation n, so
it writes only what it reads.  The last step merges the windows and
never builds E_n.  The step before it writes only the first h and the
last t intervals of E_{n-1}, the ones that the last step's windows can
reach, bounded before E_{n-1} exists from the last step's maps and the
ends of E_{n-1}; the last step then runs on those and adds k times the
number left out to its count (``_ExactEngine.measure_at``).  The window
scratch and, for ``sheared_measures``, the int64 generations live in a
per-thread ``_Workspace`` that outlives the call, so repeated calls touch
no fresh pages; it holds about 36 MB after the 33 depth-12 four-corner
directions of the ``exact-deep`` benchmark.  Snapshots never share it:
``generation`` and ``iter_generations`` build new arrays.

The float walk, ``_float_walk``, holds one row per direction of a
``DirectionBatch``.  Each row's merged endpoints are a per-direction float
engine's bit for bit (reference in ``tests/oracles.py``).  Every merged
interval is kept, a point [x, x] that rounding makes of an image
included, so its neighborhoods and its descendants count as the exact
engine counts them.  It gives measures only, since generations are exact
only.  A batch takes float slopes, ``tan`` of the angles, and projects in
float arithmetic with no snapping and no Fractions
(``Direction.from_angle`` snaps its row of a batch of one).
``projected_lengths`` (``favard``, ``lipschitz_scan``) and
``neighborhood_lengths`` (``decay_series``) walk all their angles once,
projecting the system once.  A float step costs per-call overhead, so a
group of rows steps at once while its images hold at most
``_GROUP_ENDPOINTS`` = 16384 endpoints, counted on the merged widths, and
is halved by rows otherwise.  Only rows that step again are laid out:
``merge_float_arrays`` lays out the merged rows of such a group, padded,
by a second sort of each row, which costs about as much as the sweep's own
sort; one row is merged by gathers.  The deepest generation of a group of
several rows, which nothing steps, is swept in place in the walk's own
image arrays (``_swept_in_place``) and read off the sorted ends and the
start mask: no copy and no layout.  A row's measure is summed over the
row it is read from, so its last bits depend on the layout and the
width: a one-row batch sums its merged row, as the reference does.
Only the steps merge: each grown row of ``neighborhood_lengths`` is
measured from its chains under ``_apart``, the same bits on either
layout.
"""

from __future__ import annotations

import math
import threading
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
    _overlap_loss,
    _sweep,
    _swept_in_place,
    merge_float_arrays,
    rational_str,
    to_fraction,
)

# A step whose merged interval count passes this raises SizeCapExceeded.
MAX_COUNT = 50_000_000
DEFAULT_SLOPE_DENOMINATOR = 10 ** 6

_QUARTER_PI = math.pi / 4
# Endpoints per float step: a group of g rows of a k-map system whose
# widest merged row holds w intervals steps while g * w * k stays within
# this, and is halved by rows otherwise.  Budgets of 4096 and 65536 ran the
# quadrature pass of favard(four_corner(), n) for n = 2, 3 no faster (best
# of 7, 2-core x86-64 VM), and 65536 ran decay_series about 1.5x slower.
_GROUP_ENDPOINTS = 16384


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


def _window_bounds(lo0: int, hi1: int, coeffs: list) -> tuple:
    """The bounds behind ``_overlap_windows`` for the images a*E + c of a
    set E with ends lo0 and hi1, sorted by their left ends f_j = a*lo0 + c.

    With T_j the largest right end among images 0..j, returns (below,
    above, clear): below[j-1] = (T_{j-1} - c_j) // a_j for j >= 1, so that
    an element of image j chains into earlier images iff its lo <= below;
    above[j] = ceil((f_{j+1} - c_j) / a_j) for j <= k-2, so that it chains
    into later ones iff its hi >= above; clear[j] is False for an inner
    image j with T_{j-1} >= f_{j+1}, which has no clean cut.  They depend
    on E only through lo0 and hi1.
    """
    firsts = [a * lo0 + c for a, c in coeffs]
    tops = list(accumulate((a * hi1 + c for a, c in coeffs), max))
    below = [(t - c) // a for t, (a, c) in zip(tops, coeffs[1:])]
    above = [-((c - f) // a) for f, (a, c) in zip(firsts[1:], coeffs)]
    k = len(coeffs)
    clear = [j in (0, k - 1) or tops[j - 1] < firsts[j + 1] for j in range(k)]
    return below, above, clear


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
    intervals).  Both counts are searches in the source arrays for the
    bounds of ``_window_bounds``, since a*x + c <= t iff x <= (t - c) // a
    for a > 0.  Returns (start, stop) pairs into the stacked arrays.
    """
    n, k = lo.size, len(coeffs)
    below, above, clear = _window_bounds(int(lo[0]), int(hi[-1]), coeffs)
    s = [0] + np.searchsorted(lo, below, "right").tolist()
    e = np.searchsorted(hi, above, "left").tolist() + [n]
    windows = []
    start = None
    for j in range(k):
        if s[j] <= e[j] and clear[j]:
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
                  lo: np.ndarray, hi: np.ndarray, coeffs: list, pieces) -> int:
    """Write the image pieces (j, i0, i1) into dst from index w on;
    returns the index after the last one written."""
    for j, i0, i1 in pieces:
        a, c = coeffs[j]
        end = w + i1 - i0
        for src, dst in ((lo, dst_lo), (hi, dst_hi)):
            part = dst[w:end]
            np.multiply(a, src[i0:i1], out=part)
            part += c
        w = end
    return w


class _Workspace(threading.local):
    """One thread's scratch arrays, kept between calls so that a repeated
    step touches no fresh pages: the window ends, starts and gaps of every
    exact step, and the two generations that ``sheared_measures`` steps
    between.  Each array is made on its first use and grown, never shrunk.
    Object arrays are never pooled."""

    def __init__(self):
        self.arrays = {}

    def take(self, key, size: int, dtype=np.int64) -> np.ndarray:
        """The first ``size`` entries of the array ``key`` of this dtype."""
        if dtype == object:
            return np.empty(size, dtype=object)
        buf = self.arrays.get(key)
        if buf is None or buf.size < size:
            buf = self.arrays[key] = np.empty(size, dtype=dtype)
        return buf[:size]


_WORKSPACE = _Workspace()


def _sweep_window(lo: np.ndarray, hi: np.ndarray, coeffs: list, pieces: list,
                  slot: int) -> tuple:
    """Write the image pieces (j, i0, i1) of one window into the thread's
    scratch window ``slot`` and ``_sweep`` them there.  Returns the merged
    count, the ``_overlap_loss`` and the sorted (lo, hi, starts)."""
    size = sum(i1 - i0 for _, i0, i1 in pieces)
    wlo = _WORKSPACE.take(("lo", slot), size, lo.dtype)
    whi = _WORKSPACE.take(("hi", slot), size, lo.dtype)
    starts = _WORKSPACE.take(("starts", slot), size, bool)
    gaps = _WORKSPACE.take("gaps", size - 1, lo.dtype)
    _write_images(wlo, whi, 0, lo, hi, coeffs, pieces)
    _sweep(wlo, whi, starts)
    return int(np.count_nonzero(starts)), _overlap_loss(wlo, whi, gaps), (wlo, whi, starts)


def _merge_images(lo: np.ndarray, hi: np.ndarray, coeffs: list,
                  keep: bool = True, span: int | None = None,
                  ends: tuple | None = None, out=None, cap: float = math.inf) -> tuple:
    """Merged union of the images a*[lo, hi] + c of a non-empty canonical set.

    ``lo`` and ``hi`` are int64 arrays, or ``dtype=object`` arrays of Python
    ints, and the merged arrays keep their dtype.  Under a positive ratio
    each image of a set sorted with positive gaps is sorted with positive
    gaps, so the images are stacked in order of their left ends and only
    the windows where image hulls overlap are written, into the thread's
    scratch, and swept there in place (``_sweep_window``); everything
    between them is already merged.  Returns ``(count, loss, lo, hi)``:
    the merged interval count; the overlap loss, the summed lengths of the
    images minus the length of their union, as an exact int read off the
    sorted window ends; and, when ``keep`` is set, the merged endpoints,
    with each clean stretch written straight into its final slot of new
    arrays, or of the scratch arrays keyed ``out``.  Without ``keep`` the
    clean stretches are never computed and lo, hi are None; so too when
    the count passes ``cap``, before anything is allocated.  With ``ends``
    = (h, t) only the first h and the last t merged intervals are written,
    when h + t < count, and all ``count`` otherwise; a merged window is
    written whole or not at all, so h and t may grow.

    The caller passes ``span`` only for a set symmetric about its midpoint
    S/2, S = lo[0] + hi[-1]: the merged set is then symmetric about
    span/2, its last t intervals are its first t mirrored, and t = h.  The
    step mirrors when the sorted images map onto themselves reversed under
    x -> span - x (image j onto image k-1-j, so stacked element i onto
    element k*n-1-i, and each window onto a window): only the windows left
    of the centre are merged, and the right half of the output is the
    left half mirrored.  The window across the centre is merged only for
    its elements A with 2*lo < span, a prefix of each of its sorted
    pieces.  The window is A and the mirror of A, so its union is that of
    A and its mirror, which share a middle interval exactly when the
    largest right end H of A has 2*H >= span; its loss is twice that of A,
    plus, with a middle interval, 2*H - span less the lengths of the
    elements of A that cross span/2 (at most the last of each piece).
    Otherwise, and always without ``span``, every window is merged.  Both
    give the same arrays.
    """
    n = lo.size
    lo0 = int(lo[0])
    coeffs = sorted(coeffs, key=lambda ac: ac[0] * lo0 + ac[1])
    size = len(coeffs) * n
    mirror = span is not None and coeffs[::-1] == [
        (a, span - a * (lo0 + int(hi[-1])) - c) for a, c in coeffs]
    # Windows starting at or after the cut are mirrors of merged ones.
    cut = -(-size // 2) if mirror else size
    # parts, in output order: (first output, end of output, the stacked
    # start of a clean stretch or None, None or a window's sorted arrays)
    count, loss, parts = size, 0, []
    o = r = 0
    for i, (start, stop) in enumerate(_overlap_windows(lo, hi, coeffs)):
        if start >= cut:
            break
        if start > r:
            parts.append((o, o + start - r, r, None))
            o += start - r
        pieces = list(_image_pieces(n, start, stop))
        centre = stop > cut
        if centre:
            last = -(-span // 2) - 1            # the largest x with 2*x < span
            pieces = [(j, i0, b) for j, i0, i1 in pieces if i0 < (b := min(
                i1, int(np.searchsorted(lo, (last - coeffs[j][1]) // coeffs[j][0],
                                        "right"))))]
        m, lost, win = _sweep_window(lo, hi, coeffs, pieces, i if keep else 0)
        middle = False
        if centre:
            top = int(win[1][-1])
            middle = 2 * top >= span
            lost *= 2
            if middle:
                # an interval reaching the centre is its own mirror
                lost += 2 * top - span
                for j, i0, b in pieces:
                    a, c = coeffs[j]
                    if 2 * (a * int(hi[b - 1]) + c) > span:
                        lost -= a * (int(hi[b - 1]) - int(lo[b - 1]))
            count -= stop - start - (2 * m - middle)
            loss += lost
        else:
            # a window left of the centre stands for its mirror too
            weight = 2 if mirror else 1
            count -= weight * (stop - start - m)
            loss += weight * lost
        parts.append((o, o + m, None, win + (middle,)))
        o += m
        r = stop
    if r < cut:
        parts.append((o, o + cut - r, r, None))
        o += cut - r
    if not keep or count > cap:
        return count, loss, None, None
    # The parts give the first o outputs; when mirrored, the rest, past
    # any middle interval, is the left half reflected.
    head, tail = o, count - o
    if ends is not None:
        h, t = ends
        if span is not None:
            h = t = max(h, t)
        for o0, o1, _, win in parts:
            if win is not None:
                h = o1 if o0 < h < o1 else h
                t = count - o0 if o0 < count - t < o1 else t
        if span is not None:
            t = h
        if h + t < count:
            head, tail = h, t

    def write(dst_lo, dst_hi, d, first, end):
        """Write outputs first..end-1 of the parts into dst from index d."""
        for o0, o1, r, win in parts:
            u, v = max(o0, first), min(o1, end)
            if u >= v:
                continue
            x = d + u - first
            if win is None:
                _write_images(dst_lo, dst_hi, x, lo, hi, coeffs,
                              _image_pieces(n, r + u - o0, r + v - o0))
                continue
            wlo, whi, starts, middle = win      # a window is written whole
            y = x + o1 - o0
            np.compress(starts, wlo, out=dst_lo[x:y])
            np.compress(starts[1:], whi[:-1], out=dst_hi[x:y - 1])
            dst_hi[y - 1] = span - dst_lo[y - 1] if middle else whi[-1]

    out_lo, out_hi = (np.empty(head + tail, dtype=lo.dtype) if out is None else
                      _WORKSPACE.take((out, side), head + tail, lo.dtype)
                      for side in ("lo", "hi"))
    write(out_lo, out_hi, 0, 0, head)
    if span is None:
        write(out_lo, out_hi, head, count - tail, count)
    elif tail:
        np.subtract(span, out_hi[:tail][::-1], out=out_lo[head:])
        np.subtract(span, out_lo[:tail][::-1], out=out_hi[head:])
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
    loss from the overlap loss of the merged windows.  A step whose count
    passes ``MAX_COUNT`` raises ``SizeCapExceeded`` before it writes the
    new set.  ``symmetric`` is tested once, exactly, on the projected
    maps: when it holds every step passes ``_merge_images`` the sum of
    ends of the next generation, and the step mirrors when its image
    layout allows, with bit-identical results.

    ``measure_at`` names the generation whose measure alone the caller
    reads (``sheared_measures``): the step to it leaves the set unbuilt
    (lo and hi None), so it is the last one.  The int64 generations then
    live in two scratch arrays of the thread's ``_Workspace``, written in
    turn, and the step before the last writes only what the last one
    reads: the first h and the last t intervals.
    From the last step's maps and the ends of the new set, which the step
    knows before it merges, ``_window_bounds`` gives the last step's
    bounds; h counts the image elements of this step whose left ends lie
    at or below the largest ``below``, and t those whose right ends lie at
    or above the least ``above``.  Each merged interval starts at and ends
    at an image element, so the intervals past the first h have lo past
    every ``below`` and those before the last t have hi short of every
    ``above``; h and t are at least 1, for the ends.  The last step's
    windows therefore hold the same elements, its s_j are unchanged and
    its e_j shift by the number ``omitted``, and it adds k * omitted to
    its count.  When the last step reads all of an inner image j, with
    T_{j-1} >= f_{j+1}, the copy of each interval in image j lies at or
    below T_{j-1} or past it, so past f_{j+1}: then h + t >= count and
    nothing is trimmed.
    """

    def __init__(self, proj: ProjectedIFS1D, measure_at: int | None = None):
        lo, hi = proj.base
        if any(r <= 0 for r, _ in proj.maps) or not lo < hi:
            raise ValueError("the exact engine needs positive map ratios "
                             "and a base of positive length")
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
        self.measure_at = measure_at
        self.omitted = 0

    def _coefficients(self, den: int) -> tuple[int, list[tuple[int, int]]]:
        """The next denominator and the maps a*x + c over it, for a set
        over ``den``."""
        new_den = math.lcm(den * self.ratio_lcm, self.offset_lcm)
        coeffs = []
        for p, q, a, b in self.maps:
            coeffs.append((p * (new_den // (q * den)), a * (new_den // b)))
        return new_den, coeffs

    def _last_reads(self, new_den: int, coeffs: list) -> tuple:
        """(h, t) of the trim, for the step by ``coeffs`` to ``new_den``
        when the step after it is the last."""
        _, nxt = self._coefficients(new_den)
        lo0 = min(a * int(self.lo[0]) + c for a, c in coeffs)
        hi1 = max(a * int(self.hi[-1]) + c for a, c in coeffs)
        nxt.sort(key=lambda ac: ac[0] * lo0 + ac[1])
        below, above, _ = _window_bounds(lo0, hi1, nxt)
        h = t = 0
        if below:
            h = int(np.searchsorted(self.lo, [(max(below) - c) // a for a, c in coeffs],
                                    "right").sum())
            t = len(coeffs) * self.lo.size - int(np.searchsorted(
                self.hi, [-((c - min(above)) // a) for a, c in coeffs], "left").sum())
        return max(h, 1), max(t, 1)

    def step(self) -> None:
        new_den, coeffs = self._coefficients(self.den)
        xmax = _extreme(self.lo, self.hi)
        span = None
        if self.symmetric:
            # x -> span - x reflects E_{n+1}, as lo[0] + hi[-1] - x does E_n
            span = (int(self.lo[0]) + int(self.hi[-1])) * (new_den // self.den)
        dtype = _exact_dtype(new_den, abs(span or 0),
                             *(abs(a) * xmax + abs(c) for a, c in coeffs))
        out = None if self.measure_at is None else ("generation", self.n % 2)
        ends = (self._last_reads(new_den, coeffs)
                if self.n + 2 == self.measure_at else None)
        keep = self.n + 1 != self.measure_at
        extra = len(coeffs) * self.omitted
        count, loss, self.lo, self.hi = _merge_images(
            self.lo.astype(dtype, copy=False), self.hi.astype(dtype, copy=False),
            coeffs, keep, span, ends, out, MAX_COUNT - extra)
        self.count = count + extra
        _check_cap(self.count, self.n + 1)
        self.omitted = self.count - self.lo.size if keep else 0
        self.total = sum(a for a, _ in coeffs) * self.total - loss
        self.den = new_den
        self.n += 1

    @property
    def measure(self) -> Fraction:
        return Fraction(self.total, self.den)

    def snapshot(self) -> IntervalSet:
        return IntervalSet.from_scaled(self.den, self.lo, self.hi)


@dataclass(frozen=True)
class DirectionBatch:
    """Float directions for the float walk, one row each.

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

    @property
    def scale(self) -> np.ndarray:
        """True projected length per unit of sheared length, per row."""
        return 1.0 / np.sqrt(1.0 + self.slope * self.slope)

    def functional(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sheared coordinates of the points (x, y), one row per direction."""
        s = self.slope[:, None]
        chart_y = self.chart_y[:, None]
        return np.where(chart_y, y + s * x, x + s * y)


def _float_walk(ifs: IFS2D, batch: DirectionBatch, n_max: int) -> Iterator[tuple]:
    """The float generations 0..n_max of the system projected through each
    row of ``batch``, as (rows, n, lo, hi, starts): generation n of the
    rows of the slice ``rows``.  Each row comes once for each n.  With
    ``starts`` None the rows are laid out, merged and padded; otherwise lo
    and hi are the sorted ends of the row's images and ``starts`` marks
    where ``_sweep`` starts a merged interval.  Every merged interval is
    kept, points included.

    The maps and base corners are projected once, for all rows.  A group
    steps all its rows at once through ``merge_float_arrays``, each row
    padded with degenerate copies [x, x] of its right end x.  The image of
    a pad is the right end of the image of the row's last interval, so it
    changes neither the union nor a gap, and the sweep sorts left and right
    ends apart: every row merges as it would alone.  The step of a group of
    several rows to n_max, which nothing steps again, sweeps the images in
    place instead (``_swept_in_place``).  ``SizeCapExceeded`` counts the
    merged intervals either way.  A group of several rows whose images pass
    ``_GROUP_ENDPOINTS`` is halved instead, and each half goes on a
    depth-first stack, cut to its widest row: a row's merged right ends
    before its last lie below the last, and its pads equal it.
    """
    k = len(ifs.maps)
    ratios = np.array([float(m.ratio) for m in ifs.maps])[:, None]
    offsets = batch.functional(
        np.array([float(m.translation[0]) for m in ifs.maps]),
        np.array([float(m.translation[1]) for m in ifs.maps]))[:, :, None]
    x0, y0, x1, y1 = (float(v) for v in ifs.base)
    corners = batch.functional(np.array([x0, x0, x1, x1]),
                               np.array([y0, y1, y0, y1]))
    lo, hi = corners.min(axis=1, keepdims=True), corners.max(axis=1, keepdims=True)
    yield slice(0, len(batch)), 0, lo, hi, None
    stack = [(0, len(batch), lo, hi, 0)]
    while stack:
        a, b, lo, hi, n = stack.pop()
        if n == n_max:
            continue
        if lo.size * k > _GROUP_ENDPOINTS and b - a > 1:
            m = (a + b) // 2
            for i, j in ((m, b), (a, m)):
                part_lo, part_hi = lo[i - a:j - a], hi[i - a:j - a]
                last = part_hi[:, -1:]
                width = np.count_nonzero(part_hi < last, axis=1).max() + 1
                stack.append((i, j, part_lo[:, :width], part_hi[:, :width], n))
            continue
        starts = None
        if lo.size:
            images = []
            for ends in (lo, hi):
                image = ratios * ends[:, None, :]
                image += offsets[a:b]
                images.append(image.reshape(b - a, -1))
            if n + 1 < n_max or b - a == 1:
                lo, hi = merge_float_arrays(*images)
            else:
                lo, hi = images
                starts = _swept_in_place(lo, hi, MERGE_EPSILON)
        # Laid-out rows are padded to the longest, so the width is the
        # largest count; a swept row counts its starts, at most the width.
        count = lo.shape[1]
        if starts is not None and count > MAX_COUNT:
            count = int(np.count_nonzero(starts, axis=1).max())
        _check_cap(count, n + 1)
        yield slice(a, b), n + 1, lo, hi, starts
        stack.append((a, b, lo, hi, n + 1))


def _row_measures(lo: np.ndarray, hi: np.ndarray, starts) -> np.ndarray:
    """The measure of each row of ``_float_walk``: the sum of hi - lo over
    laid-out rows, or, with ``starts``, the sum over the merged intervals
    of the sorted ends.  A merged interval from start s to the last index
    e before the next start has length H[s] - L[s] plus H[i] - H[i-1] for
    s < i <= e, the telescoped sum of (H - L) and L[i] - H[i-1] over the
    indices that start no interval: every term is >= 0, so nothing
    cancels."""
    if starts is not None:
        low = np.empty_like(lo)
        low[:, 1:] = hi[:, :-1]
        np.copyto(low, lo, where=starts)
        lo = low
    return np.sum(hi - lo, axis=1)


def _engine(ifs: IFS2D, d: Direction, n: int,
            measure_only: bool = False) -> _ExactEngine:
    """Start the exact engine for generation n of the system projected
    through d.  With ``measure_only`` its ``measure_at`` is n."""
    if n < 0:
        raise ValueError("generation index must be >= 0")
    return _ExactEngine(project_ifs(ifs, d), n if measure_only else None)


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
    the endpoints.  The last step only merges the overlap windows, so the
    intervals of generation n_max are never built, and of generation
    n_max - 1 only those that the last step reads are; the generations
    live in scratch arrays of the thread, reused by the next call
    (``_ExactEngine.measure_at``).  The true projected
    length of generation n is ``values[n] * d.scale``.  A DirectionBatch
    runs on the float walk, ``_float_walk``, and gives an array of shape
    (n_max + 1, len(d)), one column per direction, each summed over its
    row as the walk gives it (``_row_measures``).
    """
    if not isinstance(d, DirectionBatch):
        eng = _engine(ifs, d, n_max, measure_only=True)
        values = [eng.measure]
        for _ in range(n_max):
            eng.step()
            values.append(eng.measure)
        return values
    if n_max < 0:
        raise ValueError("generation index must be >= 0")
    values = np.empty((n_max + 1, len(d)))
    for rows, n, lo, hi, starts in _float_walk(ifs, d, n_max):
        values[n, rows] = _row_measures(lo, hi, starts)
    return values


def _grown_measures(lo: np.ndarray, hi: np.ndarray, starts,
                    radius: np.ndarray) -> np.ndarray:
    """The measure of each row of ``_float_walk`` grown by its own radius
    p, one per row, with no second merge.

    The grown intervals [l - p, h + p] of a merged row stay sorted, and
    each chains into the one before it unless the merge rule ``_apart``
    keeps them apart at MERGE_EPSILON.  Each chain is measured by its own
    ends, h - l + 2p for the last h and the first l, and the chains of a
    row are summed in order.  On swept rows (``starts``) a chain begins
    only at a start, so the chains and their ends are those of the laid-out
    rows, and both give the same bits.  A merged point grows into 2p, and a
    pad [x, x] lies in the chain before it.  No rows give no measures.
    """
    if not lo.size:
        return np.zeros(len(lo))
    first = np.empty(lo.shape, dtype=bool)
    first[:, 0] = True
    _apart(lo[:, 1:] - radius[:, None], hi[:, :-1] + radius[:, None],
           MERGE_EPSILON, out=first[:, 1:])
    if starts is not None:
        first &= starts
    # Every row's first column starts a chain, so in the flattened rows a
    # chain ends just before the next one starts.
    at = np.flatnonzero(first)
    last = np.append(at[1:], lo.size) - 1
    heads = np.searchsorted(at, np.arange(0, lo.size, lo.shape[1]))
    lengths = hi.take(last) - lo.take(at)
    return (np.add.reduceat(lengths, heads)
            + 2 * radius * np.diff(heads, append=at.size))


def projected_lengths(ifs: IFS2D, thetas, n_max: int) -> np.ndarray:
    """True projected lengths of generations 0..n_max at float angles.

    The angles, slopes ``tan`` of them and unsnapped, go through one
    ``sheared_measures`` call on the float walk.  Returns an array of shape
    (n_max + 1, len(thetas)).
    """
    batch = DirectionBatch.from_angles(thetas)
    return sheared_measures(ifs, batch, n_max) * batch.scale


def neighborhood_lengths(ifs: IFS2D, thetas, wanted) -> np.ndarray:
    """True lengths of the r-neighborhood of projected generation n at each
    float angle, one row per pair (n, r) of ``wanted``.

    The angles take one float walk, ``_float_walk``, to the deepest n.  At
    each generation that ``wanted`` names, each merged row grows by its own
    sheared radius p = r / scale and stays sorted, so its measure is read
    with no second merge, from the chains of grown intervals that the
    merge rule ``_apart`` glues at MERGE_EPSILON (``_grown_measures``).
    No pairs give no rows, and no angles no columns.
    """
    measures = np.empty((len(wanted), len(thetas)))
    if not wanted:
        return measures
    if min(wanted)[0] < 0:
        raise ValueError("generation index must be >= 0")
    at_depth = {}
    for i, (n, r) in enumerate(wanted):
        at_depth.setdefault(n, []).append((i, r))
    batch = DirectionBatch.from_angles(thetas)
    scales = batch.scale
    for rows, n, lo, hi, starts in _float_walk(ifs, batch, max(wanted)[0]):
        scale = scales[rows]
        for i, r in at_depth.get(n, ()):
            measures[i, rows] = _grown_measures(lo, hi, starts, r / scale) * scale
    return measures
