"""Neighborhood decay, cover statistics, exponent fits, and counterexamples.

The dimension pipeline rests on the identity that expanding a set and then
projecting equals projecting and then expanding: the r-neighborhood of a
projection is computed by expanding the projected generation whose cylinder
diameter matches r.  If the window-integrated measure of these neighborhoods
decays like C*r^s, the Hausdorff dimension of the set is at most 1 - s; the
fit is reported together with its residual so power-law fidelity is visible.
The decay series is a float estimate: its generations run on the float walk
at unsnapped slopes, one walk of all nodes for every depth of the series.

Cover statistics expose the proof-side objects: the expanded projection is a
finite union of disjoint intervals, each of length at least 2r, so their
count is at most measure/(2r) and Holder sums sum(|I|^p) control
p-dimensional content.

The 1D neighborhood helpers also service the counterexample engine: the map
n -> |E(b^-n)| need not be convex for finite unions, and lattice seesaws
exhibit sign-flipping second differences.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateFitError, PreconditionError
from .favard import ConvexityReport, _half_period, _panel_nodes, check_convexity
from .ifs import IFS2D
from .intervals import IntervalSet, to_fraction
from .projection import Direction, generation, neighborhood_lengths

RADIUS_SNAP_DENOMINATOR = 10 ** 12


# Deepest generation that matched_depth tries.
_MAX_MATCHED_DEPTH = 10_000


def matched_depth(ifs: IFS2D, r) -> int:
    """Smallest generation whose cylinder contraction is at most r.

    For a preset with maximal ratio rho this is ceil(log r / log rho),
    computed by exact comparison so boundary scales (r an exact power of
    rho) land on the right depth.
    """
    r = to_fraction(r)
    if r <= 0:
        raise ValueError("scale must be positive")
    rho = max(m.ratio for m in ifs.maps)
    n = 0
    power = Fraction(1)
    while power > r:
        power *= rho
        n += 1
        if n > _MAX_MATCHED_DEPTH:
            # the scale's digits can pass Python's int-to-str limit
            raise ValueError(
                f"scale is too small to match a depth: it lies below "
                f"{rho}**{_MAX_MATCHED_DEPTH}, the largest ratio to the power "
                f"of the {_MAX_MATCHED_DEPTH}-step cap")
    return n


def _ceil_sqrt_scaled(value: Fraction, den: int) -> Fraction:
    """Smallest fraction k/den with (k/den)^2 >= value."""
    w = value * den * den
    k = math.isqrt(w.numerator // w.denominator)
    while k * k * w.denominator < w.numerator:
        k += 1
    return Fraction(k, den)


def sheared_radius(r: Fraction, d: Direction) -> Fraction:
    """Rational radius >= r*sqrt(1+slope^2), within 1/RADIUS_SNAP_DENOMINATOR
    of it.

    Expanding the sheared projection by this radius contains the true
    r-neighborhood of the projection, so every derived floor (interval
    length >= 2r) still holds exactly.  At slope 0 the radius is r itself.
    """
    if d.slope == 0:
        return r
    return _ceil_sqrt_scaled(r * r * d.shear_norm_sq, RADIUS_SNAP_DENOMINATOR)


@dataclass(frozen=True)
class CoverStatistic:
    """The expanded projection as a disjoint cover, with Holder sums."""

    r: Fraction
    direction: Direction
    depth: int
    intervals: IntervalSet      # sheared coordinates
    count: int
    min_length: float           # true (unsheared) length of shortest piece
    min_length_sheared: Fraction
    measure: float              # true total length
    holder_sums: dict           # Fraction p -> sum of true |I|^p
    q_values: dict              # Fraction p -> q with 1/p - 1/q = 1
    floor_ok: bool              # min_length >= 2r, verified exactly
    count_ceiling_ok: bool      # count <= measure/(2r), verified exactly


def cover_stats(ifs: IFS2D, d: Direction, r,
                exponents: Sequence = (Fraction(1, 2),)) -> CoverStatistic:
    """Expand the matched-depth projected generation by r and measure it."""
    r = to_fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    ps = [to_fraction(p) for p in exponents]
    for p in ps:
        if not 0 < p < 1:
            raise ValueError(f"Holder exponent must lie in (0, 1), got {p}")
    depth = matched_depth(ifs, r)
    gen = generation(ifs, d, depth)
    r_sh = sheared_radius(r, d)
    cover = gen.expand(r_sh)
    scale = d.scale
    min_sh = cover.min_length()
    den = cover.denominator
    # int / int rounds once, exactly as float(Fraction(b - a, den)) does
    true_lengths = [(b - a) / den * scale for a, b in zip(*cover.numerators)]
    holder = {p: math.fsum(l ** e for l in true_lengths)
              for p, e in zip(ps, map(float, ps))}
    qs = {p: p / (1 - p) for p in ps}
    s2 = d.shear_norm_sq
    floor_ok = min_sh * min_sh >= 4 * r * r * s2
    msr_sh = cover.measure
    ceiling_ok = 4 * cover.count ** 2 * r * r * s2 <= msr_sh * msr_sh
    return CoverStatistic(r, d, depth, cover, cover.count,
                          float(min_sh) * scale, min_sh,
                          float(msr_sh) * scale, holder, qs,
                          bool(floor_ok), bool(ceiling_ok))


@dataclass(frozen=True)
class DecayRecord:
    """One scale of the decay series: window-integrated neighborhood length."""

    r: float
    total: float
    depth: int
    total_shallower: Optional[float] = None
    total_deeper: Optional[float] = None


def decay_series(ifs: IFS2D, scales: Sequence, window=None, panels: int = 8,
                 order: int = 16, sensitivity: bool = False) -> list:
    """Window-integrated projected neighborhood measure per scale.

    Scales must be strictly decreasing and positive.  Each scale picks its
    matched generation depth; with sensitivity=True the integral is also
    computed one generation shallower and deeper, bracketing the depth
    choice.  The default window is the half period of ``_half_period``
    (with the dihedral shortcut, [0, pi/4] scaled back by its
    multiplicity); a given window must be finite.

    All (depth, scale) pairs, brackets included, go through one
    ``neighborhood_lengths`` call: one float walk of all nodes at the
    unsnapped slopes ``tan`` of the node angles, to the deepest depth.
    """
    rs = [to_fraction(s) for s in scales]
    if not rs:
        raise ValueError("need at least one scale")
    if any(b >= a for a, b in zip(rs, rs[1:])) or rs[-1] <= 0:
        raise PreconditionError("scales must be strictly decreasing and positive")
    if window is not None:
        lo, hi, factor = float(window[0]), float(window[1]), 1.0
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise PreconditionError(f"angular window must be finite, got {lo}, {hi}")
    else:
        lo, hi, factor = _half_period(ifs)
    if hi <= lo:
        raise ValueError("angular window must have positive length")
    nodes, weights = _panel_nodes(lo, hi, panels, order)
    weights = factor * weights
    depths = [matched_depth(ifs, r) for r in rs]
    shifts = (0, -1, 1) if sensitivity else (0,)
    wanted = [(d + s, float(r)) for r, d in zip(rs, depths) for s in shifts
              if d + s >= 0]
    rows = neighborhood_lengths(ifs, nodes, wanted)
    totals = {pair: float(np.dot(weights, row)) for pair, row in zip(wanted, rows)}
    return [DecayRecord(float(r), totals[d, float(r)], d,
                        *(totals.get((d + s, float(r))) if s in shifts else None
                          for s in (-1, 1)))
            for r, d in zip(rs, depths)]


@dataclass(frozen=True)
class ExponentFit:
    s: float
    C: float
    residual: float         # max abs log-space residual
    dim_bound: float        # 1 - s, a fitted estimate, not a proved bound


def exponent_fit(series: Sequence) -> ExponentFit:
    """Least-squares power-law fit total ~ C * r^s over ``DecayRecord``s."""
    rows = [(rec.r, rec.total) for rec in series]
    if len(rows) < 3:
        raise PreconditionError("need at least 3 records to fit an exponent")
    if any(t <= 0 for _, t in rows):
        raise DegenerateFitError("nonpositive totals cannot be log-fitted")
    log_r = np.log([r for r, _ in rows])
    log_t = np.log([t for _, t in rows])
    if float(np.ptp(log_r)) == 0.0:
        raise DegenerateFitError("all scales equal; no variance in log r")
    slope, intercept = np.polyfit(log_r, log_t, 1)
    resid = float(np.max(np.abs(log_t - (slope * log_r + intercept))))
    return ExponentFit(float(slope), float(np.exp(intercept)), resid,
                       1.0 - float(slope))


def neighborhood_sequence(source, base, n_max: int) -> list:
    """Exact measures of E(base^-n) for n = 0..n_max.

    The source is a 1D set given as rational points or as an IntervalSet;
    each entry of the result is (n, measure) with the measure an exact
    Fraction.
    """
    b = to_fraction(base)
    if b <= 1:
        raise PreconditionError("base must exceed 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    pts = source if isinstance(source, IntervalSet) else IntervalSet.from_points(source)
    # an empty set expands to the empty set, of measure 0
    return [(n, pts.expand(b ** -n).measure) for n in range(n_max + 1)]


def lattice(center, spacing, extent) -> tuple:
    """Symmetric lattice center + j*spacing for |j*spacing| <= extent."""
    c, s, e = to_fraction(center), to_fraction(spacing), to_fraction(extent)
    if s <= 0:
        raise ValueError("spacing must be positive")
    if e < 0:
        raise ValueError("extent must be nonnegative")
    m = int(e / s)
    return tuple(c + j * s for j in range(-m, m + 1))


def section_lattice() -> tuple:
    """The quarter-integer lattice 0, 1/4, ..., 100 (401 points)."""
    return lattice(Fraction(50), Fraction(1, 4), Fraction(50))


@dataclass(frozen=True)
class SeesawResult:
    points: tuple
    set: IntervalSet
    base: Fraction
    sequence: tuple             # (n, Fraction measure)
    convexity: Optional[ConvexityReport]
    overlaps: tuple             # stage index pairs that intersect


def seesaw_builder(stages: Iterable, base=4, n_max: int = 6) -> SeesawResult:
    """Union of finite lattices and its neighborhood-measure sequence.

    Each stage is (center, spacing, extent).  Spacings must decrease from
    stage to stage; stages whose point ranges intersect are kept but
    reported (and warned about), since interleaved lattices blur the
    per-stage scale story.
    """
    stage_list = [(to_fraction(c), to_fraction(s), to_fraction(e))
                  for c, s, e in stages]
    for (_, s1, _), (_, s2, _) in zip(stage_list, stage_list[1:]):
        if s2 >= s1:
            raise PreconditionError("stage spacings must strictly decrease")
    points: set = set()
    spans = []
    for c, s, e in stage_list:
        points.update(lattice(c, s, e))
        spans.append((c - e, c + e))
    overlaps = []
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]:
                overlaps.append((i, j))
    if overlaps:
        warnings.warn(f"seesaw stages overlap: {overlaps}", stacklevel=2)
    pts = tuple(sorted(points))
    pset = IntervalSet.from_points(pts)
    seq = neighborhood_sequence(pset, base, n_max)
    report = check_convexity([m for _, m in seq]) if len(seq) >= 3 else None
    return SeesawResult(pts, pset, to_fraction(base), tuple(seq), report,
                        tuple(overlaps))


def read_points(path) -> tuple:
    """Load one rational value per line; blank lines and # comments skipped."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(to_fraction(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{line_no}: bad rational {text!r}") \
                    from exc
    return tuple(values)
