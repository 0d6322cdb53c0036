"""Exact 1D interval-set geometry with a rational and a float backend.

Endpoints of an exact set are kept as integers over one shared positive
denominator, so sorting and merging never touch rational arithmetic; the
public surface speaks ``fractions.Fraction``.  A canonical set is sorted,
pairwise disjoint with strictly positive gaps (touching intervals are
merged, closed-interval semantics), and free of degenerate ``[a, a]``
entries.  Point sets built with :meth:`IntervalSet.from_points` are the one
sanctioned exception: they hold degenerate intervals so that ``expand`` can
grow them into neighborhoods.

The float backend (:class:`FloatIntervalSet`) mirrors the same surface with
binary64 endpoints and an absolute gap tolerance below which intervals are
glued together.  Summation order is fixed (ascending lo) so repeated runs
are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import MalformedIntervalError

Scalar = Union[Fraction, int, float]
RationalLike = Union[Fraction, int, str, float]

#: Absolute gap below which the float backend merges neighboring intervals.
MERGE_EPSILON = 1e-12

# Largest magnitude allowed through the int64 kernels; leaves headroom for
# the running-max arithmetic inside the merge.
_INT64_SAFE = 1 << 62


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, ``p/q`` or finite-decimal strings, floats, and Fractions.

    Floats convert exactly (every binary64 value is rational); strings must
    have a finite decimal expansion or explicit ``p/q`` form.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise MalformedIntervalError(f"non-finite endpoint {value!r}")
        return Fraction(value)
    return Fraction(str(value).strip())


def rational_str(value: Union[Fraction, int]) -> str:
    """Render a Fraction or an int as ``p`` or ``p/q`` (canonical,
    round-trippable)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# Intervals per block in ``IntervalSet.rational_strs``: bounds the numpy
# temporaries, whatever the size of the set.
_TEXT_BLOCK = 4096


def _reduced_strs(num: np.ndarray, den: int) -> list:
    """``rational_str(Fraction(v, den))`` for every v of an integer array
    (int64, or ``dtype=object`` of Python ints), with den > 0."""
    g = np.gcd(num, den)
    return [f"{p}/{q}" if q != 1 else str(p)
            for p, q in zip((num // g).tolist(), (den // g).tolist())]


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` with lo <= hi.

    Endpoints are Fractions on the exact backend and floats on the float
    backend.  Degenerate intervals (lo == hi) are legal values; canonical
    sets simply do not store them.
    """

    lo: Scalar
    hi: Scalar

    def __post_init__(self) -> None:
        if isinstance(self.lo, float) or isinstance(self.hi, float):
            if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
                raise MalformedIntervalError(f"non-finite interval [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise MalformedIntervalError(f"interval with lo > hi: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> Scalar:
        return self.hi - self.lo


def _merge_scaled(pairs: list) -> tuple[list, list]:
    """Sort-and-sweep merge of (lo, hi) pairs of Python ints.

    Touching intervals merge; degenerate leftovers are dropped by the caller
    if required.  Returns parallel lo/hi lists.
    """
    pairs.sort()
    out_lo: list = []
    out_hi: list = []
    for a, b in pairs:
        if out_hi and a <= out_hi[-1]:
            if b > out_hi[-1]:
                out_hi[-1] = b
        else:
            out_lo.append(a)
            out_hi.append(b)
    return out_lo, out_hi


def merge_int64_arrays(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized merge of integer endpoint arrays (closed-interval
    semantics): int64, or ``dtype=object`` arrays of Python ints, which
    keep their dtype."""
    if lo.size == 0:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = hi[order]
    run = np.maximum.accumulate(hi)
    keep_start = np.empty(lo.size, dtype=bool)
    keep_start[0] = True
    np.greater(lo[1:], run[:-1], out=keep_start[1:])
    starts = np.flatnonzero(keep_start)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = lo.size - 1
    return lo[starts], run[ends]


def merge_float_arrays(
    lo: np.ndarray, hi: np.ndarray, merge_eps: float = MERGE_EPSILON
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized merge of float64 endpoints, one interval set per row.

    Each row is sorted by a stable argsort of lo and swept with a running
    maximum of hi; gaps of at most merge_eps are glued and degenerate
    merged intervals dropped.  1D arrays are one row and give 1D results.
    2D results are padded to the longest row with degenerate copies
    [x, x] of the row's last right end x: they lie in the row's last
    interval, add nothing to its measure and merge away again.  A row left
    empty is padded with zeros.
    """
    if lo.ndim == 1:
        mlo, mhi = merge_float_arrays(lo[None], hi[None], merge_eps)
        return mlo[0], mhi[0]
    rows, m = lo.shape
    if m == 0:
        return lo, hi
    order = np.argsort(lo, axis=1, kind="stable")
    if rows > 1:
        order += np.arange(0, rows * m, m)[:, None]
    lo = lo.ravel()[order]
    hi = hi.ravel()[order]
    run = np.maximum.accumulate(hi, axis=1)
    starts = np.empty((rows, m), dtype=bool)
    starts[:, 0] = True
    np.greater(lo[:, 1:], run[:, :-1] + merge_eps, out=starts[:, 1:])
    ends = np.empty_like(starts)
    ends[:, :-1] = starts[:, 1:]
    ends[:, -1] = True
    mlo, mhi = lo[starts], run[ends]
    keep = mhi > mlo
    mlo, mhi = mlo[keep], mhi[keep]
    if rows == 1:
        return mlo[None], mhi[None]
    row = np.nonzero(starts)[0][keep]
    counts = np.bincount(row, minlength=rows)
    stops = np.cumsum(counts)
    pad = np.zeros(rows)
    filled = counts > 0
    pad[filled] = mhi[stops[filled] - 1]
    width = int(counts.max())
    out_lo = np.repeat(pad, width).reshape(rows, width)
    out_hi = out_lo.copy()
    col = np.arange(row.size) - np.repeat(stops - counts, counts)
    out_lo[row, col] = mlo
    out_hi[row, col] = mhi
    return out_lo, out_hi


class IntervalSet:
    """Canonical union of disjoint closed intervals with rational endpoints.

    Immutable.  Internally the endpoints are integers over a single shared
    denominator, reduced so equal sets compare equal structurally.
    """

    __slots__ = ("_den", "_lo", "_hi")
    backend = "exact"

    def __init__(self, den: int, lo: tuple, hi: tuple):
        # Trusted constructor; use the from_* classmethods.
        self._den = den
        self._lo = lo
        self._hi = hi

    # -- construction ------------------------------------------------------

    @classmethod
    def from_intervals(cls, items: Iterable) -> "IntervalSet":
        """Normalize arbitrary (unsorted, overlapping) intervals.

        Accepts Interval objects or (lo, hi) pairs of rational-like values.
        Idempotent; degenerate intervals that stay degenerate after merging
        are dropped.
        """
        fracs = []
        for item in items:
            if isinstance(item, Interval):
                a, b = item.lo, item.hi
            else:
                a, b = item
            a = to_fraction(a)
            b = to_fraction(b)
            if a > b:
                raise MalformedIntervalError(f"interval with lo > hi: [{a}, {b}]")
            fracs.append((a, b))
        den = math.lcm(*(x.denominator for pair in fracs for x in pair))
        pairs = [(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
                 for a, b in fracs]
        lo, hi = _merge_scaled(pairs)
        keep = [(a, b) for a, b in zip(lo, hi) if b > a]
        return cls._reduced(den, [a for a, _ in keep], [b for _, b in keep])

    @classmethod
    def from_points(cls, points: Iterable[RationalLike]) -> "IntervalSet":
        """Store a finite point set as degenerate intervals (sorted, unique).

        Measure is zero; the intended use is ``expand`` into a neighborhood.
        """
        pts = sorted({to_fraction(p) for p in points})
        den = math.lcm(*(p.denominator for p in pts))
        scaled = [p.numerator * (den // p.denominator) for p in pts]
        return cls._reduced(den, scaled, scaled)

    @classmethod
    def from_scaled(cls, den: int, lo: list, hi: list) -> "IntervalSet":
        """Build from canonical integer endpoints over denominator ``den``.

        The input is trusted: lists of Python ints, sorted, merged and free
        of degenerate intervals, as the generation engine produces them.
        Only the set is reduced to lowest terms.
        """
        if den <= 0:
            raise MalformedIntervalError("denominator must be positive")
        return cls._reduced(den, lo, hi)

    @classmethod
    def _reduced(cls, den: int, lo: list, hi: list) -> "IntervalSet":
        if not lo:
            return cls(1, (), ())
        g = den
        for v in lo:
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            for v in hi:
                g = math.gcd(g, v)
                if g == 1:
                    break
        if g > 1:
            den //= g
            lo = [v // g for v in lo]
            hi = [v // g for v in hi]
        return cls(den, tuple(lo), tuple(hi))

    # -- inspection --------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self._lo)

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def measure(self) -> Fraction:
        """Exact total length, summed in ascending-lo order."""
        return Fraction(sum(b - a for a, b in zip(self._lo, self._hi)), self._den)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        d = self._den
        return tuple(Interval(Fraction(a, d), Fraction(b, d))
                     for a, b in zip(self._lo, self._hi))

    @property
    def bounds(self):
        """(min lo, max hi) as Fractions, or None when empty."""
        if not self._lo:
            return None
        return Fraction(self._lo[0], self._den), Fraction(self._hi[-1], self._den)

    @property
    def numerators(self) -> tuple[tuple, tuple]:
        """The (lo, hi) endpoint numerators over ``denominator``, as tuples
        of Python ints."""
        return self._lo, self._hi

    def rational_strs(self):
        """Yield every interval as a ``(lo, hi)`` pair of ``rational_str``
        text, in order.

        Each numerator is reduced against the shared denominator with
        ``np.gcd``, no ``Fraction`` is built.  Blocks of ``_TEXT_BLOCK``
        intervals go through int64 arrays while the denominator and every
        numerator lie below 2^62, and through object arrays of Python ints
        otherwise.
        """
        if not self._lo:
            return
        den = self._den
        big = max(den, abs(self._lo[0]), abs(self._hi[-1])) >= _INT64_SAFE
        dtype = object if big else np.int64
        for i in range(0, len(self._lo), _TEXT_BLOCK):
            j = i + _TEXT_BLOCK
            yield from zip(_reduced_strs(np.array(self._lo[i:j], dtype=dtype), den),
                           _reduced_strs(np.array(self._hi[i:j], dtype=dtype), den))

    def min_length(self) -> Fraction:
        """Length of the shortest stored interval; raises on empty sets."""
        if not self._lo:
            raise ValueError("empty interval set has no minimum length")
        return Fraction(min(b - a for a, b in zip(self._lo, self._hi)), self._den)

    # -- operations --------------------------------------------------------

    def expand(self, r: RationalLike) -> "IntervalSet":
        """Closed r-neighborhood within the line: each [a, b] -> [a-r, b+r]."""
        r = to_fraction(r)
        if r <= 0:
            raise ValueError(f"expansion radius must be positive, got {r}")
        den = math.lcm(self._den, r.denominator)
        s = den // self._den
        rs = r.numerator * (den // r.denominator)
        pairs = [(a * s - rs, b * s + rs) for a, b in zip(self._lo, self._hi)]
        lo, hi = _merge_scaled(pairs)
        return IntervalSet._reduced(den, lo, hi)

    def issuperset(self, other: "IntervalSet") -> bool:
        """True when every interval of ``other`` lies inside one of ``self``."""
        if other.count == 0:
            return True
        if self.count == 0:
            return False
        den = math.lcm(self._den, other._den)
        sa = den // self._den
        sb = den // other._den
        my = [(a * sa, b * sa) for a, b in zip(self._lo, self._hi)]
        i = 0
        for a, b in zip(other._lo, other._hi):
            a *= sb
            b *= sb
            while i < len(my) and my[i][1] < a:
                i += 1
            if i == len(my) or not (my[i][0] <= a and b <= my[i][1]):
                return False
        return True

    # -- dunder ------------------------------------------------------------

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self._lo)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (self._den, self._lo, self._hi) == (other._den, other._lo, other._hi)

    def __hash__(self) -> int:
        return hash((self._den, self._lo, self._hi))

    def __repr__(self) -> str:
        if not self._lo:
            return "IntervalSet(empty)"
        parts = ", ".join(f"[{a}, {b}]" for a, b in self.rational_strs())
        return f"IntervalSet({parts})"


class FloatIntervalSet:
    """Float-backend interval set: binary64 endpoints, epsilon gap merging."""

    __slots__ = ("_lo", "_hi", "_eps")
    backend = "float"

    def __init__(self, lo: np.ndarray, hi: np.ndarray, merge_eps: float):
        self._lo = lo
        self._hi = hi
        self._eps = merge_eps

    @classmethod
    def _trusted(cls, lo: np.ndarray, hi: np.ndarray, merge_eps: float) -> "FloatIntervalSet":
        lo.setflags(write=False)
        hi.setflags(write=False)
        return cls(lo, hi, merge_eps)

    @classmethod
    def from_intervals(cls, items: Iterable, merge_eps: float = MERGE_EPSILON) -> "FloatIntervalSet":
        los = []
        his = []
        for item in items:
            if isinstance(item, Interval):
                a, b = float(item.lo), float(item.hi)
            else:
                a, b = float(item[0]), float(item[1])
            if not (math.isfinite(a) and math.isfinite(b)):
                raise MalformedIntervalError(f"non-finite interval [{a}, {b}]")
            if a > b:
                raise MalformedIntervalError(f"interval with lo > hi: [{a}, {b}]")
            los.append(a)
            his.append(b)
        lo, hi = merge_float_arrays(np.asarray(los, dtype=np.float64),
                                    np.asarray(his, dtype=np.float64), merge_eps)
        return cls._trusted(lo, hi, merge_eps)

    @property
    def count(self) -> int:
        return int(self._lo.size)

    @property
    def measure(self) -> float:
        return float(np.sum(self._hi - self._lo))

    @property
    def merge_eps(self) -> float:
        return self._eps

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(Interval(float(a), float(b)) for a, b in zip(self._lo, self._hi))

    @property
    def bounds(self):
        if self._lo.size == 0:
            return None
        return float(self._lo[0]), float(self._hi[-1])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lo, self._hi

    def min_length(self) -> float:
        if self._lo.size == 0:
            raise ValueError("empty interval set has no minimum length")
        return float(np.min(self._hi - self._lo))

    def expand(self, r: float) -> "FloatIntervalSet":
        r = float(r)
        if r <= 0:
            raise ValueError(f"expansion radius must be positive, got {r}")
        lo, hi = merge_float_arrays(self._lo - r, self._hi + r, self._eps)
        return FloatIntervalSet._trusted(lo, hi, self._eps)

    def issuperset(self, other: "FloatIntervalSet", slack: float = 0.0) -> bool:
        i = 0
        my_lo, my_hi = self._lo, self._hi
        for a, b in zip(other._lo, other._hi):
            while i < my_lo.size and my_hi[i] < a - slack:
                i += 1
            if i == my_lo.size or not (my_lo[i] <= a + slack and b <= my_hi[i] + slack):
                return False
        return True

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return int(self._lo.size)

    def __repr__(self) -> str:
        if self._lo.size == 0:
            return "FloatIntervalSet(empty)"
        parts = ", ".join(f"[{a!r}, {b!r}]" for a, b in zip(self._lo, self._hi))
        return f"FloatIntervalSet({parts})"
