"""Exact 1D interval-set geometry with a rational and a float backend.

Endpoints of an exact set are integer numerators over one shared positive
denominator, so sorting and merging never touch rational arithmetic; the
public surface speaks ``fractions.Fraction``.  The numerators live in the
arrays the generation engine steps: int64 while the denominator and every
numerator lie below 2^62, ``dtype=object`` arrays of Python ints past that
(``_exact_dtype``).  A canonical set is sorted, disjoint with positive gaps
(touching closed intervals merge) and free of degenerate ``[a, a]``
entries, except point sets from :meth:`IntervalSet.from_points`, which
``expand`` grows into neighborhoods.

Every merge shares one sort and sweep (``_sweep``) under one rule
(``_apart``): a merged interval starts where a left end lies past the
largest right end before it.  The left ends and the right ends are sorted
apart: where the (i+1)-th smallest left end starts an interval, the i
intervals before it are also the i with the smallest right ends, so the
largest right end before it is the i-th smallest: no gather and no
running maximum.
The sweep sorts the ends in place and marks the starts.
``merge_int64_arrays`` (integers of either dtype, no tolerance: every
exact set built from unsorted intervals or grown by ``expand``) and
``merge_float_arrays`` (binary64 rows of :class:`FloatIntervalSet` and the
float walk, gaps glued up to an absolute tolerance) sweep copies
(``_swept``).  Both keep every merged interval, a degenerate [x, x]
included; only the set constructors, ``_merge_scaled`` and
``FloatIntervalSet.from_intervals``, drop those.  One row gathers its
merged ends; several rows are laid out padded by a second sort of each
row (``_padded``), with every end that bounds no merged interval replaced
by the row's last right end.  Rows that nothing steps again, the float
walk's deepest generation, are swept in place and read off the sorted
ends and the start mask with no layout (``_swept_in_place``).  The
generation engine sweeps its windows in its own scratch arrays and reads
their overlap loss, the sum of max(0, H[i-1] - L[i]), off the sorted ends
(``_overlap_loss``).
Summation order is fixed (ascending lo), so repeated runs are bit-identical.

Every text of an exact set, the interval CSV rows (``csv_text``), the
``rational_strs`` pairs and ``repr``, comes from one builder
(``IntervalSet._text``), a block of ``_TEXT_BLOCK`` intervals at a time,
with no ``Fraction`` and no Python format per endpoint on the int64 path:
numpy reduces the numerators against the shared denominator, writes their
decimal digits one at a time into a byte matrix with the fixed text in
fixed rows, and one compaction drops the unused bytes.  Object numerators,
at or past 2^62, are reduced the same way and written by Python's int
formatting.
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

# Largest magnitude allowed in int64 numerator arrays: half the int64 range,
# so the sum or difference of two numerators cannot overflow.
_INT64_SAFE = 1 << 62


def _exact_dtype(*magnitudes: int):
    """The dtype of exact numerator arrays: int64 when every magnitude
    (the denominator, and a bound on every endpoint) lies below 2^62,
    ``dtype=object`` for Python ints otherwise."""
    return np.int64 if max(magnitudes) < _INT64_SAFE else object


def _over_lcd(values: list) -> tuple[int, np.ndarray]:
    """The least common denominator of Fractions and their numerators over
    it, in the dtype ``_exact_dtype`` picks for them."""
    den = math.lcm(*(x.denominator for x in values))
    num = [x.numerator * (den // x.denominator) for x in values]
    dtype = _exact_dtype(den, max(map(abs, num), default=0))
    return den, np.array(num, dtype=dtype)


def _extreme(lo: np.ndarray, hi: np.ndarray) -> int:
    """Largest |numerator| of sorted canonical endpoint arrays, 0 when empty."""
    return max(abs(int(lo[0])), abs(int(hi[-1]))) if lo.size else 0


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


# Intervals per block of ``IntervalSet._text``: bounds the numpy temporaries
# and the text of a block, whatever the size of the set.
# A block of 1024 int64 intervals with 10-digit numerators and denominators
# peaks at 0.27 MB of allocations (tracemalloc), text included; with
# 19-digit ones at 0.39 MB.
_TEXT_BLOCK = 1024


def _text_matrix(p: np.ndarray, q: np.ndarray, prefix: str, sep: str,
                 end: str) -> np.ndarray:
    """The text rows of reduced int64 fractions p/q, given as (2, k) arrays
    of the lo and the hi ends with q = 0 for a p written alone, as a uint8
    matrix with one row of text per column, NUL for every byte not written.

    The prefix and the separators fill fixed rows.  The digits of |p| and
    of q, computed one a step, lie right-aligned in rows as many as the
    block's widest number has digits, after a row for '-' before p and one
    for '/' before q; a leading zero, a '-' of p >= 0 and the "/q" of
    q = 0 are not written.
    """
    x = np.concatenate((np.abs(p), q))    # |lo|, |hi|, lo's q, hi's q
    widths = [len(str(v)) for v in x.max(axis=1).tolist()]
    size = max(widths)
    digits = np.empty((size, *x.shape), np.uint8)
    written = np.empty(digits.shape, bool)
    for i in range(size - 1, -1, -1):
        np.greater(x, 0, out=written[i])
        y = x // 10
        digits[i] = x - 10 * y
        x = y
    written[-1, :2] = True                # p = 0 reads "0"
    digits += ord("0")
    digits *= written
    lo_p, hi_p, lo_q, hi_q = (digits[size - w:, i] for i, w in enumerate(widths))
    signs = np.where(p < 0, ord("-"), 0)
    slashes = np.where(q > 0, ord("/"), 0)
    pieces = (_text_column(prefix), signs[:1], lo_p, slashes[:1], lo_q, _text_column(sep),
              signs[1:], hi_p, slashes[1:], hi_q, _text_column(end))
    rows = np.empty((sum(map(len, pieces)), p.shape[1]), np.uint8)
    at = 0
    for piece in pieces:
        rows[at:at + len(piece)] = piece
        at += len(piece)
    return rows


def _text_column(text: str) -> np.ndarray:
    """The UTF-8 bytes of ``text`` as a column, the same in every row."""
    return np.frombuffer(text.encode(), np.uint8)[:, None]


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


def _apart(lo: np.ndarray, run: np.ndarray, eps=None, out=None) -> np.ndarray:
    """The merge rule: True where a left end lo lies past run, the largest
    right end before it, by more than eps (None for integers: no add)."""
    return np.greater(lo, run if eps is None else run + eps, out=out)


def _sweep(lo: np.ndarray, hi: np.ndarray, starts: np.ndarray, eps=None) -> None:
    """Sort each row (the last axis) of 1D or 2D endpoint arrays in place
    and mark the starts of its merged intervals in ``starts``, a bool
    array shaped like lo.

    The left ends L and the right ends H are sorted apart, each by a stable
    sort, and a merged interval starts at index i wherever
    ``_apart(L[i], H[i-1], eps)`` holds and ends at H[i-1].  That is the
    running-maximum rule: where either start test holds (eps >= 0), the i
    intervals with the smallest left ends are the i with the smallest
    right ends, so H[i-1] is the largest right end before L[i]."""
    lo.sort(kind="stable")
    hi.sort(kind="stable")
    starts[..., 0] = True
    _apart(lo[..., 1:], hi[..., :-1], eps, out=starts[..., 1:])


def _swept(lo: np.ndarray, hi: np.ndarray, eps=None) -> tuple:
    """``_sweep`` on copies of non-empty lo and hi: the sorted copies and
    the masks of the starts and of the ends of their merged intervals."""
    lo, hi = lo.copy(), hi.copy()
    starts = np.empty(lo.shape, dtype=bool)
    _sweep(lo, hi, starts, eps)
    return lo, hi, starts, _ends(starts)


def _ends(starts: np.ndarray) -> np.ndarray:
    """The mask of the ends of the merged intervals whose starts ``starts``
    marks: a merged interval ends just before the next one starts."""
    ends = np.empty_like(starts)
    ends[..., :-1] = starts[..., 1:]
    ends[..., -1] = True
    return ends


def _merged(lo: np.ndarray, hi: np.ndarray, eps=None) -> tuple:
    """The merged lo and hi of all rows of ``_swept``, in row order, as 1D
    arrays, and the mask of the starts."""
    lo, hi, starts, ends = _swept(lo, hi, eps)
    return lo[starts], hi[ends], starts


def _overlap_loss(lo: np.ndarray, hi: np.ndarray, gaps: np.ndarray) -> int:
    """The summed lengths minus the length of the union of the integer
    intervals whose ends ``_sweep`` sorted into lo and hi.

    That is the sum of max(0, H[i-1] - L[i]) over i >= 1: within a merged
    interval each later left end L[i] lies at or before H[i-1], and the
    lengths there overlap by H[i-1] - L[i], while a start adds 0.
    ``gaps`` is scratch of lo.size - 1 entries in the dtype of lo; object
    ends sum in Python ints.  An int64 term lies in [0, hull], hull =
    H[-1] - L[0] < 2^63, so chunks of (2^63 - 1) // hull terms sum without
    wrapping, and the chunk sums add in Python ints.
    """
    gaps = np.subtract(hi[:-1], lo[1:], out=gaps)
    np.maximum(gaps, 0, out=gaps)
    if gaps.dtype == object:
        return int(gaps.sum())
    chunk = ((1 << 63) - 1) // max(int(hi[-1]) - int(lo[0]), 1)
    return sum(int(gaps[i:i + chunk].sum()) for i in range(0, gaps.size, chunk))


def merge_int64_arrays(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge int64 or ``dtype=object`` endpoint arrays, which keep their
    dtype, by ``_sweep`` with no tolerance: touching ones merge."""
    if lo.size == 0:
        return lo, hi
    return _merged(lo, hi)[:2]


def merge_float_arrays(
    lo: np.ndarray, hi: np.ndarray, merge_eps: float = MERGE_EPSILON
) -> tuple[np.ndarray, np.ndarray]:
    """Merge float64 endpoints by ``_sweep``, one interval set per row.

    Gaps of at most merge_eps, which must be finite and >= 0, are glued.
    Every merged interval is kept, a degenerate one [x, x] included, as
    ``merge_int64_arrays`` keeps it.  1D arrays are one row and give 1D
    results.  2D results are padded to the longest row with degenerate
    copies [x, x] of the row's last right end x: they lie in the row's
    last interval, add nothing to its measure and merge away again.  One
    row gathers its merged ends; several rows are laid out by ``_padded``.
    Empty input gives empty rows, as many as there are rows and of width 0.
    """
    if not (math.isfinite(merge_eps) and merge_eps >= 0):
        raise ValueError(f"merge_eps must be finite and >= 0, got {merge_eps!r}")
    if lo.size == 0:
        return lo[..., :0], hi[..., :0]
    if lo.ndim == 2 and lo.shape[0] > 1:
        return _padded(*_swept(lo, hi, merge_eps))
    mlo, mhi, _ = _merged(lo, hi, merge_eps)
    return (mlo, mhi) if lo.ndim == 1 else (mlo[None], mhi[None])


def _swept_in_place(lo: np.ndarray, hi: np.ndarray, eps: float) -> np.ndarray:
    """``_sweep`` 2D float64 lo and hi in place, with no copy, at gap
    tolerance eps, and return the mask of the starts.

    The merged rows of ``merge_float_arrays`` then lie at the starts and
    the ends (``_ends``) of the sorted rows, for a caller that reads only
    measures and chains off the sorted ends.
    """
    starts = np.empty(lo.shape, dtype=bool)
    _sweep(lo, hi, starts, eps)
    return starts


def _padded(lo: np.ndarray, hi: np.ndarray, starts: np.ndarray,
            ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The merged rows of 2D lo and hi swept by ``_swept``, with the masks
    of their starts and ends, padded as ``merge_float_arrays`` gives them.

    Every left end that starts no merged interval and every right end that
    ends none is replaced by the pad, the row's last right end x, and a
    second sort of each row puts the merged ends first, in order: the
    merged left ends increase strictly and each lies at or below its right
    end, so below x or at x; the merged right ends increase strictly, up to
    x itself.  The ties are copies of x, so the sort need not be stable.
    The longest row sets the width.
    """
    pad = hi[:, -1:]
    out_lo = np.where(starts, lo, pad)
    out_hi = np.where(ends, hi, pad)
    out_lo.sort()
    out_hi.sort()
    width = int(np.count_nonzero(starts, axis=1).max())
    return out_lo[:, :width], out_hi[:, :width]


class IntervalSet:
    """Canonical union of disjoint closed intervals with rational endpoints.

    Immutable.  The endpoints are integer numerators over one shared
    denominator, reduced to lowest terms so equal sets compare equal
    structurally.  They are held in read-only numpy arrays, the engine's
    own: int64 when the denominator and every numerator lie below 2^62,
    ``dtype=object`` arrays of Python ints otherwise (``_exact_dtype``).
    Every merge is the integer ``_sweep`` of ``merge_int64_arrays``.
    """

    __slots__ = ("_den", "_lo", "_hi")

    def __init__(self, den: int, lo: np.ndarray, hi: np.ndarray):
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
        ends = []
        for item in items:
            if isinstance(item, Interval):
                a, b = item.lo, item.hi
            else:
                a, b = item
            a = to_fraction(a)
            b = to_fraction(b)
            if a > b:
                raise MalformedIntervalError(f"interval with lo > hi: [{a}, {b}]")
            ends += (a, b)
        den, num = _over_lcd(ends)
        return _merge_scaled(den, num[0::2], num[1::2])

    @classmethod
    def from_points(cls, points: Iterable[RationalLike]) -> "IntervalSet":
        """Store a finite point set as degenerate intervals (sorted, unique).

        Measure is zero; the intended use is ``expand`` into a neighborhood.
        """
        den, num = _over_lcd([to_fraction(p) for p in points])
        return cls.from_scaled(den, *merge_int64_arrays(num, num))

    @classmethod
    def from_scaled(cls, den: int, lo, hi) -> "IntervalSet":
        """Build from canonical integer endpoints over denominator ``den``.

        The input is trusted: sorted, merged and free of degenerate
        intervals, as the generation engine produces them, in int64 or
        object arrays, which are taken as they are, or in lists of Python
        ints.  The set is reduced to lowest terms and stored in the dtype
        ``_exact_dtype`` picks for it.
        """
        if den <= 0:
            raise MalformedIntervalError("denominator must be positive")
        if not isinstance(lo, np.ndarray):
            lo, hi = np.array(lo, dtype=object), np.array(hi, dtype=object)
        g = math.gcd(den, int(np.gcd.reduce(lo)))
        if g > 1:
            g = math.gcd(g, int(np.gcd.reduce(hi)))
        if g > 1:
            den //= g
            lo, hi = lo // g, hi // g
        dtype = _exact_dtype(den, _extreme(lo, hi))
        lo, hi = (a.astype(dtype, copy=False).view() for a in (lo, hi))
        lo.setflags(write=False)
        hi.setflags(write=False)
        return cls(den, lo, hi)

    # -- inspection --------------------------------------------------------

    @property
    def count(self) -> int:
        return self._lo.size

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def measure(self) -> Fraction:
        """Exact total length."""
        return Fraction(int(np.subtract(self._hi, self._lo).sum()), self._den)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        d = self._den
        return tuple(Interval(Fraction(a, d), Fraction(b, d))
                     for a, b in zip(*self.numerators))

    @property
    def bounds(self):
        """(min lo, max hi) as Fractions, or None when empty."""
        if not self._lo.size:
            return None
        return Fraction(int(self._lo[0]), self._den), Fraction(int(self._hi[-1]), self._den)

    @property
    def numerators(self) -> tuple[tuple, tuple]:
        """The (lo, hi) endpoint numerators over ``denominator``, as tuples
        of Python ints."""
        return tuple(self._lo.tolist()), tuple(self._hi.tolist())

    def rational_strs(self):
        """Yield every interval as a ``(lo, hi)`` pair of ``rational_str``
        text, in order: the text of ``_text``, a block at a time, split
        at its commas."""
        for block in self._text("", ",", ","):
            fields = iter(block.split(","))
            yield from zip(fields, fields)

    def csv_text(self, prefix: str = ""):
        """Yield the intervals as finished CSV text, ``prefix`` + "lo,hi"
        and CRLF per interval, one string per block of ``_TEXT_BLOCK``
        intervals, as ``_text`` builds them.

        With ``prefix`` the fields f1, ..., fk each followed by a comma,
        the text is that of ``csv.writer`` rows ``(f1, ..., fk, lo, hi)``
        of ``rational_strs`` text, as long as no field needs quoting.
        The generator builds a block only when it is asked for the block.
        """
        return self._text(prefix, ",", "\r\n")

    def _text(self, prefix: str, sep: str, end: str):
        """Yield the text ``prefix + lo + sep + hi + end`` of every
        interval, each end written as ``rational_str`` writes it, one
        string per block of ``_TEXT_BLOCK`` intervals.  No text piece holds
        a NUL.

        Each numerator v is reduced by gcd(v, den) =
        gcd(v mod m, m) * gcd(2^v2(v), 2^v2(den)), with m the odd part of
        the denominator, so that Euclid's steps run on numbers below m.
        Object numerators are then written by Python's int formatting,
        int64 ones by numpy into the byte matrix of ``_text_matrix``, whose
        NULs one compaction drops.
        """
        den, lo, hi = self._den, self._lo, self._hi
        two = den & -den
        odd = den // two
        for i in range(0, lo.size, _TEXT_BLOCK):
            num = np.stack((lo[i:i + _TEXT_BLOCK], hi[i:i + _TEXT_BLOCK]))
            g = np.gcd(num % odd, odd) * np.gcd(num & -num, two)
            p, q = num // g, den // g
            if num.dtype == object:
                ends = ([f"{a}/{b}" if b != 1 else f"{a}"
                         for a, b in zip(pn.tolist(), qn.tolist())]
                        for pn, qn in zip(p, q))
                yield "".join(f"{prefix}{a}{sep}{b}{end}" for a, b in zip(*ends))
            else:
                q[q == 1] = 0
                text = _text_matrix(p, q, prefix, sep, end).T.ravel()
                yield str(text[text != 0], "utf-8")

    def min_length(self) -> Fraction:
        """Length of the shortest stored interval; raises on empty sets."""
        if not self._lo.size:
            raise ValueError("empty interval set has no minimum length")
        return Fraction(int(np.subtract(self._hi, self._lo).min()), self._den)

    # -- operations --------------------------------------------------------

    def _over(self, den: int, pad: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The endpoint numerators over ``den``, a multiple of the set's
        denominator, in the dtype ``_exact_dtype`` picks for den and every
        magnitude plus ``pad``; the bound is checked before multiplying."""
        s = den // self._den
        dtype = _exact_dtype(den, _extreme(self._lo, self._hi) * s + pad)
        return (self._lo.astype(dtype, copy=False) * s,
                self._hi.astype(dtype, copy=False) * s)

    def expand(self, r: RationalLike) -> "IntervalSet":
        """Closed r-neighborhood within the line: each [a, b] -> [a-r, b+r]."""
        r = to_fraction(r)
        if r <= 0:
            raise ValueError(f"expansion radius must be positive, got {r}")
        den = math.lcm(self._den, r.denominator)
        rs = r.numerator * (den // r.denominator)
        lo, hi = self._over(den, rs)
        return _merge_scaled(den, lo - rs, hi + rs)

    def issuperset(self, other: "IntervalSet") -> bool:
        """True when every interval of ``other`` lies inside one of ``self``."""
        if other.count == 0:
            return True
        den = math.lcm(self._den, other._den)
        lo, hi = self._over(den)
        a, b = other._over(den)
        # the one interval of self that can hold [a, b]: the first one
        # ending at or after a
        i = np.searchsorted(hi, a)
        if i[-1] == hi.size:
            return False
        return bool(np.all(lo[i] <= a) and np.all(b <= hi[i]))

    # -- dunder ------------------------------------------------------------

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return self._lo.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (self._den == other._den and np.array_equal(self._lo, other._lo)
                and np.array_equal(self._hi, other._hi))

    def __hash__(self) -> int:
        return hash((self._den, *self.numerators))

    def __repr__(self) -> str:
        if not self._lo.size:
            return "IntervalSet(empty)"
        parts = "".join(self._text("[", ", ", "], "))
        return f"IntervalSet({parts[:-2]})"


def _merge_scaled(den: int, lo: np.ndarray, hi: np.ndarray) -> IntervalSet:
    """The canonical set of integer intervals [lo, hi] over ``den``, given
    in any order: merged by ``merge_int64_arrays``, with degenerate
    intervals dropped."""
    lo, hi = merge_int64_arrays(lo, hi)
    keep = hi > lo
    return IntervalSet.from_scaled(den, lo[keep], hi[keep])


class FloatIntervalSet:
    """Float-backend interval set: binary64 endpoints, epsilon gap merging."""

    __slots__ = ("_lo", "_hi", "_eps")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, merge_eps: float):
        # Trusted: merged arrays, made read-only here.
        lo.setflags(write=False)
        hi.setflags(write=False)
        self._lo = lo
        self._hi = hi
        self._eps = merge_eps

    @classmethod
    def from_intervals(cls, items: Iterable, merge_eps: float = MERGE_EPSILON) -> "FloatIntervalSet":
        """Normalize arbitrary float intervals, merged by
        ``merge_float_arrays`` with degenerate merged intervals dropped."""
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
        keep = hi > lo
        return cls(lo[keep], hi[keep], merge_eps)

    @property
    def count(self) -> int:
        return int(self._lo.size)

    @property
    def measure(self) -> float:
        return float(np.sum(self._hi - self._lo))

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
        return FloatIntervalSet(lo, hi, self._eps)

    def issuperset(self, other: "FloatIntervalSet", slack: float = 0.0) -> bool:
        i = 0
        my_lo, my_hi = self._lo, self._hi
        for a, b in zip(other._lo, other._hi):
            while i < my_lo.size and my_hi[i] < a - slack:
                i += 1
            if i == my_lo.size or not (my_lo[i] <= a + slack and b <= my_hi[i] + slack):
                return False
        return True
