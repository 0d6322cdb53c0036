"""Buffon-needle Monte Carlo estimate of Favard length.

Independent oracle for the quadrature pipeline: random lines are thrown at
the generation-n squares and hits are counted geometrically, with no use of
the interval machinery.  A line is parameterized by its normal angle theta
and signed offset c from the base center; it hits an axis-aligned square
exactly when c falls inside the projection of the square onto the normal,
an interval around the square's center projection of half-length
h*(|cos theta| + |sin theta|) (the min/max of the four corner projections).

With theta uniform on [0, 2*pi) and c uniform on [-W, W],

    Fav = integral of projected length over the full turn
        = 2*pi * 2*W * P(hit),

provided W covers the circumradius of the base about its center.

Lines descend the cylinder tree instead of meeting every square.  Leaves
are enumerated word by word, first map most significant, so the parent of
node i is node i // m for m maps.  The maps share one ratio rho and do
not rotate, so leaf i, with base-m digits i_0 .. i_(n-1), is the square of
half-side half = rho^n*side/2 centred at c0 + sum_k rho^k*t[i_k], c0 the
centre of rho^n times the base (taken relative to the base centre).  Each
node has the bounding box of the leaf squares below it (not its own
cylinder image, so pruning stays safe when children overlap or stick out
of their parent).  Every level-k node is a translate of node 0: all
level-k boxes have the same half-extents (hx_k, hy_k), and child j's
centre sits at the same offset (dx_k[j], dy_k[j]) from its parent's.
Node 0 of level k fixes its first k digits to 0, so its box and its
children's end at sums of each free level's least or largest term.  Each
end, and each leaf centre the margin below needs, is an exact integer
numerator over one denominator rounded by Python's correctly rounded
int / int; rounding is monotone, so the float ends are the min and max of
the rounded leaf centres.  Each surviving (line, node) pair
carries the line's signed offset d = cos*X + sin*Y - c from its node's box
centre (X, Y); a level forms d + cos*dx_k[j] + sin*dy_k[j] for all m
children at once and keeps the children with |d| <= hx_k*|cos| +
hy_k*|sin| + pad.  At the leaves a pair with |d| <= r - pad is a hit and
one with |d| > r + pad a miss (r = half*(|cos| + |sin|) as carried); only
the pairs in between take the all-squares predicate, on the same floats
with the same operations in the same order.  The hit count is therefore
identical to testing every line against all m^n squares:

Let u = 2^-53, A = max|cx|, B = max|cy| and S = W + A + B + 2*half, which
bounds every magnitude below (|cos|, |sin| <= 1, |c| <= W, box centres
lie within the leaf centres' range, offsets within twice it); the pad is
2^-44*S = 512u*S.  Each side of the all-squares predicate is at most three
rounded operations on terms summing to at most S, so a float leaf hit is
an exact hit, of the square at the exact centre, up to 9u*S.  The float
box centres and half-extents are within 2u*(A + B) and 3u*S of exact, so
an offset is within 6u*(A + B).  A level adds to d two rounded products
and two rounded sums, at most 6u*S, and the offsets it adds carry at most
6u*S more, so the carried d of a depth-k pair is within (8 + 12k)u*S of
the exact offset of the exact box, and the radius is within 5u*S.  A
float leaf hit therefore passes every depth-k node test once the pad
exceeds (22 + 12k)u*S, and a leaf pair outside the band [r - pad, r + pad]
gets the predicate's answer once it exceeds (17 + 12n)u*S.  Descents are
at most 16 levels deep (MAX_SQUARES = 2^16 leaves and m >= 2), so both
bounds stay under 214u*S, less than half the pad.

Trials are split into fixed-size batches; each batch runs its own
counter-based Philox stream keyed by (seed, batch index), so results are
bit-reproducible for a given seed and trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreconditionError
from .ifs import IFS2D

BATCH_SIZE = 1 << 17
MAX_SQUARES = 65_536


def circumradius(ifs: IFS2D) -> float:
    """Half-diagonal of the base rectangle about its center."""
    x0, y0, x1, y1 = ifs.base
    return math.hypot(float(x1 - x0), float(y1 - y0)) / 2.0


@dataclass(frozen=True)
class NeedleConfig:
    trials: int
    seed: int
    generation: int
    strip_halfwidth: Optional[float] = None     # None: circumradius of base

    def __post_init__(self):
        if self.trials < 1:
            raise PreconditionError("need at least one trial")
        if self.generation < 0:
            raise PreconditionError("generation must be >= 0")
        if not 0 <= self.seed < 2 ** 64:
            raise PreconditionError("seed must fit in 64 bits")
        # the estimate scales by the strip's span 4*pi*W, which must be finite
        w = self.strip_halfwidth
        if w is not None and not (w > 0 and math.isfinite(4.0 * math.pi * w)):
            raise PreconditionError(
                f"strip halfwidth must be positive with a finite span, "
                f"got {w}")


@dataclass(frozen=True)
class NeedleEstimate:
    estimate: float
    standard_error: float
    hits: int
    trials: int
    seed: int
    generation: int
    strip_halfwidth: float
    tests: int          # (line, node) predicate evaluations, inner and leaf


def _cylinder_tree(ifs: IFS2D, n: int, w: float):
    """Per level k = 0..n the offsets (dx, dy) of the level-k node centres
    from their parent's centre, one per child, and the half-extents
    (hx, hy) of a level-k node's box; the rounding pad; and ``centres``,
    which maps leaf indices to their centres (cx, cy).  The root's one
    offset is its own centre.  See the module docstring."""
    x0, y0, x1, y1 = ifs.base
    if x1 - x0 != y1 - y0:
        raise PreconditionError("needle sampling expects a square base")
    side = x1 - x0
    ratios = {mp.ratio for mp in ifs.maps}
    if len(ratios) != 1:
        raise PreconditionError("needle sampling expects equal ratios")
    (rho,) = ratios
    m = len(ifs.maps)
    if m ** n > MAX_SQUARES:
        raise PreconditionError(
            f"{m ** n} generation squares exceed the enumeration limit "
            f"{MAX_SQUARES}")
    half = rho ** n * side / 2

    def axis(a):
        """Per level (offsets, half-extent) along axis a, the largest
        |centre| and the leaf centres."""
        low = ifs.base[a]
        c0 = rho ** n * low + half - (low + side / 2)
        terms = [[rho ** k * mp.translation[a] for mp in ifs.maps]
                 for k in range(n)]
        den = math.lcm(c0.denominator,
                       *(f.denominator for row in terms for f in row))
        c0 = int(c0 * den)
        terms = np.array([[int(f * den) for f in row] for row in terms],
                         dtype=object).reshape(n, m)
        # sums of the least and of the largest terms of levels k..n-1
        least, most = (np.append(np.cumsum(t[::-1])[::-1], 0)
                       for t in (terms.min(1), terms.max(1)))
        levels, head, parent = [], c0, 0.0
        for k in range(n + 1):
            row = terms[k - 1] if k else np.zeros(1, dtype=object)
            lo = ((head + row + least[k]) / den).astype(float)
            hi = ((head + row + most[k]) / den).astype(float)
            mid = (lo + hi) / 2
            levels.append((mid - parent, (hi[0] - lo[0]) / 2 + float(half)))
            if k == 0:
                extent = max(-lo[0], hi[0])
            head, parent = head + row[0], mid[0]

        def centres(leaf):
            nums = np.full(len(leaf), c0, dtype=object)
            for k in range(n):
                nums += terms[k, leaf // m ** (n - 1 - k) % m]
            return (nums / den).astype(float)
        return levels, extent, centres

    (lx, ax, cx), (ly, ay, cy) = axis(0), axis(1)
    pad = math.ldexp(w + ax + ay + 2.0 * float(half), -44)
    levels = [(dx, dy, hx, hy) for (dx, hx), (dy, hy) in zip(lx, ly)]
    return levels, pad, lambda leaf: (cx(leaf), cy(leaf))


# Half-width of the leaf band, in pads, inside which a leaf pair is decided
# by the all-squares predicate; the tests widen it to send every leaf pair
# there.
_LEAF_BAND = 1.0


def estimate_favard_mc(ifs: IFS2D, cfg: NeedleConfig) -> NeedleEstimate:
    """Monte Carlo Favard estimate with its binomial standard error."""
    rad = circumradius(ifs)
    w = cfg.strip_halfwidth if cfg.strip_halfwidth is not None else rad
    if w < rad * (1 - 1e-12):
        raise PreconditionError(
            f"strip halfwidth {w} misses lines through the base "
            f"(circumradius {rad})")
    n = cfg.generation
    levels, pad, centres = _cylinder_tree(ifs, n, w)
    band = pad * _LEAF_BAND
    hits = 0
    tests = 0
    done = 0
    batch_index = 0
    while done < cfg.trials:
        take = min(BATCH_SIZE, cfg.trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, batch_index],
                                          dtype=np.uint64)))
        theta = rng.uniform(0.0, 2.0 * math.pi, take)
        c = rng.uniform(-w, w, take)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        abs_cos, abs_sin = np.abs(cos_t), np.abs(sin_t)
        # surviving (line, node) pairs; d is the signed offset of the line
        # from the node's box centre
        line = np.arange(take)
        node = np.zeros(take, dtype=np.intp)
        d = -c
        for k, (dx, dy, hx, hy) in enumerate(levels):
            # every child of every pair at once, shape (children, pairs), so
            # numpy's inner loops run over the pairs, not the few children
            dist = np.multiply.outer(dy, sin_t[line])
            dist += d
            d = np.multiply.outer(dx, cos_t[line])
            d += dist
            np.abs(d, out=dist)
            tests += d.size
            reach = hx * abs_cos[line]
            reach += hy * abs_sin[line]
            if k == n:
                break
            reach += pad
            keep = np.flatnonzero(dist <= reach)
            # free each temporary before the next level allocates: the
            # peak memory of a deep descent is one level's worth
            del dist
            child, pair = np.divmod(keep, d.shape[1])
            d = d.ravel()[keep]
            line = line[pair]
            node = node[pair] * len(dx) + child
            del keep, child, pair
        hit = np.zeros(take, dtype=bool)
        sure = dist <= reach - band
        hit[line[sure.any(axis=0)]] = True
        # pairs too near the leaf boundary for the carried offset take the
        # all-squares predicate: same floats, same operations and order
        # (a leaf's half-extent hx is the half-side)
        near = np.less_equal(dist, reach + band)
        near ^= sure
        child, pair = np.divmod(np.flatnonzero(near), dist.shape[1])
        near_line = line[pair]
        cx, cy = centres(node[pair] * dist.shape[0] + child)
        inside = (np.abs(cos_t[near_line] * cx + sin_t[near_line] * cy
                         - c[near_line])
                  <= hx * (abs_cos[near_line] + abs_sin[near_line]))
        hit[near_line[inside]] = True
        hits += int(np.count_nonzero(hit))
        done += take
        batch_index += 1
    p_hat = hits / cfg.trials
    span = 2.0 * math.pi * 2.0 * w
    estimate = span * p_hat
    se = span * math.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    return NeedleEstimate(estimate, se, hits, cfg.trials, cfg.seed,
                          cfg.generation, w, tests)
