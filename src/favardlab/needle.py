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
node i is node i // m for m maps.  Each inner node carries the bounding box
of the leaf squares below it (not its own cylinder image, so pruning stays
safe when children overlap or stick out of their parent).  A line tests a
node's children only if it meets the node's box widened by a pad that
covers float rounding (see ``_node_boxes``).  Every leaf square lies in the
box of each of its ancestors, so a line that passes the leaf predicate
reaches that leaf, and the leaf predicate is the all-squares one with the
same float operations on the same floats.  The hit count is therefore
identical to testing every line against all m^n squares.

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


def _generation_squares(ifs: IFS2D, n: int):
    """Centers (relative to the base center) and half-side of every
    generation-n square, by direct composition of the maps.

    Each center is an exact rational; all of them are built as integer
    numerators over one common denominator and converted by Python's
    correctly rounded int / int, which is what float(Fraction) does."""
    x0, y0, x1, y1 = ifs.base
    if x1 - x0 != y1 - y0:
        raise PreconditionError("needle sampling expects a square base")
    side = x1 - x0
    ratios = [m.ratio for m in ifs.maps]
    if len(set(ratios)) != 1:
        raise PreconditionError("needle sampling expects equal ratios")
    rho = ratios[0]
    count = len(ifs.maps) ** n
    if count > MAX_SQUARES:
        raise PreconditionError(
            f"{count} generation squares exceed the enumeration limit "
            f"{MAX_SQUARES}")
    scale = rho ** n
    half = scale * side / 2

    def centers(axis):
        # cylinder image of the base is origin + scale*[lo, lo+side]^2 with
        # origin = sum_k rho^k * t(word_k), so its center sits at
        # origin + scale*lo + half, taken relative to the base center
        lo = ifs.base[axis]
        offset = scale * lo + half - (lo + side / 2)
        levels = [[rho ** k * mp.translation[axis] for mp in ifs.maps]
                  for k in range(n)]
        den = math.lcm(offset.denominator,
                       *(f.denominator for level in levels for f in level))
        nums = [int(offset * den)]
        for level in levels:
            step = [int(f * den) for f in level]
            nums = [a + b for a in nums for b in step]
        return np.array([a / den for a in nums])

    return centers(0), centers(1), float(half)


def _node_boxes(cx, cy, half, m: int, n: int, w: float):
    """Per inner level k < n: float center and half-extents of the box that
    bounds the leaf squares under each node, plus the rounding pad.

    Pad: let S bound every magnitude in both predicates,
    S = W + max|cx| + max|cy| + 2*half (|cos|, |sin| <= 1, |c| <= W).  Each
    side of the leaf predicate is at most three rounded operations on terms
    summing to at most S, so it is within about 4u*S of its exact value
    (u = 2^-53); a float leaf hit is an exact hit up to 8u*S.  The box center
    (lo+hi)/2 and half-extent (hi-lo)/2 + half carry at most 2u*S of error,
    and the node test adds about 6u*S on each side.  Every leaf square lies
    inside its ancestors' exact boxes, so a float leaf hit passes every
    ancestor's float node test once the pad exceeds ~25u*S; the pad is
    2^-44*S = 512u*S."""
    pad = math.ldexp(w + np.abs(cx).max() + np.abs(cy).max()
                     + 2.0 * half, -44)
    boxes = []
    for k in range(n):
        shape = (m ** k, m ** (n - k))
        lo_x, hi_x = cx.reshape(shape).min(1), cx.reshape(shape).max(1)
        lo_y, hi_y = cy.reshape(shape).min(1), cy.reshape(shape).max(1)
        boxes.append(((lo_x + hi_x) / 2, (lo_y + hi_y) / 2,
                      (hi_x - lo_x) / 2 + half, (hi_y - lo_y) / 2 + half))
    return boxes, pad


def estimate_favard_mc(ifs: IFS2D, cfg: NeedleConfig) -> NeedleEstimate:
    """Monte Carlo Favard estimate with its binomial standard error."""
    rad = circumradius(ifs)
    w = cfg.strip_halfwidth if cfg.strip_halfwidth is not None else rad
    if w < rad * (1 - 1e-12):
        raise PreconditionError(
            f"strip halfwidth {w} misses lines through the base "
            f"(circumradius {rad})")
    cx, cy, half = _generation_squares(ifs, cfg.generation)
    m = len(ifs.maps)
    boxes, pad = _node_boxes(cx, cy, half, m, cfg.generation, w)
    children = np.arange(m)
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
        reach = half * (abs_cos + abs_sin)
        # active (line, node) pairs, starting from the root
        line = np.arange(take)
        node = np.zeros(take, dtype=np.intp)
        for bx, by, hx, hy in boxes:
            tests += line.size
            keep = (np.abs(cos_t[line] * bx[node] + sin_t[line] * by[node]
                           - c[line])
                    <= hx[node] * abs_cos[line] + hy[node] * abs_sin[line]
                    + pad)
            line = np.repeat(line[keep], m)
            node = (node[keep, None] * m + children).ravel()
        tests += line.size
        # the all-squares predicate: same floats, same operations and order
        inside = (np.abs(cos_t[line] * cx[node] + sin_t[line] * cy[node]
                         - c[line])
                  <= reach[line])
        hit = np.zeros(take, dtype=bool)
        hit[line[inside]] = True
        hits += int(np.count_nonzero(hit))
        done += take
        batch_index += 1
    p_hat = hits / cfg.trials
    span = 2.0 * math.pi * 2.0 * w
    estimate = span * p_hat
    se = span * math.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    return NeedleEstimate(estimate, se, hits, cfg.trials, cfg.seed,
                          cfg.generation, w, tests)
