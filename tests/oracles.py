"""Independent reference implementations used to check the package.

Everything here is deliberately naive and self-contained: plain Fraction
arithmetic, quadratic algorithms, no imports from the package under test.
The package must agree with these on small instances.  The CSV reference
reads interval sets through their ``intervals`` property only.  The needle
oracle uses numpy only to replay the same Philox line stream, the
merge reference (``reference_sweep``) for its stable argsort and running
maximum, and the float-step reference because float results depend on the
order of float operations.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from itertools import product

import numpy as np


def union_measure(pairs) -> Fraction:
    """Measure of a union of closed intervals by elementary segments.

    Collects all endpoints, cuts the line into elementary segments, and
    adds up each segment that is covered by some input interval (checked
    at the segment midpoint).
    """
    pairs = [(Fraction(a), Fraction(b)) for a, b in pairs if Fraction(a) < Fraction(b)]
    if not pairs:
        return Fraction(0)
    cuts = sorted({x for ab in pairs for x in ab})
    total = Fraction(0)
    for left, right in zip(cuts, cuts[1:]):
        mid = (left + right) / 2
        if any(a <= mid <= b for a, b in pairs):
            total += right - left
    return total


def union_components(pairs) -> list:
    """Connected components of a union of closed intervals (touching glues)."""
    pairs = sorted((Fraction(a), Fraction(b)) for a, b in pairs
                   if Fraction(a) < Fraction(b))
    out = []
    for a, b in pairs:
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def cylinder_generation(maps, base, n) -> list:
    """Generation n by brute-force enumeration of all map compositions.

    maps: list of (ratio, offset) Fractions acting as x -> ratio*x + offset;
    base: (lo, hi).  Returns the merged component list.  Exponential in n.
    """
    lo, hi = Fraction(base[0]), Fraction(base[1])
    pieces = []
    for word in product(range(len(maps)), repeat=n):
        a, b = lo, hi
        for idx in reversed(word):
            r, c = maps[idx]
            a, b = r * a + c, r * b + c
        pieces.append((a, b))
    return union_components(pieces)


def project_point(chart, slope, x, y) -> Fraction:
    if chart == "x":
        return Fraction(x) + Fraction(slope) * Fraction(y)
    return Fraction(y) + Fraction(slope) * Fraction(x)


def project_square_ifs(maps2d, base2d, chart, slope):
    """Project planar homotheties (ratio, (dx, dy)) through a chart."""
    x0, y0, x1, y1 = (Fraction(v) for v in base2d)
    corners = [project_point(chart, slope, x, y)
               for x in (x0, x1) for y in (y0, y1)]
    maps1d = [(Fraction(r), project_point(chart, slope, dx, dy))
              for r, (dx, dy) in maps2d]
    return maps1d, (min(corners), max(corners))


def neighborhood_measure(points, radius) -> Fraction:
    """Exact measure of the union of [p - r, p + r]."""
    r = Fraction(radius)
    return union_measure([(Fraction(p) - r, Fraction(p) + r) for p in points])


def second_difference_margins(values) -> list:
    """(k, v[k-1] + v[k+1] - 2*v[k]) for interior k, exact."""
    vals = [Fraction(v) for v in values]
    return [(k, vals[k - 1] + vals[k + 1] - 2 * vals[k])
            for k in range(1, len(vals) - 1)]


def expand_components(pairs, radius) -> list:
    """Components of the union after growing every interval by radius."""
    r = Fraction(radius)
    grown = [(Fraction(a) - r, Fraction(b) + r) for a, b in pairs]
    return union_components(grown)


def needle_squares_bruteforce(maps2d, base2d, n):
    """Centers (relative to the base center, as floats of exact Fractions)
    and half-side of every generation-n square of planar homotheties
    (ratio, (dx, dy)) with one common ratio, enumerated word by word with
    the first map most significant."""
    x0, y0, x1, y1 = (Fraction(v) for v in base2d)
    side = x1 - x0
    rho = Fraction(maps2d[0][0])
    origins = [(Fraction(0), Fraction(0))]
    scale = Fraction(1)
    for _ in range(n):
        origins = [(ox + scale * Fraction(dx), oy + scale * Fraction(dy))
                   for ox, oy in origins for _, (dx, dy) in maps2d]
        scale *= rho
    half = scale * side / 2
    cx0, cy0 = x0 + side / 2, y0 + side / 2
    cx = np.array([float(ox + scale * x0 + half - cx0) for ox, _ in origins])
    cy = np.array([float(oy + scale * y0 + half - cy0) for _, oy in origins])
    return cx, cy, float(half)


def needle_hits_bruteforce(maps2d, base2d, n, seed, trials, halfwidth,
                           batch_size):
    """Lines of the needle estimator that hit generation n, counted by
    testing every line against every square.

    Batch b of at most batch_size lines draws theta uniform on [0, 2*pi)
    and then c uniform on [-halfwidth, halfwidth] from Philox keyed by
    (seed, b); the line hits a square of center (x, y) and half-side h when
    |cos(theta)*x + sin(theta)*y - c| <= h*(|cos(theta)| + |sin(theta)|)."""
    cx, cy, half = needle_squares_bruteforce(maps2d, base2d, n)
    rows = max(1, (1 << 22) // len(cx))
    hits = 0
    for batch, start in enumerate(range(0, trials, batch_size)):
        take = min(batch_size, trials - start)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, batch], dtype=np.uint64)))
        theta = rng.uniform(0.0, 2.0 * math.pi, take)
        c = rng.uniform(-halfwidth, halfwidth, take)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        reach = half * (np.abs(cos_t) + np.abs(sin_t))
        for lo in range(0, take, rows):
            sl = slice(lo, lo + rows)
            centers = (np.multiply.outer(cos_t[sl], cx)
                       + np.multiply.outer(sin_t[sl], cy))
            inside = np.abs(centers - c[sl, None]) <= reach[sl, None]
            hits += int(np.count_nonzero(inside.any(axis=1)))
    return hits



def needle_descent_reference(maps2d, base2d, n, seed, trials, halfwidth,
                             batch_size):
    """(hits, tests) of the needle estimator by a descent of the cylinder
    tree that builds every node's box.

    Lines are drawn as in ``needle_hits_bruteforce``.  For each inner level
    k < n, node i covers leaves [i*m^(n-k), (i+1)*m^(n-k)) and its box is
    centred at the midpoint of those leaves' centres, with half-extents
    half their spread plus ``half``.  A line tests a node's children when
    it meets the node's box widened by the pad 2^-44*S,
    S = halfwidth + max|cx| + max|cy| + 2*half.  Leaves take the
    all-squares predicate.  ``tests`` counts the (line, node) pairs
    tested, inner and leaf."""
    cx, cy, half = needle_squares_bruteforce(maps2d, base2d, n)
    m = len(maps2d)
    pad = math.ldexp(halfwidth + np.abs(cx).max() + np.abs(cy).max()
                     + 2.0 * half, -44)
    boxes = []
    for k in range(n):
        shape = (m ** k, m ** (n - k))
        lo_x, hi_x = cx.reshape(shape).min(1), cx.reshape(shape).max(1)
        lo_y, hi_y = cy.reshape(shape).min(1), cy.reshape(shape).max(1)
        boxes.append(((lo_x + hi_x) / 2, (lo_y + hi_y) / 2,
                      (hi_x - lo_x) / 2 + half, (hi_y - lo_y) / 2 + half))
    hits = tests = 0
    for batch, start in enumerate(range(0, trials, batch_size)):
        take = min(batch_size, trials - start)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, batch], dtype=np.uint64)))
        theta = rng.uniform(0.0, 2.0 * math.pi, take)
        c = rng.uniform(-halfwidth, halfwidth, take)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        abs_cos, abs_sin = np.abs(cos_t), np.abs(sin_t)
        line = np.arange(take)
        node = np.zeros(take, dtype=np.intp)
        for bx, by, hx, hy in boxes:
            tests += line.size
            keep = (np.abs(cos_t[line] * bx[node] + sin_t[line] * by[node]
                           - c[line])
                    <= hx[node] * abs_cos[line] + hy[node] * abs_sin[line]
                    + pad)
            line = np.repeat(line[keep], m)
            node = (node[keep, None] * m + np.arange(m)).ravel()
        tests += line.size
        inside = (np.abs(cos_t[line] * cx[node] + sin_t[line] * cy[node]
                         - c[line])
                  <= half * (abs_cos[line] + abs_sin[line]))
        hit = np.zeros(take, dtype=bool)
        hit[line[inside]] = True
        hits += int(np.count_nonzero(hit))
    return hits, tests

_INT64_LIMIT = 1 << 62


def reference_sweep(lo, hi, eps=None):
    """Merge one row of endpoint arrays by a stable argsort of lo and a
    running maximum of hi.

    A merged interval starts wherever a sorted left end lies past the
    running maximum before it, by more than eps (by any amount when eps is
    None).  Returns the merged lo and hi, degenerate ones included, and the
    mask of the starts in sorted order.
    """
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    run = np.maximum.accumulate(hi)
    gap = run[:-1] if eps is None else run[:-1] + eps
    starts = np.concatenate(([True], lo[1:] > gap))
    ends = np.append(starts[1:], True)
    return lo[starts], run[ends], starts


def exact_step_reference(den, lo, hi, maps):
    """One step E -> union of r*E + c of the exact engine, by re-sorting.

    The state is integer endpoints lo/hi over the shared denominator den;
    maps are (ratio, offset) Fractions.  The new denominator is
    lcm(den * lcm of ratio denominators, lcm of offset denominators), as in
    the engine.  When every image endpoint fits below 2^62 all 2k image
    arrays are concatenated and merged by ``reference_sweep`` in int64,
    otherwise by sorting Python-int pairs.  Degenerate merged intervals
    are dropped.  Returns (new_den, lo, hi, used_int64).
    """
    ratio_lcm = offset_lcm = 1
    for r, c in maps:
        ratio_lcm = math.lcm(ratio_lcm, Fraction(r).denominator)
        offset_lcm = math.lcm(offset_lcm, Fraction(c).denominator)
    new_den = math.lcm(den * ratio_lcm, offset_lcm)
    coeffs = [(Fraction(r).numerator * (new_den // (Fraction(r).denominator * den)),
               Fraction(c).numerator * (new_den // Fraction(c).denominator))
              for r, c in maps]
    lo = [int(v) for v in lo]
    hi = [int(v) for v in hi]
    xmax = max(abs(lo[0]), abs(hi[-1])) if lo else 0
    if new_den < _INT64_LIMIT and all(abs(a) * xmax + abs(c) < _INT64_LIMIT
                                      for a, c in coeffs):
        lo_a = np.array(lo, dtype=np.int64)
        hi_a = np.array(hi, dtype=np.int64)
        cat_lo = np.concatenate([a * lo_a + c for a, c in coeffs])
        cat_hi = np.concatenate([a * hi_a + c for a, c in coeffs])
        if cat_lo.size == 0:
            return new_den, cat_lo, cat_hi, True
        mlo, mhi, _ = reference_sweep(cat_lo, cat_hi)
        keep = mhi > mlo
        return new_den, mlo[keep], mhi[keep], True
    pairs = sorted((a * x + c, a * y + c) for a, c in coeffs
                   for x, y in zip(lo, hi))
    out = []
    for a, b in pairs:
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    out = [(a, b) for a, b in out if b > a]
    return new_den, [a for a, _ in out], [b for _, b in out], False


def float_step_reference(lo, hi, maps, eps):
    """One step E -> union of r*E + c of the float engine for one direction.

    The per-direction step the row-batched engine replaced: the k images
    are concatenated map by map and merged by ``reference_sweep``, which
    glues gaps of at most eps, and degenerate merged intervals are
    dropped.  maps are float (ratio, offset) pairs.
    """
    cat_lo = np.concatenate([r * lo + c for r, c in maps])
    cat_hi = np.concatenate([r * hi + c for r, c in maps])
    if cat_lo.size == 0:
        return cat_lo, cat_hi
    mlo, mhi, _ = reference_sweep(cat_lo, cat_hi, eps)
    keep = mhi > mlo
    return mlo[keep], mhi[keep]


def float_generations_reference(maps, base, n_max, eps):
    """Float generations 0..n_max of one direction by float_step_reference.

    maps are float (ratio, offset) pairs and base a float (lo, hi).  Returns
    the list of (lo, hi) arrays and the list of sheared measures, each the
    numpy sum of the interval lengths.
    """
    lo, hi = np.array([base[0]]), np.array([base[1]])
    sets = [(lo, hi)]
    for _ in range(n_max):
        lo, hi = float_step_reference(lo, hi, maps, eps)
        sets.append((lo, hi))
    return sets, [float(np.sum(b - a)) for a, b in sets]


def _reference_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (Fraction, int)):
        value = Fraction(value)
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_csv_bytes(header, rows) -> bytes:
    """A CSV file as written one scalar at a time: csv.writer, UTF-8, each
    value rendered as true/false, p or p/q for exact values, repr for
    floats and str otherwise."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_reference_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def reference_interval_csv(interval_set) -> bytes:
    """intervals.csv of one exact set, one Fraction pair per interval."""
    return reference_csv_bytes(("lo", "hi"), ((iv.lo, iv.hi)
                                              for iv in interval_set.intervals))


def reference_generations_csv(chart, slope, sets) -> bytes:
    """generations.csv of exact sets 0, 1, ... in direction (chart, slope)."""
    return reference_csv_bytes(
        ("n", "chart", "slope", "lo", "hi"),
        ((n, chart, slope, iv.lo, iv.hi)
         for n, s in enumerate(sets) for iv in s.intervals))
