"""Alpha sequences, convexity checks, Favard quadrature, and certificates.

For a direction theta let alpha_n(theta) be the length of the projection of
generation n.  Everything here rests on two elementary facts:

* the sequence n -> alpha_n(theta) is nonincreasing (generations are nested);
* when the contraction ratios sum to 1 and every projected image of the base
  stays inside the base, the sequence is convex: consecutive differences
  d_k = alpha_{k-1} - alpha_k are nonincreasing.

Convexity is scale-invariant, so it is checked on the exact sheared values.
Iterating it gives the certified lower bound alpha_n >= alpha_0 - n*d_1,
which near a tiling slope (d_1 = 0) keeps alpha_n bounded away from zero and
yields an explicit lower bound on the Favard length of generation n.

Favard length here means the integral of projected length over a full turn,
twice the integral over any half period.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import PreconditionError
from .ifs import IFS2D
from .intervals import to_fraction
from .projection import (
    Direction,
    _QUARTER_PI,
    iter_generations,
    projected_lengths,
    sheared_measures,
)

SPECIAL_SLOPE = Fraction(1, 2)


@dataclass(frozen=True)
class AlphaSequence:
    """Exact sheared projected lengths of generations 0..N in one direction.

    True lengths are ``value * scale``; convexity and monotonicity are
    unaffected by the positive factor, so they are tested on the exact
    sheared values directly.
    """

    direction: Direction
    values: tuple
    scale: float

    def __len__(self) -> int:
        return len(self.values)


def alpha_sequence(ifs: IFS2D, d: Direction, n_max: int,
                   backend: str = "exact") -> AlphaSequence:
    """Compute alpha_0 .. alpha_{n_max} as exact Fractions, reusing the
    merged set per step.  ``"exact"`` is the one backend."""
    if backend != "exact":
        raise ValueError(f"unknown backend {backend!r}")
    return AlphaSequence(d, tuple(sheared_measures(ifs, d, n_max)), d.scale)


@dataclass(frozen=True)
class ConvexityReport:
    values: tuple
    margins: tuple          # (k, (v[k-1] + v[k+1]) - 2*v[k]) for interior k
    diffs: tuple            # d_k = v[k-1] - v[k], k = 1..N
    convex: bool
    diffs_nonincreasing: bool
    nonincreasing: bool
    first_violation: Optional[int]
    exact: bool


def check_convexity(seq: Union[AlphaSequence, Sequence]) -> ConvexityReport:
    """Second-difference report for an alpha sequence or plain scalar list.

    Margins are (v[k-1] + v[k+1]) - 2*v[k]; the sequence is convex when all
    are >= 0, equivalently when the difference sequence is nonincreasing.
    Non-float inputs are promoted to Fraction so verdicts are exact.
    """
    raw = seq.values if isinstance(seq, AlphaSequence) else tuple(seq)
    if len(raw) < 3:
        raise ValueError("need at least 3 values for a second-difference check")
    if any(isinstance(v, float) for v in raw):
        vals = tuple(float(v) for v in raw)
        exact = False
    else:
        vals = tuple(to_fraction(v) for v in raw)
        exact = True
    margins = tuple((k, (vals[k - 1] + vals[k + 1]) - 2 * vals[k])
                    for k in range(1, len(vals) - 1))
    diffs = tuple(vals[k - 1] - vals[k] for k in range(1, len(vals)))
    first = next((k for k, m in margins if m < 0), None)
    convex = first is None
    dec = all(diffs[i + 1] <= diffs[i] for i in range(len(diffs) - 1))
    mono = all(d >= 0 for d in diffs)
    return ConvexityReport(vals, margins, diffs, convex, dec, mono, first, exact)


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-6
    panel_order: int = 16
    initial_panels: int = 4
    max_refinements: int = 6

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise PreconditionError(f"quadrature tol must be finite and > 0, got {self.tol}")
        if self.max_refinements < 0:
            raise PreconditionError(
                f"max_refinements must be >= 0, got {self.max_refinements}")


@dataclass(frozen=True)
class FavardEstimate:
    n: int
    value: float
    error: float
    status: str             # "converged" or "unconverged"
    nodes: int              # evaluations in the final pass
    panels: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@functools.lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes and weights of an order on [-1, 1],
    computed on first use and kept, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(lo: float, hi: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi], new arrays
    built from the kept rule of the order (``_gauss_legendre``)."""
    if panels < 1 or order < 1:
        raise PreconditionError(
            f"quadrature needs panels >= 1 and order >= 1, got {panels} and {order}")
    x, w = _gauss_legendre(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _half_period(ifs: IFS2D) -> tuple[float, float, float]:
    """(lo, hi, multiplicity): the angular domain of a sweep over directions
    and how many times its integral fits in a half period.  Projected length
    has period pi, so [-pi/4, 3pi/4] counts once; under dihedral symmetry it
    also has period pi/2 and is symmetric about pi/4: [0, pi/4] counts 4 times.
    """
    if ifs.dihedral_symmetry:
        return 0.0, _QUARTER_PI, 4.0
    return -_QUARTER_PI, 3 * _QUARTER_PI, 1.0


def favard(ifs: IFS2D, n: int,
           quad: Optional[QuadratureConfig] = None) -> FavardEstimate:
    """Estimate the full-turn Favard length of generation n by quadrature.

    The integrand has period pi, so the result is twice the half-period
    integral, taken over the domain of ``_half_period``: [0, pi/4] under
    dihedral symmetry.  Panels double until two successive composite
    Gauss-Legendre estimates agree to quad.tol; the last delta is reported
    as the error bar.

    Each pass sends all its node angles, slopes taken as float tangents,
    through one ``projected_lengths`` call, a float walk of all of them.
    """
    quad = quad or QuadratureConfig()
    lo, hi, multiplicity = _half_period(ifs)
    factor = 2 * multiplicity

    def evaluate(panels: int) -> float:
        nodes, weights = _panel_nodes(lo, hi, panels, quad.panel_order)
        return factor * float(np.dot(weights, projected_lengths(ifs, nodes, n)[n]))

    panels = quad.initial_panels
    est = evaluate(panels)
    delta = math.inf
    for _ in range(quad.max_refinements):
        panels *= 2
        new = evaluate(panels)
        delta = abs(new - est)
        est = new
        if delta < quad.tol:
            return FavardEstimate(n, est, delta, "converged",
                                  panels * quad.panel_order, panels)
    return FavardEstimate(n, est, delta, "unconverged",
                          panels * quad.panel_order, panels)


@dataclass(frozen=True)
class SpecialSlopeReport:
    slope: Fraction         # the slope in ``chart``: t, or 1/t in chart y
    tiles: bool
    defect: Fraction        # alpha~_0 - alpha~_1, sheared in the chart, exact
    pieces: int             # merged interval count of generation 1
    base_measure: Fraction  # alpha~_0, sheared in the chart
    chart: str              # the chart measured in, "y" for a steep t


def special_slope_check(ifs: IFS2D, t) -> SpecialSlopeReport:
    """Check exactly whether the first-generation images tile the base.

    Tiling means the union of images is a single interval of full base
    measure, which forces alpha_0 = alpha_1 and hence, with convexity,
    alpha_n = alpha_0 for every n at this direction.  Slope t is taken in
    chart x, or as slope 1/t in chart y when |t| > 1
    (``Direction.from_slope``); the sheared lengths depend on the chart,
    so the report names the chart and the slope it measured in.
    """
    d = Direction.from_slope(to_fraction(t))
    g0, g1 = iter_generations(ifs, d, 1)
    defect = g0.measure - g1.measure
    tiles = g1.count == 1 and defect == 0
    return SpecialSlopeReport(d.slope, tiles, defect, g1.count, g0.measure, d.chart)


@dataclass(frozen=True)
class LipschitzReport:
    nodes: int
    spacing: float
    sup_slope: float        # max |g(x_{i+1}) - g(x_i)| / spacing
    argmin_theta: float
    min_value: float
    zeros: tuple            # angles of near-zero local minima of g
    nonnegative: bool
    thetas: np.ndarray = field(repr=False, compare=False)
    g: np.ndarray = field(repr=False, compare=False)


def lipschitz_scan(ifs: IFS2D, nodes: int = 10_000) -> LipschitzReport:
    """Scan g(theta) = alpha_0 - alpha_1 over a half period of directions.

    All nodes go through one ``projected_lengths`` call on the float walk,
    slopes taken as float tangents.  Reports the largest finite-difference
    slope between adjacent nodes (empirical Lipschitz evidence), the grid
    argmin, and every near-zero local minimum: a node that beats both
    neighbors and sits within one Lipschitz step of zero.
    """
    if nodes < 3:
        raise ValueError("need at least 3 grid nodes")
    thetas = np.linspace(-_QUARTER_PI, 3 * _QUARTER_PI, nodes)

    a0, a1 = projected_lengths(ifs, thetas, 1)
    g = a0 - a1
    spacing = float(thetas[1] - thetas[0])
    sup_slope = float(np.max(np.abs(np.diff(g)))) / spacing
    idx = int(np.argmin(g))
    threshold = max(sup_slope * spacing, 1e-9)
    interior = np.zeros(len(g), dtype=bool)
    interior[1:-1] = (g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:])
    interior[0] = g[0] <= g[1]
    interior[-1] = g[-1] <= g[-2]
    zeros = tuple(float(t) for t, v in zip(thetas[interior], g[interior])
                  if v <= threshold)
    return LipschitzReport(nodes, spacing, sup_slope, float(thetas[idx]),
                           float(g[idx]), zeros, bool(np.all(g >= -1e-12)),
                           thetas, g)


@dataclass(frozen=True)
class CertificateRow:
    slope: Fraction
    alpha0: Fraction        # sheared, exact
    alpha1: Fraction
    d1: Fraction            # alpha0 - alpha1
    lower: Fraction         # alpha0 - n*d1, certified sheared lower bound
    ok: bool                # true length of the bound >= 1/2, checked exactly


@dataclass(frozen=True)
class Certificate:
    n: int
    special_slope: Fraction
    window_center: float
    window_halfwidth: float
    grid: tuple
    claimed_bound: float
    status: str             # "pass" or "fail"
    witness: Optional[Fraction]

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def lower_bound_certificate(ifs: IFS2D, n: int, grid_count: int = 64,
                            special_slope=SPECIAL_SLOPE) -> Certificate:
    """Certify Fav(generation n) >= 1/(40n) by exact grid evaluation.

    Works on the angular window of half-width 1/(40n) centered at the
    tiling direction.  At each of grid_count rational slopes spanning the
    window the iterated-convexity bound L = alpha_0 - n*(alpha_0 - alpha_1)
    is computed exactly in sheared form and the claim "true length of L is
    at least 1/2" is decided without square roots via

        L >= 0  and  4*L^2 >= 1 + slope^2.

    All rows passing gives Fav >= (window length)*(1/2) = 1/(40n).  The
    certificate is exact at the sampled slopes and relies on the scanned
    Lipschitz evidence between them.
    """
    if n < 1:
        raise PreconditionError("certificate needs generation n >= 1")
    if grid_count < 2:
        raise PreconditionError("need at least 2 grid slopes")
    if not ifs.convexity_applies:
        failure = (f"contraction ratios sum to {ifs.ratio_sum}, not 1"
                   if ifs.ratio_sum != 1 else
                   "a map image leaves the base rectangle, so nesting fails")
        raise PreconditionError(f"{failure}; the convexity theorem does not apply")
    t_star = to_fraction(special_slope)
    center = math.atan(float(t_star))
    halfwidth = 1.0 / (40 * n)
    angles = np.linspace(center - halfwidth, center + halfwidth, grid_count)
    rows = []
    witness = None
    for theta in angles:
        d = Direction.from_angle(float(theta))
        a0, a1 = sheared_measures(ifs, d, 1)
        d1 = a0 - a1
        lower = a0 - n * d1
        ok = lower >= 0 and 4 * lower * lower >= d.shear_norm_sq
        rows.append(CertificateRow(d.slope, a0, a1, d1, lower, ok))
        if not ok and witness is None:
            witness = d.slope
    status = "pass" if witness is None else "fail"
    return Certificate(n, t_star, center, halfwidth, tuple(rows),
                       1.0 / (40 * n), status, witness)
