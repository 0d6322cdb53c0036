"""
From neighborhood decay to a dimension estimate
===============================================

If the Favard length of the r-neighborhood of a set decays like r^s, the
set cannot have Hausdorff dimension above 1 - s.  The pipeline here turns
that into a number for self-similar sets: pick scales r, match each to a
generation depth, expand the float projected generations by r (all
quadrature nodes of a depth at once, each at the float tangent of its
angle), integrate over directions, and fit the decay exponent on a log-log
line.  The fit over finitely many scales makes 1 - s an estimate, not a
proved bound.  The cover statistics at the end are exact.

The sparse four-corner variant with ratio 1/8 (similarity dimension 2/3)
is a good test: the estimate 1 - s should land near 2/3, on either side.
"""

from fractions import Fraction

from favardlab import cover_stats, decay_series, exponent_fit, preset
from favardlab.projection import Direction

sc = preset("sparse-corner(8)")

###############################################################################
# Decay table.  total is the direction-averaged projected measure of the
# r-neighborhood at the matched depth; the sensitivity columns requote it
# one generation shallower and deeper.

scales = [Fraction(8) ** -k for k in range(3, 7)]
series = decay_series(sc, scales, sensitivity=True)
print("r          total        depth   shallower    deeper")
for rec in series:
    print(f"8^-{scales.index(rec.r) + 3}       {rec.total:.6e}   "
          f"{rec.depth}       {rec.total_shallower:.4e}   "
          f"{rec.total_deeper:.4e}")

fit = exponent_fit(series)
print(f"\nfitted decay exponent s = {fit.s:.4f}   "
      f"(residual {fit.residual:.2e})")
print(f"dimension estimate 1 - s = {fit.dim_bound:.4f}   "
      f"(similarity dimension is 2/3 = 0.6667)")

###############################################################################
# The cover statistics behind one direction: at slope 0 and r = 4^-n / 2
# the four-corner generation n merges into 2^n intervals of length
# exactly 2 * 4^-n, and the 1/2-Holder sum is sqrt(2) for every n.

fc = preset("four-corner")
for n in (3, 6):
    r = Fraction(1, 2) * Fraction(4) ** -n
    stats = cover_stats(fc, Direction("x", Fraction(0)), r,
                        (Fraction(1, 2),))
    print(f"\nfour-corner, slope 0, r = 4^-{n}/2:")
    print(f"  {stats.count} intervals, min length {stats.min_length:.3e}, "
          f"floor min >= 2r holds: {stats.floor_ok}")
    print(f"  Holder 1/2 sum = {stats.holder_sums[Fraction(1, 2)]!r}")
