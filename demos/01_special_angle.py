"""
Projections of the four-corner set, exactly
===========================================

The four-corner set lives in the unit square: four copies scaled by 1/4
sit at the corners, and generation n is the union of 4^n squares of side
4^-n.  Project generation n onto a line of slope t.  With rational t the
shadow is a finite union of rational intervals, so its length is a single
exact fraction, no floating point involved.

At the special slope t = 1/2 the four first-generation shadows butt up
against each other perfectly and tile [0, 3/2]: the projected length never
decreases, no matter how deep you go.  At t = 0 the shadow splinters into
2^n tiny intervals instead.
"""

from fractions import Fraction

from favardlab import (
    Direction,
    alpha_sequence,
    check_convexity,
    four_corner,
    generation,
    special_slope_check,
)

fc = four_corner()

###############################################################################
# The tiling slope.  defect = sheared length of generation 0 minus
# generation 1; zero means the four pieces fill the base shadow exactly.

rep = special_slope_check(fc, Fraction(1, 2))
print(f"t = 1/2: tiles = {rep.tiles}, defect = {rep.defect}, "
      f"pieces after merging = {rep.pieces}")

d = Direction("x", Fraction(1, 2))
for n in (0, 4, 8):
    gen = generation(fc, d, n)
    ivals = ", ".join(f"[{iv.lo}, {iv.hi}]" for iv in gen.intervals)
    print(f"  generation {n}: {gen.count} interval(s): {ivals}")

###############################################################################
# A generic slope: lengths shrink, but always convexly.  The sheared
# length sequence has nonnegative second differences in exact arithmetic.

for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
    seq = alpha_sequence(fc, Direction("x", t), 8, backend="exact")
    conv = check_convexity(seq)
    print(f"\nt = {t}: sheared lengths of generations 0..8")
    for n, v in enumerate(seq.values):
        print(f"  n={n}  {str(v):>12}  = {float(v):.6f}")
    print(f"  convex: {conv.convex}  "
          f"(smallest margin {min(m for _, m in conv.margins)})")

###############################################################################
# Convexity pins the whole tail once two consecutive values agree: at
# t = 1/2 the first difference is 0, so every later difference is 0 too.
# That is the mechanism behind the lower bound demo in 02_certificate.py.
