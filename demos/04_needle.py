"""
Dropping needles on the four-corner set
=======================================

The Favard length has a physical reading: up to the factor 2 pi * 2W it is
the probability that a random line (a needle dropped with uniform position
in a strip of halfwidth W and uniform angle) hits the set.  That gives a
Monte Carlo oracle completely independent of the quadrature code path:
same quantity, different mathematics, different bugs.

Runs are reproducible: lines are drawn in batches of a fixed size, each
from a Philox generator keyed by (seed, batch index), so (seed, trials)
pins every sample.
"""

import math

from favardlab import NeedleConfig, estimate_favard_mc, favard, four_corner

fc = four_corner()

###############################################################################
# Monte Carlo vs quadrature at increasing depth.  Agreement is within a
# few standard errors at every generation; the SE shrinks like 1/sqrt(N).

trials = 400_000
print(f"{trials} needle drops per generation, seed 1")
print("n   quadrature   monte carlo    std err    gap/se")
for n in range(4):
    quad = favard(fc, n)
    est = estimate_favard_mc(fc, NeedleConfig(trials=trials, seed=1,
                                              generation=n))
    gap = abs(est.estimate - quad.value) / est.standard_error
    print(f"{n}   {quad.value:.5f}      {est.estimate:.5f}        "
          f"{est.standard_error:.5f}    {gap:.2f}")

###############################################################################
# The hit probability itself is tiny and shrinks with n, which is the
# whole story: a random needle almost never notices a purely unrectifiable
# set.  Doubling the strip halves the hit rate but leaves the estimator's
# expectation unchanged.

est_w = estimate_favard_mc(fc, NeedleConfig(trials=trials, seed=2,
                                            generation=2))
est_2w = estimate_favard_mc(fc, NeedleConfig(
    trials=trials, seed=2, generation=2,
    strip_halfwidth=2 * est_w.strip_halfwidth))
print(f"\nhit rate at W:  {est_w.hits / est_w.trials:.4f}   "
      f"estimate {est_w.estimate:.4f}")
print(f"hit rate at 2W: {est_2w.hits / est_2w.trials:.4f}   "
      f"estimate {est_2w.estimate:.4f}")
print(f"combined gap: {abs(est_w.estimate - est_2w.estimate):.4f} vs "
      f"se {math.hypot(est_w.standard_error, est_2w.standard_error):.4f}")
