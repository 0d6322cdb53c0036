"""
A lower-bound certificate for the Favard length
===============================================

Favard length averages the projected length over all directions.  For the
four-corner set it tends to 0 as n grows, but not faster than c/n: on a
small window of slopes around t = 1/2 the convexity of the sheared length
sequence yields the linear-in-n bound

    true projected length at depth n  >=  1/2   on a window of width ~ 1/n,

which integrates to Fav(generation n) >= 1/(40 n).  The certificate checks
the inequality at a grid of exact rational slopes with exact arithmetic,
then quadrature confirms the actual Favard value sits above the bound.
"""

from favardlab import QuadratureConfig, favard, four_corner, lower_bound_certificate

fc = four_corner()

###############################################################################
# Certificates for n = 1..8.  Each one evaluates the sheared lengths
# alpha_0 and alpha_1 on a grid in the window, forms the iterated bound
# L = alpha_0 - n (alpha_0 - alpha_1), and verifies L * scale >= 1/2
# exactly (as 4 L^2 >= 1 + t^2, no square roots needed).

print("n   certificate   claimed bound   favard value    error bar")
quad = QuadratureConfig(tol=1e-7)
for n in range(1, 9):
    cert = lower_bound_certificate(fc, n)
    est = favard(fc, n, quad)
    status = "PASS" if cert.passed else "FAIL"
    print(f"{n}   {status:>11}   {cert.claimed_bound:.6f}      "
          f"{est.value:.6f}      {est.error:.1e}")

###############################################################################
# The bound is far from sharp (the measured values decay like 1/n but with
# a much larger constant).  A PASS is exact at the grid slopes: every grid
# row is an exact rational inequality.  Between the grid slopes it rests on
# the float Lipschitz scan until the certificate covers the whole window.

cert = lower_bound_certificate(fc, 4)
print(f"\nwindow for n=4: center {cert.window_center:.6f}, "
      f"halfwidth {cert.window_halfwidth:.6f}, {len(cert.grid)} grid slopes")
row = cert.grid[0]
print(f"first row: slope {row.slope}, alpha0 {row.alpha0}, "
      f"alpha1 {row.alpha1}, L {row.lower}")
