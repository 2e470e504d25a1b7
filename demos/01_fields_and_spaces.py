#!/usr/bin/env python3
"""Finite fields and weighted projective spaces.

A weighted projective space P(a_0,...,a_m) glues coordinate tuples under the
scaling x_i ~ lambda^(a_i) x_i.  Over GF(q) every point has exactly q - 1
coordinate representatives, so the space has as many rational points as the
straight projective space of the same dimension.
"""

from wprm import GF, field_from_spec, projective_count, singular_locus, space
from wprm.weighted_space import format_point

# -- fields are integer-index calculators -------------------------------------------

F19 = GF(19)
print("GF(19): 2 * 10 =", F19.mul(2, 10), " inv(2) =", F19.inv(2))

F4 = field_from_spec("2^2")
print("GF(4) reduction polynomial (low-degree coefficients first):",
      F4.reduction_poly)
print("x * x =", F4.mul(2, 2), " (index 3 encodes x + 1)")

# -- point enumeration ----------------------------------------------------------------

sp = space((2, 3, 5), F4)
print(f"\n{sp} has {len(sp.point_coords())} rational points; "
      f"p_2 = {projective_count(4, 2)}")

# A subtlety worth seeing: on P(2,3) over GF(5) the tuples (1,0) and (2,0)
# are the SAME point, although no unit scaling lambda connects them: the
# needed lambda lives in an extension (a square root of 2).  The canonical
# enumeration accounts for this, matching p_1 = 6.
sp = space((2, 3), GF(5))
points = [format_point(row) for row in sp.point_coords().tolist()]
print(f"\n{sp}: points {points}")
print("representatives of (1:0):", sp.representatives((1, 0)))
print("orbit size:", sp.orbit_size((1, 0)), "= q - 1")

# -- strata -----------------------------------------------------------------------------

sp = space((1, 2, 3), GF(5))
print(f"\n{sp} splits into strata W_i (first nonzero coordinate = i):")
print("stratum sizes:", sp.stratum_sizes(), " (q^m, q^(m-1), ..., 1)")

# -- singular locus ------------------------------------------------------------------------

print("\nsingular locus of P(1,2,3):", singular_locus((1, 2, 3)).components,
      "(the two coordinate vertices)")
print("P(1,1,1) is smooth:", singular_locus((1, 1, 1)).is_smooth)
