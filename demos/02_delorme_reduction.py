#!/usr/bin/env python3
"""Delorme weight reduction.

When all weights but one share a factor b (coprime to the remaining one),
P(a_0 b, ..., a_i, ..., a_m b) is isomorphic to P(a_0, ..., a_m): raise the
i-th coordinate to the b-th power and replace X_i^b by X_i in polynomials.
Zero sets, point counts and code parameters all transport across the step.
"""

import numpy as np

from wprm import (GF, WeightedPolynomial, count_zeros, delorme_normalize,
                  delorme_reduce, max_zeros, space)

F3 = GF(3)

# P(2,1,2) reduces at index 1 with b = 2 to the ordinary projective plane.
step = delorme_reduce((2, 1, 2), 1, 2)
print("source:", step.source, "-> reduced:", step.reduced)

src, red = space(step.source, F3), space(step.reduced, F3)
image = step.map_points(F3, src.point_coords())  # row for row
bijection = (image[np.lexsort(image.T[::-1])] == red.point_coords()).all()
print("point map is a bijection:", bijection)

# A degree-4 polynomial upstairs becomes a degree-2 polynomial downstairs
F = WeightedPolynomial(step.source, F3, 4, {(2, 0, 0): 1, (0, 2, 1): 2})
G = step.transform_poly(F)
print("degree", F.degree, "->", G.degree,
      "; zero counts:", count_zeros(F, src), "and", count_zeros(G, red))

# Iterating single steps normalises any system to a well-formed one.
chain = delorme_normalize((3, 4))
print("\nP(3,4) reduces via",
      " -> ".join(str(s.reduced.weights) for s in chain))

# The maximum zero count respects the whole chain: degree 12k on (3,4)
# matches degree k on (1,1).
for k in (1, 2):
    lhs = max_zeros((3, 4), F3, 12 * k).value
    rhs = max_zeros((1, 1), F3, k).value
    print(f"max zeros, degree {12 * k} on P(3,4) vs degree {k} on P(1,1): "
          f"{lhs} = {rhs}")
