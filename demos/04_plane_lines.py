#!/usr/bin/env python3
"""Lines in a weighted projective plane P(1, a1, a2).

Degree-1 forms only ever cut out X0 = 0 here, so the useful lines are the
completions of affine lines: 1 line at infinity, q vertical lines through
(0:0:1), and q^2 non-vertical lines through the vortex (0:1:0).  Each carries
q + 1 points and any two meet, which is what drives the sharp upper bound
(d/a1) q + 1 for degree-d hypersurfaces in this plane.
"""

import itertools
import sys

import numpy as np

from wprm import (GF, LineSystem, PlaneLine, WeightedPolynomial, count_zeros,
                  format_polynomial, monomial_basis, space)
from wprm.weighted_space import format_point

q = 5
sp = space((1, 2, 3), GF(q))
ls = LineSystem(sp)
lines = ls.lines()
print(f"{sp}: {len(lines)} lines = 1 + q + q^2")

# a line's points are a boolean mask over the rows of sp.point_coords()
masks = np.array([ls.line_points(l) for l in lines])
sizes = set(masks.sum(axis=1).tolist())
sizes_ok = sizes == {q + 1}
print("points per line:", sizes, "= {q + 1}:", sizes_ok)

all_meet = all((a & b).any() for a, b in itertools.combinations(masks, 2))
print("every pair of lines meets:", all_meet)

kinds = np.array([l.kind for l in lines])


def common_points(kind: int) -> str:
    """The points on every line of one kind: where the AND of their masks
    is true."""
    on_all = masks[kinds == kind].all(axis=0)
    return ", ".join(format_point(row)
                     for row in sp.point_coords()[on_all].tolist())


print("all vertical lines pass through", common_points(1),
      "; all non-vertical through", common_points(2))

# normalising a line is a graded change of variables sending it to X_i = 0;
# it preserves degrees and zero counts, so bounds only need coordinate lines
line = PlaneLine(2, alpha=1, beta=3)
subst = ls.normalize_line(line)
moved = subst.apply(line.polynomial(ls.ws, ls.field))
print("\nnormalising", format_polynomial(line.polynomial(ls.ws, ls.field)),
      "->", format_polynomial(moved))

basis = monomial_basis(ls.ws, 6)
F = WeightedPolynomial.from_coefficients(ls.ws, ls.field, 6, basis,
                                         [1, 0, 2, 0, 3, 0, 1])
G = subst.apply(F)
print("zero count before/after:", count_zeros(F, sp), count_zeros(G, sp))

# a product of d/a1 distinct vertical lines meets the plane bound exactly
t = 3
F = WeightedPolynomial(ls.ws, ls.field, 0, {(0, 0, 0): 1})
for alpha in range(t):
    F = F * PlaneLine(1, alpha).polynomial(ls.ws, ls.field)
print(f"\nproduct of {t} vertical lines: degree {F.degree}, "
      f"{count_zeros(F, sp)} zeros = t*q + 1 = {t * q + 1}")

if not (sizes_ok and all_meet):
    sys.exit("a line check failed")
