"""Lines in the weighted projective plane P(1, a1, a2).

Degree-1 forms alone see almost nothing here, so a line is either the locus
X0 = 0 (type 0, the line at infinity), a completed vertical affine line
alpha X0^a1 + X1 = 0 (type 1), or a completed non-vertical one
alpha X0^a2 + beta X1 X0^(a2-a1) + X2 = 0 (type 2).  Every line carries
exactly q + 1 rational points and every two lines meet; type-1 lines all pass
through (0:0:1) and type-2 lines all pass through (0:1:0).  A line's points
are a boolean mask over the rows of the space's `point_coords()`, so the
points two lines share are the AND of their masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weighted_space import WeightedProjectiveSpace, as_weights
from .weighted_poly import WeightedPolynomial
from .zero_sets import zero_mask


@dataclass(frozen=True)
class PlaneLine:
    kind: int              # 0, 1 or 2
    alpha: int = 0
    beta: int = 0

    def __post_init__(self):
        if self.kind not in (0, 1, 2):
            raise ValueError(f"line type must be 0, 1 or 2, got {self.kind}")
        if self.kind == 0 and (self.alpha or self.beta):
            raise ValueError("the line at infinity takes no parameters")
        if self.kind == 1 and self.beta:
            raise ValueError("vertical lines take a single parameter")

    def polynomial(self, ws, field) -> WeightedPolynomial:
        ws = as_weights(ws)
        a1, a2 = ws[1], ws[2]
        if self.kind == 0:
            return WeightedPolynomial(ws, field, 1, {(1, 0, 0): 1})
        if self.kind == 1:
            terms = {(0, 1, 0): 1}
            if self.alpha:
                terms[(a1, 0, 0)] = self.alpha
            return WeightedPolynomial(ws, field, a1, terms)
        terms = {(0, 0, 1): 1}
        if self.alpha:
            terms[(a2, 0, 0)] = self.alpha
        if self.beta:
            terms[(a2 - a1, 1, 0)] = self.beta
        return WeightedPolynomial(ws, field, a2, terms)


@dataclass(frozen=True)
class GradedSubstitution:
    """The grading-preserving change of variables X_v -> X_v + delta."""

    var: int
    delta: WeightedPolynomial

    def apply(self, poly: WeightedPolynomial) -> WeightedPolynomial:
        ws, field = poly.ws, poly.field
        base = WeightedPolynomial.monomial(ws, field,
                                           tuple(1 if j == self.var else 0
                                                 for j in range(len(ws))))
        if not self.delta.is_zero:
            base = base + self.delta
        powers = {0: WeightedPolynomial(ws, field, 0, {(0,) * len(ws): 1})}
        out = WeightedPolynomial.zero(ws, field, poly.degree)
        for exps, coeff in poly.terms.items():
            rv = exps[self.var]
            if rv not in powers:
                top = max(powers)
                for r in range(top + 1, rv + 1):
                    powers[r] = powers[r - 1] * base
            rest = tuple(0 if j == self.var else r for j, r in enumerate(exps))
            out = out + (powers[rv]
                         * WeightedPolynomial.monomial(ws, field, rest, coeff))
        return out

    def inverse(self) -> "GradedSubstitution":
        return GradedSubstitution(self.var, -self.delta)


class LineSystem:
    """The full catalog of 1 + q + q^2 rational lines of P(1, a1, a2)."""

    def __init__(self, sp: WeightedProjectiveSpace):
        ws = sp.ws
        if len(ws) != 3 or ws[0] != 1:
            raise ValueError(f"line geometry needs weights (1, a1, a2), got {ws}")
        if not ws[1] < ws[2]:
            raise ValueError(f"weights must satisfy a1 < a2, got {ws}")
        if math.gcd(ws[1], ws[2]) != 1:
            raise ValueError(f"a1 and a2 must be coprime, got {ws}")
        self.space = sp
        self.ws = ws
        self.field = sp.field

    def lines(self) -> list[PlaneLine]:
        q = self.field.q
        out = [PlaneLine(0)]
        out += [PlaneLine(1, alpha) for alpha in range(q)]
        out += [PlaneLine(2, alpha, beta)
                for alpha in range(q) for beta in range(q)]
        return out

    def line_points(self, line: PlaneLine) -> np.ndarray:
        """The boolean mask of the line's points over the rows of
        `space.point_coords()`."""
        return zero_mask(line.polynomial(self.ws, self.field), self.space)

    def intersect(self, l1: PlaneLine, l2: PlaneLine) -> np.ndarray:
        """The mask of the points the two lines share: the AND of their
        `line_points` masks.  A line met with itself is refused."""
        if l1 == l2:
            raise ValueError("intersection of a line with itself is the line")
        return self.line_points(l1) & self.line_points(l2)

    def normalize_line(self, line: PlaneLine) -> GradedSubstitution:
        """Substitution carrying the line to the coordinate line X_kind = 0:
        X_kind -> X_kind - (the line's equation minus X_kind).

        It preserves the grading and zero-set sizes; the identity for type 0.
        """
        ws, field, v = self.ws, self.field, line.kind
        x_v = WeightedPolynomial.monomial(ws, field,
                                          tuple(int(j == v) for j in range(3)))
        return GradedSubstitution(v, -(line.polynomial(ws, field) - x_v))
