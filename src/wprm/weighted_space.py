"""Weighted projective spaces P(a_0,...,a_m) over GF(q).

A rational point is an equivalence class of nonzero coordinate tuples; every
class contains exactly q - 1 tuples with entries in GF(q), and total count is
p_m = (q^{m+1} - 1)/(q - 1), same as for the straight projective space.

The q - 1 representatives of a point are generated inside GF(q): write S for
the support of a tuple, g for gcd(a_i : i in S) and g' for g with every factor
of the characteristic removed.  Scaling coordinate i by w^(k a_i / g'), where w
generates the unit group, sweeps out exactly the representative set as k runs
over 0..q-2.  Scaling by an honest unit lambda, i.e. x_i -> lambda^{a_i} x_i,
reaches only a subgroup of index gcd(q-1, g) of these scalings, because the
lambda realising the rest lives in an extension: (1,0) and (2,0) are the same
point of P(2,3) over F_3 (lambda a square root of 2) although no unit scaling
connects them.  Canonical representative of a point: the lexicographically
smallest tuple of its class under the index order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .finite_field import FiniteField

DEFAULT_TUPLE_BUDGET = 10 ** 8
_CHUNK = 1 << 18


class BudgetExceeded(RuntimeError):
    pass


def projective_count(q: int, r: int) -> int:
    """Number of rational points of r-dimensional projective space; 0 for r < 0."""
    if r < 0:
        return 0
    return (q ** (r + 1) - 1) // (q - 1)


class WeightSystem:
    """The weight tuple (a_0,...,a_m); entries >= 1 with overall gcd 1."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = tuple(int(a) for a in weights)
        if not ws:
            raise ValueError("empty weight system")
        if any(a < 1 for a in ws):
            raise ValueError(f"weights must be positive: {ws}")
        if math.gcd(*ws) != 1:
            raise ValueError(f"weights must have gcd 1: {ws}")
        self.weights = ws

    @property
    def m(self) -> int:
        return len(self.weights) - 1

    @property
    def lcm(self) -> int:
        return math.lcm(*self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)

    def is_well_formed(self) -> bool:
        """True iff dropping any single weight leaves a tuple with gcd 1."""
        if len(self.weights) == 1:
            return self.weights[0] == 1
        return all(
            math.gcd(*(a for j, a in enumerate(self.weights) if j != i)) == 1
            for i in range(len(self.weights)))

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    def __eq__(self, other):
        if isinstance(other, WeightSystem):
            return self.weights == other.weights
        return NotImplemented

    def __hash__(self):
        return hash((WeightSystem, self.weights))

    def __repr__(self):
        return f"WeightSystem{self.weights}"


def as_weights(ws) -> WeightSystem:
    return ws if isinstance(ws, WeightSystem) else WeightSystem(ws)


@dataclass(frozen=True)
class WeightedPoint:
    """Canonical representative of a rational point."""

    coords: tuple[int, ...]

    @property
    def chart_index(self) -> int:
        """Index of the first nonzero coordinate (the W_i stratum)."""
        for i, c in enumerate(self.coords):
            if c:
                return i
        raise ValueError("zero tuple is not a point")

    def __str__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def _strip_char(g: int, p: int) -> int:
    while g % p == 0:
        g //= p
    return g


class WeightedProjectiveSpace:
    """P(a)(F_q) with cached canonical point enumeration."""

    def __init__(self, weights, field: FiniteField):
        self.ws = as_weights(weights)
        self.field = field
        self._coords = None
        self._points = None

    @property
    def m(self) -> int:
        return self.ws.m

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def char_divides_weight(self) -> bool:
        """True when the characteristic divides some weight (flagged configuration)."""
        return any(a % self.field.p == 0 for a in self.ws)

    @property
    def expected_point_count(self) -> int:
        return projective_count(self.q, self.m)

    # -- representative machinery ---------------------------------------------

    def scaling_generator(self, support: tuple[int, ...]) -> tuple[int, ...]:
        """Per-coordinate multipliers generating the representative set on a support."""
        g = math.gcd(*(self.ws[i] for i in support))
        g = _strip_char(g, self.field.p)
        f = self.field
        if f.q == 2:
            return tuple(1 for _ in support)
        return tuple(int(f.exp_table[(self.ws[i] // g) % (f.q - 1)])
                     for i in support)

    def representatives(self, raw) -> list[tuple[int, ...]]:
        """All GF(q)-rational tuples representing the same point as raw."""
        raw = tuple(int(c) for c in raw)
        if not any(raw):
            raise ValueError("the zero tuple does not represent a point")
        support = tuple(i for i, c in enumerate(raw) if c)
        gamma = self.scaling_generator(support)
        f = self.field
        out = [raw]
        cur = list(raw)
        for _ in range(f.q - 2):
            for i, gi in zip(support, gamma):
                cur[i] = f.mul(cur[i], gi)
            out.append(tuple(cur))
        return out

    def orbit_size(self, raw) -> int:
        """Number of distinct rational representative tuples (q - 1)."""
        return len(set(self.representatives(raw)))

    def canonicalize(self, raw) -> WeightedPoint:
        """Lexicographically least representative, under the index order."""
        return WeightedPoint(min(self.representatives(raw)))

    # -- enumeration ------------------------------------------------------------

    def point_coords(self, tuple_budget: int = DEFAULT_TUPLE_BUDGET) -> np.ndarray:
        """All canonical points as an (n, m+1) index array, lex ascending.

        The first call enumerates, refusing more than tuple_budget tuples
        before any work starts; later calls return the cached array.
        """
        if self._coords is None:
            self._coords = self._enumerate(tuple_budget)
        return self._coords

    def points(self) -> list[WeightedPoint]:
        if self._points is None:
            self._points = [WeightedPoint(tuple(int(c) for c in row))
                            for row in self.point_coords()]
        return self._points

    def _enumerate(self, tuple_budget: int) -> np.ndarray:
        f = self.field
        q, npos = f.q, len(self.ws)
        total = q ** npos
        if total > tuple_budget:
            raise BudgetExceeded(
                f"enumerating P{self.ws.weights} over GF({q}) needs {total} "
                f"tuples, over the budget of {tuple_budget}")
        radix = q ** np.arange(npos - 1, -1, -1, dtype=np.int64)
        bits = 1 << np.arange(npos)
        chunks = []
        for start in range(0, total, _CHUNK):
            keys = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
            coords = (keys[:, None] // radix) % q
            minkeys = keys.copy()
            if q > 2:
                patterns = ((coords != 0) * bits).sum(axis=1)
                for patt in np.unique(patterns):
                    if patt == 0:
                        continue
                    rows = np.nonzero(patterns == patt)[0]
                    support = tuple(i for i in range(npos) if patt >> i & 1)
                    gamma = self.scaling_generator(support)
                    glog = [int(f.log_table[g]) for g in gamma]
                    cur = coords[rows].copy()
                    best = minkeys[rows]
                    logs = {i: f.log_table[cur[:, i]] for i in support}
                    for k in range(1, q - 1):
                        for i, gl in zip(support, glog):
                            logs[i] = (logs[i] + gl) % (q - 1)
                            cur[:, i] = f.exp_table[logs[i]]
                        best = np.minimum(best, cur @ radix)
                    minkeys[rows] = best
            canon = (minkeys == keys) & (keys != 0)
            chunks.append(coords[canon])
        return np.concatenate(chunks, axis=0)

    def stratum_sizes(self) -> list[int]:
        """Point counts of the strata W_i (first nonzero coordinate = i)."""
        coords = self.point_coords()
        out = []
        npos = len(self.ws)
        for i in range(npos):
            mask = np.ones(len(coords), dtype=bool)
            for j in range(i):
                mask &= coords[:, j] == 0
            mask &= coords[:, i] != 0
            out.append(int(mask.sum()))
        return out

    def __repr__(self):
        return f"P{self.ws.weights} over {self.field!r}"


@functools.lru_cache(maxsize=256)
def projective_space(weights: tuple, field: FiniteField) -> WeightedProjectiveSpace:
    return WeightedProjectiveSpace(WeightSystem(weights), field)


def space(ws, field: FiniteField) -> WeightedProjectiveSpace:
    """Cached space accessor; ws may be a sequence or WeightSystem."""
    return projective_space(as_weights(ws).weights, field)


def enumerate_points(ws, field: FiniteField) -> list[WeightedPoint]:
    return space(ws, field).points()


def canonicalize(ws, field: FiniteField, raw) -> WeightedPoint:
    return space(ws, field).canonicalize(raw)


def orbit_size(ws, field: FiniteField, raw) -> int:
    return space(ws, field).orbit_size(raw)


def is_well_formed(ws) -> bool:
    return as_weights(ws).is_well_formed()


# -- singular locus -------------------------------------------------------------


@dataclass(frozen=True)
class SingularLocusReport:
    """Primes with nonempty index set and the coordinate subspace each one spans."""

    sigma: tuple[int, ...]
    components: dict[int, tuple[int, ...]]  # prime -> I(p)

    @property
    def dimensions(self) -> dict[int, int]:
        return {p: len(ix) - 1 for p, ix in self.components.items()}

    @property
    def is_smooth(self) -> bool:
        return not self.sigma

    def vertex_points(self, npos: int) -> list[tuple[int, ...]]:
        """The singular vertices, when every component is a single coordinate point."""
        out = []
        for ix in self.components.values():
            if len(ix) == 1:
                out.append(tuple(1 if j == ix[0] else 0 for j in range(npos)))
        return out


def singular_locus(ws, *, allow_non_well_formed: bool = False) -> SingularLocusReport:
    """Decompose the singular locus by primes dividing the weights.

    The decomposition is only meaningful for well-formed weights; pass
    allow_non_well_formed=True to compute the mechanical index sets anyway.
    """
    ws = as_weights(ws)
    if not ws.is_well_formed() and not allow_non_well_formed:
        raise ValueError(
            f"{ws} is not well-formed; reduce it first (see delorme_normalize)")
    from .finite_field import prime_factors
    primes = sorted({p for a in ws for p in prime_factors(a)})
    components = {}
    for p in primes:
        ix = tuple(i for i, a in enumerate(ws) if a % p == 0)
        if ix:
            components[p] = ix
    return SingularLocusReport(sigma=tuple(components), components=components)


# -- Delorme weight reduction -----------------------------------------------------


@dataclass(frozen=True)
class DelormeStep:
    """One reduction (a_0 b,...,a_i,...,a_m b) -> (a_0,...,a_m).

    Points map forward by raising coordinate i to the b-th power; a source
    polynomial maps by replacing X_i^b with X_i, dividing the degree by b.
    Both maps preserve zero-set cardinalities.
    """

    source: WeightSystem
    index: int
    b: int

    @property
    def reduced(self) -> WeightSystem:
        return WeightSystem(tuple(
            a if j == self.index else a // self.b
            for j, a in enumerate(self.source)))

    def map_coords(self, field: FiniteField, coords) -> tuple[int, ...]:
        return tuple(
            field.pow(int(c), self.b) if j == self.index else int(c)
            for j, c in enumerate(coords))

    def map_point(self, field: FiniteField, pt: WeightedPoint) -> WeightedPoint:
        return space(self.reduced, field).canonicalize(
            self.map_coords(field, pt.coords))

    def map_exponents(self, exponents) -> tuple[int, ...]:
        r = tuple(int(x) for x in exponents)
        if r[self.index] % self.b:
            raise ValueError(
                f"exponent {r[self.index]} of X{self.index} not divisible by {self.b}")
        return tuple(x // self.b if j == self.index else x
                     for j, x in enumerate(r))

    def unmap_exponents(self, exponents) -> tuple[int, ...]:
        return tuple(int(x) * self.b if j == self.index else int(x)
                     for j, x in enumerate(exponents))

    def transform_poly(self, poly):
        """Source polynomial of degree kb -> reduced polynomial of degree k."""
        from .weighted_poly import WeightedPolynomial
        if poly.ws != self.source:
            raise ValueError("polynomial does not live on the source weights")
        if poly.degree % self.b:
            raise ValueError(f"degree {poly.degree} not divisible by {self.b}")
        terms = {self.map_exponents(r): c for r, c in poly.terms.items()}
        return WeightedPolynomial(self.reduced, poly.field,
                                  poly.degree // self.b, terms)

    def untransform_poly(self, poly):
        from .weighted_poly import WeightedPolynomial
        if poly.ws != self.reduced:
            raise ValueError("polynomial does not live on the reduced weights")
        terms = {self.unmap_exponents(r): c for r, c in poly.terms.items()}
        return WeightedPolynomial(self.source, poly.field,
                                  poly.degree * self.b, terms)


def delorme_reduce(ws, index: int, b: int) -> DelormeStep:
    """Validate and build the single reduction step at the given index."""
    ws = as_weights(ws)
    if not 0 <= index < len(ws):
        raise ValueError(f"index {index} out of range")
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if math.gcd(b, ws[index]) != 1:
        raise ValueError(f"b = {b} must be coprime to a_{index} = {ws[index]}")
    for j, a in enumerate(ws):
        if j != index and a % b:
            raise ValueError(f"weight a_{j} = {a} is not divisible by b = {b}")
    return DelormeStep(source=ws, index=index, b=b)


def delorme_normalize(ws) -> list[DelormeStep]:
    """Steps reducing ws to a well-formed system (empty when already well-formed)."""
    ws = as_weights(ws)
    steps = []
    while True:
        if len(ws) == 1:
            break
        for i in range(len(ws)):
            others = [a for j, a in enumerate(ws) if j != i]
            g = math.gcd(*others)
            if g > 1:
                step = delorme_reduce(ws, i, g)
                steps.append(step)
                ws = step.reduced
                break
        else:
            break
    return steps
