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

In the log domain a group of coordinate-wise scalings acts on the logs of the
coordinates by adding the integer combinations of some generator rows modulo
q - 1, so the lex-min tuple is found one coordinate at a time (the
stabiliser chain, `stabiliser_chain`).  Under the group still free, the log
of coordinate j moves through one coset of g_j Z in Z/(q-1), with g_j the gcd
of column j of the generators and q - 1; the least value over that coset
fixes the group up to the stabiliser of coordinate j, whose generators one
echelon step mod q - 1 gives, and the next coordinate moves under that.
None of this depends on the values, only on the generators, so the canonical
tuples are exactly the Cartesian product of the sets M_j of least units of
the g_j cosets.  For points the group is the scalings above, one generator
row c_j = a_j/g' on each support S, and its chain has a closed form: the
widths are g_j = gcd(L_j c_j, q - 1), with L_0 = 1 and L_{j+1} =
L_j (q - 1)/g_j, taken in order over the coordinates of S.  So the points
depend only on the width table, one row of g_j per support (0 off it), and
enumeration is one product of coset minima per row, sorted by base-q key,
in work and memory proportional to the p_m points; spaces with equal
tables share one read-only array.  Canonicalisation is a
batch walk of the same chains: the rows of an (N, m+1) array are grouped by
support, and each group walks its chain once, one link per column, over all
of its rows together.  The exhaustive max-zeros sweep (`zero_sets`) builds
its chains with `stabiliser_chain`, from the torus characters of the
coefficients it normalises, and its high parts with the points' product
builder, `coset_product_keys`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .finite_field import FiniteField, shared

DEFAULT_TUPLE_BUDGET = 10 ** 8


class BudgetExceeded(RuntimeError):
    pass


def projective_count(q: int, r: int) -> int:
    """Number of rational points of r-dimensional projective space; 0 for r < 0."""
    if r < 0:
        return 0
    return (q ** (r + 1) - 1) // (q - 1)


def _int_weights(weights) -> tuple[int, ...]:
    # The entries as ints: ints and numpy integers pass, anything that would
    # have to be truncated (a float, a string) is refused.
    ws = tuple(weights)
    try:
        return tuple(map(operator.index, ws))
    except TypeError:
        raise ValueError(f"weights must be integers: {ws}") from None


class WeightSystem:
    """The weight tuple (a_0,...,a_m); entries >= 1 with overall gcd 1."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = _int_weights(weights)
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

    def __str__(self):
        return format_point(self.coords)


def format_point(coords) -> str:
    """The text (x_0:...:x_m) of one point's coordinates."""
    return "(" + ":".join(map(str, coords)) + ")"


def _strip_char(g: int, p: int) -> int:
    while g % p == 0:
        g //= p
    return g


@shared
def _coset_minima(field: FiniteField, width: int):
    """(log, value) of the least unit in each coset r + width Z of the log
    group, r = 0..width-1, as read-only arrays; width divides q - 1."""
    cosets = field.exp_table.reshape(-1, width)  # [t, r] = exp[t width + r]
    return (np.arange(width, dtype=np.int64) + width * cosets.argmin(axis=0),
            cosets.min(axis=0))


class _Link(NamedTuple):
    """One column of a stabiliser chain."""

    width: int               # the group left moves the log in cosets of width Z
    move: tuple[int, ...]    # an element adding width to it, a shift per column
    min_log: np.ndarray      # log of the least unit of each coset
    minima: np.ndarray       # those least units: the set M_j


@shared
def stabiliser_chain(gens: tuple[tuple[int, ...], ...],
                     field: FiniteField) -> tuple[_Link, ...]:
    """The stabiliser chain of the group that the rows of gens generate.

    Row r adds gens[r][j] (mod q - 1) to the log of coordinate j, one column
    per coordinate in chain order.  Link j belongs to the group left once
    coordinates 0..j-1 are fixed: it moves the log of coordinate j through a
    coset of width Z, width the gcd of column j and q - 1, and `move` is one
    of its elements that adds width.  Each step is one echelon step mod
    q - 1: Euclid's row operations on column j leave one pivot row p with
    entry e, and the rows left for the next column are the others (zero
    there) and (q - 1)/gcd(e, q - 1) p.  The field fixes q - 1 and the order
    the least units are taken in.
    """
    n1 = field.q - 1
    rows = [r for r in ([x % n1 for x in row] for row in gens) if any(r)]
    ncols = len(gens[0]) if gens else 0
    links = []
    for j in range(ncols):
        live = [r for r in rows if r[j]]
        while len(live) > 1:
            pivot = min(live, key=lambda r: r[j])
            for r in live:
                if r is not pivot:
                    f = r[j] // pivot[j]
                    r[j:] = [(x - f * y) % n1 for x, y in zip(r[j:], pivot[j:])]
            live = [r for r in live if r[j]]
        if live:
            (pivot,) = live
            width = math.gcd(pivot[j], n1)
            y = pow(pivot[j] // width, -1, n1 // width)
            move = tuple(y * x % n1 for x in pivot)
            pivot[:] = [n1 // width * x % n1 for x in pivot]
            rows = [r for r in rows if any(r)]
        else:
            width, move = n1, (0,) * ncols
        links.append(_Link(width, move, *_coset_minima(field, width)))
    return tuple(links)


@shared
def _width_table(weights: tuple[int, ...],
                 field: FiniteField) -> tuple[tuple[int, ...], ...]:
    """The chain widths of the scalings of every support, in closed form.

    Row bits - 1 belongs to the support of the set bits of bits, one entry
    per coordinate and 0 off the support.  The one generator row c_j =
    a_j/g' of a support walks the chain of `stabiliser_chain` as
    w_j = gcd(L_j c_j, q - 1) with L_0 = 1 and L_{j+1} = L_j (q - 1)/w_j.
    The support gcd g differs from g' by a power of p, a unit mod q - 1, so
    a_j/g gives the same widths; the gcds come one bit at a time from a
    smaller support's.
    """
    npos, n1 = len(weights), field.q - 1
    gcds = [0] * (1 << npos)
    table = []
    for bits in range(1, 1 << npos):
        low = bits & -bits
        gcds[bits] = g = math.gcd(gcds[bits ^ low],
                                  weights[low.bit_length() - 1])
        row, stride = [0] * npos, 1
        for i, a in enumerate(weights):
            if bits >> i & 1:
                row[i] = w = math.gcd(stride * (a // g), n1)
                stride *= n1 // w
        table.append(tuple(row))
    return tuple(table)


def coset_product_keys(field: FiniteField, widths) -> np.ndarray:
    """The sorted base-q keys of the products the width rows give.

    Entry j of a row is the width of the cosets whose least units
    (`_coset_minima`) digit j runs over, or 0 for a digit fixed at 0; digit
    0 is the most significant, and each row contributes the Cartesian
    product of its digits' sets.  Keys past int64 are refused before any is
    built.
    """
    q, ncols = field.q, len(widths[0])
    if q ** ncols > 1 << 63:
        raise ValueError(f"keys of {ncols} digits over GF({q}) overflow int64")
    parts = []
    for row in widths:
        keys = np.zeros(1, dtype=np.int64)
        for j, width in enumerate(row):
            if width:
                minima = _coset_minima(field, width)[1]
                keys = (keys[:, None] + minima * q ** (ncols - 1 - j)).ravel()
        parts.append(keys)
    return np.sort(np.concatenate(parts))


@shared
def _canonical_points(field: FiniteField, widths) -> np.ndarray:
    """The canonical points of a width table, lex ascending, as a read-only
    (n, m+1) array that every space with this table shares."""
    keys = coset_product_keys(field, widths)
    radix = field.q ** np.arange(len(widths[0]) - 1, -1, -1, dtype=np.int64)
    return keys[:, None] // radix % field.q


class WeightedProjectiveSpace:
    """P(a)(F_q), a value that keeps no state beyond its weights and field."""

    def __init__(self, weights, field: FiniteField):
        self.ws = as_weights(weights)
        self.field = field

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

    def _scaling_logs(self, support: tuple[int, ...]) -> list[int]:
        # Logs of the multipliers that generate the representative set.
        ws, n1 = self.ws.weights, self.q - 1
        g = _strip_char(math.gcd(*[ws[i] for i in support]), self.field.p)
        return [ws[i] // g % n1 for i in support]

    def _chain(self, support: tuple[int, ...]) -> tuple[_Link, ...]:
        """The stabiliser chain of a support: one generator, the scalings."""
        return stabiliser_chain((tuple(self._scaling_logs(support)),),
                                self.field)

    def _checked(self, coords) -> np.ndarray:
        # The rows of coords as a new int64 array, refusing input that is
        # not a 2-d integer array, a zero row and rows that are not tuples
        # of field elements, naming the first.
        rows = np.array(coords)
        npos = len(self.ws)
        if rows.ndim != 2:
            raise ValueError(f"expected rows of {npos} elements of "
                             f"GF({self.q}), got an array of shape "
                             f"{rows.shape}")
        if rows.size and rows.dtype.kind not in "iu":
            raise ValueError(f"coordinates must be integers, not "
                             f"{rows.dtype}")
        rows = rows.astype(np.int64)
        bad = (rows.shape[1] != npos) | ((rows < 0) | (rows >= self.q)).any(1)
        if bad.any():
            raise ValueError(f"{tuple(rows[bad.argmax()].tolist())} is not a "
                             f"tuple of {npos} elements of GF({self.q})")
        if not rows.any(axis=1).all():
            raise ValueError("the zero tuple does not represent a point")
        return rows

    def _orbit(self, raw) -> np.ndarray:
        # The q - 1 representative tuples of raw, row k scaled by shift k.
        (raw,) = self._checked([tuple(raw)]).tolist()
        support = tuple(i for i, c in enumerate(raw) if c)
        f = self.field
        n1 = f.q - 1
        shifts = np.arange(n1, dtype=np.int64)[:, None]
        logs = (f.log_table[[raw[i] for i in support]]
                + shifts * np.array(self._scaling_logs(support))) % n1
        out = np.zeros((n1, len(raw)), dtype=np.int64)
        out[:, support] = f.exp_table[logs]
        return out

    def representatives(self, raw) -> list[tuple[int, ...]]:
        """All GF(q)-rational tuples representing the same point as raw."""
        return [tuple(row) for row in self._orbit(raw).tolist()]

    def orbit_size(self, raw) -> int:
        """Number of distinct rational representative tuples (q - 1).

        `_scaling_logs` divides the support weights by their gcd with the
        p-part removed, which leaves the scaling logs a gcd coprime to q - 1,
        so only the identity scaling fixes raw.
        """
        self._checked([tuple(raw)])
        return self.q - 1

    def canonicalize(self, raw) -> WeightedPoint:
        """Lexicographically least representative, under the index order."""
        (row,) = self.canonicalize_many([tuple(raw)]).tolist()
        return WeightedPoint(tuple(row))

    def canonicalize_many(self, coords) -> np.ndarray:
        """The canonical representative of each row of coords, an (N, m+1)
        array of field elements, in row order: the rows of one support walk
        its chain together, each link taking a column's shifted log to the
        least of its coset and shifting the later columns to match."""
        rows = self._checked(coords)
        n1 = self.q - 1
        bits = (rows != 0) @ (1 << np.arange(len(self.ws)))
        for code in np.bincount(bits).nonzero()[0].tolist():
            at = bits == code
            support = tuple(i for i in range(len(self.ws)) if code >> i & 1)
            logs = self.field.log_table[rows[at][:, support]]
            for j, (i, (width, move, min_log, minima)) in enumerate(
                    zip(support, self._chain(support))):
                lx = logs[:, j] % n1
                r = lx % width
                rows[at, i] = minima[r]
                if j + 1 < len(support):  # the last link shifts nothing left
                    logs += (min_log[r] - lx)[:, None] // width * np.array(move)
        return rows

    # -- enumeration ------------------------------------------------------------

    def point_coords(self, tuple_budget: int | None = None) -> np.ndarray:
        """All canonical points as a read-only (n, m+1) index array, lex
        ascending, shared by every space with the same width table.

        A call given a tuple_budget refuses before any work starts when the
        array's p_m (m+1) entries exceed it; a call given none checks none.
        """
        f = self.field
        npos = len(self.ws)
        entries = self.expected_point_count * npos
        if tuple_budget is not None and entries > tuple_budget:
            raise BudgetExceeded(
                f"enumerating P{self.ws.weights} over GF({f.q}) builds "
                f"{self.expected_point_count} points of {npos} coordinates, "
                f"{entries} array entries, over the tuple budget of "
                f"{tuple_budget}")
        return _canonical_points(f, _width_table(self.ws.weights, f))

    def stratum_sizes(self) -> list[int]:
        """Point counts of the strata W_i (first nonzero coordinate = i)."""
        coords = self.point_coords()
        return np.bincount((coords != 0).argmax(axis=1),
                           minlength=len(self.ws)).tolist()

    def __repr__(self):
        return f"P{self.ws.weights} over {self.field!r}"


@shared
def projective_space(weights: tuple, field: FiniteField) -> WeightedProjectiveSpace:
    return WeightedProjectiveSpace(WeightSystem(weights), field)


def space(ws, field: FiniteField) -> WeightedProjectiveSpace:
    """Cached space accessor; ws may be a sequence or WeightSystem.  Only a
    cache miss builds (and so validates) a WeightSystem."""
    weights = ws.weights if isinstance(ws, WeightSystem) else _int_weights(ws)
    return projective_space(weights, field)


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

    @functools.cached_property
    def reduced(self) -> WeightSystem:
        # Built once per step: not a field, so equality and hash ignore it.
        return WeightSystem(tuple(
            a if j == self.index else a // self.b
            for j, a in enumerate(self.source)))

    def map_points(self, field: FiniteField, coords) -> np.ndarray:
        """The canonical images in P(reduced) of the rows of coords, which
        must be points of P(source), refused as `canonicalize_many` refuses."""
        out = space(self.source, field)._checked(coords)
        out[:, self.index] = field.pow_arr(out[:, self.index], self.b)
        return space(self.reduced, field).canonicalize_many(out)

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
