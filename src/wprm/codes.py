"""Reed-Muller, projective Reed-Muller and weighted projective Reed-Muller
codes: generator matrices, exact parameters, and performance comparisons.

Every kind is an evaluation code of S_d on a weighted projective space, built
by one path.  Generator matrices are reproducible bit for bit: rows follow the
lex monomial basis, columns the canonical point enumeration (for projective
points this is the "first nonzero coordinate equals 1" convention).  RM_q(d, m)
is PRM_q(d, m) read on the chart x_0 != 0 of P^m: its columns are the q^m
points (1, y), y in lex order, and its rows the degree-d monomials in the lex
order of their X_1..X_m exponents; a polynomial in y of degree <= d enters as
its homogenisation in X_0.

The minimum distance is only ever reported as exact when a formula with
verified hypotheses or an exhaustive enumeration produced it; otherwise an
explicit witness codeword certifies an upper bound.  `code_parameters` is the
one route to a d_min: it checks the formula against the witness, returns the
formula where the method allows it, and otherwise makes its single exhaustive
call, whose over-budget refusal falls back to the witness under "auto" only.
The exhaustive enumeration is the max-zeros sweep: d_min = n - (most zeros of
a nonzero codeword).  It sweeps the independent rows of the generator matrix
with their monomials' exponents, so it visits one codeword per torus orbit;
its budget bounds the visited tails.  One forward elimination per instance,
which stops at full row rank, picks those rows, and the dimension k is their
count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .finite_field import FiniteField
from .gflinalg import row_reduce
from .weighted_space import (BudgetExceeded, WeightSystem, as_weights,
                             delorme_normalize, space)
from .weighted_poly import (WeightedPolynomial, coefficient_vector,
                            monomial_basis, monomial_values)
from .zero_sets import (DEFAULT_CANDIDATE_BUDGET, _max_zeros_sweep,
                        lower_bound_witness, min_pair_lcm)

KINDS = ("rm", "prm", "wprm")
METHODS = ("auto", "formula", "exhaustive", "both")

F19_WEIGHT_SYSTEMS = ((1, 2, 2), (1, 2, 4), (1, 2, 8), (1, 4, 4), (1, 16, 16))


def evaluation_column(poly: WeightedPolynomial, coords) -> int:
    """The normalised evaluation F(x) / x_i^(d/a_i) at the coordinate row x
    of a point of poly's own space, i the row's first nonzero entry (its
    chart).  The row is refused as `WeightedProjectiveSpace` refuses rows.

    Independent of the chosen representative of the point, provided every
    weight divides the degree.
    """
    ws, field = poly.ws, poly.field
    (row,) = space(ws, field)._checked([coords]).tolist()
    i = next(j for j, c in enumerate(row) if c)
    if poly.degree % ws[i]:
        raise ValueError(
            f"weight a_{i} = {ws[i]} does not divide degree {poly.degree}")
    denom = field.pow(row[i], poly.degree // ws[i])
    (value,) = poly.evaluate_many([row]).tolist()
    return field.div(value, denom)


class CodeInstance:
    """A built evaluation code with its generator matrix."""

    def __init__(self, kind: str, field: FiniteField, m: int, d: int,
                 ws: WeightSystem, points: np.ndarray,
                 basis: list[tuple[int, ...]], normalizers: np.ndarray,
                 matrix: np.ndarray):
        self.kind = kind
        self.field = field
        self.m = m
        self.d = d
        self.ws = ws
        self.points = points
        self.basis = basis
        self.normalizers = normalizers
        self.matrix = matrix

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def q(self) -> int:
        return self.field.q

    @cached_property
    def rows(self) -> np.ndarray:
        """Read-only ascending indices of rows of the generator matrix that
        are a basis of the code; computed once per instance."""
        rows, _ = row_reduce(self.matrix, self.field)
        rows.setflags(write=False)
        return rows

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __repr__(self):
        tag = f"; {self.ws.weights}" if self.kind != "rm" else ""
        return (f"CodeInstance({self.kind.upper()}_{self.q}"
                f"({self.d},{self.m}{tag}), n={self.n})")


def build_code(kind: str, field: FiniteField, m: int, d: int,
               weights=None) -> CodeInstance:
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    q = field.q
    if kind == "wprm":
        if weights is None:
            raise ValueError("weighted codes need a weight system")
        ws = as_weights(weights)
        if ws.m != m:
            raise ValueError(f"weights {ws} do not match dimension {m}")
        if d % ws.lcm:
            raise ValueError(
                f"degree {d} is not a multiple of lcm{ws.weights} = {ws.lcm}")
    else:
        if weights is not None:
            plain = "plain" if kind == "rm" else "projective"
            raise ValueError(f"{plain} Reed-Muller codes take no weights")
        ws = WeightSystem((1,) * (m + 1))
    points = space(ws, field).point_coords()
    basis = monomial_basis(ws, d)
    if kind == "rm":
        points = points[points[:, 0] != 0]
        basis.sort(key=lambda exps: exps[1:])
    # Column j is divided by x_c^(d/a_c), c the first nonzero coordinate
    # of point j (1 for RM and PRM, whose points lead with a 1): the
    # evaluation adds the normaliser's log to every entry of the column.
    chart = (points != 0).argmax(axis=1)
    powers = d // np.array(ws.weights)[chart]
    leading = points[np.arange(len(points)), chart]
    log_norm = -powers * field.log_table[leading] % (q - 1)
    if d > (q - 1 if kind == "rm" else q):
        sign = ">=" if kind == "rm" else ">"
        warnings.warn(f"{kind.upper()} with d = {d} {sign} q = {q}: the "
                      f"evaluation map need not be injective; dimension "
                      f"is the matrix rank")
    matrix = monomial_values(field, points, basis, log_norm)
    return CodeInstance(kind, field, m, d, ws, points, basis,
                        field.exp_table[log_norm], matrix)


def encode(inst: CodeInstance, poly) -> np.ndarray:
    """Codeword of a weighted homogeneous polynomial of the code's degree
    (on P(1, ..., 1) for RM and PRM).

    The codeword is the coefficient vector over the basis times the generator
    matrix, whose columns already carry the normalisers.
    """
    if not isinstance(poly, WeightedPolynomial):
        raise TypeError("codes encode weighted polynomials")
    if poly.ws != inst.ws or poly.degree != inst.d:
        raise ValueError("polynomial does not match the code's graded piece")
    if poly.field != inst.field:
        raise ValueError(f"the polynomial lives over {poly.field!r}, not "
                         f"over the code's {inst.field!r}")
    index = {exps: i for i, exps in enumerate(inst.basis)}
    return inst.field.matmul(coefficient_vector(poly, index), inst.matrix)


# -- parameters -----------------------------------------------------------------------


@dataclass(frozen=True)
class CodeParameters:
    n: int
    k: int
    d_min: int
    d_min_source: str        # "formula" | "exhaustive" | "witness-upper-bound"
    witness_weight: int | None

    @property
    def exact(self) -> bool:
        return self.d_min_source != "witness-upper-bound"

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    @property
    def rel_distance(self) -> Fraction:
        return Fraction(self.d_min, self.n)

    @property
    def lam(self) -> Fraction:
        return Fraction(self.k + self.d_min, self.n)

    def triple(self) -> tuple[int, int, int]:
        return (self.n, self.k, self.d_min)


def min_distance_formula(inst: CodeInstance) -> tuple[int | None, str]:
    """Formula value with hypotheses verified, or (None, reason)."""
    q, m, d = inst.q, inst.m, inst.d
    if inst.kind == "rm":
        if d < q:
            return (q - d) * q ** (m - 1), ""
        return None, f"needs d < q (d={d}, q={q})"
    if d < 1:
        return None, "needs d >= 1 (degree 0 gives the repetition code)"
    if inst.kind == "prm":
        if d <= q:
            return (q - d + 1) * q ** (m - 1), ""
        return None, f"needs d <= q (d={d}, q={q})"
    if m != 2:
        return None, "exact distance formula is only established for planes"
    ws, dd = inst.ws, d
    for step in delorme_normalize(ws):
        if dd % step.b:
            return None, "degree does not survive weight reduction"
        ws, dd = step.reduced, dd // step.b
    w = sorted(ws.weights)
    if w[0] != 1:
        return None, f"reduced weights {tuple(w)} have no unit weight"
    a1, a2 = w[1], w[2]
    if dd % math.lcm(a1, a2):
        return None, "reduced degree not a multiple of lcm(a1, a2)"
    if dd // a1 > q:
        return None, f"needs d/a1 <= q after reduction (got {dd // a1})"
    return (q - dd // a1 + 1) * q ** (m - 1), ""


def min_distance_witness(inst: CodeInstance):
    """(codeword, weight, polynomial) certifying d_min <= weight, or None."""
    q, d, f = inst.q, inst.d, inst.field
    if inst.kind == "rm":
        if d >= q or d == 0:
            return None
        # prod_{c < d} (X_1 - c X_0), zero on the d hyperplanes y_1 = c.
        poly = lower_bound_witness(inst.ws, d, f, pair=(1, 0),
                                   line_points=[(1, c) for c in range(d)])
    else:
        a, _ = min_pair_lcm(inst.ws)
        if d % a or d // a > q:
            return None
        poly = lower_bound_witness(inst.ws, d, f)
    cw = encode(inst, poly)
    weight = int(np.count_nonzero(cw))
    if weight == 0:
        return None
    return cw, weight, poly


def min_distance_exhaustive(inst: CodeInstance, *,
                            budget: int = DEFAULT_CANDIDATE_BUDGET,
                            jobs=None) -> int:
    """Exact minimum Hamming weight by sweeping one codeword per torus orbit.

    The sweep runs on the independent rows of the generator matrix with
    their exponents.  Each row is one monomial's normalised evaluation, so
    the torus scales each row by its own character and permutes the points,
    which keeps every weight; and independent rows make coefficient vectors
    and codewords correspond one to one.
    """
    rows = inst.rows
    if len(rows) == 0:
        raise ValueError("the zero code has no minimum distance")
    best, *_ = _max_zeros_sweep(inst.matrix[rows], inst.field,
                                exponents=[inst.basis[i] for i in rows],
                                stop_at=inst.n - 1, budget=budget, jobs=jobs)
    return inst.n - best


def code_parameters(inst: CodeInstance, method: str = "auto", *,
                    budget: int = DEFAULT_CANDIDATE_BUDGET,
                    jobs=None) -> CodeParameters:
    """n, k from the built matrix; d_min by formula, exhaustive sweep, or witness.

    The formula (hypotheses verified) and the witness are computed first and
    must agree.  "formula" and "both" are refused when no formula applies;
    "formula", and "auto" when one applies, return it.  Every other answer
    comes from the one exhaustive sweep within budget: "both" insists that it
    equals the formula, and only "auto" falls back to the witness upper
    bound when the sweep is over budget.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    n, k = inst.n, inst.rank
    formula, reason = min_distance_formula(inst)
    wit = min_distance_witness(inst)
    wit_weight = wit[1] if wit else None
    if formula is not None and wit_weight is not None and wit_weight != formula:
        raise AssertionError(
            f"witness weight {wit_weight} contradicts formula {formula}")
    if formula is None and method in ("formula", "both"):
        raise ValueError(f"distance formula inapplicable: {reason}")
    if formula is not None and method in ("formula", "auto"):
        return CodeParameters(n, k, formula, "formula", wit_weight)
    try:
        d_min = min_distance_exhaustive(inst, budget=budget, jobs=jobs)
    except BudgetExceeded:
        if method != "auto" or wit_weight is None:
            raise
        return CodeParameters(n, k, wit_weight, "witness-upper-bound",
                              wit_weight)
    if method == "both" and d_min != formula:
        raise AssertionError(
            f"formula {formula} disagrees with exhaustive {d_min}")
    return CodeParameters(n, k, d_min, "exhaustive", wit_weight)


# -- comparison tables ------------------------------------------------------------------


def truncate3(x: Fraction) -> str:
    """Decimal truncated (not rounded) to three places."""
    n = (x.numerator * 1000) // x.denominator
    return f"{n // 1000}.{n % 1000:03d}"


def lambda_display(x: Fraction) -> str:
    s = truncate3(x)
    return s if Fraction(s) == x else s + "..."


@dataclass(frozen=True)
class TableEntry:
    label: str
    kind: str
    weights: tuple[int, ...] | None
    q: int
    m: int
    d: int
    params: CodeParameters


def comparison_table(field: FiniteField, m: int, d: int,
                     weight_systems=F19_WEIGHT_SYSTEMS, *,
                     method: str = "auto",
                     budget: int = DEFAULT_CANDIDATE_BUDGET,
                     jobs=None) -> list[TableEntry]:
    """RM and PRM baselines plus one WPRM row per weight system."""
    q = field.q
    rows = [("rm", None), ("prm", None)]
    rows += [("wprm", as_weights(wsys).weights) for wsys in weight_systems]
    out = []
    for kind, weights in rows:
        inst = build_code(kind, field, m, d, weights)
        params = code_parameters(inst, method, budget=budget, jobs=jobs)
        tag = f";{','.join(map(str, weights))}" if weights else ""
        out.append(TableEntry(f"{kind.upper()}_{q}({d},{m}{tag})", kind,
                              weights, q, m, d, params))
    return out


@dataclass(frozen=True)
class ThresholdCheck:
    """One performance guarantee: lambda(WPRM) >= lambda(PRM) once q clears
    the threshold for weights (1, a, a*beta) in degree d = k*a*beta."""

    label: str
    a: int
    beta: int
    k: int
    threshold: Fraction
    holds: bool
    inequality_ok: bool | None


def lambda_threshold_checks(entries: list[TableEntry]) -> list[ThresholdCheck]:
    prm_lambda: dict[tuple[int, int, int], Fraction] = {}
    for ent in entries:
        if ent.kind == "prm":
            prm_lambda[(ent.q, ent.m, ent.d)] = ent.params.lam
    checks = []
    for ent in entries:
        if ent.kind != "wprm" or ent.m != 2:
            continue
        w = tuple(sorted(ent.weights))
        if w[0] != 1 or w[1] < 2 or w[2] % w[1]:
            continue
        a, beta = w[1], w[2] // w[1]
        if ent.d % (a * beta):
            continue
        k = ent.d // (a * beta)
        thr = Fraction(k * beta ** 2 * a ** 2 + 3 * beta * a - k * beta
                       - beta - 2, 2 * beta * (a - 1))
        holds = Fraction(ent.q) >= thr
        base = prm_lambda.get((ent.q, ent.m, ent.d))
        ok = None
        if holds and base is not None:
            ok = ent.params.lam >= base
        checks.append(ThresholdCheck(ent.label, a, beta, k, thr, holds, ok))
    return checks


def export_generator_matrix(inst: CodeInstance) -> str:
    """Plain-text matrix: header `q m d weights n k`, then one row per line."""
    wtxt = ",".join(map(str, inst.ws.weights)) if inst.kind != "rm" else "-"
    lines = [f"{inst.q} {inst.m} {inst.d} {wtxt} {inst.n} {inst.rank}"]
    for row in inst.matrix:
        lines.append(" ".join(str(int(c)) for c in row))
    return "\n".join(lines) + "\n"
