"""Command-line front end.

Subcommands: points, count-zeros, eq-search, family, lines, code, table,
verify.  Every number in a report comes from a library call; the CLI only
parses, dispatches and formats.  The argparse namespace is the only
configuration: the parser parses every option, weight and exponent lists
included, so a malformed one is a usage error, and each command reads its
own options from it (field sizes stay text for `field_from_spec`).  `verify`
gives each suite the given options that its signature takes.
Reports are deterministic for a fixed argument list and seed.  WPRM_JOBS
caps worker processes for the big sweeps (default: machine parallelism;
small sweeps always run serially).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys

from .finite_field import field_from_spec, shared
from .weighted_space import (BudgetExceeded, DEFAULT_TUPLE_BUDGET,
                             WeightedProjectiveSpace, as_weights,
                             format_point, singular_locus, space)
from .weighted_poly import format_polynomial, parse_polynomial
from .zero_sets import (DEFAULT_CANDIDATE_BUDGET, FamilySpec, PrimitivePair,
                        build_family, check_bounds, count_zeros,
                        count_zeros_affine, family_zero_count, max_zeros,
                        max_zeros_lower_bound)
from .plane_lines import LineSystem
from . import codes as codes_mod
from .verify import SUITES


def _parse_weights(text: str, kind: str = "weight") -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {kind} list {text!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _space_for(args) -> WeightedProjectiveSpace:
    """The shared space, refused up front when its point array is over the
    CLI's tuple budget.  This is the one check of it: the library's later
    reads of the point array state no budget of their own."""
    sp = space(args.weights, field_from_spec(args.q))
    sp.point_coords(tuple_budget=args.tuple_budget)
    return sp


# -- points ---------------------------------------------------------------------------

# Points converted to Python lists at a time: larger chunks were no faster
# and raised the peak RSS by the size of their lists.
_CSV_ROWS = 64


def cmd_points(args) -> int:
    sp = _space_for(args)
    coords = sp.point_coords()
    expected = sp.expected_point_count
    sing = None
    if args.singular:
        report = singular_locus(sp.ws, allow_non_well_formed=True)
        sing = {"sigma": list(report.sigma),
                "components": {str(p): list(ix)
                               for p, ix in report.components.items()},
                "dimensions": {str(p): d
                               for p, d in report.dimensions.items()},
                "well_formed": sp.ws.is_well_formed()}
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([f"x{i}" for i in range(len(sp.ws))])
        for lo in range(0, len(coords), _CSV_ROWS):
            w.writerows(coords[lo:lo + _CSV_ROWS].tolist())
        _emit(buf.getvalue(), args.out)
    elif args.format == "json":
        payload = {"weights": list(sp.ws.weights), "q": sp.q,
                   "count": int(coords.shape[0]), "expected": expected,
                   "char_divides_weight": sp.char_divides_weight,
                   "points": coords.tolist(),
                   "singular": sing, "seed": None}
        _emit(_json(payload), args.out)
    else:
        lines = [format_point(row) for row in coords.tolist()]
        lines.append(f"count={coords.shape[0]} expected={expected} "
                     f"char_divides_weight={sp.char_divides_weight}")
        if sing is not None:
            lines.append(f"singular locus: sigma={sing['sigma']} "
                         f"components={sing['components']} "
                         f"(well_formed={sing['well_formed']})")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if coords.shape[0] == expected else 1


# -- count-zeros ------------------------------------------------------------------------


def cmd_count_zeros(args) -> int:
    if args.sharp and not args.bounds:
        raise ValueError("--sharp tests the bounds, so it needs --bounds")
    if args.budget is not None and not args.sharp:
        raise ValueError("--budget bounds the sharpness search, so it "
                         "needs --sharp")
    sp = _space_for(args)
    poly = parse_polynomial(args.poly, sp.ws, sp.field)
    value = count_zeros(poly, sp)
    payload = {"weights": list(sp.ws.weights), "q": sp.q, "d": poly.degree,
               "value": value, "seed": None,
               "polynomial": format_polynomial(poly)}
    if sp.ws[0] == 1:
        payload["affine_value"] = count_zeros_affine(poly, sp)
    if args.bounds:
        budget = None
        if args.sharp:
            budget = (DEFAULT_CANDIDATE_BUDGET if args.budget is None
                      else args.budget)
        payload["bounds"] = [
            {"name": r.name, "value": r.value, "bound": r.bound,
             "satisfied": r.satisfied, "sharp": r.sharp}
            for r in check_bounds(poly, sp, oracle_budget=budget)]
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        lines = [f"|V(F)| = {value} on P{sp.ws.weights}(F_{sp.q}), "
                 f"degree {poly.degree}"]
        if "affine_value" in payload:
            lines.append(f"affine zeros = {payload['affine_value']}")
        for r in payload.get("bounds", []):
            lines.append(f"bound {r['name']}: {r['value']} <= {r['bound']} "
                         f"satisfied={r['satisfied']} sharp={r['sharp']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- eq-search ---------------------------------------------------------------------------


def cmd_eq_search(args) -> int:
    fq = field_from_spec(args.q)
    ws = as_weights(args.weights)
    result = max_zeros(ws, fq, args.d, budget=args.budget, jobs=args.jobs)
    payload = {"weights": list(ws.weights), "d": args.d, "q": fq.q,
               "defined": result.defined,
               "value": result.value,
               "candidates": result.candidates,
               "visited": result.visited,
               "witness_polynomial": (format_polynomial(result.witness)
                                      if result.witness else None),
               "lower_bound": max_zeros_lower_bound(ws, args.d, fq.q),
               "seed": None}
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        if not result.defined:
            _emit(f"max zeros undefined: no monomials of degree "
                  f"{args.d} on P{ws.weights}\n", args.out)
        else:
            _emit(f"max zeros = {result.value} over {result.candidates} "
                  f"candidate classes ({result.visited} tails visited) on "
                  f"P{ws.weights}(F_{fq.q}), degree {args.d}\nwitness: "
                  f"{format_polynomial(result.witness)}\n"
                  f"lower bound: {payload['lower_bound']}\n", args.out)
    return 0


# -- family ------------------------------------------------------------------------------


def cmd_family(args) -> int:
    fq = field_from_spec(args.q)
    ws = as_weights(args.weights)
    if args.ell is not None and args.ell < 0:
        raise ValueError(f"--ell counts factors, so it is >= 0, got "
                         f"{args.ell}")
    if args.t and args.ell is not None and args.ell != len(args.t):
        raise ValueError(f"--ell {args.ell} does not match the {len(args.t)} "
                         f"values of --t")
    pair = PrimitivePair(args.m0, args.m1)
    t = args.t or tuple(range(1, (args.ell or 0) + 1))
    mu0 = args.mu0 or (0,) * len(ws)
    mu1 = args.mu1 or (0,) * len(ws)
    spec = FamilySpec(pair, t, mu0, mu1)
    poly = build_family(spec, ws, fq)
    sp = space(ws, fq)
    brute = count_zeros(poly, sp)
    closed = family_zero_count(spec, ws, fq.q)
    payload = {"weights": list(ws.weights), "q": fq.q,
               "d": poly.degree, "ell": spec.ell,
               "signature": [pair.s0, pair.s1],
               "sigma": [spec.sigma0, spec.sigma1],
               "t": list(t),
               "polynomial": format_polynomial(poly),
               "count": brute, "closed_form": closed,
               "agree": brute == closed, "seed": None}
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        _emit(f"F = {payload['polynomial']}\ndegree {poly.degree}, "
              f"signature ({pair.s0},{pair.s1}), sigma "
              f"({spec.sigma0},{spec.sigma1}), ell={spec.ell}\n"
              f"zeros: counted {brute}, closed form {closed}, "
              f"agree={brute == closed}\n", args.out)
    return 0 if brute == closed else 1


# -- lines --------------------------------------------------------------------------------


def cmd_lines(args) -> int:
    sp = _space_for(args)
    ls = LineSystem(sp)
    lines = ls.lines()
    by_type = {str(kind): sum(1 for l in lines if l.kind == kind)
               for kind in (0, 1, 2)}
    payload = {"weights": list(sp.ws.weights), "q": sp.q,
               "catalog": len(lines), "by_type": by_type,
               "seed": args.seed}
    rc = 0
    if args.check:
        from .verify import suite_lines
        res = suite_lines(qs=(sp.q,), weight_systems=[sp.ws.weights],
                          seed=args.seed)
        payload["checks"] = res.checks
        payload["failures"] = res.failures
        rc = 0 if res.ok else 1
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        out = [f"P{sp.ws.weights}(F_{sp.q}): {len(lines)} lines "
               f"({by_type['0']} at infinity, {by_type['1']} vertical, "
               f"{by_type['2']} others)"]
        if args.check:
            out.append(f"incidence suite: {payload['checks']} checks, "
                       f"{len(payload['failures'])} failures "
                       f"(seed={args.seed})")
            out += [f"  counterexample: {f}" for f in payload["failures"]]
        _emit("\n".join(out) + "\n", args.out)
    return rc


# -- code ---------------------------------------------------------------------------------


def cmd_code(args) -> int:
    fq = field_from_spec(args.q)
    inst = codes_mod.build_code(args.kind, fq, args.m, args.d, args.weights)
    params = codes_mod.code_parameters(inst, args.method, budget=args.budget,
                                       jobs=args.jobs)
    payload = {"kind": args.kind, "q": fq.q, "m": args.m, "d": args.d,
               "weights": list(args.weights) if args.weights else None,
               "n": params.n, "k": params.k, "d_min": params.d_min,
               "d_min_source": params.d_min_source,
               "d_min_exact": params.exact,
               "witness_weight": params.witness_weight,
               "rate": str(params.rate),
               "relative_distance": str(params.rel_distance),
               "lambda": str(params.lam),
               "lambda_display": codes_mod.lambda_display(params.lam),
               "seed": None}
    if args.matrix_out:
        with open(args.matrix_out, "w") as fh:
            fh.write(codes_mod.export_generator_matrix(inst))
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        tag = "" if params.exact else " (upper bound only)"
        _emit(f"[{params.n},{params.k},{params.d_min}]_{fq.q}{tag} via "
              f"{params.d_min_source}; lambda = "
              f"{codes_mod.lambda_display(params.lam)} = {params.lam}\n",
              args.out)
    return 0


# -- table ---------------------------------------------------------------------------------


def table_csv(entries) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["kind", "weights", "q", "d", "n", "k", "d_min",
                "lambda", "lambda_exact"])
    for ent in entries:
        p = ent.params
        w.writerow([ent.kind.upper(),
                    ",".join(map(str, ent.weights)) if ent.weights else "",
                    ent.q, ent.d, p.n, p.k, p.d_min,
                    codes_mod.truncate3(p.lam), str(p.lam)])
    return buf.getvalue()


def cmd_table(args) -> int:
    custom = args.q is not None or args.d is not None or args.weights
    if args.f19 and custom:
        raise ValueError("--f19 is the fixed reference table; it takes no "
                         "--q/--d/--weights overrides")
    q, d = (args.q, args.d) if custom else ("19", 16)
    if q is None or d is None:
        raise ValueError("table needs both --q and --d (or no arguments for "
                         "the reference table)")
    fq = field_from_spec(q)
    systems = args.weights or codes_mod.F19_WEIGHT_SYSTEMS
    entries = codes_mod.comparison_table(fq, args.m, d, systems,
                                         method=args.method,
                                         budget=args.budget, jobs=args.jobs)
    checks = codes_mod.lambda_threshold_checks(entries)
    if args.format == "csv":
        _emit(table_csv(entries), args.out)
    elif args.format == "json":
        payload = {"q": fq.q, "d": d, "m": args.m, "seed": None,
                   "rows": [{"label": e.label, "kind": e.kind,
                             "weights": list(e.weights) if e.weights else None,
                             "n": e.params.n, "k": e.params.k,
                             "d_min": e.params.d_min,
                             "d_min_source": e.params.d_min_source,
                             "lambda": str(e.params.lam),
                             "lambda_display":
                                 codes_mod.lambda_display(e.params.lam)}
                            for e in entries],
                   "threshold_checks": [
                       {"label": c.label, "a": c.a, "beta": c.beta, "k": c.k,
                        "threshold": str(c.threshold), "holds": c.holds,
                        "inequality_ok": c.inequality_ok} for c in checks]}
        _emit(_json(payload), args.out)
    else:
        rows = [f"{e.label:30s} [{e.params.n},{e.params.k},{e.params.d_min}]"
                f"  lambda = {codes_mod.lambda_display(e.params.lam):10s}"
                f" ({e.params.d_min_source})" for e in entries]
        rows.append("")
        for c in checks:
            rows.append(f"threshold for {c.label}: q >= {c.threshold} "
                        f"holds={c.holds} lambda_ok={c.inequality_ok}")
        _emit("\n".join(rows) + "\n", args.out)
    bad = [c for c in checks if c.holds and c.inequality_ok is False]
    return 1 if bad else 0


# -- verify -----------------------------------------------------------------------------------


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else args.suite.split(",")
    if args.per_bound is not None and args.per_bound < 1:
        raise ValueError(f"--per-bound counts polynomials per bound, so it "
                         f"is >= 1, got {args.per_bound}")
    given = {"qs": args.q,
             "seed": args.seed,
             "per_bound": args.per_bound,
             "max_weight": args.max_weight}
    rc = 0
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: "
                             f"{', '.join(SUITES)}")
        # inspect.signature follows __wrapped__: a traced suite takes the same.
        suite = SUITES[name]
        takes = inspect.signature(suite).parameters
        res = suite(**{opt: value for opt, value in given.items()
                       if value is not None and opt in takes})
        print(res.summary())
        for f in res.failures:
            print(f"  counterexample: {f}")
        rc |= 0 if res.ok else 1
    return rc


# -- parser -------------------------------------------------------------------------------------

# The run options, each added only to the subcommands that read it.
KNOBS = {
    "budget": dict(type=int, default=DEFAULT_CANDIDATE_BUDGET, help=(
        "cap on the tails a sweep visits, checked before it starts")),
    "tuple-budget": dict(type=int, default=DEFAULT_TUPLE_BUDGET,
                         help="cap on the entries of the point array, "
                              "p_m points times m+1 coordinates"),
    "jobs": dict(type=int, default=None),
    "seed": dict(type=int, default=0),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wprm",
        description="weighted projective spaces over finite fields and "
                    "weighted projective Reed-Muller codes")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, *knobs, weights=True, degree=False, fmt=("text", "json")):
        p.add_argument("--q", required=True, help="field size, q or p^e")
        if weights:
            p.add_argument("--weights", required=True, type=_parse_weights)
        if degree:
            p.add_argument("--d", required=True, type=int)
        p.add_argument("--format", choices=fmt, default=fmt[0])
        p.add_argument("--out")
        for name in knobs:
            p.add_argument(f"--{name}", **KNOBS[name])

    p = sub.add_parser("points", help="enumerate canonical points")
    common(p, "tuple-budget", fmt=("text", "csv", "json"))
    p.add_argument("--singular", action="store_true",
                   help="append the singular-locus report")
    p.set_defaults(fn=cmd_points)

    p = sub.add_parser("count-zeros", help="count zeros of a polynomial")
    common(p, "tuple-budget")
    p.add_argument("--budget", type=int, help=(
        "cap on the tails the --sharp search visits (default "
        f"{DEFAULT_CANDIDATE_BUDGET})"))
    p.add_argument("--poly", required=True,
                   help="polynomial text, e.g. '1*X0^2*X1 + 3*X2'")
    p.add_argument("--bounds", action="store_true")
    p.add_argument("--sharp", action="store_true",
                   help="also test bound sharpness via the exhaustive search")
    p.set_defaults(fn=cmd_count_zeros)

    p = sub.add_parser("eq-search",
                       help="exhaustive maximum zero count over a degree")
    common(p, "budget", "jobs", degree=True)
    p.set_defaults(fn=cmd_eq_search)

    p = sub.add_parser("family", help="build a product family polynomial")
    common(p)
    p.add_argument("--m0", required=True, type=_parse_weights,
                   help="exponents of M0, e.g. 1,1,0")
    p.add_argument("--m1", required=True, type=_parse_weights,
                   help="exponents of M1")
    p.add_argument("--ell", type=int,
                   help="number of factors, t = 1..ell (default 0, or the "
                        "length of --t)")
    p.add_argument("--t", type=_parse_weights,
                   help="explicit distinct nonzero t values")
    p.add_argument("--mu0", type=_parse_weights,
                   help="exponents of mu0 (default constant)")
    p.add_argument("--mu1", type=_parse_weights,
                   help="exponents of mu1 (default constant)")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("lines", help="line catalog of a weighted plane")
    common(p, "tuple-budget", "seed")
    p.add_argument("--check", action="store_true",
                   help="run the full incidence suite")
    p.set_defaults(fn=cmd_lines)

    p = sub.add_parser("code", help="build a code and report its parameters")
    common(p, "budget", "jobs", weights=False, degree=True)
    p.add_argument("--kind", choices=codes_mod.KINDS, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--weights", type=_parse_weights,
                   help="weight system (wprm only)")
    p.add_argument("--method", choices=codes_mod.METHODS, default="auto")
    p.add_argument("--matrix-out", help="write the generator matrix here")
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("table", help="RM/PRM/WPRM comparison table")
    p.add_argument("--f19", action="store_true",
                   help="the F_19, degree-16 reference table (the default)")
    p.add_argument("--q", default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--weights", action="append", type=_parse_weights,
                   help="weight system, repeatable")
    p.add_argument("--method", choices=codes_mod.METHODS, default="auto")
    p.add_argument("--format", choices=("csv", "text", "json"), default="csv")
    p.add_argument("--out")
    for name in ("budget", "jobs"):
        p.add_argument(f"--{name}", **KNOBS[name])
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   help=f"comma list from: {', '.join(SUITES)} (or 'all')")
    p.add_argument("--q", type=lambda text: _parse_weights(text, "field"),
                   help="comma list of field sizes")
    p.add_argument("--seed", **KNOBS["seed"])
    p.add_argument("--per-bound", type=int, default=None)
    p.add_argument("--max-weight", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return ap


@shared
def _parser() -> argparse.ArgumentParser:
    # Building the tree costs about 3 ms, and parsing leaves no state on it.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
