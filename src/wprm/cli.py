"""Command-line front end.

Subcommands: points, count-zeros, eq-search, family, lines, code, table,
verify.  Every number in a report comes from a library call; the CLI only
parses, dispatches and formats.  Reports are deterministic for a fixed
argument list and seed.  WPRM_JOBS caps worker processes for the big sweeps
(default: machine parallelism; small sweeps always run serially).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from dataclasses import dataclass

from .finite_field import field_from_spec
from .weighted_space import (BudgetExceeded, DEFAULT_TUPLE_BUDGET,
                             WeightedProjectiveSpace, as_weights,
                             singular_locus, space)
from .weighted_poly import format_polynomial, parse_polynomial
from .zero_sets import (DEFAULT_CANDIDATE_BUDGET, FamilySpec, PrimitivePair,
                        build_family, check_bounds, count_zeros,
                        count_zeros_affine, family_zero_count, max_zeros,
                        max_zeros_lower_bound)
from .plane_lines import LineSystem
from . import codes as codes_mod
from .verify import SUITES

F19_PRESET = {"q": "19", "d": 16,
              "weights": [",".join(map(str, w))
                          for w in codes_mod.F19_WEIGHT_SYSTEMS]}


@dataclass
class RunConfig:
    """Parsed invocation: everything a report needs for reproducibility."""

    subcommand: str
    field_spec: str | None = None
    weights: tuple[int, ...] | None = None
    degree: int | None = None
    candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
    tuple_budget: int = DEFAULT_TUPLE_BUDGET
    out: str | None = None
    fmt: str = "text"
    seed: int = 0
    jobs: int | None = None


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad weight list {text!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _space_for(cfg: RunConfig) -> WeightedProjectiveSpace:
    """The shared cached space, enumerated up front under the CLI's budget;
    the budget is an argument of the call, never state on the space."""
    sp = space(cfg.weights, field_from_spec(cfg.field_spec))
    sp.point_coords(tuple_budget=cfg.tuple_budget)
    return sp


# -- points ---------------------------------------------------------------------------


def cmd_points(cfg: RunConfig, args) -> int:
    sp = _space_for(cfg)
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
    if cfg.fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([f"x{i}" for i in range(len(sp.ws))])
        for row in coords:
            w.writerow([int(c) for c in row])
        _emit(buf.getvalue(), cfg.out)
    elif cfg.fmt == "json":
        payload = {"weights": list(sp.ws.weights), "q": sp.q,
                   "count": int(coords.shape[0]), "expected": expected,
                   "char_divides_weight": sp.char_divides_weight,
                   "points": [[int(c) for c in row] for row in coords],
                   "singular": sing, "seed": None}
        _emit(_json(payload), cfg.out)
    else:
        lines = [str(p) for p in sp.points()]
        lines.append(f"count={coords.shape[0]} expected={expected} "
                     f"char_divides_weight={sp.char_divides_weight}")
        if sing is not None:
            lines.append(f"singular locus: sigma={sing['sigma']} "
                         f"components={sing['components']} "
                         f"(well_formed={sing['well_formed']})")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0 if coords.shape[0] == expected else 1


# -- count-zeros ------------------------------------------------------------------------


def cmd_count_zeros(cfg: RunConfig, args) -> int:
    sp = _space_for(cfg)
    poly = parse_polynomial(args.poly, sp.ws, sp.field)
    value = count_zeros(poly, sp)
    payload = {"weights": list(sp.ws.weights), "q": sp.q, "d": poly.degree,
               "value": value, "seed": None,
               "polynomial": format_polynomial(poly)}
    if sp.ws[0] == 1:
        payload["affine_value"] = count_zeros_affine(poly, sp)
    if args.bounds:
        budget = cfg.candidate_budget if args.sharp else None
        payload["bounds"] = [
            {"name": r.name, "value": r.value, "bound": r.bound,
             "satisfied": r.satisfied, "sharp": r.sharp}
            for r in check_bounds(poly, sp, oracle_budget=budget)]
    if cfg.fmt == "json":
        _emit(_json(payload), cfg.out)
    else:
        lines = [f"|V(F)| = {value} on P{sp.ws.weights}(F_{sp.q}), "
                 f"degree {poly.degree}"]
        if "affine_value" in payload:
            lines.append(f"affine zeros = {payload['affine_value']}")
        for r in payload.get("bounds", []):
            lines.append(f"bound {r['name']}: {r['value']} <= {r['bound']} "
                         f"satisfied={r['satisfied']} sharp={r['sharp']}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


# -- eq-search ---------------------------------------------------------------------------


def cmd_eq_search(cfg: RunConfig, args) -> int:
    fq = field_from_spec(cfg.field_spec)
    ws = as_weights(cfg.weights)
    result = max_zeros(ws, fq, cfg.degree, budget=cfg.candidate_budget,
                       jobs=cfg.jobs)
    payload = {"weights": list(ws.weights), "d": cfg.degree, "q": fq.q,
               "defined": result.defined,
               "value": result.value,
               "candidates": result.candidates,
               "witness_polynomial": (format_polynomial(result.witness)
                                      if result.witness else None),
               "lower_bound": max_zeros_lower_bound(ws, cfg.degree, fq.q),
               "seed": None}
    if cfg.fmt == "json":
        _emit(_json(payload), cfg.out)
    else:
        if not result.defined:
            _emit(f"max zeros undefined: no monomials of degree "
                  f"{cfg.degree} on P{ws.weights}\n", cfg.out)
        else:
            _emit(f"max zeros = {result.value} over {result.candidates} "
                  f"candidate classes on P{ws.weights}(F_{fq.q}), degree "
                  f"{cfg.degree}\nwitness: "
                  f"{format_polynomial(result.witness)}\n"
                  f"lower bound: {payload['lower_bound']}\n", cfg.out)
    return 0


# -- family ------------------------------------------------------------------------------


def cmd_family(cfg: RunConfig, args) -> int:
    fq = field_from_spec(cfg.field_spec)
    ws = as_weights(cfg.weights)
    pair = PrimitivePair(_parse_weights(args.m0), _parse_weights(args.m1))
    if args.t:
        t = _parse_weights(args.t)
    else:
        t = tuple(range(1, args.ell + 1))
    mu0 = _parse_weights(args.mu0) if args.mu0 else (0,) * len(ws)
    mu1 = _parse_weights(args.mu1) if args.mu1 else (0,) * len(ws)
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
    if cfg.fmt == "json":
        _emit(_json(payload), cfg.out)
    else:
        _emit(f"F = {payload['polynomial']}\ndegree {poly.degree}, "
              f"signature ({pair.s0},{pair.s1}), sigma "
              f"({spec.sigma0},{spec.sigma1}), ell={spec.ell}\n"
              f"zeros: counted {brute}, closed form {closed}, "
              f"agree={brute == closed}\n", cfg.out)
    return 0 if brute == closed else 1


# -- lines --------------------------------------------------------------------------------


def cmd_lines(cfg: RunConfig, args) -> int:
    sp = _space_for(cfg)
    ls = LineSystem(sp)
    lines = ls.lines()
    by_type = {str(kind): sum(1 for l in lines if l.kind == kind)
               for kind in (0, 1, 2)}
    payload = {"weights": list(sp.ws.weights), "q": sp.q,
               "catalog": len(lines), "by_type": by_type,
               "seed": cfg.seed}
    rc = 0
    if args.check:
        from .verify import suite_lines
        res = suite_lines(qs=(sp.q,), weight_systems=[sp.ws.weights],
                          seed=cfg.seed)
        payload["checks"] = res.checks
        payload["failures"] = res.failures
        rc = 0 if res.ok else 1
    if cfg.fmt == "json":
        _emit(_json(payload), cfg.out)
    else:
        out = [f"P{sp.ws.weights}(F_{sp.q}): {len(lines)} lines "
               f"({by_type['0']} at infinity, {by_type['1']} vertical, "
               f"{by_type['2']} others)"]
        if args.check:
            out.append(f"incidence suite: {payload['checks']} checks, "
                       f"{len(payload['failures'])} failures "
                       f"(seed={cfg.seed})")
            out += [f"  counterexample: {f}" for f in payload["failures"]]
        _emit("\n".join(out) + "\n", cfg.out)
    return rc


# -- code ---------------------------------------------------------------------------------


def cmd_code(cfg: RunConfig, args) -> int:
    fq = field_from_spec(cfg.field_spec)
    inst = codes_mod.build_code(args.kind, fq, args.m, cfg.degree,
                                cfg.weights if args.kind == "wprm" else None)
    params = codes_mod.code_parameters(inst, args.method,
                                       budget=cfg.candidate_budget,
                                       jobs=cfg.jobs)
    payload = {"kind": args.kind, "q": fq.q, "m": args.m, "d": cfg.degree,
               "weights": list(cfg.weights) if cfg.weights else None,
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
    if cfg.fmt == "json":
        _emit(_json(payload), cfg.out)
    else:
        tag = "" if params.exact else " (upper bound only)"
        _emit(f"[{params.n},{params.k},{params.d_min}]_{fq.q}{tag} via "
              f"{params.d_min_source}; lambda = "
              f"{codes_mod.lambda_display(params.lam)} = {params.lam}\n",
              cfg.out)
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


def cmd_table(cfg: RunConfig, args) -> int:
    fq = field_from_spec(cfg.field_spec)
    systems = ([_parse_weights(w) for w in args.weights]
               if args.weights else codes_mod.F19_WEIGHT_SYSTEMS)
    entries = codes_mod.comparison_table(fq, args.m, cfg.degree, systems,
                                         method=args.method,
                                         budget=cfg.candidate_budget,
                                         jobs=cfg.jobs)
    checks = codes_mod.lambda_threshold_checks(entries)
    if cfg.fmt == "csv":
        _emit(table_csv(entries), cfg.out)
    elif cfg.fmt == "json":
        payload = {"q": fq.q, "d": cfg.degree, "m": args.m, "seed": None,
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
        _emit(_json(payload), cfg.out)
    else:
        rows = [f"{e.label:30s} [{e.params.n},{e.params.k},{e.params.d_min}]"
                f"  lambda = {codes_mod.lambda_display(e.params.lam):10s}"
                f" ({e.params.d_min_source})" for e in entries]
        rows.append("")
        for c in checks:
            rows.append(f"threshold for {c.label}: q >= {c.threshold} "
                        f"holds={c.holds} lambda_ok={c.inequality_ok}")
        _emit("\n".join(rows) + "\n", cfg.out)
    bad = [c for c in checks if c.holds and c.inequality_ok is False]
    return 1 if bad else 0


# -- verify -----------------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig, args) -> int:
    names = list(SUITES) if args.suite == "all" else args.suite.split(",")
    rc = 0
    for name in names:
        if name not in SUITES:
            print(f"unknown suite {name!r}; available: {', '.join(SUITES)}",
                  file=sys.stderr)
            return 2
        fn = SUITES[name]
        params = inspect.signature(fn).parameters
        kwargs = {}
        if args.q and "qs" in params:
            kwargs["qs"] = tuple(int(x) for x in args.q.split(","))
        if "seed" in params:
            kwargs["seed"] = cfg.seed
        if args.per_bound and "per_bound" in params:
            kwargs["per_bound"] = args.per_bound
        if args.max_weight and "max_weight" in params:
            kwargs["max_weight"] = args.max_weight
        res = fn(**kwargs)
        print(res.summary())
        for f in res.failures:
            print(f"  counterexample: {f}")
        rc |= 0 if res.ok else 1
    return rc


# -- parser -------------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wprm",
        description="weighted projective spaces over finite fields and "
                    "weighted projective Reed-Muller codes")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, *, weights=True, degree=False, fmt=("text", "json")):
        p.add_argument("--q", required=True, help="field size, q or p^e")
        if weights:
            p.add_argument("--weights", required=True, type=_parse_weights)
        if degree:
            p.add_argument("--d", required=True, type=int)
        p.add_argument("--format", choices=fmt, default=fmt[0])
        p.add_argument("--out")
        p.add_argument("--budget", type=int, default=DEFAULT_CANDIDATE_BUDGET,
                       help="candidate-class cap for sweeps")
        p.add_argument("--tuple-budget", type=int,
                       default=DEFAULT_TUPLE_BUDGET)
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("points", help="enumerate canonical points")
    common(p, fmt=("text", "csv", "json"))
    p.add_argument("--singular", action="store_true",
                   help="append the singular-locus report")
    p.set_defaults(fn=cmd_points)

    p = sub.add_parser("count-zeros", help="count zeros of a polynomial")
    common(p)
    p.add_argument("--poly", required=True,
                   help="polynomial text, e.g. '1*X0^2*X1 + 3*X2'")
    p.add_argument("--bounds", action="store_true")
    p.add_argument("--sharp", action="store_true",
                   help="also test bound sharpness via the exhaustive search")
    p.set_defaults(fn=cmd_count_zeros)

    p = sub.add_parser("eq-search",
                       help="exhaustive maximum zero count over a degree")
    common(p, degree=True)
    p.set_defaults(fn=cmd_eq_search)

    p = sub.add_parser("family", help="build a product family polynomial")
    common(p)
    p.add_argument("--m0", required=True, help="exponents of M0, e.g. 1,1,0")
    p.add_argument("--m1", required=True, help="exponents of M1")
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--t", help="explicit distinct nonzero t values")
    p.add_argument("--mu0", help="exponents of mu0 (default constant)")
    p.add_argument("--mu1", help="exponents of mu1 (default constant)")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("lines", help="line catalog of a weighted plane")
    common(p)
    p.add_argument("--check", action="store_true",
                   help="run the full incidence suite")
    p.set_defaults(fn=cmd_lines)

    p = sub.add_parser("code", help="build a code and report its parameters")
    common(p, weights=False, degree=True)
    p.add_argument("--kind", choices=codes_mod.KINDS, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--weights", type=_parse_weights,
                   help="weight system (wprm only)")
    p.add_argument("--method",
                   choices=("auto", "formula", "exhaustive", "both"),
                   default="auto")
    p.add_argument("--matrix-out", help="write the generator matrix here")
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("table", help="RM/PRM/WPRM comparison table")
    p.add_argument("--f19", action="store_true",
                   help="the F_19, degree-16 reference table (the default)")
    p.add_argument("--q", default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--weights", action="append",
                   help="weight system, repeatable")
    p.add_argument("--method",
                   choices=("auto", "formula", "exhaustive", "both"),
                   default="auto")
    p.add_argument("--format", choices=("csv", "text", "json"), default="csv")
    p.add_argument("--out")
    p.add_argument("--budget", type=int, default=DEFAULT_CANDIDATE_BUDGET)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   help=f"comma list from: {', '.join(SUITES)} (or 'all')")
    p.add_argument("--q", default=None, help="comma list of field sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-bound", type=int, default=None)
    p.add_argument("--max-weight", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.subcommand == "table":
        custom = args.q is not None or args.d is not None or args.weights
        if args.f19 and custom:
            print("--f19 is the fixed reference table; it takes no "
                  "--q/--d/--weights overrides", file=sys.stderr)
            return 2
        if not custom:
            args.q = F19_PRESET["q"]
            args.d = F19_PRESET["d"]
        if args.q is None or args.d is None:
            print("table needs both --q and --d (or no arguments for the "
                  "reference table)", file=sys.stderr)
            return 2
    cfg = RunConfig(
        subcommand=args.subcommand,
        field_spec=getattr(args, "q", None),
        weights=getattr(args, "weights", None)
        if args.subcommand != "table" else None,
        degree=getattr(args, "d", None),
        candidate_budget=getattr(args, "budget", DEFAULT_CANDIDATE_BUDGET),
        tuple_budget=getattr(args, "tuple_budget", DEFAULT_TUPLE_BUDGET),
        out=getattr(args, "out", None),
        fmt=getattr(args, "format", "text"),
        seed=getattr(args, "seed", 0),
        jobs=getattr(args, "jobs", None),
    )
    try:
        return args.fn(cfg, args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
