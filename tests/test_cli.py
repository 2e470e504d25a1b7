import ast
import functools
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import wprm.cli as cli
from wprm.cli import main
from wprm.finite_field import GF
from wprm.verify import SUITES, SuiteResult
from wprm.weighted_space import (DEFAULT_TUPLE_BUDGET, WeightedProjectiveSpace,
                                 projective_count, space)
from wprm.zero_sets import DEFAULT_CANDIDATE_BUDGET

GOLDEN = Path(__file__).parent / "golden" / "f19_table.csv"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_table_matches_golden_file(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["table", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


# `wprm code ... --matrix-out` files: the first three recorded before RM
# codes were built on the chart x_0 != 0 of the projective space, the last
# (an extension field with normalisers other than 1) before the normalisers
# were folded into the evaluation of the monomials.
GOLDEN_MATRICES = {
    "rm_q8_m2_d2.txt": ["--kind", "rm", "--q", "8", "--m", "2", "--d", "2"],
    "prm_q3_m3_d2.txt": ["--kind", "prm", "--q", "3", "--m", "3", "--d", "2"],
    "wprm_q7_w1-2-3_d6.txt": ["--kind", "wprm", "--q", "7", "--weights",
                              "1,2,3", "--d", "6"],
    "wprm_q9_w1-2-2_d4.txt": ["--kind", "wprm", "--q", "9", "--weights",
                              "1,2,2", "--d", "4"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MATRICES))
def test_generator_matrix_matches_golden_file(capsys, tmp_path, name):
    out = tmp_path / name
    rc, _, err = run(capsys, "code", *GOLDEN_MATRICES[name], "--matrix-out",
                     str(out))
    assert (rc, err) == (0, "")
    assert out.read_bytes() == (GOLDEN.parent / name).read_bytes()


# `wprm table --q 5 --d 2 --m 3 --weights 1,1,1,2 --weights 1,1,2,2 --format
# json`, recorded before `code_parameters` had one exhaustive call: its rows
# cover the formula and the sweep, and with a budget of 100 the witness.
TABLE_ARGV = ["table", "--q", "5", "--d", "2", "--m", "3", "--weights",
              "1,1,1,2", "--weights", "1,1,2,2", "--format", "json"]
GOLDEN_TABLES = {"table_q5_d2_m3.json": [],
                 "table_q5_d2_m3_budget100.json": ["--budget", "100"]}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_table_json_matches_golden_file(capsys, name):
    rc, out, err = run(capsys, *TABLE_ARGV, *GOLDEN_TABLES[name])
    assert (rc, err) == (0, "")
    assert out.encode() == (GOLDEN.parent / name).read_bytes()


def test_table_deterministic(capsys):
    rc1, out1, _ = run(capsys, "table")
    rc2, out2, _ = run(capsys, "table", "--f19")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.encode() == GOLDEN.read_bytes()


def test_table_custom(capsys):
    rc, out, _ = run(capsys, "table", "--q", "5", "--d", "4",
                     "--weights", "1,2,2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    rows = {r["label"]: r for r in payload["rows"]}
    assert rows["WPRM_5(4,2;1,2,2)"]["n"] == 31
    assert rows["WPRM_5(4,2;1,2,2)"]["k"] == 6
    assert rows["WPRM_5(4,2;1,2,2)"]["d_min"] == 20


def test_points_csv_and_json(capsys):
    rc, out, _ = run(capsys, "points", "--weights", "2,3,5", "--q", "4",
                     "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x0,x1,x2"
    assert len(lines) == 1 + 21
    rc, out, _ = run(capsys, "points", "--weights", "1,1", "--q", "2",
                     "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == payload["expected"] == 3
    assert payload["points"] == [[0, 1], [1, 0], [1, 1]]


def test_points_singular_report(capsys):
    rc, out, _ = run(capsys, "points", "--weights", "1,2,3", "--q", "3",
                     "--singular", "--format", "json")
    payload = json.loads(out)
    assert payload["singular"]["sigma"] == [2, 3]
    assert payload["singular"]["components"] == {"2": [1], "3": [2]}


def test_count_zeros_command(capsys):
    rc, out, _ = run(capsys, "count-zeros", "--weights", "1,2,3", "--q", "3",
                     "--poly", "1*X0^6 + 2*X1^3 + 1*X2^2", "--bounds",
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["d"] == 6
    names = {b["name"] for b in payload["bounds"]}
    assert {"weighted_plane", "weighted_ore_affine"} <= names
    assert all(b["satisfied"] for b in payload["bounds"])


def test_eq_search_command(capsys):
    rc, out, _ = run(capsys, "eq-search", "--weights", "1,1,2", "--q", "2",
                     "--d", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["value"] == 5
    assert payload["candidates"] == 15
    assert payload["lower_bound"] == 5
    assert payload["witness_polynomial"]


def test_eq_search_budget_error(capsys):
    rc, _, err = run(capsys, "eq-search", "--weights", "1,1,1", "--q", "3",
                     "--d", "3", "--budget", "5")
    assert rc == 2
    assert "budget" in err


def test_tuple_budget_does_not_stick_to_the_shared_space(capsys):
    # The budget bounds this call's enumeration; the space the CLI got from
    # the shared cache must not keep it for later callers, nor skip it
    # because an earlier call on the same space enumerated.
    rc, _, _ = run(capsys, "points", "--weights", "1,2,3", "--q", "7")
    assert rc == 0
    rc, _, err = run(capsys, "points", "--weights", "1,2,3", "--q", "7",
                     "--tuple-budget", "10")
    assert rc == 2
    assert "budget" in err
    coords = space((1, 2, 3), GF(7)).point_coords()
    assert len(coords) == projective_count(7, 2)


@pytest.mark.parametrize("argv", [
    ["points"], ["count-zeros", "--poly", "1*X0^6 + 2*X1^3 + 1*X2^2"]])
def test_a_tuple_budget_above_the_default_holds_for_the_whole_command(
        capsys, monkeypatch, argv):
    # The CLI checks the budget it was given once; every later read of the
    # point array checks that budget or none, never a default of its own,
    # so a budget above the default is not refused halfway through.
    budget = 3 * DEFAULT_TUPLE_BUDGET
    read = WeightedProjectiveSpace.point_coords
    checked = []

    def spy(self, *args, **kwargs):
        call = inspect.signature(read).bind(self, *args, **kwargs)
        call.apply_defaults()
        checked.append(call.arguments["tuple_budget"])
        return read(self, *args, **kwargs)

    monkeypatch.setattr(WeightedProjectiveSpace, "point_coords", spy)
    rc, _, err = run(capsys, *argv, "--weights", "1,2,3", "--q", "7",
                     "--tuple-budget", str(budget))
    assert rc == 0, err
    assert checked[0] == budget
    assert set(checked[1:]) <= {budget, None}


def test_family_command(capsys):
    rc, out, _ = run(capsys, "family", "--weights", "2,3,5", "--q", "5",
                     "--m0", "1,1,0", "--m1", "0,0,1", "--ell", "4",
                     "--mu0", "1,1,0", "--mu1", "0,0,1", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == payload["closed_form"] == 31
    assert payload["agree"] is True


def test_lines_command(capsys):
    rc, out, _ = run(capsys, "lines", "--weights", "1,2,3", "--q", "3",
                     "--check")
    assert rc == 0
    assert "0 failures" in out


def test_code_command(capsys, tmp_path):
    matrix = tmp_path / "gen.txt"
    rc, out, _ = run(capsys, "code", "--kind", "wprm", "--q", "19",
                     "--d", "16", "--m", "2", "--weights", "1,2,2",
                     "--format", "json", "--matrix-out", str(matrix))
    assert rc == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d_min"]) == (381, 45, 228)
    assert payload["d_min_exact"] is True
    assert payload["lambda_display"] == "0.716..."
    header = matrix.read_text().split("\n")[0]
    assert header == "19 2 16 1,2,2 381 45"


def test_degree_zero_table(capsys):
    rc, out, err = run(capsys, "table", "--q", "5", "--d", "0")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[1:3] == ["RM,,5,0,25,1,25,1.040,26/25",
                          "PRM,,5,0,31,1,31,1.032,32/31"]
    assert all(line.endswith(",5,0,31,1,31,1.032,32/31")
               for line in lines[3:]) and len(lines) == 8


@pytest.mark.parametrize("argv,message", [
    (["table", "--f19", "--d", "4"], "--f19 is the fixed reference table"),
    (["table", "--q", "5"], "table needs both --q and --d"),
])
def test_table_refusals_are_errors(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("kind,message", [
    ("prm", "projective Reed-Muller codes take no weights"),
    ("rm", "plain Reed-Muller codes take no weights"),
])
def test_code_refuses_weights_for_an_unweighted_kind(capsys, kind, message):
    argv = ["code", "--kind", kind, "--q", "3", "--d", "2", "--weights",
            "1,2,3", "--format", "json"]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_family_refuses_an_ell_that_does_not_match_t(capsys):
    rc, out, err = run(capsys, *FAMILY_ARGV, "--ell", "3", "--t", "1,2")
    assert (rc, out) == (2, "")
    assert err == "error: --ell 3 does not match the 2 values of --t\n"
    rc, out, _ = run(capsys, *FAMILY_ARGV, "--ell", "2", "--t", "1,2",
                     "--format", "json")
    assert rc == 0 and json.loads(out)["t"] == [1, 2]


COUNT_ZEROS_ARGV = ["count-zeros", "--weights", "1,2,3", "--q", "3",
                    "--poly", "1*X0^6 + 2*X1^3 + 1*X2^2"]


def test_count_zeros_refuses_a_budget_without_sharp(capsys):
    # The budget bounds only the --sharp search, so without it the budget
    # would be read by nothing.
    for extra in ([], ["--bounds"]):
        rc, out, err = run(capsys, *COUNT_ZEROS_ARGV, *extra, "--budget", "1")
        assert (rc, out) == (2, "")
        assert err == ("error: --budget bounds the sharpness search, so it "
                       "needs --sharp\n")


def test_count_zeros_sharp_takes_the_budget_or_the_default(capsys,
                                                             monkeypatch):
    budgets = []
    real = cli.check_bounds

    def spy(*args, oracle_budget=None, **kwargs):
        budgets.append(oracle_budget)
        return real(*args, oracle_budget=oracle_budget, **kwargs)

    monkeypatch.setattr(cli, "check_bounds", spy)
    for extra in ([], ["--budget", "123456"]):
        rc, _, err = run(capsys, *COUNT_ZEROS_ARGV, "--bounds", "--sharp",
                         *extra)
        assert (rc, err) == (0, "")
    rc, _, _ = run(capsys, *COUNT_ZEROS_ARGV, "--bounds")
    assert rc == 0
    assert budgets == [DEFAULT_CANDIDATE_BUDGET, 123456, None]


def test_family_refuses_a_negative_ell(capsys):
    rc, out, err = run(capsys, *FAMILY_ARGV, "--ell", "-2")
    assert (rc, out) == (2, "")
    assert err == "error: --ell counts factors, so it is >= 0, got -2\n"


def test_count_zeros_refuses_sharp_without_bounds(capsys):
    rc, out, err = run(capsys, "count-zeros", "--weights", "1,2,3", "--q",
                       "3", "--poly", "1*X0^6 + 2*X1^3 + 1*X2^2", "--sharp")
    assert (rc, out) == (2, "")
    assert err == "error: --sharp tests the bounds, so it needs --bounds\n"


def test_verify_command(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "classical-max", "--q",
                     "2,3")
    assert rc == 0
    assert out.startswith("PASS classical-max")


def test_verify_unknown_suite(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "nope")
    assert (rc, out) == (2, "")
    assert err.startswith("error: unknown suite 'nope'; available: points,")


@pytest.mark.parametrize("argv,given,rc", [
    (["--per-bound", "7"], {"per_bound": 7}, 0),
    (["--max-weight", "3", "--q", "2"], {"max_weight": 3, "qs": (2,)}, 0),
    (["--suite", "torus,nope", "--per-bound", "7"], None, 2),
])
def test_verify_passes_each_suite_only_its_options(capsys, monkeypatch,
                                                   argv, given, rc):
    # Each suite gets exactly the given options its signature takes, and the
    # seed; an unknown suite stops the run before any later suite starts.
    # The fakes carry the real suites' signatures through __wrapped__, as a
    # tracing wrapper does.
    real, calls = dict(SUITES), {}
    for name in SUITES:
        @functools.wraps(real[name])
        def fake(_name=name, **kwargs):
            calls[_name] = kwargs
            return SuiteResult(_name)
        monkeypatch.setitem(cli.SUITES, name, fake)
    got_rc, _, err = run(capsys, "verify", "--seed", "5", *argv)
    assert got_rc == rc
    if given is None:
        assert list(calls) == ["torus"]
        assert err.startswith("error: unknown suite 'nope'")
        return
    assert list(calls) == list(SUITES)
    for name, kwargs in calls.items():
        takes = inspect.signature(real[name]).parameters
        want = {k: v for k, v in {**given, "seed": 5}.items() if k in takes}
        assert kwargs == want, name


def test_bad_arguments(capsys):
    rc, _, err = run(capsys, "points", "--weights", "2,4", "--q", "3")
    assert rc == 2
    rc, _, err = run(capsys, "points", "--weights", "1,2", "--q", "6")
    assert rc == 2


FAMILY_ARGV = ["family", "--weights", "1,1", "--q", "3", "--m0", "1,0",
               "--m1", "0,1"]


@pytest.mark.parametrize("argv", [
    ["table", "--q", "5", "--d", "4", "--weights", "1,x"],
    ["table", "--q", "5", "--d", "4", "--weights", "1,2,2",
     "--weights", "1,"],
    FAMILY_ARGV + ["--m0", "1,x"],
    FAMILY_ARGV + ["--m1", "x,1"],
    FAMILY_ARGV + ["--t", "1,y"],
    FAMILY_ARGV + ["--mu0", "z"],
    FAMILY_ARGV + ["--mu1", "1,"],
])
def test_a_malformed_list_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bad weight list" in err and err.startswith("usage: wprm ")


@pytest.mark.parametrize("q", ["x", "2,x", "2^2", ""])
def test_a_malformed_field_list_is_a_usage_error(capsys, q):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "torus", "--q", q])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bad field list" in err and err.startswith("usage: wprm ")


def test_a_field_size_that_is_no_prime_power_is_refused(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "torus", "--q", "6")
    assert (rc, out, err) == (2, "", "error: not a prime power: 6\n")


PARSER_SEQUENCE = [
    ["table", "--q", "5", "--d", "4", "--weights", "1,2,2",
     "--weights", "1,4,4"],
    ["points", "--weights", "1,2,3", "--q", "5"],
    ["table", "--q", "5", "--d", "4", "--weights", "1,2,2"],
    ["points", "--weights", "1,2,3", "--q", "5", "--format", "csv"],
    ["code", "--kind", "wprm", "--q", "3", "--d", "2", "--weights", "1,1,2"],
    ["table", "--q", "5", "--d", "4", "--weights", "1,2,2",
     "--weights", "1,4,4", "--format", "text"],
    ["eq-search", "--weights", "1,1,2", "--q", "3", "--d", "2"],
    ["table"],
    ["table", "--f19", "--q", "5"],
]


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    shared = [run(capsys, *argv) for argv in PARSER_SEQUENCE]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, *argv) for argv in PARSER_SEQUENCE]
    assert shared == fresh
    # the repeated --weights did not pile up, and each --format default held
    assert shared[0][1].count("WPRM") == 2 and shared[2][1].count("WPRM") == 1
    assert shared[0][1].startswith("kind,") and shared[1][1].startswith("(")
    assert shared[7][1].encode() == GOLDEN.read_bytes()
    assert shared[8][0] == 2


# -- each subcommand takes only the options it reads ------------------------------


BASE_ARGV = {
    "points": ["points", "--weights", "1,2", "--q", "3"],
    "count-zeros": ["count-zeros", "--weights", "1,2", "--q", "3",
                    "--poly", "1*X0"],
    "eq-search": ["eq-search", "--weights", "1,2", "--q", "3", "--d", "2"],
    "family": ["family", "--weights", "1,1", "--q", "3", "--m0", "1,0",
               "--m1", "0,1"],
    "lines": ["lines", "--weights", "1,2,3", "--q", "3"],
    "code": ["code", "--kind", "rm", "--q", "3", "--d", "1"],
    "table": ["table"],
}

REMOVED_OPTIONS = [
    ("points", "--budget"), ("points", "--jobs"), ("points", "--seed"),
    ("count-zeros", "--jobs"), ("count-zeros", "--seed"),
    ("eq-search", "--tuple-budget"), ("eq-search", "--seed"),
    ("family", "--budget"), ("family", "--tuple-budget"),
    ("family", "--jobs"), ("family", "--seed"),
    ("lines", "--budget"), ("lines", "--jobs"),
    ("code", "--tuple-budget"), ("code", "--seed"),
    ("table", "--seed"),
]


@pytest.mark.parametrize("command,option", REMOVED_OPTIONS)
def test_an_option_the_command_does_not_read_is_refused(capsys, command,
                                                        option):
    cli._parser().parse_args(BASE_ARGV[command])
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + [option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def _argvs_in_this_file() -> list[list[str]]:
    """The argument lists that this file passes to `run` or `main`, with any
    argument that is not a string literal read as "0"; calls that splice a
    list in (`*argv`) are covered by the lists they splice."""
    tree = ast.parse(Path(__file__).read_text())
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "run":
            args = node.args[1:]
        elif node.func.id == "main" and isinstance(node.args[0], ast.List):
            args = node.args[0].elts
        else:
            continue
        if not any(isinstance(a, ast.Starred) for a in args):
            out.append([a.value if isinstance(a, ast.Constant) else "0"
                        for a in args])
    return out + PARSER_SEQUENCE


def _perfbench_argvs(monkeypatch) -> list[list[str]]:
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclasses
    spec.loader.exec_module(workloads)
    return [op.argv for build in workloads.WORKLOADS.values()
            for op in build(0) if op.argv]


def test_every_argv_of_the_tests_and_the_benchmark_parses(monkeypatch):
    ours, bench = _argvs_in_this_file(), _perfbench_argvs(monkeypatch)
    assert len(ours) > 20 and len(bench) > 10
    for argv in ours + bench:
        cli._parser().parse_args(argv)


def test_no_call_imports_numpy_ma():
    # np.unique imports numpy.ma on its first call in a process (8-17 ms and
    # about 0.7 MiB); the library groups with np.bincount instead.
    code = textwrap.dedent("""
        import contextlib, io, sys
        from wprm.cli import main
        from wprm.codes import build_code
        from wprm.finite_field import GF
        from wprm.weighted_space import canonicalize, orbit_size
        f = GF(2, 16)
        print(canonicalize((1, 2, 3), f, (5, 0, 7)).coords,
              orbit_size((1, 2, 3), f, (5, 0, 7)))
        print(build_code("prm", GF(2, 9), 1, 3).rank)  # adds without a table
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["verify", "--suite", "delorme"])
        print(rc, "numpy.ma" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["(1, 0, 56982) 65535", "4",
                                        "0 False"]
