import json
from pathlib import Path

from wprm.cli import main
from wprm.finite_field import GF
from wprm.weighted_space import projective_count, projective_space, space

GOLDEN = Path(__file__).parent / "golden" / "f19_table.csv"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_table_matches_golden_file(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["table", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


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
    # the shared cache must not keep it for later callers.
    projective_space.cache_clear()
    rc, _, err = run(capsys, "points", "--weights", "1,2,3", "--q", "7",
                     "--tuple-budget", "10")
    assert rc == 2
    assert "budget" in err
    assert len(space((1, 2, 3), GF(7)).points()) == projective_count(7, 2)


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


def test_verify_command(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "classical-max", "--q",
                     "2,3")
    assert rc == 0
    assert out.startswith("PASS classical-max")


def test_verify_unknown_suite(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "nope")
    assert rc == 2
    assert "unknown suite" in err


def test_bad_arguments(capsys):
    rc, _, err = run(capsys, "points", "--weights", "2,4", "--q", "3")
    assert rc == 2
    rc, _, err = run(capsys, "points", "--weights", "1,2", "--q", "6")
    assert rc == 2
