"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from treespec.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("# three-vertex path\n1 2\n2 3\nroot 3\n")
    return str(path)


def test_solve_success(capsys):
    code, out, err = invoke(capsys, "solve", "--alpha", "1", "--gamma", "-0.25", "--x1", "0.36")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["kind"] == "type1"
    assert payload["solution"]["theta"] == 0.5
    assert payload["fixed_points"] == [0.5]


def test_solve_eval_flag(capsys):
    x1 = 0.5 * (1 + 1 / (-5 + math.sqrt(2)))
    code, out, _ = invoke(
        capsys, "solve", "--alpha", "1", "--gamma", "-0.25", "--x1", repr(x1), "--eval", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eval"]["value"] == pytest.approx(-math.sqrt(2) / 4, abs=1e-9)


def test_solve_orbit_hits_zero(capsys):
    code, out, err = invoke(
        capsys, "solve", "--alpha", "2", "--gamma", "-1", "--x1", "0.75", "--count", "10"
    )
    assert code == 3
    assert "orbit hit zero at step 4" in err
    payload = json.loads(out)
    assert payload["hit_zero_step"] == 4
    assert len(payload["orbit"]) == 4


def test_plot_data_marks_poles(capsys):
    pole = 6.0 - math.sqrt(2.0)
    code, out, _ = invoke(
        capsys, "plot-data", "--alpha", "1", "--gamma", "-0.25",
        "--x1", repr(0.5 * (1 + 1 / (-5 + math.sqrt(2)))),
        "--from", repr(pole - 1.0), "--to", repr(pole + 1.0), "--step", "0.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,value,is_pole"
    assert len(lines) == 6
    flags = [row.split(",")[2] for row in lines[1:]]
    assert flags == ["0", "0", "1", "0", "0"]
    pole_row = lines[3].split(",")
    assert pole_row[1] == ""


def test_locate_exact(capsys, p3_file):
    code, out, _ = invoke(
        capsys, "locate", "--tree", p3_file, "--matrix", "laplacian",
        "--alpha", "1", "--exact",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["below"], payload["equal"], payload["above"]) == (1, 1, 1)
    assert payload["alpha"] == "1"


def test_locate_exact_negative_shift_as_separate_token(capsys, p3_file):
    argv = ["locate", "--tree", p3_file, "--matrix", "adjacency"]
    code, joined, _ = invoke(capsys, *argv, "--alpha=-4/19", "--exact")
    assert code == 0
    code, spaced, err = invoke(capsys, *argv, "--alpha", "-4/19", "--exact")
    assert code == 0 and err == ""
    assert spaced == joined
    assert json.loads(spaced)["alpha"] == "-4/19"
    code, _, _ = invoke(capsys, *argv, "--alpha", "-1e-3")
    assert code == 0


def test_threads_flag_removed(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0 and "--threads" not in out
    code, _, _ = invoke(capsys, "--threads", "2", "mlas", "--n", "19")
    assert code == 2


def test_locate_exact_rejects_decimal(capsys, p3_file):
    code, _, err = invoke(
        capsys, "locate", "--tree", p3_file, "--matrix", "laplacian",
        "--alpha", "1.5", "--exact",
    )
    assert code == 3
    assert "rational" in err


def test_locate_missing_file(capsys):
    code, _, err = invoke(
        capsys, "locate", "--tree", "/nonexistent/tree.txt", "--matrix", "adjacency",
        "--alpha", "0",
    )
    assert code == 2
    assert "cannot read" in err


def test_unknown_flag_is_usage_error(capsys):
    code = run(["mlas", "--n", "19", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_radius_and_eigen(capsys, p3_file):
    code, out, _ = invoke(capsys, "radius", "--tree", p3_file, "--matrix", "adjacency")
    assert code == 0
    assert json.loads(out)["radius"] == pytest.approx(math.sqrt(2), abs=1e-9)
    code, out, _ = invoke(
        capsys, "eigen", "--tree", p3_file, "--matrix", "adjacency", "--k", "2"
    )
    assert code == 0
    assert json.loads(out)["eigenvalue"] == pytest.approx(0.0, abs=1e-9)


def test_mlas_row(capsys):
    code, out, _ = invoke(capsys, "mlas", "--n", "19", "--r", "2", "--direct")
    assert code == 0
    row = json.loads(out)
    assert row["k0"] == 4 and row["mlas"] == 10 == row["mlas_direct"]
    assert row["period"] == pytest.approx(2.069368956, abs=1e-8)
    assert row["j_star"] == pytest.approx(0.6867, abs=5e-5)


def test_mlas_table(capsys):
    code, out, _ = invoke(capsys, "mlas", "--n", "19", "--table", "4")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [row["mlas"] for row in rows] == [12, 10, 8, 4]
    assert [row["r"] for row in rows] == [1, 2, 3, 4]


def test_mlas_table_direct_golden_output(capsys):
    # sha256 of stdout before the b orbit moved from Fraction to integer
    # pairs; the float columns go through the platform's libm (x86-64 glibc)
    golden = {
        "json": "b76f61505d8317c8658bdc11c6f1ff4f71ff407965f1d625985d27d29a5c6de2",
        "csv": "8bd335001aafff196a6836a3d48e689eabd7cd2ba0ada3016c0dabb301a23209",
    }
    for fmt, digest in golden.items():
        code, out, err = invoke(
            capsys, "--format", fmt, "mlas", "--n", "183", "--table", "45", "--direct"
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_mlas_table_bounds(capsys):
    code, _, err = invoke(capsys, "mlas", "--n", "19", "--table", "9")
    assert code == 2 and "floor(n/4)" in err


def test_mlas_out_of_domain(capsys):
    code, _, err = invoke(capsys, "mlas", "--n", "7")
    assert code == 3 and "outside" in err


def test_broom(capsys):
    code, out, _ = invoke(capsys, "broom", "--r", "3", "--q", "2", "--p", "2", "--rr", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == 9
    assert payload["root_sign"] == "negative"
    assert payload["cross_check"] == "ok"
    assert (payload["below"], payload["equal"], payload["above"]) == (10, 0, 9)


def test_limit_csv(capsys):
    code, out, _ = invoke(capsys, "limit", "--family", "adjacency", "--n-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n_arm,radius,gap"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5, 6]
    gaps = [float(r[2]) for r in rows]
    assert all(g > 0 for g in gaps) and gaps == sorted(gaps, reverse=True)


def test_random_tree_output(capsys):
    code, out, _ = invoke(capsys, "random-tree", "--n", "6", "--seed", "42")
    assert code == 0
    edges = [tuple(map(int, line.split())) for line in out.strip().splitlines()]
    assert len(edges) == 5


def test_output_deterministic(capsys):
    _, first, _ = invoke(capsys, "mlas", "--n", "19", "--r", "2")
    _, second, _ = invoke(capsys, "mlas", "--n", "19", "--r", "2")
    assert first == second
    _, a, _ = invoke(capsys, "random-tree", "--n", "9", "--seed", "3")
    _, b, _ = invoke(capsys, "random-tree", "--n", "9", "--seed", "3")
    assert a == b


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "treespec.cli", "mlas", "--n", "19", "--r", "2"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["mlas"] == 10


def test_non_finite_shift_is_domain_error(capsys, p3_file):
    argv = ["locate", "--tree", p3_file, "--matrix", "adjacency"]
    for shift in ("--alpha=nan", "--alpha=inf", "--alpha=-inf", "--alpha=1e400"):
        code, out, err = invoke(capsys, *argv, shift)
        assert (code, out) == (3, ""), shift
        assert "finite" in err
    for token in ("-inf", "-Infinity", "-INF", "-nan", "-NaN"):
        code, out, err = invoke(capsys, *argv, "--alpha", token)
        assert (code, out) == (3, ""), token
        assert "finite" in err


def test_unreadable_shift_gives_clean_exit(capsys, p3_file):
    argv = ["locate", "--tree", p3_file, "--matrix", "adjacency"]
    code, out, err = invoke(capsys, *argv, "--alpha", "abc")
    assert (code, out) == (2, "") and "number" in err
    for extra in ([], ["--exact"]):
        code, out, err = invoke(capsys, *argv, "--alpha", "1/0", *extra)
        assert (code, out) == (3, "") and "zero" in err
    huge = "1" * 400
    code, out, _ = invoke(capsys, *argv, "--alpha", huge)
    assert (code, out) == (3, "")
    code, out, _ = invoke(capsys, *argv, "--alpha", huge, "--exact")
    assert code == 0 and json.loads(out)["below"] == 3


def test_non_finite_float_options_are_domain_errors(capsys, p3_file):
    tree = ["--tree", p3_file, "--matrix", "laplacian"]
    orbit = ["--alpha", "1", "--gamma", "-0.25", "--x1", "0.36"]
    cases = [
        (["radius", *tree, "--tol", "nan"], "--tol"),
        (["radius", *tree, "--tol", "inf"], "--tol"),
        (["eigen", *tree, "--k", "1", "--tol", "nan"], "--tol"),
        (["limit", "--family", "adjacency", "--n-max", "2", "--tol", "nan"], "--tol"),
        (["solve", "--alpha", "nan", "--gamma", "1", "--x1", "1"], "--alpha"),
        (["solve", "--alpha", "1", "--gamma", "inf", "--x1", "1", "--count", "3"], "--gamma"),
        (["solve", *orbit, "--eval", "-inf"], "--eval"),
        (["plot-data", *orbit, "--from", "0", "--to", "inf", "--step", "1"], "--to"),
        (["plot-data", *orbit, "--from", "-inf", "--to", "1", "--step", "1"], "--from"),
    ]
    for argv, option in cases:
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert f"{option} must be finite" in err, argv


def test_solve_overflow_is_domain_error(capsys):
    # finite input whose closed forms overflow: no bare Infinity or NaN in the output
    argv = ["solve", "--alpha", "1e308", "--gamma", "1e308", "--x1", "1e308", "--count", "3"]
    for fmt in ("json", "text"):
        code, out, err = invoke(capsys, "--format", fmt, *argv)
        assert (code, out) == (3, ""), fmt
        assert err == "error: computed delta is not finite (inf): a float overflowed\n"


def test_plot_data_overflow_is_domain_error(capsys):
    # the closed form overflows (theta inf, beta nan): not a pole at every j
    argv = ["plot-data", "--alpha", "1e308", "--gamma", "1e308", "--x1", "1e308",
            "--from", "1", "--to", "3", "--step", "1"]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: computed theta is not finite (inf): a float overflowed\n"


def test_cli_start_up_does_not_import_numpy(tmp_path):
    tree = tmp_path / "p4.txt"
    tree.write_text("1 2\n2 3\n3 4\n")
    script = "\n".join([
        "import sys",
        "import treespec.cli",
        "from treespec.cli import run",
        f"assert run(['locate', '--tree', {str(tree)!r}, '--matrix', 'normalized',"
        " '--alpha', '0.5']) == 0",
        f"assert run(['radius', '--tree', {str(tree)!r}, '--matrix', 'laplacian']) == 0",
        "assert run(['random-tree', '--n', '50', '--seed', '1']) == 0",
        "print('numpy loaded:', 'numpy' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "numpy loaded: False"
