"""End-to-end tests of the command-line interface."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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


def test_plot_data_keeps_the_last_sample_of_a_large_j_grid(capsys):
    # --from and --to round by up to ulp(from) + ulp(to) (3e-8 here, 1.2e-8 steps), more
    # than the 1e-9 slack that (to - from)/step once had: the last sample was dropped
    orbit = ["--alpha", "1", "--gamma", "-0.25", "--x1", "0.36"]
    code, out, err = invoke(capsys, "plot-data", *orbit, "--from", "89720000", "--to", "89720005.02",
                            "--step", "2.51")
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()] == [
        "j", "89720000.0", "89720002.51", "89720005.02"]
    # ulp(from) above ulp(to): the last j lands 2 ulp(to) past --to
    code, out, _ = invoke(capsys, "plot-data", *orbit, "--from", "-65921.9", "--to", "19878.1",
                          "--step", "2860")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 32 and lines[-1].startswith("19878.100000000006,")
    # a step below the rounding of the ends adds no sample
    code, out, _ = invoke(capsys, "plot-data", *orbit, "--from", "1", "--to", "1", "--step", "5e-324")
    assert (code, out) == (0, "j,value,is_pole\n1.0,0.36,0\n")


def test_plot_data_drops_a_counted_sample_past_the_end(capsys):
    # (to - from)/step = 2.9999999995 is within the count's 1e-9 of 3, so four samples
    # are counted; j = 3.0 lies 5e-10 past --to, beyond the rounding of the ends, and goes
    orbit = ["--alpha", "1", "--gamma", "-0.25", "--x1", "0.36"]
    code, out, err = invoke(capsys, "plot-data", *orbit, "--from", "0", "--to", "2.9999999995", "--step", "1")
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()] == ["j", "0.0", "1.0", "2.0"]


def test_plot_data_type2_pole_and_constant_digest(capsys):
    # sha256 over (exit code, stdout) of each argv, without and with --format csv: type 2
    # (q = 2) through its pole at j = 3, type 2 without one, and the constant solutions at
    # a type-2 and at the type-1 fixed point; recorded before sample(js) replaced eval(j)
    argv_set = [
        ["--alpha", "3", "--gamma", "-2", "--x1", "0.6666666666666666", "--from", "0", "--to", "5",
         "--step", "0.25"],
        ["--alpha", "3", "--gamma", "-2", "--x1", "0.5", "--from", "-2", "--to", "4", "--step", "0.5"],
        ["--alpha", "3", "--gamma", "-2", "--x1", "2", "--from", "-1", "--to", "2", "--step", "0.75"],
        ["--alpha", "1", "--gamma", "-0.25", "--x1", "0.5", "--from", "0", "--to", "2", "--step", "0.5"],
    ]
    digest = hashlib.sha256()
    for argv in argv_set:
        for flag in ([], ["--format", "csv"]):
            code, out, _ = invoke(capsys, *flag, "plot-data", *argv)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "84a76e5f7b80cf24d64fe7b167d6306ab57c2aa1c3cf5ebdda4ee5b1dfeef92a"


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


def test_tree_file_that_is_not_utf8_is_usage_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2\n2 3\xff\n")
    out = subprocess.run([sys.executable, "-m", "treespec.cli", "locate", "--tree", str(path),
                          "--matrix", "adjacency", "--alpha", "0"], capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith(f"error: cannot read tree file {str(path)!r}: 'utf-8' codec can't decode")
    assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr


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


#: stdout of "mlas --n 20000 --r 2 --direct" recorded before the sign scans moved
#: to certified floats and b_j to transfer-matrix powering; b_{2k0+2} is a
#: 200 kbit pair.  The float columns go through the platform's libm (x86-64 glibc)
MLAS_20000 = (
    '{"n": 20000, "r": 2, "period": 2.0000636640037515, '
    '"phi": 1.5707463267948758, "omega_r": -0.7855731833965206, '
    '"j_star": 0.5001591727415424, "k0": 7851, "mlas": 15704, '
    '"lower_bound": 15702, "b_2k0_2": 43209.47685303619, '
    '"b_2k0_3": 7.685692878436844e-05, "mlas_direct": 15704}\n'
)


def test_mlas_at_scale_keeps_its_output(capsys):
    code, out, err = invoke(capsys, "mlas", "--n", "20000", "--r", "2", "--direct")
    assert (code, err) == (0, "")
    assert out == MLAS_20000


def test_mlas_table_bounds(capsys):
    code, _, err = invoke(capsys, "mlas", "--n", "19", "--table", "9")
    assert code == 2 and "floor(n/4)" in err
    # the other counts and steps of the commands have lower bounds too
    assert invoke(capsys, "random-tree", "--n", "0", "--seed", "1")[:2] == (3, "")
    orbit = ["--alpha", "1", "--gamma", "2", "--x1", "1", "--from", "0", "--to", "1"]
    for argv, option in ((["plot-data", *orbit, "--step", "0"], "--step"),
                         (["limit", "--family", "adjacency", "--n-max", "0"], "--n-max")):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "") and option in err


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


# bisection's float sweeps count only values within pivmin as zero; with a zero
# band of 1e-10 times the diagonal's scale, these three answered wrongly with exit 0


def test_star_laplacian_radius_to_tol(capsys, tmp_path):
    # the band was 3e-6 wide here and stopped the bisection 3e-6 below n = 30000
    star = tmp_path / "star.txt"
    star.write_text("".join(f"1 {v}\n" for v in range(2, 30001)))
    code, out, _ = invoke(capsys, "radius", "--tree", str(star), "--matrix", "laplacian",
                          "--root", "1", "--tol", "1e-10")
    assert code == 0 and abs(json.loads(out)["radius"] - 30000) <= 1e-10


def test_path_laplacian_eigenvalue_zero_below_the_band(capsys, tmp_path):
    # the band stopped the bisection 1e-11 above the eigenvalue 0; tol 1e-300 is not
    # reached either, as the bracket's ends meet in floats first
    path = tmp_path / "p20.txt"
    path.write_text("".join(f"{v} {v + 1}\n" for v in range(1, 20)))
    code, out, _ = invoke(capsys, "eigen", "--tree", str(path), "--matrix", "laplacian",
                          "--k", "1", "--tol", "1e-300")
    assert code == 0 and abs(json.loads(out)["eigenvalue"]) <= 1e-15


def test_limit_rows_to_tol_1e_14(capsys):
    # the band kept every row up to n_arm = 32 bisected, and 4.6e-11 off
    import numpy as np

    from references import dense
    from treespec.limits import _ADJACENCY, StarlikeSpec, _centre_gap, shearer_constant, t_lmn
    from treespec.treediag import MatrixKind, build_matrix

    code, out, _ = invoke(capsys, "limit", "--family", "adjacency", "--n-max", "32", "--tol", "1e-14")
    assert code == 0
    gaps = [float(line.split(",")[2]) for line in out.split()[1:]]
    assert len(gaps) == 32 and all(a > b > 0 for a, b in zip(gaps, gaps[1:]))
    for n_arm, gap in enumerate(gaps, 1):
        solved = _centre_gap(_ADJACENCY, n_arm)
        if solved is not None:
            assert abs(gap - solved[0]) <= 1e-14, n_arm
        else:  # bisected: within tol of eigvalsh, which errs by n u g at most
            m = build_matrix(t_lmn(StarlikeSpec(1, n_arm, n_arm)), MatrixKind.ADJACENCY)
            bound = 1e-14 + m.n * 2.0**-53 * max(map(abs, m.gershgorin()))
            assert abs(shearer_constant() - gap - np.linalg.eigvalsh(dense(m))[-1]) <= bound, n_arm


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
    # finite input whose closed forms overflow: no bare Infinity or NaN in the output;
    # with gamma -9e307, alpha^2 and 4 gamma overflow with opposite signs (real roots)
    cases = [(["--gamma", "1e308", "--x1", "1e308", "--count", "3"], "inf"),
             (["--gamma", "-9e307", "--x1", "1"], "nan")]
    for argv, delta in cases:
        for fmt in ("json", "text"):
            code, out, err = invoke(capsys, "--format", fmt, "solve", "--alpha", "1e308", *argv)
            assert (code, out) == (3, ""), (argv, fmt)
            assert err == f"error: computed delta is not finite ({delta}): a float overflowed\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--alpha", "1", "--gamma", "1e-13", "--x1", "1"], "gamma 1e-13"),
    (["plot-data", "--alpha", "1", "--gamma", "1e-13", "--x1", "1", "--from", "0", "--to", "2",
      "--step", "1"], "gamma 1e-13"),
    (["solve", "--alpha", "1", "--gamma", "2", "--x1", "1e-13"], "initial value x1 1e-13"),
])
def test_a_nonzero_value_refused_as_zero_names_the_band(capsys, argv, message):
    # |value| <= ZERO_TOL counts as 0 in float arithmetic: still refused, but not called 0
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: {message} is within ZERO_TOL = 1e-12 of 0, which float arithmetic treats as 0\n"
    code, out, err = invoke(capsys, *[("0" if token == "1e-13" else token) for token in argv])
    assert (code, out) == (3, "")
    assert err == f"error: {message.split(' 1e-13')[0]} must be nonzero\n"


def test_plot_data_overflow_is_domain_error(capsys):
    # the closed form overflows (beta inf): not a pole at every j
    argv = ["plot-data", "--alpha", "-2.178179017452761e+101", "--gamma", "3.32e-11",
            "--x1", "4.9e-05", "--from", "1", "--to", "3", "--step", "1"]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: computed beta is not finite (inf): a float overflowed\n"


def test_plot_data_overflowed_delta_is_domain_error(capsys):
    # roots +-1e154 are representable, but beta*q^j + 1 cancels: x_1 would read 0.0
    argv = ["plot-data", "--alpha", "1", "--gamma", "1e308", "--x1", "1",
            "--from", "1", "--to", "4", "--step", "1"]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: computed delta is not finite (inf): a float overflowed\n"


@pytest.mark.parametrize("span", [("0", "1e300", "1e-300"), ("1e308", "1e-300", "1e-12")])
def test_plot_data_sample_count_overflow_is_usage_error(capsys, span):
    j_from, j_to, step = span
    code, out, err = invoke(capsys, "plot-data", "--alpha", "1", "--gamma", "2", "--x1", "1",
                            "--from", j_from, "--to", j_to, "--step", step)
    assert (code, out) == (2, "")
    assert "--step overflows" in err


def test_overflowed_closed_forms_exit_3_without_traceback():
    # delta is NaN (alpha^2 and 4 gamma overflow), the type-3 phase j*phi overflows,
    # and type 2's beta = (theta'/theta)(theta' - x1)/(x1 - theta) overflows
    # although beta*q stays finite, or underflows
    cases = [
        (["--alpha", "1e308", "--gamma", "-1e308", "--x1", "1e+48", "--eval", "0.5"],
         "error: computed delta is not finite (nan): a float overflowed\n"),
        (["--alpha", "-1", "--gamma", "-1", "--x1", "0.3", "--eval", "1e308"],
         "error: closed form is not finite at j = 1e+308: a float overflowed\n"),
        (["--alpha", "-2.178179017452761e+101", "--gamma", "3.32e-11", "--x1", "4.9e-05",
          "--eval", "2"],
         "error: Type2Solution(theta=1.5242089715300463e-112, theta_prime=-2.178179017452761e+101,"
         " beta=inf) is not finite: a float overflowed\n"),
        # beta underflowed where q = theta/theta' (or q^2) overflows: beta*q^j would be wrong
        (["--alpha", "1e150", "--gamma", "1e-10", "--x1", "-1e150", "--eval", "1"],
         "error: Type2Solution(theta=1e+150, theta_prime=-1e-160, beta=5e-311):"
         " beta underflowed below the normal float range\n"),
        (["--alpha", "4.60642339610059e+153", "--gamma", "-3.08560646735757e+146",
          "--x1", "-0.013291000500515552", "--eval", "2"],
         "error: Type2Solution(theta=4.60642339610059e+153, theta_prime=6.69848644388526e-08,"
         " beta=-4.195743e-317): beta underflowed below the normal float range\n"),
    ]
    for argv, message in cases:
        out = subprocess.run([sys.executable, "-m", "treespec.cli", "solve", *argv],
                             capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (3, ""), argv
        assert "Traceback" not in out.stderr and out.stderr == message, argv
    # theta' = -gamma/theta is far below theta's ulp and no longer cancels to 0.0
    out = subprocess.run([sys.executable, "-m", "treespec.cli", "solve", "--alpha", "1e+123",
                          "--gamma", "3", "--x1", "1e308", "--count", "3", "--eval", "2"],
                         capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    payload = json.loads(out.stdout)
    sol = payload["solution"]
    assert sol["theta_prime"] == -3.0 / sol["theta"]
    assert payload["eval"]["value"] == payload["orbit"][1]


def test_phases_below_float_resolution_exit_3(capsys):
    # at these j the rounding of j*phi exceeds the pole tolerance, so the
    # pole test would be decided by rounding; |j| up to 1e6 still answers
    orbit = ["--alpha", "1", "--gamma", "-1", "--x1", "0.3"]
    code, out, err = invoke(capsys, "solve", *orbit, "--eval", "1e308")
    assert (code, out) == (3, "")
    assert err == "error: phase j*phi + omega at j = 1e+308 is below float resolution\n"
    code, out, err = invoke(capsys, "plot-data", *orbit, "--from", "1e16", "--to", "1.0000000000000002e16",
                            "--step", "1")
    assert (code, out) == (3, "")
    assert err == "error: phase j*phi + omega at j = 1e+16 is below float resolution\n"
    code, out, _ = invoke(capsys, "solve", *orbit, "--eval", "1000000")
    assert code == 0 and json.loads(out)["eval"]["j"] == 1e6
    code, out, _ = invoke(capsys, "plot-data", *orbit, "--from", "999998", "--to", "1e6", "--step", "1")
    assert code == 0 and len(out.splitlines()) == 4


#: per subcommand: an argv and the treespec modules it loads besides the
#: package, cli and errors; {p40} and {p4} are paths of 40 and 4 vertices
FOOTPRINTS = {
    "solve": (["solve", "--alpha", "1", "--gamma", "-0.25", "--x1", "0.36", "--count", "5"],
              {"recurrence"}),
    "plot-data": (["plot-data", "--alpha", "1", "--gamma", "2", "--x1", "1",
                   "--from", "0", "--to", "3", "--step", "1"], {"recurrence"}),
    "locate": (["locate", "--tree", "{p40}", "--matrix", "normalized", "--alpha", "0.5"],
               {"treediag"}),
    "radius": (["radius", "--tree", "{p40}", "--matrix", "laplacian"], {"treediag"}),
    "eigen": (["eigen", "--tree", "{p4}", "--matrix", "adjacency", "--k", "3"], {"treediag"}),
    "mlas": (["mlas", "--n", "19", "--direct"], {"signs"}),
    "broom": (["broom", "--r", "3", "--q", "4", "--p", "2", "--rr", "3"], {"signs", "treediag"}),
    "limit": (["limit", "--family", "adjacency", "--n-max", "17"],
              {"limits", "treediag", "_mobius"}),
    "random-tree": (["random-tree", "--n", "50", "--seed", "1"], {"oracle"}),
}


@pytest.mark.parametrize("command", FOOTPRINTS)
def test_each_subcommand_imports_only_its_modules(tmp_path, command):
    for n in (4, 40):
        (tmp_path / f"p{n}.txt").write_text("".join(f"{v} {v + 1}\n" for v in range(1, n)))
    argv, modules = FOOTPRINTS[command]
    argv = [token.format(p4=tmp_path / "p4.txt", p40=tmp_path / "p40.txt") for token in argv]
    script = "\n".join([
        "import contextlib, io, json, sys",
        "from treespec.cli import run",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    code = run({argv!r})",
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('treespec')),"
        " 'numpy' in sys.modules, 'dataclasses' in sys.modules, 'fractions' in sys.modules]))",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    code, loaded, numpy_loaded, dataclasses_loaded, fractions_loaded = json.loads(out.stdout)
    assert code == 0
    assert set(loaded) == {"treespec", "treespec.cli", "treespec.errors"} | {
        f"treespec.{name}" for name in modules}
    assert not numpy_loaded
    assert not dataclasses_loaded
    if command == "random-tree":
        assert not fractions_loaded


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies: every import statement of the package,
    # in functions and TYPE_CHECKING blocks too, is relative or of the standard library
    import treespec

    sources = sorted(Path(treespec.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_package_names_only_its_submodules():
    import treespec

    assert treespec.signs is sys.modules["treespec.signs"]
    with pytest.raises(AttributeError, match="module 'treespec' has no attribute 'no_such_name'"):
        treespec.no_such_name


def test_matrix_choices_are_the_matrix_kinds():
    from treespec.cli import _MATRIX_KINDS
    from treespec.treediag import MatrixKind

    assert _MATRIX_KINDS == MatrixKind.ALL


#: nine-vertex caterpillar rooted at an inner vertex
CATERPILLAR = "# caterpillar\n1 2\n2 3\n3 4\n4 5\n2 6\n3 7\n4 8\n8 9\nroot 3\n"

#: per subcommand: the formats it renders (None = no --format) and its argv set
GOLDEN_ARGV = {
    "solve": ((None, "json", "text"), [
        ["--alpha", "1", "--gamma", "-0.25", "--x1", "0.36", "--count", "6", "--eval", "4"],
        ["--alpha", "1", "--gamma", "2", "--x1", "0.7", "--count", "5", "--eval", "3"],
        ["--alpha", "3", "--gamma", "-2", "--x1", "0.7", "--count", "5", "--eval", "2.5"],
        ["--alpha", "4291.73", "--gamma", "2926.51", "--x1", "2.1e-7", "--count", "3"],
        ["--alpha", "1", "--gamma", "-1", "--x1", "0.3", "--count", "5", "--eval", "2.5"],
        ["--alpha", "0", "--gamma", "-1", "--x1", "2", "--count", "4", "--eval", "3"],
        ["--alpha", "2", "--gamma", "-1", "--x1", "1", "--eval", "7"],
        ["--alpha", "2", "--gamma", "-1", "--x1", "0.75", "--count", "10"],
    ]),
    "plot-data": ((None, "csv"), [
        ["--alpha", "1", "--gamma", "-1", "--x1", "0.3", "--from", "0", "--to", "6",
         "--step", "0.25"],
        ["--alpha", "1", "--gamma", "-0.25", "--x1", "0.36", "--from", "-3", "--to", "3",
         "--step", "0.5"],
        ["--alpha", "1", "--gamma", "-1", "--x1", "0.3", "--from", "3", "--to", "1",
         "--step", "1"],
    ]),
    "locate": ((None, "json", "text"), [
        ["--tree", "{tree}", "--matrix", "adjacency", "--alpha", "0.5"],
        ["--tree", "{tree}", "--matrix", "normalized", "--alpha", "1", "--root", "1"],
        ["--tree", "{tree}", "--matrix", "laplacian", "--alpha", "36/19", "--exact"],
        ["--tree", "{tree}", "--matrix", "adjacency", "--alpha", "-4/19", "--exact"],
    ]),
    "radius": ((None, "json", "text"), [
        ["--tree", "{tree}", "--matrix", "adjacency"],
        ["--tree", "{tree}", "--matrix", "laplacian", "--tol", "1e-6"],
    ]),
    "eigen": ((None, "json", "text"), [
        ["--tree", "{tree}", "--matrix", "adjacency", "--k", "2"],
        ["--tree", "{tree}", "--matrix", "normalized", "--k", "9", "--tol", "1e-8"],
    ]),
    "mlas": ((None, "json", "csv"), [
        ["--n", "19", "--r", "2"],
        ["--n", "19", "--r", "2", "--direct"],
        ["--n", "40", "--table", "5"],
        ["--n", "183", "--table", "45", "--direct"],
    ]),
    "broom": ((None, "json", "text"), [
        ["--r", "3", "--q", "2", "--p", "2", "--rr", "2"],
        ["--r", "4", "--q", "1", "--p", "1", "--rr", "1"],
    ]),
    "limit": ((None, "csv", "json"), [
        ["--family", "adjacency", "--n-max", "6"],
        ["--family", "laplacian", "--n-max", "6"],
        ["--family", "adjacency", "--n-max", "3", "--tol", "1e-6"],
    ]),
    "random-tree": ((None,), [
        ["--n", "30", "--seed", "5"],
        ["--n", "2", "--seed", "0"],
    ]),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_ARGV))
def test_golden_output(capsys, tmp_path, command):
    # sha256 over (exit code, stdout) of every argv and format of the
    # subcommand, recorded before the printers were merged into one (solve's
    # since the smaller type-2 fixed point is -gamma/theta); the
    # float columns go through the platform's libm (x86-64 glibc)
    golden = {
        "broom": "6ba2ffb175c89fea4e33a9ceb96c0f9f68e363d62b50a1dd41adb1183c8b2233",
        "eigen": "8e3cc12f3c3fc74d803092c195a7ad7839375126effec22a7b55a48e8a167d54",
        "limit": "1d1c19115a41bd0bc90b25a2c3dfc8678b5a56ed2392d5fe3857156af919ad53",
        "locate": "b5be19cf069255d6af2509158a902d375ce0a0fd8d2d2c7234590c97badadd96",
        "mlas": "719658a752fe8040a9bc54cbefe2399f2615307114470836114e0d518e0bfb3f",
        "plot-data": "a3e7c8c9eff3fa848b8bf6360ca61d54d392774899cc9708d409350a9ae6d1bc",
        "radius": "7dbdf354801a0d1739e7f5c89507655f438c82921c95529dbf596b85cd16f903",
        "random-tree": "344fe67b8c577d8e15245b1088621a0fffe4d9c57ed384a54b420d5cf20fed6d",
        "solve": "9b56501ed20c95947867a8b57e44ba2d2d9f22af62fa2d680e7c902582e15552",
    }
    tree = tmp_path / "caterpillar.txt"
    tree.write_text(CATERPILLAR)
    formats, argv_set = GOLDEN_ARGV[command]
    digest = hashlib.sha256()
    for argv in argv_set:
        argv = [token.replace("{tree}", str(tree)) for token in argv]
        for fmt in formats:
            flag = [] if fmt is None else ["--format", fmt]
            code, out, _ = invoke(capsys, *flag, command, *argv)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == golden[command]


#: (subcommand argv, format) pairs that printed the same as another pair
DEAD_FORMATS = [
    (["solve", "--alpha", "1", "--gamma", "-0.25", "--x1", "0.36"], "csv"),
    (["locate", "--tree", "{tree}", "--matrix", "adjacency", "--alpha", "0.5"], "csv"),
    (["radius", "--tree", "{tree}", "--matrix", "adjacency"], "csv"),
    (["eigen", "--tree", "{tree}", "--matrix", "adjacency", "--k", "1"], "csv"),
    (["broom", "--r", "3", "--q", "2", "--p", "2", "--rr", "2"], "csv"),
    (["mlas", "--n", "19", "--r", "2"], "text"),
    (["limit", "--family", "adjacency", "--n-max", "2"], "text"),
    (["plot-data", "--alpha", "1", "--gamma", "-1", "--x1", "0.3", "--from", "0", "--to", "1",
      "--step", "0.5"], "json"),
    (["plot-data", "--alpha", "1", "--gamma", "-1", "--x1", "0.3", "--from", "0", "--to", "1",
      "--step", "0.5"], "text"),
    (["random-tree", "--n", "5", "--seed", "1"], "json"),
    (["random-tree", "--n", "5", "--seed", "1"], "csv"),
    (["random-tree", "--n", "5", "--seed", "1"], "text"),
]


@pytest.mark.parametrize("argv, fmt", DEAD_FORMATS, ids=lambda x: x if isinstance(x, str) else x[0])
def test_format_a_subcommand_does_not_print_is_usage_error(capsys, tmp_path, argv, fmt):
    tree = tmp_path / "caterpillar.txt"
    tree.write_text(CATERPILLAR)
    argv = [token.replace("{tree}", str(tree)) for token in argv]
    code, out, err = invoke(capsys, "--format", fmt, *argv)
    assert (code, out) == (2, "")
    assert f"not --format {fmt}" in err
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and out


def test_closed_stdout_exits_1_without_traceback():
    cli = [sys.executable, "-m", "treespec.cli"]
    # stdout closed before the run starts: the write fails at the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(cli + ["mlas", "--n", "19"], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, b"")
    # stdout closed after the first line, mid-way through ~0.5 MB of edges
    with subprocess.Popen(cli + ["random-tree", "--n", "50000", "--seed", "1"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (1, b"")
    assert first.split() and len(first.split()) == 2


def test_printer_rejects_non_finite_values_in_every_format(capsys):
    from types import SimpleNamespace

    from treespec.cli import _print
    from treespec.errors import DomainError

    rows = [{"n": 1, "x": 0.5, "y": {"z": [1.0, 2.0]}}, {"n": 2, "x": 0.5, "y": {"z": [1.0, math.nan]}}]
    for fmt in ("json", "csv", "text"):
        with pytest.raises(DomainError, match=r"computed y\.z\[1\] is not finite \(nan\)"):
            _print(SimpleNamespace(format=fmt, formats=(fmt,)), rows)
        flat = [{"n": 1, "x": 0.5}, {"n": 2, "x": -math.inf}]
        with pytest.raises(DomainError, match=r"computed x is not finite \(-inf\)"):
            _print(SimpleNamespace(format=fmt, formats=(fmt,)), flat)
    # CSV tuple rows are named by their header
    csv = SimpleNamespace(format="csv", formats=("csv",))
    with pytest.raises(DomainError, match=r"computed value is not finite \(nan\)"):
        _print(csv, [(0.5, 1.0, 0), (1.0, math.nan, 0)], header=("j", "value", "is_pole"))
    assert capsys.readouterr().out == ""
    # text that reads "inf" or "nan" without being a float prints
    _print(csv, [("infinite", "nano", 1)], header=("inf", "nan", "n"))
    assert capsys.readouterr().out == "inf,nan,n\ninfinite,nano,1\n"


def test_plot_data_failure_prints_no_partial_table(capsys):
    # theta/theta' < 0: j = 0 evaluates, j = 0.5 has no continuous extension
    argv = ["plot-data", "--alpha", "1", "--gamma", "2", "--x1", "0.7",
            "--from", "0", "--to", "2", "--step", "0.5"]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: theta/theta' < 0: solution defined only at integer j\n"
