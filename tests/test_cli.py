import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hermitize.cli as cli
from hermitize.errors import NoConvergence


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_csv_schema_and_values(capsys):
    code, out, _ = _run(capsys, "spectrum", "--n", "4", "--xi", "0",
                        "--zeta", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "axis,index,re_E,im_E,is_real"
    assert len(lines) == 5
    energies = sorted(float(l.split(",")[2]) for l in lines[1:])
    expect = [0.0, 2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)]
    assert np.allclose(energies, expect, atol=1e-10)
    assert all(l.split(",")[4] == "1" for l in lines[1:])


def test_spectrum_json_fields(capsys):
    code, out, _ = _run(capsys, "spectrum", "--n", "3", "--omega", "0.4",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["params"] == {"omega": 0.4, "rho": 0.0}
    assert doc["convention"] == "lattice"
    assert len(doc["results"]) == 3
    assert set(doc["results"][0]) == {"y", "energy", "is_real"}


def test_spectrum_output_deterministic(capsys, tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    for f in (f1, f2):
        code = cli.main(["spectrum", "--n", "7", "--xi", "1.1",
                         "--zeta", "0.6", "--out", str(f)])
        assert code == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    assert b"\r" not in f1.read_bytes()


def test_out_file_matches_stdout(capsys, tmp_path):
    f = tmp_path / "o.csv"
    code1 = cli.main(["locus", "--n", "3", "--samples", "4"])
    stdout = capsys.readouterr().out
    code2 = cli.main(["locus", "--n", "3", "--samples", "4",
                      "--out", str(f)])
    capsys.readouterr()
    assert code1 == code2 == 0
    assert f.read_text(encoding="utf-8") == stdout


def test_wavefn_csv_and_index_validation(capsys):
    code, out, _ = _run(capsys, "wavefn", "--n", "5", "--xi", "0.5",
                        "--zeta", "0.2", "--index", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "site,re_phi,im_phi"
    assert len(lines) == 6
    # first site is normalized to 1
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)
    code, _, err = _run(capsys, "wavefn", "--n", "5", "--xi", "0.5",
                        "--zeta", "0.2", "--index", "7")
    assert code == 1 and "index" in err


def test_metric_csv_eigenvalues(capsys):
    code, out, _ = _run(capsys, "metric", "--n", "2", "--family", "band",
                        "--omega", "0.5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "axis,index,eigenvalue"
    eigs = [float(l.split(",")[2]) for l in lines[1:]]
    assert eigs == pytest.approx([0.5, 1.5], abs=1e-12)
    assert all(l.split(",")[0] == "0.5" for l in lines[1:])


def test_metric_family_parameter_validation(capsys):
    code, _, err = _run(capsys, "metric", "--n", "4", "--family", "band")
    assert code == 1 and "--omega" in err
    code, _, err = _run(capsys, "metric", "--n", "4", "--family",
                        "n3_special", "--xi", "1.0")
    assert code == 1 and "size 3" in err


def test_metric_rejects_parameters_the_family_does_not_take(capsys):
    code, out, err = _run(capsys, "metric", "--n", "3", "--family", "band",
                          "--omega", "0.3", "--u", "0.5", "--r", "7",
                          "--xi", "2")
    assert code == 1 and out == "" and "takes no --u" in err
    code, _, err = _run(capsys, "verify", "--n", "4", "--family",
                        "n4_special", "--xi", "0.5", "--s", "2")
    assert code == 1 and "takes no --s" in err
    # r and s default to 1 in the family table when neither flag is given
    code, out, _ = _run(capsys, "verify", "--n", "3", "--family",
                        "n3_general", "--xi", "0.5", "--format", "csv")
    assert code == 0
    assert "params,xi=0.5;r=1;s=1;u=0" in out.split("\n")


def test_verify_json_contract(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "6", "--family", "band_u",
                        "--omega", "0.25", "--u", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["n", "family", "params", "dieudonne_residual",
                         "min_metric_eigenvalue", "positive_definite",
                         "max_wavefn_residual"]
    assert doc["n"] == 6
    assert doc["family"] == "band_u"
    assert doc["dieudonne_residual"] == 0.0
    assert doc["max_wavefn_residual"] < 1e-10
    assert isinstance(doc["positive_definite"], bool)


def test_verify_fixed_size_family(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "3", "--family",
                        "n3_special", "--xi", "0.8")
    assert code == 0
    doc = json.loads(out)
    assert doc["dieudonne_residual"] < 1e-14
    assert doc["positive_definite"] is True


def test_nullspace_json_dimension(capsys):
    code, out, _ = _run(capsys, "nullspace", "--n", "3", "--xi", "0.5",
                        "--zeta", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 3
    assert len(doc["elements"]) == 3
    assert len(doc["elements"][0]) == 3


def test_sweep_csv_row_count_and_axis(capsys):
    code, out, _ = _run(capsys, "sweep", "--n", "4", "--axis", "xi",
                        "--min", "0", "--max", "1", "--steps", "3",
                        "--zeta", "0.3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "axis,index,re_E,im_E,is_real"
    assert len(lines) == 1 + 3 * 4
    assert lines[1].split(",")[0] == "0"
    assert lines[-1].split(",")[0] == "1"


def test_sweep_flag_conflicts(capsys):
    code, _, err = _run(capsys, "sweep", "--n", "4", "--axis", "xi",
                        "--min", "0", "--max", "1", "--steps", "3")
    assert code == 1 and "--zeta" in err
    code, _, err = _run(capsys, "sweep", "--n", "4", "--axis", "zeta",
                        "--min", "0", "--max", "0.5", "--steps", "3",
                        "--zeta", "0.1", "--xi", "0.2")
    assert code == 1


def test_continuum_csv_and_json(capsys):
    code, out, _ = _run(capsys, "continuum", "--m", "10,20", "--levels", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,level,energy,rescaled,target"
    assert len(lines) == 5
    code, out, _ = _run(capsys, "continuum", "--m", "10,20",
                        "--format", "json")
    doc = json.loads(out)
    assert doc["ms"] == [10, 20]
    assert doc["richardson"] is not None
    code, out, _ = _run(capsys, "continuum", "--m", "10,15",
                        "--format", "json")
    assert json.loads(out)["richardson"] is None
    code, _, err = _run(capsys, "continuum", "--m", "ten")
    assert code == 1


def test_critical_json_fields(capsys):
    code, out, _ = _run(capsys, "critical", "--n", "2", "--xi-max", "2",
                        "--xi-steps", "200", "--zeta-tol", "1e-3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["value"] == pytest.approx(0.5, abs=5e-3)
    assert doc["bracket"][0] <= doc["value"] <= doc["bracket"][1]
    # The value is exact: the bracket is degenerate, and the kept grid
    # flags are echoed.
    assert doc["bracket"] == [doc["value"], doc["value"]]
    assert (doc["xi_max"], doc["xi_steps"]) == (2.0, 200)


@pytest.mark.parametrize("argv, flag", [
    (("--omega", "1", "--rho", "-inf"), "rho"),
    (("--xi", "0.5", "--zeta", "-nan"), "zeta"),
    (("--omega", "-Infinity"), "omega")])
def test_negative_non_finite_values_reach_the_finiteness_check(capsys, argv,
                                                               flag):
    # A separate "-inf" was read as a flag ("expected one argument").
    code, out, err = _run(capsys, "spectrum", "--n", "4", *argv)
    assert code == 1 and out == ""
    assert f"{flag} must be finite" in err


def _run_python(*args):
    # A fresh interpreter with a timeout, so a bisection that never ends
    # fails the test instead of hanging the suite.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def _run_process(*argv):
    return _run_python("-m", "hermitize.cli", *argv)


@pytest.mark.parametrize("flag, value", [
    ("--zeta-tol", "0"), ("--zeta-tol", "-1"), ("--zeta-tol", "nan"),
    ("--xi-steps", "0")])
def test_critical_rejects_bad_tolerance_or_grid(flag, value):
    proc = _run_process("critical", "--n", "4", f"{flag}={value}")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert flag[2:].replace("-", "_") in proc.stderr


@pytest.mark.parametrize("flag, value", [
    ("--n", "1"), ("--xi-max", "nan"), ("--xi-max", "inf"),
    ("--xi-max", "-1")])
def test_critical_rejects_bad_size_or_range(flag, value):
    args = {"--n": "4", flag: value}
    proc = _run_process("critical", *(f"{k}={v}" for k, v in args.items()))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert flag[2:].replace("-", "_") in proc.stderr


def test_locus_csv_schema(capsys):
    code, out, _ = _run(capsys, "locus", "--n", "4", "--samples", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "branch,t,zeta,xi"
    assert len(lines) == 7
    assert lines[1].startswith("y_plus,0,0,0")
    assert lines[4].startswith("y_minus,")


def test_usage_exit_codes(capsys):
    # unknown flag, missing coupling, mixed styles: all usage errors
    assert _run(capsys, "spectrum", "--n", "4")[0] == 1
    assert _run(capsys, "spectrum", "--n", "4", "--xi", "1", "--omega",
                "1")[0] == 1
    assert _run(capsys, "spectrum", "--bogus", "1")[0] == 1
    assert _run(capsys, "nosuchcommand")[0] == 1


def test_flags_a_subcommand_does_not_read_are_rejected(capsys):
    code, _, err = _run(capsys, "continuum", "--m", "5,10", "--tol", "1e-3")
    assert code == 1 and "--tol" in err
    assert _run(capsys, "metric", "--n", "2", "--family", "band", "--omega",
                "0.5", "--convention", "shifted")[0] == 1


def test_singular_parameters_exit_code(capsys):
    code, _, err = _run(capsys, "spectrum", "--n", "4", "--xi", "0",
                        "--zeta", "1")
    assert code == 3 and "singular" in err.lower() or "pole" in err.lower() \
        or "undefined" in err.lower()
    code, _, _ = _run(capsys, "sweep", "--n", "4", "--axis", "zeta",
                      "--min", "0", "--max", "2", "--steps", "5",
                      "--xi", "0")
    assert code == 3


def test_no_convergence_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NoConvergence("stalled")
    monkeypatch.setattr(cli, "solve_spectrum", boom)
    code, _, err = _run(capsys, "spectrum", "--n", "4", "--omega", "0.5")
    assert code == 2 and "stalled" in err


@pytest.mark.parametrize("argv, code", [
    (("spectrum", "--n", "8", "--omega", "1e154", "--rho", "1e154"), 2),
    (("spectrum", "--n", "8", "--omega", "nan"), 1),
    (("spectrum", "--n", "4", "--xi", "inf", "--zeta", "0"), 1),
    (("wavefn", "--n", "4", "--omega", "0.5", "--rho", "-inf"), 1),
    (("sweep", "--n", "2", "--axis", "xi", "--min", "0", "--max", "1",
      "--steps", "3", "--zeta", "nan"), 1),
    (("sweep", "--n", "4", "--axis", "zeta", "--min", "0", "--max", "inf",
      "--steps", "3", "--xi", "0.5"), 1),
    (("nullspace", "--n", "3", "--xi", "nan", "--zeta", "0.2"), 1),
], ids=["overflow", "omega-nan", "xi-inf", "rho-inf", "sweep-zeta-nan",
        "sweep-max-inf", "nullspace-nan"])
def test_non_finite_values_are_never_printed(capsys, argv, code):
    with np.errstate(all="ignore"):
        got, out, err = _run(capsys, *argv)
    assert got == code and out == "" and err.startswith("error: ")


def test_overflowing_coupling_prints_one_error_line():
    # A fresh interpreter, so numpy's warnings would reach stderr.
    proc = _run_process("spectrum", "--n", "8", "--omega", "1e154",
                        "--rho", "1e154")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: a root is not finite "
                           "(overflow, inf or nan)\n")


@pytest.mark.parametrize("argv", [
    ("sweep", "--n", "4", "--axis", "xi", "--zeta", "0.3", "--min", "0",
     "--max", "1", "--steps", "0"),
    ("sweep", "--n", "4", "--axis", "zeta", "--xi", "0.3", "--min", "0",
     "--max", "0.5", "--steps", "-1"),
    ("locus", "--n", "4", "--samples", "0"),
    ("locus", "--n", "4", "--samples", "-2"),
    ("continuum", "--m", "10,20", "--levels", "0"),
    ("continuum", "--m", "10,20", "--levels", "-1"),
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_empty_grids_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {argv[-2][2:]} must be >= 1, got {argv[-1]}\n"


@pytest.mark.parametrize("command", ["metric", "verify"])
@pytest.mark.parametrize("family, flag, value", [
    (("--family", "band"), "--omega", "nan"),
    (("--family", "band"), "--omega", "inf"),
    (("--family", "n3_general", "--xi", "0.3"), "--r", "nan"),
])
def test_metric_family_parameters_must_be_finite(command, family, flag,
                                                 value):
    # A fresh interpreter, so numpy's warnings would reach stderr.
    proc = _run_process(command, "--n", "3", *family, flag, value)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {flag} must be finite, got {value}\n"


@pytest.mark.parametrize("argv", [
    ("sweep", "--n", "0", "--axis", "xi", "--min", "0", "--max", "1",
     "--steps", "3", "--zeta", "0.3"),
    ("sweep", "--n", "1", "--axis", "zeta", "--min", "0", "--max", "0.5",
     "--steps", "3", "--xi", "0.3"),
    ("metric", "--n", "0", "--family", "band", "--omega", "0.3"),
    ("metric", "--n", "1", "--family", "band", "--omega", "0.3"),
    ("verify", "--n", "0", "--family", "band", "--omega", "0.3"),
    ("locus", "--n", "0"),
    ("locus", "--n", "1"),
], ids=lambda argv: f"{argv[0]}-n{argv[2]}")
def test_sizes_below_two_sites_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert "n must be an integer >= 2" in err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_nullspace_rejects_bad_rank_tolerance(capsys, value):
    code, out, err = _run(capsys, "nullspace", "--n", "3", "--xi", "0.5",
                          "--zeta", "0.2", f"--tol-rank={value}")
    assert code == 1 and out == "" and "tol_rank" in err


def test_cli_import_leaves_out_the_thread_pool_modules():
    # Every CLI call pays the import; concurrent.futures (and logging,
    # which it imports) have no user left in the package.
    proc = _run_python(
        "-c", "import sys, hermitize.cli; "
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, flag, exp, dec", [
    (("spectrum", "--n", "4", "--omega", "1"), "--rho", "-1e-3", "-0.001"),
    (("spectrum", "--n", "4", "--xi", "0.5"), "--zeta", "-2.5e-05",
     "-0.000025"),
    (("sweep", "--n", "3", "--axis", "xi", "--max", "1", "--steps", "3",
      "--zeta", "0.2"), "--min", "-1e-3", "-0.001"),
    (("spectrum", "--n", "4"), "--omega", "-1E-2", "-0.01")])
def test_negative_values_in_exponent_notation(capsys, argv, flag, exp, dec):
    # repr of a small float has an exponent; argparse's negative-number
    # pattern (Python 3.10-3.12) has none and read it as a flag.
    code, out, err = _run(capsys, *argv, flag, exp)
    assert (code, err) == (0, "")
    assert out == _run(capsys, *argv, flag, dec)[1]


@pytest.mark.parametrize("command", ["metric", "verify"])
@pytest.mark.parametrize("family, n", [("n3_general", 3), ("n3_special", 3),
                                       ("n4_special", 4)])
@pytest.mark.parametrize("xi", ["1e77", "-1e77", "1e155", "1e308"])
def test_fixed_size_families_at_huge_coupling(capsys, command, family, n,
                                              xi):
    # The entries are rational in xi with finite limits; Python's float
    # power overflowed on the way there from |xi| of about 1e77.
    code, out, err = _run(capsys, command, "--n", str(n), "--family", family,
                          "--xi", xi, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    values = (payload["eigenvalues"] if command == "metric"
              else [payload["min_metric_eigenvalue"],
                    payload["dieudonne_residual"]])
    assert np.all(np.isfinite(values))
