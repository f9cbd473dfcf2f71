import errno
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hermitize.cli as cli
from hermitize import analysis, metric, spectrum
from hermitize.errors import NoConvergence
from hermitize.families import FAMILIES
from hermitize.model import ModelParams

from _oracles import (continuum_arrays, continuum_json, critical_json,
                      csv_table, g17, json_hooked, json_text, jsonable,
                      locus_arrays, locus_json, metric_json, nullspace_json,
                      spectrum_json, sweep_json, verify_json, wavefn_json)


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
                        "--xi-steps", "200")
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


def _python_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # Block-buffered stdout, a shell's default, so that output left in a
    # buffer at exit would show as missing.
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_python(*args, text=True):
    # A fresh interpreter with a timeout, so a bisection that never ends
    # fails the test instead of hanging the suite.
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=text, env=_python_env(), timeout=60)


def _run_process(*argv):
    return _run_python("-m", "hermitize.cli", *argv)


@pytest.mark.parametrize("flag, value", [("--xi-steps", "0")])
def test_critical_rejects_bad_tolerance_or_grid(flag, value):
    proc = _run_process("critical", "--n", "4", f"{flag}={value}")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert flag[2:].replace("-", "_") in proc.stderr


@pytest.mark.parametrize("value", ["0", "-1", "nan", "1e-5"])
def test_critical_has_no_zeta_tol_flag(capsys, value):
    # The value is exact, so a bisection tolerance has nothing to set: any
    # --zeta-tol, valid once or not, is a usage error.
    code, out, err = _run(capsys, "critical", "--n", "4",
                          f"--zeta-tol={value}")
    assert (code, out) == (1, "")
    assert err == f"error: unrecognized arguments: --zeta-tol={value}\n"


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


@pytest.mark.parametrize("command", ["spectrum", "wavefn", "nullspace"])
@pytest.mark.parametrize("flags, coupling, message", [
    ((), {}, "no coupling given: supply (xi, zeta) or omega"),
    (("--xi", "1", "--omega", "1"), {"xi": 1.0, "omega": 1.0},
     "give either (xi, zeta) or (omega, rho), not a mixture"),
    (("--xi", "1"), {"xi": 1.0}, "the Robin style needs both xi and zeta"),
    (("--rho", "1"), {"rho": 1.0}, "the Cartesian style needs omega"),
], ids=["none", "mixed", "xi-alone", "rho-alone"])
def test_coupling_usage_errors_are_those_of_model_params(capsys, command,
                                                         flags, coupling,
                                                         message):
    # The flags reach ModelParams as given, and its check is the CLI's.
    with pytest.raises(ValueError) as exc:
        ModelParams(n=4, **coupling)
    assert str(exc.value) == message
    code, out, err = _run(capsys, command, "--n", "4", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


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


@pytest.mark.parametrize("target, code", [
    ("missing/x.csv", errno.ENOENT), (".", errno.EISDIR)])
def test_unwritable_out_is_a_usage_error(tmp_path, target, code):
    # An --out path that cannot be opened is reported, not a traceback.
    out = tmp_path / target
    proc = _run_process("spectrum", "--n", "4", "--omega", "0.5",
                        "--out", str(out))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: cannot write {out}: {os.strerror(code)}\n"


def test_failing_call_leaves_an_existing_out_file_untouched(capsys,
                                                             tmp_path):
    # The directory is checked before the solve; the file is opened only
    # after it succeeds.
    out = tmp_path / "keep.csv"
    out.write_bytes(b"old\n")
    code, _, _ = _run(capsys, "spectrum", "--n", "4", "--xi", "0", "--zeta",
                      "1", "--out", str(out))
    assert code == 3 and out.read_bytes() == b"old\n"


def test_no_convergence_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NoConvergence("stalled")
    monkeypatch.setattr(spectrum, "solve_spectrum", boom)
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


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e-10"])
def test_nullspace_rejects_bad_rank_tolerance(capsys, value):
    # The dimension is n at every coupling, so there is no cutoff to set:
    # any --tol-rank, valid once or not, is a usage error.
    code, out, err = _run(capsys, "nullspace", "--n", "3", "--xi", "0.5",
                          "--zeta", "0.2", f"--tol-rank={value}")
    assert code == 1 and out == "" and "--tol-rank" in err


def test_nullspace_dimension_is_n_at_a_strong_coupling(capsys):
    # z = 100: the rank cutoff 1e-10 printed dimension 7 and a warning
    # that the spectrum was degenerate.
    code, out, err = _run(capsys, "nullspace", "--n", "6", "--xi", "0",
                          "--zeta", "0.99")
    doc = json.loads(out)
    assert code == 0 and err == ""
    assert doc["dimension"] == 6 and len(doc["elements"]) == 6
    assert "tol_rank" not in doc


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


def _console_script_entry():
    # The "module:function" that [project.scripts] names for hermitize.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        match = re.search(r'^hermitize = "([\w.]+):(\w+)"$', fh.read(),
                          re.MULTILINE)
    return match.group(1), match.group(2)


def _run_console_script(*argv):
    # What the installed wrapper does: sys.exit(<entry>()).
    module, func = _console_script_entry()
    return _run_python("-c", f"import sys; from {module} import {func}; "
                       f"sys.exit({func}())", *argv, text=False)


_SWEEP_ARGV = ("sweep", "--n", "8", "--axis", "xi", "--min", "0", "--max",
               "3", "--steps", "2000", "--zeta", "0.2")


@pytest.mark.parametrize("argv, code", [
    (("critical", "--n", "6"), 0),
    (("spectrum", "--n", "1", "--omega", "0.5"), 1),
    (("spectrum", "--n", "8", "--omega", "1e154", "--rho", "1e154"), 2),
    (("spectrum", "--n", "4", "--xi", "0", "--zeta", "1"), 3),
], ids=["ok", "usage", "no-convergence", "singular"])
def test_program_entry_prints_what_main_prints(capsys, argv, code):
    # The program entry ends the process without interpreter teardown;
    # stdout, stderr and the status must still be those of main().
    proc = _run_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == _run(capsys, *argv)
    assert proc.returncode == code


def test_program_entry_leaves_the_complete_out_file(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run_process(*_SWEEP_ARGV, "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    code, want, _ = _run(capsys, *_SWEEP_ARGV)
    assert code == 0 and out.read_bytes() == want.encode()


def test_console_script_is_the_program_entry():
    assert _console_script_entry() == ("hermitize.cli", "run")


@pytest.mark.parametrize("argv", [
    ("critical", "--n", "6"),
    ("spectrum", "--n", "5", "--xi", "0.4", "--zeta", "0.3", "--format",
     "json"),
    ("spectrum", "--n", "4", "--xi", "0", "--zeta", "1"),
], ids=["critical", "spectrum-json", "singular"])
def test_console_script_and_python_m_give_identical_bytes(argv):
    script = _run_console_script(*argv)
    module = _run_python("-m", "hermitize.cli", *argv, text=False)
    assert (script.returncode, script.stdout, script.stderr) == (
        module.returncode, module.stdout, module.stderr)


@pytest.mark.parametrize("lines_read", [0, 1])
def test_closed_output_pipe_ends_with_141_and_no_traceback(lines_read):
    # The reader closes before the first write, or after one line while
    # the output is still being written: either way the writer ends as a
    # shell reports one killed by SIGPIPE, 128 + 13, with nothing on
    # stderr.
    proc = subprocess.Popen(
        [sys.executable, "-m", "hermitize.cli", *_SWEEP_ARGV],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_python_env())
    try:
        for _ in range(lines_read):
            assert proc.stdout.readline() == b"axis,index,re_E,im_E,is_real\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")
    finally:
        proc.kill()
        proc.wait()


# Every CSV table against the earlier formatter (tests/_oracles.py: 17
# significant digits per float, fields joined by commas) applied to the
# results of the public API at the same arguments.
_SPECTRAL = ("axis", "index", "re_E", "im_E", "is_real")


def _spectral_rows(values, energies, flags):
    return [(g17(v), str(i), g17(e.real), g17(e.imag), "1" if r else "0")
            for v, row, row_flags in zip(values, energies, flags)
            for i, (e, r) in enumerate(zip(row, row_flags))]


def _spectrum_table(n, convention, axis, **coupling):
    spec = spectrum.solve_spectrum(
        ModelParams(n=n, convention=convention, **coupling))
    return csv_table(_SPECTRAL, _spectral_rows([axis], [spec.energies],
                                               [spec.is_real]))


def _wavefn_table(n, index, **coupling):
    params = ModelParams(n=n, **coupling)
    y = spectrum.solve_spectrum(params).y_roots[index]
    wf = spectrum.wavefunction(params, y)
    return csv_table(("site", "re_phi", "im_phi"),
                     [(str(m + 1), g17(c.real), g17(c.imag))
                      for m, c in enumerate(wf.components)])


def _metric_table(n, omega):
    theta = FAMILIES["band"].build(n, omega=omega)
    eigs = metric.hermitian_eigenvalues(theta)
    return csv_table(("axis", "index", "eigenvalue"),
                     [(g17(omega), str(i), g17(e)) for i, e in enumerate(eigs)])


def _verify_table(n, xi):
    theta = FAMILIES["n3_general"].build(n, xi=xi, r=1.0, s=1.0, u=0.0)
    params = ModelParams(n=n, xi=xi, zeta=0.0)
    report = metric.verify_metric(params, theta)
    spec = spectrum.solve_spectrum(params, with_wavefunctions=True)
    return csv_table(("field", "value"), [
        ("n", str(report.n)), ("family", report.family),
        ("params", ";".join(f"{k}={g17(v)}"
                            for k, v in report.params.items())),
        ("dieudonne_residual", g17(report.dieudonne_residual)),
        ("min_metric_eigenvalue", g17(report.min_eigenvalue)),
        ("positive_definite", "1" if report.positive_definite else "0"),
        ("max_wavefn_residual",
         g17(max(w.residual for w in spec.wavefunctions)))])


def _nullspace_table(n, **coupling):
    basis = metric.dieudonne_nullspace(ModelParams(n=n, **coupling))
    return csv_table(("element", "row", "col", "re", "im"), [
        (str(k), str(i), str(j), g17(b.matrix[i, j].real),
         g17(b.matrix[i, j].imag))
        for k, b in enumerate(basis) for i in range(n) for j in range(n)])


def _sweep_table(sweep, *args, **kwargs):
    result = sweep(*args, **kwargs)
    return csv_table(_SPECTRAL, _spectral_rows(result.values, result.energies,
                                               result.is_real))


def _critical_table(n):
    v = analysis.critical_zeta(n).value
    return csv_table(("n", "value", "bracket_lo", "bracket_hi", "xi_max",
                      "xi_steps"),
                     [(str(n), g17(v), g17(v), g17(v), g17(10.0), "2000")])


def _continuum_table(ms, levels):
    energies, rescaled, targets = continuum_arrays(ms, levels)
    return csv_table(("m", "level", "energy", "rescaled", "target"), [
        (str(m), str(k), g17(energies[i, k]), g17(rescaled[i, k]),
         g17(targets[k]))
        for i, m in enumerate(ms) for k in range(levels)])


def _locus_table(n, samples):
    t, zeta_p, xi_p, zeta_m, xi_m = locus_arrays(n, samples)
    return csv_table(("branch", "t", "zeta", "xi"), [
        (name, g17(v), g17(zt), g17(x))
        for name, zeta, xi in (("y_plus", zeta_p, xi_p),
                               ("y_minus", zeta_m, xi_m))
        for v, zt, x in zip(t, zeta, xi)])


_CSV_CASES = {
    "spectrum": (("spectrum", "--n", "7", "--xi", "1.1", "--zeta", "0.6"),
                 lambda: _spectrum_table(7, "lattice", 1.1, xi=1.1,
                                         zeta=0.6)),
    "spectrum-shifted": (
        ("spectrum", "--n", "5", "--omega", "1.3", "--rho", "-0.2",
         "--convention", "shifted"),
        lambda: _spectrum_table(5, "shifted", 1.3, omega=1.3, rho=-0.2)),
    "wavefn": (("wavefn", "--n", "6", "--xi", "0.4", "--zeta", "0.3",
                "--index", "2"),
               lambda: _wavefn_table(6, 2, xi=0.4, zeta=0.3)),
    "metric": (("metric", "--n", "9", "--family", "band", "--omega", "0.3"),
               lambda: _metric_table(9, 0.3)),
    "verify": (("verify", "--n", "3", "--family", "n3_general", "--xi",
                "0.5", "--format", "csv"),
               lambda: _verify_table(3, 0.5)),
    "nullspace": (("nullspace", "--n", "4", "--xi", "0.5", "--zeta", "0.2",
                   "--format", "csv"),
                  lambda: _nullspace_table(4, xi=0.5, zeta=0.2)),
    "sweep-xi": (("sweep", "--n", "5", "--axis", "xi", "--min", "0",
                  "--max", "1.5", "--steps", "7", "--zeta", "0.2"),
                 lambda: _sweep_table(analysis.sweep_xi, 5, 0.2, 0.0, 1.5,
                                      7)),
    "sweep-zeta-shifted": (
        ("sweep", "--n", "4", "--axis", "zeta", "--min", "-0.5", "--max",
         "0.8", "--steps", "6", "--xi", "0.6", "--convention", "shifted"),
        lambda: _sweep_table(analysis.sweep_zeta, 4, 0.6, -0.5, 0.8, 6,
                             convention="shifted")),
    "critical": (("critical", "--n", "6", "--format", "csv"),
                 lambda: _critical_table(6)),
    "continuum": (("continuum", "--m", "10,20,40", "--levels", "3"),
                  lambda: _continuum_table([10, 20, 40], 3)),
    "locus": (("locus", "--n", "4", "--samples", "5"),
              lambda: _locus_table(4, 5)),
}


@pytest.mark.parametrize("argv, table", list(_CSV_CASES.values()),
                         ids=list(_CSV_CASES))
def test_csv_tables_keep_the_earlier_formatter_bytes(capsys, argv, table):
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == table()


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sweep_peaks(out, *fmt):
    """Traced peaks of ``sweep_xi`` and of the CLI writing its 20,000-step
    sweep to ``out``."""
    analysis.sweep_xi(8, 0.2, 0.0, 3.0, 20)  # any first-call state
    argv = ["sweep", "--n", "8", "--axis", "xi", "--min", "0", "--max", "3",
            "--steps", "20000", "--zeta", "0.2", "--out", str(out), *fmt]
    solve = _traced_peak(lambda: analysis.sweep_xi(8, 0.2, 0.0, 3.0, 20000))
    codes = []
    written = _traced_peak(lambda: codes.append(cli.main(argv)))
    assert codes == [0] and out.stat().st_size > 7_000_000
    return written, solve


def test_sweep_table_memory_is_that_of_its_solve(tmp_path):
    # The table is formatted as it is written, so the CLI holds the solved
    # arrays and one row, not 160,000 formatted rows (8.7 times the solve's
    # peak when the table was built whole).
    table, solve = _sweep_peaks(tmp_path / "sweep.csv")
    assert table <= 1.5 * solve, (table, solve)


def test_sweep_json_memory_is_that_of_its_solve(tmp_path):
    # The document is encoded as it is written, a few thousand pieces at a
    # time (12.6 times the solve's peak when it was dumped whole).
    document, solve = _sweep_peaks(tmp_path / "sweep.json", "--format",
                                   "json")
    assert document <= 1.5 * solve, (document, solve)


# Every JSON document against the earlier writer (tests/_oracles.py: each
# value converted to lists and Python scalars, then one json.dumps)
# applied to the results of the public API at the same arguments.
def _spectrum_doc(n, convention="lattice", **coupling):
    params = ModelParams(n=n, convention=convention, **coupling)
    return spectrum_json(params, spectrum.solve_spectrum(params))


def _wavefn_doc(n, index, convention="lattice", **coupling):
    params = ModelParams(n=n, convention=convention, **coupling)
    y = spectrum.solve_spectrum(params).y_roots[index]
    return wavefn_json(params, index, spectrum.wavefunction(params, y))


def _metric_doc(family, n, **values):
    theta = FAMILIES[family].build(n, **values)
    return metric_json(theta, metric.hermitian_eigenvalues(theta))


def _verify_doc(family, n, **values):
    fam = FAMILIES[family]
    theta = fam.build(n, **values)
    params = ModelParams(n=n, **{fam.swept: values[fam.swept],
                                 fam.held: 0.0})
    spec = spectrum.solve_spectrum(params, with_wavefunctions=True)
    return verify_json(metric.verify_metric(params, theta),
                       max(w.residual for w in spec.wavefunctions))


def _nullspace_doc(n, **coupling):
    params = ModelParams(n=n, **coupling)
    return nullspace_json(params, metric.dieudonne_nullspace(params))


_JSON_CASES = {
    "spectrum": (("spectrum", "--n", "7", "--xi", "1.1", "--zeta", "0.6"),
                 lambda: _spectrum_doc(7, xi=1.1, zeta=0.6)),
    "spectrum-shifted": (
        ("spectrum", "--n", "5", "--omega", "1.3", "--rho", "-0.2",
         "--convention", "shifted"),
        lambda: _spectrum_doc(5, "shifted", omega=1.3, rho=-0.2)),
    "wavefn": (("wavefn", "--n", "6", "--xi", "0.4", "--zeta", "0.3",
                "--index", "2"),
               lambda: _wavefn_doc(6, 2, xi=0.4, zeta=0.3)),
    "wavefn-shifted": (("wavefn", "--n", "5", "--omega", "0.7", "--index",
                        "4", "--convention", "shifted"),
                       lambda: _wavefn_doc(5, 4, "shifted", omega=0.7)),
    "metric": (("metric", "--n", "9", "--family", "band", "--omega", "0.3"),
               lambda: _metric_doc("band", 9, omega=0.3)),
    "metric-n3": (("metric", "--n", "3", "--family", "n3_general", "--xi",
                   "0.7", "--r", "1.5"),
                  lambda: _metric_doc("n3_general", 3, xi=0.7, r=1.5, s=1.0,
                                      u=0.0)),
    "verify": (("verify", "--n", "6", "--family", "band_u", "--omega",
                "0.2", "--u", "0.1"),
               lambda: _verify_doc("band_u", 6, omega=0.2, u=0.1)),
    "verify-n4": (("verify", "--n", "4", "--family", "n4_special", "--xi",
                   "0.5"),
                  lambda: _verify_doc("n4_special", 4, xi=0.5)),
    "nullspace": (("nullspace", "--n", "4", "--xi", "0.5", "--zeta", "0.2"),
                  lambda: _nullspace_doc(4, xi=0.5, zeta=0.2)),
    "nullspace-cartesian": (
        ("nullspace", "--n", "3", "--omega", "0.5", "--rho", "0.1"),
        lambda: _nullspace_doc(3, omega=0.5, rho=0.1)),
    "sweep-xi": (("sweep", "--n", "5", "--axis", "xi", "--min", "0",
                  "--max", "1.5", "--steps", "7", "--zeta", "0.2"),
                 lambda: sweep_json(analysis.sweep_xi(5, 0.2, 0.0, 1.5, 7))),
    "sweep-zeta-shifted": (
        ("sweep", "--n", "4", "--axis", "zeta", "--min", "-0.5", "--max",
         "0.8", "--steps", "6", "--xi", "0.6", "--convention", "shifted"),
        lambda: sweep_json(analysis.sweep_zeta(4, 0.6, -0.5, 0.8, 6,
                                               convention="shifted"))),
    "critical": (("critical", "--n", "6", "--xi-steps", "30"),
                 lambda: critical_json(analysis.critical_zeta(6), 30)),
    "continuum": (("continuum", "--m", "10,20,40", "--levels", "3"),
                  lambda: continuum_json([10, 20, 40], 3)),
    "continuum-not-doubling": (("continuum", "--m", "10,30"),
                               lambda: continuum_json([10, 30])),
    "continuum-one-size": (("continuum", "--m", "10"),
                           lambda: continuum_json([10])),
    "locus": (("locus", "--n", "4", "--samples", "5"),
              lambda: locus_json(4, 5)),
}


@pytest.mark.parametrize("argv, doc", list(_JSON_CASES.values()),
                         ids=list(_JSON_CASES))
def test_json_documents_keep_the_earlier_writer_bytes(capsys, argv, doc):
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json_text(doc())


@pytest.mark.parametrize("case", ["sweep-zeta-shifted", "nullspace",
                                  "continuum-not-doubling"])
def test_json_out_file_keeps_the_earlier_writer_bytes(capsys, tmp_path,
                                                      case):
    argv, doc = _JSON_CASES[case]
    out = tmp_path / "doc.json"
    code, stdout, err = _run(capsys, *argv, "--format", "json", "--out",
                             str(out))
    assert (code, stdout, err) == (0, "", "")
    assert out.read_text(encoding="utf-8") == json_text(doc())


@pytest.mark.parametrize("value", [
    object(), {1, 2}, b"bytes", Ellipsis, np.bool_(True), np.int64(7),
    np.float32(0.1), np.array(2.5), np.arange(4),
    np.array([1 + 1j, 2], dtype=np.complex64)],
    ids=["object", "set", "bytes", "ellipsis", "numpy-bool", "numpy-int64",
         "numpy-float32", "0-d-array", "int-array", "complex64-array"])
def test_json_hook_refuses_a_type_it_does_not_know(value):
    # No document holds these; the writer names the type it refuses.
    kind = type(value)
    name = re.escape(f"{kind.__module__}.{kind.__name__}")
    with pytest.raises(TypeError, match=f"^{name} is not JSON serializable$"):
        "".join(cli._json_chunks(value))
    with pytest.raises(TypeError, match=f"^{name} is not JSON serializable$"):
        "".join(cli._json_chunks({"a": [1.0, value]}))


def test_closed_pipe_during_a_json_sweep_ends_with_141():
    proc = subprocess.Popen(
        [sys.executable, "-m", "hermitize.cli", "sweep", "--n", "8",
         "--axis", "xi", "--min", "0", "--max", "3", "--steps", "20000",
         "--zeta", "0.2", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_python_env())
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")
    finally:
        proc.kill()
        proc.wait()


@pytest.mark.parametrize("argv", [
    ("metric", "--n", "8", "--family", "band", "--omega", "1e200"),
    ("metric", "--n", "8", "--family", "band", "--omega", "1e45"),
    ("verify", "--n", "8", "--family", "band", "--omega", "-1e200"),
    ("verify", "--n", "8", "--family", "band_u", "--omega", "1e45", "--u",
     "1"),
], ids=["metric-1e200", "metric-1e45", "verify-1e200", "verify-band_u"])
def test_band_overflow_is_one_error_line_naming_it(argv):
    # Warnings as errors: a numpy overflow warning would end in a
    # traceback.
    proc = _run_python("-W", "error", "-m", "hermitize.cli", *argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    omega = float(argv[argv.index("--omega") + 1])
    assert proc.stderr == ("error: the band entries overflow the float "
                           f"range at n = 8, omega = {omega!r}\n")


@pytest.mark.parametrize("omega", ["1e308", "-1e308", "9e307"])
def test_nullspace_overflow_is_one_error_line(omega):
    # Warnings as errors: the Kronecker system of H^dag and H overflows,
    # and a numpy warning would end in a traceback.
    proc = _run_python("-W", "error", "-m", "hermitize.cli", "nullspace",
                       "--n", "2", "--omega", omega)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: the intertwining system overflows the "
                           "float range\n")


# The writer of numeric rows against the encoder with the earlier hook
# (tests/_oracles.py), on edge values and on every command's document.
_EDGE_DOCS = {
    "nan-inf-zero": [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308],
    "float-array": np.array([np.nan, -np.inf, np.inf, -0.0, 1.5, 1e-300]),
    "empty-1d": np.array([]),
    "empty-2d": np.zeros((0, 3)),
    "empty-rows": np.zeros((2, 0)),
    "complex-2d": np.array([[1 + 2j, complex(np.nan, -0.0)],
                            [complex(np.inf, -np.inf), -3j]]),
    "complex-column": np.array([[1 + 2j, 3 - 4j], [5j, 6.5]])[:, 1],
    "complex-3d": np.arange(12.0).reshape(2, 3, 2) * (1 - 1j),
    "bool-2d": np.array([[True, False], [False, True]]),
    "nested": {"a": {"b": {"c": [1, 2.5, None, True, "x\u00e9\""]}},
               "e": {}, "f": [], "g": [[]], "h": (1.0, -0.0),
               "i": [[0.1, 0.2], [np.array([0.3])]], "j": None},
    "scalars": [None, True, False, 0, -12345678901234567890, 3 - 4j],
}


@pytest.mark.parametrize("doc", list(_EDGE_DOCS.values()),
                         ids=list(_EDGE_DOCS))
def test_json_rows_keep_the_encoder_bytes(doc):
    assert "".join(cli._json_chunks(doc)) == json_hooked(doc)


def _command_doc(argv):
    args = cli._build_parser().parse_args(list(argv))
    return args.func(args)[1]


@pytest.mark.parametrize("argv", [argv for argv, _ in _JSON_CASES.values()],
                         ids=list(_JSON_CASES))
def test_json_rows_keep_the_encoder_bytes_on_every_command(argv):
    doc = _command_doc(argv)
    assert "".join(cli._json_chunks(doc)) == json_hooked(doc)


def test_json_writer_refuses_unknown_values_and_keys_that_are_not_str():
    # The program's documents have str keys only; the encoder would write
    # 1.5 or None as a key, the writer refuses them.
    for doc in ({"k": object()}, {(1, 2): 3}, {1.5: 0}, {None: 0}):
        with pytest.raises(TypeError):
            "".join(cli._json_chunks(doc))


def test_large_json_sweep_encodes_twice_as_fast_as_the_encoder():
    # The 20,000-step document; the encoder's indent runs in pure Python.
    import time

    doc = _command_doc(["sweep", "--n", "8", "--axis", "xi", "--min", "0",
                        "--max", "3", "--steps", "20000", "--zeta", "0.2"])

    def seconds(encode):
        start = time.perf_counter()
        text = encode()
        return time.perf_counter() - start, text

    encoder = json.JSONEncoder(indent=2, default=jsonable)
    old, new = [], []
    for _ in range(3):
        elapsed, old_text = seconds(lambda: "".join(encoder.iterencode(doc)))
        old.append(elapsed)
        elapsed, new_text = seconds(lambda: "".join(cli._json_chunks(doc)))
        new.append(elapsed)
    assert new_text == old_text
    assert min(old) >= 2.0 * min(new), (old, new)


_HUGE = "100000000000000"


@pytest.mark.parametrize("argv, message", [
    (("continuum", "--m", "1" + "0" * 400), "M = 1" + "0" * 400
     + " is too large: ((2 M + 1) / 2)^2 overflows the float range"),
    (("continuum", "--m", "4," + str(2 ** 600)), f"M = {2 ** 600} is too "
     "large: ((2 M + 1) / 2)^2 overflows the float range"),
    (("locus", "--n", "1" + "0" * 400), "n = 1" + "0" * 400
     + " is too large: n + 1 overflows the float range"),
    (("locus", "--n", str(3 * 10 ** 307)), f"n = {3 * 10 ** 307} is too "
     "large: 4 n + (n + 1) rho^2 overflows the float range"),
    (("critical", "--n", str(10 ** 308)), f"n = {10 ** 308} is too large: "
     "2 (n + 1) overflows the float range"),
    (("critical", "--n", "1" + "0" * 400, "--xi-max", "1e-3"), "n = 1"
     + "0" * 400 + " is too large: 2 (n + 1) overflows the float range"),
    (("locus", "--n", "4", "--samples", _HUGE),
     f"out of memory: cannot hold {_HUGE} floats"),
    (("continuum", "--m", _HUGE, "--levels", _HUGE),
     f"out of memory: cannot hold {_HUGE} floats"),
    (("sweep", "--n", "4", "--axis", "xi", "--min", "0", "--max", "1",
      "--zeta", "0.2", "--steps", _HUGE), "out of memory: Unable to allocate"),
    (("spectrum", "--n", _HUGE, "--omega", "0.5"),
     "out of memory: Unable to allocate"),
    (("critical", "--n", _HUGE, "--xi-max", "1e-30"),
     f"out of memory: cannot hold n = {_HUGE} floats"),
    (("critical", "--n", str(10 ** 19), "--xi-max", "1e-30"),
     f"out of memory: cannot hold n = {10 ** 19} floats"),
], ids=["continuum-m-1e400", "continuum-m-2^600", "locus-n-1e400",
        "locus-n-3e307", "critical-n-1e308", "critical-n-1e400",
        "locus-samples", "continuum-levels", "sweep-steps",
        "spectrum-n", "critical-edge-n-1e14", "critical-edge-n-1e19"])
def test_sizes_too_large_to_use_are_one_error_line(argv, message):
    for fmt in ("csv", "json"):
        proc = _run_process(*argv, "--format", fmt)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: " + message)
        assert proc.stderr.count("\n") == 1, proc.stderr


def test_locus_fails_at_once_under_an_address_space_cap():
    # Capped at 1 GiB, a list of 1e14 floats, or of 2e8 (1.6 GB of
    # pointers), is refused at its allocation; a list grown item by item
    # would fill the cap first.
    code = (
        "import resource, sys, time\n"
        "cap = 1 << 30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from hermitize.cli import main\n"
        "for samples in ('100000000000000', '200000000'):\n"
        "    start = time.perf_counter()\n"
        "    code = main(['locus', '--n', '4', '--samples', samples])\n"
        "    assert code == 1, code\n"
        "    assert time.perf_counter() - start < 0.5\n"
        "print('ok')\n")
    proc = _run_python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
    assert proc.stderr == (
        "error: out of memory: cannot hold 100000000000000 floats\n"
        "error: out of memory: cannot hold 200000000 floats\n")
