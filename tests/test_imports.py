"""The package loads numpy only when a call computes with it.

``import hermitize`` resolves its public names on first use, and the CLI
imports the numeric modules inside the commands, after their checks.  So
``critical`` in closed form, ``continuum``, ``locus`` and every call that
fails before a solve run without numpy.  The checks run in fresh
interpreters, since this one has numpy loaded already.
"""
import json
import os
import subprocess
import sys

import pytest

import hermitize
from hermitize import analysis, critical


def _fresh(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermitize.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli_in_fresh_process(argv):
    """Exit code, output and whether numpy was loaded, for ``main(argv)``."""
    out = _fresh(
        "import json, sys\n"
        "import hermitize.cli as cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))\n")
    *lines, last = out.splitlines()
    code, numpy_loaded = json.loads(last)
    return code, "\n".join(lines), numpy_loaded


def test_import_hermitize_loads_no_numpy():
    assert _fresh("import sys, hermitize, hermitize.cli\n"
                  "print('numpy' in sys.modules)\n") == "False\n"


def test_closed_form_library_calls_load_no_numpy():
    assert _fresh("import sys, hermitize as h\n"
                  "h.continuum_convergence([40, 80, 160]).richardson()\n"
                  "h.endpoint_locus(5, t=[0.0, 0.5, 1.0])\n"
                  "print('numpy' in sys.modules)\n") == "False\n"


@pytest.mark.parametrize("argv, code", [
    (["critical", "--n", "6"], 0),
    (["critical", "--n", "2", "--xi-max", "0.6"], 0),
    (["spectrum", "--n", "4", "--xi", "0", "--zeta", "1"], 3),
    (["spectrum", "--n", "4"], 1),
    (["spectrum", "--n", "1", "--omega", "0.5"], 1),
    (["metric", "--n", "4", "--family", "band", "--omega", "nan"], 1),
    (["critical", "--n", "6", "--xi-steps", "0"], 1),
    (["critical", "--n", str(10 ** 308), "--xi-max", "5e-324"], 1),
    (["spectrum", "--n", "4", "--omega", "0.5", "--out", "/nonexistent/x.csv"],
     1),
    (["spectrum", "--n", "4", "--omega", "0.5", "--out", "."], 1),
])
def test_calls_that_compute_nothing_numeric_load_no_numpy(argv, code):
    got, _, numpy_loaded = _cli_in_fresh_process(argv)
    assert (got, numpy_loaded) == (code, False)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, code", [
    (["continuum", "--m", "40,80,160"], 0),
    (["locus", "--n", "5", "--samples", "20"], 0),
    (["locus", "--n", "4", "--samples", "100000000000000"], 1),
    (["continuum", "--m", "4," + "1" * 400], 1),
    (["locus", "--n", str(3 * 10 ** 307)], 1),
], ids=["continuum", "locus", "locus-too-many-samples",
        "continuum-too-large", "locus-too-large"])
def test_closed_form_commands_load_no_numpy(argv, code, fmt):
    got, _, numpy_loaded = _cli_in_fresh_process([*argv, "--format", fmt])
    assert (got, numpy_loaded) == (code, False)


def test_critical_on_the_edge_loads_numpy_and_keeps_its_value():
    # xi_max < xi* takes the O(n) Newton iteration on the EP curve.
    code, out, numpy_loaded = _cli_in_fresh_process(
        ["critical", "--n", "64", "--xi-max", "1e-3"])
    assert (code, numpy_loaded) == (0, True)
    value = json.loads(out)["value"]
    assert value == critical.critical_zeta(64, xi_max=1e-3).value
    assert value == pytest.approx(0.07473141966859217, rel=1e-14)


def test_every_public_name_resolves_to_its_module():
    for name in hermitize.__all__:
        value = getattr(hermitize, name)
        assert value is getattr(sys.modules[value.__module__], name), name


def test_dir_lists_every_public_name():
    assert set(hermitize.__all__) <= set(dir(hermitize))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hermitize.no_such_name
    assert not hasattr(hermitize, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hermitize import *", namespace)
    assert set(hermitize.__all__) <= set(namespace)
    assert namespace["critical_zeta"] is hermitize.critical_zeta


def test_old_import_paths_are_the_same_objects():
    assert hermitize.analysis.critical_zeta is hermitize.critical_zeta
    assert analysis.CriticalResult is critical.CriticalResult
