"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the root."""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import oracles as O  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import end_to_end, fail_rate_bound  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _build(name, seed):
    w = workloads.make(name, ROOT)
    return w.build(np.random.default_rng([seed, workloads.NAMES.index(name)]))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _build(name, 7) == _build(name, 7)
    assert _build(name, 7) != _build(name, 8)


def test_spectrum_point_mix_and_fixed_points():
    ops = _build("spectrum-point", 3)
    kinds = [op.kind for op in ops]
    assert kinds.count("n256") == 5 and "defect" in kinds
    defect = next(op for op in ops if op.kind == "defect")
    assert dict(defect.args) == {"n": 256, "xi": 0.01, "zeta": 0.9}


def _spectrum(n=12, z=0.7 + 0.4j):
    h = O.dense_hamiltonian(n, z)
    return h, np.linalg.eigvals(h)


def test_eigenvalue_check_accepts_lapack_answer():
    h, e = _spectrum()
    assert O.check_eigenvalues(e[::-1], h) is None


def test_eigenvalue_check_rejects_shifted_eigenvalue():
    h, e = _spectrum()
    e[3] += 1e-4
    assert O.check_eigenvalues(e, h) is not None


def test_eigenvalue_check_rejects_dropped_root():
    h, e = _spectrum()
    assert O.check_eigenvalues(e[1:], h) is not None
    e[0] = e[1]  # dropped, and a neighbour returned twice
    assert O.check_eigenvalues(e, h) is not None


def test_eigenvalue_check_rejects_non_finite_root():
    h, e = _spectrum()
    e[2] = np.inf
    assert O.check_eigenvalues(e, h) is not None


def test_eigenvector_check_rejects_wrong_vector():
    h, _ = _spectrum()
    e, v = np.linalg.eig(h)
    assert O.check_eigenvector(h, e[0], v[:, 0]) is None
    assert O.check_eigenvector(h, e[0], v[:, 1]) is not None


def test_metric_check_rejects_nonzero_band_residual():
    omega, n = 0.3, 10
    h = O.dense_hamiltonian(n, complex(1.0, omega))
    theta = O.band_metric(n, omega)
    lam = np.linalg.eigvalsh(theta)[0]
    assert O.check_metric(h, theta, 0.0, lam, lam > 0, exact=True) is None
    assert O.check_metric(h, theta, 1e-300, lam, lam > 0,
                          exact=True) is not None


def test_metric_check_rejects_wrong_sign():
    omega, n = 0.9, 10
    h = O.dense_hamiltonian(n, complex(1.0, omega))
    theta = O.band_metric(n, omega)
    lam = np.linalg.eigvalsh(theta)[0]
    assert lam < 0
    assert O.check_metric(h, theta, 0.0, -lam, True, exact=True) is not None


def test_nullspace_check_rejects_missing_element():
    h = O.dense_hamiltonian(3, O.z_robin(0.5, 0.2))
    import hermitize as hz
    basis = [b.matrix for b in hz.dieudonne_nullspace(
        hz.ModelParams(n=3, xi=0.5, zeta=0.2))]
    assert O.check_nullspace(h, basis) is None
    assert O.check_nullspace(h, basis[:-1]) is not None


def test_critical_check_bounds():
    assert O.check_critical(6, 0.09903) is None
    assert O.check_critical(6, 0.1) is not None
    assert O.check_critical(8, 0.07) is not None


def test_cli_check_rejects_wrong_exit_code():
    w = workloads.make("cli-session", ROOT)
    ops = _build("cli-session", 1)
    pole = next(op for op in ops if op.kind == "pole")
    assert w.check(pole, (3, "", "error: coupling undefined")) is None
    assert w.check(pole, (0, "", "")) is not None
    assert w.check(pole, (1, "", "error: usage")) is not None
    spectrum = next(op for op in ops if op.kind == "spectrum")
    assert w.check(spectrum, (2, "", "error: no convergence")) is not None


def test_cli_check_rejects_wrong_header_and_key_order():
    w = workloads.make("cli-session", ROOT)
    ops = _build("cli-session", 1)
    spectrum = next(op for op in ops if op.kind == "spectrum")
    assert w.check(spectrum, (0, "axis,index,E\n", "")) is not None
    verify = next(op for op in ops if op.kind == "verify")
    doc = {k: 0 for k in reversed(workloads.VERIFY_KEYS)}
    assert w.check(verify, (0, json.dumps(doc), "")) is not None


def test_fail_rate_bound():
    assert fail_rate_bound(0, 100) == pytest.approx(1 - 0.05 ** (1 / 100))
    assert 0.05 < fail_rate_bound(5, 100) < 0.11
    assert fail_rate_bound(3, 100) < fail_rate_bound(4, 100)
    assert fail_rate_bound(3, 200) < fail_rate_bound(3, 100)
    assert fail_rate_bound(7, 7) == 1.0


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("op"):
        tr.call("child", sum, range(1000))
    own = tr.self_times()
    total = tr.spans[0]["end_ns"] - tr.spans[0]["start_ns"]
    assert own[0] + own[1] == total
    assert tr.spans[1]["parent"] == 0 and tr.spans[1]["op"] == 0


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [name for name, _ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.BENCHMARKED)
    assert set(workloads.BENCHMARKED) <= set(workloads.NAMES)
    names = per_layer + [m["name"] for m in spec["end_to_end"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert units == dict(layers.PER_LAYER)


def test_missing_public_function_is_reported_absent(monkeypatch):
    real = layers.public

    def public(dotted):
        if dotted == "chebyshev.eval_combo":
            raise AttributeError("module 'hermitize.chebyshev' has no "
                                 "attribute 'eval_combo'")
        return real(dotted)

    monkeypatch.setattr(layers, "public", public)
    monkeypatch.setattr(layers, "PROBES",
                        {"chebyshev": layers.probe_chebyshev,
                         "reference": layers.probe_reference})
    metrics, absent = layers.measure(Tracer(), ROOT)
    assert "reference.eigvals.ms.n128" in metrics
    for n in (32, 256):
        assert "eval_combo" in absent[f"chebyshev.eval_combo.us_per_point.n{n}"]


def test_end_to_end_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    w = workloads.make("reality-scan", ROOT)
    ops = _build("reality-scan", 1)
    log = [(i, op.kind, 0.01 * (i + 1), None, False)
           for i, op in enumerate(ops)]
    units = {k: u for k, (_, u) in end_to_end(w, log, ops).items()}
    units["setup_s"] = "s"  # added by run.py
    assert units == {m["name"]: m["unit"] for m in spec["end_to_end"]}
