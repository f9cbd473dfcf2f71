"""Per-layer metrics of the traced run, one probe group per module.

Every metric is measured from outside: a probe calls public functions of
``hermitize`` through the tracer, and the metric is the rolled-up self
time (or a count) of those spans.  Inputs are fixed, so the numbers
compare across runs and commits.  A group whose public function is gone
reports its metrics as absent, with the reason, instead of failing.
"""

import importlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np

import oracles as O
import workloads

# The fixed coupling of the solver probes; the Aberth iteration count at
# it is 22 / 66 / 129 for n = 32 / 128 / 256 at the seed commit.
XI, ZETA = 0.4, 0.3
OMEGA = 0.3  # band metric probes
SWEEP = dict(zeta=0.3, xi_min=0.0, xi_max=3.0)
SWEEP_STEPS = 2000

CLI_ARGS = {
    "spectrum": ["--n", "32", "--xi", "0.4", "--zeta", "0.3"],
    "wavefn": ["--n", "32", "--xi", "0.4", "--zeta", "0.3", "--index", "3"],
    "metric": ["--n", "32", "--family", "band", "--omega", "0.3"],
    "verify": ["--n", "32", "--family", "band", "--omega", "0.3"],
    "nullspace": ["--n", "6", "--xi", "0.5", "--zeta", "0.2"],
    # cli.format.ms.sweep subtracts a sweep_xi call on the same inputs.
    "sweep": ["--n", "8", "--axis", "xi", "--min", repr(SWEEP["xi_min"]),
              "--max", repr(SWEEP["xi_max"]), "--steps", str(SWEEP_STEPS),
              "--zeta", repr(SWEEP["zeta"])],
    "critical": ["--n", "2"],
    "continuum": ["--m", "50,100,200,400"],
    "locus": ["--n", "8", "--samples", "200"],
}

GROUPS = {
    "spectrum": [
        *[(f"spectrum.solve_spectrum.ms.n{n}", "ms")
          for n in (16, 32, 64, 128, 256)],
        *[(f"spectrum.wavefunction.us_per_root.n{n}", "us") for n in (64, 256)],
    ],
    "aberth": [(f"spectrum.aberth_iters.n{n}", "count")
               for n in (32, 128, 256)],
    "spectrum_failures": [
        ("spectrum.noconvergence", "count"),
        ("spectrum.wrong_roots", "count"),
        ("spectrum.numpy_warnings", "1/op"),
        ("spectrum.certified_root_ratio", "ratio"),
        ("spectrum.roots_checked", "count"),
    ],
    "chebyshev": [(f"chebyshev.eval_combo.us_per_point.n{n}", "us")
                  for n in (32, 256)],
    "reference": [(f"reference.eigvals.ms.n{n}", "ms") for n in (128, 256)],
    "metric": [
        *[(f"metric.hermitian_eigenvalues.ms.n{n}", "ms") for n in (16, 32, 64)],
        ("metric.verify_metric.ms.n64", "ms"),
        ("metric.dieudonne_residual.ms.n64", "ms"),
        ("metric.build.ms.n64", "ms"),
        *[(f"metric.dieudonne_nullspace.ms.n{n}", "ms") for n in (8, 12, 16)],
    ],
    "analysis": [
        ("analysis.sweep_xi.ms.n8", "ms"),
        ("analysis.sweep_xi.ms.n32", "ms"),
        ("analysis.sweep_xi.ms.n32.t2", "ms"),
        ("analysis.thread_speedup.n32", "ratio"),
        *[(f"analysis.critical_zeta.ms.n{n}", "ms") for n in (2, 6, 8)],
        ("analysis.metric_positivity_sweep.ms.band-n8", "ms"),
        ("analysis.metric_positivity_sweep.ms.n4_special", "ms"),
    ],
    "cli": [
        *[(f"cli.main.ms.{sub}", "ms") for sub in CLI_ARGS],
        ("cli.startup.ms", "ms"),
        ("cli.format.ms.sweep", "ms"),
    ],
}

# Every per-layer metric, in report order; trace.overhead_ratio comes
# from the worker, which times the workload with and without spans.
PER_LAYER = [m for group in GROUPS.values() for m in group] + [
    ("trace.overhead_ratio", "ratio")]


def public(dotted):
    """``hermitize.<module>.<name>``; raises if a later change removed it."""
    mod, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module("hermitize." + mod), name)


def _timed(tr, span, fn, *args, reps=1, **attrs):
    """Call fn(*args) reps times as spans; median self time in ms."""
    since = len(tr.spans)
    for _ in range(reps):
        out = tr.call(span, fn, *args, _attrs=attrs)
    return statistics.median(tr.rollup(span, since, **attrs)), out


def probe_spectrum(tr, root):
    solve = public("spectrum.solve_spectrum")
    wavefunction = public("spectrum.wavefunction")
    params = public("model.ModelParams")
    m = {}
    for n, reps in ((16, 5), (32, 5), (64, 3), (128, 3), (256, 1)):
        p = params(n=n, xi=XI, zeta=ZETA)
        ms, spec = _timed(tr, "spectrum.solve_spectrum", solve, p, reps=reps,
                          n=n)
        m[f"spectrum.solve_spectrum.ms.n{n}"] = ms
        if n in (64, 256):
            since = len(tr.spans)
            for y in spec.y_roots:
                tr.call("spectrum.wavefunction", wavefunction, p, y,
                        _attrs={"n": n})
            total = sum(tr.rollup("spectrum.wavefunction", since))
            m[f"spectrum.wavefunction.us_per_root.n{n}"] = total * 1e3 / n
    return m


def probe_aberth(tr, root):
    """Smallest max_iter at which solve_spectrum succeeds, by bisection."""
    solve = public("spectrum.solve_spectrum")
    params = public("model.ModelParams")
    no_convergence = public("errors.NoConvergence")
    m = {}
    for n in (32, 128, 256):
        p = params(n=n, xi=XI, zeta=ZETA)
        lo, hi = 0, 500  # fails at lo, succeeds at hi (the default)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                tr.call("spectrum.solve_spectrum", solve, p, max_iter=mid,
                        _attrs={"n": n, "max_iter": mid})
                hi = mid
            except no_convergence:
                lo = mid
        m[f"spectrum.aberth_iters.n{n}"] = hi
    return m


def probe_spectrum_failures(tr, root):
    """Failure counts on the n = 128 grid of spectrum-point plus the
    ROADMAP item 1 coupling (n = 256, xi = 0.01, zeta = 0.9)."""
    solve = public("spectrum.solve_spectrum")
    params = public("model.ModelParams")
    no_convergence = public("errors.NoConvergence")
    panel = [dict(n=128, omega=om, rho=rho) for om, rho in
             workloads.log_uniform_couplings(
                 None, workloads.SpectrumPoint.GRID[128])]
    panel.append(dict(n=256, xi=0.01, zeta=0.9))
    nonconv = checked = certified = nwarn = 0
    for args in panel:
        h = O.dense_hamiltonian(args["n"], workloads.coupling(args))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                spec = tr.call("spectrum.solve_spectrum", solve,
                               params(**args), _attrs={"n": args["n"],
                                                       "panel": True})
            except no_convergence:
                spec = None
        nwarn += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        if spec is None:
            nonconv += 1
            continue
        checked += spec.energies.size
        certified += O.count_certified(spec.energies, h)
    return {
        "spectrum.noconvergence": nonconv,
        "spectrum.wrong_roots": checked - certified,
        "spectrum.numpy_warnings": nwarn / len(panel),
        "spectrum.certified_root_ratio": certified / checked,
        "spectrum.roots_checked": checked,
    }


def probe_chebyshev(tr, root):
    eval_combo = public("chebyshev.eval_combo")
    secular = public("spectrum.secular_polynomial")
    params = public("model.ModelParams")
    m = {}
    for n in (32, 256):
        combo = secular(params(n=n, xi=XI, zeta=ZETA))
        # The solver evaluates n points at a time; these lie on its
        # radius-1.2 start circle.
        y = 1.2 * np.exp(1j * (2.0 * np.pi * np.arange(n) / n + 0.5))
        ms, _ = _timed(tr, "chebyshev.eval_combo", eval_combo, combo, y,
                       reps=20, n=n)
        m[f"chebyshev.eval_combo.us_per_point.n{n}"] = ms * 1e3 / n
    return m


def probe_reference(tr, root):
    m = {}
    for n in (128, 256):
        h = O.dense_hamiltonian(n, O.z_robin(XI, ZETA))
        ms, _ = _timed(tr, "reference.eigvals", np.linalg.eigvals, h, reps=3,
                       n=n)
        m[f"reference.eigvals.ms.n{n}"] = ms
    return m


def probe_metric(tr, root):
    band = public("metric.metric_band")
    jacobi = public("metric.hermitian_eigenvalues")
    verify = public("metric.verify_metric")
    residual = public("metric.dieudonne_residual")
    nullspace = public("metric.dieudonne_nullspace")
    params = public("model.ModelParams")
    hamiltonian = public("model.build_hamiltonian")
    m = {}
    for n, reps in ((16, 5), (32, 3), (64, 2)):
        theta = band(n, OMEGA)
        m[f"metric.hermitian_eigenvalues.ms.n{n}"], _ = _timed(
            tr, "metric.hermitian_eigenvalues", jacobi, theta, reps=reps, n=n)
    p = params(n=64, omega=OMEGA, rho=0.0)
    m["metric.build.ms.n64"], theta = _timed(tr, "metric.build", band, 64,
                                             OMEGA, reps=5, n=64)
    m["metric.verify_metric.ms.n64"], _ = _timed(
        tr, "metric.verify_metric", verify, p, theta, reps=2, n=64)
    m["metric.dieudonne_residual.ms.n64"], _ = _timed(
        tr, "metric.dieudonne_residual", residual, hamiltonian(p), theta,
        reps=5, n=64)
    for n, reps in ((8, 5), (12, 3), (16, 2)):
        m[f"metric.dieudonne_nullspace.ms.n{n}"], _ = _timed(
            tr, "metric.dieudonne_nullspace", nullspace,
            params(n=n, xi=0.5, zeta=0.2), reps=reps, n=n)
    return m


def probe_analysis(tr, root):
    sweep_xi = public("analysis.sweep_xi")
    critical = public("analysis.critical_zeta")
    positivity = public("analysis.metric_positivity_sweep")
    s = SWEEP
    m = {}
    for n, reps in ((8, 3), (32, 1)):
        m[f"analysis.sweep_xi.ms.n{n}"], _ = _timed(
            tr, "analysis.sweep_xi", sweep_xi, n, s["zeta"], s["xi_min"],
            s["xi_max"], SWEEP_STEPS, reps=reps, n=n, threads=1)
    # Two threads only here; the workloads leave HERMITIZE_THREADS unset.
    os.environ["HERMITIZE_THREADS"] = "2"
    try:
        t2, _ = _timed(tr, "analysis.sweep_xi", sweep_xi, 32, s["zeta"],
                       s["xi_min"], s["xi_max"], SWEEP_STEPS, n=32, threads=2)
    finally:
        del os.environ["HERMITIZE_THREADS"]
    m["analysis.sweep_xi.ms.n32.t2"] = t2
    m["analysis.thread_speedup.n32"] = m["analysis.sweep_xi.ms.n32"] / t2
    for n in (2, 6, 8):
        m[f"analysis.critical_zeta.ms.n{n}"], _ = _timed(
            tr, "analysis.critical_zeta", critical, n, n=n)
    for label, args in (("band-n8", ("band", 8, -2.0, 2.0, 41)),
                        ("n4_special", ("n4_special", 4, -3.0, 3.0, 41))):
        m[f"analysis.metric_positivity_sweep.ms.{label}"], _ = _timed(
            tr, "analysis.metric_positivity_sweep", positivity, *args,
            reps=2, family=label)
    return m


def probe_cli(tr, root):
    main = public("cli.main")
    m = {}
    out_dir = os.path.join(root, ".bench_out")
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        out = os.path.join(tmp, "out")
        for sub, args in CLI_ARGS.items():
            since = len(tr.spans)
            for _ in range(2):
                code = tr.call("cli.main", main, [sub, *args, "--out", out],
                               _attrs={"subcommand": sub})
                if code != 0:
                    raise RuntimeError(f"hermitize {sub} exited with {code}")
            m[f"cli.main.ms.{sub}"] = statistics.median(
                tr.rollup("cli.main", since))
    sweep, _ = _timed(tr, "analysis.sweep_xi", public("analysis.sweep_xi"), 8,
                      SWEEP["zeta"], SWEEP["xi_min"], SWEEP["xi_max"],
                      SWEEP_STEPS, reps=2, n=8, threads=1)
    m["cli.format.ms.sweep"] = m["cli.main.ms.sweep"] - sweep
    env = workloads.cli_env(root)
    startup = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hermitize.cli"],
                       env=env, cwd=root, check=True, timeout=60)
        startup.append((time.perf_counter() - t0) * 1e3)
    m["cli.startup.ms"] = statistics.median(startup)
    return m


PROBES = {
    "spectrum": probe_spectrum,
    "aberth": probe_aberth,
    "spectrum_failures": probe_spectrum_failures,
    "chebyshev": probe_chebyshev,
    "reference": probe_reference,
    "metric": probe_metric,
    "analysis": probe_analysis,
    "cli": probe_cli,
}


def measure(tr, root):
    """Run every probe group; returns (metrics, absent) where metrics maps
    name -> (value, unit) and absent maps name -> reason."""
    metrics, absent = {}, {}
    for group, probe in PROBES.items():
        try:
            with tr.span("probe", group=group):
                values = probe(tr, root)
            reason = "not measured"
        except (ImportError, AttributeError) as exc:
            reason = f"public function missing: {exc}"
            values = {}
        # A probe that breaks must not stop the others; its metrics are
        # reported absent with the error.
        except Exception as exc:  # noqa: BLE001
            reason = f"probe raised {type(exc).__name__}: {exc}"
            values = {}
        for name, unit in GROUPS[group]:
            if name in values:
                metrics[name] = (float(values[name]), unit)
            else:
                absent[name] = reason
    return metrics, absent
