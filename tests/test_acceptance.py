"""End-to-end checks of the package's headline claims.

One test per claim; each prints a summary line with the measured numbers
so a verbose run documents the margins, not just pass/fail.
"""

import math

import numpy as np
import pytest

from hermitize.analysis import critical_zeta, metric_positivity_sweep
from hermitize.closedform import continuum_convergence, endpoint_locus
from hermitize.metric import (dieudonne_nullspace, dieudonne_residual,
                              hermitian_eigenvalues, metric_band,
                              metric_band_extended, metric_n3_general,
                              metric_n3_special, metric_n4_special)
from hermitize.model import ModelParams, build_hamiltonian
from hermitize.spectrum import solve_spectrum

from _oracles import (charpoly_eigenvalues, max_pair_distance,
                      metric_band_recurrence)

# Low-discrepancy samples for the locus checks: uniform grids can land on
# isolated exceptional points where a second root collides with y = +/-1
# and the nearest-root distance degrades for a non-numerical reason.
_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden(npts):
    return np.sort((0.5 + _PHI * np.arange(1, npts + 1)) % 1.0)


def test_hermitian_limit_recovers_closed_form_spectrum():
    worst = 0.0
    for n in range(2, 51):
        roots = solve_spectrum(ModelParams(n=n, xi=0.0, zeta=0.0)).y_roots
        expect = np.concatenate([[1.0], np.cos(np.arange(1, n) * np.pi / n)])
        worst = max(worst, max_pair_distance(roots, expect))
    print(f"hermitian limit, n = 2..50: worst root error {worst:.3e}")
    assert worst < 1e-10


def test_continuum_levels_and_richardson_extrapolation():
    table = continuum_convergence([50, 100, 200], levels=2)
    at100 = table.rescaled[1]
    assert at100[0] == pytest.approx(2.492, abs=1e-3)
    assert at100[1] == pytest.approx(9.968, abs=1e-3)
    extrap = np.array(table.richardson())
    rel = np.abs(extrap - table.targets) / table.targets
    print(f"continuum: M=100 levels {at100[0]:.4f}, {at100[1]:.4f}; "
          f"Richardson rel err {rel.max():.2e}")
    assert np.all(rel < 1e-3)


def test_critical_detuning_values():
    c6 = critical_zeta(6)
    c8 = critical_zeta(8)
    print(f"critical zeta: n=6 {c6.value:.6f}, n=8 {c8.value:.6f}")
    assert c6.value == pytest.approx(0.09903, abs=5e-4)
    assert 0.05 < c8.value < 0.07
    # The closed form 1 - cos(pi / (n + 1)), against 60-digit mpmath.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        for c in (c6, c8):
            exact = 1 - mp.cos(mp.pi / (c.n + 1))
            assert abs(c.value - exact) <= 2 * math.ulp(float(exact))


def test_four_site_reality_windows_at_fixed_detuning():
    outcomes = {}
    for xi in (0.1, 0.4, 1.0):
        spec = solve_spectrum(ModelParams(n=4, xi=xi, zeta=0.3))
        outcomes[xi] = np.count_nonzero(~spec.is_real) // 2
    print(f"n=4, zeta=0.3 conjugate pairs: {outcomes}")
    assert outcomes[0.1] == 0
    assert outcomes[0.4] == 1
    assert outcomes[1.0] == 0


def test_intertwining_residual_over_size_and_coupling_grid():
    omegas = np.linspace(-2.0, 2.0, 9)
    worst = 0.0
    for n in range(2, 65):
        h = None
        for omega in omegas:
            h = build_hamiltonian(ModelParams(n=n, omega=float(omega)))
            for theta in (metric_band(n, float(omega)),
                          metric_band_extended(n, float(omega), -0.3),
                          metric_band_extended(n, float(omega), 0.0),
                          metric_band_extended(n, float(omega), 0.3)):
                res = dieudonne_residual(h, theta)
                worst = max(worst, res / n)
                assert res <= 1e-13 * n
    print(f"intertwining residual, n = 2..64, |omega| <= 2: "
          f"worst res/n = {worst:.3e}")


def test_secular_and_charpoly_routes_agree():
    rng = np.random.RandomState(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.randint(2, 33))
        p = ModelParams(n=n, xi=float(rng.uniform(-2, 2)),
                        zeta=float(rng.uniform(0, 0.9)))
        secular = solve_spectrum(p).energies
        charpoly = charpoly_eigenvalues(build_hamiltonian(p))
        worst = max(worst, max_pair_distance(secular, charpoly))
    print(f"route agreement over 200 draws, n <= 32: worst {worst:.3e}")
    assert worst < 1e-8


def test_nullspace_dimensions_and_general_family_membership():
    dims = {}
    for n in (3, 4):
        basis = dieudonne_nullspace(ModelParams(n=n, xi=0.5, zeta=0.0))
        dims[n] = len(basis)
    assert dims[3] == 3
    assert dims[4] == 4
    basis = dieudonne_nullspace(ModelParams(n=3, xi=0.5, zeta=0.0))
    theta = metric_n3_general(0.5, r=1.1, s=0.9, u=0.2).matrix
    proj = sum(np.sum(b.matrix.conj() * theta).real * b.matrix
               for b in basis)
    miss = np.linalg.norm(proj - theta) / np.linalg.norm(theta)
    print(f"nullspace dims {dims}; n3_general out-of-span residual "
          f"{miss:.3e}")
    assert miss < 1e-9


def test_positivity_domains_and_two_site_threshold():
    xi_grid = np.linspace(-50.0, 50.0, 501)
    min3 = min(hermitian_eigenvalues(metric_n3_special(float(x), 0.0))[0]
               for x in xi_grid)
    min4 = min(hermitian_eigenvalues(metric_n4_special(float(x)))[0]
               for x in xi_grid)
    assert min3 > 0.0
    assert min4 > 0.0

    sweep = metric_positivity_sweep("band", 2, -1.5, 1.5, 61,
                                    param_tol=1e-7)
    assert sweep.loss_abs == pytest.approx(1.0, abs=1e-6)

    # the same point is where the two-site spectrum complexifies
    lo, hi = 0.5, 1.5
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if solve_spectrum(ModelParams(n=2, omega=mid)).is_real.all():
            lo = mid
        else:
            hi = mid
    spectral_edge = 0.5 * (lo + hi)
    print(f"positivity: min3 {min3:.3f}, min4 {min4:.3f}, band(2) edge "
          f"{sweep.loss_abs:.8f}, spectral edge {spectral_edge:.8f}")
    assert spectral_edge == pytest.approx(sweep.loss_abs, abs=1e-6)


def test_wavefunction_residuals_including_zero_energy_branch():
    rng = np.random.RandomState(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.randint(2, 33))
        p = ModelParams(n=n, xi=float(rng.uniform(-2, 2)),
                        zeta=float(rng.uniform(0, 0.9)))
        spec = solve_spectrum(p, with_wavefunctions=True)
        worst = max(worst, max(w.residual for w in spec.wavefunctions))
    # Even n on the |z| = 1 circle puts a root at y = 0, where the closed
    # form divides by y.
    near_zero = 0
    for n in (4, 6, 8, 12):
        for t in (0.6, 1.3, 2.2):
            p = ModelParams(n=n, xi=float(np.sin(t)),
                            zeta=float(1.0 - np.cos(t)))
            spec = solve_spectrum(p, with_wavefunctions=True)
            worst = max(worst, max(w.residual for w in spec.wavefunctions))
            near_zero += bool(np.any(np.abs(spec.y_roots) < 1e-8))
    print(f"wavefunction residuals: worst {worst:.3e}; "
          f"{near_zero} spectra with a root at y = 0")
    assert worst < 1e-10
    assert near_zero == 12


def test_spectral_symmetries_loci_and_construction_equality():
    rng = np.random.RandomState(51)

    # non-real roots close under conjugation
    worst_conj = 0.0
    for _ in range(30):
        n = int(rng.randint(2, 17))
        p = ModelParams(n=n, xi=float(rng.uniform(-2, 2)),
                        zeta=float(rng.uniform(0, 0.9)))
        spec = solve_spectrum(p)
        complex_roots = spec.y_roots[~spec.is_real]
        if complex_roots.size:
            worst_conj = max(worst_conj, max_pair_distance(
                complex_roots, np.conj(complex_roots)))
    assert worst_conj < 1e-10

    # xi -> -xi leaves the secular polynomial, hence the roots, unchanged
    for n, xi, zeta in ((5, 0.7, 0.2), (8, 1.9, 0.85)):
        a = solve_spectrum(ModelParams(n=n, xi=xi, zeta=zeta)).y_roots
        b = solve_spectrum(ModelParams(n=n, xi=-xi, zeta=zeta)).y_roots
        assert np.array_equal(a, b)

    # zeta -> 2 - zeta sends z to -conj(z) and mirrors the roots in y
    worst_flip = 0.0
    for n, xi, zeta in ((4, 0.3, 0.25), (7, 1.1, 0.6)):
        a = solve_spectrum(ModelParams(n=n, xi=xi, zeta=zeta)).y_roots
        b = solve_spectrum(ModelParams(n=n, xi=xi, zeta=2.0 - zeta)).y_roots
        worst_flip = max(worst_flip, max_pair_distance(a, -b))
    assert worst_flip < 1e-10

    # golden-sampled endpoint loci put a root at y = +/-1
    worst_locus = 0.0
    for n in range(2, 11):
        loc = endpoint_locus(n, t=_golden(20))
        for branch, target in ((loc.y_plus, 1.0), (loc.y_minus, -1.0)):
            for zeta, xi in zip(branch.zeta, branch.xi):
                spec = solve_spectrum(ModelParams(n=n, xi=float(xi),
                                                  zeta=float(zeta)))
                worst_locus = max(worst_locus,
                                  np.min(np.abs(spec.y_roots - target)))
    assert worst_locus < 1e-9

    # the band family and its recurrence construction agree bitwise
    for n in (2, 9, 33, 64):
        for omega in np.linspace(-2.0, 2.0, 9):
            assert np.array_equal(metric_band(n, float(omega)).matrix,
                                  metric_band_recurrence(n, float(omega)))

    print(f"symmetries: conj closure {worst_conj:.3e}, reflection "
          f"{worst_flip:.3e}, locus root distance {worst_locus:.3e}, "
          "band constructions bitwise equal")
