import itertools

import numpy as np
import pytest

from hermitize import analysis
from hermitize.analysis import (classify_reality, continuum_convergence,
                                critical_zeta, endpoint_locus,
                                metric_positivity_sweep, sweep_xi,
                                sweep_zeta)
from hermitize.errors import SingularParameters
from hermitize.metric import metric_band_extended, metric_n3_general
from hermitize.model import ModelParams
from hermitize.spectrum import _solve_batch, reality_flags, solve_spectrum

from _oracles import critical_zeta_whole_grid, max_pair_distance


def test_classify_reality_counts_and_merge_flags():
    roots = np.array([0.2, 0.70002, 0.70006, 1.5 + 0.3j, 1.5 - 0.3j])
    c = classify_reality(roots)
    assert c.n_real == 3
    assert c.n_complex_pairs == 1
    assert not c.all_real
    assert c.near_merge.tolist() == [False, True, True, False, False]


def test_classify_reality_all_real_far_apart():
    c = classify_reality(np.array([0.1, 0.5, 0.9]))
    assert c.all_real and not c.near_merge.any()


def test_sweep_xi_matches_pointwise_solves():
    res = sweep_xi(5, 0.2, 0.0, 1.5, 7)
    assert res.axis == "xi" and res.fixed == {"zeta": 0.2}
    assert res.y_roots.shape == (7, 5)
    for i, xi in enumerate(res.values):
        spec = solve_spectrum(ModelParams(n=5, xi=float(xi), zeta=0.2))
        assert max_pair_distance(res.y_roots[i], spec.y_roots) < 1e-12


def test_sweep_zeta_matches_pointwise_solves():
    res = sweep_zeta(4, 0.6, 0.0, 0.8, 5)
    assert res.axis == "zeta" and res.fixed == {"xi": 0.6}
    for i, zeta in enumerate(res.values):
        spec = solve_spectrum(ModelParams(n=4, xi=0.6, zeta=float(zeta)))
        assert max_pair_distance(res.y_roots[i], spec.y_roots) < 1e-12


def test_sweep_zeta_pole_detection():
    with pytest.raises(SingularParameters):
        sweep_zeta(4, 0.0, 0.0, 2.0, 5)  # grid point hits zeta = 1 exactly
    # nonzero xi passes through zeta = 1 without singularity
    res = sweep_zeta(4, 0.5, 0.0, 2.0, 5)
    assert res.y_roots.shape == (5, 4)


def test_sweep_thread_count_does_not_change_results():
    # Rows are solved independently, so the roots are bitwise the same
    # however a grid is split, also on grids that cross exceptional points
    # (some rows all real, others with a complex pair) and in uneven chunks
    # down to a single row.
    for n, steps in ((6, 400), (32, 120)):
        zs = 1.0 / (0.7 - 1j * np.linspace(0.0, 3.0, steps))
        whole = _solve_batch(n, zs)
        real_rows = np.all(reality_flags(whole), axis=1)
        assert real_rows.any() and not real_rows.all()
        parts = np.split(np.arange(steps), [1, 7, 50, 93])
        chunked = np.concatenate([_solve_batch(n, zs[c]) for c in parts])
        assert np.array_equal(whole, chunked)


@pytest.mark.parametrize("n", [0, 1, 2.5])
def test_sweeps_and_loci_reject_sizes_below_two_sites(n):
    for call in (lambda: sweep_xi(n, 0.3, 0.0, 1.0, 4),
                 lambda: sweep_zeta(n, 0.3, 0.0, 0.5, 4),
                 lambda: endpoint_locus(n)):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            call()


def test_positivity_sweep_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        metric_positivity_sweep("band", 8, -1.0, 1.0, 0)


def test_sweeps_reject_non_finite_grids():
    with pytest.raises(ValueError, match="finite"):
        sweep_xi(2, np.nan, 0.0, 1.0, 3)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                      match="finite"):
        sweep_zeta(4, 0.5, 0.0, np.inf, 3)
    with pytest.raises(ValueError, match="finite"):
        critical_zeta(4, bracket=(np.nan, 0.75))


def test_critical_zeta_two_site_analytic():
    # n = 2 complexifies iff max_xi omega(xi, zeta) = 1/(2(1 - zeta)) > 1,
    # so the critical detuning is exactly 1/2.
    result = critical_zeta(2, xi_max=2.0, xi_steps=400, zeta_tol=1e-4)
    assert result.value == pytest.approx(0.5, abs=1e-3)
    assert result.bracket[0] < 0.5 + 1e-3
    assert result.n == 2


def test_critical_zeta_chunked_scan_matches_whole_grid_bisection():
    # On xi in [0, 0.45] every grid coupling near the critical values has
    # |z| > 1, and the complex window of n = 4 and 6 moves from the first
    # of the four 250-row solve blocks to the last during the bisection.
    for n in (4, 6):
        result = critical_zeta(n, xi_max=0.45, xi_steps=1000, zeta_tol=1e-4)
        assert result.bracket == critical_zeta_whole_grid(
            n, xi_max=0.45, xi_steps=1000, zeta_tol=1e-4).bracket


_CRITICAL_GRIDS = [
    {"xi_max": 0.45, "xi_steps": 1000, "zeta_tol": 1e-4},
    {"xi_max": 2.0, "xi_steps": 400, "zeta_tol": 1e-4},
    {"xi_max": 10.0, "xi_steps": 2000, "zeta_tol": 1e-7},
]


@pytest.mark.parametrize("n, grid", [
    pytest.param(n, grid, id=f"n{n}-" + (
        "xi{xi_max}-{xi_steps}-tol{zeta_tol}".format(**grid) if grid
        else "default"))
    for n, grid in [(n, {}) for n in range(2, 9)]
    + [(n, grid) for grid in _CRITICAL_GRIDS for n in range(2, 7)]])
def test_critical_zeta_matches_whole_grid_oracle_bitwise(n, grid):
    # Skipping the |z| <= 1 couplings changes no predicate value, so every
    # bisection step and the result are the whole-grid ones, bit for bit.
    got = critical_zeta(n, **grid)
    want = critical_zeta_whole_grid(n, **grid)
    assert got.bracket == want.bracket
    assert got.value == want.value


def test_critical_zeta_solves_only_couplings_outside_the_unit_disc(
        monkeypatch):
    received = []
    solve_blocks = analysis._solve_blocks

    def spy(n, zs, *args, **kwargs):
        received.append(np.array(zs))
        return solve_blocks(n, zs, *args, **kwargs)

    monkeypatch.setattr(analysis, "_solve_blocks", spy)
    critical_zeta(6)
    assert len(received) > 1
    # The first predicate call is at the lower bracket end zeta = 0.
    assert received[0].size == 0
    for zs in received:
        assert np.all(np.abs(zs) > 1.0)
        assert zs.size <= 2000 // 10
    received.clear()
    critical_zeta(2, xi_max=2.0, xi_steps=400, zeta_tol=1e-2,
                  bracket=(-0.4, 0.75))
    assert received[0].size == 0


@pytest.mark.parametrize("kwargs", [
    {"zeta_tol": 0.0}, {"zeta_tol": -1.0}, {"zeta_tol": float("nan")},
    {"zeta_tol": float("inf")}, {"xi_steps": 0}, {"xi_steps": -3}])
def test_critical_zeta_rejects_bad_tolerance_or_grid(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        critical_zeta(4, **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"n": 1}, {"n": 0}, {"n": 2.5}, {"xi_max": float("nan")},
    {"xi_max": float("inf")}, {"xi_max": -1.0}])
def test_critical_zeta_rejects_bad_size_or_range(kwargs):
    # n = 1 used to report "no complexification found", and xi_max = nan
    # or inf a solver failure (NoConvergence), as if the input were valid.
    (name,) = kwargs
    args = {"n": 4, **kwargs}
    with pytest.raises(ValueError, match=name):
        critical_zeta(args.pop("n"), **args)


def test_bisection_below_float_spacing_stops_at_adjacent_floats(
        monkeypatch):
    # A positive tolerance below the float spacing of the bracket ends
    # must not loop once the midpoint equals one of them.  The solvers are
    # capped so that a regression fails instead of hanging.
    def capped(name):
        calls = itertools.count()
        inner = getattr(analysis, name)

        def call(*args, **kwargs):
            assert next(calls) < 1000, f"{name} called without end"
            return inner(*args, **kwargs)
        monkeypatch.setattr(analysis, name, call)

    capped("_solve_blocks")
    capped("hermitian_eigenvalues")
    lo, hi = critical_zeta(2, xi_max=2.0, xi_steps=50,
                           zeta_tol=1e-300).bracket
    assert np.nextafter(lo, np.inf) == hi
    fine = metric_positivity_sweep("band", 2, -1.5, 1.5, 31, param_tol=1e-300)
    assert fine.edge_positive == pytest.approx(1.0, abs=1e-12)
    assert fine.edge_negative == pytest.approx(-1.0, abs=1e-12)


def test_critical_zeta_invalid_bracket():
    with pytest.raises(ValueError):
        critical_zeta(4, xi_max=2.0, xi_steps=100, bracket=(0.6, 0.75))


def test_positivity_sweep_band_two_site():
    res = metric_positivity_sweep("band", 2, -1.5, 1.5, 31)
    assert res.loss_abs == pytest.approx(1.0, abs=1e-5)
    assert res.edge_positive == pytest.approx(1.0, abs=1e-5)
    assert res.edge_negative == pytest.approx(-1.0, abs=1e-5)
    # min eigenvalue of the 2 x 2 family is exactly 1 - |omega|
    assert np.allclose(res.min_eigenvalues, 1 - np.abs(res.values),
                       atol=1e-12)


@pytest.mark.parametrize("param_tol", [0.0, -1.0, float("nan"),
                                       float("inf")])
def test_positivity_sweep_rejects_bad_tolerance(param_tol):
    with pytest.raises(ValueError, match="param_tol"):
        metric_positivity_sweep("band", 2, -1.5, 1.5, 31, param_tol=param_tol)


def test_positivity_sweep_validates_family():
    with pytest.raises(ValueError):
        metric_positivity_sweep("unknown", 2, -1, 1, 5)
    with pytest.raises(ValueError):
        metric_positivity_sweep("n3_special", 4, -1, 1, 5)


def test_positivity_sweep_rejects_parameters_the_family_does_not_take():
    with pytest.raises(ValueError, match="takes no u"):
        metric_positivity_sweep("band", 8, -1, 1, 5, u=0.3)
    with pytest.raises(ValueError, match="needs u"):
        metric_positivity_sweep("band_u", 8, -1, 1, 5)
    with pytest.raises(ValueError, match="sweeps omega"):
        metric_positivity_sweep("band", 8, -1, 1, 5, omega=0.3)


def test_positivity_sweep_passes_family_parameters():
    res = metric_positivity_sweep("band_u", 6, -1.0, 1.0, 21, u=0.2)
    assert res.extra == {"u": 0.2}
    expect = [np.linalg.eigvalsh(metric_band_extended(6, v, 0.2).matrix)[0]
              for v in res.values]
    assert np.allclose(res.min_eigenvalues, expect, rtol=0, atol=1e-12)
    # the member at -omega is the conjugate of the one at omega
    assert res.edge_positive == pytest.approx(-res.edge_negative, abs=1e-6)
    # s and u keep their defaults (1, 0) when only r is given
    res = metric_positivity_sweep("n3_general", 3, -2.0, 2.0, 9, r=1.4)
    expect = [np.linalg.eigvalsh(metric_n3_general(v, r=1.4).matrix)[0]
              for v in res.values]
    assert np.allclose(res.min_eigenvalues, expect, rtol=0, atol=1e-12)


def test_positivity_sweep_all_positive_leaves_edges_empty():
    res = metric_positivity_sweep("n4_special", 4, -3.0, 3.0, 11)
    assert res.loss_abs is None
    assert res.edge_positive is None and res.edge_negative is None
    assert np.all(res.min_eigenvalues > 0)


def test_continuum_closed_form_matches_solver():
    # The table's energies must agree with an actual hard-wall solve.
    table = continuum_convergence([5], levels=3)
    spec = solve_spectrum(ModelParams(n=9, omega=0.0, rho=-1.0))
    lowest = np.sort(spec.energies.real)[:3]
    assert np.allclose(table.energies[0], lowest, atol=1e-10)


def test_continuum_richardson_requires_doubling():
    table = continuum_convergence([50, 75], levels=2)
    with pytest.raises(ValueError):
        table.richardson()
    with pytest.raises(ValueError):
        continuum_convergence([1], levels=2)


def test_continuum_extrapolation_hits_box_levels():
    table = continuum_convergence([25, 50, 100], levels=2)
    extrap = table.richardson()
    assert np.max(np.abs(extrap - table.targets) / table.targets) < 1e-4


def test_endpoint_locus_points_solve_secular():
    # Points on each branch must place a root at y = +1 / y = -1.
    loc = endpoint_locus(5, t=np.array([0.21, 0.55, 0.84]))
    for branch, target in ((loc.y_plus, 1.0), (loc.y_minus, -1.0)):
        for zeta, xi in zip(branch.zeta, branch.xi):
            spec = solve_spectrum(ModelParams(n=5, xi=float(xi),
                                              zeta=float(zeta)))
            assert np.min(np.abs(spec.y_roots - target)) < 1e-9


def test_endpoint_locus_geometry():
    loc = endpoint_locus(7, samples=9)
    # y = +1 branch is the circle zeta^2 + xi^2 = 2 zeta / (n + 1)
    lhs = loc.y_plus.zeta ** 2 + loc.y_plus.xi ** 2
    assert np.allclose(lhs, 2 * loc.y_plus.zeta / 8.0, atol=1e-14)
    # both branches start and end on the xi = 0 axis
    assert loc.y_plus.xi[0] == 0.0 and loc.y_plus.xi[-1] == pytest.approx(0.0, abs=1e-8)
    assert loc.y_minus.xi[0] == pytest.approx(0.0, abs=1e-8)
    assert loc.y_minus.xi[-1] == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        endpoint_locus(5, t=np.array([-0.1]))
    with pytest.raises(ValueError, match="t must hold at least one value"):
        endpoint_locus(5, t=[])
