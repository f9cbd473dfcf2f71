import itertools
import math
import sys
import time

import numpy as np
import pytest

from hermitize import analysis, spectrum
from hermitize.analysis import (critical_zeta, metric_positivity_sweep,
                                sweep_xi, sweep_zeta)
from hermitize.closedform import continuum_convergence, endpoint_locus
from hermitize.errors import SingularParameters
from hermitize.metric import metric_band_extended, metric_n3_general
from hermitize.model import ModelParams, build_hamiltonian
from hermitize.spectrum import (_EPS, _solve_batch, reality_flags,
                                solve_spectrum)

from _oracles import (critical_closed_form, critical_zeta_whole_grid,
                      max_pair_distance)


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


@pytest.mark.parametrize("n", [0, 1, 2.5, 3.0, True])
def test_sweeps_and_loci_reject_sizes_below_two_sites(n):
    # An integral float or a bool is not a size: it used to pass the check
    # and fail deep inside the solver, or be echoed back as n = 3.0.
    for call in (lambda: sweep_xi(n, 0.3, 0.0, 1.0, 4),
                 lambda: sweep_zeta(n, 0.3, 0.0, 0.5, 4),
                 lambda: endpoint_locus(n),
                 lambda: critical_zeta(n),
                 lambda: metric_positivity_sweep("band", n, -1.0, 1.0, 5),
                 lambda: ModelParams(n=n, xi=0.2, zeta=0.1)):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            call()


def test_sizes_and_counts_take_numpy_integers():
    n, steps = np.int64(4), np.int32(3)
    got = sweep_xi(n, 0.3, 0.0, 1.0, steps)
    want = sweep_xi(4, 0.3, 0.0, 1.0, 3)
    assert np.array_equal(got.y_roots, want.y_roots)
    assert critical_zeta(np.int64(6)).value == critical_zeta(6).value


@pytest.mark.parametrize("steps", [0, 2.5, 3.0, True])
def test_grids_reject_steps_that_are_not_positive_integers(steps):
    for call in (lambda: sweep_xi(4, 0.3, 0.0, 1.0, steps),
                 lambda: sweep_zeta(4, 0.3, 0.0, 0.5, steps),
                 lambda: metric_positivity_sweep("band", 4, -1.0, 1.0, steps),
                 lambda: endpoint_locus(4, samples=steps)):
        with pytest.raises(ValueError, match=r"(steps|samples) must be >= 1"):
            call()


def test_positivity_sweep_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        metric_positivity_sweep("band", 8, -1.0, 1.0, 0)


def test_positivity_sweep_rejects_a_descending_range():
    # The edge search walks the grid upwards; a reversed range used to
    # report no edge at all.
    with pytest.raises(ValueError,
                       match=r"param_min = 2\.0 .* param_max = -2\.0"):
        metric_positivity_sweep("band", 8, 2.0, -2.0, 41)
    res = metric_positivity_sweep("band", 8, -2.0, 2.0, 41)
    assert res.edge_positive == pytest.approx(0.20906, abs=1e-5)
    assert res.edge_negative == pytest.approx(-0.20906, abs=1e-5)


@pytest.mark.filterwarnings("error")
def test_positivity_sweep_names_a_band_overflow():
    # At |omega| = 1e200 the band entries of n = 8 pass the float range;
    # the products used to warn and end in "not exactly Hermitian".
    with pytest.raises(ValueError, match=r"overflow .* omega = -1e\+200"):
        metric_positivity_sweep("band", 8, -1e200, 1e200, 5)


def test_sweep_values_follow_the_range_as_given():
    assert sweep_xi(4, 0.2, 1.0, 0.0, 3).values.tolist() == [1.0, 0.5, 0.0]


def test_sweeps_reject_non_finite_grids():
    with pytest.raises(ValueError, match="finite"):
        sweep_xi(2, np.nan, 0.0, 1.0, 3)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                      match="finite"):
        sweep_zeta(4, 0.5, 0.0, np.inf, 3)


def test_critical_zeta_two_site_analytic():
    # n = 2 complexifies iff max_xi omega(xi, zeta) = 1/(2(1 - zeta)) > 1,
    # so the critical detuning is exactly 1/2, at the EP xi = 1/2, y = 1/2.
    result = critical_zeta(2, xi_max=2.0)
    assert result.value == 0.5
    assert result.n == 2 and result.xi_max == 2.0
    assert result.ep_y == pytest.approx(0.5, rel=1e-15)
    assert result.ep_xi == pytest.approx(0.5, rel=1e-15)


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
    # A grid bisection can only miss complexity, so the exact value lies at
    # or below the oracle's upper bracket end; that comparison is exact,
    # with no tolerance.  On the default grid the oracle's grid bias is
    # below 1e-5 up to n = 8.
    want = critical_zeta_whole_grid(n, **grid)
    got = critical_zeta(n, xi_max=want.xi_max)
    assert got.value <= want.bracket[1]
    if not grid:
        assert abs(got.value - want.value) < 1e-5


def test_whole_grid_bisection_oracle_brackets():
    # The earlier grid bisection (2,000 xi points on [0, 10], tolerance
    # 1e-5), kept as an oracle in tests/_oracles.py: its exact brackets,
    # whose midpoints lie 3e-6 and 6e-6 above the closed form (its grid
    # bias).
    c6 = critical_zeta_whole_grid(6)
    c8 = critical_zeta_whole_grid(8)
    assert c6.bracket == (0.09903144836425781, 0.09903717041015625)
    assert c6.value == 0.09903430938720703
    assert c8.bracket == (0.06031036376953125, 0.06031608581542969)
    assert c8.value == 0.06031322479248047


def test_critical_zeta_solves_only_couplings_outside_the_unit_disc(
        monkeypatch):
    # It solves none at all: the default case is in closed form, and the
    # edge case iterates on the EP formula, not on a spectrum.
    def refuse(*args, **kwargs):
        raise AssertionError("critical_zeta called a secular solver")

    monkeypatch.setattr(analysis, "_solve_batch", refuse)
    for name in ("_secular_roots", "_band_roots", "_outer_roots"):
        monkeypatch.setattr(spectrum, name, refuse)
    for n in (2, 6, 64):
        assert critical_zeta(n).value > 0.0
        assert critical_zeta(n, xi_max=0.01).value > 0.0


@pytest.mark.parametrize("kwargs", [
    {"n": 1}, {"n": 0}, {"n": 2.5}, {"xi_max": float("nan")},
    {"xi_max": float("inf")}, {"xi_max": -1.0}, {"xi_max": 0.0}])
def test_critical_zeta_rejects_bad_size_or_range(kwargs):
    # n = 1 used to report "no complexification found", and xi_max = nan
    # or inf a solver failure (NoConvergence), as if the input were valid.
    # At xi = 0 the coupling is real, so xi_max = 0 leaves no EP.
    (name,) = kwargs
    args = {"n": 4, **kwargs}
    with pytest.raises(ValueError, match=name):
        critical_zeta(args.pop("n"), **args)


def _mp_secular_pair(mp, n, zeta, xi, y):
    """P(y) and P'(y) at z = 1 / (1 - zeta - i xi), each relative to the
    sum of the absolute values of its three terms, in mpmath."""
    zeta, xi, y = mp.mpf(zeta), mp.mpf(xi), mp.mpf(y)
    d = (1 - zeta) ** 2 + xi ** 2
    a, b = (1 - zeta) / d, 1 / d

    def du(k):
        # U_k' = ((k + 1) T_(k+1) - y U_k) / (y^2 - 1).
        return ((k + 1) * mp.chebyt(k + 1, y) - y * mp.chebyu(k, y)) / (
            y * y - 1)

    out = []
    for terms in ([mp.chebyu(k, y) for k in (n, n - 1, n - 2)],
                  [du(k) for k in (n, n - 1, n - 2)]):
        terms = [terms[0], -2 * a * terms[1], b * terms[2]]
        out.append(abs(sum(terms)) / sum(abs(t) for t in terms))
    return out


@pytest.mark.parametrize("n", [2, 3, 6, 8, 16, 64, 257, 1024])
def test_critical_zeta_is_an_exceptional_point(n):
    # The closed form 1 - cos(pi / (n + 1)) and its EP (y0, xi*) make
    # P = P' = 0, in 50-digit mpmath.
    mp = pytest.importorskip("mpmath")
    result = critical_zeta(n)
    with mp.workdps(50):
        theta = mp.pi / (n + 1)
        assert abs(result.ep_y - mp.cos(theta)) <= 2 * _EPS
        assert abs(result.ep_xi / (mp.sin(theta) * mp.sqrt(
            mp.mpf(n - 1) / (n + 1))) - 1) <= 4 * _EPS
        residuals = _mp_secular_pair(mp, n, result.value, result.ep_xi,
                                     result.ep_y)
    assert max(residuals) < 1e-12, residuals


def test_critical_zeta_closed_form_is_within_two_ulps():
    # 1 - cos(pi / (n + 1)) in 60-digit mpmath, on every 97th n of the
    # stated range and at its ends.
    mp = pytest.importorskip("mpmath")
    ns = [*range(2, 65_537, 97), 65_535, 65_536]
    with mp.workdps(60):
        for n in ns:
            got = critical_zeta(n).value
            want = 1 - mp.cos(mp.pi / (n + 1))
            assert abs(got - want) <= 2 * math.ulp(float(want)), n


def test_critical_zeta_closed_form_matches_the_numpy_oracle_bitwise():
    # The value, ep_y and ep_xi are computed in math, so that the default
    # case imports no numpy; they keep the bits of the numpy evaluation.
    ns = [*range(2, 5_001),
          *(2 ** k + d for k in range(2, 21) for d in (-1, 1))]
    for n in ns:
        result = critical_zeta(n)
        assert (result.value, result.ep_y, result.ep_xi) == \
            critical_closed_form(n), n


def test_critical_zeta_at_the_top_of_the_range_is_instant():
    # The fastest of five calls, against a bisection that would not end.
    times = []
    for _ in range(5):
        start = time.perf_counter()
        result = critical_zeta(65_536)
        times.append(time.perf_counter() - start)
    assert 0.0 < result.value < 1.2e-9
    assert 0.0 < result.ep_xi < 1e-4
    assert min(times) < 1e-3, times


# 2 (n + 1) overflows once n is above the float max / 2.  An int n rounds
# to that float up to half an ulp above it; the tie rounds up, to the
# next float.
_CRITICAL_EDGE = sys.float_info.max / 2
_LARGEST_CRITICAL_N = (int(_CRITICAL_EDGE) + int(math.ulp(_CRITICAL_EDGE)) // 2
                       - 1)


def test_critical_zeta_up_to_the_largest_size_is_finite():
    # 1 - cos(pi / (n + 1)) is about 5 / n^2, which rounds to 0.0.
    for n in (10 ** 300, int(_CRITICAL_EDGE), _LARGEST_CRITICAL_N):
        result = critical_zeta(n)
        assert result.value == 0.0, n
        assert math.isfinite(result.ep_y) and result.ep_xi > 0.0, n


@pytest.mark.parametrize("xi_max", [10.0, 5e-324], ids=["default", "edge"])
@pytest.mark.parametrize("n", [_LARGEST_CRITICAL_N + 1, 10 ** 308,
                               10 ** 400], ids=["smallest", "1e308", "1e400"])
def test_critical_zeta_size_beyond_the_float_range_is_a_value_error(n, xi_max):
    # It printed nan (the closed form) or failed in np.arange (xi_max below
    # xi*, the edge iteration), and n + 1 raised OverflowError past the
    # float max.
    message = (rf"^n = {n} is too large: 2 \(n \+ 1\) overflows the float "
               "range$")
    with pytest.raises(ValueError, match=message):
        critical_zeta(n, xi_max=xi_max)


@pytest.mark.parametrize("n", [10 ** 14, 10 ** 19], ids=["1e14", "1e19"])
def test_critical_zeta_edge_size_too_large_to_hold_names_n(n):
    # Below xi* the EP sums take n floats; numpy refused them with "Unable
    # to allocate 728. TiB" (1e14) and "Maximum allowed size exceeded"
    # (1e19), naming no size.
    with pytest.raises(MemoryError, match=rf"^cannot hold n = {n} floats$"):
        critical_zeta(n, xi_max=1e-30)


# The EP edge xi_max < xi*(n), with the 20,001-point bisection values it
# was probed against.
_EDGE_CASES = [(6, 0.2, 0.149917), (6, 0.3, 0.106840), (8, 0.25, 0.066209),
               (3, 0.3, 0.339791), (2, 0.45, 0.502506)]


@pytest.mark.parametrize("n, xi_max, probe", _EDGE_CASES)
def test_critical_zeta_below_xi_star_is_the_ep_on_the_edge(n, xi_max,
                                                          probe):
    mp = pytest.importorskip("mpmath")
    result = critical_zeta(n, xi_max=xi_max)
    assert (result.xi_max, result.ep_xi) == (xi_max, xi_max)
    assert result.ep_y > np.cos(np.pi / (n + 1))
    assert result.value == pytest.approx(probe, abs=1e-6)
    with mp.workdps(50):
        # The EP at the returned double root, by Cramer's rule on
        # P = P' = 0 in (a, b) = (Re z, |z|^2).
        y = mp.mpf(result.ep_y)
        u = [mp.chebyu(k, y) for k in (n, n - 1, n - 2)]
        du = [mp.diff(lambda x, k=k: mp.chebyu(k, x), y)
              for k in (n, n - 1, n - 2)]
        a, b = mp.lu_solve(mp.matrix([[2 * u[1], -u[2]],
                                      [2 * du[1], -du[2]]]),
                           mp.matrix([u[0], du[0]]))
        assert abs((1 - a / b) / result.value - 1) < 1e-13
        assert abs(mp.sqrt(b - a * a) / b / xi_max - 1) < 1e-13
        residuals = _mp_secular_pair(mp, n, result.value, xi_max, y)
    assert max(residuals) < 1e-12, residuals
    if n == 2:
        assert result.value == pytest.approx(
            1.0 - np.sqrt(xi_max * (1.0 - xi_max)), rel=1e-15)


@pytest.mark.parametrize("n", [2, 6, 8, 16, 64])
def test_critical_zeta_is_the_threshold_on_both_sides(n):
    # Just above zeta_c the EP's xi gives a conjugate pair in dense
    # eigvals; just below it the spectrum is real over xi in [0, 10] and
    # on a fine grid about xi*.  At n = 64 a 2,000-point grid bisection
    # sat 8.5% above zeta_c, where this grid finds a complex pair.
    result = critical_zeta(n)
    xi_star = np.sin(np.pi / (n + 1)) * np.sqrt((n - 1) / (n + 1))
    above = ModelParams(n=n, xi=xi_star, zeta=result.value * (1 + 1e-4))
    eigs = np.linalg.eigvals(build_hamiltonian(above).dense())
    pair = np.sort(np.abs(eigs.imag))[-2:]
    assert np.all(pair > 1e-9) and pair[0] == pytest.approx(pair[1])
    below = result.value * (1 - 1e-4)
    for lo, hi, steps in ((0.0, 10.0, 2000),
                          (0.99 * xi_star, 1.01 * xi_star, 2001)):
        assert sweep_xi(n, below, lo, hi, steps).is_real.all()


def test_bisection_below_float_spacing_stops_at_adjacent_floats(
        monkeypatch):
    # A positive tolerance below the float spacing of the bracket ends
    # must not loop once the midpoint equals one of them.  The eigenvalue
    # call is capped so that a regression fails instead of hanging.
    calls = itertools.count()
    inner = analysis.hermitian_eigenvalues

    def capped(*args, **kwargs):
        assert next(calls) < 1000, "hermitian_eigenvalues called without end"
        return inner(*args, **kwargs)

    monkeypatch.setattr(analysis, "hermitian_eigenvalues", capped)
    fine = metric_positivity_sweep("band", 2, -1.5, 1.5, 31, param_tol=1e-300)
    assert fine.edge_positive == pytest.approx(1.0, abs=1e-12)
    assert fine.edge_negative == pytest.approx(-1.0, abs=1e-12)


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


@pytest.mark.parametrize("ms, match", [
    ([2.5, 5], "must be an integer"), ([4.0, 8], "must be an integer"),
    ([True], "must be an integer"), ([], "at least one size")],
    ids=["2.5", "4.0", "True", "empty"])
def test_continuum_rejects_sizes_that_are_not_integers(ms, match):
    # [2.5, 5] was truncated to M = 2, True taken as M = 1, and an empty
    # table failed later in richardson() with an IndexError.
    with pytest.raises(ValueError, match=match):
        continuum_convergence(ms, levels=1)


def test_continuum_extrapolation_hits_box_levels():
    table = continuum_convergence([25, 50, 100], levels=2)
    extrap = np.array(table.richardson())
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
    zeta, xi = np.array(loc.y_plus.zeta), np.array(loc.y_plus.xi)
    assert np.allclose(zeta ** 2 + xi ** 2, 2 * zeta / 8.0, atol=1e-14)
    # both branches start and end on the xi = 0 axis
    assert loc.y_plus.xi[0] == 0.0 and loc.y_plus.xi[-1] == pytest.approx(0.0, abs=1e-8)
    assert loc.y_minus.xi[0] == pytest.approx(0.0, abs=1e-8)
    assert loc.y_minus.xi[-1] == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        endpoint_locus(5, t=np.array([-0.1]))
    with pytest.raises(ValueError, match="t must hold at least one value"):
        endpoint_locus(5, t=[])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_endpoint_locus_rejects_non_finite_parameters(bad):
    # (t < 0) | (t > 1) is False for nan, which used to print a nan row.
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        endpoint_locus(3, t=[bad, 0.5])
