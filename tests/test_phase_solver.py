"""The phase-equation secular solver: accuracy, range and failure modes.

Reference values come from dense LAPACK (``eigvals``, ``eigvalsh`` for
real couplings), from 60-digit mpmath eigenvalues, and from eigenvector
residuals: ||(H - E) phi|| / ||phi|| >= sigma_min(H - E), so a small
residual certifies that E is an eigenvalue to that accuracy.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hermitize import spectrum
from hermitize.analysis import sweep_xi, sweep_zeta
from hermitize.closedform import endpoint_locus
from hermitize.critical import _ep_curve, critical_zeta
from hermitize.errors import NoConvergence
from hermitize.model import ModelParams, build_hamiltonian
from hermitize.spectrum import (_solve_batch, reality_flags, solve_spectrum,
                                wavefunction)

from _oracles import max_pair_distance, tolerance_flags, u_monomial

_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _params(n, z):
    return ModelParams(n=n, omega=z.imag, rho=z.real - 1.0)


def _dense_y(n, z):
    h = build_hamiltonian(_params(n, z)).dense()
    return (2.0 - np.linalg.eigvals(h)) / 2.0


@pytest.mark.parametrize("n, xi, zeta", [(256, 0.01, 0.9), (512, 3.0, 0.0),
                                         (1024, 0.4, 0.3)])
def test_former_defect_inputs_solve_to_small_residuals(n, xi, zeta):
    # The Aberth solve raised NoConvergence here (after 2.5 s, 4.7 s, 20 s).
    p = ModelParams(n=n, xi=xi, zeta=zeta)
    spec = solve_spectrum(p)
    y = spec.y_roots
    assert y.shape == (n,) and np.all(np.isfinite(y))
    norm = 4.0 + abs(p.z)  # ||H||_inf
    sample = np.concatenate([y[::16], y[np.abs(y) > 1.0], y[~spec.is_real]])
    for root in sample:
        assert wavefunction(p, root).residual <= 1e-12 * norm


def test_real_couplings_give_real_roots_at_full_accuracy():
    # H is real symmetric.  z = 1.8 binds two states below the band, and
    # z = -2.3211 at n = 21 a pair 1e-8 apart, which the Aberth solve
    # could resolve only to about 1e-8.
    for n, z in ((64, 1.8), (21, -2.3211), (40, 1.05), (9, -30.0)):
        p = ModelParams(n=n, omega=0.0, rho=z - 1.0)
        y = solve_spectrum(p).y_roots
        assert np.all(y.imag == 0.0) and solve_spectrum(p).is_real.all()
        h = build_hamiltonian(p).dense().real
        exact = np.sort((2.0 - np.linalg.eigvalsh(h)) / 2.0)
        assert np.max(np.abs(np.sort(y.real) - exact)) <= 1e-14 * max(
            1.0, abs(z))


_LOG_MODULUS = st.floats(-3.0, 3.0)
_NEAR_ONE = st.builds(lambda s, e: 1.0 + s * 10.0 ** e, st.sampled_from(
    [-1.0, 1.0]), st.floats(-12.0, -2.0))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(2, 64),
       modulus=st.one_of(_LOG_MODULUS.map(lambda e: 10.0 ** e), _NEAR_ONE),
       phase=st.one_of(st.floats(0.0, 2.0 * np.pi),
                       st.sampled_from([0.0, np.pi])))
@example(n=2, modulus=0.0, phase=0.0)
@example(n=33, modulus=0.0, phase=0.0)
@example(n=21, modulus=2.3211, phase=np.pi)
def test_roots_match_dense_eigenvalues(n, modulus, phase):
    z = modulus * complex(np.cos(phase), np.sin(phase))
    if phase in (0.0, np.pi):
        z = complex(z.real, 0.0)
    y = _solve_batch(n, np.array([z]))[0]
    assert np.all(np.isfinite(y))
    exact = _dense_y(n, z)
    # Near an exceptional point both solvers lose half their digits.
    assert max_pair_distance(y, exact) <= 1e-7 * max(1.0, modulus)
    assume(abs(z) != 1.0)
    real = reality_flags(y)
    assert np.count_nonzero(~real) in (0, 2)
    if abs(z) < 1.0 or z.imag == 0.0:
        assert np.all(y.imag == 0.0)


def _assert_eigenvectors_at_round_off(p, roots):
    # ||(H - E) phi|| / ||phi|| at round-off of ||H||_inf = 4 + |z|, finite
    # and with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for root in roots:
            wf = wavefunction(p, root)
            assert np.all(np.isfinite(wf.components))
            assert wf.residual <= 1e-13 * (4.0 + abs(p.z))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(2, 64),
       modulus=st.one_of(_LOG_MODULUS.map(lambda e: 10.0 ** e), _NEAR_ONE),
       phase=st.one_of(st.floats(0.0, 2.0 * np.pi),
                       st.sampled_from([0.0, np.pi])))
@example(n=6, modulus=1.0, phase=1.1)
@example(n=8, modulus=0.0, phase=0.0)
def test_eigenvectors_at_dense_eigenvalues_are_at_round_off(n, modulus,
                                                            phase):
    # eigvals is backward stable: each eigenvalue is exact for some H + dH
    # with ||dH|| of order eps ||H||, so sigma_min(H - E) is at round-off
    # there, next to exceptional points too, and so must the residual be.
    # (The secular roots themselves can be farther off where the bound
    # pair is nearly degenerate at non-real z; see ROADMAP item 3.)
    z = modulus * complex(np.cos(phase), np.sin(phase))
    if phase in (0.0, np.pi):
        z = complex(z.real, 0.0)
    p = _params(n, z)
    _assert_eigenvectors_at_round_off(p, _dense_y(n, p.z))


@pytest.mark.parametrize("n, z", [
    (12, 0.5891195440021485 - 0.8080459532575693j),
    (142, 0.8415532780612139 - 0.5401731706268285j),
    (120, -0.7119653413685794 - 0.7022157877024077j)])
def test_eigenvectors_at_the_former_recurrence_failures(n, z):
    # The secular roots are within 1e-14 of eigvals here, but the two-ended
    # recurrence missed them by 3.0e-8, 8.6e-8 and 1.5e-7 (the last at
    # y = -9.7e-9, next to its y -> 0 limit form).
    p = _params(n, z)
    _assert_eigenvectors_at_round_off(p, solve_spectrum(p).y_roots)


def test_two_sites_and_the_dirichlet_wall():
    # n = 2: 4 y^2 - 4 a y + b - 1 = 0; z = 0 gives y = +/-1/2.
    for z in (0.0, 0.3 + 0.2j, 1.0 + 2.0j, -3.0, 0.999 + 0.05j):
        z = complex(z)
        a, b = z.real, abs(z) ** 2
        root = np.sqrt(complex(a * a - b + 1.0))
        expect = [(a - root) / 2.0, (a + root) / 2.0]
        y = _solve_batch(2, np.array([z]))[0]
        assert max_pair_distance(y, expect) <= 1e-15 * max(1.0, abs(z))
    for n in (2, 7, 64):
        y = _solve_batch(n, np.array([0j]))[0]
        dirichlet = np.cos(np.pi * np.arange(n, 0, -1) / (n + 1))
        assert np.max(np.abs(y - dirichlet)) <= 1e-15


def test_unit_modulus_and_one_ulp_either_side():
    # |z|^2 == 1: cos(pi k / n), k = 1 .. n - 1, plus Re z, in closed form.
    # One ulp off the circle the phase turns by pi within ~1e-16 of
    # cos(gamma) = Re z; the roots move by round-off only.  (Re z is no
    # cos(pi k / n) here; where it is, the roots there are double and move
    # by sqrt(ulp).)
    for z in (1.0 + 0j, -1.0 + 0j, 0.6 + 0.8j, -0.28 + 0.96j):
        assert z.real * z.real + z.imag * z.imag == 1.0
        for n in (2, 5, 16):
            expect = np.append(np.cos(np.pi * np.arange(1, n) / n), z.real)
            for scale in (1.0, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52):
                y = _solve_batch(n, np.array([z * scale]))[0]
                assert max_pair_distance(y, expect) <= 1e-14


def test_golden_sampled_endpoint_loci_put_a_root_at_the_band_edge():
    # There a root sits at t = +/-1, where y = (t + 1/t)/2 degenerates.
    t = np.sort((0.5 + _PHI * np.arange(1, 21)) % 1.0)
    worst = 0.0
    for n in (*range(2, 13), 16, 24, 32):
        loc = endpoint_locus(n, t=t)
        for branch, edge in ((loc.y_plus, 1.0), (loc.y_minus, -1.0)):
            for zeta, xi in zip(branch.zeta, branch.xi):
                y = solve_spectrum(ModelParams(n=n, xi=float(xi),
                                               zeta=float(zeta))).y_roots
                worst = max(worst, np.min(np.abs(y - edge)))
    assert worst <= 1e-9


def test_decreasing_piece_and_its_critical_points():
    # At n = 10, z = 0.7529 - 0.7385i the phase falls between its two
    # critical points, cos(gamma) = 0.74806 and 0.67797.
    n, z = 10, 0.7529 - 0.7385j
    one = lambda v: np.array([v])  # noqa: E731
    ends, levels = spectrum._monotone_pieces(
        n, one(z.real), one(abs(z) ** 2), one(abs(1 - z) ** 2),
        one(abs(1 + z) ** 2))
    assert np.allclose(np.cos(ends[0, 1:3]), [0.74806, 0.67797], atol=1e-5)
    assert levels[0, 2] < levels[0, 1]
    y = _solve_batch(n, np.array([z]))[0]
    assert max_pair_distance(y, _dense_y(n, z)) <= 1e-14


def test_level_count_at_pi_is_exact():
    # psi(pi) / pi read 26.000000000000004 in floats at n = 25, |z| = 0.997.
    for phase in (0.0, 0.4, 2.0, np.pi):
        z = 0.997 * complex(np.cos(phase), np.sin(phase))
        y = _solve_batch(25, np.array([z]))[0]
        assert np.all(y.imag == 0.0)
        assert max_pair_distance(y, _dense_y(25, z)) <= 1e-13


def test_roots_do_not_depend_on_the_batch():
    zs = 1.0 / (0.6 - 1j * np.linspace(0.0, 3.0, 301))
    zs = np.concatenate([zs, [0.0, 1.0, -2.5, 0.999 + 0.01j]])
    for n in (3, 8, 32):
        whole = _solve_batch(n, zs)
        for i in range(0, zs.size, 7):
            alone = _solve_batch(n, zs[i:i + 1])[0]
            assert np.array_equal(alone.view(np.uint64),
                                  whole[i].view(np.uint64))


def test_iteration_budget_raises_with_best():
    p = ModelParams(n=32, xi=0.4, zeta=0.3)
    for budget in (0, 1):
        with pytest.raises(NoConvergence) as info:
            solve_spectrum(p, max_iter=budget)
        assert info.value.best is not None
    solve_spectrum(p, max_iter=20)


def test_outer_stage_budget_raises_with_best():
    # Through solve_spectrum the band stage runs out of a small budget
    # first, so the outer stage is called directly, on converged band
    # roots padded with +inf to n columns.
    n = 8
    zs = np.array([3.0 + 1.0j, 1.2 + 0.3j])
    a, w = zs.real, zs.imag
    y, row = spectrum._band_roots(n, a, a * a + w * w, (1.0 - a) ** 2 + w * w,
                                  (1.0 + a) ** 2 + w * w, 500)
    band = np.full((zs.size, n), np.inf)
    for r in range(zs.size):
        band[r, :np.count_nonzero(row == r)] = y[row == r]
    assert np.all(np.isinf(band[:, -1]))
    with pytest.raises(NoConvergence, match="outer root iteration did not "
                       "converge in 0 steps") as info:
        spectrum._outer_roots(n, zs, band, 0)
    assert info.value.best.shape == (2, 2)


@pytest.mark.parametrize("max_iter", [-1, True, False, 2.5, 3.0, "3", None])
def test_max_iter_must_be_an_integer_at_least_zero(max_iter):
    # -1 read as "did not converge in -1 steps" (NoConvergence, exit code
    # 2), True as "in True steps", and 2.5 failed inside range().
    p = ModelParams(n=8, xi=0.4, zeta=0.3)
    with pytest.raises(ValueError,
                       match="max_iter must be an integer >= 0, got"):
        solve_spectrum(p, max_iter=max_iter)


def test_sweeps_take_no_iteration_budget():
    # They solve with solve_spectrum's default budget of 500.
    for sweep, fixed in ((sweep_xi, 0.3), (sweep_zeta, 0.4)):
        with pytest.raises(TypeError, match="max_iter"):
            sweep(8, fixed, 0.0, 1.0, 5, max_iter=500)


def test_max_iter_takes_numpy_integers():
    p = ModelParams(n=8, xi=0.4, zeta=0.3)
    expect = solve_spectrum(p, max_iter=20).y_roots
    got = solve_spectrum(p, max_iter=np.int64(20)).y_roots
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


def test_sweep_rows_are_pointwise_solves_bitwise():
    # The grid couplings are bitwise ModelParams.z, and rows never
    # interact, so sweep and spectrum print the same digits.
    for n in (8, 32):
        by_xi = sweep_xi(n, 0.3, 0.0, 3.0, 200)
        by_zeta = sweep_zeta(n, 0.7, -1.0, 0.95, 200)
        for i in range(200):
            for res, p in (
                    (by_xi, ModelParams(n=n, xi=by_xi.values[i], zeta=0.3)),
                    (by_zeta, ModelParams(n=n, xi=0.7,
                                          zeta=by_zeta.values[i]))):
                y = solve_spectrum(p).y_roots
                assert np.array_equal(y.view(np.uint64),
                                      res.y_roots[i].view(np.uint64))


def _mp_roots(mp, n, z):
    """60-digit eigenvalues of (2 - H) / 2, i.e. the secular roots."""
    mp.mp.dps = 60
    zc = mp.mpc(z.real, z.imag)
    k = mp.matrix(n, n)
    for i in range(n - 1):
        k[i, i + 1] = k[i + 1, i] = mp.mpf(1) / 2
    k[0, 0] = zc / 2
    k[n - 1, n - 1] = mp.conj(zc) / 2
    return np.array([complex(e) for e in mp.eig(k, left=False, right=False)])


def _ep_xi(n, zeta, lo, hi):
    """xi where the spectrum turns complex, bisected to adjacent floats."""
    real_lo = solve_spectrum(
        ModelParams(n=n, xi=lo, zeta=zeta)).is_real.all()
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if solve_spectrum(ModelParams(n=n, xi=mid,
                                      zeta=zeta)).is_real.all() == real_lo:
            lo = mid
        else:
            hi = mid


def test_high_precision_near_the_unit_circle_and_exceptional_points():
    mp = pytest.importorskip("mpmath")
    for n in (3, 8, 12):
        for modulus in (1.0 - 1e-9, 1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52,
                        1.0 + 1e-3):
            z = modulus * np.exp(0.7j)
            y = _solve_batch(n, np.array([z]))[0]
            assert max_pair_distance(y, _mp_roots(mp, n, z)) <= 4e-15
    for n, zeta, lo, hi in ((4, 0.3, 0.1, 0.4), (6, 0.5, 0.0, 0.6),
                            (12, 0.4, 0.0, 0.01)):
        ep = _ep_xi(n, zeta, lo, hi)
        for xi in (ep, ep - 1e-6, ep + 1e-6):
            p = ModelParams(n=n, xi=xi, zeta=zeta)
            y = solve_spectrum(p).y_roots
            exact = _mp_roots(mp, n, p.z)
            # At the EP itself the pair is a double root to round-off, and
            # no solver gets closer than about the square root of it.
            bound = 1e-13 if xi != ep else max(
                1e-12, 4.0 * max_pair_distance(_dense_y(n, p.z), exact))
            assert max_pair_distance(y, exact) <= bound


# The four kinds of coupling of the residual census: generic; nearly real
# (phase within 1e-6 of 0 or pi, down to 1e-320); |z| within 1e-12 to 1e-2
# of 1; and the region of the exceptional points, |z| in [1, 3.16] with a
# phase 1e-4 to 1e-1 off the real axis.
_SIGN = st.sampled_from([-1.0, 1.0])
_GENERIC = st.builds(lambda e, ph: 10.0 ** e * complex(np.cos(ph), np.sin(ph)),
                     st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * np.pi))
_NEAR_UNIT = st.builds(
    lambda s, e, ph: (1.0 + s * 10.0 ** e) * complex(np.cos(ph), np.sin(ph)),
    _SIGN, st.floats(-12.0, -2.0), st.floats(0.0, 2.0 * np.pi))


def _off_axis(log_modulus, log_phase):
    """+/-|z| e^(+/-i phase), log10 |z| and log10 phase in the ranges."""
    return st.builds(
        lambda s, e, sp, ep: s * 10.0 ** e * complex(
            np.cos(10.0 ** ep), sp * np.sin(10.0 ** ep)),
        _SIGN, st.floats(*log_modulus), _SIGN, st.floats(*log_phase))


_NEARLY_REAL = _off_axis((0.1, 3.0), (-320.0, -6.0))
_EP_REGION = _off_axis((0.0, 0.5), (-4.0, -1.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 64),
       z=st.one_of(_GENERIC, _NEARLY_REAL, _NEAR_UNIT, _EP_REGION))
@example(n=20, z=78.70198550955453 * complex(1.0, 5.9e-298))
@example(n=9, z=complex(-30.0, 1e-300))
def test_eigenvectors_at_the_solver_roots_are_at_round_off(n, z):
    # The roots off the band are where the outer stage works; each must
    # be an eigenvalue to round-off of ||H||_inf, by its residual.
    p = _params(n, z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = solve_spectrum(p).y_roots
    _assert_eigenvectors_at_round_off(
        p, y[(y.imag != 0.0) | (np.abs(y.real) > 1.0)])


def _mp_outer_roots(mp, n, z, guesses):
    """60-digit roots of P, one next to each guess: Muller's method on P
    deflated by the roots found before, so a near-double pair gives both
    of its members."""
    mp.mp.dps = 60
    a = mp.mpf(z.real)
    b = a * a + mp.mpf(z.imag) ** 2

    def secular(y):
        u = [mp.mpf(1), 2 * y]
        for _ in range(n - 1):
            u.append(2 * y * u[-1] - u[-2])
        return u[n] - 2 * a * u[n - 1] + b * u[n - 2]

    found = []
    for g in guesses:
        g = mp.mpc(g.real, g.imag)
        found.append(mp.findroot(
            lambda y: secular(y) / mp.fprod(y - r for r in found),
            (g, g * (1 + 1e-9), g * (1 - 1e-9)), solver="muller",
            verify=False))
    return np.array([complex(r) for r in found])


@pytest.mark.parametrize("n, z", [
    # Nearly real couplings with a nearly degenerate bound pair, which the
    # Aberth step on P resolved only to 1e-8 relative.
    (20, 78.70198550955453 * complex(np.cos(5.9e-298), np.sin(5.9e-298))),
    (56, complex(21.09, 1e-322)),
    (56, complex(-21.09, 1e-322)),
    (39, 412.0 * complex(np.cos(1e-12), np.sin(1e-12))),
    # Left in NoConvergence by an outer stage with a naive noise floor.
    (10, complex(-7.868826827449183, 9.636533587280464e-16)),
    (4, complex(575.3057325874843, 4.0797261271565726e-196))])
def test_nearly_real_bound_pairs_at_full_accuracy(n, z):
    mp = pytest.importorskip("mpmath")
    y = solve_spectrum(_params(n, z)).y_roots
    outer = y[(y.imag != 0.0) | (np.abs(y.real) > 1.0)]
    assert outer.size == 2
    exact = _mp_outer_roots(mp, n, _params(n, z).z, outer)
    assert max_pair_distance(outer, exact) <= 1e-12 * np.max(np.abs(outer))


@pytest.mark.parametrize("ulps", [256, 1024])
def test_pair_just_above_critical_zeta_is_flagged_complex(ulps):
    # At n = 32 and xi = xi*, 256 and 1,024 ulps above zeta_c, the solve
    # returns a complex pair (|Im y| = 1.8e-10 and 4.7e-10), and the
    # 80-digit spectrum of the same float coupling is complex too.  The
    # earlier 1e-9 tolerance flagged that pair real.
    c = critical_zeta(32)
    zeta = c.value + ulps * np.spacing(c.value)
    spec = solve_spectrum(ModelParams(n=32, xi=c.ep_xi, zeta=zeta))
    pair = spec.y_roots.imag != 0.0
    assert np.count_nonzero(pair) == 2
    assert np.array_equal(spec.is_real, ~pair)


def _mp_secular_roots(mp, n, z):
    """80-digit roots of P at the float coupling z, from the exact
    monomial coefficients of U_k, and whether each is real."""
    with mp.workdps(80):
        a, w = mp.mpf(z.real), mp.mpf(z.imag)
        coeffs = [mp.mpf(0)] * (n + 1)
        for k, factor in ((n, 1), (n - 1, -2 * a), (n - 2, a * a + w * w)):
            for i, c in enumerate(u_monomial(k)):
                coeffs[i] += factor * c
        roots = mp.polyroots(coeffs[::-1], maxsteps=50, extraprec=60)
        # A real root keeps |Im| far below 1e-40 at 80 digits; the complex
        # pairs of the census have |Im| above 1e-11.
        real = [abs(mp.im(r)) < mp.mpf(10) ** -40 for r in roots]
    return np.array([complex(r) for r in roots]), np.array(real)


def test_reality_flags_near_exceptional_points_against_mpmath():
    # Couplings 1, 64 and 4,096 ulps of zeta either side of EPs on the
    # curve of critical._ep_curve, two in the band and one just outside
    # (y = 1.005), against the 80-digit roots of the same float coupling;
    # each solver root takes the reality of its nearest exact root.
    # A double root moves by sqrt(eps) under round-off, so within that of
    # an EP the solver can put a pair on the wrong side of the real axis.
    # Every wrong flag is there.  Dropping the 1e-9 tolerance mends more
    # couplings than it breaks; it breaks n = 16, y = 1.005, -1 ulp, where
    # the solver returns a complex pair (|Im y| = 7.5e-11) and the exact
    # pair is real, split by 4.2e-10.
    mp = pytest.importorskip("mpmath")
    mended = broken = 0
    for n in (3, 4, 6, 8, 16):
        theta = np.pi / (n + 1)
        for v in (theta ** 2, (0.6 * theta) ** 2, -0.01):
            zeta0, log_xi, _, _ = _ep_curve(n, v)
            for k in (-4096, -64, -1, 1, 64, 4096):
                p = ModelParams(n=n, xi=np.exp(log_xi),
                                zeta=zeta0 + k * np.spacing(zeta0))
                spec = solve_spectrum(p)
                exact, exact_real = _mp_secular_roots(mp, n, p.z)
                truth, gap = np.empty(n, dtype=bool), np.empty(n)
                pool = list(range(n))
                for i, y in enumerate(spec.y_roots):
                    j = min(pool, key=lambda j: abs(y - exact[j]))
                    pool.remove(j)
                    truth[i] = exact_real[j]
                    gap[i] = np.min(np.abs(np.delete(exact, j) - exact[j]))
                wrong = spec.is_real != truth
                assert np.all(gap[wrong] < np.sqrt(np.finfo(float).eps)
                              * np.maximum(1.0, np.abs(spec.y_roots[wrong])))
                was_wrong = tolerance_flags(spec.y_roots) != truth
                mended += bool(was_wrong.any() and not wrong.any())
                broken += bool(wrong.any() and not was_wrong.any())
    assert broken < mended


def test_continuum_limit_at_the_top_of_the_range():
    # With h = 1/(n + 1) and z = 1 + i alpha h the scaled energies
    # (n + 1)^2 E tend to alpha^2 and (m pi)^2: the PT-symmetric square
    # well with Robin ends (Krejcirik, Bila & Znojil, J. Phys. A 39,
    # 2006).  The error falls like 1/n; the outer pair sits at the band
    # edge, where t is next to 1.
    n, alpha = 65536, 2.0
    spec = solve_spectrum(ModelParams(n=n, omega=alpha / (n + 1), rho=0.0))
    assert spec.is_real.all()
    lowest = np.sort(spec.energies.real)[:3] * (n + 1) ** 2
    assert np.allclose(lowest, [alpha ** 2, np.pi ** 2, 4.0 * np.pi ** 2],
                       rtol=1e-4, atol=0.0)
