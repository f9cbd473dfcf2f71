import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hermitize.analysis import _zs_from_grid
from hermitize.chebyshev import eval_combo
from hermitize.errors import DimensionMismatch, NoConvergence
from hermitize.model import ModelParams, build_hamiltonian
from hermitize import spectrum
from hermitize.spectrum import (_lexsorted_rows, _solve_batch,
                                eigen_residual, reality_flags,
                                secular_polynomial, solve_spectrum,
                                wavefunction)

import _oracles
from _oracles import (charpoly_eigenvalues, combo_monomial,
                      max_pair_distance, same_bits, tie_conjugate_pairs)


def _ep_grid(zeta, xi_max, steps):
    # Couplings along a xi line: rows before and after exceptional points.
    xi = np.linspace(0.0, xi_max, steps)
    return ((1.0 - zeta) + 1j * xi) / ((1.0 - zeta) ** 2 + xi ** 2)


def test_secular_coefficients_by_hand():
    # |z|^2 at degree n-2, -2 Re z at n-1, 1 at n.
    p = ModelParams(n=4, omega=0.5, rho=0.25)
    z = 1.25 + 0.5j
    expect = np.zeros(5)
    expect[2] = abs(z) ** 2
    expect[3] = -2 * z.real
    expect[4] = 1.0
    assert np.array_equal(secular_polynomial(p), expect)


def _companion_roots(p):
    # The secular polynomial expanded to monomials, solved by numpy.
    return np.roots(combo_monomial(secular_polynomial(p))[::-1])


def test_two_site_closed_form_roots():
    # n = 2, rho = 0: 4 y^2 - 4 y + omega^2 = 0.
    for omega in (0.5, 1.5):
        p = ModelParams(n=2, omega=omega)
        roots = solve_spectrum(p).y_roots
        assert max_pair_distance(roots, _companion_roots(p)) < 1e-8
        disc = 1.0 - omega ** 2
        if disc >= 0:
            expect = [(1 - np.sqrt(disc)) / 2, (1 + np.sqrt(disc)) / 2]
        else:
            expect = [complex(0.5, -np.sqrt(-disc) / 2),
                      complex(0.5, np.sqrt(-disc) / 2)]
        assert max_pair_distance(roots, expect) < 1e-14


def test_unit_coupling_factorizes():
    # z = 1: roots are exactly {1} and {cos(k pi / n)}.
    for n in (2, 5, 12):
        p = ModelParams(n=n, xi=0.0, zeta=0.0)
        roots = solve_spectrum(p).y_roots
        assert max_pair_distance(roots, _companion_roots(p)) < 1e-8
        expect = np.concatenate([[1.0], np.cos(np.arange(1, n) * np.pi / n)])
        assert max_pair_distance(roots, expect) < 1e-12


def test_find_roots_against_companion_oracle():
    # Moderate degrees: expand to monomials and use numpy's solver.
    rng = np.random.RandomState(23)
    for _ in range(20):
        n = rng.randint(2, 11)
        xi = rng.uniform(-2, 2)
        zeta = rng.uniform(0, 0.9)
        p = ModelParams(n=n, xi=xi, zeta=zeta)
        got = solve_spectrum(p).y_roots
        assert max_pair_distance(got, _companion_roots(p)) < 1e-8


def test_trig_secular_consistent_with_polynomial():
    # sin(gamma) P(cos gamma) in the angle variable, from its closed form.
    p = ModelParams(n=6, xi=0.8, zeta=0.3)
    gamma = np.linspace(0.1, 3.0, 17)
    poly, _ = eval_combo(secular_polynomial(p), np.cos(gamma))
    z, n = p.z, p.n
    trig = (abs(z) ** 2 * np.sin((n - 1) * gamma)
            - 2.0 * z.real * np.sin(n * gamma) + np.sin((n + 1) * gamma))
    assert np.allclose(trig, np.sin(gamma) * poly, atol=1e-12)


def test_solve_spectrum_energies_and_flags():
    p = ModelParams(n=4, xi=0.0, zeta=0.0)
    spec = solve_spectrum(p)
    expect = np.array([0.0, 2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)])
    assert max_pair_distance(spec.energies, expect) < 1e-12
    assert spec.all_real and spec.n_real == 4 and spec.n_complex_pairs == 0
    # shifted convention moves the same spectrum down by 2
    spec_s = solve_spectrum(ModelParams(n=4, xi=0.0, zeta=0.0,
                                        convention="shifted"))
    assert max_pair_distance(spec_s.energies, expect - 2.0) < 1e-12


def test_solve_spectrum_conjugate_pairs_flagged():
    p = ModelParams(n=4, xi=0.4, zeta=0.3)
    spec = solve_spectrum(p)
    assert spec.n_complex_pairs == 1
    complex_roots = spec.y_roots[~spec.is_real]
    assert abs(complex_roots[0] - np.conj(complex_roots[1])) < 1e-10


def test_roots_deterministic_across_calls():
    p = ModelParams(n=9, xi=1.3, zeta=0.55)
    a = solve_spectrum(p).y_roots
    b = solve_spectrum(p).y_roots
    assert np.array_equal(a, b)


def test_lexsorted_rows_matches_per_row_sort():
    rng = np.random.RandomState(5)
    y = rng.randn(40, 9) + 1j * rng.randn(40, 9)
    y[:, 1] = np.conj(y[:, 0])  # conjugate pairs share the real part
    y[:, 2] = y[:, 0].real  # and so does a real root
    y[::3, 4] = y[::3, 5]  # exact duplicates
    expect = np.array([sorted(row, key=lambda v: (v.real, v.imag))
                       for row in y])
    assert np.array_equal(_lexsorted_rows(y), expect)


def test_conjugate_pair_order_does_not_depend_on_round_off():
    a = 0.3
    b = np.nextafter(a, 1.0)  # pair members one ulp apart in Re
    m = 0.5 * (a + b)
    rows = np.array([
        [b + 0.2j, a - 0.2j, 0.7 + 1e-17j, -0.5 + 0j],
        [a + 0.2j, b - 0.2j, -0.5 + 0j, 0.7 + 1e-17j],
        [a - 0.2j, -0.5 + 0j, 0.7 + 1e-17j, b + 0.2j],
    ])
    out = _lexsorted_rows(tie_conjugate_pairs(rows))
    expect = np.array([-0.5, m - 0.2j, m + 0.2j, 0.7 + 1e-17j])
    assert np.array_equal(out, np.broadcast_to(expect, out.shape))
    # Near-real roots of opposite Im sign and roots that are not close to
    # each other's conjugate keep their values.
    apart = np.array([[0.5 + 1e-12j, 0.5 + 1e-3 - 1e-12j,
                       0.3 + 0.5j, 0.7 - 0.4j]])
    assert np.array_equal(tie_conjugate_pairs(apart), apart)
    # Solver output: every complex pair shares its real part, -Im first.
    y = _solve_batch(32, 1.0 / (0.7 - 1j * np.linspace(0.0, 3.0, 60)))
    lower = ~reality_flags(y) & (y.imag < 0)
    assert lower.any()
    partner = np.roll(y, -1, axis=1)[lower]
    assert np.array_equal(partner.real, y[lower].real)
    assert np.all(partner.imag > 0)


def test_reality_flags_scale_with_magnitude():
    roots = np.array([50.0 + 4e-8j, 1.0 + 4e-8j, 0.2 + 2e-10j])
    flags = reality_flags(roots)
    assert flags.tolist() == [True, False, True]


def test_wavefunction_satisfies_eigen_equation():
    p = ModelParams(n=7, xi=0.9, zeta=0.25)
    spec = solve_spectrum(p, with_wavefunctions=True)
    for wf in spec.wavefunctions:
        assert wf.residual < 1e-11
        assert wf.components[0] == pytest.approx(1.0, abs=1e-12)
        # second site follows the recursion start 2 y - z
        assert wf.components[1] == pytest.approx(2 * wf.y - p.z, abs=1e-10)


def test_wavefunction_warns_off_spectrum():
    p = ModelParams(n=5, xi=0.3, zeta=0.1)
    with pytest.warns(UserWarning):
        wavefunction(p, 0.437)


def test_wavefunction_zero_energy_branch():
    # Even n on the |z| = 1 circle puts a root exactly at y = 0, where the
    # closed form divides by y; the twisted factorization goes through and
    # gives the limit (1, -z, -1, z, ...).
    t = 1.1
    p = ModelParams(n=6, xi=np.sin(t), zeta=1.0 - np.cos(t))
    wf = wavefunction(p, 0.0)
    assert wf.residual < 1e-12
    z = p.z
    expect = np.array([1.0, -z, -1.0, z, 1.0, -z])
    assert np.allclose(wf.components, expect, atol=0)


def test_wavefunction_normalization_contract():
    # phi_1 = 1 exactly, except for the mode bound at site n of a strong
    # non-real coupling: its phi_1 ~ |z|^-(n - 1) = 2e-189 is below 2^-500
    # of its largest amplitude, so it is scaled to max |phi| = 1.
    p = ModelParams(n=64, omega=300.0, rho=950.0)
    scaled = []
    for wf in solve_spectrum(p, with_wavefunctions=True).wavefunctions:
        assert wf.residual <= 1e-13 * (4.0 + abs(p.z))
        if wf.components[0] != 1.0:
            scaled.append(wf.components)
    assert len(scaled) == 1
    assert np.max(np.abs(scaled[0])) == pytest.approx(1.0, rel=1e-15)
    assert abs(scaled[0][0]) < 2.0 ** -500


def test_eigen_residual_validates_shapes():
    h = build_hamiltonian(ModelParams(n=4, omega=0.1))
    with pytest.raises(DimensionMismatch):
        eigen_residual(h, 1.0, np.ones(3))
    with pytest.raises(DimensionMismatch):
        eigen_residual(np.eye(4), 1.0, np.ones(3))
    with pytest.raises(ValueError):
        eigen_residual(h, 1.0, np.zeros(4))
    # structured and dense paths agree
    phi = np.linspace(1, 2, 4) + 1j
    a = eigen_residual(h, 0.37, phi)
    b = eigen_residual(h.dense(), 0.37, phi)
    assert a == pytest.approx(b, rel=1e-12)


def test_charpoly_route_against_lapack():
    rng = np.random.RandomState(17)
    for _ in range(15):
        n = rng.randint(2, 13)
        p = ModelParams(n=n, xi=rng.uniform(-2, 2), zeta=rng.uniform(0, 0.9))
        h = build_hamiltonian(p)
        got = charpoly_eigenvalues(h)
        expect = np.linalg.eigvals(h.dense())
        assert max_pair_distance(got, expect) < 1e-9


def test_charpoly_respects_convention():
    p = ModelParams(n=5, xi=0.6, zeta=0.2)
    lat = charpoly_eigenvalues(build_hamiltonian(p))
    shf = charpoly_eigenvalues(build_hamiltonian(p).shifted())
    assert max_pair_distance(lat, shf + 2.0) < 1e-10


def _nearest(roots, reference):
    """Distance of each root to the nearest reference value."""
    return np.min(np.abs(roots[:, None] - reference[None, :]), axis=1)


def _dense_y(n, z):
    p = ModelParams(n=n, omega=z.imag, rho=z.real - 1.0)
    return (2.0 - np.linalg.eigvals(build_hamiltonian(p).dense())) / 2.0


@pytest.mark.parametrize("rows", [1, 7, pytest.param(None, id="default")])
def test_solve_batch_matches_whole_row_oracle_bitwise(monkeypatch, rows):
    # The solve in blocks of 1 row (every row alone), of 7 rows and of the
    # default max(1, _BLOCK_CROSSINGS // n) rows returns the roots of the
    # whole batch solved in one call bit for bit, on grids that cross
    # exceptional points and, at n = 128, at |z| > 1.  At n = 64 the
    # default splits the grid too.
    cases = [(n, _ep_grid(zeta, 3.0, steps))
             for n, steps in ((2, 300), (3, 300), (6, 300), (8, 300),
                              (32, 40), (64, 12), (64, 130))
             for zeta in (0.7, 0.6)]
    cases.append((128, 1.0 / (0.7 - 1j * np.linspace(0.0, 2.0, 3))))
    assert any(zs.size > spectrum._BLOCK_CROSSINGS // n for n, zs in cases)
    whole = [spectrum._secular_roots(n, zs, 500) for n, zs in cases]
    for (n, zs), expect in zip(cases, whole):
        if rows is not None:
            monkeypatch.setattr(spectrum, "_BLOCK_CROSSINGS", rows * n)
        if rows == 1 and zs.size > 40:
            zs, expect = zs[::10], expect[::10]
        got = _solve_batch(n, zs)
        assert same_bits(got, expect)
        real_rows = np.all(reality_flags(got), axis=1)
        assert n == 128 or (real_rows.any() and not real_rows.all())


def test_phase_solver_keeps_the_aberth_contract():
    # Against the earlier whole-row Aberth solve (tests/_oracles), in the
    # canonical (Re, Im) order: every root is within 1e-12 max(1, |y|) of
    # the oracle's, or nearer to eigvals than the oracle's.  Reality flags
    # agree except on real couplings, where H is real symmetric and the
    # Aberth bound pair kept Im y ~ 1e-8.  The grids are those of the
    # reality-scan sweeps (n = 8, 32), and cross exceptional points.
    cases = []
    for n, steps in ((8, 300), (32, 60)):
        for zeta in (0.7, 0.6, 0.3, -0.4):
            cases.append((n, _zs_from_grid(np.linspace(0.0, 3.0, steps),
                                           zeta)))
        for xi in (0.05, 0.8):
            cases.append((n, _zs_from_grid(xi, np.linspace(-1.5, 0.95,
                                                           steps))))
    moved = 0
    for n, zs in cases:
        got, ref = _solve_batch(n, zs), _oracles.solve_batch(n, zs)
        far = np.abs(got - ref) > 1e-12 * np.maximum(1.0, np.abs(ref))
        for i in np.flatnonzero(far.any(axis=1)):
            moved += 1
            exact = _dense_y(n, zs[i])
            assert np.all(_nearest(got[i], exact)[far[i]]
                          <= _nearest(ref[i], exact)[far[i]])
        flips = np.any(reality_flags(got) != reality_flags(ref), axis=1)
        assert np.all(zs[flips].imag == 0.0)
        assert np.all(reality_flags(got)[zs.imag == 0.0])
    assert moved <= 5


def test_overflowing_secular_solve_is_not_a_silent_wrong_root():
    # At (n, xi, zeta) = (256, 0.01, 0.9) the unscaled evaluation overflows
    # near some iterates; the solve used to return a root with
    # sigma_min(H - E) = 13.8.  It must fail or agree with LAPACK.
    p = ModelParams(n=256, xi=0.01, zeta=0.9)
    try:
        with np.errstate(all="ignore"):
            spec = solve_spectrum(p)
    except NoConvergence:
        return
    expect = np.linalg.eigvals(build_hamiltonian(p).dense())
    assert max_pair_distance(spec.energies, expect) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 8, 64])
@pytest.mark.parametrize("z", [1e155 * (1 + 1j), complex(np.nan, 0.3),
                               complex(0.5, np.inf)],
                         ids=["overflow", "nan", "inf"])
def test_non_finite_roots_are_never_returned(n, z):
    # |z|^2 overflows, or the coupling is not a number: no root may come
    # back as inf or nan, also next to a finite coupling in the batch.
    with np.errstate(all="ignore"), pytest.raises(NoConvergence):
        _solve_batch(n, [0.5 + 0.3j, z])
    # A finite coupling whose |z|^2 overflows, through the public call.
    p = ModelParams(n=n, omega=1e155, rho=1e155)
    with np.errstate(all="ignore"), pytest.raises(NoConvergence) as info:
        solve_spectrum(p)
    assert info.value.best is not None
    # The finite coupling alone solves, as solve_spectrum does.
    alone = _solve_batch(n, [0.5 + 0.3j])
    assert same_bits(alone[0], solve_spectrum(
        ModelParams(n=n, omega=0.3, rho=-0.5)).y_roots)


# The structure theorem behind critical_zeta's pruned reality predicate.
# With y = (t + 1/t)/2 a band root is a level crossing of a real phase on
# the unit circle: for |z| < 1 the phase is strictly increasing, so all n
# roots are real and lie in (-1, 1); for |z| > 1 at least n - 2 levels are
# still crossed, so at most one conjugate pair remains.
_PHASE = st.floats(0.0, 2.0 * np.pi, exclude_max=True)


def _theorem_case(n, modulus, phase):
    z = modulus * complex(np.cos(phase), np.sin(phase))
    p = ModelParams(n=n, omega=z.imag, rho=z.real - 1.0)
    energies = np.linalg.eigvals(build_hamiltonian(p).dense())
    real = np.abs(energies.imag) <= 1e-10 * np.maximum(1.0, np.abs(energies))
    return p, (2.0 - energies) / 2.0, real


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(2, 48), modulus=st.floats(0.0, 1.0, exclude_max=True),
       phase=_PHASE)
@example(n=2, modulus=0.0, phase=0.0)
@example(n=48, modulus=0.0, phase=1.0)
def test_couplings_inside_the_unit_disc_have_a_real_spectrum(n, modulus,
                                                             phase):
    p, y, real = _theorem_case(n, modulus, phase)
    assume(abs(p.z) < 1.0)  # z = 1 + rho + i omega may round onto |z| = 1
    assert np.all(real)
    assert np.all(np.abs(y.real) < 1.0 + 1e-12)  # z -> 1 puts a root at 1
    assert np.all(solve_spectrum(p).is_real)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(2, 48),
       modulus=st.floats(1.0, 1e3, exclude_min=True), phase=_PHASE)
def test_couplings_outside_the_unit_disc_keep_n_minus_two_band_roots(
        n, modulus, phase):
    p, y, real = _theorem_case(n, modulus, phase)
    assume(abs(p.z) > 1.0)
    assert np.count_nonzero(real & (np.abs(y.real) < 1.0)) >= n - 2
    assert np.count_nonzero(~real) <= 2
