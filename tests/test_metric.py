import warnings

import numpy as np
import pytest

from hermitize.analysis import metric_positivity_sweep
from hermitize.errors import DegenerateSpectrumWarning, DimensionMismatch
from hermitize.metric import (FAMILIES, MetricMatrix, dieudonne_nullspace,
                              dieudonne_residual, hermitian_eigenvalues,
                              metric_band, metric_band_extended,
                              metric_n3_general, metric_n3_special,
                              metric_n4_special, verify_metric)
from hermitize.model import ModelParams, build_hamiltonian

from _oracles import metric_band_recurrence


def _h(n, omega):
    return build_hamiltonian(ModelParams(n=n, omega=omega))


def test_band_entries_closed_form():
    n, omega = 6, 0.8
    theta = metric_band(n, omega).matrix
    mult = 1.0 - 1j * omega
    for k in range(1, n):
        expect = -1j * omega * mult ** (k - 1)
        assert abs(theta[0, k] - expect) < 1e-14 * max(1.0, abs(expect))
    assert np.all(np.diag(theta) == 1.0)


def test_band_u_reduces_to_band_bitwise():
    a = metric_band(9, 1.3).matrix
    b = metric_band_extended(9, 1.3, 0.0).matrix
    assert np.array_equal(a, b)


def test_band_recurrence_equals_closed_form_bitwise():
    for omega in (-2.0, -0.35, 0.0, 0.6, 2.0):
        a = metric_band(16, omega).matrix
        b = metric_band_recurrence(16, omega)
        assert np.array_equal(a, b)


def test_band_two_site_eigenvalues():
    # 2 x 2 with unit diagonal and |off| = |omega|: eigenvalues 1 -/+ |w|.
    for omega in (0.25, -0.8, 1.5):
        eigs = hermitian_eigenvalues(metric_band(2, omega))
        assert eigs == pytest.approx([1 - abs(omega), 1 + abs(omega)],
                                     abs=1e-13)


def test_dieudonne_residual_identity_metric():
    # Theta = I: residual equals ||H^dag - H||_F = 2 sqrt(2) |omega|.
    for n, omega in [(4, 0.7), (9, -1.2)]:
        res = dieudonne_residual(_h(n, omega), np.eye(n, dtype=complex))
        assert res == pytest.approx(2 * np.sqrt(2) * abs(omega), rel=1e-14)


def test_dieudonne_residual_band_exact_zero():
    for n in (2, 3, 17, 64):
        for omega in (-2.0, -0.5, 0.0, 1.0, 2.0):
            assert dieudonne_residual(_h(n, omega),
                                      metric_band(n, omega)) == 0.0
            assert dieudonne_residual(
                _h(n, omega), metric_band_extended(n, omega, 0.3)) == 0.0


def test_dieudonne_residual_input_validation():
    h = _h(4, 0.5)
    with pytest.raises(DimensionMismatch):
        dieudonne_residual(h, np.eye(3))
    with pytest.raises(TypeError):
        dieudonne_residual(h.dense(), np.eye(4))


def test_residual_invariant_under_convention():
    theta = metric_band(8, 1.1)
    p = ModelParams(n=8, omega=1.1)
    lat = build_hamiltonian(p)
    assert dieudonne_residual(lat, theta) == \
        dieudonne_residual(lat.shifted(), theta)


def test_n3_general_structure_at_zero_coupling():
    r, s, u = 1.25, 0.75, 0.3
    theta = metric_n3_general(0.0, r=r, s=s, u=u).matrix
    expect = np.array([
        [r, u, s - r + u],
        [u, s, u],
        [s - r + u, u, r],
    ], dtype=complex)
    assert np.allclose(theta, expect, atol=1e-15)


def test_n3_special_is_general_at_unit_weights():
    a = metric_n3_special(1.7, u=0.2).matrix
    b = metric_n3_general(1.7, r=1.0, s=1.0, u=0.2).matrix
    assert np.array_equal(a, b)


def test_small_closed_forms_satisfy_intertwining():
    for xi in (-3.0, -0.4, 0.0, 0.8, 5.0):
        h3 = build_hamiltonian(ModelParams(n=3, xi=xi, zeta=0.0))
        h4 = build_hamiltonian(ModelParams(n=4, xi=xi, zeta=0.0))
        assert dieudonne_residual(h3, metric_n3_special(xi, 0.1)) < 1e-14
        assert dieudonne_residual(
            h3, metric_n3_general(xi, r=1.2, s=0.8, u=-0.2)) < 1e-14
        assert dieudonne_residual(h4, metric_n4_special(xi)) < 1e-14


def test_metric_matrix_must_be_hermitian():
    bad = np.array([[1.0, 1.0 + 0.5j], [1.0 + 0.5j, 2.0]])
    with pytest.raises(ValueError):
        MetricMatrix(n=2, family="custom", params={}, matrix=bad)
    with pytest.raises(DimensionMismatch):
        MetricMatrix(n=3, family="custom", params={}, matrix=np.eye(2))


def test_min_eigenvalue_sign_matches_high_precision():
    # Points 1e-6 (relative) inside and outside each positivity edge of the
    # band families, where the entries are largest relative to the smallest
    # eigenvalue, plus the always-positive fixed-size families.  The member
    # at -omega is the complex conjugate of the one at omega, so one
    # 40-digit reference serves both edges.
    mpmath = pytest.importorskip("mpmath")
    cases = []
    for n in (8, 16, 32):
        for name, extra in (("band", {}), ("band_u", {"u": 0.3})):
            family = FAMILIES[name]
            edge = metric_positivity_sweep(name, n, -1.0, 1.0, 41,
                                           param_tol=1e-12,
                                           **extra).edge_positive
            for omega in (edge * (1 - 1e-6), edge * (1 + 1e-6)):
                cases.append((family.build(n, omega=omega, **extra),
                              family.build(n, omega=-omega, **extra)))
    for xi in (-50.0, -1.0, 0.5, 3.0, 50.0):
        cases += [(metric_n3_special(xi),), (metric_n4_special(xi),)]
    signs = []
    with mpmath.workdps(40):
        for thetas in cases:
            exact = mpmath.eighe(mpmath.matrix(thetas[0].matrix.tolist()),
                                 eigvals_only=True)
            want = min(exact) > 0
            for theta in thetas:
                assert (hermitian_eigenvalues(theta)[0] > 0.0) == want, theta
            signs.append(want)
    # each band family and size gives one point on either side of its edge
    assert signs.count(False) == 6


def test_hermitian_eigenvalues_trivial_inputs():
    assert np.array_equal(hermitian_eigenvalues(np.zeros((3, 3))),
                          np.zeros(3))
    d = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.array_equal(d, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_verify_metric_report():
    # the n = 5 band family stays positive out to |omega| ~ 0.347
    p = ModelParams(n=5, omega=0.2)
    report = verify_metric(p, metric_band(5, 0.2))
    assert report.n == 5
    assert report.family == "band"
    assert report.dieudonne_residual == 0.0
    assert report.positive_definite
    assert report.min_eigenvalue == pytest.approx(report.eigenvalues[0])
    # past the positivity edge the flag must flip
    report2 = verify_metric(ModelParams(n=5, omega=1.4),
                            metric_band(5, 1.4))
    assert not report2.positive_definite


def test_nullspace_dimension_and_membership():
    for n in (3, 4, 6):
        p = ModelParams(n=n, omega=0.37)
        basis = dieudonne_nullspace(p)
        assert len(basis) == n
        h = build_hamiltonian(p)
        gram = np.zeros((n, n))
        for i, a in enumerate(basis):
            # every element solves the relation and is exactly Hermitian
            assert dieudonne_residual(h, a) < 1e-12
            assert np.array_equal(a.matrix, a.matrix.conj().T)
            for j, b in enumerate(basis):
                gram[i, j] = np.sum(a.matrix.conj() * b.matrix).real
        assert np.allclose(gram, np.eye(n), atol=1e-12)
        # the closed-form band metric lies in the span
        theta = metric_band(n, 0.37).matrix
        proj = sum(np.sum(b.matrix.conj() * theta).real * b.matrix
                   for b in basis)
        assert np.linalg.norm(proj - theta) < 1e-10 * np.linalg.norm(theta)


def test_nullspace_accepts_dense_and_warns_on_degeneracy():
    with pytest.warns(DegenerateSpectrumWarning):
        basis = dieudonne_nullspace(np.zeros((2, 2)))
    assert len(basis) == 4
    with pytest.raises(DimensionMismatch):
        dieudonne_nullspace(np.zeros((2, 3)))


def test_nullspace_rank_tolerance_effect():
    # An absurdly loose cutoff collapses the numerical rank and inflates
    # the kernel; the call must still return orthonormal elements.
    p = ModelParams(n=3, omega=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrumWarning)
        loose = dieudonne_nullspace(p, tol_rank=1.0)
    assert len(loose) >= 3


@pytest.mark.parametrize("tol_rank", [0.0, -1.0, np.nan, np.inf])
def test_nullspace_rejects_bad_rank_tolerance(tol_rank):
    # At (n, xi, zeta) = (3, 0.5, 0.2) the dimension is 3; a cutoff of 0
    # used to report 2 and a negative or nan one 0, without an error.
    with pytest.raises(ValueError, match="tol_rank"):
        dieudonne_nullspace(ModelParams(n=3, xi=0.5, zeta=0.2),
                            tol_rank=tol_rank)
    assert len(dieudonne_nullspace(ModelParams(n=3, xi=0.5, zeta=0.2))) == 3


@pytest.mark.parametrize("n", [0, 1])
def test_family_bind_rejects_sizes_below_two(n):
    for family in FAMILIES.values():
        given = {family.swept: 0.3, **{name: 0.1 for name, default
                                       in family.params if default is None}}
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            family.bind(n, given)
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        metric_positivity_sweep("band", 1, -1.0, 1.0, 5)
