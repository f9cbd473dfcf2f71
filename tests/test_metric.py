import cmath
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hermitize.analysis import critical_zeta, metric_positivity_sweep
from hermitize.errors import DimensionMismatch
from hermitize.families import FAMILIES
from hermitize.metric import (MetricMatrix, _defect, _intertwiner_coordinates,
                              dieudonne_nullspace, dieudonne_residual,
                              hermitian_eigenvalues, metric_band,
                              metric_band_extended, metric_n3_general,
                              metric_n3_special, metric_n4_special,
                              verify_metric)
from hermitize.model import (ModelParams, TridiagonalHamiltonian,
                             build_hamiltonian, z_from_xizeta)

from _oracles import dieudonne_nullspace_elimination, metric_band_recurrence


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
    lat = build_hamiltonian(ModelParams(n=8, omega=1.1))
    shf = build_hamiltonian(ModelParams(n=8, omega=1.1, convention="shifted"))
    assert dieudonne_residual(lat, theta) == dieudonne_residual(shf, theta)


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


def _nullspace_census(n):
    """Couplings z at size n: generic |z| <= 3, z = 0, |z| = 1, real,
    complex and nearly real z of modulus 10, 100 and 1e3, and the EP that
    ``critical_zeta`` returns."""
    rng = np.random.default_rng(100 + n)
    zs = [0j, 1 + 0j, 1j, cmath.exp(0.7j)]
    zs += [3.0 * rng.random() * cmath.exp(2j * np.pi * rng.random())
           for _ in range(2)]
    for m in (10.0, 100.0, 1e3):
        zs += [complex(m), m * cmath.exp(2.2j), -m * cmath.exp(1e-12j)]
    ep = critical_zeta(n)
    zs.append(z_from_xizeta(ep.ep_xi, ep.value))
    return zs


@functools.cache
def _nullspace_at(n, z):
    return dieudonne_nullspace(TridiagonalHamiltonian(n, z, 2.0))


def _check_intertwiner_basis(h, basis):
    assert len(basis) == h.n
    for m in basis:
        assert np.array_equal(m.matrix, m.matrix.conj().T)
        assert dieudonne_residual(h, m) <= 1e-14
    flat = np.array([m.matrix.ravel() for m in basis])
    assert np.abs(flat.conj() @ flat.T - np.eye(h.n)).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 10, 12, 16])
def test_nullspace_has_n_orthonormal_intertwiners_on_the_census(n):
    # J H J = H^dag and a nonderogatory H make the dimension n everywhere.
    for z in _nullspace_census(n):
        h = TridiagonalHamiltonian(n, z, 2.0)
        _check_intertwiner_basis(h, _nullspace_at(n, z))


def _real_rows(mats):
    """Each matrix of a stack as one real row: real parts, then imaginary."""
    flat = np.asarray(mats).reshape(len(mats), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _span_gap(basis, other):
    """Sine of the largest principal angle between the real spans of two
    Frobenius-orthonormal bases of one size."""
    a, b = _real_rows(basis), _real_rows(other)
    return np.linalg.norm(b - (b @ a.T) @ a, 2)


def _relative_root_gap(h):
    roots = np.linalg.eigvals(h.dense())
    apart = np.abs(roots[:, None] - roots)[~np.eye(h.n, dtype=bool)]
    return apart.min() / np.abs(roots).max()


def _spans_the_elimination_basis(h, basis):
    """Whether the spectrum keeps its roots apart (relative gap >= 1e-6),
    after checking there that ``basis`` spans the space of the n^2-coordinate
    elimination.

    The kernel's condition grows like 1 / gap: against the space of an
    80-digit solve, this basis was 8e-13 and the elimination's 2.1e-12
    off at a gap of 1.4e-6 (n = 11, z = 4.09365994050252), so a bare
    1e-12 bound cannot hold there.  Below 1e-6 a bound pair is
    numerically double, and the two bases, each within round-off of the
    relation, can differ by 1e-1 or more.
    """
    gap = _relative_root_gap(h)
    if gap < 1e-6:
        return False
    new = [m.matrix for m in basis]
    assert _span_gap(dieudonne_nullspace_elimination(h), new) <= max(
        1e-12, 1e-16 / gap)
    return True


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 10, 12, 16])
def test_nullspace_spans_the_elimination_basis_on_the_census(n):
    compared = sum(
        _spans_the_elimination_basis(TridiagonalHamiltonian(n, z, 2.0),
                                     _nullspace_at(n, z))
        for z in _nullspace_census(n))
    assert compared >= 8


_REAL_Z = st.floats(-1e3, 1e3).map(complex)
_NEARLY_REAL_Z = st.builds(cmath.rect, st.floats(0.0, 1e3), st.one_of(
    st.floats(-1e-6, 1e-6), st.floats(np.pi - 1e-6, np.pi)))
_ANY_Z = st.builds(cmath.rect, st.floats(0.0, 1e3), st.floats(-np.pi, np.pi))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), z=st.one_of(_REAL_Z, _NEARLY_REAL_Z, _ANY_Z))
@example(n=11, z=4.09365994050252 + 0j)
@example(n=12, z=3.569615216637782 + 6.37422362022732e-11j)
def test_nullspace_spans_the_elimination_basis(n, z):
    h = TridiagonalHamiltonian(n, z, 2.0)
    _spans_the_elimination_basis(h, dieudonne_nullspace(h))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 10, 12, 16])
def test_intertwiners_are_toeplitz_plus_hankel_off_the_border(n):
    # Every intertwiner lies in the span of the coordinate matrices, which
    # are independent, and the kernel of their defect has dimension n: the
    # n elimination elements are independent in it, and where |z| <= 3 the
    # singular values say so too.  (At strong coupling the smallest nonzero
    # one falls below round-off; the pivots at fixed rank do not need it.)
    coords = _intertwiner_coordinates(n)
    count = len(coords)
    assert count == (n * n if n <= 4 else 8 * n - 16)
    assert np.array_equal(coords, coords.conj().swapaxes(1, 2))
    rows = _real_rows(coords)
    assert np.linalg.matrix_rank(rows) == count
    for z in _nullspace_census(n):
        h = TridiagonalHamiltonian(n, z, 2.0)
        basis = _real_rows(dieudonne_nullspace_elimination(h))
        coeffs = np.linalg.lstsq(rows.T, basis.T, rcond=None)[0]
        assert np.linalg.norm(rows.T @ coeffs - basis.T, axis=0).max() \
            <= 1e-13
        assert np.linalg.matrix_rank(coeffs) == n
        system = _real_rows(_defect(h, coords)).T
        assert np.abs(system @ coeffs).max() <= 1e-13 * np.abs(system).max()
        if abs(z) <= 3.0:
            sv = np.linalg.svd(system, compute_uv=False)
            assert sv[count - n] <= 1e-14 * sv[0]
            assert sv[count - n - 1] >= 1e-4 * sv[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, z", [(6, 100 + 0j), (8, 1e3 + 0j),
                                  (8, 30 + 1e-12j), (16, 10 + 0j)])
def test_nullspace_dimension_at_strong_couplings(n, z):
    # The rank cutoff 1e-10 returned n + 1 or n + 2 elements here, one of
    # them with a residual of 1.4e-8 at (6, 100), and warned of a
    # degenerate spectrum that is not degenerate.
    p = ModelParams(n=n, omega=z.imag, rho=z.real - 1.0)
    assert p.z == z
    _check_intertwiner_basis(build_hamiltonian(p), dieudonne_nullspace(p))


def test_nullspace_memory_is_not_the_whole_defect_stack():
    # The coordinate stack is (8 n - 16, n, n) complex, 13.5 MiB at
    # n = 48.  Its defects taken whole, three more arrays of that size,
    # peaked at 51.8 MiB; n coordinates at a time peak at 23.3 MiB.
    tracemalloc.start()
    try:
        dieudonne_nullspace(ModelParams(n=48, xi=0.3, zeta=0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 35 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_nullspace_rejects_a_dense_matrix():
    with pytest.raises(TypeError, match="ModelParams, got ndarray"):
        dieudonne_nullspace(np.zeros((2, 2)))


def test_nullspace_reports_an_underflowing_pivot():
    # The last pivots fall like |z|^-3; a subnormal one is not divided by.
    with pytest.raises(ValueError, match="underflows"):
        dieudonne_nullspace(ModelParams(n=6, omega=0.0, rho=1e150))


@pytest.mark.parametrize("n", [0, 1])
def test_family_bind_rejects_sizes_below_two(n):
    for family in FAMILIES.values():
        given = {family.swept: 0.3, **{name: 0.1 for name, default
                                       in family.params if default is None}}
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            family.bind(n, given)
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        metric_positivity_sweep("band", 1, -1.0, 1.0, 5)
