import numpy as np
import pytest

from hermitize.chebyshev import eval_combo

from _oracles import combo_monomial, polyval_low, u_monomial


def _u(k):
    """Coefficients of U_k alone, so ``eval_combo`` evaluates U_k."""
    c = np.zeros(k + 1)
    c[k] = 1.0
    return c


def test_eval_u_matches_monomial_expansion():
    y = np.linspace(-2.5, 2.5, 41)
    for k in range(0, 15):
        expect = polyval_low(u_monomial(k), y)
        got, _ = eval_combo(_u(k), y)
        assert np.max(np.abs(got - expect)) < 1e-10 * np.max(np.abs(expect))


def test_trig_identities_inside_interval():
    theta = np.linspace(0.05, np.pi - 0.05, 37)
    y = np.cos(theta)
    for k in (0, 1, 2, 5, 11, 30):
        got, _ = eval_combo(_u(k), y)
        assert np.allclose(got, np.sin((k + 1) * theta) / np.sin(theta),
                           atol=1e-10)


def test_u_recurrence_consistency_high_degree():
    # U_{k+1} - 2 y U_k + U_{k-1} must vanish relative to the term scale.
    y = np.linspace(-1.0, 1.0, 201)
    for k in (1, 16, 64, 255):
        lower, mid, upper = (eval_combo(_u(j), y)[0]
                             for j in (k - 1, k, k + 1))
        lhs = upper - 2 * y * mid + lower
        scale = np.maximum(1.0, np.abs(upper))
        assert np.max(np.abs(lhs) / scale) < 1e-12


def test_eval_u_boundary_degrees():
    # The empty combination is the recurrence's boundary value U_{-1} = 0.
    y = np.array([0.3, -1.7])
    assert np.all(eval_combo([], y)[0] == 0)
    assert np.all(eval_combo([1.0], y)[0] == 1)


def test_eval_combo_matches_direct_sum():
    rng = np.random.RandomState(11)
    coeffs = rng.randn(9)
    y = rng.randn(25) + 1j * rng.randn(25)
    direct = polyval_low(combo_monomial(coeffs), y)
    value, _ = eval_combo(coeffs, y)
    assert np.max(np.abs(value - direct)) < 1e-12 * np.max(np.abs(direct) + 1)


def test_eval_combo_derivative_matches_monomial_derivative():
    rng = np.random.RandomState(3)
    coeffs = rng.randn(7)
    mono = combo_monomial(coeffs)
    dmono = [k * c for k, c in enumerate(mono)][1:]
    y = np.linspace(-2.0, 2.0, 31)
    _, deriv = eval_combo(coeffs, y)
    expect = polyval_low(dmono, y)
    assert np.max(np.abs(deriv - expect)) < 1e-10 * np.max(np.abs(expect) + 1)


def test_eval_combo_scalar_round_trip():
    value, deriv = eval_combo([1.0, 0.0, 1.0], 0.5)
    assert isinstance(value, float) or isinstance(value, complex)
    # U_0 + U_2 at 0.5: 1 + (4*0.25 - 1) = 1
    assert value == pytest.approx(1.0, abs=1e-14)
    assert deriv == pytest.approx(4.0, abs=1e-14)
