import numpy as np
import pytest

from hermitize.errors import SingularParameters
from hermitize.model import (ModelParams, TridiagonalHamiltonian,
                             build_hamiltonian, energy_from_y, z_from_xizeta)


def test_z_map_hand_values():
    # 1/(1 - i) = (1 + i)/2
    assert z_from_xizeta(1.0, 0.0) == pytest.approx(0.5 + 0.5j)
    # zeta alone: 1/(1 - zeta)
    assert z_from_xizeta(0.0, 0.5) == pytest.approx(2.0)
    # hermitian point
    assert z_from_xizeta(0.0, 0.0) == 1.0


def test_z_map_pole_raises():
    with pytest.raises(SingularParameters):
        z_from_xizeta(0.0, 1.0)


def test_params_two_styles_agree():
    p1 = ModelParams(n=5, xi=0.4, zeta=0.1)
    p2 = ModelParams(n=5, omega=p1.z.imag, rho=p1.z.real - 1.0)
    assert p1.z == pytest.approx(p2.z, abs=1e-15)
    assert p1.coupling_style == "xizeta"
    assert p2.coupling_style == "omega"


def test_params_rho_defaults_to_zero():
    p = ModelParams(n=3, omega=0.7)
    assert p.rho == 0.0
    assert p.z == 1.0 + 0.7j


def test_params_validation_errors():
    with pytest.raises(ValueError):
        ModelParams(n=1, omega=0.1)
    with pytest.raises(ValueError):
        ModelParams(n=4, xi=0.1, omega=0.1)
    with pytest.raises(ValueError):
        ModelParams(n=4, xi=0.1)
    with pytest.raises(ValueError):
        ModelParams(n=4, rho=0.1)
    with pytest.raises(ValueError):
        ModelParams(n=4)
    with pytest.raises(ValueError):
        ModelParams(n=4, omega=0.1, convention="energy")
    with pytest.raises(SingularParameters):
        ModelParams(n=4, xi=0.0, zeta=1.0)


@pytest.mark.parametrize("coupling", [
    {"xi": np.nan, "zeta": 0.2}, {"xi": 0.3, "zeta": np.inf},
    {"omega": np.nan}, {"omega": 0.5, "rho": -np.inf}])
def test_params_reject_non_finite_couplings(coupling):
    with pytest.raises(ValueError, match="must be finite"):
        ModelParams(n=4, **coupling)


def test_dense_matrix_structure():
    p = ModelParams(n=4, omega=0.5, rho=0.25)
    h = build_hamiltonian(p)
    m = h.dense()
    z = 1.25 + 0.5j
    assert m[0, 0] == 2.0 - z
    assert m[3, 3] == 2.0 - np.conj(z)
    assert m[1, 1] == m[2, 2] == 2.0
    off = np.array([m[0, 1], m[1, 0], m[1, 2], m[2, 1], m[2, 3], m[3, 2]])
    assert np.all(off == -1.0)
    assert m[0, 2] == 0.0 and m[0, 3] == 0.0


def test_conventions_differ_by_constant_shift():
    p_lat = ModelParams(n=5, xi=0.3, zeta=0.2, convention="lattice")
    p_shf = ModelParams(n=5, xi=0.3, zeta=0.2, convention="shifted")
    m_lat = build_hamiltonian(p_lat).dense()
    m_shf = build_hamiltonian(p_shf).dense()
    assert np.allclose(m_lat - m_shf, 2.0 * np.eye(5), atol=0)


def test_shifted_helper_matches_convention():
    h = build_hamiltonian(ModelParams(n=4, omega=0.2))
    hs = h.shifted()
    assert hs.bulk_diagonal == 0.0
    assert hs.convention == "shifted"
    assert np.allclose(h.dense() - hs.dense(), 2.0 * np.eye(4), atol=0)


def test_dirichlet_wall_is_zero_coupling():
    # omega = 0, rho = -1 gives z = 0: a plain hard-wall chain.
    p = ModelParams(n=6, omega=0.0, rho=-1.0)
    h = build_hamiltonian(p)
    m = h.dense()
    assert np.all(np.diag(m) == 2.0)
    assert np.array_equal(m, m.conj().T)


def test_energy_from_y_conventions():
    y = np.array([0.0, 1.0, -1.0])
    assert np.array_equal(energy_from_y(y, "lattice"), [2.0, 0.0, 4.0])
    assert np.array_equal(energy_from_y(y, "shifted"), [0.0, -2.0, 2.0])
    with pytest.raises(ValueError):
        energy_from_y(y, "other")


def test_hamiltonian_diagonal_and_corners():
    h = TridiagonalHamiltonian(3, 0.5 + 0.25j, 2.0, "lattice")
    assert h.corner_first == 1.5 - 0.25j
    assert h.corner_last == 1.5 + 0.25j
    d = h.diagonal()
    assert d[1] == 2.0
    assert d[0] == h.corner_first and d[2] == h.corner_last
