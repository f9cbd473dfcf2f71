"""Model parameters and the tridiagonal Hamiltonian of the finite well.

The chain has n sites, hopping -1, and a complex Robin-type coupling at the
two endpoints: the first diagonal entry is shifted by -z and the last by
-conj(z), where z = 1/(1 - zeta - i xi).  Two equivalent coupling styles
are supported: the Robin pair (xi, zeta) and the Cartesian form
z = 1 + rho + i omega; exactly one style must be given.

Validation and the coupling maps use plain floats, so a call that fails
before any solve never imports numpy; it is imported where an array is
made.
"""

import math
from dataclasses import dataclass
from numbers import Integral

from .errors import SingularParameters

_CONVENTIONS = ("lattice", "shifted")


def is_integer(value):
    """True for an int or a numpy integer; a bool is not a size or count."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_size(n):
    """Raise ValueError unless n is an integer >= 2, the shortest chain."""
    if not is_integer(n) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")


def _check_count(name, value):
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_tolerance(name, value):
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def z_from_xizeta(xi, zeta):
    """Endpoint coupling z = 1/(1 - zeta - i xi).

    Parameters
    ----------
    xi : float
        Imaginary part of the inverse coupling (non-Hermiticity strength).
    zeta : float
        Real detuning of the inverse coupling.

    Returns
    -------
    complex
        The coupling z.

    Raises
    ------
    SingularParameters
        If (xi, zeta) = (0, 1), where the map has its pole.
    """
    # Products and two real divisions, as analysis._zs_from_grid does
    # elementwise, so a grid point and a single point get the same bits.
    denom = (1.0 - zeta) * (1.0 - zeta) + xi * xi
    if denom == 0.0:
        raise SingularParameters(
            "coupling undefined at (xi, zeta) = (0, 1); split any scan so "
            "this point is excluded"
        )
    return complex((1.0 - zeta) / denom, xi / denom)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the n-site well with complex endpoint coupling.

    Exactly one coupling style must be supplied: either both ``xi`` and
    ``zeta``, or ``omega`` (with ``rho`` optional, defaulting to 0).  Every
    coupling parameter given must be finite.

    Parameters
    ----------
    n : int
        Number of sites, n >= 2.
    xi, zeta : float, optional
        Robin-style coupling, z = 1/(1 - zeta - i xi).
    omega, rho : float, optional
        Cartesian-style coupling, z = 1 + rho + i omega.
    convention : {"lattice", "shifted"}
        "lattice" keeps the bulk diagonal at 2 (energies E = 2 - 2y);
        "shifted" subtracts 2 everywhere (energies E = -2y).  The two
        differ by the constant 2 * identity only.
    """

    n: int
    xi: float | None = None
    zeta: float | None = None
    omega: float | None = None
    rho: float | None = None
    convention: str = "lattice"

    def __post_init__(self):
        check_size(self.n)
        if self.convention not in _CONVENTIONS:
            raise ValueError(f"convention must be one of {_CONVENTIONS}")
        robin = self.xi is not None or self.zeta is not None
        cart = self.omega is not None or self.rho is not None
        if robin and cart:
            raise ValueError(
                "give either (xi, zeta) or (omega, rho), not a mixture"
            )
        for name in ("xi", "zeta", "omega", "rho"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if robin:
            if self.xi is None or self.zeta is None:
                raise ValueError("the Robin style needs both xi and zeta")
            z_from_xizeta(self.xi, self.zeta)  # singularity check
        elif cart:
            if self.omega is None:
                raise ValueError("the Cartesian style needs omega")
            if self.rho is None:
                object.__setattr__(self, "rho", 0.0)
        else:
            raise ValueError("no coupling given: supply (xi, zeta) or omega")

    @property
    def coupling_style(self):
        """Which style the instance was built with: "xizeta" or "omega"."""
        return "xizeta" if self.xi is not None else "omega"

    @property
    def z(self):
        """The endpoint coupling as a complex number."""
        if self.xi is not None:
            return z_from_xizeta(self.xi, self.zeta)
        return complex(1.0 + self.rho, self.omega)


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Tridiagonal matrix of the well, stored by its defining data.

    The matrix is Toeplitz-plus-corners: every off-diagonal entry is -1,
    the bulk diagonal is constant, and the two corner diagonal entries
    carry the complex coupling (bulk - z and bulk - conj(z)).  Storing
    (n, z, bulk) instead of the dense array keeps downstream algebra exact.

    Attributes
    ----------
    n : int
        Matrix dimension.
    z : complex
        Endpoint coupling.
    bulk_diagonal : float
        The constant bulk diagonal entry (2 or 0).
    convention : str
        "lattice" (bulk 2) or "shifted" (bulk 0).
    """

    n: int
    z: complex
    bulk_diagonal: float
    convention: str

    @property
    def corner_first(self):
        """Diagonal entry at site 1."""
        return self.bulk_diagonal - self.z

    @property
    def corner_last(self):
        """Diagonal entry at site n."""
        return self.bulk_diagonal - self.z.conjugate()

    def diagonal(self):
        """Full main diagonal as a complex array."""
        import numpy as np

        d = np.full(self.n, self.bulk_diagonal, dtype=complex)
        d[0] = self.corner_first
        d[-1] = self.corner_last
        return d

    def dense(self):
        """Materialize the dense complex matrix."""
        import numpy as np

        h = np.diag(self.diagonal())
        idx = np.arange(self.n - 1)
        h[idx, idx + 1] = -1.0
        h[idx + 1, idx] = -1.0
        return h

    def shifted(self):
        """The same operator with the bulk constant removed (bulk 0)."""
        return TridiagonalHamiltonian(self.n, self.z, 0.0, "shifted")


def build_hamiltonian(params):
    """Construct the Hamiltonian for the given parameters.

    Parameters
    ----------
    params : ModelParams

    Returns
    -------
    TridiagonalHamiltonian
    """
    if not isinstance(params, ModelParams):
        raise TypeError(
            f"params must be a ModelParams, got {type(params).__name__}")
    bulk = 2.0 if params.convention == "lattice" else 0.0
    return TridiagonalHamiltonian(params.n, params.z, bulk, params.convention)


def energy_from_y(y, convention="lattice"):
    """Map the Chebyshev variable y to energy: E = 2 - 2y or E = -2y."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}")
    import numpy as np

    y = np.asarray(y)
    return 2.0 - 2.0 * y if convention == "lattice" else -2.0 * y
