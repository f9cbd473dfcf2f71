"""Metric operators for the endpoint-coupled well.

A metric Theta is a positive-definite Hermitian solution of the
intertwining (Dieudonne) relation H^dag Theta = Theta H.  For this model
whole families are known in closed form; the constructors here build them
so that the relation cancels exactly in floating point, entry by entry,
not merely to rounding in a matrix product.  Two ingredients make that
work and must not be "simplified" away:

* complex multiplications go through ``_cmul``, which fixes the operation
  schedule of real products, so algebraically equal paths give bitwise
  equal results;
* band entries are built cumulatively from the previous band value, so
  both sides of the relation multiply the same stored floats.

``dieudonne_residual`` exploits the tridiagonal structure the same way:
the bulk of H^dag Theta - Theta H is a difference of shifted copies of
Theta, and only the corner rows and columns involve arithmetic.  A naive
matmul residual on the growing families is wrong by many orders of
magnitude once the band entries get large.
"""

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrumWarning, DimensionMismatch
from .model import TridiagonalHamiltonian, build_hamiltonian, check_size


def _cmul(a, b):
    """Complex multiply with a fixed real-arithmetic schedule.

    Evaluates (ar br - ai bi) + i (ar bi + ai br) through separate real
    operations.  numpy's complex product is free to use other schedules
    (and does, depending on SIMD width), which breaks the bitwise
    cancellations the metric constructions rely on.
    """
    ar, ai = np.real(a), np.imag(a)
    br, bi = np.real(b), np.imag(b)
    return (ar * br - ai * bi) + 1j * (ar * bi + ai * br)


@dataclass(frozen=True)
class MetricMatrix:
    """A Hermitian candidate metric with its provenance.

    Attributes
    ----------
    n : int
        Dimension.
    family : str
        Constructor family name (a key of ``FAMILIES``, "nullspace" or
        "custom").
    params : dict
        Family parameters used to build the matrix.
    matrix : numpy.ndarray
        The entries; validated to be exactly Hermitian (entrywise equal to
        its conjugate transpose, no tolerance).
    """

    n: int
    family: str
    params: dict
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape != (self.n, self.n):
            raise DimensionMismatch(f"expected ({self.n}, {self.n}) matrix")
        if not np.array_equal(m, m.conj().T):
            raise ValueError("matrix is not exactly Hermitian")
        object.__setattr__(self, "matrix", m)


def _fill_band(n, band):
    """Hermitian matrix with constant k-th diagonals taken from band[k]."""
    theta = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    theta[idx, idx] = band[0]
    for k in range(1, n):
        sub = np.arange(n - k)
        theta[sub, sub + k] = band[k]
        theta[sub + k, sub] = np.conj(band[k])
    return theta


def metric_band(n, omega):
    """Banded Toeplitz metric: unit diagonal, (-i w)(1 - i w)^(k-1) band.

    Valid for the coupling z = 1 + i omega (rho = 0) at any n.

    Parameters
    ----------
    n : int
        Dimension, n >= 1.
    omega : float
        Imaginary part of the coupling.

    Returns
    -------
    MetricMatrix
    """
    band = _band_values(n, omega, seed=complex(0.0, -omega))
    return MetricMatrix(n=n, family="band", params={"omega": omega},
                        matrix=_fill_band(n, band))


def metric_band_extended(n, omega, u):
    """One-parameter extension of ``metric_band``.

    The k-th band value is (u - i w)(1 - i w)^(k-1); u = 0 reproduces
    ``metric_band`` bitwise.  The seed u - i w must enter the cumulative
    products as one complex number: building the u-part and the omega-part
    separately and adding them re-rounds the large band entries and ruins
    the exact cancellation in the intertwining relation.

    Parameters
    ----------
    n : int
    omega : float
    u : float
        Extension strength.

    Returns
    -------
    MetricMatrix
    """
    band = _band_values(n, omega, seed=complex(u, -omega))
    return MetricMatrix(n=n, family="band_u",
                        params={"omega": omega, "u": u},
                        matrix=_fill_band(n, band))


def _band_values(n, omega, seed):
    """Band entries 1, seed, seed*(1-iw), seed*(1-iw)^2, ... cumulatively."""
    mult = complex(1.0, -omega)
    band = np.empty(n, dtype=complex)
    band[0] = 1.0
    if n > 1:
        band[1] = seed
        for k in range(2, n):
            band[k] = _cmul(band[k - 1], mult)
    return band


def metric_n3_general(xi, r=1.0, s=1.0, u=0.0):
    """Three-parameter metric family of the three-site well.

    Valid for the Robin coupling (xi, zeta = 0).  The defaults r = s = 1,
    u = 0 give the simplest member; r and s weight the corner and center
    diagonal, u shifts the first off-diagonal.

    Parameters
    ----------
    xi : float
        Coupling strength.
    r, s, u : float
        Family parameters.

    Returns
    -------
    MetricMatrix
    """
    q = 1.0 + xi * xi
    u2 = -r * xi / q
    z1 = (s - r + u + 2 * s * xi ** 2 - 3 * r * xi ** 2
          - r * xi ** 4 + s * xi ** 4 + u * xi ** 2) / q ** 2
    z2 = -(u * xi ** 2 + r + u) * xi / q ** 2
    theta = np.array([
        [r, u + 1j * u2, z1 + 1j * z2],
        [u - 1j * u2, s, u + 1j * u2],
        [z1 - 1j * z2, u - 1j * u2, r],
    ])
    return MetricMatrix(n=3, family="n3_general",
                        params={"xi": xi, "r": r, "s": s, "u": u},
                        matrix=theta)


def metric_n3_special(xi, u=0.0):
    """``metric_n3_general`` at r = s = 1."""
    m = metric_n3_general(xi, r=1.0, s=1.0, u=u)
    return MetricMatrix(n=3, family="n3_special", params={"xi": xi, "u": u},
                        matrix=m.matrix)


def metric_n4_special(xi):
    """Closed-form banded metric of the four-site well at (xi, zeta = 0).

    Parameters
    ----------
    xi : float

    Returns
    -------
    MetricMatrix
    """
    q = 1.0 + xi * xi
    band = np.array([
        1.0,
        -1j * xi / q,
        (-xi ** 2 - 1j * xi) / q ** 2,
        (-2 * xi ** 2 - 1j * (1 - xi ** 2) * xi) / q ** 3,
    ])
    return MetricMatrix(n=4, family="n4_special", params={"xi": xi},
                        matrix=_fill_band(4, band))


@dataclass(frozen=True)
class MetricFamily:
    """A closed-form metric family and the coupling it intertwines.

    Attributes
    ----------
    name : str
    builder : callable
        The public constructor, called by ``build``.
    params : tuple of (str, float or None)
        Parameter names in call order with their defaults; None marks a
        required parameter.
    size : int or None
        The fixed dimension, or None when every n >= 2 works.
    swept : str
        The parameter that is also the coupling, "omega" or "xi".
        Positivity sweeps run along it, and the ``metric`` CSV prints it as
        the axis column.
    held : str
        The other coupling parameter, held at 0: "rho" or "zeta".
    """

    name: str
    builder: Callable
    params: tuple
    size: int | None
    swept: str
    held: str

    def bind(self, n, given, flag=""):
        """Check a size and parameters; return the parameters in call order.

        Defaults fill in what ``given`` leaves out.  Raises ValueError for
        a size below 2 or other than the fixed one, a missing required
        parameter, a parameter the family does not take, or one that is
        not finite.  Parameter names in the message are prefixed with
        ``flag``.
        """
        check_size(n)
        for name, default in self.params:
            if default is None and name not in given:
                raise ValueError(f"family {self.name!r} needs {flag}{name}")
        defaults = dict(self.params)
        for name in given:
            if name not in defaults:
                raise ValueError(
                    f"family {self.name!r} takes no {flag}{name}")
            if not np.isfinite(given[name]):
                raise ValueError(
                    f"{flag}{name} must be finite, got {given[name]}")
        if self.size is not None and n != self.size:
            raise ValueError(
                f"family {self.name!r} has fixed size {self.size}")
        return {name: given.get(name, default) for name, default in self.params}

    def build(self, n, **params):
        """The n x n member with the given parameters, as a MetricMatrix."""
        if self.size is None:
            return self.builder(n, **params)
        return self.builder(**params)


FAMILIES = {family.name: family for family in (
    MetricFamily("band", metric_band, (("omega", None),),
                 None, "omega", "rho"),
    MetricFamily("band_u", metric_band_extended,
                 (("omega", None), ("u", None)), None, "omega", "rho"),
    MetricFamily("n3_general", metric_n3_general,
                 (("xi", None), ("r", 1.0), ("s", 1.0), ("u", 0.0)),
                 3, "xi", "zeta"),
    MetricFamily("n3_special", metric_n3_special,
                 (("xi", None), ("u", 0.0)), 3, "xi", "zeta"),
    MetricFamily("n4_special", metric_n4_special, (("xi", None),),
                 4, "xi", "zeta"),
)}


def _as_matrix(theta):
    return theta.matrix if isinstance(theta, MetricMatrix) else np.asarray(theta)


def dieudonne_residual(h, theta):
    """Frobenius norm of H^dag Theta - Theta H, computed structurally.

    Because the relation is invariant under real diagonal shifts of H, the
    shifted form (bulk diagonal 0) is used: the hopping part contributes
    shifted copies of Theta and only the corner entries -z, -conj(z)
    multiply anything.  Each entry of the closed-form band families then
    cancels exactly, so the residual is a true zero rather than the
    rounding of a large matrix product.

    Parameters
    ----------
    h : TridiagonalHamiltonian
    theta : MetricMatrix or numpy.ndarray

    Returns
    -------
    float
    """
    if not isinstance(h, TridiagonalHamiltonian):
        raise TypeError("h must be a TridiagonalHamiltonian")
    t = _as_matrix(theta)
    if t.shape != (h.n, h.n):
        raise DimensionMismatch(
            f"metric shape {t.shape} does not match n = {h.n}")
    d_first = -h.z
    d_last = -np.conj(h.z)

    # H^dag Theta: corners conjugated; hopping shifts rows of Theta.
    left = np.zeros_like(t)
    left[1:, :] -= t[:-1, :]
    left[:-1, :] -= t[1:, :]
    left[0, :] += _cmul(np.conj(d_first), t[0, :])
    left[-1, :] += _cmul(np.conj(d_last), t[-1, :])

    # Theta H: hopping shifts columns of Theta.
    right = np.zeros_like(t)
    right[:, 1:] -= t[:, :-1]
    right[:, :-1] -= t[:, 1:]
    right[:, 0] += _cmul(d_first, t[:, 0])
    right[:, -1] += _cmul(d_last, t[:, -1])

    return float(np.sqrt(np.sum(np.abs(left - right) ** 2)))


def hermitian_eigenvalues(theta):
    """Eigenvalues of a Hermitian matrix, ascending, by LAPACK ``eigvalsh``.

    Only the lower triangle is read.  Every positivity decision in the
    package is the sign of the first eigenvalue; the tests check that sign
    against 40-digit eigenvalues on both sides of the band families'
    positivity edges, where the entries grow like |1 - i w|^n.

    Parameters
    ----------
    theta : MetricMatrix or numpy.ndarray

    Returns
    -------
    numpy.ndarray
        Real eigenvalues, ascending.
    """
    a = _as_matrix(theta)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    return np.linalg.eigvalsh(a)


@dataclass
class VerificationReport:
    """Outcome of checking a candidate metric against a Hamiltonian.

    Attributes
    ----------
    n : int
    family : str
    params : dict
    dieudonne_residual : float
        Frobenius norm of H^dag Theta - Theta H.
    eigenvalues : numpy.ndarray
        Metric eigenvalues, ascending.
    min_eigenvalue : float
    positive_definite : bool
        True when the smallest eigenvalue is strictly positive.
    """

    n: int
    family: str
    params: dict
    dieudonne_residual: float
    eigenvalues: np.ndarray
    min_eigenvalue: float
    positive_definite: bool


def verify_metric(params, theta):
    """Check a candidate metric against the Hamiltonian of ``params``.

    Parameters
    ----------
    params : ModelParams or TridiagonalHamiltonian
    theta : MetricMatrix or numpy.ndarray

    Returns
    -------
    VerificationReport
    """
    h = params if isinstance(params, TridiagonalHamiltonian) \
        else build_hamiltonian(params)
    res = dieudonne_residual(h, theta)
    eigs = hermitian_eigenvalues(theta)
    family = theta.family if isinstance(theta, MetricMatrix) else "custom"
    fparams = dict(theta.params) if isinstance(theta, MetricMatrix) else {}
    return VerificationReport(
        n=h.n, family=family, params=fparams, dieudonne_residual=res,
        eigenvalues=eigs, min_eigenvalue=float(eigs[0]),
        positive_definite=bool(eigs[0] > 0.0))


def _hermitian_basis(n):
    """Real basis of the n x n Hermitian matrices, n^2 elements."""
    mats = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = 1.0
            mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1j
            m[j, i] = -1j
            mats.append(m)
    return mats


def _real_nullspace(a, tol_rank):
    """Nullspace basis of a real matrix by complete-pivot elimination.

    Rank is decided against ``tol_rank`` times the largest pivot; the free
    columns are completed to basis vectors by back substitution.

    Returns an array of shape (ncols, dim), columns spanning the kernel.
    """
    a = a.astype(float).copy()
    rows, cols = a.shape
    col_perm = np.arange(cols)
    rank = 0
    first_pivot = None
    limit = min(rows, cols)
    while rank < limit:
        sub = np.abs(a[rank:, rank:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        pivot = sub[i, j]
        if first_pivot is None:
            first_pivot = pivot
        if first_pivot == 0.0 or pivot <= tol_rank * first_pivot:
            break
        i += rank
        j += rank
        a[[rank, i], :] = a[[i, rank], :]
        a[:, [rank, j]] = a[:, [j, rank]]
        col_perm[[rank, j]] = col_perm[[j, rank]]
        factors = a[rank + 1:, rank] / a[rank, rank]
        a[rank + 1:, :] -= factors[:, None] * a[rank, :]
        a[rank + 1:, rank] = 0.0
        rank += 1

    nfree = cols - rank
    if nfree == 0:
        return np.zeros((cols, 0))
    # Permuted solution: x_free = identity, back-substitute the pivot part
    # against U x_piv = -B x_free.
    sol = np.zeros((cols, nfree))
    sol[rank:, :] = np.eye(nfree)
    for r in range(rank - 1, -1, -1):
        rhs = -a[r, rank:] @ sol[rank:, :] - a[r, r + 1:rank] @ sol[r + 1:rank, :]
        sol[r, :] = rhs / a[r, r]
    out = np.zeros_like(sol)
    out[col_perm, :] = sol
    return out


def dieudonne_nullspace(params, tol_rank=1e-10):
    """All Hermitian solutions of the intertwining relation, numerically.

    Writes Theta in the real Hermitian basis, assembles the linear system
    vec(H^dag Theta - Theta H) = 0 over the reals and extracts its kernel
    with complete-pivot elimination.  For a non-degenerate spectrum the
    solution space has dimension n; a larger kernel triggers a
    ``DegenerateSpectrumWarning``.

    Parameters
    ----------
    params : ModelParams, TridiagonalHamiltonian or numpy.ndarray
        The operator, or parameters to build it from.  A dense square
        matrix is accepted so arbitrary operators can be analyzed.
    tol_rank : float
        Relative pivot cutoff for the rank decision; must be finite and
        > 0.

    Returns
    -------
    list of MetricMatrix
        Frobenius-orthonormal basis of the solution space (family
        "nullspace"; not necessarily positive definite individually).
    """
    if not (np.isfinite(tol_rank) and tol_rank > 0.0):
        raise ValueError(f"tol_rank must be finite and > 0, got {tol_rank}")
    if isinstance(params, TridiagonalHamiltonian):
        hd = params.dense()
    elif isinstance(params, (np.ndarray, list)):
        hd = np.asarray(params, dtype=complex)
        if hd.ndim != 2 or hd.shape[0] != hd.shape[1]:
            raise DimensionMismatch("operator must be a square matrix")
    else:
        hd = build_hamiltonian(params).dense()
    n = hd.shape[0]
    hdag = hd.conj().T
    basis = _hermitian_basis(n)
    cols = []
    for b in basis:
        c = hdag @ b - b @ hd
        cols.append(np.concatenate([c.real.ravel(), c.imag.ravel()]))
    system = np.column_stack(cols)
    kernel = _real_nullspace(system, tol_rank)
    dim = kernel.shape[1]
    if dim > n:
        warnings.warn(
            f"nullspace dimension {dim} exceeds n = {n}: the spectrum is "
            "degenerate at this parameter point",
            DegenerateSpectrumWarning, stacklevel=2)

    # Combine with real coefficients (keeps exact Hermiticity), then
    # orthonormalize in the Frobenius inner product with two MGS passes.
    raw = []
    for k in range(dim):
        m = np.zeros((n, n), dtype=complex)
        for coeff, b in zip(kernel[:, k], basis):
            if coeff != 0.0:
                m = m + coeff * b
        raw.append(m)
    ortho = []
    for m in raw:
        for _ in range(2):
            for o in ortho:
                m = m - np.sum(o.conj() * m).real * o
        norm = np.linalg.norm(m)
        if norm > 0.0:
            ortho.append(m / norm)
    return [MetricMatrix(n=n, family="nullspace", params={"index": i},
                         matrix=m) for i, m in enumerate(ortho)]
