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

``_defect``, the one form of H^dag Theta - Theta H that both the residual
and the nullspace use, exploits the tridiagonal structure the same way:
the bulk is a difference of shifted copies of Theta, and only the corner
rows and columns involve arithmetic.  A naive matmul residual on the
growing families is wrong by many orders of magnitude.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .model import TridiagonalHamiltonian, build_hamiltonian


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
        Constructor family name (a key of ``families.FAMILIES``,
        "nullspace" or "custom").
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
    i, j = np.indices((n, n))
    return np.where(j >= i, band[j - i], np.conj(band[i - j]))


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
    """Band entries 1, seed, seed*(1-iw), seed*(1-iw)^2, ... cumulatively.

    Entries past the float range raise ValueError: they would make the
    matrix non-finite, not a metric."""
    mult = complex(1.0, -omega)
    band = np.empty(n, dtype=complex)
    band[0] = 1.0
    if n > 1:
        band[1] = seed
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(2, n):
                band[k] = _cmul(band[k - 1], mult)
    if not np.isfinite(band).all():
        raise ValueError(f"the band entries overflow the float range at "
                         f"n = {n}, omega = {float(omega)!r}")
    return band


def _robin_ratios(xi):
    """1/q, xi/q, xi^2/q and (1 - xi^2)/q with q = 1 + xi^2, each to
    full relative accuracy and without overflow.

    The fixed-size families are rational in xi with these bounded
    building blocks, so their entries stay finite for every finite xi and
    tend to their limits as |xi| grows.
    """
    if abs(xi) <= 1.0:
        q = 1.0 + xi * xi
        return 1.0 / q, xi / q, xi * xi / q, (1.0 - xi) * (1.0 + xi) / q
    w = 1.0 / xi
    q = 1.0 + w * w
    return w * w / q, w / q, 1.0 / q, (w - 1.0) * (w + 1.0) / q


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
    c, v, _, _ = _robin_ratios(xi)
    u2 = -r * v
    z1 = r * c * c + (u - r) * c + (s - r)
    z2 = -v * (u + r * c)
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
    c, v, p, d = _robin_ratios(xi)
    band = np.array([
        1.0,
        -1j * v,
        -p * c - 1j * v * c,
        -2.0 * p * c * c - 1j * v * d * c,
    ])
    return MetricMatrix(n=4, family="n4_special", params={"xi": xi},
                        matrix=_fill_band(4, band))


def _as_matrix(theta):
    return theta.matrix if isinstance(theta, MetricMatrix) else np.asarray(theta)


def _defect(h, t):
    """H^dag Theta - Theta H of a matrix or a stack of them, with H shifted
    to bulk diagonal 0: only the corners -z, -conj(z) multiply anything."""
    d_first = -h.z
    d_last = -np.conj(h.z)
    # H^dag Theta: corners conjugated; hopping shifts rows of Theta.
    left = np.zeros_like(t)
    left[..., 1:, :] -= t[..., :-1, :]
    left[..., :-1, :] -= t[..., 1:, :]
    left[..., 0, :] += _cmul(np.conj(d_first), t[..., 0, :])
    left[..., -1, :] += _cmul(np.conj(d_last), t[..., -1, :])

    # Theta H: hopping shifts columns of Theta.
    right = np.zeros_like(t)
    right[..., :, 1:] -= t[..., :, :-1]
    right[..., :, :-1] -= t[..., :, 1:]
    right[..., :, 0] += _cmul(d_first, t[..., :, 0])
    right[..., :, -1] += _cmul(d_last, t[..., :, -1])
    return left - right


def dieudonne_residual(h, theta):
    """Frobenius norm of H^dag Theta - Theta H (``_defect``).

    Each entry cancels exactly on the closed-form band families, so the
    residual there is a true zero, not the rounding of a matrix product.

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
    return float(np.sqrt(np.sum(np.abs(_defect(h, t)) ** 2)))


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


def _intertwiner_coordinates(n):
    """A (coordinates, n, n) stack of 0, +-1 and +-1j matrices spanning the
    Hermitian ones that are Toeplitz plus Hankel on rows and columns
    1 ... n-2, as every intertwiner is: there the defect at (i, j) is
    f(i, j) - f(i+1, j+1), f(i, j) = Theta[i, j-1] - Theta[i-1, j].  Each
    border entry is its own coordinate (one of size 1 / |z| is then not a
    difference of O(1) ones); the first two inner anti-diagonals repeat
    the diagonals: 8 n - 16 coordinates, n^2 for n <= 4."""
    i, j = np.indices((n, n))
    inner = (np.minimum(i, j) > 0) & (np.maximum(i, j) < n - 1)
    a, b = (k[:, None, None] for k in np.nonzero(~inner & (i <= j)))
    sym = np.concatenate([
        ((i == a) & (j == b)) | ((i == b) & (j == a)),
        inner & (np.abs(i - j) == np.arange(n - 2)[:, None, None])])
    skew = 1j * (np.sign(j - i) * sym)
    anti = inner & (i + j == np.arange(4, 2 * n - 3)[:, None, None])
    return np.concatenate([sym, anti, skew[skew.any(axis=(1, 2))]])


_TINY = np.finfo(float).tiny


def _real_nullspace(a, rank):
    """Kernel of a real matrix of known rank, by complete-pivot elimination.

    The free columns are completed to basis vectors by back substitution.
    A pivot below the smallest normal float raises ValueError instead of
    being divided by; the last pivots of the intertwining system fall
    like |z|^-3, so this happens past |z| of about 1e100.

    Returns an array of shape (ncols, ncols - rank), columns spanning the
    kernel.
    """
    a = a.copy()
    cols = a.shape[1]
    col_perm = np.arange(cols)
    for r in range(rank):
        sub = np.abs(a[r:, r:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if not sub[i, j] >= _TINY:
            raise ValueError(
                f"pivot {r + 1} of {rank} underflows at this coupling "
                f"({sub[i, j]:g}); |z| is too large for the elimination")
        i += r
        j += r
        a[[r, i], :] = a[[i, r], :]
        a[:, [r, j]] = a[:, [j, r]]
        col_perm[[r, j]] = col_perm[[j, r]]
        factors = a[r + 1:, r] / a[r, r]
        a[r + 1:, :] -= factors[:, None] * a[r, :]
        a[r + 1:, r] = 0.0

    nfree = cols - rank
    # Permuted solution: x_free = identity, back-substitute the pivot part
    # against U x_piv = -B x_free.
    sol = np.zeros((cols, nfree))
    sol[rank:, :] = np.eye(nfree)
    for r in range(rank - 1, -1, -1):
        rhs = -a[r, rank:] @ sol[rank:, :] - a[r, r + 1:rank] @ sol[r + 1:rank, :]
        sol[r, :] = rhs / a[r, r]
    return sol[np.argsort(col_perm)]


def dieudonne_nullspace(params):
    """All Hermitian solutions of the intertwining relation.

    Their number is n at every coupling.  The flip J (J_ij = 1 for
    i + j = n + 1) gives J H J = H^dag, and H is tridiagonal with nonzero
    hopping, so every eigenvalue has one eigenvector; the solutions are
    then exactly J p(H) with p real of degree < n (Mostafazadeh, J. Math.
    Phys. 43, 2002).  Theta is written in ``_intertwiner_coordinates``,
    and the real system that ``_defect`` makes of them, of rank
    coordinates - n, is reduced by that many complete pivots, no cutoff.

    Parameters
    ----------
    params : ModelParams or TridiagonalHamiltonian
        The operator, or parameters to build it from.

    Returns
    -------
    list of MetricMatrix
        Frobenius-orthonormal basis of the solution space, n elements
        (family "nullspace"; not necessarily positive definite
        individually).
    """
    h = params if isinstance(params, TridiagonalHamiltonian) \
        else build_hamiltonian(params)
    n = h.n
    coords = _intertwiner_coordinates(n)
    # Zero two steps inside the border; the lower triangle repeats the upper.
    rows = np.triu(np.ones((n, n), dtype=bool))
    rows[2:-2, 2:-2] = False
    # n coordinates at a time: all defects at once are three O(n^3) arrays.
    with np.errstate(over="ignore", invalid="ignore"):
        system = np.concatenate([_defect(h, coords[k:k + n])[:, rows]
                                 for k in range(0, len(coords), n)]).T
    if not np.isfinite(system).all():
        raise ValueError("the intertwining system overflows the float range")
    kernel = _real_nullspace(np.concatenate([system.real, system.imag]),
                             len(coords) - n)
    # + 0.0 turns -0.0 into +0.0, so a zero entry prints 0, not -0.
    raw = np.tensordot(kernel, coords, (0, 0)) + 0.0

    # Orthonormalize in the Frobenius inner product with two MGS passes.
    ortho = []
    for m in raw:
        for _ in range(2):
            for o in ortho:
                m = m - np.sum(o.conj() * m).real * o
        ortho.append(m / np.linalg.norm(m))
    return [MetricMatrix(n=n, family="nullspace", params={"index": i},
                         matrix=m) for i, m in enumerate(ortho)]
