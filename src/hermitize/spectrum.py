"""Spectra and eigenvectors of the endpoint-coupled well.

The eigenvalue problem reduces to a secular polynomial in the Chebyshev
variable y (E = 2 - 2y on the lattice): with zb = conj(z),

    z zb U_{n-2}(y) - (z + zb) U_{n-1}(y) + U_n(y) = 0.

All coefficients are real, so non-real roots come in conjugate pairs and
reality of the spectrum can be decided root by root.  Roots are found by a
batched Aberth iteration whose stopping test knows the round-off floor of
the polynomial evaluation, which keeps clustered roots near spectral
transitions from stalling the solver.  Every polynomial of a degree starts
from the same points, below degree 128 on a thin ellipse about the band
[-1, 1] where all but at most two roots lie, and a row of the batch is
retired as soon as all its roots are accepted.  Rows never interact, so
the roots of one coupling do not depend on which other couplings share its
batch.  The two members of a conjugate pair are given their mean real part
before the roots are sorted by (Re, Im), so a pair always comes out
(-Im, +Im), whatever the round-off.

A second, representation-independent route evaluates the characteristic
polynomial directly through the tridiagonal determinant recurrence; it is
deliberately separate from the secular construction so the two can be used
to cross-check each other.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .chebyshev import ChebCombo, _clenshaw_full
from .errors import DimensionMismatch, NoConvergence
from .model import (ModelParams, TridiagonalHamiltonian, build_hamiltonian,
                    energy_from_y)

_EPS = np.finfo(float).eps

# A root counts as real when its imaginary part is below this scale factor
# times max(1, |y|); the solver converges to ~1e-12 relative error, so the
# margin is three orders of magnitude.
REALITY_TOL = 1e-9

# The secular solve starts on the band ellipse below this degree.  At high
# n and |z| the unscaled evaluation can overflow and the outcome depends
# erratically on the start: on 374 fresh couplings at n = 128 .. 256 the
# ellipse returned silent wrong roots for 11 and the circle for 7, so the
# circle stays there; on 400 at n = 64 .. 112 the ellipse did so for 1 and
# the circle for 5.
_BAND_START_DEGREES = 128

# Below this |y| the eigenvector formula switches to its y -> 0 limit;
# the generic form divides by y and loses all accuracy well before the
# limit point is reached.
Y_ZERO_TOL = 1e-8


def secular_polynomial(params):
    """Secular polynomial of the well in the second-kind Chebyshev basis.

    Parameters
    ----------
    params : ModelParams

    Returns
    -------
    ChebCombo
        Coefficients of z zb U_{n-2} - (z + zb) U_{n-1} + U_n, i.e.
        (|z|^2, -2 Re z, 1) at degrees (n-2, n-1, n).
    """
    z = params.z
    c = np.zeros(params.n + 1)
    c[params.n - 2] = abs(z) ** 2
    c[params.n - 1] = -2.0 * z.real
    c[params.n] = 1.0
    return ChebCombo(c)


def trig_secular(params, gamma):
    """Secular function in the angle variable, y = cos(gamma).

    Evaluates z zb sin((n-1) g) - (z + zb) sin(n g) + sin((n+1) g), which
    equals sin(gamma) times the polynomial form at y = cos(gamma).  Useful
    for closed-form checks on the unit interval.

    Parameters
    ----------
    params : ModelParams
    gamma : array_like
        Angle, real or complex.

    Returns
    -------
    numpy.ndarray
    """
    z = params.z
    n = params.n
    g = np.asarray(gamma)
    return (abs(z) ** 2 * np.sin((n - 1) * g)
            - 2.0 * z.real * np.sin(n * g)
            + np.sin((n + 1) * g))


def _aberth(evaluate, start, tol, max_iter):
    """Batched Aberth root iteration with a round-off-aware stopping test.

    Each row of ``start`` is one polynomial.  A point freezes once its
    value is at the evaluation round-off floor or its step is below
    ``tol``; a row whose points are all frozen is retired, so each
    iteration evaluates only the rows with work left.  The result of a row
    depends only on its own start and polynomial.

    Parameters
    ----------
    evaluate : callable
        Called as ``evaluate(rows, y)`` with the indices of the batch rows
        still being iterated and their iterates, shape (len(rows), degree);
        returns (value, derivative, noise) where ``noise`` bounds the
        evaluation round-off of ``value``.
    start : numpy.ndarray
        Starting points, shape (npoly, degree); not modified.  The secular
        solve passes ``_secular_start``, ``charpoly_eigenvalues`` a
        ``_circle_start``.
    tol : float
        Relative step tolerance for acceptance.
    max_iter : int
        Iteration budget.

    Returns
    -------
    numpy.ndarray
        Roots of shape (npoly, degree), unsorted.
    """
    y = np.array(start, dtype=complex)
    degree = y.shape[1]
    k = np.arange(degree)
    diag = (slice(None), k, k)
    # Frozen points still repel the others in their row but stop moving.
    # ``rows`` indexes the live rows; ``ya`` and ``frozen`` hold their state.
    rows = np.arange(y.shape[0])
    ya = y.copy()
    frozen = np.zeros(y.shape, dtype=bool)

    for _ in range(max_iter):
        p, dp, noise = evaluate(rows, ya)
        # |p| at the evaluation round-off floor: nothing left to resolve.
        frozen |= np.abs(p) <= noise
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = p / dp
            diff = ya[:, :, None] - ya[:, None, :]
            diff[diag] = np.inf
            repulsion = np.sum(1.0 / diff, axis=2)
            w = newton / (1.0 - newton * repulsion)
        w = np.where(np.isfinite(w), w, 0.1)
        w = np.where(frozen, 0.0, w)
        ya = ya - w
        frozen |= np.abs(w) <= tol * np.maximum(1.0, np.abs(ya))
        done = np.all(frozen, axis=1)
        if np.any(done):
            y[rows[done]] = ya[done]
            live = ~done
            rows, ya, frozen = rows[live], ya[live], frozen[live]
            if rows.size == 0:
                return y
    y[rows] = ya
    raise NoConvergence(
        f"root iteration did not converge in {max_iter} steps", best=y)


def _circle_start(center, npoly, degree):
    """Start points on the circle of radius 1.2 about ``center``."""
    k = np.arange(degree)
    start = center + 1.2 * np.exp(1j * (2.0 * np.pi * k / degree + 0.5))
    return np.broadcast_to(start, (npoly, degree))


def _secular_start(npoly, degree):
    """Start points of the secular solve, shape (npoly, degree).

    Below degree ``_BAND_START_DEGREES`` the points lie on a thin ellipse
    about the band [-1, 1], where the roots sit near the Dirichlet points
    cos(pi k / (n + 1)).  The phase offset pi / (2 degree) interleaves the
    real parts of the upper and lower halves, one start per root, and
    keeps every start off the real axis.  From that degree on the solve
    starts on the radius-1.2 circle about 0.
    """
    if degree >= _BAND_START_DEGREES:
        return _circle_start(0.0, npoly, degree)
    theta = 2.0 * np.pi * (np.arange(degree) + 0.25) / degree
    # Semi-axes chosen by measured iteration counts on n = 6 .. 32 sweep
    # grids and by outcomes on high-|z| couplings: on 300 fresh ones at
    # n = 64 .. 112, (1.05, 0.1) returned 1 wrong root and 6
    # NoConvergence, while (1, 0.15), about 30% faster on the sweeps,
    # returned 5 and 17.
    start = 1.05 * np.cos(theta) + 0.1j * np.sin(theta)
    return np.broadcast_to(start, (npoly, degree))


def _lexsorted_rows(y):
    """Sort each row by (Re, Im), ascending; deterministic output order."""
    return np.take_along_axis(y, np.lexsort((y.imag, y.real), axis=-1),
                              axis=-1)


def _tie_conjugate_pairs(y):
    """Give both members of each conjugate pair their mean real part.

    Real coefficients make the exact roots closed under conjugation, but
    the two computed members of a pair differ in their last bits, so a
    (Re, Im) sort would order them by round-off.  Roots i != j of a row are
    a pair when each is the other's nearest conjugate (counting its own
    conjugate) and |y_i - conj(y_j)| <= REALITY_TOL * max(1, |y|).  With
    equal real parts the sort puts the pair out as (-Im, +Im).
    """
    dist = np.abs(y[:, :, None] - np.conj(y)[:, None, :])
    mate = np.argmin(dist, axis=2)
    near = np.min(dist, axis=2) <= REALITY_TOL * np.maximum(1.0, np.abs(y))
    own = np.arange(y.shape[1])
    paired = ((mate != own) & (np.take_along_axis(mate, mate, axis=1) == own)
              & near & np.take_along_axis(near, mate, axis=1))
    re = np.where(paired,
                  0.5 * (y.real + np.take_along_axis(y.real, mate, axis=1)),
                  y.real)
    return re + 1j * y.imag


def find_roots(combo, tol=1e-12, max_iter=500):
    """All roots of a second-kind Chebyshev combination.

    Parameters
    ----------
    combo : ChebCombo
        Polynomial to solve; must have degree >= 1.
    tol : float
        Relative acceptance tolerance on the Aberth step.
    max_iter : int
        Iteration budget; exceeding it raises ``NoConvergence``.

    Returns
    -------
    numpy.ndarray
        Complex roots sorted by (Re, Im); the members of a conjugate pair
        share their real part, so the pair comes out (-Im, +Im).
    """
    if combo.degree < 1:
        raise ValueError("cannot solve a constant polynomial")
    coeffs = combo.coeffs[None, :]

    def evaluate(rows, y):
        return _clenshaw_full(coeffs, y)

    roots = _aberth(evaluate, _secular_start(1, combo.degree), tol, max_iter)
    return _lexsorted_rows(_tie_conjugate_pairs(roots))[0]


def _solve_batch(n, zs, tol=1e-12, max_iter=500):
    """Secular roots for many couplings at once.

    Parameters
    ----------
    n : int
        Chain length (polynomial degree n).
    zs : numpy.ndarray
        Complex couplings, shape (npoly,).

    Returns
    -------
    numpy.ndarray
        Roots of shape (npoly, n), each row sorted as in ``find_roots``.
    """
    zs = np.asarray(zs, dtype=complex)
    coeffs = np.zeros((zs.size, n + 1))
    coeffs[:, n - 2] = np.abs(zs) ** 2
    coeffs[:, n - 1] = -2.0 * zs.real
    coeffs[:, n] = 1.0

    def evaluate(rows, y):
        return _clenshaw_full(coeffs[rows], y)

    roots = _aberth(evaluate, _secular_start(zs.size, n), tol, max_iter)
    return _lexsorted_rows(_tie_conjugate_pairs(roots))


@dataclass
class Wavefunction:
    """Eigenvector of the well at a given secular root.

    Attributes
    ----------
    y : complex
        Chebyshev variable of the eigenvalue.
    energy : complex
        Eigenvalue in the requested convention.
    components : numpy.ndarray
        Site amplitudes phi_1 .. phi_n with phi_1 = 1.
    branch : str
        "generic" or "y_zero" (the explicit y -> 0 limit form).
    residual : float
        ||(H - E) phi||_2 / ||phi||_2.
    """

    y: complex
    energy: complex
    components: np.ndarray
    branch: str
    residual: float


def _boundary_recurrence(n, y, seed, rescale_limit=1e150):
    """Solve phi_{m+1} = 2 y phi_m - phi_{m-1} from (1, seed) forward.

    Rescales on the fly when entries threaten to overflow; the caller
    normalizes, so only the direction of the solution matters.
    """
    phi = np.empty(n, dtype=complex)
    phi[0] = 1.0
    if n > 1:
        phi[1] = seed
    for m in range(2, n):
        phi[m] = 2.0 * y * phi[m - 1] - phi[m - 2]
        if abs(phi[m]) > rescale_limit:
            phi[:m + 1] *= 2.0 ** -512
    return phi


def wavefunction(params, y):
    """Eigenvector at the secular root y.

    The generic site amplitude is the closed form
    phi_m = (z / y) T_{m-1}(y) + (1 - z / y) U_{m-1}(y), normalized to
    phi_1 = 1; for |y| below ``Y_ZERO_TOL`` the explicit limit
    phi = (1, -z, -1, z, 1, ...) is used instead, since the generic form
    divides by y.

    Numerically the amplitudes are generated by the second-order site
    recurrence, run from whichever end keeps it stable.  Strong couplings
    bind modes to an endpoint; along the decaying direction the
    recurrence is dominated by its growing solution and loses the mode,
    so both directions are built and the one with the smaller boundary
    defect is kept.

    Parameters
    ----------
    params : ModelParams
    y : complex
        A root of the secular polynomial.  If it is not one, no amplitude
        pattern satisfies both boundary rows; a warning is emitted when
        the relative residual exceeds 1e-8.

    Returns
    -------
    Wavefunction
    """
    z = params.z
    n = params.n
    y = complex(y)
    energy = complex(energy_from_y(y, params.convention))
    h = build_hamiltonian(params)

    if abs(y) < Y_ZERO_TOL:
        comps = np.empty(n, dtype=complex)
        comps[0::4] = 1.0
        comps[1::4] = -z
        comps[2::4] = -1.0
        comps[3::4] = z
        res = eigen_residual(h, energy, comps)
        branch = "y_zero"
    else:
        forward = _boundary_recurrence(n, y, 2.0 * y - z)
        backward = _boundary_recurrence(n, y, 2.0 * y - np.conj(z))[::-1]
        backward = backward / backward[0]
        comps = forward
        res = eigen_residual(h, energy, forward)
        res_b = eigen_residual(h, energy, backward)
        if res_b < res:
            comps, res = backward, res_b
        branch = "generic"

    if res > 1e-8:
        warnings.warn(
            f"y = {y} is not an eigenvalue (relative residual {res:.3e})",
            stacklevel=2)
    return Wavefunction(y=y, energy=energy, components=comps,
                        branch=branch, residual=res)


def eigen_residual(h, energy, phi):
    """Relative eigen-residual ||(H - E) phi||_2 / ||phi||_2.

    Parameters
    ----------
    h : TridiagonalHamiltonian or numpy.ndarray
        The operator, structured or dense.
    energy : complex
    phi : array_like
        Candidate eigenvector.

    Returns
    -------
    float
    """
    phi = np.asarray(phi, dtype=complex)
    if isinstance(h, TridiagonalHamiltonian):
        if phi.size != h.n:
            raise DimensionMismatch(
                f"vector has {phi.size} entries, operator has {h.n} sites")
        # (H phi)_m = d_m phi_m - phi_{m-1} - phi_{m+1}, corners included.
        out = h.diagonal() * phi
        out[:-1] -= phi[1:]
        out[1:] -= phi[:-1]
    else:
        h = np.asarray(h)
        if h.shape[0] != h.shape[1] or phi.size != h.shape[0]:
            raise DimensionMismatch(
                f"shapes {h.shape} and {phi.shape} are incompatible")
        out = h @ phi
    norm = np.linalg.norm(phi)
    if norm == 0.0:
        raise ValueError("zero vector has no residual")
    return float(np.linalg.norm(out - energy * phi) / norm)


@dataclass
class Spectrum:
    """Complete spectral data of one parameter point.

    Attributes
    ----------
    params : ModelParams
    y_roots : numpy.ndarray
        Secular roots sorted by (Re, Im).
    energies : numpy.ndarray
        E = 2 - 2y ("lattice") or E = -2y ("shifted").
    is_real : numpy.ndarray
        Boolean reality flag per root (tolerance REALITY_TOL scaled).
    wavefunctions : list of Wavefunction or None
        Present when requested from ``solve_spectrum``.
    """

    params: ModelParams
    y_roots: np.ndarray
    energies: np.ndarray
    is_real: np.ndarray
    wavefunctions: list | None = None

    @property
    def n_real(self):
        return int(np.count_nonzero(self.is_real))

    @property
    def n_complex_pairs(self):
        # Real coefficients: non-real roots always occur in conjugate pairs.
        return int(np.count_nonzero(~self.is_real)) // 2

    @property
    def all_real(self):
        return bool(np.all(self.is_real))


def reality_flags(y_roots, tol=REALITY_TOL):
    """Per-root reality flags: |Im y| <= tol * max(1, |y|)."""
    y_roots = np.asarray(y_roots)
    return np.abs(y_roots.imag) <= tol * np.maximum(1.0, np.abs(y_roots))


def solve_spectrum(params, tol=1e-12, max_iter=500, with_wavefunctions=False):
    """Solve the secular equation for one parameter point.

    Parameters
    ----------
    params : ModelParams
    tol : float
        Root acceptance tolerance (relative Aberth step).
    max_iter : int
        Iteration budget for the root solver.
    with_wavefunctions : bool
        Also build the eigenvector at every root.

    Returns
    -------
    Spectrum
    """
    combo = secular_polynomial(params)
    y_roots = find_roots(combo, tol=tol, max_iter=max_iter)
    energies = energy_from_y(y_roots, params.convention)
    wfs = None
    if with_wavefunctions:
        wfs = [wavefunction(params, y) for y in y_roots]
    return Spectrum(params=params, y_roots=y_roots, energies=energies,
                    is_real=reality_flags(y_roots), wavefunctions=wfs)


class _DetEvaluator:
    """Characteristic polynomial of a tridiagonal matrix, by evaluation.

    Runs the principal-minor recurrence D_k = (d_k - lam) D_{k-1} - D_{k-2}
    (off-diagonal entries are -1, so their product square is 1) together
    with its lambda-derivative.  The round-off bound mirrors the Clenshaw
    one: an error committed at step k propagates through the remaining
    recurrence like the trailing minor T_{k+1}, so a backward pass over
    trailing minors converts per-step magnitudes into a bound on D_n.
    """

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=complex)

    def __call__(self, lam):
        d = self.diag
        n = d.size
        dm2 = np.zeros_like(lam)
        dm1 = np.ones_like(lam)
        pm2 = np.zeros_like(lam)
        pm1 = np.zeros_like(lam)
        loc = np.empty((n,) + lam.shape)
        for k in range(n):
            a = d[k] - lam
            dk = a * dm1 - dm2
            pk = a * pm1 - dm1 - pm2
            loc[k] = np.abs(a * dm1) + np.abs(dm2) + np.abs(dk)
            dm2, dm1 = dm1, dk
            pm2, pm1 = pm1, pk

        tp2 = np.zeros_like(lam)
        tp1 = np.ones_like(lam)
        noise = loc[n - 1] * np.abs(tp1)
        for k in range(n - 2, -1, -1):
            a = d[k + 1] - lam
            tp2, tp1 = tp1, a * tp1 - tp2
            noise = noise + loc[k] * np.abs(tp1)
        return dm1, pm1, 2 * _EPS * noise


def charpoly_eigenvalues(h, tol=1e-12, max_iter=500):
    """Eigenvalues of the Hamiltonian via its characteristic polynomial.

    Independent of the secular-polynomial route: the determinant is
    evaluated directly from the tridiagonal minor recurrence, never
    expanded into coefficients (the expansion alone loses eight digits by
    n ~ 30).

    Parameters
    ----------
    h : TridiagonalHamiltonian
    tol, max_iter :
        Root iteration controls, as in ``find_roots``.

    Returns
    -------
    numpy.ndarray
        Eigenvalues (in the convention of ``h``) sorted by (Re, Im).
    """
    evaluate = _DetEvaluator(h.diagonal())
    start = _circle_start(np.mean(evaluate.diag), 1, h.n)
    roots = _aberth(lambda rows, lam: evaluate(lam), start, tol, max_iter)
    return _lexsorted_rows(roots)[0]
