"""Spectra and eigenvectors of the endpoint-coupled well.

The eigenvalue problem reduces to a secular polynomial in the Chebyshev
variable y (E = 2 - 2y on the lattice): with zb = conj(z),

    z zb U_{n-2}(y) - (z + zb) U_{n-1}(y) + U_n(y) = 0.

All coefficients are real, so non-real roots come in conjugate pairs and
reality of the spectrum can be decided root by root.  Roots are found by a
batched Aberth iteration whose stopping test knows the round-off floor of
the polynomial evaluation, which keeps clustered roots near spectral
transitions from stalling the solver.  The secular function is evaluated
by one three-term Clenshaw recurrence (``_secular_terms``) that takes the
coefficients (|z|^2, -2 Re z, 1) point by point.  Every polynomial of a
degree starts from the same points, below degree 128 on a thin ellipse
about the band [-1, 1] where all but at most two roots lie; each iteration
evaluates and steps only the roots not yet accepted, and a batch is solved
in blocks of ``_BLOCK_ROWS`` couplings.  Rows never interact, so the roots
of one coupling do not depend on the block size or on which other
couplings share its batch.  An evaluation that overflows (inf or nan)
never accepts a root: such a solve ends in ``NoConvergence``.  The two
members of a conjugate pair are given their mean real part before the
roots are sorted by (Re, Im), so a pair always comes out (-Im, +Im),
whatever the round-off.

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

# The batched solve works through its couplings in blocks of this many
# rows, which keeps the per-iteration arrays (the (n + 1)-deep Clenshaw
# magnitudes and the repulsion rows) near cache size.  Roots do not depend
# on it.  On 2,000-point sweeps (n = 8, 32) and critical_zeta(6), (8),
# blocks of 250 to 512 rows ran about equally fast, 128 rows and one
# 2,000-row block slower, and peak memory grows with the block.
_BLOCK_ROWS = 250

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
    ``tol``, and only the points still moving are evaluated and stepped.
    Each moving point is repelled by every other point of its row, frozen
    ones included.  A value, derivative or noise bound that is not finite
    (overflow, inf, nan) never freezes a point, so a root the evaluation
    cannot resolve ends in ``NoConvergence``.  The result of a row depends
    only on its own start and polynomial.

    Parameters
    ----------
    evaluate : callable
        Called as ``evaluate(rows, y)`` with 1-d arrays of the moving
        points: ``rows[i]`` is the batch row of the iterate ``y[i]``.
        Returns 1-d (value, derivative, noise) at those points, where
        ``noise`` bounds the evaluation round-off of ``value``.
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
    y = np.array(start, dtype=complex, order="C")
    degree = y.shape[1]
    flat = y.reshape(-1)
    live = np.arange(flat.size)

    for _ in range(max_iter):
        rows, cols = np.divmod(live, degree)
        ya = flat[live]
        p, dp, noise = evaluate(rows, ya)
        finite = np.isfinite(p) & np.isfinite(dp) & np.isfinite(noise)
        # |p| at the evaluation round-off floor: nothing left to resolve.
        frozen = finite & (np.abs(p) <= noise)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = p / dp
            # One contiguous row of 1 / (y_i - y_j) over the whole row per
            # moving point, so the sum runs in the order of a whole-row
            # (degree, degree) block; built in place in the gathered rows.
            inv = y[rows]
            np.subtract(ya[:, None], inv, out=inv)
            inv[np.arange(live.size), cols] = np.inf
            np.divide(1.0, inv, out=inv)
            repulsion = np.sum(inv, axis=1)
            w = newton / (1.0 - newton * repulsion)
        w = np.where(np.isfinite(w), w, 0.1)
        w = np.where(frozen, 0.0, w)
        ya = ya - w
        frozen |= finite & (np.abs(w) <= tol * np.maximum(1.0, np.abs(ya)))
        flat[live] = ya
        live = live[~frozen]
        if live.size == 0:
            return y
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

    def evaluate(rows, y):
        return _clenshaw_full(combo.coeffs, y)

    roots = _aberth(evaluate, _secular_start(1, combo.degree), tol, max_iter)
    return _lexsorted_rows(_tie_conjugate_pairs(roots))[0]


def _secular_terms(n, sq, re2, y):
    """Secular function, its y-derivative and its round-off bound.

    Evaluates sq U_{n-2}(y) + re2 U_{n-1}(y) + U_n(y) at the 1-d points
    ``y``, with the coefficients sq = |z|^2 and re2 = -2 Re z given point
    by point.  Every floating-point operation is the one
    ``chebyshev._clenshaw_full`` performs on the padded coefficients
    (0, .., 0, sq, re2, 1), so value, derivative and noise are bitwise
    equal to it.  Only bookkeeping differs: |2y| is taken once, |b_{j+1}|
    is kept as the next step's |b_{j+2}|, the additions of the n - 2 zero
    coefficients (and the product with |U_0| = 1) are skipped, and every
    step writes into preallocated buffers.
    """
    two_y = 2 * y
    abs_two_y = np.abs(two_y)
    coeff = {n: (1.0, 1.0), n - 1: (re2, np.abs(re2)),
             n - 2: (sq, np.abs(sq))}
    b1, b2, d1, d2 = np.zeros((4, y.size), dtype=complex)
    bt, dt, t = np.empty((3, y.size), dtype=complex)
    abs_b1, abs_b2 = np.zeros((2, y.size))
    loc = np.empty((n + 1, y.size))
    for j in range(n, -1, -1):
        c, abs_c = coeff.get(j, (None, None))
        # loc_j = |2y| |b_{j+1}| + |b_{j+2}| + |c_j|
        abs_b1, abs_b2 = abs_b2, abs_b1
        np.abs(b1, out=abs_b1)
        np.multiply(abs_two_y, abs_b1, out=loc[j])
        loc[j] += abs_b2
        # b_j = 2y b_{j+1} - b_{j+2} + c_j
        np.multiply(two_y, b1, out=bt)
        bt -= b2
        if c is not None:
            loc[j] += abs_c
            bt += c
        b1, b2, bt = bt, b1, b2
        # d_j = 2y d_{j+1} - d_{j+2} + 2 b_{j+1}
        np.multiply(two_y, d1, out=dt)
        dt -= d2
        np.multiply(2, b2, out=t)
        dt += t
        d1, d2, dt = dt, d1, d2

    # Forward U_j(y) against the local magnitudes, as in _clenshaw_full.
    noise = loc[0].copy()
    u_cur, u_prev = two_y.copy(), np.ones_like(two_y)
    for j in range(1, n + 1):
        np.abs(u_cur, out=abs_b1)
        loc[j] *= abs_b1
        noise += loc[j]
        if j < n:
            np.multiply(two_y, u_cur, out=bt)
            bt -= u_prev
            u_cur, u_prev, bt = bt, u_cur, u_prev
    noise *= 3 * _EPS
    return b1, d1, noise


def _secular_roots(n, sq, re2, tol, max_iter):
    """Sorted secular roots for the coefficient arrays ``sq``, ``re2``."""
    def evaluate(rows, y):
        return _secular_terms(n, sq[rows], re2[rows], y)

    roots = _aberth(evaluate, _secular_start(sq.size, n), tol, max_iter)
    return _lexsorted_rows(_tie_conjugate_pairs(roots))


def _solve_blocks(n, zs, tol=1e-12, max_iter=500):
    """Secular roots of the couplings ``zs``, one block at a time.

    Yields the roots of ``_BLOCK_ROWS`` consecutive couplings (fewer in
    the last block), each row sorted as in ``find_roots``.  A block that
    does not converge raises ``NoConvergence``; its ``best`` holds that
    block's iterates.
    """
    zs = np.asarray(zs, dtype=complex)
    sq, re2 = np.abs(zs) ** 2, -2.0 * zs.real
    for lo in range(0, zs.size, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        yield _secular_roots(n, sq[block], re2[block], tol, max_iter)


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
        Roots of shape (npoly, n), each row sorted as in ``find_roots``;
        the rows are solved in blocks by ``_solve_blocks``.
    """
    return np.concatenate([np.empty((0, n), dtype=complex),
                           *_solve_blocks(n, zs, tol, max_iter)])


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
    n = params.n
    # The coefficients of secular_polynomial, bit for bit: Python's
    # abs(z) ** 2 and numpy's np.abs(z) ** 2 can differ in the last bit.
    c = secular_polynomial(params).coeffs
    y_roots = _secular_roots(n, c[n - 2:n - 1], c[n - 1:n], tol, max_iter)[0]
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
