"""Independent reference computations shared by the tests.

Everything here avoids the code paths under test: Chebyshev polynomials
are expanded to exact integer monomial coefficients, root sets are
compared by greedy nearest matching (sorting by (Re, Im) can swap members
of a conjugate pair whose real parts differ at round-off, which would
fake errors of twice the imaginary part).  ``clenshaw_full`` and
``aberth_rows`` are the earlier whole-row Aberth iteration, with its start
points (``secular_start``, ``circle_start``) and its conjugate-pair tie
(``tie_conjugate_pairs``).  On them rest two slow oracles:
``solve_batch``, the earlier Aberth secular solve, against which the
phase-equation solver keeps its accuracy contract, and
``charpoly_eigenvalues``, which finds the eigenvalues from the
tridiagonal determinant recurrence (``DetEvaluator``) without the secular
polynomial.  ``critical_zeta_whole_grid`` is the earlier
critical-detuning bisection, whose predicate solves every grid point,
which the pruned predicate must match bracket for bracket.
"""
import numpy as np

from hermitize.analysis import CriticalResult, _zs_from_grid
from hermitize.errors import NoConvergence
from hermitize.spectrum import (REALITY_TOL, _lexsorted_rows, _solve_batch,
                                reality_flags)

_EPS = np.finfo(float).eps

# secular_start starts on the band ellipse below this degree.  At high n
# and |z| the unscaled evaluation can overflow and the outcome depends
# erratically on the start: on 374 fresh couplings at n = 128 .. 256 the
# ellipse returned silent wrong roots for 11 and the circle for 7, so the
# circle stays there; on 400 at n = 64 .. 112 the ellipse did so for 1 and
# the circle for 5.
_BAND_START_DEGREES = 128


def max_pair_distance(a, b):
    """Greedy nearest-match distance between two equal-size point sets."""
    a = np.asarray(a, dtype=complex).ravel()
    pool = list(np.asarray(b, dtype=complex).ravel())
    assert a.size == len(pool), "point sets differ in size"
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in pool]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        pool.pop(j)
    return worst


def u_monomial(k):
    """Exact monomial coefficients of U_k, low degree first (Python ints)."""
    if k == -1:
        return [0]
    prev = [1]
    if k == 0:
        return prev
    cur = [0, 2]
    for _ in range(k - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def t_monomial(k):
    """Exact monomial coefficients of T_k, low degree first."""
    prev = [1]
    if k == 0:
        return prev
    cur = [0, 1]
    for _ in range(k - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def combo_monomial(coeffs):
    """Monomial coefficients (low first) of sum_k coeffs[k] U_k."""
    out = np.zeros(len(coeffs), dtype=float)
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        mono = u_monomial(k)
        out[:len(mono)] += c * np.asarray(mono, dtype=float)
    return out


def polyval_low(coeffs, y):
    """Evaluate a low-first monomial coefficient list at y (Horner)."""
    acc = np.zeros_like(np.asarray(y, dtype=complex))
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def metric_band_recurrence(n, omega):
    """The ``metric_band`` matrix built from its two-term real recurrence.

    Carries the real pair (p1, p2) = (Re, Im) of the band value through
    p1 <- p1 + w p2, p2 <- p2 - w p1 (both from the old values), anchored
    at the first off-diagonal (0, -w).  This is the same step as
    multiplying by (1 - i w) in ``metric.py``'s fixed schedule, so the
    result equals ``metric_band`` bitwise; the Toeplitz fill is done here
    entry by entry, without the package's band helper.
    """
    band = [complex(1.0)]
    p1, p2 = 0.0, -omega
    for _ in range(1, n):
        band.append(complex(p1, p2))
        p1, p2 = p1 + omega * p2, p2 - omega * p1
    theta = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            theta[i, j] = band[j - i] if j >= i else band[i - j].conjugate()
    return theta


def clenshaw_full(coeffs, y):
    """The earlier batch evaluator of second-kind combinations.

    Clenshaw recurrence with derivative and round-off bound, for 1-d
    coefficients or a 2-d (npoly, d + 1) coefficient array evaluated row
    by row against the rows of ``y``.  The secular solver's three-term
    evaluator must reproduce it bit for bit on the padded coefficients.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    squeeze = coeffs.ndim == 1
    c2 = np.atleast_2d(coeffs)
    y_in = np.asarray(y)
    y2 = y_in.reshape(1, -1) if squeeze else y_in
    two_y = 2 * y2
    nc = c2.shape[1]

    b1 = np.zeros_like(y2)
    b2 = np.zeros_like(y2)
    d1 = np.zeros_like(y2)
    d2 = np.zeros_like(y2)
    loc = np.empty((nc,) + y2.shape)
    for j in range(nc - 1, -1, -1):
        c = c2[:, j][:, None]
        loc[j] = np.abs(two_y) * np.abs(b1) + np.abs(b2) + np.abs(c)
        b1, b2 = two_y * b1 - b2 + c, b1
        d1, d2 = two_y * d1 - d2 + 2 * b2, d1

    u_cur = two_y.copy()
    u_prev = np.ones_like(y2)
    noise = loc[0] * np.abs(u_prev)
    for j in range(1, nc):
        noise = noise + loc[j] * np.abs(u_cur)
        u_cur, u_prev = two_y * u_cur - u_prev, u_cur
    noise = 3 * np.finfo(float).eps * noise

    if squeeze:
        shape = y_in.shape
        return b1.reshape(shape), d1.reshape(shape), noise.reshape(shape)
    return b1, d1, noise


def aberth_rows(evaluate, start, tol, max_iter):
    """The earlier batched Aberth iteration, which works on whole rows.

    ``evaluate(rows, y)`` gets the live rows and all their points, frozen
    ones included, and the repulsion is built as a (rows, degree, degree)
    tensor.  A row retires once all its points are frozen.  Kept as the
    oracle that the live-point solver must match bit for bit.
    """
    y = np.array(start, dtype=complex)
    degree = y.shape[1]
    k = np.arange(degree)
    diag = (slice(None), k, k)
    rows = np.arange(y.shape[0])
    ya = y.copy()
    frozen = np.zeros(y.shape, dtype=bool)

    for _ in range(max_iter):
        p, dp, noise = evaluate(rows, ya)
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


def circle_start(center, npoly, degree):
    """Start points on the circle of radius 1.2 about ``center``."""
    k = np.arange(degree)
    start = center + 1.2 * np.exp(1j * (2.0 * np.pi * k / degree + 0.5))
    return np.broadcast_to(start, (npoly, degree))


def secular_start(npoly, degree):
    """Start points of the Aberth secular solve, shape (npoly, degree).

    Below degree ``_BAND_START_DEGREES`` the points lie on a thin ellipse
    about the band [-1, 1], where the roots sit near the Dirichlet points
    cos(pi k / (n + 1)).  The phase offset pi / (2 degree) interleaves the
    real parts of the upper and lower halves, one start per root, and
    keeps every start off the real axis.  From that degree on the solve
    starts on the radius-1.2 circle about 0.
    """
    if degree >= _BAND_START_DEGREES:
        return circle_start(0.0, npoly, degree)
    theta = 2.0 * np.pi * (np.arange(degree) + 0.25) / degree
    # Semi-axes chosen by measured iteration counts on n = 6 .. 32 sweep
    # grids and by outcomes on high-|z| couplings: on 300 fresh ones at
    # n = 64 .. 112, (1.05, 0.1) returned 1 wrong root and 6
    # NoConvergence, while (1, 0.15), about 30% faster on the sweeps,
    # returned 5 and 17.
    start = 1.05 * np.cos(theta) + 0.1j * np.sin(theta)
    return np.broadcast_to(start, (npoly, degree))


def tie_conjugate_pairs(y):
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


class DetEvaluator:
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
    """Eigenvalues of a ``TridiagonalHamiltonian`` from its determinant.

    An Aberth solve (``aberth_rows``) of the characteristic polynomial,
    evaluated by the minor recurrence of ``DetEvaluator`` and never
    expanded into coefficients (the expansion alone loses eight digits by
    n ~ 30), from the radius-1.2 circle about the mean diagonal entry.
    Independent of the secular polynomial; sorted by (Re, Im), in the
    convention of ``h``.
    """
    evaluate = DetEvaluator(h.diagonal())
    start = circle_start(np.mean(evaluate.diag), 1, h.n)
    roots = aberth_rows(lambda rows, lam: evaluate(lam), start, tol,
                        max_iter)
    return _lexsorted_rows(roots)[0]


def padded_secular_coeffs(n, zs):
    """Secular coefficients (|z|^2, -2 Re z, 1) padded to (npoly, n + 1)."""
    zs = np.asarray(zs, dtype=complex)
    coeffs = np.zeros((zs.size, n + 1))
    coeffs[:, n - 2] = np.abs(zs) ** 2
    coeffs[:, n - 1] = -2.0 * zs.real
    coeffs[:, n] = 1.0
    return coeffs


def solve_batch(n, zs, tol=1e-12, max_iter=500):
    """The Aberth ``spectrum._solve_batch`` before the phase-equation
    solver: one whole-batch solve with ``aberth_rows`` and
    ``clenshaw_full`` on padded coefficient rows."""
    coeffs = padded_secular_coeffs(n, zs)

    def evaluate(rows, y):
        return clenshaw_full(coeffs[rows], y)

    roots = aberth_rows(evaluate, secular_start(coeffs.shape[0], n), tol,
                        max_iter)
    return _lexsorted_rows(tie_conjugate_pairs(roots))


def critical_zeta_whole_grid(n, xi_max=10.0, xi_steps=2000, zeta_tol=1e-5,
                             bracket=(0.0, 0.75)):
    """The earlier ``analysis.critical_zeta``: its predicate solves the
    whole xi grid in one batch, |z| <= 1 couplings included."""
    xi_grid = np.linspace(0.0, xi_max, xi_steps)

    def all_real(zeta):
        roots = _solve_batch(n, _zs_from_grid(xi_grid, zeta))
        return bool(np.all(reality_flags(roots)))

    lo, hi = bracket
    if not all_real(lo):
        raise ValueError(f"spectrum is not real at zeta = {lo}")
    while all_real(hi):
        if hi >= 0.99:
            raise ValueError("no complexification found for zeta <= 0.99")
        hi = min(0.99, hi + 0.25)
    while hi - lo > zeta_tol:
        mid = 0.5 * (lo + hi)
        if all_real(mid):
            lo = mid
        else:
            hi = mid
    return CriticalResult(n=n, value=0.5 * (lo + hi), bracket=(lo, hi),
                          xi_max=xi_max, xi_steps=xi_steps)
