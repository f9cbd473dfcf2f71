"""Independent reference computations shared by the tests.

Everything here avoids the code paths under test: Chebyshev polynomials
are expanded to exact integer monomial coefficients, root sets are
compared by greedy nearest matching (sorting by (Re, Im) can swap members
of a conjugate pair whose real parts differ at round-off, which would
fake errors of twice the imaginary part).  ``clenshaw_full`` and
``aberth_rows`` are the earlier whole-row Aberth iteration, which
``find_roots`` and ``charpoly_eigenvalues`` must reproduce bit for bit;
``solve_batch`` is the earlier Aberth secular solve, against which the
phase-equation solver keeps its accuracy contract;
``critical_zeta_whole_grid`` is the earlier critical-detuning bisection,
whose predicate solves every grid point, which the pruned predicate must
match bracket for bracket.
"""

import numpy as np

from hermitize.analysis import CriticalResult, _zs_from_grid
from hermitize.errors import NoConvergence
from hermitize.spectrum import (_lexsorted_rows, _secular_start,
                                _solve_batch, _tie_conjugate_pairs,
                                reality_flags)


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

    roots = aberth_rows(evaluate, _secular_start(coeffs.shape[0], n), tol,
                        max_iter)
    return _lexsorted_rows(_tie_conjugate_pairs(roots))


def critical_zeta_whole_grid(n, xi_max=10.0, xi_steps=2000, zeta_tol=1e-5,
                             bracket=(0.0, 0.75), tol=1e-12):
    """The earlier ``analysis.critical_zeta``: its predicate solves the
    whole xi grid in one batch, |z| <= 1 couplings included."""
    xi_grid = np.linspace(0.0, xi_max, xi_steps)

    def all_real(zeta):
        roots = _solve_batch(n, _zs_from_grid(xi_grid, zeta), tol=tol)
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
