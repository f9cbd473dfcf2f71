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
polynomial.  ``half_phase``, ``monotone_pieces`` and ``band_roots`` are
the earlier band stage of the phase solver, whose bits the lean one keeps.
``critical_zeta_whole_grid`` is the earlier
critical-detuning bisection on a xi grid, whose predicate solves every
grid point; the closed form must lie at or below its upper bracket end.
``critical_closed_form`` is the earlier numpy evaluation of the closed
form, which the ``math`` one keeps bit for bit.
``dieudonne_nullspace_elimination`` is the earlier nullspace, which
eliminated over all n^2 real Hermitian coordinates of Theta with the
Kronecker form of the relation; the Toeplitz-plus-Hankel one must span
the same space wherever the spectrum keeps its roots apart.
``tolerance_flags`` is the earlier reality rule, which the flags of the
Aberth oracle and the whole-grid bisection keep.  ``g17`` and
``csv_table`` are the earlier CLI formatter, which built every CSV table
as one string of comma-joined fields; the streamed tables keep its bytes.
``c2``, the ``*_json`` documents and ``json_text`` are the earlier JSON
writer, which converted every value to a list or Python scalar and dumped
the document as one string; the streamed documents keep its bytes.
``jsonable`` is the earlier ``default`` hook of the streamed writer, and
``json_hooked`` the text that ``json`` writes with it, which the writer of
arrays a row at a time keeps byte for byte.  ``continuum_arrays``,
``richardson_arrays`` and ``locus_arrays`` are the earlier numpy
evaluations of the continuum table and the endpoint loci, which the
``math`` ones keep bit for bit; ``continuum_json`` and ``locus_json``
build their documents from them.
"""
import json
from collections import namedtuple

import numpy as np

from hermitize.analysis import _zs_from_grid
from hermitize.errors import NoConvergence
from hermitize.spectrum import _solve_batch

_EPS = np.finfo(float).eps

# The earlier reality rule, |Im y| <= REALITY_TOL * max(1, |y|).  The
# Aberth oracle's real roots carry round-off imaginary parts, so its flags
# need it; the phase solver stores a real root with Im exactly 0.
REALITY_TOL = 1e-9


def tolerance_flags(y):
    """Reality flags by the earlier tolerance rule."""
    y = np.asarray(y)
    return np.abs(y.imag) <= REALITY_TOL * np.maximum(1.0, np.abs(y))


# secular_start starts on the band ellipse below this degree.  At high n
# and |z| the unscaled evaluation can overflow and the outcome depends
# erratically on the start: on 374 fresh couplings at n = 128 .. 256 the
# ellipse returned silent wrong roots for 11 and the circle for 7, so the
# circle stays there; on 400 at n = 64 .. 112 the ellipse did so for 1 and
# the circle for 5.
_BAND_START_DEGREES = 128


def same_bits(a, b):
    """Bitwise equality of two float or complex arrays, signed zeros
    included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


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
    return np.sort(roots, kind="stable")[0]


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
    return np.sort(tie_conjugate_pairs(roots), kind="stable")


def half_phase(n, a, b, m2, p2, gamma):
    """Half-phase of the band equation with psi', psi''/psi' and a bound on
    the round-off of psi.

    psi(gamma) = n gamma + theta(gamma) with
    theta = atan2((1 - b) sin gamma, (1 + b) cos gamma - 2 a), a = Re z and
    b = |z|^2; y = cos(gamma) is a root exactly where psi = pi k.  The
    second argument is taken as |1 - z|^2 - (1 + b)(1 - cos gamma) when
    cos gamma >= 0 and as (1 + b)(1 + cos gamma) - |1 + z|^2 otherwise,
    with m2 = |1 - z|^2 and p2 = |1 + z|^2 from z itself, which keeps it
    accurate at the band edges when z is near +/-1.  The bound covers the
    rounding of n gamma, of atan2 and of its two arguments; it grows where
    theta turns steeply (|z| near 1), and it vanishes with gamma, so roots
    near y = 1 keep their relative accuracy.
    """
    x, s = np.cos(gamma), np.sin(gamma)
    upper = x >= 0.0
    # 1 - x or 1 + x, whichever is not a cancellation, and the edge term.
    gap = s * s / (1.0 + np.abs(x))
    edge = np.where(upper, m2, p2)
    one_minus_b = 1.0 - b
    num = one_minus_b * s
    bulk = (1.0 + b) * gap
    den = edge - bulk
    den = np.where(upper, den, -den)
    h = num * num + den * den
    theta = np.arctan2(num, den)
    tilt = 2.0 * a * gap
    slope = one_minus_b * np.where(upper, edge + tilt, edge - tilt) / h
    # psi'' / psi' for Halley's correction (infinite where psi' = 0).
    with np.errstate(divide="ignore", invalid="ignore"):
        bend = (2.0 * a * num - slope * 2.0 * s * (
            one_minus_b * one_minus_b * x - (1.0 + b) * den)) / h / (n + slope)
    abs_den = np.abs(den)
    noise = np.abs(theta) + np.abs(num) * (abs_den + abs_den + edge + bulk) / h
    n_gamma = n * gamma
    return n_gamma + theta, n + slope, bend, 4.0 * _EPS * (n_gamma + noise)


def monotone_pieces(n, a, b, m2, p2):
    """Ends of the monotone pieces of psi on [0, pi], and psi / pi there.

    Returns (ends, levels), each of shape (rows, 4): piece j runs from
    ends[:, j] to ends[:, j + 1].  psi is increasing when |z| < 1, and
    psi' = 0 is a quadratic in x = cos(gamma),

        4 n b x^2 - (4 n a (1 + b) + 2 a (1 - b)) x
            + n ((1 - b)^2 + 4 a^2) + 1 - b^2 = 0,

    so psi has at most two critical points; a missing one is put at pi,
    where it ends an empty piece.  psi(0) = 0 and psi(pi) = (n + 1) pi for
    |z| < 1, (n - 1) pi for |z| > 1, exactly.
    """
    rows = a.size
    outside = b > 1.0
    ends = np.full((rows, 4), np.pi)
    ends[:, 0] = 0.0
    levels = np.empty((rows, 4))
    levels[:, 0] = 0.0
    levels[:, 1:] = np.where(outside, n - 1.0, n + 1.0)[:, None]
    idx = np.flatnonzero(outside)
    if idx.size:
        ao, bo = a[idx], b[idx]
        c2 = 4.0 * n * bo
        c1 = -(4.0 * n * ao * (1.0 + bo) + 2.0 * ao * (1.0 - bo))
        c0 = n * ((1.0 - bo) ** 2 + 4.0 * ao * ao) + (1.0 - bo * bo)
        disc = c1 * c1 - 4.0 * c2 * c0
        with np.errstate(invalid="ignore", divide="ignore"):
            q = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
            x = np.stack([q / c2, c0 / q], axis=1)
            crit = np.where((disc > 0.0)[:, None] & (np.abs(x) < 1.0),
                            np.arccos(x), np.pi)
        crit.sort(axis=1)
        psi = half_phase(n, ao[:, None], bo[:, None], m2[idx, None],
                          p2[idx, None], crit)[0]
        ends[idx, 1:3] = crit
        levels[idx, 1:3] = np.where(crit < np.pi, psi / np.pi, n - 1.0)
    return ends, levels


def band_roots(n, a, b, m2, p2, max_iter):
    """Real roots y = cos(gamma), 0 < gamma < pi, of the rows with b != 1.

    Every level pi k strictly between the end values of a monotone piece
    of psi is crossed once on that piece.  Since |theta| <= pi, the
    crossing also lies in [pi (k - 1) / n, pi k / n] for |z| < 1 and in
    [pi k / n, pi (k + 1) / n] for |z| > 1; the solve is a safeguarded
    Newton iteration (``rtsafe`` of *Numerical Recipes*) on that bracket,
    with Halley's correction of the Newton step by psi'', vectorized over
    all crossings.  A crossing is accepted when |psi - pi k|
    is at the round-off bound of ``half_phase`` or the step is below two
    ulps of gamma.

    Returns
    -------
    (y, row) : numpy.ndarray
        The roots and the row of each, ordered by row, then by piece, then
        by level.
    """
    ends, levels = monotone_pieces(n, a, b, m2, p2)
    lo_l, hi_l = levels[:, :3].ravel(), levels[:, 1:].ravel()
    kmin = np.floor(np.minimum(lo_l, hi_l)) + 1.0
    count = np.maximum(np.ceil(np.maximum(lo_l, hi_l)) - kmin, 0.0)
    piece = np.repeat(np.arange(lo_l.size), count.astype(np.intp))
    first = np.cumsum(count) - count
    k = kmin[piece] + (np.arange(piece.size) - first[piece])
    row = piece // 3
    ra, rb, rm, rp = a[row], b[row], m2[row], p2[row]
    # The level window, widened by a few ulps, inside the piece.
    shift = np.where(rb > 1.0, 0.0, -1.0)
    lo = np.maximum(ends[:, :3].ravel()[piece],
                    (k + shift) * np.pi / n - 4.0 * _EPS)
    hi = np.minimum(ends[:, 1:].ravel()[piece],
                    (k + shift + 1.0) * np.pi / n + 4.0 * _EPS)
    rising = (hi_l > lo_l)[piece]
    # rtsafe keeps xl where psi < pi k and xh where psi > pi k.
    xl, xh = np.where(rising, lo, hi), np.where(rising, hi, lo)
    target = k * np.pi
    gamma = 0.5 * (lo + hi)
    dx = np.abs(hi - lo)
    dx_old = dx.copy()
    psi, dpsi, bend, noise = half_phase(n, ra, rb, rm, rp, gamma)
    f = psi - target
    out = gamma.copy()
    live = np.flatnonzero(~(np.abs(f) <= noise))
    # The rows that change, updated in place; the coupling rows and the
    # target are only re-indexed when crossings are accepted.
    state = np.stack([xl, xh, gamma, dx, dx_old, f, dpsi, bend])[:, live]
    ra, rb, rm, rp, target = (c[live] for c in (ra, rb, rm, rp, target))
    for _ in range(max_iter):
        if live.size == 0:
            break
        xl, xh, gamma, dx, dx_old, f, dpsi, bend = state
        # Bisect when Newton would leave the bracket or would not halve
        # the step before the last one.
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / dpsi
            step = step / (1.0 - 0.5 * step * bend)
            newton = gamma - step
            bisect = ~(((newton - xh) * (newton - xl) <= 0.0)
                       & (np.abs(step + step) <= np.abs(dx_old)))
        # The names are views of the rows of state: write through them.
        dx_old[...] = dx
        dx[...] = np.where(bisect, 0.5 * (xh - xl), step)
        gamma[...] = np.where(bisect, xl + dx, newton)
        psi, dpsi[...], bend[...], noise = half_phase(n, ra, rb, rm, rp,
                                                      gamma)
        f[...] = psi - target
        out[live] = gamma
        moving = ~((np.abs(dx) <= 2.0 * _EPS * gamma) | (np.abs(f) <= noise))
        below = f < 0.0
        np.copyto(xl, gamma, where=below)
        np.copyto(xh, gamma, where=~below)
        if not moving.all():
            live, state = live[moving], state[:, moving]
            ra, rb, rm, rp, target = (c[moving]
                                      for c in (ra, rb, rm, rp, target))
    if live.size:
        raise NoConvergence(
            f"band root iteration did not converge in {max_iter} steps",
            best=np.cos(out))
    return np.cos(out), row


GridCritical = namedtuple("GridCritical",
                          "n value bracket xi_max xi_steps")


def critical_zeta_whole_grid(n, xi_max=10.0, xi_steps=2000, zeta_tol=1e-5,
                             bracket=(0.0, 0.75)):
    """The earlier ``analysis.critical_zeta``: bisection on the predicate
    "all roots real on the xi grid", which solves the whole grid in one
    batch.  Returns a ``GridCritical`` with the final (real, non-real)
    bracket and its midpoint as the value."""
    xi_grid = np.linspace(0.0, xi_max, xi_steps)

    def all_real(zeta):
        roots = _solve_batch(n, _zs_from_grid(xi_grid, zeta))
        return bool(np.all(tolerance_flags(roots)))

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
    return GridCritical(n=n, value=0.5 * (lo + hi), bracket=(lo, hi),
                        xi_max=xi_max, xi_steps=xi_steps)


def _veltkamp(x):
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def critical_closed_form(n):
    """The earlier numpy closed form of ``critical_zeta`` for
    xi_max >= xi*: (1 - cos(pi / (n + 1)), y0, xi*), with 1 - cos formed
    as 2 sin^2(h) with the correction of h and Dekker's product."""
    m = 2.0 * (n + 1.0)
    h = np.pi / m
    hi, lo = _veltkamp(h)
    dh = ((np.pi - m * hi) - m * lo + 1.2246467991473532e-16) / m
    s = np.sin(h)
    p = s * s
    s_hi, s_lo = _veltkamp(s)
    e = ((s_hi * s_hi - p) + 2.0 * s_hi * s_lo) + s_lo * s_lo
    value = float(2.0 * (p + (e + 2.0 * s * np.cos(h) * dh)))
    theta = np.pi / (n + 1.0)
    xi_star = float(np.sin(theta) * np.sqrt((n - 1.0) / (n + 1.0)))
    return value, float(np.cos(theta)), xi_star


def hermitian_basis(n):
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


def real_nullspace(a, rank):
    """Kernel of a real matrix of known rank, by complete-pivot elimination.

    The free columns are completed to basis vectors by back substitution;
    a pivot below the smallest normal float raises ValueError.

    Returns an array of shape (ncols, ncols - rank), columns spanning the
    kernel.
    """
    a = a.copy()
    cols = a.shape[1]
    col_perm = np.arange(cols)
    for r in range(rank):
        sub = np.abs(a[r:, r:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if not sub[i, j] >= np.finfo(float).tiny:
            raise ValueError(f"pivot {r + 1} of {rank} underflows")
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
    out = np.zeros_like(sol)
    out[col_perm, :] = sol
    return out


def dieudonne_nullspace_elimination(h):
    """All Hermitian solutions of the intertwining relation, from all n^2
    real Hermitian coordinates.

    Theta is written in ``hermitian_basis``, the real system
    vec(H^dag Theta - Theta H) = (H^dag (x) I - I (x) H^T) vec(Theta) = 0
    is built from the dense H and reduced at its rank n^2 - n by
    ``real_nullspace``, and the kernel is orthonormalized in the Frobenius
    inner product by two MGS passes.

    Parameters
    ----------
    h : TridiagonalHamiltonian

    Returns
    -------
    numpy.ndarray
        Shape (n, n, n): the n basis matrices.
    """
    n = h.n
    hd, eye = h.dense(), np.eye(n)
    coords = np.array(hermitian_basis(n)).reshape(n * n, n * n).T
    with np.errstate(over="ignore", invalid="ignore"):
        system = (np.kron(hd.conj().T, eye) - np.kron(eye, hd.T)) @ coords
    kernel = real_nullspace(np.concatenate([system.real, system.imag]),
                            n * n - n)
    ortho = []
    for m in (coords @ kernel).T.reshape(n, n, n):
        for _ in range(2):
            for o in ortho:
                m = m - np.sum(o.conj() * m).real * o
        ortho.append(m / np.linalg.norm(m))
    return np.array(ortho)


def g17(x):
    """A float as the earlier CLI wrote it: 17 significant digits."""
    return format(float(x), ".17g")


def csv_table(header, rows):
    """The earlier CLI table: the header and each row of strings joined
    by commas, one LF-terminated line each."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def c2(value):
    """A complex number as the earlier CLI wrote it in JSON: [re, im]."""
    value = complex(value)
    return [value.real, value.imag]


def json_text(doc):
    """The earlier CLI document: ``doc`` dumped whole with indent 2, then
    one LF."""
    return json.dumps(doc, indent=2) + "\n"


# The earlier CLI's JSON documents, built from the public API's results
# with its own conversions: ``c2`` for each complex number, ``float`` and
# ``bool`` for each numpy scalar.

def params_json(params):
    if params.coupling_style == "xizeta":
        return {"xi": params.xi, "zeta": params.zeta}
    return {"omega": params.omega, "rho": params.rho}


def spectrum_json(params, spec):
    return {
        "n": params.n,
        "params": params_json(params),
        "convention": params.convention,
        "results": [{"y": c2(y), "energy": c2(e), "is_real": bool(r)}
                    for y, e, r in zip(spec.y_roots, spec.energies,
                                       spec.is_real)],
    }


def wavefn_json(params, index, wf):
    return {
        "n": params.n,
        "params": params_json(params),
        "convention": params.convention,
        "index": index,
        "y": c2(wf.y),
        "energy": c2(wf.energy),
        "residual": wf.residual,
        "components": [c2(c) for c in wf.components],
    }


def metric_json(theta, eigs):
    return {
        "n": theta.n,
        "family": theta.family,
        "params": theta.params,
        "eigenvalues": [float(e) for e in eigs],
        "min_eigenvalue": float(eigs[0]),
        "positive_definite": bool(eigs[0] > 0.0),
    }


def verify_json(report, max_wavefn_residual):
    return {
        "n": report.n,
        "family": report.family,
        "params": report.params,
        "dieudonne_residual": report.dieudonne_residual,
        "min_metric_eigenvalue": report.min_eigenvalue,
        "positive_definite": report.positive_definite,
        "max_wavefn_residual": max_wavefn_residual,
    }


def nullspace_json(params, basis):
    return {
        "n": params.n,
        "params": params_json(params),
        "dimension": len(basis),
        "elements": [[[c2(v) for v in row] for row in b.matrix]
                     for b in basis],
    }


def sweep_json(result):
    return {
        "n": result.n,
        "axis": result.axis,
        "fixed": result.fixed,
        "convention": result.convention,
        "values": [float(v) for v in result.values],
        "energies": [[c2(e) for e in row] for row in result.energies],
        "is_real": [[bool(r) for r in row] for row in result.is_real],
    }


def critical_json(result, xi_steps):
    return {
        "n": result.n,
        "value": result.value,
        "bracket": [result.value, result.value],
        "xi_max": result.xi_max,
        "xi_steps": xi_steps,
    }


def continuum_json(ms, levels=2):
    energies, rescaled, targets = continuum_arrays(ms, levels)
    doubling = all(b == 2 * a for a, b in zip(ms, ms[1:])) and len(ms) > 1
    return {
        "ms": ms,
        "levels": levels,
        "energies": energies.tolist(),
        "rescaled": rescaled.tolist(),
        "targets": targets.tolist(),
        "richardson": (richardson_arrays(rescaled).tolist()
                       if doubling else None),
    }


def locus_json(n, samples):
    t, *values = locus_arrays(n, samples)
    return {
        "n": n,
        "branches": {
            name: {"t": t.tolist(), "zeta": zeta.tolist(), "xi": xi.tolist()}
            for name, zeta, xi in (("y_plus", *values[:2]),
                                   ("y_minus", *values[2:]))
        },
    }


def jsonable(value):
    """The earlier ``default`` hook: a complex number as [re, im], a numpy
    array as lists (a 2-D array row by row), a numpy scalar as its Python
    value."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        if value.ndim > 1:
            return list(value)
        if np.iscomplexobj(value):
            value = np.ascontiguousarray(value).view(float).reshape(-1, 2)
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_hooked(doc):
    """``doc`` as the encoder writes it with ``jsonable``, indent 2."""
    return json.dumps(doc, indent=2, default=jsonable)


def continuum_arrays(ms, levels):
    """The earlier numpy continuum table: (energies, rescaled, targets)."""
    k = np.arange(1, levels + 1)
    energies = np.empty((len(ms), levels))
    rescaled = np.empty_like(energies)
    for i, m in enumerate(ms):
        e = 2.0 - 2.0 * np.cos(k * np.pi / (2.0 * m))
        energies[i] = e
        rescaled[i] = e * ((2.0 * m + 1.0) / 2.0) ** 2
    targets = (k * np.pi / 2.0) ** 2
    return energies, rescaled, targets


def richardson_arrays(rescaled):
    """The earlier numpy Richardson tableau over a doubling M sequence."""
    tab = rescaled.copy()
    for j in range(1, tab.shape[0]):
        fac = 2.0 ** j
        tab = (fac * tab[1:] - tab[:-1]) / (fac - 1.0)
    return tab[0]


def locus_arrays(n, samples=20, t=None):
    """The earlier numpy endpoint loci: (t, zeta+, xi+, zeta-, xi-)."""
    if t is None:
        t = np.linspace(0.0, 1.0, samples)
    t = np.asarray(t, dtype=float)
    zeta_p = t * 2.0 / (n + 1.0)
    xi_p = np.sqrt(np.maximum(2.0 * zeta_p / (n + 1.0) - zeta_p ** 2, 0.0))
    rho_lo = 2.0 - 2.0 / (n + 1.0)
    rho = rho_lo + t * (2.0 - rho_lo)
    zeta_m = (4.0 * n + (n + 1.0) * rho ** 2) / (4.0 * n + 2.0)
    xi_m = np.sqrt(np.maximum(rho ** 2 - zeta_m ** 2, 0.0))
    return t, zeta_p, xi_p, zeta_m, xi_m
