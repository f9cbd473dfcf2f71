"""Spectra and eigenvectors of the endpoint-coupled well.

The eigenvalue problem reduces to a secular polynomial in the Chebyshev
variable y (E = 2 - 2y on the lattice): with a = Re z and b = |z|^2,

    P(y) = U_n(y) - 2 a U_{n-1}(y) + b U_{n-2}(y) = 0.

All coefficients are real, so non-real roots come in conjugate pairs.  A
root is real exactly when its Im y is 0: ``_secular_roots`` stores with Im
exactly 0 the band roots, rows with |z| <= 1, n = 2 with |Im z| <= 1, real
z and an outer pair with D >= 0, and a complex pair always has
|Im y| >= 2 eps, because ``_outer_roots`` raises |D| to its floor and
keeps its sign.

The secular solve (``_secular_roots``, behind ``solve_spectrum`` and the
sweeps) rests on a structure theorem.  Put
y = (t + 1/t)/2; then (t - 1/t) P(y) = t^-(n+1) [t^(2n) q(t) - r(t)] with
q(t) = (t - z)(t - zb) and r(t) = (1 - z t)(1 - zb t), and |q| = |r| on
the unit circle t = e^(i gamma).  So y = cos(gamma), 0 < gamma < pi, is a
root exactly where the half-phase

    psi(gamma) = n gamma + atan2((1 - b) sin gamma, (1 + b) cos gamma - 2 a)

crosses a level pi k (the substitution of Yueh & Cheng, ANZIAM J. 2008,
for Toeplitz matrices with perturbed corners).  psi(0) = 0 and
psi(pi) = (n + 1) pi for |z| < 1, (n - 1) pi for |z| > 1.

- |z| < 1: psi' > n, so levels 1 .. n give all n roots, all real.
- |z| > 1: psi' = 0 is a quadratic in cos(gamma), so psi has at most two
  critical points and at most three monotone pieces (a piece can fall:
  1 < |z| <= (n + 1)/(n - 1)).  Each level strictly between the end
  values of a piece is crossed once on it; levels 1 .. n - 2 always are.
- |z| = 1 (b == 1 in floating point): the roots are cos(pi k / n),
  k = 1 .. n - 1, and Re z, in closed form.  At n = 2, P is the quadratic
  4 y^2 - 4 a y + b - 1, solved in closed form.

Each crossing is solved by a safeguarded Newton iteration (``rtsafe`` of
*Numerical Recipes*: a Newton step, here with Halley's correction, and
bisection when a step would leave the bracket or fails to halve the one
before), vectorized over all couplings and levels and stopped at the
round-off bound of psi.  That is O(n) work per
coupling, with no polynomial evaluation and nothing that can overflow.
A crossing takes about three evaluations of psi and four or five calls
of cos or sin: its first iterate is the midpoint of its window, whose
cosine and sine come from a table of the n + 1 windows, its root is the
cosine of its last iterate, and psi' and psi'' are evaluated only while
it still moves.
At most two roots are left off the band, y = m -/+ sqrt(D) with m and D
real.  They start from the trace identities sum y = a and
sum y^2 = a^2 - (b - n + 1)/2 minus the band roots, and every step fits
the quadratic factor (y - m)^2 - D of P anew from P'/P at the two roots,
deflated by the band roots (Bairstow's idea of solving a real pair as
one quadratic).  P'/P comes in O(1) from t (|t| <= 1), with the factor
r(t) kept in factored form, so a nearly degenerate bound pair, real or
not, and a pair next to an exceptional point are resolved to the
round-off of P; D changes sign where a pair turns from real to complex.
A conjugate pair is returned as exact conjugates, and a real z gets real
roots (H is real symmetric).  Every step is elementwise or a reduction
along one coupling's row, so a coupling's roots do not depend on which
other couplings share its batch.  A value that is not finite never
counts as converged; a solve that does not converge within ``max_iter``
steps of a stage raises ``NoConvergence``, and so does a solve that would
return a root that is not finite.

Each eigenvector (``wavefunction``) comes from one twisted factorization
of H - E, O(n) per root, with no division by y and no branch on it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence
from .model import (ModelParams, TridiagonalHamiltonian, build_hamiltonian,
                    energy_from_y, is_integer)

_EPS = np.finfo(float).eps

# The batched solve works through its couplings in blocks of
# max(1, _BLOCK_CROSSINGS // n) rows, about this many band crossings each.
# Roots do not depend on it.  On the 2,000-point sweeps of the reality-scan
# benchmark (n = 8 and 32, a shared 2-vCPU Xeon) the solve ran about
# equally fast at 4,000 to 16,000 crossings a block and 30-40% slower at
# 2,000.  Its peak traced memory is 2.8 MB at n = 8 and 3.5 MB at n = 32
# (3.8 MB with the earlier 250-row blocks) and doubles with the budget.
_BLOCK_CROSSINGS = 8000

# An exact zero pivot of the twisted factorization becomes this value.
_TINY = float(np.finfo(float).tiny)


def secular_polynomial(params):
    """Secular polynomial of the well in the second-kind Chebyshev basis.

    Parameters
    ----------
    params : ModelParams

    Returns
    -------
    numpy.ndarray
        The n + 1 coefficients of z zb U_{n-2} - (z + zb) U_{n-1} + U_n,
        low degree first: (|z|^2, -2 Re z, 1) at degrees (n-2, n-1, n)
        and 0 below.
    """
    z = params.z
    c = np.zeros(params.n + 1)
    c[params.n - 2] = abs(z) ** 2
    c[params.n - 1] = -2.0 * z.real
    c[params.n] = 1.0
    return c


def _phase_coef(a, b, m2, p2):
    """The constants of psi for ``_half_phase`` and ``_phase_slope``:
    (2 a, 1 - b, 1 + b, (1 - b)^2, m2, p2)."""
    omb = 1.0 - b
    return 2.0 * a, omb, 1.0 + b, omb * omb, m2, p2


def _half_phase(n, gamma, x, s, coef):
    """Half-phase of the band equation and a bound on its round-off, at
    gamma with x = cos(gamma), s = sin(gamma) and ``coef`` from
    ``_phase_coef``.

    psi(gamma) = n gamma + theta(gamma) with
    theta = atan2((1 - b) sin gamma, (1 + b) cos gamma - 2 a), a = Re z and
    b = |z|^2; y = cos(gamma) is a root exactly where psi = pi k.  The
    second argument is taken as
    |1 - z|^2 - (1 + b)(1 - cos gamma) when cos gamma >= 0 and as
    (1 + b)(1 + cos gamma) - |1 + z|^2 otherwise, with m2 = |1 - z|^2 and
    p2 = |1 + z|^2 from z itself, which keeps it accurate at the band
    edges when z is near +/-1.  The bound covers the rounding of n gamma,
    of atan2 and of its two arguments; it grows where theta turns steeply
    (|z| near 1), and it vanishes with gamma, so roots near y = 1 keep
    their relative accuracy.

    Returns (psi, bound, parts); ``_phase_slope`` takes psi' and
    psi''/psi' from ``parts``.
    """
    _, omb, opb, _, m2, p2 = coef
    upper = x >= 0.0
    # 1 - x or 1 + x, whichever is not a cancellation, and the edge term.
    gap = s * s / (1.0 + np.abs(x))
    edge = np.where(upper, m2, p2)
    num = omb * s
    bulk = opb * gap
    den = edge - bulk
    den = np.where(upper, den, -den)
    h = num * num + den * den
    theta = np.arctan2(num, den)
    abs_den = np.abs(den)
    noise = np.abs(theta) + np.abs(num) * (abs_den + abs_den + edge + bulk) / h
    n_gamma = n * gamma
    return (n_gamma + theta, 4.0 * _EPS * (n_gamma + noise),
            (x, s, gap, edge, num, den, h))


def _phase_slope(n, coef, parts):
    """psi' and psi''/psi' (infinite where psi' = 0) from the ``parts`` of
    ``_half_phase``."""
    two_a, omb, opb, omb2, _, _ = coef
    x, s, gap, edge, num, den, h = parts
    tilt = two_a * gap
    slope = omb * np.where(x >= 0.0, edge + tilt, edge - tilt) / h
    with np.errstate(divide="ignore", invalid="ignore"):
        bend = (two_a * num - slope * 2.0 * s * (omb2 * x - opb * den)) / h / (
            n + slope)
    return n + slope, bend


def _monotone_pieces(n, a, b, m2, p2):
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
        coef = _phase_coef(ao[:, None], bo[:, None], m2[idx, None],
                           p2[idx, None])
        psi = _half_phase(n, crit, np.cos(crit), np.sin(crit), coef)[0]
        ends[idx, 1:3] = crit
        levels[idx, 1:3] = np.where(crit < np.pi, psi / np.pi, n - 1.0)
    return ends, levels


def _crossings(n, a, b, m2, p2):
    """The level crossings of the rows, their brackets and first iterates.

    Returns (row, coef, target, xl, xh, gamma, dx, x, s) per crossing: its
    row and the ``_phase_coef`` of that row, its level pi k, the bracket
    ends xl (psi < pi k) and xh, its midpoint gamma and width dx, and
    x = cos(gamma), s = sin(gamma).  The bracket is the window
    [pi j / n, pi (j + 1) / n], j = k - 1 for |z| < 1 and j = k for
    |z| > 1 (|theta| <= pi puts the crossing there, and j in 0 .. n),
    widened by a few ulps and cut to the monotone piece.  x and s come
    from a table of the n + 1 window midpoints unless the piece cuts the
    window.
    """
    ends, levels = _monotone_pieces(n, a, b, m2, p2)
    lo_l, hi_l = levels[:, :3].ravel(), levels[:, 1:].ravel()
    kmin = np.floor(np.minimum(lo_l, hi_l)) + 1.0
    count = np.maximum(np.ceil(np.maximum(lo_l, hi_l)) - kmin, 0.0)
    piece = np.repeat(np.arange(lo_l.size), count.astype(np.intp))
    first = np.cumsum(count) - count
    k = kmin[piece] + (np.arange(piece.size) - first[piece])
    row = piece // 3
    coef = _phase_coef(a[row], b[row], m2[row], p2[row])
    win = np.arange(n + 1.0)
    win_lo = win * np.pi / n - 4.0 * _EPS
    win_hi = (win + 1.0) * np.pi / n + 4.0 * _EPS
    win_mid = 0.5 * (win_lo + win_hi)
    j = (k - 1.0 + (b[row] > 1.0)).astype(np.intp)
    lo = np.maximum(ends[:, :3].ravel()[piece], win_lo[j])
    hi = np.minimum(ends[:, 1:].ravel()[piece], win_hi[j])
    rising = (hi_l > lo_l)[piece]
    gamma = 0.5 * (lo + hi)
    x, s = np.cos(win_mid)[j], np.sin(win_mid)[j]
    cut = np.flatnonzero(gamma != win_mid[j])
    x[cut], s[cut] = np.cos(gamma[cut]), np.sin(gamma[cut])
    return (row, coef, k * np.pi, np.where(rising, lo, hi),
            np.where(rising, hi, lo), gamma, np.abs(hi - lo), x, s)


def _band_roots(n, a, b, m2, p2, max_iter):
    """Real roots y = cos(gamma), 0 < gamma < pi, of the rows with b != 1.

    Every level pi k strictly between the end values of a monotone piece
    of psi is crossed once on that piece, inside a window of width pi / n
    (``_crossings``).  The solve is a safeguarded Newton iteration
    (``rtsafe`` of *Numerical Recipes*) on that bracket, with Halley's
    correction of the Newton step by psi'', vectorized over all
    crossings, from the midpoint of the bracket.  A crossing is accepted
    when |psi - pi k| is at the round-off bound of ``_half_phase`` or the
    step is below two ulps of gamma; psi' and psi'' are computed only for
    the crossings that go on.  Each root is the cosine of its last
    iterate.

    Returns
    -------
    (y, row) : numpy.ndarray
        The roots and the row of each, ordered by row, then by piece, then
        by level.
    """
    row, coef, target, xl, xh, gamma, dx, x, s = _crossings(n, a, b, m2, p2)
    dx_old = dx
    psi, noise, parts = _half_phase(n, gamma, x, s, coef)
    f = psi - target
    # y holds each crossing's root once it is accepted; x is never
    # written in place, so y can start as it.
    y = x
    moving = ~(np.abs(f) <= noise)
    live = np.arange(f.size)
    for it in range(max_iter + 1):
        if not moving.all():
            keep = np.flatnonzero(moving)
            done = np.flatnonzero(~moving)
            y[live[done]] = x[done]
            live = live[keep]
            xl, xh, gamma, dx, dx_old, f, target = (
                v[keep] for v in (xl, xh, gamma, dx, dx_old, f, target))
            coef = tuple(v[keep] for v in coef)
            parts = tuple(v[keep] for v in parts)
            x = parts[0]
        if live.size == 0 or it == max_iter:
            break
        dpsi, bend = _phase_slope(n, coef, parts)
        # Bisect when Newton would leave the bracket or would not halve
        # the step before the last one.
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / dpsi
            step = step / (1.0 - 0.5 * step * bend)
            newton = gamma - step
            bisect = ~(((newton - xh) * (newton - xl) <= 0.0)
                       & (np.abs(step + step) <= np.abs(dx_old)))
        dx_old = dx
        dx = np.where(bisect, 0.5 * (xh - xl), step)
        gamma = np.where(bisect, xl + dx, newton)
        # Drop the last evaluation before the next: it sets the peak memory.
        del parts, dpsi, bend, step, newton, bisect
        x, s = np.cos(gamma), np.sin(gamma)
        psi, noise, parts = _half_phase(n, gamma, x, s, coef)
        f = psi - target
        moving = ~((np.abs(dx) <= 2.0 * _EPS * gamma) | (np.abs(f) <= noise))
        below = f < 0.0
        xl = np.where(below, gamma, xl)
        xh = np.where(below, xh, gamma)
    if live.size:
        y[live] = x
        raise NoConvergence(
            f"band root iteration did not converge in {max_iter} steps",
            best=y)
    return y, row


def _log_derivative(n, z, y):
    """P'/P of the secular polynomial at the points y, and a flag that P
    is at its round-off floor there.

    With t = e^L = 1 / (y + sqrt(y - 1) sqrt(y + 1)), so |t| <= 1 and
    y = (t + 1/t) / 2, U_k(y) = t^-k (1 - t^(2k+2)) / (1 - t^2) gives

        P(y) = t^-n N,  N = r(t) Q(t) + (1 - |z|^2) t^(2n),

    with r = (1 - z t)(1 - zb t) and Q = sum_(k<n) t^(2k) =
    expm1(2 n L) / expm1(2 L).  The factor 1 / (1 - t^2) that degenerates
    at t = +/-1 has cancelled, nothing overflows, and r in factored form
    keeps its relative accuracy next to its zeros t = 1/z, 1/zb, where
    the bound pair sits.  With ' = d/dL and sinh L = -sqrt(y - 1)
    sqrt(y + 1), P'/P = (N'/N - n) / sinh L.  For Re y < 0 the value is
    taken at -y with -z (P(y) = (-1)^n P_(-z)(-y)), so t stays near +1,
    and at y = 1 exactly (L = 0) from U_k(1) = k + 1 and
    U_k'(1) = k (k + 1) (k + 2) / 3.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        flip = np.where(y.real < 0.0, -1.0, 1.0)
        y, z = flip * y, flip * z
        root = np.sqrt(y - 1.0) * np.sqrt(y + 1.0)
        s = y + root
        t = 1.0 / s
        log_t = -np.log(s)
        e2 = np.expm1(2.0 * log_t)
        tn = np.exp(2.0 * n * log_t)
        q = np.expm1(2.0 * n * log_t) / e2
        dq = 2.0 * (n * tn - q * t * t) / e2
        zb = np.conj(z)
        u, v = 1.0 - z * t, 1.0 - zb * t
        r = u * v
        dr = -t * (z * v + zb * u)
        mod = np.abs(z)
        one_b = (1.0 - mod) * (1.0 + mod)
        g = r * q + one_b * tn
        dg = dr * q + r * dq + 2.0 * n * one_b * tn
        dlog = flip * (dg / g - n) / -root
        noise = 4.0 * _EPS * (np.abs(q) * (np.abs(r) + mod * np.abs(t) * (
            np.abs(u) + np.abs(v))) + (2.0 + mod * mod) * np.abs(tn))
        # y = +/-1: P(1) and P'(1) from U_k(1) and U_k'(1).
        a, b = z.real, mod * mod
        p1 = (n + 1.0) - 2.0 * a * n + b * (n - 1.0)
        dp1 = n * ((n + 1.0) * (n + 2.0) - 2.0 * a * (n - 1.0) * (n + 1.0)
                   + b * (n - 2.0) * (n - 1.0)) / 3.0
        edge = root == 0.0
        g = np.where(edge, p1, g)
        dlog = np.where(edge, flip * dp1 / p1, dlog)
        noise = np.where(edge, 4.0 * _EPS * (
            n + 1.0 + 2.0 * np.abs(a) * n + b * (n - 1.0)), noise)
    return dlog, np.isfinite(noise) & (np.abs(g) <= noise)


def _newton_step(n, z, y, band):
    """1/d and the floor flag at the points y, with d = P'/P(y) minus
    sum 1/(y - y_k) over the band roots y_k, so that d is the log
    derivative of the factor of P that the band roots leave."""
    dlog, flat = _log_derivative(n, z, y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return 1.0 / (dlog - np.sum(1.0 / (y[:, None] - band), axis=1)), flat


def _outer_roots(n, z, band, max_iter):
    """The roots left after the band crossings, for rows with |z| > 1.

    ``band`` holds each row's band roots, padded with +inf to n columns;
    a row has one or two roots left.  The band roots are real and P has
    real coefficients, so two roots left are y = m -/+ h with h^2 = D and
    m, D real: a real pair for D >= 0, an exact conjugate pair for D < 0.
    One root left is m, with D = 0.  The start is the Vieta sums of the
    spectrum, sum y = a and sum y^2 = a^2 - (b - n + 1) / 2, minus the
    band's; a pair that starts with |D| below (1e-6 max(1, |m|))^2 starts
    from D = -(1e-6 max(1, |m|))^2, so that its two points are apart.
    Each step takes c_i = 1/d_i from ``_newton_step`` at the two roots
    (the mate of a complex root is its conjugate and is not evaluated) and
    fits the quadratic factor anew: if the factor that the band roots
    leave is (y - m + u)^2 - D', then 2 c_i x_i = x_i^2 - D' with
    x_i = y_i - m + u, which gives u = h (c_1 + c_2) / (2 h + c_1 - c_2)
    and D' = x_i (x_i - 2 c_i).  This is Bairstow's idea of solving a real
    pair as one quadratic, and it converges where the pair is nearly
    double too; D can cross 0, so a pair turns from complex to real or
    back next to an exceptional point.  A new |D| below the rounding
    4 eps |D| of its computation (or below (2 eps max(1, |m|))^2) is
    raised to it with its sign: the pair is double to that resolution,
    and its two points stay apart.  A lone root takes Newton's step
    m - c_1.  A row is accepted when its roots move by at most 4 ulps of
    max(1, |y|), or when P is at its round-off floor at both and the step
    no longer halves; an overflowed value or floor is never accepted.

    Returns
    -------
    numpy.ndarray
        Shape (rows, 2); a row with one root left has nan in column 1.
    """
    a, w = z.real, z.imag
    finite = np.isfinite(band)
    two = n - np.count_nonzero(finite, axis=1) == 2
    y_band = np.where(finite, band, 0.0)
    s1 = a - np.sum(y_band, axis=1)
    s2 = a * a - 0.5 * (a * a + w * w - n + 1.0) - np.sum(y_band * y_band,
                                                          axis=1)
    m = np.where(two, 0.5 * s1, s1)
    d = np.where(two, 0.25 * (2.0 * s2 - s1 * s1), 0.0)
    seed = np.square(1e-6 * np.maximum(1.0, np.abs(m)))
    d = np.where(two & (np.abs(d) < seed), -seed, d)
    step = np.full(z.size, np.inf)
    # A start that is not finite (|z| near overflow) is returned as it is.
    live = np.flatnonzero(np.isfinite(m) & np.isfinite(d))
    for _ in range(max_iter):
        if live.size == 0:
            break
        lm, ld, lz, lb = m[live], d[live], z[live], band[live]
        h = np.sqrt(ld + 0j)
        c1, flat = _newton_step(n, lz, lm - h, lb)
        c2 = np.conj(c1)
        real = np.flatnonzero(ld > 0.0)
        if real.size:
            c2[real], flat2 = _newton_step(n, lz[real], lm[real] + h[real],
                                           lb[real])
            flat[real] &= flat2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # The quadratic (y - m + u)^2 - D' with these c_1, c_2.
            pair = two[live]
            u = np.where(pair, h * (c1 + c2) / (2.0 * h + (c1 - c2)), c1)
            x1, x2 = u - h, u + h
            new_m = lm - u.real
            new_d = 0.5 * (x1 * (x1 - 2.0 * c1) + x2 * (x2 - 2.0 * c2)).real
            # A |D| below the rounding of its computation is raised to it.
            noise = np.maximum(4.0 * _EPS * np.abs(ld), np.square(
                2.0 * _EPS * np.maximum(1.0, np.abs(new_m))))
            new_d = np.where(pair, np.where(np.abs(new_d) < noise, np.copysign(
                noise, new_d), new_d), 0.0)
            new_h = np.sqrt(new_d + 0j)
            move = np.maximum(np.abs(new_m - lm - (new_h - h)),
                              np.abs(new_m - lm + (new_h - h)))
        ok = np.isfinite(move)
        # At the floor, accept once the steps stop shrinking: near a
        # merging pair they wander in the noise ball.
        done = flat & ~(move < 0.5 * step[live])
        take = ok & ~done
        m[live] = np.where(take, new_m, lm)
        d[live] = np.where(take, new_d, ld)
        step[live] = move
        done |= ok & (move <= 4.0 * _EPS * np.maximum(
            1.0, np.abs(new_m) + np.abs(new_h)))
        live = live[~done]
    h = np.sqrt(d + 0j)
    out = np.stack([m - h, np.where(two, m + h, np.nan)], axis=1)
    if live.size:
        raise NoConvergence(
            f"outer root iteration did not converge in {max_iter} steps",
            best=out)
    return out


def _secular_roots(n, zs, max_iter):
    """Secular roots of the couplings ``zs``, one row each, sorted by
    (Re, Im) with a stable sort, so tied roots keep their order.

    At n = 2, P is a quadratic and every row takes its closed form; that
    is also several times cheaper than the phase solve, whose fixed cost
    per call dominates there.  Rows with b = |z|^2 = 1 exactly take the
    closed form cos(pi k / n), k = 1 .. n - 1, plus Re z.  Every other row
    takes its band roots from ``_band_roots`` and, when |z| > 1, the one or
    two roots left from ``_outer_roots``; a real z gets real roots.  Every
    step is elementwise or a reduction along one row, so a row's roots do
    not depend on the other rows of the batch.  ``max_iter`` is the
    iteration budget of each stage.  A batch with a root that is not
    finite (|z| near the square root of the largest float, or a nan
    coupling) raises ``NoConvergence``; the overflow on the way there
    raises no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        zs = np.asarray(zs, dtype=complex).reshape(-1)
        a, w = zs.real.copy(), zs.imag.copy()
        if n == 2:
            # P = 4 y^2 - 4 a y + |z|^2 - 1, with discriminant 16 (1 - w^2).
            root = np.sqrt(((1.0 - np.abs(w)) * (1.0 + np.abs(w))) + 0j)
            return _finite(np.sort(np.stack(
                [0.5 * (a - root), 0.5 * (a + root)], axis=1), kind="stable"))
        b = a * a + w * w
        roots = np.full((zs.size, n), np.inf, dtype=complex)
        unit = b == 1.0
        roots[unit, :n - 1] = np.cos(np.pi * np.arange(1, n) / n)
        roots[unit, n - 1] = a[unit]
        rows = np.flatnonzero(~unit)
        m2 = (1.0 - a[rows]) ** 2 + w[rows] ** 2
        p2 = (1.0 + a[rows]) ** 2 + w[rows] ** 2
        y, row = _band_roots(n, a[rows], b[rows], m2, p2, max_iter)
        count = np.bincount(row, minlength=rows.size)
        if np.any(count > n):
            raise NoConvergence("more band crossings than roots",
                                best=roots)
        slot = np.arange(row.size) - (np.cumsum(count) - count)[row]
        roots[rows[row], slot] = y
        outer = rows[count < n]
        left = n - count[count < n]
        if np.any(left > 2):
            raise NoConvergence("more than two roots left off the band",
                                best=roots)
        if outer.size:
            got = _outer_roots(n, zs[outer], roots[outer].real, max_iter)
            for c in (0, 1):
                sel = np.isfinite(got[:, c])
                roots[outer[sel], n - left[sel] + c] = got[sel, c]
            real_z = w[outer] == 0.0
            roots[outer[real_z]] = roots[outer[real_z]].real
        return _finite(np.sort(roots, kind="stable"))


def _finite(roots):
    """``roots``; raises ``NoConvergence`` if one of them is not finite."""
    if not np.isfinite(roots).all():
        raise NoConvergence("a root is not finite (overflow, inf or nan)",
                            best=roots)
    return roots


def _solve_batch(n, zs, max_iter=500):
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
        Roots of shape (npoly, n), each row sorted by (Re, Im); a
        conjugate pair is exact and comes out (-Im, +Im).  Row i is bitwise
        ``solve_spectrum`` at coupling zs[i].  The rows are solved in
        blocks of about ``_BLOCK_CROSSINGS`` band crossings.
    """
    zs = np.asarray(zs, dtype=complex)
    rows = max(1, _BLOCK_CROSSINGS // n)
    # Filled block by block: no list of blocks next to their concatenation.
    roots = np.empty((zs.size, n), dtype=complex)
    for lo in range(0, zs.size, rows):
        roots[lo:lo + rows] = _secular_roots(n, zs[lo:lo + rows], max_iter)
    return roots


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
        Site amplitudes phi_1 .. phi_n with phi_1 = 1 exactly, or with
        max |phi_m| = 1 for a mode bound at site n whose phi_1 is below
        2^-500 of its largest amplitude.
    residual : float
        ||(H - E) phi||_2 / ||phi||_2.
    """

    y: complex
    energy: complex
    components: np.ndarray
    residual: float


def _pivots(d):
    """Pivots D_i = d_i - 1 / D_(i-1) of tridiag(-1, d, -1), row 1 down."""
    piv = np.inf
    out = []
    for di in d:
        piv = (di - 1.0 / piv) or _TINY
        out.append(piv)
    return np.array(out)


def wavefunction(params, y):
    """Eigenvector at the secular root y.

    The site amplitudes are the closed form
    phi_m = (z / y) T_(m-1)(y) + (1 - z / y) U_(m-1)(y), normalized to
    phi_1 = 1.  They are computed from the twisted factorization of
    H - E = tridiag(-1, d, -1) (Fernando, SIAM J. Matrix Anal. Appl. 18,
    1997; Parlett & Dhillon, Linear Algebra Appl. 267, 1997), in O(n)
    and with no division by y.  With the pivots D+ of the elimination
    from the top and D- from the bottom, gamma_i = D+_i + D-_i - d_i is
    the defect of the vector twisted at site i, (H - E) phi = gamma_i e_i.
    The twist r minimizes |gamma_r|; phi_r = 1, and the recurrence runs
    away from r on both sides: phi_i = phi_(i+1) / D+_i for i < r and
    phi_i = phi_(i-1) / D-_i for i > r.  An exact zero pivot becomes the
    smallest normal float, the standard remedy.

    The vector is scaled to phi_1 = 1 exactly, unless phi_1 is below
    2^-500 of the largest amplitude (a mode bound at site n with |z|^n
    beyond about 1e150); then it is scaled to max |phi_m| = 1.

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
    y = complex(y)
    energy = complex(energy_from_y(y, params.convention))
    h = build_hamiltonian(params)
    d = h.diagonal() - energy
    down = _pivots(d.tolist())
    up = _pivots(d[::-1].tolist())[::-1]
    r = int(np.argmin(np.abs(down + up - d)))
    phi = np.ones(params.n, dtype=complex)
    phi[:r] = np.cumprod(1.0 / down[:r][::-1])[::-1]
    phi[r + 1:] = np.cumprod(1.0 / up[r + 1:])
    big = np.max(np.abs(phi))
    if big < 2.0 ** 500 * abs(phi[0]):
        phi /= phi[0]
        phi[0] = 1.0
    else:
        phi /= big
    res = eigen_residual(h, energy, phi)
    if res > 1e-8:
        warnings.warn(
            f"y = {y} is not an eigenvalue (relative residual {res:.3e})",
            stacklevel=2)
    return Wavefunction(y=y, energy=energy, components=phi, residual=res)


def eigen_residual(h, energy, phi):
    """Relative eigen-residual ||(H - E) phi||_2 / ||phi||_2.

    Parameters
    ----------
    h : TridiagonalHamiltonian
    energy : complex
    phi : array_like
        Candidate eigenvector.

    Returns
    -------
    float
    """
    if not isinstance(h, TridiagonalHamiltonian):
        raise TypeError("h must be a TridiagonalHamiltonian")
    phi = np.asarray(phi, dtype=complex)
    if phi.size != h.n:
        raise DimensionMismatch(
            f"vector has {phi.size} entries, operator has {h.n} sites")
    # (H phi)_m = d_m phi_m - phi_{m-1} - phi_{m+1}, corners included.
    out = h.diagonal() * phi
    out[:-1] -= phi[1:]
    out[1:] -= phi[:-1]
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
        Im y == 0 per root: the solve returns a real root with Im exactly 0
        and a complex pair with |Im y| >= 2 eps.
    wavefunctions : list of Wavefunction or None
        Present when requested from ``solve_spectrum``.
    """

    params: ModelParams
    y_roots: np.ndarray
    energies: np.ndarray
    is_real: np.ndarray
    wavefunctions: list | None = None


def reality_flags(y_roots):
    """Per-root reality flags, Im y == 0: the solve stores a real root with
    Im exactly 0 and a complex pair with |Im y| >= 2 eps."""
    return np.asarray(y_roots).imag == 0.0


def solve_spectrum(params, max_iter=500, with_wavefunctions=False):
    """Solve the secular equation for one parameter point.

    Parameters
    ----------
    params : ModelParams
    max_iter : int
        Iteration budget of each stage of the solve (band crossings,
        roots off the band), an integer >= 0; exceeding it raises
        ``NoConvergence``, whose ``best`` holds the iterates.  So does a
        root that is not finite.
    with_wavefunctions : bool
        Also build the eigenvector at every root.

    Returns
    -------
    Spectrum
        The roots are sorted by (Re, Im); a conjugate pair is exact and
        comes out (-Im, +Im).  The solve is O(n) per coupling and covers
        n up to 65,536 and |z| from 0 to 1e3 (see the module docstring).
    """
    if not is_integer(max_iter) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter}")
    y_roots = _secular_roots(params.n, [params.z], max_iter)[0]
    energies = energy_from_y(y_roots, params.convention)
    wfs = None
    if with_wavefunctions:
        wfs = [wavefunction(params, y) for y in y_roots]
    return Spectrum(params=params, y_roots=y_roots, energies=energies,
                    is_real=reality_flags(y_roots), wavefunctions=wfs)
