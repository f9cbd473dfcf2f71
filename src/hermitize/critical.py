"""The critical detuning: the largest zeta with an all-real spectrum.

A spectrum turns complex only through an exceptional point (EP), a real
double root of the secular polynomial, and the equations of an EP are
linear in (Re z, |z|^2).  So ``critical_zeta`` is a closed form on the
EP curve, with no spectrum solved: 1 - cos(pi / (n + 1)) when the xi
range reaches the EP's xi, and otherwise the EP on the edge of the range.

The closed form is computed in ``math``, so the default case imports no
numpy; the O(n) edge iteration imports it when it is reached.
"""

import math
import sys
from dataclasses import dataclass

from .errors import NoConvergence
from .model import _check_tolerance, check_size


@dataclass
class CriticalResult:
    """Critical detuning below which the spectrum stays real for all xi.

    Attributes
    ----------
    n : int
    value : float
        zeta_c: for every zeta < value the spectrum is real at every
        0 <= xi <= xi_max, and at zeta = value it has an exceptional point
        (EP) with xi <= xi_max.
    xi_max : float
        Upper end of the xi range.
    ep_y, ep_xi : float
        The EP where the value is attained: its real double root y and
        its xi.
    """

    n: int
    value: float
    xi_max: float
    ep_y: float
    ep_xi: float


# pi - math.pi, so that math.pi + _PI_LO is pi to about 2^-107.
_PI_LO = 1.2246467991473532e-16


def _split(x):
    """x = hi + lo with hi on 26 bits (Veltkamp), so hi * hi, hi * lo and
    small integers times hi are exact."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _one_minus_cos(n):
    """1 - cos(pi / (n + 1)) = 2 sin^2(h), h = pi / (2 (n + 1)), to within
    2 ulps.

    Plain floats lose up to 3.8 ulps, mostly to the rounding of pi and of
    the division, which the square doubles.  So h gets its first-order
    correction dh (m hi is exact and pi - m hi is exact by Sterbenz's
    lemma), and sin^2 is formed as p + e exactly (Dekker's product) before
    the one rounding.
    """
    m = 2.0 * (n + 1.0)
    h = math.pi / m
    hi, lo = _split(h)
    dh = ((math.pi - m * hi) - m * lo + _PI_LO) / m
    s = math.sin(h)
    p = s * s
    s_hi, s_lo = _split(s)
    e = ((s_hi * s_hi - p) + 2.0 * s_hi * s_lo) + s_lo * s_lo
    return float(2.0 * (p + (e + 2.0 * s * math.cos(h) * dh)))


def _ep_curve(n, v):
    """The EP whose real double root is y = cos(sqrt(v)).

    P = P' = 0 at y is linear in (a, b) = (Re z, |z|^2); by the confluent
    Christoffel-Darboux sums S_m = sum_(j<=m) U_j(y)^2 its solution is
    a = y + U_(n-1) U_(n-2) / (2 S), b = S_(n-1) / S and
    b - a^2 = T / S^2, with S = S_(n-2) and T = sum_(j<=n-2) (n-1-j) U_j^2.
    So, with z = 1 / (1 - zeta - i xi),

        zeta = ((1 - y) S + U_(n-1) (U_(n-1) - U_(n-2) / 2)) / S_(n-1),
        xi = sqrt(T) / S_(n-1),

    and xi is a ratio of sums of positive terms at every real y, so it
    keeps its relative accuracy where it is tiny.  v > 0 is
    inside the band (y = cos g, U_j = sin((j+1) g) / sin g); v < 0 is
    outside, y = cosh(lam), lam = sqrt(-v), where the U_j are taken
    relative to e^((n-1) lam) in the ratio form of t = e^-lam,
    e^-((n-1-j) lam) expm1(-2 (j+1) lam) / expm1(-2 lam).  v is the Newton
    variable because y(v) is smooth through the band edge y = 1.

    Returns
    -------
    (zeta, log xi, d log xi / dv, y)
    """
    import numpy as np

    k = np.arange(1.0, n + 1.0)
    if v > 0.0:
        g = np.sqrt(v)
        sin_g = np.sin(g)
        u = np.sin(k * g) / sin_g
        du = (k * np.cos(k * g) - u * np.cos(g)) / sin_g / (2.0 * g)
        one_minus_y = 2.0 * np.sin(0.5 * g) ** 2
        scale = 0.0
    elif v < 0.0:
        lam = np.sqrt(-v)
        e2 = np.expm1(-2.0 * lam)
        u = np.exp(-(n - k) * lam) * np.expm1(-2.0 * k * lam) / e2
        # dU/dlam = (k cosh(k lam) - U cosh(lam)) / sinh(lam), scaled alike.
        du = (k * (np.exp(-(n - k) * lam) + np.exp(-(n + k) * lam)) / -e2
              - u / np.tanh(lam)) / (-2.0 * lam)
        one_minus_y = -2.0 * np.sinh(0.5 * lam) ** 2
        scale = (n - 1.0) * lam
    else:
        u = k
        du = -k * (k * k - 1.0) / 6.0
        one_minus_y = 0.0
        scale = 0.0
    weight = n - k[:-1]
    sq = u[:-1] * u[:-1]
    s = np.sum(sq)
    s_all = s + u[-1] * u[-1]
    t = np.sum(weight * sq)
    zeta = (one_minus_y * s + u[-1] * (u[-1] - 0.5 * u[-2])) / s_all
    # Far out (xi below about 1e-300) T underflows: log xi = -inf is still
    # below any target, and the bracket keeps the iteration inside.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_xi = 0.5 * np.log(t) - np.log(s_all) - scale
        dlog = (np.sum(weight * u[:-1] * du[:-1]) / t
                - 2.0 * np.sum(u * du) / s_all)
    return float(zeta), float(log_xi), float(dlog), float(1.0 - one_minus_y)


def _edge_ep(n, theta, xi_max):
    """The EP with xi = xi_max on the side y > y0 = cos(theta) of the EP
    curve, where xi falls from xi* to 0 as y grows; returns the
    ``_ep_curve`` tuple there.

    A safeguarded Newton iteration (``rtsafe`` of *Numerical Recipes*) on
    log xi(v) = log xi_max, on a bracket whose lower end steps out past
    the band edge (v = -lam^2, lam doubling) until xi < xi_max.
    """
    import numpy as np

    target = np.log(xi_max)
    lo, hi, lam = 0.0, theta * theta, theta
    while not _ep_curve(n, lo)[1] < target:
        if lam > 700.0:
            raise NoConvergence(f"no EP found with xi <= {xi_max}")
        lo, lam = -lam * lam, 2.0 * lam
    v = 0.5 * (lo + hi)
    dx = dx_old = hi - lo
    for _ in range(200):
        point = _ep_curve(n, v)
        f = point[1] - target
        if f < 0.0:
            lo = v
        else:
            hi = v
        if f == 0.0 or abs(dx) <= (4.0 * sys.float_info.epsilon
                                   * max(theta * theta, abs(v))):
            return point
        # Bisect when Newton would leave the bracket or would not halve
        # the step before the last one.
        step = f / point[2]
        if lo < v - step < hi and abs(2.0 * step) <= abs(dx_old):
            dx_old, dx = dx, step
            v -= step
        else:
            dx_old, dx = dx, 0.5 * (hi - lo)
            v = lo + dx
    raise NoConvergence("EP iteration did not converge in 200 steps")


def critical_zeta(n, xi_max=10.0):
    """The largest zeta below which the spectrum is real for every xi in
    [0, xi_max], in closed form.

    A spectrum turns complex only through an exceptional point (EP), a
    real double root y of P = U_n - 2 a U_(n-1) + b U_(n-2).  P = P' = 0
    is linear in (a, b) = (Re z, |z|^2), so every real y gives one EP
    (zeta(y), xi(y)) (``_ep_curve``), and zeta_c is the least zeta(y) with
    xi(y) <= xi_max.

    - At y0 = cos(theta), theta = pi / (n + 1): U_n(y0) = 0,
      U_(n-1)(y0) = 1 and U_(n-2)(y0) = 2 y0, so P(y0) = 0 gives
      a = b y0, that is zeta = 1 - a / b = 1 - y0, and P'(y0) = 0 gives
      b = (n + 1) / (n - 1 + 2 y0^2), so xi* = sqrt(b - a^2) / b =
      sin(theta) sqrt((n - 1) / (n + 1)).  Proven: P = P' = 0 there, and
      zeta'(y0) = 0.  For the latter, P(y0) = 2 b (y0 - (1 - zeta)) does
      not depend on xi where zeta = 1 - y0, and along the EP curve
      d/dy P(y; zeta(y), xi(y)) = P' + P_zeta zeta' + P_xi xi' = 0, so at
      y0 (P' = P_xi = 0) P_zeta zeta' = 2 b zeta' = 0.
    - Checked numerically, not proven: y0 is the global minimum of
      zeta(y) (a scan of y over [-40, 40] for n <= 16), and for
      xi_max < xi* the minimum is the EP with xi = xi_max on the side
      y > y0 (against a fine-grid bisection for n = 2, 3, 6 and 8).
      The tests hold this against 50-digit mpmath and dense eigenvalues.

    So for xi_max >= xi* the value is 1 - cos(theta) = 2 sin^2(theta / 2)
    (to within 2 ulps) in O(1) and with no solve.  For xi_max < xi* it is
    the EP on the edge xi = xi_max, found by a safeguarded Newton iteration
    on the same formula (``_edge_ep``), with O(n) work per step.

    Parameters
    ----------
    n : int
        Chain length, an integer >= 2.
    xi_max : float
        Upper end of the xi range (the lower end is 0); finite and > 0.
        At xi = 0 the coupling is real and the spectrum has no EP.

    Returns
    -------
    CriticalResult
    """
    check_size(n)
    _check_tolerance("xi_max", xi_max)
    theta = math.pi / (n + 1.0)
    xi_star = math.sin(theta) * math.sqrt((n - 1.0) / (n + 1.0))
    if xi_max >= xi_star:
        return CriticalResult(n=n, value=_one_minus_cos(n), xi_max=xi_max,
                              ep_y=math.cos(theta), ep_xi=xi_star)
    zeta, _, _, y = _edge_ep(n, theta, xi_max)
    return CriticalResult(n=n, value=zeta, xi_max=xi_max, ep_y=y,
                          ep_xi=xi_max)
