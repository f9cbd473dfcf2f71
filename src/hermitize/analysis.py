"""Parameter-space studies: reality regions, positivity, continuum limit.

A spectrum turns complex only through an exceptional point (EP), a real
double root of the secular polynomial, and the equations of an EP are
linear in (Re z, |z|^2).  So ``critical_zeta`` is a closed form on the
EP curve, with no spectrum solved: 1 - cos(pi / (n + 1)) when the xi
range reaches the EP's xi, and otherwise the EP on the edge of the range.

The sweeps solve all couplings of a grid in one batched call, in the
calling thread.  The solver treats every coupling independently of the
others in its batch, so each row of a sweep is bitwise the single-point
solve at the same coupling.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SingularParameters
from .metric import FAMILIES, hermitian_eigenvalues
from .model import check_size, energy_from_y
from .spectrum import (_EPS, REALITY_TOL, _check_max_iter, _solve_batch,
                       reality_flags)

# Two real secular roots closer than this are flagged as a near-merge:
# the parameter point sits next to a complexification threshold and the
# real/complex classification is not robust there.
MERGE_TOL = 1e-4


def _zs_from_grid(xi, zeta):
    """Vectorized coupling map with explicit finiteness and pole checks.

    The same operations as ``model.z_from_xizeta``, elementwise, so every
    coupling is bitwise the one a single-point solve uses.
    """
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if not (np.isfinite(xi).all() and np.isfinite(zeta).all()):
        raise ValueError("xi and zeta must be finite")
    # An overflowing denominator gives z = 0, as in the single-point map.
    with np.errstate(over="ignore"):
        denom = (1.0 - zeta) * (1.0 - zeta) + xi * xi
    if np.any(denom == 0.0):
        raise SingularParameters(
            "grid hits the pole (xi, zeta) = (0, 1); split the range so "
            "this point is excluded")
    zs = np.empty(denom.shape, dtype=complex)
    zs.real = (1.0 - zeta) / denom
    zs.imag = xi / denom
    return zs


@dataclass
class RealityClassification:
    """Reality census of one root set.

    Attributes
    ----------
    n_real : int
    n_complex_pairs : int
        Non-real roots come in conjugate pairs (real coefficients).
    near_merge : numpy.ndarray
        Per-root flag: a real root with another real root closer than
        ``MERGE_TOL``; the classification is fragile at such points.
    """

    n_real: int
    n_complex_pairs: int
    near_merge: np.ndarray

    @property
    def all_real(self):
        return self.n_complex_pairs == 0


def classify_reality(y_roots, tol=REALITY_TOL, merge_tol=MERGE_TOL):
    """Count real roots and conjugate pairs, flagging near-merges.

    Parameters
    ----------
    y_roots : array_like
        Roots of one secular polynomial.
    tol : float
        Reality tolerance, scaled by max(1, |y|).
    merge_tol : float
        Gap below which two real roots are flagged as nearly merged.

    Returns
    -------
    RealityClassification
    """
    y = np.asarray(y_roots)
    real = reality_flags(y, tol)
    near = np.zeros(y.size, dtype=bool)
    re_parts = y.real[real]
    if re_parts.size > 1:
        srt = np.sort(re_parts)
        gaps = np.diff(srt) < merge_tol
        flagged = set()
        for i, g in enumerate(gaps):
            if g:
                flagged.add(srt[i])
                flagged.add(srt[i + 1])
        for i in np.flatnonzero(real):
            if y.real[i] in flagged:
                near[i] = True
    n_real = int(np.count_nonzero(real))
    return RealityClassification(
        n_real=n_real,
        n_complex_pairs=int(np.count_nonzero(~real)) // 2,
        near_merge=near)


@dataclass
class SweepResult:
    """Spectra along a one-parameter grid.

    Attributes
    ----------
    axis : str
        Name of the swept parameter ("xi" or "zeta").
    values : numpy.ndarray
        Grid values, ascending.
    fixed : dict
        The parameter held fixed.
    n : int
    convention : str
    y_roots : numpy.ndarray
        Shape (len(values), n), each row sorted by (Re, Im).
    energies : numpy.ndarray
    is_real : numpy.ndarray
        Boolean, same shape as ``y_roots``.
    """

    axis: str
    values: np.ndarray
    fixed: dict
    n: int
    convention: str
    y_roots: np.ndarray
    energies: np.ndarray
    is_real: np.ndarray

    @property
    def all_real(self):
        return np.all(self.is_real, axis=1)

    @property
    def n_real(self):
        return np.count_nonzero(self.is_real, axis=1)


def sweep_xi(n, zeta, xi_min, xi_max, steps, convention="lattice",
             max_iter=500):
    """Spectra along a xi grid at fixed zeta.

    Parameters
    ----------
    n : int
        Chain length, an integer >= 2.
    zeta : float
        Fixed detuning; it and the grid must be finite.
    xi_min, xi_max : float
        Grid range (inclusive).
    steps : int
        Number of grid points, >= 1.
    convention : {"lattice", "shifted"}
    max_iter : int
        Iteration budget of each stage of the root solve, an integer
        >= 0, as in ``spectrum.solve_spectrum``.

    Returns
    -------
    SweepResult
        Row i is bitwise ``solve_spectrum`` at (values[i], zeta).
    """
    check_size(n)
    _check_count("steps", steps)
    _check_max_iter(max_iter)
    values = np.linspace(xi_min, xi_max, steps)
    zs = _zs_from_grid(values, zeta)
    roots = _solve_batch(n, zs, max_iter=max_iter)
    return SweepResult(
        axis="xi", values=values, fixed={"zeta": zeta}, n=n,
        convention=convention, y_roots=roots,
        energies=energy_from_y(roots, convention),
        is_real=reality_flags(roots))


def sweep_zeta(n, xi, zeta_min, zeta_max, steps, convention="lattice",
               max_iter=500):
    """Spectra along a zeta grid at fixed xi.

    Raises ``SingularParameters`` when xi = 0 and the grid touches the
    pole zeta = 1; split the range in that case.

    Parameters
    ----------
    n : int
        Chain length, an integer >= 2.
    xi : float
        Fixed coupling strength.
    zeta_min, zeta_max : float
    steps : int
        Number of grid points, >= 1.
    convention : {"lattice", "shifted"}
    max_iter : int
        Iteration budget of the root solve, as in ``sweep_xi``.

    Returns
    -------
    SweepResult
        Row i is bitwise ``solve_spectrum`` at (xi, values[i]).
    """
    check_size(n)
    _check_count("steps", steps)
    _check_max_iter(max_iter)
    values = np.linspace(zeta_min, zeta_max, steps)
    zs = _zs_from_grid(xi, values)
    roots = _solve_batch(n, zs, max_iter=max_iter)
    return SweepResult(
        axis="zeta", values=values, fixed={"xi": xi}, n=n,
        convention=convention, y_roots=roots,
        energies=energy_from_y(roots, convention),
        is_real=reality_flags(roots))


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


def _check_count(name, value):
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_tolerance(name, value):
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _bisect(holds, a, b, tol):
    """Shrink [a, b] (holds at a, fails at b; either order) to width tol.

    Stops early when the midpoint is no longer strictly inside, i.e. the
    ends are adjacent floats, so a tolerance below the float spacing
    cannot loop forever.
    """
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if holds(mid):
            a = mid
        else:
            b = mid
    return a, b


# pi - np.pi, so that np.pi + _PI_LO is pi to about 2^-107.
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
    h = np.pi / m
    hi, lo = _split(h)
    dh = ((np.pi - m * hi) - m * lo + _PI_LO) / m
    s = np.sin(h)
    p = s * s
    s_hi, s_lo = _split(s)
    e = ((s_hi * s_hi - p) + 2.0 * s_hi * s_lo) + s_lo * s_lo
    return float(2.0 * (p + (e + 2.0 * s * np.cos(h) * dh)))


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
        if f == 0.0 or abs(dx) <= 4.0 * _EPS * max(theta * theta, abs(v)):
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
    if not (np.isfinite(xi_max) and xi_max > 0.0):
        raise ValueError(f"xi_max must be finite and > 0, got {xi_max}")
    theta = np.pi / (n + 1.0)
    xi_star = float(np.sin(theta) * np.sqrt((n - 1.0) / (n + 1.0)))
    if xi_max >= xi_star:
        return CriticalResult(n=n, value=_one_minus_cos(n), xi_max=xi_max,
                              ep_y=float(np.cos(theta)), ep_xi=xi_star)
    zeta, _, _, y = _edge_ep(n, theta, xi_max)
    return CriticalResult(n=n, value=zeta, xi_max=xi_max, ep_y=y,
                          ep_xi=xi_max)


@dataclass
class PositivityResult:
    """Positivity census of a metric family along its parameter.

    Attributes
    ----------
    family : str
    n : int
    extra : dict
        Fixed family parameters (u, r, s where applicable).
    values : numpy.ndarray
        Parameter grid.
    min_eigenvalues : numpy.ndarray
        Smallest metric eigenvalue at each grid point.
    edge_positive, edge_negative : float or None
        Bisection-refined positivity edges above/below zero, when the
        grid detects a sign change on that side.
    loss_abs : float or None
        Smallest |parameter| at which positivity is lost.
    """

    family: str
    n: int
    extra: dict
    values: np.ndarray
    min_eigenvalues: np.ndarray
    edge_positive: float | None
    edge_negative: float | None
    loss_abs: float | None


def metric_positivity_sweep(family, n, param_min, param_max, steps,
                            param_tol=1e-6, **extra):
    """Scan a metric family for loss of positive definiteness.

    The family's coupling parameter (omega for the band families, xi for
    the fixed size ones) is swept over a grid; where the smallest
    eigenvalue changes sign next to the origin, the edge is refined by
    bisection to ``param_tol``.

    Parameters
    ----------
    family : str
        A key of ``hermitize.metric.FAMILIES``: "band", "band_u",
        "n3_general", "n3_special" or "n4_special".
    n : int
        Dimension; must be 3 or 4 for the fixed-size families.
    param_min, param_max : float
        Grid range; should contain 0, where every family is positive.
    steps : int
        Number of grid points, >= 1.
    param_tol : float
        Bisection tolerance for the edges; must be finite and > 0.
    **extra :
        The family's other parameters (u, r, s), held fixed.  A required
        one that is missing, or one the family does not take, raises
        ValueError.

    Returns
    -------
    PositivityResult
    """
    _check_tolerance("param_tol", param_tol)
    _check_count("steps", steps)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    fam = FAMILIES[family]
    if fam.swept in extra:
        raise ValueError(f"family {family!r} sweeps {fam.swept}; "
                         "it cannot be held fixed")
    fixed = fam.bind(n, {fam.swept: 0.0, **extra})

    def min_eig(v):
        return hermitian_eigenvalues(
            fam.build(n, **{**fixed, fam.swept: v}))[0]

    values = np.linspace(param_min, param_max, steps)
    min_eigs = np.array([min_eig(v) for v in values])

    def refine(a, b):
        # min-eig > 0 at a, <= 0 at b; returns the midpoint at param_tol.
        a, b = _bisect(lambda v: min_eig(v) > 0.0, a, b, param_tol)
        return 0.5 * (a + b)

    positive = min_eigs > 0.0
    edge_pos = None
    edge_neg = None
    upper = np.flatnonzero((values[:-1] >= 0.0) & positive[:-1]
                           & ~positive[1:])
    if upper.size:
        k = upper[0]
        edge_pos = refine(values[k], values[k + 1])
    lower = np.flatnonzero((values[1:] <= 0.0) & positive[1:]
                           & ~positive[:-1])
    if lower.size:
        k = lower[-1]
        edge_neg = refine(values[k + 1], values[k])
    losses = [abs(e) for e in (edge_pos, edge_neg) if e is not None]
    return PositivityResult(
        family=family, n=n, extra=dict(extra), values=values,
        min_eigenvalues=min_eigs, edge_positive=edge_pos,
        edge_negative=edge_neg, loss_abs=min(losses) if losses else None)


@dataclass
class ContinuumTable:
    """Low eigenvalues of the hard-wall chain against the box spectrum.

    Attributes
    ----------
    ms : list of int
        Half-size parameters; the chain has 2 M - 1 sites.
    levels : int
    energies : numpy.ndarray
        Raw lattice energies, shape (len(ms), levels).
    rescaled : numpy.ndarray
        Energies times ((2 M + 1) / 2)^2, the lattice-to-box scaling.
    targets : numpy.ndarray
        Box limits ((k pi / 2)^2 for level k), shape (levels,).
    """

    ms: list
    levels: int
    energies: np.ndarray
    rescaled: np.ndarray
    targets: np.ndarray

    def richardson(self):
        """Extrapolate the rescaled energies in 1/M.

        Requires the M sequence to double at each step; eliminates the
        1/M, 1/M^2, ... corrections with the standard tableau
        T[i, j] = (2^j T[i+1, j-1] - T[i, j-1]) / (2^j - 1).

        Returns
        -------
        numpy.ndarray
            One extrapolated value per level.
        """
        ms = self.ms
        for a, b in zip(ms, ms[1:]):
            if b != 2 * a:
                raise ValueError("Richardson extrapolation needs a "
                                 "doubling M sequence")
        tab = self.rescaled.copy()
        rows = tab.shape[0]
        for j in range(1, rows):
            fac = 2.0 ** j
            tab = (fac * tab[1:] - tab[:-1]) / (fac - 1.0)
        return tab[0]


def continuum_convergence(ms, levels=2):
    """Hard-wall chain spectra on the path to the continuum box.

    The chain with 2 M - 1 sites and impenetrable ends has the closed-form
    spectrum E_k = 2 - 2 cos(k pi / (2 M)); rescaling by ((2 M + 1) / 2)^2
    sends level k to (k pi / 2)^2 as M grows.

    Parameters
    ----------
    ms : sequence of int
        Half-size parameters, each >= levels.
    levels : int
        Number of low levels to tabulate, >= 1.

    Returns
    -------
    ContinuumTable
    """
    _check_count("levels", levels)
    ms = [int(m) for m in ms]
    if any(m < levels for m in ms):
        raise ValueError("each M must be at least the number of levels")
    k = np.arange(1, levels + 1)
    energies = np.empty((len(ms), levels))
    rescaled = np.empty_like(energies)
    for i, m in enumerate(ms):
        e = 2.0 - 2.0 * np.cos(k * np.pi / (2.0 * m))
        energies[i] = e
        rescaled[i] = e * ((2.0 * m + 1.0) / 2.0) ** 2
    targets = (k * np.pi / 2.0) ** 2
    return ContinuumTable(ms=ms, levels=levels, energies=energies,
                          rescaled=rescaled, targets=targets)


@dataclass
class LocusBranch:
    """One curve in the (zeta, xi) plane where a root sits at y = +/-1."""

    name: str
    t: np.ndarray
    zeta: np.ndarray
    xi: np.ndarray


@dataclass
class LocusResult:
    """Both endpoint loci of the n-site well (upper half plane xi >= 0)."""

    n: int
    y_plus: LocusBranch
    y_minus: LocusBranch


def endpoint_locus(n, samples=20, t=None):
    """Closed-form loci where a secular root reaches y = +1 or y = -1.

    The y = +1 branch is the circle zeta^2 + xi^2 = 2 zeta / (n + 1)
    (through the origin); the y = -1 branch is parametrized by the radius
    rho = |(zeta, xi)| via zeta = (4 n + (n + 1) rho^2) / (4 n + 2) with
    rho running from 2 - 2/(n + 1) to 2.

    Parameters
    ----------
    n : int
        Chain length, an integer >= 2.
    samples : int
        Number of points per branch when ``t`` is not given, >= 1.
    t : array_like, optional
        Explicit parameter values in [0, 1] to sample both branches at;
        at least one.

    Returns
    -------
    LocusResult
    """
    check_size(n)
    if t is None:
        _check_count("samples", samples)
        t = np.linspace(0.0, 1.0, samples)
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ValueError("t must hold at least one value")
    if np.any((t < 0.0) | (t > 1.0)):
        raise ValueError("parameter values must lie in [0, 1]")

    zeta_p = t * 2.0 / (n + 1.0)
    xi_p = np.sqrt(np.maximum(2.0 * zeta_p / (n + 1.0) - zeta_p ** 2, 0.0))
    plus = LocusBranch(name="y_plus", t=t, zeta=zeta_p, xi=xi_p)

    rho_lo = 2.0 - 2.0 / (n + 1.0)
    rho = rho_lo + t * (2.0 - rho_lo)
    zeta_m = (4.0 * n + (n + 1.0) * rho ** 2) / (4.0 * n + 2.0)
    xi_m = np.sqrt(np.maximum(rho ** 2 - zeta_m ** 2, 0.0))
    minus = LocusBranch(name="y_minus", t=t, zeta=zeta_m, xi=xi_m)
    return LocusResult(n=n, y_plus=plus, y_minus=minus)
