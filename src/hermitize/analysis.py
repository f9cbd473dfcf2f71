"""Parameter-space studies: reality regions, positivity, continuum limit.

``critical_zeta`` and ``CriticalResult`` live in ``hermitize.critical``
and are re-exported here.

The sweeps solve all couplings of a grid in one batched call, in the
calling thread.  The solver treats every coupling independently of the
others in its batch, so each row of a sweep is bitwise the single-point
solve at the same coupling.
"""

from dataclasses import dataclass

import numpy as np

# Re-exported, so that hermitize.analysis.critical_zeta keeps working.
from .critical import CriticalResult, critical_zeta
from .errors import SingularParameters
from .families import FAMILIES
from .metric import hermitian_eigenvalues
from .model import (_check_count, _check_tolerance, check_size, energy_from_y,
                    is_integer)
from .spectrum import _check_max_iter, _solve_batch, reality_flags


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
class SweepResult:
    """Spectra along a one-parameter grid.

    Attributes
    ----------
    axis : str
        Name of the swept parameter ("xi" or "zeta").
    values : numpy.ndarray
        Grid values, from the first end of the range given to the second:
        ``sweep_xi(4, 0.2, 1.0, 0.0, 3).values`` is [1, 0.5, 0].
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
        Grid range, param_min <= param_max (ValueError otherwise); should
        contain 0, where every family is positive.
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
    # The edge search below assumes an ascending grid.
    if param_min > param_max:
        raise ValueError(f"param_min = {param_min} is above param_max = "
                         f"{param_max}; give the range in ascending order")
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
        Half-size parameters, at least one, each an integer >= levels.
    levels : int
        Number of low levels to tabulate, >= 1.

    Returns
    -------
    ContinuumTable
    """
    _check_count("levels", levels)
    ms = list(ms)
    if not ms:
        raise ValueError("ms must name at least one size")
    if not all(is_integer(m) for m in ms):
        raise ValueError(f"each M must be an integer, got {ms}")
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
    if not np.all((t >= 0.0) & (t <= 1.0)):
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
