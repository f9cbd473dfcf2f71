"""The hard-wall continuum levels and the endpoint loci, in closed form.

``continuum`` and ``locus`` print a few dozen numbers from closed forms,
so they are computed here with ``math`` and no numpy, and returned as
dataclasses of lists; the CLI imports this module alone for them.

Every value is bitwise the one of the earlier numpy expressions:

- a square is ``x * x``, as numpy squares an array (``x ** 2`` on a
  float calls ``pow``, which can differ in the last bit);
- ``_clip`` returns 0.0 unless its argument is above 0 or NaN, as
  ``np.maximum(x, 0.0)`` does, so -0.0 clips to 0.0;
- the default locus parameters are ``i * (1 / (samples - 1))`` with the
  last set to 1.0, as ``np.linspace(0, 1, samples)`` makes them;
- ``math.cos`` gives the bits of ``np.cos`` on these arguments, which the
  tests pin.

Each list is allocated whole before it is filled, so a size too large to
hold raises MemoryError at once, as a numpy allocation does, instead of
growing a list until memory runs out.
"""

import math
from dataclasses import dataclass

from .model import _check_count, check_size, is_integer


def _zeros(count):
    """A list of ``count`` zeros, allocated in one piece."""
    try:
        return [0.0] * count
    except MemoryError:
        raise MemoryError(f"cannot hold {count} floats") from None


def _clip(x):
    return 0.0 if x <= 0.0 else x


@dataclass
class ContinuumTable:
    """Low eigenvalues of the hard-wall chain against the box spectrum.

    Attributes
    ----------
    ms : list of int
        Half-size parameters; the chain has 2 M - 1 sites.
    levels : int
    energies : list of list of float
        Raw lattice energies, one row of ``levels`` values per size.
    rescaled : list of list of float
        Energies times ((2 M + 1) / 2)^2, the lattice-to-box scaling.
    targets : list of float
        Box limits, (k pi / 2)^2 for level k.
    """

    ms: list
    levels: int
    energies: list
    rescaled: list
    targets: list

    def richardson(self):
        """Extrapolate the rescaled energies in 1/M.

        Requires the M sequence to double at each step; eliminates the
        1/M, 1/M^2, ... corrections with the standard tableau
        T[i, j] = (2^j T[i+1, j-1] - T[i, j-1]) / (2^j - 1).

        Returns
        -------
        list of float
            One extrapolated value per level.
        """
        for a, b in zip(self.ms, self.ms[1:]):
            if b != 2 * a:
                raise ValueError("Richardson extrapolation needs a "
                                 "doubling M sequence")
        tab = self.rescaled
        for j in range(1, len(tab)):
            fac = 2.0 ** j
            tab = [[(fac * hi - lo) / (fac - 1.0) for lo, hi in zip(row, nxt)]
                   for row, nxt in zip(tab, tab[1:])]
        return list(tab[0])


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
    energies = []
    rescaled = []
    for m in ms:
        try:
            width = 2.0 * m
            scale = ((2.0 * m + 1.0) / 2.0) ** 2
        except OverflowError:
            raise ValueError(f"M = {m} is too large: ((2 M + 1) / 2)^2 "
                             "overflows the float range") from None
        e = _zeros(levels)
        r = _zeros(levels)
        for i in range(levels):
            e[i] = 2.0 - 2.0 * math.cos((i + 1) * math.pi / width)
            r[i] = e[i] * scale
        energies.append(e)
        rescaled.append(r)
    targets = _zeros(levels)
    for i in range(levels):
        x = (i + 1) * math.pi / 2.0
        targets[i] = x * x
    return ContinuumTable(ms=ms, levels=levels, energies=energies,
                          rescaled=rescaled, targets=targets)


@dataclass
class LocusBranch:
    """One curve in the (zeta, xi) plane where a root sits at y = +/-1."""

    name: str
    t: list
    zeta: list
    xi: list


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
    t : iterable of float, optional
        Explicit parameter values in [0, 1] to sample both branches at;
        at least one.

    Returns
    -------
    LocusResult
        Both branches share one list ``t``.
    """
    check_size(n)
    if t is None:
        _check_count("samples", samples)
        t = _zeros(samples)
        if samples > 1:
            step = 1.0 / (samples - 1)
            for i in range(1, samples - 1):
                t[i] = i * step
            t[-1] = 1.0
    else:
        t = [float(v) for v in t]
    if not t:
        raise ValueError("t must hold at least one value")
    if not all(0.0 <= v <= 1.0 for v in t):
        raise ValueError("parameter values must lie in [0, 1]")
    try:
        n1 = n + 1.0
    except OverflowError:
        raise ValueError(f"n = {n} is too large: n + 1 overflows the float "
                         "range") from None
    # The y = -1 numerator below is largest at rho = 2, where it is 8 n.
    if 4.0 * n + n1 * 4.0 == math.inf:
        raise ValueError(f"n = {n} is too large: 4 n + (n + 1) rho^2 "
                         "overflows the float range")
    zeta_p, xi_p, zeta_m, xi_m = (_zeros(len(t)) for _ in range(4))
    rho_lo = 2.0 - 2.0 / n1
    for i, v in enumerate(t):
        # y = +1: the circle zeta^2 + xi^2 = 2 zeta / (n + 1).
        z = v * 2.0 / n1
        zeta_p[i] = z
        xi_p[i] = math.sqrt(_clip(2.0 * z / n1 - z * z))
        # y = -1: radius rho from 2 - 2 / (n + 1) to 2.
        rho = rho_lo + v * (2.0 - rho_lo)
        r2 = rho * rho
        z = (4.0 * n + n1 * r2) / (4.0 * n + 2.0)
        zeta_m[i] = z
        xi_m[i] = math.sqrt(_clip(r2 - z * z))
    return LocusResult(n=n, y_plus=LocusBranch("y_plus", t, zeta_p, xi_p),
                       y_minus=LocusBranch("y_minus", t, zeta_m, xi_m))
