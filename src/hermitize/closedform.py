"""The hard-wall continuum levels and the endpoint loci, in closed form.

``continuum`` and ``locus`` print a few dozen numbers from closed forms,
so they are computed here with ``math`` and no numpy; the CLI imports
this module alone for them.  ``analysis.continuum_convergence``,
``ContinuumTable.richardson`` and ``analysis.endpoint_locus`` wrap the
same lists as arrays, so the library and the CLI share one computation.

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

from .model import _check_count, check_size, is_integer


def _zeros(count):
    """A list of ``count`` zeros, allocated in one piece."""
    try:
        return [0.0] * count
    except MemoryError:
        raise MemoryError(f"cannot hold {count} floats") from None


def _clip(x):
    return 0.0 if x <= 0.0 else x


def continuum_levels(ms, levels=2):
    """The hard-wall levels E_k = 2 - 2 cos(k pi / (2 M)), k = 1 ...
    levels, of each size M and their rescaling to the box; see
    ``analysis.continuum_convergence``.

    Returns
    -------
    (ms, energies, rescaled, targets)
        The sizes as ints; E_k and E_k ((2 M + 1) / 2)^2, one list of
        ``levels`` floats per size; and the box limits (k pi / 2)^2.
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
    return ms, energies, rescaled, targets


def richardson(ms, rescaled):
    """Extrapolate the rows of ``rescaled`` (one per size of ``ms``) in
    1/M; see ``ContinuumTable.richardson``.  Returns one float per
    level."""
    for a, b in zip(ms, ms[1:]):
        if b != 2 * a:
            raise ValueError("Richardson extrapolation needs a "
                             "doubling M sequence")
    tab = rescaled
    for j in range(1, len(tab)):
        fac = 2.0 ** j
        tab = [[(fac * hi - lo) / (fac - 1.0) for lo, hi in zip(row, nxt)]
               for row, nxt in zip(tab, tab[1:])]
    return list(tab[0])


def endpoint_locus(n, samples=20, t=None):
    """The loci where a secular root reaches y = +1 or y = -1, at the
    parameters ``t`` (a sequence of floats) or, when it is None, at
    ``samples`` even steps of [0, 1]; see ``analysis.endpoint_locus``.

    Returns
    -------
    (t, (zeta, xi) of y = +1, (zeta, xi) of y = -1)
        Lists of floats, one value per parameter.
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
    return t, (zeta_p, xi_p), (zeta_m, xi_m)
