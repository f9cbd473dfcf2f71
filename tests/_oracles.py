"""Independent reference computations shared by the tests.

Everything here avoids the code paths under test: Chebyshev polynomials
are expanded to exact integer monomial coefficients, root sets are
compared by greedy nearest matching (sorting by (Re, Im) can swap members
of a conjugate pair whose real parts differ at round-off, which would
fake errors of twice the imaginary part).
"""

import numpy as np


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
