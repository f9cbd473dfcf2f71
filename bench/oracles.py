"""Independent output checks for the benchmark.

Nothing here imports ``hermitize``: the Hamiltonian is rebuilt from its
definition (diagonal 2 - z, 2, ..., 2, 2 - conj(z); hopping -1) and every
answer is compared against dense LAPACK results from numpy.  Each check
returns ``None`` when the answer is right and a short reason otherwise.
"""

import numpy as np

# Relative tolerance for pairing a returned eigenvalue with a LAPACK one.
# Correct answers agree to ~1e-14 * scale; the margin covers couplings
# near an exceptional point, where both methods lose half their digits.
# Wrong roots are off by O(1), and a dropped root leaves its LAPACK partner
# at least one level spacing (~(pi / n)^2, 1.5e-4 at n = 256) away.
PAIR_RTOL = 1e-6
# Relative eigen-residual ||(H - E) phi|| / (||H|| ||phi||) for eigenvectors.
RESIDUAL_RTOL = 1e-8


def z_cartesian(omega, rho):
    """Coupling of the Cartesian style, z = 1 + rho + i omega."""
    return complex(1.0 + rho, omega)


def z_robin(xi, zeta):
    """Coupling of the Robin style, z = 1 / (1 - zeta - i xi)."""
    return 1.0 / complex(1.0 - zeta, -xi)


def dense_hamiltonian(n, z, bulk=2.0):
    """Dense n x n Hamiltonian of the well with endpoint coupling z."""
    h = np.zeros((n, n), dtype=complex)
    h[np.arange(n), np.arange(n)] = bulk
    h[0, 0] = bulk - z
    h[n - 1, n - 1] = bulk - np.conj(z)
    i = np.arange(n - 1)
    h[i, i + 1] = -1.0
    h[i + 1, i] = -1.0
    return h


def pair_nearest(values, reference):
    """Greedy one-to-one pairing by distance; returns (distances, unpaired).

    Pairs are taken in increasing distance, so a dropped root leaves one
    reference value to be paired with a far-away duplicate.
    """
    a = np.asarray(values, dtype=complex).ravel()
    b = np.asarray(reference, dtype=complex).ravel()
    d = np.abs(a[:, None] - b[None, :])
    order = np.argsort(d, axis=None, kind="stable")
    used_a = np.zeros(a.size, dtype=bool)
    used_b = np.zeros(b.size, dtype=bool)
    dist = np.full(a.size, np.inf)
    for flat in order:
        i, j = divmod(int(flat), b.size)
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = used_b[j] = True
        dist[i] = d[i, j]
        if used_a.all() or used_b.all():
            break
    return dist, int(np.count_nonzero(~used_b))


def check_eigenvalues(energies, h):
    """Energies must be exactly the n eigenvalues of dense ``h``."""
    e = np.asarray(energies, dtype=complex).ravel()
    n = h.shape[0]
    if e.size != n:
        return f"{e.size} roots for n = {n}"
    if not np.all(np.isfinite(e)):
        return "non-finite root"
    ref = np.linalg.eigvals(h)
    dist, unpaired = pair_nearest(e, ref)
    bad = ~(dist <= PAIR_RTOL * (1.0 + np.abs(e)))
    if unpaired or bad.any():
        k = int(np.argmax(dist))
        return (f"{int(bad.sum())} of {n} roots unmatched; worst "
                f"E = {e[k]:.6g} off by {dist[k]:.3g}")
    return None


def count_certified(energies, h):
    """Number of returned energies that pair with a LAPACK eigenvalue."""
    e = np.asarray(energies, dtype=complex).ravel()
    e = e[np.isfinite(e)]
    dist, _ = pair_nearest(e, np.linalg.eigvals(h))
    return int(np.count_nonzero(dist <= PAIR_RTOL * (1.0 + np.abs(e))))


def check_eigenvector(h, energy, phi):
    """Dense relative eigen-residual of one eigenvector."""
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (h.shape[0],) or not np.all(np.isfinite(phi)):
        return "eigenvector has the wrong shape or non-finite entries"
    norm = np.linalg.norm(phi)
    if norm == 0.0:
        return "zero eigenvector"
    res = np.linalg.norm(h @ phi - energy * phi) / (_norm_inf(h) * norm)
    if not res <= RESIDUAL_RTOL:
        return f"eigenvector residual {res:.3g} at E = {energy:.6g}"
    return None


def _norm_inf(m):
    return float(np.abs(m).sum(axis=1).max())


def band_metric(n, omega, u=0.0):
    """Hermitian Toeplitz band metric: 1 on the diagonal, then
    (u - i omega) (1 - i omega)^(k - 1) on the k-th superdiagonal."""
    band = np.empty(n, dtype=complex)
    band[0] = 1.0
    band[1:] = complex(u, -omega) * complex(1.0, -omega) ** np.arange(n - 1)
    k = np.arange(n)
    offset = k[None, :] - k[:, None]
    upper = band[np.abs(offset)]
    return np.where(offset >= 0, upper, np.conj(upper))


def intertwining_residual(h, theta):
    """Relative Frobenius residual of H^dag Theta = Theta H."""
    lhs = h.conj().T @ theta
    rhs = theta @ h
    scale = np.linalg.norm(h) * np.linalg.norm(theta)
    return float(np.linalg.norm(lhs - rhs) / scale)


def check_metric(h, theta, residual, min_eigenvalue, positive, exact):
    """A verified metric: the intertwining residual (exactly 0.0 for the
    band families), and a smallest eigenvalue that agrees with eigvalsh."""
    theta = np.asarray(theta, dtype=complex)
    if exact and residual != 0.0:
        return f"band-family residual {residual!r}, expected exactly 0.0"
    if not intertwining_residual(h, theta) <= 1e-12:
        return "metric does not intertwine H (dense residual)"
    if not residual <= 1e-12 * np.linalg.norm(h) * np.linalg.norm(theta):
        return f"reported residual {residual:.3g} is too large"
    return check_min_eigenvalue(theta, min_eigenvalue, positive)


def check_min_eigenvalue(theta, min_eigenvalue, positive=None):
    """Smallest eigenvalue against eigvalsh: value and, unless it is at the
    round-off floor, sign."""
    ref = np.linalg.eigvalsh(np.asarray(theta, dtype=complex))
    scale = np.abs(ref).max()
    if not abs(min_eigenvalue - ref[0]) <= 1e-9 * scale:
        return f"min eigenvalue {min_eigenvalue!r}, eigvalsh gives {ref[0]!r}"
    if abs(ref[0]) > 1e-10 * scale:
        want = bool(ref[0] > 0.0)
        if (min_eigenvalue > 0.0) != want or (positive is not None
                                             and bool(positive) != want):
            return "positivity disagrees with eigvalsh"
    return None


def check_nullspace(h, elements):
    """n Hermitian intertwiners, Frobenius-orthonormal, small residuals."""
    n = h.shape[0]
    if len(elements) != n:
        return f"nullspace dimension {len(elements)}, expected {n}"
    mats = [np.asarray(b, dtype=complex) for b in elements]
    for b in mats:
        if b.shape != (n, n) or not np.array_equal(b, b.conj().T):
            return "nullspace element is not Hermitian"
        if not intertwining_residual(h, b) <= 1e-9:
            return "nullspace element does not intertwine H"
    gram = np.array([[np.vdot(a, b).real for b in mats] for a in mats])
    if not np.allclose(gram, np.eye(n), atol=1e-8):
        return "nullspace basis is not orthonormal"
    return None


# Accepted critical detunings: n = 6 and 8 as in the acceptance tests; the
# n = 2 value is exactly 0.5.
CRITICAL_BOUNDS = {2: (0.5 - 1e-4, 0.5 + 1e-4),
                   6: (0.09903 - 5e-4, 0.09903 + 5e-4),
                   8: (0.05, 0.07)}


def check_critical(n, value):
    lo, hi = CRITICAL_BOUNDS[n]
    if not lo < value < hi:
        return f"critical zeta {value!r} for n = {n} outside ({lo}, {hi})"
    return None
