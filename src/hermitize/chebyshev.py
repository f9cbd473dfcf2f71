"""Chebyshev polynomials and second-kind expansions.

Everything here is vectorized over the evaluation points and accepts real
or complex arguments; the secular equations solved elsewhere live in the
variable y with E = 2 - 2y, so these evaluations happen far outside [-1, 1]
as well as inside it.
"""

import numpy as np

# Trailing coefficients below this magnitude carry no information at any
# representable evaluation point; they are dropped on construction.
TRIM_TOL = 1e-300

_EPS = np.finfo(float).eps


def eval_t(k, y):
    """Evaluate the first-kind Chebyshev polynomial T_k.

    Parameters
    ----------
    k : int
        Degree, k >= 0.
    y : array_like
        Evaluation points, real or complex.

    Returns
    -------
    numpy.ndarray
        T_k(y), same shape as ``y``.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    y = np.asarray(y)
    prev = np.ones_like(y)
    if k == 0:
        return prev
    cur = y.copy()
    for _ in range(k - 1):
        prev, cur = cur, 2 * y * cur - prev
    return cur


def eval_u(k, y):
    """Evaluate the second-kind Chebyshev polynomial U_k.

    Parameters
    ----------
    k : int
        Degree, k >= 0.  ``k = -1`` is also accepted and gives 0, which is
        the natural boundary value of the recurrence.
    y : array_like
        Evaluation points, real or complex.

    Returns
    -------
    numpy.ndarray
        U_k(y), same shape as ``y``.
    """
    if k < -1:
        raise ValueError("degree must be >= -1")
    y = np.asarray(y)
    if k == -1:
        return np.zeros_like(y)
    prev = np.ones_like(y)
    if k == 0:
        return prev
    cur = 2 * y
    for _ in range(k - 1):
        prev, cur = cur, 2 * y * cur - prev
    return cur


class ChebCombo:
    """A finite linear combination sum_k c_k U_k in the second-kind basis.

    Parameters
    ----------
    coeffs : array_like
        Real coefficients c_0 .. c_d, low degree first.  Trailing entries
        smaller than ``TRIM_TOL`` in magnitude are removed; a combination
        that trims to nothing is kept as the zero constant.

    Attributes
    ----------
    coeffs : numpy.ndarray
        Trimmed coefficient vector (read-only).
    degree : int
        Degree after trimming.
    """

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        last = c.size
        while last > 1 and abs(c[last - 1]) < TRIM_TOL:
            last -= 1
        self.coeffs = c[:last]
        self.coeffs.flags.writeable = False

    @property
    def degree(self):
        return self.coeffs.size - 1

    @property
    def leading_monomial(self):
        """Coefficient of y^degree in the monomial expansion (c_d 2^d)."""
        d = self.degree
        return self.coeffs[d] * (2.0 ** d)

    def __repr__(self):
        return f"ChebCombo(degree={self.degree}, coeffs={self.coeffs!r})"


def eval_combo(combo, y):
    """Evaluate a second-kind combination and its derivative by Clenshaw.

    Parameters
    ----------
    combo : ChebCombo
        The combination to evaluate.
    y : array_like
        Evaluation points, real or complex.

    Returns
    -------
    value : numpy.ndarray
        sum_k c_k U_k(y).
    derivative : numpy.ndarray
        d/dy of the same combination.
    """
    scalar = np.ndim(y) == 0
    p, dp, _ = _clenshaw_full(combo.coeffs, np.asarray(y))
    if scalar:
        return p.item(), dp.item()
    return p, dp


def _clenshaw_full(coeffs, y):
    """Clenshaw evaluation with derivative and a rigorous round-off bound.

    Runs the downward recurrence b_k = 2y b_{k+1} - b_{k+2} + c_k and, in
    the same pass, records the local magnitude sum of each step.  Because
    b_0 is linear in the coefficients, a rounding committed at step j
    propagates to the result exactly like U_j(y); a forward U recurrence
    then accumulates |U_j(y)| against the stored local magnitudes.  The
    returned ``noise`` bounds the evaluation round-off of ``value`` and is
    what the root solver uses to recognize that an iterate has hit the
    floating-point floor of the polynomial.

    Parameters
    ----------
    coeffs : numpy.ndarray
        Coefficients c_0 .. c_d (real), low degree first.
    y : numpy.ndarray
        Evaluation points, any shape.

    Returns
    -------
    value, derivative, noise : numpy.ndarray
        Combination value, its y-derivative and the round-off bound, all
        shaped like ``y``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    y = np.asarray(y)
    two_y = 2 * y
    nc = coeffs.size

    b1 = np.zeros_like(y)
    b2 = np.zeros_like(y)
    d1 = np.zeros_like(y)
    d2 = np.zeros_like(y)
    loc = np.empty((nc,) + y.shape)
    for j in range(nc - 1, -1, -1):
        c = coeffs[j]
        loc[j] = np.abs(two_y) * np.abs(b1) + np.abs(b2) + np.abs(c)
        b1, b2 = two_y * b1 - b2 + c, b1
        d1, d2 = two_y * d1 - d2 + 2 * b2, d1

    # True |U_j(y)| by the forward recurrence; a sign-discarding majorant
    # would explode like (1 + sqrt(2))^degree inside [-1, 1] and mask real
    # convergence, so the genuine oscillating values are required here.
    u_cur = two_y.copy()
    u_prev = np.ones_like(y)
    noise = loc[0] * np.abs(u_prev)
    for j in range(1, nc):
        noise = noise + loc[j] * np.abs(u_cur)
        u_cur, u_prev = two_y * u_cur - u_prev, u_cur
    return b1, d1, 3 * _EPS * noise
