"""Second-kind Chebyshev combinations.

The secular polynomial of the well is sum_k c_k U_k(y) with three
nonzero coefficients (``spectrum.secular_polynomial``).  The solver works
on the phase form of the equation instead; ``eval_combo`` evaluates the
combination directly, as an independent check.
"""

import numpy as np


def eval_combo(coeffs, y):
    """Evaluate sum_k c_k U_k(y) and its derivative by Clenshaw.

    Runs the downward recurrence b_k = 2 y b_{k+1} - b_{k+2} + c_k and its
    y-derivative in one pass.

    Parameters
    ----------
    coeffs : array_like
        Real coefficients c_0 .. c_d, low degree first.
    y : array_like
        Evaluation points, real or complex.

    Returns
    -------
    value, derivative : numpy.ndarray
        The combination and its y-derivative, shaped like ``y``.
    """
    two_y = 2 * np.asarray(y)
    b1 = b2 = d1 = d2 = np.zeros_like(two_y)
    for c in np.asarray(coeffs, dtype=float)[::-1]:
        b1, b2 = two_y * b1 - b2 + c, b1
        d1, d2 = two_y * d1 - d2 + 2 * b2, d1
    return b1, d1
