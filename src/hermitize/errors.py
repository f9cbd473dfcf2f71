"""Exceptions shared across the package."""


class SingularParameters(ValueError):
    """Raised when the endpoint coupling z = 1/(1 - zeta - i xi) is undefined.

    The map has a single pole at (xi, zeta) = (0, 1); every routine that
    converts couplings checks for it up front so the failure surfaces with
    a clear message instead of an overflow downstream.
    """


class NoConvergence(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget.

    Attributes
    ----------
    best : object or None
        Best iterate available when the budget ran out (the root
        estimates of the polynomial solver).  Useful for post-mortem
        inspection.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DimensionMismatch(ValueError):
    """Raised when matrix/vector operands have incompatible shapes."""

