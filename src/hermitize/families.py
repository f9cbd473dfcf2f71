"""The registry of closed-form metric families.

``FAMILIES`` maps each family name to its parameters, its size and the
coupling it intertwines, and names its constructor in
``hermitize.metric``.  The registry imports no numpy, so parsing and
checking a family's flags does not load it; ``build`` imports the
constructor when a matrix is made.
"""

import math
from dataclasses import dataclass

from .model import check_size


@dataclass(frozen=True)
class MetricFamily:
    """A closed-form metric family and the coupling it intertwines.

    Attributes
    ----------
    name : str
    builder : str
        The name of the public constructor in ``hermitize.metric``,
        called by ``build``.
    params : tuple of (str, float or None)
        Parameter names in call order with their defaults; None marks a
        required parameter.
    size : int or None
        The fixed dimension, or None when every n >= 2 works.
    swept : str
        The parameter that is also the coupling, "omega" or "xi".
        Positivity sweeps run along it, and the ``metric`` CSV prints it as
        the axis column.
    held : str
        The other coupling parameter, held at 0: "rho" or "zeta".
    """

    name: str
    builder: str
    params: tuple
    size: int | None
    swept: str
    held: str

    def bind(self, n, given, flag=""):
        """Check a size and parameters; return the parameters in call order.

        Defaults fill in what ``given`` leaves out.  Raises ValueError for
        a size below 2 or other than the fixed one, a missing required
        parameter, a parameter the family does not take, or one that is
        not finite.  Parameter names in the message are prefixed with
        ``flag``.
        """
        check_size(n)
        for name, default in self.params:
            if default is None and name not in given:
                raise ValueError(f"family {self.name!r} needs {flag}{name}")
        defaults = dict(self.params)
        for name in given:
            if name not in defaults:
                raise ValueError(
                    f"family {self.name!r} takes no {flag}{name}")
            if not math.isfinite(given[name]):
                raise ValueError(
                    f"{flag}{name} must be finite, got {given[name]}")
        if self.size is not None and n != self.size:
            raise ValueError(
                f"family {self.name!r} has fixed size {self.size}")
        return {name: given.get(name, default) for name, default in self.params}

    def build(self, n, **params):
        """The n x n member with the given parameters, as a MetricMatrix."""
        from . import metric

        builder = getattr(metric, self.builder)
        if self.size is None:
            return builder(n, **params)
        return builder(**params)


FAMILIES = {family.name: family for family in (
    MetricFamily("band", "metric_band", (("omega", None),),
                 None, "omega", "rho"),
    MetricFamily("band_u", "metric_band_extended",
                 (("omega", None), ("u", None)), None, "omega", "rho"),
    MetricFamily("n3_general", "metric_n3_general",
                 (("xi", None), ("r", 1.0), ("s", 1.0), ("u", 0.0)),
                 3, "xi", "zeta"),
    MetricFamily("n3_special", "metric_n3_special",
                 (("xi", None), ("u", 0.0)), 3, "xi", "zeta"),
    MetricFamily("n4_special", "metric_n4_special", (("xi", None),),
                 4, "xi", "zeta"),
)}
