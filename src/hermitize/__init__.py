"""Exactly solvable spectra and metric operators of a finite discrete well
with a complex Robin-type coupling at its endpoints.

The package builds the tridiagonal Hamiltonians, solves their Chebyshev
secular equations, constructs closed-form metric (positive-definite
intertwiner) families, verifies the intertwining relation to floating
point exactness, and maps out reality and positivity domains in parameter
space.  The ``hermitize`` console script exposes the same operations.
"""

import importlib

# The public names of each submodule.  They resolve on first use
# (PEP 562), so ``import hermitize`` loads no numpy; the first numeric
# name pays for it.
_SOURCES = {
    "analysis": ("PositivityResult", "SweepResult", "metric_positivity_sweep",
                 "sweep_xi", "sweep_zeta"),
    "chebyshev": ("eval_combo",),
    "closedform": ("ContinuumTable", "LocusBranch", "LocusResult",
                   "continuum_convergence", "endpoint_locus"),
    "critical": ("CriticalResult", "critical_zeta"),
    "errors": ("DimensionMismatch", "NoConvergence", "SingularParameters"),
    "metric": ("MetricMatrix", "VerificationReport", "dieudonne_nullspace",
               "dieudonne_residual", "hermitian_eigenvalues", "metric_band",
               "metric_band_extended", "metric_n3_general",
               "metric_n3_special", "metric_n4_special", "verify_metric"),
    "model": ("ModelParams", "TridiagonalHamiltonian", "build_hamiltonian",
              "energy_from_y", "z_from_xizeta"),
    "spectrum": ("Spectrum", "Wavefunction", "eigen_residual",
                 "reality_flags", "secular_polynomial", "solve_spectrum",
                 "wavefunction"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SOURCES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
