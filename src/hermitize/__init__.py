"""Exactly solvable spectra and metric operators of a finite discrete well
with a complex Robin-type coupling at its endpoints.

The package builds the tridiagonal Hamiltonians, solves their Chebyshev
secular equations, constructs closed-form metric (positive-definite
intertwiner) families, verifies the intertwining relation to floating
point exactness, and maps out reality and positivity domains in parameter
space.  The ``hermitize`` console script exposes the same operations.
"""

from .analysis import (ContinuumTable, CriticalResult, LocusBranch,
                       LocusResult, PositivityResult, SweepResult,
                       continuum_convergence, critical_zeta, endpoint_locus,
                       metric_positivity_sweep, sweep_xi, sweep_zeta)
from .chebyshev import eval_combo
from .errors import DimensionMismatch, NoConvergence, SingularParameters
from .metric import (MetricMatrix, VerificationReport, dieudonne_nullspace,
                     dieudonne_residual, hermitian_eigenvalues, metric_band,
                     metric_band_extended, metric_n3_general,
                     metric_n3_special, metric_n4_special, verify_metric)
from .model import (ModelParams, TridiagonalHamiltonian, build_hamiltonian,
                    energy_from_y, z_from_xizeta)
from .spectrum import (Spectrum, Wavefunction, eigen_residual,
                       reality_flags, secular_polynomial, solve_spectrum,
                       wavefunction)

__version__ = "0.1.0"

__all__ = [
    "ContinuumTable",
    "CriticalResult",
    "DimensionMismatch",
    "LocusBranch",
    "LocusResult",
    "MetricMatrix",
    "ModelParams",
    "NoConvergence",
    "PositivityResult",
    "SingularParameters",
    "Spectrum",
    "SweepResult",
    "TridiagonalHamiltonian",
    "VerificationReport",
    "Wavefunction",
    "build_hamiltonian",
    "continuum_convergence",
    "critical_zeta",
    "dieudonne_nullspace",
    "dieudonne_residual",
    "eigen_residual",
    "endpoint_locus",
    "energy_from_y",
    "eval_combo",
    "hermitian_eigenvalues",
    "metric_band",
    "metric_band_extended",
    "metric_n3_general",
    "metric_n3_special",
    "metric_n4_special",
    "metric_positivity_sweep",
    "reality_flags",
    "secular_polynomial",
    "solve_spectrum",
    "sweep_xi",
    "sweep_zeta",
    "verify_metric",
    "wavefunction",
    "z_from_xizeta",
]
