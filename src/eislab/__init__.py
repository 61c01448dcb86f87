"""Numerical laboratory for truncated Eisenstein series on the modular surface.

Subpackages and modules:

- ``specfun``    complex special functions (log-gamma, zeta, completed zeta,
                 scattering quantities, Bessel kernels with imaginary order)
- ``arith``      divisor sums, Kloosterman sums, Hecke-relation utilities
- ``eisenstein`` the Eisenstein series, its truncation, and the attached
                 cuspidal-window function, plus fundamental-domain reduction
- ``moments``    quadrature over the fundamental domain, Maass-Selberg closed
                 forms, second and fourth moments
- ``weights``    smoothing bumps, bulk windows, gamma-ratio and contour-integral
                 weight functions, Mellin pairs
- ``spectral``   Maass-form data handling, approximate functional equations,
                 trace-formula diagnostics, diagonal main-term assembly
- ``cli``        batch driver with CSV emission and the acceptance suite
"""

from eislab.errors import (
    DomainError,
    PoleError,
    ToleranceError,
    DegenerateParameterError,
    ValidationError,
    MissingEigenvalueError,
)
from eislab.specfun import PrecisionPolicy

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PoleError",
    "ToleranceError",
    "DegenerateParameterError",
    "ValidationError",
    "MissingEigenvalueError",
    "PrecisionPolicy",
    "__version__",
]
