"""Complex log-gamma, digamma, and the large-imaginary-part gamma surrogate.

``log_gamma`` and ``digamma`` are ``scipy.special.loggamma`` and
``scipy.special.psi`` applied to complex input, behind a pole check: scipy
returns nan at a nonpositive integer, these raise ``PoleError``.  log_gamma
is the principal branch, continuous off the negative real axis.

``stirling_gamma_log`` is the log of the leading large-t surrogate for
Gamma(z + it),

    sqrt(2 pi) |t|^(z + it - 1/2) exp(-pi|t|/2 - it + i sgn(t) (pi/2)(z - 1/2)),

whose relative error is O(|z+1|^2 / |t|).
"""

from __future__ import annotations

import numpy as np
from scipy import special

from eislab.errors import DomainError, PoleError

_LN_2PI = float(np.log(2.0 * np.pi))


def _check_not_nonpositive_integer(z):
    z = np.atleast_1d(z)
    bad = (np.abs(z.imag) < 1e-300) & (z.real <= 0.5) \
        & (np.abs(z.real - np.round(z.real)) < 1e-300)
    if bad.any():
        raise PoleError("gamma pole at nonpositive integer argument")


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex z, vectorized.

    Raises
    ------
    PoleError
        If z is a nonpositive integer.
    """
    z = np.asarray(z, dtype=complex)
    _check_not_nonpositive_integer(z)
    return special.loggamma(z)


def digamma(z):
    """psi(z) = Gamma'(z)/Gamma(z), principal values, vectorized.

    Raises
    ------
    PoleError
        If z is a nonpositive integer.
    """
    z = np.asarray(z, dtype=complex)
    _check_not_nonpositive_integer(z)
    return special.psi(z)


def stirling_gamma_log(z: complex, t: float) -> complex:
    """Log of the large-t approximation to Gamma(z + it).

    Requires Re(z) > 0 and |t| > 2 |z+1|^2; the relative deviation from the
    exact gamma is O(|z+1|^2 / |t|).
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError("stirling_gamma requires Re(z) > 0")
    if abs(t) <= 2.0 * abs(z + 1.0) ** 2:
        raise DomainError(
            f"stirling_gamma requires |t| > 2|z+1|^2 = {2.0 * abs(z + 1.0) ** 2:.3g}, got |t| = {abs(t):.3g}")
    sgn = 1.0 if t >= 0 else -1.0
    at = abs(t)
    return (0.5 * _LN_2PI + (z + 1j * t - 0.5) * np.log(at)
            - 0.5 * np.pi * at - 1j * t + 1j * sgn * 0.5 * np.pi * (z - 0.5))
