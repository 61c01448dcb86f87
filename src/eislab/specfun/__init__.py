"""Complex special functions underpinning the whole laboratory."""

from eislab.specfun.policy import DEFAULT_POLICY, PrecisionPolicy
from eislab.specfun.gamma import (
    digamma,
    log_gamma,
    stirling_gamma_log,
)
from eislab.specfun.zeta import (
    phi_log,
    phi_log_deriv_critical,
    scattering,
    xi_log,
    zeta,
)
from eislab.specfun.bessel import (
    bessel_k_real,
    bessel_k_scaled,
    kuznetsov_kernel_even_many,
    kuznetsov_kernel_transform,
)

__all__ = [
    "DEFAULT_POLICY",
    "PrecisionPolicy",
    "digamma",
    "log_gamma",
    "stirling_gamma_log",
    "phi_log",
    "phi_log_deriv_critical",
    "scattering",
    "xi_log",
    "zeta",
    "bessel_k_real",
    "bessel_k_scaled",
    "kuznetsov_kernel_even_many",
    "kuznetsov_kernel_transform",
]
