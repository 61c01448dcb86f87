"""Complex special functions underpinning the whole laboratory."""

from eislab.specfun.policy import DEFAULT_POLICY, PrecisionPolicy
from eislab.specfun.gamma import (
    digamma,
    log_gamma,
    stirling_gamma_log,
    stirling_gamma_main_log,
)
from eislab.specfun.zeta import (
    phi_log,
    phi_log_deriv_critical,
    scattering,
    xi,
    xi_log,
    xi_log_deriv,
    zeta,
    zeta_log_derivs,
    zeta_with_derivatives,
)
from eislab.specfun.bessel import (
    bessel_k_scaled,
    bessel_j_transform_kernel_many,
    kuznetsov_kernel,
    kuznetsov_kernel_even_many,
)

__all__ = [
    "DEFAULT_POLICY",
    "PrecisionPolicy",
    "digamma",
    "log_gamma",
    "stirling_gamma_log",
    "stirling_gamma_main_log",
    "phi_log",
    "phi_log_deriv_critical",
    "scattering",
    "xi",
    "xi_log",
    "xi_log_deriv",
    "zeta",
    "zeta_log_derivs",
    "zeta_with_derivatives",
    "bessel_k_scaled",
    "bessel_j_transform_kernel_many",
    "kuznetsov_kernel",
    "kuznetsov_kernel_even_many",
]
