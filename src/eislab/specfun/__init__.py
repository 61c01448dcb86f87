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
    kuznetsov_kernel_even_many,
    kuznetsov_kernel_transform,
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
    "kuznetsov_kernel_even_many",
    "kuznetsov_kernel_transform",
]
