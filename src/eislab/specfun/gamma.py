"""Complex log-gamma, digamma, and the large-imaginary-part gamma expansion.

``log_gamma`` and ``digamma`` use the classical recurrence-shifted asymptotic
series: the argument is pushed to |z| >= 12 by the functional equation, the
Stirling series with Bernoulli coefficients is applied there, and the shift
terms are subtracted back.  Arguments left of Re(z) = 1/2 go through the
reflection formula with an analytically continued log-sine, so the result is
the principal branch everywhere off the negative real axis.

``stirling_gamma`` evaluates Gamma(z + it) for large |t| from the leading
surrogate

    sqrt(2 pi) |t|^(z + it - 1/2) exp(-pi|t|/2 - it + i sgn(t) (pi/2)(z - 1/2))

times a correction series 1 + sum_k c_k(z) / t^k.  The correction
coefficients are not hand-derived: for each (z, sign t, order) they are fitted
once against exact values of Gamma at a ladder of large |t| and cached.
"""

from __future__ import annotations

import numpy as np

from eislab.errors import DomainError, PoleError
from eislab.specfun.policy import StirlingOrder

# B_{2k} / (2k (2k-1)) for k = 1..12: Stirling-series coefficients.
_STIRLING_COEF = np.array([
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380953e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688306e-01,
    -1.392432216905901e+00, 1.340286404416839e+01, -1.568482846260020e+02,
])

# B_{2k} / (2k) for k = 1..12: digamma-series coefficients.
_DIGAMMA_COEF = np.array([
    8.333333333333333e-02, -8.333333333333333e-03, 3.968253968253968e-03,
    -4.166666666666667e-03, 7.575757575757576e-03, -2.109279609279609e-02,
    8.333333333333333e-02, -4.432598039215686e-01, 3.053954330270120e+00,
    -2.645621212121212e+01, 2.814601449275362e+02, -3.607510546398047e+03,
])

_SHIFT_RADIUS = 12.0
_LN_2PI = float(np.log(2.0 * np.pi))


def _check_not_nonpositive_integer(z):
    z = np.atleast_1d(z)
    bad = (np.abs(z.imag) < 1e-300) & (z.real <= 0.5) \
        & (np.abs(z.real - np.round(z.real)) < 1e-300)
    if bad.any():
        raise PoleError("gamma pole at nonpositive integer argument")


def _log_sin_pi_upper(z):
    # log sin(pi z) continued through Im z >= 0:
    # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}), |e^{2 i pi z}| < 1 above axis
    return -1j * np.pi * z + np.log1p(-np.exp(2j * np.pi * z)) - np.log(2.0) + 1j * np.pi / 2


def _log_gamma_right(z):
    """Shifted Stirling series, valid for Re(z) >= 0.5."""
    zz = np.array(z, dtype=complex)
    shift = np.zeros_like(zz)
    for _ in range(16):
        small = np.abs(zz) < _SHIFT_RADIUS
        if not small.any():
            break
        shift = np.where(small, shift + np.log(zz), shift)
        zz = np.where(small, zz + 1.0, zz)
    res = (zz - 0.5) * np.log(zz) - zz + 0.5 * _LN_2PI
    w = 1.0 / zz
    w2 = w * w
    p = w
    acc = np.zeros_like(zz)
    for c in _STIRLING_COEF:
        acc = acc + c * p
        p = p * w2
    return res + acc - shift


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex z, vectorized.

    exp(log_gamma(z)) = Gamma(z) exactly (up to rounding); the imaginary part
    is the principal branch off the negative real axis.

    Raises
    ------
    PoleError
        If z is a nonpositive integer.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    _check_not_nonpositive_integer(z)
    out = np.empty_like(z)
    right = z.real >= 0.5
    if right.any():
        out[right] = _log_gamma_right(z[right])
    left = ~right
    if left.any():
        zl = z[left]
        conj = zl.imag < 0
        zu = np.where(conj, np.conj(zl), zl)
        val = np.log(np.pi) - _log_sin_pi_upper(zu) - _log_gamma_right(1.0 - zu)
        out[left] = np.where(conj, np.conj(val), val)
    return out[0] if scalar else out


def gamma(z):
    """Gamma(z) = exp(log_gamma(z)); over/underflows where |log| > ~709."""
    return np.exp(log_gamma(z))


def digamma(z):
    """psi(z) = Gamma'(z)/Gamma(z), principal values, vectorized."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    _check_not_nonpositive_integer(z)
    out = np.empty_like(z)
    right = z.real >= 0.5
    left = ~right

    def _right_half(zz):
        zz = np.array(zz, dtype=complex)
        shift = np.zeros_like(zz)
        for _ in range(16):
            small = np.abs(zz) < _SHIFT_RADIUS
            if not small.any():
                break
            shift = np.where(small, shift + 1.0 / zz, shift)
            zz = np.where(small, zz + 1.0, zz)
        res = np.log(zz) - 0.5 / zz
        w2 = 1.0 / (zz * zz)
        p = w2
        for c in _DIGAMMA_COEF:
            res = res - c * p
            p = p * w2
        return res - shift

    if right.any():
        out[right] = _right_half(z[right])
    if left.any():
        zl = z[left]
        # psi(z) = psi(1-z) - pi cot(pi z)
        out[left] = _right_half(1.0 - zl) - np.pi / np.tan(np.pi * zl)
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# large-t surrogate with fitted correction coefficients
# ---------------------------------------------------------------------------

_correction_cache: dict = {}


def stirling_gamma_main_log(z: complex, t: float) -> complex:
    """Log of the order-zero large-t surrogate for Gamma(z + it)."""
    sgn = 1.0 if t >= 0 else -1.0
    at = abs(t)
    return (0.5 * _LN_2PI + (z + 1j * t - 0.5) * np.log(at)
            - 0.5 * np.pi * at - 1j * t + 1j * sgn * 0.5 * np.pi * (z - 0.5))


def _fit_corrections(z: complex, sign: float, order: int):
    """Fit c_1..c_order in Gamma(z+it)/main(z,t) = 1 + sum c_k t^{-k}.

    Uses exact values (via log_gamma) at |t| = anchor * 2^m.  The anchor is
    large enough that the neglected tail is far below the fit's resolution.
    """
    key = (complex(z), sign, order)
    if key in _correction_cache:
        return _correction_cache[key]
    if order == 0:
        _correction_cache[key] = np.empty(0, dtype=complex)
        return _correction_cache[key]
    # The anchor must stay small: the c_N signal in the residual is
    # ~ c_N / anchor^N and has to clear the ~1e-15 noise of the exact values.
    anchor = max(24.0, 4.0 * abs(z + 1.0) ** 2)
    tm = sign * anchor * (1.5 ** np.arange(order))
    resid = np.array([
        np.exp(log_gamma(z + 1j * tt) - stirling_gamma_main_log(z, tt)) - 1.0
        for tt in tm
    ])
    powers = np.vander(1.0 / tm, N=order + 1, increasing=True)[:, 1:]
    coef = np.linalg.solve(powers.astype(complex), resid)
    _correction_cache[key] = coef
    return coef


def stirling_gamma_log(z: complex, t: float,
                       order: StirlingOrder = StirlingOrder(0)) -> complex:
    """Log of the large-t approximation to Gamma(z + it) with corrections.

    Requires Re(z) > 0 and |t| > 2 |z+1|^2; relative deviation from the exact
    gamma is O((|z+1|^2 / |t|)^(order+1)).
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError("stirling_gamma requires Re(z) > 0")
    if abs(t) <= 2.0 * abs(z + 1.0) ** 2:
        raise DomainError(
            f"stirling_gamma requires |t| > 2|z+1|^2 = {2.0 * abs(z + 1.0) ** 2:.3g}, got |t| = {abs(t):.3g}")
    main = stirling_gamma_main_log(z, t)
    coef = _fit_corrections(z, 1.0 if t >= 0 else -1.0, order.n)
    if len(coef) == 0:
        return main
    corr = np.polyval(np.concatenate([coef[::-1], [1.0]]), 1.0 / t)
    return main + np.log(corr)


def stirling_gamma(z: complex, t: float,
                   order: StirlingOrder = StirlingOrder(0)) -> complex:
    """Large-t approximation to Gamma(z + it).

    Underflows to 0 once pi|t|/2 exceeds ~708; use ``stirling_gamma_log`` for
    heights beyond that.
    """
    return np.exp(stirling_gamma_log(z, t, order))
