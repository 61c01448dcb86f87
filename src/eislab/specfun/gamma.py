"""Complex log-gamma, digamma, and the large-imaginary-part gamma surrogate.

``log_gamma`` and ``digamma`` sum the Stirling series

    log Gamma(w) = (w - 1/2) log w - w + log(2 pi)/2 + sum_k B_2k / (2k (2k-1) w^(2k-1)),
    psi(w)       = log w - 1/(2w) - sum_k B_2k / (2k w^2k),

at |w| >= 7 (``_R``), over as many of the 14 Bernoulli numbers
B_2 .. B_28 of ``_BERNOULLI_2K`` as the smallest |w| of a call needs for
the first term left out to be below about 1e-17 of the value: ten for
log Gamma and twelve for psi at |w| = 7, four at |w| = 50.  Only the
points with |z| < 7 are moved: each to w = z + n, n the fewest unit steps
with |w| >= 7, and the recurrence takes the factors
z + k, k < n, back off, log Gamma(z) = log Gamma(w) - log prod_k (z + k)
and psi(z) = psi(w) - sum_k 1/(z + k).  A point of the strip Re z < 0,
|Im z| < 7 first goes to 1 - z by the reflection formulas (Hare,
J. Algorithms 25, 1997)

    log Gamma(z) = log pi + 2 pi i floor(Re z/2 + 1/4) - log sin(pi z) - log Gamma(1 - z),
    psi(z)       = psi(1 - z) - pi cot(pi z),

the first for Im z >= +0.0, so a point whose Im z has its sign bit set goes
by its conjugate.  Past the strip, |Im z| >= 7, the series itself is
accurate to e^(-2 pi |Im z|) in the whole plane.  log_gamma is the
principal branch, continuous off the negative real axis; on that axis
Im z = +0.0 gives the limit from above and -0.0 the limit from below.  Both
functions raise ``PoleError`` at a nonpositive integer.

``stirling_gamma_log`` is the log of the leading large-t surrogate for
Gamma(z + it),

    sqrt(2 pi) |t|^(z + it - 1/2) exp(-pi|t|/2 - it + i sgn(t) (pi/2)(z - 1/2)),

whose relative error is O(|z+1|^2 / |t|).
"""

from __future__ import annotations

import math

import numpy as np

from eislab.errors import DomainError, PoleError

_LN_2PI = float(np.log(2.0 * np.pi))

# B_{2k} for k = 1..14: the Stirling series here and the Euler-Maclaurin tail of zeta
_BERNOULLI_2K = np.array([
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330, 854513.0 / 138,
    -236364091.0 / 2730, 8553103.0 / 6, -23749461029.0 / 870,
])
_TWO_K = 2.0 * np.arange(1, _BERNOULLI_2K.size + 1)
_LG_COEF = _BERNOULLI_2K / (_TWO_K * (_TWO_K - 1.0))
_PSI_COEF = _BERNOULLI_2K / _TWO_K
# the |w| past which the first k terms leave out less than 1e-17: the
# (k+1)-th term, coef_(k+1) |w|^(-2k-2), is then smaller
_LG_RADII = (np.abs(_LG_COEF[1:]) / 1e-17) ** (1.0 / _TWO_K[1:])
_PSI_RADII = (np.abs(_PSI_COEF[1:]) / 1e-17) ** (1.0 / _TWO_K[1:])
_R = 7.0  # the series is summed at |w| >= _R
_STEPS = np.arange(_R)  # the recurrence's steps k = 0 .. _R - 1


def _check_not_nonpositive_integer(z):
    """Raise PoleError if the 1-d array z holds a nonpositive integer."""
    if z.real.min(initial=1.0) > 0.0:
        return
    bad = (np.abs(z.imag) < 1e-300) & (z.real <= 0.5) \
        & (np.abs(z.real - np.round(z.real)) < 1e-300)
    if bad.any():
        raise PoleError("gamma pole at nonpositive integer argument")


def _series(w, r, coef, radii):
    """sum_k coef_k w^(-2k) by Horner's rule in 1/w^2, over the leading
    terms that |w| >= r needs: past radii[K-1], K terms leave out less than
    1e-17."""
    u = 1.0 / (w * w)
    first, *rest = coef[int(np.count_nonzero(radii > r))::-1].tolist()
    p = u * first
    for c in rest:
        p += c
        p *= u
    return p


def _sin_pi(z):
    """sin(pi z), with Re z reduced by the nearest integer first, so that
    the value keeps its relative accuracy next to the integers."""
    m = np.round(z.real)
    s = np.sin(np.pi * (z - m))
    return np.where(m % 2.0 == 0.0, s, -s)


def _shift(z):
    """Move each point with |z| < _R right by the fewest unit steps n that
    give |z + n| >= _R.  Returns w = z + n at every point (z itself if no
    point moves), a lower bound on |w|, the index of the moved points, and
    their factors z + k over the steps k = 0.._R-1 (rows) with the mask
    k < n."""
    r2 = z.real * z.real + z.imag * z.imag
    r = math.sqrt(max(r2.min(initial=np.inf), _R * _R))
    near = np.flatnonzero(r2 < _R * _R)
    if not near.size:
        return z, r, near, None, None
    zn = z[near]
    n = np.ceil(np.sqrt(_R * _R - zn.imag * zn.imag) - zn.real)
    w = z.copy()
    w[near] = zn + n
    return w, r, near, _STEPS[:, None] < n, zn + _STEPS[:, None]


def _log_gamma(z):
    """log Gamma on a 1-d complex array holding no pole."""
    if z.real.min(initial=0.0) < 0.0:
        left = (z.real < 0.0) & (np.abs(z.imag) < _R)
        if left.any():
            out = np.empty_like(z)
            out[~left] = _log_gamma(z[~left])
            # the reflection's branch term is written for Im z >= +0.0:
            # a point whose Im z has its sign bit set goes by its conjugate
            zl = z[left]
            flip = np.signbit(zl.imag)
            zl = np.where(flip, zl.conj(), zl)
            ref = (math.log(math.pi) + 2j * np.pi * np.floor(0.5 * zl.real + 0.25)
                   - np.log(_sin_pi(zl)) - _log_gamma(1.0 - zl))
            out[left] = np.where(flip, ref.conj(), ref)
            return out
    w, r, near, live, f = _shift(z)
    out = (w - 0.5) * np.log(w) - w + 0.5 * _LN_2PI + w * _series(w, r, _LG_COEF, _LG_RADII)
    if near.size:
        # log prod_k (z + k): the modulus from the product, the argument as
        # the sum of the factors' arguments, each in (-pi/2, pi/2], so that
        # no branch cut is crossed
        f = np.where(live, f, 1.0)
        out[near] -= np.log(np.abs(f.prod(axis=0))) + 1j * np.arctan2(f.imag, f.real).sum(axis=0)
    return out


def _digamma(z):
    """psi on a 1-d complex array holding no pole."""
    left = (z.real < 0.0) & (np.abs(z.imag) < _R)
    if left.any():
        out = np.empty_like(z)
        zl = z[left]
        out[left] = _digamma(1.0 - zl) - np.pi / np.tan(np.pi * (zl - np.round(zl.real)))
        out[~left] = _digamma(z[~left])
        return out
    w, r, near, live, f = _shift(z)
    out = np.log(w) - 0.5 / w - _series(w, r, _PSI_COEF, _PSI_RADII)
    if near.size:
        out[near] -= np.where(live, 1.0 / f, 0.0).sum(axis=0)
    return out


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex z, vectorized.

    Raises
    ------
    PoleError
        If z is a nonpositive integer.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    _check_not_nonpositive_integer(flat)
    return _log_gamma(flat).reshape(z.shape)[()]


def digamma(z):
    """psi(z) = Gamma'(z)/Gamma(z), principal values, vectorized.

    Raises
    ------
    PoleError
        If z is a nonpositive integer.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    _check_not_nonpositive_integer(flat)
    return _digamma(flat).reshape(z.shape)[()]


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
