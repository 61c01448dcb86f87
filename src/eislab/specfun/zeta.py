"""Riemann zeta by Euler-Maclaurin, completed zeta in log-polar form,
scattering quantities on the critical line.

The Euler-Maclaurin evaluation

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_k B_2k/(2k)! (s)_{2k-1} N^(-s-2k+1)

with N = 2 max(25, |Im s|) and 14 Bernoulli terms is accurate to well below
1e-10 relative for Re(s) >= -2 and |Im s| <= 1e5.  The first derivative
comes from term-by-term differentiation of the same tail, not finite
differences.

Everything built from products of gamma and zeta values at height ~T is
assembled in log-polar space (complex logarithms added, exponentiated once at
the end): the individual factors at T ~ 400 are astronomically large or small
while the ratios of interest are O(1).
"""

from __future__ import annotations

import math

import numpy as np

from eislab.errors import DomainError, PoleError
from eislab.specfun.gamma import _BERNOULLI_2K, _TWO_K, digamma, log_gamma

_EM_TERMS = _BERNOULLI_2K.size
_EM_COEF = _BERNOULLI_2K / np.array([math.factorial(2 * k) for k in range(1, _EM_TERMS + 1)],
                                    dtype=float)


def _euler_maclaurin(s: np.ndarray, derivs: int):
    """The Euler-Maclaurin sums at every point of the 1-d complex array s, each
    with its own N: zeta for ``derivs`` = 0, (zeta, zeta') for 1, which needs
    s off the nonpositive integers.  The n-sum is one len(s) x max(N) table,
    masked past each N."""
    if (np.abs(s - 1.0) < 1e-12).any():
        raise PoleError("zeta pole at s = 1")
    N = (2 * np.maximum(25.0, np.abs(s.imag))).astype(int)
    n = np.arange(1, N.max())
    ln = np.log(n)
    npow = np.where(n[None, :] < N[:, None], np.exp(-np.outer(s, ln)), 0.0)
    lnN = np.log(N)
    NmS = np.exp(-s * lnN)
    sm1 = s - 1.0
    # Bernoulli tail: the B_2k term carries the Pochhammer product (s)_{2k-1}
    # of f_j = s + j, j < 2k - 1: every other column of one running product
    f = s[:, None] + np.arange(2 * _EM_TERMS - 1)
    P = np.cumprod(f, axis=1)[:, ::2]
    E = np.exp(-(s[:, None] + _TWO_K - 1) * lnN[:, None])
    # n-sum, boundary terms N^{1-s}/(s-1) + N^{-s}/2 and tail, summed left to
    # right: for Re s < 0 they are O(N^(1 - Re s)) and cancel, so the order
    # sets the last digits
    z0 = np.cumsum(np.column_stack([npow.sum(axis=1) + (NmS * N / sm1 + NmS / 2),
                                    _EM_COEF * P * E]), axis=1)[:, -1]
    if derivs == 0:
        return z0
    # s-derivative, term by term
    z1 = -(ln * npow).sum(axis=1) + (-lnN * NmS * N / sm1 - NmS * N / sm1 ** 2
                                     - lnN * NmS / 2)
    cE = _EM_COEF * E
    for k in range(1, _EM_TERMS + 1):
        Pk = P[:, k - 1]
        z1 += cE[:, k - 1] * (Pk * np.sum(1.0 / f[:, :2 * k - 1], axis=1) - Pk * lnN)
    return z0, z1


def zeta(s):
    """Riemann zeta(s), Euler-Maclaurin, for Re(s) >= -2, |Im s| <= 1e5; s a
    number or an array, with an array of the same shape returned for an array."""
    s = np.asarray(s, dtype=complex)
    z = _euler_maclaurin(s.ravel(), derivs=0)
    return z.reshape(s.shape) if s.ndim else z[0]


def xi_log(s) -> complex:
    """Complex log of the completed zeta xi(s) = pi^(-s/2) Gamma(s/2) zeta(s).

    Real part is log|xi(s)| (safe at any height); imaginary part is a phase,
    meaningful mod 2 pi.
    """
    s = complex(s)
    if abs(s) < 1e-12 or abs(s - 1.0) < 1e-12:
        raise PoleError("xi pole at s in {0, 1}")
    return -(s / 2) * np.log(np.pi) + log_gamma(s / 2) + np.log(zeta(s))


def phi_log(s) -> complex:
    """Complex log of phi(s) = xi(2s-1)/xi(2s)."""
    s = complex(s)
    return xi_log(2 * s - 1) - xi_log(2 * s)


def scattering(T: float) -> complex:
    """The scattering value c = xi(1-2iT)/xi(1+2iT) = phi(1/2+iT) at height
    T > 0, in log-polar space; unimodular up to rounding.

    Both xi values sit on the 1-line: phi_log(1/2+iT) gives the same number
    through zeta on Re s = 0, where it loses about 1e-13 at T = 50.
    """
    if not T > 0:
        raise DomainError("scattering requires T > 0")
    lc = xi_log(1 - 2j * T) - xi_log(1 + 2j * T)
    return complex(np.exp(1j * lc.imag) * np.exp(lc.real))


def phi_log_deriv_critical(T: float) -> float:
    """phi'/phi(1/2 + iT), assembled exactly from digamma and zeta'/zeta.

    Via the functional equation xi(s) = xi(1-s), phi'/phi(1/2+iT) is
    -2 [xi'/xi(1-2iT) + xi'/xi(1+2iT)] = -4 Re xi'/xi(1+2iT), a real number,
    with xi'/xi(s) = -log(pi)/2 + psi(s/2)/2 + zeta'/zeta(s).
    """
    s = 1 + 2j * T
    z0, z1 = _euler_maclaurin(np.array([s]), derivs=1)
    return -4.0 * float((-0.5 * np.log(np.pi) + 0.5 * digamma(s / 2) + z1[0] / z0[0]).real)
