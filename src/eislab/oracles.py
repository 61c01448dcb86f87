"""High-precision oracle mode: independent baselines for test comparisons.

Everything here goes through mpmath at elevated working precision and, where
it matters, through *different* algorithms than the production code uses
(downward gamma recurrence instead of scipy's loggamma, tanh-sinh quadrature
instead of panel Gauss-Legendre, hypergeometric Bessel series instead of
rotated contours).  Production code never imports this module; it exists
solely to anchor the test suite.
"""

from __future__ import annotations

import mpmath as mp


def hp_log_gamma(z: complex, dps: int = 50) -> complex:
    """Gamma via Gamma(z+K) and downward recurrence at high precision.

    Independent of the production path: the shifted point is evaluated with
    mpmath's own gamma, then divided back down term by term.
    """
    with mp.workdps(dps):
        zz = mp.mpc(z)
        K = 0
        while abs(zz + K) < 40:
            K += 1
        acc = mp.loggamma(zz + K)
        for j in range(K):
            acc -= mp.log(zz + j)
        return complex(acc)


def hp_digamma(z: complex, dps: int = 50) -> complex:
    with mp.workdps(dps):
        return complex(mp.psi(0, mp.mpc(z)))


def hp_zeta(s: complex, dps: int = 40, derivative: int = 0) -> complex:
    with mp.workdps(dps):
        return complex(mp.zeta(mp.mpc(s), derivative=derivative))


def hp_zeta_em_doubled(s: complex, dps: int = 40) -> complex:
    """Euler-Maclaurin at doubled term count, independent working precision."""
    with mp.workdps(dps):
        ss = mp.mpc(s)
        N = int(4 * max(25.0, abs(mp.im(ss))))
        acc = mp.nsum(lambda n: n ** (-ss), [1, N - 1], method="direct")
        acc += N ** (1 - ss) / (ss - 1) + N ** (-ss) / 2
        for k in range(1, 29):
            poch = mp.mpf(1)
            for j in range(2 * k - 1):
                poch *= ss + j
            acc += mp.bernoulli(2 * k) / mp.factorial(2 * k) * poch * N ** (-ss - 2 * k + 1)
        return complex(acc)


def hp_xi_log(s: complex, dps: int = 40) -> complex:
    with mp.workdps(dps):
        ss = mp.mpc(s)
        return complex(-ss / 2 * mp.log(mp.pi) + mp.loggamma(ss / 2) + mp.log(mp.zeta(ss)))


def hp_bessel_k_scaled(T: float, y: float, dps: int = 40) -> float:
    """e^(pi T/2) K_{iT}(y) by tanh-sinh quadrature of the defining integral.

    The working precision absorbs the cancellation of the real-axis form, so
    this is a genuinely independent check on the rotated-contour production
    path.
    """
    extra = int(0.7 * T) + 10  # cancellation costs ~ (pi/2) T / ln(10) digits
    with mp.workdps(dps + extra):
        f = lambda u: mp.exp(-y * mp.cosh(u)) * mp.cos(T * u)
        umax = mp.acosh((mp.mpf(10) ** (dps + extra) + abs(y)) / y) if y < 1e300 else 1
        val = mp.quad(f, [0, umax]) * mp.exp(mp.pi * T / 2)
        return float(mp.re(val))


def hp_bessel_k_scaled_fast(T: float, y: float, dps: int = 40) -> float:
    """Same quantity via mpmath's besselk (hypergeometric machinery)."""
    extra = int(0.7 * T) + 10
    with mp.workdps(dps + extra):
        return float(mp.re(mp.besselk(mp.mpc(0, T), mp.mpf(y)) * mp.exp(mp.pi * T / 2)))


def hp_kuznetsov_kernel_even(x: float, t: float, dps: int = 50) -> complex:
    """i (J_{2it} - J_{-2it})(4 pi x) / sinh(pi t) via mpmath besselj."""
    extra = int(1.4 * abs(t)) + 25
    with mp.workdps(dps + extra):
        nu = mp.mpc(0, 2 * t)
        w = 4 * mp.pi * x
        v = 1j * (mp.besselj(nu, w) - mp.besselj(-nu, w)) / mp.sinh(mp.pi * t)
        return complex(v)


def hp_kuznetsov_kernel_paper(x: float, t: float, dps: int = 50) -> complex:
    """The raw (unsymmetrized) 2i J_{2it}(4 pi x)/sinh(pi t)."""
    extra = int(1.4 * abs(t)) + 25
    with mp.workdps(dps + extra):
        v = 2j * mp.besselj(mp.mpc(0, 2 * t), 4 * mp.pi * x) / mp.sinh(mp.pi * t)
        return complex(v)


def hp_gauss_bump_mass(dps: int = 30) -> float:
    """int_{-1}^{1} exp(-1/(1-u^2)) du, the mollifier mass constant."""
    with mp.workdps(dps):
        return float(mp.quad(lambda u: mp.e ** (-1 / (1 - u * u)), [-1, 1]))


def hp_mellin_barnes_kk(s: complex, mu: complex, nu: complex, dps: int = 30) -> complex:
    """(2^(s-3)/Gamma(s)) prod_{+-,+-} Gamma((s +- mu +- nu)/2)."""
    with mp.workdps(dps):
        ss, m, n = mp.mpc(s), mp.mpc(mu), mp.mpc(nu)
        acc = (ss - 3) * mp.log(2) - mp.loggamma(ss)
        for sm in (+1, -1):
            for sn in (+1, -1):
                acc += mp.loggamma((ss + sm * m + sn * n) / 2)
        return complex(mp.e ** acc)
