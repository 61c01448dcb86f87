"""High-precision oracle mode: independent baselines for test comparisons.

Everything here goes through mpmath at elevated working precision and, where
it matters, through *different* algorithms than the production code uses
(downward gamma recurrence instead of the Stirling series, tanh-sinh quadrature
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
    path.  Checked against ``hp_bessel_k_scaled_fast`` to 1e-12 relative on
    a grid over 0 <= T <= 200, 1e-8 <= y <= 700.  The range is split into
    panels no longer than one period of cos(T u), the width 1/sqrt(y) of the
    peak at u = 0, and 1, so the cost grows like T log(1/y): seconds at
    T = 50, minutes at T = 200, y = 1e-3.
    """
    extra = int(0.7 * T) + 10  # cancellation costs ~ (pi/2) T / ln(10) digits
    with mp.workdps(dps + extra):
        # scaled by e^y so the peak is 1: mp.quad's error tolerance is absolute
        f = lambda u: mp.exp(-2 * y * mp.sinh(u / 2) ** 2) * mp.cos(T * u)
        # the integrand falls 10^-(dps+extra) below its peak at umax
        umax = mp.acosh(1 + (dps + extra) * mp.log(10) / y)
        step = min(1.0, 1.0 / y ** 0.5, 2 * mp.pi / T if T > 0 else 1.0)
        pts = mp.linspace(0, umax, int(mp.ceil(umax / step)) + 1)
        val = mp.quad(f, pts) * mp.exp(mp.pi * T / 2 - y)
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


def hp_bump_transform(s: complex, B: float, half_width: float, hhat0: float,
                      dps: int = 30) -> complex:
    """int h(A) (pi A)^(s-1) dA for the mollifier bump on (B - d, B + d) of
    mass hhat0, by tanh-sinh quadrature in A on 60 equal sub-intervals of the
    support, with the mollifier mass recomputed at the same precision."""
    with mp.workdps(dps):
        ss, b, d = mp.mpc(s), mp.mpf(B), mp.mpf(half_width)
        scale = mp.mpf(hhat0) / (d * mp.quad(lambda u: mp.e ** (-1 / (1 - u * u)), [-1, 1]))
        f = lambda A: scale * mp.e ** (-1 / (1 - ((A - b) / d) ** 2)) * (mp.pi * A) ** (ss - 1)
        return complex(mp.quad(f, mp.linspace(b - d, b + d, 61)))


def hp_mellin_barnes_kk(s: complex, mu: complex, nu: complex, dps: int = 30) -> complex:
    """(2^(s-3)/Gamma(s)) prod_{+-,+-} Gamma((s +- mu +- nu)/2)."""
    with mp.workdps(dps):
        ss, m, n = mp.mpc(s), mp.mpc(mu), mp.mpc(nu)
        acc = (ss - 3) * mp.log(2) - mp.loggamma(ss)
        for sm in (+1, -1):
            for sn in (+1, -1):
                acc += mp.loggamma((ss + sm * m + sn * n) / 2)
        return complex(mp.e ** acc)
