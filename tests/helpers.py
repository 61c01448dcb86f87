"""Independent reimplementations used as oracles by the test suite.

Everything here recomputes library quantities through a different route:
doubled Fourier cutoffs, doubled quadrature resolution, or high-precision
mpmath paths, so agreement is evidence rather than tautology.
"""

import math

import numpy as np

from eislab import oracles
from eislab.arith import tau_gen
from eislab.specfun import PrecisionPolicy, xi_log


def eval_E_independent(z, T: float, extra_margin: float = 2.0,
                       oversample: float = 16.0) -> complex:
    """Fourier-sum Eisenstein value with doubled cutoff and doubled Bessel
    resolution, built directly from scratch (no EisensteinEvaluator)."""
    policy = PrecisionPolicy(bessel_freq_oversample=oversample)
    from eislab.specfun import bessel_k_scaled

    lx = xi_log(1 + 2j * T)
    c = np.exp(xi_log(1 - 2j * T) - lx)
    pref = 2.0 * np.exp(-np.pi * T / 2 - lx)
    y, x = z.y, z.x
    n_max = int(math.ceil(extra_margin * (T + 10 * T ** (1 / 3) + 40) / (2 * math.pi * y)))
    total = (y ** 0.5) * (np.exp(1j * T * math.log(y)) + c * np.exp(-1j * T * math.log(y)))
    ks = bessel_k_scaled(T, 2 * math.pi * np.arange(1, n_max + 1) * y, policy)
    for n, k in enumerate(ks, start=1):
        total += pref * math.sqrt(y) * tau_gen(n, T) * k * 2 * math.cos(2 * math.pi * n * x)
    return complex(total)


def dense_gl(a: float, b: float, npanels: int, order: int = 16):
    """Nodes and weights of ``npanels`` equal Gauss-Legendre panels on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, npanels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def section_quadrature(row, y: float, npanels: int = 2000) -> complex:
    """Dense x quadrature of ``row(xs)`` over F's section at height y: the
    strip |x| <= 1/2 for y >= 1, else the two arcs |x| >= sqrt(1 - y^2)."""
    if y >= 1.0:
        sections = [(-0.5, 0.5)]
    else:
        xr = math.sqrt(1.0 - y * y)
        sections = [(-0.5, -xr), (xr, 0.5)]
    total = 0.0
    for a, b in sections:
        xs, w = dense_gl(a, b, npanels)
        total += complex(np.sum(w * row(xs)))
    return total


def hp_reference(name, *args, **kwargs):
    return getattr(oracles, name)(*args, **kwargs)
