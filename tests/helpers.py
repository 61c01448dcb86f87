"""Independent reimplementations used as oracles by the test suite.

Everything here recomputes library quantities through a different route:
doubled Fourier cutoffs, doubled quadrature resolution, or high-precision
mpmath paths, so agreement is evidence rather than tautology.
"""

import math

import numpy as np

from eislab import moments, oracles
from eislab.arith import tau_gen
from eislab.eisenstein import cosine_series
from eislab.specfun import PrecisionPolicy, bessel_k_scaled, xi_log


def eval_E_independent(x: float, y: float, T: float, extra_margin: float = 2.0,
                       oversample: float = 16.0) -> complex:
    """Fourier-sum Eisenstein value at x + iy with doubled cutoff and doubled
    Bessel resolution, summed term by term (no EisensteinEvaluator)."""
    policy = PrecisionPolicy(bessel_freq_oversample=oversample)

    lx = xi_log(1 + 2j * T)
    c = np.exp(xi_log(1 - 2j * T) - lx)
    pref = 2.0 * np.exp(-np.pi * T / 2 - lx)
    n_max = int(math.ceil(extra_margin * (T + 10 * T ** (1 / 3) + 40) / (2 * math.pi * y)))
    total = (y ** 0.5) * (np.exp(1j * T * math.log(y)) + c * np.exp(-1j * T * math.log(y)))
    ks = bessel_k_scaled(T, 2 * math.pi * np.arange(1, n_max + 1) * y, policy)
    for n, k in enumerate(ks, start=1):
        total += pref * math.sqrt(y) * tau_gen(n, T) * k * 2 * math.cos(2 * math.pi * n * x)
    return complex(total)


def lattice_sum_reference(x: float, y: float, s: float) -> float:
    """Brute-force (1/2) sum over coprime (c, d) of y^s / |cz+d|^(2s) at
    z = x + iy.

    The sum is cut at |c|, |d| <= 120.  Converges for real s > 1; used only
    to validate the real-s coefficient path at heights where the constant
    term dominates.
    """
    bound = 120
    total = 0.0
    zz = complex(x, y)
    for c in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            if (c, d) == (0, 0) or math.gcd(abs(c), abs(d)) != 1:
                continue
            total += y ** s / abs(c * zz + d) ** (2 * s)
    return 0.5 * total


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


def truncated_value(ev, x: float, y: float, A: float) -> complex:
    """E_A(x + iy) of an evaluator ev, from the sharp-cut row of ``moments``."""
    ys = np.array([y])
    rows, _, _ = moments._cut_rows(ev.row_coefficients(ys), moments._sharp_cut(A)(ys), 1.0)
    return complex(cosine_series(rows[0], [x])[0])
