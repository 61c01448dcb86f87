"""Composite Gauss-Legendre quadrature and Chebyshev tables.

All oscillatory kernels in this package are integrated with fixed-order
Gauss-Legendre panels whose width tracks the local bandwidth (oscillation
frequency plus damping rate).  A 16-point panel spanning two wavelengths
gives ``OVERSAMPLE`` = 8 nodes per wavelength, spectrally convergent, the
default of every panel rule, moment grid and ``PrecisionPolicy``.  Functions
read far more often than sampled (K_{iT}, the AFE weights) are tabulated.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from eislab.errors import ConvergenceError

_GL_ORDER = 16
OVERSAMPLE = 8.0  # nodes per wavelength of every panel rule


@cache  # unbounded: the orders in use are 16 and 48
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gl_nodes(a: float, b: float, order: int):
    """Nodes and weights of a single Gauss-Legendre rule on [a, b]."""
    x, w = _gl_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def panel_count(a, b, bandwidth, oversample: float = OVERSAMPLE, min_panels: int = 2):
    """Number of equal 16-node panels on [a, b] that carry at least
    ``oversample`` nodes per wavelength of ``bandwidth``; elementwise."""
    width = 2.0 * np.pi * _GL_ORDER / (oversample * np.maximum(bandwidth, 1.0))
    return np.maximum(min_panels, np.ceil((b - a) / width).astype(int))


def panel_nodes(a: float, b: float, bandwidth: float, *, min_panels: int = 2):
    """Composite 16-point GL nodes on [a, b] resolving a given bandwidth.

    ``bandwidth`` is the largest |d(phase)/du| plus the steepest damping rate
    of the integrand on the interval, in radians per unit length.  Panel
    widths are chosen so each 16-node panel carries at least ``OVERSAMPLE``
    nodes per wavelength of the fastest oscillation; ``panel_edges`` takes
    another density.
    """
    if b <= a:
        return np.empty(0), np.empty(0)
    return edge_nodes(panel_edges(a, b, bandwidth, min_panels=min_panels))


def panel_edges(a: float, b: float, bandwidth: float, oversample: float = OVERSAMPLE,
                min_panels: int = 2) -> np.ndarray:
    """The panel edges of ``panel_nodes`` on [a, b], b > a."""
    return np.linspace(a, b, int(panel_count(a, b, bandwidth, oversample, min_panels)) + 1)


def ragged_panel_nodes(a, b, bandwidth, oversample: float = OVERSAMPLE):
    """``panel_nodes`` on many intervals [a_i, b_i] at once.

    Returns the nodes and weights of every interval, concatenated, and the
    index i of each node, for summing per interval with ``np.bincount``.
    Each interval's edges are np.linspace's bit for bit, k (b - a)/n + a
    with the last edge b itself, so its nodes are the ones ``panel_nodes``
    gives it; an interval with b_i <= a_i has none.
    """
    a, b, bandwidth = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                            for v in (a, b, bandwidth)))
    count = np.where(b > a, panel_count(a, b, bandwidth, oversample), 0)
    owner = np.repeat(np.arange(a.size), count)
    k = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    step, base = ((b - a) / np.maximum(count, 1))[owner], a[owner]
    lo = k * step + base
    hi = np.where(k + 1 == count[owner], b[owner], (k + 1) * step + base)
    x, w = _gl_rule(_GL_ORDER)
    mid, half = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel(), np.repeat(owner, _GL_ORDER)


def edge_nodes(edges):
    """Composite 16-point GL nodes and weights on the panels between ``edges``."""
    x, w = _gl_rule(_GL_ORDER)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _two_product(a, b):
    """a b = p + e exactly, p = fl(a b): Dekker's product by Veltkamp splitting."""
    def split(v):
        big = 134217729.0 * v  # 2^27 + 1
        hi = big - (big - v)
        return hi, v - hi
    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    """a + b = s + e exactly, s = fl(a + b): Knuth's sum."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _panel_exp(edges, k, unit=1.0):
    """e^(unit k_t s) at the nodes s = mid_p + half x_j of the equal 16-node
    panels between ``edges``, as the factors e^(unit k_t mid_p) and
    e^(unit k_t half x_j) whose product is the (p, j, t) value.

    The panel factor is factored again: of P panels, p = q B + r with
    B = ceil(sqrt(P)), and mid_p = base_q + off_r + delta_p, where
    base_q = mid_(qB), off_r = r width and delta_p, from a two-sum, is the
    rounding of mid_p against base_q + off_r; it enters to first order as
    (1 + unit k_t delta_p).  That is (2B + 16) x len(k) exponentials in place
    of one per node and t.  k_t base_q and k_t off_r are kept to twice double
    precision: their rounding, 1e-13 at a phase of 1e3, would be shared by a
    panel's 16 nodes and so would not average out.  For a real ``unit``,
    k_t <= 0 on edges >= 0 (the Kuznetsov vertical legs) keeps both factors
    at most 1, so neither overflows."""
    def factor(v):
        p, err = _two_product(v[:, None], k[None, :])
        return np.exp(unit * p) * (1.0 + unit * err)
    mid = 0.5 * (edges[:-1] + edges[1:])
    width = (edges[-1] - edges[0]) / mid.size
    B = math.ceil(math.sqrt(mid.size))
    off = width * np.arange(B)
    fb, fo = factor(mid[::B]), factor(off)
    em = np.empty((mid.size, k.size), dtype=fo.dtype)
    for q, i in enumerate(range(0, mid.size, B)):  # a block at a time bounds the temporaries
        block = mid[i:i + B]
        s, e = _two_sum(block[0], off[:block.size])
        em[i:i + B] = fb[q] * fo[:block.size] * (1.0 + unit * np.outer((block - s) - e, k))
    return em, np.exp(unit * np.outer(0.5 * width * _gl_rule(_GL_ORDER)[0], k))


_CHEB_DEG = 24       # polynomial degree of every table panel
_CHEB_TOL = 1e-14    # stop rule: a panel's last three coefficients, relative to the peak
_CHEB_MIN_WIDTH = 2.0 ** -6  # far below the K_{iT} table's wavelengths, >= 34 / T
_CHEB_THETA = np.pi * (np.arange(_CHEB_DEG + 1) + 0.5) / (_CHEB_DEG + 1)
_CHEB_NODES = np.cos(_CHEB_THETA)
_CHEB_FIT = (2.0 / (_CHEB_DEG + 1)) * np.cos(np.outer(np.arange(_CHEB_DEG + 1), _CHEB_THETA))
_CHEB_FIT[0] *= 0.5
# solves 2 |J_22(z)| = 1e-14: the coefficients of e^(i z t) on [-1, 1] are
# 2 i^k J_k(z), so a panel of half-width z / omega on e^(i omega u) just meets the rule
_CHEB_Z = 4.0873


class ChebyshevTable:
    """Piecewise degree-24 Chebyshev interpolant of f on [edges[0], edges[-1]],
    starting from the seed partition ``edges``; f maps a 1-d array of points
    to the array of its values, or of its values along a second axis of
    components, which share the panels.

    Each level of pending panels is sampled in one f call.  A panel is kept
    once, for every component, its last three coefficients are at most 1e-14
    of that component's peak |f| over every sample so far (Trefethen, ATAP,
    ch. 8), and bisected into the next level otherwise, so a seed that is too
    coarse costs one more level, never accuracy; a failing panel narrower
    than 2^-6 raises ConvergenceError.
    """

    def __init__(self, f, edges):
        a, b = np.asarray(edges[:-1], float), np.asarray(edges[1:], float)
        lefts, coefs = [], []
        self.peak = 0.0
        while a.size:
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            vals = f((mid[:, None] + half[:, None] * _CHEB_NODES).ravel())
            self.shape, self.dtype = vals.shape[1:], np.result_type(vals, float)
            self.peak = np.maximum(self.peak, np.max(np.abs(vals), axis=0))
            # every real part (re, im interleaved) in one fit: (panels, parts, degree + 1)
            parts = np.ascontiguousarray(vals, self.dtype).reshape(a.size, _CHEB_DEG + 1, -1)
            coef = (np.moveaxis(parts.view(float), 2, 1).reshape(-1, _CHEB_DEG + 1)
                    @ _CHEB_FIT.T).reshape(a.size, -1, _CHEB_DEG + 1)
            tail = np.abs(coef[..., -3:])
            tail = np.hypot(tail[:, ::2], tail[:, 1::2]) if self.dtype == complex else tail
            ok = np.all(np.max(tail, axis=2) <= _CHEB_TOL * self.peak, axis=1)
            stuck = ~ok & (b - a < _CHEB_MIN_WIDTH)
            if stuck.any():
                i = int(np.argmax(stuck))
                raise ConvergenceError(f"Chebyshev table: panel [{a[i]:.17g}, {b[i]:.17g}] "
                                       f"still fails the {_CHEB_TOL:.0e} coefficient rule")
            lefts.append(a[ok])
            coefs.append(coef[ok])
            a, mid, b = a[~ok], mid[~ok], b[~ok]
            a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        order = np.argsort(np.concatenate(lefts))
        self.edges = np.append(np.concatenate(lefts)[order], edges[-1])
        # one contiguous (degree + 1, panels) block per real part, for Clenshaw
        self.coefs = np.ascontiguousarray(np.concatenate(coefs)[order].transpose(1, 2, 0))

    def __call__(self, x) -> np.ndarray:
        """The interpolant at an array of x in the table's span, components
        along a trailing axis, by Clenshaw's recurrence on each real part."""
        i = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, self.edges.size - 2)
        a, b = self.edges[i], self.edges[i + 1]
        t = np.clip((x - 0.5 * (a + b)) / (0.5 * (b - a)), -1.0, 1.0)
        parts = [_clenshaw(c, i, t) for c in self.coefs]
        out = parts[0] if len(parts) == 1 else np.stack(parts, axis=-1).view(self.dtype)
        return out.reshape(np.shape(x) + self.shape)


def _clenshaw(coefs, i, t) -> np.ndarray:
    """sum_k coefs[k, i] T_k(t), elementwise over i and t."""
    t2 = 2.0 * t
    b1 = b2 = np.zeros_like(t)
    for ck in coefs[:0:-1]:
        b1, b2 = ck[i] + t2 * b1 - b2, b1
    return coefs[0][i] + t * b1 - b2

