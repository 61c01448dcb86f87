"""Composite Gauss-Legendre quadrature helpers.

All oscillatory kernels in this package are integrated with fixed-order
Gauss-Legendre panels whose width tracks the local bandwidth (oscillation
frequency plus damping rate).  A 16-point panel spanning two wavelengths
gives eight nodes per wavelength, which is spectrally convergent; the
``oversample`` knob rescales the panel width for accuracy studies.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

_GL_ORDER = 16


@cache  # unbounded: the orders in use are 16 and 48
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gl_nodes(a: float, b: float, order: int):
    """Nodes and weights of a single Gauss-Legendre rule on [a, b]."""
    x, w = _gl_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def panel_count(a, b, bandwidth, oversample: float = 8.0, min_panels: int = 2):
    """Number of equal 16-node panels on [a, b] that carry at least
    ``oversample`` nodes per wavelength of ``bandwidth``; elementwise."""
    width = 2.0 * np.pi * _GL_ORDER / (oversample * np.maximum(bandwidth, 1.0))
    return np.maximum(min_panels, np.ceil((b - a) / width).astype(int))


def panel_nodes(a: float, b: float, bandwidth: float, oversample: float = 8.0,
                min_panels: int = 2):
    """Composite 16-point GL nodes on [a, b] resolving a given bandwidth.

    ``bandwidth`` is the largest |d(phase)/du| plus the steepest damping rate
    of the integrand on the interval, in radians per unit length.  Panel
    widths are chosen so each 16-node panel carries at least ``oversample``
    nodes per wavelength of the fastest oscillation.
    """
    if b <= a:
        return np.empty(0), np.empty(0)
    return edge_nodes(panel_edges(a, b, bandwidth, oversample, min_panels))


def panel_edges(a: float, b: float, bandwidth: float, oversample: float = 8.0,
                min_panels: int = 2) -> np.ndarray:
    """The panel edges of ``panel_nodes`` on [a, b], b > a."""
    return np.linspace(a, b, int(panel_count(a, b, bandwidth, oversample, min_panels)) + 1)


def ragged_panel_nodes(a, b, bandwidth, oversample: float = 8.0):
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


def pairwise_sum(values) -> complex:
    """Sum along a fixed pairwise tree.

    The summation order is part of the result: every moment value and its
    pinned reference digits come from this tree, so it stays even though a
    plain ``sum`` would do the same work.
    """
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        paired = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            paired.append(vals[-1])
        vals = paired
    return vals[0]
