"""Composite Gauss-Legendre quadrature helpers.

All oscillatory kernels in this package are integrated with fixed-order
Gauss-Legendre panels whose width tracks the local bandwidth (oscillation
frequency plus damping rate).  A 16-point panel spanning two wavelengths
gives eight nodes per wavelength, which is spectrally convergent; the
``oversample`` knob rescales the panel width for accuracy studies.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_GL_ORDER = 16


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gl_nodes(a: float, b: float, order: int):
    """Nodes and weights of a single Gauss-Legendre rule on [a, b]."""
    x, w = _gl_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


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
    bandwidth = max(bandwidth, 1.0)
    width = 2.0 * np.pi * _GL_ORDER / (oversample * bandwidth)
    npanels = max(min_panels, int(np.ceil((b - a) / width)))
    return edge_nodes(np.linspace(a, b, npanels + 1))


def edge_nodes(edges):
    """Composite 16-point GL nodes and weights on the panels between ``edges``."""
    x, w = _gl_rule(_GL_ORDER)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


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
