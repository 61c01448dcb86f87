"""Bessel kernels with imaginary order.

Scaled K-Bessel
---------------
``bessel_k_scaled(T, y)`` returns e^(pi T/2) K_{iT}(y), the combination that
is O(1) through the oscillatory range y < T.  Both evaluation paths are exact
contour rotations of the cosine-transform representation

    e^(pi T/2) K_{iT}(y) = int_0^inf cos(T u - y sinh u) du,

chosen so the integrand never exceeds the result's own scale (the naive
real-axis form of int_0^inf e^(-y cosh u) cos(Tu) du loses e^(pi T/2 - ...)
of precision to cancellation once T is past ~25):

* oscillatory range (y below the turning point y ~ T): the cosine form above,
  integrated on [0, u1] with y cosh u1 = max(2T, 30), the remainder pushed
  onto a descending vertical leg u1 - i r, r in (0, pi/2], and the horizontal
  leg Im u = -pi/2 where the integrand is e^(T pi/2 - y cosh x), superexponentially
  decaying by the choice of u1;

* decay range (y past the turning point): the saddle-shifted real form

    e^(T arccos(T/y)) int_0^inf e^(-sqrt(y^2-T^2) cosh u) cos(T (sinh u - u)) du,

  whose integrand peak matches the result scale, so no cancellation.

Step control is frequency-aware in both paths: composite Gauss-Legendre
panels sized to the local bandwidth with ``policy.bessel_freq_oversample``
nodes per oscillation.  Two separate thresholds bound the work:

* each unbounded leg (the horizontal one, and the saddle-shifted real leg)
  ends where its integrand is e^-45 (``_TAIL_CUT``, 2.9e-20) below the
  result's own scale; the panels are sized for the bandwidth at the leg's
  far end, so a longer leg costs nodes along its whole length.  For
  T >= 104.8 the horizontal leg would start past its end and is skipped;

* a decay-range value whose scale e^(T arccos(T/y) - sqrt(y^2-T^2)) is
  below e^-745 (``_FLOOR_EXP``, the double-precision underflow) is
  returned as 0.0, an absolute floor under 1e-280.

``y`` may be an array.  Its values are split between the two paths and
taken 64 at a time (``_BLOCK``), which bounds the transient node arrays.
Each contour leg of a block is one ragged batch: every y's panels on its
own interval are built in one set of array operations
(``quadrature.ragged_panel_nodes``, whose edges are np.linspace's bit for
bit), the integrand is evaluated on all nodes at once, and ``np.bincount``
sums the nodes of each y in order.  A y's value therefore does not depend on
the other y of the call, and a scalar call is a batch of one.

Kuznetsov kernel
----------------
``kuznetsov_kernel(x, t)`` returns the t-even part of (2i/sinh(pi t)) J_{2it}(4 pi x),

    i (J_{2it}(w) - J_{-2it}(w)) / sinh(pi t) = (4/pi) int_0^inf cos(w cosh s) cos(2 t s) ds

with w = 4 pi x.  The right-hand side follows from the Hankel-function
integrals once both Mehler-Sonine pieces are scaled against sinh(pi t); the
e^(pi t) scales cancel identically, leaving an O(1) real integrand valid for
all w > 0 and real t.  Pointwise, 2i J_{2it}/sinh(pi t) itself is *not* real;
only this even part is, and the even part is the only combination the
trace-formula integrals against even test functions ever see.  Tails are
again handled by rotation to Im s = +pi/2.

``kuznetsov_kernel_transform(xs, ts, a)`` returns sum_t a_t K(x, t) for many
x at once with the t- and s-integrals swapped, since the t-sums
G(s) = sum_t a_t e^(+-2its) do not depend on x.  Every t-sum is taken on a
grid of equal 16-node panels, whose nodes are s = mid_p + half x_j, so
e^(2its) = e^(2it mid_p) e^(2it half x_j) and G on the whole grid is one
(panels x N_t) @ (N_t x 16) product: (panels + 16) N_t exponentials instead
of one per node and t.  The product t mid_p is carried to twice double
precision, because its rounding is shared by a panel's 16 nodes.

* Real leg: every x shares one panel grid, its rotation point s1 rounded up
  to a panel edge, so G is computed once and an x costs O(N_s) cosines.
* Vertical legs s1 + ir: G = B @ e^(+-2it s1) with B[r, t] = a_t e^(-+2tr),
  B factored by panel as above: one matrix product for all x.  The growing
  sign's rows are scaled by e^(-2 t_max r), folded back into the leg factor,
  so |B| <= |a| and nothing overflows.
* Horizontal legs s + i pi/2, s >= s1: one panel grid per sign, its panel
  width a divisor of the real leg's so every s1 is one of its edges, carries
  H(s) = sum_t a_t e^(-+pi t) e^(+-2its).  The growing sign's H is scaled by
  e^(-pi t_max), which the leg factor e^(pi t_max - w sinh s) takes back.
  An x costs O(N_s) real exponentials.
"""

from __future__ import annotations

import numpy as np

from eislab.errors import DomainError
from eislab.quadrature import _GL_ORDER, _panel_exp, edge_nodes, panel_nodes, ragged_panel_nodes
from eislab.specfun.policy import DEFAULT_POLICY, PrecisionPolicy

_FLOOR_EXP = 745.0  # e^-745 ~ 5e-324: a result whose scale is below it is 0.0
_TAIL_CUT = 45.0    # a leg ends where its integrand is e^-45 below the result's scale
_BLOCK = 64         # y values per ragged batch, which bounds the transient node arrays


def _k_scaled_oscillatory(T: float, y: np.ndarray, policy: PrecisionPolicy) -> np.ndarray:
    os = policy.bessel_freq_oversample
    M = max(2.0 * T, 30.0)
    u1 = np.arccosh(np.maximum(M / y, 1.0))  # 0 where M <= y: no real leg
    total = np.zeros(y.size)
    n, w, i = ragged_panel_nodes(0.0, u1, max(T, M - T), os)
    total += np.bincount(i, w * np.cos(T * n - y[i] * np.sinh(n)), y.size)
    # vertical leg u = u1 - i r: |integrand| = exp(-(y cosh(u1) sin r - T r)) <= 1
    n, w, i = ragged_panel_nodes(0.0, np.pi / 2, y * np.sinh(u1) + T, os)
    theta = T * (u1[i] - 1j * n) - y[i] * np.sinh(u1[i] - 1j * n)
    total += np.bincount(i, np.real(w * np.exp(1j * theta) * (-1j)), y.size)
    # horizontal leg u = x - i pi/2: integrand e^{iTx} e^{T pi/2 - y cosh x}
    cap = (T * np.pi / 2 + _TAIL_CUT) / y
    xmax = np.where(cap > np.cosh(u1), np.arccosh(np.maximum(cap, 1.0)), u1)
    n, w, i = ragged_panel_nodes(u1, xmax, T + y * np.sinh(xmax), os)
    total += np.bincount(i, np.real(
        w * np.exp(1j * T * n) * np.exp(T * np.pi / 2 - y[i] * np.cosh(n))), y.size)
    return total


def _k_scaled_decay(T: float, y: np.ndarray, policy: PrecisionPolicy) -> np.ndarray:
    os = policy.bessel_freq_oversample
    p = np.sqrt((y - T) * (y + T))
    pref = T * np.arccos(T / y) if T > 0 else np.zeros(y.size)
    # a scale below e^-745 leaves an empty leg: 0.0, under the 1e-280 floor
    chmax = 1.0 + (_TAIL_CUT + np.maximum(pref - p, 0.0)) / p
    umax = np.where(pref - p < -_FLOOR_EXP, 0.0, np.arccosh(chmax))
    n, w, i = ragged_panel_nodes(0.0, umax, p * np.sinh(umax) + T * (np.cosh(umax) - 1.0), os)
    vals = np.exp(pref[i] - p[i] * np.cosh(n)) * np.cos(T * (np.sinh(n) - n))
    return np.bincount(i, w * vals, y.size)


def bessel_k_scaled(T: float, y, policy: PrecisionPolicy = DEFAULT_POLICY):
    """e^(pi T/2) K_{iT}(y) for T >= 0 and y > 0; real.

    ``y`` is a number, for which a float is returned, or an array, for which
    an array of its shape is returned; each value is the one a lone call
    with that y gives, bit for bit.  Any y <= 0 raises DomainError.

    Relative error below 1e-9 wherever the value exceeds ~1e-280, as
    surveyed against mpmath's besselk by scripts/kernel_accuracy_survey.py;
    below that scale the absolute error is under 1e-280 (the value may
    underflow to exactly 0).  The contour legs are truncated relative to
    the result, where the integrand is e^-45 below its scale, and the
    1e-280 floor is a separate, absolute cut.
    """
    ys = np.asarray(y, dtype=float)
    if not np.all(ys > 0.0):
        raise DomainError(f"bessel_k_scaled requires y > 0, got {np.min(ys)}")
    T = abs(float(T))  # K_{iT} = K_{-iT}
    flat = ys.ravel()
    out = np.empty(flat.size)
    decay = flat >= T + 3.0 * max(T, 1.0) ** (1.0 / 3.0)
    for path, idx in ((_k_scaled_decay, np.flatnonzero(decay)),
                      (_k_scaled_oscillatory, np.flatnonzero(~decay))):
        for i0 in range(0, idx.size, _BLOCK):
            blk = idx[i0:i0 + _BLOCK]
            out[blk] = path(T, flat[blk], policy)
    return out.reshape(ys.shape) if ys.ndim else float(out[0])


# ---------------------------------------------------------------------------
# Kuznetsov kernel
# ---------------------------------------------------------------------------

def _contour(w: float, tmax: float, edges=None):
    """Rotation point s1 = asinh(M/w), M = max(4 tmax, 20), or the next of
    ``edges`` above it (the shift is exact for any s1), and the end x_end of
    each leg Im s = pi/2 of e^(i sg 2ts), where e^(-w sinh x - sg pi t) is
    e^-50 below scale: returns s1, {sg: x_end}."""
    s1 = float(np.arcsinh(max(4.0 * tmax, 20.0) / w))
    if edges is not None:
        s1 = float(edges[min(np.searchsorted(edges, s1), len(edges) - 1)])
    ends = {sg: 50.0 + max(-sg, 0.0) * np.pi * tmax for sg in (1.0, -1.0)}
    return s1, {sg: float(np.arcsinh(e / w)) for sg, e in ends.items() if w * np.sinh(s1) < e}


def _horizontal_leg(w, s1, x_end, sg, ts, tmax, os):
    """int_{s1}^{x_end} of e^(-w sinh x - sg pi t + i sg 2 t x), one row per t."""
    n, wt = panel_nodes(s1, x_end, 2.0 * tmax + w * np.cosh(x_end), os)
    expo = (-w * np.sinh(n))[None, :] + 1j * sg * 2.0 * np.outer(ts, n) - sg * np.pi * ts[:, None]
    return np.real(np.exp(expo) @ wt)


def _kernel_even_many(w: float, ts: np.ndarray) -> np.ndarray:
    """(4/pi) int_0^inf cos(w cosh s) cos(2 t s) ds for an array of t >= 0.

    One leg geometry is chosen from max(t), so the node grids are shared
    across the whole t array.
    """
    os = DEFAULT_POLICY.bessel_freq_oversample
    tmax = float(np.max(ts))
    s1, legs = _contour(w, tmax)
    total = np.zeros_like(ts, dtype=float)
    # real leg
    n, wt = panel_nodes(0.0, s1, w * np.sinh(s1) + 2.0 * tmax, os)
    wc = w * np.cosh(n)
    c2 = np.cos(np.outer(ts, 2.0 * n))
    # cos(wc + 2ts) + cos(wc - 2ts) = 2 cos(wc) cos(2ts)
    total += 2.0 * (c2 * (np.cos(wc) * wt)[None, :]).sum(axis=1)
    # rotated tails, sigma = +-1: int_{s1}^inf e^{i(w cosh s + sigma 2 t s)} ds.
    # Exponents are folded into one matrix before exponentiating: the shared
    # leg factor and the per-t phase can individually leave double range at
    # large t even though their product never does.
    for sg in (+1.0, -1.0):
        n, wt = panel_nodes(0.0, np.pi / 2, w * np.cosh(s1) + 2.0 * tmax, os)
        zz = s1 + 1j * n
        expo = (1j * w * np.cosh(zz))[None, :] + 1j * sg * 2.0 * np.outer(ts, zz)
        total += np.real(np.exp(expo) @ (1j * wt))
        if sg in legs:
            total += _horizontal_leg(w, s1, legs[sg], sg, ts, tmax, os)
    return (2.0 / np.pi) * total


def kuznetsov_kernel_even_many(x: float, ts):
    """Even part of the trace-formula kernel at fixed x over an array of t >= 0."""
    if x <= 0.0:
        raise DomainError(f"kuznetsov kernel requires x > 0, got {x}")
    ts = np.asarray(ts, dtype=float)
    if (ts < 0).any():
        raise DomainError("t array must be nonnegative (kernel is even in t)")
    return _kernel_even_many(4.0 * np.pi * x, ts)


def kuznetsov_kernel_transform(xs, ts, a) -> np.ndarray:
    """sum_t a_t K(x, t) for every x of ``xs``, K the even kernel at t >= 0,
    by the contracted transform of the module docstring."""
    xs, ts, a = (np.asarray(v, dtype=float) for v in (xs, ts, a))
    if (xs <= 0.0).any() or (ts < 0).any():
        raise DomainError("kuznetsov_kernel_transform needs x > 0 and t >= 0")
    os = DEFAULT_POLICY.bessel_freq_oversample
    tmax = float(np.max(ts))
    ws = 4.0 * np.pi * xs
    raw = np.array([_contour(w, tmax)[0] for w in ws])
    # real leg: one panel grid for every x, 10 % above the widest bandwidth
    # w cosh(s1) + 2 tmax, each s1 rounded up to one of its panel edges
    n, wt = panel_nodes(0.0, float(raw.max()), 1.1 * (float(np.max(ws * np.cosh(raw)))
                                                    + 2.0 * tmax), os)
    edges = np.linspace(0.0, float(raw.max()), n.size // _GL_ORDER + 1)
    geo = [_contour(w, tmax, edges) for w in ws]
    s1 = np.array([g[0] for g in geo])
    em, ex = _panel_exp(edges, 2.0 * ts, 1j)
    g_real = wt * ((em * a) @ ex.T).real.ravel()
    inside = n[None, :] < s1[:, None]
    total = 2.0 * (np.cos(np.outer(ws, np.cosh(n))) * inside) @ g_real
    # vertical legs s1 + i r: sum_t a_t e^(i sg 2t(s1 + ir)) = (B @ e^(i sg 2t s1))[r]
    # with B[r, t] = a_t e^(-sg 2tr), factored by panel; the growing sign's rows
    # carry e^(-2 tmax r), so |B| <= |a|, and the leg factor takes e^(2 tmax r) back
    r, wr = panel_nodes(0.0, np.pi / 2, float(np.max(ws * np.cosh(s1))) + 2.0 * tmax, os)
    r_edges = np.linspace(0.0, np.pi / 2, r.size // _GL_ORDER + 1)
    phase = np.exp(2j * np.outer(ts, s1))
    for sg in (1.0, -1.0):
        lift = (1.0 - sg) * tmax * r
        em, ex = _panel_exp(r_edges, -sg * 2.0 * ts - (1.0 - sg) * tmax)
        rows = ((em * a)[:, None, :] * ex[None, :, :]).reshape(r.size, ts.size)
        leg = np.exp(1j * ws[:, None] * np.cosh(s1[:, None] + 1j * r[None, :]) + lift[None, :])
        g_vert = rows @ phase.real + (1j * sg) * (rows @ phase.imag)
        total += np.real(((1j * wr) * leg * g_vert.T).sum(axis=1))
    # horizontal legs s + i pi/2, s >= s1: one grid per sign whose panels split
    # the real leg's, so every s1 is an edge of it, at the widest bandwidth
    # 2 tmax + w cosh(x_end) of its legs, carrying H(s) = sum_t a_t
    # e^(-sg pi t + i sg 2ts); the growing sign's H carries e^(-pi tmax), which
    # the leg factor e^(pi tmax - w sinh s) takes back.  An x runs from its s1
    # to the grid's end, past its own x_end where the factor is e^-50 below scale
    for sg in (1.0, -1.0):
        on = np.array([sg in g[1] for g in geo])
        if not on.any():
            continue
        ends = np.array([g[1][sg] for g in geo if sg in g[1]])
        lo, step = float(s1[on].min()), float(edges[1])
        need = 2.0 * np.pi * _GL_ORDER / (os * float(np.max(
            2.0 * tmax + ws[on] * np.cosh(ends))))
        split, span = int(np.ceil(step / need)), int(np.ceil((ends.max() - lo) / step))
        h_edges = np.linspace(lo, lo + span * step, split * span + 1)
        h, wh = edge_nodes(h_edges)
        lift = 0.5 * (1.0 - sg) * np.pi * tmax
        em, ex = _panel_exp(h_edges, sg * 2.0 * ts, 1j)
        g_horz = wh * ((em * (a * np.exp(-sg * np.pi * ts - lift))) @ ex.T).ravel()
        expo = np.where(h[None, :] > s1[on, None],
                        lift - ws[on, None] * np.sinh(h[None, :]), -np.inf)
        total[on] += np.real(np.exp(expo) @ g_horz)
    return (2.0 / np.pi) * total


def kuznetsov_kernel(x: float, t: float) -> complex:
    """t-even part of (2i/sinh(pi t)) J_{2it}(4 pi x); real for real t, x.

    Returned as complex per the library convention for spectral kernels; the
    imaginary part is identically zero.
    """
    if x <= 0.0:
        raise DomainError(f"kuznetsov_kernel requires x > 0, got {x}")
    if t == 0.0:
        raise DomainError("kuznetsov_kernel requires t != 0 (limit exists but is not taken here)")
    val = _kernel_even_many(4.0 * np.pi * x, np.array([abs(float(t))]))[0]
    return complex(val)


def bessel_j_transform_kernel_many(x: float, ts):
    """Even combination (J_{2it} - J_{-2it})(2 pi x) / cosh(pi t) over t >= 0.

    Equals -i tanh(pi t) times the even kernel at half the argument scale;
    used by the oscillatory-transform diagnostics.
    """
    ts = np.asarray(ts, dtype=float)
    ker = _kernel_even_many(2.0 * np.pi * x, ts)
    return -1j * np.tanh(np.pi * ts) * ker
