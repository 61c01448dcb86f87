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
nodes per oscillation.  The oscillatory real leg comes in two pieces, split
at y cosh u2 = 2T.  Below u2 the phase rate |T - y cosh u| is at most T,
and the panels are sized for max(T, 8); the floor of 8 keeps a panel short
enough to follow the growth of y sinh u (with max(T, 1), a small-T,
small-y panel spans ~12 units of u and the error reaches 4.5e-10 of the
peak |K|).  Above u2 the rate is at most M - T, M = max(2T, 30); for
T >= 15, M = 2T and the upper piece is empty.  Two separate thresholds
bound the work:

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
The contour legs of a block are one ragged batch: every y's panels on each
of its intervals are built in one set of array operations
(``quadrature.ragged_panel_nodes``, whose edges are np.linspace's bit for
bit), each leg's integrand is evaluated on all its nodes at once, and
``np.bincount`` sums the nodes of each y in order, one leg after another.
A y's value therefore does not depend on the other y of the call, and a
scalar call is a batch of one.

Kuznetsov kernel
----------------
``kuznetsov_kernel_even_many(x, ts)`` returns, over an array of t >= 0, the
t-even part of (2i/sinh(pi t)) J_{2it}(4 pi x),

    i (J_{2it}(w) - J_{-2it}(w)) / sinh(pi t) = (4/pi) int_0^inf cos(w cosh s) cos(2 t s) ds

with w = 4 pi x.  The right-hand side follows from the Hankel-function
integrals once both Mehler-Sonine pieces are scaled against sinh(pi t); the
e^(pi t) scales cancel identically, leaving an O(1) real integrand valid for
all w > 0 and real t.  Pointwise, 2i J_{2it}/sinh(pi t) itself is *not* real;
only this even part is, and the even part is the only combination the
trace-formula integrals against even test functions ever see.  The contour
runs along the real axis to s1 and up to s1 + i pi/2, with
w sinh s1 = max(4 t_max, pi t_max + 50).  On the line Im s = pi/2 the
integrand of either sign is e^(-w sinh x -+ pi t), at most e^-50 at x = s1
for every t <= t_max and falling like e^(-w sinh x) past it, so the contour
ends there.  ``kuznetsov_kernel_even_many`` evaluates one x at a time on
that contour and is kept as the reference that the tests and the benchmark
check the transform below against; the library's own callers use the
transform, whose vertical legs end lower.

``kuznetsov_kernel_transform(xs, ts, a)`` returns sum_t a_t K(x, t) for many
x at once with the t- and s-integrals swapped, since the t-sums
G(s) = sum_t a_t e^(+-2its) do not depend on x.  Every t-sum is taken on a
grid of equal 16-node panels, whose nodes are s = mid_p + half x_j, so
e^(2its) = e^(2it mid_p) e^(2it half x_j) and G on the whole grid is one
(panels x N_t) @ (N_t x 16) product.  The panel factor is in turn a product
over a block start and an offset within the block, ceil(sqrt(panels)) of
each (``quadrature._panel_exp``), so the grid takes
(2 ceil(sqrt(panels)) + 16) N_t exponentials instead of one per node and t.
Both phases are carried to twice double precision, because their rounding
is shared by a panel's 16 nodes.

* Real leg: every x shares one panel grid, its rotation point s1 rounded up
  to a panel edge, so G is computed once and an x costs O(N_s) cosines.
* Vertical legs s1 + ir: G = B @ e^(+-2it s1) with B[r, t] = a_t e^(-+2tr),
  B factored by panel as above: one matrix product for all x.  The growing
  sign's rows are scaled by e^(-2 t_max r), folded back into the leg factor,
  so |B| <= |a| and nothing overflows.  e^(2it s1) is the real leg's panel
  factor at the panel that ends at s1, times e^(2it half), so it too keeps
  twice double precision.  The legs end at r_end, the least r in (0, pi/2]
  where sum_t |a_t| e^(2tr - W sin r) <= e^-50 sum_t |a_t|, W = min_x w sinh s1
  (``_leg_end``): that bounds the integrand of both signs at s1 + ir, and
  past the corner, on Im s = r_end, |e^(iw cosh s)| = e^(-w sinh Re s sin r_end)
  keeps falling, which is the argument for ending at pi/2 with pi/2 replaced
  by r_end.  On Gaussian weights r_end is 0.11-0.63, and a leg takes 112
  nodes where one to pi/2 took 256-1,536.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from eislab.errors import DomainError
from eislab.quadrature import (
    _panel_exp,
    edge_nodes,
    panel_edges,
    panel_nodes,
    ragged_panel_nodes,
)
from eislab.specfun.policy import DEFAULT_POLICY, PrecisionPolicy

_FLOOR_EXP = 745.0  # e^-745 ~ 5e-324: a result whose scale is below it is 0.0
_TAIL_CUT = 45.0    # a leg ends where its integrand is e^-45 below the result's scale
_BLOCK = 64         # y values per ragged batch, which bounds the transient node arrays


def _k_scaled_oscillatory(T: float, y: np.ndarray, policy: PrecisionPolicy) -> np.ndarray:
    M = max(2.0 * T, 30.0)
    u1 = np.arccosh(np.maximum(M / y, 1.0))  # 0 where M <= y: no real leg
    # the real leg in two pieces, at y cosh u2 = 2T: the phase rate
    # |T - y cosh u| is at most T below u2 and at most M - T above it
    u2 = np.minimum(np.arccosh(np.maximum(2.0 * T / y, 1.0)), u1)
    cap = (T * np.pi / 2 + _TAIL_CUT) / y
    xmax = np.where(cap > np.cosh(u1), np.arccosh(np.maximum(cap, 1.0)), u1)
    # four intervals per y, in one ragged batch: the real leg's two pieces, the
    # vertical leg's r in [0, pi/2] and the horizontal leg's x in [u1, xmax];
    # interval j belongs to y[j % k], and the owners ascend, so each leg is a slice
    k, zero = y.size, np.zeros(y.size)
    n, w, i = ragged_panel_nodes(
        np.concatenate([zero, u2, zero, u1]), np.concatenate([u2, u1, zero + np.pi / 2, xmax]),
        np.concatenate([zero + max(T, 8.0), zero + max(T, M - T), y * np.sinh(u1) + T,
                        T + y * np.sinh(xmax)]), policy.bessel_freq_oversample)
    cuts = np.searchsorted(i, [2 * k, 3 * k])
    (n, nv, nh), (w, wv, wh), (i, iv, ih) = (np.split(v, cuts) for v in (n, w, i))
    iv, ih = iv - 2 * k, ih - 3 * k
    yy = np.concatenate([y, y])
    real = np.bincount(i, w * np.cos(T * n - yy[i] * np.sinh(n)), 2 * k)
    total = real.reshape(2, k).sum(axis=0)  # the two pieces of each y
    # vertical leg u = u1 - i r: |integrand| = exp(-(y cosh(u1) sin r - T r)) <= 1
    theta = T * (u1[iv] - 1j * nv) - y[iv] * np.sinh(u1[iv] - 1j * nv)
    total += np.bincount(iv, np.real(wv * np.exp(1j * theta) * (-1j)), k)
    # horizontal leg u = x - i pi/2: integrand e^{iTx} e^{T pi/2 - y cosh x}
    total += np.bincount(ih, np.real(
        wh * np.exp(1j * T * nh) * np.exp(T * np.pi / 2 - y[ih] * np.cosh(nh))), k)
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
# Real-order K-Bessel
# ---------------------------------------------------------------------------

_K_CUT = 40.0      # the real-order trapezoid ends where its integrand is below e^-40
_LEVELS = 4        # step levels per octave of x
_WINDOW = 8        # node tables cover whole runs of 8 levels, two octaves
_X_MIN = 2.0 ** -20  # the nodes grow like log(1/x): bessel_k_real stops here
_X_TOP = 2.0 ** 10   # past it e^-x is 0.0, and the trapezoid is summed at _X_TOP


@functools.lru_cache(maxsize=64)
def _k_real_nodes(nu: float, lo: int, hi: int):
    """The trapezoid of ``bessel_k_real`` on levels lo <= l < hi, level l
    holding the x in [2^(l/4), 2^((l+1)/4)): its step from the top x of the
    level and its last node from the bottom one.  Returns the exponent
    rates s = 2 sinh^2(t/2) and weights h cosh(nu t) of every level's nodes
    t = j h (rows, padded with s = 0 and weight 0), and each level's last j."""
    x_lo = np.exp2(np.arange(lo, hi) / _LEVELS)
    h = (625.0 + (3.7 * 2.0 ** (2.0 / _LEVELS)) * x_lo * x_lo) ** -0.25
    # one step towards the root of x_lo (cosh t - 1) = _K_CUT + nu t
    t_end = np.arccosh(1.0 + (_K_CUT + nu * np.arccosh(1.0 + _K_CUT / x_lo)) / x_lo)
    last = np.ceil(t_end / h)
    j = np.arange(last.max() + 1.0)
    t = np.multiply.outer(h, j)
    live = j <= last[:, None]
    # past a level's last node: e^0 against a zero weight, so no exponential underflows
    s = np.where(live, 2.0 * np.sinh(0.5 * t) ** 2, 0.0)
    w = np.where(live, h[:, None] * np.cosh(nu * t), 0.0)
    w[:, 0] *= 0.5
    last = last.astype(int)
    for v in (s, w, last):
        v.flags.writeable = False
    return s, w, last


def bessel_k_real(nu: float, x):
    """K_nu(x) for real order nu and finite x >= 2^-20, elementwise over an
    array x (a float for a number); relative error near 1e-15 for |nu| <= 4,
    and 0.0 where K_nu(x) is below the smallest double, past x ~ 745.

    By the trapezoid rule on

        e^x K_nu(x) = int_0^inf e^(-2x sinh^2(t/2)) cosh(nu t) dt,

    with e^-x applied once at the end; the sinh^2 form keeps the exponent
    exact where cosh t - 1 would cancel.  The discretization error falls
    like e^(-pi^2/h) at small x and e^(-2 pi^2/(x h^2)) at large x, and the
    step (625 + 3.7 x^2)^(-1/4), 0.2 at small x and 0.72/sqrt(x) at large
    x, keeps it at the rounding level.  The nodes run to where
    2x sinh^2(t/2) - nu t reaches 40.  The x of a call share their nodes by
    level, four levels to an octave of x (``_k_real_nodes``, kept for the
    64 latest orders and level runs), so the call costs one exponential
    per x and node.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= _X_MIN) & (xs < np.inf)):
        raise DomainError(f"bessel_k_real requires finite x >= 2^-20, got x in "
                          f"[{np.min(xs)}, {np.max(xs)}]")
    flat = np.minimum(xs.ravel(), _X_TOP)
    lev = np.floor(_LEVELS * np.log2(flat))
    first, top = int(lev.min()), int(lev.max())
    lo = first // _WINDOW * _WINDOW
    s, w, last = _k_real_nodes(abs(float(nu)), lo, (top // _WINDOW + 1) * _WINDOW)
    cols = last[first - lo:top - lo + 1].max() + 1
    i = (lev - lo).astype(int)
    e = np.take(s[:, :cols], i, axis=0)
    e *= -flat[:, None]
    np.exp(e, out=e)
    vals = np.einsum("ij,ij->i", e, np.take(w[:, :cols], i, axis=0)) * np.exp(-xs.ravel())
    return vals.reshape(xs.shape) if xs.ndim else float(vals[0])


# ---------------------------------------------------------------------------
# Kuznetsov kernel
# ---------------------------------------------------------------------------

def _rotation_point(w, tmax: float):
    """s1 = asinh(M/w), M = max(4 tmax, pi tmax + 50), elementwise in w.  At
    s1 + i pi/2 the integrand e^(-w sinh s1 -+ pi t) is below e^-50 for both
    signs and every t <= tmax, so the contour may end there or at any s1 above."""
    return np.arcsinh(max(4.0 * tmax, np.pi * tmax + 50.0) / w)


def _t_nodes(ts) -> np.ndarray:
    """The t array of a Kuznetsov kernel call: non-empty, 1-d and >= 0."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise DomainError(f"kuznetsov kernel needs a non-empty 1-d t array, got shape {ts.shape}")
    if (ts < 0).any():
        raise DomainError("t array must be nonnegative (kernel is even in t)")
    return ts


def kuznetsov_kernel_even_many(x: float, ts):
    """Even part of the trace-formula kernel at one x > 0 over an array of t >= 0:
    (4/pi) int_0^inf cos(w cosh s) cos(2 t s) ds, w = 4 pi x.

    One leg geometry is chosen from max(t), so the node grids are shared
    across the whole t array.
    """
    if x <= 0.0:
        raise DomainError(f"kuznetsov kernel requires x > 0, got {x}")
    ts = _t_nodes(ts)
    w = 4.0 * np.pi * x
    tmax = float(np.max(ts))
    s1 = _rotation_point(w, tmax)
    total = np.zeros_like(ts, dtype=float)
    # real leg
    n, wt = panel_nodes(0.0, s1, w * np.sinh(s1) + 2.0 * tmax)
    wc = w * np.cosh(n)
    c2 = np.cos(np.outer(ts, 2.0 * n))
    # cos(wc + 2ts) + cos(wc - 2ts) = 2 cos(wc) cos(2ts)
    total += 2.0 * (c2 * (np.cos(wc) * wt)[None, :]).sum(axis=1)
    # rotated tails, sigma = +-1: int_{s1}^{s1 + i pi/2} e^{i(w cosh s + sigma 2 t s)} ds.
    # Exponents are folded into one matrix before exponentiating: the shared
    # leg factor and the per-t phase can individually leave double range at
    # large t even though their product never does.
    n, wt = panel_nodes(0.0, np.pi / 2, w * np.cosh(s1) + 2.0 * tmax)
    zz = s1 + 1j * n
    for sg in (+1.0, -1.0):
        expo = (1j * w * np.cosh(zz))[None, :] + 1j * sg * 2.0 * np.outer(ts, zz)
        total += np.real(np.exp(expo) @ (1j * wt))
    return (2.0 / np.pi) * total


def _leg_end(ts, a, W: float) -> float:
    """The smallest r in (0, pi/2] with sum_t |a_t| e^(2tr - W sin r) <= e^-50 sum_t |a_t|,
    by bisection; 0.0 for an all-zero a.

    The left side is a logsumexp minus W sin r, convex on [0, pi/2], so the
    bound holds on an interval that reaches pi/2, where W >= pi t_max + 50
    (``_rotation_point``) meets it term by term; the returned r meets it and
    r (1 - 1e-6) does not."""
    keep = a != 0.0
    if not keep.any():
        return 0.0
    mag, ts = np.abs(a[keep]), ts[keep]
    top = float(ts.max())  # its term keeps the t-sum below from underflowing to 0
    bound = math.log(mag.sum()) - 50.0
    lo, hi = 0.0, np.pi / 2
    while hi - lo > 1e-6 * hi:
        r = 0.5 * (lo + hi)
        if math.log(mag @ np.exp(2.0 * (ts - top) * r)) + 2.0 * top * r - W * math.sin(r) <= bound:
            hi = r
        else:
            lo = r
    return hi


def _edge_phases(edges, em, k, ts) -> np.ndarray:
    """e^(2i t s) at the panel edges s = edges[k], k >= 1, as an (N_t, len(k))
    array, from the factors em of ``_panel_exp(edges, 2 ts, 1j)``: an edge is
    its panel's mid plus half the panel width, so each phase keeps em's twice
    double precision."""
    half = 0.5 * (edges[-1] - edges[0]) / (edges.size - 1)
    return (em[k - 1] * np.exp(2j * half * ts)).T


def kuznetsov_kernel_transform(xs, ts, a) -> np.ndarray:
    """sum_t a_t K(x, t) for every x of ``xs``, K the even kernel at t >= 0,
    by the contracted transform of the module docstring."""
    ts = _t_nodes(ts)
    xs, a = (np.asarray(v, dtype=float) for v in (xs, a))
    if xs.ndim != 1 or xs.size == 0 or a.shape != ts.shape:
        raise DomainError(f"kuznetsov_kernel_transform needs a non-empty 1-d x array and one a "
                          f"per t, got x, t and a of shapes {xs.shape}, {ts.shape}, {a.shape}")
    if not all(np.isfinite(v).all() for v in (xs, ts, a)):
        raise DomainError("kuznetsov_kernel_transform needs finite x, t and a")
    if (xs <= 0.0).any():
        raise DomainError("kuznetsov_kernel_transform needs x > 0")
    tmax = float(np.max(ts))
    ws = 4.0 * np.pi * xs
    raw = _rotation_point(ws, tmax)
    # real leg: one panel grid for every x, 10 % above the widest bandwidth
    # w cosh(s1) + 2 tmax, each s1 rounded up to one of its panel edges
    edges = panel_edges(0.0, float(raw.max()), 1.1 * (np.max(ws * np.cosh(raw)) + 2.0 * tmax))
    n, wt = edge_nodes(edges)
    k = np.minimum(np.searchsorted(edges, raw), edges.size - 1)
    s1 = edges[k]
    em, ex = _panel_exp(edges, 2.0 * ts, 1j)
    g_real = wt * (em @ (ex * a).T).real.ravel()
    inside = n[None, :] < s1[:, None]
    total = 2.0 * (np.cos(np.outer(ws, np.cosh(n))) * inside) @ g_real
    # vertical legs s1 + i r, r <= r_end: sum_t a_t e^(i sg 2t(s1 + ir)) = (B @ e^(i sg 2t s1))[r]
    # with B[r, t] = a_t e^(-sg 2tr), factored by panel; the growing sign's rows
    # carry e^(-2 tmax r), so |B| <= |a|, and the leg factor takes e^(2 tmax r) back
    r_end = _leg_end(ts, a, float(np.min(ws * np.sinh(s1))))
    r_edges = panel_edges(0.0, r_end, float(np.max(ws * np.cosh(s1))) + 2.0 * tmax)
    r, wr = edge_nodes(r_edges)
    phase = _edge_phases(edges, em, k, ts)
    arg = 1j * ws[:, None] * np.cosh(s1[:, None] + 1j * r[None, :])
    for sg in (1.0, -1.0):
        lift = (1.0 - sg) * tmax * r
        em, ex = _panel_exp(r_edges, -sg * 2.0 * ts - (1.0 - sg) * tmax)
        rows = (em[:, None, :] * (ex * a)[None, :, :]).reshape(r.size, ts.size)
        leg = np.exp(arg + lift[None, :])
        g_vert = rows @ phase.real + (1j * sg) * (rows @ phase.imag)
        total += np.real(((1j * wr) * leg * g_vert.T).sum(axis=1))
    return (2.0 / np.pi) * total
