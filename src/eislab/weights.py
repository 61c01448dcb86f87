"""Smoothing and weight functions for the moment pipeline.

Contents: the compactly supported bump h in the truncation height and its
(pi A)^(s-1) transform, the gamma-ratio weights for the spectral and mixed
terms, the contour-integral weight functions of the approximate functional
equation (both parities) and of the height-averaged window, their
closed-form leading terms, and the Mellin pair g(x) <-> G(s) built from
products of two K-Bessel factors.

Every gamma-ratio weight and the Mellin-Barnes closed form are built on one
four-gamma product Q(z) (``_log_gamma_quad``) in log-polar space and
exponentiated once: the individual gamma factors at height ~T are
astronomically small while every ratio used here is moderate.

A desk-scale caveat that shapes several defaults: thresholds of the form
T^alpha with alpha < 1/100 are asymptotic bookkeeping devices - at T = 50,
T^alpha is about 1.04 - so all contour truncations here are driven by the
*measured* decay of the bump transform (which is superpolynomial with rate
exp(-c sqrt(height)) for the standard mollifier) and by the explicit
exponential decay of the gamma ratios, never by T^alpha literally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from eislab.errors import ConvergenceError, DomainError
from eislab.quadrature import (
    _GL_ORDER,
    _panel_exp,
    edge_nodes,
    gl_nodes,
    panel_edges,
    panel_nodes,
)
from eislab.specfun import (
    DEFAULT_POLICY,
    PrecisionPolicy,
    bessel_k_scaled,
    log_gamma,
)

# int_{-1}^{1} exp(-1/(1-u^2)) du, frozen at 50-digit quadrature
MOLLIFIER_MASS = 0.443993816168079437823
# relative decay of the bump transform at the height-averaged contour's cap
_VCAL_TAIL_TOL = 1e-13


@dataclass(frozen=True)
class Bump:
    """Smooth bump in the truncation height, supported on (B - d, B + d).

    d = T^(-alpha/2); the profile is the standard mollifier exp(-1/(1-u^2))
    rescaled to the support and normalized so that the total mass equals
    T^(-alpha/2) exactly (which makes the two-sided mass condition hold with
    constants one).
    """

    B: float
    alpha: float
    T: float

    def __post_init__(self):
        if not (self.B > 1 and self.T > 0 and 0 < self.alpha < 0.01):
            raise DomainError("Bump needs B > 1, T > 0, 0 < alpha < 1/100")
        if self.B - self.half_width <= 1.0:
            raise DomainError("bump support must stay above height 1")

    @property
    def half_width(self) -> float:
        return self.T ** (-self.alpha / 2.0)

    @property
    def hhat0(self) -> float:
        """Total mass int h(A) dA = T^(-alpha/2)."""
        return self.T ** (-self.alpha / 2.0)

    @property
    def scale(self) -> float:
        return self.hhat0 / (self.half_width * MOLLIFIER_MASS)

    def mass_above(self, y):
        """int_{A >= y} h(A) dA, elementwise over an array of y.  A = B + d tanh s
        makes h dA = scale d e^(-cosh^2 s) sech^2 s ds, below 1e-44 past
        |s| = 3, so 48 Gauss-Legendre nodes on [atanh((y - B) / d), 3] give
        the mass to 5e-15 of hhat0.  It is exactly 0 from B + d up and exactly
        hhat0 from B - d down."""
        y = np.asarray(y, float)
        u = np.clip((y - self.B) / self.half_width, -1.0, 1.0)
        with np.errstate(divide="ignore"):
            lo = np.clip(np.arctanh(u), -3.0, 3.0)
        # lo = 3 gives zero weights: no mass above the support
        s, w = gl_nodes(lo[..., None], 3.0, 48)
        ch2 = np.cosh(s) ** 2
        m = self.scale * self.half_width * np.sum(w * np.exp(-ch2) / ch2, axis=-1)
        m = np.where(y > self.B - self.half_width, m, self.hhat0)
        return float(m) if m.ndim == 0 else m


def bump_h(A, bump: Bump):
    """h(A); vectorized, exactly zero off the support."""
    A = np.asarray(A, dtype=float)
    u = (A - bump.B) / bump.half_width
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = bump.scale * np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out if out.ndim else float(out)


def _contour_apply(lnx: np.ndarray, sigma: float, edges: np.ndarray, cores) -> list:
    """[sum_w x^(-w) core(w) for core in cores] at every x = e^lnx, over the
    nodes w = sigma + i s, s = mid_p + half u_j, of the 16-node panels
    between ``edges`` (``quadrature.edge_nodes``).

    x^(-w) = x^(-sigma) e^(-i lnx mid_p) e^(-i lnx half u_j) is factored by
    panel (``quadrature._panel_exp``), and the panel factor again over
    B = ceil(sqrt(panels)) block starts and offsets: (2B + 16) exponentials
    per x in place of one per node.  x is taken 2048 at a time, which bounds
    the memory.
    """
    mats = [np.reshape(c, (-1, _GL_ORDER)) for c in cores]
    outs = [np.empty(len(lnx), dtype=complex) for _ in cores]
    for i0 in range(0, len(lnx), 2048):
        lb = lnx[i0:i0 + 2048]
        em, ex = _panel_exp(edges, lb, -1j)
        scale = np.exp(-sigma * lb)
        for out, m in zip(outs, mats):
            out[i0:i0 + 2048] = scale * np.einsum("pn,pn->n", em, m @ ex)
    return outs


def bump_transform(s, bump: Bump):
    """h-tilde(s) = int h(A) (pi A)^(s-1) dA at points s on one vertical
    line: a complex for a number, an array of its shape for an array.

    (Not quite a Mellin transform: the pi sits inside the power.)  In
    v = log(pi A) it is int h(A) A e^((Re s - 1) v) e^(i Im(s) v) dv, the sum
    of ``_contour_apply`` at x = e^(-Im s) on equal 16-node panels in v, so
    every point of a call must share Re s.
    """
    s = np.asarray(s, dtype=complex)
    re = s.real.ravel()
    if np.any(re != re[0]):
        raise DomainError("bump_transform needs all its points on one vertical line")
    lo, hi = bump.B - bump.half_width, bump.B + bump.half_width
    # oscillation |Im s| and damping |Re s - 1| per unit v, plus mollifier
    # structure ~ 24 / half_width per unit A, which is A times that per unit v;
    # equal panels in v are ~3x wider in A at the top of the support than at
    # its foot, so h-tilde(1) needs the floor of 24 (10 leaves 7e-10 of hhat0)
    bw = float(np.max(np.abs(s.imag))) + abs(re[0] - 1.0) + 24.0 * hi / bump.half_width
    edges = panel_edges(math.log(math.pi * lo), math.log(math.pi * hi), bw, min_panels=24)
    v, wts = edge_nodes(edges)
    A = np.exp(v) / math.pi
    vals, = _contour_apply(-s.imag.ravel(), 0.0, edges,
                           [bump_h(A, bump) * A * np.exp((re[0] - 1.0) * v) * wts])
    return vals.reshape(s.shape) if s.ndim else complex(vals[0])


def bump_transform_decay_height(bump: Bump, sigma: float, tol: float) -> float:
    """Smallest scanned height H where the transform has decayed below
    ``tol`` relative to its own value at the foot of the line Re(s) = sigma.

    This is the honest desk-scale replacement for the asymptotic |s| > T^alpha
    smallness threshold of the transform.
    """
    scale = abs(bump_transform(1.0 - sigma, bump))
    target = tol * max(scale, 1e-280)
    H = 16.0
    while H < 1e5:
        if abs(bump_transform(1.0 - sigma - 1j * H, bump)) < target:
            return H
        H *= 1.35
    raise ConvergenceError("bump transform did not reach the decay target")


# ---------------------------------------------------------------------------
# gamma-ratio weights
# ---------------------------------------------------------------------------

def _log_gamma_quad(z, T: float, t: float):
    """Q(z) = sum_(pm, pm) log Gamma((z pm iT pm it) / 2), the four-gamma
    product of the Mellin-Barnes integral, at a number or an array z."""
    shifts = 1j * np.array([T + t, T - t, t - T, -T - t])
    return np.sum(log_gamma((np.asarray(z, dtype=complex)[..., None] + shifts) / 2.0), axis=-1)


_BULK_ALPHA = 0.009  # the bulk is T^(1 - alpha) < |t| < 2T - T^(1 - alpha)


def _in_bulk(t: float, T: float) -> bool:
    edge = T ** (1.0 - _BULK_ALPHA)
    return edge < abs(t) < 2.0 * T - edge


def weight_Hcal(t: float, T: float) -> complex:
    """Spectral gamma-ratio weight at spectral parameter t, height T; warns
    outside the bulk."""
    if not _in_bulk(t, T):
        warnings.warn(f"weight_Hcal: t={t} outside the bulk range for T={T}",
                      stacklevel=2)
    z = 0.5 - 1j * T
    return complex(np.exp(_log_gamma_quad(z, T, t) - 2.0 * log_gamma(z) - log_gamma(0.5 - 1j * t)))


def weight_Hcal_pm(s, t: float, T: float, bump: Bump):
    """Both sign variants of the height-averaged gamma-ratio weight.

    Returns (plus, minus), each of s's shape; the points of an array s must
    share Re s (see ``bump_transform``).  The plus variant carries
    +2iT shifts in the numerator and Gamma(s + 1/2 + iT) below; the minus
    variant mirrors the sign of T.  Both include the bump-transform factor
    h-tilde(1 - s).
    """
    s = np.asarray(s, dtype=complex)
    if np.any(s.real <= -0.5):
        raise DomainError("weight_Hcal_pm needs Re(s) > -1/2")
    ht = bump_transform(1.0 - s, bump)
    den = log_gamma(0.5 + 1j * T) + log_gamma(0.5 + 1j * t)
    plus, minus = (ht * np.exp(_log_gamma_quad(z, T, t) - log_gamma(z) - den)
                   for z in (s + 0.5 + 1j * T, s + 0.5 - 1j * T))
    return (plus, minus) if s.ndim else (complex(plus), complex(minus))


def _g_ratio_log(w, t: float, T: float, a: float):
    """log G_a(w, t): shifted over unshifted products of four
    Gamma_R(s) = pi^(-s/2) Gamma(s/2), each pi^(-2z) exp Q(z), with the -2iT
    shift in the numerator and the unshifted product at the -2iT
    normalization below, the functional-equation pairing of the central-value
    product; the weight with the +2iT shift is its mirror (``_mirror_phase``).
    """
    return (_log_gamma_quad(a + np.asarray(w, dtype=complex) - 1j * T, T, t)
            - _log_gamma_quad(a - 1j * T, T, t) - 2.0 * w * math.log(math.pi))


def _mirror_phase(t: float, T: float, a: float) -> complex:
    """The unimodular C with V_minus(x) = C conj V_plus(x) at real x.

    Q(conj z) = conj Q(z) gives log G_minus(w) = conj log G_plus(conj w) + log C,
    log C = Q(a + iT) - Q(a - iT) - 4iT log pi = -2i (Im Q(a - iT) + 2T log pi),
    and the contour Re w = sigma is symmetric about the real axis."""
    q = _log_gamma_quad(a - 1j * T, T, t).imag
    return complex(np.exp(-2j * (q + 2.0 * T * math.log(math.pi))))


def contour_weights(xs: np.ndarray, t: float, T: float, a: float, sigma: float,
                    smoother: float = 1.0) -> np.ndarray:
    """V_plus at a 1-d array of x >= 1 on one shared contour.

    V_plus(x) = (1/2 pi i) int_(sigma) e^(smoother w^2) x^(-w) G_a(w,t) dw/w,
    truncated at |Im w| = max(10, sqrt(46/smoother + sigma^2) + 3), past
    which e^(smoother w^2) is below e^-46.  ``smoother`` = 1 is the
    production weight; other values give independent smoothings of the same
    identity for cross-checks.  V_minus is C conj V_plus (``_mirror_phase``).
    """
    height = max(10.0, math.sqrt(46.0 / smoother + sigma * sigma) + 3.0)
    lnx = np.log(xs)
    bw = float(np.max(lnx)) + 2.0 * sigma * smoother + 4.0
    edges = panel_edges(-height, height, bw, min_panels=8)
    nodes, wts = edge_nodes(edges)
    w = sigma + 1j * nodes
    core = np.exp(smoother * w * w + _g_ratio_log(w, t, T, a)) / w * (wts / (2.0 * np.pi))
    return _contour_apply(lnx, sigma, edges, [core])[0]


def weight_V_pm(x, t: float, T: float, parity: str = "even", sigma: float = 1.0):
    """Gaussian-smoothed contour weights (V_plus, V_minus), each of x's shape.

    V_pm(x, t) = (1/2 pi i) int_(sigma) e^(w^2) x^(-w) G_(pm, a)(w, t) dw / w,
    a = 1/2 for even parity and 3/2 for odd, truncated as in
    ``contour_weights``; V_minus = C conj V_plus (``_mirror_phase``).
    """
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    if sigma <= 0:
        raise DomainError("contour abscissa must be positive")
    a = 0.5 if parity == "even" else 1.5
    xv = np.asarray(x, dtype=float)
    if not np.all((xv >= 1.0) & (xv < np.inf)):
        raise DomainError("weight_V_pm is defined for finite x >= 1")
    vp = contour_weights(xv.ravel(), t, T, a, sigma)
    return tuple(v.reshape(xv.shape) if xv.ndim else complex(v[0])
                 for v in (vp, _mirror_phase(t, T, a) * np.conj(vp)))


class VcalResult(NamedTuple):
    plus: object
    minus: object
    tail_estimate: float
    height: float


def weight_Vcal_pm(x, t: float, T: float, bump: Bump, sigma: float = 0.75) -> VcalResult:
    """Height-averaged contour weights (1/2 pi i) int H_pm(s,t) x^(-s) ds/s
    on the line Re s = ``sigma``.

    The vertical cap is taken where the bump transform has measurably decayed
    below ``_VCAL_TAIL_TOL`` relative to its mass (and never beyond the point
    where the gamma ratio's own e^(-pi(|Im s|-t)/2) decay has taken over); the
    estimated tail is recorded in the result.
    """
    xv = np.asarray(x, dtype=float)
    if not np.all((xv >= 1.0) & (xv < np.inf)):
        raise DomainError("weight_Vcal_pm is defined for finite x >= 1")
    h_cap = bump_transform_decay_height(bump, sigma, _VCAL_TAIL_TOL)
    # the gamma ratios only decay for good past the ridge at |Im s| = 2T + |t|
    # (where the shifted numerator arguments cross the real axis)
    gamma_cap = 2.0 * T + abs(t) + (2.0 / math.pi) * (-math.log(_VCAL_TAIL_TOL)) + 24.0
    vmax = min(h_cap, gamma_cap)
    lx_max = float(np.max(np.log(np.maximum(xv, 1.0))))
    bw = lx_max + 24.0 / bump.half_width + 12.0
    edges = panel_edges(-vmax, vmax, bw, min_panels=16)
    nodes, wts = edge_nodes(edges)
    s = sigma + 1j * nodes
    plus_i, minus_i = weight_Hcal_pm(s, t, T, bump)
    cores = [integ / s * (wts / (2.0 * np.pi)) for integ in (plus_i, minus_i)]
    vp, vm = (v.reshape(xv.shape) if xv.ndim else complex(v[0])
              for v in _contour_apply(np.log(xv.ravel()), sigma, edges, cores))
    tail = 0.0
    for integ in (plus_i, minus_i):
        # endpoint integrand size relative to its peak along the contour:
        # a scale-free measure of how completely the truncation decayed
        peak = float(np.max(np.abs(integ))) + 1e-300
        tail = max(tail, float(np.abs(integ[-1]) + np.abs(integ[0])) / peak)
    if tail > 1e-6:
        raise ConvergenceError(
            f"contour truncation at height {vmax:.0f} left a relative "
            f"endpoint residue {tail:.2e} > 1e-6")
    return VcalResult(plus=vp, minus=vm, tail_estimate=tail, height=vmax)


class LeadingTerms(NamedTuple):
    hh_plus: complex       # leading form of Hcal(t) * Hcal_plus(s, t)
    hh_minus: complex      # leading form of Hcal(t) * Hcal_minus(s, t) * V_minus-phase
    v_minus_phase: complex


def leading_terms(s: complex, t: float, T: float, bump: Bump) -> LeadingTerms:
    """Closed-form leading expressions of the weight products in the bulk.

    hh_plus:   8 pi h~(1-s) / (|t| R) * (|t| R / 4T)^s, R = sqrt(4T^2 - t^2),
               the large-height limit of Hcal(t) Hcal_plus(s, t)
    hh_minus:  (T / (pi^2 e))^(2iT) times the same: the limit of
               Hcal(t) Hcal_minus(s, t) V_minus-phase.  The s-dependent
               half-plane phases of the shifted gamma factors cancel to a
               constant here, so no extra e^(-i pi s) appears; both the
               direct Stirling expansion and exact-gamma evaluation confirm
               the O(1/T) approach to this form (see the decisions ledger).
    v_minus_phase: the unimodular phase
        (2 pi e)^(-4iT) e^(-i pi/2) |2T+t|^(i(2T+t)) |2T-t|^(i(2T-t))
    """
    if abs(t) >= 2 * T:
        raise DomainError("leading_terms needs |t| < 2T")
    ht = bump_transform(1.0 - complex(s), bump)
    R = math.sqrt(4.0 * T * T - t * t)
    base = 8.0 * math.pi * ht / (abs(t) * R) * np.exp(complex(s) * math.log(abs(t) * R / (4.0 * T)))
    phase_minus = np.exp(2j * T * math.log(T / (math.pi ** 2 * math.e)))
    v_phase = np.exp(1j * (-4.0 * T * math.log(2.0 * math.pi * math.e) - math.pi / 2.0
                           + (2.0 * T + t) * math.log(abs(2.0 * T + t))
                           + (2.0 * T - t) * math.log(abs(2.0 * T - t))))
    return LeadingTerms(hh_plus=complex(base),
                        hh_minus=complex(phase_minus * base),
                        v_minus_phase=complex(v_phase))


# ---------------------------------------------------------------------------
# the g(x) <-> G(s) Mellin pair from a product of two K-Bessel factors
# ---------------------------------------------------------------------------

def _kk_panel_sums(v, w, s: complex, T: float, t: float,
                   policy: PrecisionPolicy = DEFAULT_POLICY) -> np.ndarray:
    """int e^(s v) K_{iT}(e^v) K_{it}(e^v) dv over each 16-node panel of the
    nodes v and weights w of a composite rule in v = log y."""
    y = np.exp(v)
    vals = w * bessel_k_scaled(T, y, policy) * bessel_k_scaled(t, y, policy) * np.exp(s * v)
    return np.exp(-0.5 * np.pi * (T + t)) * vals.reshape(-1, _GL_ORDER).sum(axis=1)


def g_lower_incomplete(x, T: float, t: float, policy: PrecisionPolicy = DEFAULT_POLICY):
    """g(x) = int_x^inf y^(1/2 + iT) K_{iT}(y) K_{it}(y) dy / y, for a number
    x (a complex is returned) or an array of x (an array of its shape).

    Integrated in v = log y: there the Bessel phases have bounded rate
    (|d phase/dv| <= T and t respectively), so a fixed node density covers
    arbitrarily small x.  Every log x is an edge of one v-grid, the panels
    from the smallest x up to max(x, T, t) + 55, and g at x is the sum of
    the panel integrals above it; a single x has exactly those panels.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise DomainError("g needs x > 0")
    lnx = np.log(x)
    y_hi = max(float(np.max(x)), T, t) + 55.0
    edges = np.union1d(lnx, panel_edges(float(np.min(lnx)), math.log(y_hi), 2.0 * T + t + 3.0,
                                        policy.bessel_freq_oversample, min_panels=8))
    above = np.cumsum(_kk_panel_sums(*edge_nodes(edges), 0.5 + 1j * T, T, t, policy)[::-1])[::-1]
    g = above[np.searchsorted(edges, lnx)]
    return complex(g) if g.ndim == 0 else g


def g_mellin_closed(s: complex, T: float, t: float) -> complex:
    """G(s) = int_0^inf g(x) x^(s-1) dx, which is
    ``mellin_barnes_kk_closed(s + 1/2 + iT, T, t) / s`` by swapping the x and y
    integrals."""
    return mellin_barnes_kk_closed(s + 0.5 + 1j * T, T, t) / s


def g_mellin_numeric(s: complex, T: float, t: float) -> complex:
    """int_0^inf g(x) x^(s-1) dx by iterated quadrature in u = log x on
    [-32, log(max(T, t) + 40)], dropping ~|g(0)| e^(-32 Re s) below: one
    ``g_lower_incomplete`` call on every outer node.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("the g-transform converges for Re(s) > 0")
    nodes, wts = panel_nodes(-32.0, math.log(max(T, t) + 40.0), max(abs(s.imag), 2.0) + 2.0,
                             min_panels=28)
    return complex(np.sum(wts * g_lower_incomplete(np.exp(nodes), T, t) * np.exp(s * nodes)))


def mellin_barnes_kk_numeric(s: complex, T: float, t: float) -> complex:
    """int_0^inf x^s K_{iT}(x) K_{it}(x) dx/x by direct quadrature in
    u = log x on [-18, log(max(T, t, 1) + 55)], on panels sized for the
    bandwidth max(|Im s|, 2) + T + t + 3 alone.

    The error floor is the cut at x = e^-18, which drops about e^(-18 Re s)
    of the integral: 1.2e-12 relative to ``mellin_barnes_kk_closed`` at
    worst for Re s in [1.5, 2.5] and T, t <= 3.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("the double-Bessel Mellin integral needs Re(s) > 0")
    u_hi = math.log(max(T, t, 1.0) + 55.0)
    bw = max(abs(s.imag), 2.0) + T + t + 3.0
    return complex(np.sum(_kk_panel_sums(*panel_nodes(-18.0, u_hi, bw), s, T, t)))


def mellin_barnes_kk_closed(s: complex, T: float, t: float) -> complex:
    """(2^(s-3) / Gamma(s)) prod_{pm, pm} Gamma((s pm iT pm it)/2)."""
    return complex(np.exp((s - 3.0) * math.log(2.0) - log_gamma(s) + _log_gamma_quad(s, T, t)))
