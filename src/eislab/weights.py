"""Smoothing and weight functions for the moment pipeline.

Contents: the compactly supported bump h in the truncation height and its
(pi A)^(s-1) transform, the bulk spectral window W(t), the gamma-ratio
weights for the spectral and mixed terms, the contour-integral weight
functions of the approximate functional equation (both parities) and of the
height-averaged window, their closed-form leading terms, and the Mellin pair
g(x) <-> G(s) built from products of two K-Bessel factors.

All gamma products are assembled in log-polar space and exponentiated once;
the individual gamma factors at height ~T are astronomically small while
every ratio used here is moderate.

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

    def mass_above(self, y: float) -> float:
        """int_{A >= y} h(A) dA.  A = B + d tanh s makes h dA = scale d e^(-cosh^2 s)
        sech^2 s ds, below 1e-44 past |s| = 3, so 48 Gauss-Legendre nodes on
        [atanh((y - B) / d), 3] give the mass to 5e-15 of hhat0."""
        u = (y - self.B) / self.half_width
        lo = -3.0 if u <= -1.0 else 3.0 if u >= 1.0 else min(max(math.atanh(u), -3.0), 3.0)
        s, w = gl_nodes(lo, 3.0, 48)  # lo = 3 gives zero weights: no mass above the support
        ch2 = np.cosh(s) ** 2
        return float(self.scale * self.half_width * np.sum(w * np.exp(-ch2) / ch2))


def bump_h(A, bump: Bump):
    """h(A); vectorized, exactly zero off the support."""
    A = np.asarray(A, dtype=float)
    u = (A - bump.B) / bump.half_width
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = bump.scale * np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out if out.ndim else float(out)


def bump_h_derivative(A, bump: Bump, k: int = 1):
    """k-th derivative of h by central differences (diagnostic use)."""
    h = bump.half_width * 2e-4
    A = float(A)
    if k == 0:
        return float(bump_h(A, bump))
    stencil = {
        1: ([-0.5, 0.5], [-1, 1]),
        2: ([1.0, -2.0, 1.0], [-1, 0, 1]),
        3: ([-0.5, 1.0, -1.0, 0.5], [-2, -1, 1, 2]),
        4: ([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2]),
    }[k]
    coefs, offs = stencil
    return float(sum(c * bump_h(A + o * h, bump) for c, o in zip(coefs, offs)) / h ** k)


def _exp_outer_apply(a: np.ndarray, b: np.ndarray, vs) -> list:
    """[exp(outer(a, b)) @ v for v in vs]: one line integral per entry of a,
    sampled at the nodes b with weights v.

    Rows are exponentiated 2048 at a time, in place, and each block serves
    every v; one block is alive at a time, which bounds the memory.
    """
    outs = [np.empty(len(a), dtype=complex) for _ in vs]
    for i0 in range(0, len(a), 2048):
        block = np.outer(a[i0:i0 + 2048], b)
        np.exp(block, out=block)
        for out, v in zip(outs, vs):
            out[i0:i0 + 2048] = block @ v
        del block  # freed before the next block is built
    return outs


def _contour_apply(lnx: np.ndarray, sigma: float, edges: np.ndarray, cores) -> list:
    """[sum_w x^(-w) core(w) for core in cores] at every x = e^lnx, over the
    nodes w = sigma + i s, s = mid_p + half u_j, of the 16-node panels
    between ``edges`` (``quadrature.edge_nodes``).

    x^(-w) = x^(-sigma) e^(-i lnx mid_p) e^(-i lnx half u_j) is factored by
    panel (``quadrature._panel_exp``): (panels + 16) exponentials per x in
    place of one per node.  x is taken 2048 at a time, which bounds the
    memory.
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
    """h-tilde(s) = int h(A) (pi A)^(s-1) dA, vectorized over s.

    (Not quite a Mellin transform: the pi sits inside the power.)
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    lo, hi = bump.B - bump.half_width, bump.B + bump.half_width
    im_max = float(np.max(np.abs(s.imag))) if s.size else 0.0
    re_max = float(np.max(np.abs(s.real - 1.0)))
    # oscillation |Im s| / A plus mollifier structure ~ 24 / half_width
    bw = im_max / lo + re_max / lo + 24.0 / bump.half_width
    nodes, wts = panel_nodes(lo, hi, bw, DEFAULT_POLICY.bessel_freq_oversample,
                             min_panels=10)
    vals = _exp_outer_apply(s - 1.0, np.log(np.pi * nodes), [bump_h(nodes, bump) * wts])[0]
    return vals if vals.size > 1 else complex(vals[0])


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
# bulk window
# ---------------------------------------------------------------------------

def window_W(t: float, T: float, alpha: float) -> float:
    """Double-exponential bulk window, exact in log space, values in [0, 1].

    The two cutoffs turn on at |t| = (2T)^(1-alpha/2) and off where
    4T^2 - t^2 = 4T^(2-alpha/2); with alpha < 1/100 these only separate from
    the endpoints {0, 2T} once log T is of order 4 log 2 / alpha, i.e. for
    exponentially large T.  Everything is computed from logarithms so such T
    are fine as long as T and T^2 stay inside double range.
    """
    if not (0 < alpha < 0.01):
        raise DomainError("window_W needs alpha in (0, 1/100)")
    if T <= 0:
        raise DomainError("window_W needs T > 0")
    t = abs(float(t))
    K = 2 * math.ceil(1000.0 / alpha)

    def factor(log_ratio: float) -> float:
        # 1 - exp(-r^K) with r^K = exp(K log r), overflow-clamped
        g = K * log_ratio
        if g > 700.0:
            return 1.0
        if g < -700.0:
            return 0.0
        return -math.expm1(-math.exp(g))

    if t == 0.0:
        return 0.0
    log_r1 = math.log(t) - (1.0 - alpha / 2.0) * math.log(2.0 * T)
    contrast = 4.0 * T * T - t * t
    if contrast == 0.0:
        return 0.0
    log_r2 = math.log(abs(contrast)) - math.log(4.0) - (2.0 - alpha / 2.0) * math.log(T)
    return factor(log_r1) * factor(log_r2)


# ---------------------------------------------------------------------------
# gamma-ratio weights
# ---------------------------------------------------------------------------

def _lgr(s) -> complex:
    """log of Gamma_R(s) = pi^(-s/2) Gamma(s/2)."""
    s = np.asarray(s, dtype=complex)
    return -(s / 2.0) * math.log(math.pi) + log_gamma(s / 2.0)


def in_bulk(t: float, T: float, alpha: float = 0.009) -> bool:
    edge = T ** (1.0 - alpha)
    return edge < abs(t) < 2.0 * T - edge


def weight_Hcal(t: float, T: float, alpha: float = 0.009) -> complex:
    """Spectral gamma-ratio weight at spectral parameter t, height T."""
    if not in_bulk(t, T, alpha):
        warnings.warn(f"weight_Hcal: t={t} outside the bulk range for T={T}",
                      stacklevel=2)
    num = 0.0 + 0.0j
    for sgn in (+1.0, -1.0):
        num += log_gamma((0.5 + 1j * sgn * t) / 2.0)
        num += log_gamma((0.5 - 2j * T + 1j * sgn * t) / 2.0)
    den = 2.0 * log_gamma(0.5 - 1j * T) + log_gamma(0.5 - 1j * t)
    return complex(np.exp(num - den))


def weight_Hcal_pm(s, t: float, T: float, bump: Bump):
    """Both sign variants of the height-averaged gamma-ratio weight.

    Returns (plus, minus), each vectorized over s.  The plus variant carries
    +2iT shifts in the numerator and Gamma(s + 1/2 + iT) below; the minus
    variant mirrors the sign of T.  Both include the bump-transform factor
    h-tilde(1 - s).
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(s.real <= -0.5):
        raise DomainError("weight_Hcal_pm needs Re(s) > -1/2")
    ht = np.atleast_1d(bump_transform(1.0 - s, bump))
    out = []
    for sT in (+1.0, -1.0):
        num = np.zeros_like(s)
        for sgn in (+1.0, -1.0):
            num = num + log_gamma((s + 0.5 + 2j * sT * T + 1j * sgn * t) / 2.0)
            num = num + log_gamma((s + 0.5 + 1j * sgn * t) / 2.0)
        den = (log_gamma(s + 0.5 + 1j * sT * T)
               + log_gamma(0.5 + 1j * T) + log_gamma(0.5 + 1j * t))
        out.append(ht * np.exp(num - den))
    plus, minus = out
    if plus.size == 1:
        return complex(plus[0]), complex(minus[0])
    return plus, minus


@dataclass(frozen=True)
class WeightContour:
    """Vertical-line contour: abscissa sigma and |Im| cap."""

    sigma: float
    height: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError("contour abscissa must be positive")
        if self.height <= 0:
            raise DomainError("contour height must be positive")


def _g_ratio_log(w, t: float, T: float, a: float, sign_T: float):
    """log G_{sign_T, a}(w, t): shifted over unshifted Gamma_R products.

    The plus variant (sign_T = +1) carries the -2iT shift in its numerator
    and the minus variant +2iT; the denominator is the unshifted product at
    the -2iT normalization for both, matching the functional-equation pairing
    of the central-value product.
    """
    w = np.asarray(w, dtype=complex)
    num = np.zeros_like(w)
    for sgn in (+1.0, -1.0):
        num = num + _lgr(a + w + 1j * sgn * t)
        num = num + _lgr(a - 1j * sign_T * 2.0 * T + w + 1j * sgn * t)
    den = 0.0 + 0.0j
    for sgn in (+1.0, -1.0):
        den += _lgr(a + 1j * sgn * t)
        den += _lgr(a - 2j * T + 1j * sgn * t)
    return num - den


def g_ratio(w, t: float, T: float, a: float = 0.5):
    """The shifted/unshifted Gamma_R ratio G_{+, a}(w, t), vectorized in w."""
    return np.exp(_g_ratio_log(w, t, T, a, +1.0))


def contour_weights(xs: np.ndarray, t: float, T: float, a: float, sigma: float,
                    height: float, smoother: float = 1.0):
    """(V_plus, V_minus) at an array of x >= 1 on one shared contour.

    V_pm(x) = (1/2 pi i) int_(sigma) e^(smoother w^2) x^(-w) G_(pm,a)(w,t) dw/w,
    truncated at |Im w| = ``height``; each caller supplies the truncation
    rule that suits its smoother.  ``smoother`` = 1 is the production
    weight; other values give independent smoothings of the same identity
    for cross-checks.
    """
    lnx = np.log(xs)
    bw = float(np.max(lnx)) + 2.0 * sigma * smoother + 4.0
    edges = panel_edges(-height, height, bw, DEFAULT_POLICY.bessel_freq_oversample,
                        min_panels=8)
    nodes, wts = edge_nodes(edges)
    w = sigma + 1j * nodes
    cores = [np.exp(smoother * w * w + _g_ratio_log(w, t, T, a, sT)) / w * (wts / (2.0 * np.pi))
             for sT in (+1.0, -1.0)]
    vp, vm = _contour_apply(lnx, sigma, edges, cores)
    return vp, vm


def weight_V_pm(x, t: float, T: float, parity: str = "even",
                contour: WeightContour | None = None):
    """Gaussian-smoothed contour weights (V_plus, V_minus), vectorized in x.

    V_pm(x, t) = (1/2 pi i) int_(sigma) e^(w^2) x^(-w) G_(pm, a)(w, t) dw / w,
    a = 1/2 for even parity and 3/2 for odd.  The vertical truncation is
    max(30, 10 sqrt(log x)), far past the point where e^(w^2) has annihilated
    the integrand.
    """
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    a = 0.5 if parity == "even" else 1.5
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xv < 1.0):
        raise DomainError("weight_V_pm is defined for x >= 1")
    sigma = contour.sigma if contour is not None else 1.0
    lx_max = float(np.max(np.log(xv)))
    vmax = contour.height if contour is not None else max(30.0, 10.0 * math.sqrt(max(lx_max, 1.0)))
    vp, vm = contour_weights(xv, t, T, a, sigma, vmax)
    if vp.size > 1:
        return vp, vm
    return complex(vp[0]), complex(vm[0])


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
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xv < 1.0):
        raise DomainError("weight_Vcal_pm is defined for x >= 1")
    h_cap = bump_transform_decay_height(bump, sigma, _VCAL_TAIL_TOL)
    # the gamma ratios only decay for good past the ridge at |Im s| = 2T + |t|
    # (where the shifted numerator arguments cross the real axis)
    gamma_cap = 2.0 * T + abs(t) + (2.0 / math.pi) * (-math.log(_VCAL_TAIL_TOL)) + 24.0
    vmax = min(h_cap, gamma_cap)
    lx_max = float(np.max(np.log(np.maximum(xv, 1.0))))
    bw = lx_max + 24.0 / bump.half_width + 12.0
    edges = panel_edges(-vmax, vmax, bw, DEFAULT_POLICY.bessel_freq_oversample,
                        min_panels=16)
    nodes, wts = edge_nodes(edges)
    s = sigma + 1j * nodes
    plus_i, minus_i = weight_Hcal_pm(s, t, T, bump)
    cores = [integ / s * (wts / (2.0 * np.pi)) for integ in (plus_i, minus_i)]
    vp, vm = _contour_apply(np.log(xv), sigma, edges, cores)
    if vp.size == 1:
        vp, vm = complex(vp[0]), complex(vm[0])
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

def _scaled_kk(y, T: float, t: float, policy: PrecisionPolicy):
    """e^(pi(T+t)/2) K_{iT}(y) K_{it}(y) at an array of y."""
    return bessel_k_scaled(T, y, policy) * bessel_k_scaled(t, y, policy)


def g_lower_incomplete(x: float, T: float, t: float,
                       policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """g(x) = int_x^inf y^(1/2 + iT) K_{iT}(y) K_{it}(y) dy / y.

    Integrated in v = log y: there the Bessel phases have bounded rate
    (|d phase/dv| <= T and t respectively), so a fixed node density covers
    arbitrarily small x.
    """
    if x <= 0:
        raise DomainError("g needs x > 0")
    y_hi = max(x, T, t) + 55.0
    bw = 2.0 * T + t + 3.0
    nodes, wts = panel_nodes(math.log(x), math.log(y_hi), bw,
                             policy.bessel_freq_oversample, min_panels=8)
    y = np.exp(nodes)
    vals = _scaled_kk(y, T, t, policy) * np.exp((0.5 + 1j * T) * nodes)
    return complex(np.exp(-0.5 * np.pi * (T + t)) * np.sum(wts * vals))


def g_mellin_closed(s: complex, T: float, t: float) -> complex:
    """G(s) = int_0^inf g(x) x^(s-1) dx, which is
    ``mellin_barnes_kk_closed(s + 1/2 + iT, T, t) / s`` by swapping the x and y
    integrals."""
    s = complex(s)
    return mellin_barnes_kk_closed(s + 0.5 + 1j * T, T, t) / s


def g_mellin_numeric(s: complex, T: float, t: float) -> complex:
    """int_0^inf g(x) x^(s-1) dx by iterated quadrature (oracle-grade, slow).

    Uses the substitution x = e^u with panel quadrature on u in [-16, log cut].
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("the g-transform converges for Re(s) > 0")
    u_hi = math.log(max(T, t) + 40.0)
    bw = max(abs(s.imag), 2.0) + 2.0
    nodes, wts = panel_nodes(-16.0, u_hi, bw, DEFAULT_POLICY.bessel_freq_oversample,
                             min_panels=28)
    vals = np.array([g_lower_incomplete(math.exp(u), T, t) for u in nodes])
    return complex(np.sum(wts * vals * np.exp(s * nodes)))


def mellin_barnes_kk_numeric(s: complex, T: float, t: float) -> complex:
    """int_0^inf x^s K_{iT}(x) K_{it}(x) dx/x by direct quadrature."""
    s = complex(s)
    if s.real <= 0:
        raise DomainError("the double-Bessel Mellin integral needs Re(s) > 0")
    u_hi = math.log(max(T, t, 1.0) + 55.0)
    bw = max(abs(s.imag), 2.0) + T + t + 3.0
    nodes, wts = panel_nodes(-18.0, u_hi, bw, DEFAULT_POLICY.bessel_freq_oversample,
                             min_panels=24)
    x = np.exp(nodes)
    vals = _scaled_kk(x, T, t, DEFAULT_POLICY) * np.exp(s * nodes)
    return complex(np.exp(-0.5 * np.pi * (T + t)) * np.sum(wts * vals))


def mellin_barnes_kk_closed(s: complex, T: float, t: float) -> complex:
    """(2^(s-3) / Gamma(s)) prod_{pm, pm} Gamma((s pm iT pm it)/2)."""
    s = complex(s)
    acc = (s - 3.0) * math.log(2.0) - log_gamma(s)
    for s1 in (+1.0, -1.0):
        for s2 in (+1.0, -1.0):
            acc = acc + log_gamma((s + 1j * s1 * T + 1j * s2 * t) / 2.0)
    return complex(np.exp(acc))
