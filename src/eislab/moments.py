"""Quadrature over the modular fundamental domain and the moment pipeline.

The fundamental domain F = {|x| <= 1/2, |z| >= 1} is integrated against
d mu = dx dy / y^2 as a stack of rows.  At a fixed height y every integrand
here is a trigonometric polynomial in x whose coefficients follow from those
of E_A by convolution, so its row integral is exact in coefficient space:
the constant coefficient on the full strip above y = 1, and a closed-form
arc weight on the section |x| >= sqrt(1 - y^2) below it (``section_integral``).
The y direction uses Gauss-Legendre panels (split at y = 1, at the truncation
height A, and at any caller-supplied breakpoints, since the truncated series
is discontinuous across y = A) whose density follows the Bessel oscillation
scale ~ T/y per factor.  Error estimates are Richardson-style: the whole
integral is redone with doubled y node density and the difference is
reported; no asymptotic error model is assumed.  An average over A against a
bump h is a row weight: E_A keeps its constant term e(y) exactly when A >= y,
so the averaged row is m |E|^4 + (hhat(0) - m) |E - e|^4, m = int_{A >= y} h.

Closed forms: the exact two-parameter truncated-moment identity

    int_F E_A(z, s1) E_A(z, s2) dmu
        = (A^(s1+s2-1) - phi(s1) phi(s2) A^(1-s1-s2)) / (s1+s2-1)
          + (phi(s2) A^(s1-s2) - phi(s1) A^(s2-s1)) / (s1-s2),

phi(s) = xi(2s-1)/xi(2s), and its confluent limit on the critical line

    phi [2 log A - phi'/phi] + (A^(2iT) - phi^2 A^(-2iT)) / (2iT),

both evaluated with exact zeta/gamma values (phi'/phi from digamma and
zeta'/zeta, not an asymptotic).  The closed forms are identities, so the
quadrature-vs-formula agreement is the strongest correctness oracle this
module has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from eislab.eisenstein import (
    _FLOOR_Y,
    EisensteinEvaluator,
    RealSEvaluator,
    SpectralSetup,
    moment_y_max,
)
from eislab.errors import DegenerateParameterError, DomainError, ToleranceError
from eislab.quadrature import gl_nodes, pairwise_sum
from eislab.specfun import (
    DEFAULT_POLICY,
    PrecisionPolicy,
    phi_log,
    phi_log_deriv_critical,
    scattering,
)
from eislab.weights import Bump

FOURTH_MOMENT_CONSTANT = 36.0 / math.pi  # predicted log^2 T coefficient


@dataclass(frozen=True)
class YPanel:
    y0: float
    y1: float
    order: int


@dataclass
class QuadratureGrid:
    """y-strip decomposition of F with per-strip orders."""

    panels: list


@dataclass(frozen=True)
class MomentReport:
    T: float
    A: float
    p: int
    value: float
    est_error: float
    prediction: float
    ratio: float


_MAX_ORDER = 24     # Gauss-Legendre order cap per y panel
_STRIP_RATIO = 1.3  # geometric growth of the y-strips
_REFINE = 2.0       # node-density factor of the Richardson comparison grid


def build_grid(y_max: float, y_bandwidth, *, splits=(),
               oversample: float = 8.0) -> QuadratureGrid:
    """Geometric y-strips with forced breakpoints and bandwidth-driven orders.

    ``y_bandwidth(y)`` gives the local bandwidth in radians per unit length;
    orders follow ``oversample`` nodes per wave.
    """
    edges = sorted({_FLOOR_Y, 1.0, y_max} | {s for s in splits if _FLOOR_Y < s < y_max})
    fine: list[float] = []
    for a, b in zip(edges[:-1], edges[1:]):
        fine.append(a)
        y = a
        while y * _STRIP_RATIO < b:
            y *= _STRIP_RATIO
            fine.append(y)
    fine.append(y_max)
    panels = []
    for a, b in zip(fine[:-1], fine[1:]):
        need = (b - a) * y_bandwidth(a) * oversample / (2.0 * math.pi) + 6.0
        pieces = max(1, int(math.ceil(need / _MAX_ORDER)))
        step = (b - a) / pieces
        for i in range(pieces):
            pa = a + i * step
            order = min(_MAX_ORDER, max(8, int(math.ceil(need / pieces))))
            panels.append(YPanel(pa, pa + step, order))
    return QuadratureGrid(panels)


def section_integral(f, y: float) -> complex:
    """Integral of sum_k f_k e(k x), k = -K..K, over F's section at height y.

    ``f`` holds f_-K..f_K.  The section is the strip |x| <= 1/2 for y >= 1,
    which keeps f_0 alone, and the arcs sqrt(1 - y^2) <= |x| <= 1/2 below,
    where e(k x) + e(-k x) integrates to -sin(2 pi k x_r) / (pi k).
    """
    if y < _FLOOR_Y:
        raise DomainError(f"F has no section at height {y} < sqrt(3)/2")
    K = len(f) // 2
    if y >= 1.0:
        return f[K]
    xr = math.sqrt(1.0 - y * y)
    ks = np.arange(1, K + 1)
    arc = np.sin(2.0 * np.pi * ks * xr) / (np.pi * ks)
    return f[K] * (1.0 - 2.0 * xr) - (f[K + 1:] + f[:K][::-1]) @ arc


def _abs_sq(c) -> np.ndarray:
    """Coefficients of |g|^2 from the coefficients c_-K..c_K of g."""
    return np.convolve(c, c[::-1].conj())


def _integrate_grid(row_fn, grid: QuadratureGrid):
    """Sum of row_fn(y) dy / y^2 over the grid; row_fn(y) -> (k,) row integrals."""

    def do_panel(panel: YPanel):
        if panel.y1 <= 1.0 + 1e-12:
            # below y = 1 the section boundary sqrt(1-y^2) is root-singular;
            # y = sin(phi) makes the section width analytic in phi
            pn, pw = gl_nodes(math.asin(min(panel.y0, 1.0)),
                              math.asin(min(panel.y1, 1.0)), panel.order)
            yn = np.sin(pn)
            yw = pw * np.cos(pn)
        else:
            yn, yw = gl_nodes(panel.y0, panel.y1, panel.order)
        return sum(row_fn(yy) * (wy / (yy * yy)) for yy, wy in zip(yn, yw))

    return pairwise_sum([do_panel(p) for p in grid.panels])


def integrate_rows(row_fn, y_max: float, *, y_bandwidth, splits=(),
                   oversample: float = 8.0):
    """Integrate row integrals over F up to y_max with a refinement estimate.

    ``row_fn(y)`` returns the x-integrals over F's section at height y of a
    vector of integrands.  Returns (value_vector, est_error_vector): the
    value from the refined y grid and the coarse-vs-refined difference as the
    error estimate.
    """
    grid = build_grid(y_max, y_bandwidth, splits=splits, oversample=oversample)
    coarse = _integrate_grid(row_fn, grid)
    grid2 = build_grid(y_max, y_bandwidth, splits=splits, oversample=oversample * _REFINE)
    fine = _integrate_grid(row_fn, grid2)
    return fine, np.abs(fine - coarse)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def maass_selberg(s1: complex, s2: complex, A: float) -> complex:
    """Exact truncated-moment identity for s1 != s2, s1 + s2 != 1."""
    if not A > 1:
        raise DomainError("maass_selberg needs A > 1")
    s1, s2 = complex(s1), complex(s2)
    if abs(s1 - s2) < 1e-8 or abs(s1 + s2 - 1.0) < 1e-8:
        raise DegenerateParameterError(
            "s1 = s2 or s1 + s2 = 1 degenerates the closed form; "
            "use maass_selberg_limit for the confluent critical-line case")
    phi1 = np.exp(phi_log(s1))
    phi2 = np.exp(phi_log(s2))
    lnA = math.log(A)
    term1 = (np.exp((s1 + s2 - 1) * lnA) - phi1 * phi2 * np.exp((1 - s1 - s2) * lnA)) \
        / (s1 + s2 - 1)
    term2 = (phi2 * np.exp((s1 - s2) * lnA) - phi1 * np.exp((s2 - s1) * lnA)) \
        / (s1 - s2)
    return complex(term1 + term2)


def maass_selberg_limit(T: float, A: float) -> complex:
    """Confluent limit: the exact value of int_F E_A(z, 1/2+iT)^2 dmu."""
    if not (T > 0 and A > 1):
        raise DomainError("maass_selberg_limit needs T > 0 and A > 1")
    _, phi = scattering(T)
    dlog = phi_log_deriv_critical(T)  # phi'/phi at 1/2 + iT, real
    lnA = math.log(A)
    osc = np.exp(2j * T * lnA)
    return complex(phi * (2.0 * lnA - dlog) + (osc - phi * phi / osc) / (2j * T))


# ---------------------------------------------------------------------------
# moments of the truncated series
# ---------------------------------------------------------------------------

def _p4_p2(c, y: float) -> np.ndarray:
    """Row integrals of |g|^4 and g^2 at height y from g's coefficients c."""
    b = _abs_sq(c)
    return np.array([section_integral(np.convolve(b, b), y),
                     section_integral(np.convolve(c, c), y)])


def _integrate_moment(row_fn, setup: SpectralSetup, ev: EisensteinEvaluator, splits):
    """``integrate_rows`` on the moment grid of E_A at height setup.T.

    The y density follows the Bessel oscillation scale of four factors,
    4T/y, with the evaluator's oversampling.
    """
    T = setup.T
    return integrate_rows(
        row_fn, moment_y_max(setup), y_bandwidth=lambda y: 4.0 * T / y + 8.0,
        splits=splits, oversample=ev.policy.bessel_freq_oversample)


@dataclass(frozen=True)
class FourthMomentResult:
    report: MomentReport                  # p = 4
    second_report: MomentReport           # p = 2, value = |int E_A^2|
    second_moment: complex                # int_F E_A(z, 1/2+iT)^2 dmu
    const_projection_sq: float            # (3/pi) |int E_A^2|^2
    const_projection_prediction: float    # (12/pi) log^2 T
    gaussian_prediction: float            # 3 const_projection_sq = (9/pi) |int E_A^2|^2
    gaussian_ratio: float                 # p = 4 value / gaussian_prediction


def fourth_moment(setup: SpectralSetup, tol: float = 1e-4, *,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> FourthMomentResult:
    """Fourth and second moments of E_A over F in one quadrature sweep.

    The p = 4 value integrates |E_A|^4; the companion second moment
    integrates E_A^2 (complex) and must reproduce the closed-form limit.
    Predictions: (36/pi) log^2 T and the Gaussian 3 ||E_A||^4 / vol F for p = 4
    (||E_A||^2 = |int E_A^2|, as phi^(-1/2) E_A is real), 2 log T for |int E_A^2|.
    """
    ev = EisensteinEvaluator(setup, policy)
    T = setup.T

    val, est = _integrate_moment(lambda y: _p4_p2(ev.row_coefficients(y), y),
                                 setup, ev, (setup.A,))

    m4 = float(val[0].real)
    second = complex(val[1])
    est4, est2 = float(est[0]), float(est[1])
    if est4 > tol * max(1.0, abs(m4)):
        raise ToleranceError(
            f"fourth moment estimate {est4:.3e} exceeds tol {tol:.3e}",
            value=m4, estimate=est4)
    lnT = math.log(T)
    pred4 = FOURTH_MOMENT_CONSTANT * lnT * lnT
    rep4 = MomentReport(T=T, A=setup.A, p=4, value=m4, est_error=est4,
                        prediction=pred4, ratio=m4 / pred4)
    pred2 = 2.0 * lnT
    rep2 = MomentReport(T=T, A=setup.A, p=2, value=abs(second), est_error=est2,
                        prediction=pred2, ratio=abs(second) / pred2)
    proj = (3.0 / math.pi) * abs(second) ** 2
    return FourthMomentResult(
        report=rep4, second_report=rep2, second_moment=second,
        const_projection_sq=proj,
        const_projection_prediction=(12.0 / math.pi) * lnT * lnT,
        gaussian_prediction=3.0 * proj, gaussian_ratio=m4 / (3.0 * proj))


def second_moment_error(res: FourthMomentResult) -> tuple[complex, float]:
    """(closed, rel): the exact p = 2 value ``maass_selberg_limit(T, A)`` and
    the relative error of ``res.second_moment`` against it.

    The error is that of the complex values, not of their moduli, so a
    second moment with the wrong phase fails.
    """
    closed = maass_selberg_limit(res.report.T, res.report.A)
    return closed, abs(res.second_moment - closed) / abs(closed)


def real_s_pair_quadrature(s1: float, s2: float, A: float):
    """Quadrature of int_F E_A(z, s1) E_A(z, s2) dmu for real s in (1, 4]."""
    e1 = RealSEvaluator(s1)
    e2 = RealSEvaluator(s2)
    y_max = A + 4.0

    def row_fn(y):
        c12 = np.convolve(e1.row_coefficients(y, A), e2.row_coefficients(y, A))
        return np.array([section_integral(c12, y)])

    val, est = integrate_rows(row_fn, y_max, y_bandwidth=lambda y: 30.0 / y, splits=(A,),
                              oversample=DEFAULT_POLICY.bessel_freq_oversample)
    return complex(val[0]), float(est[0])


def h_window_norm_sq(setup: SpectralSetup) -> float:
    """<H_A, H_A> = int_{y > A} |2 e(y) E_A|^2 dmu by quadrature."""
    ev = EisensteinEvaluator(setup)

    def row_fn(y):
        # H_A = 2 e(y) E_A vanishes below A; above it Parseval on the full strip
        if y <= setup.A:
            return np.zeros(1)
        c = ev.row_coefficients(y)
        return np.array([4.0 * abs(ev.constant_term(y)) ** 2 * np.sum(np.abs(c) ** 2)])

    val, _ = _integrate_moment(row_fn, setup, ev, (setup.A,))
    return float(val[0].real)


@dataclass(frozen=True)
class SmoothedMomentResult:
    value: float          # int h(A) ||E_A||_4^4 dA over the bump support
    est_error: float      # Richardson estimate of value's y-quadrature error
    second: complex       # int h(A) int_F E_A^2 dmu dA
    hhat0: float          # int h = T^(-alpha/2)
    i_split: tuple        # (I1, I2, I3) of the fixed-B band decomposition
    direct: float         # hhat0 * ||E_B||_4^4, the band-split comparator


def smoothed_fourth_moment(bump: Bump) -> SmoothedMomentResult:
    """int h(A) int_F |E_A|^4 and E_A^2 dmu dA at the bump's T, in one sweep,
    exact in A: rows of one evaluator at A = B + d, weighted by
    m = ``bump.mass_above(y)``.  The sweep also splits hhat(0) ||E_B||_4^4
    into bands below / across / above the support, which must add up to
    ``direct``, a separate ``fourth_moment`` at B.
    """
    if not isinstance(bump, Bump):
        raise TypeError("smoothed_fourth_moment needs a weights.Bump")
    B, delta, hhat0 = bump.B, bump.half_width, bump.hhat0
    top = SpectralSetup(T=bump.T, A=B + delta)
    ev = EisensteinEvaluator(top)

    def row_fn(y):
        c = ev.row_coefficients(y)
        full = _p4_p2(c, y)
        c[len(c) // 2] = 0.0
        cut = _p4_p2(c, y)
        m = bump.mass_above(y)
        e_b4 = full[0] if y <= B else cut[0]
        bands = e_b4 * np.array([y <= B - delta, B - delta < y <= B + delta, y > B + delta])
        return np.concatenate([m * full + (hhat0 - m) * cut, bands])

    val, est = _integrate_moment(row_fn, top, ev, (B - delta, B + delta, B))
    direct = fourth_moment(SpectralSetup(T=bump.T, A=B), tol=math.inf).report.value
    return SmoothedMomentResult(value=float(val[0].real), est_error=float(est[0]),
                                second=complex(val[1]), hhat0=hhat0,
                                i_split=tuple(hhat0 * float(v.real) for v in val[2:]),
                                direct=hhat0 * direct)
