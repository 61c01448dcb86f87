"""Quadrature over the modular fundamental domain and the moment pipeline.

The fundamental domain F = {|x| <= 1/2, |z| >= 1} is integrated against
d mu = dx dy / y^2 as a stack of y-strips: Gauss-Legendre panels in y (split
at y = 1, at the truncation height A, and at any caller-supplied breakpoints,
since the truncated series is discontinuous across y = A), and per-row
Gauss-Legendre in x over the exact section (full strip above y = 1, the arcs
|x| >= sqrt(1 - y^2) below).  Node densities are oscillation-aware: the
x direction resolves the richest Fourier mode of the integrand (4 n_max(y)
for the fourth power), the y direction the Bessel oscillation scale ~ T/y per
factor.  Error estimates are Richardson-style: the whole integral is redone
with doubled node density and the difference is reported; no asymptotic
error model is assumed.

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
    Point,
    RealSEvaluator,
    SpectralSetup,
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

FOURTH_MOMENT_CONSTANT = 36.0 / math.pi  # predicted log^2 T coefficient


@dataclass(frozen=True)
class YPanel:
    y0: float
    y1: float
    order: int
    x_nodes_per_unit: float


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


def build_grid(y_max: float, y_bandwidth, x_bandwidth, *, splits=(),
               oversample: float = 8.0) -> QuadratureGrid:
    """Geometric y-strips with forced breakpoints and bandwidth-driven orders.

    ``y_bandwidth(y)`` and ``x_bandwidth(y)`` give local bandwidths in
    radians per unit length; orders follow ``oversample`` nodes per wave.
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
            panels.append(YPanel(pa, pa + step, order, x_bandwidth(a)))
    return QuadratureGrid(panels)


def _x_sections(y: float, even_in_x: bool):
    if y >= 1.0:
        return [(0.0, 0.5, 2.0)] if even_in_x else [(-0.5, 0.5, 1.0)]
    xr = math.sqrt(1.0 - y * y)
    if xr >= 0.5:
        return []
    if even_in_x:
        return [(xr, 0.5, 2.0)]
    return [(-0.5, -xr, 1.0), (xr, 0.5, 1.0)]


def _integrate_grid(row_fn, grid: QuadratureGrid, *, oversample: float,
                    even_in_x: bool):
    """Sum of row_fn over the grid; row_fn(y, xs) -> (k,) or (k, len(xs))."""

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
        acc = None
        for yy, wy in zip(yn, yw):
            for (a, b, mult) in _x_sections(yy, even_in_x):
                per_unit = max(panel.x_nodes_per_unit * oversample / (2.0 * math.pi),
                               8.0 / (b - a))
                order = 12
                npanels = max(1, int(math.ceil((b - a) * per_unit / order)))
                xs, xw = _composite_gl(a, b, npanels, order)
                vals = np.atleast_2d(row_fn(yy, xs))
                contrib = (vals @ xw) * (mult * wy / (yy * yy))
                acc = contrib if acc is None else acc + contrib
        return acc if acc is not None else np.zeros(1, dtype=complex)

    return pairwise_sum([do_panel(p) for p in grid.panels])


def _composite_gl(a: float, b: float, npanels: int, order: int):
    xs_list, ws_list = [], []
    edges = np.linspace(a, b, npanels + 1)
    for pa, pb in zip(edges[:-1], edges[1:]):
        x, w = gl_nodes(pa, pb, order)
        xs_list.append(x)
        ws_list.append(w)
    return np.concatenate(xs_list), np.concatenate(ws_list)


def integrate_rows(row_fn, y_max: float, *, y_bandwidth, x_bandwidth,
                   splits=(), even_in_x=False, oversample: float = 8.0):
    """Integrate a row function over F up to y_max with a refinement estimate.

    Returns (value_vector, est_error_vector): the value from the refined grid
    and the coarse-vs-refined difference as the error estimate.
    """
    grid = build_grid(y_max, y_bandwidth, x_bandwidth, splits=splits,
                      oversample=oversample)
    coarse = _integrate_grid(row_fn, grid, oversample=oversample,
                             even_in_x=even_in_x)
    grid2 = build_grid(y_max, y_bandwidth, x_bandwidth, splits=splits,
                       oversample=oversample * _REFINE)
    fine = _integrate_grid(row_fn, grid2, oversample=oversample * _REFINE,
                           even_in_x=even_in_x)
    return fine, np.abs(fine - coarse)


def integrate_F(f, y_max: float, tol: float = 1e-8, *,
                bandwidth: float = 30.0, splits=()):
    """Integral of a point function over F intersected with {y <= y_max}.

    ``f`` maps a Point to a (possibly complex) value.  ``bandwidth`` is the
    assumed spectral bandwidth of f at y = 1 in radians per unit length in
    either coordinate (features of hyperbolic integrands widen like y, so
    the y-direction density decays as bandwidth/y); raise it for oscillatory
    integrands.  Returns (value, est_error); raises ToleranceError (carrying
    both) if the Richardson estimate exceeds ``tol``.
    """
    if y_max < 2.0:
        raise DomainError("integrate_F needs y_max >= 2")

    def row_fn(y, xs):
        return np.array([f(Point(float(x), float(y))) for x in xs])

    val, est = integrate_rows(row_fn, y_max,
                              y_bandwidth=lambda y: bandwidth / max(y, 1.0),
                              x_bandwidth=lambda y: bandwidth,
                              splits=splits, even_in_x=False,
                              oversample=DEFAULT_POLICY.bessel_freq_oversample)
    value, estimate = complex(val[0]), float(est[0])
    if abs(value.imag) < 1e-14 * max(1.0, abs(value.real)):
        value = value.real
    if estimate > tol * max(1.0, abs(value)):
        raise ToleranceError(
            f"integrate_F estimate {estimate:.3e} exceeds tol {tol:.3e}",
            value=value, estimate=estimate)
    return value, estimate


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

def _moment_y_max(setup: SpectralSetup) -> float:
    T = setup.T
    return setup.A + (T + 20.0 * T ** (1.0 / 3.0)) / (2.0 * math.pi) + 5.0


def _integrate_moment(row_fn, setup: SpectralSetup, ev: EisensteinEvaluator,
                      power: float, splits):
    """``integrate_rows`` on the moment grid of E_A at height setup.T.

    The y density follows the Bessel oscillation scale of four factors,
    4T/y; the x density resolves the richest Fourier mode of the integrand,
    ``power`` times the cutoff n_max(y) of one factor.  Node densities use
    the evaluator's oversampling.
    """
    T = setup.T
    return integrate_rows(
        row_fn, _moment_y_max(setup),
        y_bandwidth=lambda y: 4.0 * T / y + 8.0,
        x_bandwidth=lambda y: 2.0 * math.pi * power * ev.n_max(y),
        splits=splits, even_in_x=True, oversample=ev.policy.bessel_freq_oversample)


@dataclass(frozen=True)
class FourthMomentResult:
    report: MomentReport                  # p = 4
    second_report: MomentReport           # p = 2, value = |int E_A^2|
    second_moment: complex                # int_F E_A(z, 1/2+iT)^2 dmu
    const_projection_sq: float            # (3/pi) |int E_A^2|^2
    const_projection_prediction: float    # (12/pi) log^2 T


def fourth_moment(setup: SpectralSetup, tol: float = 1e-4, *,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> FourthMomentResult:
    """Fourth and second moments of E_A over F in one quadrature sweep.

    The p = 4 value integrates |E_A|^4; the companion second moment
    integrates E_A^2 (complex) and must reproduce the closed-form limit.
    Predictions: (36/pi) log^2 T for p = 4, 2 log T for |int E_A^2|.
    """
    ev = EisensteinEvaluator(setup, policy)
    T = setup.T

    def row_fn(y, xs):
        vals = ev.eval_row_trunc(y, xs)
        a2 = np.abs(vals) ** 2
        return np.stack([(a2 * a2).astype(complex), vals * vals])

    val, est = _integrate_moment(row_fn, setup, ev, 4.0, (setup.A,))

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
        const_projection_prediction=(12.0 / math.pi) * lnT * lnT)


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

    def row_fn(y, xs):
        return e1.eval_row(y, xs, A=A) * e2.eval_row(y, xs, A=A)

    val, est = integrate_rows(
        row_fn, y_max,
        y_bandwidth=lambda y: 30.0 / y,
        x_bandwidth=lambda y: 2.0 * math.pi * 2.0 * max(e1.n_max(y), e2.n_max(y)),
        splits=(A,), even_in_x=True,
        oversample=DEFAULT_POLICY.bessel_freq_oversample)
    return complex(val[0]), float(est[0])


def h_window_norm_sq(setup: SpectralSetup) -> float:
    """<H_A, H_A> = int_{y > A} |2 e(y) E_A|^2 dmu by quadrature."""
    ev = EisensteinEvaluator(setup)

    def row_fn(y, xs):
        return np.abs(ev.eval_row_H_A(y, xs)) ** 2 + 0j

    val, _ = _integrate_moment(row_fn, setup, ev, 2.0, (setup.A,))
    return float(val[0].real)


@dataclass(frozen=True)
class SmoothedMomentResult:
    value: float          # int h(A) ||E_A||_4^4 dA over the bump support
    hhat0: float          # int h = T^(-alpha/2)
    i_split: tuple        # (I1, I2, I3) of the fixed-B band decomposition
    direct: float         # hhat0 * ||E_B||_4^4, the band-split comparator
    reports: tuple        # per-node MomentReports


def smoothed_fourth_moment(setup: SpectralSetup, bump) -> SmoothedMomentResult:
    """Average of the fourth moment against the bump in the truncation height.

    Also computes the three-band split of hhat(0) ||E_B||_4^4 at the bump's
    center (below / across / above the support shell) as a partition
    diagnostic; the three bands must reassemble to the direct value.
    """
    from eislab.weights import Bump, bump_h  # local import to avoid a cycle

    if not isinstance(bump, Bump):
        raise TypeError("smoothed_fourth_moment needs a weights.Bump")
    if abs(bump.B - setup.B) > 1e-12 or abs(bump.T - setup.T) > 1e-12:
        raise DomainError("bump and setup disagree on (B, T)")
    delta = bump.half_width
    nodes, wts = gl_nodes(bump.B - delta, bump.B + delta, 4)
    reports = []
    acc = 0.0
    for A_i, w_i in zip(nodes, wts):
        res = fourth_moment(SpectralSetup(T=setup.T, A=float(A_i), B=setup.B,
                                          alpha=setup.alpha),
                            tol=math.inf)
        reports.append(res.report)
        acc += w_i * bump_h(float(A_i), bump) * res.report.value

    # fixed-B band split: the integrand below/within/above the shell is the
    # same |E_B|^4, so the three bands must add back to the direct moment
    ev = EisensteinEvaluator(SpectralSetup(T=setup.T, A=setup.B, B=setup.B,
                                           alpha=setup.alpha))

    def band(lo, hi):
        def row_fn(y, xs):
            if not (lo < y <= hi):
                return np.zeros(len(np.atleast_1d(xs)), dtype=complex)
            v = np.abs(ev.eval_row_trunc(y, xs)) ** 2
            return (v * v).astype(complex)
        # the grid spans y up to setup's own A-dependent height, not B's
        val, _ = _integrate_moment(row_fn, setup, ev, 4.0, (lo, hi, setup.B))
        return float(val[0].real)

    hhat0 = setup.T ** (-setup.alpha / 2.0)
    i1 = hhat0 * band(0.0, bump.B - delta)
    i2 = hhat0 * band(bump.B - delta, bump.B + delta)
    i3 = hhat0 * band(bump.B + delta, math.inf)
    direct = hhat0 * band(0.0, math.inf)
    return SmoothedMomentResult(value=acc, hhat0=hhat0, i_split=(i1, i2, i3),
                                direct=direct, reports=tuple(reports))
