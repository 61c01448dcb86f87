"""Quadrature over the modular fundamental domain and the moment pipeline.

The fundamental domain F = {|x| <= 1/2, |z| >= 1} is integrated against
d mu = dx dy / y^2 as a stack of rows.  At a fixed height y every integrand
here is a trigonometric polynomial in x whose coefficients follow from those
of E by convolution, so its row integral is exact in coefficient space:
the constant coefficient on the full strip above y = 1, and a closed-form
arc weight on the section |x| >= sqrt(1 - y^2) below it (``section_integral``).
Rows are arrays: a grid passes all its y nodes to one row function, which
takes them in blocks sharing the FFT length L >= 8K + 1 of |E|^4, samples
E at L points, forms the powers pointwise and transforms back, exactly.
The y direction uses Gauss-Legendre panels (split at y = 1, at the truncation
height A, and at any caller-supplied breakpoints) whose density follows the
Bessel oscillation scale ~ T/y per factor.  Error estimates are
Richardson-style: the whole integral is redone with doubled y node density
and the difference is reported; no asymptotic error model is assumed.

E_A, E without its constant term e(y) above height A, lives on F only (its
group translates are *not* automorphic) and jumps at y = A.  The evaluators
return E's rows, and the truncation is a row weight: E_A keeps e exactly
when A >= y, so P(E_A) averaged over A against a bump h is the row
m P(E) + (hhat(0) - m) P(E - e), m = int_{A >= y} h.  The sharp cut at A is
the point mass, m = [y <= A] and hhat(0) = 1.

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
from eislab.quadrature import _GL_ORDER, OVERSAMPLE, gl_nodes, pairwise_sum, panel_edges
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
    """y-strip decomposition of F into Gauss-Legendre panels."""

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


_STRIP_RATIO = 1.3  # geometric growth of the y-strips
_REFINE = 2.0       # node-density factor of the Richardson comparison grid


def build_grid(y_max: float, y_bandwidth, *, splits=(),
               oversample: float = OVERSAMPLE) -> QuadratureGrid:
    """Geometric y-strips with forced breakpoints, each cut into equal
    16-node panels (``quadrature.panel_edges``).

    ``y_bandwidth(y)`` gives the local bandwidth in radians per unit length,
    taken at each strip's foot, with ``oversample`` nodes per wave.  Below
    y = 1 a strip is cut in phi = asin y, where ``_integrate_grid``
    integrates it, at the rate y_bandwidth(a) cos(phi_a) of its foot a, the
    largest on the strip; its y edges are the sines of the phi edges.  The
    panels are cut in units of the strip, so the one-radian floor of
    ``panel_count`` applies to a strip's whole phase, not to each unit of y.
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
        lo, hi, rate = ((math.asin(a), math.asin(b), y_bandwidth(a) * math.sqrt(1.0 - a * a))
                        if b <= 1.0 else (a, b, y_bandwidth(a)))
        cuts = lo + (hi - lo) * panel_edges(0.0, 1.0, (hi - lo) * rate, oversample, 1)
        cuts = np.sin(cuts) if b <= 1.0 else cuts
        panels += [YPanel(y0, y1, _GL_ORDER) for y0, y1 in zip(cuts[:-1], cuts[1:])]
    return QuadratureGrid(panels)


def section_integral(f, y):
    """Integral of sum_k f_k e(k x), k = -K..K, over F's section at height y.

    ``f`` holds f_-K..f_K along its last axis and y broadcasts against the
    other axes.  The section is the strip |x| <= 1/2 for y >= 1, which keeps
    f_0 alone, and the arcs sqrt(1 - y^2) <= |x| <= 1/2 below, where
    e(k x) + e(-k x) integrates to -sin(2 pi k x_r) / (pi k).
    """
    y = np.asarray(y, float)
    if np.any(y < _FLOOR_Y):
        raise DomainError(f"F has no section at height {np.min(y)} < sqrt(3)/2")
    f = np.asarray(f)
    K = f.shape[-1] // 2
    xr = np.sqrt(np.maximum(1.0 - y * y, 0.0))  # 0 from y = 1 up: the arc weights vanish
    strip = f[..., K] * (1.0 - 2.0 * xr)
    if not np.any(xr):
        return strip
    ks = np.arange(1, K + 1)
    arc = np.sin(2.0 * np.pi * ks * xr[..., None]) / (np.pi * ks)
    pairs = f[..., K + 1:] + f[..., :K][..., ::-1]
    return strip - np.einsum("...k,...k->...", pairs, arc)


_FFT_ENTRIES = 8192  # samples per height block, twice that with two passes: bounds working memory


def _fft_blocks(K):
    """(L, row indices) blocks of heights with cutoffs K that share the FFT
    length L of |g|^4, the least power of two >= 8K + 1, at most
    _FFT_ENTRIES / L heights each."""
    Ls = 2 ** np.ceil(np.log2(8 * K + 1)).astype(int)
    for L in np.unique(Ls):
        idx = np.flatnonzero(Ls == L)
        step = max(1, _FFT_ENTRIES // L)
        for start in range(0, idx.size, step):
            yield int(L), idx[start:start + step]


def _samples(c, L: int) -> np.ndarray:
    """g(j / L), j = 0..L-1, of each row g = sum_k c_k e(k x) of c (.., 2K+1)."""
    K = c.shape[-1] // 2
    spec = np.zeros(c.shape[:-1] + (L,), complex)
    spec[..., :K + 1] = c[..., K:]
    spec[..., L - K:] = c[..., :K]
    return np.fft.ifft(spec, norm="forward")


def _section_of_samples(h, y, M: int):
    """``section_integral`` of functions sampled at L points along h's last
    axis whose modes lie in -M..M, 2M < L, so the FFT back is exact."""
    L = h.shape[-1]
    coef = np.fft.fft(h, norm="forward")
    return section_integral(coef[..., np.arange(-M, M + 1) % L], y)


def _integrate_grid(row_fn, grid: QuadratureGrid):
    """Sum of row_fn(y) dy / y^2 over the grid: one row_fn call on all its y
    nodes, sums per panel, then a pairwise sum over the panels."""
    ys, ws = [], []
    for panel in grid.panels:
        if panel.y1 <= 1.0 + 1e-12:
            # below y = 1 the section boundary sqrt(1-y^2) is root-singular;
            # y = sin(phi) makes the section width analytic in phi
            pn, pw = gl_nodes(math.asin(min(panel.y0, 1.0)),
                              math.asin(min(panel.y1, 1.0)), panel.order)
            yn, yw = np.sin(pn), pw * np.cos(pn)
        else:
            yn, yw = gl_nodes(panel.y0, panel.y1, panel.order)
        ys.append(yn)
        ws.append(yw / (yn * yn))
    rows = np.asarray(row_fn(np.concatenate(ys))) * np.concatenate(ws)[:, None]
    starts = np.cumsum([0] + [len(yn) for yn in ys[:-1]])
    return pairwise_sum(np.add.reduceat(rows, starts, axis=0))


def integrate_rows(row_fn, y_max: float, *, y_bandwidth, splits=(),
                   oversample: float = OVERSAMPLE):
    """Integrate row integrals over F up to y_max with a refinement estimate.

    ``row_fn(ys)`` takes the array of a grid's y nodes and returns an
    (len(ys), k) array: at each height, the x-integrals over F's section of
    a vector of k integrands.  Returns (value_vector, est_error_vector): the
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
    phi = scattering(T)
    dlog = phi_log_deriv_critical(T)  # phi'/phi at 1/2 + iT, real
    lnA = math.log(A)
    osc = np.exp(2j * T * lnA)
    return complex(phi * (2.0 * lnA - dlog) + (osc - phi * phi / osc) / (2j * T))


# ---------------------------------------------------------------------------
# moments of the truncated series
# ---------------------------------------------------------------------------

def _cut_rows(c, m, total):
    """The coefficient rows that m P(E) + (total - m) P(E - e) needs, from
    E's rows c at heights of mass m: E's own where m != 0, then E - e's where
    m != total.  Returns (rows, their weights, their heights' indices)."""
    keep, drop = m != 0.0, m != total
    cut = c[drop]
    cut[:, c.shape[1] // 2] = 0.0
    return (np.concatenate([c[keep], cut]), np.concatenate([m[keep], total - m[drop]]),
            np.concatenate([np.flatnonzero(keep), np.flatnonzero(drop)]))


def _weighted_rows(evs, power, degree: int, mass, total: float = 1.0):
    """Row function for ``integrate_rows``: the row integrals of
    m P(E) + (total - m) P(E - e), m = mass(ys), at an array of heights ys.

    ``power`` maps the samples of E's rows, one call per FFT block of each
    evaluator in ``evs``, to the stacked integrands P, whose modes lie in
    -degree K..degree K.  A height with m = 0 or m = total takes one FFT pass.
    """

    def row_fn(ys):
        m = mass(ys)
        idx, vals = [], []
        for L, i in _fft_blocks(evs[0].n_max(ys)):
            gs = []
            for ev in evs:
                c, w, j = _cut_rows(ev.row_coefficients(ys[i]), m[i], total)
                gs.append(_samples(c, L))
            P = _section_of_samples(power(*gs), ys[i][j], degree * (c.shape[1] // 2))
            idx.append(i[j])
            vals.append(w[:, None] * P.T)
        out = np.zeros((len(ys), vals[0].shape[1]), complex)
        np.add.at(out, np.concatenate(idx), np.concatenate(vals))
        return out

    return row_fn


def _sharp_cut(A: float):
    """The mass m = [y <= A] of the truncation at A."""
    return lambda ys: (ys <= A).astype(float)


def _p4_p2(g):
    """|g|^4 and g^2 of samples g, stacked."""
    a = g.real ** 2 + g.imag ** 2
    return np.stack([a * a, g * g])


def _integrate_moment(ev: EisensteinEvaluator, mass, total: float, splits):
    """``integrate_rows`` of the weighted |E|^4, E^2 rows on ev's moment grid.

    The y density follows the Bessel oscillation scale of four factors,
    4T/y, with the evaluator's oversampling.
    """
    T = ev.setup.T
    return integrate_rows(
        _weighted_rows((ev,), _p4_p2, 4, mass, total), moment_y_max(ev.setup),
        y_bandwidth=lambda y: 4.0 * T / y + 8.0, splits=splits,
        oversample=ev.policy.bessel_freq_oversample)


@dataclass(frozen=True)
class FourthMomentResult:
    report: MomentReport                  # p = 4
    second_report: MomentReport           # p = 2, value = |int E_A^2|
    second_moment: complex                # int_F E_A(z, 1/2+iT)^2 dmu
    const_projection_sq: float            # (3/pi) |int E_A^2|^2
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

    val, est = _integrate_moment(ev, _sharp_cut(setup.A), 1.0, (setup.A,))

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
    rows = _weighted_rows((RealSEvaluator(s1), RealSEvaluator(s2)),
                          lambda g1, g2: (g1 * g2)[None], 2, _sharp_cut(A))
    val, est = integrate_rows(rows, A + 4.0, y_bandwidth=lambda y: 30.0 / y, splits=(A,))
    return complex(val[0]), float(est[0])


@dataclass(frozen=True)
class SmoothedMomentResult:
    value: float          # int h(A) ||E_A||_4^4 dA over the bump support
    est_error: float      # Richardson estimate of value's y-quadrature error
    second: complex       # int h(A) int_F E_A^2 dmu dA
    hhat0: float          # int h = T^(-alpha/2)


def smoothed_fourth_moment(bump: Bump) -> SmoothedMomentResult:
    """int h(A) int_F |E_A|^4 and E_A^2 dmu dA at the bump's T, in one sweep,
    exact in A: the rows weighted by m = ``bump.mass_above(y)``, on the
    moment grid of A = B + d.
    """
    if not isinstance(bump, Bump):
        raise TypeError("smoothed_fourth_moment needs a weights.Bump")
    B, delta, hhat0 = bump.B, bump.half_width, bump.hhat0
    ev = EisensteinEvaluator(SpectralSetup(T=bump.T, A=B + delta))
    val, est = _integrate_moment(ev, bump.mass_above, hhat0, (B - delta, B + delta, B))
    return SmoothedMomentResult(value=float(val[0].real), est_error=float(est[0]),
                                second=complex(val[1]), hhat0=hhat0)
