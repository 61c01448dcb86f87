"""The acceptance suite: one function per criterion, runnable from the CLI
(``eislab acceptance``) or from pytest.

Every gate is a ``Check(name, value, gate)`` row, which passes exactly when
value < gate, so a NaN never passes.  A relative gate is a row whose gate
is another measured value; a value that is only reported is a row with an
infinite gate, which fails if it is NaN or +inf.  Each criterion returns its
rows inside a CriterionResult, whose pass flag and one-line detail are
derived from them.  Thresholds live in this module and nowhere else.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eislab import moments, spectral, weights
from eislab.eisenstein import SpectralSetup
from eislab.specfun import (
    bessel_k_scaled,
    log_gamma,
    scattering,
    stirling_gamma_log,
    xi_log,
    zeta,
)

DATA_DIR = Path(__file__).resolve().parents[2] / "data"
# p = 2 error (``moments.second_moment_error``) of criteria 1 and 4, `eislab
# maass-selberg` and `eislab moment-sweep`; the worst of the criteria is 1.5e-14
P2_TOL = 1e-12


@dataclass(frozen=True)
class Check:
    """One gate row: it passes exactly when value < gate, so never on a NaN."""
    name: str
    value: float
    gate: float

    @property
    def passed(self) -> bool:
        return bool(self.value < self.gate)

    def __str__(self):
        return f"{self.name}: {self.value:.6g} {'<' if self.passed else '!<'} {self.gate:.6g}"


@dataclass
class CriterionResult:
    number: int
    name: str
    checks: list
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def detail(self) -> str:
        return "; ".join(map(str, self.checks))


def _criterion(number, name):
    """Time a function that returns Check rows and wrap them in a result."""
    def wrap(rows):
        @functools.wraps(rows)
        def run() -> CriterionResult:
            t0 = time.time()  # arguments run left to right: rows() before the clock stops
            return CriterionResult(number, name, rows(), time.time() - t0)
        return run
    return wrap


@_criterion(1, "exact second-moment identity")
def criterion_1():
    """Critical-line truncated second moment: quadrature vs the exact limit."""
    checks = []
    for (T, A) in [(5.0, 1.5), (10.0, 2.0), (20.0, 2.0)]:
        res = moments.fourth_moment(SpectralSetup(T=T, A=A), tol=math.inf)
        checks.append(Check(f"p2 rel (T={T:g}, A={A:g})", moments.second_moment_error(res)[1],
                            P2_TOL))
    return checks


@_criterion(2, "real-s pair identity")
def criterion_2():
    """Two-parameter identity at real s: closed form vs quadrature."""
    closed = moments.maass_selberg(2.0, 3.0, 2.0)
    quad, _ = moments.real_s_pair_quadrature(2.0, 3.0, 2.0)
    return [Check("rel", abs(quad - closed) / abs(closed), 1e-6)]


@_criterion(3, "second-moment trend")
def criterion_3():
    """Second-moment asymptotic trend against 2 phi log T: within 0.15 at
    T = 200, and closer there than at T = 20."""
    devs = {T: abs(moments.maass_selberg_limit(T, 2.0) / (2.0 * scattering(T) * math.log(T))
                   - 1.0) for T in (20.0, 200.0)}
    return [Check("|ratio-1| T=200", devs[200.0], 0.15),
            Check("|ratio-1| T=200 vs T=20", devs[200.0], devs[20.0])]


def fourth_moment_gates(worst_p2, ratios, gaussian) -> list:
    """Criterion 4's rows on its sweep: the worst p = 2 error, the finite
    positive log^2 ratios (``ratios[T]``, one per A; |log ratio| is finite
    exactly then), the log^2 ratio spread, which must shrink from T = 10 to
    50, and |Gaussian ratio - 1| at A = 2 (``gaussian[T]``), which must too."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.max(np.abs(np.log(np.concatenate(list(ratios.values())))))
    spread = {T: np.ptp(v) for T, v in ratios.items()}
    dev = {T: abs(g - 1.0) for T, g in gaussian.items()}
    return [Check("p2 worst rel", worst_p2, P2_TOL),
            Check("max |log ratio|", log_ratio, math.inf),
            Check("ratio spread T=50 vs T=10", spread[50.0], spread[10.0]),
            Check("|gaussian ratio-1| A=2 T=50 vs T=10", dev[50.0], dev[10.0])]


@_criterion(4, "fourth-moment pipeline")
def criterion_4():
    """Fourth-moment sweep: p=2 closed-form agreement, p=4 ratio table."""
    ratios, gaussian, p2 = {}, {}, []
    for T in (10.0, 25.0, 50.0):
        for A in (1.5, 2.0, 3.0):
            res = moments.fourth_moment(SpectralSetup(T=T, A=A), tol=math.inf)
            p2.append(moments.second_moment_error(res)[1])
            ratios.setdefault(T, []).append(res.report.ratio)
            if A == 2.0:
                gaussian[T] = res.gaussian_ratio
    return fourth_moment_gates(np.max(p2), ratios, gaussian)


def weights_audit_checks() -> list:
    """Weight-function suite: invariance, supports, envelopes, leading terms."""
    t, T = 60.0, 50.0
    bump = weights.Bump(B=2.0, alpha=0.009, T=T)

    v1 = weights.weight_V_pm(100.0, t, T, "even", sigma=1.0)
    v2 = weights.weight_V_pm(100.0, t, T, "even", sigma=2.0)
    c1 = weights.weight_Vcal_pm(2.0, t, T, bump, sigma=0.5)
    c2 = weights.weight_Vcal_pm(2.0, t, T, bump, sigma=1.5)
    checks = [
        Check("V contour", np.max(np.abs([v1[0] / v2[0] - 1.0, v1[1] / v2[1] - 1.0])), 1e-7),
        Check("Vcal contour", np.max(np.abs([c1.plus / c2.plus - 1.0,
                                             c1.minus / c2.minus - 1.0])), 1e-7)]

    # support windows: the bump transform, the short weight, the long weight
    ht_far = abs(weights.bump_transform(1.0 - 0.01 - 1800.0j, bump)) / bump.hhat0
    checks.append(Check("bump-transform support", ht_far, 1e-10))
    base = weights.weight_Vcal_pm(1.0, t, T, bump)
    far = weights.weight_Vcal_pm(T ** 1.2, t, T, bump, sigma=35.0)
    checks.append(Check("Vcal support", abs(far.plus) / abs(base.plus), 1e-10))
    q0 = t * math.sqrt(4 * T * T - t * t) / (4.0 * math.pi ** 2)
    vbase = weights.weight_V_pm(1.0, t, T, "even")
    vfar = weights.weight_V_pm(q0 * math.e ** 11, t, T, "even")
    checks.append(Check("V support", abs(vfar[0]) / abs(vbase[0]), 1e-10))

    # envelopes with fitted constants
    cfit_h = np.max([abs(weights.weight_Hcal(tt, TT)) ** 2 * abs(tt)
                     * math.sqrt(4 * TT * TT - tt * tt)
                     for TT in (20.0, 50.0, 100.0) for tt in (0.7 * TT, TT, 1.3 * TT)])
    checks.append(Check("Hcal envelope", cfit_h, 100.0))
    cfit_hs = []
    for tt in (0.8 * T, T, 1.2 * T):
        hp, hm = weights.weight_Hcal_pm(0.5 + 0j, tt, T, bump)
        env = (abs(tt) * math.sqrt(4 * T * T - tt * tt)) ** (-1.0) \
            * (abs(tt) * math.sqrt(4 * T * T - tt * tt) / (4 * T)) ** 0.5
        cfit_hs.append(np.max(np.abs([hp, hm])) ** 2 / env)
    checks.append(Check("Hcal_pm envelope", np.max(cfit_hs), 100.0))
    env_v = [abs(t) * math.sqrt(4 * T * T - t * t) / xx for xx in (1.0, 10.0, 100.0, 1000.0)]
    vs = [weights.weight_V_pm(xx, t, T, "even") for xx in (1.0, 10.0, 100.0, 1000.0)]
    checks.append(Check("V envelope", np.max(np.abs(vs) / np.array(env_v)[:, None]), 100.0))

    # Stirling leading-term convergence, halving from T=100 to T=200
    s0 = 0.3 + 0.2j
    devs = {}
    for TT in (100.0, 200.0):
        bT = weights.Bump(B=2.0, alpha=0.009, T=TT)
        lead = weights.leading_terms(s0, TT, TT, bT)
        hp, hm = weights.weight_Hcal_pm(s0, TT, TT, bT)
        hc = weights.weight_Hcal(TT, TT)
        devs[TT] = np.max(np.abs([hc * hp / lead.hh_plus - 1.0,
                                  hc * hm * lead.v_minus_phase / lead.hh_minus - 1.0]))
    checks.append(Check("Stirling ratio at T=200", devs[200.0], devs[100.0] * 0.75))
    return checks


criterion_5 = _criterion(5, "weight-function suite")(weights_audit_checks)


@_criterion(6, "Mellin pair")
def criterion_6():
    """Mellin pair g/G at (T,t) = (3,5), s = 1, by iterated quadrature to
    double precision (7.9e-15; truncating the outer integral at x = e^-16
    gave 4.4e-8); Mellin-Barnes spot check."""
    gn = weights.g_mellin_numeric(1.0, 3.0, 5.0)
    gc = weights.g_mellin_closed(1.0, 3.0, 5.0)
    mb_n = weights.mellin_barnes_kk_numeric(2.0, 0.0, 0.0)
    mb_c = weights.mellin_barnes_kk_closed(2.0, 0.0, 0.0)
    return [Check("g vs G rel", abs(gn / gc - 1.0), 1e-12),
            Check("Mellin-Barnes abs", abs(mb_n - mb_c), 1e-8)]


@_criterion(7, "diagonal constants")
def criterion_7():
    """Diagonal constants: bracket factor and the collapse of the diagonal terms.

    The zeta-valued combination of the diagonal main terms must equal
    hhat(0) (12/pi) log^2 T times the bracket factor, which is built from a
    gamma ratio on its own, so a wrong constant on either side fails.
    """
    checks = []
    for T in (100.0, 400.0):
        br = spectral.bracket_factor(T)
        bump = weights.Bump(B=2.0, alpha=0.009, T=T)
        total = spectral.diagonal_main_terms(T, bump).total
        checks += [Check(f"|bracket-2| T={T:g}", abs(br - 2.0), 10.0 / T),
                   Check(f"|diagonal/(hhat0 (12/pi) log^2 T bracket) - 1| T={T:g}",
                         abs(total / (bump.hhat0 * (12.0 / math.pi) * math.log(T) ** 2 * br)
                             - 1.0), 1e-10)]
    return checks


def tail_gates(reports) -> list:
    """Each tail estimate of a c_max sweep's reports, in order, must be
    below the one before it: ``tail[i]`` against ``tail[i-1]``."""
    tails = [r.tail_estimate for r in reports]
    return [Check(f"tail[{i}]", tails[i], tails[i - 1]) for i in range(1, len(tails))]


def kuznetsov_gates(reports) -> list:
    """Criterion 8's rows on the n = m reports of a c_max sweep: the tail
    gates, the two sides of the last report agreeing in sign, and, because a
    partial basis can only undercount the spectral side when n = m, its
    spectral side exceeding its geometric side by less than the tail."""
    s, g = reports[-1].spectral_side, reports[-1].geometric_side
    return tail_gates(reports) + [
        Check("-sign(spectral)*sign(geometric)", -np.sign(s) * np.sign(g), 0.0),
        Check("spectral-geometric", s - g, reports[-1].tail_estimate)]


@_criterion(8, "Kuznetsov diagnostic")
def criterion_8():
    """Kuznetsov diagnostic: shrinking tails, sign agreement, one-sided
    closure; the two sides and their closure are reported (basis-limited)."""
    forms = spectral.ingest_forms(str(DATA_DIR / "maass_forms.csv"))
    phi = spectral.TestFunction(kind="gaussian", width=8.0)
    reports = [spectral.kuznetsov_two_sides(1, 1, phi, forms, c_max=c)
               for c in (50, 100, 200)]
    r = reports[-1]
    return kuznetsov_gates(reports) + [Check("spectral", r.spectral_side, math.inf),
                                       Check("geometric", r.geometric_side, math.inf),
                                       Check("closure", r.closure, math.inf)]


@_criterion(9, "Bessel-transform lemma")
def criterion_9():
    """Bessel-transform lemma: fitted constant at x = T^2; smallness at x = T.

    The x = T^2 clause runs at T = 40 as stated.  The x = T clause needs the
    window wide enough for the no-stationary-point suppression to reach 1e-8,
    which within alpha < 1/100 first happens near T = 1000; it runs there
    with a Gaussian-core window (see the decisions ledger).
    """
    res_big = spectral.bessel_transform_check(1600.0, 40.0, 0.009)
    Z = spectral.ZWindow(alpha=0.0099, T=1000.0, kind="gaussian_core", sigma=0.0298)
    res_small = spectral.bessel_transform_check(1000.0, 1000.0, 0.0099, Z)
    return [Check("x=T^2 fitted C", res_big.fitted_constant, 100.0),
            Check("x=T main/scale", abs(res_small.stationary_phase) / res_small.scale, 1e-8),
            Check("x=T direct/scale", abs(res_small.direct) / res_small.scale, 1e-8)]


@_criterion(10, "special-function substrate")
def criterion_10():
    """Special-function substrate: symmetry, unimodularity, reference values,
    and the Stirling error falling at least 8-fold from T = 100 to 1000."""
    rng = np.random.default_rng(20250810)
    fe = []
    while len(fe) < 200:
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(-40.0, 40.0))
        if min(abs(s), abs(s - 1), abs(s.imag)) < 0.3:
            continue
        v1 = xi_log(s)
        v2 = xi_log(1.0 - s)
        rel_lm = abs(v1.real - v2.real) / max(1.0, abs(v1.real))
        fe.append(np.max([rel_lm, abs(math.remainder(v1.imag - v2.imag, 2.0 * math.pi))]))
    dev = {T: abs(np.exp(stirling_gamma_log(0.5, T) - log_gamma(0.5 + 1j * T)) - 1.0)
           for T in (100.0, 1000.0)}
    return [Check("xi symmetry worst", np.max(fe), 1e-9),
            Check("|c|-1 worst", np.max([abs(abs(scattering(T)) - 1.0)
                                         for T in (5.0, 17.3, 200.0)]), 1e-12),
            Check("zeta(2) err", abs(zeta(2.0) - math.pi ** 2 / 6.0), 1e-9),
            Check("K0(1) err", abs(bessel_k_scaled(0.0, 1.0) - 0.42102443824070834), 1e-9),
            Check("Stirling dev T=1000", dev[1000.0], dev[100.0] / 8.0)]


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]
QUICK_CRITERIA = [criterion_2, criterion_3, criterion_5, criterion_7, criterion_10]


def run_all(quick: bool = False):
    results = []
    for fn in QUICK_CRITERIA if quick else ALL_CRITERIA:
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number:2d} ({res.name}) "
              f"[{res.seconds:.1f}s] {res.detail}")
    return results
