"""The acceptance suite: one function per gate, each with its tolerance
pinned here, runnable from the CLI (``eislab acceptance``) or from pytest.

Each criterion returns a CriterionResult with a pass flag and a detail
string; the runner prints one line per criterion.  Thresholds live in this
module and nowhere else.
"""

from __future__ import annotations

import math
import time
import warnings
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
P2_SWEEP_TOL = 1e-4  # worst p = 2 error of criterion 4 and `eislab moment-sweep`


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(number, name, passed, detail, t0):
    return CriterionResult(number, name, bool(passed), detail, time.time() - t0)


def criterion_1() -> CriterionResult:
    """Critical-line truncated second moment: quadrature vs the exact limit."""
    t0 = time.time()
    worst = 0.0
    details = []
    for (T, A) in [(5.0, 1.5), (10.0, 2.0), (20.0, 2.0)]:
        _, rel = moments.second_moment_error(
            moments.fourth_moment(SpectralSetup(T=T, A=A), tol=math.inf))
        worst = max(worst, rel)
        details.append(f"(T={T:g},A={A:g}): {rel:.2e}")
    return _result(1, "exact second-moment identity", worst <= 1e-5,
                   "; ".join(details) + " (gate 1e-5)", t0)


def criterion_2() -> CriterionResult:
    """Two-parameter identity at real s: closed form vs quadrature."""
    t0 = time.time()
    closed = moments.maass_selberg(2.0, 3.0, 2.0)
    quad, _ = moments.real_s_pair_quadrature(2.0, 3.0, 2.0)
    rel = abs(quad - closed) / abs(closed)
    return _result(2, "real-s pair identity", rel <= 1e-6,
                   f"rel={rel:.2e} (gate 1e-6)", t0)


def criterion_3() -> CriterionResult:
    """Second-moment asymptotic trend against 2 phi log T."""
    t0 = time.time()
    devs = {}
    for T in (20.0, 200.0):
        val = moments.maass_selberg_limit(T, 2.0)
        _, phi = scattering(T)
        ratio = val / (2.0 * phi * math.log(T))
        devs[T] = abs(ratio - 1.0)
    ok = devs[200.0] <= 0.15 and devs[200.0] < devs[20.0]
    return _result(3, "second-moment trend",
                   ok, f"|ratio-1|: T=20: {devs[20.0]:.3f}, T=200: {devs[200.0]:.3f} "
                       "(gate: <=0.15 at 200 and improving)", t0)


def fourth_moment_gates(worst_p2, ratios, gaussian) -> dict:
    """Criterion 4's gates on its sweep: the worst p = 2 error, the finite
    positive log^2 ratios (``ratios[T]``, one per A), the log^2 ratio spread,
    which must shrink from T = 10 to 50, and |Gaussian ratio - 1| at A = 2
    (``gaussian[T]``), which must too."""
    spread = {T: max(v) - min(v) for T, v in ratios.items()}
    dev = {T: abs(g - 1.0) for T, g in gaussian.items()}
    return {
        "p2": worst_p2 <= P2_SWEEP_TOL,
        "finite": all(np.isfinite(r) and r > 0 for v in ratios.values() for r in v),
        "spread": spread[50.0] < spread[10.0],
        "gaussian": dev[50.0] < dev[10.0],
    }


def criterion_4() -> CriterionResult:
    """Fourth-moment sweep: p=2 closed-form agreement, p=4 ratio table."""
    t0 = time.time()
    ratios, gaussian = {}, {}
    worst_p2 = 0.0
    for T in (10.0, 25.0, 50.0):
        for A in (1.5, 2.0, 3.0):
            res = moments.fourth_moment(SpectralSetup(T=T, A=A), tol=math.inf)
            worst_p2 = max(worst_p2, moments.second_moment_error(res)[1])
            ratios.setdefault(T, []).append(res.report.ratio)
            if A == 2.0:
                gaussian[T] = res.gaussian_ratio
    ok = all(fourth_moment_gates(worst_p2, ratios, gaussian).values())
    spread = {T: max(v) - min(v) for T, v in ratios.items()}
    detail = (f"p2 worst rel={worst_p2:.2e} (gate {P2_SWEEP_TOL:.0e}); ratio spreads "
              f"T=10: {spread[10.0]:.3f}, T=25: {spread[25.0]:.3f}, "
              f"T=50: {spread[50.0]:.3f} (gate: T=50 < T=10); |gaussian ratio-1| at A=2 "
              f"T=10: {abs(gaussian[10.0] - 1.0):.3f}, T=50: {abs(gaussian[50.0] - 1.0):.3f} "
              f"(gate: T=50 < T=10)")
    return _result(4, "fourth-moment pipeline", ok, detail, t0)


def weights_audit_checks():
    """(name, value, threshold) rows for every weight-function check; a check
    passes when value < threshold."""
    checks = []
    t, T = 60.0, 50.0
    bump = weights.Bump(B=2.0, alpha=0.009, T=T)

    v1 = weights.weight_V_pm(100.0, t, T, "even", sigma=1.0)
    v2 = weights.weight_V_pm(100.0, t, T, "even", sigma=2.0)
    inv_v = max(abs(v1[0] / v2[0] - 1.0), abs(v1[1] / v2[1] - 1.0))
    checks.append(("V contour", inv_v, 1e-7))

    c1 = weights.weight_Vcal_pm(2.0, t, T, bump, sigma=0.5)
    c2 = weights.weight_Vcal_pm(2.0, t, T, bump, sigma=1.5)
    inv_c = max(abs(c1.plus / c2.plus - 1.0), abs(c1.minus / c2.minus - 1.0))
    checks.append(("Vcal contour", inv_c, 1e-7))

    # support windows: the bump transform, the short weight, the long weight
    ht_far = abs(weights.bump_transform(1.0 - 0.01 - 1800.0j, bump)) / bump.hhat0
    checks.append(("bump-transform support", ht_far, 1e-10))
    base = weights.weight_Vcal_pm(1.0, t, T, bump)
    far = weights.weight_Vcal_pm(T ** 1.2, t, T, bump, sigma=35.0)
    checks.append(("Vcal support", abs(far.plus) / abs(base.plus), 1e-10))
    q0 = t * math.sqrt(4 * T * T - t * t) / (4.0 * math.pi ** 2)
    vbase = weights.weight_V_pm(1.0, t, T, "even")
    vfar = weights.weight_V_pm(q0 * math.e ** 11, t, T, "even")
    checks.append(("V support", abs(vfar[0]) / abs(vbase[0]), 1e-10))

    # envelopes with fitted constants
    cfit_h = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for TT in (20.0, 50.0, 100.0):
            for tt in (0.7 * TT, TT, 1.3 * TT):
                Hc = weights.weight_Hcal(tt, TT)
                cfit_h = max(cfit_h, abs(Hc) ** 2 * abs(tt) * math.sqrt(4 * TT * TT - tt * tt))
    checks.append(("Hcal envelope", cfit_h, 100.0))
    cfit_hs = 0.0
    for tt in (0.8 * T, T, 1.2 * T):
        hp, hm = weights.weight_Hcal_pm(0.5 + 0j, tt, T, bump)
        env = (abs(tt) * math.sqrt(4 * T * T - tt * tt)) ** (-1.0) \
            * (abs(tt) * math.sqrt(4 * T * T - tt * tt) / (4 * T)) ** 0.5
        cfit_hs = max(cfit_hs, max(abs(hp), abs(hm)) ** 2 / env)
    checks.append(("Hcal_pm envelope", cfit_hs, 100.0))
    cfit_v = 0.0
    for xx in (1.0, 10.0, 100.0, 1000.0):
        vp, vm = weights.weight_V_pm(xx, t, T, "even")
        env = (abs(t) * math.sqrt(4 * T * T - t * t) / xx)
        cfit_v = max(cfit_v, max(abs(vp), abs(vm)) / env)
    checks.append(("V envelope", cfit_v, 100.0))

    # Stirling leading-term convergence, halving from T=100 to T=200
    s0 = 0.3 + 0.2j
    devs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for TT in (100.0, 200.0):
            bT = weights.Bump(B=2.0, alpha=0.009, T=TT)
            lead = weights.leading_terms(s0, TT, TT, bT)
            hp, hm = weights.weight_Hcal_pm(s0, TT, TT, bT)
            hc = weights.weight_Hcal(TT, TT)
            dev_p = abs(hc * hp / lead.hh_plus - 1.0)
            dev_m = abs(hc * hm * lead.v_minus_phase / lead.hh_minus - 1.0)
            devs[TT] = max(dev_p, dev_m)
    checks.append(("Stirling ratio at T=200", devs[200.0], devs[100.0] * 0.75))
    return checks


def criterion_5() -> CriterionResult:
    """Weight-function suite: invariance, supports, envelopes, leading terms."""
    t0 = time.time()
    checks = weights_audit_checks()
    bad = [f"{name}: {val:.3e} !< {thr:.3e}" for name, val, thr in checks if not val < thr]
    good = "; ".join(f"{name}: {val:.2e}" for name, val, thr in checks)
    return _result(5, "weight-function suite", not bad,
                   ("; ".join(bad) + " | " if bad else "") + good, t0)


def criterion_6() -> CriterionResult:
    """Mellin pair g/G at (T,t) = (3,5), s = 1; Mellin-Barnes spot check."""
    t0 = time.time()
    gn = weights.g_mellin_numeric(1.0, 3.0, 5.0)
    gc = weights.g_mellin_closed(1.0, 3.0, 5.0)
    rel_g = abs(gn / gc - 1.0)
    mb_n = weights.mellin_barnes_kk_numeric(2.0, 0.0, 0.0)
    mb_c = weights.mellin_barnes_kk_closed(2.0, 0.0, 0.0)
    rel_mb = abs(mb_n - mb_c)
    ok = rel_g <= 1e-6 and rel_mb <= 1e-8
    return _result(6, "Mellin pair", ok,
                   f"g vs G rel={rel_g:.2e} (gate 1e-6); "
                   f"Mellin-Barnes abs={rel_mb:.2e} (gate 1e-8)", t0)


def criterion_7() -> CriterionResult:
    """Diagonal constants: bracket factor and the collapse of the diagonal terms.

    The zeta-valued combination of the diagonal main terms must equal
    hhat(0) (12/pi) log^2 T times the bracket factor, which is built from a
    gamma ratio on its own, so a wrong constant on either side fails.
    """
    t0 = time.time()
    devs, collapse = {}, {}
    for T in (100.0, 400.0):
        br = spectral.bracket_factor(T)
        devs[T] = abs(br - 2.0)
        bump = weights.Bump(B=2.0, alpha=0.009, T=T)
        total = spectral.diagonal_main_terms(T, bump).total
        collapse[T] = abs(total / (bump.hhat0 * (12.0 / math.pi) * math.log(T) ** 2 * br) - 1.0)
    ok = all(devs[T] <= 10.0 / T and collapse[T] <= 1e-10 for T in devs)
    return _result(7, "diagonal constants", ok,
                   f"|bracket-2|: T=100: {devs[100.0]:.2e} (<=0.1), "
                   f"T=400: {devs[400.0]:.2e} (<=0.025); "
                   f"|diagonal/(hhat0 (12/pi) log^2 T bracket) - 1|: "
                   f"T=100: {collapse[100.0]:.2e}, T=400: {collapse[400.0]:.2e} (<=1e-10)",
                   t0)


def kuznetsov_gates(reports) -> dict:
    """Criterion 8's gates on the n = m reports of a c_max sweep, in order.

    The tail estimate must not grow with c_max, the two sides of the last
    report must agree in sign, and, because a partial basis can only
    undercount the spectral side when n = m, its geometric side may fall
    short of the spectral side by at most the tail: geometric - spectral
    >= -tail.
    """
    tails = [r.tail_estimate for r in reports]
    r = reports[-1]
    return {
        "monotone": all(a >= b for a, b in zip(tails, tails[1:])),
        "signs": math.copysign(1, r.spectral_side) == math.copysign(1, r.geometric_side),
        "one_sided": r.geometric_side - r.spectral_side >= -r.tail_estimate,
    }


def criterion_8() -> CriterionResult:
    """Kuznetsov diagnostic: monotone tails, sign agreement, one-sided closure."""
    t0 = time.time()
    forms = spectral.ingest_forms(str(DATA_DIR / "maass_forms.csv"))
    phi = spectral.TestFunction(kind="gaussian", width=8.0)
    reports = [spectral.kuznetsov_two_sides(1, 1, phi, forms, c_max=c)
               for c in (50, 100, 200)]
    tails = [r.tail_estimate for r in reports]
    r = reports[-1]
    ok = all(kuznetsov_gates(reports).values())
    return _result(8, "Kuznetsov diagnostic", ok,
                   f"tails {tails[0]:.3e} >= {tails[1]:.3e} >= {tails[2]:.3e}; "
                   f"spectral={r.spectral_side:.5f} geometric={r.geometric_side:.5f} "
                   f"closure={r.closure:.2e} (reported; basis-limited); "
                   f"geometric-spectral={r.basis_gap:.3e} >= -tail={-r.tail_estimate:.3e}", t0)


def criterion_9() -> CriterionResult:
    """Bessel-transform lemma: fitted constant at x = T^2; smallness at x = T.

    The x = T^2 clause runs at T = 40 as stated.  The x = T clause needs the
    window wide enough for the no-stationary-point suppression to reach 1e-8,
    which within alpha < 1/100 first happens near T = 1000; it runs there
    with a Gaussian-core window (see the decisions ledger).
    """
    t0 = time.time()
    alpha = 0.009
    res_big = spectral.bessel_transform_check(1600.0, 40.0, alpha)
    ok_big = res_big.fitted_constant < 100.0
    Z = spectral.ZWindow(alpha=0.0099, T=1000.0, kind="gaussian_core", sigma=0.0298)
    res_small = spectral.bessel_transform_check(1000.0, 1000.0, 0.0099, Z)
    rel_main = abs(res_small.stationary_phase) / res_small.scale
    rel_direct = abs(res_small.direct) / res_small.scale
    ok_small = rel_main < 1e-8 and rel_direct < 1e-8
    return _result(9, "Bessel-transform lemma", ok_big and ok_small,
                   f"x=T^2: fitted C={res_big.fitted_constant:.2f} (<100); "
                   f"x=T: main/scale={rel_main:.1e}, direct/scale={rel_direct:.1e} (<1e-8)",
                   t0)


def criterion_10() -> CriterionResult:
    """Special-function substrate: symmetry, unimodularity, reference values."""
    t0 = time.time()
    rng = np.random.default_rng(20250810)
    worst_fe = 0.0
    n_done = 0
    while n_done < 200:
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(-40.0, 40.0))
        if min(abs(s), abs(s - 1), abs(s.imag)) < 0.3:
            continue
        v1 = xi_log(s)
        v2 = xi_log(1.0 - s)
        rel_lm = abs(v1.real - v2.real) / max(1.0, abs(v1.real))
        dphase = abs(math.remainder(v1.imag - v2.imag, 2.0 * math.pi))
        worst_fe = max(worst_fe, rel_lm, dphase)
        n_done += 1
    ok_fe = worst_fe <= 1e-9
    worst_c = max(abs(abs(scattering(T)[0]) - 1.0) for T in (5.0, 17.3, 200.0))
    ok_c = worst_c <= 1e-12
    z2 = abs(zeta(2.0) - math.pi ** 2 / 6.0)
    k0 = abs(bessel_k_scaled(0.0, 1.0) - 0.42102443824070834)
    ok_ref = z2 <= 1e-9 and k0 <= 1e-9
    dev100 = abs(np.exp(stirling_gamma_log(0.5, 100.0)
                        - log_gamma(0.5 + 100.0j)) - 1.0)
    dev1000 = abs(np.exp(stirling_gamma_log(0.5, 1000.0)
                         - log_gamma(0.5 + 1000.0j)) - 1.0)
    ok_st = dev100 / dev1000 >= 8.0
    ok = ok_fe and ok_c and ok_ref and ok_st
    return _result(10, "special-function substrate", ok,
                   f"xi symmetry worst={worst_fe:.1e} (<=1e-9); |c|-1 worst={worst_c:.1e} "
                   f"(<=1e-12); zeta(2) err={z2:.1e}, K0(1) err={k0:.1e} (<=1e-9); "
                   f"Stirling scaling factor={dev100/dev1000:.1f} (>=8)", t0)


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]
QUICK_SUBSET = {2, 3, 7, 10}


def run_all(quick: bool = False):
    results = []
    for fn in ALL_CRITERIA:
        number = int(fn.__name__.split("_")[1])
        if quick and number not in QUICK_SUBSET:
            continue
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number:2d} ({res.name}) "
              f"[{res.seconds:.1f}s] {res.detail}")
    return results
