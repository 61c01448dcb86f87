"""Spectral-side computations: Maass-form data, central-value products via the
approximate functional equation, triple-product pairings, the two-sided
trace-formula diagnostic, the oscillatory Bessel-transform check, and the
diagonal main-term assembly.

Maass-form data is ingested, not computed: eigenvalue solvers are out of
scope.  Ingest validates the Hecke relations

    lambda(n) lambda(m) = sum_{k | (n,m)} lambda(n m / k^2)

on everything stored and rejects files violating them beyond 1e-4.  Besides
file data, ``divisor_pseudoform`` builds the one family with exactly known
coefficients: lambda(n) = tau(n, gamma), whose L-function is the zeta product
zeta(s + i gamma) zeta(s - i gamma) with an exact even functional equation.
That object exercises every piece of the central-value machinery against an
independent zeta-product oracle at full precision, which no table of cusp-form
eigenvalues shipped at a handful of digits could do.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from eislab import arith
from eislab.errors import (
    DomainError,
    MissingEigenvalueError,
    ValidationError,
)
from eislab.quadrature import panel_nodes
from eislab.specfun import (
    DEFAULT_POLICY,
    kuznetsov_kernel_transform,
    log_gamma,
    xi_log,
    zeta,
)
from eislab.weights import Bump, _g_ratio_log, contour_weights


@dataclass
class MaassForm:
    """Spectral parameter, parity, Hecke eigenvalues, optional sym^2 value."""

    t: float
    parity: str
    hecke: dict = field(repr=False)
    sym2_L1: float | None = None

    def __post_init__(self):
        if self.t <= 0:
            raise ValidationError("spectral parameter must be positive")
        if self.parity not in ("even", "odd"):
            raise ValidationError(f"parity must be even/odd, got {self.parity}")

    @property
    def n_max(self) -> int:
        return max(self.hecke) if self.hecke else 0

    def eigenvalue(self, n: int) -> float:
        if n < 0:
            lam = self.eigenvalue(-n)
            return lam if self.parity == "even" else -lam
        try:
            return self.hecke[n]
        except KeyError as exc:
            raise MissingEigenvalueError(f"lambda({n}) not in form data") from exc

    def validate(self, tol: float = 1e-4):
        if abs(self.hecke.get(1, 0.0) - 1.0) > 1e-9:
            raise ValidationError("lambda(1) must equal 1")
        N = self.n_max
        for n in sorted(self.hecke):
            for m in sorted(self.hecke):
                if n * m > N or n > m:
                    continue
                try:
                    resid = arith.hecke_relation_check(self, n, m)
                except MissingEigenvalueError:
                    continue
                if resid > tol:
                    raise ValidationError(
                        f"Hecke relation fails at (n,m)=({n},{m}): residual {resid:.2e}")
        return self


def _smallest_prime_factors(n_max: int) -> np.ndarray:
    """spf[n] = the smallest prime factor of n, for 2 <= n <= n_max."""
    spf = np.arange(n_max + 1)
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            block = spf[p * p::p]
            block[block == np.arange(p * p, n_max + 1, p)] = p
    return spf


def hecke_fill(prime_eigenvalues: dict, n_max: int) -> dict:
    """Extend lambda(p) data to all n <= n_max with every prime factor known.

    The keys of ``prime_eigenvalues`` are primes.  Prime powers follow
    lambda(p^(k+1)) = lambda(p) lambda(p^k) - lambda(p^(k-1)); coprime
    indices multiply.
    """
    lam = {1: 1.0}
    for p, lp in prime_eigenvalues.items():
        power, prev, cur = p, 1.0, lp
        while power <= n_max:
            lam[power] = cur
            prev, cur = cur, lp * cur - prev
            power *= p
    rank = {p: r for r, p in enumerate(prime_eigenvalues)}
    spf = _smallest_prime_factors(n_max).tolist()
    for n in range(2, n_max + 1):
        if n in lam:
            continue
        # the prime powers q || n, found by the sieve and multiplied in the
        # order of ``prime_eigenvalues``, as the trial division took them
        factors, rest = [], n
        while rest > 1:
            p, q = spf[rest], 1
            while rest % p == 0:
                rest //= p
                q *= p
            factors.append((rank.get(p, -1), q))
        if min(factors)[0] < 0:
            continue  # a prime factor without an eigenvalue
        val = 1.0
        for _, q in sorted(factors):
            val *= lam[q]
        lam[n] = val
    return lam


def divisor_pseudoform(gamma: float, n_max: int) -> MaassForm:
    """Even pseudoform with lambda(n) = tau(n, gamma); exactly automorphic data.

    Its L-function is zeta(s + i gamma) zeta(s - i gamma), so every central
    value the AFE machinery produces has an independent closed-form oracle.
    """
    taus = arith.tau_gen_many(n_max, gamma)
    return MaassForm(t=gamma, parity="even",
                     hecke={n: float(taus[n]) for n in range(1, n_max + 1)})


def ingest_forms(source, tol: float = 1e-4):
    """Parse Maass-form CSV rows into validated forms.

    Schema: header ``t,parity,n,lambda``; one row per (form, n); parity in
    {even, odd}; an optional row with n = 0 carries L(1, sym^2) for the form.
    Duplicate (t, parity, n) rows are last-write-wins with a warning.  Forms
    failing lambda(1) = 1 or a Hecke relation beyond ``tol`` are rejected.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "read"):
        fh = open(source, newline="") if isinstance(source, (str, bytes)) else source
        rows = list(csv.DictReader(filter(lambda ln: not ln.lstrip().startswith("#"), fh)))
        if isinstance(source, (str, bytes)):
            fh.close()
    else:
        rows = list(source)
    if not rows:
        raise ValidationError("no data rows in Maass-form source")
    staged: dict = {}
    for i, row in enumerate(rows):
        try:
            t = float(row["t"])
            parity = row["parity"].strip()
            n = int(row["n"])
            lam = float(row["lambda"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed Maass-form row {i}: {row}") from exc
        key = (t, parity)
        form = staged.setdefault(key, {"hecke": {}, "sym2": None})
        if n == 0:
            form["sym2"] = lam
            continue
        if n in form["hecke"]:
            warnings.warn(f"duplicate eigenvalue row for t={t}, n={n}; keeping the last",
                          stacklevel=2)
        form["hecke"][n] = lam
    out = []
    for (t, parity), data in sorted(staged.items()):
        form = MaassForm(t=t, parity=parity, hecke=data["hecke"], sym2_L1=data["sym2"])
        form.validate(tol)
        out.append(form)
    return out


# ---------------------------------------------------------------------------
# approximate functional equation for the central-value product
# ---------------------------------------------------------------------------

def afe_cutoff(t: float, T: float, a: float, tail_tol: float,
               smoother: float = 1.0) -> float:
    """Series length: terms past Q_eff exp(2 sqrt(smoother ln(1/tol))) are
    below the Gaussian contour-shift budget e^(-L^2 / (4 smoother))."""
    g1 = _g_ratio_log(np.array([1.0 + 0j]), t, T, a, +1.0)[0]
    q_eff = float(np.exp(g1.real))  # |G(1)| ~ conductor^(1/2) growth base
    L = 2.0 * math.sqrt(smoother * max(-math.log(tail_tol), 1.0))
    return max(q_eff, 1.0) * math.exp(L) + 16.0


def afe_pair(form: MaassForm, T: float, sigma: float = 1.0, *, tail_tol: float = 1e-7,
             smoother: float = 1.0) -> complex:
    """L(1/2, u) L(1/2 - 2iT, u) via the approximate functional equation.

    Both mirror sums are carried: coefficients lambda(n) tau(n, T) over
    n^(1/2 -+ iT) k^(1 -+ 2iT) against the contour weights at x = k^2 n, with
    parity selecting the gamma data (a = 1/2 even, 3/2 odd).  The weights'
    contour runs on Re w = ``sigma``, up to a height set by the smoother.  The
    double sum is truncated where the Gaussian contour budget puts the weights
    below ``tail_tol``; the form must carry eigenvalues out to that cutoff.
    """
    a = 0.5 if form.parity == "even" else 1.5
    t = form.t
    X = afe_cutoff(t, T, a, tail_tol, smoother)
    n_need = int(X)
    # a missing lambda(n), n <= n_need, raises before any weight is computed
    lam = np.array([form.eigenvalue(n) for n in range(1, n_need + 1)])
    # every x = k^2 n <= n_need is an integer, so the weights are indexed by x - 1
    xs = np.arange(1, n_need + 1)
    # e^(smoother w^2) is below e^(-46) past this height on the line Re w = sigma
    height = max(10.0, math.sqrt(46.0 / smoother + sigma * sigma) + 3.0)
    vp, vm = contour_weights(xs, t, T, a, sigma, height, smoother)
    coef = lam * arith.tau_gen_many(n_need, T)[1:]
    ph_n = np.exp((-0.5 + 1j * T) * np.log(xs))
    total = 0.0 + 0.0j
    for k in range(1, math.isqrt(n_need) + 1):
        m = n_need // (k * k)
        at = k * k * xs[:m] - 1
        kfac_p = np.exp((-1.0 + 2j * T) * math.log(k))
        kfac_m = np.exp((-1.0 - 2j * T) * math.log(k))
        total += kfac_p * np.sum(coef[:m] * ph_n[:m] * vp[at])
        total += kfac_m * np.sum(coef[:m] * np.conj(ph_n[:m]) * vm[at])
    return complex(total)


def zeta_product_oracle(gamma: float, T: float) -> complex:
    """Exact L(1/2, u) L(1/2 - 2iT, u) for the divisor pseudoform."""
    return complex(zeta(0.5 + 1j * gamma) * zeta(0.5 - 1j * gamma)
                   * zeta(0.5 - 2j * T + 1j * gamma)
                   * zeta(0.5 - 2j * T - 1j * gamma))


# ---------------------------------------------------------------------------
# triple-product pairing
# ---------------------------------------------------------------------------

def rankin_selberg_pairing(form: MaassForm, T: float) -> complex:
    """<E^2(., 1/2+iT), u_j> assembled from central values and gamma factors.

    Vanishes identically for odd forms.  For even forms,

        (rho(1)/2) Lambda(1/2, u) Lambda(1/2 + 2iT, u) / xi(1 + 2iT)^2,

    with |rho(1)|^2 = 2 cosh(pi t)/L(1, sym^2 u) (rho(1) taken positive real)
    and Lambda(s, u) = pi^(-s) Gamma((s+it)/2) Gamma((s-it)/2) L(s, u).  The
    L-value product comes from ``afe_pair``; everything is combined in
    log-polar space.
    """
    if form.parity == "odd":
        return 0.0 + 0.0j
    if form.sym2_L1 is None:
        raise MissingEigenvalueError("rankin_selberg_pairing needs sym2_L1")
    t = form.t
    lvals = afe_pair(form, T, tail_tol=1e-6)
    # L(1/2) L(1/2 + 2iT) = conj(L(1/2) L(1/2 - 2iT)) for real-coefficient even forms
    lvals_plus = np.conj(lvals)
    log_gamma_factors = (
        -(0.5 + 0j) * math.log(math.pi)
        + log_gamma((0.5 + 1j * t) / 2) + log_gamma((0.5 - 1j * t) / 2)
        - (0.5 + 2j * T) * math.log(math.pi)
        + log_gamma((0.5 + 2j * T + 1j * t) / 2) + log_gamma((0.5 + 2j * T - 1j * t) / 2))
    # log |rho(1)|^2 = log(2 cosh(pi t)) - log L = pi t + log1p(e^{-2 pi t}) - log L
    log_rho = 0.5 * (math.pi * t + math.log1p(math.exp(-2 * math.pi * t))
                     - math.log(form.sym2_L1))
    log_norm = -2.0 * xi_log(1 + 2j * T)
    return complex(lvals_plus * np.exp(log_rho - math.log(2.0)
                                       + log_gamma_factors + log_norm))


# ---------------------------------------------------------------------------
# Kuznetsov two-sided diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Even test function for the trace formula: the Gaussian exp(-(t/width)^2)."""

    kind: str = "gaussian"
    width: float = 8.0

    def __post_init__(self):
        if self.kind != "gaussian":
            raise DomainError(f"TestFunction supports kind='gaussian' only, got {self.kind!r}")

    def __call__(self, t):
        return np.exp(-(np.asarray(t) / self.width) ** 2)

    @property
    def support_cut(self) -> float:
        return self.width * math.sqrt(40.0)  # phi < 1e-17 beyond


class KuznetsovReport(NamedTuple):
    spectral_side: float
    geometric_side: float
    discrete_term: float
    continuous_term: float
    delta_term: float
    kloosterman_series: float
    closure: float            # |spectral - geometric| / max scale
    tail_estimate: float      # bound on the dropped c > c_max series
    basis_gap: float          # geometric - spectral, attributed to missing forms


def _kernel_weights(phi: TestFunction, x_min: float):
    """Nodes t and weights a_t of int K(x, t) tanh(pi t) t phi(t) dt / pi for every
    x >= x_min, resolving the kernel's t-phase rate 2 asinh(2t/w), w = 4 pi x_min."""
    t_cut = phi.support_cut
    bw = 2.0 * float(np.arcsinh(2.0 * t_cut / (4.0 * math.pi * x_min))) + 10.0
    nn, ww = panel_nodes(0.0, t_cut, bw, DEFAULT_POLICY.bessel_freq_oversample, min_panels=10)
    return nn, 2.0 * ww * np.tanh(np.pi * nn) * nn * phi(nn) / (2.0 * np.pi)


def kuznetsov_two_sides(n: int, m: int, phi: TestFunction, forms,
                        c_max: int = 100) -> KuznetsovReport:
    """Evaluate both sides of the trace formula for (n, m) over a given basis.

    Spectral side: sum over the supplied forms of
    lambda(n) lambda(m) phi(t_j) / L(1, sym^2 u_j) plus the continuous term
    int tau(n,t) tau(m,-t) / |zeta(1+2it)|^2 phi(t) dt / 2 pi, from one array
    call of ``zeta`` and one of ``tau_gen`` per index over all its t nodes.
    Geometric side: delta term plus the Kloosterman series to c_max, with the
    kernel integral of every c and every tail point from one
    ``kuznetsov_kernel_transform`` call.  The closure gap is dominated by
    basis completeness (every missing form contributes a nonnegative term
    when n = m), so it is reported, never asserted.  The c-tail estimate is
    a Weil-bound envelope of the dropped series; it is not monotone in c_max
    (see the comment at its sum).
    """
    if n < 1 or m < 1:
        raise DomainError("kuznetsov_two_sides needs n, m >= 1")
    t_cut = phi.support_cut
    os = DEFAULT_POLICY.bessel_freq_oversample

    discrete = 0.0
    for form in forms:
        if form.sym2_L1 is None:
            raise MissingEigenvalueError(
                f"form t={form.t} lacks sym2_L1, needed for the spectral side")
        discrete += (form.eigenvalue(n) * form.eigenvalue(m)
                     * float(phi(form.t)) / form.sym2_L1)

    # continuous term: tau(n,t) tau(m,t) / |zeta(1+2it)|^2, even integrand.
    # Each zero 1/2 + i gamma of zeta puts a pole at t = gamma/2 +- i/4, a
    # quarter from the real line: panels of half-width 0.8 (bandwidth 8) leave
    # the integral 1e-5 off, those of half-width 0.2 (bandwidth 32) 1e-15
    nodes, wts = panel_nodes(0.0, t_cut, 32.0, os, min_panels=12)
    zvals = np.abs(zeta(1.0 + 2j * nodes)) ** 2
    taun = arith.tau_gen(n, nodes)
    taum = arith.tau_gen(m, nodes)
    continuous = float(2.0 * np.sum(wts * taun * taum / zvals * phi(nodes)) / (2.0 * np.pi))
    spectral = discrete + continuous

    # geometric side
    dstar = np.tanh(np.pi * nodes) * nodes * phi(nodes)
    delta = float((1.0 if n == m else 0.0) * 2.0 * np.sum(wts * dstar) / (2.0 * np.pi ** 2))
    root = math.sqrt(n * m)
    # tail: Weil-bound envelope summed over a fixed absolute sampling grid.
    # It is not monotone in c_max: at width 8 it reads 8.854, 5.036, 6.037,
    # 7.357 and 4.674 at c_max 10, 20, 25, 40 and 50 (ROADMAP item 2; the
    # benchmark's tests pin this as a strict xfail)
    grid = [int(math.ceil(8 * 1.2 ** k)) for k in range(40)]
    grid = sorted({c for c in grid if c_max < c <= 16 * c_max})
    kl = {c: arith.kloosterman(n, m, c) for c in range(1, c_max + 1)}
    cs = [c for c, S in kl.items() if S != 0.0] + grid
    kernel_integral = dict(zip(cs, kuznetsov_kernel_transform(
        root / np.array(cs, dtype=float), *_kernel_weights(phi, root / max(cs))).tolist()))

    kloos = sum(S / c * kernel_integral[c] for c, S in kl.items() if S != 0.0)
    geometric = delta + kloos

    tail = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        tail += arith.weil_bound(n, m, lo) / lo * abs(kernel_integral[lo]) * (hi - lo)
    if grid:
        last = grid[-1]
        # geometric-envelope remainder past the sampled range
        tail += 4.0 * arith.weil_bound(n, m, last) / last * abs(kernel_integral[last]) * last

    scale = max(abs(spectral), abs(geometric), 1e-30)
    return KuznetsovReport(
        spectral_side=spectral, geometric_side=geometric,
        discrete_term=discrete, continuous_term=continuous,
        delta_term=delta, kloosterman_series=kloos,
        closure=abs(spectral - geometric) / scale,
        tail_estimate=tail, basis_gap=geometric - spectral)


# ---------------------------------------------------------------------------
# oscillatory Bessel-transform check
# ---------------------------------------------------------------------------

def _z_structure_scale(Z) -> float:
    lo, hi = Z.support
    scale = hi - lo
    if Z.kind == "gaussian_core":
        scale = min(scale, 4.0 * Z.sigma)
    return scale


@dataclass(frozen=True)
class ZWindow:
    """Even window for the Bessel-transform check, supported on
    (T^(-2 alpha), T^(2 alpha)) in t/T.

    kind='mollifier' is the plain bump on the support; kind='gaussian_core'
    multiplies a Gaussian of width sigma (in t/T) centered at 1 into the
    mollifier, which realizes the no-stationary-point suppression at desk
    scale once the support is wide enough to hold the core.
    """

    alpha: float
    T: float
    kind: str = "mollifier"
    sigma: float = 0.1

    @property
    def support(self):
        lo = self.T ** (-2.0 * self.alpha)
        hi = self.T ** (2.0 * self.alpha)
        return lo, hi

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        lo, hi = self.support
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        w = (u - mid) / half
        out = np.zeros_like(u)
        inside = np.abs(w) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - w[inside] ** 2) + 1.0)
        if self.kind == "gaussian_core":
            out = out * np.exp(-((u - 1.0) / self.sigma) ** 2)
        return out


class BesselTransformResult(NamedTuple):
    direct: complex
    stationary_phase: complex
    difference: float
    envelope: float           # x / T^(3 - 24 alpha)
    fitted_constant: float
    scale: float


def bessel_transform_check(x: float, T: float, alpha: float,
                           z_window: ZWindow | None = None) -> BesselTransformResult:
    """Both sides of the oscillatory J-transform identity.

    direct = int_{-inf}^{inf} J_{2it}(2 pi x) / cosh(pi t) Z(t/T) t dt,
    computed from the even kernel combination; stationary_phase is the
    closed-form main term

        (-i sqrt(2)/pi) (T^2/sqrt(x)) Re[(1+i) e(x)
            int_0^inf t Z(t) e(-t^2 T^2 / (2 pi^2 x)) dt].

    Both are purely imaginary; the difference is reported against the
    envelope x / T^(3 - 24 alpha).
    """
    if x <= 0 or T <= 0:
        raise DomainError("bessel_transform_check needs x, T > 0")
    Z = z_window if z_window is not None else ZWindow(alpha=alpha, T=T)
    lo, hi = Z.support
    os = DEFAULT_POLICY.bessel_freq_oversample

    # direct side: t in (lo T, hi T); kernel phase rate 2 asinh(2t/w) plus Z
    w_arg = 2.0 * math.pi * x
    bw = 2.0 * float(np.arcsinh(2.0 * hi * T / w_arg)) + 24.0 / (_z_structure_scale(Z) * T)
    # (J_{2it} - J_{-2it})(2 pi x) / cosh(pi t) is -i tanh(pi t) times the
    # even Kuznetsov kernel at x/2
    nodes, wts = panel_nodes(lo * T, hi * T, bw, os, min_panels=12)
    direct = complex(-1j * kuznetsov_kernel_transform(
        [x / 2.0], nodes, wts * np.tanh(np.pi * nodes) * Z(nodes / T) * nodes)[0])

    # stationary-phase main term, in the scaled variable
    lam = T * T / (math.pi * x)          # phase = -lam u^2 from e(-u^2 T^2 / 2 pi^2 x)
    bw_u = 2.0 * lam * hi + 24.0 / _z_structure_scale(Z)
    un, uw = panel_nodes(lo, hi, bw_u, os, min_panels=12)
    inner = complex(np.sum(uw * un * Z(un) * np.exp(-1j * lam * un * un)))
    phase_x = np.exp(2j * math.pi * x)
    main = (-1j * math.sqrt(2.0) / math.pi) * (T * T / math.sqrt(x)) \
        * np.real((1.0 + 1j) * phase_x * inner)
    main = complex(main)

    scale = (math.sqrt(2.0) / math.pi) * (T * T / math.sqrt(x)) \
        * float(np.sum(uw * un * Z(un)))
    envelope = x / T ** (3.0 - 24.0 * alpha)
    diff = abs(direct - main)
    return BesselTransformResult(direct=direct, stationary_phase=main,
                                 difference=diff, envelope=envelope,
                                 fitted_constant=diff / envelope, scale=scale)


# ---------------------------------------------------------------------------
# diagonal main terms
# ---------------------------------------------------------------------------

class DiagonalTerms(NamedTuple):
    d_plus_plus: complex
    d_minus_minus: complex
    total: complex
    bracket_factor: complex
    prediction: float


def bracket_factor(T: float) -> complex:
    """1 + Gamma(1/2 - iT)/Gamma(1/2 + iT) e^(-2iT) T^(2iT); tends to 2."""
    lg_ratio = log_gamma(0.5 - 1j * T) - log_gamma(0.5 + 1j * T)
    return complex(1.0 + np.exp(lg_ratio - 2j * T + 2j * T * math.log(T)))


def diagonal_main_terms(T: float, bump: Bump) -> DiagonalTerms:
    """Closed-form diagonal main terms with exact zeta values.

    d_plus_plus = hhat(0) (12/pi^2) zeta(1+2iT) zeta(1-2iT)^2 log^2 T and its
    mirror; the normalized combination

        pi / (zeta(1-2iT)^2 zeta(1+2iT)) * (D_pp + c pi^(2iT) D_mm)

    collapses to hhat(0) (12/pi) log^2 T times the bracket factor, whose
    limit 2 produces the 24/pi coefficient.
    """
    if T < 10:
        raise DomainError("diagonal_main_terms expects T >= 10")
    h0 = bump.hhat0
    ln2T = math.log(T) ** 2
    zp = zeta(1 + 2j * T)
    zm = zeta(1 - 2j * T)
    dpp = h0 * (12.0 / math.pi ** 2) * zp * zm * zm * ln2T
    # pi^(-4iT) e^(-2iT) T^(2iT), assembled from logarithms
    phase = np.exp(-4j * T * math.log(math.pi) - 2j * T + 2j * T * math.log(T))
    dmm = h0 * (12.0 / math.pi ** 2) * zp * zp * zm * ln2T * phase
    lc = xi_log(1 - 2j * T) - xi_log(1 + 2j * T)
    c_val = np.exp(1j * lc.imag)
    norm = math.pi / (zm * zm * zp)
    total = norm * (dpp + c_val * np.exp(2j * T * math.log(math.pi)) * dmm)
    br = bracket_factor(T)
    return DiagonalTerms(d_plus_plus=complex(dpp), d_minus_minus=complex(dmm),
                         total=complex(total), bracket_factor=br,
                         prediction=h0 * (24.0 / math.pi) * ln2T)
