"""Spectral-side computations: Maass-form data, central-value products via the
approximate functional equation, the two-sided trace-formula diagnostic, the
oscillatory Bessel-transform check, and the diagonal main-term assembly.

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
import operator
import warnings
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from eislab import arith
from eislab.errors import (
    DomainError,
    MissingEigenvalueError,
    ValidationError,
)
from eislab.quadrature import ChebyshevTable, panel_nodes
from eislab.specfun import (
    kuznetsov_kernel_transform,
    log_gamma,
    scattering,
    zeta,
)
from eislab.weights import Bump, _g_ratio_log, _mirror_phase, contour_weights


_HECKE_TOL = 1e-4  # largest Hecke-relation residual an ingested form may carry


@dataclass
class MaassForm:
    """Spectral parameter, parity, Hecke eigenvalues, optional sym^2 value."""

    t: float
    parity: str
    hecke: dict = field(repr=False)
    sym2_L1: float | None = None

    def __post_init__(self):
        if not 0.0 < self.t < math.inf:
            raise ValidationError(f"spectral parameter must be positive and finite, got {self.t}")
        if self.parity not in ("even", "odd"):
            raise ValidationError(f"parity must be even/odd, got {self.parity}")

    def eigenvalue(self, n: int) -> float:
        try:
            return self.hecke[n]
        except KeyError as exc:
            raise MissingEigenvalueError(f"lambda({n}) not in form data") from exc

    def eigenvalues(self, n_max: int) -> np.ndarray:
        """lambda(1), ..., lambda(n_max) as an array, looked up in one C-level
        pass; the first missing n raises MissingEigenvalueError naming it."""
        try:
            return np.array(operator.itemgetter(*range(1, n_max + 1))(self.hecke),
                            dtype=float, ndmin=1)
        except KeyError as exc:
            raise MissingEigenvalueError(f"lambda({exc.args[0]}) not in form data") from exc

    def validate(self):
        if abs(self.hecke.get(1, 0.0) - 1.0) > 1e-9:
            raise ValidationError("lambda(1) must equal 1")
        keys = sorted(self.hecke)
        if keys[0] < 1:
            raise ValidationError(f"Hecke index {keys[0]} is not positive")
        N = keys[-1]
        # every stored pair n <= m with n m <= N; the keys are sorted, so a
        # row ends at the first m past N / n
        for i, n in enumerate(keys):
            if n * n > N:
                break
            for m in keys[i:]:
                if n * m > N:
                    break
                try:
                    resid = arith.hecke_relation_check(self.hecke, n, m)
                except MissingEigenvalueError:
                    continue
                if resid > _HECKE_TOL:
                    raise ValidationError(
                        f"Hecke relation fails at (n,m)=({n},{m}): residual {resid:.2e}")
        return self


def divisor_pseudoform(gamma: float, n_max: int) -> MaassForm:
    """Even pseudoform with lambda(n) = tau(n, gamma); exactly automorphic data.

    Its L-function is zeta(s + i gamma) zeta(s - i gamma), so every central
    value the AFE machinery produces has an independent closed-form oracle.
    """
    taus = arith.tau_gen_many(n_max, gamma)
    return MaassForm(t=gamma, parity="even",
                     hecke={n: float(taus[n]) for n in range(1, n_max + 1)})


def ingest_forms(path):
    """Parse the Maass-form CSV file at ``path`` into validated forms.

    Schema: header ``t,parity,n,lambda``; one row per (form, n); parity in
    {even, odd}; an optional row with n = 0 carries L(1, sym^2) for the form;
    lines starting with ``#`` are comments.  Duplicate (t, parity, n) rows are
    last-write-wins with a warning.  Forms failing lambda(1) = 1 or a Hecke
    relation beyond 1e-4 are rejected, and so is a path that cannot be read
    as UTF-8 text: every failure is a ValidationError naming its cause.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.lstrip().startswith("#")))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"Maass-form file {path} is not UTF-8 text") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read Maass-form file {path}: "
                              f"{exc.strerror or exc}") from exc
    if not rows:
        raise ValidationError(f"no data rows in Maass-form file {path}")
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
        form.validate()
        out.append(form)
    return out


# ---------------------------------------------------------------------------
# approximate functional equation for the central-value product
# ---------------------------------------------------------------------------

def afe_cutoff(t: float, T: float, a: float, tail_tol: float,
               smoother: float = 1.0) -> float:
    """Series length: terms past Q_eff exp(2 sqrt(smoother ln(1/tol))) are
    below the Gaussian contour-shift budget e^(-L^2 / (4 smoother))."""
    g1 = _g_ratio_log(1.0, t, T, a)
    q_eff = float(np.exp(g1.real))  # |G(1)| ~ conductor^(1/2) growth base
    L = 2.0 * math.sqrt(smoother * max(-math.log(tail_tol), 1.0))
    return max(q_eff, 1.0) * math.exp(L) + 16.0


def _afe_weights(n_need: int, t: float, T: float, a: float, smoother: float):
    """V_plus at x = 1..n_need, read off one ``ChebyshevTable`` in log x on
    [0, log n_need] of ``contour_weights`` on Re w = 1: V_plus is smooth in
    log x, so one contour sum per table level replaces one per x."""
    table = ChebyshevTable(lambda u: contour_weights(np.exp(u), t, T, a, 1.0, smoother),
                           np.linspace(0.0, math.log(n_need), 5))
    return table(np.log(np.arange(1, n_need + 1)))


def afe_pair(form: MaassForm, T: float, *, tail_tol: float = 1e-7,
             smoother: float = 1.0) -> complex:
    """L(1/2, u) L(1/2 - 2iT, u) via the approximate functional equation.

    The plus sum S has coefficients lambda(n) tau(n, T) over
    n^(1/2 - iT) k^(1 - 2iT) against the contour weights V_plus at x = k^2 n,
    with parity selecting the gamma data (a = 1/2 even, 3/2 odd); the minus
    sum, the conjugate coefficients against V_minus = C conj V_plus, is C conj S
    (``weights._mirror_phase``).  The weights' contour runs on Re w = 1, up to
    a height set by the smoother.  The double sum is truncated where the
    Gaussian contour budget puts the weights below ``tail_tol``; the form must
    carry eigenvalues out to that cutoff.  V_plus at the integers x <= cutoff
    is read off one Chebyshev table in log x (``_afe_weights``), within 1e-13
    of the peak weight of one contour sum per x, and S is one gather over
    every (k, n) with k^2 n <= cutoff.
    """
    if not math.isfinite(T):
        raise DomainError(f"afe_pair needs a finite T, got {T}")
    if not 0.0 < tail_tol < 1.0:
        raise DomainError(f"afe_pair needs 0 < tail_tol < 1, got {tail_tol}")
    if not 0.0 < smoother < math.inf:
        raise DomainError(f"afe_pair needs a finite smoother > 0, got {smoother}")
    a = 0.5 if form.parity == "even" else 1.5
    t = form.t
    n_need = int(afe_cutoff(t, T, a, tail_tol, smoother))
    # a missing lambda(n), n <= n_need, raises before any weight is computed
    lam = form.eigenvalues(n_need)
    vp = _afe_weights(n_need, t, T, a, smoother)
    coef = lam * arith.tau_gen_many(n_need, T)[1:] \
        * np.exp((-0.5 + 1j * T) * np.log(np.arange(1, n_need + 1)))
    # every (k, n) with x = k^2 n <= n_need, as the indices n - 1 and x - 1
    ks = np.arange(1, math.isqrt(n_need) + 1)
    m = n_need // (ks * ks)
    n = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    at = np.repeat(ks * ks, m) * (n + 1) - 1
    plus = np.sum(np.repeat(np.exp((-1.0 + 2j * T) * np.log(ks)), m) * coef[n] * vp[at])
    return complex(plus + _mirror_phase(t, T, a) * np.conj(plus))


def zeta_product_oracle(gamma: float, T: float) -> complex:
    """Exact L(1/2, u) L(1/2 - 2iT, u) for the divisor pseudoform."""
    return complex(zeta(0.5 + 1j * gamma) * zeta(0.5 - 1j * gamma)
                   * zeta(0.5 - 2j * T + 1j * gamma)
                   * zeta(0.5 - 2j * T - 1j * gamma))


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
        if not (math.isfinite(self.width) and self.width > 0):
            raise DomainError(f"TestFunction needs a finite width > 0, got {self.width}")

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
    nn, ww = panel_nodes(0.0, t_cut, bw, min_panels=10)
    return nn, 2.0 * ww * np.tanh(np.pi * nn) * nn * phi(nn) / (2.0 * np.pi)


@cache  # keyed on (n, m, phi); each entry is two floats
def _c_max_free_terms(n: int, m: int, phi: TestFunction) -> tuple[float, float]:
    """(continuous term, delta term) of the trace formula for (n, m): neither
    depends on c_max, so a sweep over c_max computes them once."""
    # continuous term: tau(n,t) tau(m,t) / |zeta(1+2it)|^2, even integrand.
    # Each zero 1/2 + i gamma of zeta puts a pole at t = gamma/2 +- i/4, a
    # quarter from the real line: panels of half-width 0.8 (bandwidth 8) leave
    # the integral 1e-5 off, those of half-width 0.2 (bandwidth 32) 1e-15
    nodes, wts = panel_nodes(0.0, phi.support_cut, 32.0, min_panels=12)
    zvals = np.abs(zeta(1.0 + 2j * nodes)) ** 2
    taun = arith.tau_gen(n, nodes)
    taum = arith.tau_gen(m, nodes)
    continuous = float(2.0 * np.sum(wts * taun * taum / zvals * phi(nodes)) / (2.0 * np.pi))
    dstar = np.tanh(np.pi * nodes) * nodes * phi(nodes)
    delta = float((1.0 if n == m else 0.0) * 2.0 * np.sum(wts * dstar) / (2.0 * np.pi ** 2))
    return continuous, delta


def kuznetsov_two_sides(n: int, m: int, phi: TestFunction, forms,
                        c_max: int = 100) -> KuznetsovReport:
    """Evaluate both sides of the trace formula for (n, m) over a given basis.

    Spectral side: sum over the supplied forms of
    lambda(n) lambda(m) phi(t_j) / L(1, sym^2 u_j) plus the continuous term
    int tau(n,t) tau(m,-t) / |zeta(1+2it)|^2 phi(t) dt / 2 pi, from one array
    call of ``zeta`` and one of ``tau_gen`` per index over all its t nodes.
    The continuous and delta terms do not depend on c_max and are cached per
    (n, m, phi) in ``_c_max_free_terms``; a test that changes what they are
    computed from, such as ``zeta`` or ``tau_gen``, must call its
    ``cache_clear()`` first.
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
    if c_max < 1:
        raise DomainError(f"kuznetsov_two_sides needs c_max >= 1, got {c_max}")

    discrete = 0.0
    for form in forms:
        if form.sym2_L1 is None:
            raise MissingEigenvalueError(
                f"form t={form.t} lacks sym2_L1, needed for the spectral side")
        discrete += (form.eigenvalue(n) * form.eigenvalue(m)
                     * float(phi(form.t)) / form.sym2_L1)

    continuous, delta = _c_max_free_terms(n, m, phi)
    spectral = discrete + continuous

    # geometric side
    root = math.sqrt(n * m)
    # tail: Weil-bound envelope summed over a fixed absolute sampling grid.
    # It is not monotone in c_max: at width 8 it reads 8.854, 5.036, 6.037,
    # 7.357 and 4.674 at c_max 10, 20, 25, 40 and 50 (ROADMAP item 2; the
    # benchmark's tests pin this as a strict xfail).  k runs until 8 (1.2)^k
    # passes 16 c_max, so (c_max, 16 c_max] holds grid points at every c_max
    grid = [int(math.ceil(8 * 1.2 ** k)) for k in range(int(math.log(2 * c_max, 1.2)) + 2)]
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
    # geometric-envelope remainder past the sampled range
    last = grid[-1]
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

    # direct side: t in (lo T, hi T); kernel phase rate 2 asinh(2t/w) plus Z
    w_arg = 2.0 * math.pi * x
    bw = 2.0 * float(np.arcsinh(2.0 * hi * T / w_arg)) + 24.0 / (_z_structure_scale(Z) * T)
    # (J_{2it} - J_{-2it})(2 pi x) / cosh(pi t) is -i tanh(pi t) times the
    # even Kuznetsov kernel at x/2
    nodes, wts = panel_nodes(lo * T, hi * T, bw, min_panels=12)
    direct = complex(-1j * kuznetsov_kernel_transform(
        [x / 2.0], nodes, wts * np.tanh(np.pi * nodes) * Z(nodes / T) * nodes)[0])

    # stationary-phase main term, in the scaled variable
    lam = T * T / (math.pi * x)          # phase = -lam u^2 from e(-u^2 T^2 / 2 pi^2 x)
    bw_u = 2.0 * lam * hi + 24.0 / _z_structure_scale(Z)
    un, uw = panel_nodes(lo, hi, bw_u, min_panels=12)
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
    lg_ratio = -2j * log_gamma(0.5 + 1j * T).imag  # log of Gamma(1/2 - iT) / Gamma(1/2 + iT)
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
    zm = np.conj(zp)  # zeta(1 - 2iT)
    dpp = h0 * (12.0 / math.pi ** 2) * zp * zm * zm * ln2T
    # pi^(-4iT) e^(-2iT) T^(2iT), assembled from logarithms
    phase = np.exp(-4j * T * math.log(math.pi) - 2j * T + 2j * T * math.log(T))
    dmm = h0 * (12.0 / math.pi ** 2) * zp * zp * zm * ln2T * phase
    norm = math.pi / (zm * zm * zp)
    total = norm * (dpp + scattering(T) * np.exp(2j * T * math.log(math.pi)) * dmm)
    br = bracket_factor(T)
    return DiagonalTerms(d_plus_plus=complex(dpp), d_minus_minus=complex(dmm),
                         total=complex(total), bracket_factor=br,
                         prediction=h0 * (24.0 / math.pi) * ln2T)
