"""The Eisenstein series on the modular surface, its truncation, and the
cuspidal-window function, evaluated from Fourier expansions.

On the critical line the expansion used is

    E(z, 1/2 + iT) = e(y) + (2 / Xi) sum_{n != 0} tau(|n|, T) sqrt(y)
                     K_{iT}(2 pi |n| y) e(n x),

with constant term e(y) = y^(1/2+iT) + c y^(1/2-iT), c = Xi_bar / Xi,
Xi = xi(1 + 2iT).  The Bessel factor is computed in the e^(pi T/2)-scaled
form and recombined with 1/Xi in log space, so no intermediate value under-
or overflows at any desk-scale T.  The truncated series drops the constant
term above height A; it is defined on the fundamental domain only (its
extension by group translates is *not* an automorphic function, and nothing
here evaluates it off the fundamental domain).

A second coefficient path handles real s in (1, 4]:

    E(z, s) = y^s + phi(s) y^(1-s) + (4 / xi(2s)) sum_{n >= 1} n^(s-1/2)
              sigma_{1-2s}(n) sqrt(y) K_{s-1/2}(2 pi n y) cos(2 pi n x),

with the real-order K-Bessel from scipy.  It is validated against the
coprime-pair lattice sum at high y, where the constant term dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kv as _kv_real

from eislab.arith import sigma_complex_many, tau_gen_many
from eislab.errors import ConvergenceError, DomainError
from eislab.specfun import (
    DEFAULT_POLICY,
    PrecisionPolicy,
    bessel_k_scaled,
    phi_log,
    xi_log,
)


@dataclass(frozen=True)
class Point:
    """A point x + iy of the upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise DomainError(f"upper half-plane needs y > 0, got {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class SpectralSetup:
    """Parameter bundle: spectral height T and truncation height A."""

    T: float
    A: float

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("T must be positive")
        if not self.A > 1:
            raise ValueError("truncation parameter A must exceed 1")


_FLOOR_Y = math.sqrt(3.0) / 2.0


def moment_y_max(setup: SpectralSetup) -> float:
    """Top of the moment grid: the modes of E_A are negligible above it."""
    T = setup.T
    return setup.A + (T + 20.0 * T ** (1.0 / 3.0)) / (2.0 * math.pi) + 5.0


_CHEB_DEG = 24       # polynomial degree of every table panel
_CHEB_TOL = 1e-14    # stop rule: a panel's last three coefficients, relative to the peak
_CHEB_MIN_WIDTH = 2.0 ** -6  # far below the table's K_{iT} wavelengths, >= 34 / T
_CHEB_THETA = np.pi * (np.arange(_CHEB_DEG + 1) + 0.5) / (_CHEB_DEG + 1)
_CHEB_NODES = np.cos(_CHEB_THETA)
_CHEB_FIT = (2.0 / (_CHEB_DEG + 1)) * np.cos(np.outer(np.arange(_CHEB_DEG + 1), _CHEB_THETA))
_CHEB_FIT[0] *= 0.5


class ChebyshevTable:
    """Piecewise degree-24 Chebyshev interpolant of f on [lo, hi]; f maps an
    array of points to the array of its values, one call per panel.

    Panels are bisected until their last three coefficients are at most
    1e-14 of the running peak |f| (Trefethen, ATAP, ch. 8), which only
    grows; a failing panel narrower than 2^-6 raises ConvergenceError.
    """

    def __init__(self, f, lo: float, hi: float):
        todo = [(lo, hi)]
        edges, coefs = [lo], []
        self.peak = 0.0
        while todo:  # depth first, left half first, so panels come out in order
            a, b = todo.pop()
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            vals = f(mid + half * _CHEB_NODES)
            self.peak = max(self.peak, float(np.max(np.abs(vals))))
            coef = _CHEB_FIT @ vals
            if np.max(np.abs(coef[-3:])) <= _CHEB_TOL * self.peak:
                edges.append(b)
                coefs.append(coef)
            elif b - a < _CHEB_MIN_WIDTH:
                raise ConvergenceError(f"Chebyshev table: panel [{a:.17g}, {b:.17g}] "
                                       f"still fails the {_CHEB_TOL:.0e} coefficient rule")
            else:
                todo += [(mid, b), (a, mid)]
        self.edges = np.array(edges)
        self.coefs = np.array(coefs)

    def __call__(self, x) -> np.ndarray:
        """The interpolant at an array of x in [lo, hi]."""
        i = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, len(self.coefs) - 1)
        a, b = self.edges[i], self.edges[i + 1]
        t = np.clip((x - 0.5 * (a + b)) / (0.5 * (b - a)), -1.0, 1.0)
        basis = np.cos(np.arccos(t)[:, None] * np.arange(_CHEB_DEG + 1))
        return np.einsum("ij,ij->i", self.coefs[i], basis)


def cosine_series(c, xs) -> np.ndarray:
    """c_0 + sum_n 2 c_n cos(2 pi n x) at an array of x, from the even
    coefficient row c_-K..c_K of e(k x); x is reduced mod 1 first."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    K = len(c) // 2
    phases = np.cos(2.0 * np.pi * np.outer(np.arange(1, K + 1), np.mod(xs, 1.0)))
    return c[K] + (2.0 * c[K + 1:]) @ phases


def reduce(z: Point):
    """Reduce z to the standard fundamental domain {|x| <= 1/2, |z| >= 1}.

    Returns (reduced point, integer matrix ((a,b),(c,d))) with determinant one
    mapping the input to the output under the fractional-linear action.
    """
    a, b, c, d = 1, 0, 0, 1
    x, y = float(z.x), float(z.y)
    for _ in range(256):
        shift = -int(np.round(x))
        if shift != 0:
            x += shift
            a, b = a + shift * c, b + shift * d
        r2 = x * x + y * y
        if r2 < 1.0 - 1e-15:
            # inversion z -> -1/z
            x, y = -x / r2, y / r2
            a, b, c, d = -c, -d, a, b
        else:
            break
    else:
        raise ConvergenceError("fundamental-domain reduction did not terminate")
    if not (abs(x) <= 0.5 + 1e-12 and x * x + y * y >= 1.0 - 1e-12):
        raise ConvergenceError(f"reduction stopped outside the fundamental domain at {x} + {y}i")
    return Point(x, y), ((a, b), (c, d))


def apply_matrix(mat, z: Point) -> Point:
    """Fractional-linear action of an integer matrix on a point."""
    (a, b), (c, d) = mat
    w = (a * z.z + b) / (c * z.z + d)
    return Point(w.real, w.imag)


class EisensteinEvaluator:
    """Critical-line Eisenstein series for one (T, A).

    Rows on the moment grid, sqrt(3)/2 <= y <= ``moment_y_max(setup)``, take
    their modes from one ``ChebyshevTable`` of ``bessel_k_scaled(T, .)``,
    accurate to about 1e-14 of the peak |K| and built on the first such row;
    a row at another height makes one array call of ``bessel_k_scaled`` for
    all its modes.  Evaluation mutates the object (the table, and ``_tau``
    grows when a row needs more modes), so concurrent callers must not share
    one evaluator unlocked.
    """

    def __init__(self, setup: SpectralSetup, policy: PrecisionPolicy = DEFAULT_POLICY):
        self.setup = setup
        self.policy = policy
        T = setup.T
        self.log_xi_norm = xi_log(1 + 2j * T)
        lc = xi_log(1 - 2j * T) - self.log_xi_norm
        self.scattering_c = complex(np.exp(1j * lc.imag) * np.exp(lc.real))
        # 2 e^{-pi T/2} / xi(1+2iT), the O(1) prefactor of the scaled modes
        self.mode_prefactor = complex(2.0 * np.exp(-np.pi * T / 2 - self.log_xi_norm))
        self.cutoff_margin = T + 10.0 * T ** (1.0 / 3.0) + 40.0
        n_top = self.n_max(_FLOOR_Y)
        self._tau = tau_gen_many(max(n_top, 1), T)
        self._y_top = moment_y_max(setup)
        self._k_table: ChebyshevTable | None = None

    def n_max(self, y: float) -> int:
        """Fourier cutoff: K_{iT}(2 pi n y) is negligible past this index."""
        return max(1, int(math.ceil(self.cutoff_margin / (2.0 * math.pi * y))))

    def constant_term(self, y: float) -> complex:
        if y <= 0:
            raise DomainError("constant_term needs y > 0")
        T = self.setup.T
        ry = math.sqrt(y)
        osc = complex(np.exp(1j * T * math.log(y)))
        return ry * osc + self.scattering_c * ry / osc

    def _mode_coefficients(self, y: float) -> np.ndarray:
        """Coefficient of e(n x) + e(-n x) for n = 1..n_max at height y."""
        T = self.setup.T
        nm = self.n_max(y)
        if nm >= len(self._tau):
            self._tau = tau_gen_many(nm, T)
        args = 2.0 * math.pi * np.arange(1, nm + 1) * y
        if _FLOOR_Y <= y <= self._y_top:
            # 2 pi n_max(y) y < cutoff_margin + 2 pi y, so the row lies in the table
            if self._k_table is None:
                self._k_table = ChebyshevTable(
                    lambda u: bessel_k_scaled(T, u, self.policy), 2.0 * math.pi * _FLOOR_Y,
                    self.cutoff_margin + 2.0 * math.pi * self._y_top)
            ks = self._k_table(args)
        else:
            ks = bessel_k_scaled(T, args, self.policy)
        return self.mode_prefactor * math.sqrt(y) * self._tau[1:nm + 1] * ks

    def row_coefficients(self, y: float) -> np.ndarray:
        """Coefficients c_k of e(k x), k = -n_max..n_max, of E_A at height y.

        The constant term c_0 is dropped above y = A, as in ``eval_row_trunc``.
        """
        modes = self._mode_coefficients(y)
        const = self.constant_term(y) if y <= self.setup.A else 0.0
        return np.concatenate([modes[::-1], [const], modes])

    def eval_row(self, y: float, xs) -> np.ndarray:
        """Full E(x + iy, 1/2 + iT) for an array of x at one height y."""
        c = self.row_coefficients(y)
        c[len(c) // 2] = self.constant_term(y)
        return cosine_series(c, xs)

    def eval_row_trunc(self, y: float, xs) -> np.ndarray:
        """Truncated series: constant term dropped above y = A."""
        return cosine_series(self.row_coefficients(y), xs)

    def eval_E(self, z: Point) -> complex:
        """E(z, 1/2 + iT); z is reduced to the fundamental domain first."""
        zr, _ = reduce(z)
        if zr.y < _FLOOR_Y - 1e-9:
            raise DomainError("reduction failed to reach the fundamental domain")
        return complex(self.eval_row(zr.y, [zr.x])[0])

    def eval_E_trunc(self, z: Point) -> complex:
        """Truncated Eisenstein series at a (reduced) point."""
        zr, _ = reduce(z)
        return complex(self.eval_row_trunc(zr.y, [zr.x])[0])

    def eval_H_A(self, z: Point) -> complex:
        """Cuspidal window at a (reduced) point; see ``eval_row_H_A``."""
        zr, _ = reduce(z)
        return complex(self.eval_row_H_A(zr.y, [zr.x])[0])

    def eval_row_H_A(self, y: float, xs) -> np.ndarray:
        """Cuspidal window: 0 below A, else 2 e(y) E_A(x + iy)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if y <= self.setup.A:
            return np.zeros(len(xs), dtype=complex)
        return 2.0 * self.constant_term(y) * self.eval_row_trunc(y, xs)


class RealSEvaluator:
    """E(z, s) for real s in (1, 4] from the sigma-coefficient expansion."""

    def __init__(self, s: float):
        if not 1.0 < s <= 4.0:
            raise DomainError("RealSEvaluator supports real s in (1, 4]")
        self.s = float(s)
        self.log_xi_2s = xi_log(2.0 * s)
        lp = phi_log(complex(s))
        self.phi_s = complex(np.exp(lp))
        self.pref = complex(4.0 * np.exp(-self.log_xi_2s))

    def n_max(self, y: float) -> int:
        # real-order K decays like e^{-2 pi n y}; 7/y puts the tail near 1e-17
        return int(math.ceil(7.0 / y)) + 8

    def constant_term(self, y: float) -> float:
        return y ** self.s + self.phi_s.real * y ** (1.0 - self.s)

    def row_coefficients(self, y: float, A: float | None = None) -> np.ndarray:
        """Coefficients c_k of e(k x), k = -n_max..n_max; c_0 = 0 if y > A."""
        nm = self.n_max(y)
        ns = np.arange(1, nm + 1)
        kvals = _kv_real(self.s - 0.5, 2.0 * np.pi * ns * y)
        sig = sigma_complex_many(nm, 1.0 - 2.0 * self.s)[1:].real
        # cos(2 pi n x) = (e(nx) + e(-nx)) / 2
        half = 0.5 * self.pref * ns ** (self.s - 0.5) * sig * math.sqrt(y) * kvals
        const = self.constant_term(y) if A is None or y <= A else 0.0
        return np.concatenate([half[::-1], [const], half])

    def eval_row(self, y: float, xs, A: float | None = None) -> np.ndarray:
        """E(x+iy, s) for an x array; drops the constant term if y > A."""
        return cosine_series(self.row_coefficients(y, A), xs)


def lattice_sum_reference(z: Point, s: float) -> float:
    """Brute-force (1/2) sum over coprime (c, d) of y^s / |cz+d|^(2s).

    The sum is cut at |c|, |d| <= 120.  Converges for real s > 1; used only
    to validate the real-s coefficient path at heights where the constant
    term dominates.
    """
    bound = 120
    total = 0.0
    zz = z.z
    for c in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            if (c, d) == (0, 0) or math.gcd(abs(c), abs(d)) != 1:
                continue
            total += z.y ** s / abs(c * zz + d) ** (2 * s)
    return 0.5 * total
