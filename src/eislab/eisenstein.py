"""The Eisenstein series on the modular surface, evaluated from Fourier
expansions, one row of coefficients per height.

On the critical line the expansion used is

    E(z, 1/2 + iT) = e(y) + (2 / Xi) sum_{n != 0} tau(|n|, T) sqrt(y)
                     K_{iT}(2 pi |n| y) e(n x),

with constant term e(y) = y^(1/2+iT) + c y^(1/2-iT), c = Xi_bar / Xi,
Xi = xi(1 + 2iT).  The Bessel factor is computed in the e^(pi T/2)-scaled
form and recombined with 1/Xi in log space, so no intermediate value under-
or overflows at any desk-scale T.  The rows are those of E itself at every
height; the truncation at A is a row weight of ``moments``.

A second coefficient path handles real s in (1, 4]:

    E(z, s) = y^s + phi(s) y^(1-s) + (4 / xi(2s)) sum_{n >= 1} n^(s-1/2)
              sigma_{1-2s}(n) sqrt(y) K_{s-1/2}(2 pi n y) cos(2 pi n x),

with the real-order K-Bessel ``bessel_k_real``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from eislab.arith import sigma_complex_many, tau_gen_many
from eislab.errors import DomainError
from eislab.quadrature import _CHEB_TOL, _CHEB_Z, ChebyshevTable
from eislab.specfun import bessel_k_real, bessel_k_scaled, phi_log, scattering, xi_log


@dataclass(frozen=True)
class SpectralSetup:
    """Parameter bundle: spectral height T and truncation height A."""

    T: float
    A: float

    def __post_init__(self):
        if not self.T > 0:
            raise DomainError("T must be positive")
        if not self.A > 1:
            raise DomainError("truncation parameter A must exceed 1")


_FLOOR_Y = math.sqrt(3.0) / 2.0


def moment_y_max(setup: SpectralSetup) -> float:
    """Top of the moment grid: the modes of E_A are negligible above it."""
    T = setup.T
    return setup.A + (T + 20.0 * T ** (1.0 / 3.0)) / (2.0 * math.pi) + 5.0


def _k_table_edges(T: float, lo: float, hi: float) -> list:
    """Seed partition of [lo, hi] for a table of e^(pi T/2) K_{iT}.

    From each left end u the panel has width 2 z / omega(u), where
    omega = sqrt(T^2 - u^2) / u is the WKB rate of K_{iT} below T / sqrt(2)
    (Gil, Segura & Temme, ACM TOMS 30, 2004) and 1 above, the bound of the
    decay rate sqrt(u^2 - T^2) / u past the turning point u = T.  Once the
    WKB decay factor e^-psi, psi(u) = sqrt(u^2 - T^2) - T arccos(T / u), has
    fallen 1e-14 below its value at lo, one panel runs to hi.
    """
    def psi(u):
        return math.sqrt(u * u - T * T) - T * math.acos(T / u) if u > T else 0.0

    edges, top = [lo], psi(lo) - math.log(_CHEB_TOL)
    while edges[-1] < hi and psi(edges[-1]) < top:
        u = edges[-1]
        edges.append(min(hi, u + 2.0 * _CHEB_Z * u / math.sqrt(max(T * T - u * u, u * u))))
    return edges if edges[-1] == hi else edges + [hi]


def cosine_series(c, xs) -> np.ndarray:
    """c_0 + sum_n 2 c_n cos(2 pi n x) at an array of x, from the even
    coefficient row c_-K..c_K of e(k x); x is reduced mod 1 first."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    K = len(c) // 2
    phases = np.cos(2.0 * np.pi * np.outer(np.arange(1, K + 1), np.mod(xs, 1.0)))
    return c[K] + (2.0 * c[K + 1:]) @ phases


class EisensteinEvaluator:
    """E(z, 1/2 + iT) at T = setup.T; setup.A only places the moment grid's top.

    Rows on the moment grid, sqrt(3)/2 <= y <= ``moment_y_max(setup)``, take
    their modes from one ``ChebyshevTable`` of ``bessel_k_scaled(T, .)``,
    accurate to about 1e-14 of the peak |K| and built on the first such row
    from the WKB seed ``_k_table_edges``; rows at other heights take theirs
    from one array call of ``bessel_k_scaled``.  Evaluation mutates the object
    (the table, and ``_tau`` grows when a row needs more modes), so concurrent
    callers must not share one evaluator unlocked.
    """

    def __init__(self, setup: SpectralSetup):
        self.setup = setup
        T = setup.T
        self.log_xi_norm = xi_log(1 + 2j * T)
        self.scattering_c = scattering(T)
        # 2 e^{-pi T/2} / xi(1+2iT), the O(1) prefactor of the scaled modes
        self.mode_prefactor = complex(2.0 * np.exp(-np.pi * T / 2 - self.log_xi_norm))
        self.cutoff_margin = T + 10.0 * T ** (1.0 / 3.0) + 40.0
        n_top = self.n_max(_FLOOR_Y)
        self._tau = tau_gen_many(max(n_top, 1), T)
        self._y_top = moment_y_max(setup)
        self._k_table: ChebyshevTable | None = None

    def n_max(self, y):
        """Fourier cutoff: K_{iT}(2 pi n y) is negligible past this index;
        an int for a scalar y, an int array for an array of y."""
        n = np.maximum(1, np.ceil(self.cutoff_margin / (2.0 * np.pi * np.asarray(y, float))))
        return int(n) if n.ndim == 0 else n.astype(int)

    def constant_term(self, y):
        """e(y) = y^(1/2+iT) + c y^(1/2-iT), at a height or an array of heights."""
        y = np.asarray(y, float)
        if np.any(y <= 0):
            raise DomainError("constant_term needs y > 0")
        ry = np.sqrt(y)
        osc = np.exp(1j * self.setup.T * np.log(y))
        return ry * osc + self.scattering_c * ry / osc

    def row_coefficients(self, y) -> np.ndarray:
        """Coefficients c_k of e(k x), k = -K..K, of E at height y, c_0 = e(y).

        For a scalar y, K = ``n_max(y)`` and the row has shape (2K+1,).  For
        an array of y the rows form an (n_y, 2K+1) matrix with K the largest
        cutoff; each row's modes past its own cutoff are zero.  All modes of
        a call come from one table call, plus one ``bessel_k_scaled`` call
        for the rows off the moment grid.
        """
        ys = np.atleast_1d(np.asarray(y, float))
        nms = self.n_max(ys)
        K = int(nms.max())
        if K >= len(self._tau):
            self._tau = tau_gen_many(K, self.setup.T)
        ns = np.arange(1, K + 1)
        live = ns <= nms[:, None]
        args = (2.0 * np.pi * ns) * ys[:, None]
        on_grid = (_FLOOR_Y <= ys) & (ys <= self._y_top)
        ks = np.zeros(args.shape)
        # 2 pi n_max(y) y < cutoff_margin + 2 pi y, so every live mode of a
        # moment-grid row lies in the table
        table = live & on_grid[:, None]
        if table.any():
            if self._k_table is None:
                T = self.setup.T
                self._k_table = ChebyshevTable(
                    lambda u: bessel_k_scaled(T, u),
                    _k_table_edges(T, 2.0 * math.pi * _FLOOR_Y,
                                   self.cutoff_margin + 2.0 * math.pi * self._y_top))
            ks[table] = self._k_table(args[table])
        off = live & ~on_grid[:, None]
        if off.any():
            ks[off] = bessel_k_scaled(self.setup.T, args[off])
        modes = self.mode_prefactor * np.sqrt(ys)[:, None] * self._tau[1:K + 1] * ks
        rows = np.concatenate([modes[:, ::-1], self.constant_term(ys)[:, None], modes], axis=1)
        return rows[0] if np.ndim(y) == 0 else rows

    def eval_row(self, y: float, xs) -> np.ndarray:
        """E(x + iy, 1/2 + iT) for an array of x at one height y."""
        return cosine_series(self.row_coefficients(y), xs)


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

    def n_max(self, y):
        """Fourier cutoff, elementwise over an array of y: real-order K decays
        like e^{-2 pi n y}, so 7/y puts the tail near 1e-17."""
        n = np.ceil(7.0 / np.asarray(y, float)) + 8
        return int(n) if n.ndim == 0 else n.astype(int)

    def constant_term(self, y):
        return y ** self.s + self.phi_s.real * y ** (1.0 - self.s)

    def row_coefficients(self, y) -> np.ndarray:
        """Coefficients c_k of e(k x), k = -K..K, of E(z, s) at height y.

        Shapes as for ``EisensteinEvaluator.row_coefficients``: one row for a
        scalar y, a zero-padded (n_y, 2K+1) matrix for an array.
        """
        ys = np.atleast_1d(np.asarray(y, float))
        nms = self.n_max(ys)
        K = int(nms.max())
        ns = np.arange(1, K + 1)
        live = ns <= nms[:, None]
        kvals = np.zeros(live.shape)
        kvals[live] = bessel_k_real(self.s - 0.5, ((2.0 * np.pi * ns) * ys[:, None])[live])
        sig = sigma_complex_many(K, 1.0 - 2.0 * self.s)[1:].real
        # cos(2 pi n x) = (e(nx) + e(-nx)) / 2
        half = 0.5 * self.pref * ns ** (self.s - 0.5) * sig * np.sqrt(ys)[:, None] * kvals
        rows = np.concatenate([half[:, ::-1], self.constant_term(ys)[:, None], half], axis=1)
        return rows[0] if np.ndim(y) == 0 else rows
