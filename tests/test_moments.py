"""Fundamental-domain quadrature and the moment pipeline."""

import functools
import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eislab import moments, quadrature
from eislab.eisenstein import (
    EisensteinEvaluator,
    RealSEvaluator,
    SpectralSetup,
    cosine_series,
    moment_y_max,
)
from eislab.errors import DegenerateParameterError, ToleranceError
from eislab.specfun import phi_log, scattering
from eislab.quadrature import panel_nodes
from eislab.weights import Bump, bump_h

from helpers import dense_gl, section_quadrature, truncated_value


class TestIntegrateF:
    """Integrals over the fundamental domain F through ``integrate_rows``."""

    def test_volume(self):
        # mu(F) = pi/3, with the region above y_max added analytically
        def row_fn(ys):
            return moments.section_integral(np.ones((len(ys), 1)), ys)[:, None]

        val, est = moments.integrate_rows(row_fn, 1e6, y_bandwidth=lambda y: 30.0 / max(y, 1.0))
        assert val[0] + 1e-6 == pytest.approx(math.pi / 3, abs=1e-8)
        assert est[0] < 1e-10

    def test_inverse_square(self):
        # int over F cap {y <= 10} of y^-2 dmu has an elementary closed form:
        # split at y=1; the arc section below height 1 integrates in closed form
        def row_fn(ys):
            return (moments.section_integral(np.ones((len(ys), 1)), ys) / ys ** 2)[:, None]

        val, _ = moments.integrate_rows(row_fn, 10.0, y_bandwidth=lambda y: 30.0 / max(y, 1.0))
        # oracle via high-order 1-D quadrature of the exact section widths
        ys = np.linspace(0, 1, 200001)[1:]
        lower = np.trapezoid(
            np.where(ys >= math.sqrt(3) / 2,
                     (1.0 - 2.0 * np.sqrt(np.clip(1 - ys ** 2, 0, 1))) / ys ** 4,
                     0.0), ys)
        upper = (1.0 / 3.0) * (1.0 - 10.0 ** -3)
        assert val[0] == pytest.approx(lower + upper, rel=1e-6)

    @pytest.mark.parametrize("T", [10.0, 50.0])
    def test_fourth_moment_evaluates_rows_per_block_not_per_node(self, T, monkeypatch):
        # each grid's y nodes reach the evaluator in FFT blocks of up to
        # 8192 / L rows, each node once; L is one of 16..256 here, so a grid
        # takes at most 5 + n * 256 / 8192 calls, where a per-node loop takes n
        calls, grids = [], []
        rows, build = EisensteinEvaluator.row_coefficients, moments.build_grid

        def counted(self, y):
            calls.append(np.size(y))
            return rows(self, y)

        def recorded(*args, **kwargs):
            grids.append(build(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(EisensteinEvaluator, "row_coefficients", counted)
        monkeypatch.setattr(moments, "build_grid", recorded)
        moments.fourth_moment(SpectralSetup(T=T, A=2.0), tol=math.inf)
        n_nodes = sum(p.order for g in grids for p in g.panels)
        assert len(grids) == 2 and sum(calls) == n_nodes
        assert len(calls) <= 2 * 5 + n_nodes * 256 / 8192

    def test_second_fourth_moment_computes_no_gauss_legendre_rule(self):
        # every y panel is a 16-node rule; a cache that evicted it would
        # compute it again on the next call
        setup = SpectralSetup(T=10.0, A=2.0)
        moments.fourth_moment(setup, tol=math.inf)
        misses = quadrature._gl_rule.cache_info().misses
        moments.fourth_moment(setup, tol=math.inf)
        assert quadrature._gl_rule.cache_info().misses == misses

    def test_grid_nodes_are_gauss_legendre_on_the_panel_edges(self):
        # below y = 1 each panel's nodes are the sines of a 16-node rule on its
        # phi = asin y edges, with weights cos(phi) dphi / y^2; above, a rule
        # on its y edges with weights dy / y^2
        grid = moments.build_grid(3.0, lambda y: 40.0 / y + 8.0, splits=(2.0,))
        assert grid.nodes.size == grid.weights.size == sum(p.order for p in grid.panels)
        x, w = np.polynomial.legendre.leggauss(16)
        ys, ws = [], []
        for p in grid.panels:
            below = p.y1 <= 1.0
            a, b = (math.asin(p.y0), math.asin(p.y1)) if below else (p.y0, p.y1)
            n, nw = 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w
            y = np.sin(n) if below else n
            ys.append(y)
            ws.append((nw * np.cos(n) if below else nw) / (y * y))
        assert any(p.y1 <= 1.0 for p in grid.panels) and any(p.y0 >= 1.0 for p in grid.panels)
        np.testing.assert_allclose(grid.nodes, np.concatenate(ys), rtol=1e-14, atol=0)
        np.testing.assert_allclose(grid.weights, np.concatenate(ws), rtol=1e-12, atol=0)

    def test_fft_length_follows_the_row_degree(self):
        # a degree-2 product of rows with cutoff K has modes in -2K..2K, so the
        # least power of two >= 4K + 1 samples it exactly
        K = np.array([1, 3, 4, 10, 16, 17, 40, 63, 64])
        seen = np.zeros(K.size, bool)
        for L, idx in moments._fft_blocks(K, 2):
            for k in K[idx]:
                assert L >= 4 * k + 1 and L // 2 < 4 * k + 1
            seen[idx] = True
        assert seen.all()

    def test_tolerance_error_carries_value(self):
        # the Richardson estimate of the p = 4 moment is 1.1e-13 at T = 25,
        # 3.0e-16 of the value, which a tol of 1e-17 rejects
        setup = SpectralSetup(T=25.0, A=2.0)
        with pytest.raises(ToleranceError) as err:
            moments.fourth_moment(setup, tol=1e-17)
        assert err.value.value == moments.fourth_moment(setup, tol=math.inf).report.value
        assert err.value.estimate > 0


class TestSectionIntegral:
    """Coefficient-space rows against dense composite Gauss-Legendre in x.

    Each error is measured against a full-strip Parseval value, not the
    row's own value: int |E_A|^4 and int |E_A|^2 over |x| <= 1/2, and
    ||E_1|| ||E_2|| for the real-s pair.  Near the corner y = sqrt(3)/2 the
    section is a few 1e-4 wide and the row's value cancels.
    """

    # one call: at T = 50 the rows below y = 1.3 share the FFT length 256
    # (K = 24..16) and straddle y = 1; those from 1.99 up share 128 and straddle A
    YS = np.array([0.8661, 0.87, 0.95, 1.0, 1.3, 1.99, 2.01, 2.5])
    A = 2.0

    @classmethod
    def _row(cls, ev, y):
        """E_A's coefficient row at height y: E's, with c_0 dropped above A."""
        c = ev.row_coefficients(y)
        if y > cls.A:
            c[len(c) // 2] = 0.0
        return c

    @classmethod
    def _reference(cls, ev, y):
        """Per-row coefficient-space reference: convolutions, then
        ``section_integral``, and the rows' Parseval scales."""
        c = cls._row(ev, y)
        b = np.convolve(c, np.conj(c[::-1]))  # coefficients of |E_A|^2
        p4 = moments.section_integral(np.convolve(b, b), y)
        sq = moments.section_integral(np.convolve(c, c), y)
        return p4, sq, np.sum(np.abs(b) ** 2), np.sum(np.abs(c) ** 2)

    @classmethod
    def _moment_rows(cls, ev):
        """The sharp-cut row integrals of |E_A|^4 and E_A^2 at YS."""
        return moments._weighted_rows((ev,), moments._p4_p2, 4, moments._sharp_cut(cls.A))(cls.YS)

    @pytest.mark.parametrize("T", [10.0, 25.0, 50.0])
    def test_moment_rows_match_dense_x_quadrature(self, T):
        ev = EisensteinEvaluator(SpectralSetup(T=T, A=self.A))
        rows = self._moment_rows(ev)
        for y, (p4, sq) in zip(self.YS, rows):
            _, _, scale4, scale2 = self._reference(ev, y)
            c = self._row(ev, y)
            dense4 = section_quadrature(lambda xs: np.abs(cosine_series(c, xs)) ** 4, y)
            dense2 = section_quadrature(lambda xs: cosine_series(c, xs) ** 2, y)
            assert abs(p4 - dense4) <= 1e-13 * scale4, y
            assert abs(sq - dense2) <= 1e-13 * scale2, y

    @pytest.mark.parametrize("T", [10.0, 25.0, 50.0])
    def test_moment_rows_match_per_row_convolutions(self, T):
        ev = EisensteinEvaluator(SpectralSetup(T=T, A=self.A))
        rows = self._moment_rows(ev)
        for y, (p4, sq) in zip(self.YS, rows):
            ref4, ref2, scale4, scale2 = self._reference(ev, y)
            assert abs(p4 - ref4) <= 1e-15 * scale4, y
            assert abs(sq - ref2) <= 1e-15 * scale2, y

    def test_real_s_pair_row_matches_dense_x_quadrature(self):
        # the pair's sharp-cut row below and above A
        e1, e2 = RealSEvaluator(2.0), RealSEvaluator(3.0)
        ys = np.array([0.9, 2.5])
        rows = moments._weighted_rows((e1, e2), lambda g1, g2: (g1 * g2)[None], 2,
                                      moments._sharp_cut(self.A))(ys)
        for y, (row,) in zip(ys, rows):
            c1, c2 = self._row(e1, y), self._row(e2, y)
            dense = section_quadrature(lambda xs: cosine_series(c1, xs) * cosine_series(c2, xs), y)
            scale = math.sqrt(np.sum(np.abs(c1) ** 2) * np.sum(np.abs(c2) ** 2))
            assert abs(row - dense) <= 1e-13 * scale, y


class TestMaassSelberg:
    def test_symmetry(self):
        a = moments.maass_selberg(2.0, 3.0, 2.0)
        b = moments.maass_selberg(3.0, 2.0, 2.0)
        assert a == pytest.approx(b, rel=1e-14)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateParameterError):
            moments.maass_selberg(2.0, 2.0, 2.0)
        with pytest.raises(DegenerateParameterError):
            moments.maass_selberg(0.3, 0.7, 2.0)

    def test_matches_quadrature_real_s(self):
        closed = moments.maass_selberg(2.0, 3.0, 2.0)
        quad, est = moments.real_s_pair_quadrature(2.0, 3.0, 2.0)
        assert abs(quad - closed) / abs(closed) < 1e-6

    def test_real_s_pair_large_estimate_raises(self, monkeypatch):
        # the gate of fourth_moment: est_error above 1e-4 max(1, |value|)
        monkeypatch.setattr(moments, "integrate_rows",
                            lambda *a, **k: (np.array([50.0 + 0j]), np.array([0.01])))
        with pytest.raises(ToleranceError) as err:
            moments.real_s_pair_quadrature(2.0, 3.0, 2.0)
        assert err.value.value == 50.0 and err.value.estimate == 0.01

    def test_truncation_derivative_identity(self):
        # d/dA of the closed form equals e(A,s1) e(A,s2) / A^2
        s1, s2, A = 2.0, 3.0, 2.0
        h = 1e-6
        fd = (moments.maass_selberg(s1, s2, A + h)
              - moments.maass_selberg(s1, s2, A - h)) / (2 * h)
        phi1 = np.exp(phi_log(s1))
        phi2 = np.exp(phi_log(s2))
        e1 = A ** s1 + phi1 * A ** (1 - s1)
        e2 = A ** s2 + phi2 * A ** (1 - s2)
        assert fd == pytest.approx(e1 * e2 / A ** 2, rel=1e-6)


class TestMaassSelbergLimit:
    def test_small_delta_extrapolation(self):
        T, A = 10.0, 2.0
        limit = moments.maass_selberg_limit(T, A)
        # Richardson in delta from the generic two-parameter formula
        vals = [moments.maass_selberg(0.5 + d + 1j * T, 0.5 + 1j * T, A)
                for d in (2e-6, 1e-6)]
        extrap = 2 * vals[1] - vals[0]
        assert extrap == pytest.approx(limit, rel=1e-6)

    def test_matches_quadrature(self):
        T, A = 5.0, 1.5
        quad = moments.fourth_moment(SpectralSetup(T=T, A=A), tol=math.inf).second_moment
        assert quad == pytest.approx(moments.maass_selberg_limit(T, A), rel=1e-5)

    def test_asymptotic_trend(self):
        devs = {}
        for T in (20.0, 200.0):
            phi = scattering(T)
            ratio = moments.maass_selberg_limit(T, 2.0) / (2 * phi * math.log(T))
            devs[T] = abs(ratio - 1)
        assert devs[200.0] < 0.15
        assert devs[200.0] < devs[20.0]


class TestFourthMoment:
    def test_p2_consistency_and_positivity(self):
        res = moments.fourth_moment(SpectralSetup(T=10.0, A=2.0), tol=1e-5)
        closed = moments.maass_selberg_limit(10.0, 2.0)
        assert abs(res.second_moment - closed) / abs(closed) < 1e-5
        assert res.report.value > 0
        assert abs(res.second_moment.imag) < 1e8  # complex by nature
        assert res.report.ratio == pytest.approx(
            res.report.value / res.report.prediction, rel=1e-15)
        assert res.const_projection_sq == pytest.approx(
            (3 / math.pi) * abs(res.second_moment) ** 2, rel=1e-12)

    @pytest.mark.parametrize("T", [24.88, 49.54])
    def test_p2_error_at_rounding_level(self, T):
        # measured 9.2e-16 and 2.9e-15 with c from xi on the 1-line; c from
        # phi(1/2 + iT), through zeta on Re s = 0, gives 8.0e-14 and 2.0e-13
        res = moments.fourth_moment(SpectralSetup(T=T, A=2.0), tol=math.inf)
        assert moments.second_moment_error(res)[1] <= 2e-14

    @pytest.mark.parametrize("T", [250.0, 300.0])
    def test_p2_error_at_large_T(self, T):
        # measured 8.8e-14 and 2.9e-14; panels below y = 1 sized in y at the
        # rate 4T/y, not in phi = asin y, left 2.1e-11 and 2.2e-10
        res = moments.fourth_moment(SpectralSetup(T=T, A=2.0), tol=math.inf)
        assert moments.second_moment_error(res)[1] <= 1e-13

    @staticmethod
    def _p4_at_density(setup, factor):
        """fourth_moment's p = 4 value with its y bandwidth scaled by factor(y)."""
        T = setup.T
        rows = moments._weighted_rows((EisensteinEvaluator(setup),), moments._p4_p2, 4,
                                      moments._sharp_cut(setup.A))
        val, _ = moments.integrate_rows(
            rows, moment_y_max(setup), splits=(setup.A,),
            y_bandwidth=lambda y: (4.0 * T / y + 8.0) * factor(y))
        return val[0].real

    @pytest.mark.parametrize("T", [100.0, 200.0])
    def test_p4_holds_at_four_times_the_density_below_y_1(self, T):
        # the same rows on a grid with 4x the bandwidth below y = 1; measured
        # 1.2e-16 and 2.8e-16, where panels sized in y missed by 1.5e-8 and 3.0e-8
        setup = SpectralSetup(T=T, A=2.0)
        val = self._p4_at_density(setup, lambda y: 4.0 if y < 1.0 else 1.0)
        m4 = moments.fourth_moment(setup, tol=math.inf).report.value
        assert abs(val - m4) <= 1e-11 * m4

    def test_second_moment_error_sees_the_phase(self):
        closed = moments.maass_selberg_limit(10.0, 1.5)

        def result(second):
            return SimpleNamespace(second_moment=second, report=SimpleNamespace(T=10.0, A=1.5))

        assert moments.second_moment_error(result(closed)) == (closed, 0.0)
        # the conjugate has the right modulus and the wrong phase
        assert moments.second_moment_error(result(closed.conjugate()))[1] > 1.0

    def test_gaussian_prediction_is_the_closed_form(self):
        # ||E_A||^2 = |int E_A^2| exactly, so 3 ||E_A||^4 / vol F is
        # (9/pi) |maass_selberg_limit|^2 up to the quadrature error
        res = moments.fourth_moment(SpectralSetup(T=10.0, A=2.0), tol=math.inf)
        closed = moments.maass_selberg_limit(10.0, 2.0)
        assert res.gaussian_prediction == pytest.approx(
            (9 / math.pi) * abs(closed) ** 2, rel=1e-10)
        assert res.gaussian_ratio == res.report.value / res.gaussian_prediction

    def test_gaussian_ratio_approaches_one(self):
        # measured |ratio - 1|: 0.614 at T = 10, 0.271 at T = 50 (A = 2)
        devs = {T: abs(moments.fourth_moment(SpectralSetup(T=T, A=2.0),
                                             tol=math.inf).gaussian_ratio - 1.0)
                for T in (10.0, 50.0)}
        assert devs[50.0] < devs[10.0]

    def test_ratio_sanity_band(self):
        for T in (10.0, 25.0):
            rep = moments.fourth_moment(SpectralSetup(T=T, A=2.0), tol=math.inf).report
            assert 0.1 < rep.ratio < 10.0

    def test_grid_refinement_within_estimate(self):
        # the y grid at 12 in place of 8 nodes per wavelength; the K-Bessel
        # density is checked against the 16x helpers.eval_E_independent
        setup = SpectralSetup(T=10.0, A=1.5)
        base = moments.fourth_moment(setup, tol=math.inf).report
        dense = self._p4_at_density(setup, lambda y: 1.5)
        assert abs(dense - base.value) <= max(base.est_error, 1e-10 * base.value) * 4 + 1e-9


@functools.lru_cache(maxsize=None)
def _smoothed(T):
    bump = Bump(B=2.0, alpha=0.009, T=T)
    return bump, moments.smoothed_fourth_moment(bump)


@pytest.fixture(scope="module")
def smoothed():
    return _smoothed(10.0)


class TestSmoothedMoment:

    def test_band_partition_reassembles(self, smoothed):
        # the smoothed sweep's grid, topped at B + d with breaks at B - d,
        # B + d and B, integrates its evaluator's rows cut sharply at B to
        # fourth_moment at B
        bump, _ = smoothed
        B, d = bump.B, bump.half_width
        ev = EisensteinEvaluator(SpectralSetup(T=bump.T, A=B + d))
        val, _ = moments._integrate_moment(ev, moments._sharp_cut(B), 1.0, (B - d, B + d, B))
        direct = moments.fourth_moment(SpectralSetup(T=bump.T, A=B), tol=math.inf).report.value
        assert float(val[0].real) == pytest.approx(direct, rel=1e-8)

    def test_rows_with_all_or_no_mass_take_one_fft_pass(self, monkeypatch):
        # of the 1,280 heights on the two grids at T = 10, the 334 with
        # 0 < m < hhat0 sample both E and E - e; 2,560 rows when each took two.
        # Two of the 336 heights inside the support (B - d, B + d) lie past
        # B + d tanh(3), where m is 0.0 exactly
        sampled = []
        samples = moments._samples

        def counted(c, L):
            sampled.append(c.shape[0])
            return samples(c, L)

        monkeypatch.setattr(moments, "_samples", counted)
        moments.smoothed_fourth_moment(Bump(B=2.0, alpha=0.009, T=10.0))
        assert sum(sampled) == 1614

    def test_large_estimate_raises(self, monkeypatch):
        # the gate of fourth_moment: est_error above 1e-4 max(1, |value|)
        monkeypatch.setattr(moments, "integrate_rows",
                            lambda *a, **k: (np.array([50.0, 1.0j]), np.array([0.01, 0.0])))
        with pytest.raises(ToleranceError) as err:
            moments.smoothed_fourth_moment(Bump(B=2.0, alpha=0.009, T=10.0))
        assert err.value.value == 50.0 and err.value.estimate == 0.01

    def test_est_error_finite_positive(self, smoothed):
        # the y-grid Richardson estimate of the p=4 value; 1.7e-11 of 44.47 today
        _, res = smoothed
        assert math.isfinite(res.est_error) and 0.0 < res.est_error < 1e-4 * res.value

    def test_matches_composite_average_in_A(self, smoothed):
        # second path: 8 panels x 4 Gauss-Legendre nodes in A, one
        # fourth_moment per node; measured 1.8e-5 (a 4-node rule misses by 2.8e-2)
        bump, res = smoothed
        As, wA = dense_gl(bump.B - bump.half_width, bump.B + bump.half_width, 8, order=4)
        ref = sum(w * bump_h(A, bump) * moments.fourth_moment(
            SpectralSetup(T=bump.T, A=float(A)), tol=math.inf).report.value
            for A, w in zip(As, wA))
        assert res.value == pytest.approx(ref, rel=1e-4)

    @pytest.mark.parametrize("T", [10.0, 25.0])
    def test_second_matches_closed_form_average(self, T):
        # int h(A) maass_selberg_limit(T, A) dA on A = B + d tanh s; the closed
        # form oscillates like A^(2iT), so the rule is dense (624 nodes).
        # Measured 3.1e-14 and 6.9e-14; a 4-node rule in A misses by 3.3e-2 and 2.0e-2.
        bump, res = _smoothed(T)
        s, w = panel_nodes(-3.0, 3.0, 80.0)
        dA_h = bump.scale * bump.half_width * w * np.exp(-np.cosh(s) ** 2) / np.cosh(s) ** 2
        ref = sum(wt * moments.maass_selberg_limit(T, bump.B + bump.half_width * math.tanh(si))
                  for si, wt in zip(s, dA_h))
        assert abs(res.second - ref) <= 1e-10 * abs(ref)

    def test_shell_difference_bounded(self):
        # with disjoint truncations, E_B - E_A equals the constant term on the
        # shell and is bounded by 2 sqrt(y)
        ev = EisensteinEvaluator(SpectralSetup(T=10.0, A=12.0))
        rng = np.random.default_rng(3)
        saw_nonzero = False
        for _ in range(12):
            y = rng.uniform(2.5, 11.5)
            x = rng.uniform(-0.5, 0.5)
            diff = truncated_value(ev, x, y, 12.0) - truncated_value(ev, x, y, 2.0)
            assert abs(diff) <= 2.0 * math.sqrt(y) + 1e-9
            saw_nonzero |= abs(diff) > 1e-3
        assert saw_nonzero

    def test_ratio_script_writes_the_averaged_row(self, smoothed, tmp_path, monkeypatch):
        # scripts/moment_ratio_experiment.py ends each T with its A-averaged row
        path = Path(__file__).resolve().parents[1] / "scripts" / "moment_ratio_experiment.py"
        spec = importlib.util.spec_from_file_location("moment_ratio_experiment", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out = tmp_path / "ratio.csv"
        monkeypatch.setattr(sys, "argv", ["moment_ratio_experiment.py", "--T", "10", "--A", "2",
                                          "--out", str(out)])
        assert script.main() == 0
        _, res = smoothed
        fourth = res.value / res.hhat0
        ratio = fourth / (moments.FOURTH_MOMENT_CONSTANT * math.log(10.0) ** 2)
        lines = out.read_text().splitlines()
        assert lines[-1] == f"10.0,,{fourth:.8f},{ratio:.6f},,,"
        # a T = 10 cell takes some 10 ms, which one decimal of seconds rounds to 0.0
        assert float(lines[1].split(",")[-1]) > 0
