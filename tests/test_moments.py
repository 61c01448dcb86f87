"""Fundamental-domain quadrature and the moment pipeline."""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from eislab import moments
from eislab.eisenstein import EisensteinEvaluator, Point, RealSEvaluator, SpectralSetup
from eislab.errors import DegenerateParameterError, ToleranceError
from eislab.specfun import phi_log, scattering
from eislab.quadrature import panel_nodes
from eislab.weights import Bump, bump_h

from helpers import dense_gl, section_quadrature


class TestIntegrateF:
    """Integrals over the fundamental domain F through ``integrate_rows``."""

    def test_volume(self):
        # mu(F) = pi/3, with the region above y_max added analytically
        def row_fn(y):
            return np.array([moments.section_integral(np.ones(1), y)])

        val, est = moments.integrate_rows(row_fn, 1e6, y_bandwidth=lambda y: 30.0 / max(y, 1.0))
        assert val[0] + 1e-6 == pytest.approx(math.pi / 3, abs=1e-8)
        assert est[0] < 1e-10

    def test_inverse_square(self):
        # int over F cap {y <= 10} of y^-2 dmu has an elementary closed form:
        # split at y=1; the arc section below height 1 integrates in closed form
        def row_fn(y):
            return np.array([moments.section_integral(np.ones(1), y) / y ** 2])

        val, _ = moments.integrate_rows(row_fn, 10.0, y_bandwidth=lambda y: 30.0 / max(y, 1.0))
        # oracle via high-order 1-D quadrature of the exact section widths
        ys = np.linspace(0, 1, 200001)[1:]
        lower = np.trapezoid(
            np.where(ys >= math.sqrt(3) / 2,
                     (1.0 - 2.0 * np.sqrt(np.clip(1 - ys ** 2, 0, 1))) / ys ** 4,
                     0.0), ys)
        upper = (1.0 / 3.0) * (1.0 - 10.0 ** -3)
        assert val[0] == pytest.approx(lower + upper, rel=1e-6)

    def test_tolerance_error_carries_value(self):
        # the Richardson estimate of the p = 4 moment is 6.3e-7 at T = 25
        setup = SpectralSetup(T=25.0, A=2.0)
        with pytest.raises(ToleranceError) as err:
            moments.fourth_moment(setup, tol=1e-12)
        assert err.value.value == moments.fourth_moment(setup, tol=math.inf).report.value
        assert err.value.estimate > 0


class TestSectionIntegral:
    """Coefficient-space rows against dense composite Gauss-Legendre in x.

    Each error is measured against a full-strip Parseval value, not the
    row's own value: int |E_A|^4 and int |E_A|^2 over |x| <= 1/2, and
    ||E_1|| ||E_2|| for the real-s pair.  Near the corner y = sqrt(3)/2 the
    section is a few 1e-4 wide and the row's value cancels.
    """

    @pytest.mark.parametrize("T", [10.0, 25.0, 50.0])
    def test_moment_rows_match_dense_x_quadrature(self, T):
        ev = EisensteinEvaluator(SpectralSetup(T=T, A=2.0))
        for y in (0.8661, 0.87, 0.95, 1.0, 1.3, 1.99, 2.01, 2.5):
            c = ev.row_coefficients(y)
            b = np.convolve(c, np.conj(c[::-1]))  # coefficients of |E_A|^2
            p4 = moments.section_integral(np.convolve(b, b), y)
            sq = moments.section_integral(np.convolve(c, c), y)
            dense4 = section_quadrature(lambda xs: np.abs(ev.eval_row_trunc(y, xs)) ** 4, y)
            dense2 = section_quadrature(lambda xs: ev.eval_row_trunc(y, xs) ** 2, y)
            assert abs(p4 - dense4) <= 1e-13 * np.sum(np.abs(b) ** 2), y
            assert abs(sq - dense2) <= 1e-13 * np.sum(np.abs(c) ** 2), y

    def test_real_s_pair_row_matches_dense_x_quadrature(self):
        e1, e2 = RealSEvaluator(2.0), RealSEvaluator(3.0)
        y, A = 0.9, 2.0
        c1, c2 = e1.row_coefficients(y, A), e2.row_coefficients(y, A)
        row = moments.section_integral(np.convolve(c1, c2), y)
        dense = section_quadrature(lambda xs: e1.eval_row(y, xs, A) * e2.eval_row(y, xs, A), y)
        scale = math.sqrt(np.sum(np.abs(c1) ** 2) * np.sum(np.abs(c2) ** 2))
        assert abs(row - dense) <= 1e-13 * scale


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
            _, phi = scattering(T)
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
        from eislab.specfun import PrecisionPolicy
        setup = SpectralSetup(T=10.0, A=1.5)
        base = moments.fourth_moment(setup, tol=math.inf)
        dense = moments.fourth_moment(
            setup, tol=math.inf,
            policy=PrecisionPolicy(bessel_freq_oversample=12.0))
        assert abs(dense.report.value - base.report.value) <= \
            max(base.report.est_error, 1e-10 * base.report.value) * 4 + 1e-9


@functools.lru_cache(maxsize=None)
def _smoothed(T):
    bump = Bump(B=2.0, alpha=0.009, T=T)
    return bump, moments.smoothed_fourth_moment(bump)


@pytest.fixture(scope="module")
def smoothed():
    return _smoothed(10.0)


class TestSmoothedMoment:

    def test_band_partition_reassembles(self, smoothed):
        _, res = smoothed
        assert sum(res.i_split) == pytest.approx(res.direct, rel=1e-8)

    def test_est_error_finite_positive(self, smoothed):
        # the y-grid Richardson estimate of the p=4 value; 3.2e-12 of 44.47 today
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
        s, w = panel_nodes(-3.0, 3.0, 80.0, 8.0)
        dA_h = bump.scale * bump.half_width * w * np.exp(-np.cosh(s) ** 2) / np.cosh(s) ** 2
        ref = sum(wt * moments.maass_selberg_limit(T, bump.B + bump.half_width * math.tanh(si))
                  for si, wt in zip(s, dA_h))
        assert abs(res.second - ref) <= 1e-10 * abs(ref)

    def test_shell_difference_bounded(self):
        # with disjoint truncations, E_B - E_A equals the constant term on the
        # shell and is bounded by 2 sqrt(y)
        T = 10.0
        evA = EisensteinEvaluator(SpectralSetup(T=T, A=2.0))
        evB = EisensteinEvaluator(SpectralSetup(T=T, A=12.0))
        rng = np.random.default_rng(3)
        saw_nonzero = False
        for _ in range(12):
            y = rng.uniform(2.5, 11.5)
            x = rng.uniform(-0.5, 0.5)
            diff = evB.eval_E_trunc(Point(x, y)) - evA.eval_E_trunc(Point(x, y))
            assert abs(diff) <= 2.0 * math.sqrt(y) + 1e-9
            saw_nonzero |= abs(diff) > 1e-3
        assert saw_nonzero

    def test_window_norm_matches_dense_xy_quadrature(self):
        # second path: point values of |H_A|^2 on a dense composite
        # Gauss-Legendre grid in x and y, to a fixed height past the grid top
        setup = SpectralSetup(T=10.0, A=2.0)
        ev = EisensteinEvaluator(setup)
        ys, wy = dense_gl(setup.A, 16.0, 100)
        xs, wx = dense_gl(-0.5, 0.5, 8)
        ref = sum(w / y ** 2 * np.sum(wx * np.abs(ev.eval_row_H_A(y, xs)) ** 2)
                  for y, w in zip(ys, wy))
        assert moments.h_window_norm_sq(setup) == pytest.approx(ref, rel=1e-10)

