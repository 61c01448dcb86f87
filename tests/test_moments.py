"""Fundamental-domain quadrature and the moment pipeline."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from eislab import moments
from eislab.eisenstein import EisensteinEvaluator, Point, SpectralSetup
from eislab.errors import DegenerateParameterError, ToleranceError
from eislab.specfun import phi_log, scattering
from eislab.weights import Bump


class TestIntegrateF:
    def test_volume(self):
        # mu(F) = pi/3, with the region above y_max added analytically
        val, est = moments.integrate_F(lambda p: 1.0, y_max=1e6)
        assert val + 1e-6 == pytest.approx(math.pi / 3, abs=1e-8)
        assert est < 1e-10

    def test_inverse_square(self):
        # int over F cap {y <= 10} of y^-2 dmu has an elementary closed form:
        # split at y=1; the arc section below height 1 integrates in closed form
        val, _ = moments.integrate_F(lambda p: 1.0 / p.y ** 2, y_max=10.0)
        # oracle via high-order 1-D quadrature of the exact section widths
        ys = np.linspace(0, 1, 200001)[1:]
        lower = np.trapezoid(
            np.where(ys >= math.sqrt(3) / 2,
                     (1.0 - 2.0 * np.sqrt(np.clip(1 - ys ** 2, 0, 1))) / ys ** 4,
                     0.0), ys)
        upper = (1.0 / 3.0) * (1.0 - 10.0 ** -3)
        assert val == pytest.approx(lower + upper, rel=1e-6)

    def test_smooth_bump_against_doubled_order(self):
        f = lambda p: math.exp(-((p.x) ** 2 + (p.y - 1.2) ** 2) / 0.08)
        val, est = moments.integrate_F(f, y_max=4.0, bandwidth=60.0)
        dense = moments.integrate_F(f, y_max=4.0, bandwidth=120.0)[0]
        assert val == pytest.approx(dense, rel=1e-8)

    def test_tolerance_error_carries_value(self):
        with pytest.raises(ToleranceError) as err:
            moments.integrate_F(lambda p: math.cos(40 * p.x * p.y), y_max=3.0,
                                bandwidth=8.0, tol=1e-14)
        assert err.value.value is not None
        assert err.value.estimate > 0


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


@pytest.fixture(scope="module")
def smoothed():
    setup = SpectralSetup(T=10.0, A=2.0, B=2.0, alpha=0.009)
    bump = Bump(B=2.0, alpha=0.009, T=10.0)
    return setup, bump, moments.smoothed_fourth_moment(setup, bump)


class TestSmoothedMoment:

    def test_band_partition_reassembles(self, smoothed):
        _, _, res = smoothed
        assert sum(res.i_split) == pytest.approx(res.direct, rel=1e-8)

    def test_close_to_center_value(self, smoothed):
        setup, bump, res = smoothed
        center = moments.fourth_moment(
            SpectralSetup(T=10.0, A=2.0), tol=math.inf).report.value
        # tolerance from the measured A-sensitivity over the support
        vals = [r.value for r in res.reports]
        sens = max(vals) - min(vals)
        assert abs(res.value - res.hhat0 * center) <= res.hhat0 * sens

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

    def test_window_norm_positive(self):
        val = moments.h_window_norm_sq(SpectralSetup(T=10.0, A=2.0))
        assert val > 0 and np.isfinite(val)


def test_grid_invariant_x_nodes():
    # the x sampling must give at least 4 n_max nodes per unit length
    ev = EisensteinEvaluator(SpectralSetup(T=25.0, A=2.0))
    grid = moments.build_grid(
        5.0, lambda y: 4 * 25.0 / y, lambda y: 2 * math.pi * 4 * ev.n_max(y),
        splits=(2.0,), oversample=8.0)
    for panel in grid.panels:
        n_here = ev.n_max(panel.y0)
        assert panel.x_nodes_per_unit * 8.0 / (2 * math.pi) >= 4 * n_here
