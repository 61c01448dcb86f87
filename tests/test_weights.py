"""Smoothing bumps, gamma-ratio and contour weights, Mellin pairs."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from eislab import oracles, weights
from eislab.errors import DomainError
from eislab.quadrature import panel_nodes
from eislab.specfun import PrecisionPolicy
from eislab.weights import Bump


@pytest.fixture(scope="module")
def bump50():
    return Bump(B=2.0, alpha=0.009, T=50.0)


class TestBump:
    def test_mass_normalization(self, bump50):
        # h~(1) = total mass = T^(-alpha/2), with constants exactly one
        ht1 = weights.bump_transform(1.0, bump50)
        assert abs(ht1 - bump50.hhat0) < 1e-10 * bump50.hhat0

    def test_compact_support(self, bump50):
        lo = bump50.B - bump50.half_width
        hi = bump50.B + bump50.half_width
        assert weights.bump_h(lo - 1e-9, bump50) == 0.0
        assert weights.bump_h(hi + 1e-9, bump50) == 0.0
        assert weights.bump_h(bump50.B, bump50) > 0.0

    def test_derivative_growth(self, bump50):
        # |h^(k)| <= C_k (T^(alpha/2))^k; C_k frozen from measured suprema
        # of the mollifier profile (1.83, 18.0, 435, 1.8e4) with margin.
        # h^(k) by central differences of step 2e-4 half-widths
        c_k = {1: 3.0, 2: 30.0, 3: 700.0, 4: 3e4}
        stencils = {1: ([-0.5, 0.5], [-1, 1]), 2: ([1.0, -2.0, 1.0], [-1, 0, 1]),
                    3: ([-0.5, 1.0, -1.0, 0.5], [-2, -1, 1, 2]),
                    4: ([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2])}
        h = bump50.half_width * 2e-4
        us = np.linspace(bump50.B - 0.95 * bump50.half_width,
                         bump50.B + 0.95 * bump50.half_width, 41)
        for k, bound in c_k.items():
            coefs, offs = stencils[k]
            worst = max(abs(sum(c * weights.bump_h(float(a) + o * h, bump50)
                                for c, o in zip(coefs, offs)) / h ** k) for a in us)
            assert worst <= bound * (50.0 ** (k * 0.009 / 2))

    def test_transform_decay(self, bump50):
        # mollifier transform decays like exp(-c sqrt(height))
        v150 = abs(weights.bump_transform(1.0 - 0.01 - 150j, bump50))
        v600 = abs(weights.bump_transform(1.0 - 0.01 - 600j, bump50))
        v1800 = abs(weights.bump_transform(1.0 - 0.01 - 1800j, bump50))
        assert v600 < 1e-6 * bump50.hhat0
        assert v600 < v150 / 30.0
        assert v1800 < 1e-10 * bump50.hhat0
        h = weights.bump_transform_decay_height(bump50, 0.01, 1e-10)
        assert abs(weights.bump_transform(1.0 - 0.01 - 1j * h, bump50)) \
            < 1e-10 * bump50.hhat0

    @pytest.mark.parametrize("s", [1.0, 0.99 - 150j, 0.99 - 600j, 0.25 + 40j, -34.0 - 20j])
    def test_transform_matches_mpmath(self, bump50, s):
        # against 30-digit tanh-sinh quadrature in A; measured worst 1.3e-12
        # of hhat0, at s = 0.99 - 150i
        ref = oracles.hp_bump_transform(s, bump50.B, bump50.half_width, bump50.hhat0)
        assert abs(weights.bump_transform(s, bump50) - ref) <= 1e-11 * bump50.hhat0

    def test_transform_needs_one_vertical_line(self, bump50):
        with pytest.raises(DomainError):
            weights.bump_transform(np.array([0.5 + 1j, 0.75 + 1j]), bump50)

    def test_support_guard(self):
        with pytest.raises(DomainError):
            Bump(B=1.5, alpha=0.009, T=50.0)  # support would dip below 1

    def test_mollifier_mass_matches_mpmath(self):
        # the frozen constant against 30-digit tanh-sinh quadrature, to the last bit
        assert weights.MOLLIFIER_MASS == oracles.hp_gauss_bump_mass()

    def test_mass_above_matches_mpmath(self, bump50):
        # int_{A >= y} h dA = scale d int_u^1 exp(-1/(1-v^2)) dv, u = (y - B)/d;
        # measured error 3.2e-15 of hhat0 (a 24-node rule misses by 4.1e-12)
        b, d = bump50.B, bump50.half_width
        with mp.workdps(30):
            for u in (-1.5, -1.0, -0.6, -0.2, 0.0, 0.5, 0.9, 1.0, 2.0):
                lo = max(u, -1.0)
                ref = 0.0 if lo >= 1.0 else float(bump50.scale * d * mp.quad(
                    lambda v: mp.exp(-1 / (1 - v * v)), [lo, max(lo, 0.0), 1]))
                assert abs(bump50.mass_above(b + u * d) - ref) <= 1e-13 * bump50.hhat0, u
        assert bump50.mass_above(b) == pytest.approx(bump50.hhat0 / 2, abs=1e-13 * bump50.hhat0)
        assert bump50.mass_above(b + 2.0 * d) == 0.0
        assert bump50.mass_above(b - 2.0 * d) == bump50.hhat0


class TestGammaRatioWeights:
    def test_hcal_envelope(self):
        # |Hcal(t)|^2 * |t| sqrt(4T^2-t^2) stays near 8 pi
        for T in (20.0, 50.0, 100.0):
            v = weights.weight_Hcal(T, T)
            envelope = abs(v) ** 2 * T * math.sqrt(3 * T * T)
            assert envelope < 100.0
            assert envelope == pytest.approx(8 * math.pi, rel=0.05)

    def test_hcal_conjugation(self):
        # reflecting every sign is complex conjugation of the gamma product
        t, T = 60.0, 50.0
        v = weights.weight_Hcal(t, T)
        num = 0j
        for sgn in (+1, -1):
            from eislab.specfun import log_gamma
            num += log_gamma((0.5 + 2j * T + 1j * sgn * t) / 2)
            num += log_gamma((0.5 + 1j * sgn * t) / 2)
        den = 2 * log_gamma(0.5 + 1j * T) + log_gamma(0.5 + 1j * t)
        assert np.exp(num - den) == pytest.approx(np.conj(v), rel=1e-12)

    def test_hcal_pm_oracle_point(self, bump50):
        # 50-digit gamma recomputation of the ratio at one bulk point
        t, T, s = 75.0, 50.0, 0.25 + 0.1j
        hp, hm = weights.weight_Hcal_pm(s, t, T, bump50)
        ht = weights.bump_transform(1.0 - s, bump50)
        acc = 0j
        for sT in (+1, -1):
            num = 0j
            for sgn in (+1, -1):
                num += oracles.hp_log_gamma((s + 0.5 + 2j * sT * T + 1j * sgn * t) / 2)
                num += oracles.hp_log_gamma((s + 0.5 + 1j * sgn * t) / 2)
            den = (oracles.hp_log_gamma(s + 0.5 + 1j * sT * T)
                   + oracles.hp_log_gamma(0.5 + 1j * T)
                   + oracles.hp_log_gamma(0.5 + 1j * t))
            ref = ht * np.exp(num - den)
            got = hp if sT > 0 else hm
            assert got == pytest.approx(ref, rel=1e-9)

    def test_log_gamma_quad_matches_mpmath(self):
        # Q(z) = sum_(pm, pm) log Gamma((z pm iT pm it) / 2) against four
        # 50-digit values, mod 2 pi i; measured 3.9e-15 and 7.1e-15
        def ref(z, T, t):
            return sum(oracles.hp_log_gamma((z + 1j * (a * T + b * t)) / 2)
                       for a in (1, -1) for b in (1, -1))

        def dist(q, r):
            d = complex(q - r)
            return abs(complex(d.real, math.remainder(d.imag, 2 * math.pi)))

        z0 = 0.75 - 0.3j
        assert dist(weights._log_gamma_quad(z0, 3.0, 5.0), ref(z0, 3.0, 5.0)) <= 1e-13
        z = np.array([1.25 + 1.8j, 1.25 - 4.2j, 0.5 - 6j, 2.0 + 30j])
        q = weights._log_gamma_quad(z, 6.0, 2.5)
        assert q.shape == z.shape
        assert max(dist(qk, ref(zk, 6.0, 2.5)) for qk, zk in zip(q, z)) <= 1e-13

    @pytest.mark.parametrize("T, t", [(2.0, 1.5), (3.0, 5.0), (6.0, 2.5)])
    def test_hcal_pm_is_the_kk_mellin_integral(self, bump50, T, t):
        # second path: Hcal_pm / h-tilde(1 - s) is 2^(3-z) int_0^inf y^z
        # K_iT K_it dy/y / (Gamma(1/2 + iT) Gamma(1/2 + it)) at z = s + 1/2 +- iT,
        # the integral by quadrature; measured <= 5.4e-11 on Re s = 0.75, where
        # the quadrature's cut at y = e^-18 is far below 1e-9
        s = 0.75 - 1.2j
        hp, hm = weights.weight_Hcal_pm(s, t, T, bump50)
        ht = weights.bump_transform(1.0 - s, bump50)
        den = np.exp(oracles.hp_log_gamma(0.5 + 1j * T) + oracles.hp_log_gamma(0.5 + 1j * t))
        for h, z in ((hp, s + 0.5 + 1j * T), (hm, s + 0.5 - 1j * T)):
            ref = 2.0 ** (3.0 - z) * weights.mellin_barnes_kk_numeric(z, T, t) / den
            assert abs(h / ht - ref) <= 1e-9 * abs(ref)

    def test_leading_term_consistency_at_zero_shift(self, bump50):
        # at s = 0 the product Hcal * Hcal_plus matches the closed leading
        # form up to the documented O(1/t) correction
        t = T = 50.0
        hp, _ = weights.weight_Hcal_pm(0.0 + 0j, t, T, bump50)
        lead = weights.leading_terms(0.0 + 0j, t, T, bump50)
        ratio = weights.weight_Hcal(t, T) * hp / lead.hh_plus
        assert abs(ratio - 1.0) < 10.0 / t

    def test_leading_term_error_halves(self):
        s0 = 0.3 + 0.2j
        devs = {}
        for T in (100.0, 200.0):
            bT = Bump(B=2.0, alpha=0.009, T=T)
            lead = weights.leading_terms(s0, T, T, bT)
            hp, hm = weights.weight_Hcal_pm(s0, T, T, bT)
            hc = weights.weight_Hcal(T, T)
            devs[T] = max(abs(hc * hp / lead.hh_plus - 1.0),
                          abs(hc * hm * lead.v_minus_phase / lead.hh_minus - 1.0))
        assert devs[200.0] <= 0.75 * devs[100.0]

    def test_v_minus_phase_unimodular(self, bump50):
        lead = weights.leading_terms(0.2 + 0.1j, 60.0, 50.0, bump50)
        assert abs(lead.v_minus_phase) == pytest.approx(1.0, abs=1e-14)

    def test_parity_difference_small(self):
        # |G_(1/2) - G_(3/2)| at fixed w shrinks like 1/t
        w = np.array([0.1 + 0.3j])
        for t in (50.0, 100.0, 200.0):
            d = abs(np.exp(weights._g_ratio_log(w, t, t, 0.5))[0]
                    - np.exp(weights._g_ratio_log(w, t, t, 1.5))[0])
            assert d <= 1.5 / t


class TestContourWeights:
    def test_v_contour_independence(self):
        v1 = weights.weight_V_pm(100.0, 60.0, 50.0, "even", sigma=1.0)
        v2 = weights.weight_V_pm(100.0, 60.0, 50.0, "even", sigma=2.0)
        assert abs(v1[0] / v2[0] - 1) < 1e-8
        assert abs(v1[1] / v2[1] - 1) < 1e-8

    def test_v_support_window(self):
        t, T = 60.0, 50.0
        q0 = t * math.sqrt(4 * T * T - t * t) / (4 * math.pi ** 2)
        v1 = weights.weight_V_pm(1.0, t, T, "even")
        vf = weights.weight_V_pm(q0 * math.exp(11.0), t, T, "even")
        assert abs(vf[0]) < 1e-10 * abs(v1[0])
        assert abs(vf[1]) < 1e-10 * abs(v1[1])

    def test_v_envelope(self):
        t, T = 60.0, 50.0
        for x in (1.0, 10.0, 100.0):
            vp, vm = weights.weight_V_pm(x, t, T, "even")
            env = t * math.sqrt(4 * T * T - t * t) / x
            assert max(abs(vp), abs(vm)) <= 100.0 * env

    @pytest.mark.parametrize("x", [math.nan, math.inf, [2.0, math.nan]])
    def test_v_non_finite_x_rejected(self, x):
        with pytest.raises(DomainError, match="finite x"):
            weights.weight_V_pm(x, 60.0, 50.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, [2.0, math.nan]])
    def test_vcal_non_finite_x_rejected(self, bump50, x):
        with pytest.raises(DomainError, match="finite x"):
            weights.weight_Vcal_pm(x, 60.0, 50.0, bump50)

    def test_vcal_contour_independence(self, bump50):
        c1 = weights.weight_Vcal_pm(2.0, 60.0, 50.0, bump50, sigma=0.5)
        c2 = weights.weight_Vcal_pm(2.0, 60.0, 50.0, bump50, sigma=1.5)
        assert abs(c1.plus / c2.plus - 1) < 1e-7
        assert abs(c1.minus / c2.minus - 1) < 1e-7

    def test_vcal_contour_independence_at_noise_floor(self, bump50):
        # at x = 10 the weight has cancelled to ~1e-12 of its x = 1 scale;
        # sigma-agreement there is measured against the family scale (the
        # pointwise ratio sits at the double-precision cancellation floor)
        base = abs(weights.weight_Vcal_pm(1.0, 60.0, 50.0, bump50).plus)
        c1 = weights.weight_Vcal_pm(10.0, 60.0, 50.0, bump50, sigma=0.5)
        c2 = weights.weight_Vcal_pm(10.0, 60.0, 50.0, bump50, sigma=1.5)
        assert abs(c1.plus - c2.plus) < 1e-7 * base
        assert abs(c1.minus - c2.minus) < 1e-7 * base

    def test_vcal_support_window(self, bump50):
        base = weights.weight_Vcal_pm(1.0, 60.0, 50.0, bump50)
        far = weights.weight_Vcal_pm(50.0 ** 1.2, 60.0, 50.0, bump50, sigma=35.0)
        assert abs(far.plus) < 1e-10 * abs(base.plus)
        assert abs(far.minus) < 1e-10 * abs(base.minus)

    def test_vcal_magnitude(self, bump50):
        # |Vcal(1, t)| = O(T^(-1 + alpha/2 + eps))
        base = weights.weight_Vcal_pm(1.0, 60.0, 50.0, bump50)
        assert abs(base.plus) * 50.0 < 100.0
        assert base.tail_estimate < 1e-8

    @pytest.mark.parametrize("parity_a", [0.5, 1.5])
    @pytest.mark.parametrize("smoother", [1.0, 0.5])
    def test_factored_contour_weights_match_dense_exponentials(self, parity_a, smoother):
        # x^(-w) factored by panel against exp(outer(-log x, w)) on the same
        # nodes, the documented truncation, for x = 1..20000 and x = 10^6.
        # V_minus is the mirror C conj V_plus; its reference is summed from
        # the +2iT-shifted gamma ratio itself, so it checks the mirror too
        t, sigma = 9.5337, 1.0
        height = max(10.0, math.sqrt(46.0 / smoother + sigma * sigma) + 3.0)
        xs = np.append(np.arange(1.0, 20001.0), 1e6)
        bw = math.log(1e6) + 2.0 * sigma * smoother + 4.0
        nodes, wts = panel_nodes(-height, height, bw, min_panels=8)
        w = sigma + 1j * nodes
        for T in (3.0, 10.0):
            vp = weights.contour_weights(xs, t, T, parity_a, sigma, smoother)
            vm = weights._mirror_phase(t, T, parity_a) * np.conj(vp)
            q0 = weights._log_gamma_quad(parity_a - 1j * T, T, t)
            for got, shift in ((vp, -1j * T), (vm, 1j * T)):
                log_g = (weights._log_gamma_quad(parity_a + w + shift, T, t) - q0
                         - 2.0 * (w + shift + 1j * T) * math.log(math.pi))
                core = np.exp(smoother * w * w + log_g) / w * (wts / (2.0 * np.pi))
                ref = np.concatenate([np.exp(np.outer(-np.log(xs[i:i + 2000]), w)) @ core
                                      for i in range(0, xs.size, 2000)])
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestOutputShape:
    # a number gives a number and an array an array of its own shape, length
    # 1 and 2-d included; an entry differs from its lone call's value only
    # through the node count of the shared contour
    @pytest.mark.parametrize("shape", [(1,), (2, 2)])
    @pytest.mark.parametrize("name", ["bump_transform", "weight_Hcal_pm",
                                      "weight_V_pm", "weight_Vcal_pm"])
    def test_shape_follows_input(self, bump50, name, shape):
        s = 0.5 + 1j * np.arange(math.prod(shape))
        x = np.geomspace(1.0, 10.0, math.prod(shape))
        f, arg = {
            "bump_transform": (lambda v: (weights.bump_transform(v, bump50),), s),
            "weight_Hcal_pm": (lambda v: weights.weight_Hcal_pm(v, 60.0, 50.0, bump50), s),
            "weight_V_pm": (lambda v: weights.weight_V_pm(v, 60.0, 50.0), x),
            "weight_Vcal_pm": (lambda v: weights.weight_Vcal_pm(v, 60.0, 50.0, bump50)[:2], x),
        }[name]
        arg = arg.reshape(shape)
        lone = [f(v) for v in arg.ravel()]
        for k, got in enumerate(f(arg)):
            assert isinstance(lone[0][k], complex)
            assert got.shape == shape
            ref = np.reshape([vals[k] for vals in lone], shape)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestMellinPair:
    def test_mellin_barnes_spot_identity(self):
        # mu = nu = 0, s = 2: int x K_0(x)^2 dx = 1/2
        num = weights.mellin_barnes_kk_numeric(2.0, 0.0, 0.0)
        closed = weights.mellin_barnes_kk_closed(2.0, 0.0, 0.0)
        assert closed.real == pytest.approx(0.5, abs=1e-13)
        assert abs(num - closed) < 1e-8
        ref = oracles.hp_mellin_barnes_kk(2.0, 0.0, 0.0)
        assert abs(closed - ref) < 1e-12

    def test_mellin_barnes_node_count(self, monkeypatch):
        # the bandwidth rule alone: 9 panels of 16 nodes on [-18, log 55]
        nodes = []

        def counting(*args, **kwargs):
            out = panel_nodes(*args, **kwargs)
            nodes.append(out[0].size)
            return out

        monkeypatch.setattr(weights, "panel_nodes", counting)
        weights.mellin_barnes_kk_numeric(2.0, 0.0, 0.0)
        assert 0 < sum(nodes) <= 160

    def test_mellin_barnes_imaginary_orders(self):
        num = weights.mellin_barnes_kk_numeric(2.0 + 0.5j, 3.0, 5.0)
        closed = weights.mellin_barnes_kk_closed(2.0 + 0.5j, 3.0, 5.0)
        ref = oracles.hp_mellin_barnes_kk(2.0 + 0.5j, 3j, 5j)
        assert abs(closed - ref) < 1e-10 * abs(ref)
        assert abs(num - closed) < 1e-7 * abs(closed)

    def test_g_closed_form_against_mpmath(self):
        # G(s) = M(s + 1/2 + iT) / s with the double-Bessel Mellin transform M,
        # here from the 30-digit oracle; g_mellin_numeric against G is criterion 6
        for s, T, t in ((1.0, 3.0, 5.0), (0.3 + 2j, 20.0, 30.0), (2.5 - 1j, 0.5, 0.7)):
            ref = oracles.hp_mellin_barnes_kk(s + 0.5 + 1j * T, 1j * T, 1j * t) / s
            assert abs(weights.g_mellin_closed(s, T, t) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("s, T, t", [(1.5 - 0.5j, 2.0, 4.0), (2.0, 6.0, 1.5)])
    def test_g_numeric_matches_closed_form(self, s, T, t):
        # the iterated quadrature of criterion 6 at two more points; measured
        # 1.6e-15 and 7.4e-15
        G = weights.g_mellin_closed(s, T, t)
        assert abs(weights.g_mellin_numeric(s, T, t) / G - 1.0) <= 1e-12

    @pytest.mark.parametrize("T, t", [(3.0, 5.0), (0.5, 0.7), (10.0, 2.0)])
    def test_g_on_an_array_matches_single_x(self, T, t):
        # one v-grid with every log x as an edge against one grid per x;
        # worst relative difference measured 1.4e-14, at (T, t) = (0.5, 0.7)
        xs = np.geomspace(0.05, 20.0, 8)
        many = weights.g_lower_incomplete(xs, T, t)
        one = np.array([weights.g_lower_incomplete(x, T, t) for x in xs])
        assert many.shape == xs.shape
        assert np.max(np.abs(many - one) / np.abs(one)) <= 1e-13

    def test_g_mellin_numeric_calls_g_once(self, monkeypatch):
        calls = []
        g = weights.g_lower_incomplete

        def counting(*args, **kwargs):
            calls.append(np.size(args[0]))
            return g(*args, **kwargs)

        monkeypatch.setattr(weights, "g_lower_incomplete", counting)
        weights.g_mellin_numeric(1.0, 3.0, 5.0)
        assert len(calls) == 1 and calls[0] >= 28 * 16

    def test_g_tiny_x_converged_without_warning(self):
        # the log-variable quadrature is already converged far below x = 1e-4:
        # doubling the node density moves g(1e-7) by rounding only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = weights.g_lower_incomplete(1e-7, 3.0, 5.0)
        g_fine = weights.g_lower_incomplete(
            1e-7, 3.0, 5.0, PrecisionPolicy(bessel_freq_oversample=16.0))
        assert abs(g - g_fine) <= 1e-12 * abs(g_fine)

    def test_g_exponential_decay(self):
        # |g(x)| <= C_T e^{-x} on samples
        vals = {x: abs(weights.g_lower_incomplete(x, 3.0, 5.0)) for x in (5.0, 10.0, 20.0)}
        c_t = max(v * math.exp(x) for x, v in vals.items())
        for x, v in vals.items():
            assert v <= (c_t + 1e-12) * math.exp(-x)
        assert vals[20.0] < vals[10.0] < vals[5.0]
