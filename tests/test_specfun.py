"""Special-function substrate tests, anchored to independent oracles."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

from eislab import oracles
from eislab.errors import DomainError, PoleError
from eislab.quadrature import ragged_panel_nodes
from eislab.specfun import (
    PrecisionPolicy,
    bessel_k_real,
    bessel_k_scaled,
    digamma,
    kuznetsov_kernel_even_many,
    kuznetsov_kernel_transform,
    log_gamma,
    phi_log,
    phi_log_deriv_critical,
    scattering,
    stirling_gamma_log,
    xi_log,
    zeta,
)
from eislab.specfun import bessel
from eislab.specfun.zeta import _euler_maclaurin

EULER_GAMMA = 0.5772156649015329


def _box_sample(n=100, seed=4):
    """Seeded arguments with Re z in [-2.5, 4] and |Im z| <= 2500.

    |Im z| is log-uniform on [0.01, 2500], so small and large heights are
    both covered.
    """
    rng = np.random.default_rng(seed)
    re = rng.uniform(-2.5, 4.0, n)
    im = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-2.0, math.log10(2500.0), n)
    return list(re + 1j * im)


def _contour_sample():
    """The heights the AFE weights' contours reach: Re z in {0.75, 1.25},
    |Im z| <= 120."""
    return [complex(re, im) for re in (0.75, 1.25) for im in np.linspace(-120.0, 120.0, 241)]


def _worst_error(values, refs):
    """The largest |value - ref| / max(1, |ref|)."""
    refs = np.asarray(refs)
    return float(np.max(np.abs(np.asarray(values) - refs) / np.maximum(1.0, np.abs(refs))))


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_high_on_critical_strip(self):
        # frozen from the 50-digit downward-recurrence oracle
        ref = complex(-46.20495127064222583516, 72.03731042880579321527)
        got = log_gamma(0.5 + 30j)
        assert abs(got - ref) < 1e-12 * abs(ref)

    def test_against_recurrence_oracle_samples(self):
        for z in [2.5 - 7j, 0.25 + 100j, 5.0 + 0.1j, 0.75 - 300j] + _box_sample():
            ref = oracles.hp_log_gamma(z)
            assert abs(log_gamma(z) - ref) < 1e-12 * max(1.0, abs(ref))

    def test_left_half_plane_principal(self):
        for z in [-1.5 + 0.5j, -2.3 - 4j, -0.25 + 12j]:
            assert abs(log_gamma(z) - oracles.hp_log_gamma(z)) < 1e-11

    def test_as_accurate_as_scipy(self):
        # against the 50-digit oracle, within twice scipy.special.loggamma's
        # worst error on the same points, plus 1e-15
        from scipy import special
        zs = np.array(_box_sample(500) + _contour_sample())
        ref = [oracles.hp_log_gamma(z) for z in zs]
        assert _worst_error(log_gamma(zs), ref) \
            <= 2.0 * _worst_error(special.loggamma(zs), ref) + 1e-15

    def test_negative_axis_branch_matches_scipy(self):
        # at Im z = +0.0 the branch is the limit from above, as in
        # scipy.special.loggamma: a wrong multiple of 2 pi i is off by 6.28
        from scipy import special
        xs = -np.concatenate([np.linspace(0.05, 9.95, 100), [12.25, 100.7]])
        zs = xs + 0.0j
        assert not np.signbit(zs.imag).any()
        assert _worst_error(log_gamma(zs), special.loggamma(zs)) < 1e-13

    def test_pole_raises(self):
        # the series and recurrence alone would give inf or nan at a pole;
        # the functions must raise, for a scalar and for an array holding
        # one pole among regular points
        for fn in (log_gamma, digamma):
            for z in (-3.0, np.array([0.5 + 1j, 2.0, -4.0, -1.5])):
                with pytest.raises(PoleError):
                    fn(z)

    @given(st.complex_numbers(min_magnitude=0.3, max_magnitude=50,
                              allow_infinity=False, allow_nan=False))
    def test_conjugation(self, z):
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            return
        assert log_gamma(np.conj(z)) == pytest.approx(np.conj(log_gamma(z)), rel=1e-10)


class TestDigamma:
    def test_euler_gamma(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-12

    def test_recurrence_identity(self):
        z = 2 + 3j
        assert abs((digamma(z + 1) - digamma(z)) - 1 / z) < 1e-12

    def test_log_growth_on_half_line(self):
        # Re psi(1/2 + 100i) tracks log(100)
        assert abs(digamma(0.5 + 100j).real - math.log(100)) < 1e-3

    def test_against_oracle(self):
        for z in [0.5 + 7j, 3.0 - 2j, -1.2 + 0.4j] + _box_sample():
            assert abs(digamma(z) - oracles.hp_digamma(z)) < 1e-11

    def test_as_accurate_as_scipy(self):
        # against the 50-digit oracle, within twice scipy.special.psi's worst
        # error on the same points, plus 1e-15
        from scipy import special
        zs = np.array(_box_sample(500) + _contour_sample())
        ref = [oracles.hp_digamma(z) for z in zs]
        assert _worst_error(digamma(zs), ref) <= 2.0 * _worst_error(special.psi(zs), ref) + 1e-15


class TestStirlingGamma:
    def test_order_zero_error_bound(self):
        ex = log_gamma(0.5 + 100j)
        ap = stirling_gamma_log(0.5, 100.0)
        rel = abs(np.exp(ap - ex) - 1.0)
        assert rel <= 2 * (abs(0.5 + 1) ** 2 / 100)

    def test_error_decays_like_one_over_t(self):
        devs = {}
        for t in (100.0, 1000.0):
            rel = abs(np.exp(stirling_gamma_log(0.5, t)
                             - log_gamma(0.5 + 1j * t)) - 1.0)
            devs[t] = rel
        assert devs[100.0] / devs[1000.0] >= 8.0

    def test_negative_t_conjugate(self):
        v = np.exp(stirling_gamma_log(0.5, -100.0))
        assert v == pytest.approx(np.conj(np.exp(stirling_gamma_log(0.5, 100.0))), rel=1e-12)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            stirling_gamma_log(0.5, 1.0)


class TestZeta:
    def test_basel(self):
        assert abs(zeta(2.0) - math.pi ** 2 / 6) < 1e-12

    def test_at_zero(self):
        assert abs(zeta(0.0) + 0.5) < 1e-12

    def test_first_zero(self):
        rho = 0.5 + 14.134725141734693j
        assert abs(zeta(rho)) < 1e-5
        # independent doubled-term-count Euler-Maclaurin oracle
        assert abs(zeta(rho) - oracles.hp_zeta_em_doubled(rho)) < 1e-12

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            zeta(1.0)
        with pytest.raises(PoleError):
            zeta(np.array([2.0, 1.0]))

    def test_array_matches_scalar_and_mpmath(self):
        # the 1-line heights of the Kuznetsov continuous term, t in (0, 51]
        s = 1.0 + 2j * np.linspace(0.0, 51.0, 256)[1:]
        z = zeta(s)
        scalar = np.array([zeta(v) for v in s])
        assert np.max(np.abs(z - scalar) / np.abs(scalar)) < 1e-14
        hp = np.array([oracles.hp_zeta(v) for v in s])
        assert np.max(np.abs(z - hp) / np.abs(hp)) < 1e-12
        assert np.array_equal(zeta(s.reshape(5, 51)), z.reshape(5, 51))

    @given(st.floats(-2.0, 4.0), st.floats(-80.0, 80.0))
    @settings(max_examples=25)
    def test_conjugation(self, sr, si):
        s = complex(sr, si)
        if abs(s - 1) < 0.1 or abs(si) < 0.05:
            return
        assert zeta(np.conj(s)) == pytest.approx(np.conj(zeta(s)), rel=1e-9)

    def test_log_derivs_prime_sum(self):
        # zeta'/zeta(2) = -sum Lambda(n)/n^2, von Mangoldt sum to 1e6
        N = 10 ** 6
        sieve = np.zeros(N + 1)
        primes = np.ones(N + 1, dtype=bool)
        primes[:2] = False
        for p in range(2, int(N ** 0.5) + 1):
            if primes[p]:
                primes[p * p::p] = False
        for p in np.nonzero(primes)[0]:
            q = p
            while q <= N:
                sieve[q] = math.log(p)
                q *= p
        mangoldt_sum = float(np.sum(sieve[1:] / np.arange(1, N + 1, dtype=float) ** 2))
        z0, z1 = _euler_maclaurin(np.array([2.0 + 0j]), derivs=1)
        assert abs(z1[0] / z0[0] + mangoldt_sum) < 1e-5

    def test_one_line_band_logged(self):
        # |zeta'/zeta| near the 1-line stays within the broad empirical band;
        # logged as a sanity magnitude, not an exact assertion
        T = 50.0
        z0, z1 = _euler_maclaurin(np.array([1.0 + 2j * T]), derivs=1)
        assert abs(z1[0] / z0[0]) <= 10.0 * math.log(100.0) ** 0.7


class TestXiAndScattering:
    def test_functional_equation_point(self):
        v1, v2 = xi_log(0.3 + 2j), xi_log(0.7 - 2j)
        assert abs(v1.real - v2.real) < 1e-9
        assert abs(math.remainder(v1.imag - v2.imag, 2 * math.pi)) < 1e-9

    def test_value_at_two(self):
        assert np.exp(xi_log(2.0)) == pytest.approx(math.pi / 6, rel=1e-12)

    @pytest.mark.parametrize("T", [5.0, 50.0, 200.0])
    def test_phi_log_deriv_critical_against_mpmath(self, T):
        # -4 Re xi'/xi(1 + 2iT) from mpmath's zeta' and psi; measured
        # 3.0e-15, 5.1e-14 and 7.6e-14 absolute
        s = 1.0 + 2j * T
        ref = -4.0 * (-0.5 * math.log(math.pi) + 0.5 * oracles.hp_digamma(s / 2)
                      + oracles.hp_zeta(s, derivative=1) / oracles.hp_zeta(s)).real
        got = phi_log_deriv_critical(T)
        assert isinstance(got, float)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_componentwise_composition(self):
        s = 0.5 + 50j
        ref = oracles.hp_xi_log(s)
        got = xi_log(s)
        assert abs(got.real - ref.real) < 1e-10 * max(1, abs(ref.real))
        assert abs(math.remainder(got.imag - ref.imag, 2 * math.pi)) < 1e-10

    @given(st.floats(-1.9, 2.9), st.floats(0.5, 60.0))
    @settings(max_examples=30)
    def test_functional_equation_random(self, sr, si):
        s = complex(sr, si)
        if min(abs(s), abs(s - 1)) < 0.2:
            return
        v1, v2 = xi_log(s), xi_log(1 - s)
        assert abs(v1.real - v2.real) < 1e-9 * max(1.0, abs(v1.real))
        assert abs(math.remainder(v1.imag - v2.imag, 2 * math.pi)) < 1e-9

    @pytest.mark.parametrize("T", [5.0, 17.3, 200.0])
    def test_unit_modulus(self, T):
        c = scattering(T)
        assert abs(abs(c) - 1.0) < 1e-12
        assert abs(np.conj(c) * c - 1.0) < 1e-12
        assert abs(c - np.exp(phi_log(0.5 + 1j * T))) < 1e-10

    @pytest.mark.parametrize("T", [24.88, 49.54])
    def test_scattering_matches_mpmath(self, T):
        # measured 7.1e-15 and 0; exp(phi_log(1/2 + iT)), through zeta on
        # Re s = 0, is 8.4e-14 and 2.0e-13 off
        ref = np.exp(oracles.hp_xi_log(1 - 2j * T) - oracles.hp_xi_log(1 + 2j * T))
        assert abs(scattering(T) - ref) < 1e-14

    @pytest.mark.parametrize("T", [5.0, 17.3, 24.88, 49.54, 200.0])
    def test_scattering_is_the_two_xi_quotient(self, T):
        # c from one xi value, exp(-2i Im log xi(1 + 2iT)), against the
        # quotient xi(1 - 2iT) / xi(1 + 2iT) of two
        c = scattering(T)
        ref = np.exp(xi_log(1 - 2j * T) - xi_log(1 + 2j * T))
        np.testing.assert_array_max_ulp(np.array([c.real, c.imag]),
                                        np.array([ref.real, ref.imag]), maxulp=4)

    def test_scattering_domain(self):
        with pytest.raises(DomainError):
            scattering(0.0)


class TestBesselK:
    def test_k0_reference(self):
        # K_0(1), frozen from 50-digit quadrature of the defining integral
        assert abs(bessel_k_scaled(0.0, 1.0) - 0.42102443824070833) < 1e-9
        ref = oracles.hp_bessel_k_scaled(0.0, 1.0)
        assert abs(bessel_k_scaled(0.0, 1.0) - ref) < 1e-12

    def test_order_evenness(self):
        assert bessel_k_scaled(7.5, 2.0) == bessel_k_scaled(-7.5, 2.0)

    def test_deep_decay(self):
        # T=30, y=200: bounded by the e^(pi T/2) e^(-y) envelope
        v = bessel_k_scaled(30.0, 200.0)
        assert 0 < v < math.exp(math.pi * 15 - 200)
        ref = oracles.hp_bessel_k_scaled_fast(30.0, 200.0)
        assert abs(v - ref) < 1e-8 * abs(ref)

    # the last eight cover the legs that end e^-45 below the result: the
    # Mellin paths' tiny y, both ends of the moment-sweep mode range, and both
    # sides of T = 104.8, above which the horizontal leg is empty
    @pytest.mark.parametrize("T,y", [(5.0, 1.0), (30.0, 10.0), (100.0, 99.5),
                                     (150.0, 5.0), (300.0, 310.0), (10.0, 60.0),
                                     (0.0, 1.5e-8), (3.0, 1.5e-8), (3.0, 58.0),
                                     (49.5, 5.44), (49.5, 126.8), (104.0, 50.0),
                                     (106.0, 50.0), (106.0, 0.3)])
    def test_against_oracle(self, T, y):
        ref = oracles.hp_bessel_k_scaled_fast(T, y)
        assert abs(bessel_k_scaled(T, y) - ref) < 1e-10 * max(abs(ref), 1e-280)

    @pytest.mark.parametrize("T,y", [(0.0, 132.6), (10.0, 126.8), (24.9, 0.0548),
                                     (3.0, 1.5e-8)])
    def test_quadrature_oracle_agrees_with_besselk(self, T, y):
        ref = oracles.hp_bessel_k_scaled_fast(T, y)
        assert abs(oracles.hp_bessel_k_scaled(T, y) - ref) < 1e-12 * abs(ref)

    def test_doubled_resolution_agreement(self):
        dense = PrecisionPolicy(bessel_freq_oversample=16.0)
        for (T, y) in [(25.0, 3.0), (80.0, 81.0), (200.0, 150.0)]:
            a = bessel_k_scaled(T, y)
            b = bessel_k_scaled(T, y, dense)
            if abs(b) > 1e-200:
                assert abs(a - b) < 1e-8 * abs(b)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k_scaled(5.0, -1.0)

    @pytest.mark.parametrize("T", [0.0, 3.0, 50.0, 104.0, 106.0, 150.0])
    def test_array_matches_scalar_calls(self, T):
        # each array value is the lone call's, bit for bit: y from the Mellin
        # paths' 1e-8 past the turning point, and T + 900, whose scale is
        # below e^-745 and so underflows to 0.0
        ys = np.append(np.geomspace(1e-8, T + 200.0, 300), T + 900.0)
        got = bessel_k_scaled(T, ys)
        assert got.shape == ys.shape and got[-1] == 0.0
        assert np.array_equal(got, [bessel_k_scaled(T, y) for y in ys])
        assert np.array_equal(bessel_k_scaled(T, ys.reshape(7, 43)), got.reshape(7, 43))
        assert isinstance(bessel_k_scaled(T, 2.0), float)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_array_domain(self, bad):
        with pytest.raises(DomainError):
            bessel_k_scaled(5.0, np.array([1.0, 2.0, bad, 3.0]))

    @pytest.mark.parametrize("T", [0.1, 0.58, 1.0, 3.0, 5.0, 7.0, 12.0, 14.9])
    def test_small_order_small_argument(self, T):
        # 15 log-spaced y from e^-18, the Mellin paths' cut, up to the switch
        # to the decay path, all on the oscillatory path.  Sizing the real
        # leg's lower piece for max(T, 1) instead of max(T, 8) reads 4.5e-10
        ys = np.geomspace(math.exp(-18.0), T + 3.0 * max(T, 1.0) ** (1.0 / 3.0), 15,
                          endpoint=False)
        ref = np.array([oracles.hp_bessel_k_scaled_fast(T, y) for y in ys])
        assert np.max(np.abs(bessel_k_scaled(T, ys) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("T,y,most", [(3.0, 1.5e-8, 450), (0.58, 1e-4, 350)])
    def test_oscillatory_node_count(self, T, y, most, monkeypatch):
        # the real leg below y cosh u = 2T is sized for max(T, 8), not for the
        # rate M - T at its far end: 416 and 336 nodes over all legs
        nodes = []

        def counting(*args, **kwargs):
            out = ragged_panel_nodes(*args, **kwargs)
            nodes.append(out[0].size)
            return out

        monkeypatch.setattr(bessel, "ragged_panel_nodes", counting)
        bessel_k_scaled(T, y)
        assert 0 < sum(nodes) <= most


class TestBesselKReal:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 1.523, 2.5, 3.5])
    def test_against_mpmath(self, nu):
        xs = np.geomspace(0.5, 500.0, 61)
        with mp.workdps(30):
            ref = np.array([float(mp.besselk(nu, x)) for x in xs])
        assert np.max(np.abs(bessel_k_real(nu, xs) / ref - 1.0)) <= 1e-14

    def test_shapes_order_sign_and_domain(self):
        xs = np.array([[0.5, 6.0], [60.0, 600.0]])
        got = bessel_k_real(2.5, xs)
        assert got.shape == xs.shape and isinstance(bessel_k_real(2.5, 6.0), float)
        assert np.array_equal(got, bessel_k_real(-2.5, xs))
        assert bessel_k_real(1.5, 1e6) == 0.0  # e^-x underflows past x ~ 745
        for bad in (0.0, -1.0, 2.0 ** -21, np.inf, np.nan):
            with pytest.raises(DomainError):
                bessel_k_real(1.5, bad)


def test_kernel_accuracy_survey_passes():
    # scripts/kernel_accuracy_survey.py exits 0 when both kernels stay below
    # 1e-9 relative to mpmath over its whole (order, argument) grid
    path = Path(__file__).resolve().parents[1] / "scripts" / "kernel_accuracy_survey.py"
    spec = importlib.util.spec_from_file_location("kernel_accuracy_survey", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    assert survey.main() == 0


class TestKuznetsovKernel:
    def test_real_valued(self):
        # the even part is real: the oracle's imaginary part vanishes
        v = kuznetsov_kernel_even_many(1.3, [4.2])[0]
        ref = oracles.hp_kuznetsov_kernel_even(1.3, 4.2)
        assert abs(ref.imag) < 1e-20
        assert abs(v - ref.real) < 1e-10 * abs(ref.real)

    def test_small_argument_bounded(self):
        v = kuznetsov_kernel_even_many(1e-6, [3.0])[0]
        assert np.isfinite(v) and abs(v) < 10.0

    def test_reference_point(self):
        # frozen from the 60-digit evaluation of both Bessel orders
        ref = -0.14130240039463690087
        v = kuznetsov_kernel_even_many(5.0, [10.0])[0]
        assert abs(v - ref) < 1e-9 * abs(ref)

    def test_unsymmetrized_kernel_differs(self):
        # the raw 2i J_{2it}/sinh combination is NOT real pointwise; only its
        # even part (what the trace-formula integrals see) is
        raw = oracles.hp_kuznetsov_kernel_paper(1.3, 4.2)
        assert abs(raw.imag) > 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            kuznetsov_kernel_even_many(-1.0, [3.0])
        with pytest.raises(DomainError):
            kuznetsov_kernel_even_many(1.0, [-3.0])

    @pytest.mark.parametrize("which", ["x", "t", "a"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_transform_rejects_non_finite_inputs(self, which, bad):
        args = {"xs": [0.5, 0.25], "ts": [0.0, 2.0, 4.0], "a": [1.0, 0.5, 0.25]}
        key = {"x": "xs", "t": "ts", "a": "a"}[which]
        args[key] = args[key][:-1] + [bad]
        with pytest.raises(DomainError, match="finite"):
            kuznetsov_kernel_transform(args["xs"], args["ts"], args["a"])

    # each of these ended in a bare numpy ValueError or IndexError, or, for
    # one a against two t, in a silently broadcast sum
    @pytest.mark.parametrize("call", [
        pytest.param(lambda: kuznetsov_kernel_even_many(1.0, []), id="empty-t"),
        pytest.param(lambda: kuznetsov_kernel_transform([0.5], [], []), id="transform-empty-t"),
        pytest.param(lambda: kuznetsov_kernel_transform([], [0.0, 2.0], [1.0, 0.5]),
                     id="transform-empty-x"),
        pytest.param(lambda: kuznetsov_kernel_transform([0.5], [0.0, 2.0, 4.0], [1.0, 0.5]),
                     id="transform-a-shorter-than-t"),
        pytest.param(lambda: kuznetsov_kernel_transform([0.5], [0.0, 2.0], [1.0]),
                     id="transform-one-a-for-two-t"),
        pytest.param(lambda: kuznetsov_kernel_even_many(1.0, [[0.0, 2.0], [4.0, 6.0]]),
                     id="2d-t"),
        pytest.param(lambda: kuznetsov_kernel_transform([0.5], [[0.0, 2.0]], [[1.0, 0.5]]),
                     id="transform-2d-t"),
    ])
    def test_malformed_input_is_a_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


def test_precision_policy_invariants():
    with pytest.raises(DomainError):
        PrecisionPolicy(bessel_freq_oversample=2.0)
