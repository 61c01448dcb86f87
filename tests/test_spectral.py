"""Maass-form handling, AFE central values, trace-formula diagnostics."""

import io
import math
from pathlib import Path

import numpy as np
import pytest

from eislab import arith, oracles, spectral, weights
from eislab.errors import MissingEigenvalueError, ValidationError
from eislab.quadrature import panel_nodes
from eislab.specfun import (
    kuznetsov_kernel_even_many,
    kuznetsov_kernel_transform,
    log_gamma,
    stirling_gamma_main_log,
)

DATA = Path(__file__).resolve().parents[1] / "data" / "maass_forms.csv"
CS_TO_50 = tuple(sorted(set(range(1, 51))
                        | {c for c in (math.ceil(8 * 1.2 ** k) for k in range(40))
                           if 25 < c <= 800}))


@pytest.fixture(scope="module")
def pseudoform():
    return spectral.divisor_pseudoform(13.78, 120_000)


class TestIngest:
    def test_fixture_file_accepted(self):
        forms = spectral.ingest_forms(str(DATA))
        assert len(forms) == 2
        parities = {f.parity for f in forms}
        assert parities == {"even", "odd"}
        for f in forms:
            assert f.hecke[1] == 1.0
            assert f.sym2_L1 is not None

    def test_synthetic_multiplicative_accepted(self):
        rows = [{"t": "7.7", "parity": "even", "n": str(n),
                 "lambda": repr(arith.tau_gen(n, 1.3))} for n in range(1, 13)]
        forms = spectral.ingest_forms(rows)
        assert forms[0].n_max == 12
        # relation residual is identically zero on multiplicative data
        assert arith.hecke_relation_check(forms[0], 2, 3) < 1e-12

    def test_lambda_one_required(self):
        rows = [{"t": "5.0", "parity": "even", "n": "1", "lambda": "0.9"}]
        with pytest.raises(ValidationError):
            spectral.ingest_forms(rows)

    def test_hecke_violation_rejected(self):
        rows = [{"t": "5.0", "parity": "even", "n": str(n), "lambda": v}
                for n, v in [(1, "1.0"), (2, "1.5"), (3, "0.2"), (4, "0.0"), (6, "0.3")]]
        with pytest.raises(ValidationError):
            spectral.ingest_forms(rows)

    def test_duplicate_last_write_wins(self):
        rows = [{"t": "5.0", "parity": "even", "n": "1", "lambda": "1.0"},
                {"t": "5.0", "parity": "even", "n": "2", "lambda": "0.7"},
                {"t": "5.0", "parity": "even", "n": "2", "lambda": "0.8"}]
        with pytest.warns(UserWarning, match="duplicate"):
            forms = spectral.ingest_forms(rows)
        assert forms[0].hecke[2] == 0.8

    def test_csv_text_roundtrip(self):
        text = "t,parity,n,lambda\n5.5,odd,1,1.0\n5.5,odd,2,-0.4\n"
        forms = spectral.ingest_forms(io.StringIO(text))
        assert forms[0].parity == "odd"
        assert forms[0].eigenvalue(-2) == pytest.approx(0.4)


class TestAFE:
    def test_exact_oracle_midrange(self, pseudoform):
        # lambda(n) = tau(n, gamma) has L = zeta(s+i gamma) zeta(s-i gamma):
        # the central-value product has a closed zeta-product oracle.  The
        # shift T keeps the pseudoform's polar points out of the smoothing
        # window (|2T - gamma| large); cusp forms have no such poles.
        oracle = spectral.zeta_product_oracle(13.78, 3.0)
        afe = spectral.afe_pair(pseudoform, 3.0, tail_tol=1e-9)
        assert abs(afe - oracle) / abs(oracle) < 1e-6

    def test_degenerate_height_squares_central_value(self, pseudoform):
        oracle = spectral.zeta_product_oracle(13.78, 0.0)
        afe = spectral.afe_pair(pseudoform, 0.0, tail_tol=1e-9)
        assert abs(afe - oracle) / abs(oracle) < 1e-4

    def test_independent_smoother_agrees(self, pseudoform):
        # same identity, different admissible smoothing kernel
        a = spectral.afe_pair(pseudoform, 3.0, tail_tol=1e-9)
        b = spectral.afe_pair(pseudoform, 3.0, tail_tol=1e-9, smoother=0.25)
        assert abs(a - b) / abs(a) < 1e-5

    def test_contour_independence(self, pseudoform):
        a = spectral.afe_pair(pseudoform, 3.0, sigma=1.0, tail_tol=1e-9)
        b = spectral.afe_pair(pseudoform, 3.0, sigma=2.0, tail_tol=1e-9)
        assert abs(a - b) / abs(a) < 1e-7

    def test_odd_form_finite(self):
        # odd parity selects the shifted gamma data; the sum stays finite
        # (its pairing weight vanishes separately).  Synthetic Hecke-exact
        # eigenvalues: lambda(p) = 2 cos(golden-angle p), filled by recursion.
        n_need = 60_000
        is_prime = np.ones(n_need + 1, dtype=bool)
        is_prime[:2] = False
        for p in range(2, int(n_need ** 0.5) + 1):
            if is_prime[p]:
                is_prime[p * p::p] = False
        primes = {int(p): 2.0 * math.cos(2.399963 * p)
                  for p in np.nonzero(is_prime)[0]}
        lam = spectral.hecke_fill(primes, n_need)
        form = spectral.MaassForm(t=9.5337, parity="odd", hecke=lam)
        val = spectral.afe_pair(form, 3.0, tail_tol=1e-6)
        assert np.isfinite(abs(val))

    def test_hecke_fill_matches_trial_division(self):
        # the sieve must give the trial division's dict bit for bit: the same
        # keys in the same order, each product taken in the order of the
        # given primes, also when that order is shuffled or primes are missing
        def trial_division(prime_eigenvalues, n_max):
            lam = {1: 1.0}
            for p, lp in prime_eigenvalues.items():
                power, prev, cur = p, 1.0, lp
                while power <= n_max:
                    lam[power] = cur
                    prev, cur = cur, lp * cur - prev
                    power *= p
            for n in range(2, n_max + 1):
                if n in lam:
                    continue
                rest, val = n, 1.0
                for p in prime_eigenvalues:
                    q = 1
                    while rest % p == 0:
                        rest //= p
                        q *= p
                    if q > 1:
                        val *= lam[q]
                if rest == 1:
                    lam[n] = val
            return lam

        n_max = 2000
        primes = [p for p in range(2, n_max + 1)
                  if all(p % d for d in range(2, math.isqrt(p) + 1))]
        order = np.random.default_rng(7).permutation(len(primes))
        for keys in (primes, [primes[i] for i in order], [primes[i] for i in order[:200]]):
            data = {p: 2.0 * math.cos(2.399963 * p) for p in keys}
            got = spectral.hecke_fill(data, n_max)
            assert list(got.items()) == list(trial_division(data, n_max).items())

    def test_short_odd_form_guarded(self):
        lam = spectral.hecke_fill({2: -1.068333, 3: -0.456197, 5: -0.290673,
                                   7: 0.776463}, 10)
        form = spectral.MaassForm(t=9.5337, parity="odd", hecke=lam)
        with pytest.raises(MissingEigenvalueError):
            spectral.afe_pair(form, 3.0)  # demo form is far too short

    def test_insufficient_eigenvalues_guarded(self):
        short = spectral.divisor_pseudoform(13.78, 50)
        with pytest.raises(MissingEigenvalueError):
            spectral.afe_pair(short, 3.0)

    def test_eigenvalue_gap_guarded(self, monkeypatch):
        # the data reach past the cutoff (13,284 at T = 3) but lack lambda(7):
        # the gap raises before any contour weight is computed
        full = spectral.divisor_pseudoform(13.78, 20_000)
        gap = spectral.MaassForm(t=full.t, parity="even",
                                 hecke={n: v for n, v in full.hecke.items() if n != 7})

        def no_weights(*args, **kwargs):
            raise AssertionError("contour weights computed before the gap was found")

        monkeypatch.setattr(spectral, "contour_weights", no_weights)
        with pytest.raises(MissingEigenvalueError, match=r"lambda\(7\)"):
            spectral.afe_pair(gap, 3.0)


class TestRankinSelberg:
    def test_odd_vanishes(self):
        lam = spectral.hecke_fill({2: -1.068333, 3: -0.456197}, 9)
        form = spectral.MaassForm(t=9.5337, parity="odd", hecke=lam, sym2_L1=1.83)
        assert spectral.rankin_selberg_pairing(form, 6.0) == 0.0

    def test_missing_sym2_raises(self, pseudoform):
        with pytest.raises(MissingEigenvalueError):
            spectral.rankin_selberg_pairing(pseudoform, 3.0)

    def test_even_pairing_positive_finite(self, pseudoform):
        form = spectral.MaassForm(t=pseudoform.t, parity="even",
                                  hecke=pseudoform.hecke, sym2_L1=1.05)
        val = spectral.rankin_selberg_pairing(form, 3.0)
        assert np.isfinite(abs(val)) and abs(val) > 0

    def test_stirling_gamma_replacement_stable(self, pseudoform):
        # replacing the completed-L gamma factors by their large-height
        # surrogates moves the magnitude only at the documented 1/t level
        t, T = 13.78, 6.0
        exact = (log_gamma((0.5 + 2j * T + 1j * t) / 2)
                 + log_gamma((0.5 + 2j * T - 1j * t) / 2)
                 + log_gamma((0.5 + 1j * t) / 2) + log_gamma((0.5 - 1j * t) / 2))
        approx = (stirling_gamma_main_log(0.25 + 1j * T, t / 2)
                  + stirling_gamma_main_log(0.25 + 1j * T, -t / 2)
                  + stirling_gamma_main_log(0.25, t / 2)
                  + stirling_gamma_main_log(0.25, -t / 2))
        assert abs(abs(np.exp(approx - exact)) - 1.0) < 10.0 / t


@pytest.fixture(scope="module")
def fixture_forms():
    return spectral.ingest_forms(str(DATA))


@pytest.fixture(scope="module")
def mpmath_zeta_grid():
    """Twice the node density of the continuous term at width 8 (bandwidth 32,
    oversample 16), with mpmath's |zeta(1 + 2it)|^2 at each node."""
    t, w = panel_nodes(0.0, spectral.TestFunction(width=8.0).support_cut, 32.0, 16.0,
                       min_panels=24)
    return t, w, np.array([abs(oracles.hp_zeta(1.0 + 2j * tt)) ** 2 for tt in t])


class TestKuznetsov:
    def test_delta_term_two_resolutions(self, fixture_forms):
        phi = spectral.TestFunction(kind="gaussian", width=8.0)
        vals = []
        for os in (8.0, 16.0):
            n, w = panel_nodes(0.0, phi.support_cut, 8.0, os, min_panels=12)
            vals.append(2.0 * np.sum(w * np.tanh(np.pi * n) * n * phi(n))
                        / (2 * np.pi ** 2))
        assert abs(vals[0] - vals[1]) < 1e-10 * abs(vals[1])

    def test_diagonal_sides(self, fixture_forms):
        phi = spectral.TestFunction(kind="gaussian", width=8.0)
        rep = spectral.kuznetsov_two_sides(1, 1, phi, fixture_forms, c_max=40)
        assert rep.spectral_side > 0 and rep.geometric_side > 0
        # with n = m every missing basis element contributes positively
        assert rep.basis_gap > 0
        assert abs(rep.spectral_side - rep.geometric_side) \
            <= rep.basis_gap + rep.tail_estimate + 1e-12

    def test_off_diagonal_order_of_magnitude(self, fixture_forms):
        phi = spectral.TestFunction(kind="gaussian", width=8.0)
        rep = spectral.kuznetsov_two_sides(1, 2, phi, fixture_forms, c_max=40)
        assert math.copysign(1, rep.spectral_side) == math.copysign(1, rep.geometric_side)
        assert abs(rep.spectral_side) < 10 * abs(rep.geometric_side) + 1.0
        assert abs(rep.geometric_side) < 10 * abs(rep.spectral_side) + 1.0

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 2)])
    def test_continuous_term_against_mpmath_zeta(self, fixture_forms, mpmath_zeta_grid, n, m):
        # the same integral on twice the node density, from mpmath's zeta and
        # tau(k, t) = sum_{ab = k} (a/b)^(it), the divisor-sum definition
        phi = spectral.TestFunction(kind="gaussian", width=8.0)
        rep = spectral.kuznetsov_two_sides(n, m, phi, fixture_forms, c_max=1)
        t, w, zeta_sq = mpmath_zeta_grid

        def tau(k):
            return sum(np.cos(t * math.log(a / (k // a)))
                       for a in range(1, k + 1) if k % a == 0)

        ref = 2.0 * np.sum(w * tau(n) * tau(m) / zeta_sq * phi(t)) / (2.0 * np.pi)
        assert abs(rep.continuous_term - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("width, n, m, cs", [
        # every c <= 50 and every tail-grid point of c_max = 25 and 50; the
        # largest |I| is 0.34
        pytest.param(8.0, 1, 1, CS_TO_50, id="1-1"),
        pytest.param(8.0, 1, 2, CS_TO_50, id="1-2"),
        # t_max = 126: the widest phases of the real and vertical legs
        pytest.param(20.0, 1, 1, (1, 3, 40), id="width20"),
    ])
    def test_contracted_transform_matches_per_c_kernel(self, width, n, m, cs):
        # on the t nodes and weights of a call whose largest c is max(cs)
        phi = spectral.TestFunction(kind="gaussian", width=width)
        root = math.sqrt(n * m)
        ts, a = spectral._kernel_weights(phi, root / max(cs))
        xs = root / np.array(cs, dtype=float)
        got = kuznetsov_kernel_transform(xs, ts, a)
        ref = np.array([a @ kuznetsov_kernel_even_many(x, ts) for x in xs])
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_contracted_transform_horizontal_legs(self):
        # Gaussian weights of width 1.5 or more leave both horizontal legs
        # below 1e-19, so the test above cannot see them.  Flat weights on
        # t <= 5 give every x both legs, carrying up to 1e-11 and 7.5e-5.
        ts, a = panel_nodes(0.0, 5.0, 10.0, 8.0)
        xs = 1.0 / np.array([1.0, 3.0, 40.0])
        got = kuznetsov_kernel_transform(xs, ts, a)
        ref = np.array([a @ kuznetsov_kernel_even_many(x, ts) for x in xs])
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_tail_monotone_under_doubling(self, fixture_forms):
        phi = spectral.TestFunction(kind="gaussian", width=8.0)
        tails = [spectral.kuznetsov_two_sides(1, 1, phi, fixture_forms,
                                              c_max=c).tail_estimate
                 for c in (25, 50)]
        assert tails[1] <= tails[0]


class TestBesselTransform:
    def test_linearity(self):
        class Doubled(spectral.ZWindow):
            def __call__(self, u):
                return 2.0 * super().__call__(u)

        base = spectral.bessel_transform_check(1600.0, 40.0, 0.009)
        dbl = spectral.bessel_transform_check(
            1600.0, 40.0, 0.009, Doubled(alpha=0.009, T=40.0))
        assert dbl.direct == pytest.approx(2 * base.direct, rel=1e-10)
        assert dbl.stationary_phase == pytest.approx(2 * base.stationary_phase, rel=1e-10)

    def test_stationary_phase_regime(self):
        res = spectral.bessel_transform_check(1600.0, 40.0, 0.009)
        # both sides are purely imaginary and agree within the envelope
        assert abs(res.direct.real) < 1e-10 * abs(res.direct)
        assert res.fitted_constant < 100.0
        assert res.difference < 0.01 * abs(res.direct)

    def test_small_argument_suppression(self):
        Z = spectral.ZWindow(alpha=0.0099, T=1000.0, kind="gaussian_core", sigma=0.0298)
        res = spectral.bessel_transform_check(1000.0, 1000.0, 0.0099, Z)
        assert abs(res.stationary_phase) < 1e-8 * res.scale
        assert abs(res.direct) < 1e-8 * res.scale


class TestDiagonal:
    def test_bracket_rate(self):
        devs = {T: abs(spectral.bracket_factor(T) - 2.0) for T in (100.0, 400.0)}
        assert devs[100.0] <= 10.0 / 100.0
        assert devs[400.0] <= 10.0 / 400.0
        # documented O(1/T): roughly 4x reduction per 4x height
        assert 2.5 <= devs[100.0] / devs[400.0] <= 6.0

    def test_total_diagonal_trend(self):
        devs = {}
        for T in (50.0, 400.0):
            bump = weights.Bump(B=2.0, alpha=0.009, T=T)
            d = spectral.diagonal_main_terms(T, bump)
            devs[T] = abs(abs(d.total) / d.prediction - 1.0)
        assert devs[400.0] < 0.2
        assert devs[400.0] < devs[50.0]

    def test_assembly_collapses_to_bracket(self):
        T = 100.0
        bump = weights.Bump(B=2.0, alpha=0.009, T=T)
        d = spectral.diagonal_main_terms(T, bump)
        expected = bump.hhat0 * (12.0 / math.pi) * math.log(T) ** 2 * d.bracket_factor
        assert d.total == pytest.approx(expected, rel=1e-10)
