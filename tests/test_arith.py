"""Divisor sums, Kloosterman sums, and related identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eislab import arith
from eislab.errors import DomainError
from eislab.specfun import zeta


class TestTauGen:
    def test_unit(self):
        for g in (0.0, 1.0, 17.77):
            assert arith.tau_gen(1, g) == pytest.approx(1.0)

    def test_divisor_count_at_zero(self):
        assert arith.tau_gen(2, 0.0) == pytest.approx(2.0)
        assert arith.tau_gen(12, 0.0) == pytest.approx(6.0)

    def test_closed_form_four(self):
        g = 0.83
        expected = 1.0 + 2.0 * math.cos(2 * g * math.log(2))
        assert arith.tau_gen(4, g) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(1, 10_000), st.sampled_from([0.1, 1.0, 17.77]))
    @settings(max_examples=60)
    def test_symmetry_and_bound(self, m, g):
        v = arith.tau_gen(m, g)
        assert v == pytest.approx(arith.tau_gen(m, -g), abs=1e-9)
        assert abs(v) <= len(arith.divisors(m)) + 1e-9

    @pytest.mark.parametrize("m", [1, 2, 6, 12])
    def test_array_gamma_matches_scalar(self, m):
        g = np.linspace(-51.0, 51.0, 205)
        vals = arith.tau_gen(m, g)
        assert vals.shape == g.shape
        # to rounding: numpy's vector exp may differ from its scalar one by an ulp
        scalar = np.array([arith.tau_gen(m, x) for x in g])
        assert np.max(np.abs(vals - scalar)) <= 1e-15 * len(arith.divisors(m))

    def test_vectorized_matches_scalar(self):
        g = 3.7
        many = arith.tau_gen_many(50, g)
        for m in (1, 7, 12, 49, 50):
            assert many[m] == pytest.approx(arith.tau_gen(m, g), rel=1e-10)

    @pytest.mark.parametrize("g", [3.7, 13.78])
    def test_sieve_matches_divisor_sums(self, g):
        # isqrt(5000) = 70 splits the sieve: divisors up to 70 are added by
        # one slice each, larger ones by one slice per cofactor.  Every n is
        # checked: primes (4999), squares (4900 = 70^2, 4489), and n whose
        # divisors lie on both sides (4970 = 70 * 71, 71, 5000)
        many = arith.tau_gen_many(5000, g)
        assert many.shape == (5001,)
        for m in range(1, 5001):
            ref = arith.tau_gen(m, g)
            assert abs(many[m] - ref) <= 1e-12 * len(arith.divisors(m)), m


class TestSigma:
    def test_divisor_count(self):
        assert arith.sigma_complex_many(6, 0.0)[6] == pytest.approx(4.0)

    def test_sigma_one(self):
        assert arith.sigma_complex_many(12, 1.0)[12] == pytest.approx(28.0)

    def test_tau_identity(self):
        m, T = 12, 3.7
        lhs = arith.sigma_complex_many(m, 2j * T)[m] * np.exp(-1j * T * math.log(m))
        assert lhs.real == pytest.approx(arith.tau_gen(m, T), rel=1e-10)
        assert abs(lhs.imag) < 1e-10

    @pytest.mark.parametrize("a", [-3.0, 0.5 - 2.0j])
    def test_sieve_matches_divisor_sums(self, a):
        # isqrt(400) = 20 splits the sieve, as in the tau_gen_many test
        many = arith.sigma_complex_many(400, a)
        assert many.shape == (401,)
        for m in range(1, 401):
            ref = sum(complex(d) ** a for d in arith.divisors(m))
            assert abs(many[m] - ref) <= 1e-13 * max(1.0, abs(ref)) * len(arith.divisors(m)), m


class TestKloosterman:
    def test_modulus_one(self):
        assert arith.kloosterman(1, 1, 1) == 1.0

    def test_modulus_two(self):
        assert arith.kloosterman(1, 1, 2) == pytest.approx(1.0)

    def test_brute_force_five(self):
        assert arith.kloosterman(1, 2, 5) == pytest.approx(4 * math.cos(4 * math.pi / 5),
                                                           rel=1e-12)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 200))
    @settings(max_examples=60)
    def test_symmetry_and_weil(self, n, m, c):
        s1 = arith.kloosterman(n, m, c)
        s2 = arith.kloosterman(m, n, c)
        assert s1 == pytest.approx(s2, abs=1e-7)
        weil = len(arith.divisors(c)) * math.sqrt(math.gcd(n, math.gcd(m, c)) * c)
        assert arith.weil_bound(n, m, c) == weil
        assert abs(s1) <= weil + 1e-6

    def test_twisted_multiplicativity(self):
        # S(n, m; c1 c2) = S(n c2bar^2, m; c1) S(n c1bar^2, m; c2), (c1, c2) = 1
        for (c1, c2) in [(3, 4), (5, 7), (4, 9), (5, 17)]:
            for (n, m) in [(1, 1), (2, 3)]:
                c2b = pow(c2, -1, c1)
                c1b = pow(c1, -1, c2)
                lhs = arith.kloosterman(n, m, c1 * c2)
                rhs = (arith.kloosterman(n * c2b * c2b % c1, m, c1)
                       * arith.kloosterman(n * c1b * c1b % c2, m, c2))
                assert lhs == pytest.approx(rhs, abs=1e-6)


def ramanujan_lhs(a: complex, b: complex, s: complex, N: int):
    """Partial sum sum_{n<=N} sigma_a(n) sigma_b(n) / n^s with a tail estimate,
    from ``arith.sigma_complex_many``.

    Requires Re(s) > 1 + max(0, Re a) + max(0, Re b) for absolute convergence
    and N >= 1000.  Returns (value, tail_estimate).
    """
    a, b, s = complex(a), complex(b), complex(s)
    excess = s.real - 1.0 - max(0.0, a.real) - max(0.0, b.real)
    if excess <= 0:
        raise DomainError("ramanujan_lhs needs Re(s) > 1 + max(0,Re a) + max(0,Re b)")
    if N < 1000:
        raise DomainError("ramanujan_lhs needs N >= 1000")
    sa = arith.sigma_complex_many(N, a)[1:]
    sb = arith.sigma_complex_many(N, b)[1:]
    n = np.arange(1, N + 1, dtype=float)
    val = complex(np.sum(sa * sb * np.exp(-s * np.log(n))))
    # |sigma_a sigma_b / n^s| <= d(n)^2 n^(a+ + b+ - Re s); crude integral tail
    logN = math.log(N)
    tail = (logN + 2.0) ** 2 * N ** (1.0 - excess) / excess
    return val, tail


def ramanujan_rhs(a: complex, b: complex, s: complex) -> complex:
    """Ramanujan's identity: zeta(s) zeta(s-a) zeta(s-b) zeta(s-a-b) / zeta(2s-a-b)."""
    a, b, s = complex(a), complex(b), complex(s)
    return (zeta(s) * zeta(s - a) * zeta(s - b) * zeta(s - a - b)
            / zeta(2 * s - a - b))


class TestRamanujan:
    def test_divisor_square_sum(self):
        # a = b = 0, s = 2: matches zeta(2)^4 / zeta(4) within the tail bound
        val, tail = ramanujan_lhs(0.0, 0.0, 2.0, 100_000)
        rhs = ramanujan_rhs(0.0, 0.0, 2.0)
        # frozen oracle value of the zeta product
        assert rhs.real == pytest.approx(6.764520210694614, rel=1e-10)
        assert abs(val - rhs) <= tail

    def test_fast_convergence_s4(self):
        val, _ = ramanujan_lhs(0.0, 0.0, 4.0, 1000)
        rhs = ramanujan_rhs(0.0, 0.0, 4.0)
        assert rhs.real == pytest.approx(1.3666608459360909, rel=1e-10)
        # true tail at N = 1000 is 3.7e-8 (measured against the zeta product)
        assert abs(val - rhs) < 5e-8
        val2, _ = ramanujan_lhs(0.0, 0.0, 4.0, 2000)
        assert abs(val2 - rhs) < 1e-8

    def test_complex_shifts(self):
        T = 5.0
        val, _ = ramanujan_lhs(2j * T, -2j * T, 2.5, 200_000)
        rhs = (zeta(2.5) ** 2 * zeta(2.5 - 2j * T) * zeta(2.5 + 2j * T)) / zeta(5.0)
        assert abs(val - rhs) / abs(rhs) < 1e-6

    def test_convergence_guard(self):
        with pytest.raises(Exception):
            ramanujan_lhs(0.0, 0.0, 0.9, 10_000)


class TestHeckeRelation:
    def _multiplicative_fixture(self, n_max=36):
        # divisor-function-like data is exactly multiplicative
        lam = {n: float(len(arith.divisors(n))) / 1.0 for n in range(1, n_max + 1)}
        # 'd(n)-like' data: lambda(p) = d(p) = 2 satisfies the Hecke recursion
        # for tau(n, 0) = d(n)
        return {n: arith.tau_gen(n, 0.0) for n in range(1, n_max + 1)}

    def test_coprime(self):
        lam = self._multiplicative_fixture()
        assert arith.hecke_relation_check(lam, 2, 3) == pytest.approx(
            abs(lam[2] * lam[3] - lam[6]), abs=0)

    def test_prime_square(self):
        lam = self._multiplicative_fixture()
        assert arith.hecke_relation_check(lam, 2, 2) == pytest.approx(
            abs(lam[2] ** 2 - lam[4] - 1.0), abs=0)

    def test_synthetic_data_exact(self):
        lam = {n: arith.tau_gen(n, 2.31) for n in range(1, 50)}
        for (n, m) in [(2, 3), (2, 2), (6, 4), (7, 7)]:
            assert arith.hecke_relation_check(lam, n, m) < 1e-10

    def test_missing_raises(self):
        from eislab.errors import MissingEigenvalueError
        with pytest.raises(MissingEigenvalueError):
            arith.hecke_relation_check({1: 1.0, 2: 1.5}, 2, 2)


def test_divisors_exhaustive():
    for m in (1, 2, 17, 96, 200, 2 ** 5 * 3 ** 2 * 7, 4999, 4970):
        divs = arith.divisors(m)
        assert divs == [d for d in range(1, m + 1) if m % d == 0]
    with pytest.raises(DomainError):
        arith.divisors(0)
