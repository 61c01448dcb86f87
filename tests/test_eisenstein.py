"""Eisenstein series evaluation: automorphy, reality, truncation."""

import math

import numpy as np
import pytest
from scipy.special import jv

from eislab import eisenstein, moments, quadrature
from eislab.eisenstein import (
    EisensteinEvaluator,
    RealSEvaluator,
    SpectralSetup,
    cosine_series,
    moment_y_max,
)
from eislab.errors import ConvergenceError, DomainError
from eislab.quadrature import ChebyshevTable
from eislab.specfun import DEFAULT_POLICY, bessel_k_scaled, xi_log

from helpers import eval_E_independent, lattice_sum_reference, truncated_value


@pytest.fixture(scope="module")
def ev10():
    return EisensteinEvaluator(SpectralSetup(T=10.0, A=2.0))


# gamma z for z = 0.2 + 1.4i: inversions, some translated, at y = 0.41-0.7,
# below the fundamental domain, where the rows come from the Bessel kernel
# itself and not from the moment grid's table
AUTOMORPHY_Z = complex(0.2, 1.4)
GROUP_WORDS = [lambda z: -1 / z, lambda z: -1 / (z + 1), lambda z: -1 / (z - 1) + 1,
               lambda z: -1 / (z + 1) - 2, lambda z: 1 - 1 / z]


def point_value(ev, z: complex) -> complex:
    """E(z, 1/2 + iT) at an unreduced point, from its row."""
    return complex(ev.eval_row(z.imag, [z.real])[0])


def automorphy_defect(ev) -> float:
    """Worst |E(gamma z) - E(z)| / |E(z)| over GROUP_WORDS."""
    ref = point_value(ev, AUTOMORPHY_Z)
    return max(abs(point_value(ev, g(AUTOMORPHY_Z)) - ref) for g in GROUP_WORDS) / abs(ref)


class TestEvalE:
    def test_automorphy(self):
        # measured 5.3e-14 at T = 10 and 1.1e-13 at T = 50
        for T in (10.0, 50.0):
            assert automorphy_defect(EisensteinEvaluator(SpectralSetup(T=T, A=2.0))) < 1e-11

    @pytest.mark.parametrize("attr", ["scattering_c", "mode_prefactor"])
    def test_automorphy_fails_on_a_perturbed_evaluator(self, attr):
        # a phase error of 1e-6 moves the defect to 5.6e-7-1.2e-5
        for T in (10.0, 50.0):
            ev = EisensteinEvaluator(SpectralSetup(T=T, A=2.0))
            setattr(ev, attr, getattr(ev, attr) * np.exp(1e-6j))
            assert automorphy_defect(ev) > 1e-7

    def test_random_group_words(self, ev10):
        # words of length 1-5 reach y = 0.064-1.21; measured worst 4.9e-14
        rng = np.random.default_rng(7)
        z0 = complex(0.17, 1.21)
        ref = point_value(ev10, z0)
        for _ in range(10):
            z = z0
            for _ in range(rng.integers(1, 6)):
                if rng.random() < 0.5:
                    z = z + rng.integers(-2, 3)
                else:
                    z = -1.0 / z
            assert abs(point_value(ev10, z) - ref) < 1e-11 * abs(ref)

    def test_reality_of_normalized_series(self):
        T = 25.0
        ev = EisensteinEvaluator(SpectralSetup(T=T, A=2.0))
        xiv = np.exp(xi_log(1 + 2j * T))
        rng = np.random.default_rng(11)
        for _ in range(20):
            val = xiv * point_value(ev, complex(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 6.0)))
            assert abs(val.imag) < 1e-8 * abs(val)

    def test_against_independent_reimplementation(self, ev10):
        for (x, y) in [(0.0, 1.0), (0.31, 1.7), (-0.2, 4.4)]:
            ref = eval_E_independent(x, y, 10.0)
            assert point_value(ev10, complex(x, y)) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("T", [10.0, 50.0, 150.0])
    def test_fourier_cutoff_soundness(self, T):
        # doubling the cutoff (and doubling the kernel resolution) moves
        # nothing at the 1e-10 level; 17 points per height, ~50 overall
        ev = EisensteinEvaluator(SpectralSetup(T=T, A=2.0))
        rng = np.random.default_rng(int(T))
        for _ in range(17):
            x, y = rng.uniform(-0.5, 0.5), rng.uniform(0.9, 5.0)
            v = point_value(ev, complex(x, y))
            ref = eval_E_independent(x, y, T, extra_margin=2.0, oversample=16.0)
            assert abs(v - ref) <= 1e-10 * abs(ref)


class TestBesselTable:
    @pytest.mark.parametrize("T", [3.0, 10.0, 50.0, 104.0, 106.0, 150.0, 200.0, 250.0])
    def test_table_matches_scalar_kernel(self, T):
        # T = 104 and 106 straddle the height where the kernel's horizontal
        # contour leg drops out
        ev = EisensteinEvaluator(SpectralSetup(T=T, A=2.0))
        ev.eval_row(1.0, [0.0])
        table = ev._k_table
        lo, hi = table.edges[0], table.edges[-1]
        assert lo == pytest.approx(math.pi * math.sqrt(3), rel=1e-15)
        assert hi == ev.cutoff_margin + 2 * math.pi * moment_y_max(ev.setup)
        us = np.random.default_rng(int(T)).uniform(lo, hi, 1000)
        ref = np.array([bessel_k_scaled(T, u) for u in us])
        assert np.max(np.abs(table(us) - ref)) <= 1e-13 * table.peak

    @pytest.mark.parametrize("T", [10.0, 50.0])
    def test_seeded_table_samples_little_beyond_its_kept_panels(self, T, monkeypatch):
        # the WKB seed leaves few panels to bisect: unseeded, each split
        # panel was sampled and thrown away, about 2 samples per kept point
        sampled = []

        def counted(T, u, policy=DEFAULT_POLICY):
            sampled.append(np.size(u))
            return bessel_k_scaled(T, u, policy)

        monkeypatch.setattr(eisenstein, "bessel_k_scaled", counted)
        ev = EisensteinEvaluator(SpectralSetup(T=T, A=2.0))
        ev.row_coefficients(1.0)
        assert sum(sampled) <= 1.25 * 25 * (len(ev._k_table.edges) - 1)

    def test_wavelength_constant_meets_the_stop_rule(self):
        # a degree-24 fit of e^(i z t) on [-1, 1] has last coefficient
        # moduli 2 |J_22(z)|, 2 |J_23(z)|, 2 |J_24(z)|
        assert 2 * abs(jv(22, quadrature._CHEB_Z)) == pytest.approx(1e-14, rel=1e-3)

    def test_jump_raises_instead_of_bisecting_forever(self):
        assert ChebyshevTable(np.sin, [1.0, 2.0])(np.array([1.5]))[0] == \
            pytest.approx(math.sin(1.5), abs=1e-14)
        assert ChebyshevTable(np.sin, [1.0, 1.2, 2.0])(np.array([1.5]))[0] == \
            pytest.approx(math.sin(1.5), abs=1e-14)
        with pytest.raises(ConvergenceError):
            ChebyshevTable(lambda u: (u > 1.3).astype(float), [1.0, 2.0])

    @pytest.mark.parametrize("y", [0.8, 20.0])
    def test_rows_off_the_moment_grid_use_the_scalar_kernel(self, y):
        # sqrt(3)/2 = 0.866 and moment_y_max = 15.4 bound the table's rows
        ev = EisensteinEvaluator(SpectralSetup(T=10.0, A=2.0))
        got = ev.row_coefficients(y)[ev.n_max(y) + 1:]
        assert ev._k_table is None
        ns = np.arange(1, ev.n_max(y) + 1)
        ks = np.array([bessel_k_scaled(10.0, 2.0 * math.pi * n * y) for n in ns])
        assert np.array_equal(got, ev.mode_prefactor * math.sqrt(y) * ev._tau[1:len(ns) + 1] * ks)


    def test_batched_rows_are_the_scalar_rows_zero_padded(self):
        # one call across the table's range, with rows off it on both sides
        ev = EisensteinEvaluator(SpectralSetup(T=10.0, A=2.0))
        ys = np.array([0.8, 0.87, 1.0, 1.99, 2.01, 5.0, 20.0])
        rows = ev.row_coefficients(ys)
        K = rows.shape[1] // 2
        assert K == ev.n_max(0.8)
        for y, row in zip(ys, rows):
            k = ev.n_max(y)
            assert np.array_equal(row[K - k:K + k + 1], ev.row_coefficients(y))
            assert not np.any(row[:K - k]) and not np.any(row[K + k + 1:])


class TestTruncation:
    @pytest.mark.parametrize("ev", [EisensteinEvaluator(SpectralSetup(T=10.0, A=2.0)),
                                    RealSEvaluator(2.0)], ids=["critical", "real_s"])
    def test_sharp_cut_rows_are_E_rows_with_c0_zeroed_above_A(self, ev):
        # the evaluators return E's row at every height, c_0 = e(y) above A too;
        # the sharp cut takes each row once, with weight 1
        ys = np.array([1.99, 2.0, 2.01, 22.0])
        c = ev.row_coefficients(ys)
        K = c.shape[1] // 2
        assert np.array_equal(c[:, K], ev.constant_term(ys))
        rows, w, idx = moments._cut_rows(c, moments._sharp_cut(2.0)(ys), 1.0)
        assert np.array_equal(np.sort(idx), np.arange(len(ys))) and np.all(w == 1.0)
        expected = c.copy()
        expected[ys > 2.0, K] = 0.0
        assert np.array_equal(rows, expected[idx])

    def test_below_cut_equal(self, ev10):
        assert truncated_value(ev10, 0.13, 1.99, 2.0) == point_value(ev10, complex(0.13, 1.99))

    def test_above_cut_subtracts(self, ev10):
        expected = point_value(ev10, complex(0.13, 2.01)) - ev10.constant_term(2.01)
        assert truncated_value(ev10, 0.13, 2.01, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_one_sided_limits_differ_by_constant_term(self, ev10):
        eps = 1e-9
        below, above = (truncated_value(ev10, 0.2, y, 2.0) for y in (2.0 - eps, 2.0 + eps))
        jump = below - above
        assert jump == pytest.approx(ev10.constant_term(2.0), rel=1e-6)

    def test_deep_tail_decay(self, ev10):
        assert abs(truncated_value(ev10, 0.3, 22.0, 2.0)) < 1e-15

    def test_constant_term_values(self, ev10):
        c = ev10.scattering_c
        assert ev10.constant_term(1.0) == pytest.approx(1.0 + c, rel=1e-12)
        for y in (0.9, 3.7, 11.0):
            assert abs(ev10.constant_term(y)) <= 2.0 * math.sqrt(y) + 1e-12

    def test_normalized_constant_term_real(self, ev10):
        # xi(1+2iT) e(y) = xi(1+2iT) y^(1/2+iT) + xi(1-2iT) y^(1/2-iT), real
        xiv = np.exp(xi_log(1 + 2j * 10.0))
        for y in (1.3, 2.9, 8.0):
            val = xiv * ev10.constant_term(y)
            assert abs(val.imag) < 1e-10 * abs(val)


class TestRealS:
    def test_matches_lattice_sum_high_y(self):
        ev = RealSEvaluator(2.0)
        got = cosine_series(ev.row_coefficients(10.0), [0.3])[0].real
        ref = lattice_sum_reference(0.3, 10.0, 2.0)
        # the lattice tail at bound 120 is ~4e-6 relative
        assert got == pytest.approx(ref, rel=2e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            RealSEvaluator(0.9)


def test_setup_invariants():
    with pytest.raises(DomainError):
        SpectralSetup(T=10.0, A=0.9)
    with pytest.raises(DomainError):
        SpectralSetup(T=0.0, A=2.0)
    with pytest.raises(DomainError):
        SpectralSetup(T=-1.0, A=2.0)


def test_cutoff_margin_invariant():
    ev = EisensteinEvaluator(SpectralSetup(T=50.0, A=2.0))
    margin = 10 * 50.0 ** (1 / 3) + 40.0
    for y in (0.9, 1.5, 4.0):
        assert ev.n_max(y) >= (50.0 + margin) / (2 * math.pi * y) - 1
