"""Eisenstein series evaluation: reduction, automorphy, reality, truncation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eislab.eisenstein import (
    ChebyshevTable,
    EisensteinEvaluator,
    Point,
    RealSEvaluator,
    SpectralSetup,
    apply_matrix,
    lattice_sum_reference,
    moment_y_max,
    reduce,
)
from eislab.errors import ConvergenceError, DomainError
from eislab.specfun import bessel_k_scaled, xi_log

from helpers import eval_E_independent


class TestReduce:
    def test_already_reduced(self):
        p, mat = reduce(Point(0.1, 2.0))
        assert (p.x, p.y) == (0.1, 2.0)
        assert mat == ((1, 0), (0, 1))

    def test_translate_and_invert(self):
        z = Point(1.3, 0.9)
        p, mat = reduce(z)
        assert abs(p.x) <= 0.5 + 1e-12
        assert p.x * p.x + p.y * p.y >= 1 - 1e-12
        back = apply_matrix(mat, z)
        assert back.x == pytest.approx(p.x, abs=1e-12)
        assert back.y == pytest.approx(p.y, abs=1e-12)

    def test_boundary_wrap(self):
        p, _ = reduce(Point(0.5000001, 5.0))
        assert p.x == pytest.approx(-0.4999999, abs=1e-12)

    @given(st.floats(-8.0, 8.0), st.floats(0.05, 9.0))
    @settings(max_examples=60)
    def test_matrix_determinant_and_region(self, x, y):
        p, ((a, b), (c, d)) = reduce(Point(x, y))
        assert a * d - b * c == 1
        assert abs(p.x) <= 0.5 + 1e-12
        assert p.x ** 2 + p.y ** 2 >= 1 - 1e-12


@pytest.fixture(scope="module")
def ev10():
    return EisensteinEvaluator(SpectralSetup(T=10.0, A=2.0))


class TestEvalE:
    def test_automorphy(self, ev10):
        z = Point(0.2, 1.4)
        v = ev10.eval_E(z)
        assert ev10.eval_E(Point(z.x + 1.0, z.y)) == pytest.approx(v, rel=1e-8)
        w = -1.0 / z.z
        assert ev10.eval_E(Point(w.real, w.imag)) == pytest.approx(v, rel=1e-8)

    def test_random_group_words(self, ev10):
        rng = np.random.default_rng(7)
        z0 = Point(0.17, 1.21)
        ref = ev10.eval_E(z0)
        for _ in range(10):
            z = z0.z
            for _ in range(rng.integers(1, 6)):
                if rng.random() < 0.5:
                    z = z + rng.integers(-2, 3)
                else:
                    z = -1.0 / z
            got = ev10.eval_E(Point(z.real, z.imag))
            assert got == pytest.approx(ref, rel=1e-8)

    def test_reality_of_normalized_series(self):
        T = 25.0
        ev = EisensteinEvaluator(SpectralSetup(T=T, A=2.0))
        xiv = np.exp(xi_log(1 + 2j * T))
        rng = np.random.default_rng(11)
        for _ in range(20):
            p, _ = reduce(Point(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 6.0)))
            val = xiv * ev.eval_E(p)
            assert abs(val.imag) < 1e-8 * abs(val)

    def test_against_independent_reimplementation(self, ev10):
        for (x, y) in [(0.0, 1.0), (0.31, 1.7), (-0.2, 4.4)]:
            ref = eval_E_independent(Point(x, y), 10.0)
            assert ev10.eval_E(Point(x, y)) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("T", [10.0, 50.0, 150.0])
    def test_fourier_cutoff_soundness(self, T):
        # doubling the cutoff (and doubling the kernel resolution) moves
        # nothing at the 1e-10 level; 17 points per height, ~50 overall
        ev = EisensteinEvaluator(SpectralSetup(T=T, A=2.0))
        rng = np.random.default_rng(int(T))
        for _ in range(17):
            p = Point(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 5.0))
            v = ev.eval_E(p)
            ref = eval_E_independent(p, T, extra_margin=2.0, oversample=16.0)
            assert abs(v - ref) <= 1e-10 * abs(ref)


class TestBesselTable:
    @pytest.mark.parametrize("T", [3.0, 10.0, 50.0, 104.0, 106.0, 150.0, 200.0])
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

    def test_jump_raises_instead_of_bisecting_forever(self):
        assert ChebyshevTable(np.sin, 1.0, 2.0)(np.array([1.5]))[0] == \
            pytest.approx(math.sin(1.5), abs=1e-14)
        with pytest.raises(ConvergenceError):
            ChebyshevTable(lambda u: (u > 1.3).astype(float), 1.0, 2.0)

    @pytest.mark.parametrize("y", [0.8, 20.0])
    def test_rows_off_the_moment_grid_use_the_scalar_kernel(self, y):
        # sqrt(3)/2 = 0.866 and moment_y_max = 15.4 bound the table's rows
        ev = EisensteinEvaluator(SpectralSetup(T=10.0, A=2.0))
        got = ev._mode_coefficients(y)
        assert ev._k_table is None
        ns = np.arange(1, ev.n_max(y) + 1)
        ks = np.array([bessel_k_scaled(10.0, 2.0 * math.pi * n * y) for n in ns])
        assert np.array_equal(got, ev.mode_prefactor * math.sqrt(y) * ev._tau[1:len(ns) + 1] * ks)


class TestTruncation:
    def test_below_cut_equal(self, ev10):
        z = Point(0.13, 1.99)
        assert ev10.eval_E_trunc(z) == ev10.eval_E(z)

    def test_above_cut_subtracts(self, ev10):
        z = Point(0.13, 2.01)
        expected = ev10.eval_E(z) - ev10.constant_term(z.y)
        assert ev10.eval_E_trunc(z) == pytest.approx(expected, rel=1e-12)

    def test_one_sided_limits_differ_by_constant_term(self, ev10):
        eps = 1e-9
        below = ev10.eval_E_trunc(Point(0.2, 2.0 - eps))
        above = ev10.eval_E_trunc(Point(0.2, 2.0 + eps))
        jump = below - above
        assert jump == pytest.approx(ev10.constant_term(2.0), rel=1e-6)

    def test_deep_tail_decay(self, ev10):
        assert abs(ev10.eval_E_trunc(Point(0.3, 22.0))) < 1e-15

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


class TestWindowFunction:
    def test_zero_below_cut(self, ev10):
        assert ev10.eval_H_A(Point(0.1, 1.5)) == 0.0

    def test_composition_above_cut(self, ev10):
        z = Point(0.1, 2.5)
        expected = 2.0 * ev10.constant_term(2.5) * ev10.eval_E_trunc(z)
        assert ev10.eval_H_A(z) == pytest.approx(expected, rel=1e-12)

    def test_orthogonal_to_constants(self, ev10):
        # zero-th Fourier mode of the window vanishes above the cut
        y = 3.0
        xs, w = np.polynomial.legendre.leggauss(120)
        xs = 0.5 * xs
        vals = ev10.eval_row_H_A(y, xs)
        integral = np.sum(0.5 * w * vals)
        scale = np.max(np.abs(vals)) + 1e-30
        assert abs(integral) < 1e-12 * scale


class TestRealS:
    def test_matches_lattice_sum_high_y(self):
        ev = RealSEvaluator(2.0)
        z = Point(0.3, 10.0)
        got = ev.eval_row(10.0, [0.3])[0].real
        ref = lattice_sum_reference(z, 2.0)
        # the lattice tail at bound 120 is ~4e-6 relative
        assert got == pytest.approx(ref, rel=2e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            RealSEvaluator(0.9)
        with pytest.raises(DomainError):
            Point(0.0, -1.0)


def test_setup_invariants():
    with pytest.raises(ValueError):
        SpectralSetup(T=10.0, A=0.9)
    with pytest.raises(ValueError):
        SpectralSetup(T=0.0, A=2.0)
    with pytest.raises(ValueError):
        SpectralSetup(T=-1.0, A=2.0)


def test_cutoff_margin_invariant():
    ev = EisensteinEvaluator(SpectralSetup(T=50.0, A=2.0))
    margin = 10 * 50.0 ** (1 / 3) + 40.0
    for y in (0.9, 1.5, 4.0):
        assert ev.n_max(y) >= (50.0 + margin) / (2 * math.pi * y) - 1
