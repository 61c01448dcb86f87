"""Maass-form handling, AFE central values, trace-formula diagnostics."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from eislab import arith, oracles, quadrature, spectral, weights
from eislab.errors import DomainError, MissingEigenvalueError, ValidationError
from eislab.quadrature import edge_nodes, panel_edges, panel_nodes
from eislab.specfun import kuznetsov_kernel_even_many, kuznetsov_kernel_transform, zeta

DATA = Path(__file__).resolve().parents[1] / "data" / "maass_forms.csv"
CS_TO_50 = tuple(sorted(set(range(1, 51))
                        | {c for c in (math.ceil(8 * 1.2 ** k) for k in range(40))
                           if 25 < c <= 800}))


@pytest.fixture(scope="module")
def pseudoform():
    return spectral.divisor_pseudoform(13.78, 120_000)


def _ingest_rows(tmp_path, rows):
    """ingest_forms on a CSV file holding rows of (t, parity, n, lambda)."""
    path = tmp_path / "forms.csv"
    path.write_text("t,parity,n,lambda\n" + "".join(f"{t},{p},{n},{v}\n" for t, p, n, v in rows))
    return spectral.ingest_forms(str(path))


class TestIngest:
    def test_file_that_is_not_utf8_is_a_validation_error(self, tmp_path):
        path = tmp_path / "forms.csv"
        path.write_bytes(b"t,parity,n,lambda\n\xff\xfe9.53,even,1,1.0\n")
        with pytest.raises(ValidationError, match="not UTF-8"):
            spectral.ingest_forms(str(path))

    def test_fixture_file_accepted(self):
        forms = spectral.ingest_forms(str(DATA))
        assert len(forms) == 2
        parities = {f.parity for f in forms}
        assert parities == {"even", "odd"}
        for f in forms:
            assert f.hecke[1] == 1.0
            assert f.sym2_L1 is not None

    def test_synthetic_multiplicative_accepted(self, tmp_path):
        forms = _ingest_rows(tmp_path, [(7.7, "even", n, repr(arith.tau_gen(n, 1.3)))
                                        for n in range(1, 13)])
        assert max(forms[0].hecke) == 12
        # relation residual is identically zero on multiplicative data
        assert arith.hecke_relation_check(forms[0].hecke, 2, 3) < 1e-12

    def test_lambda_one_required(self, tmp_path):
        with pytest.raises(ValidationError):
            _ingest_rows(tmp_path, [(5.0, "even", 1, 0.9)])

    def test_hecke_violation_rejected(self, tmp_path):
        rows = [(5.0, "even", n, v) for n, v in [(1, 1.0), (2, 1.5), (3, 0.2), (4, 0.0), (6, 0.3)]]
        with pytest.raises(ValidationError):
            _ingest_rows(tmp_path, rows)

    def test_duplicate_last_write_wins(self, tmp_path):
        rows = [(5.0, "even", 1, 1.0), (5.0, "even", 2, 0.7), (5.0, "even", 2, 0.8)]
        with pytest.warns(UserWarning, match="duplicate"):
            forms = _ingest_rows(tmp_path, rows)
        assert forms[0].hecke[2] == 0.8

    def test_csv_text_roundtrip(self, tmp_path):
        forms = _ingest_rows(tmp_path, [(5.5, "odd", 1, 1.0), (5.5, "odd", 2, -0.4)])
        assert forms[0].parity == "odd"
        assert forms[0].eigenvalue(2) == -0.4

    @pytest.mark.parametrize("make_dir", [False, True], ids=["missing", "directory"])
    def test_unreadable_path_is_a_validation_error(self, tmp_path, make_dir):
        path = tmp_path / "forms"
        if make_dir:
            path.mkdir()
        with pytest.raises(ValidationError, match=re.escape(f"cannot read Maass-form file {path}")):
            spectral.ingest_forms(str(path))


class TestValidate:
    N = 2000
    LAST = (44, 45)  # the largest checked pair: 44 * 46 and 45 * 45 exceed N

    def test_checks_every_pair_n_le_m_with_nm_le_N_once(self, monkeypatch):
        seen = []
        check = arith.hecke_relation_check

        def counted(eig, n, m):
            seen.append((n, m))
            return check(eig, n, m)

        monkeypatch.setattr(arith, "hecke_relation_check", counted)
        spectral.divisor_pseudoform(13.78, self.N).validate()
        # the pairs of a loop over all stored (n, m), skipping n > m and n m > N
        pairs = {(n, m) for n in range(1, self.N + 1) for m in range(n, self.N // n + 1)}
        assert len(seen) == len(set(seen)) == len(pairs)
        assert set(seen) == pairs and seen[-1] == self.LAST

    def test_corruption_at_the_largest_pair_raises(self):
        form = spectral.divisor_pseudoform(13.78, self.N)
        n, m = self.LAST
        form.hecke[n * m] += 1e-3
        with pytest.raises(ValidationError):
            form.validate()
        # with the other relations on lambda(1980) unavailable, only (44, 45) can see it
        sparse = spectral.MaassForm(t=form.t, parity="even",
                                    hecke={k: form.hecke[k] for k in (1, n, m, n * m)})
        with pytest.raises(ValidationError, match=r"\(n,m\)=\(44,45\)"):
            sparse.validate()

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ValidationError, match="not positive"):
            spectral.MaassForm(t=5.0, parity="even", hecke={-2: 0.5, 1: 1.0}).validate()


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

    def test_odd_form_finite(self):
        # odd parity selects the shifted gamma data; the sum stays finite.
        # Hecke-exact eigenvalues: the divisor pseudoform's, read as odd
        lam = spectral.divisor_pseudoform(9.5337, 60_000).hecke
        form = spectral.MaassForm(t=9.5337, parity="odd", hecke=lam)
        val = spectral.afe_pair(form, 3.0, tail_tol=1e-6)
        assert np.isfinite(abs(val))

    def test_short_odd_form_guarded(self):
        lam = spectral.divisor_pseudoform(9.5337, 10).hecke
        form = spectral.MaassForm(t=9.5337, parity="odd", hecke=lam)
        with pytest.raises(MissingEigenvalueError):
            spectral.afe_pair(form, 3.0)  # demo form is far too short

    def test_insufficient_eigenvalues_guarded(self):
        short = spectral.divisor_pseudoform(13.78, 50)
        with pytest.raises(MissingEigenvalueError):
            spectral.afe_pair(short, 3.0)

    @pytest.mark.parametrize("T", [3.0, 10.0])
    @pytest.mark.parametrize("tail_tol", [1e-7, 1e-10])
    def test_weight_table_matches_contour_sums(self, T, tail_tol):
        # the tables span [0, log n_need]: one spanning half of it, clipped
        # past its end, misses the weights at every x > sqrt(n_need)
        t, a = 13.78, 0.5
        n_need = int(spectral.afe_cutoff(t, T, a, tail_tol))
        direct = weights.contour_weights(np.arange(1, n_need + 1), t, T, a, 1.0)
        for table, ref in zip(spectral._afe_weights(n_need, t, T, a, 1.0), direct):
            assert np.max(np.abs(table - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("T", [3.0, 10.0])
    def test_double_sum_matches_a_loop_over_k(self, pseudoform, T):
        # the one gather over every k^2 n <= n_need against a sum per k on the
        # same weights; only the summation order differs
        t, a = pseudoform.t, 0.5
        n_need = int(spectral.afe_cutoff(t, T, a, 1e-7))
        vp, vm = spectral._afe_weights(n_need, t, T, a, 1.0)
        xs = np.arange(1, n_need + 1)
        coef = pseudoform.eigenvalues(n_need) * arith.tau_gen_many(n_need, T)[1:] \
            * np.exp((-0.5 + 1j * T) * np.log(xs))
        ref, scale = 0.0, 0.0
        for k in range(1, math.isqrt(n_need) + 1):
            m = n_need // (k * k)
            at = k * k * xs[:m] - 1
            kf = np.exp((-1.0 + 2j * T) * math.log(k)) * coef[:m]
            terms = np.concatenate([kf * vp[at], np.conj(kf) * vm[at]])
            ref += np.sum(terms)
            scale += np.sum(np.abs(terms))
        assert abs(spectral.afe_pair(pseudoform, T) - ref) <= 1e-14 * scale

    @pytest.mark.parametrize("T", [3.0, 10.0])
    @pytest.mark.parametrize("tail_tol", [1e-7, 1e-10])
    def test_weight_table_sums_each_level_once(self, monkeypatch, T, tail_tol):
        # one contour sum per table level for both signs, and no panel sampled
        # twice: each sampled panel is kept or bisected once, so a table grown
        # from 4 seed panels to P sampled 2 P - 4 of them
        calls, tables = [], []

        def counted(xs, *args):
            calls.append(np.size(xs))
            return weights.contour_weights(xs, *args)

        class Recorded(quadrature.ChebyshevTable):
            def __init__(self, f, edges):
                super().__init__(f, edges)
                tables.append(self)

        monkeypatch.setattr(spectral, "contour_weights", counted)
        monkeypatch.setattr(spectral, "ChebyshevTable", Recorded)
        n_need = int(spectral.afe_cutoff(13.78, T, 0.5, tail_tol))
        spectral._afe_weights(n_need, 13.78, T, 0.5, 1.0)
        table, = tables
        panels = np.diff(table.edges)
        levels = 1 + round(math.log2(math.log(n_need) / 4 / panels.min()))
        assert len(calls) == levels
        assert sum(calls) == 25 * (2 * panels.size - 4)

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


@pytest.fixture(scope="module")
def fixture_forms():
    return spectral.ingest_forms(str(DATA))


@pytest.fixture(scope="module")
def mpmath_zeta_grid():
    """Twice the node density of the continuous term at width 8 (bandwidth 32,
    oversample 16), with mpmath's |zeta(1 + 2it)|^2 at each node."""
    t, w = edge_nodes(panel_edges(0.0, spectral.TestFunction(width=8.0).support_cut, 32.0,
                                  16.0, 24))
    return t, w, np.array([abs(oracles.hp_zeta(1.0 + 2j * tt)) ** 2 for tt in t])


class TestKuznetsov:
    def test_delta_term_two_resolutions(self, fixture_forms):
        phi = spectral.TestFunction(kind="gaussian", width=8.0)
        vals = []
        for os in (8.0, 16.0):
            n, w = edge_nodes(panel_edges(0.0, phi.support_cut, 8.0, os, 12))
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

    def test_contracted_transform_flat_weights_small_t(self):
        # at t_max = 5 the pi t_max + 50 term sets the rotation point (65.7,
        # against 4 t_max = 20), and flat weights, unlike the Gaussians
        # above, keep t near t_max at full size: where ending the contour at
        # s1 + i pi/2 would leave the most behind if that term were too small
        ts, a = panel_nodes(0.0, 5.0, 10.0)
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

    def test_tail_is_sampled_at_large_c_max(self, monkeypatch):
        # the tail grid runs past 16 c_max: one that stopped at c = 9,799 left
        # (c_max, 16 c_max] empty from c_max = 9,799 on, and the tail read 0.0.
        # A Kloosterman series of one term keeps the call cheap
        monkeypatch.setattr(spectral.arith, "kloosterman",
                            lambda n, m, c: 1.0 if c == 1 else 0.0)
        phi = spectral.TestFunction(kind="gaussian", width=8.0)
        assert spectral.kuznetsov_two_sides(1, 1, phi, [], c_max=10_000).tail_estimate > 0.0

    @pytest.mark.parametrize("width", [-8.0, 0.0, math.nan, math.inf])
    def test_test_function_width_must_be_finite_and_positive(self, width):
        with pytest.raises(DomainError, match="width"):
            spectral.TestFunction(width=width)

    @pytest.mark.parametrize("c_max", [0, -3])
    def test_c_max_below_one_rejected(self, fixture_forms, c_max):
        phi = spectral.TestFunction(width=8.0)
        with pytest.raises(DomainError, match="c_max"):
            spectral.kuznetsov_two_sides(1, 1, phi, fixture_forms, c_max=c_max)


class TestKuznetsovTermCache:
    """The continuous and delta terms are computed once per (n, m, phi)."""

    @pytest.fixture
    def zeta_calls(self, monkeypatch):
        calls = []

        def counted(s):
            calls.append(np.size(s))
            return zeta(s)

        spectral._c_max_free_terms.cache_clear()
        monkeypatch.setattr(spectral, "zeta", counted)
        yield calls
        spectral._c_max_free_terms.cache_clear()

    def test_another_c_max_makes_no_zeta_call(self, fixture_forms, zeta_calls):
        phi = spectral.TestFunction(width=8.0)
        spectral.kuznetsov_two_sides(1, 1, phi, fixture_forms, c_max=5)
        assert len(zeta_calls) == 1
        spectral.kuznetsov_two_sides(1, 1, phi, fixture_forms, c_max=10)
        assert len(zeta_calls) == 1

    def test_cached_terms_are_bit_identical(self, fixture_forms, zeta_calls):
        phi = spectral.TestFunction(width=8.0)
        first = spectral.kuznetsov_two_sides(1, 1, phi, fixture_forms, c_max=5)
        cached = spectral.kuznetsov_two_sides(1, 1, phi, fixture_forms, c_max=10)
        spectral._c_max_free_terms.cache_clear()
        fresh = spectral.kuznetsov_two_sides(1, 1, phi, fixture_forms, c_max=10)
        assert len(zeta_calls) == 2
        for rep in (first, cached):
            assert rep.continuous_term == fresh.continuous_term
            assert rep.delta_term == fresh.delta_term
        assert cached.spectral_side == fresh.spectral_side
        assert cached.geometric_side == fresh.geometric_side

    @pytest.mark.parametrize("n, m, width", [(1, 1, 8.5), (1, 2, 8.0), (2, 1, 8.0)])
    def test_another_key_calls_zeta(self, fixture_forms, zeta_calls, n, m, width):
        spectral.kuznetsov_two_sides(1, 1, spectral.TestFunction(width=8.0), fixture_forms,
                                     c_max=5)
        spectral.kuznetsov_two_sides(n, m, spectral.TestFunction(width=width), fixture_forms,
                                     c_max=5)
        assert len(zeta_calls) == 2


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
