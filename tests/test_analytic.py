import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from memvec import analytic as A
from memvec.errors import DegenerateCapError, DomainError


class TestRegIncBeta:
    def test_against_scipy_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            a = float(rng.uniform(0.1, 400))
            b = float(rng.uniform(0.1, 400))
            xs = rng.random(40)
            ours = A.reg_inc_beta(xs, a, b)
            ref = sp.betainc(a, b, xs)
            assert np.max(np.abs(ours - ref)) < 1e-10

    def test_frozen_arcsine_value(self):
        # I_{1/4}(1/2, 1/2) = (2/pi) asin(1/2) = 1/3
        assert A.reg_inc_beta(0.25, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_endpoints(self):
        assert A.reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert A.reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            A.reg_inc_beta(0.5, -1.0, 2.0)
        with pytest.raises(DomainError):
            A.reg_inc_beta(1.5, 1.0, 2.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.2, 50.0), st.floats(0.2, 50.0))
    def test_range_and_symmetry(self, x, a, b):
        # makes 1 - x exact, so the identity checked is the one meant
        x = 1.0 - (1.0 - x)
        v = A.reg_inc_beta(x, a, b)
        assert 0.0 <= v <= 1.0
        assert v + A.reg_inc_beta(1.0 - x, b, a) == pytest.approx(1.0, abs=1e-9)


class TestNormal:
    def test_cdf_against_scipy(self):
        xs = np.linspace(-8, 8, 101)
        assert np.max(np.abs(A.std_normal_cdf(xs) - sp.ndtr(xs))) < 1e-15

    def test_cdf_return_types(self):
        for x in (0.3, np.float64(0.3), np.array(0.3), 1):
            assert type(A.std_normal_cdf(x)) is float
        assert A.std_normal_cdf(0.0) == 0.5
        for xs in ([0.3], np.zeros((2, 3)), np.zeros(0)):
            out = A.std_normal_cdf(xs)
            assert isinstance(out, np.ndarray) and out.dtype == np.float64
            assert out.shape == np.shape(xs)

    def test_cdf_infinities_and_nan(self):
        assert A.std_normal_cdf(np.inf) == 1.0
        assert A.std_normal_cdf(-np.inf) == 0.0
        assert math.isnan(A.std_normal_cdf(np.nan))
        out = A.std_normal_cdf(np.array([np.inf, -np.inf, np.nan]))
        assert out[0] == 1.0 and out[1] == 0.0 and np.isnan(out[2])

    def test_run_time_needs_no_scipy_special(self):
        # the cost model is pure stdlib + numpy: a fresh interpreter that
        # evaluates it must not have loaded scipy.special
        code = ("import sys, memvec\n"
                "from memvec import analytic as A\n"
                "A.threshold_for('pinv', 0.5, 50, 1000, 0.01)\n"
                "A.error_rates('sum', 0.3, 0.5, 10, 128)\n"
                "A.expected_cost_ratio('pinv', 10, 128, 0.5, 0.01)\n"
                "print('scipy.special' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(A.__file__).parents[1])] + sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_quantile_against_scipy(self):
        ps = np.concatenate([np.linspace(1e-12, 1 - 1e-12, 201),
                             [1e-15, 1 - 1e-15]])
        assert np.max(np.abs(A.std_normal_quantile(ps) - sp.ndtri(ps))) < 1e-12

    def test_quantile_roundtrip(self):
        xs = np.linspace(-6, 6, 25)
        back = A.std_normal_quantile(A.std_normal_cdf(xs))
        assert np.max(np.abs(back - xs)) < 1e-8

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            A.std_normal_quantile(0.0)
        with pytest.raises(DomainError):
            A.std_normal_quantile(1.0)
        with pytest.raises(DomainError):
            A.std_normal_quantile([0.5, np.nan])


class TestScoreDistribution:
    def test_d2_arcsine_law(self):
        # on the circle F(s) = 1/2 + asin(s/||m||)/pi
        for m_norm in (1.0, 3.0):
            for s in (-0.9, -0.25, 0.0, 0.4, 0.99):
                expect = 0.5 + math.asin(s) / math.pi
                assert A.score_cdf_exact(s * m_norm, m_norm, 2) == pytest.approx(
                    expect, abs=1e-12)

    def test_cdf_matches_pdf_quadrature(self):
        for d, m_norm in ((4, 1.0), (8, 3.0), (33, 1.0)):
            for s in (-0.5 * m_norm, 0.0, 0.3 * m_norm, 0.8 * m_norm):
                mass, _ = quad(A.score_pdf_exact, -m_norm, s, args=(m_norm, d),
                               epsabs=1e-12, limit=200)
                assert A.score_cdf_exact(s, m_norm, d) == pytest.approx(
                    mass, abs=1e-9)

    def test_antisymmetry_and_support(self):
        s = np.linspace(-1.2, 1.2, 41)
        F = A.score_cdf_exact(s, 1.0, 10)
        assert np.allclose(F + A.score_cdf_exact(-s, 1.0, 10), 1.0, atol=1e-12)
        assert A.score_cdf_exact(-1.0, 1.0, 10) == 0.0
        assert A.score_cdf_exact(1.0, 1.0, 10) == 1.0

    def test_sf_log_consistent(self):
        s = np.linspace(-0.95, 0.95, 39)
        F = A.score_cdf_exact(s, 1.0, 20)
        assert np.allclose(np.exp(A.score_sf_log(s, 1.0, 20)), 1.0 - F,
                           atol=1e-12)

    def test_sf_log_narrow_cap_no_underflow(self):
        # linear-space survival underflows here; log form must not
        val = A.score_sf_log(np.array([0.99]), 1.0, 2000)[0]
        assert np.isfinite(val) and val < -1000.0

    def test_gauss_approx_converges(self):
        s = np.linspace(-0.2, 0.2, 21)
        exact = A.score_cdf_exact(s, 1.0, 5000)
        approx = A.score_cdf_gauss(s, 1.0, 5000)
        assert np.max(np.abs(exact - approx)) < 2e-3

    def test_gauss_simplified_small_scores(self):
        s = np.array([0.01, 0.02])
        full = A.score_cdf_gauss(s, 1.0, 1000)
        simp = A.score_cdf_gauss(s, 1.0, 1000, simplified=True)
        assert np.max(np.abs(full - simp)) < 1e-3

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-0.99, 0.98), st.floats(0.001, 0.01),
           st.integers(2, 300))
    def test_cdf_monotone(self, s, ds, d):
        assert A.score_cdf_exact(s + ds, 1.0, d) >= A.score_cdf_exact(s, 1.0, d)


class TestErrorRates:
    def test_sum_formulas(self):
        tau, alpha, n, d = 0.3, 0.7, 10, 1000
        pfp, pfn = A.error_rates("sum", tau, alpha, n, d)
        assert pfp == pytest.approx(1.0 - sp.ndtr(tau * math.sqrt(d / n)), abs=1e-14)
        assert pfn == pytest.approx(sp.ndtr((tau - alpha) * math.sqrt(d / (n - 1))),
                                    abs=1e-14)

    def test_pinv_formulas(self):
        tau, alpha, n, d = 0.3, 0.7, 10, 100
        scale = math.sqrt(d / n - 1.0)
        beta = math.sqrt(1 - alpha**2)
        pfp, pfn = A.error_rates("pinv", tau, alpha, n, d)
        assert pfp == pytest.approx(1.0 - sp.ndtr(tau * scale), abs=1e-14)
        assert pfn == pytest.approx(sp.ndtr((tau - alpha) / beta * scale), abs=1e-14)

    def test_degenerate_branches(self):
        # single member: H1 sum score is exactly alpha
        assert A.error_rates("sum", 0.3, 0.5, 1, 100)[1] == 0.0
        assert A.error_rates("sum", 0.7, 0.5, 1, 100)[1] == 1.0
        # exact-copy query: pinv score is exactly 1
        assert A.error_rates("pinv", 0.99, 1.0, 10, 100)[1] == 0.0
        assert A.error_rates("pinv", 1.0, 1.0, 10, 100)[1] == 1.0

    def test_pinv_needs_n_below_d(self):
        with pytest.raises(DomainError):
            A.error_rates("pinv", 0.3, 0.5, 100, 100)

    def test_threshold_hits_target_fn_rate(self):
        for construction in ("sum", "pinv"):
            tau = A.threshold_for(construction, 0.8, 12, 800, 0.02)
            _, pfn = A.error_rates(construction, tau, 0.8, 12, 800)
            assert pfn == pytest.approx(0.02, abs=1e-9)

    def test_cost_ratio_identity(self):
        rep = A.expected_cost_ratio("pinv", 50, 1000, 0.9, 0.01)
        assert rep.cost_ratio == pytest.approx(1.0 / 50 + rep.pfp, abs=1e-15)
        assert rep.pfn_at_alpha0 == pytest.approx(0.01, abs=1e-9)


def _cap_moment_quadrature(kappa, eta, d):
    """Oracle: restricted moments of the exact score density, computed on a
    scaled integrand so narrow caps at large d do not underflow."""
    b = (d - 3) / 2.0
    ref = math.log1p(-eta * eta) if eta > -1.0 else 0.0

    def g(s, k):
        return s**k * math.exp(b * (math.log1p(-s * s) - ref)) if abs(s) < 1.0 else 0.0

    # full_output silences the near-machine-precision roundoff warning
    num = quad(g, eta, 1.0, args=(kappa,), epsabs=1e-14, limit=300, full_output=1)[0]
    den = quad(g, eta, 1.0, args=(0,), epsabs=1e-14, limit=300, full_output=1)[0]
    return num / den


class TestCapMoments:
    def test_full_sphere_limits(self):
        for d in (2, 3, 8, 100, 1000):
            assert abs(A.cap_moment(1, -1.0, d)) <= 1e-10
            assert abs(A.cap_moment(2, -1.0, d) - 1.0 / d) <= 1e-10

    def test_collapsed_cap_limit(self):
        assert A.cap_moment(1, 1.0 - 1e-12, 100) == 1.0
        assert A.cap_moment(2, 1.0 - 1e-12, 100) == 1.0

    def test_against_quadrature(self):
        for d in (8, 64, 512):
            for eta in (-0.7, -0.2, 0.0, 0.4, 0.8):
                for kappa in (1, 2):
                    ours = A.cap_moment(kappa, eta, d)
                    oracle = _cap_moment_quadrature(kappa, eta, d)
                    assert ours == pytest.approx(oracle, abs=1e-8), (kappa, eta, d)

    def test_mu2_dominates_mu1_squared(self):
        # Var(S') >= 0 on every cap
        for eta in (-1.0, -0.3, 0.0, 0.5, 0.9):
            mu1 = A.cap_moment(1, eta, 64)
            mu2 = A.cap_moment(2, eta, 64)
            assert mu2 >= mu1 * mu1 - 1e-12

    def test_domain(self):
        with pytest.raises(DegenerateCapError):
            A.cap_moment(1, 1.0, 10)
        with pytest.raises(DomainError):
            A.cap_moment(3, 0.0, 10)


class TestGaussianKL:
    def test_identical_is_zero(self):
        assert A.gaussian_kl(0.3, 2.0, 0.3, 2.0) == 0.0

    def test_known_value(self):
        # KL(N(0,1) || N(1,2)) = 0.5 ln 2 + (1 + 1)/4 - 0.5
        expect = 0.5 * math.log(2.0) + 0.5 - 0.5
        assert A.gaussian_kl(0.0, 1.0, 1.0, 2.0) == pytest.approx(expect, abs=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m0, m1 = rng.normal(size=2)
            v0, v1 = rng.uniform(0.1, 5.0, size=2)
            assert A.gaussian_kl(m0, v0, m1, v1) >= 0.0


class TestCapStats:
    def test_full_sphere_matches_uniform_law(self):
        d, n, alpha = 512, 10, 0.5
        s = A.sum_cap_stats(-1.0, d, n, alpha)
        assert s.h0_mean == 0.0
        assert s.h0_var == pytest.approx(n / d, rel=1e-12)
        assert s.h1_mean == pytest.approx(alpha, rel=1e-12)
        # uniform members: interference variance per member is 1/d each way
        assert s.h1_var == pytest.approx((n - 1) / d, rel=0.05)
        p = A.pinv_cap_stats(-1.0, d, n, alpha)
        assert p.h0_var == pytest.approx(n / (d - n), rel=0.05)
        assert p.h1_var == pytest.approx((1 - alpha**2) * n / (d - n), rel=0.15)
        assert p.bound_based

    def test_kl_monotone_in_cap_tightness(self):
        etas = [-1.0, -0.5, 0.0, 0.3, 0.6, 0.9]
        for fn in (A.sum_cap_stats, A.pinv_cap_stats):
            kls = [fn(eta, 512, 10, 0.5).kl for eta in etas]
            assert all(b >= a - 1e-9 for a, b in zip(kls, kls[1:])), kls

    def test_domain(self):
        with pytest.raises(DomainError):
            A.sum_cap_stats(0.0, 10, 10, 0.5)
        with pytest.raises(DomainError):
            A.pinv_cap_stats(0.0, 512, 10, 1.5)


class TestMarcenkoPastur:
    def test_density_integrates_to_one(self):
        for c in (0.1, 0.4, 0.9):
            lo, hi = (1 - math.sqrt(c)) ** 2, (1 + math.sqrt(c)) ** 2
            mass, _ = quad(A.mp_pdf, lo, hi, args=(c,), epsabs=1e-12, limit=300)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_norm_limit_equals_inverse_first_moment(self):
        for c in (0.1, 0.3, 0.5, 0.7):
            lo, hi = (1 - math.sqrt(c)) ** 2, (1 + math.sqrt(c)) ** 2
            integral, _ = quad(lambda lam, cc=c: A.mp_pdf(lam, cc) / lam, lo, hi,
                               epsabs=1e-12, limit=300)
            assert A.mp_pinv_norm_limit(c) == pytest.approx(integral, rel=1e-6)
