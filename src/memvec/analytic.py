"""Closed-form theory for memory-vector scores.

Everything here is a pure function of (construction, tau, alpha, n, d) or
of the spherical-cap parameters (eta, d): special functions, the exact and
Gaussian score distributions, error probabilities, the threshold/cost
model, cap moments, cap-conditioned score statistics for both
constructions, the Marcenko-Pastur norm limit and Gaussian KL divergence.

All functions accept scalars; the special functions also accept numpy
arrays in their first argument.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCapError, DomainError

__all__ = [
    "ScoreLaw",
    "CostReport",
    "CapStats",
    "reg_inc_beta",
    "log_beta",
    "std_normal_cdf",
    "std_normal_quantile",
    "score_cdf_exact",
    "score_sf_log",
    "score_pdf_exact",
    "score_cdf_gauss",
    "score_law",
    "error_rates",
    "threshold_for",
    "expected_cost_ratio",
    "cap_moment",
    "sum_cap_stats",
    "pinv_cap_stats",
    "mp_pinv_norm_limit",
    "mp_pdf",
    "gaussian_kl",
]

_CF_MAX_ITER = 500
_CF_EPS = 1e-15  # just above machine epsilon so convergence can be reached
_CF_FPMIN = 1e-300


@dataclass(frozen=True)
class ScoreLaw:
    """Mean/variance of m'Y under one hypothesis.

    ``degenerate`` flags the variance-0 limit (pinv with alpha = 1).
    """

    mean: float
    variance: float
    family: str = "gaussian_approx"  # "gaussian_approx" | "exact_sphere"
    degenerate: bool = False


@dataclass(frozen=True)
class CostReport:
    """Expected-cost summary at one unit size n (random assignment)."""

    n: int
    tau: float
    pfp: float
    pfn_at_alpha0: float
    cost_ratio: float  # 1/n + pfp


@dataclass(frozen=True)
class CapStats:
    """Cap-conditioned score statistics for one construction.

    ``bound_based`` marks values derived from inequality bounds (pinv)
    rather than exact moments (sum).
    """

    eta: float
    mu1: float
    mu2: float
    h0_mean: float
    h0_var: float
    h1_mean: float
    h1_var: float
    kl: float
    bound_based: bool = False


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def log_beta(a: float, b: float) -> float:
    """log B(a, b) via log-gamma (avoids overflow at large d)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta function (modified Lentz).

    Vectorized over x; converges for x < (a + 1) / (a + b + 2).
    """
    x = np.asarray(x, dtype=np.float64)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _CF_FPMIN, _CF_FPMIN, d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _CF_FPMIN, _CF_FPMIN, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _CF_FPMIN, _CF_FPMIN, c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _CF_FPMIN, _CF_FPMIN, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _CF_FPMIN, _CF_FPMIN, c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < _CF_EPS):
            break
    return h


def _log_betainc_direct(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """log I_x(a, b) on the CF-convergent side x < (a+1)/(a+b+2)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full_like(x, -np.inf)
    pos = x > 0.0
    # placeholder for masked entries must sit inside the CF convergence region
    xs = np.where(pos, x, 0.5 * (a + 1.0) / (a + b + 2.0))
    lf = a * np.log(xs) + b * np.log1p(-xs) - log_beta(a, b)
    val = lf + np.log(_betacf(a, b, xs)) - math.log(a)
    return np.where(pos, val, out)


def reg_inc_beta(x, a: float, b: float):
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation with the symmetry switch at
    x > (a + 1) / (a + b + 2); absolute error below 1e-12. Vectorized
    over x.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError("beta parameters must be positive")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any((x < 0.0) | (x > 1.0)):
        raise DomainError("x must lie in [0, 1]")
    out = np.empty_like(x)
    switch = (a + 1.0) / (a + b + 2.0)
    lo = x < switch
    if np.any(lo):
        out[lo] = np.exp(_log_betainc_direct(a, b, x[lo]))
    if np.any(~lo):
        out[~lo] = 1.0 - np.exp(_log_betainc_direct(b, a, 1.0 - x[~lo]))
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def _log_betainc(a: float, b: float, x) -> np.ndarray:
    """log I_x(a, b), accurate even when I underflows in linear space.

    Requires x on the CF-convergent side; falls back to log of the
    complement form otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    switch = (a + 1.0) / (a + b + 2.0)
    out = np.empty_like(x)
    lo = x < switch
    if np.any(lo):
        out[lo] = _log_betainc_direct(a, b, x[lo])
    if np.any(~lo):
        comp = np.exp(_log_betainc_direct(b, a, 1.0 - x[~lo]))
        out[~lo] = np.log1p(-np.clip(comp, 0.0, 1.0))
    return out


_SQRT2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def std_normal_cdf(x):
    """Standard normal CDF via the complementary error function
    (``math.erfc``, so no scipy at run time). Returns a float for scalar
    or 0-d input and a float64 array otherwise."""
    x = np.asarray(x, dtype=np.float64)
    out = 0.5 * np.asarray(_erfc(-x / _SQRT2), dtype=np.float64)
    return float(out) if out.ndim == 0 else out


_inv_cdf = np.frompyfunc(statistics.NormalDist().inv_cdf, 1, 1)


def std_normal_quantile(p):
    """Standard normal quantile (inverse CDF) via ``statistics.NormalDist``
    (Wichura's AS241, near full double precision). Requires p in (0, 1).
    Returns a float for scalar or 0-d input and a float64 array otherwise."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise DomainError("quantile requires p in (0, 1)")
    x = np.asarray(_inv_cdf(p), dtype=np.float64)
    return float(x) if x.ndim == 0 else x


# ---------------------------------------------------------------------------
# exact score distribution on the sphere
# ---------------------------------------------------------------------------


def _check_score_args(m_norm: float, d: int):
    if d < 2:
        raise DomainError("score distribution requires d >= 2")
    if m_norm <= 0.0:
        raise DomainError("m_norm must be positive")


def score_cdf_exact(s, m_norm: float, d: int):
    """CDF of Y'm for Y uniform on the sphere and a fixed m.

    Uses the regularized incomplete beta representation together with the
    antisymmetry F(-s) = 1 - F(s). Vectorized over s.
    """
    _check_score_args(m_norm, d)
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t = np.clip(s / m_norm, -1.0, 1.0)
    ib = reg_inc_beta(t * t, 0.5, (d - 1) / 2.0)
    ib = np.atleast_1d(ib)
    out = 0.5 * (1.0 + np.sign(t) * ib)
    out[s <= -m_norm] = 0.0
    out[s >= m_norm] = 1.0
    return float(out[0]) if scalar else out


def score_sf_log(s, m_norm: float, d: int) -> np.ndarray:
    """log of the survival function P(Y'm > s), stable near s = m_norm.

    For s >= 0 it uses the symmetry 1 - I_{t^2}(1/2, b) = I_{1-t^2}(b, 1/2)
    so narrow-cap tail masses do not underflow.
    """
    _check_score_args(m_norm, d)
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t = np.clip(s / m_norm, -1.0, 1.0)
    b = (d - 1) / 2.0
    out = np.empty_like(t)
    pos = t >= 0.0
    if np.any(pos):
        out[pos] = _log_betainc(b, 0.5, 1.0 - t[pos] ** 2) - math.log(2.0)
    if np.any(~pos):
        ib = np.atleast_1d(reg_inc_beta(t[~pos] ** 2, 0.5, b))
        out[~pos] = np.log1p(ib) - math.log(2.0)
    return out


def score_pdf_exact(s, m_norm: float, d: int):
    """Density of Y'm: (1 - s^2/||m||^2)^((d-3)/2) / (||m|| B(1/2,(d-1)/2))."""
    _check_score_args(m_norm, d)
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if np.any(np.abs(s) > m_norm * (1.0 + 1e-12)):
        raise DomainError("score outside the support [-||m||, ||m||]")
    t2 = np.clip(1.0 - (s / m_norm) ** 2, 0.0, 1.0)
    lognorm = math.log(m_norm) + log_beta(0.5, (d - 1) / 2.0)
    with np.errstate(divide="ignore"):
        out = np.exp(((d - 3) / 2.0) * np.log(t2) - lognorm)
    if d == 2:  # integrable endpoint singularity
        out[t2 == 0.0] = np.inf
    return float(out[0]) if scalar else out


def score_cdf_gauss(s, m_norm: float, d: int, simplified: bool = False):
    """Large-d Gaussian approximation of the score CDF.

    ``simplified=True`` uses the small-s form Phi(s * sqrt(d) / ||m||);
    otherwise the full asymptotic argument is applied. Saturates outside
    the support.
    """
    _check_score_args(m_norm, d)
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t = np.clip(s / m_norm, -1.0, 1.0)
    if simplified:
        arg = t * math.sqrt(d)
    else:
        arg = math.sqrt(d - 1) * 2.0 * t / (1.0 + np.sqrt(1.0 - t * t))
    out = np.atleast_1d(std_normal_cdf(arg))
    out[s <= -m_norm] = 0.0
    out[s >= m_norm] = 1.0
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# hypothesis-test error rates, threshold and cost model
# ---------------------------------------------------------------------------


def _check_construction(construction: str):
    if construction not in ("sum", "pinv"):
        raise DomainError(f"unknown construction {construction!r}")


def score_law(construction: str, hypothesis: str, alpha: float, n: int, d: int) -> ScoreLaw:
    """Gaussian score law of m'Y for one construction and hypothesis."""
    _check_construction(construction)
    if n < 1 or d < 2:
        raise DomainError("need n >= 1 and d >= 2")
    if construction == "pinv" and n >= d:
        raise DomainError("pinv law requires n < d")
    beta2 = max(0.0, 1.0 - alpha * alpha)
    if hypothesis == "H0":
        var = n / d if construction == "sum" else n / (d - n)
        return ScoreLaw(0.0, var)
    if hypothesis != "H1":
        raise DomainError(f"unknown hypothesis {hypothesis!r}")
    if construction == "sum":
        var = (n - 1) / d
        return ScoreLaw(alpha, var, degenerate=(var == 0.0))
    var = beta2 * n / (d - n)
    return ScoreLaw(alpha, var, degenerate=(var == 0.0))


def error_rates(construction: str, tau: float, alpha: float, n: int, d: int) -> tuple[float, float]:
    """(P_fp, P_fn) of the thresholded unit test at threshold tau.

    sum:  pfp = 1 - Phi(tau sqrt(d/n)),       pfn = Phi((tau-alpha) sqrt(d/(n-1)))
    pinv: pfp = 1 - Phi(tau sqrt(d/n - 1)),   pfn = Phi((tau-alpha)/beta sqrt(d/n - 1))
    """
    _check_construction(construction)
    if n < 1 or d < 2:
        raise DomainError("need n >= 1 and d >= 2")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    if construction == "pinv" and n >= d:
        raise DomainError("pinv variance formula requires n < d")

    if construction == "sum":
        pfp = 1.0 - std_normal_cdf(tau * math.sqrt(d / n))
        if n == 1:  # degenerate H1 variance: the score is exactly alpha
            pfn = 0.0 if tau < alpha else 1.0
        else:
            pfn = std_normal_cdf((tau - alpha) * math.sqrt(d / (n - 1)))
        return float(pfp), float(pfn)

    scale = math.sqrt(d / n - 1.0)
    pfp = 1.0 - std_normal_cdf(tau * scale)
    beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    if beta == 0.0:  # exact copy: score is exactly 1
        pfn = 0.0 if tau < 1.0 else 1.0
    else:
        pfn = std_normal_cdf((tau - alpha) / beta * scale)
    return float(pfp), float(pfn)


def threshold_for(construction: str, alpha0: float, n: int, d: int, eps: float) -> float:
    """Threshold achieving P_fn(alpha0) = eps: tau = alpha0 + sigma_H1 * Phi^-1(eps)."""
    if not 0.0 < eps < 0.5:
        raise DomainError("eps must lie in (0, 1/2)")
    if not 0.0 < alpha0 <= 1.0:
        raise DomainError("alpha0 must lie in (0, 1]")
    law = score_law(construction, "H1", alpha0, n, d)
    return float(alpha0 + math.sqrt(law.variance) * std_normal_quantile(eps))


def expected_cost_ratio(construction: str, n: int, d: int, alpha0: float, eps: float) -> CostReport:
    """Expected scan cost under H0 relative to exhaustive search: 1/n + P_fp(n)."""
    tau = threshold_for(construction, alpha0, n, d, eps)
    pfp, pfn = error_rates(construction, tau, alpha0, n, d)
    return CostReport(n=n, tau=tau, pfp=pfp, pfn_at_alpha0=pfn, cost_ratio=1.0 / n + pfp)


# ---------------------------------------------------------------------------
# spherical-cap moments and cap-conditioned statistics
# ---------------------------------------------------------------------------

_ETA_ONE = 1.0 - 1e-9


def cap_moment(kappa: int, eta: float, d: int) -> float:
    """kappa-th moment (kappa in {1, 2}) of the axis correlation S' of a
    uniform sample from the cap {x : x'u > eta}.

    Evaluated in log space so narrow caps at large d do not underflow;
    the eta -> 1 limit is handled by a closed-form branch.
    """
    if kappa not in (1, 2):
        raise DomainError("kappa must be 1 or 2")
    if d < 2:
        raise DomainError("cap moments require d >= 2")
    if eta >= 1.0:
        raise DegenerateCapError("eta must be < 1")
    if eta < -1.0:
        raise DomainError("eta must be >= -1")
    if eta > _ETA_ONE:  # cap collapses onto the axis
        return 1.0

    b = (d - 1) / 2.0
    eta2 = eta * eta

    if eta >= 0.0:
        # denominator 1 - sign(eta) I_{eta^2}(1/2, b) = I_{1-eta^2}(b, 1/2)
        log_den = _log_betainc(b, 0.5, np.array(1.0 - eta2))[()]
    else:
        log_den = float(np.log1p(np.atleast_1d(reg_inc_beta(eta2, 0.5, b))[0]))

    if kappa == 1:
        if eta == -1.0:  # full sphere: odd moment vanishes
            return 0.0
        log_num = (math.log(2.0) + b * math.log1p(-eta2)
                   - math.log(d - 1) - log_beta(0.5, b))
        return float(math.exp(log_num - log_den))

    if eta >= 0.0:
        log_num = _log_betainc(b, 1.5, np.array(1.0 - eta2))[()]
    else:
        log_num = float(np.log1p(np.atleast_1d(reg_inc_beta(eta2, 1.5, b))[0]))
    return float(math.exp(log_num - log_den) / d)


def gaussian_kl(mean0: float, var0: float, mean1: float, var1: float) -> float:
    """KL(N(mean0, var0) || N(mean1, var1))."""
    if var0 <= 0.0 or var1 <= 0.0:
        raise DomainError("variances must be positive")
    return float(0.5 * math.log(var1 / var0)
                 + (var0 + (mean0 - mean1) ** 2) / (2.0 * var1) - 0.5)


def sum_cap_stats(eta: float, d: int, n: int, alpha: float) -> CapStats:
    """Score statistics of the sum construction when unit members are
    uniform on a cap of cosine threshold eta.

    H1 variance is the sum of the four variance components (interference,
    orthogonal-noise interference, and the two projections of the query
    noise), treated as uncorrelated.
    """
    if n < 2 or d <= n:
        raise DomainError("need 2 <= n < d")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    mu1 = cap_moment(1, eta, d)
    mu2 = cap_moment(2, eta, d)
    beta2 = 1.0 - alpha * alpha

    h0_mean = 0.0
    h0_var = (n + n * (n - 1) * mu1**2) / d
    h1_mean = alpha * (1.0 + (n - 1) * mu1**2)
    v_interf = alpha**2 * (n - 1) * (mu2**2 - mu1**4)
    v_orth = alpha**2 * (n - 1) / (d - 1) * (1.0 - mu2) ** 2
    v_z_axis = beta2 * (n - 1) / (d - 1) * (1.0 - mu2) * mu2
    v_z_perp = beta2 * (n - 1) / (d - 1) * (1.0 - mu2) * (1.0 + (n - 2) * mu1**2)
    h1_var = v_interf + v_orth + v_z_axis + v_z_perp

    if h1_var > 0.0 and h0_var > 0.0:
        kl = gaussian_kl(h0_mean, h0_var, h1_mean, h1_var)
    else:
        kl = math.inf
    return CapStats(eta=eta, mu1=mu1, mu2=mu2, h0_mean=h0_mean, h0_var=h0_var,
                    h1_mean=h1_mean, h1_var=h1_var, kl=kl)


def pinv_cap_stats(eta: float, d: int, n: int, alpha: float) -> CapStats:
    """Bound-based score statistics of the pinv construction on a cap.

    H0 variance and H1 variance come from the Sherman-Morrison lower
    bound on E||m*||^2; they are approximations, flagged by
    ``bound_based``.
    """
    if n < 2 or d <= n:
        raise DomainError("need 2 <= n < d")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    mu1 = cap_moment(1, eta, d)
    mu2 = cap_moment(2, eta, d)
    beta2 = 1.0 - alpha * alpha

    h0_var = n / (d * (1.0 + (n - 1) * mu2))
    h1_var = beta2 / (d - 1) * (n - 1) * (1.0 - mu2) / (1.0 + (n - 1) * mu2)
    if h1_var > 0.0:
        kl = gaussian_kl(0.0, h0_var, alpha, h1_var)
    else:
        kl = math.inf
    return CapStats(eta=eta, mu1=mu1, mu2=mu2, h0_mean=0.0, h0_var=h0_var,
                    h1_mean=alpha, h1_var=h1_var, kl=kl, bound_based=True)


# ---------------------------------------------------------------------------
# Marcenko-Pastur limit
# ---------------------------------------------------------------------------


def mp_pdf(lam, c: float):
    """Marcenko-Pastur density on [(1-sqrt(c))^2, (1+sqrt(c))^2]."""
    if not 0.0 < c < 1.0:
        raise DomainError("aspect ratio c must lie in (0, 1)")
    lam = np.asarray(lam, dtype=np.float64)
    lo = (1.0 - math.sqrt(c)) ** 2
    hi = (1.0 + math.sqrt(c)) ** 2
    inside = (lam >= lo) & (lam <= hi)
    val = np.zeros_like(lam)
    lam_in = np.where(inside, lam, 1.0)
    val = np.where(
        inside,
        np.sqrt(np.clip((lam_in - lo) * (hi - lam_in), 0.0, None))
        / (2.0 * math.pi * c * lam_in),
        0.0,
    )
    return float(val) if val.ndim == 0 else val


def mp_pinv_norm_limit(c: float) -> float:
    """Limit of E||m*||^2 / n as n, d -> inf with n/d = c: 1/(1-c).

    This is the Stieltjes transform of the Marcenko-Pastur law at z = 0.
    """
    if not 0.0 < c < 1.0:
        raise DomainError("aspect ratio c must lie in (0, 1)")
    return 1.0 / (1.0 - c)
