"""Closed-form theory for memory-vector scores.

Everything here is a pure function of (construction, tau, alpha, n, d) or
of the spherical-cap parameters (eta, d): special functions, the log
survival of the exact score law, the Gaussian H0/H1 score laws, error
probabilities, the threshold/cost model, cap moments, cap-conditioned score
statistics for both constructions, the Marcenko-Pastur norm limit and
Gaussian KL divergence.

All functions accept scalars; ``score_sf_log`` and ``mp_pdf`` also accept
numpy arrays in their first argument.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .core import CONSTRUCTIONS, _check_count
from .errors import DomainError

__all__ = [
    "ScoreLaw",
    "CostReport",
    "CapStats",
    "log_beta",
    "std_normal_cdf",
    "std_normal_quantile",
    "score_sf_log",
    "score_law",
    "error_rates",
    "threshold_for",
    "expected_cost_ratio",
    "cap_moment",
    "cap_stats",
    "mp_pinv_norm_limit",
    "mp_pdf",
    "gaussian_kl",
]

_CF_MAX_ITER = 500
_CF_EPS = 1e-15  # just above machine epsilon so convergence can be reached
_CF_FPMIN = 1e-300


@dataclass(frozen=True)
class ScoreLaw:
    """Gaussian mean/variance of m'Y under one hypothesis; the variance
    is 0 in the exact limits (sum with n = 1, pinv with alpha = 1)."""

    mean: float
    variance: float


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
        # the even and the odd coefficient of step m, one Lentz update each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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


def _log_betainc(a: float, b: float, x) -> np.ndarray:
    """log I_x(a, b), the regularized incomplete beta, for x in [0, 1];
    accurate even when I underflows in linear space.

    The continued fraction runs on its convergent side: directly for
    x < (a + 1) / (a + b + 2), else as log1p(-I_{1-x}(b, a)).
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
_NORMAL = statistics.NormalDist()


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function
    (``math.erfc``, so no scipy at run time)."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Standard normal quantile (inverse CDF) via ``statistics.NormalDist``
    (Wichura's AS241, near full double precision). Requires p in (0, 1)."""
    if not 0.0 < p < 1.0:  # NaN fails too
        raise DomainError("quantile requires p in (0, 1)")
    return _NORMAL.inv_cdf(p)


# ---------------------------------------------------------------------------
# exact score distribution on the sphere
# ---------------------------------------------------------------------------


def _log_tail(t, a: float, b: float) -> np.ndarray:
    """log(1 - sign(t) I_{t^2}(a, b)) for t in [-1, 1], elementwise.

    For t >= 0 it is log I_{1-t^2}(b, a), so narrow-cap tail masses do
    not underflow; for t < 0 it is log1p(I_{t^2}(a, b)).
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0.0
    if np.any(pos):
        out[pos] = _log_betainc(b, a, 1.0 - t[pos] ** 2)
    if np.any(~pos):
        out[~pos] = np.log1p(np.exp(_log_betainc(a, b, t[~pos] ** 2)))
    return out


def score_sf_log(s, m_norm: float, d: int) -> np.ndarray:
    """log of the survival function P(Y'm > s), stable near s = m_norm:
    P(Y'm > s) = (1 - sign(t) I_{t^2}(1/2, b)) / 2 with t = s / ||m|| and
    b = (d - 1) / 2."""
    _check_count(d, "d", 2)
    if not m_norm > 0.0:  # NaN fails too
        raise DomainError("m_norm must be positive")
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if np.isnan(s).any():  # it would clip to a finite t
        raise DomainError("score is NaN")
    t = np.clip(s / m_norm, -1.0, 1.0)
    return _log_tail(t, 0.5, (d - 1) / 2.0) - math.log(2.0)


# ---------------------------------------------------------------------------
# hypothesis-test error rates, threshold and cost model
# ---------------------------------------------------------------------------


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:  # NaN fails too
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")


def _check_model(construction: str, alpha: float, n: int, d: int) -> tuple[int, int]:
    # the domain score_law and cap_stats share; cap_stats narrows n and d further
    if construction not in CONSTRUCTIONS:
        raise DomainError(f"unknown construction {construction!r}")
    _check_alpha(alpha)
    return _check_count(n, "n", 1), _check_count(d, "d", 2)


def score_law(construction: str, alpha: float, n: int, d: int) -> tuple[ScoreLaw, ScoreLaw]:
    """Gaussian score laws (H0, H1) of m'Y for one construction.

    sum:  H0 N(0, n/d),      H1 N(alpha, (n-1)/d)
    pinv: H0 N(0, n/(d-n)),  H1 N(alpha, beta^2 n/(d-n)),  beta^2 = 1 - alpha^2
    """
    n, d = _check_model(construction, alpha, n, d)
    if construction == "pinv" and n >= d:
        raise DomainError("pinv law requires n < d")
    if construction == "sum":
        return ScoreLaw(0.0, n / d), ScoreLaw(alpha, (n - 1) / d)
    return ScoreLaw(0.0, n / (d - n)), ScoreLaw(alpha, (1.0 - alpha * alpha) * n / (d - n))


def error_rates(construction: str, tau: float, alpha: float, n: int, d: int) -> tuple[float, float]:
    """(P_fp, P_fn) of the thresholded unit test at threshold tau under the
    ``score_law`` laws: P_fp = 1 - Phi(tau / sigma_H0) and
    P_fn = Phi((tau - alpha) / sigma_H1), a step at alpha when sigma_H1 = 0.
    """
    if math.isnan(tau):
        raise DomainError("tau is NaN")
    h0, h1 = score_law(construction, alpha, n, d)
    pfp = 1.0 - std_normal_cdf(tau * math.sqrt(1.0 / h0.variance))
    if h1.variance == 0.0:  # the H1 score is exactly alpha
        pfn = 0.0 if tau < alpha else 1.0
    else:
        pfn = std_normal_cdf((tau - alpha) * math.sqrt(1.0 / h1.variance))
    return pfp, pfn


def threshold_for(construction: str, alpha0: float, n: int, d: int, eps: float) -> float:
    """Threshold achieving P_fn(alpha0) = eps: tau = alpha0 + sigma_H1 * Phi^-1(eps)."""
    if not 0.0 < eps < 0.5:
        raise DomainError("eps must lie in (0, 1/2)")
    if not 0.0 < alpha0 <= 1.0:
        raise DomainError("alpha0 must lie in (0, 1]")
    _, h1 = score_law(construction, alpha0, n, d)
    return float(alpha0 + math.sqrt(h1.variance) * std_normal_quantile(eps))


def expected_cost_ratio(construction: str, n: int, d: int, alpha0: float, eps: float) -> CostReport:
    """Expected scan cost under H0 relative to exhaustive search: 1/n + P_fp(n)."""
    tau = threshold_for(construction, alpha0, n, d, eps)
    pfp, pfn = error_rates(construction, tau, alpha0, n, d)
    return CostReport(n=n, tau=tau, pfp=pfp, pfn_at_alpha0=pfn, cost_ratio=1.0 / n + pfp)


# ---------------------------------------------------------------------------
# spherical-cap moments and cap-conditioned statistics
# ---------------------------------------------------------------------------

_ETA_ONE = 1.0 - 1e-9


def _check_eta(eta: float) -> None:
    if not -1.0 <= eta < 1.0:  # NaN fails too
        raise DomainError("eta must be < 1" if eta >= 1.0 else f"eta must be >= -1, got {eta}")


def cap_moment(kappa: int, eta: float, d: int) -> float:
    """kappa-th moment (kappa in {1, 2}) of the axis correlation S' of a
    uniform sample from the cap {x : x'u > eta}.

    Evaluated in log space so narrow caps at large d do not underflow;
    the eta -> 1 limit is handled by a closed-form branch.
    """
    if kappa not in (1, 2):
        raise DomainError("kappa must be 1 or 2")
    _check_count(d, "d", 2)
    _check_eta(eta)
    if eta > _ETA_ONE:  # cap collapses onto the axis
        return 1.0

    b = (d - 1) / 2.0
    # each mass is 1 - sign(eta) I_{eta^2}(., b), up to its normalizing constant
    log_den = _log_tail(eta, 0.5, b)
    if kappa == 1:
        if eta == -1.0:  # full sphere: odd moment vanishes
            return 0.0
        log_num = (math.log(2.0) + b * math.log1p(-eta * eta)
                   - math.log(d - 1) - log_beta(0.5, b))
        return float(math.exp(log_num - log_den))
    return float(math.exp(_log_tail(eta, 1.5, b) - log_den) / d)


def gaussian_kl(mean0: float, var0: float, mean1: float, var1: float) -> float:
    """KL(N(mean0, var0) || N(mean1, var1))."""
    if not (var0 > 0.0 and var1 > 0.0):  # NaN fails too
        raise DomainError("variances must be positive")
    return float(0.5 * math.log(var1 / var0)
                 + (var0 + (mean0 - mean1) ** 2) / (2.0 * var1) - 0.5)


def cap_stats(construction: str, eta: float, d: int, n: int, alpha: float) -> CapStats:
    """Score statistics of one construction when unit members are uniform
    on a cap of cosine threshold eta.

    sum: exact moments; the H1 variance sums four components treated as
    uncorrelated (interference, orthogonal-noise interference and the two
    projections of the query noise).
    pinv: the H0 and H1 variances come from the Sherman-Morrison lower
    bound on E||m*||^2; they are approximations, flagged by ``bound_based``.
    """
    n, d = _check_model(construction, alpha, n, d)
    if n < 2 or d <= n:
        raise DomainError("need 2 <= n < d")
    mu1, mu2, beta2 = cap_moment(1, eta, d), cap_moment(2, eta, d), 1.0 - alpha * alpha

    if construction == "sum":
        h0_var = (n + n * (n - 1) * mu1**2) / d
        h1_mean = alpha * (1.0 + (n - 1) * mu1**2)
        v_interf = alpha**2 * (n - 1) * (mu2**2 - mu1**4)
        v_orth = alpha**2 * (n - 1) / (d - 1) * (1.0 - mu2) ** 2
        v_z_axis = beta2 * (n - 1) / (d - 1) * (1.0 - mu2) * mu2
        v_z_perp = beta2 * (n - 1) / (d - 1) * (1.0 - mu2) * (1.0 + (n - 2) * mu1**2)
        h1_var = v_interf + v_orth + v_z_axis + v_z_perp
    else:
        h0_var = n / (d * (1.0 + (n - 1) * mu2))
        h1_mean = alpha
        h1_var = beta2 / (d - 1) * (n - 1) * (1.0 - mu2) / (1.0 + (n - 1) * mu2)
    kl = gaussian_kl(0.0, h0_var, h1_mean, h1_var) if h1_var > 0.0 else math.inf
    return CapStats(eta=eta, mu1=mu1, mu2=mu2, h0_mean=0.0, h0_var=h0_var,
                    h1_mean=h1_mean, h1_var=h1_var, kl=kl,
                    bound_based=construction == "pinv")


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
