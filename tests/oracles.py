"""Scalar oracles the tests check the library's kernels against.

Sign codes here are one bool per coefficient, unpacked, and the +/-1
inner products behind them are computed coefficient by coefficient.
``pinv_vector`` is ``representatives`` on a single unit. The score law of
Y'm, for Y uniform on the sphere and a fixed m, is given here as a CDF, a
density and the large-d Gaussian CDF; the library keeps only its log
survival, ``analytic.score_sf_log``. ``cap_moment_quadrature`` integrates
that density over a cap, against ``analytic.cap_moment``. ``as_lists``
turns a ``QueryResult`` into Python values that compare with ==.
"""

import math

import numpy as np

from memvec.analytic import log_beta, score_sf_log, std_normal_cdf
from memvec.construction import representatives
from memvec.core import Partition


def as_lists(res) -> tuple:
    """A QueryResult's fields as Python lists and scalars, so two results
    compare with ==."""
    return (res.positive_units.tolist(), res.candidates.tolist(), res.complexity,
            res.complexity_ratio)


def sign_code(v) -> np.ndarray:
    """Sign bits of v: bit k is True iff coefficient k >= 0."""
    return np.asarray(v) >= 0.0


def hamming_inner(a, b) -> int:
    """Inner product of the +/-1 vectors behind two codes: d - 2 hamming."""
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    assert a.shape == b.shape
    return int(a.size - 2 * np.count_nonzero(a != b))


def asymmetric_inner(y, code) -> float:
    """Real vector against a +/-1 code: sum of +/- y_k (unnormalized)."""
    y, code = np.asarray(y, dtype=np.float64), np.asarray(code, dtype=bool)
    assert y.shape == code.shape
    return float(np.sum(np.where(code, y, -y)))


def pinv_vector(X, report: dict | None = None) -> np.ndarray:
    """pinv representative of the one unit that holds every row of X."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    return representatives(X, Partition(np.arange(n), np.array([0, n])), "pinv", report)[0]


def score_cdf_exact(s, m_norm: float, d: int):
    """CDF of Y'm: F(s) = P(Y'm > -s), so the left tail is as accurate as
    ``score_sf_log`` and does not underflow to 0. Vectorized over s."""
    scalar = np.isscalar(s) or np.ndim(s) == 0
    out = np.exp(score_sf_log(-np.asarray(s, dtype=np.float64), m_norm, d))
    return float(out[0]) if scalar else out


def score_pdf_exact(s, m_norm: float, d: int):
    """Density of Y'm: (1 - s^2/||m||^2)^((d-3)/2) / (||m|| B(1/2,(d-1)/2))
    on the support [-||m||, ||m||], for d >= 2."""
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    assert d >= 2 and np.all(np.abs(s) <= m_norm * (1.0 + 1e-12))
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
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t = np.clip(s / m_norm, -1.0, 1.0)
    if simplified:
        arg = t * math.sqrt(d)
    else:
        arg = math.sqrt(d - 1) * 2.0 * t / (1.0 + np.sqrt(1.0 - t * t))
    out = np.array([std_normal_cdf(a) for a in arg])
    out[s <= -m_norm] = 0.0
    out[s >= m_norm] = 1.0
    return float(out[0]) if scalar else out


def cap_moment_quadrature(kappa: int, eta: float, d: int) -> float:
    """kappa-th moment of S' on the cap S' > eta: restricted moments of the
    exact score density, computed on an integrand scaled by its value at eta
    so narrow caps at large d do not underflow."""
    # imported here, so the modules that use only the other oracles run without scipy
    from scipy.integrate import quad

    b = (d - 3) / 2.0
    ref = math.log1p(-eta * eta) if eta > -1.0 else 0.0

    def g(s, k):
        return s**k * math.exp(b * (math.log1p(-s * s) - ref)) if abs(s) < 1.0 else 0.0

    # full_output silences the near-machine-precision roundoff warning
    num = quad(g, eta, 1.0, args=(kappa,), epsabs=1e-14, limit=500, full_output=1)[0]
    den = quad(g, eta, 1.0, args=(0,), epsabs=1e-14, limit=500, full_output=1)[0]
    return num / den
