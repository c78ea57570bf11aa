"""Scalar oracles the tests check the library's kernels against.

Sign codes here are one bool per coefficient, unpacked, and the +/-1
inner products behind them are computed coefficient by coefficient.
``pinv_vector`` is ``representatives`` on a single unit.
"""

import numpy as np

from memvec.construction import ConstructionConfig, representatives


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
    return representatives(X, np.arange(n), np.array([0, n]),
                           ConstructionConfig(kind="pinv"), report)[0]
