"""Memory-vector construction: sum and minimal-norm pseudo-inverse.

The pinv representative solves X'm = 1_n with minimal norm via the n x n
Gram system (n << d in all intended regimes). A singular Gram or n > d
falls back to a ridge-regularized solve; the retry is recorded on the
returned metadata when requested. ``representatives`` builds all units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, EmptyUnitError, SingularGramError

__all__ = ["ConstructionConfig", "sum_vector", "pinv_vector", "solve_spd", "representatives"]

# Member floats gathered per batch. Larger batches are no faster, and the
# temporaries they free stay resident in the heap.
_BATCH_FLOATS = 1 << 16
# A failed pinv solve is retried with ridge _FALLBACK_RIDGE * mean(diag Gram).
_FALLBACK_RIDGE = 1e-6


@dataclass(frozen=True)
class ConstructionConfig:
    """kind: "sum" | "pinv"."""

    kind: str = "pinv"

    def __post_init__(self):
        if self.kind not in ("sum", "pinv"):
            raise DomainError(f"unknown construction kind {self.kind!r}")


def _as_matrix(members) -> np.ndarray:
    """Stack members into an (n, d) float64 matrix."""
    try:
        mat = np.asarray(members, dtype=np.float64)
    except ValueError as exc:  # ragged rows
        raise DimensionError("members disagree on dimension") from exc
    if mat.size == 0:
        raise EmptyUnitError("empty member set")
    if mat.ndim != 2:
        raise DimensionError("members must form an (n, d) matrix")
    return mat


def sum_vector(members) -> np.ndarray:
    """Coordinate-wise sum of the members; no normalization."""
    return _as_matrix(members).sum(axis=0)


def solve_spd(A: np.ndarray, b: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Solve (A + ridge I) z = b by Cholesky factorization.

    A must be symmetric (within 1e-10). Raises SingularGramError when the
    factorization breaks down, so the caller can retry with a ridge.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,):
        raise DimensionError("A must be n x n and b length n")
    if np.max(np.abs(A - A.T)) > 1e-10:
        raise DimensionError("A is not symmetric")
    M = A if ridge == 0.0 else A + ridge * np.eye(n)
    try:
        cho = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularGramError(str(exc)) from exc
    z = scipy.linalg.cho_solve(cho, b, check_finite=False)
    resid = np.max(np.abs(M @ z - b))
    if not np.isfinite(resid) or resid > 1e-8 * (1.0 + np.max(np.abs(b))):
        raise SingularGramError(f"solve residual too large: {resid:.3e}")
    return z


def pinv_vector(members, report: dict | None = None) -> np.ndarray:
    """Minimal-norm solution m* of X'm = 1_n via the Gram system.

    With independent members (n <= d) the constraints inner(m*, x_i) = 1
    hold to 1e-8. A singular Gram or n > d retries once with the fallback
    ridge; ``report["ridge_used"]`` records the ridge applied (0 when none)
    when a dict is passed.
    """
    X = _as_matrix(members)  # (n, d)
    n, d = X.shape
    gram = X @ X.T
    ones = np.ones(n)
    ridge = 0.0
    try:
        if n > d:
            raise SingularGramError("more members than dimensions")
        z = solve_spd(gram, ones)
    except SingularGramError:
        ridge = _FALLBACK_RIDGE * float(np.mean(np.diag(gram)))
        z = solve_spd(gram, ones, ridge=ridge)
    if report is not None:
        report.update(ridge_used=ridge, fallback=ridge > 0.0)
    return X.T @ z


def _pinv_batch(block: np.ndarray, ones: np.ndarray):
    """pinv of a (b, n, d) batch, n <= d, with ``ones`` = 1_n: representatives,
    which units meet the solve_spd bound, and each unit's worst |<m, x_i> - 1|.
    Raises LinAlgError when a Gram is not positive definite."""
    gram = block @ block.transpose(0, 2, 1)
    np.linalg.cholesky(gram)
    z = np.linalg.solve(gram, ones)
    resid = np.max(np.abs(gram @ z[..., None] - 1.0), axis=(1, 2))
    # solve_spd's bound 1e-8 (1 + max|b|) with b = 1; NaN fails it
    return np.einsum("bi,bid->bd", z, block), resid <= 2e-8, resid


def representatives(X: np.ndarray, member_ids: np.ndarray, offsets: np.ndarray,
                    cfg: ConstructionConfig | None = None,
                    report: dict | None = None) -> np.ndarray:
    """(M, d) representatives of the CSR units ``X[member_ids[offsets[j]:
    offsets[j + 1]]]``, gathered in (b, n, d) batches of equal size n.
    X is used as stored (float32 or float64); each batch is widened to
    float64, so sums and solves are float64 whatever X holds.

    Sums equal ``sum_vector`` bit for bit. pinv solves a batch at once; a
    batch whose Cholesky fails, a unit over the solve_spd bound and every
    unit with n > d go through ``pinv_vector``. A passed dict receives
    ``fallbacks``, the units that took the fallback ridge, and
    ``max_residual``, the worst |<m_j, x_i> - 1| (0 for sum)."""
    cfg = cfg or ConstructionConfig()
    X = np.asarray(X)
    sizes = np.diff(offsets)
    if np.any(sizes <= 0):
        raise EmptyUnitError("empty member set")
    d = X.shape[1]
    reps = np.empty((sizes.size, d))
    fallbacks, worst = 0, 0.0
    for n in np.unique(sizes):
        units = np.flatnonzero(sizes == n)
        step = max(1, _BATCH_FLOATS // (n * d))
        cols, ones = np.arange(n), np.ones(n)
        for s in range(0, units.size, step):
            js = units[s:s + step]
            block = None  # free the last batch, so two are never alive at once
            block = X[member_ids[offsets[js, None] + cols]].astype(np.float64, copy=False)
            if cfg.kind == "sum":
                reps[js] = block.sum(axis=1)
                continue
            ok = np.zeros(js.size, dtype=bool)
            if n <= d:
                try:
                    reps[js], ok, resid = _pinv_batch(block, ones)
                    worst = max(worst, float(resid[ok].max(initial=0.0)))
                except np.linalg.LinAlgError:
                    pass
            for k in np.flatnonzero(~ok):
                unit = {}
                reps[js[k]] = pinv_vector(block[k], unit)
                fallbacks += unit["fallback"]
                worst = max(worst, float(np.max(np.abs(block[k] @ reps[js[k]] - 1.0))))
    if report is not None:
        report.update(fallbacks=fallbacks, max_residual=worst)
    return reps
