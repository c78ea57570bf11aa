"""Memory-vector construction: sum and minimal-norm pseudo-inverse.

The pinv representative solves X'm = 1_n with minimal norm via the n x n
Gram system (n << d in all intended regimes). One batched kernel solves
every unit with one Gram and one solve, m = z X. A unit is kept when every
member then scores within 2e-8 of 1: such an m lies in the members' row
space, so it is the minimal-norm m that meets the constraint, up to
sqrt(n) 2e-8 / sigma_min(X) in norm. The others are solved again from the
same Gram plus a ridge, and counted. ``representatives`` builds all units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Partition
from .errors import DimensionError, DomainError, EmptyUnitError, SingularGramError

__all__ = ["ConstructionConfig", "representatives"]

# Member floats gathered per batch. Larger batches are no faster, and the
# temporaries they free stay resident in the heap.
_BATCH_FLOATS = 1 << 16
# A failed pinv solve is redone with ridge _FALLBACK_RIDGE * mean(diag Gram).
_FALLBACK_RIDGE = 1e-6
# A plain solve is kept when max |<m, x_i> - 1| is at most this.
_RESIDUAL_BOUND = 2e-8


@dataclass(frozen=True)
class ConstructionConfig:
    """kind: "sum" | "pinv"."""

    kind: str = "pinv"

    def __post_init__(self):
        if self.kind not in ("sum", "pinv"):
            raise DomainError(f"unknown construction kind {self.kind!r}")


def _pinv(gram: np.ndarray, block: np.ndarray, ones: np.ndarray, ridge: bool = False):
    """pinv of a (b, n, d) batch from its Grams G, each plus
    ``_FALLBACK_RIDGE * mean(diag G)`` I (in place) when ``ridge``:
    representatives m = z @ x for z solving G z = 1_n, and each unit's worst
    constraint residual |<m, x_i> - 1|. When the batch's solve raises (an
    exactly singular Gram) the units are solved one by one, so a unit's result
    does not depend on its batch: a plain unit that raises gets m = 0,
    residual 1; a ridge unit that raises raises SingularGramError."""
    if ridge:
        diag = gram.reshape(gram.shape[0], -1)[:, ::ones.size + 1]
        diag += _FALLBACK_RIDGE * diag.mean(axis=1, keepdims=True)
    try:
        z = np.linalg.solve(gram, ones)
    except np.linalg.LinAlgError:
        z = np.zeros(gram.shape[:2])
        for k, g in enumerate(gram):
            try:
                z[k] = np.linalg.solve(g, ones)
            except np.linalg.LinAlgError:
                if ridge:
                    raise SingularGramError("Gram singular even with the ridge") from None
    reps = (z[:, None] @ block)[:, 0]
    return reps, np.max(np.abs(block @ reps[..., None] - 1.0), axis=(1, 2))


def representatives(X: np.ndarray, partition: Partition, cfg: ConstructionConfig,
                    report: dict | None = None) -> np.ndarray:
    """(M, d) representatives of the partition's units, their rows of X
    gathered by ``partition.members_of`` in (b, n, d) batches of equal size n.
    X is used as stored (float32 or float64) and must have ``partition.N``
    rows; each batch is widened to float64, so sums and solves are float64
    whatever X holds.

    A unit's sum equals ``sum(axis=0)`` of its widened rows bit for bit.
    pinv keeps a unit's plain Gram solution when max |<m, x_i> - 1|, the
    paper's constraint, is within 2e-8; the other units are solved again
    from the same Gram plus the fallback ridge. Which units fall back, and
    their representatives, do not depend on the batch. A passed dict
    receives ``fallbacks``, the units that took the ridge, and
    ``max_residual``, the worst |<m_j, x_i> - 1| (0 for sum)."""
    X = np.asarray(X)
    if X.ndim != 2 or len(X) != partition.N:
        raise DimensionError("partition size does not match the dataset")
    sizes = partition.sizes
    if sizes.size == 0 or np.any(sizes <= 0):
        raise EmptyUnitError("no units, or an empty one")
    d = X.shape[1]
    reps = np.empty((sizes.size, d))
    fallbacks, worst = 0, 0.0
    for n in np.flatnonzero(np.bincount(sizes)):  # not np.unique, which imports np.ma
        step = max(1, _BATCH_FLOATS // (n * d))
        ones = np.ones(n)
        # a scan per size, not a stable sort, whose first call pages in 128 KiB of code
        units = np.flatnonzero(sizes == n)
        for js in (units[s:s + step] for s in range(0, units.size, step)):
            block = None  # free the last batch, so two are never alive at once
            block = np.take(X, partition.members_of(js).reshape(js.size, n), axis=0)
            block = block.astype(np.float64, copy=False)
            if cfg.kind == "sum":
                reps[js] = block.sum(axis=1)
                continue
            gram = block @ block.transpose(0, 2, 1)
            reps[js], resid = _pinv(gram, block, ones)
            ok = resid <= _RESIDUAL_BOUND
            worst = max(worst, float(resid[ok].max(initial=0.0)))
            redo = np.flatnonzero(~ok)
            if redo.size:
                reps[js[redo]], resid = _pinv(gram[redo], block[redo], ones, ridge=True)
                fallbacks += redo.size
                worst = max(worst, float(resid.max()))
    if report is not None:
        report.update(fallbacks=fallbacks, max_residual=worst)
    return reps
