"""Two-level search: scan memory vectors, re-rank members of positive
units. Real-valued path plus symmetric/asymmetric sign-binarized variants.

Unit positivity uses strict inequality score > tau; the complexity of one
query is M + sum of the sizes of the positive units.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .assignment import Partition
from .construction import ConstructionConfig, representatives
from .core import FILE_NORM_TOL, Dataset, MemoryIndex
from .errors import DimensionError, DomainError, ModeError, NormalizationError

__all__ = [
    "QueryResult",
    "BinaryIndex",
    "build_index",
    "query",
    "binarize",
    "query_binary",
    "sign_code",
    "hamming_inner",
    "asymmetric_inner",
]


@dataclass(frozen=True)
class QueryResult:
    """Scan outcome for one query.

    positive_units: (unit id, unit score) pairs in unit-id order.
    candidates: (dataset id, similarity) sorted by descending similarity,
    ties broken by lower id. complexity = M + sum of positive unit sizes.
    """

    positive_units: tuple[tuple[int, float], ...]
    candidates: tuple[tuple[int, float], ...]
    complexity: int
    complexity_ratio: float


def build_index(dataset: Dataset, partition: Partition,
                cfg: ConstructionConfig | None = None) -> MemoryIndex:
    """One memory unit per partition cell, representative per the
    construction config. The index shares the partition's CSR arrays.
    Units that took the pinv ridge fallback are logged as a warning."""
    cfg = cfg or ConstructionConfig()
    if partition.N != dataset.size:
        raise DimensionError("partition size does not match the dataset")
    report = {}
    reps = representatives(dataset.vectors, partition.order, partition.offsets,
                           cfg, report)
    if report["fallbacks"]:
        logging.getLogger("memvec").warning(
            "%d of %d units took the pinv ridge fallback; worst |<m_j, x_i> - 1| = %.3e",
            report["fallbacks"], partition.M, report["max_residual"])
    return MemoryIndex(representatives=reps, offsets=partition.offsets,
                       member_ids=partition.order, construction=cfg.kind)


def _rank_candidates(ids: np.ndarray, sims: np.ndarray) -> tuple[tuple[int, float], ...]:
    # descending similarity, ties by lower id
    order = np.lexsort((ids, -sims))
    return tuple((int(ids[k]), float(sims[k])) for k in order)


def _assemble(index: MemoryIndex, positive: np.ndarray, unit_scores: np.ndarray,
              candidate_sims) -> QueryResult:
    pos_units = tuple((int(j), float(unit_scores[j])) for j in positive)
    ids = np.concatenate([np.empty(0, dtype=np.int64)] + [
        index.member_ids[index.offsets[j]:index.offsets[j + 1]] for j in positive])
    complexity = index.num_units + ids.size
    return QueryResult(positive_units=pos_units,
                       candidates=_rank_candidates(ids, candidate_sims(ids)),
                       complexity=complexity,
                       complexity_ratio=complexity / index.total)


def _select_units(unit_scores: np.ndarray, tau: float | None,
                  top_units: int | None) -> np.ndarray:
    if (tau is None) == (top_units is None):
        raise DomainError("exactly one of tau / top_units must be given")
    if tau is not None and np.isnan(tau):
        raise DomainError("tau is NaN")
    if tau is not None:
        return np.flatnonzero(unit_scores > tau)
    k = min(top_units, unit_scores.size)
    if k < 0:
        raise DomainError("top_units must be non-negative")
    # highest scores, deterministic tie-break by lower unit id
    order = np.lexsort((np.arange(unit_scores.size), -unit_scores))
    return np.sort(order[:k])


def _checked_query(index: MemoryIndex, dataset: Dataset, y) -> np.ndarray:
    """y as a float64 unit vector that matches the index and its dataset."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (index.dim,) or dataset.vectors.shape != (index.total, index.dim):
        raise DimensionError("query, index and dataset disagree in shape")
    if not np.all(np.isfinite(y)) or abs(np.linalg.norm(y) - 1.0) > FILE_NORM_TOL:
        raise NormalizationError("query is not a finite unit vector")
    return y


def query(index: MemoryIndex, dataset: Dataset, y: np.ndarray,
          tau: float | None = None, top_units: int | None = None) -> QueryResult:
    """Scan all memory vectors; re-rank members of units with score > tau
    (or of the top_units highest-scoring units) by true inner product."""
    y = _checked_query(index, dataset, y)
    unit_scores = index.representatives @ y
    positive = _select_units(unit_scores, tau, top_units)
    return _assemble(index, positive, unit_scores,
                     lambda ids: dataset.vectors[ids] @ y)


# ---------------------------------------------------------------------------
# sign binarization
# ---------------------------------------------------------------------------


def sign_code(v: np.ndarray) -> np.ndarray:
    """Sign bits of v: bit k is True iff coefficient k >= 0."""
    return np.asarray(v) >= 0.0


def hamming_inner(a: np.ndarray, b: np.ndarray) -> int:
    """Inner product of the +/-1 vectors behind two codes: d - 2 hamming."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise DimensionError("code length mismatch")
    return int(a.size - 2 * np.count_nonzero(a != b))


def asymmetric_inner(y: np.ndarray, code: np.ndarray) -> float:
    """Real query against a +/-1 code: sum of +/- y_k (unnormalized)."""
    y = np.asarray(y, dtype=np.float64)
    code = np.asarray(code, dtype=bool)
    if y.shape != code.shape:
        raise DimensionError("code length mismatch")
    return float(np.sum(np.where(code, y, -y)))


@dataclass(frozen=True)
class BinaryIndex:
    """Sign codes of all dataset vectors and unit representatives.

    Real vectors are retained via ``index``/``dataset`` references so
    re-ranking can use true inner products.
    """

    codes: np.ndarray       # (N, d) bool
    unit_codes: np.ndarray  # (M, d) bool
    index: MemoryIndex
    dataset: Dataset

    @property
    def dim(self) -> int:
        return self.codes.shape[1]


def binarize(index: MemoryIndex, dataset: Dataset) -> BinaryIndex:
    """Sign-binarize every dataset vector and unit representative."""
    return BinaryIndex(codes=sign_code(dataset.vectors),
                       unit_codes=sign_code(index.representatives),
                       index=index, dataset=dataset)


def _pm1(codes: np.ndarray) -> np.ndarray:
    return np.where(codes, 1.0, -1.0)


def query_binary(bindex: BinaryIndex, y: np.ndarray, tau: float | None = None,
                 mode: str = "asymmetric", top_units: int | None = None,
                 rerank: str = "real") -> QueryResult:
    """Binary-sketch scan.

    symmetric: the query is binarized too; unit score is the normalized
    +/-1 inner product (d - 2 hamming) / d. asymmetric: the real query
    scores against +/-1 unit codes, normalized by sqrt(d). Thresholds
    apply to these normalized scores. Candidates re-rank with real inner
    products by default; ``rerank="binary"`` uses the same mode's
    binarized score.
    """
    if mode not in ("symmetric", "asymmetric"):
        raise ModeError(f"unknown binary mode {mode!r}")
    if rerank not in ("real", "binary"):
        raise ModeError(f"unknown rerank mode {rerank!r}")
    y = _checked_query(bindex.index, bindex.dataset, y)
    d = bindex.dim

    if mode == "symmetric":
        code_y = sign_code(y)
        agree = bindex.unit_codes == code_y[None, :]
        unit_scores = (2.0 * np.count_nonzero(agree, axis=1) - d) / d
    else:
        unit_scores = (_pm1(bindex.unit_codes) @ y) / np.sqrt(d)

    positive = _select_units(unit_scores, tau, top_units)

    if rerank == "real":
        sims = lambda ids: bindex.dataset.vectors[ids] @ y
    elif mode == "symmetric":
        code_y = sign_code(y)
        sims = lambda ids: (2.0 * np.count_nonzero(
            bindex.codes[ids] == code_y[None, :], axis=1) - d) / d
    else:
        sims = lambda ids: (_pm1(bindex.codes[ids]) @ y) / np.sqrt(d)

    return _assemble(bindex.index, positive, unit_scores, sims)
