"""Ground truth and retrieval quality measures.

All recall numbers are measured against brute-force cosine ground truth:
a database vector is a match for a query when their inner product reaches
alpha0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import BLOCK_FLOATS, Dataset
from ..errors import DimensionError, DomainError
from ..search import _checked_query

__all__ = ["EvalReport", "cosine_ground_truth", "evaluate_results"]

RECALL_RANKS = (1, 10, 100)


@dataclass(frozen=True)
class EvalReport:
    recall_of_matches: float
    precision: float
    recall_at_r: dict[int, float]
    mean_complexity_ratio: float
    complexity_std: float


def cosine_ground_truth(dataset: Dataset, queries: np.ndarray,
                        alpha0: float) -> list[np.ndarray]:
    """Per-query sorted id lists of all vectors with inner product >= alpha0.
    A query row that is not a finite unit vector raises NormalizationError,
    as in ``query``.

    The queries are scored against one block of dataset rows at a time,
    each copied (widened, when the dataset is float32) into one reused
    float64 buffer, so neither the (Q, N) score matrix nor a float64 copy
    of the dataset is made.
    """
    if np.isnan(alpha0):
        raise DomainError("alpha0 is NaN")
    queries = _checked_query(np.atleast_2d(queries), dataset.dim)
    X = dataset.vectors
    rows = max(1, BLOCK_FLOATS // max(len(queries), X.shape[1]))
    buf = np.empty((min(rows, len(X)), X.shape[1]))
    score_buf = np.empty(len(queries) * len(buf))  # flat: each view is contiguous
    q_hits, id_hits = [], []
    for start in range(0, len(X), rows):
        block = buf[:min(rows, len(X) - start)]
        block[...] = X[start:start + len(block)]
        scores = np.matmul(queries, block.T,
                           out=score_buf[:len(queries) * len(block)].reshape(-1, len(block)))
        q, i = np.nonzero(scores >= alpha0)  # by query, then by id
        q_hits.append(q)
        id_hits.append(i + start)
    q = np.concatenate(q_hits)
    ids = np.concatenate(id_hits)[np.argsort(q, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(q, minlength=len(queries)))))
    return [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def evaluate_results(retrieved: list[np.ndarray], matches: list[np.ndarray],
                     complexity_ratios: np.ndarray) -> EvalReport:
    """Aggregate recall/precision of ranked retrieval lists against match
    lists, plus complexity statistics.

    recall_at_r averages |top-R intersect matches| / min(R, |matches|) over
    the queries with a match. A repeated retrieved id raises DomainError.
    """
    ratios = np.asarray(complexity_ratios, dtype=np.float64)
    if len(retrieved) != len(matches) or ratios.shape != (len(matches),):
        raise DimensionError("retrieved, matches and complexity_ratios differ in length")
    hit = 0
    total_matches = 0
    total_retrieved = 0
    at_r = {r: [] for r in RECALL_RANKS}
    for q, (ids, gt) in enumerate(zip(retrieved, matches)):
        ids = np.asarray(ids, dtype=np.int64)
        s = np.sort(ids)  # each copy of a repeated id would count as a hit
        if np.any(s[1:] == s[:-1]):
            raise DomainError(f"retrieved list {q} repeats dataset id {s[1:][s[1:] == s[:-1]][0]}")
        # sorted set logic: np.unique and np.isin would import numpy.ma
        gt = np.sort(np.asarray(gt, dtype=np.int64))
        n_gt = gt.size - int(np.count_nonzero(gt[1:] == gt[:-1]))  # repeats count once
        found = np.searchsorted(gt, ids, "right") > np.searchsorted(gt, ids)
        total_matches += n_gt
        total_retrieved += ids.size
        hit += int(np.count_nonzero(found))
        if n_gt:
            for r in RECALL_RANKS:
                at_r[r].append(int(np.count_nonzero(found[:r])) / min(r, n_gt))
    return EvalReport(
        recall_of_matches=hit / total_matches if total_matches else 0.0,
        precision=hit / total_retrieved if total_retrieved else 0.0,
        recall_at_r={r: float(np.mean(v)) if v else 0.0 for r, v in at_r.items()},
        mean_complexity_ratio=float(np.mean(ratios)) if ratios.size else 0.0,
        complexity_std=float(np.std(ratios)) if ratios.size else 0.0,
    )
