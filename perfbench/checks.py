"""Correctness checks on query answers, run after the timed loop.

Every answer is checked against the benchmark's own numpy reference: the
unit scores it recomputes from the index's representatives, the partition
it built, and the dataset rows. ``check_answer`` returns the names of the
checks that failed, so a tampered answer is both caught and counted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

SIM_TOL = 1e-12      # candidate similarity vs X[id] . y
BOUNDARY_TOL = 1e-9  # a unit this close to the cut may fall either side
PINV_TOL = 1e-8      # |<m_j, x_i> - 1| for pinv members


@dataclass(frozen=True)
class Answer:
    """One query result as arrays: candidates in returned order, positive
    units in returned order, and the reported complexity ratio."""

    ids: np.ndarray
    sims: np.ndarray
    units: np.ndarray
    unit_scores: np.ndarray
    ratio: float

    def digest(self) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        for a in (self.ids, self.sims, self.units, self.unit_scores):
            h.update(a.tobytes())
        h.update(repr(self.ratio).encode())
        return h.digest()


def answer_of(res) -> Answer:
    """Convert a ``memvec.search.QueryResult``."""
    cand, pos = res.candidates, res.positive_units
    return Answer(
        ids=np.fromiter((c[0] for c in cand), np.int64, len(cand)),
        sims=np.fromiter((c[1] for c in cand), np.float64, len(cand)),
        units=np.fromiter((u[0] for u in pos), np.int64, len(pos)),
        unit_scores=np.fromiter((u[1] for u in pos), np.float64, len(pos)),
        ratio=float(res.complexity_ratio),
    )


def selection_ok(units: np.ndarray, scores: np.ndarray, tau: float | None,
                 top_units: int | None) -> bool:
    """Positive units are {j : score_j > tau}, or the top_units highest
    scores with ties to the lower unit id; a unit within BOUNDARY_TOL of
    the cut may land on either side."""
    M = scores.size
    if units.size and (units.min() < 0 or units.max() >= M or np.any(np.diff(units) <= 0)):
        return False
    got = np.zeros(M, dtype=bool)
    got[units] = True
    if tau is not None:
        cut = tau
        want = scores > tau
    else:
        k = min(top_units, M)
        if units.size != k:
            return False
        order = np.lexsort((np.arange(M), -scores))
        want = np.zeros(M, dtype=bool)
        want[order[:k]] = True
        cut = scores[order[k - 1]] if k else np.inf
    off = got != want
    return bool(np.all(np.abs(scores[off] - cut) <= BOUNDARY_TOL))


def check_answer(a: Answer, y: np.ndarray, X: np.ndarray, unit_of: np.ndarray,
                 sizes: np.ndarray, scores: np.ndarray, tau: float | None = None,
                 top_units: int | None = None) -> list[str]:
    """Names of the checks ``a`` fails for query y; empty when correct.

    ``scores`` are the reference unit scores of y, ``unit_of``/``sizes``
    the partition the index was built from.
    """
    N, M = X.shape[0], scores.size
    failed = []
    ids, sims = a.ids, a.sims
    if ids.size != sims.size:
        return ["shape"]
    if ids.size and (ids.min() < 0 or ids.max() >= N or np.unique(ids).size != ids.size):
        return ["ids"]
    hi, lo = sims[:-1], sims[1:]
    if not np.all((hi > lo) | ((hi == lo) & (ids[:-1] < ids[1:]))):
        failed.append("order")
    if ids.size and np.max(np.abs(sims - X[ids] @ y)) > SIM_TOL:
        failed.append("similarity")
    if not selection_ok(a.units, scores, tau, top_units):
        failed.append("units")
        return failed
    if a.units.size and np.max(np.abs(a.unit_scores - scores[a.units])) > BOUNDARY_TOL:
        failed.append("unit_scores")
    scanned = int(sizes[a.units].sum())
    if ids.size != scanned or not np.all(np.isin(unit_of[ids], a.units)):
        failed.append("members")
    if abs(a.ratio - (M + scanned) / N) > SIM_TOL:
        failed.append("ratio")
    return failed


def pinv_residual(R: np.ndarray, unit_of: np.ndarray, X: np.ndarray,
                  chunk: int = 8192) -> float:
    """Worst |<m_unit(i), x_i> - 1| over all rows."""
    worst = 0.0
    for s in range(0, X.shape[0], chunk):
        dots = np.einsum("ij,ij->i", R[unit_of[s:s + chunk]], X[s:s + chunk])
        worst = max(worst, float(np.max(np.abs(dots - 1.0))))
    return worst


def recall_report(retrieved: list[np.ndarray], matches: list[np.ndarray],
                  ranks=(1, 10, 100)) -> dict:
    """Numpy twin of ``evaluate_results``' recall fields."""
    found = [np.isin(r, m) for r, m in zip(retrieved, matches)]
    total = sum(m.size for m in matches)
    out = {"recall_of_matches": sum(int(f.sum()) for f in found) / total if total else 0.0}
    for r in ranks:
        vals = [f[:r].sum() / min(r, m.size) for f, m in zip(found, matches) if m.size]
        out[f"recall_at_{r}"] = float(np.mean(vals)) if vals else 0.0
    return out
