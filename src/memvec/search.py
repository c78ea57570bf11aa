"""Two-level search: scan memory vectors, re-rank members of positive
units. Real-valued path plus symmetric/asymmetric sign-binarized variants.

Unit positivity uses strict inequality score > tau; the complexity of one
query is M + sum of the sizes of the positive units.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from .assignment import Partition
from .construction import ConstructionConfig, representatives
from .core import FILE_NORM_TOL, Dataset, MemoryIndex
from .errors import DimensionError, DomainError, ModeError, ModelError, NormalizationError

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
    try:  # tau must convert to a float, top_units be an integer
        if tau is not None:
            if math.isnan(tau):
                raise DomainError("tau is NaN")
            return np.flatnonzero(unit_scores > tau)
        k = min(operator.index(top_units), unit_scores.size)
    except TypeError as exc:
        raise DomainError(f"bad unit selector: {exc}") from exc
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


# Sign bits handled per chunk: rows binarized, or codes looked up, at once.
# Small chunks keep the temporaries from staying resident in the heap.
_CHUNK_BITS = 1 << 17

# _BYTE_BITS[v, i] is bit i of byte value v, most significant first, as
# np.packbits lays out bits 8b..8b+7 of a code in byte b.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                           axis=1).astype(np.float64)


def _code_bytes(d: int) -> int:
    return -(-d // 8)


@dataclass(frozen=True)
class BinaryIndex:
    """Sign codes of the unit representatives, packed eight bits to a byte
    by ``np.packbits`` (bit k of a code is bit 7 - k % 8 of byte k // 8; the
    pad bits of the last byte are 0).

    The dataset is kept by reference: candidates re-rank by true inner
    products, or by the codes of their rows, packed when gathered.
    """

    unit_codes: np.ndarray  # (M, ceil(d / 8)) uint8
    index: MemoryIndex
    dataset: Dataset

    def __post_init__(self):
        d, nb = self.index.dim, _code_bytes(self.index.dim)
        if self.dataset.vectors.shape != (self.index.total, d):
            raise DimensionError("dataset does not match the index")
        codes = np.asarray(self.unit_codes).view()
        if codes.dtype != np.uint8:
            raise ModelError("unit_codes must be packed uint8 bytes")
        if codes.shape != (self.index.num_units, nb):
            raise DimensionError(f"unit_codes must have shape {(self.index.num_units, nb)}")
        if np.any(codes[:, -1] & np.uint8(0xFF >> (d - 8 * (nb - 1)))):
            raise ModelError("unit_codes has pad bits set")
        codes.setflags(write=False)
        object.__setattr__(self, "unit_codes", codes)

    @property
    def dim(self) -> int:
        return self.index.dim


def _pack_signs(A: np.ndarray) -> np.ndarray:
    """Packed sign codes of the rows of A, binarized a chunk of rows at a time."""
    n, d = A.shape
    out = np.empty((n, _code_bytes(d)), dtype=np.uint8)
    step = max(1, _CHUNK_BITS // d)
    for s in range(0, n, step):
        out[s:s + step] = np.packbits(sign_code(A[s:s + step]), axis=1)
    return out


def binarize(index: MemoryIndex, dataset: Dataset) -> BinaryIndex:
    """Sign-binarize every unit representative."""
    return BinaryIndex(unit_codes=_pack_signs(index.representatives),
                       index=index, dataset=dataset)


def _symmetric_scores(codes: np.ndarray, code_y: np.ndarray, d: int) -> np.ndarray:
    """(d - 2 hamming) / d of each packed code against the packed query code."""
    ham = np.bitwise_count(codes ^ code_y).sum(axis=1, dtype=np.int64)
    return (d - 2 * ham) / d


def _byte_table(y: np.ndarray) -> np.ndarray:
    """T[b, v]: sum of y over the set bits of byte value v at byte b."""
    padded = np.zeros(8 * _code_bytes(y.size))
    padded[:y.size] = y
    return padded.reshape(-1, 8) @ _BYTE_BITS.T


def _asymmetric_scores(codes: np.ndarray, table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(sum of +/- y_k) / sqrt(d) of each packed code, as
    (2 sum_b T[b, code_b] - sum(y)) / sqrt(d), a chunk of rows at a time."""
    nb = table.shape[0]
    flat, base = table.ravel(), 256 * np.arange(nb)
    on = np.empty(len(codes))
    step = max(1, _CHUNK_BITS // (8 * nb))
    for s in range(0, len(codes), step):
        on[s:s + step] = flat.take(codes[s:s + step] + base).sum(axis=1)
    return (2.0 * on - y.sum()) / np.sqrt(y.size)


def query_binary(bindex: BinaryIndex, y: np.ndarray, tau: float | None = None,
                 mode: str = "asymmetric", top_units: int | None = None,
                 rerank: str = "real") -> QueryResult:
    """Binary-sketch scan.

    symmetric: the query is binarized too; unit score is the normalized
    +/-1 inner product (d - 2 hamming) / d, by popcount. asymmetric: the
    real query scores against +/-1 unit codes, normalized by sqrt(d), by a
    per-query table of y summed over each byte value. Thresholds apply to
    these normalized scores. Candidates re-rank with real inner products
    by default; ``rerank="binary"`` uses the same mode's binarized score.
    """
    if mode not in ("symmetric", "asymmetric"):
        raise ModeError(f"unknown binary mode {mode!r}")
    if rerank not in ("real", "binary"):
        raise ModeError(f"unknown rerank mode {rerank!r}")
    y = _checked_query(bindex.index, bindex.dataset, y)

    if mode == "symmetric":
        code_y = np.packbits(sign_code(y))
        score = lambda codes: _symmetric_scores(codes, code_y, y.size)
    else:
        table = _byte_table(y)
        score = lambda codes: _asymmetric_scores(codes, table, y)

    unit_scores = score(bindex.unit_codes)
    positive = _select_units(unit_scores, tau, top_units)
    if rerank == "real":
        sims = lambda ids: bindex.dataset.vectors[ids] @ y
    else:
        sims = lambda ids: score(_pack_signs(bindex.dataset.vectors[ids]))
    return _assemble(bindex.index, positive, unit_scores, sims)
