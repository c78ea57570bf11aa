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

from .construction import ConstructionConfig, representatives
from .core import FILE_NORM_TOL, Dataset, MemoryIndex, Partition
from .errors import DimensionError, DomainError, ModelError, NormalizationError

__all__ = [
    "QueryResult",
    "BinaryIndex",
    "build_index",
    "query",
    "binarize",
    "query_binary",
]


_UNIT_DTYPE = np.dtype([("unit", np.int64), ("score", np.float64)])
_CANDIDATE_DTYPE = np.dtype([("id", np.int64), ("sim", np.float64)])


@dataclass(frozen=True, eq=False)
class QueryResult:
    """Scan outcome for one query; each record of its arrays unpacks as a pair.

    positive_units: (unit int64, score float64) records in unit-id order.
    candidates: (id int64, sim float64) records sorted by descending sim,
    ties broken by lower id. complexity = M + sum of positive unit sizes.
    """

    positive_units: np.ndarray
    candidates: np.ndarray
    complexity: int
    complexity_ratio: float


def build_index(dataset: Dataset, partition: Partition, cfg: ConstructionConfig) -> MemoryIndex:
    """One memory unit per partition cell, representative per the
    construction config. The index holds ``partition`` itself.
    Units that took the pinv ridge fallback are logged as a warning."""
    if partition.N != dataset.size:
        raise DimensionError("partition size does not match the dataset")
    report = {}
    reps = representatives(dataset.vectors, partition, cfg, report)
    if report["fallbacks"]:
        logging.getLogger("memvec").warning(
            "%d of %d units took the pinv ridge fallback; worst |<m_j, x_i> - 1| = %.3e",
            report["fallbacks"], partition.M, report["max_residual"])
    return MemoryIndex(representatives=reps, partition=partition, construction=cfg.kind)


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
    # highest scores; the stable sort breaks ties by lower unit id
    return np.sort(np.argsort(-unit_scores, kind="stable")[:k])


def _scan(part: Partition, vectors: np.ndarray, y: np.ndarray, unit_scores: np.ndarray,
          tau: float | None, top_units: int | None) -> QueryResult:
    """Layers 2-4 of both query paths: select the positive units, gather their
    members by ``Partition.members_of``, re-rank them by true inner product, assemble."""
    pos = _select_units(unit_scores, tau, top_units)
    ids = part.members_of(pos)
    # keep this gather order: the GEMV's sims, which the CLI writes, depend on it in the last bits
    sims = vectors[ids] @ y
    order = np.argsort(-sims)
    if np.any(np.diff(sims[order]) == 0.0):  # equal sims: ties go to the lower id
        order = np.lexsort((ids, -sims))
    units = np.empty(pos.size, _UNIT_DTYPE)
    units["unit"], units["score"] = pos, unit_scores[pos]
    cands = np.empty(ids.size, _CANDIDATE_DTYPE)
    cands["id"], cands["sim"] = ids[order], sims[order]
    complexity = part.M + ids.size
    return QueryResult(positive_units=units, candidates=cands, complexity=complexity,
                       complexity_ratio=complexity / part.N)


def _checked_query(y, shape: tuple[int, ...]) -> np.ndarray:
    """y as float64 of the given shape, (d,) or (Q, d), each row a finite unit vector."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != shape:
        raise DimensionError(f"query shape {y.shape} is not {shape}")
    # a NaN or inf coefficient makes a row's norm NaN or inf, which fails the test
    if not (abs(np.linalg.norm(y, axis=-1) - 1.0) <= FILE_NORM_TOL).all():
        raise NormalizationError("query is not a finite unit vector")
    return y


def query(index: MemoryIndex, dataset: Dataset, y: np.ndarray,
          tau: float | None = None, top_units: int | None = None) -> QueryResult:
    """Scan all memory vectors; re-rank members of units with score > tau
    (or of the top_units highest-scoring units) by true inner product."""
    if dataset.vectors.shape != (index.partition.N, index.dim):
        raise DimensionError("query, index and dataset disagree in shape")
    y = _checked_query(y, (index.dim,))
    return _scan(index.partition, dataset.vectors, y, index.representatives @ y, tau, top_units)


# ---------------------------------------------------------------------------
# sign binarization
# ---------------------------------------------------------------------------


# Sign bits handled per chunk: rows binarized, or codes looked up, at once.
# Small chunks keep the temporaries from staying resident in the heap.
_CHUNK_BITS = 1 << 17

# _BYTE_BITS[v, i] is bit i of byte value v, most significant first, as
# np.packbits lays out bits 8b..8b+7 of a code in byte b.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                           axis=1).astype(np.float64)


def _sign_bytes(d: int) -> int:
    return -(-d // 8)


def _code_bytes(d: int) -> int:
    """Stored bytes per code: its sign bytes padded to whole 8-byte words,
    so symmetric scores count 64 bits at a time."""
    return 8 * -(-d // 64)


@dataclass(frozen=True, eq=False)
class BinaryIndex:
    """Sign codes of the unit representatives, packed eight bits to a byte
    by ``np.packbits`` (bit k of a code is bit 7 - k % 8 of byte k // 8) and
    zero-padded to whole 8-byte words: every bit after bit d - 1 is 0.

    The partition and the dataset are kept by reference: candidates re-rank
    by true inner products. No float representative is kept.
    """

    unit_codes: np.ndarray  # (M, 8 ceil(d / 64)) uint8
    partition: Partition
    dataset: Dataset

    def __post_init__(self):
        d = self.dataset.dim
        nb, last = _code_bytes(d), _sign_bytes(d) - 1  # last: the last byte with sign bits
        if self.dataset.size != self.partition.N:
            raise DimensionError("dataset does not match the partition")
        codes = np.ascontiguousarray(self.unit_codes).view()  # symmetric scoring views words
        if codes.dtype != np.uint8:
            raise ModelError("unit_codes must be packed uint8 bytes")
        if codes.shape != (self.partition.M, nb):
            raise DimensionError(f"unit_codes must have shape {(self.partition.M, nb)}")
        if (np.any(codes[:, last] & np.uint8(0xFF >> (d - 8 * last)))
                or np.any(codes[:, last + 1:])):
            raise ModelError("unit_codes has pad bits set")
        codes.setflags(write=False)
        object.__setattr__(self, "unit_codes", codes)


def _pack_signs(A: np.ndarray) -> np.ndarray:
    """Packed sign codes of the rows of A, binarized a chunk of rows at a time."""
    n, d = A.shape
    out = np.zeros((n, _code_bytes(d)), dtype=np.uint8)
    step = max(1, _CHUNK_BITS // d)
    for s in range(0, n, step):
        out[s:s + step, :_sign_bytes(d)] = np.packbits(A[s:s + step] >= 0.0, axis=1)
    return out


def binarize(index: MemoryIndex, dataset: Dataset) -> BinaryIndex:
    """Sign codes of every unit representative, beside the index's partition."""
    if dataset.vectors.shape != (index.partition.N, index.dim):
        raise DimensionError("dataset does not match the index")
    return BinaryIndex(unit_codes=_pack_signs(index.representatives),
                       partition=index.partition, dataset=dataset)


def _symmetric_scores(codes: np.ndarray, code_y: np.ndarray, d: int) -> np.ndarray:
    """(d - 2 hamming) / d of each packed code against the packed query code,
    XORed and counted a 64-bit word at a time."""
    ham = np.bitwise_count(codes.view(np.uint64) ^ code_y.view(np.uint64))
    return (d - 2 * ham.sum(axis=1, dtype=np.int64)) / d


def _byte_table(y: np.ndarray) -> np.ndarray:
    """T[b, v]: sum of y over the set bits of byte value v at byte b."""
    padded = np.zeros(8 * _sign_bytes(y.size))
    padded[:y.size] = y
    return padded.reshape(-1, 8) @ _BYTE_BITS.T


def _asymmetric_scores(codes: np.ndarray, table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(sum of +/- y_k) / sqrt(d) of each packed code, as
    (2 sum_b T[b, code_b] - sum(y)) / sqrt(d) over its sign bytes b, a chunk
    of rows at a time."""
    nb = table.shape[0]
    flat, base = table.ravel(), 256 * np.arange(nb)
    on = np.empty(len(codes))
    step = max(1, _CHUNK_BITS // (8 * nb))
    for s in range(0, len(codes), step):
        on[s:s + step] = flat.take(codes[s:s + step, :nb] + base).sum(axis=1)
    return (2.0 * on - y.sum()) / np.sqrt(y.size)


def query_binary(bindex: BinaryIndex, y: np.ndarray, tau: float | None = None,
                 mode: str = "asymmetric", top_units: int | None = None) -> QueryResult:
    """Binary-sketch scan.

    symmetric: the query is binarized too; unit score is the normalized
    +/-1 inner product (d - 2 hamming) / d, by popcount. asymmetric: the
    real query scores against +/-1 unit codes, normalized by sqrt(d), by a
    per-query table of y summed over each byte value. Thresholds apply to
    these normalized scores. Candidates re-rank with real inner products.
    """
    if mode not in ("symmetric", "asymmetric"):
        raise DomainError(f"unknown binary mode {mode!r}")
    y = _checked_query(y, (bindex.dataset.dim,))  # the sketch checked its dataset
    if mode == "symmetric":
        unit_scores = _symmetric_scores(bindex.unit_codes, _pack_signs(y[None]), y.size)
    else:
        unit_scores = _asymmetric_scores(bindex.unit_codes, _byte_table(y), y)
    return _scan(bindex.partition, bindex.dataset.vectors, y, unit_scores, tau, top_units)
