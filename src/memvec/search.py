"""Two-level search: scan memory vectors, re-rank members of positive
units. Real-valued path plus symmetric/asymmetric sign-binarized variants.

Units are selected a block of queries at a time: score > tau (strict), or each
row's top_units best scores, ties to the lower unit id. The complexity of one
query is M + sum of the sizes of its positive units.
"""

from __future__ import annotations

import logging
import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .construction import ConstructionConfig, representatives
from .core import BLOCK_FLOATS, TEMP_BYTES, Dataset, MemoryIndex, Partition, _check_unit_rows
from .errors import DimensionError, DomainError, ModelError

__all__ = [
    "QueryResult",
    "BinaryIndex",
    "build_index",
    "query",
    "query_batch",
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
    report = {}
    reps = representatives(dataset.vectors, partition, cfg, report)
    if report["fallbacks"]:
        logging.getLogger("memvec").warning(
            "%d of %d units took the pinv ridge fallback; worst |<m_j, x_i> - 1| = %.3e",
            report["fallbacks"], partition.M, report["max_residual"])
    return MemoryIndex(representatives=reps, partition=partition, construction=cfg.kind)


def _check_selector(tau: float | None, top_units: int | None) -> None:
    """Raise DomainError unless exactly one of tau (a float, not NaN) and top_units (an
    integer >= 0) is given."""
    if (tau is None) == (top_units is None):
        raise DomainError("exactly one of tau / top_units must be given")
    try:  # tau must convert to a float, top_units be an integer
        if tau is not None and math.isnan(tau):
            raise DomainError("tau is NaN")
        if top_units is not None and operator.index(top_units) < 0:
            raise DomainError("top_units must be non-negative")
    except TypeError as exc:
        raise DomainError(f"bad unit selector: {exc}") from exc


def _units(Q, d: int, M: int, score: Callable, tau: float | None,
           top_units: int | None) -> Iterator[tuple]:
    """Layers 1-2 of every query path, on Q (B, d) a block of rows at a time: check and
    widen the block Y, ``score`` it S (b, M), at most ``BLOCK_FLOATS`` scores, and select
    its units in one call; yield (Y, S, selection). The selection is the (b, M) mask
    S > tau, or else each row's ``top_units`` best unit ids, best first, ties to the lower id."""
    rows = max(1, BLOCK_FLOATS // M)
    for start in range(0, len(Q), rows):
        Y = _checked_query(Q[start:start + rows], d)
        S = score(Y)
        yield Y, S, S > tau if tau is not None else np.argsort(-S, 1, kind="stable")[:, :top_units]


def _scan(part: Partition, vectors: np.ndarray, Q: np.ndarray, score: Callable,
          tau: float | None, top_units: int | None) -> Iterator[QueryResult]:
    """Layers 3-4 of every query path: per row of each ``_units`` block, gather the members
    of its positive units (ascending) by ``Partition.members_of``, re-rank, assemble."""
    for Y, S, selection in _units(Q, vectors.shape[1], part.M, score, tau, top_units):
        for y, scores, row in zip(Y, S, selection):
            pos = np.flatnonzero(row) if tau is not None else np.sort(row)
            ids = part.members_of(pos)
            # keep this gather order: the sims the CLI writes depend on it in the last bits
            sims = vectors[ids] @ y
            order = np.argsort(-sims)
            if np.any(np.diff(sims[order]) == 0.0):  # equal sims: ties go to the lower id
                order = np.lexsort((ids, -sims))
            units = np.empty(pos.size, _UNIT_DTYPE)
            units["unit"], units["score"] = pos, scores[pos]
            cands = np.empty(ids.size, _CANDIDATE_DTYPE)
            cands["id"], cands["sim"] = ids[order], sims[order]
            complexity = part.M + ids.size
            yield QueryResult(positive_units=units, candidates=cands, complexity=complexity,
                              complexity_ratio=complexity / part.N)


def _checked_query(Y, d: int) -> np.ndarray:
    """Y as a float64 (b, d) array, each row a finite unit vector by the Dataset's row rule."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] != d:
        raise DimensionError(f"query shape {Y.shape} is not (b, {d})")
    _check_unit_rows(Y, "query")
    return Y


def query_batch(index: MemoryIndex, dataset: Dataset, Q: np.ndarray,
                tau: float | None = None, top_units: int | None = None) -> Iterator[QueryResult]:
    """``query`` of each row of Q (B, d), in order. The selector and dataset are checked
    now, each block of rows when it is reached. A block is scored by one product of at most
    ``BLOCK_FLOATS`` scores, so unit scores may differ from ``query``'s in the last bits."""
    _check_selector(tau, top_units)
    if dataset.vectors.shape != (index.partition.N, index.dim):
        raise DimensionError("query, index and dataset disagree in shape")
    return _scan(index.partition, dataset.vectors, Q, lambda Y: Y @ index.representatives.T,
                 tau, top_units)


def query(index: MemoryIndex, dataset: Dataset, y: np.ndarray,
          tau: float | None = None, top_units: int | None = None) -> QueryResult:
    """Scan all memory vectors; re-rank members of units with score > tau
    (or of the top_units highest-scoring units) by true inner product."""
    return next(query_batch(index, dataset, np.asarray(y)[None], tau, top_units))


# ---------------------------------------------------------------------------
# sign binarization
# ---------------------------------------------------------------------------


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
    """Packed sign codes of the rows of A, binarized ``TEMP_BYTES`` bools at a time."""
    n, d = A.shape
    out = np.zeros((n, _code_bytes(d)), dtype=np.uint8)
    step = max(1, TEMP_BYTES // d)
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
    (2 sum_b T[b, code_b] - sum(y)) / sqrt(d) over its sign bytes b, looked up
    ``TEMP_BYTES`` of int64 indices at a time."""
    nb = table.shape[0]
    flat, base = table.ravel(), 256 * np.arange(nb)
    on = np.empty(len(codes))
    step = max(1, TEMP_BYTES // (8 * nb))
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
    _check_selector(tau, top_units)  # the sketch checked its dataset; the scan checks y
    if mode == "symmetric":
        score = lambda Y: _symmetric_scores(bindex.unit_codes, _pack_signs(Y), Y.shape[1])[None]
    else:
        score = lambda Y: _asymmetric_scores(bindex.unit_codes, _byte_table(Y[0]), Y[0])[None]
    return next(_scan(bindex.partition, bindex.dataset.vectors, np.asarray(y)[None], score,
                      tau, top_units))
