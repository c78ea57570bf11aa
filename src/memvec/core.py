"""Core data model: unit vectors, datasets, partitions and the memory index.

All vectors live on the d-dimensional unit hypersphere, by one row check for
datasets and queries, and similarity is the plain inner product. Dataset
coefficients are stored as read (float32 from a file, float64 when generated)
and widened per block: every kernel widens the rows it gathers, so all
arithmetic that decides a result is float64 (k-means screens in float32
first). Dataset ids, and the CSR offsets that delimit them, are held as
``ID_DTYPE`` (int32), so a dataset holds fewer than 2^31 vectors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, EmptyUnitError, ModelError, NormalizationError

FILE_NORM_TOL = 1e-4  # loose bound for stored vectors: files hold float32
BLOCK_FLOATS = 1 << 17  # float64 score block, and gathered row block, of about 1 MB
TEMP_BYTES = 1 << 17  # a chunked kernel's temporary: 128 KiB, glibc's initial mmap threshold
_NORM_ROWS = 1 << 13  # rows per squared-norm chunk in the unit-row check
ID_DTYPE = np.dtype(np.int32)  # member ids and CSR offsets; MVIX stores them as uint32
MAX_IDS = int(np.iinfo(ID_DTYPE).max)  # N <= 2^31 - 1: offsets[-1] = N must fit too

__all__ = [
    "ID_DTYPE",
    "MAX_IDS",
    "normalize",
    "Dataset",
    "Partition",
    "MemoryIndex",
]


def normalize(v) -> np.ndarray:
    """Return v / ||v||_2 as a float64 unit vector.

    Raises NormalizationError for zero-norm or non-finite input.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError("expected a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise NormalizationError("vector has non-finite coefficients")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise NormalizationError("cannot normalize a zero vector")
    out = arr / norm
    # one refinement pass keeps |norm - 1| well inside 1e-9
    out = out / float(np.linalg.norm(out))
    return out


def _check_unit_rows(arr: np.ndarray, name: str) -> None:
    """The unit-row rule of datasets and queries: NormalizationError unless each row of the
    2-D ``arr`` has a finite float64 squared norm in (1 -/+ FILE_NORM_TOL)^2, by row chunks."""
    # squared norms are >= 0, so the max is non-finite iff some coefficient is (NaN propagates)
    lo, hi = np.inf, 0.0
    for start in range(0, len(arr), _NORM_ROWS):
        chunk = arr[start:start + _NORM_ROWS]
        sq = np.einsum("ij,ij->i", chunk, chunk, dtype=np.float64)
        lo, hi = np.minimum(lo, sq.min()), np.maximum(hi, sq.max())
    if not np.isfinite(hi):
        raise NormalizationError(f"{name} has non-finite coefficients")
    if lo < (1.0 - FILE_NORM_TOL) ** 2 or hi > (1.0 + FILE_NORM_TOL) ** 2:
        raise NormalizationError(f"{name} rows are not unit vectors")


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of N unit vectors of common dimension d.

    Ids are positional: vector i is ``vectors[i]``, a read-only view that
    shares memory with a float32 or float64 input (the caller's array stays
    writeable); any other input is converted to float64. Rows are stored as
    read and widened to float64 per block by the kernels that use them.
    """

    vectors: np.ndarray  # (N, d) float32 or float64

    def __post_init__(self):
        arr = np.asarray(self.vectors)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
        arr = arr.view()
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError("dataset must be a non-empty (N, d) array")
        _check_unit_rows(arr, "dataset")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _check_id_count(N: int) -> None:
    if N > MAX_IDS:
        raise DomainError(f"N = {N} ids: a partition holds at most {MAX_IDS}")


def _check_count(value, name: str, least: int, error: type = DomainError) -> int:
    """``value`` as an int of at least ``least``; a float count raises
    ``error`` here, not a TypeError inside numpy."""
    try:
        n = operator.index(value)
    except TypeError as exc:
        raise error(f"{name} must be an integer: {exc}") from exc
    if n < least:
        raise error(f"{name} must be >= {least}, got {value}")
    return n


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of N dataset ids to M units in CSR layout: unit j holds
    the ids ``member_ids[offsets[j]:offsets[j + 1]]``. Units may be empty.

    The constructor checks that the offsets run from 0 up to N and that
    ``member_ids`` is a permutation of [0, N). Both arrays are kept as
    read-only ``ID_DTYPE`` views (the caller's arrays stay writeable); ids
    and offsets of another integer dtype are checked as int64, then
    narrowed, so N is at most ``MAX_IDS``. No per-id label array is kept:
    ``unit_of`` rebuilds the labels from the CSR on each access."""

    member_ids: np.ndarray  # (N,) ID_DTYPE
    offsets: np.ndarray  # (M + 1,) ID_DTYPE

    def __post_init__(self):
        if any(np.asarray(a).dtype.kind not in "iu" for a in (self.offsets, self.member_ids)):
            raise ModelError("member ids and offsets must be integers, not floats or bools")
        offsets, ids = (a if a.dtype == ID_DTYPE else a.astype(np.int64, copy=False)
                        for a in map(np.asarray, (self.offsets, self.member_ids)))
        if ids.size > MAX_IDS:
            raise ModelError(f"{ids.size} member ids: an index holds at most {MAX_IDS}")
        if (ids.ndim != 1 or offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or offsets[-1] != ids.size or np.any(np.diff(offsets) <= -1)):
            raise ModelError("offsets do not delimit the member ids")
        # N ids in [0, N) that mark every slot of an N-byte mask are a permutation
        seen = np.zeros(ids.size, dtype=bool)
        if ids.size and ids.min() >= 0 and ids.max() < ids.size:
            seen[ids] = True
        if not seen.all():
            raise ModelError("unit members do not partition the dataset ids")
        # in range now: offsets run from 0 up to N, ids lie in [0, N)
        for name, arr in (("member_ids", ids), ("offsets", offsets)):
            arr = arr.astype(ID_DTYPE, copy=False).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_labels(cls, unit_of: np.ndarray, M: int) -> Partition:
        """The partition that puts dataset id i in unit ``unit_of[i]``, each
        unit's ids ascending; the labels are not kept."""
        u = np.asarray(unit_of)
        if u.ndim != 1 or u.size == 0:
            raise DomainError("unit_of must be a non-empty 1-d array")
        if u.dtype.kind not in "iu":  # a float label would be truncated, a bool read as 0/1
            raise DomainError(f"unit ids must be integers, not {u.dtype}")
        u = u.astype(np.int64, copy=False)
        _check_id_count(u.size)
        M = _check_count(M, "M", 1)
        if u.min() < 0 or u.max() >= M:
            raise DomainError("unit ids out of range")
        offsets = np.zeros(M + 1, dtype=ID_DTYPE)
        np.cumsum(np.bincount(u, minlength=M), out=offsets[1:])
        # the narrowest unsigned key that holds M - 1: numpy radix-sorts keys of 16 bits or less
        order = np.argsort(u.astype(np.min_scalar_type(M - 1)), kind="stable")
        return cls(order.astype(ID_DTYPE), offsets)

    @property
    def M(self) -> int:
        return self.offsets.size - 1

    @property
    def N(self) -> int:
        return self.member_ids.size

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def unit_of(self) -> np.ndarray:
        """(N,) int64 unit label of each dataset id, a fresh array rebuilt
        from the CSR."""
        unit_of = np.empty(self.N, dtype=np.int64)
        unit_of[self.member_ids] = np.repeat(np.arange(self.M), self.sizes)
        return unit_of

    def members_of(self, units: np.ndarray) -> np.ndarray:
        """Member ids of the integer array ``units``: their CSR slices concatenated."""
        lo, hi = self.offsets[units], self.offsets[1:][units]
        n = hi - lo
        # one index, not a slice per unit: with ends = cumsum(n), the k-th unit
        # fills slots [ends[k] - n[k], ends[k]), slot t reading member_ids[t + hi[k] - ends[k]]
        idx = (hi - n.cumsum()).repeat(n)
        idx += np.arange(idx.size)
        return self.member_ids[idx]


@dataclass(frozen=True, eq=False)
class MemoryIndex:
    """One memory unit per cell of ``partition``, summarized by
    ``representatives[j]`` (not necessarily unit norm). Invariant: no unit
    is empty."""

    representatives: np.ndarray  # (M, d) float64
    partition: Partition
    construction: str  # "sum" | "pinv"

    def __post_init__(self):
        if self.construction not in ("sum", "pinv"):
            raise ModelError(f"unknown construction tag {self.construction!r}")
        # a view, so the caller's array stays writeable when it is not copied
        reps = np.asarray(self.representatives, dtype=np.float64).view()
        if reps.ndim != 2 or len(reps) != self.partition.M:
            raise ModelError("representatives do not match the partition's units")
        if reps.shape[1] < 1:
            raise DimensionError("representatives must have dimension >= 1")
        if len(reps) == 0 or np.any(self.partition.sizes <= 0):
            raise EmptyUnitError("index has no units, or an empty one")
        # min and max propagate NaN, so no (M, d) mask is needed
        if not (np.isfinite(reps.min()) and np.isfinite(reps.max())):
            raise DimensionError("representatives must be finite")
        reps.setflags(write=False)
        object.__setattr__(self, "representatives", reps)

    @property
    def dim(self) -> int:
        return self.representatives.shape[1]
