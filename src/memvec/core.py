"""Core data model: unit vectors, datasets and the memory index.

All vectors live on the d-dimensional unit hypersphere and similarity is
the plain inner product. Dataset coefficients are stored as read (float32
from a file, float64 when generated) and widened per block: every kernel
widens the rows it gathers, so all arithmetic that decides a result is
float64 (the k-means assignment screens in float32 first). Dataset ids, and
the CSR offsets that delimit them, are held as ``ID_DTYPE`` (int32), so a
dataset holds fewer than 2^31 vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyUnitError, ModelError, NormalizationError

FILE_NORM_TOL = 1e-4  # loose bound for stored vectors: files hold float32
BLOCK_FLOATS = 1 << 17  # float64 score block, and gathered row block, of about 1 MB
_NORM_ROWS = 1 << 13  # rows per squared-norm chunk in the Dataset check
ID_DTYPE = np.dtype(np.int32)  # member ids and CSR offsets; MVIX stores them as uint32
MAX_IDS = int(np.iinfo(ID_DTYPE).max)  # N <= 2^31 - 1: offsets[-1] = N must fit too

__all__ = [
    "ID_DTYPE",
    "MAX_IDS",
    "normalize",
    "Dataset",
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
        # float64 row squared norms, a bounded chunk of rows at a time; they are
        # >= 0, so the max is non-finite iff some coefficient is (NaN propagates)
        lo, hi = np.inf, 0.0
        for start in range(0, len(arr), _NORM_ROWS):
            chunk = arr[start:start + _NORM_ROWS]
            sq = np.einsum("ij,ij->i", chunk, chunk, dtype=np.float64)
            lo, hi = np.minimum(lo, sq.min()), np.maximum(hi, sq.max())
        if not np.isfinite(hi):
            raise NormalizationError("dataset has non-finite coefficients")
        if lo < (1.0 - FILE_NORM_TOL) ** 2 or hi > (1.0 + FILE_NORM_TOL) ** 2:
            raise NormalizationError("dataset rows are not unit vectors")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class MemoryIndex:
    """M memory units in CSR layout: unit j holds the dataset ids
    ``member_ids[offsets[j]:offsets[j + 1]]`` and is summarized by
    ``representatives[j]`` (not necessarily unit norm). Invariant: no unit
    is empty and ``member_ids`` is a permutation of [0, total)."""

    representatives: np.ndarray  # (M, d) float64
    offsets: np.ndarray  # (M + 1,) ID_DTYPE
    member_ids: np.ndarray  # (N,) ID_DTYPE
    construction: str  # "sum" | "pinv"

    def __post_init__(self):
        if self.construction not in ("sum", "pinv"):
            raise ModelError(f"unknown construction tag {self.construction!r}")
        # views, so the caller's arrays stay writeable when they are not copied;
        # ids and offsets of another dtype are checked as int64, then narrowed
        reps = np.asarray(self.representatives, dtype=np.float64).view()
        offsets, ids = (a if a.dtype == ID_DTYPE else a.astype(np.int64, copy=False)
                        for a in map(np.asarray, (self.offsets, self.member_ids)))
        if ids.size > MAX_IDS:
            raise ModelError(f"{ids.size} member ids: an index holds at most {MAX_IDS}")
        if (reps.ndim != 2 or ids.ndim != 1 or offsets.shape != (len(reps) + 1,)
                or offsets[0] != 0 or offsets[-1] != ids.size):
            raise ModelError("offsets do not delimit the member ids")
        if reps.shape[1] < 1:
            raise DimensionError("representatives must have dimension >= 1")
        if len(reps) == 0 or np.any(np.diff(offsets) <= 0):
            raise EmptyUnitError("index has no units, or an empty one")
        # min and max propagate NaN, so no (M, d) mask is needed
        if not (np.isfinite(reps.min()) and np.isfinite(reps.max())):
            raise DimensionError("representatives must be finite")
        # N ids in [0, N) that mark every slot of an N-byte mask are a permutation
        seen = np.zeros(ids.size, dtype=bool)
        if ids.min() >= 0 and ids.max() < ids.size:
            seen[ids] = True
        if not seen.all():
            raise ModelError("unit members do not partition the dataset ids")
        # in range now: offsets run from 0 up to N, ids lie in [0, N)
        for name, arr in (("representatives", reps),
                          ("offsets", offsets.astype(ID_DTYPE, copy=False).view()),
                          ("member_ids", ids.astype(ID_DTYPE, copy=False).view())):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_units(self) -> int:
        return self.representatives.shape[0]

    @property
    def dim(self) -> int:
        return self.representatives.shape[1]

    @property
    def total(self) -> int:
        return self.member_ids.size

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)
