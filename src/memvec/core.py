"""Core data model: unit vectors, datasets, the memory index and query models.

All vectors live on the d-dimensional unit hypersphere and similarity is
the plain inner product. Dataset coefficients are stored as read (float32
from a file, float64 when generated) and widened per block: every kernel
widens the rows it gathers, so all arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyUnitError, ModelError, NormalizationError

UNIT_NORM_TOL = 1e-9
FILE_NORM_TOL = 1e-4  # loose bound for stored vectors: files hold float32
_NORM_ROWS = 1 << 13  # rows per squared-norm chunk in the Dataset check

__all__ = [
    "UNIT_NORM_TOL",
    "normalize",
    "inner",
    "Dataset",
    "MemoryIndex",
    "QueryModel",
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


def inner(a, b) -> float:
    """Inner product with a fixed (numpy pairwise) accumulation order."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


@dataclass(frozen=True)
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

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class MemoryIndex:
    """M memory units in CSR layout: unit j holds the dataset ids
    ``member_ids[offsets[j]:offsets[j + 1]]`` and is summarized by
    ``representatives[j]`` (not necessarily unit norm). Invariant: no unit
    is empty and ``member_ids`` is a permutation of [0, total)."""

    representatives: np.ndarray  # (M, d) float64
    offsets: np.ndarray  # (M + 1,) int64
    member_ids: np.ndarray  # (N,) int64
    construction: str  # "sum" | "pinv"

    def __post_init__(self):
        if self.construction not in ("sum", "pinv"):
            raise ModelError(f"unknown construction tag {self.construction!r}")
        # views, so the caller's arrays stay writeable when they are not copied
        reps = np.asarray(self.representatives, dtype=np.float64).view()
        offsets = np.asarray(self.offsets, dtype=np.int64).view()
        ids = np.asarray(self.member_ids, dtype=np.int64).view()
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
        for name, arr in (("representatives", reps), ("offsets", offsets),
                          ("member_ids", ids)):
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


@dataclass(frozen=True)
class QueryModel:
    """Generative model of a query: H0 (unrelated) or H1 (planted match).

    Under H1 the query is alpha * x_planted + beta * Z with Z a unit vector
    orthogonal to the planted match; beta = sqrt(1 - alpha^2) always.
    """

    hypothesis: str  # "H0" | "H1"
    alpha: float = 0.0
    planted_id: int | None = field(default=None)

    def __post_init__(self):
        if self.hypothesis not in ("H0", "H1"):
            raise ModelError(f"unknown hypothesis {self.hypothesis!r}")
        if self.hypothesis == "H1":
            if self.planted_id is None:
                raise ModelError("H1 requires a planted id")
            if not 0.0 <= self.alpha <= 1.0:
                raise ModelError("alpha must lie in [0, 1]")

    @property
    def beta(self) -> float:
        return float(np.sqrt(max(0.0, 1.0 - self.alpha**2)))
