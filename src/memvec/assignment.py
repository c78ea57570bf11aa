"""Dataset-to-unit assignment: random chunking, spherical k-means with
sum/pinv representatives (optionally normalized for the assignment step),
batch-wise clustering for streaming data, and imbalance diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .construction import ConstructionConfig, representatives
from .core import Dataset
from .errors import DomainError
from .sampling import Seed

__all__ = [
    "Partition",
    "KMeansConfig",
    "BatchConfig",
    "random_assignment",
    "spherical_kmeans",
    "batch_assignment",
    "imbalance_factor",
    "partition_size_stats",
]


@dataclass(frozen=True)
class Partition:
    """Assignment of N dataset ids to M units, also held in CSR form:
    unit j's ids, ascending, are ``order[offsets[j]:offsets[j + 1]]``."""

    unit_of: np.ndarray  # (N,) int64, values in [0, M)
    M: int
    order: np.ndarray = field(init=False, repr=False, compare=False)  # (N,)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)  # (M + 1,)

    def __post_init__(self):
        # a view, so the caller's array stays writeable when it is not copied
        u = np.asarray(self.unit_of, dtype=np.int64).view()
        if u.ndim != 1 or u.size == 0:
            raise DomainError("unit_of must be a non-empty 1-d array")
        if self.M < 1 or u.min() < 0 or u.max() >= self.M:
            raise DomainError("unit ids out of range")
        order = _stable_order(u, self.M)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(u, minlength=self.M))))
        for name, arr in (("unit_of", u), ("order", order), ("offsets", offsets)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def N(self) -> int:
        return self.unit_of.size

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def members(self, j: int) -> np.ndarray:
        return self.order[self.offsets[j]:self.offsets[j + 1]]


@dataclass(frozen=True)
class KMeansConfig:
    M: int
    mode: str = "pinv"  # "sum" | "pinv"
    normalize_representative: bool = False
    max_iters: int = 20
    seed: Seed = field(default_factory=lambda: Seed(0))

    def __post_init__(self):
        if self.mode not in ("sum", "pinv"):
            raise DomainError(f"unknown k-means mode {self.mode!r}")
        if self.M < 1 or self.max_iters < 1:
            raise DomainError("M and max_iters must be >= 1")


@dataclass(frozen=True)
class BatchConfig:
    """Consecutive batches of size batch_size, clustered independently.

    ``inner`` is a KMeansConfig applied per batch, or the string "random"
    with ``unit_size`` for per-batch random assignment.
    """

    batch_size: int
    inner: KMeansConfig | str
    unit_size: int | None = None
    seed: Seed = field(default_factory=lambda: Seed(0))

    def __post_init__(self):
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if self.inner == "random":
            if self.unit_size is None or self.unit_size < 1:
                raise DomainError("random inner assignment needs unit_size >= 1")
        elif not isinstance(self.inner, KMeansConfig):
            raise DomainError("inner must be a KMeansConfig or 'random'")


def _stable_order(unit_of: np.ndarray, M: int) -> np.ndarray:
    """``np.argsort(unit_of, kind="stable")`` for ids in [0, M), sorted on
    the narrowest unsigned key that holds M - 1: numpy radix-sorts keys of
    16 bits or less, and a narrower key is a smaller copy."""
    return np.argsort(unit_of.astype(np.min_scalar_type(M - 1)), kind="stable")


def random_assignment(N: int, n: int, rng: np.random.Generator) -> Partition:
    """Seeded uniform permutation of [0, N) chunked into units of size n
    (the last unit may be smaller)."""
    if n < 1 or n > N:
        raise DomainError("need 1 <= n <= N")
    perm = rng.permutation(N)
    full = N // n
    # unit_of[perm[k]] = k // n, written through a (full, n) view of perm so
    # no N-length position or quotient array is made; perm is freed before
    # the partition sorts
    unit_of = np.empty(N, dtype=np.int64)
    unit_of[perm[:full * n].reshape(full, n)] = np.arange(full)[:, None]
    unit_of[perm[full * n:]] = full
    del perm
    return Partition(unit_of=unit_of, M=-(-N // n))


def spherical_kmeans(dataset: Dataset, cfg: KMeansConfig) -> tuple[Partition, np.ndarray]:
    """Spherical k-means where the update stage builds sum or pinv
    representatives (footnote-style normalized variant optional).

    Deterministic given (dataset, cfg): initialization picks M distinct
    seeded-random data points, assignment ties break to the lowest unit
    id, empty clusters steal a seeded-random member of the largest
    cluster. Returns the partition and the (M, d) assignment-stage
    representatives.
    """
    X = dataset.vectors
    N = dataset.size
    if cfg.M > N:
        raise DomainError("M must not exceed the dataset size")
    rng = cfg.seed.generator()
    # widened, so the first step's norms and scores are float64 like the rest
    reps = X[rng.choice(N, size=cfg.M, replace=False)].astype(np.float64, copy=False)
    construction = ConstructionConfig(kind=cfg.mode)

    labels = None
    for _ in range(cfg.max_iters):
        new_labels = _nearest(X, reps)
        _fill_empty_units(new_labels, cfg.M, rng)

        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        part = Partition(unit_of=labels, M=cfg.M)
        reps = representatives(X, part.order, part.offsets, construction)
        if cfg.normalize_representative:
            norms = np.linalg.norm(reps, axis=1, keepdims=True)
            reps = np.divide(reps, norms, out=reps, where=norms > 0.0)

    return part, reps


_BLOCK_FLOATS = 1 << 17  # float64 score block, and gathered row block, of about 1 MB
_PRUNE_SLACK = 1e-9  # relative margin over the Cauchy-Schwarz bound for rounding


def _nearest(X: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """``np.argmax(X @ reps.T, axis=1)``, ties to the lowest unit id,
    without the (N, M) score matrix.

    Units are split into norm bands, from the longest down: each band
    holds the remaining units whose norm is at least half the largest
    remaining one. Bands are scored in turn over the rows still open, in
    blocks of rows. A unit of a later band scores at most ||x|| * that
    band's largest norm (Cauchy-Schwarz), so a row whose best score clears
    the next band's bound is closed and skips every later band.

    X is used as stored: each block of rows is copied (widened, when X is
    float32) into one float64 buffer per band, so every score and row norm
    is computed in float64. A mixed float32 @ float64 matmul would cast
    into a fresh array on every call, which is slower.
    """
    rnorm = np.sqrt(np.einsum("ij,ij->i", reps, reps))
    order = np.argsort(-rnorm, kind="stable")
    desc = rnorm[order]
    xnorm = np.empty(len(X))  # row norms, filled from the first band's blocks
    best = np.full(len(X), -np.inf)
    labels = np.zeros(len(X), dtype=np.int64)
    open_rows = None  # the first band scores every row
    first = 0
    while first < len(desc):
        # desc is non-increasing, so the band is a prefix of desc[first:]; it
        # holds at least its first unit (all the rest when that norm is 0)
        last = first + int(np.count_nonzero(desc[first:] >= 0.5 * desc[first]))
        ids = np.sort(order[first:last])
        band = reps[ids]
        count = len(X) if open_rows is None else open_rows.size
        rows = max(1, _BLOCK_FLOATS // max(len(ids), X.shape[1]))
        # one float64 row block and one score block per band, reused
        buf = np.empty((min(rows, count), X.shape[1]))
        score_buf = np.empty((len(buf), len(ids)))
        for start in range(0, count, rows):
            at = (slice(start, start + rows) if open_rows is None
                  else open_rows[start:start + rows])
            block = buf[:min(rows, count - start)]
            block[...] = X[at]
            scores = np.matmul(block, band.T, out=score_buf[:len(block)])
            arg = np.argmax(scores, axis=1)
            b_best = np.take_along_axis(scores, arg[:, None], axis=1)[:, 0]
            b_lab = ids[arg]
            if open_rows is None:
                best[at], labels[at] = b_best, b_lab
                xnorm[at] = np.sqrt(np.einsum("ij,ij->i", block, block))
                continue
            o_best, o_lab = best[at], labels[at]
            win = (b_best > o_best) | ((b_best == o_best) & (b_lab < o_lab))
            best[at] = np.where(win, b_best, o_best)
            labels[at] = np.where(win, b_lab, o_lab)
        if last < len(desc):
            # best only grows and bounds only shrink, so closed rows stay closed
            open_rows = np.flatnonzero(best <= xnorm * (desc[last] * (1.0 + _PRUNE_SLACK)))
            if open_rows.size == 0:
                break
        first = last
    return labels


def _fill_empty_units(labels: np.ndarray, M: int, rng: np.random.Generator) -> None:
    """Give each empty unit, in id order, a seeded-random member of the
    then-largest unit (lowest id among equals), in place.

    Unit sizes are updated after each steal, and the ascending member
    pool of a unit is taken, as a list, from one stable argsort and loses
    the stolen id in place, so the draws match a fresh
    ``bincount``/``flatnonzero`` per empty unit. A filled unit holds one
    member while some unit still holds two or more, so it is never the
    largest and needs no pool.
    """
    sizes = np.bincount(labels, minlength=M)
    empties = np.flatnonzero(sizes == 0)
    if empties.size == 0:
        return
    order = _stable_order(labels, M)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    pools: dict[int, list[int]] = {}
    for j in empties:
        largest = int(np.argmax(sizes))
        pool = pools.get(largest)
        if pool is None:
            pool = pools[largest] = order[offsets[largest]:offsets[largest + 1]].tolist()
        stolen = pool.pop(rng.integers(len(pool)))
        labels[stolen] = j
        sizes[largest] -= 1
        sizes[j] += 1


def batch_assignment(dataset: Dataset, cfg: BatchConfig) -> tuple[Partition, np.ndarray]:
    """Run the inner assignment independently on consecutive batches.

    Batch i uses the derived seed ``cfg.seed.child(f"batch{i}")``; the
    global partition is the disjoint union with per-batch unit id offsets.
    Returns the partition and the stacked per-batch representatives.
    """
    N = dataset.size
    B = cfg.batch_size
    unit_of = np.empty(N, dtype=np.int64)
    reps_blocks = []
    offset = 0
    for i, start in enumerate(range(0, N, B)):
        stop = min(start + B, N)
        block = Dataset(dataset.vectors[start:stop])
        seed = cfg.seed.child(f"batch{i}")
        if cfg.inner == "random":
            part = random_assignment(block.size, min(cfg.unit_size, block.size),
                                     seed.generator())
            reps = representatives(block.vectors, part.order, part.offsets,
                                   ConstructionConfig(kind="sum"))
        else:
            inner = replace(cfg.inner, M=min(cfg.inner.M, block.size), seed=seed)
            part, reps = spherical_kmeans(block, inner)
        unit_of[start:stop] = part.unit_of + offset
        offset += part.M
        reps_blocks.append(np.atleast_2d(reps))
    return Partition(unit_of=unit_of, M=offset), np.vstack(reps_blocks)


def imbalance_factor(p: Partition) -> float:
    """delta = M * sum_i (n_i / N)^2; 1 iff perfectly balanced."""
    freqs = p.sizes / p.N
    return float(p.M * np.sum(freqs**2))


def partition_size_stats(p: Partition) -> tuple[float, float]:
    """(E[n_i], V[n_i]) implied by the imbalance factor:
    N/M and (delta - 1) N^2 / M^2."""
    delta = imbalance_factor(p)
    return p.N / p.M, (delta - 1.0) * p.N**2 / p.M**2
