"""Dataset-to-unit assignment: random chunking, spherical k-means with
sum/pinv representatives (optionally normalized for the assignment step),
batch-wise clustering for streaming data, and imbalance diagnostics.

Each assignment returns a ``Partition``, which holds only the CSR member
lists the index shares: no per-id label array stays resident."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .construction import ConstructionConfig, representatives
from .core import BLOCK_FLOATS, ID_DTYPE, MAX_IDS, Dataset
from .errors import DomainError
from .sampling import Seed

__all__ = [
    "Partition",
    "KMeansConfig",
    "random_assignment",
    "spherical_kmeans",
    "batch_assignment",
    "imbalance_factor",
]


@dataclass(frozen=True, eq=False, init=False)
class Partition:
    """Assignment of N dataset ids to M units, held only in CSR form:
    unit j's ids, ascending, are ``order[offsets[j]:offsets[j + 1]]``.

    ``Partition(unit_of, M)`` checks the labels and derives the CSR from
    them; the labels are not kept, and ``unit_of`` rebuilds them from the
    CSR on each access. ``random_assignment`` and ``batch_assignment``
    build the CSR themselves and hand it to ``_from_csr``. Both arrays
    are ``core.ID_DTYPE``, so N is at most ``core.MAX_IDS``."""

    M: int
    order: np.ndarray = field(repr=False)  # (N,) ID_DTYPE
    offsets: np.ndarray = field(repr=False)  # (M + 1,) ID_DTYPE

    def __init__(self, unit_of: np.ndarray, M: int):
        u = np.asarray(unit_of, dtype=np.int64)
        if u.ndim != 1 or u.size == 0:
            raise DomainError("unit_of must be a non-empty 1-d array")
        _check_id_count(u.size)
        if M < 1 or u.min() < 0 or u.max() >= M:
            raise DomainError("unit ids out of range")
        offsets = np.zeros(M + 1, dtype=ID_DTYPE)
        np.cumsum(np.bincount(u, minlength=M), out=offsets[1:])
        self._freeze(M, _stable_order(u, M).astype(ID_DTYPE), offsets)

    @classmethod
    def _from_csr(cls, M: int, order: np.ndarray, offsets: np.ndarray) -> Partition:
        """A partition from ID_DTYPE arrays its caller built consistent with
        each other, frozen as given: nothing is checked or derived again."""
        part = object.__new__(cls)
        part._freeze(M, order, offsets)
        return part

    def _freeze(self, M: int, order: np.ndarray, offsets: np.ndarray) -> None:
        object.__setattr__(self, "M", M)
        for name, arr in (("order", order), ("offsets", offsets)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def N(self) -> int:
        return int(self.offsets[-1])

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def unit_of(self) -> np.ndarray:
        """(N,) int64 unit label of each dataset id, a fresh array rebuilt
        from the CSR."""
        unit_of = np.empty(self.N, dtype=np.int64)
        unit_of[self.order] = np.repeat(np.arange(self.M), self.sizes)
        return unit_of


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


def _check_id_count(N: int) -> None:
    if N > MAX_IDS:
        raise DomainError(f"N = {N} ids: a partition holds at most {MAX_IDS}")


def _stable_order(unit_of: np.ndarray, M: int) -> np.ndarray:
    """``np.argsort(unit_of, kind="stable")`` for ids in [0, M), sorted on
    the narrowest unsigned key that holds M - 1: numpy radix-sorts keys of
    16 bits or less, and a narrower key is a smaller copy."""
    return np.argsort(unit_of.astype(np.min_scalar_type(M - 1)), kind="stable")


def random_assignment(N: int, n: int, rng: np.random.Generator) -> Partition:
    """Seeded uniform permutation of [0, N) chunked into units of size n
    (the last unit may be smaller).

    Unit k holds the k-th chunk of ``rng.permutation(N)``, drawn as an
    ID_DTYPE ``arange`` shuffled in place (the same values and generator
    state). Each chunk is sorted in place, so the permutation becomes the
    partition's ``order`` and ``offsets[k] = min(k n, N)``; no N labels
    are sorted."""
    if n < 1 or n > N:
        raise DomainError("need 1 <= n <= N")
    _check_id_count(N)
    order = np.arange(N, dtype=ID_DTYPE)
    rng.shuffle(order)
    full = N // n
    chunks = order[:full * n].reshape(full, n)  # a view of order
    chunks.sort(axis=1)
    order[full * n:].sort()
    M = -(-N // n)
    offsets = np.arange(M + 1, dtype=ID_DTYPE)
    offsets[:-1] *= n  # (M - 1) n < N, so no product overflows
    offsets[-1] = N  # offsets[k] = min(k n, N): only the last unit may be short
    return Partition._from_csr(M, order, offsets)


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
    # widened, so the first step's scores are float64 like the rest
    reps = X[rng.choice(N, size=cfg.M, replace=False)].astype(np.float64, copy=False)
    construction = ConstructionConfig(kind=cfg.mode)
    # X never changes, so its row norms are computed once, without an (N, d) temporary
    xnorm = np.sqrt(np.einsum("ij,ij->i", X, X, dtype=np.float64))

    labels = None
    for _ in range(cfg.max_iters):
        new_labels = _nearest(X, xnorm, reps)
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


_PRUNE_SLACK = 1e-9  # relative margin over the Cauchy-Schwarz bound for rounding


def _nearest(X: np.ndarray, xnorm: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """``np.argmax(X @ reps.T, axis=1)``, ties to the lowest unit id,
    without the (N, M) score matrix; ``xnorm`` holds the row norms of X.

    Units are split into norm bands, from the longest down: each band
    holds the remaining units whose norm is at least half the largest
    remaining one. Every band, the first included, is scored the same way
    over the rows still open, in blocks of rows. A unit of a later band
    scores at most ||x|| * that band's largest norm (Cauchy-Schwarz), so a
    row whose best score clears the next band's bound is closed and skips
    every later band. The row norms enter only that bound, whose slack
    covers their rounding.

    X is used as stored: each block of rows is copied (widened, when X is
    float32) into one float64 buffer per band, so every score is computed
    in float64. A mixed float32 @ float64 matmul would cast into a fresh
    array on every call, which is slower.
    """
    rnorm = np.sqrt(np.einsum("ij,ij->i", reps, reps))
    order = np.argsort(-rnorm, kind="stable")
    desc = rnorm[order]
    best = np.full(len(X), -np.inf)
    labels = np.zeros(len(X), dtype=np.int64)
    open_rows = np.arange(len(X))
    first = 0
    while first < len(desc) and open_rows.size:
        # desc is non-increasing, so the band is a prefix of desc[first:]; it
        # holds at least its first unit (all the rest when that norm is 0)
        last = first + int(np.count_nonzero(desc[first:] >= 0.5 * desc[first]))
        ids = np.sort(order[first:last])
        band = reps[ids]
        rows = max(1, BLOCK_FLOATS // max(len(ids), X.shape[1]))
        # one float64 row block and one score block per band, reused
        buf = np.empty((min(rows, open_rows.size), X.shape[1]))
        score_buf = np.empty((len(buf), len(ids)))
        for start in range(0, open_rows.size, rows):
            at = open_rows[start:start + rows]
            block = buf[:len(at)]
            block[...] = X[at]
            scores = np.matmul(block, band.T, out=score_buf[:len(at)])
            arg = np.argmax(scores, axis=1)
            b_best = np.take_along_axis(scores, arg[:, None], axis=1)[:, 0]
            b_lab = ids[arg]
            o_best, o_lab = best[at], labels[at]
            win = (b_best > o_best) | ((b_best == o_best) & (b_lab < o_lab))
            best[at] = np.where(win, b_best, o_best)
            labels[at] = np.where(win, b_lab, o_lab)
        first = last
        if first < len(desc):
            # best only grows and bounds only shrink, so closed rows stay closed
            open_rows = np.flatnonzero(best <= xnorm * (desc[first] * (1.0 + _PRUNE_SLACK)))
    return labels


def _fill_empty_units(labels: np.ndarray, M: int, rng: np.random.Generator) -> None:
    """Give each empty unit, in id order, a seeded-random member of the
    then-largest unit (lowest id among equals), in place.

    The donor's size drops after each steal, and the ascending member pool
    of a unit is taken, as a list, from one stable argsort and loses the
    stolen id in place, so the draws match a fresh ``bincount``/
    ``flatnonzero`` per empty unit. A filled unit holds one member while
    some unit still holds two or more, so it is never the largest: it
    needs no pool, and its size is never read again.
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


def batch_assignment(dataset: Dataset, batch_size: int,
                     inner: KMeansConfig) -> tuple[Partition, np.ndarray]:
    """Cluster consecutive batches of ``batch_size`` rows independently by
    the k-means of ``inner``.

    Batch i uses the derived seed ``inner.seed.child(f"batch{i}")``; the
    global partition is the disjoint union with per-batch unit id offsets.
    Its CSR is the batches' CSRs laid end to end, each batch's ids and
    offsets shifted by its first dataset id: the stable sort of the global
    labels, without making them. Returns the partition and the stacked
    per-batch representatives.
    """
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    if not isinstance(inner, KMeansConfig):
        raise DomainError("inner must be a KMeansConfig")
    N = dataset.size
    _check_id_count(N)
    order = np.empty(N, dtype=ID_DTYPE)
    offsets_blocks = [np.zeros(1, dtype=ID_DTYPE)]
    reps_blocks = []
    M = 0
    for i, start in enumerate(range(0, N, batch_size)):
        stop = min(start + batch_size, N)
        block = Dataset(dataset.vectors[start:stop])
        part, reps = spherical_kmeans(block, replace(
            inner, M=min(inner.M, block.size), seed=inner.seed.child(f"batch{i}")))
        np.add(part.order, start, out=order[start:stop])
        offsets_blocks.append(part.offsets[1:] + start)
        M += part.M
        reps_blocks.append(reps)
    part = Partition._from_csr(M, order, np.concatenate(offsets_blocks))
    return part, np.vstack(reps_blocks)


def imbalance_factor(p: Partition) -> float:
    """delta = M * sum_i (n_i / N)^2; 1 iff perfectly balanced."""
    freqs = p.sizes / p.N
    return float(p.M * np.sum(freqs**2))
