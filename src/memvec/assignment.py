"""Dataset-to-unit assignment: random chunking, spherical k-means with
sum/pinv representatives (optionally normalized for the assignment step),
batch-wise clustering for streaming data, and imbalance diagnostics.

Each assignment returns a ``core.Partition``, which holds only the CSR
member lists the index shares: no per-id label array stays resident."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .construction import representatives
from .core import (BLOCK_FLOATS, CONSTRUCTIONS, FILE_NORM_TOL, ID_DTYPE, TEMP_BYTES, Dataset,
                   Partition, _check_count, _check_id_count)
from .errors import DomainError
from .sampling import Seed

__all__ = [
    "KMeansConfig",
    "random_assignment",
    "spherical_kmeans",
    "batch_assignment",
    "imbalance_factor",
]


@dataclass(frozen=True)
class KMeansConfig:
    M: int
    mode: str = "pinv"  # one of CONSTRUCTIONS
    normalize_representative: bool = False
    max_iters: int = 20
    seed: Seed = field(default_factory=lambda: Seed(0))

    def __post_init__(self):
        if self.mode not in CONSTRUCTIONS:
            raise DomainError(f"unknown k-means mode {self.mode!r}")
        _check_count(self.M, "M", 1)
        _check_count(self.max_iters, "max_iters", 1)
        if not isinstance(self.seed, Seed):
            raise DomainError(f"seed must be a Seed, not {type(self.seed).__name__}")


def random_assignment(N: int, n: int, rng: np.random.Generator) -> Partition:
    """Seeded uniform permutation of [0, N) chunked into units of size n
    (the last unit may be smaller).

    Unit k holds the k-th chunk of ``rng.permutation(N)``, drawn as an
    ID_DTYPE ``arange`` shuffled in place (the same values and generator
    state). Each chunk is sorted in place, so the permutation becomes the
    partition's ``member_ids`` and ``offsets[k] = min(k n, N)``; no N
    labels are sorted."""
    N, n = _check_count(N, "N", 1), _check_count(n, "n", 1)
    if n > N:
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
    return Partition(order, offsets)


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

    part = None
    for _ in range(cfg.max_iters):
        new = _fill_empty_units(_nearest(X, reps), cfg.M, rng)
        if part is not None and (np.array_equal(new.member_ids, part.member_ids)
                                 and np.array_equal(new.offsets, part.offsets)):
            break
        part = new
        reps = None  # freed before its successor is built, not after
        reps = representatives(X, part, cfg.mode)
        if cfg.normalize_representative:
            norms = np.linalg.norm(reps, axis=1, keepdims=True)
            reps = np.divide(reps, norms, out=reps, where=norms > 0.0)

    return part, reps


_PRUNE_SLACK = 1e-9  # relative margin over the Cauchy-Schwarz bound for rounding
# Dataset caps row norms at 1 + FILE_NORM_TOL; the slack covers its float64 rounding
_MAX_NORM = (1.0 + FILE_NORM_TOL) * (1.0 + _PRUNE_SLACK)


def _nearest(X: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """``np.argmax(X @ reps.T, axis=1)`` for ``Dataset`` rows X, ties to
    the lowest unit id, without the (N, M) score matrix.

    Units are split into norm bands, from the longest down: each band
    holds the remaining units whose norm is at least half the largest
    remaining one. Every band, the first included, is scored the same way
    (``_score_band``) over the rows still open. A unit of a later band
    scores at most ``_MAX_NORM`` * that band's largest norm (Cauchy-Schwarz
    and the Dataset check), so a row whose best score clears the next
    band's bound is closed and skips every later band; no row norm is
    computed. Scores are screened in float32 and decided in float64, so the
    labels are those of float64 scoring.
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
        _score_band(X, reps, np.sort(order[first:last]), desc[first], open_rows, best, labels)
        first = last
        if first < len(desc):
            # best only grows and bounds only shrink, so closed rows stay closed
            open_rows = np.flatnonzero(best <= _MAX_NORM * desc[first])
    return labels


def _gamma(n: int, unit_roundoff: float) -> float:
    """Bound on the relative error of an n-term dot product in floating
    point, for any summation order (Higham's gamma_n)."""
    return n * unit_roundoff / (1.0 - n * unit_roundoff)


def _score_band(X: np.ndarray, reps: np.ndarray, ids: np.ndarray, top_norm: float,
                open_rows: np.ndarray, best: np.ndarray, labels: np.ndarray) -> None:
    """Update ``best`` and ``labels`` of ``open_rows`` in place from the
    band ``ids`` (ascending, largest norm ``top_norm``) as float64 scoring
    would: a row takes the band's argmax, lowest id among equals, when it
    scores higher than its best, or equal with a lower id.

    Blocks are screened in float32 against the band scaled by 2^-e: exact,
    with the largest norm R in [1/2, 1), so no cast or score of Dataset
    rows overflows. For d < 2^23 a float32 score is within ``(gamma32(d+3)
    + gamma64(d+3)) ||x|| R + (||x|| + 1) d 2^-124`` of the float64 one,
    for any summation order and with subnormals flushed or not. A row whose
    top two float32 scores differ by more than twice that at ||x|| =
    ``_MAX_NORM`` keeps its float32 argmax and that unit's float64 score;
    the other rows (near ties, all-zero bands) are scored in float64. The
    gathered rows and their float32 scores each reuse one buffer per band.
    """
    d = X.shape[1]
    _, e = np.frexp(top_norm)
    # (d, m) C-contiguous (faster in sgemm than a transposed view), cast a
    # few units at a time: no float64 copy of the band is made
    band32_t = np.empty((d, len(ids)), dtype=np.float32)
    step = max(1, TEMP_BYTES // (8 * d))
    for start in range(0, len(ids), step):
        np.ldexp(reps[ids[start:start + step]].T, -e, out=band32_t[:, start:start + step])
    # the slack covers the rounding of top_norm and of the gap itself
    rel = (_gamma(d + 3, 2.0**-24) + _gamma(d + 3, 2.0**-53)) * (1.0 + _PRUNE_SLACK)
    floor = d * 2.0**-124
    margin = 2.0 * ((rel * np.ldexp(top_norm, -e) + floor) * _MAX_NORM + floor)
    rows = max(1, min(2 * BLOCK_FLOATS // len(ids), BLOCK_FLOATS // d))
    k_max = min(rows, open_rows.size)
    x_rows = np.empty((k_max, d), dtype=X.dtype)
    s32 = np.empty((k_max, len(ids)), dtype=np.float32)
    for start in range(0, open_rows.size, rows):
        at = open_rows[start:start + rows]
        k = len(at)
        # mode="clip" (no index is out of range): take then needs no buffer
        xs = np.take(X, at, axis=0, out=x_rows[:k], mode="clip")
        scores = np.matmul(xs.astype(np.float32, copy=False), band32_t, out=s32[:k])
        rk = np.arange(k)
        arg = np.argmax(scores, axis=1)
        top = scores[rk, arg].astype(np.float64)
        scores[rk, arg] = -np.inf  # now the runner-up leads (argmax beats max on short rows)
        gap = top - scores[rk, np.argmax(scores, axis=1)]
        near = np.flatnonzero(gap <= margin)
        b_lab = ids[arg]
        b_best = np.vecdot(xs, reps[b_lab])
        if near.size:
            # near ties are rare: score them against all units, keep the band's
            exact = np.matmul(xs[near].astype(np.float64), reps.T)[:, ids]
            arg = np.argmax(exact, axis=1)
            b_lab[near] = ids[arg]
            b_best[near] = exact[rk[:near.size], arg]
        o_best, o_lab = best[at], labels[at]
        win = (b_best > o_best) | ((b_best == o_best) & (b_lab < o_lab))
        best[at] = np.where(win, b_best, o_best)
        labels[at] = np.where(win, b_lab, o_lab)


def _fill_empty_units(labels: np.ndarray, M: int, rng: np.random.Generator) -> Partition:
    """Give each empty unit, in id order, a seeded-random member of the
    then-largest unit (lowest id among equals), in place, and return the
    partition of the repaired labels.

    A refilled unit, with one member, is never the largest, so unit u
    donates at sizes s_u, s_u - 1, ..., 2: the first E of those
    (size, unit) pairs by (-size, id), E the number of empty units, are
    the donors in turn. They do not depend on the draws, so one
    ``rng.integers`` call on the pool sizes draws every member index, with
    the values and generator state of one draw per empty unit. A donor's
    pool, its ascending CSR slice, loses each stolen id, so each draw
    picks what a fresh ``flatnonzero`` would.
    """
    part = Partition.from_labels(labels, M)
    sizes, offsets = part.sizes, part.offsets
    empties = np.flatnonzero(sizes == 0)
    if empties.size == 0:
        return part
    # at most E pairs per unit, so at most min(N, E M) in all; unit u's run
    # starts at slot c_u, and slot t holds size s_u - (t - c_u)
    count = np.clip(sizes - 1, 0, empties.size)
    units = np.repeat(np.arange(M), count)
    pool_sizes = np.repeat(sizes + (np.cumsum(count) - count), count) - np.arange(units.size)
    first = np.lexsort((units, -pool_sizes))[:empties.size]
    donors, picks = units[first].tolist(), rng.integers(pool_sizes[first]).tolist()
    pools = {u: part.member_ids[offsets[u]:offsets[u + 1]].tolist() for u in set(donors)}
    for j, u, pick in zip(empties.tolist(), donors, picks):
        labels[pools[u].pop(pick)] = j
    return Partition.from_labels(labels, M)


def batch_assignment(dataset: Dataset, batch_size: int, inner: KMeansConfig) -> Partition:
    """Cluster consecutive batches of ``batch_size`` rows independently by
    the k-means of ``inner``.

    Batch i uses the derived seed ``inner.seed.child(f"batch{i}")``; the
    global partition is the disjoint union with per-batch unit id offsets.
    Its CSR is the batches' CSRs laid end to end, each batch's ids and
    offsets shifted by its first dataset id: the stable sort of the global
    labels, without making them.
    """
    _check_count(batch_size, "batch_size", 1)
    if not isinstance(inner, KMeansConfig):
        raise DomainError("inner must be a KMeansConfig")
    N = dataset.size
    _check_id_count(N)
    ids_blocks, offsets_blocks = [], [np.zeros(1, dtype=ID_DTYPE)]
    for i, start in enumerate(range(0, N, batch_size)):
        block = Dataset(dataset.vectors[start:start + batch_size])
        part, _ = spherical_kmeans(block, replace(
            inner, M=min(inner.M, block.size), seed=inner.seed.child(f"batch{i}")))
        ids_blocks.append(part.member_ids + start)
        offsets_blocks.append(part.offsets[1:] + start)
    return Partition(np.concatenate(ids_blocks), np.concatenate(offsets_blocks))


def imbalance_factor(p: Partition) -> float:
    """delta = M * sum_i (n_i / N)^2; 1 iff perfectly balanced."""
    freqs = p.sizes / p.N
    return float(p.M * np.sum(freqs**2))
