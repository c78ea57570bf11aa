"""Seeded inputs, generated with plain numpy.

The generators deliberately do not go through ``memvec.sampling``: a
refactor of the library's query generator must not change what the
benchmark feeds it. Every array is a pure function of (seed, stream), and
``fingerprint`` lets two commits show they ran on identical inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np

# independent random streams drawn from one workload seed
DATA, QUERIES, ASSIGN, KMEANS = range(4)

_CHUNK = 8192  # rows normalized at a time, bounds the temporary


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def unit_rows(gen: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n uniform unit vectors in R^d (normalized standard normals)."""
    out = np.empty((n, d))
    for start in range(0, n, _CHUNK):
        block = gen.standard_normal((min(_CHUNK, n - start), d))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        out[start:start + block.shape[0]] = block
    return out


def orthogonal_unit(gen: np.random.Generator, axes: np.ndarray) -> np.ndarray:
    """One uniform unit vector orthogonal to each (unit) row of axes."""
    g = gen.standard_normal(axes.shape)
    g -= np.sum(g * axes, axis=1, keepdims=True) * axes
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def clustered_rows(gen: np.random.Generator, clusters: int, per_cluster: int,
                   d: int, eta: float) -> np.ndarray:
    """Planted clusters: each member is eta * axis + sqrt(1 - eta^2) * w,
    w uniform orthogonal to its cluster's uniform axis."""
    axes = np.repeat(unit_rows(gen, clusters, d), per_cluster, axis=0)
    x = eta * axes + np.sqrt(1.0 - eta * eta) * orthogonal_unit(gen, axes)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def query_pool(gen: np.random.Generator, X: np.ndarray, size: int, alpha: float,
               h0_every: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(queries, planted ids). H1 queries are alpha x + sqrt(1 - alpha^2) z
    with x a uniformly drawn row and z orthogonal to it. With ``h0_every``
    set, every h0_every-th query (offset 1) is a uniform H0 query and has
    planted id -1."""
    N, d = X.shape
    planted = gen.integers(N, size=size)
    if h0_every:
        planted[1::h0_every] = -1
    h1 = planted >= 0
    Y = unit_rows(gen, size, d)
    x = X[planted[h1]]
    y = alpha * x + np.sqrt(1.0 - alpha * alpha) * orthogonal_unit(gen, x)
    Y[h1] = y / np.linalg.norm(y, axis=1, keepdims=True)
    return Y, planted


def fingerprint(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()
