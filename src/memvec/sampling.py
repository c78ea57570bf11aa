"""Seeded synthetic data generation.

Uniform hypersphere vectors, spherical-cap vectors (1-d inverse-CDF on the
axis correlation plus a uniform orthogonal direction), planted-cluster
datasets and H0/H1 query vectors. Every operation is deterministic given
the generator state; parallel workers derive independent generators by
seed splitting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .analytic import score_sf_log
from .core import Dataset, QueryModel, normalize
from .errors import DegenerateCapError, DimensionError, DomainError, ModelError

__all__ = [
    "Seed",
    "CapSpec",
    "sample_sphere",
    "sample_cap_correlation",
    "sample_cap",
    "make_query",
    "h1_queries",
    "make_clustered_dataset",
]

_BISECT_ITERS = 70  # interval 2 * 2^-70 << the 1e-10 inversion target


@dataclass(frozen=True)
class Seed:
    """64-bit seed with counter-based splitting: child = hash(parent, label)."""

    value: int

    def child(self, label: str) -> "Seed":
        digest = hashlib.sha256(f"{self.value}:{label}".encode()).digest()
        return Seed(int.from_bytes(digest[:8], "little"))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self.value)


@dataclass(frozen=True)
class CapSpec:
    """Spherical cap {x : x'axis > eta}; eta = -1 is the full sphere."""

    axis: np.ndarray
    eta: float

    def __post_init__(self):
        axis = normalize(self.axis)
        if self.eta >= 1.0:
            raise DegenerateCapError("eta must be < 1")
        if self.eta < -1.0:
            raise DomainError("eta must be >= -1")
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)

    @property
    def dim(self) -> int:
        return self.axis.size


def sample_sphere(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform unit vectors: d standard normals, normalized.

    Returns shape (d,) when size is None, else (size, d).
    """
    if d < 1:
        raise DimensionError("d must be >= 1")
    n = 1 if size is None else size
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    while np.any(norms == 0.0):  # measure-zero redraw
        bad = norms[:, 0] == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    out = g / norms
    return out[0] if size is None else out


def sample_cap_correlation(eta: float, d: int, rng: np.random.Generator,
                           size: int | None = None):
    """Draw the axis correlation S' of a uniform cap sample, S' in (eta, 1].

    Inverts the restricted score CDF by bisection on the log survival
    function (stable for narrow caps); |Delta S'| <= 1e-10.
    """
    if eta >= 1.0:
        raise DegenerateCapError("eta must be < 1")
    if eta < -1.0:
        raise DomainError("eta must be >= -1")
    if d < 2:
        raise DimensionError("cap sampling requires d >= 2")
    n = 1 if size is None else size
    # v in (0, 1]: solve sf(s) = v * sf(eta)
    v = 1.0 - rng.random(n)
    log_sf_eta = score_sf_log(np.array([eta]), 1.0, d)[0]
    target = np.log(v) + log_sf_eta
    lo = np.full(n, eta, dtype=np.float64)
    hi = np.ones(n, dtype=np.float64)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        above = score_sf_log(mid, 1.0, d) > target  # sf decreasing in s
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if size is None else out


def _orthogonal_direction(axis: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform unit vectors in the subspace orthogonal to axis."""
    d = axis.size
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ axis, axis)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        fresh = rng.standard_normal((int(bad.sum()), d))
        fresh -= np.outer(fresh @ axis, axis)
        g[bad] = fresh
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / norms


def sample_cap(spec: CapSpec, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform sample from the cap: S' u + sqrt(1 - S'^2) W with W
    uniform on the unit sphere orthogonal to u."""
    n = 1 if size is None else size
    s = np.atleast_1d(sample_cap_correlation(spec.eta, spec.dim, rng, size=n))
    w = _orthogonal_direction(spec.axis, rng, n)
    out = s[:, None] * spec.axis[None, :] + np.sqrt(1.0 - s * s)[:, None] * w
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out[0] if size is None else out


def make_query(dataset: Dataset, model: QueryModel, rng: np.random.Generator) -> np.ndarray:
    """Draw one query: uniform under H0; alpha x + beta Z under H1, with Z
    uniform on the sphere orthogonal to the planted vector."""
    if model.hypothesis == "H0":
        return sample_sphere(dataset.dim, rng)
    if model.planted_id is None or not 0 <= model.planted_id < dataset.size:
        raise ModelError("H1 planted id outside the dataset")
    return h1_queries(dataset.vectors[[model.planted_id]], model.alpha, rng)[0]


def h1_queries(planted: np.ndarray, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """One H1 query per row x of ``planted``: alpha x + beta z, with z
    uniform on the unit sphere orthogonal to x, renormalized. float32 rows
    are widened first, so the queries are computed in float64."""
    planted = np.asarray(planted, dtype=np.float64)
    g = rng.standard_normal(planted.shape)
    g -= np.sum(g * planted, axis=1, keepdims=True) * planted
    z = g / np.linalg.norm(g, axis=1, keepdims=True)
    y = alpha * planted + np.sqrt(max(0.0, 1.0 - alpha * alpha)) * z
    return y / np.linalg.norm(y, axis=1, keepdims=True)


def make_clustered_dataset(K: int, per_cluster: int, d: int, eta: float,
                           rng: np.random.Generator) -> tuple[Dataset, np.ndarray]:
    """Planted-cluster dataset: K uniform cap axes, per_cluster members each.

    Returns the dataset and the ground-truth labels (length K * per_cluster).
    """
    if K < 1 or per_cluster < 1:
        raise DomainError("K and per_cluster must be >= 1")
    axes = sample_sphere(d, rng, size=K)
    blocks = []
    labels = np.repeat(np.arange(K), per_cluster)
    for k in range(K):
        spec = CapSpec(axis=axes[k], eta=eta)
        blocks.append(np.atleast_2d(sample_cap(spec, rng, size=per_cluster)))
    return Dataset(np.vstack(blocks)), labels
