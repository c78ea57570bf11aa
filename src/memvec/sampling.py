"""Seeded synthetic data generation.

Uniform hypersphere vectors, spherical-cap vectors (a cap is an axis and a
floor eta on the correlation with it: 1-d inverse-CDF on that correlation,
then the H1 perturbation of the axis by it), planted-cluster datasets and
H1 query vectors. Every operation is deterministic given the generator
state; parallel workers derive independent generators by seed splitting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .analytic import _check_alpha, _check_eta, score_sf_log
from .core import Dataset, _check_count, normalize
from .errors import DimensionError

__all__ = [
    "Seed",
    "sample_sphere",
    "sample_cap_correlation",
    "sample_cap",
    "h1_queries",
    "make_clustered_dataset",
]

_BISECT_ITERS = 70  # interval 2 * 2^-70 << the 1e-10 inversion target


@dataclass(frozen=True)
class Seed:
    """64-bit seed with counter-based splitting: child = hash(parent, label)."""

    value: int

    def __post_init__(self):
        # numpy's default_rng refuses a negative seed with a bare ValueError
        _check_count(self.value, "seed", 0)

    def child(self, label: str) -> "Seed":
        digest = hashlib.sha256(f"{self.value}:{label}".encode()).digest()
        return Seed(int.from_bytes(digest[:8], "little"))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self.value)


def sample_sphere(d: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, d) uniform unit vectors: d standard normals per row, normalized."""
    d = _check_count(d, "d", 1, DimensionError)
    size = _check_count(size, "sample size", 0)
    g = rng.standard_normal((size, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    while np.any(norms == 0.0):  # measure-zero redraw
        bad = norms[:, 0] == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / norms


def sample_cap_correlation(eta: float, d: int, rng: np.random.Generator,
                           size: int) -> np.ndarray:
    """Draw ``size`` axis correlations S' of uniform cap samples, S' in (eta, 1].

    Inverts the restricted score CDF by bisection on the log survival
    function (stable for narrow caps); |Delta S'| <= 1e-10.
    """
    _check_eta(eta)
    d = _check_count(d, "cap sampling d", 2, DimensionError)
    size = _check_count(size, "sample size", 0)
    # v in (0, 1]: solve sf(s) = v * sf(eta)
    v = 1.0 - rng.random(size)
    log_sf_eta = score_sf_log(np.array([eta]), 1.0, d)[0]
    target = np.log(v) + log_sf_eta
    lo = np.full(size, eta, dtype=np.float64)
    hi = np.ones(size, dtype=np.float64)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        above = score_sf_log(mid, 1.0, d) > target  # sf decreasing in s
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def _perturb(x: np.ndarray, alpha, rng: np.random.Generator) -> np.ndarray:
    """alpha x + sqrt(1 - alpha^2) z per row x of ``x``, with z uniform on
    the unit sphere orthogonal to x, renormalized: the H1 perturbation.
    ``alpha`` is a scalar or an (n, 1) column, one value per row."""
    g = rng.standard_normal(x.shape)
    g -= np.sum(g * x, axis=1, keepdims=True) * x
    z = g / np.linalg.norm(g, axis=1, keepdims=True)
    y = alpha * x + np.sqrt(1.0 - alpha * alpha) * z
    return y / np.linalg.norm(y, axis=1, keepdims=True)


def sample_cap(axis, eta: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, d) uniform sample from the spherical cap {x : x'u > eta},
    u = axis / ||axis|| (eta = -1 is the full sphere): S' u + sqrt(1 - S'^2) W
    with W uniform on the unit sphere orthogonal to u, the H1 perturbation
    of u with alpha = S'. ``sample_cap_correlation`` checks eta."""
    u = normalize(axis)
    s = sample_cap_correlation(eta, u.size, rng, size)
    return _perturb(np.broadcast_to(u, (size, u.size)), s[:, None], rng)


def h1_queries(planted: np.ndarray, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """One H1 query per row x of ``planted``: alpha x + beta z, with z
    uniform on the unit sphere orthogonal to x, renormalized. float32 rows
    are widened first, so the queries are computed in float64. alpha must
    lie in [0, 1]."""
    _check_alpha(alpha)
    planted = np.asarray(planted, dtype=np.float64)
    if planted.ndim != 2:
        raise DimensionError(f"planted must be an (n, d) array, not {planted.ndim}-d")
    return _perturb(planted, alpha, rng)


def make_clustered_dataset(K: int, per_cluster: int, d: int, eta: float,
                           rng: np.random.Generator) -> tuple[Dataset, np.ndarray]:
    """Planted-cluster dataset: K uniform cap axes, per_cluster members each.

    Returns the dataset and the ground-truth labels (length K * per_cluster).
    """
    K, per_cluster = _check_count(K, "K", 1), _check_count(per_cluster, "per_cluster", 1)
    axes = sample_sphere(d, rng, size=K)
    labels = np.repeat(np.arange(K), per_cluster)
    blocks = [sample_cap(axis, eta, rng, size=per_cluster) for axis in axes]
    return Dataset(np.vstack(blocks)), labels
