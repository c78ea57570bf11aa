"""Monte Carlo experiment drivers behind the `experiment` CLI subcommands.

Every driver returns a list of row dicts (one CSV row each) and is
bit-reproducible from its (config, seed) arguments.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..analytic import error_rates, expected_cost_ratio, score_law, threshold_for
from ..assignment import KMeansConfig, imbalance_factor, random_assignment, spherical_kmeans
from ..construction import representatives
from ..core import Dataset, Partition, _check_count
from ..errors import DomainError
from ..sampling import Seed, h1_queries, sample_sphere
from ..search import _check_selector, _units, build_index
from .evaluation import cosine_ground_truth

__all__ = [
    "simulate_unit_scores",
    "run_roc",
    "measure_cost",
    "run_cost_curve",
    "run_assignment_report",
]

_UNIT_BATCH_FLOATS = 4_000_000  # ~32 MB of member vectors per batch
_ROC_TAUS = [round(t, 4) for t in np.linspace(0.0, 0.8, 17)]


def _stream_units(d: int, n: int, units: int, construction: str,
                  rng: np.random.Generator):
    """Yield (first, X, reps) per batch of fresh units: X stacks b units of
    n uniform rows, reps holds their b representatives and first is the
    index of the batch's first unit. Lazy, so a caller's own draws from
    ``rng`` between batches keep their place in the stream."""
    batch = max(1, _UNIT_BATCH_FLOATS // (n * d))
    for first in range(0, units, batch):
        b = min(batch, units - first)
        X = sample_sphere(d, rng, size=b * n)
        part = Partition(np.arange(b * n), np.arange(0, b * n + 1, n))  # consecutive units
        yield first, X, representatives(X, part, construction)


def simulate_unit_scores(d: int, n: int, alpha: float, construction: str,
                         trials: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial unit scores under H0 and H1 for fresh random units.

    Each trial draws an independent unit of n uniform vectors, an H1 query
    planted on its first member and a fresh H0 query. Returns
    (h0_scores, h1_scores), each of length ``trials``. ``score_law``
    checks the model's domain before anything is drawn.
    """
    score_law(construction, alpha, n, d)
    trials = _check_count(trials, "trials", 1)
    h0 = np.empty(trials)
    h1 = np.empty(trials)
    for first, X, m in _stream_units(d, n, trials, construction, rng):
        y1 = h1_queries(X[::n], alpha, rng)
        y0 = sample_sphere(d, rng, size=len(m))
        h1[first:first + len(m)] = np.sum(m * y1, axis=1)
        h0[first:first + len(m)] = np.sum(m * y0, axis=1)
    return h0, h1


def run_roc(d: int, n: int, alpha: float, constructions: list[str], trials: int,
            seed: Seed) -> list[dict]:
    """Empirical vs theoretical (pfp, 1 - pfn) over the thresholds 0, 0.05, ..., 0.8."""
    rows = []
    for construction in constructions:
        rng = seed.child(f"roc-{construction}").generator()
        h0, h1 = simulate_unit_scores(d, n, alpha, construction, trials, rng)
        for tau in _ROC_TAUS:
            pfp_t, pfn_t = error_rates(construction, tau, alpha, n, d)
            rows.append({
                "construction": construction,
                "tau": tau,
                "pfp_emp": float(np.mean(h0 > tau)),
                "tpr_emp": float(np.mean(h1 > tau)),
                "pfp_theory": pfp_t,
                "tpr_theory": 1.0 - pfn_t,
            })
    return rows


def measure_cost(construction: str, n: int, d: int, alpha0: float, eps: float,
                 N: int, n_queries: int, seed: Seed) -> dict:
    """Realized mean H0 scan cost on a streamed synthetic index of N vectors.

    Member vectors are generated unit-by-unit and discarded after the
    representative is computed, so N can be large.
    """
    N, n_queries = _check_count(N, "N", 1), _check_count(n_queries, "n_queries", 1)
    tau = threshold_for(construction, alpha0, n, d, eps)
    M = -(-N // n)
    sizes = np.diff(np.minimum(np.arange(M + 1) * n, N))  # the last unit may be short
    rng = seed.child(f"cost-{construction}-{n}").generator()
    reps = np.concatenate([m for *_, m in _stream_units(d, n, M, construction, rng)])
    blocks = _units(sample_sphere(d, rng, size=n_queries), d, M, lambda Y: Y @ reps.T, tau, None)
    ratios = (M + np.concatenate([mask @ sizes for *_, mask in blocks])) / N  # mask: S > tau
    theory = expected_cost_ratio(construction, n, d, alpha0, eps)
    return {
        "construction": construction,
        "alpha0": alpha0,
        "n": n,
        "tau": tau,
        "ratio_mc": float(np.mean(ratios)),
        "ratio_theory": theory.cost_ratio,
    }


def run_cost_curve(d: int, eps: float, alpha0: float, n_values: list[int],
                   constructions: list[str], mc: dict | None = None,
                   seed: Seed | None = None) -> list[dict]:
    """Theoretical C_H0/N curves over n, one per construction, optionally
    validated by Monte Carlo at the per-curve argmin.

    ``mc`` takes {"N": ..., "queries": ...}; when given, a ``ratio_mc``
    column is filled at the argmin of each curve.
    """
    if not n_values:
        raise DomainError("need at least one n (n_max >= 1)")
    rows = []
    for construction in constructions:
        curve = []
        for n in n_values:
            if construction == "pinv" and n >= d:
                continue
            rep = expected_cost_ratio(construction, n, d, alpha0, eps)
            curve.append({
                "construction": construction,
                "alpha0": alpha0,
                "n": n,
                "tau": rep.tau,
                "pfp": rep.pfp,
                "ratio_theory": rep.cost_ratio,
                "ratio_mc": "",
            })
        if mc and curve:
            best = min(curve, key=lambda r: r["ratio_theory"])
            measured = measure_cost(construction, best["n"], d, alpha0, eps,
                                    mc["N"], mc["queries"], seed or Seed(0))
            best["ratio_mc"] = measured["ratio_mc"]
        rows.extend(curve)
    if not rows:
        raise DomainError("no curve has a point (pinv needs n < d)")
    return rows


# method: (construction, normalized k-means representatives or None for random assignment)
_METHODS = {
    "random": ("pinv", None),
    "sum-km": ("sum", False),
    "pinv-km": ("pinv", False),
    "sum-km-norm": ("sum", True),
    "pinv-km-norm": ("pinv", True),
}


def run_assignment_report(dataset: Dataset, methods: list[str], M: int,
                          seeds: list[int], alpha: float, alpha0: float,
                          n_queries: int, top_k: int, seed: Seed,
                          tau: float | None = None,
                          kmeans_iters: int | None = None) -> list[dict]:
    """Imbalance, per-rank match probability, matches per positive unit and
    scan complexity for each assignment method and seed.

    Match statistics always use the top-k highest scoring units. Complexity
    is top-k based too unless ``tau`` is given, in which case every unit
    whose score exceeds the threshold is scanned (the production policy).
    ``kmeans_iters`` overrides the k-means iteration budget.
    """
    n_queries, top_k = _check_count(n_queries, "n_queries", 1), _check_count(top_k, "top_k", 1)
    km_kwargs = {} if kmeans_iters is None else {"max_iters": kmeans_iters}
    km = KMeansConfig(M=M, **km_kwargs)  # checks M and the iteration budget before any work
    if not seeds or top_k > M:
        raise DomainError("need n_seeds >= 1 and top_k <= M")
    if tau is not None:
        _check_selector(tau, None)  # before any work
    for method in methods:
        if method not in _METHODS:
            raise DomainError(f"unknown assignment method {method!r}")
    N = dataset.size
    qrng = seed.child("queries").generator()
    planted = qrng.integers(N, size=n_queries)
    queries = h1_queries(dataset.vectors[planted], alpha, qrng)
    matches = cosine_ground_truth(dataset, queries, alpha0)

    rows = []
    for method in methods:
        mode, norm = _METHODS[method]
        for s in seeds:
            method_seed = seed.child(f"{method}-{s}")
            if norm is None:
                part = random_assignment(N, max(1, N // M), method_seed.generator())
            else:
                part, _ = spherical_kmeans(dataset, replace(
                    km, mode=mode, normalize_representative=norm, seed=method_seed))
            index = build_index(dataset, part, mode)
            sizes, unit_of = part.sizes, part.unit_of  # unit_of is rebuilt per access
            unit_matches = np.stack([np.bincount(unit_of[m], minlength=part.M)
                                     for m in matches])
            # per block of queries: their top-k units (b, top_k), best first, and their scans
            blocks = [(top, sizes[top].sum(1) if tau is None else (S > tau) @ sizes)
                      for _, S, top in _units(queries, dataset.dim, part.M,
                                              lambda Y: Y @ index.representatives.T, None, top_k)]
            top, scanned = map(np.concatenate, zip(*blocks))
            hits = np.take_along_axis(unit_matches, top, axis=1)  # (Q, top_k)
            complexities = part.M + scanned
            positives = np.count_nonzero(hits)
            row = {
                "method": method,
                "seed": s,
                "delta": imbalance_factor(part),
                "mean_complexity_ratio": float(np.mean(complexities) / N),
                "std_complexity_ratio": float(np.std(complexities) / N),
                "matches_per_positive": int(hits.sum()) / positives if positives else 0.0,
            }
            for r in range(top_k):
                row[f"p_match_rank{r + 1}"] = float(np.count_nonzero(hits[:, r]) / n_queries)
            rows.append(row)
    return rows
