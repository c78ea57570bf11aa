"""The benchmark workloads: seeded inputs, timed set-up, a closed-loop
query client, correctness checks and the metrics they yield.

Load is one process and one closed-loop client: each query is issued
after the previous one returns. The loop cycles through a fixed pool of
distinct queries, so quality metrics are computed over the same pool on
every run of a seed. The library is measured as it stands: ``build_index``
once per set-up, then one ``query`` / ``query_binary`` call per query.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from memvec import analytic, assignment, search
from memvec.assignment import KMeansConfig
from memvec.construction import ConstructionConfig
from memvec.core import Dataset
from memvec.harness import evaluation, io
from memvec.sampling import Seed

from . import checks, inputs
from .tracing import Tracer

ALPHA = 0.9             # H1 similarity of threshold-workload queries, and alpha0
EPS = 0.01              # P_fn target behind tau = threshold_for(...)
CLUSTER_ALPHA = 0.8     # H1 similarity and evaluation alpha0 on clustered-files
CLUSTER_ETA = 0.9       # member-to-axis correlation of the planted clusters
CLUSTER_SIZE = 100
KMEANS_ITERS = 5        # as in ROADMAP's Baseline (2.6 s at N=20k, M=2k)
TOP_UNITS = 10
SKETCH_TAU = 0.08       # query_binary threshold (acceptance test 11's point)
RECALL_AT = 10
SETUP_REPEATS = 3
WARMUP = 0.1            # share of --seconds spent on untimed queries before
                        # each block, so caches fill and pages fault in
SEGMENTS = 4            # qps is the median over the equal parts (this many per
                        # block) of the timed loops, so a burst moves few parts
BRUTE = 0.15            # share of --seconds spent on batched brute force
BRUTE_CHUNK = 100       # batched brute force is Q @ X.T over this many queries
BRUTE_SINGLES = 20
TAIL_SAMPLES = 10       # the tail percentile keeps at least this many beyond it
# On a shared VM, percentiles above p95 measure the neighbours' bursts more
# than memvec (p99 varied 2.4x between runs of one workload), so the tail
# ladder stops at p95. The percentile is chosen from the pool size, the
# least number of timed samples, so it does not change with machine speed.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
WORKDIR = Path(__file__).resolve().parent / ".work"

# Gated end-to-end metrics, in the result line of every untraced run.
END_TO_END = {
    "setup_s": "s",
    "recall_at_10": "ratio",
    "scan_ratio": "ratio",
    "index_rss_mb": "MB",
}
# Also end-to-end, but only in the report line: on a shared 2-core VM
# their spread over ten runs of one commit exceeded the widest bound
# BENCHMARK.json allows (0.25; query_p50_ms reached 0.47 on
# clustered-files), so gating them would fail unchanged code.
REPORTED = {
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "qps": "1/s",
    "brute_ratio": "ratio",
}

PER_LAYER = {
    "core.representatives.ms_per_query": "ms",
    "core.representatives.calls_per_query": "count",
    "core.Dataset.s": "s",
    "assignment.members.calls": "count",
    "assignment.members.s": "s",
    "assignment.spherical_kmeans.s": "s",
    "assignment.random_assignment.s": "s",
    "assignment.imbalance": "ratio",
    "construction.pinv_vector.calls": "count",
    "construction.pinv_vector.s": "s",
    "construction.sum_vector.calls": "count",
    "construction.sum_vector.s": "s",
    "construction.max_pinv_residual": "abs",
    "search.build_index.self_s": "s",
    "search.query.self_ms": "ms",
    "search.units_positive_mean": "count",
    "search.vectors_scanned_mean": "count",
    "search.candidates_mean": "count",
    "search.unit_fp_rate": "ratio",
    "search.unit_precision": "ratio",
    "search.binarize.s": "s",
    "search.query_binary.asymmetric_ms": "ms",
    "search.query_binary.symmetric_ms": "ms",
    "io.read_fvecs.s": "s",
    "io.write_index.s": "s",
    "io.read_index.s": "s",
    "io.index_bytes": "bytes",
    "evaluation.cosine_ground_truth.s": "s",
    "evaluation.evaluate_results.s": "s",
    "analytic.threshold_for.ms": "ms",
    "analytic.cost_ratio": "ratio",
    "analytic.pfp": "ratio",
    "analytic.pfn": "ratio",
    "ref.brute_batch_ms_per_query": "ms",
    "ref.brute_single_ms": "ms",
    "setup.s": "s",
    "query.p50_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}


@dataclass(frozen=True)
class Spec:
    name: str
    N: int
    d: int
    unit_size: int   # n of random assignment; N / M for k-means
    pool: int        # distinct queries the closed loop cycles through
    clustered: bool = False
    sketch: bool = False


# Why each workload, and the sizes behind it, are in perfbench/README.md.
SPECS = {s.name: s for s in (
    Spec("uniform-d128", N=200_000, d=128, unit_size=10, pool=200),
    Spec("paper-d1000", N=50_000, d=1000, unit_size=50, pool=600),
    Spec("clustered-files", N=20_000, d=128, unit_size=10, pool=600, clustered=True),
    Spec("sketch-d1024", N=50_000, d=1024, unit_size=10, pool=100, sketch=True),
)}

# same code paths at a size that runs in about a second (tests only)
TOY = {
    "uniform-d128": replace(SPECS["uniform-d128"], N=2_000, pool=20),
    "paper-d1000": replace(SPECS["paper-d1000"], N=1_000, d=200, pool=20),
    "clustered-files": replace(SPECS["clustered-files"], N=1_000, pool=20),
    "sketch-d1024": replace(SPECS["sketch-d1024"], N=1_000, d=256, pool=12),
}


@dataclass
class Served:
    """Everything a query needs once set-up is done."""

    dataset: Dataset
    index: object
    partition: object
    tau: float | None
    binary: object = None
    index_bytes: int = 0


# ---------------------------------------------------------------------------
# inputs and set-up
# ---------------------------------------------------------------------------


def make_inputs(spec: Spec, seed: int):
    gen = inputs.rng(seed, inputs.DATA)
    if spec.clustered:
        X = inputs.clustered_rows(gen, spec.N // CLUSTER_SIZE, CLUSTER_SIZE,
                                  spec.d, CLUSTER_ETA)
        # the file stores float32; query against what the index will see
        X = X.astype(np.float32).astype(np.float64)
        Y, planted = inputs.query_pool(inputs.rng(seed, inputs.QUERIES), X,
                                       spec.pool, CLUSTER_ALPHA, None)
    else:
        X = inputs.unit_rows(gen, spec.N, spec.d)
        Y, planted = inputs.query_pool(inputs.rng(seed, inputs.QUERIES), X,
                                       spec.pool, ALPHA, 2)
    return X, Y, planted


def set_up(spec: Spec, X: np.ndarray, seed: int, work: Path) -> Served:
    """Generated inputs in memory -> first query answerable."""
    if spec.clustered:
        ds = Dataset(io.read_fvecs(work / "data.fvecs"))
        km_seed = int(inputs.rng(seed, inputs.KMEANS).integers(2**63))
        part, _ = assignment.spherical_kmeans(ds, KMeansConfig(
            M=spec.N // spec.unit_size, mode="sum", normalize_representative=False,
            max_iters=KMEANS_ITERS, seed=Seed(km_seed)))
        path = work / "index.mvix"
        io.write_index(search.build_index(ds, part, ConstructionConfig(kind="sum")), path)
        return Served(ds, io.read_index(path), part, None,
                      index_bytes=path.stat().st_size)
    ds = Dataset(X)
    part = assignment.random_assignment(spec.N, spec.unit_size,
                                        inputs.rng(seed, inputs.ASSIGN))
    tau = analytic.threshold_for("pinv", ALPHA, spec.unit_size, spec.d, EPS)
    index = search.build_index(ds, part, ConstructionConfig(kind="pinv"))
    binary = search.binarize(index, ds) if spec.sketch else None
    return Served(ds, index, part, tau, binary)


def representatives(index) -> np.ndarray:
    reps = index.representatives
    return np.asarray(reps() if callable(reps) else reps)


def trim_heap():
    """Return freed heap memory to the OS (glibc only), so a set-up's RSS
    delta does not depend on what was freed before it."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def rss_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


# ---------------------------------------------------------------------------
# the closed-loop client
# ---------------------------------------------------------------------------


def operations(spec: Spec, served: Served):
    """(kind, call) pairs issued for each pool query, in order. Calls go
    through module attributes so the tracer's wrappers see them."""
    s = served
    if spec.clustered:
        ops = [("query", lambda y: search.query(s.index, s.dataset, y, top_units=TOP_UNITS))]
    else:
        ops = [("query", lambda y: search.query(s.index, s.dataset, y, tau=s.tau))]
    if spec.sketch:
        ops += [(mode, lambda y, mode=mode: search.query_binary(
                    s.binary, y, tau=SKETCH_TAU, mode=mode))
                for mode in ("asymmetric", "symmetric")]
    return ops


class Client:
    """Issues queries one at a time and keeps what the checks need: the
    first answer to each (kind, pool query), a digest of every repeat,
    per-call latency and any exception raised."""

    def __init__(self, ops):
        self.ops = ops
        self.first = {kind: {} for kind, _ in ops}
        self.repeats = {kind: [] for kind, _ in ops}
        self.errors: list[tuple[str, int, str]] = []
        self.issued = 0
        self.rounds = 0
        self.timed_rounds = 0

    def loop(self, Y: np.ndarray, seconds: float, until_round: int = 0,
             tracer: Tracer | None = None) -> tuple[dict, float]:
        """Issue rounds (one call per op on the next pool query) until
        ``seconds`` of query time have passed and ``until_round`` rounds
        have been issued in all. Returns per-kind latencies (ms) and the
        summed query time (s)."""
        lat = {kind: [] for kind, _ in self.ops}
        busy_ns = 0
        while busy_ns < seconds * 1e9 or self.rounds < until_round:
            p = self.rounds % len(Y)
            for kind, call in self.ops:
                if tracer is not None:
                    tracer.request = f"{kind}/{self.rounds}"
                self.issued += 1
                t0 = time.perf_counter_ns()
                try:
                    res = call(Y[p])
                except Exception as exc:  # counted as a failed operation
                    busy_ns += time.perf_counter_ns() - t0
                    self.errors.append((kind, p, repr(exc)))
                    continue
                dt = time.perf_counter_ns() - t0
                busy_ns += dt
                lat[kind].append(dt * 1e-6)
                answer = checks.answer_of(res)
                if p in self.first[kind]:
                    self.repeats[kind].append((p, answer.digest()))
                else:
                    self.first[kind][p] = answer
            self.rounds += 1
        return lat, busy_ns * 1e-9

    def measure(self, Y: np.ndarray, seconds: float, lat: dict, rates: list,
                cover: bool = False):
        """A timed block: ``seconds`` of query time in SEGMENTS parts.
        Appends per-kind latencies (ms) to ``lat`` and each part's calls
        per second of query time to ``rates``. With ``cover``, the last
        part goes on until the timed blocks together have issued a round
        for every pool query."""
        for seg in range(SEGMENTS):
            until = 0
            if cover and seg == SEGMENTS - 1:
                until = self.rounds + max(0, len(Y) - self.timed_rounds)
            start = self.rounds
            part, busy = self.loop(Y, seconds / SEGMENTS, until)
            self.timed_rounds += self.rounds - start
            for kind, xs in part.items():
                lat[kind] += xs
            rates.append(sum(map(len, part.values())) / busy)


def brute_force(X: np.ndarray, Y: np.ndarray, seconds: float) -> dict:
    """Exact brute force on the same data and queries: Q @ X.T on
    BRUTE_CHUNK pool queries at a time for ``seconds`` (median per chunk,
    after one untimed chunk), and X @ y (median per query)."""
    out = np.empty((BRUTE_CHUNK, X.shape[0]))
    chunk_ms = []
    while sum(chunk_ms[1:]) < seconds * 1e3 or len(chunk_ms) < 4:
        Q = Y[np.arange(BRUTE_CHUNK * len(chunk_ms), BRUTE_CHUNK * (len(chunk_ms) + 1)) % len(Y)]
        chunk_ms.append(_timed_ms(lambda: np.matmul(Q, X.T, out=out)))
    single_ms = [_timed_ms(lambda: X @ Y[k % len(Y)]) for k in range(BRUTE_SINGLES + 1)]
    return {"brute_batch_ms_per_query": float(np.median(chunk_ms[1:])) / BRUTE_CHUNK,
            "brute_single_ms": float(np.median(single_ms[1:]))}


def _timed_ms(fn) -> float:
    t0 = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - t0) * 1e-6


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_answers(spec: Spec, served: Served, Y, client: Client) -> tuple[dict[str, int], int]:
    """Check every answer. Returns failure counts by check name and the
    number of calls that failed: a repeat fails when its answer differs
    from the first one, or the first one failed."""
    R = representatives(served.index)
    unit_of = np.asarray(served.partition.unit_of)
    sizes = np.bincount(unit_of, minlength=R.shape[0])
    d = R.shape[1]
    ref_scores = {"query": Y @ R.T}
    if spec.sketch:
        ref_scores["asymmetric"] = Y @ np.where(R >= 0, 1.0, -1.0).T / np.sqrt(d)
        agree = (Y >= 0) * 1.0 @ (R >= 0).T + (Y < 0) * 1.0 @ (R < 0).T
        ref_scores["symmetric"] = (2.0 * agree - d) / d
    top = TOP_UNITS if spec.clustered else None
    counts: dict[str, int] = {}
    failed_calls = 0
    for kind, answers in client.first.items():
        tau = served.tau if kind == "query" else SKETCH_TAU
        bad = set()
        for p, a in answers.items():
            names = checks.check_answer(
                a, Y[p], served.dataset.vectors, unit_of, sizes, ref_scores[kind][p],
                tau=None if (kind == "query" and top) else tau,
                top_units=top if kind == "query" else None)
            for name in names:
                counts[name] = counts.get(name, 0) + 1
            if names:
                bad.add(p)
        failed_calls += len(bad)
        digest = {p: a.digest() for p, a in answers.items()}
        for p, dg in client.repeats[kind]:
            if dg != digest[p]:
                counts["repeat"] = counts.get("repeat", 0) + 1
            failed_calls += p in bad or dg != digest[p]
    return counts, failed_calls


# ---------------------------------------------------------------------------
# reference rows, quality and environment
# ---------------------------------------------------------------------------


def tail_percentile(least_samples: int) -> float:
    """The highest percentile of TAIL_LADDER that leaves at least
    TAIL_SAMPLES of ``least_samples`` beyond it (100 if none does)."""
    for pct in TAIL_LADDER:
        if least_samples * (100.0 - pct) / 100.0 >= TAIL_SAMPLES:
            return pct
    return 100.0


def quality(spec: Spec, served: Served, planted: np.ndarray, answers: dict,
            alpha0: float) -> dict[str, float]:
    """Retrieval and scan statistics of the first answer to each pool query."""
    unit_of = np.asarray(served.partition.unit_of)
    sizes = np.bincount(unit_of)
    M = sizes.size
    h1 = [p for p in answers if planted[p] >= 0]
    h0 = [p for p in answers if planted[p] < 0]
    every = list(answers)
    # planted matches sit at exactly alpha0; 1e-9 keeps rounding from dropping them
    good = sum(np.unique(unit_of[answers[p].ids[answers[p].sims >= alpha0 - 1e-9]]).size
               for p in h1)
    positive_h1 = sum(answers[p].units.size for p in h1)
    mean = lambda xs: float(np.mean(xs)) if xs else 0.0
    return {
        "recall": mean([planted[p] in answers[p].ids[:RECALL_AT] for p in h1]),
        "scan_ratio": mean([answers[p].ratio for p in (every if spec.clustered else h0)]),
        "units_positive_mean": mean([answers[p].units.size for p in every]),
        "vectors_scanned_mean": mean([sizes[answers[p].units].sum() for p in every]),
        "candidates_mean": mean([answers[p].ids.size for p in every]),
        "unit_fp_rate": mean([answers[p].units.size / M for p in h0]),
        "unit_precision": good / positive_h1 if positive_h1 else 0.0,
    }


def environment() -> dict:
    root = Path(__file__).resolve().parent.parent
    src = sorted((root / "src" / "memvec").rglob("*.py"))
    h = hashlib.sha256()
    for path in src:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _traced(tracer: Tracer | None, request: str):
    """Context in which calls are traced under ``request`` (none if untraced)."""
    if tracer is None:
        return nullcontext()
    tracer.request = request
    return tracer.installed()


def evaluate(served: Served, Y: np.ndarray, answers: dict, tracer: Tracer | None):
    """cosine_ground_truth + evaluate_results over the whole pool. Returns
    (seconds, the report's recall fields, whether they match numpy's)."""
    retrieved = [answers[p].ids for p in range(len(Y))]
    ratios = np.array([answers[p].ratio for p in range(len(Y))])
    with _traced(tracer, "eval"):
        t0 = time.perf_counter()
        matches = evaluation.cosine_ground_truth(served.dataset, Y, CLUSTER_ALPHA)
        ev = evaluation.evaluate_results(retrieved, matches, ratios)
        seconds = time.perf_counter() - t0
    theirs = {"recall_of_matches": ev.recall_of_matches,
              **{f"recall_at_{r}": v for r, v in ev.recall_at_r.items()}}
    ours = checks.recall_report(retrieved, matches)
    return seconds, theirs, all(abs(theirs[k] - v) <= 1e-12 for k, v in ours.items())


def theory(spec: Spec, tau: float, tracer: Tracer | None) -> dict:
    """analytic.expected_cost_ratio and error_rates at the workload's tau."""
    with _traced(tracer, "analytic"):
        cost = analytic.expected_cost_ratio("pinv", spec.unit_size, spec.d, ALPHA, EPS)
        pfp, pfn = analytic.error_rates("pinv", tau, ALPHA, spec.unit_size, spec.d)
    return {"tau": tau, "cost_ratio": cost.cost_ratio, "pfp": pfp, "pfn": pfn}


def per_layer(tracer: Tracer, lat: dict, traced_lat: dict, values: dict) -> dict:
    """Per-layer metrics from the spans, the two query loops (untraced and
    traced) and the values the run computed itself. A layer the workload
    never called reads 0."""
    setup = tracer.totals(lambda r: r == "setup")
    queries = tracer.totals(lambda r: r.startswith("query/"))
    ev = tracer.totals(lambda r: r == "eval")
    n = queries["search.query"]["calls"]
    per_query = lambda v: v / n if n else 0.0
    median = lambda xs: float(np.median(xs)) if xs else 0.0
    layers = {
        "core.representatives.ms_per_query": per_query(queries["core.representatives"]["s"]) * 1e3,
        "core.representatives.calls_per_query": per_query(queries["core.representatives"]["calls"]),
        "search.query.self_ms": per_query(queries["search.query"]["self_s"]) * 1e3,
        "search.build_index.self_s": setup["search.build_index"]["self_s"],
        "analytic.threshold_for.ms": setup["analytic.threshold_for"]["s"] * 1e3,
        "search.query_binary.asymmetric_ms": median(traced_lat.get("asymmetric")),
        "search.query_binary.symmetric_ms": median(traced_lat.get("symmetric")),
        "query.p50_ms": median(lat["query"]),
        "trace.overhead_ms": median(traced_lat["query"]) - median(lat["query"]),
        "trace.spans": len(tracer.spans),
    }
    for name in ("assignment.members", "construction.pinv_vector", "construction.sum_vector"):
        layers[f"{name}.calls"] = setup[name]["calls"]
    for name in ("core.Dataset", "assignment.members", "assignment.spherical_kmeans",
                 "assignment.random_assignment", "construction.pinv_vector",
                 "construction.sum_vector", "search.binarize", "io.read_fvecs",
                 "io.write_index", "io.read_index"):
        layers[f"{name}.s"] = setup[name]["s"]
    for name in ("evaluation.cosine_ground_truth", "evaluation.evaluate_results"):
        layers[f"{name}.s"] = ev[name]["s"]
    return layers | values


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        workdir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload. Returns (report, result): the full report, and the
    result line {correct, attempted, failed, metrics} -- end-to-end
    metrics untraced, per-layer metrics traced."""
    spec = (TOY if toy else SPECS)[name]
    work = Path(workdir or WORKDIR)
    work.mkdir(parents=True, exist_ok=True)
    X, Y, planted = make_inputs(spec, seed)
    if spec.clustered:  # written once, untimed
        io.write_fvecs(X, work / "data.fvecs")

    # Set-up is repeated so setup_s is a median, and each set-up is
    # followed by a block of queries on its index, so the timed queries
    # span the whole run and a neighbour's burst of a few seconds moves
    # only part of them. Only one index is alive at a time, as in a serving
    # process. index_rss_mb is the first set-up's growth in resident memory
    # (later set-ups reuse what the previous index and queries freed); what
    # a set-up frees but keeps resident counts. A traced run has two
    # blocks: untraced, then traced set-up and queries.
    tracer = Tracer() if trace else None
    blocks = 2 if trace else SETUP_REPEATS
    setup_s, rss, rates, served, client = [], [], [], None, None
    gc.collect()
    trim_heap()
    before = rss_mb()
    for block in range(blocks):
        traced = trace and block == 1
        served = None
        gc.collect()
        with _traced(tracer if traced else None, "setup"):
            t0 = time.perf_counter()
            served = set_up(spec, X, seed, work)
            setup_s.append(time.perf_counter() - t0)
        rss.append(rss_mb() - before)
        ops = operations(spec, served)
        if client is None:
            client, lat = Client(ops), {kind: [] for kind, _ in ops}
        client.ops = ops
        client.loop(Y, WARMUP * seconds / blocks)
        if traced:
            with tracer.installed():
                traced_lat, _ = client.loop(Y, seconds / blocks, tracer=tracer)
        else:
            client.measure(Y, seconds / blocks, lat, rates,
                           cover=block == (0 if trace else blocks - 1))
    attempted, failed = len(setup_s), 0

    residual = 0.0
    if not spec.clustered:
        residual = checks.pinv_residual(representatives(served.index),
                                        np.asarray(served.partition.unit_of),
                                        served.dataset.vectors)
        failed += int(residual > checks.PINV_TOL)

    reference = brute_force(served.dataset.vectors, Y, BRUTE * seconds)
    brute_batch = reference["brute_batch_ms_per_query"]
    if served.tau is not None:
        reference["analytic"] = theory(spec, served.tau, tracer)

    extra = {}
    if spec.clustered:
        eval_s, reference["evaluation"], eval_ok = evaluate(
            served, Y, client.first["query"], tracer)
        extra["eval_s"] = (eval_s, "s")
        attempted += 1
        failed += int(not eval_ok)

    by_check, failed_calls = check_answers(spec, served, Y, client)
    attempted += client.issued
    failed += failed_calls + len(client.errors)

    q = quality(spec, served, planted, client.first["query"],
                CLUSTER_ALPHA if spec.clustered else ALPHA)
    reference.update(observed_scan_ratio=q["scan_ratio"],
                     observed_unit_fp_rate=q["unit_fp_rate"])
    p50 = float(np.median(lat["query"]))
    pct = tail_percentile(spec.pool)
    metrics = {
        "setup_s": float(np.median(setup_s)),
        "query_p50_ms": p50,
        "query_tail_ms": float(np.percentile(lat["query"], pct)),
        "qps": float(np.median(rates)),
        "brute_ratio": p50 / brute_batch,
        "recall_at_10": q["recall"],
        "scan_ratio": q["scan_ratio"],
        "index_rss_mb": rss[0],
    }
    if spec.sketch:
        hits = [planted[p] in a.ids[:RECALL_AT]
                for mode in ("asymmetric", "symmetric")
                for p, a in client.first[mode].items() if planted[p] >= 0]
        extra.update(
            sketch_query_p50_ms=(float(np.median(lat["asymmetric"])), "ms"),
            sketch_query_tail_ms=(float(np.percentile(lat["asymmetric"], pct)), "ms"),
            hamming_query_p50_ms=(float(np.median(lat["symmetric"])), "ms"),
            sketch_recall_at_10=(float(np.mean(hits)) if hits else 0.0, "ratio"))
    extra["error_rate"] = (failed / attempted, "ratio")

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": {"N": spec.N, "d": spec.d, "unit_size": spec.unit_size,
                   "queries": spec.pool, "h1_queries": int(np.sum(planted >= 0)),
                   "dataset_sha256": inputs.fingerprint(X),
                   "queries_sha256": inputs.fingerprint(Y, planted)},
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": (END_TO_END | REPORTED)[k]}
                    for k, v in metrics.items()}
        | {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "query_tail": {"percentile": pct, "samples": len(lat["query"])},
        "query_percentiles_ms": {p: float(np.percentile(lat["query"], p))
                                 for p in (50, 75, 90, 95, 99)},
        "setup_runs_s": setup_s,
        "setup_rss_mb": rss,
        "reference": reference,
        "quality": q,
        "checks": {"failed": by_check, "errors": client.errors,
                   "max_pinv_residual": residual},
    }
    out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    if trace:
        theory_row = reference.get("analytic") or {}
        layers = per_layer(tracer, lat, traced_lat, {
            "assignment.imbalance": assignment.imbalance_factor(served.partition),
            "construction.max_pinv_residual": residual,
            "search.units_positive_mean": q["units_positive_mean"],
            "search.vectors_scanned_mean": q["vectors_scanned_mean"],
            "search.candidates_mean": q["candidates_mean"],
            "search.unit_fp_rate": q["unit_fp_rate"],
            "search.unit_precision": q["unit_precision"],
            "io.index_bytes": served.index_bytes,
            "analytic.cost_ratio": theory_row.get("cost_ratio", 0.0),
            "analytic.pfp": theory_row.get("pfp", 0.0),
            "analytic.pfn": theory_row.get("pfn", 0.0),
            "ref.brute_batch_ms_per_query": brute_batch,
            "ref.brute_single_ms": reference["brute_single_ms"],
            "setup.s": setup_s[1],
        })
        out = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        report["per_layer"] = out
        tracer.write(work / f"spans-{name}-{seed}.jsonl")
    if spec.clustered:
        for f in ("data.fvecs", "index.mvix"):
            (work / f).unlink(missing_ok=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": out}
    return report, result
