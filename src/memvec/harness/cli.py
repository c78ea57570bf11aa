"""Command line interface.

Subcommands: gen, build, query, eval, theory {roc,cost,cap-stats,mp},
experiment {roc,cost,assignment}. All tabular output is CSV with a header
row, written to --out or stdout. Exit codes: 0 success, 2 usage error,
1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections.abc import Iterable
from dataclasses import asdict

import numpy as np

from .. import analytic
from ..assignment import KMeansConfig, batch_assignment, random_assignment, spherical_kmeans
from ..construction import ConstructionConfig
from ..core import Dataset, _check_count
from ..errors import DomainError, MemvecError
from ..sampling import Seed, make_clustered_dataset, sample_sphere
from ..search import _selector, build_index, query_batch
from . import experiments, io
from .evaluation import RECALL_RANKS, cosine_ground_truth, evaluate_results

__all__ = ["main", "build_parser"]

_MP_CHUNK = 1 << 16  # `theory mp` quadrature points per chunk, 0.5 MB per float64 array
_MP_MAX_POINTS = 1 << 24  # 0.9 s on a 2-core VM; enough for c up to 1 - 2.4e-6
# per `build --assign` mode: its name in errors, the options it needs (each
# nonzero) and the options it ignores (an error when given)
_BUILD_OPTIONS = {"random": ("random assignment", ("unit_size",), ("M", "normalize", "batch_size")),
                  "kmeans": ("kmeans assignment", ("M",), ("unit_size", "batch_size")),
                  "batch-kmeans": ("batch-kmeans", ("M", "batch_size"), ("unit_size",))}


def _write_csv(rows: Iterable[dict], out_path: str | None):
    """Write ``rows`` as they come, under the first row's keys; no rows,
    no output (not even a header, and --out is not created)."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    handle = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.DictWriter(handle, fieldnames=list(first), lineterminator="\n")
        writer.writeheader()
        writer.writerow(first)
        writer.writerows(rows)
    finally:
        if out_path:
            handle.close()


def _cmd_gen(args) -> int:
    if args.labels_out is not None and not args.clusters:
        raise MemvecError("--labels-out needs --clusters: uniform data has no labels")
    seed = Seed(args.seed)
    if args.clusters:
        per = args.n // args.clusters
        if per * args.clusters != args.n:
            raise MemvecError("--n must be a multiple of --clusters")
        data, labels = make_clustered_dataset(args.clusters, per, args.d,
                                              args.eta, seed.generator())
        if args.labels_out:
            io.write_ivecs(labels.reshape(-1, 1), args.labels_out)
    else:
        data = Dataset(sample_sphere(args.d, seed.generator(), size=args.n))
    io.write_fvecs(data.vectors, args.out)
    return 0


def _cmd_build(args) -> int:
    name, needs, ignores = _BUILD_OPTIONS[args.assign]
    for dest in ignores:
        if getattr(args, dest):  # its default is 0 or False
            raise MemvecError(f"--{dest.replace('_', '-')} has no effect with "
                              f"--assign {args.assign}")
    if not all(getattr(args, dest) for dest in needs):
        flags = " and ".join(f"--{dest.replace('_', '-')}" for dest in needs)
        raise MemvecError(f"{flags} required for {name}")
    for dest in needs:  # each count under the name the library checks it by
        _check_count(getattr(args, dest), {"unit_size": "n"}.get(dest, dest), 1)
    seed = Seed(args.seed)
    cfg = ConstructionConfig(kind=args.construction)
    if args.assign != "random":
        km = KMeansConfig(M=args.M, mode=args.construction,
                          normalize_representative=args.normalize, seed=seed)
    data = Dataset(io.read_fvecs(args.data))
    if args.assign == "random":
        part = random_assignment(data.size, args.unit_size, seed.generator())
    elif args.assign == "kmeans":
        part, _ = spherical_kmeans(data, km)
    else:  # batch-kmeans
        part = batch_assignment(data, args.batch_size, km)
    index = build_index(data, part, cfg)
    io.write_index(index, args.out)
    return 0


def _cmd_query(args) -> int:
    _selector(args.tau, args.top_units)  # a bad selector is reported before any file is read
    index = io.read_index(args.index)
    data = Dataset(io.read_fvecs(args.data))
    answers = query_batch(index, data, io.read_fvecs(args.queries), args.tau, args.top_units)

    def rows():  # one query's rows at a time, as it is answered
        for qid, res in enumerate(answers):
            ranked = [(rank, i, repr(s))
                      for rank, (i, s) in enumerate(res.candidates.tolist(), 1)]
            for rank, i, s in ranked or [("", "", "")]:  # one blank row when none
                yield {"query": qid, "rank": rank, "dataset_id": i, "score": s,
                       "complexity": res.complexity,
                       "complexity_ratio": res.complexity_ratio}

    _write_csv(rows(), args.out)
    return 0


def _cmd_eval(args) -> int:
    if args.gt:
        for dest in ("data", "queries", "alpha0"):
            if getattr(args, dest) is not None:
                raise MemvecError(f"--{dest} has no effect with --gt")
        alpha0 = ""  # given match lists have no threshold
    elif args.data and args.queries:
        alpha0 = 0.5 if args.alpha0 is None else args.alpha0
        if np.isnan(alpha0):  # cosine_ground_truth's check, before the files are read
            raise DomainError("alpha0 is NaN")
    else:
        raise MemvecError("eval needs --gt, or --data and --queries")
    retrieved, ratios = _read_results(args.results)  # a bad file fails before the costly truth
    if args.gt:
        matches = [row[row >= 0] for row in io.read_ivecs(args.gt)]
    else:
        matches = cosine_ground_truth(Dataset(io.read_fvecs(args.data)),
                                      io.read_fvecs(args.queries), alpha0)
    report = evaluate_results(retrieved, matches, np.asarray(ratios))
    row = {
        "alpha0": alpha0,
        "recall_of_matches": report.recall_of_matches,
        "precision": report.precision,
        "mean_complexity_ratio": report.mean_complexity_ratio,
        "complexity_std": report.complexity_std,
    }
    for r in RECALL_RANKS:
        row[f"recall_at_{r}"] = report.recall_at_r[r]
    _write_csv([row], args.out)
    return 0


def _read_results(path: str) -> tuple[list[np.ndarray], list[float]]:
    """Parse a `query` output CSV back into per-query ranked id lists.
    A missing column, a value that does not parse, a dataset id listed
    twice for one query or query ids that are not 0..K-1 raise MemvecError."""
    per_query: dict[int, list[int]] = {}
    ratios: dict[int, float] = {}
    seen: set[tuple[int, int]] = set()
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for column in ("query", "dataset_id", "complexity_ratio"):
            if column not in (reader.fieldnames or ()):
                raise MemvecError(f"{path}: no {column!r} column")
        for row in reader:
            try:  # a short row holds None, a TypeError
                qid = int(row["query"])
                per_query.setdefault(qid, [])
                ratios[qid] = float(row["complexity_ratio"])
                if row["dataset_id"] != "":
                    pair = qid, int(row["dataset_id"])
                    if pair in seen:  # a repeat would be scored as a second hit
                        raise MemvecError(f"{path}, line {reader.line_num}: query {qid} "
                                          f"lists dataset id {pair[1]} twice")
                    seen.add(pair)
                    per_query[qid].append(pair[1])
            except (TypeError, ValueError) as exc:
                raise MemvecError(f"{path}, line {reader.line_num}: {exc}") from None
    # list k is scored against match list k, so a skipped id would shift the rest
    qids = range(len(per_query))
    missing = [q for q in qids if q not in per_query]
    if missing:
        raise MemvecError(f"{path}: no rows for query {missing[0]}; "
                          f"query ids must run 0..{len(per_query) - 1}")
    return ([np.asarray(per_query[q], dtype=np.int64) for q in qids],
            [ratios[q] for q in qids])


def _cmd_theory(args) -> int:
    rows: list[dict] = []
    if args.theory_cmd == "roc":
        taus = np.linspace(args.tau_min, args.tau_max,
                           _check_count(args.tau_steps, "--tau-steps", 1))
        for construction in args.constructions:
            for tau in taus:
                pfp, pfn = analytic.error_rates(construction, float(tau),
                                                args.alpha, args.n, args.d)
                rows.append({"construction": construction, "tau": float(tau),
                             "pfp": pfp, "tpr": 1.0 - pfn})
    elif args.theory_cmd == "cost":
        n_values = list(range(1, args.n_max + 1))
        rows = experiments.run_cost_curve(args.d, args.eps, args.alpha0,
                                          n_values, args.constructions)
    elif args.theory_cmd == "cap-stats":
        for eta in args.etas:
            for construction in args.constructions:
                stats = analytic.cap_stats(construction, eta, args.d, args.n, args.alpha)
                # asdict repeats eta; a repeated key keeps its first place
                rows.append({"construction": construction, "eta": eta, "d": args.d,
                             "n": args.n, "alpha": args.alpha, **asdict(stats)})
    elif args.theory_cmd == "mp":
        for c in args.cs:
            limit = analytic.mp_pinv_norm_limit(c)  # rejects c outside (0, 1)
            rows.append({"c": c, "limit": limit, "quadrature": _mp_quadrature(c)})
    _write_csv(rows, args.out)
    return 0


def _mp_quadrature(c: float) -> float:
    """The Marcenko-Pastur mean of 1/lambda (``mp_pinv_norm_limit`` in closed
    form) by the midpoint rule in t after lambda = mid + h cos t, where the
    integrand is smooth and periodic: the error falls like c^K in K points."""
    points = max(1024, int(np.ceil(40.0 / -np.log(c))))  # c^K ~ e^-40
    if points > _MP_MAX_POINTS:
        raise DomainError(f"aspect ratio c = {c} is too close to 1 for the quadrature")
    h = 2.0 * np.sqrt(c)  # lambda spans mid +- h, mid = 1 + c
    total = 0.0
    for start in range(0, points, _MP_CHUNK):
        t = (np.arange(start, min(start + _MP_CHUNK, points)) + 0.5) * (np.pi / points)
        lam = 1.0 + c + h * np.cos(t)
        total += float(np.sum(analytic.mp_pdf(lam, c) / lam * (h * np.sin(t))))
    return np.pi / points * total


def _cmd_experiment(args) -> int:
    seed = Seed(args.seed)
    if args.exp_cmd == "roc":
        rows = experiments.run_roc(args.d, args.n, args.alpha, args.constructions,
                                   args.trials, seed)
    elif args.exp_cmd == "cost":
        n_values = list(range(1, args.n_max + 1))
        rows = experiments.run_cost_curve(
            args.d, args.eps, args.alpha0, n_values, args.constructions,
            mc={"N": args.N, "queries": args.queries}, seed=seed)
    else:  # assignment
        data, _ = make_clustered_dataset(args.clusters, args.per_cluster, args.d,
                                         args.eta, seed.child("data").generator())
        rows = experiments.run_assignment_report(
            data, args.methods, args.M, list(range(args.n_seeds)),
            args.alpha, args.alpha0, args.queries, args.top_k, seed,
            tau=args.tau, kmeans_iters=args.kmeans_iters)
    _write_csv(rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="memvec",
                                description="memory-vector similarity search")
    sub = p.add_subparsers(dest="cmd", required=True)
    # options several subcommands share, each declared once and handed to
    # them through ``parents=``
    out, seed, constructions, h1, cost = (argparse.ArgumentParser(add_help=False)
                                          for _ in range(5))
    out.add_argument("--out", default=None)
    seed.add_argument("--seed", type=int, default=0)
    constructions.add_argument("--constructions", nargs="+", default=["sum", "pinv"])
    h1.add_argument("--d", type=int, required=True)
    h1.add_argument("--n", type=int, required=True)
    h1.add_argument("--alpha", type=float, required=True)
    cost.add_argument("--d", type=int, required=True)
    cost.add_argument("--eps", type=float, required=True)
    cost.add_argument("--alpha0", type=float, required=True)

    g = sub.add_parser("gen", parents=[seed], help="generate a synthetic dataset (fvecs)")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--clusters", type=int, default=0,
                   help="planted cluster count (0 = uniform)")
    g.add_argument("--eta", type=float, default=0.9)
    g.add_argument("--out", required=True)
    g.add_argument("--labels-out", default=None)
    g.set_defaults(func=_cmd_gen)

    b = sub.add_parser("build", parents=[seed], help="build an MVIX index")
    b.add_argument("--data", required=True)
    b.add_argument("--assign", choices=["random", "kmeans", "batch-kmeans"],
                   default="random")
    b.add_argument("--construction", choices=["sum", "pinv"], default="pinv")
    b.add_argument("--unit-size", type=int, default=0)
    b.add_argument("--M", type=int, default=0)
    b.add_argument("--normalize", action="store_true")
    b.add_argument("--batch-size", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_build)

    q = sub.add_parser("query", parents=[out], help="run queries against an index")
    q.add_argument("--index", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--queries", required=True)
    sel = q.add_mutually_exclusive_group(required=True)
    sel.add_argument("--tau", type=float, default=None)
    sel.add_argument("--top-units", type=int, default=None)
    q.set_defaults(func=_cmd_query)

    e = sub.add_parser("eval", parents=[out],
                       help="score query results against ground truth")
    e.add_argument("--results", required=True)
    e.add_argument("--gt", default=None, help="ivecs match lists (-1 padded)")
    e.add_argument("--alpha0", type=float, default=None,
                   help="cosine ground-truth threshold (default 0.5); not with --gt")
    e.add_argument("--data", default=None)
    e.add_argument("--queries", default=None)
    e.set_defaults(func=_cmd_eval)

    t = sub.add_parser("theory", help="closed-form curves as CSV")
    tsub = t.add_subparsers(dest="theory_cmd", required=True)

    troc = tsub.add_parser("roc", parents=[h1, constructions, out])
    troc.add_argument("--tau-min", type=float, default=0.0)
    troc.add_argument("--tau-max", type=float, default=0.9)
    troc.add_argument("--tau-steps", type=int, default=19)

    tcost = tsub.add_parser("cost", parents=[cost, constructions, out])
    tcost.add_argument("--n-max", type=int, default=500)

    tcap = tsub.add_parser("cap-stats", parents=[h1, constructions, out])
    tcap.add_argument("--etas", type=float, nargs="+",
                      default=[-1.0, -0.5, 0.0, 0.3, 0.6, 0.9])

    tmp = tsub.add_parser("mp", parents=[out])
    tmp.add_argument("--cs", type=float, nargs="+", default=[0.1, 0.3, 0.5, 0.7])
    t.set_defaults(func=_cmd_theory)

    x = sub.add_parser("experiment", help="Monte Carlo experiment drivers")
    xsub = x.add_subparsers(dest="exp_cmd", required=True)

    xroc = xsub.add_parser("roc", parents=[h1, constructions, seed, out])
    xroc.add_argument("--trials", type=int, default=10000)

    xcost = xsub.add_parser("cost", parents=[cost, constructions, seed, out])
    xcost.add_argument("--n-max", type=int, default=200)
    xcost.add_argument("--N", type=int, default=100000)
    xcost.add_argument("--queries", type=int, default=100)

    xas = xsub.add_parser("assignment", parents=[seed, out])
    xas.add_argument("--clusters", type=int, default=50)
    xas.add_argument("--per-cluster", type=int, default=50)
    xas.add_argument("--d", type=int, default=128)
    xas.add_argument("--eta", type=float, default=0.95)
    xas.add_argument("--M", type=int, default=50)
    xas.add_argument("--methods", nargs="+",
                     default=["random", "sum-km", "pinv-km"])
    xas.add_argument("--alpha", type=float, default=0.9)
    xas.add_argument("--alpha0", type=float, default=0.7)
    xas.add_argument("--queries", type=int, default=100)
    xas.add_argument("--top-k", type=int, default=5)
    xas.add_argument("--tau", type=float, default=None,
                     help="threshold-scan complexity instead of top-k")
    xas.add_argument("--kmeans-iters", type=int, default=None)
    xas.add_argument("--n-seeds", type=int, default=5)
    x.set_defaults(func=_cmd_experiment)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MemvecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
