"""Acceptance suite: twelve numbered criteria, one test each.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion. Each test also prints its measured quantities (visible with
-s or on failure). Tolerances are fixed here and must not be loosened to
make a failing criterion pass.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from memvec import analytic as A
from memvec.assignment import random_assignment
from memvec.construction import ConstructionConfig
from memvec.core import Dataset
from memvec.harness import io
from memvec.harness.cli import main as cli_main
from memvec.harness.experiments import (
    measure_cost,
    run_assignment_report,
    run_cost_curve,
    simulate_unit_scores,
)
from memvec.sampling import Seed, h1_queries, make_clustered_dataset, \
    sample_cap_correlation, sample_sphere
from memvec.search import binarize, build_index, query, query_batch, query_binary

from oracles import (
    cap_moment_quadrature,
    hamming_inner,
    pinv_vector,
    score_cdf_exact,
    score_pdf_exact,
    sign_code,
)

_SUITE_START = time.monotonic()
_SEED = Seed(20260823)


def _report(num, name, detail):
    print(f"criterion {num:02d} ({name}): {detail}")


# ---------------------------------------------------------------------------
# 1. exact score law vs empirical CDF
# ---------------------------------------------------------------------------


def test_01_exact_score_law():
    worst = 0.0
    for d in (8, 128):
        for m_norm in (1.0, 3.0):
            rng = _SEED.child(f"c1-{d}-{m_norm}").generator()
            y = sample_sphere(d, rng, size=100_000)
            scores = m_norm * y[:, 0]  # m = m_norm * e1 w.l.o.g.
            ks = kstest(scores, lambda s: score_cdf_exact(s, m_norm, d)).statistic
            worst = max(worst, ks)
    _report(1, "exact score law", f"worst KS = {worst:.4f} (<= 0.02)")
    assert worst <= 0.02


# ---------------------------------------------------------------------------
# 2. density moments by quadrature
# ---------------------------------------------------------------------------


def test_02_density_moments():
    worst_mass = worst_m2 = 0.0
    for d in (8, 128):
        for m_norm in (1.0, 3.0):
            mass, _ = quad(score_pdf_exact, -m_norm, m_norm, args=(m_norm, d),
                           epsabs=1e-12, limit=400)
            m2, _ = quad(lambda s: s * s * score_pdf_exact(s, m_norm, d),
                         -m_norm, m_norm, epsabs=1e-12, limit=400)
            worst_mass = max(worst_mass, abs(mass - 1.0))
            worst_m2 = max(worst_m2, abs(m2 - m_norm**2 / d))
    _report(2, "density moments",
            f"|mass-1| = {worst_mass:.2e}, |m2 - ||m||^2/d| = {worst_m2:.2e} (<= 1e-8)")
    assert worst_mass <= 1e-8
    assert worst_m2 <= 1e-8


# ---------------------------------------------------------------------------
# 3. pinv constraints and zero false negatives for exact-copy queries
# ---------------------------------------------------------------------------


def test_03_pinv_constraint_zero_false_negative():
    n, d = 10, 1000
    rng = _SEED.child("c3").generator()
    worst = 0.0
    for _ in range(100):
        X = sample_sphere(d, rng, size=n)
        m = pinv_vector(X)
        worst = max(worst, float(np.max(np.abs(X @ m - 1.0))))
    assert worst <= 1e-8

    data = Dataset(sample_sphere(d, _SEED.child("c3-data").generator(), size=1000))
    part = random_assignment(1000, n, _SEED.child("c3-assign").generator())
    index = build_index(data, part, ConstructionConfig(kind="pinv"))
    reps = index.representatives
    unit_of = np.empty(1000, dtype=np.int64)
    for j in range(part.M):
        unit_of[part.member_ids[part.offsets[j]:part.offsets[j + 1]]] = j
    probe_rng = _SEED.child("c3-probe").generator()
    for i in probe_rng.choice(1000, size=10, replace=False):
        y = data.vectors[i]
        score = float(reps[unit_of[i]] @ y)
        assert abs(score - 1.0) <= 1e-8
        for tau in (0.0, 0.5, 0.999):
            res = query(index, data, y, tau=tau)
            assert res.candidates[0][0] == i  # rank-1 retrieval
    _report(3, "pinv zero false negatives",
            f"max |<m*, x_i> - 1| = {worst:.2e} (<= 1e-8); rank-1 at tau < 1")


# ---------------------------------------------------------------------------
# 4. pinv norm growth vs the Marcenko-Pastur limit 1/(1-c)
# ---------------------------------------------------------------------------


def test_04_norm_ratio_limit():
    d = 1000
    rng = _SEED.child("c4").generator()
    results = {}
    for n, lo, hi in ((500, 1.9, 2.1), (100, 1.06, 1.17)):
        ratios = []
        for _ in range(50):
            X = sample_sphere(d, rng, size=n)
            m = pinv_vector(X)
            ratios.append(float(m @ m) / n)
        mean = float(np.mean(ratios))
        results[n] = mean
        assert lo <= mean <= hi, (n, mean)
    _report(4, "norm ratio limit",
            f"n=500: {results[500]:.3f} in [1.9, 2.1]; "
            f"n=100: {results[100]:.3f} in [1.06, 1.17]")


# ---------------------------------------------------------------------------
# 5. ROC agreement and pinv dominance
# ---------------------------------------------------------------------------


def test_05_roc_agreement_and_dominance():
    trials = 10_000
    worst_dev = 0.0
    for construction in ("sum", "pinv"):
        rng = _SEED.child(f"c5-{construction}").generator()
        h0, h1 = simulate_unit_scores(1000, 10, 0.7, construction, trials, rng)
        for tau in (0.2, 0.35, 0.5):
            pfp_t, pfn_t = A.error_rates(construction, tau, 0.7, 10, 1000)
            for emp, th in ((float(np.mean(h0 > tau)), pfp_t),
                            (float(np.mean(h1 <= tau)), pfn_t)):
                se = math.sqrt(max(th * (1.0 - th), 1e-12) / trials)
                dev = abs(emp - th) / se
                worst_dev = max(worst_dev, dev)
                assert dev <= 3.0, (construction, tau, emp, th, dev)

    # pinv dominates sum pointwise on the empirical ROC grid
    dom_trials = 50_000
    h0p, h1p = simulate_unit_scores(100, 10, 0.9, "pinv", dom_trials,
                                    _SEED.child("c5-dom-pinv").generator())
    h0s, h1s = simulate_unit_scores(100, 10, 0.9, "sum", dom_trials,
                                    _SEED.child("c5-dom-sum").generator())
    margins = []
    for fpr in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5):
        tpr_pinv = float(np.mean(h1p > np.quantile(h0p, 1.0 - fpr)))
        tpr_sum = float(np.mean(h1s > np.quantile(h0s, 1.0 - fpr)))
        margins.append(tpr_pinv - tpr_sum)
        assert tpr_pinv >= tpr_sum, (fpr, tpr_pinv, tpr_sum)
    _report(5, "ROC agreement",
            f"worst dev = {worst_dev:.2f} SE (<= 3); "
            f"min dominance margin = {min(margins):+.4f} (>= 0)")


# ---------------------------------------------------------------------------
# 6. cost curve shape and Monte Carlo validation
# ---------------------------------------------------------------------------


def test_06_cost_curve():
    d, eps, alpha0 = 1000, 0.01, 0.9
    details = []
    for construction in ("sum", "pinv"):
        rows = run_cost_curve(d, eps, alpha0, list(range(2, 200)), [construction])
        ratios = [r["ratio_theory"] for r in rows]
        pfps = [r["pfp"] for r in rows]
        ns = [r["n"] for r in rows]
        best = int(np.argmin(ratios))
        assert min(ratios) < 0.1, (construction, min(ratios))
        # the curve is 1/n (decreasing) plus the false positive rate,
        # which must be non-decreasing in n
        assert all(b >= a - 1e-15 for a, b in zip(pfps, pfps[1:]))
        mc = measure_cost(construction, ns[best], d, alpha0, eps,
                          100_000, 100, _SEED.child(f"c6-{construction}"))
        rel = abs(mc["ratio_mc"] / mc["ratio_theory"] - 1.0)
        assert rel <= 0.15, (construction, mc)
        details.append(f"{construction}: min ratio {min(ratios):.4f} at n={ns[best]}, "
                       f"MC off by {100 * rel:.1f}%")
    _report(6, "cost curve", "; ".join(details))


# ---------------------------------------------------------------------------
# 7. cap moments vs quadrature
# ---------------------------------------------------------------------------


def test_07_cap_moments():
    worst = 0.0
    for d in (8, 64, 512, 1000):
        for eta in (-0.5, 0.0, 0.3, 0.6, 0.9):  # 20 (eta, d) points
            for kappa in (1, 2):
                err = abs(A.cap_moment(kappa, eta, d) - cap_moment_quadrature(kappa, eta, d))
                worst = max(worst, err)
                assert err <= 1e-6, (kappa, eta, d, err)
    for d in (2, 8, 100, 1000):
        assert abs(A.cap_moment(1, -1.0, d)) <= 1e-10
        assert abs(A.cap_moment(2, -1.0, d) - 1.0 / d) <= 1e-10
    _report(7, "cap moments", f"worst quadrature error = {worst:.2e} (<= 1e-6)")


# ---------------------------------------------------------------------------
# 8. cap-conditioned statistics vs Monte Carlo
# ---------------------------------------------------------------------------


def _cap_unit_scores(eta, d, n, alpha, trials, rng):
    """Unit scores under H0/H1 for units of cap-conditioned members.

    The cap axis is e1 without loss of generality. Returns per-construction
    (h0, h1) pairs computed from the same member draws.
    """
    s = sample_cap_correlation(eta, d, rng, size=trials * n).reshape(trials, n)
    w = rng.standard_normal((trials, n, d))
    w[:, :, 0] = 0.0
    w /= np.linalg.norm(w, axis=2, keepdims=True)
    X = np.zeros((trials, n, d))
    X[:, :, 0] = s
    X += np.sqrt(1.0 - s * s)[:, :, None] * w

    m_sum = X.sum(axis=1)
    gram = np.einsum("bij,bkj->bik", X, X)
    z = np.linalg.solve(gram, np.ones(n))
    m_pinv = np.einsum("bi,bid->bd", z, X)

    y0 = rng.standard_normal((trials, d))
    y0 /= np.linalg.norm(y0, axis=1, keepdims=True)
    x1 = X[:, 0, :]
    g = rng.standard_normal((trials, d))
    g -= np.sum(g * x1, axis=1, keepdims=True) * x1
    z1 = g / np.linalg.norm(g, axis=1, keepdims=True)
    beta = math.sqrt(1.0 - alpha * alpha)
    y1 = alpha * x1 + beta * z1
    out = {}
    for name, m in (("sum", m_sum), ("pinv", m_pinv)):
        out[name] = (np.sum(m * y0, axis=1), np.sum(m * y1, axis=1))
    return out


def _se_mean(x):
    return float(np.std(x)) / math.sqrt(x.size)


def _se_var(x):
    c = x - np.mean(x)
    v = float(np.mean(c**2))
    return math.sqrt((float(np.mean(c**4)) - v * v) / x.size)


def test_08_cap_statistics():
    d, n, alpha, trials = 512, 10, 0.5, 10_000
    worst_sum_dev = 0.0
    notes = []
    for eta in (0.0, 0.3, 0.6):
        scores = _cap_unit_scores(eta, d, n, alpha, trials,
                                  _SEED.child(f"c8-{eta}").generator())
        h0, h1 = scores["sum"]
        st = A.cap_stats("sum", eta, d, n, alpha)
        checks = [
            (float(np.mean(h0)), st.h0_mean, _se_mean(h0)),
            (float(np.var(h0)), st.h0_var, _se_var(h0)),
            (float(np.mean(h1)), st.h1_mean, _se_mean(h1)),
            (float(np.var(h1)), st.h1_var, _se_var(h1)),
        ]
        for emp, th, se in checks:
            dev = abs(emp - th) / se
            worst_sum_dev = max(worst_sum_dev, dev)
            assert dev <= 3.0, (eta, emp, th, dev)
        # discrepancy report for the H1 interference-variance form
        notes.append(f"eta={eta}: sum H1 var MC {np.var(h1):.6f} "
                     f"vs formula {st.h1_var:.6f}")

        h0p, h1p = scores["pinv"]
        pst = A.cap_stats("pinv", eta, d, n, alpha)
        mean_dev = abs(float(np.mean(h1p)) - alpha) / _se_mean(h1p)
        assert mean_dev <= 3.0, (eta, float(np.mean(h1p)), mean_dev)
        # one-sided: the variance bound is a floor within 3 SE slack
        var_emp = float(np.var(h1p))
        assert var_emp >= pst.h1_var - 3.0 * _se_var(h1p), (eta, var_emp, pst.h1_var)
    _report(8, "cap statistics",
            f"worst sum deviation = {worst_sum_dev:.2f} SE (<= 3); " + "; ".join(notes))


# ---------------------------------------------------------------------------
# 9. KL divergence monotone in cap tightness
# ---------------------------------------------------------------------------


def test_09_kl_monotone():
    etas = (-1.0, -0.5, 0.0, 0.3, 0.6, 0.9)
    details = []
    for name in ("sum", "pinv"):
        kls = [A.cap_stats(name, eta, 512, 10, 0.5).kl for eta in etas]
        assert all(b >= a - 1e-9 for a, b in zip(kls, kls[1:])), (name, kls)
        details.append(f"{name}: " + " <= ".join(f"{k:.3g}" for k in kls))
    _report(9, "KL monotone", "; ".join(details))


# ---------------------------------------------------------------------------
# 10. assignment quality trends on clustered data
# ---------------------------------------------------------------------------


def test_10_assignment_trends():
    data, _ = make_clustered_dataset(50, 50, 128, 0.95,
                                     _SEED.child("c10-data").generator())
    rows = run_assignment_report(
        data, ["random", "sum-km-norm", "pinv-km-norm"], 50, list(range(10)),
        alpha=0.9, alpha0=0.7, n_queries=200, top_k=9,
        seed=_SEED.child("c10"), tau=0.5, kmeans_iters=60)
    by = {}
    for r in rows:
        by.setdefault(r["method"], []).append(r)

    def mean(method, key):
        return float(np.mean([r[key] for r in by[method]]))

    # k-means beats random assignment on both retrieval quality measures
    for km in ("sum-km-norm", "pinv-km-norm"):
        assert mean(km, "p_match_rank1") > mean("random", "p_match_rank1")
        assert mean(km, "matches_per_positive") > mean("random", "matches_per_positive")

    # pinv-mode k-means yields more balanced units and steadier scan cost
    delta_wins = sum(p["delta"] <= s["delta"]
                     for p, s in zip(by["pinv-km-norm"], by["sum-km-norm"]))
    std_wins = sum(p["std_complexity_ratio"] <= s["std_complexity_ratio"]
                   for p, s in zip(by["pinv-km-norm"], by["sum-km-norm"]))
    assert delta_wins >= 8, delta_wins
    assert std_wins >= 8, std_wins
    _report(10, "assignment trends",
            f"rank1 random {mean('random', 'p_match_rank1'):.3f} vs "
            f"k-means {mean('pinv-km-norm', 'p_match_rank1'):.3f}; "
            f"delta wins {delta_wins}/10, complexity-std wins {std_wins}/10")


# ---------------------------------------------------------------------------
# 11. binary identity and binary-vs-real retrieval trend
# ---------------------------------------------------------------------------


def _binary_comparison(d: int, N: int, n: int, alpha: float, n_queries: int,
                       tau_real: float, tau_binary: float, seed: Seed) -> dict:
    """Recall@10 of the planted match and complexity ratio for the real
    pipeline vs both binary-sketch modes on synthetic data."""
    rng = seed.child("data").generator()
    data = Dataset(sample_sphere(d, rng, size=N))
    part = random_assignment(N, n, seed.child("assign").generator())
    index = build_index(data, part, ConstructionConfig(kind="pinv"))
    bindex = binarize(index, data)

    qrng = seed.child("queries").generator()
    planted = qrng.integers(N, size=n_queries)
    out = {}
    results = {"real": [], "symmetric": [], "asymmetric": []}
    ratios = {k: [] for k in results}
    queries = h1_queries(data.vectors[planted], alpha, qrng)
    for q, (y, real) in enumerate(zip(queries, query_batch(index, data, queries, tau=tau_real))):
        runs = {
            "real": real,
            "symmetric": query_binary(bindex, y, tau=tau_binary, mode="symmetric"),
            "asymmetric": query_binary(bindex, y, tau=tau_binary, mode="asymmetric"),
        }
        for k, res in runs.items():
            top10 = [i for i, _ in res.candidates[:10]]
            results[k].append(int(planted[q]) in top10)
            ratios[k].append(res.complexity_ratio)
    for k in results:
        out[f"recall10_{k}"] = float(np.mean(results[k]))
        out[f"ratio_{k}"] = float(np.mean(ratios[k]))
    return out


def test_11_binary_identity_and_trend():
    rng = _SEED.child("c11-pairs").generator()
    for _ in range(100):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        ca, cb = sign_code(a), sign_code(b)
        pm = lambda c: np.where(c, 1.0, -1.0)
        assert hamming_inner(ca, cb) == int(pm(ca) @ pm(cb))

    out = _binary_comparison(1024, 10_000, 10, 0.9, 50,
                             tau_real=0.5, tau_binary=0.08,
                             seed=_SEED.child("c11"))
    for mode in ("symmetric", "asymmetric"):
        assert out[f"ratio_{mode}"] <= 0.5, out
        assert out[f"recall10_{mode}"] >= 0.9 * out["recall10_real"], out
    _report(11, "binary identity and trend",
            f"recall@10 real {out['recall10_real']:.3f}, "
            f"symmetric {out['recall10_symmetric']:.3f} "
            f"at ratio {out['ratio_symmetric']:.3f}, "
            f"asymmetric {out['recall10_asymmetric']:.3f} "
            f"at ratio {out['ratio_asymmetric']:.3f}")


# ---------------------------------------------------------------------------
# 12. determinism, I/O roundtrips and runtime budget
# ---------------------------------------------------------------------------


def test_12_determinism_and_io(tmp_path):
    def cli(*args):
        assert cli_main([str(a) for a in args]) == 0

    a, b = tmp_path / "a.fvecs", tmp_path / "b.fvecs"
    cli("gen", "--n", 1000, "--d", 64, "--seed", 7, "--out", a)
    cli("gen", "--n", 1000, "--d", 64, "--seed", 7, "--out", b)
    assert a.read_bytes() == b.read_bytes()

    ia, ib = tmp_path / "a.mvix", tmp_path / "b.mvix"
    for out in (ia, ib):
        cli("build", "--data", a, "--assign", "kmeans", "--construction", "pinv",
            "--M", 20, "--seed", 3, "--out", out)
    assert ia.read_bytes() == ib.read_bytes()

    q = tmp_path / "q.fvecs"
    cli("gen", "--n", 20, "--d", 64, "--seed", 9, "--out", q)
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (r1, r2):
        cli("query", "--index", ia, "--data", a, "--queries", q,
            "--tau", 0.3, "--out", out)
    assert r1.read_bytes() == r2.read_bytes()

    # roundtrips are bit-exact
    c = tmp_path / "c.fvecs"
    io.write_fvecs(io.read_fvecs(a), c)
    assert a.read_bytes() == c.read_bytes()
    ic = tmp_path / "c.mvix"
    io.write_index(io.read_index(ia), ic)
    assert ia.read_bytes() == ic.read_bytes()

    # high threshold scans representatives only
    big_db = tmp_path / "big.fvecs"
    cli("gen", "--n", 500, "--d", 1000, "--seed", 11, "--out", big_db)
    big_idx = tmp_path / "big.mvix"
    cli("build", "--data", big_db, "--assign", "random", "--construction", "sum",
        "--unit-size", 10, "--seed", 1, "--out", big_idx)
    res = tmp_path / "res.csv"
    cli("query", "--index", big_idx, "--data", big_db, "--queries", big_db,
        "--tau", 2.0, "--out", res)
    lines = res.read_text().strip().splitlines()
    assert all(line.split(",")[2] == "" for line in lines[1:])  # no candidates

    elapsed = time.monotonic() - _SUITE_START
    _report(12, "determinism and I/O", f"suite elapsed {elapsed:.0f}s (< 600s)")
    assert elapsed < 600.0
