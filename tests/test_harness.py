import math
import tracemalloc
import warnings

import numpy as np
import pytest

from memvec import search
from memvec.core import Dataset
from memvec.errors import DimensionError, DomainError, NormalizationError
from memvec.harness import evaluation, experiments
from memvec.harness.evaluation import (
    RECALL_RANKS,
    EvalReport,
    cosine_ground_truth,
    evaluate_results,
)
from memvec.harness.experiments import (
    measure_cost,
    run_assignment_report,
    run_cost_curve,
    run_roc,
    simulate_unit_scores,
)
from memvec.sampling import Seed, make_clustered_dataset, sample_sphere


class TestGroundTruth:
    def test_brute_force(self):
        data = Dataset(np.eye(4))
        q = np.array([[0.8, 0.6, 0.0, 0.0]])
        matches = cosine_ground_truth(data, q, 0.5)
        assert matches[0].tolist() == [0, 1]
        matches = cosine_ground_truth(data, q, 0.7)
        assert matches[0].tolist() == [0]

    def test_threshold_inclusive(self):
        data = Dataset(np.eye(2))
        matches = cosine_ground_truth(data, np.array([[1.0, 0.0]]), 1.0)
        assert matches[0].tolist() == [0]

    def test_nan_threshold_rejected(self):
        with pytest.raises(DomainError, match="alpha0 is NaN"):
            cosine_ground_truth(Dataset(np.eye(2)), np.array([[1.0, 0.0]]), math.nan)

    def test_queries_must_be_finite_unit_vectors(self):
        # query's rule: scaled queries would meet more matches at the same alpha0
        data = Dataset(sample_sphere(16, Seed(54).generator(), size=50))
        Q = sample_sphere(16, Seed(55).generator(), size=4)
        nan_row = Q.copy()
        nan_row[2, 0] = np.nan
        for bad in (3.0 * Q, nan_row, Q[0] * 1.01):
            with pytest.raises(NormalizationError):
                cosine_ground_truth(data, bad, 0.5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("block", [None, 7], ids=["one-block", "small-blocks"])
    def test_matches_whole_score_matrix(self, dtype, block, monkeypatch):
        if block:  # about 7 floats per block: one row at a time
            monkeypatch.setattr(evaluation, "BLOCK_FLOATS", block)
        X = sample_sphere(16, Seed(50).generator(), size=300)
        # rows 0-2 score exactly 0.5 against e_0 in any summation order
        X[:3] = 0.0
        X[:3, 0], X[:3, 1:4] = 0.5, np.sqrt(0.75) * np.eye(3)
        data = Dataset(X.astype(dtype))
        Q = np.vstack([np.eye(16)[:1], sample_sphere(16, Seed(51).generator(), size=9)])
        for alpha0 in (0.5, 0.2, -1.0, 1.5):
            whole = Q @ data.vectors.T
            expect = [np.flatnonzero(row >= alpha0) for row in whole]
            got = cosine_ground_truth(data, Q, alpha0)
            assert len(got) == len(expect)
            for g, e in zip(got, expect):
                assert g.dtype == np.int64 and np.array_equal(g, e)
        assert cosine_ground_truth(data, Q, 0.5)[0][:3].tolist() == [0, 1, 2]
        assert cosine_ground_truth(data, Q[:0], 0.5) == []

    def test_no_score_matrix_or_widened_copy(self):
        # 200 x 8192 scores (12.5 MiB) and a float64 copy of the float32
        # rows (4 MiB): a block of each is about 1 MiB
        X = sample_sphere(64, Seed(52).generator(), size=8192).astype(np.float32)
        data = Dataset(X)
        Q = sample_sphere(64, Seed(53).generator(), size=200)
        tracemalloc.start()
        try:
            matches = cosine_ground_truth(data, Q, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(m.size for m in matches) > 0
        assert peak < 2**22

    def test_float64_rows_are_scored_in_place(self):
        # a block of 256 float64 rows is 1 MiB; its 8 x 256 scores are 16 KiB
        data = Dataset(sample_sphere(512, Seed(56).generator(), size=4096))
        Q = sample_sphere(512, Seed(57).generator(), size=8)
        tracemalloc.start()
        try:
            matches = cosine_ground_truth(data, Q, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(m.size for m in matches) > 0
        assert peak < 2**18


class TestEvaluateResults:
    def test_hand_computed(self):
        retrieved = [np.array([3, 1, 7]), np.array([5])]
        matches = [np.array([1, 2]), np.array([5, 6, 8])]
        rep = evaluate_results(retrieved, matches, np.array([0.2, 0.4]))
        # found 1 of 2 and 1 of 3 matches
        assert rep.recall_of_matches == pytest.approx(2 / 5)
        assert rep.precision == pytest.approx(2 / 4)
        # recall@1: 0/1 and 1/1; recall@10 ~ full lists
        assert rep.recall_at_r[1] == pytest.approx(0.5)
        assert rep.recall_at_r[10] == pytest.approx((1 / 2 + 1 / 3) / 2)
        assert rep.mean_complexity_ratio == pytest.approx(0.3)

    def test_exhaustive_search_reaches_full_recall(self):
        data = Dataset(sample_sphere(16, Seed(0).generator(), size=50))
        queries = sample_sphere(16, Seed(1).generator(), size=5)
        matches = cosine_ground_truth(data, queries, 0.2)
        # retrieving everything in true-similarity order recovers all matches
        retrieved = [np.argsort(-(data.vectors @ q)) for q in queries]
        rep = evaluate_results(retrieved, matches, np.ones(5))
        assert rep.recall_of_matches == 1.0

    @staticmethod
    def _reference(retrieved, matches, complexity_ratios):
        """The set-loop implementation that np.isin replaced."""
        hit = total_matches = total_retrieved = true_retrieved = 0
        at_r = {r: [] for r in RECALL_RANKS}
        for ids, gt in zip(retrieved, matches):
            ids = np.asarray(ids, dtype=np.int64)
            gt_set = set(int(g) for g in gt)
            total_matches += len(gt_set)
            total_retrieved += ids.size
            found = sum(1 for i in ids if int(i) in gt_set)
            true_retrieved += found
            hit += found
            if gt_set:
                for r in RECALL_RANKS:
                    inter = sum(1 for i in ids[:r] if int(i) in gt_set)
                    at_r[r].append(inter / min(r, len(gt_set)))
        ratios = np.asarray(complexity_ratios, dtype=np.float64)
        return EvalReport(
            recall_of_matches=hit / total_matches if total_matches else 0.0,
            precision=true_retrieved / total_retrieved if total_retrieved else 0.0,
            recall_at_r={r: float(np.mean(v)) if v else 0.0 for r, v in at_r.items()},
            mean_complexity_ratio=float(np.mean(ratios)) if ratios.size else 0.0,
            complexity_std=float(np.std(ratios)) if ratios.size else 0.0,
        )

    def test_repeated_retrieved_id_rejected(self):
        # each copy used to count as a hit: recall 1.5
        with pytest.raises(DomainError, match="retrieved list 1 repeats dataset id 5"):
            evaluate_results([[1], [5, 7, 5]], [[1], [5, 7]], [0.1, 0.1])
        rep = evaluate_results([[1], [5, 7]], [[1], [5, 7, 7]], [0.1, 0.1])
        assert rep.recall_of_matches == 1.0 and rep.recall_at_r[10] == 1.0

    def test_complexity_ratio_count_must_match(self):
        # three ratios for one query used to average to 0.5
        for ratios in ([0.1, 0.9, 0.5], [], 0.1):
            with pytest.raises(DimensionError):
                evaluate_results([[1]], [[1]], ratios)

    def test_matches_set_loop_reference(self):
        rng = Seed(2).generator()
        retrieved, matches = [], []
        for q in range(60):
            # repeated ids in the match lists, empty lists, lists past rank 100
            retrieved.append(rng.permutation(300)[:rng.integers(0, 250)])
            gt = rng.integers(0, 300, size=rng.integers(0, 40))
            matches.append(np.concatenate([gt, gt[: q % 5]]) if q % 7 else gt[:0])
        ratios = rng.random(60)
        assert (evaluate_results(retrieved, matches, ratios)
                == self._reference(retrieved, matches, ratios))
        assert (evaluate_results(retrieved[:0], matches[:0], ratios[:0])
                == self._reference(retrieved[:0], matches[:0], ratios[:0]))


class TestSimulateUnitScores:
    def test_matches_theory_moments(self):
        from memvec.analytic import score_law

        rng = Seed(2).generator()
        h0, h1 = simulate_unit_scores(400, 8, 0.7, "sum", 4000, rng)
        law0, law1 = score_law("sum", 0.7, 8, 400)
        assert np.mean(h0) == pytest.approx(law0.mean, abs=0.01)
        assert np.var(h0) == pytest.approx(law0.variance, rel=0.15)
        assert np.mean(h1) == pytest.approx(law1.mean, abs=0.01)
        assert np.var(h1) == pytest.approx(law1.variance, rel=0.15)

    def test_pinv_planted_score_near_one_minus_noise(self):
        rng = Seed(3).generator()
        _, h1 = simulate_unit_scores(200, 5, 1.0, "pinv", 500, rng)
        # alpha = 1: the planted member satisfies the constraint exactly
        assert np.max(np.abs(h1 - 1.0)) < 1e-8


    @pytest.mark.parametrize("d, n, says", [(32, 0, "n must be >= 1, got 0"),
                                            (1, 1, "d must be >= 2, got 1")],
                             ids=["32-0", "1-1"])
    def test_model_domain_checked_before_drawing(self, d, n, says):
        # n = 0 divided by zero, d = 1 drew a NaN query, before either failed
        rng, ref = Seed(5).generator(), Seed(5).generator()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=says):
                simulate_unit_scores(d, n, 0.8, "sum", 10, rng)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRunRoc:
    def test_rows_and_agreement(self):
        rows = run_roc(500, 10, 0.7, ["sum"], 3000, Seed(4))
        assert [row["tau"] for row in rows] == [round(0.05 * k, 4) for k in range(17)]
        for row in rows:
            assert abs(row["pfp_emp"] - row["pfp_theory"]) < 0.05
            assert abs(row["tpr_emp"] - row["tpr_theory"]) < 0.05

    def test_deterministic(self):
        a = run_roc(100, 5, 0.5, ["pinv"], 500, Seed(5))
        b = run_roc(100, 5, 0.5, ["pinv"], 500, Seed(5))
        assert a == b


class TestCostCurve:
    def test_theory_rows(self):
        rows = run_cost_curve(1000, 0.01, 0.9, list(range(1, 30)), ["sum"])
        assert all(r["ratio_theory"] == pytest.approx(1 / r["n"] + r["pfp"])
                   for r in rows)

    def test_mc_fills_argmin_only(self):
        rows = run_cost_curve(300, 0.05, 0.9, [5, 10, 20], ["pinv"],
                              mc={"N": 2000, "queries": 10}, seed=Seed(6))
        filled = [r for r in rows if r["ratio_mc"] != ""]
        assert len(filled) == 1
        best = min(rows, key=lambda r: r["ratio_theory"])
        assert filled[0] is best

    def test_measure_cost_close_to_theory(self):
        out = measure_cost("sum", 10, 300, 0.9, 0.05, 5000, 20, Seed(7))
        assert out["ratio_mc"] == pytest.approx(out["ratio_theory"], rel=0.3)

    def test_measure_cost_scores_queries_in_blocks(self, monkeypatch):
        # the engine's layers 1-2, not one (n_queries, M) score matrix
        args = ("pinv", 10, 64, 0.9, 0.05, 2000, 50, Seed(7))  # M = 200 units
        want = measure_cost(*args)["ratio_mc"]
        monkeypatch.setattr(search, "BLOCK_FLOATS", 1000)  # 5 rows of 200 scores
        seen, checked = [], search._checked_query
        monkeypatch.setattr(search, "_checked_query",
                            lambda Y, d: seen.append(len(Y)) or checked(Y, d))
        assert measure_cost(*args)["ratio_mc"] == want
        assert sum(seen) == 50 and len(seen) > 1
        assert max(seen) <= search.BLOCK_FLOATS // 200


class TestAssignmentReport:
    def test_schema_and_random_baseline(self):
        data, _ = make_clustered_dataset(8, 25, 32, 0.9, Seed(8).generator())
        rows = run_assignment_report(data, ["random", "pinv-km"], 8, [0],
                                     alpha=0.9, alpha0=0.6, n_queries=25,
                                     top_k=3, seed=Seed(9))
        assert len(rows) == 2
        random_row = next(r for r in rows if r["method"] == "random")
        km_row = next(r for r in rows if r["method"] == "pinv-km")
        assert random_row["delta"] == pytest.approx(1.0, abs=1e-9)
        assert set(random_row) >= {"delta", "mean_complexity_ratio",
                                   "std_complexity_ratio",
                                   "matches_per_positive", "p_match_rank1"}
        # clustering concentrates matches into fewer units
        assert km_row["matches_per_positive"] > random_row["matches_per_positive"]

    def test_unknown_method_rejected(self):
        data, _ = make_clustered_dataset(4, 10, 16, 0.9, Seed(8).generator())
        with pytest.raises(DomainError, match="unknown assignment method 'mean-km'"):
            run_assignment_report(data, ["mean-km"], 4, [0], alpha=0.9, alpha0=0.6,
                                  n_queries=5, top_k=2, seed=Seed(9))

    @pytest.mark.parametrize("methods, kwargs, says", [
        (["random", "foo"], {}, "unknown assignment method 'foo'"),
        (["random", "sum-km"], {"kmeans_iters": 0}, "max_iters must be >= 1"),
    ], ids=["unknown-method", "kmeans-iters-0"])
    def test_bad_argument_rejected_before_any_index_is_built(self, methods, kwargs, says,
                                                            monkeypatch):
        def build_index(*args):
            raise AssertionError("an index was built before the arguments were checked")

        monkeypatch.setattr(experiments, "build_index", build_index)
        data, _ = make_clustered_dataset(4, 10, 16, 0.9, Seed(8).generator())
        with pytest.raises(DomainError, match=says):
            run_assignment_report(data, methods, 4, [0], alpha=0.9, alpha0=0.6,
                                  n_queries=5, top_k=2, seed=Seed(9), **kwargs)

    @staticmethod
    def _report(tau=None, methods=("random", "sum-km", "pinv-km"), seeds=(0, 1)):
        data, _ = make_clustered_dataset(8, 25, 32, 0.9, Seed(8).generator())
        return run_assignment_report(data, list(methods), 8, list(seeds), alpha=0.9,
                                     alpha0=0.6, n_queries=25, top_k=3, seed=Seed(9), tau=tau)

    def test_no_member_is_re_ranked(self, monkeypatch):
        # the report reads each query's top-k units and unit scores, never a member
        want = {tau: self._report(tau) for tau in (None, 0.3)}

        def scan(*args):
            raise AssertionError("the report gathered and re-ranked members")

        monkeypatch.setattr(search, "_scan", scan)
        for tau, rows in want.items():
            assert self._report(tau) == rows

    def test_queries_are_scored_once_per_build(self, monkeypatch):
        # with tau, the top-k match statistics and the threshold complexity
        # come from the same scores: one checked block of 25 rows per build
        seen, checked = [], search._checked_query
        monkeypatch.setattr(search, "_checked_query",
                            lambda Y, d: seen.append(len(Y)) or checked(Y, d))
        rows = self._report(tau=0.3)
        assert len(rows) == 6
        assert seen == [25] * 6

    @pytest.mark.parametrize("tau", [None, 0.3])
    def test_complexity_is_the_engines(self, monkeypatch, tau):
        # the report's scans per query are those query_batch makes on its index
        kept = {}

        def keep(name):  # one build: keep each call's arguments and result
            fn = getattr(experiments, name)
            monkeypatch.setattr(experiments, name, lambda *args: kept.setdefault(
                name, (args, fn(*args)))[1])

        keep("build_index")
        keep("h1_queries")
        [row] = self._report(tau, methods=["pinv-km"], seeds=[0])
        (data, *_), index = kept["build_index"]
        select = {"top_units": 3} if tau is None else {"tau": tau}
        complexities = [r.complexity for r in search.query_batch(
            index, data, kept["h1_queries"][1], **select)]
        assert row["mean_complexity_ratio"] == float(np.mean(complexities) / data.size)
        assert row["std_complexity_ratio"] == float(np.std(complexities) / data.size)

    def test_nan_tau_rejected(self):
        data, _ = make_clustered_dataset(4, 10, 16, 0.9, Seed(8).generator())
        with pytest.raises(DomainError, match="tau is NaN"):
            run_assignment_report(data, ["random"], 4, [0], alpha=0.9, alpha0=0.6,
                                  n_queries=5, top_k=2, seed=Seed(9), tau=math.nan)
