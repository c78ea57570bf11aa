import csv
import os
import tracemalloc

import numpy as np
import pytest

from memvec.core import Dataset
from memvec.harness import cli, io
from memvec.harness.cli import main
from memvec.harness.evaluation import cosine_ground_truth
from memvec.search import query


def run(argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.fvecs", tmp_path / "b.fvecs"
        assert run(["gen", "--n", 100, "--d", 16, "--seed", 7, "--out", a]) == 0
        assert run(["gen", "--n", 100, "--d", 16, "--seed", 7, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_clustered_with_labels(self, tmp_path):
        out = tmp_path / "c.fvecs"
        lab = tmp_path / "c.ivecs"
        assert run(["gen", "--n", 60, "--d", 8, "--seed", 1, "--clusters", 3,
                    "--eta", 0.9, "--out", out, "--labels-out", lab]) == 0
        assert io.read_fvecs(out).shape == (60, 8)
        labels = io.read_ivecs(lab)
        assert np.array_equal(labels[:, 0], np.repeat([0, 1, 2], 20))

    def test_indivisible_clusters_fail(self, tmp_path):
        code = run(["gen", "--n", 61, "--d", 8, "--seed", 1, "--clusters", 3,
                    "--out", tmp_path / "x.fvecs"])
        assert code == 1

    def test_nan_eta_fails(self, tmp_path, capsys):
        out = tmp_path / "c.fvecs"
        assert run(["gen", "--n", 40, "--d", 8, "--clusters", 4, "--eta", "nan",
                    "--out", out]) == 1
        assert capsys.readouterr().err == "error: eta must be >= -1, got nan\n"
        assert not out.exists()

    def test_labels_without_clusters_fail(self, tmp_path, capsys):
        out, lab = tmp_path / "a.fvecs", tmp_path / "l.ivecs"
        assert run(["gen", "--n", 100, "--d", 8, "--out", out, "--labels-out", lab]) == 1
        assert capsys.readouterr().err.startswith("error: --labels-out")
        assert not out.exists() and not lab.exists()


@pytest.fixture
def pipeline(tmp_path):
    db = tmp_path / "db.fvecs"
    q = tmp_path / "q.fvecs"
    idx = tmp_path / "idx.mvix"
    run(["gen", "--n", 200, "--d", 24, "--seed", 3, "--out", db])
    run(["gen", "--n", 4, "--d", 24, "--seed", 9, "--out", q])
    assert run(["build", "--data", db, "--assign", "random", "--construction",
                "pinv", "--unit-size", 10, "--seed", 1, "--out", idx]) == 0
    return db, q, idx, tmp_path


class TestBuildQueryEval:
    def test_query_csv_schema(self, pipeline):
        db, q, idx, tmp = pipeline
        res = tmp / "res.csv"
        assert run(["query", "--index", idx, "--data", db, "--queries", q,
                    "--tau", 0.2, "--out", res]) == 0
        with open(res, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert set(rows[0]) == {"query", "rank", "dataset_id", "score",
                                "complexity", "complexity_ratio"}

    def test_query_csv_rows_are_the_library_answer(self, pipeline):
        # the CSV writes the records of QueryResult.candidates in rank order,
        # each sim as the repr of the Python float that tolist gives
        db, q, idx, tmp = pipeline
        out = tmp / "res.csv"
        assert run(["query", "--index", idx, "--data", db, "--queries", q,
                    "--tau", 0.2, "--out", out]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        index, data = io.read_index(idx), Dataset(io.read_fvecs(db))
        for qid, y in enumerate(io.read_fvecs(q)):
            res = query(index, data, y, tau=0.2)
            assert res.positive_units.dtype == np.dtype([("unit", np.int64),
                                                         ("score", np.float64)])
            assert res.candidates.dtype == np.dtype([("id", np.int64), ("sim", np.float64)])
            pairs = res.candidates.tolist()
            assert pairs and all(type(i) is int and type(s) is float for i, s in pairs)
            written = [(r["dataset_id"], r["score"]) for r in rows if r["query"] == str(qid)]
            assert written == [(str(i), repr(float(s))) for i, s in res.candidates]

    def test_impossible_threshold_scans_only_units(self, pipeline):
        db, q, idx, tmp = pipeline
        res = tmp / "res.csv"
        # threshold above every representative norm: no unit can pass
        assert run(["query", "--index", idx, "--data", db, "--queries", q,
                    "--tau", 100.0, "--out", res]) == 0
        with open(res, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(r["dataset_id"] == "" for r in rows)
        assert all(int(r["complexity"]) == 20 for r in rows)  # M = 200/10

    def test_eval_from_cosine_gt(self, pipeline):
        db, q, idx, tmp = pipeline
        res = tmp / "res.csv"
        run(["query", "--index", idx, "--data", db, "--queries", q,
             "--tau", -2.0, "--out", res])
        out = tmp / "eval.csv"
        assert run(["eval", "--results", res, "--data", db, "--queries", q,
                    "--alpha0", 0.3, "--out", out]) == 0
        with open(out, newline="") as handle:
            row = next(csv.DictReader(handle))
        # every unit positive means exhaustive search: full recall
        assert float(row["recall_of_matches"]) == 1.0

    @staticmethod
    def _eval_row(argv):
        assert run(argv) == 0
        with open(argv[argv.index("--out") + 1], newline="") as handle:
            return next(csv.DictReader(handle))

    def test_eval_from_given_gt_matches_cosine(self, pipeline):
        db, q, idx, tmp = pipeline
        res, gt = tmp / "res.csv", tmp / "gt.ivecs"
        run(["query", "--index", idx, "--data", db, "--queries", q,
             "--tau", 0.2, "--out", res])
        matches = cosine_ground_truth(Dataset(io.read_fvecs(db)), io.read_fvecs(q), 0.5)
        width = max(len(m) for m in matches) + 2  # every row padded, some to the end
        padded = np.full((len(matches), width), -1)
        for row, m in zip(padded, matches):
            row[:len(m)] = m
        io.write_ivecs(padded, gt)
        given = self._eval_row(["eval", "--results", res, "--gt", gt,
                                "--out", tmp / "given.csv"])
        cosine = self._eval_row(["eval", "--results", res, "--data", db,
                                 "--queries", q, "--out", tmp / "cosine.csv"])
        assert given.pop("alpha0") == "" and cosine.pop("alpha0") == "0.5"
        assert given == cosine
        assert 0.0 < float(given["recall_of_matches"])

    def test_eval_nan_alpha0_is_1(self, pipeline, capsys):
        db, q, idx, tmp = pipeline
        res = tmp / "res.csv"
        run(["query", "--index", idx, "--data", db, "--queries", q,
             "--tau", 0.2, "--out", res])
        assert run(["eval", "--results", res, "--data", db, "--queries", q,
                    "--alpha0", "nan"]) == 1
        assert capsys.readouterr().err == "error: alpha0 is NaN\n"

    def test_eval_results_that_skip_a_query_is_1(self, pipeline, capsys):
        # list k is scored against match list k: ids 0, 1, 3 would score
        # query 3 against the third list
        tmp = pipeline[3]
        res, gt = tmp / "gap.csv", tmp / "gt.ivecs"
        res.write_text("query,rank,dataset_id,complexity_ratio\n"
                       "0,1,5,0.1\n1,1,6,0.1\n3,1,7,0.1\n")
        io.write_ivecs(np.array([[5], [6], [7]]), gt)
        assert run(["eval", "--results", res, "--gt", gt]) == 1
        assert capsys.readouterr().err == (
            f"error: {res}: no rows for query 2; query ids must run 0..2\n")

    @pytest.mark.parametrize("bad", ["scaled", "nan"])
    def test_eval_of_queries_query_refuses_is_1(self, pipeline, bad, capsys):
        # scaled by 3, the queries met every match at alpha0 0.5: recall 1.0
        db, q, idx, tmp = pipeline
        res, bad_q, out = tmp / "res.csv", tmp / "bad.fvecs", tmp / "eval.csv"
        run(["query", "--index", idx, "--data", db, "--queries", q,
             "--tau", 0.2, "--out", res])
        Y = io.read_fvecs(q)
        if bad == "scaled":
            Y = 3.0 * Y
        else:
            Y[1, 0] = np.nan
        io.write_fvecs(Y, bad_q)
        assert run(["query", "--index", idx, "--data", db, "--queries", bad_q,
                    "--tau", 0.2]) == 1
        capsys.readouterr()
        assert run(["eval", "--results", res, "--data", db, "--queries", bad_q,
                    "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--data", "--queries", "--alpha0"])
    def test_eval_gt_rejects_cosine_options(self, pipeline, option, capsys):
        db, q, idx, tmp = pipeline
        res, gt = tmp / "res.csv", tmp / "gt.ivecs"
        run(["query", "--index", idx, "--data", db, "--queries", q,
             "--tau", 0.2, "--out", res])
        io.write_ivecs(np.full((4, 1), -1), gt)
        value = {"--data": db, "--queries": q, "--alpha0": 0.5}[option]
        assert run(["eval", "--results", res, "--gt", gt, option, value]) == 1
        assert capsys.readouterr().err == f"error: {option} has no effect with --gt\n"

    def test_query_memory_is_flat_in_the_number_of_queries(self, tmp_path):
        # each query's rows are written as it is answered: at tau 0 about
        # half of the 200 pinv units pass, so each self-query gives ~1000 rows
        db, idx, out = tmp_path / "db.fvecs", tmp_path / "idx.mvix", tmp_path / "r.csv"
        run(["gen", "--n", 2000, "--d", 16, "--seed", 3, "--out", db])
        assert run(["build", "--data", db, "--unit-size", 10, "--out", idx]) == 0
        peaks = []
        for k in (4, 40):
            q = tmp_path / f"q{k}.fvecs"
            io.write_fvecs(io.read_fvecs(db)[:k], q)
            tracemalloc.start()
            try:
                assert run(["query", "--index", idx, "--data", db, "--queries", q,
                            "--tau", 0.0, "--out", out]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        with open(out, newline="") as handle:
            assert sum(1 for _ in handle) > 20_000
        # kept rows would cost ~17 MB more for the 36 extra queries
        assert peaks[1] - peaks[0] < 2**20

    def test_no_rows_write_nothing(self, tmp_path):
        out = tmp_path / "none.csv"
        cli._write_csv(iter(()), out)
        assert not out.exists()

    def test_query_deterministic(self, pipeline):
        db, q, idx, tmp = pipeline
        r1, r2 = tmp / "r1.csv", tmp / "r2.csv"
        run(["query", "--index", idx, "--data", db, "--queries", q,
             "--tau", 0.2, "--out", r1])
        run(["query", "--index", idx, "--data", db, "--queries", q,
             "--tau", 0.2, "--out", r2])
        assert r1.read_bytes() == r2.read_bytes()

    def test_build_kmeans(self, pipeline):
        db, q, idx, tmp = pipeline
        out = tmp / "km.mvix"
        assert run(["build", "--data", db, "--assign", "kmeans",
                    "--construction", "sum", "--M", 10, "--normalize",
                    "--seed", 2, "--out", out]) == 0
        assert io.read_index(out).partition.M == 10

    def test_build_batch_kmeans(self, pipeline):
        db, q, idx, tmp = pipeline
        out = tmp / "bk.mvix"
        assert run(["build", "--data", db, "--assign", "batch-kmeans",
                    "--construction", "sum", "--M", 5, "--batch-size", 100,
                    "--seed", 2, "--out", out]) == 0
        assert io.read_index(out).partition.M == 10  # 5 per batch, 2 batches

    @pytest.mark.parametrize("argv, says", [
        (["build", "--assign", "random"], "--unit-size required for random assignment"),
        (["build", "--assign", "kmeans"], "--M required for kmeans assignment"),
        (["build", "--assign", "batch-kmeans", "--batch-size", 50],
         "--M and --batch-size required for batch-kmeans"),
        (["build", "--assign", "batch-kmeans", "--M", 5],
         "--M and --batch-size required for batch-kmeans"),
        (["build", "--unit-size", 10, "--seed", -1], "seed must be >= 0, got -1"),
        (["build", "--unit-size", -3], "n must be >= 1, got -3"),
        (["build", "--assign", "batch-kmeans", "--M", 3, "--batch-size", -5],
         "batch_size must be >= 1, got -5"),
        (["eval"], "eval needs --gt, or --data and --queries"),
        (["eval", "--data", "DB"], "eval needs --gt, or --data and --queries"),
        (["eval", "--data", "DB", "--queries", "Q", "--alpha0", "nan"], "alpha0 is NaN"),
        (["query", "--tau", "nan"], "tau is NaN"),
        (["query", "--top-units", -2], "top_units must be non-negative"),
    ], ids=["random-unit-size", "kmeans-M", "batch-kmeans-M", "batch-kmeans-batch-size",
            "build-negative-seed", "random-negative-unit-size", "negative-batch-size",
            "eval-no-truth", "eval-data-only", "eval-nan-alpha0", "query-nan-tau",
            "query-negative-top-units"])
    def test_missing_or_bad_option_is_1(self, pipeline, argv, says, capsys):
        db, q, idx, tmp = pipeline
        res, built = tmp / "res.csv", tmp / "o.mvix"
        res.write_text("query,rank,dataset_id,complexity_ratio\n0,1,3,0.1\n")
        absent = (tmp / "absent.fvecs", tmp / "absent-q.fvecs", tmp / "absent.mvix",
                  tmp / "absent.csv")
        # options are checked before any input file is opened
        for data, queries, index, results in ((db, q, idx, res), absent):
            files = {"build": ["--data", data, "--out", built], "eval": ["--results", results],
                     "query": ["--index", index, "--data", data, "--queries", queries]}
            given = [{"DB": data, "Q": queries}.get(a, a) for a in argv]
            assert run(given + files[argv[0]]) == 1
            assert capsys.readouterr().err == f"error: {says}\n"
            assert not built.exists()

    @pytest.mark.parametrize("assign, given, ignored", [
        ("random", ["--unit-size", 10, "--M", 5, "--normalize"], "--M"),
        ("random", ["--unit-size", 10, "--normalize"], "--normalize"),
        ("random", ["--unit-size", 10, "--batch-size", 5], "--batch-size"),
        ("kmeans", ["--M", 5, "--unit-size", 10], "--unit-size"),
        ("kmeans", ["--M", 5, "--batch-size", 10], "--batch-size"),
        ("batch-kmeans", ["--M", 5, "--batch-size", 50, "--unit-size", 10], "--unit-size"),
    ], ids=["random-M", "random-normalize", "random-batch-size", "kmeans-unit-size",
            "kmeans-batch-size", "batch-kmeans-unit-size"])
    def test_option_the_mode_ignores_fails(self, pipeline, assign, given, ignored, capsys):
        db, _, _, tmp = pipeline
        out = tmp / "x.mvix"
        assert run(["build", "--data", db, "--assign", assign, *given, "--out", out]) == 1
        assert capsys.readouterr().err == (f"error: {ignored} has no effect with "
                                           f"--assign {assign}\n")
        assert not out.exists()


class TestTheory:
    def test_cost_minimum_below_one_tenth(self, tmp_path, capsys):
        assert run(["theory", "cost", "--d", 1000, "--eps", 0.01,
                    "--alpha0", 0.9, "--n-max", 200]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        col = header.index("ratio_theory")
        ratios = [float(line.split(",")[col]) for line in lines[1:]]
        assert min(ratios) < 0.1

    def test_roc_csv(self, capsys):
        assert run(["theory", "roc", "--d", 100, "--n", 10,
                    "--alpha", 0.7, "--tau-steps", 5]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "construction,tau,pfp,tpr"
        assert len(lines) == 11

    def test_mp_quadrature_matches_limit(self, capsys):
        # near c = 1 the integrand peaks at lambda -> 0: c = 0.99 needs
        # about four times the points of c <= 0.9
        assert run(["theory", "mp", "--cs", 0.1, 0.5, 0.9, 0.99]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [float(r["c"]) for r in rows] == [0.1, 0.5, 0.9, 0.99]
        for r in rows:
            assert float(r["quadrature"]) == pytest.approx(float(r["limit"]), rel=1e-12)

    def test_mp_close_to_one_is_summed_in_chunks(self, capsys):
        # c = 0.9999 takes about 400k points, several chunks of the sum
        assert run(["theory", "mp", "--cs", 0.9999]) == 0
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert float(row["quadrature"]) == pytest.approx(float(row["limit"]), rel=1e-7)

    def test_mp_refuses_c_it_cannot_integrate(self, capsys):
        # 40 million points, beyond the cap
        assert run(["theory", "mp", "--cs", 0.999999]) == 1
        assert "too close to 1" in capsys.readouterr().err

    def test_cap_stats_csv(self, capsys):
        assert run(["theory", "cap-stats", "--d", 100, "--n", 10, "--alpha", 0.7,
                    "--etas", 0.0, 0.5, "--constructions", "sum", "pinv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("construction,eta,d,n,alpha,mu1,mu2,h0_mean,h0_var,"
                            "h1_mean,h1_var,kl,bound_based")
        assert len(lines) == 5


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--nonsense"])
        assert exc.value.code == 2

    def test_missing_file_is_1(self, tmp_path, capsys):
        assert run(["build", "--data", tmp_path / "absent.fvecs",
                    "--assign", "random", "--unit-size", 5,
                    "--out", tmp_path / "o.mvix"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1.5", "nan"])
    def test_alpha_outside_unit_interval_is_1(self, alpha, capsys):
        assert run(["experiment", "assignment", "--clusters", 4, "--per-cluster", 10,
                    "--d", 16, "--M", 4, "--top-k", 4, "--queries", 5, "--n-seeds", 1,
                    "--alpha", alpha]) == 1
        assert "alpha must lie in [0, 1]" in capsys.readouterr().err

    def test_nan_tau_is_1(self, capsys):
        assert run(["theory", "roc", "--d", 100, "--n", 10, "--alpha", 0.7,
                    "--tau-min", "nan"]) == 1
        assert "tau is NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, says", [
        (["theory", "cap-stats", "--d", 128, "--n", 10, "--alpha", 0.8,
          "--constructions", "foo"], "unknown construction 'foo'"),
        (["theory", "cap-stats", "--d", 128, "--n", 10, "--alpha", 0.8, "--etas", "nan"],
         "eta must be >= -1, got nan"),
        (["experiment", "assignment", "--clusters", 4, "--per-cluster", 10, "--d", 16,
          "--M", 4, "--top-k", 4, "--queries", 5, "--n-seeds", 1, "--tau", "nan"],
         "tau is NaN"),
        (["experiment", "assignment", "--clusters", 4, "--per-cluster", 10, "--d", 16,
          "--M", 4, "--top-k", 4, "--queries", 5, "--n-seeds", 1, "--alpha0", "nan"],
         "alpha0 is NaN"),
        # the model's domain is checked before a unit is drawn
        (["experiment", "roc", "--d", 32, "--n", 0, "--alpha", 0.8],
         "need n >= 1 and d >= 2"),
        (["experiment", "roc", "--d", 1, "--n", 1, "--alpha", 0.8, "--constructions", "sum"],
         "need n >= 1 and d >= 2"),
        (["experiment", "roc", "--d", 32, "--n", 4, "--alpha", 0.8, "--constructions", "foo"],
         "unknown construction 'foo'"),
    ], ids=["cap-stats-construction", "cap-stats-nan-eta", "assignment-nan-tau",
            "assignment-nan-alpha0", "roc-n-0", "roc-d-1", "roc-construction"])
    def test_bad_input_is_1_and_prints_no_rows(self, argv, says, capsys):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {says}\n"

    @pytest.mark.parametrize("argv, says", [
        (["experiment", "roc", "--d", 16, "--n", 4, "--alpha", 0.8, "--trials", 0],
         "trials must be >= 1"),
        (["experiment", "roc", "--d", 16, "--n", 4, "--alpha", 0.8, "--trials", -3],
         "trials must be >= 1"),
        (["experiment", "cost", "--d", 32, "--eps", 0.05, "--alpha0", 0.8, "--n-max", 5,
          "--queries", 0], "N and n_queries must be >= 1"),
        (["experiment", "cost", "--d", 32, "--eps", 0.05, "--alpha0", 0.8, "--n-max", 5,
          "--N", 0], "N and n_queries must be >= 1"),
        (["experiment", "assignment", "--clusters", 4, "--per-cluster", 10, "--d", 16,
          "--M", 4, "--n-seeds", 1, "--queries", 0], "n_queries >= 1"),
        (["experiment", "assignment", "--clusters", 4, "--per-cluster", 10, "--d", 16,
          "--M", 4, "--n-seeds", 1, "--top-k", 5], "1 <= top_k <= M"),
        (["experiment", "assignment", "--clusters", 4, "--per-cluster", 10, "--d", 16,
          "--M", 4, "--n-seeds", 1, "--top-k", -2], "1 <= top_k <= M"),
        (["experiment", "assignment", "--clusters", 4, "--per-cluster", 10, "--d", 16,
          "--M", 4, "--n-seeds", 1, "--top-k", 0], "1 <= top_k <= M"),
        (["theory", "roc", "--d", 100, "--n", 10, "--alpha", 0.7, "--tau-steps", -1],
         "--tau-steps must be >= 1"),
        (["theory", "roc", "--d", 100, "--n", 10, "--alpha", 0.7, "--tau-steps", 0],
         "--tau-steps must be >= 1"),
        (["experiment", "assignment", "--clusters", 4, "--per-cluster", 10, "--d", 16,
          "--M", 4, "--top-k", 4, "--n-seeds", 0], "n_seeds >= 1"),
        (["experiment", "assignment", "--clusters", 4, "--per-cluster", 10, "--d", 16,
          "--M", 4, "--top-k", 4, "--n-seeds", -2], "n_seeds >= 1"),
        (["experiment", "cost", "--d", 32, "--eps", 0.05, "--alpha0", 0.8, "--n-max", 0],
         "n_max >= 1"),
        (["theory", "cost", "--d", 32, "--eps", 0.05, "--alpha0", 0.8, "--n-max", 0],
         "n_max >= 1"),
        (["theory", "cost", "--d", 32, "--eps", 0.05, "--alpha0", 0.8, "--n-max", -3],
         "n_max >= 1"),
        (["theory", "cost", "--d", 1, "--eps", 0.01, "--alpha0", 0.9, "--n-max", 5,
          "--constructions", "pinv"], "no curve has a point"),
        (["experiment", "cost", "--d", 1, "--eps", 0.01, "--alpha0", 0.9, "--n-max", 5,
          "--constructions", "pinv"], "no curve has a point"),
        (["gen", "--n", -1, "--d", 8, "--out", os.devnull], "sample size must be >= 0, got -1"),
        # once numpy's ValueError traceback from default_rng
        (["gen", "--n", 10, "--d", 4, "--seed", -1, "--out", os.devnull],
         "seed must be >= 0, got -1"),
        (["experiment", "roc", "--d", 16, "--n", 4, "--alpha", 0.8, "--trials", 5,
          "--seed", -1], "seed must be >= 0, got -1"),
    ], ids=["trials-0", "trials-neg", "cost-queries-0", "cost-N-0", "assignment-queries-0",
            "top-k-above-M", "top-k-neg", "top-k-0", "tau-steps-neg", "tau-steps-0",
            "n-seeds-0", "n-seeds-neg", "experiment-n-max-0", "theory-n-max-0",
            "theory-n-max-neg", "theory-pinv-n-ge-d", "experiment-pinv-n-ge-d", "gen-n-neg",
            "gen-seed-neg", "roc-seed-neg"])
    def test_bad_count_is_1(self, argv, says, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err

    @pytest.mark.parametrize("csv_text, says", [
        ("query,rank,score,complexity,complexity_ratio\n0,1,0.5,20,0.1\n", "'dataset_id'"),
        ("query,rank,dataset_id\n0,1,3\n", "'complexity_ratio'"),
        ("", "'query'"),
        ("query,rank,dataset_id,complexity_ratio\n0,1,3,0.1\n0,2,4.5,0.1\n",
         "line 3: invalid literal for int() with base 10: '4.5'"),
        ("query,rank,dataset_id,complexity_ratio\n0,1\n", "line 2"),
        # one result per query, but each copy of id 5 would count as a hit
        ("query,rank,dataset_id,complexity_ratio\n0,1,5,0.1\n0,2,5,0.1\n1,1,6,0.1\n"
         "2,1,7,0.1\n3,1,8,0.1\n", "line 3: query 0 lists dataset id 5 twice"),
    ], ids=["no-dataset_id", "no-complexity_ratio", "empty", "float-id", "short-row",
            "repeated-id"])
    def test_malformed_results_is_1(self, pipeline, csv_text, says, monkeypatch, capsys):
        db, q, _, tmp = pipeline
        res = tmp / "bad.csv"
        res.write_text(csv_text)

        def no_truth(*args):  # the results are parsed before the ground truth is computed
            raise AssertionError("cosine_ground_truth called")

        monkeypatch.setattr(cli, "cosine_ground_truth", no_truth)
        assert run(["eval", "--results", res, "--data", db, "--queries", q]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {res}") and says in err

    def test_corrupt_input_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.fvecs"
        bad.write_bytes(b"\x01\x00")
        assert run(["build", "--data", bad, "--assign", "random",
                    "--unit-size", 5, "--out", tmp_path / "o.mvix"]) == 1
