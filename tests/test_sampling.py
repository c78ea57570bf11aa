import numpy as np
import pytest
from scipy.stats import kstest

from memvec import analytic as A
from memvec.core import Dataset, QueryModel
from memvec.errors import DegenerateCapError, DimensionError, ModelError
from memvec.sampling import (
    CapSpec,
    Seed,
    h1_queries,
    make_clustered_dataset,
    make_query,
    sample_cap,
    sample_cap_correlation,
    sample_sphere,
)


class TestSeed:
    def test_children_deterministic_and_distinct(self):
        s = Seed(7)
        assert s.child("a") == Seed(7).child("a")
        assert s.child("a") != s.child("b")
        assert s.child("a") != Seed(8).child("a")

    def test_generators_reproduce(self):
        a = Seed(3).generator().standard_normal(5)
        b = Seed(3).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_child_streams_differ(self):
        a = Seed(3).child("x").generator().standard_normal(100)
        b = Seed(3).child("y").generator().standard_normal(100)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.4


class TestSampleSphere:
    def test_shapes_and_norms(self):
        rng = Seed(0).generator()
        v = sample_sphere(16, rng)
        assert v.shape == (16,)
        batch = sample_sphere(16, rng, size=50)
        assert batch.shape == (50, 16)
        assert np.allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-12)

    def test_marginal_matches_exact_score_law(self):
        # first coordinate of a uniform unit vector follows the exact law
        rng = Seed(5).generator()
        x = sample_sphere(12, rng, size=20000)[:, 0]
        stat = kstest(x, lambda s: A.score_cdf_exact(s, 1.0, 12)).statistic
        assert stat < 0.015

    def test_bad_dim(self):
        with pytest.raises(DimensionError):
            sample_sphere(0, Seed(0).generator())


class TestCapSampling:
    def test_correlations_in_range(self):
        rng = Seed(1).generator()
        s = sample_cap_correlation(0.4, 64, rng, size=5000)
        assert np.all(s > 0.4) and np.all(s <= 1.0)

    def test_correlation_distribution(self):
        # conditional CDF on the cap: (F(s) - F(eta)) / (1 - F(eta))
        eta, d = 0.3, 32
        rng = Seed(2).generator()
        s = sample_cap_correlation(eta, d, rng, size=20000)
        F_eta = A.score_cdf_exact(eta, 1.0, d)

        def cond_cdf(x):
            return (A.score_cdf_exact(x, 1.0, d) - F_eta) / (1.0 - F_eta)

        assert kstest(s, cond_cdf).statistic < 0.015

    def test_narrow_cap_large_d(self):
        rng = Seed(3).generator()
        s = sample_cap_correlation(0.97, 1000, rng, size=2000)
        assert np.all(s > 0.97)
        mu1 = A.cap_moment(1, 0.97, 1000)
        assert np.mean(s) == pytest.approx(mu1, rel=2e-4)

    def test_sample_cap_geometry(self):
        axis = np.zeros(64)
        axis[3] = 1.0
        spec = CapSpec(axis=axis, eta=0.5)
        v = sample_cap(spec, Seed(4).generator(), size=500)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        assert np.all(v @ axis > 0.5)

    def test_moments_match_theory(self):
        eta, d = 0.5, 512
        s = sample_cap_correlation(eta, d, Seed(6).generator(), size=40000)
        assert np.mean(s) == pytest.approx(A.cap_moment(1, eta, d), abs=3e-4)
        assert np.mean(s**2) == pytest.approx(A.cap_moment(2, eta, d), abs=3e-4)

    def test_degenerate_cap(self):
        with pytest.raises(DegenerateCapError):
            sample_cap_correlation(1.0, 10, Seed(0).generator())
        with pytest.raises(DegenerateCapError):
            CapSpec(axis=np.ones(4), eta=1.0)


class TestMakeQuery:
    def _dataset(self):
        return Dataset(sample_sphere(32, Seed(9).generator(), size=20))

    def test_h1_geometry(self):
        ds = self._dataset()
        model = QueryModel("H1", alpha=0.8, planted_id=4)
        y = make_query(ds, model, Seed(10).generator())
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        assert float(y @ ds.vectors[4]) == pytest.approx(0.8, abs=1e-12)

    def test_h0_uniform(self):
        ds = self._dataset()
        y = make_query(ds, QueryModel("H0"), Seed(11).generator())
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)

    def test_float32_rows_give_the_widened_queries(self):
        rows = sample_sphere(64, Seed(12).generator(), size=30).astype(np.float32)
        for alpha in (0.3, 0.8, 0.9):
            y32 = h1_queries(rows, alpha, Seed(13).generator())
            y64 = h1_queries(rows.astype(np.float64), alpha, Seed(13).generator())
            assert y32.dtype == np.float64 and np.array_equal(y32, y64)
        ds = Dataset(rows)
        model = QueryModel("H1", alpha=0.8, planted_id=3)
        assert np.array_equal(make_query(ds, model, Seed(14).generator()),
                              make_query(Dataset(rows.astype(np.float64)), model,
                                         Seed(14).generator()))

    def test_planted_out_of_range(self):
        ds = self._dataset()
        with pytest.raises(ModelError):
            make_query(ds, QueryModel("H1", alpha=0.5, planted_id=99),
                       Seed(0).generator())


class TestClusteredDataset:
    def test_labels_and_cap_membership(self):
        ds, labels = make_clustered_dataset(4, 25, 48, 0.8, Seed(12).generator())
        assert ds.size == 100 and ds.dim == 48
        assert np.array_equal(labels, np.repeat(np.arange(4), 25))
        # members of one cluster correlate strongly with each other
        block = ds.vectors[labels == 2]
        sims = block @ block.T
        off_diag = sims[~np.eye(25, dtype=bool)]
        # pairwise correlation concentrates near mu1(eta)^2
        mu1 = A.cap_moment(1, 0.8, 48)
        assert np.mean(off_diag) == pytest.approx(mu1 * mu1, abs=0.05)

    def test_deterministic(self):
        a, _ = make_clustered_dataset(3, 10, 16, 0.9, Seed(1).generator())
        b, _ = make_clustered_dataset(3, 10, 16, 0.9, Seed(1).generator())
        assert np.array_equal(a.vectors, b.vectors)
