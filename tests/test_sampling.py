import hashlib

import numpy as np
import pytest
from scipy.stats import kstest

from memvec import analytic as A
from memvec.errors import DimensionError, DomainError
from memvec.sampling import (
    Seed,
    h1_queries,
    make_clustered_dataset,
    sample_cap,
    sample_cap_correlation,
    sample_sphere,
)

from oracles import score_cdf_exact


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

    @pytest.mark.parametrize("value", [-1, 2.5, "a"])
    def test_bad_value_is_a_domain_error(self, value):
        # -1 once reached np.random.default_rng, a bare ValueError
        with pytest.raises(DomainError, match="seed must be"):
            Seed(value)

    def test_child_streams_differ(self):
        a = Seed(3).child("x").generator().standard_normal(100)
        b = Seed(3).child("y").generator().standard_normal(100)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.4


class TestSampleSphere:
    def test_shapes_and_norms(self):
        rng = Seed(0).generator()
        v = sample_sphere(16, rng, size=1)
        assert v.shape == (1, 16)
        batch = sample_sphere(16, rng, size=50)
        assert batch.shape == (50, 16)
        assert np.allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-12)

    def test_marginal_matches_exact_score_law(self):
        # first coordinate of a uniform unit vector follows the exact law
        rng = Seed(5).generator()
        x = sample_sphere(12, rng, size=20000)[:, 0]
        stat = kstest(x, lambda s: score_cdf_exact(s, 1.0, 12)).statistic
        assert stat < 0.015

    def test_bad_dim(self):
        with pytest.raises(DimensionError):
            sample_sphere(0, Seed(0).generator(), size=1)

    def test_negative_size_rejected(self):
        with pytest.raises(DomainError, match="sample size must be >= 0, got -1"):
            sample_sphere(8, Seed(0).generator(), size=-1)
        assert sample_sphere(8, Seed(0).generator(), size=0).shape == (0, 8)


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
        F_eta = score_cdf_exact(eta, 1.0, d)

        def cond_cdf(x):
            return (score_cdf_exact(x, 1.0, d) - F_eta) / (1.0 - F_eta)

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
        v = sample_cap(axis, 0.5, Seed(4).generator(), size=500)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        assert np.all(v @ axis > 0.5)

    def test_moments_match_theory(self):
        eta, d = 0.5, 512
        s = sample_cap_correlation(eta, d, Seed(6).generator(), size=40000)
        assert np.mean(s) == pytest.approx(A.cap_moment(1, eta, d), abs=3e-4)
        assert np.mean(s**2) == pytest.approx(A.cap_moment(2, eta, d), abs=3e-4)

    def test_degenerate_cap(self):
        with pytest.raises(DomainError, match="eta must be < 1"):
            sample_cap_correlation(1.0, 10, Seed(0).generator(), size=1)
        with pytest.raises(DomainError, match="eta must be < 1"):
            sample_cap(np.ones(4), 1.0, Seed(0).generator(), size=1)

    def test_negative_size_rejected(self):
        with pytest.raises(DomainError, match="sample size must be >= 0, got -2"):
            sample_cap_correlation(0.5, 10, Seed(0).generator(), size=-2)

    @pytest.mark.parametrize("eta", [-1.5, float("nan")])
    def test_eta_below_minus_one_rejected(self, eta):
        with pytest.raises(DomainError, match=f"eta must be >= -1, got {eta}"):
            sample_cap_correlation(eta, 10, Seed(0).generator(), size=1)


class TestH1Queries:
    def test_h1_geometry(self):
        X = sample_sphere(32, Seed(9).generator(), size=20)
        (y,) = h1_queries(X[[4]], 0.8, Seed(10).generator())
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        assert float(y @ X[4]) == pytest.approx(0.8, abs=1e-12)

    def test_each_query_pairs_with_its_own_row(self):
        X = sample_sphere(32, Seed(9).generator(), size=20)
        Y = h1_queries(X, 0.8, Seed(10).generator())
        assert Y.shape == X.shape
        assert np.allclose(np.linalg.norm(Y, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.sum(Y * X, axis=1), 0.8, atol=1e-12)

    def test_beta_complement(self):
        # the part of y orthogonal to its row has norm beta = sqrt(1 - alpha^2)
        X = sample_sphere(32, Seed(17).generator(), size=20)
        Y = h1_queries(X, 0.6, Seed(18).generator())
        rest = Y - np.sum(Y * X, axis=1, keepdims=True) * X
        assert np.allclose(np.linalg.norm(rest, axis=1), 0.8, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_at_the_edges_accepted(self, alpha):
        X = sample_sphere(8, Seed(15).generator(), size=3)
        Y = h1_queries(X, alpha, Seed(16).generator())
        assert np.allclose(np.linalg.norm(Y, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.sum(Y * X, axis=1), alpha, atol=1e-12)
        if alpha == 1.0:
            assert np.allclose(Y, X, atol=1e-12)

    def test_float32_rows_give_the_widened_queries(self):
        rows = sample_sphere(64, Seed(12).generator(), size=30).astype(np.float32)
        for alpha in (0.3, 0.8, 0.9):
            y32 = h1_queries(rows, alpha, Seed(13).generator())
            y64 = h1_queries(rows.astype(np.float64), alpha, Seed(13).generator())
            assert y32.dtype == np.float64 and np.array_equal(y32, y64)

    @pytest.mark.parametrize("alpha", [1.5, -0.1, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        X = sample_sphere(8, Seed(15).generator(), size=3)
        with pytest.raises(DomainError):
            h1_queries(X, alpha, Seed(16).generator())

    def test_one_planted_row_must_be_a_2d_array(self):
        # a 1-d row once raised numpy's AxisError
        x = sample_sphere(8, Seed(17).generator(), size=1)[0]
        with pytest.raises(DimensionError, match="planted must be an"):
            h1_queries(x, 0.9, Seed(18).generator())


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


class TestGeneratorBits:
    """sha256 of the generators' float64 bytes at fixed seeds, so a change to
    the cap sampler's draw order or arithmetic fails here, not only in a
    statistic. The axis is scaled by 2.5, so ``sample_cap`` must normalize."""

    @pytest.mark.parametrize("d, digest", [
        (2, "f074c53f4e9ac6781e8d5a297da4d581a0a1b40a7716336c4792c1c8c1130f3a"),
        (24, "cb82618a86986c75c3731411ae7b4315b862091673bdb431d78ea114bce208b8"),
        (128, "c7ed9619dcf1907163fae41418b99a91f625a11d3c32285a07bb0b08a8017a58")])
    def test_clustered_dataset(self, d, digest):
        ds, labels = make_clustered_dataset(3, 5, d, 0.7, Seed(30 + d).generator())
        data = ds.vectors.tobytes() + labels.astype(np.int64).tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("d, digest", [
        (2, "fd3ccbed7b1c743c94c53a90a58869d536f094d73068c84de87cd7de468b383a"),
        (24, "c1107ed22a88b96e21edb7507b9ddb341e1b16b2700a384ecda138073fffd15b"),
        (128, "f218e152350e684e0d6a9825d326477de69ca58f5c37b10dc430e0e5d500b536")])
    def test_sample_cap(self, d, digest):
        rng = Seed(40 + d).generator()
        axis = 2.5 * sample_sphere(d, rng, size=1)[0]
        out = np.concatenate([sample_cap(axis, 0.5, rng, size=6).ravel(),
                              sample_cap(axis, -0.3, rng, size=1)[0]])
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest
