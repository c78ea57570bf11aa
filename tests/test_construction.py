import numpy as np
import pytest

from memvec.assignment import KMeansConfig, spherical_kmeans
from memvec.construction import (
    ConstructionConfig,
    pinv_vector,
    representatives,
    solve_spd,
    sum_vector,
)
from memvec.core import Dataset
from memvec.errors import DimensionError, DomainError, EmptyUnitError, SingularGramError
from memvec.sampling import Seed, sample_sphere


class TestConstructionConfig:
    def test_bad_values_are_domain_errors(self):
        with pytest.raises(DomainError):
            ConstructionConfig(kind="mean")


class TestSumVector:
    def test_plain_sum(self):
        out = sum_vector([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        assert np.array_equal(out, [2.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyUnitError):
            sum_vector([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sum_vector([[1.0, 2.0], [1.0]])


class TestSolveSpd:
    def test_matches_dense_solver(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((8, 8))
        A = B @ B.T + 8 * np.eye(8)
        b = rng.standard_normal(8)
        assert np.allclose(solve_spd(A, b), np.linalg.solve(A, b), atol=1e-10)

    def test_ridge_applied(self):
        A = np.eye(3)
        z = solve_spd(A, np.ones(3), ridge=1.0)
        assert np.allclose(z, 0.5)

    def test_asymmetric_rejected(self):
        with pytest.raises(DimensionError):
            solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))

    def test_singular_raises(self):
        A = np.ones((3, 3))  # rank 1
        with pytest.raises(SingularGramError):
            solve_spd(A, np.ones(3))


class TestPinvVector:
    def test_unit_constraints_hold(self):
        rng = Seed(1).generator()
        X = sample_sphere(100, rng, size=10)
        m = pinv_vector(X)
        assert np.max(np.abs(X @ m - 1.0)) < 1e-10

    def test_minimal_norm_solution(self):
        # m* must lie in the row space of X: the least-norm solution
        rng = Seed(2).generator()
        X = sample_sphere(50, rng, size=5)
        m = pinv_vector(X)
        lstsq = np.linalg.lstsq(X, np.ones(5), rcond=None)[0]
        assert np.allclose(m, lstsq, atol=1e-10)

    def test_orthonormal_members_reduce_to_sum(self):
        X = np.eye(6)[:3]
        assert np.allclose(pinv_vector(X), sum_vector(X), atol=1e-12)

    def test_duplicate_members_fall_back_to_ridge(self):
        rng = Seed(3).generator()
        x = sample_sphere(20, rng)
        X = np.vstack([x, x, sample_sphere(20, rng)])
        report = {}
        m = pinv_vector(X, report=report)
        assert report["fallback"] and report["ridge_used"] > 0.0
        assert np.all(np.isfinite(m))

    def test_more_members_than_dims_uses_ridge(self):
        rng = Seed(4).generator()
        X = sample_sphere(4, rng, size=9)
        report = {}
        m = pinv_vector(X, report=report)
        assert report["fallback"]
        # ridge keeps the constraints nearly satisfied in aggregate
        assert np.all(np.isfinite(m)) and m.shape == (4,)

    def test_clean_solve_reports_no_ridge(self):
        rng = Seed(5).generator()
        X = sample_sphere(30, rng, size=4)
        report = {}
        pinv_vector(X, report=report)
        assert report == {"ridge_used": 0.0, "fallback": False}


class TestRepresentativesKernel:
    """The batched kernel against per-unit sum_vector / pinv_vector."""

    D = 16

    @pytest.fixture(scope="class")
    def layout(self):
        # uneven sum k-means units, one of them with a duplicated member
        X = sample_sphere(self.D, Seed(6).generator(), size=240)
        part, _ = spherical_kmeans(Dataset(X), KMeansConfig(
            M=24, mode="sum", max_iters=3, seed=Seed(7)))
        sizes = part.sizes
        assert np.unique(sizes).size >= 3 and sizes.max() > self.D
        j = int(np.flatnonzero((sizes >= 2) & (sizes <= self.D))[0])
        X = X.copy()
        X[part.members(j)[1]] = X[part.members(j)[0]]
        return X, part.order, part.offsets

    @staticmethod
    def _units(X, ids, offsets):
        return [X[ids[offsets[j]:offsets[j + 1]]] for j in range(offsets.size - 1)]

    def test_sum_bit_identical(self, layout):
        report = {}
        reps = representatives(*layout, ConstructionConfig(kind="sum"), report)
        for rep, unit in zip(reps, self._units(*layout)):
            assert np.array_equal(rep, sum_vector(unit))
        assert report == {"fallbacks": 0, "max_residual": 0.0}

    def test_pinv_matches_per_unit(self, layout):
        report = {}
        reps = representatives(*layout, ConstructionConfig(kind="pinv"), report)
        fallbacks, worst = 0, 0.0
        for rep, unit in zip(reps, self._units(*layout)):
            unit_report = {}
            expect = pinv_vector(unit, unit_report)
            assert np.max(np.abs(rep - expect)) <= 1e-12
            fallbacks += unit_report["fallback"]
            worst = max(worst, float(np.max(np.abs(unit @ expect - 1.0))))
        assert report["fallbacks"] == fallbacks > 0
        assert report["max_residual"] == pytest.approx(worst, rel=1e-6)

    def test_empty_unit_rejected(self, layout):
        X, ids, _ = layout
        with pytest.raises(EmptyUnitError):
            representatives(X, ids, np.array([0, 0, ids.size]))
