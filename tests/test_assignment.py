import tracemalloc

import numpy as np
import pytest

from memvec import assignment
from memvec.assignment import (
    BatchConfig,
    KMeansConfig,
    Partition,
    batch_assignment,
    imbalance_factor,
    partition_size_stats,
    random_assignment,
    spherical_kmeans,
)
from memvec.construction import ConstructionConfig, representatives
from memvec.core import Dataset
from memvec.errors import DomainError
from memvec.sampling import Seed, make_clustered_dataset, sample_sphere


class TestPartition:
    def test_sizes_and_members(self):
        p = Partition(unit_of=np.array([0, 1, 0, 2, 0]), M=3)
        assert np.array_equal(p.sizes, [3, 1, 1])
        assert np.array_equal(p.members(0), [0, 2, 4])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            Partition(unit_of=np.array([0, 3]), M=3)

    def test_caller_array_stays_writeable(self):
        u = np.array([0, 1, 0], dtype=np.int64)
        p = Partition(unit_of=u, M=2)
        assert np.shares_memory(p.unit_of, u)  # a view, not a copy
        assert u.flags.writeable
        for arr in (p.unit_of, p.order, p.offsets):
            assert not arr.flags.writeable
        u[0] = 1

    # the sort key narrows to uint8 up to M = 256, uint16 up to 65536, then uint32
    @pytest.mark.parametrize("M", [1, 256, 257, 65536, 65537])
    def test_order_matches_int64_stable_argsort(self, M):
        unit_of = np.random.default_rng(M).integers(0, M, size=3 * M + 5)
        unit_of[-1] = M - 1  # the largest id is present
        p = Partition(unit_of=unit_of, M=M)
        assert p.order.dtype == np.int64 and p.unit_of.dtype == np.int64
        assert np.array_equal(p.order, np.argsort(unit_of, kind="stable"))
        assert np.array_equal(p.offsets, np.concatenate(
            ([0], np.cumsum(np.bincount(unit_of, minlength=M)))))


class TestRandomAssignment:
    def test_partitions_everything(self):
        p = random_assignment(103, 10, Seed(0).generator())
        assert p.N == 103 and p.M == 11
        sizes = p.sizes
        assert sizes.sum() == 103
        assert np.all(sizes[:-1] == 10) and sizes[-1] == 3

    def test_deterministic(self):
        a = random_assignment(50, 7, Seed(1).generator())
        b = random_assignment(50, 7, Seed(1).generator())
        assert np.array_equal(a.unit_of, b.unit_of)

    def test_balanced_delta_is_one(self):
        p = random_assignment(100, 10, Seed(2).generator())
        assert imbalance_factor(p) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            random_assignment(5, 6, Seed(0).generator())


class TestImbalance:
    def test_hand_value(self):
        # sizes (3, 1): delta = 2 * ((3/4)^2 + (1/4)^2) = 1.25
        p = Partition(unit_of=np.array([0, 0, 0, 1]), M=2)
        assert imbalance_factor(p) == pytest.approx(1.25, abs=1e-14)

    def test_size_stats_match_empirical_variance(self):
        p = Partition(unit_of=np.array([0, 0, 0, 1, 2, 2]), M=3)
        mean, var = partition_size_stats(p)
        assert mean == pytest.approx(np.mean(p.sizes), abs=1e-12)
        assert var == pytest.approx(np.var(p.sizes), abs=1e-12)


class TestSphericalKMeans:
    def test_recovers_planted_clusters(self):
        ds, labels = make_clustered_dataset(5, 40, 64, 0.95, Seed(3).generator())
        part, reps = spherical_kmeans(ds, KMeansConfig(
            M=5, mode="sum", normalize_representative=True, seed=Seed(0)))
        # label-consistent partition: each found unit maps to one true cluster
        agreement = 0
        for j in range(5):
            member_labels = labels[part.members(j)]
            agreement += np.max(np.bincount(member_labels, minlength=5))
        assert agreement / ds.size > 0.95
        assert reps.shape == (5, 64)

    def test_deterministic(self):
        ds = Dataset(sample_sphere(16, Seed(5).generator(), size=60))
        cfg = KMeansConfig(M=6, mode="pinv", seed=Seed(6))
        a, ra = spherical_kmeans(ds, cfg)
        b, rb = spherical_kmeans(ds, cfg)
        assert np.array_equal(a.unit_of, b.unit_of)
        assert np.array_equal(ra, rb)

    def test_no_empty_units(self):
        ds = Dataset(sample_sphere(8, Seed(7).generator(), size=30))
        part, _ = spherical_kmeans(ds, KMeansConfig(M=10, mode="sum", seed=Seed(8)))
        assert np.all(part.sizes > 0)

    def test_objective_improves_over_random(self):
        # normalized-sum k-means centroids explain the data better than
        # random grouping centroids
        ds, _ = make_clustered_dataset(4, 30, 32, 0.85, Seed(9).generator())
        part, reps = spherical_kmeans(ds, KMeansConfig(
            M=4, mode="sum", normalize_representative=True, seed=Seed(10)))
        reps_n = reps / np.linalg.norm(reps, axis=1, keepdims=True)
        km_obj = np.mean(np.sum(ds.vectors * reps_n[part.unit_of], axis=1))
        rnd = random_assignment(ds.size, 30, Seed(11).generator())
        rnd_obj = []
        for j in range(rnd.M):
            members = ds.vectors[rnd.members(j)]
            c = members.sum(axis=0)
            c /= np.linalg.norm(c)
            rnd_obj.append(np.sum(members * c, axis=1))
        assert km_obj > np.mean(np.concatenate(rnd_obj))

    def test_m_exceeding_dataset_rejected(self):
        ds = Dataset(sample_sphere(8, Seed(0).generator(), size=5))
        with pytest.raises(DomainError):
            spherical_kmeans(ds, KMeansConfig(M=6))


def _fill_empty_units_reference(labels, M, rng):
    """The replaced repair: a fresh bincount/flatnonzero per empty unit."""
    for j in np.flatnonzero(np.bincount(labels, minlength=M) == 0):
        largest = int(np.argmax(np.bincount(labels, minlength=M)))
        pool = np.flatnonzero(labels == largest)
        labels[int(pool[rng.integers(len(pool))])] = j


def _kmeans_reference(dataset, cfg):
    """spherical_kmeans with the full (N, M) score matrix and the replaced
    repair: the loop the library replaced."""
    X = dataset.vectors
    rng = cfg.seed.generator()
    reps = X[rng.choice(dataset.size, size=cfg.M, replace=False)]
    construction = ConstructionConfig(kind=cfg.mode)
    labels = None
    for _ in range(cfg.max_iters):
        new_labels = np.argmax(X @ reps.T, axis=1)
        _fill_empty_units_reference(new_labels, cfg.M, rng)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        part = Partition(unit_of=labels, M=cfg.M)
        reps = representatives(X, part.order, part.offsets, construction)
        if cfg.normalize_representative:
            norms = np.linalg.norm(reps, axis=1, keepdims=True)
            reps = np.divide(reps, norms, out=reps, where=norms > 0.0)
    return part, reps


class TestNearest:
    """_nearest against the oracle np.argmax(X @ R.T, axis=1)."""

    @pytest.fixture(params=[None, 7], ids=["one-block", "small-blocks"])
    def blocks(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(assignment, "_BLOCK_FLOATS", request.param)

    @staticmethod
    def _check(X, R):
        got = assignment._nearest(X, R)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.argmax(X @ R.T, axis=1))
        return got

    @staticmethod
    def _pruned(X, R):
        """Rows whose best long score clears the short units' bound."""
        rn = np.linalg.norm(R, axis=1)
        long_ = rn >= 0.5 * rn.max()
        if long_.all():
            return np.zeros(len(X), dtype=bool)
        best = (X @ R[long_].T).max(axis=1)
        return best > np.linalg.norm(X, axis=1) * rn[~long_].max() * (1 + 1e-9)

    def test_duplicate_representatives_tie_to_lowest_id(self, blocks):
        R = sample_sphere(8, Seed(30).generator(), size=6)
        R = np.vstack([R, R[[4, 1]], 3.0 * R[:2], 3.0 * R[:2]])  # ids 6-7, 8-11
        X = np.vstack([R[:6], sample_sphere(8, Seed(31).generator(), size=50)])
        got = self._check(X, R)
        assert got[1] == 9 and got[0] == 8  # 3 R[k] twice: the first copy wins

    def test_mixed_norms_prune(self, blocks):
        ds, _ = make_clustered_dataset(6, 30, 16, 0.9, Seed(32).generator())
        X = ds.vectors
        scales = np.repeat([0.1, 0.4, 1.0, 5.0, 20.0], 6)
        R = sample_sphere(16, Seed(33).generator(), size=30) * scales[:, None]
        R[[0, 12]] = 20.0 * X[[0, 40]]  # long units that win their clusters
        pruned = self._pruned(X, R)
        assert pruned.any() and not pruned.all()
        self._check(X, R)

    def test_equal_norms_do_not_prune(self, blocks):
        R = sample_sphere(12, Seed(34).generator(), size=40)
        X = sample_sphere(12, Seed(35).generator(), size=90)
        assert not self._pruned(X, R).any()
        self._check(X, R)
        self._check(X, 2.0 * R)

    def test_best_long_score_exactly_at_the_bound(self, blocks):
        # x . long = ||x|| * ||short|| = x . short = 1: the row may not be
        # pruned, and the tie goes to the short unit's lower id
        e = np.eye(4)
        R = np.vstack([e[0], e[0] + 3.0 * e[1], e[2]])
        X = np.vstack([e[0], e[1], e[2]])
        assert not self._pruned(X, R)[0]
        assert np.array_equal(self._check(X, R), [0, 1, 2])

    @staticmethod
    def _closing_band(X, R):
        """Per row, the band after which it closes (the number of bands if
        it never does), bands built from the norms one unit at a time."""
        rn = np.linalg.norm(R, axis=1)
        tops, top = [], None
        for v in sorted(rn, reverse=True):
            if top is None or v < 0.5 * top:
                top = v
                tops.append(v)
        scores = X @ R.T
        xn = np.linalg.norm(X, axis=1)
        closed = np.full(len(X), len(tops))
        for b in range(len(tops) - 1, 0, -1):
            best = scores[:, rn >= 0.5 * tops[b - 1]].max(axis=1)
            closed[best > xn * tops[b] * (1 + 1e-9)] = b
        return closed

    def test_many_bands_prune_at_different_bands(self, blocks):
        ds, _ = make_clustered_dataset(8, 25, 16, 0.9, Seed(38).generator())
        X = ds.vectors
        scales = np.repeat(3.0 ** np.arange(6), 8)  # six bands
        R = sample_sphere(16, Seed(39).generator(), size=48) * scales[:, None]
        R[[0, 9, 20, 30]] = X[[0, 25, 50, 75]] * scales[[0, 9, 20, 30], None]
        assert len(np.unique(self._closing_band(X, R))) >= 3
        self._check(X, R)

    def test_ties_within_and_across_bands_and_zero_units(self, blocks):
        # bands {3, 5}, {1}, {0}, {2, 4}; x = e0 scores 1 on a unit of each
        # of the first three: the lowest id wins. x = -e0 scores 0 on the
        # zero units and on unit 5 of the first band, below 0 elsewhere
        e = np.eye(3)
        R = np.vstack([e[0], e[0] + np.sqrt(15.0) * e[1], np.zeros(3),
                       e[0] + np.sqrt(99.0) * e[2], np.zeros(3), -8.0 * e[1]])
        X = np.vstack([e[0], -e[0], e[1], e[2]])
        assert np.array_equal(self._check(X, R), [0, 2, 1, 3])
        # one band: the lower id wins a tie though its norm is smaller
        R = np.vstack([e[0] + 0.5 * e[1], e[0] + e[1]])
        assert np.array_equal(self._check(X[:1], R), [0])

    def test_small_bands_gather_small_blocks(self):
        # one unit per band and almost no pruning: every band is scored
        # over nearly all rows, in blocks of about _BLOCK_FLOATS floats
        X = sample_sphere(64, Seed(40).generator(), size=20_000)  # 10 MB
        R = sample_sphere(64, Seed(41).generator(), size=8) * 0.3 ** np.arange(8)[:, None]
        tracemalloc.start()
        try:
            got = assignment._nearest(X, R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, np.argmax(X @ R.T, axis=1))
        assert peak <= 4 * 2**20

    def test_single_unit(self, blocks):
        R = sample_sphere(5, Seed(36).generator(), size=1)
        X = sample_sphere(5, Seed(37).generator(), size=20)
        assert np.array_equal(self._check(X, R), np.zeros(20))
        assert np.array_equal(self._check(X, np.zeros_like(R)), np.zeros(20))


class TestKMeansAgainstReference:
    """spherical_kmeans against the replaced full-score loop, bit for bit."""

    @pytest.fixture(scope="class")
    def clustered(self):
        ds, _ = make_clustered_dataset(8, 50, 24, 0.9, Seed(38).generator())
        return ds

    @pytest.mark.parametrize("mode, normalize", [("sum", False), ("sum", True),
                                                 ("pinv", False)])
    def test_identical(self, clustered, mode, normalize):
        # M far above the planted clusters: unnormalized sum k-means leaves
        # most units empty after each assignment step
        cfg = KMeansConfig(M=120, mode=mode, normalize_representative=normalize,
                           max_iters=6, seed=Seed(39))
        part, reps = spherical_kmeans(clustered, cfg)
        ref_part, ref_reps = _kmeans_reference(clustered, cfg)
        assert np.array_equal(part.unit_of, ref_part.unit_of)
        assert np.array_equal(reps, ref_reps)

    def test_empty_unit_repair_matches_reference(self, clustered):
        X = clustered.vectors
        M = 150
        reps = 0.1 * sample_sphere(24, Seed(40).generator(), size=M)
        reps[:8] = 50.0 * X[::50]  # eight long units take every row
        labels = assignment._nearest(X, reps)
        assert np.unique(labels).size <= 8
        ref = labels.copy()
        rng, ref_rng = Seed(41).generator(), Seed(41).generator()
        assignment._fill_empty_units(labels, M, rng)
        _fill_empty_units_reference(ref, M, ref_rng)
        assert np.array_equal(labels, ref)
        assert np.all(np.bincount(labels, minlength=M) > 0)
        assert rng.integers(2**62) == ref_rng.integers(2**62)

    @pytest.mark.parametrize("M", [2, 256, 257, 65536, 65537])
    def test_empty_unit_repair_across_key_widths(self, M):
        rng = np.random.default_rng(M)
        labels = rng.permutation(np.repeat(np.arange(M), 2))
        # every unit holds two; empty up to five into their next neighbours,
        # which become the largest units the repair steals from
        for j in rng.choice(M, size=min(5, M - 1), replace=False):
            labels[labels == j] = (j + 1) % M
        ref = labels.copy()
        rng, ref_rng = Seed(43).generator(), Seed(43).generator()
        assignment._fill_empty_units(labels, M, rng)
        _fill_empty_units_reference(ref, M, ref_rng)
        assert np.array_equal(labels, ref)
        assert np.all(np.bincount(labels, minlength=M) > 0)
        assert rng.integers(2**62) == ref_rng.integers(2**62)

    def test_every_point_its_own_unit(self, clustered):
        # M = N: the repair drains the largest units down to one member each
        small = Dataset(clustered.vectors[::10])
        cfg = KMeansConfig(M=small.size, mode="sum", max_iters=3, seed=Seed(42))
        part, reps = spherical_kmeans(small, cfg)
        ref_part, ref_reps = _kmeans_reference(small, cfg)
        assert np.array_equal(part.unit_of, ref_part.unit_of)
        assert np.array_equal(reps, ref_reps)
        assert np.all(part.sizes == 1)


class TestBatchAssignment:
    def test_single_batch_equals_plain_kmeans(self):
        ds = Dataset(sample_sphere(16, Seed(12).generator(), size=80))
        seed = Seed(13)
        inner = KMeansConfig(M=5, mode="sum")
        bpart, breps = batch_assignment(ds, BatchConfig(
            batch_size=80, inner=inner, seed=seed))
        kpart, kreps = spherical_kmeans(ds, KMeansConfig(
            M=5, mode="sum", seed=seed.child("batch0")))
        assert np.array_equal(bpart.unit_of, kpart.unit_of)
        assert np.array_equal(breps, kreps)

    def test_batches_get_disjoint_unit_ids(self):
        ds = Dataset(sample_sphere(16, Seed(14).generator(), size=100))
        part, reps = batch_assignment(ds, BatchConfig(
            batch_size=40, inner=KMeansConfig(M=3, mode="sum"), seed=Seed(15)))
        assert part.M == 9  # 3 + 3 + 3 across batches of 40/40/20
        assert reps.shape == (9, 16)
        # batch i only uses unit ids [3i, 3i+3)
        assert np.all(part.unit_of[:40] < 3)
        assert np.all((part.unit_of[40:80] >= 3) & (part.unit_of[40:80] < 6))
        assert np.all(part.unit_of[80:] >= 6)

    def test_random_inner(self):
        ds = Dataset(sample_sphere(8, Seed(16).generator(), size=50))
        part, reps = batch_assignment(ds, BatchConfig(
            batch_size=25, inner="random", unit_size=5, seed=Seed(17)))
        assert part.M == 10 and np.all(part.sizes == 5)
        assert reps.shape == (10, 8)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            BatchConfig(batch_size=10, inner="random")  # missing unit_size
        with pytest.raises(DomainError):
            BatchConfig(batch_size=0, inner="random", unit_size=2)
