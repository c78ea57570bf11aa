import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from memvec import assignment
from memvec.assignment import (
    KMeansConfig,
    Partition,
    batch_assignment,
    imbalance_factor,
    random_assignment,
    spherical_kmeans,
)
from memvec.construction import ConstructionConfig, representatives
from memvec.core import Dataset
from memvec.errors import DomainError
from memvec.sampling import Seed, make_clustered_dataset, sample_sphere


def _members(p, j):
    return p.order[p.offsets[j]:p.offsets[j + 1]]


class TestPartition:
    def test_sizes_and_members(self):
        p = Partition(unit_of=np.array([0, 1, 0, 2, 0]), M=3)
        assert np.array_equal(p.sizes, [3, 1, 1])
        assert np.array_equal(_members(p, 0), [0, 2, 4])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            Partition(unit_of=np.array([0, 3]), M=3)

    def test_more_ids_than_int32_holds_rejected(self):
        # 2^31 labels as a zero-stride view: nothing of that size is allocated
        with pytest.raises(DomainError, match="at most 2147483647"):
            Partition(unit_of=np.broadcast_to(np.int64(0), 2**31), M=1)

    def test_caller_array_stays_writeable(self):
        u = np.array([0, 1, 0], dtype=np.int64)
        p = Partition(unit_of=u, M=2)
        assert u.flags.writeable
        for arr in (p.order, p.offsets):
            assert not arr.flags.writeable
        u[0] = 1
        assert np.array_equal(p.unit_of, [0, 1, 0])  # the labels are not kept

    # the sort key narrows to uint8 up to M = 256, uint16 up to 65536, then uint32
    @pytest.mark.parametrize("M", [1, 256, 257, 65536, 65537])
    def test_order_matches_int64_stable_argsort(self, M):
        unit_of = np.random.default_rng(M).integers(0, M, size=3 * M + 5)
        unit_of[-1] = M - 1  # the largest id is present
        p = Partition(unit_of=unit_of, M=M)
        assert p.order.dtype == np.int32 and p.unit_of.dtype == np.int64
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

    def test_more_ids_than_int32_holds_rejected_before_allocating(self):
        rng, ref = Seed(0).generator(), Seed(0).generator()
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="at most 2147483647"):
                random_assignment(2**31, 1, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # an int32 arange of 2^31 ids would be 8 GiB
        assert rng.bit_generator.state == ref.bit_generator.state


def _assert_same_as_rederived(p):
    """p equals the partition Partition(unit_of, M) derives from its labels."""
    ref = Partition(unit_of=p.unit_of, M=p.M)
    assert p.M == ref.M and type(p.M) is int
    for name in ("order", "offsets"):
        got, want = getattr(p, name), getattr(ref, name)
        assert got.dtype == np.int32 and not got.flags.writeable
        assert np.array_equal(got, want), name


class TestAssignmentCSR:
    """random_assignment builds the CSR itself; it, and the CSR of the
    partitions batch_assignment returns, must be the one Partition derives
    from unit_of."""

    # N % n == 0, N % n != 0, n = 1, n = N
    SHAPES = [(60, 6), (1003, 10), (17, 1), (17, 17), (1, 1)]

    @pytest.mark.parametrize("N, n", SHAPES)
    def test_random_assignment(self, N, n):
        p = random_assignment(N, n, Seed(44).generator())
        assert p.M == -(-N // n)
        _assert_same_as_rederived(p)

    @pytest.mark.parametrize("N, n", SHAPES)
    def test_random_assignment_draws_one_permutation(self, N, n):
        rng, ref = Seed(45).generator(), Seed(45).generator()
        p = random_assignment(N, n, rng)
        perm = ref.permutation(N)
        assert rng.bit_generator.state == ref.bit_generator.state
        # unit k holds the k-th chunk of the permutation
        for k in range(p.M):
            assert np.array_equal(_members(p, k), np.sort(perm[k * n:(k + 1) * n]))

    # (23, 14): the last batch of 14 rows is exactly M units
    @pytest.mark.parametrize("batch_size, M", [(20, 4), (23, 5), (60, 7), (7, 7),
                                               (20, 5), (7, 1), (60, 60), (25, 25),
                                               (23, 14)])
    def test_batch_kmeans_inner(self, batch_size, M):
        ds = Dataset(sample_sphere(8, Seed(48).generator(), size=60))
        p, reps = batch_assignment(ds, batch_size, KMeansConfig(M=M, mode="sum", max_iters=3,
                                                                seed=Seed(49)))
        assert reps.shape == (p.M, 8)
        _assert_same_as_rederived(p)


def _random_labels(N, n, seed):
    """The labels of random_assignment(N, n, seed.generator()): unit k
    holds the k-th chunk of the permutation."""
    labels = np.empty(N, dtype=np.int64)
    labels[seed.generator().permutation(N)] = np.arange(N) // n
    return labels


class TestLabelsNotKept:
    """A Partition holds its CSR and no N-length array besides ``order``;
    ``unit_of``, rebuilt from the CSR, is the labels the assignment made
    (k-means: TestKMeansAgainstReference)."""

    @pytest.mark.parametrize("make", ["labels", "random", "kmeans", "batch"])
    def test_holds_only_the_csr(self, make):
        ds = Dataset(sample_sphere(8, Seed(50).generator(), size=60))
        p = {"labels": lambda: Partition(unit_of=np.arange(60) % 7, M=7),
             "random": lambda: random_assignment(60, 7, Seed(51).generator()),
             "kmeans": lambda: spherical_kmeans(ds, KMeansConfig(M=7, mode="sum",
                                                                 max_iters=3))[0],
             "batch": lambda: batch_assignment(ds, 23, KMeansConfig(M=5, max_iters=3))[0]}[make]()
        arrays = {name for name, v in vars(p).items() if isinstance(v, np.ndarray)}
        assert arrays == {"order", "offsets"}
        assert p.order.size == 60 and p.offsets.size == p.M + 1
        # neither is a view that pins a larger buffer
        assert p.order.base is None and p.offsets.base is None

    @pytest.mark.parametrize("N, n", TestAssignmentCSR.SHAPES)
    def test_random_labels(self, N, n):
        p = random_assignment(N, n, Seed(52).generator())
        assert np.array_equal(p.unit_of, _random_labels(N, n, Seed(52)))

    @pytest.mark.parametrize("inner", [
        KMeansConfig(M=5, mode="pinv", max_iters=3, seed=Seed(54)),
        KMeansConfig(M=4, mode="sum", max_iters=3, seed=Seed(54))])
    def test_batch_labels(self, inner):
        ds = Dataset(sample_sphere(8, Seed(53).generator(), size=60))
        p, _ = batch_assignment(ds, 23, inner)
        labels, M = [], 0
        for i, start in enumerate(range(0, 60, 23)):
            block = Dataset(ds.vectors[start:start + 23])
            seed = inner.seed.child(f"batch{i}")
            lab, _ = _kmeans_reference(block, replace(inner, seed=seed))
            labels.append(lab + M)
            M += int(lab.max()) + 1
        assert p.M == M
        assert np.array_equal(p.unit_of, np.concatenate(labels))


class TestImbalance:
    def test_hand_value(self):
        # sizes (3, 1): delta = 2 * ((3/4)^2 + (1/4)^2) = 1.25
        p = Partition(unit_of=np.array([0, 0, 0, 1]), M=2)
        assert imbalance_factor(p) == pytest.approx(1.25, abs=1e-14)

    def test_size_stats_match_empirical_variance(self):
        # V[n_i] = (delta - 1) N^2 / M^2 around the mean N / M
        p = Partition(unit_of=np.array([0, 0, 0, 1, 2, 2]), M=3)
        var = (imbalance_factor(p) - 1.0) * p.N**2 / p.M**2
        assert p.N / p.M == pytest.approx(np.mean(p.sizes), abs=1e-12)
        assert var == pytest.approx(np.var(p.sizes), abs=1e-12)


class TestSphericalKMeans:
    def test_recovers_planted_clusters(self):
        ds, labels = make_clustered_dataset(5, 40, 64, 0.95, Seed(3).generator())
        part, reps = spherical_kmeans(ds, KMeansConfig(
            M=5, mode="sum", normalize_representative=True, seed=Seed(0)))
        # label-consistent partition: each found unit maps to one true cluster
        agreement = 0
        for j in range(5):
            member_labels = labels[_members(part, j)]
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
            members = ds.vectors[_members(rnd, j)]
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
    repair: the loop the library replaced. Returns its last labels, not a
    partition, so they are compared with ``unit_of`` as made."""
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
    return labels, reps


class TestNearest:
    """_nearest against the oracle np.argmax(X @ R.T, axis=1)."""

    @pytest.fixture(params=[None, 7], ids=["one-block", "small-blocks"])
    def blocks(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(assignment, "BLOCK_FLOATS", request.param)

    @staticmethod
    def _check(X, R, xnorm=None):
        if xnorm is None:
            xnorm = np.sqrt(np.einsum("ij,ij->i", X, X))
        got = assignment._nearest(X, xnorm, R)
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
        # float32 rows, float64 norms as spherical_kmeans computes them
        X32 = X.astype(np.float32)
        assert self._pruned(X32, R).any()
        self._check(X32, R, np.sqrt(np.einsum("ij,ij->i", X32, X32, dtype=np.float64)))

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
        # the norms enter only the bound: computed two ways, the same labels
        self._check(X, R)
        self._check(X, R, np.linalg.norm(X, axis=1))

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
        # over nearly all rows, in blocks of about BLOCK_FLOATS floats
        X = sample_sphere(64, Seed(40).generator(), size=20_000)  # 10 MB
        R = sample_sphere(64, Seed(41).generator(), size=8) * 0.3 ** np.arange(8)[:, None]
        tracemalloc.start()
        try:
            got = assignment._nearest(X, np.sqrt(np.einsum("ij,ij->i", X, X)), R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, np.argmax(X @ R.T, axis=1))
        assert peak <= 4 * 2**20

    def test_rows_closed_after_the_first_band_skip_the_rest(self, blocks, monkeypatch):
        R = sample_sphere(8, Seed(42).generator(), size=24)
        R[16:] *= np.repeat([1e-2, 1e-4], 4)[:, None]  # bands of 16, 4 and 4 units
        X = sample_sphere(8, Seed(43).generator(), size=60)
        assert np.all(self._closing_band(X, R) == 1)
        widths = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            widths.append(b.shape[1])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        self._check(X, R)
        assert widths and set(widths) == {16}

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
        ref_labels, ref_reps = _kmeans_reference(clustered, cfg)
        assert np.array_equal(part.unit_of, ref_labels)
        assert np.array_equal(reps, ref_reps)

    def test_empty_unit_repair_matches_reference(self, clustered):
        X = clustered.vectors
        M = 150
        reps = 0.1 * sample_sphere(24, Seed(40).generator(), size=M)
        reps[:8] = 50.0 * X[::50]  # eight long units take every row
        labels = assignment._nearest(X, np.sqrt(np.einsum("ij,ij->i", X, X)), reps)
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
        ref_labels, ref_reps = _kmeans_reference(small, cfg)
        assert np.array_equal(part.unit_of, ref_labels)
        assert np.array_equal(reps, ref_reps)
        assert np.all(part.sizes == 1)


class TestBatchAssignment:
    def test_single_batch_equals_plain_kmeans(self):
        ds = Dataset(sample_sphere(16, Seed(12).generator(), size=80))
        seed = Seed(13)
        inner = KMeansConfig(M=5, mode="sum", seed=seed)
        bpart, breps = batch_assignment(ds, 80, inner)
        kpart, kreps = spherical_kmeans(ds, KMeansConfig(
            M=5, mode="sum", seed=seed.child("batch0")))
        assert np.array_equal(bpart.unit_of, kpart.unit_of)
        assert np.array_equal(breps, kreps)

    def test_batches_get_disjoint_unit_ids(self):
        ds = Dataset(sample_sphere(16, Seed(14).generator(), size=100))
        part, reps = batch_assignment(ds, 40, KMeansConfig(M=3, mode="sum", seed=Seed(15)))
        assert part.M == 9  # 3 + 3 + 3 across batches of 40/40/20
        assert reps.shape == (9, 16)
        # batch i only uses unit ids [3i, 3i+3)
        assert np.all(part.unit_of[:40] < 3)
        assert np.all((part.unit_of[40:80] >= 3) & (part.unit_of[40:80] < 6))
        assert np.all(part.unit_of[80:] >= 6)

    def test_inner_seed_is_used(self):
        ds = Dataset(sample_sphere(16, Seed(16).generator(), size=100))
        a, b = (batch_assignment(ds, 40, KMeansConfig(M=8, mode="sum", seed=Seed(s)))[0]
                for s in (17, 18))
        assert not np.array_equal(a.unit_of, b.unit_of)

    def test_config_validation(self):
        ds = Dataset(sample_sphere(4, Seed(19).generator(), size=10))
        with pytest.raises(DomainError, match="inner must be a KMeansConfig"):
            batch_assignment(ds, 10, "random")
        with pytest.raises(DomainError, match="batch_size"):
            batch_assignment(ds, 0, KMeansConfig(M=2))
