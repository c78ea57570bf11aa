import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memvec import analytic as A
from memvec import assignment
from memvec.assignment import (
    KMeansConfig,
    Partition,
    batch_assignment,
    imbalance_factor,
    random_assignment,
    spherical_kmeans,
)
from memvec.construction import representatives
from memvec.core import FILE_NORM_TOL, Dataset
from memvec.errors import DimensionError, DomainError
from memvec.harness import experiments
from memvec.sampling import Seed, make_clustered_dataset, sample_cap_correlation, sample_sphere


def _members(p, j):
    return p.member_ids[p.offsets[j]:p.offsets[j + 1]]


class TestPartition:
    def test_sizes_and_members(self):
        p = Partition.from_labels(np.array([0, 1, 0, 2, 0]), 3)
        assert np.array_equal(p.sizes, [3, 1, 1])
        assert np.array_equal(_members(p, 0), [0, 2, 4])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            Partition.from_labels(np.array([0, 3]), 3)

    @pytest.mark.parametrize("unit_of", [np.array([], dtype=np.int64),
                                         np.zeros((2, 3), dtype=np.int64)],
                             ids=["empty", "2-d"])
    def test_labels_must_be_a_non_empty_1d_array(self, unit_of):
        with pytest.raises(DomainError, match="non-empty 1-d array"):
            Partition.from_labels(unit_of, 2)

    @pytest.mark.parametrize("unit_of", [[0.7, 1.9, 0.2], [True, False, True]],
                             ids=["float", "bool"])
    def test_non_integer_labels_rejected(self, unit_of):
        # once truncated to units [0, 1, 0], or read as 0 and 1
        with pytest.raises(DomainError, match="must be integers"):
            Partition.from_labels(np.array(unit_of), 2)

    def test_more_ids_than_int32_holds_rejected(self):
        # 2^31 labels as a zero-stride view: nothing of that size is allocated
        with pytest.raises(DomainError, match="at most 2147483647"):
            Partition.from_labels(np.broadcast_to(np.int64(0), 2**31), 1)

    def test_caller_array_stays_writeable(self):
        u = np.array([0, 1, 0], dtype=np.int64)
        p = Partition.from_labels(u, 2)
        assert u.flags.writeable
        for arr in (p.member_ids, p.offsets):
            assert not arr.flags.writeable
        u[0] = 1
        assert np.array_equal(p.unit_of, [0, 1, 0])  # the labels are not kept

    # the sort key narrows to uint8 up to M = 256, uint16 up to 65536, then uint32
    @pytest.mark.parametrize("M", [1, 256, 257, 65536, 65537])
    def test_order_matches_int64_stable_argsort(self, M):
        unit_of = np.random.default_rng(M).integers(0, M, size=3 * M + 5)
        unit_of[-1] = M - 1  # the largest id is present
        p = Partition.from_labels(unit_of, M)
        assert p.member_ids.dtype == np.int32 and p.unit_of.dtype == np.int64
        assert np.array_equal(p.member_ids, np.argsort(unit_of, kind="stable"))
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

    def test_unit_size_is_used_as_the_integer_it_converts_to(self):
        # True passes the integer check as 1, and once reached numpy's reshape as True
        a = random_assignment(60, True, Seed(3).generator())
        b = random_assignment(60, 1, Seed(3).generator())
        assert np.array_equal(a.member_ids, b.member_ids) and np.array_equal(a.offsets, b.offsets)

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
    """p equals the partition Partition.from_labels derives from its labels."""
    ref = Partition.from_labels(p.unit_of, p.M)
    assert p.M == ref.M and type(p.M) is int
    for name in ("member_ids", "offsets"):
        got, want = getattr(p, name), getattr(ref, name)
        assert got.dtype == np.int32 and not got.flags.writeable
        assert np.array_equal(got, want), name


class TestAssignmentCSR:
    """random_assignment builds the CSR itself; it, and the CSR of the
    partitions batch_assignment returns, must be the one
    Partition.from_labels derives from unit_of."""

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
        p = batch_assignment(ds, batch_size, KMeansConfig(M=M, mode="sum", max_iters=3,
                                                          seed=Seed(49)))
        _assert_same_as_rederived(p)


def _random_labels(N, n, seed):
    """The labels of random_assignment(N, n, seed.generator()): unit k
    holds the k-th chunk of the permutation."""
    labels = np.empty(N, dtype=np.int64)
    labels[seed.generator().permutation(N)] = np.arange(N) // n
    return labels


class TestLabelsNotKept:
    """A Partition holds its CSR and no N-length array besides ``member_ids``;
    ``unit_of``, rebuilt from the CSR, is the labels the assignment made
    (k-means: TestKMeansAgainstReference)."""

    @pytest.mark.parametrize("make", ["labels", "random", "kmeans", "batch"])
    def test_holds_only_the_csr(self, make):
        ds = Dataset(sample_sphere(8, Seed(50).generator(), size=60))
        p = {"labels": lambda: Partition.from_labels(np.arange(60) % 7, 7),
             "random": lambda: random_assignment(60, 7, Seed(51).generator()),
             "kmeans": lambda: spherical_kmeans(ds, KMeansConfig(M=7, mode="sum",
                                                                 max_iters=3))[0],
             "batch": lambda: batch_assignment(ds, 23, KMeansConfig(M=5, max_iters=3))}[make]()
        arrays = {name for name, v in vars(p).items() if isinstance(v, np.ndarray)}
        assert arrays == {"member_ids", "offsets"}
        assert p.member_ids.size == 60 and p.offsets.size == p.M + 1
        # neither is a view that pins a larger buffer
        for arr in (p.member_ids, p.offsets):
            assert arr.base is None or arr.base.nbytes == arr.nbytes

    @pytest.mark.parametrize("N, n", TestAssignmentCSR.SHAPES)
    def test_random_labels(self, N, n):
        p = random_assignment(N, n, Seed(52).generator())
        assert np.array_equal(p.unit_of, _random_labels(N, n, Seed(52)))

    @pytest.mark.parametrize("inner", [
        KMeansConfig(M=5, mode="pinv", max_iters=3, seed=Seed(54)),
        KMeansConfig(M=4, mode="sum", max_iters=3, seed=Seed(54))])
    def test_batch_labels(self, inner):
        ds = Dataset(sample_sphere(8, Seed(53).generator(), size=60))
        p = batch_assignment(ds, 23, inner)
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
        p = Partition.from_labels(np.array([0, 0, 0, 1]), 2)
        assert imbalance_factor(p) == pytest.approx(1.25, abs=1e-14)

    def test_size_stats_match_empirical_variance(self):
        # V[n_i] = (delta - 1) N^2 / M^2 around the mean N / M
        p = Partition.from_labels(np.array([0, 0, 0, 1, 2, 2]), 3)
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


def _check_repair(labels, M, seed):
    """Repair ``labels`` in place and check it against the replaced repair:
    the labels, the returned partition and each generator's next draw."""
    ref = labels.copy()
    rng, ref_rng = Seed(seed).generator(), Seed(seed).generator()
    part = assignment._fill_empty_units(labels, M, rng)
    _fill_empty_units_reference(ref, M, ref_rng)
    assert np.array_equal(labels, ref)
    expected = Partition.from_labels(ref, M)
    assert np.array_equal(part.member_ids, expected.member_ids)
    assert np.array_equal(part.offsets, expected.offsets)
    assert rng.integers(2**62) == ref_rng.integers(2**62)


def _kmeans_reference(dataset, cfg):
    """spherical_kmeans with the full (N, M) score matrix and the replaced
    repair: the loop the library replaced. Returns its last labels, not a
    partition, so they are compared with ``unit_of`` as made."""
    X = dataset.vectors
    rng = cfg.seed.generator()
    reps = X[rng.choice(dataset.size, size=cfg.M, replace=False)]
    labels = None
    for _ in range(cfg.max_iters):
        new_labels = np.argmax(X @ reps.T, axis=1)
        _fill_empty_units_reference(new_labels, cfg.M, rng)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        part = Partition.from_labels(labels, cfg.M)
        reps = representatives(X, part, cfg.mode)
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

    @pytest.fixture(params=["blas", "in-order"])
    def summation(self, request, monkeypatch):
        """The float32 screen must hold for any summation order: "in-order"
        sums each float32 dot product term by term, one rounding per product
        and per addition, the order in which ``_swamped_pair`` loses most."""
        if request.param == "blas":
            return
        matmul = np.matmul

        def in_order(a, b, out=None):
            if a.dtype != np.float32:
                return matmul(a, b, out=out)
            acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
            for i in range(a.shape[1]):
                acc += a[:, i, None] * b[i]
            if out is None:
                return acc
            out[...] = acc
            return out

        monkeypatch.setattr(np, "matmul", in_order)

    @staticmethod
    def _swamped_pair(d):
        """A row x and units A, B (ids 0, 1) with x . A - x . B =
        (1 - (d - 1) 2^-10) 2^-23 > 0, for d <= 1024. Summed in order in
        float32, x . A loses each of its d - 1
        small terms (each just under half an ulp of the partial sum) and
        x . B rounds each of its own up by an ulp: B leads by (d - 2) 2^-23.
        Every value is a float32, and A's norm is in [1, 2), so its band is
        scaled by 1/2: the float32 gap is (d - 2) 2^-24, under the screen's
        margin 2 (d + 3) 2^-24 ||x|| R but over half of it."""
        small = 2.0**-12
        x = np.full(d, small)
        x[0] = 1.0
        A = np.full(d, small * (1 - 2.0**-10))
        A[0] = 1 + 2.0**-23
        B = np.full(d, small * (1 + 2.0**-10))
        B[0] = 1.0
        return x, np.vstack([A, B])

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
        return best > assignment._MAX_NORM * rn[~long_].max()

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
        # float32 rows, as spherical_kmeans gets them from a file
        X32 = X.astype(np.float32)
        assert self._pruned(X32, R).any()
        self._check(X32, R)

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

    def test_rows_at_the_dataset_norm_cap_stay_open(self, blocks):
        # ||x|| = 1 + 0.9 FILE_NORM_TOL, which Dataset accepts. The long unit
        # (band 1) scores 1 + 4e-5, over the short unit's bound at ||x|| = 1,
        # but the short unit e0 (band 2) scores ||x|| and wins: the bound
        # must hold for every row norm the check lets through
        scale = 1.0 + 0.9 * FILE_NORM_TOL
        a = 0.99995 / 2.5
        long_ = 2.5 * np.array([a, np.sqrt(1.0 - a * a), 0.0])
        R = np.vstack([np.eye(3)[0], long_])
        X = Dataset(scale * np.eye(3)[:1]).vectors
        assert (X @ R.T)[0, 1] > 1.0
        assert np.array_equal(self._check(X, R), [0])

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
        closed = np.full(len(X), len(tops))
        for b in range(len(tops) - 1, 0, -1):
            best = scores[:, rn >= 0.5 * tops[b - 1]].max(axis=1)
            closed[best > assignment._MAX_NORM * tops[b]] = b
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_small_bands_gather_small_blocks(self, dtype):
        # one unit per band and almost no pruning: every band is scored
        # over nearly all rows, in blocks of about BLOCK_FLOATS floats
        X = sample_sphere(64, Seed(40).generator(), size=20_000).astype(dtype)  # 10 MB in float64
        R = sample_sphere(64, Seed(41).generator(), size=8) * 0.3 ** np.arange(8)[:, None]
        tracemalloc.start()
        try:
            got = assignment._nearest(X, R)
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

    def test_scores_float32_cannot_order(self, blocks, summation):
        d = 128
        x, R = self._swamped_pair(d)
        # r and r + 1e-9 e_k are one float32 unit; y = r scores the second higher
        r = sample_sphere(d, Seed(44).generator(), size=1)[0]
        k = int(np.argmax(r))
        R = np.vstack([R, r, r + 1e-9 * np.eye(d)[k]])
        assert np.array_equal(R[2].astype(np.float32), R[3].astype(np.float32))
        X = np.vstack([x, r, x, r, sample_sphere(d, Seed(45).generator(), size=20)])
        assert np.array_equal(self._check(X, R)[:4], [0, 3, 0, 3])

    @pytest.mark.parametrize("K", [100, 140])
    def test_bands_far_outside_unit_norm(self, blocks, summation, K):
        # bands at norms 2^K and 2^-K: about 1e+-30, and beyond float32's
        # range (3.4e38); a RuntimeWarning fails the test. x takes the long
        # band; -x scores below 0 there and takes the short one
        x, R = self._swamped_pair(128)
        R = np.vstack([2.0**K * R, -(2.0**-K) * R])
        X = np.vstack([x, -x, x, -x])
        assert np.array_equal(self._check(X, R), [0, 2, 0, 2])

    def test_float64_rows_off_the_float32_grid(self, blocks, summation):
        d = 128
        x, R = self._swamped_pair(d)
        # within 1e-10 of x relative, so each row casts to x in float32
        X = x * (1.0 + 1e-10 * Seed(46).generator().uniform(-1.0, 1.0, size=(6, d)))
        X = Dataset(np.vstack([X, sample_sphere(d, Seed(47).generator(), size=20)])).vectors
        assert X.dtype == np.float64
        assert np.all(X[:6].astype(np.float32) == x.astype(np.float32))
        assert np.all(np.any(X.astype(np.float32) != X, axis=1))
        R = np.vstack([R, sample_sphere(d, Seed(48).generator(), size=10)])
        assert np.array_equal(self._check(X, R)[:6], np.zeros(6))

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
        labels = assignment._nearest(X, reps)
        assert np.unique(labels).size <= 8
        _check_repair(labels, M, 41)
        assert np.all(np.bincount(labels, minlength=M) > 0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 300), st.sampled_from(["skewed", "ties", "uniform", "drain"]),
           st.integers(0, 2**32 - 1))
    def test_empty_unit_repair_matches_reference_on_random_labels(self, M, shape, seed):
        rng = np.random.default_rng(seed)
        N = M if shape == "drain" else int(rng.integers(M, 4 * M + 1))
        used = int(rng.integers(1, M + 1))
        if shape == "skewed":  # a few units hold nearly everything
            weights = 0.5 ** np.arange(used)
            local = rng.choice(used, size=N, p=weights / weights.sum())
        elif shape == "ties":  # equal donors, the remainder in the first ones
            local = np.arange(N) % used
        else:
            local = rng.integers(used, size=N)
        labels = rng.choice(M, size=used, replace=False)[rng.permutation(local)]
        _check_repair(labels, M, seed)
        assert np.all(np.bincount(labels, minlength=M) > 0)

    @pytest.mark.parametrize("M", [2, 256, 257, 65536, 65537])
    def test_empty_unit_repair_across_key_widths(self, M):
        rng = np.random.default_rng(M)
        labels = rng.permutation(np.repeat(np.arange(M), 2))
        # every unit holds two; empty up to five into their next neighbours,
        # which become the largest units the repair steals from
        for j in rng.choice(M, size=min(5, M - 1), replace=False):
            labels[labels == j] = (j + 1) % M
        _check_repair(labels, M, 43)
        assert np.all(np.bincount(labels, minlength=M) > 0)

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
        bpart = batch_assignment(ds, 80, inner)
        kpart, _ = spherical_kmeans(ds, KMeansConfig(
            M=5, mode="sum", seed=seed.child("batch0")))
        assert np.array_equal(bpart.unit_of, kpart.unit_of)

    def test_batches_get_disjoint_unit_ids(self):
        ds = Dataset(sample_sphere(16, Seed(14).generator(), size=100))
        part = batch_assignment(ds, 40, KMeansConfig(M=3, mode="sum", seed=Seed(15)))
        assert part.M == 9  # 3 + 3 + 3 across batches of 40/40/20
        # batch i only uses unit ids [3i, 3i+3)
        assert np.all(part.unit_of[:40] < 3)
        assert np.all((part.unit_of[40:80] >= 3) & (part.unit_of[40:80] < 6))
        assert np.all(part.unit_of[80:] >= 6)

    def test_inner_seed_is_used(self):
        ds = Dataset(sample_sphere(16, Seed(16).generator(), size=100))
        a, b = (batch_assignment(ds, 40, KMeansConfig(M=8, mode="sum", seed=Seed(s)))
                for s in (17, 18))
        assert not np.array_equal(a.unit_of, b.unit_of)

    def test_config_validation(self):
        ds = Dataset(sample_sphere(4, Seed(19).generator(), size=10))
        with pytest.raises(DomainError, match="inner must be a KMeansConfig"):
            batch_assignment(ds, 10, "random")
        with pytest.raises(DomainError, match="batch_size"):
            batch_assignment(ds, 0, KMeansConfig(M=2))


@pytest.mark.parametrize("call", [
    lambda ds, rng: KMeansConfig(M=2.5),
    lambda ds, rng: KMeansConfig(M=2, max_iters=1.5),
    lambda ds, rng: random_assignment(50, 2.5, rng),
    lambda ds, rng: random_assignment(10.5, 2, rng),
    lambda ds, rng: batch_assignment(ds, 2.5, KMeansConfig(M=2)),
    lambda ds, rng: Partition.from_labels(np.array([0, 1, 0]), 2.5),
    lambda ds, rng: sample_sphere(8, rng, size=2.5),
    lambda ds, rng: sample_cap_correlation(0.5, 16, rng, size=2.5),
    lambda ds, rng: make_clustered_dataset(2, 3.5, 8, 0.5, rng),
    lambda ds, rng: make_clustered_dataset(2.0, 3, 8, 0.5, rng),
    lambda ds, rng: A.threshold_for("pinv", 0.9, 2.5, 16, 0.01),
    lambda ds, rng: A.score_law("sum", 0.5, 4, 16.5),
    lambda ds, rng: A.score_sf_log(0.1, 1.0, 2.5),
    lambda ds, rng: A.cap_moment(1, 0.5, 2.5),
    lambda ds, rng: A.cap_stats("sum", 0.5, 16, 2.5, 0.5),
    lambda ds, rng: A.cap_stats("pinv", 0.5, 16.0, 4, 0.5),
    lambda ds, rng: experiments.simulate_unit_scores(16, 4, 0.9, "pinv", 2.5, rng),
    lambda ds, rng: experiments.measure_cost("sum", 4, 16, 0.9, 0.05, 2.5, 2, Seed(1)),
    lambda ds, rng: experiments.run_assignment_report(ds, ["random"], 2, [0], 0.9, 0.7,
                                                      n_queries=2.5, top_k=1, seed=Seed(1)),
    lambda ds, rng: experiments.run_assignment_report(ds, ["random"], 2, [0], 0.9, 0.7,
                                                      n_queries=2, top_k=1.5, seed=Seed(1)),
    # once compared with top_k, a TypeError, before KMeansConfig checked it
    lambda ds, rng: experiments.run_assignment_report(ds, ["random"], "4", [0], 0.9, 0.7,
                                                      n_queries=2, top_k=1, seed=Seed(1)),
], ids=["kmeans-M", "kmeans-max_iters", "random-n", "random-N", "batch_size", "from_labels-M",
        "sample-size", "cap-size", "clustered-per_cluster", "clustered-K",
        "threshold_for-n", "score_law-d", "score_sf_log-d", "cap_moment-d",
        "cap_stats-n", "cap_stats-d", "simulate-trials", "cost-N",
        "report-n_queries", "report-top_k", "report-M"])
def test_non_integer_count_is_a_domain_error(call):
    # each once raised numpy's TypeError from deep inside
    ds = Dataset(sample_sphere(4, Seed(19).generator(), size=10))
    with pytest.raises(DomainError, match="must be an integer|must be integers"):
        call(ds, Seed(20).generator())


def test_assignment_report_names_the_count_it_was_given():
    # a float M once failed as the unit size N // M: "n must be an integer"
    ds = Dataset(sample_sphere(4, Seed(19).generator(), size=10))
    with pytest.raises(DomainError, match="^M must be an integer"):
        experiments.run_assignment_report(ds, ["random"], 6.5, [0], 0.9, 0.7,
                                          n_queries=2, top_k=1, seed=Seed(1))


@pytest.mark.parametrize("kwargs, says", [
    ({"mode": "foo"}, "unknown k-means mode 'foo'"),
    ({"seed": 3}, "seed must be a Seed, not int"),  # once an AttributeError in the run
], ids=["mode", "seed"])
def test_kmeans_config_rejects(kwargs, says):
    with pytest.raises(DomainError, match=says):
        KMeansConfig(M=5, **kwargs)


@pytest.mark.parametrize("call", [
    lambda rng: sample_sphere(2.5, rng, 3),
    lambda rng: sample_cap_correlation(0.5, 16.0, rng, size=2),
    lambda rng: make_clustered_dataset(2, 3, 8.0, 0.5, rng),
], ids=["sample-d", "cap-d", "clustered-d"])
def test_non_integer_dimension_is_a_dimension_error(call):
    with pytest.raises(DimensionError, match="d must be an integer"):
        call(Seed(20).generator())
