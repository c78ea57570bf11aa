import gc
import logging
import tracemalloc
import weakref

import numpy as np
import pytest

from memvec import search
from memvec.assignment import random_assignment
from memvec.construction import ConstructionConfig
from memvec.core import ID_DTYPE, Dataset, MemoryIndex, Partition
from memvec.errors import DimensionError, DomainError, ModelError, NormalizationError
from memvec.harness.evaluation import cosine_ground_truth
from memvec.sampling import Seed, h1_queries, sample_sphere
from memvec.search import BinaryIndex, binarize, build_index, query, query_batch, query_binary

from oracles import as_lists, asymmetric_inner, hamming_inner, sign_code


def _units(index):
    """Member ids of each unit of a MemoryIndex or BinaryIndex, from the
    CSR arrays of its partition."""
    return np.split(index.partition.member_ids, index.partition.offsets[1:-1])


def _binary_index(rows, unit_of):
    """Sketch of the normalized rows, grouped into units by ``unit_of``."""
    rows = np.asarray(rows, dtype=np.float64)
    data = Dataset(rows / np.linalg.norm(rows, axis=1, keepdims=True))
    part = Partition.from_labels(np.asarray(unit_of), max(unit_of) + 1)
    return binarize(build_index(data, part, ConstructionConfig(kind="sum")), data)


@pytest.fixture(scope="module")
def small_index():
    data = Dataset(sample_sphere(32, Seed(20).generator(), size=120))
    part = random_assignment(120, 8, Seed(21).generator())
    index = build_index(data, part, ConstructionConfig(kind="pinv"))
    return data, index


class TestBuildIndex:
    def test_pinv_constraints(self, small_index):
        data, index = small_index
        for j, ids in enumerate(_units(index)):
            devs = data.vectors[ids] @ index.representatives[j] - 1.0
            assert np.max(np.abs(devs)) < 1e-9

    def test_partition_of_another_size_rejected(self, small_index):
        data, index = small_index
        with pytest.raises(DimensionError, match="partition size does not match"):
            build_index(Dataset(data.vectors[:100]), index.partition,
                        ConstructionConfig(kind="sum"))

    def test_sum_representatives(self):
        data = Dataset(sample_sphere(16, Seed(22).generator(), size=20))
        part = random_assignment(20, 5, Seed(23).generator())
        index = build_index(data, part, ConstructionConfig(kind="sum"))
        for j, ids in enumerate(_units(index)):
            expect = data.vectors[ids].sum(axis=0)
            assert np.allclose(index.representatives[j], expect, atol=1e-14)

    def test_pinv_fallback_logged(self, caplog):
        X = sample_sphere(16, Seed(36).generator(), size=20)
        part = Partition.from_labels(np.arange(20) // 5, 4)
        with caplog.at_level(logging.WARNING, logger="memvec"):
            build_index(Dataset(X), part, ConstructionConfig(kind="pinv"))
            assert not caplog.records
            X = X.copy()
            X[1] = X[0]  # a duplicated member in unit 0
            build_index(Dataset(X), part, ConstructionConfig(kind="pinv"))
        [record] = caplog.records
        assert record.name == "memvec" and record.levelno == logging.WARNING
        assert "1 of 4 units" in record.getMessage()

    def test_pinv_set_up_keeps_only_the_index(self):
        # the paper's operating point d = 1000, n = 50: set-up may exceed what
        # the index and partition keep by one batch of gathered members
        # (50 x 1000 floats, 0.38 MiB) and small temporaries, nothing of index size
        N, n = 2000, 50
        X = sample_sphere(1000, Seed(46).generator(), size=N)
        tracemalloc.start()
        try:
            data = Dataset(X)
            part = random_assignment(N, n, Seed(47).generator())
            index = build_index(data, part, ConstructionConfig(kind="pinv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the index holds the partition itself, not copies of its arrays
        assert index.partition is part
        kept = sum(a.nbytes for a in (index.representatives, part.member_ids, part.offsets))
        assert peak - kept < 2**19

    def test_set_up_stages_make_no_index_sized_temporaries(self):
        # N = 200k, where one int64 id array is 1.6 MB: each stage may add
        # at most half of one to what it returns or was given
        N, n = 200_000, 10
        t = np.linspace(0.0, 6.0, N)
        X = np.stack([np.cos(t), np.sin(t)], axis=1)

        def peak(call):
            tracemalloc.start()
            try:
                return call(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, p = peak(lambda: Dataset(X))
        assert p < N * 4
        part, p = peak(lambda: random_assignment(N, n, Seed(48).generator()))
        assert p - (part.member_ids.nbytes + part.offsets.nbytes) < N * 4
        reps = np.zeros((part.M, 64))  # an (M, d) bool mask would be 1.28 MB
        _, p = peak(lambda: MemoryIndex(reps, part, "pinv"))
        assert p < N  # nor an N-byte permutation mask: the partition checked it


class TestQuery:
    def test_recount_oracle(self, small_index):
        # recompute everything brute-force and compare
        data, index = small_index
        y = sample_sphere(32, Seed(24).generator(), size=1)[0]
        tau = 0.2
        res = query(index, data, y, tau=tau)

        scores = index.representatives @ y
        expect_pos = [j for j in range(index.partition.M) if scores[j] > tau]
        assert [j for j, _ in res.positive_units] == expect_pos
        expect_ids = set()
        scanned = 0
        for j in expect_pos:
            expect_ids |= set(_units(index)[j].tolist())
            scanned += _units(index)[j].size
        assert set(i for i, _ in res.candidates) == expect_ids
        assert res.complexity == index.partition.M + scanned
        assert res.complexity_ratio == pytest.approx(res.complexity / 120)
        # candidates sorted by descending true similarity
        sims = [s for _, s in res.candidates]
        assert sims == sorted(sims, reverse=True)
        for i, s in res.candidates:
            assert s == pytest.approx(float(data.vectors[i] @ y), abs=1e-15)

    def test_impossible_threshold_scans_nothing(self, small_index):
        data, index = small_index
        y = sample_sphere(32, Seed(25).generator(), size=1)[0]
        res = query(index, data, y, tau=2.0)
        assert len(res.candidates) == 0 and len(res.positive_units) == 0
        assert res.complexity == index.partition.M

    def test_low_threshold_is_exhaustive(self, small_index):
        data, index = small_index
        y = sample_sphere(32, Seed(26).generator(), size=1)[0]
        res = query(index, data, y, tau=-np.inf)
        assert len(res.candidates) == data.size
        assert res.complexity == index.partition.M + data.size

    def test_top_units_mode(self, small_index):
        data, index = small_index
        y = sample_sphere(32, Seed(27).generator(), size=1)[0]
        res = query(index, data, y, top_units=3)
        scores = index.representatives @ y
        expect = np.sort(np.argsort(-scores, kind="stable")[:3])
        assert [j for j, _ in res.positive_units] == expect.tolist()

    def test_selector_exclusivity(self, small_index):
        data, index = small_index
        y = sample_sphere(32, Seed(28).generator(), size=1)[0]
        with pytest.raises(DomainError):
            query(index, data, y)
        with pytest.raises(DomainError):
            query(index, data, y, tau=0.1, top_units=2)

    def test_tie_break_lower_id(self):
        # two identical vectors in different units: tie resolves to lower id
        v = np.zeros(4)
        v[0] = 1.0
        w = np.zeros(4)
        w[1] = 1.0
        data = Dataset(np.vstack([v, w, v, w]))
        part = random_assignment(4, 2, Seed(29).generator())
        index = build_index(data, part, ConstructionConfig(kind="sum"))
        res = query(index, data, v, tau=-2.0)
        ids = [i for i, _ in res.candidates]
        assert ids.index(0) < ids.index(2)
        assert ids.index(1) < ids.index(3)


class TestQueryBatch:
    """``query_batch`` answers each row as ``query`` does, a block of rows at a time."""

    @staticmethod
    def _pool(data, k=7):
        # H1-like rows near dataset vectors, so some units pass a high tau
        rng = Seed(110).generator()
        return h1_queries(data.vectors[rng.integers(data.size, size=k)], 0.8, rng)

    @pytest.mark.parametrize("select", [{"tau": 0.3}, {"tau": -np.inf}, {"top_units": 3}])
    @pytest.mark.parametrize("rows, blocks", [(None, [7]), (1, [1] * 7), (7, [7]),
                                              (6, [6, 1])],
                             ids=["default", "row-blocks", "one-block", "block-plus-row"])
    def test_rows_answer_as_query(self, small_index, monkeypatch, select, rows, blocks):
        data, index = small_index
        Q = self._pool(data)
        if rows is not None:
            monkeypatch.setattr(search, "BLOCK_FLOATS", rows * index.partition.M)
        seen, checked = [], search._checked_query
        monkeypatch.setattr(search, "_checked_query",
                            lambda Y, d: seen.append(len(Y)) or checked(Y, d))
        got = list(query_batch(index, data, Q, **select))
        assert seen == blocks
        assert len(got) == len(Q)
        for y, b in zip(Q, got):
            r = query(index, data, y, **select)
            for field in ("id", "sim"):
                assert np.array_equal(b.candidates[field], r.candidates[field])
            assert np.array_equal(b.positive_units["unit"], r.positive_units["unit"])
            assert (b.complexity, b.complexity_ratio) == (r.complexity, r.complexity_ratio)
            # a GEMM over the block may sum in another order than a GEMV
            want = r.positive_units["score"]
            assert np.all(np.abs(b.positive_units["score"] - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_no_rows_yield_nothing_but_selector_is_checked(self, small_index):
        data, index = small_index
        assert list(query_batch(index, data, np.empty((0, 32)), tau=0.5)) == []
        for bad in ({"tau": np.nan}, {"top_units": -1}, {}, {"tau": 0.5, "top_units": 2}):
            with pytest.raises(DomainError):
                query_batch(index, data, np.empty((0, 32)), **bad)

    def test_bad_rows_rejected(self, small_index):
        data, index = small_index
        Q = self._pool(data)
        nan_row, scaled = Q.copy(), Q.copy()
        nan_row[5, 0] = np.nan
        scaled[2] *= 3.0
        for bad, error in ((Q[:, :31], DimensionError), (Q[0], DimensionError),
                           (Q[None], DimensionError), (nan_row, NormalizationError),
                           (scaled, NormalizationError)):
            with pytest.raises(error):
                list(query_batch(index, data, bad, tau=0.5))

    def test_dataset_must_match_index(self, small_index):
        data, index = small_index
        with pytest.raises(DimensionError):
            query_batch(index, Dataset(data.vectors[:100]), self._pool(data), tau=0.5)


class TestGather:
    """Both query paths gather members by ``Partition.members_of``: against
    one slice per positive unit, on uneven units whose members are scattered."""

    SIZES = (1, 2, 7, 40)

    @pytest.fixture(scope="class", params=[np.float64, np.float32])
    def uneven(self, request):
        rng = Seed(60).generator()
        N, d = sum(self.SIZES), 24
        unit_of = rng.permutation(np.repeat(np.arange(len(self.SIZES)), self.SIZES))
        rows = sample_sphere(d, rng, size=N).astype(request.param)
        data = Dataset(rows)
        index = build_index(data, Partition.from_labels(unit_of, len(self.SIZES)),
                            ConstructionConfig(kind="sum"))
        assert index.partition.sizes.tolist() == list(self.SIZES)
        return data, index, binarize(index, data)

    @staticmethod
    def _slices(part, units):
        """The member ids of ``units``: one CSR slice per unit, concatenated."""
        members = [part.member_ids[part.offsets[j]:part.offsets[j + 1]] for j in units]
        return np.concatenate([np.empty(0, dtype=part.member_ids.dtype)] + members)

    @classmethod
    def _slice_oracle(cls, part, vectors, y, pos):
        ids = cls._slices(part, pos)
        sims = vectors[ids] @ y
        order = np.lexsort((ids, -sims))
        return ids[order].tolist(), sims[order].tolist()

    @pytest.mark.parametrize("units", [[], [1], [3], [0, 1, 2, 3, 4, 5], [5, 4, 1, 0],
                                       [3, 3, 1, 3], [4, 1, 4]],
                             ids=["none", "empty", "one", "all", "unsorted", "repeated",
                                  "empty-repeated"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_members_of(self, units, dtype):
        # units 1 and 4 are empty; members are scattered over the ids
        sizes = (1, 0, 2, 7, 0, 40)
        unit_of = Seed(62).generator().permutation(np.repeat(np.arange(6), sizes))
        part = Partition.from_labels(unit_of, len(sizes))
        units = np.array(units, dtype=dtype)
        got = part.members_of(units)
        assert got.dtype == ID_DTYPE
        assert np.array_equal(got, self._slices(part, units))

    def _check(self, res, part, vectors, y):
        pos = [j for j, _ in res.positive_units]
        ids, sims = self._slice_oracle(part, vectors, y, pos)
        assert [i for i, _ in res.candidates] == ids
        assert [s for _, s in res.candidates] == sims
        assert res.complexity == part.M + sum(self.SIZES[j] for j in pos)
        assert res.complexity_ratio == res.complexity / part.N
        # Python scalars, as the CLI writes them with repr
        for pairs in (res.candidates.tolist(), res.positive_units.tolist()):
            assert all(type(i) is int and type(s) is float for i, s in pairs)
        return pos

    @pytest.mark.parametrize("select", [{"tau": -np.inf}, {"tau": 0.0}, {"tau": 2.0},
                                        {"top_units": 0}, {"top_units": 1},
                                        {"top_units": len(SIZES)}])
    def test_query(self, uneven, select):
        data, index, _ = uneven
        for k in range(8):
            y = sample_sphere(24, Seed(61 + k).generator(), size=1)[0]
            res = query(index, data, y, **select)
            pos = self._check(res, index.partition, data.vectors, y)
            scores = index.representatives @ y
            assert [s for _, s in res.positive_units] == scores[pos].tolist()
            if "top_units" in select:
                assert len(pos) == select["top_units"]

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("select", [{"tau": 0.0}, {"top_units": 2}])
    def test_query_binary(self, uneven, mode, select):
        data, _, bindex = uneven
        for k in range(8):
            y = sample_sphere(24, Seed(71 + k).generator(), size=1)[0]
            res = query_binary(bindex, y, mode=mode, **select)
            self._check(res, bindex.partition, data.vectors, y)

    def test_equal_sims_rank_like_lexsort(self, uneven):
        # two rows of unit 2 repeat three times each in unit 3: a scan over
        # all units holds equal sims and takes the lexsort path, one over
        # units 0-2 holds none and keeps the argsort order
        data, index, _ = uneven
        rows = data.vectors.copy()
        two, three = _units(index)[2:]
        rows[three[:6]] = rows[two[:2]].repeat(3, axis=0)
        y = sample_sphere(24, Seed(80).generator(), size=1)[0]
        for scores, ties in ((np.ones(4), True), (np.array([1.0, 1.0, 1.0, -1.0]), False)):
            res = next(search._scan(index.partition, rows, y[None], lambda Y: scores[None],
                                    0.0, None))
            sims = [s for _, s in res.candidates]
            assert (len(set(sims)) < len(sims)) == ties
            self._check(res, index.partition, rows, y)

    def test_top_units_ties_in_a_block(self, uneven):
        # one block of rows tied in different places: each row keeps the lower
        # unit ids at its cut, as a one-row call does
        data, index, _ = uneven
        S = np.array([[1.0, 1.0, 1.0, 1.0],     # all tie: units 0 and 1
                      [0.9, 0.5, 0.1, 0.5],     # units 1 and 3 tie at the cut
                      [0.1, 0.5, 0.5, 0.9]])    # unit 3, then units 1 and 2 tie
        Q = sample_sphere(24, Seed(81).generator(), size=3)
        block = list(search._scan(index.partition, data.vectors, Q, lambda Y: S, None, 2))
        for i, (want, res) in enumerate(zip(([0, 1], [0, 1], [1, 3]), block)):
            one = next(search._scan(index.partition, data.vectors, Q[i:i + 1],
                                    lambda Y: S[i:i + 1], None, 2))
            assert res.positive_units["unit"].tolist() == want
            assert one.positive_units["unit"].tolist() == want
            self._check(res, index.partition, data.vectors, Q[i])


class TestQueryBoundary:
    """Both query paths reject bad input instead of answering."""

    @staticmethod
    def _paths(data, index):
        bindex = binarize(index, data)
        return (lambda y, tau: query(index, data, y, tau=tau),
                lambda y, tau: query_binary(bindex, y, tau=tau))

    def test_nan_tau_rejected(self, small_index):
        y = sample_sphere(32, Seed(37).generator(), size=1)[0]
        for run in self._paths(*small_index):
            with pytest.raises(DomainError):
                run(y, np.nan)

    def test_bad_query_vector_rejected(self, small_index):
        y = sample_sphere(32, Seed(38).generator(), size=1)[0]
        bad_nan = y.copy()
        bad_nan[0] = np.nan
        for run in self._paths(*small_index):
            for bad in (3.0 * y, bad_nan, np.full(32, np.inf)):
                with pytest.raises(NormalizationError):
                    run(bad, 0.5)

    def test_rows_at_the_tolerance_follow_the_dataset_rule(self):
        # one unit-row rule: a row a dataset holds is a query both paths and the
        # ground truth answer, and a row it refuses is a query they refuse
        short = np.full(128, 1 / np.sqrt(128)) * 0.9999
        data = Dataset(np.vstack([short, np.eye(128)[:7]]))
        index = build_index(data, random_assignment(8, 4, Seed(50).generator()),
                            ConstructionConfig(kind="sum"))
        for run in self._paths(data, index):
            run(data.vectors[0], 0.0)
        cosine_ground_truth(data, data.vectors[:1], 0.5)
        long = np.full(16, 0.25) * 1.0001
        with pytest.raises(NormalizationError, match="not unit vectors"):
            Dataset(long[None])
        data = Dataset(np.eye(16))
        index = build_index(data, random_assignment(16, 4, Seed(51).generator()),
                            ConstructionConfig(kind="sum"))
        for run in self._paths(data, index) + (lambda y, _: cosine_ground_truth(data, y, 0.5),):
            with pytest.raises(NormalizationError, match="not unit vectors"):
                run(long, 0.0)

    def test_query_of_wrong_dimension_rejected(self, small_index):
        # a unit vector, so only its length is at fault
        for d in (31, 33):
            y = sample_sphere(d, Seed(48).generator(), size=1)[0]
            for run in self._paths(*small_index):
                with pytest.raises(DimensionError):
                    run(y, 0.5)
        with pytest.raises(DimensionError):  # the symmetric path checks too
            query_binary(binarize(small_index[1], small_index[0]),
                         sample_sphere(31, Seed(48).generator(), size=1)[0], tau=0.5, mode="symmetric")

    def test_dataset_must_match_index(self, small_index):
        data, index = small_index
        other = Dataset(data.vectors[:100])
        y = sample_sphere(32, Seed(39).generator(), size=1)[0]
        with pytest.raises(DimensionError):
            query(index, other, y, tau=0.5)
        with pytest.raises(DimensionError):  # the sketch checks when built
            binarize(index, other)

    def test_bad_selector_types_rejected(self, small_index):
        data, index = small_index
        bindex = binarize(index, data)
        y = sample_sphere(32, Seed(49).generator(), size=1)[0]
        for run in (lambda **kw: query(index, data, y, **kw),
                    lambda **kw: query_binary(bindex, y, **kw)):
            for bad in ({"top_units": 2.5}, {"top_units": "3"}, {"tau": "0.5"},
                        {"top_units": -1}):
                with pytest.raises(DomainError):
                    run(**bad)


class TestBinaryPrimitives:
    def test_hand_coded_bits(self):
        v = np.array([0.3, -0.1, 0.7, 0.2, -0.5, -0.9, 0.4, -0.2])
        assert sign_code(v).tolist() == [True, False, True, True,
                                         False, False, True, False]
        # packed most significant bit first, pad bits 0 up to a whole 8-byte word
        v13 = np.concatenate([v, [0.1, -0.3, -0.2, 0.5, 0.6]])
        bindex = _binary_index(np.vstack([v13, -v13]), [0, 0])
        assert search._pack_signs(bindex.dataset.vectors).tolist() == [
            [0b10110010, 0b10011000] + [0] * 6, [0b01001101, 0b01100000] + [0] * 6]
        # the sum of a row and its negation is 0, whose 13 bits are all set
        assert bindex.unit_codes.tolist() == [[0b11111111, 0b11111000] + [0] * 6]
        bindex = _binary_index(np.array([[1.0], [-1.0]]), [0, 1])
        assert search._pack_signs(bindex.dataset.vectors).tolist() == [[0b10000000] + [0] * 7,
                                                                       [0] * 8]
        assert bindex.unit_codes.tolist() == [[0b10000000] + [0] * 7, [0] * 8]

    def test_zero_maps_to_positive_bit(self):
        assert search._pack_signs(np.array([[0.0], [-0.0]])).tolist() == [
            [0b10000000] + [0] * 7] * 2

    def test_hamming_identity_exhaustive_d8(self):
        rng = Seed(30).generator()
        for _ in range(100):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            ca, cb = sign_code(a), sign_code(b)
            pm = lambda c: np.where(c, 1.0, -1.0)
            assert hamming_inner(ca, cb) == int(pm(ca) @ pm(cb))

    def test_asymmetric_identity(self):
        rng = Seed(31).generator()
        for _ in range(50):
            y = rng.standard_normal(16)
            c = sign_code(rng.standard_normal(16))
            expect = float(np.where(c, 1.0, -1.0) @ y)
            assert asymmetric_inner(y, c) == pytest.approx(expect, abs=1e-12)


class TestQueryBinary:
    def test_symmetric_scores_are_normalized_hamming(self, small_index):
        data, index = small_index
        bindex = binarize(index, data)
        y = sample_sphere(32, Seed(32).generator(), size=1)[0]
        res = query_binary(bindex, y, tau=-2.0, mode="symmetric")
        cy = sign_code(y)
        for j, s in res.positive_units:
            bits = np.unpackbits(bindex.unit_codes[j], count=32)
            expect = hamming_inner(bits, cy) / 32
            assert s == pytest.approx(expect, abs=1e-12)

    def test_asymmetric_scores(self, small_index):
        data, index = small_index
        bindex = binarize(index, data)
        y = sample_sphere(32, Seed(33).generator(), size=1)[0]
        res = query_binary(bindex, y, tau=-np.inf, mode="asymmetric")
        for j, s in res.positive_units:
            bits = np.unpackbits(bindex.unit_codes[j], count=32)
            expect = asymmetric_inner(y, bits) / np.sqrt(32)
            assert s == pytest.approx(expect, abs=1e-12)

    def test_real_rerank_matches_real_pipeline_order(self, small_index):
        # with every unit positive, binary + real rerank = exhaustive search
        data, index = small_index
        bindex = binarize(index, data)
        y = sample_sphere(32, Seed(34).generator(), size=1)[0]
        rb = query_binary(bindex, y, tau=-2.0, mode="symmetric")
        rr = query(index, data, y, tau=-np.inf)
        assert rb.candidates.tolist() == rr.candidates.tolist()

    def test_unknown_modes(self, small_index):
        data, index = small_index
        bindex = binarize(index, data)
        y = sample_sphere(32, Seed(36).generator(), size=1)[0]
        with pytest.raises(DomainError, match="unknown binary mode 'hashy'"):
            query_binary(bindex, y, tau=0.0, mode="hashy")


def _oracle(bindex, y, mode, tau, top_units):
    """query_binary recomputed on unpacked bool codes, as positive unit ids,
    unit scores, candidate ids and candidate scores."""
    d = bindex.dataset.dim
    bits = lambda codes: np.unpackbits(codes, axis=1, count=d).astype(bool)
    # row by row, so rows with equal codes get equal scores
    if mode == "symmetric":
        score = lambda c: np.array([hamming_inner(r, sign_code(y)) / d for r in c])
    else:
        score = lambda c: np.array([asymmetric_inner(y, r) / np.sqrt(d) for r in c])
    units = score(bits(bindex.unit_codes))
    if tau is not None:
        pos = [j for j in range(units.size) if units[j] > tau]
    else:
        pos = sorted(sorted(range(units.size), key=lambda j: (-units[j], j))[:top_units])
    members = _units(bindex)
    ids = np.concatenate([np.empty(0, dtype=np.int64)] + [members[j] for j in pos])
    sims = bindex.dataset.vectors[ids] @ y
    order = sorted(range(ids.size), key=lambda k: (-sims[k], ids[k]))
    return pos, units[pos], ids[order], sims[order]


class TestPackedLayer:
    """The packed codes against the bool codes they pack."""

    @pytest.mark.parametrize("d", [1, 13, 32])
    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("select", [{"tau": 0.1}, {"top_units": 3}])
    def test_query_binary_matches_unpacked_oracle(self, d, mode, select):
        rng = Seed(40 + d).generator()
        X = rng.standard_normal((90, d))
        bindex = _binary_index(X, np.arange(90) % 9)
        for k in range(5):
            y = sample_sphere(d, Seed(100 * d + k).generator(), size=1)[0]
            res = query_binary(bindex, y, mode=mode, **select)
            pos, units, ids, sims = _oracle(bindex, y, mode, select.get("tau"),
                                            select.get("top_units"))
            assert [j for j, _ in res.positive_units] == pos
            assert [i for i, _ in res.candidates] == ids.tolist()
            got_units = np.array([s for _, s in res.positive_units])
            got_sims = np.array([s for _, s in res.candidates])
            if mode == "symmetric":  # the same integers, divided the same way
                assert got_units.tolist() == units.tolist()
            np.testing.assert_allclose(got_units, units, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_sims, sims, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 13, 1024])
    def test_code_memory(self, d):
        rng = Seed(41).generator()
        bindex = _binary_index(rng.standard_normal((12, d)), np.arange(12) // 3)
        assert bindex.unit_codes.dtype == np.uint8
        assert bindex.unit_codes.nbytes == 4 * 8 * -(-d // 64)  # whole 64-bit words
        assert bindex.dataset.dim == d

    def test_binarize_packs_only_the_units(self):
        # N = 20000 rows of d = 256 would pack to 640 KB, M = 1000 units to 32 KB;
        # packing takes 128 KB of signs at a time
        N, d, n = 20_000, 256, 20
        data = Dataset(sample_sphere(d, Seed(50).generator(), size=N))
        index = build_index(data, random_assignment(N, n, Seed(51).generator()),
                            ConstructionConfig(kind="sum"))
        tracemalloc.start()
        try:
            bindex = binarize(index, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bindex.unit_codes.shape == (N // n, d // 8)
        assert peak < N * d // 8 // 2

    def test_binarize_across_chunks(self, monkeypatch):
        rng = Seed(42).generator()
        X = rng.standard_normal((10, 13))
        X[3, 5] = 0.0  # zero maps to a set bit
        whole = _binary_index(X, np.arange(10) // 2)
        y = sample_sphere(13, Seed(43).generator(), size=1)[0]
        expect = as_lists(query_binary(whole, y, tau=-np.inf, mode="asymmetric"))
        # 3 rows of 13 bits per binarize chunk, 3 rows of 2 bytes per lookup chunk
        monkeypatch.setattr(search, "TEMP_BYTES", 48)
        chunked = _binary_index(X, np.arange(10) // 2)
        packed = search._pack_signs(X)
        assert np.array_equal(packed[:, :2], np.packbits(X >= 0, axis=1))
        assert not packed[:, 2:].any()
        assert np.array_equal(chunked.unit_codes, whole.unit_codes)
        assert as_lists(query_binary(chunked, y, tau=-np.inf, mode="asymmetric")) == expect

    def test_asymmetric_query_builds_no_unit_matrix(self):
        # M * d >= 1e6: the +/-1 float matrix of the unit codes would be 8 MB
        M, d = 1000, 1024
        X = sample_sphere(d, Seed(44).generator(), size=M)
        part = Partition.from_labels(np.arange(M), M)
        data = Dataset(X)
        bindex = binarize(build_index(data, part, ConstructionConfig(kind="sum")), data)
        y = sample_sphere(d, Seed(45).generator(), size=1)[0]
        query_binary(bindex, y, tau=0.08, mode="asymmetric")  # warm up
        tracemalloc.start()
        try:
            query_binary(bindex, y, tau=0.08, mode="asymmetric")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < M * d * 8


class TestSketchOnly:
    """The sketch shares the index's partition and keeps nothing else of the
    index, so a caller that serves only sketch queries can drop the index."""

    def test_shares_the_partition(self, small_index):
        data, index = small_index
        assert binarize(index, data).partition is index.partition

    def test_index_can_be_dropped(self):
        data = Dataset(sample_sphere(32, Seed(90).generator(), size=120))
        index = build_index(data, random_assignment(120, 8, Seed(91).generator()),
                            ConstructionConfig(kind="pinv"))
        bindex = binarize(index, data)
        runs = [(y, mode) for y in sample_sphere(32, Seed(92).generator(), size=6)
                for mode in ("symmetric", "asymmetric")]
        before = [as_lists(query_binary(bindex, y, tau=0.0, mode=mode)) for y, mode in runs]
        ref = weakref.ref(index)
        del index
        gc.collect()
        assert ref() is None
        assert [as_lists(query_binary(bindex, y, tau=0.0, mode=mode)) for y, mode in runs] == before

    def test_dimension_checked_at_equal_code_width(self):
        # 13 and 16 signs both pack into one 8-byte word with clean pad bits, so only
        # binarize's own check of d sees the mismatch
        rng = Seed(93).generator()
        data13 = Dataset(sample_sphere(13, rng, size=40))
        data16 = Dataset(sample_sphere(16, rng, size=40))
        index = build_index(data13, random_assignment(40, 4, rng),
                            ConstructionConfig(kind="sum"))
        with pytest.raises(DimensionError, match="dataset does not match the index"):
            binarize(index, data16)


class TestBinaryIndexInvariants:
    def test_rejects_bad_codes(self, small_index):
        data, index = small_index
        unit_codes = np.array(binarize(index, data).unit_codes)
        make = lambda u, ds=data: BinaryIndex(unit_codes=u, partition=index.partition,
                                               dataset=ds)
        with pytest.raises(ModelError):  # one bool per bit
            make(sign_code(index.representatives))
        with pytest.raises(ModelError):
            make(unit_codes.astype(np.int16))
        with pytest.raises(DimensionError):
            make(unit_codes[:-1])
        with pytest.raises(DimensionError):
            make(unit_codes[:, :-1])
        with pytest.raises(DimensionError):
            make(unit_codes, Dataset(data.vectors[:100]))
        assert make(unit_codes).unit_codes.tolist() == unit_codes.tolist()

    def test_rejects_set_pad_bits(self):
        X = Seed(46).generator().standard_normal((4, 13))
        good = _binary_index(X, [0, 0, 1, 1])
        for byte in (1, -1):  # the last sign byte's pad bits, then a pad byte
            unit_codes = np.array(good.unit_codes)
            unit_codes[0, byte] |= 0b00000001
            with pytest.raises(ModelError):
                BinaryIndex(unit_codes=unit_codes, partition=good.partition,
                            dataset=good.dataset)

    def test_frozen(self, small_index):
        data, index = small_index
        unit_codes = search._pack_signs(index.representatives)
        bindex = BinaryIndex(unit_codes=unit_codes, partition=index.partition, dataset=data)
        with pytest.raises(ValueError):
            bindex.unit_codes[0, 0] = 0
        unit_codes[0, 0] ^= 1  # the caller's array stays writeable
