import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memvec import core
from memvec.core import Dataset, MemoryIndex, Partition, normalize
from memvec.errors import (
    DimensionError,
    EmptyUnitError,
    ModelError,
    NormalizationError,
)
from memvec.search import binarize, query


class TestNormalize:
    def test_unit_norm(self):
        v = normalize([3.0, 4.0])
        assert np.allclose(v, [0.6, 0.8])
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError):
            normalize([0.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(NormalizationError):
            normalize([1.0, np.nan])
        with pytest.raises(NormalizationError):
            normalize([1.0, np.inf])

    def test_shape_rejected(self):
        with pytest.raises(DimensionError):
            normalize(np.ones((2, 2)))
        with pytest.raises(DimensionError):
            normalize([])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16))
    def test_idempotent_and_unit(self, coeffs):
        arr = np.asarray(coeffs)
        if np.linalg.norm(arr) == 0.0:
            return
        v = normalize(arr)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
        assert np.allclose(normalize(v), v, atol=1e-12)


class TestDataset:
    def test_basic(self):
        ds = Dataset(np.eye(3))
        assert ds.size == 3 and ds.dim == 3

    def test_rejects_non_unit_rows(self):
        with pytest.raises(NormalizationError):
            Dataset(2.0 * np.eye(3))

    def test_accepts_float32_rounding(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((5, 33))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        Dataset(g.astype(np.float32).astype(np.float64))  # no raise

    def test_rejects_empty_and_nan(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((0, 3)))
        with pytest.raises(NormalizationError):
            Dataset(np.array([[np.nan, 0.0]]))
        with pytest.raises(NormalizationError, match="non-finite"):
            Dataset(np.array([[1.0, 0.0], [-np.inf, 0.0]]))

    def test_vectors_write_protected(self):
        ds = Dataset(np.eye(2))
        with pytest.raises(ValueError):
            ds.vectors[0, 0] = 5.0

    def test_caller_array_stays_writeable(self):
        Y = np.eye(3)
        ds = Dataset(Y)
        assert Y.flags.writeable and not ds.vectors.flags.writeable
        assert np.shares_memory(ds.vectors, Y)  # a view, not a copy
        Y[0, 0] = 1.0

    def test_float32_kept_as_a_view(self):
        g = np.random.default_rng(1).standard_normal((6, 17))
        Y = (g / np.linalg.norm(g, axis=1, keepdims=True)).astype(np.float32)
        ds = Dataset(Y)
        assert ds.vectors.dtype == np.float32 and np.shares_memory(ds.vectors, Y)
        assert Y.flags.writeable and not ds.vectors.flags.writeable

    def test_other_dtypes_become_float64(self):
        for arr in (np.eye(3, dtype=np.float16), np.eye(3, dtype=np.int64),
                    np.eye(3, dtype=">f4"), [[1.0, 0.0]]):
            assert Dataset(arr).vectors.dtype == np.float64

    def test_float32_rejects_nan_and_non_unit_rows(self):
        with pytest.raises(NormalizationError, match="non-finite"):
            Dataset(np.array([[1.0, 0.0], [np.nan, 0.0]], dtype=np.float32))
        with pytest.raises(NormalizationError, match="not unit"):
            Dataset(np.array([[1.0, 0.0], [0.0, 1.001]], dtype=np.float32))
        # float32 squares of 2e19 overflow to inf; the norms are float64
        with pytest.raises(NormalizationError, match="not unit"):
            Dataset(np.array([[2e19, 0.0]], dtype=np.float32))


class TestDatasetChunks:
    """The row-norm check runs over row chunks; a bad row is caught in any."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(core, "_NORM_ROWS", 4)

    @staticmethod
    def _rows(n=11):
        return np.eye(3)[np.arange(n) % 3]

    def test_clean_rows_pass_for_every_dtype(self):
        for dtype in (np.float64, np.float32):
            Dataset(self._rows().astype(dtype))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_in_last_chunk(self, bad, dtype):
        X = self._rows().astype(dtype)
        X[-1, 2] = bad  # rows 8..10 form the last, partial chunk
        with pytest.raises(NormalizationError, match="non-finite"):
            Dataset(X)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_unit_row_in_middle_chunk(self, dtype):
        X = self._rows().astype(dtype)
        X[5] *= 1.001
        with pytest.raises(NormalizationError, match="not unit"):
            Dataset(X)
        X[5] = 0.0
        with pytest.raises(NormalizationError, match="not unit"):
            Dataset(X)


class TestMemoryIndex:
    """An index is a Partition, the CSR that checks the member ids and
    offsets, plus one representative per unit, checked by MemoryIndex."""

    @staticmethod
    def _part(units):
        """The CSR over the given per-unit id lists."""
        sizes = [len(u) for u in units]
        return Partition(np.concatenate([np.asarray(u, dtype=np.int64) for u in units]),
                         np.concatenate([[0], np.cumsum(sizes)]))

    @classmethod
    def _index(cls, units, d=3, construction="sum"):
        return MemoryIndex(representatives=np.ones((len(units), d)),
                           partition=cls._part(units), construction=construction)

    def test_rejects_empty_and_duplicates(self):
        self._part([[0, 1], [], [2]])  # a partition may hold an empty unit
        with pytest.raises(EmptyUnitError):
            self._index([[0, 1], [], [2]])
        with pytest.raises(ModelError):
            self._part([[1, 1]])
        with pytest.raises(EmptyUnitError):
            MemoryIndex(representatives=np.ones((0, 3)),
                        partition=Partition(np.zeros(0, np.int32), np.zeros(1, np.int32)),
                        construction="sum")

    def test_sizes(self):
        part = self._part([[4, 0, 2], [1, 3]])
        assert part.sizes.tolist() == [3, 2] and (part.M, part.N) == (2, 5)
        assert part.unit_of.tolist() == [0, 1, 0, 1, 0]

    def test_partition_enforced(self):
        part = self._part([[0, 1], [2]])
        idx = MemoryIndex(np.ones((2, 3)), part, "sum")
        assert idx.partition is part and idx.partition.M == 2 and idx.dim == 3
        assert idx.representatives.shape == (2, 3)
        assert not part.member_ids.flags.writeable
        with pytest.raises(ModelError):  # one representative per unit
            MemoryIndex(np.ones((3, 3)), part, "sum")

    def test_caller_arrays_stay_writeable(self):
        reps = np.ones((2, 3))
        offsets, ids = np.array([0, 2, 3], np.int32), np.array([2, 0, 1], np.int32)
        part = Partition(ids, offsets)
        idx = MemoryIndex(reps, part, "sum")
        for given, kept in ((reps, idx.representatives), (offsets, part.offsets),
                            (ids, part.member_ids)):
            assert np.shares_memory(kept, given)  # a view, not a copy
            assert given.flags.writeable and not kept.flags.writeable

    def test_other_integer_ids_are_checked_then_narrowed(self):
        part = Partition(np.array([2, 0, 1], np.uint64), np.array([0, 2, 3], np.int64))
        assert part.offsets.dtype == part.member_ids.dtype == np.int32
        assert part.offsets.tolist() == [0, 2, 3] and part.member_ids.tolist() == [2, 0, 1]
        # 2^32 + 1 would narrow to the valid id 1
        with pytest.raises(ModelError):
            self._part([[0, 2**32 + 1], [2]])

    @pytest.mark.parametrize("ids, offsets", [
        ([0.9, 1.2, 2.0, 3.7], [0, 4]), ([0, 1, 2, 3], [0, 2.5, 4]), ([True, False], [0, 2])],
        ids=["float-ids", "float-offsets", "bool-ids"])
    def test_non_integer_csr_rejected(self, ids, offsets):
        # once truncated to ids [0, 1, 2, 3] or offsets [0, 2, 4], or read as ids 1 and 0
        with pytest.raises(ModelError, match="must be integers"):
            Partition(np.array(ids), np.array(offsets))

    def test_more_ids_than_int32_holds_rejected(self):
        ids = np.broadcast_to(np.int32(0), 2**31)  # zero-stride: not allocated
        with pytest.raises(ModelError, match="at most 2147483647"):
            Partition(ids, np.array([0, 2**31]))

    def test_gap_rejected(self):
        with pytest.raises(ModelError):
            self._part([[0, 2]])

    def test_overlap_rejected(self):
        with pytest.raises(ModelError):
            self._part([[0, 1], [1, 2]])

    @pytest.mark.parametrize("ids", [[0, 1, 3], [0, -1, 2], [0, 2, 2], [2, 0, 0],
                                     [-3, 1, 2]])
    def test_out_of_range_or_duplicated_id_rejected(self, ids):
        # an id equal to N, a negative id (also one that would wrap to a
        # valid index), a duplicate
        with pytest.raises(ModelError):
            self._part([ids[:2], ids[2:]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_representative_rejected(self, bad):
        reps = np.ones((2, 3))
        reps[1, 2] = bad
        with pytest.raises(DimensionError):
            MemoryIndex(representatives=reps, partition=self._part([[2, 0], [1]]),
                        construction="pinv")

    def test_offsets_must_delimit_ids(self):
        # short of N, decreasing, not from 0, none at all, not 1-d
        for offsets in ([0, 1, 2], [0, 2, 1, 3], [1, 3], [], [[0, 3]]):
            with pytest.raises(ModelError):
                Partition(np.arange(3), np.array(offsets, dtype=np.int64))

    def test_bad_construction_tag(self):
        with pytest.raises(ModelError):
            self._index([[0]], construction="mean")

    def test_zero_width_rejected(self):
        with pytest.raises(DimensionError):
            self._index([[0, 1], [2]], d=0)


@pytest.mark.parametrize("name", ["Partition", "Dataset", "MemoryIndex", "BinaryIndex",
                                  "QueryResult"])
def test_array_dataclasses_compare_by_identity(name):
    # field-wise == would ask numpy for the truth value of an array
    X = np.eye(3)
    part = Partition(np.arange(3), np.array([0, 2, 3]))
    index = MemoryIndex(X[:2], part, "sum")
    make = {"Partition": lambda: Partition.from_labels(np.array([0, 1, 0]), 2),
            "Dataset": lambda: Dataset(X),
            "MemoryIndex": lambda: MemoryIndex(X[:2], part, "sum"),
            "BinaryIndex": lambda: binarize(index, Dataset(X)),
            "QueryResult": lambda: query(index, Dataset(X), X[0], tau=0.0)}[name]
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
