import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memvec import core
from memvec.core import Dataset, MemoryIndex, QueryModel, inner, normalize
from memvec.errors import (
    DimensionError,
    EmptyUnitError,
    ModelError,
    NormalizationError,
)


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


class TestInner:
    def test_value(self):
        assert inner([1.0, 2.0], [3.0, -1.0]) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            inner([1.0], [1.0, 2.0])


class TestDataset:
    def test_basic(self):
        ds = Dataset(np.eye(3))
        assert ds.size == 3 and ds.dim == 3 and len(ds) == 3

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
    @staticmethod
    def _index(units, d=3, construction="sum"):
        """A CSR index over the given per-unit id lists."""
        sizes = [len(u) for u in units]
        return MemoryIndex(representatives=np.ones((len(units), d)),
                           offsets=np.concatenate([[0], np.cumsum(sizes)]),
                           member_ids=np.concatenate([np.asarray(u, dtype=np.int64)
                                                      for u in units]),
                           construction=construction)

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(EmptyUnitError):
            self._index([[0, 1], [], [2]])
        with pytest.raises(ModelError):
            self._index([[1, 1]])
        with pytest.raises(EmptyUnitError):
            MemoryIndex(representatives=np.ones((0, 3)), offsets=np.zeros(1),
                        member_ids=np.zeros(0), construction="sum")

    def test_sizes(self):
        idx = self._index([[4, 0, 2], [1, 3]])
        assert idx.sizes.tolist() == [3, 2]

    def test_partition_enforced(self):
        idx = self._index([[0, 1], [2]])
        assert idx.num_units == 2
        assert idx.dim == 3 and idx.total == 3
        assert idx.representatives.shape == (2, 3)
        assert not idx.member_ids.flags.writeable

    def test_caller_arrays_stay_writeable(self):
        reps, offsets, ids = np.ones((2, 3)), np.array([0, 2, 3]), np.array([2, 0, 1])
        idx = MemoryIndex(reps, offsets, ids, "sum")
        for given, kept in ((reps, idx.representatives), (offsets, idx.offsets),
                            (ids, idx.member_ids)):
            assert np.shares_memory(kept, given)  # a view, not a copy
            assert given.flags.writeable and not kept.flags.writeable

    def test_gap_rejected(self):
        with pytest.raises(ModelError):
            self._index([[0, 2]])

    def test_overlap_rejected(self):
        with pytest.raises(ModelError):
            self._index([[0, 1], [1, 2]])

    @pytest.mark.parametrize("ids", [[0, 1, 3], [0, -1, 2], [0, 2, 2], [2, 0, 0],
                                     [-3, 1, 2]])
    def test_out_of_range_or_duplicated_id_rejected(self, ids):
        # an id equal to N, a negative id (also one that would wrap to a
        # valid index), a duplicate
        with pytest.raises(ModelError):
            self._index([ids[:2], ids[2:]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_representative_rejected(self, bad):
        reps = np.ones((2, 3))
        reps[1, 2] = bad
        with pytest.raises(DimensionError):
            MemoryIndex(representatives=reps, offsets=np.array([0, 2, 3]),
                        member_ids=np.array([2, 0, 1]), construction="pinv")

    def test_offsets_must_delimit_ids(self):
        with pytest.raises(ModelError):
            MemoryIndex(representatives=np.ones((2, 3)), offsets=np.array([0, 1, 2]),
                        member_ids=np.arange(3), construction="sum")

    def test_bad_construction_tag(self):
        with pytest.raises(ModelError):
            self._index([[0]], construction="mean")

    def test_zero_width_rejected(self):
        with pytest.raises(DimensionError):
            self._index([[0, 1], [2]], d=0)


class TestQueryModel:
    def test_beta_complement(self):
        q = QueryModel("H1", alpha=0.6, planted_id=0)
        assert q.beta == pytest.approx(0.8)

    def test_h1_requires_planted(self):
        with pytest.raises(ModelError):
            QueryModel("H1", alpha=0.5)

    def test_unknown_hypothesis(self):
        with pytest.raises(ModelError):
            QueryModel("H2")
