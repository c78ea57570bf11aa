import struct
import tracemalloc

import numpy as np
import pytest

from memvec.assignment import random_assignment
from memvec.core import Dataset, MemoryIndex, Partition
from memvec.errors import FormatError, ModelError
from memvec.harness import io
from memvec.sampling import Seed, sample_sphere
from memvec.search import build_index


class TestFvecs:
    def test_hand_built_file(self, tmp_path):
        # two records of dimension 2, written byte by byte
        path = tmp_path / "hand.fvecs"
        payload = struct.pack("<i2f", 2, 1.0, -0.5) + struct.pack("<i2f", 2, 0.25, 2.0)
        path.write_bytes(payload)
        arr = io.read_fvecs(path)
        assert arr.dtype == np.float32  # kept as stored; kernels widen per block
        assert np.array_equal(arr, [[1.0, -0.5], [0.25, 2.0]])

    def test_roundtrip_is_float32_exact(self, tmp_path):
        rng = Seed(0).generator()
        arr = sample_sphere(17, rng, size=9)
        path = tmp_path / "t.fvecs"
        io.write_fvecs(arr, path)
        back = io.read_fvecs(path)
        assert np.array_equal(back, arr.astype(np.float32).astype(np.float64))

    def test_second_roundtrip_bit_exact(self, tmp_path):
        arr = sample_sphere(5, Seed(1).generator(), size=4)
        p1, p2 = tmp_path / "a.fvecs", tmp_path / "b.fvecs"
        io.write_fvecs(arr, p1)
        io.write_fvecs(io.read_fvecs(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.fvecs"
        path.write_bytes(b"")
        with pytest.raises(FormatError) as err:
            io.read_fvecs(path)
        assert err.value.offset == 0

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_short_header(self, tmp_path, size):
        path = tmp_path / "s.fvecs"
        path.write_bytes(b"\x02" * size)
        with pytest.raises(FormatError, match="truncated header") as err:
            io.read_fvecs(path)
        assert err.value.offset == 0

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "t.fvecs"
        path.write_bytes(struct.pack("<i2f", 2, 1.0, 2.0) + b"\x02\x00")
        with pytest.raises(FormatError) as err:
            io.read_fvecs(path)
        assert err.value.offset == 12  # start of the partial record

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "t.fvecs"
        path.write_bytes(struct.pack("<i2f", 2, 1.0, 2.0)
                         + struct.pack("<i2f", 3, 1.0, 2.0))
        with pytest.raises(FormatError) as err:
            io.read_fvecs(path)
        assert err.value.offset == 12  # second record header

    def test_non_positive_dimension(self, tmp_path):
        path = tmp_path / "t.fvecs"
        for d in (-1, 0):
            path.write_bytes(struct.pack("<i", d))
            with pytest.raises(FormatError) as err:
                io.read_fvecs(path)
            assert err.value.offset == 0

    def test_result_owns_its_memory(self, tmp_path):
        # a result that still viewed a map of the file would change when
        # the file is overwritten in place
        arr = sample_sphere(8, Seed(4).generator(), size=50)
        path = tmp_path / "o.fvecs"
        io.write_fvecs(arr, path)
        back = io.read_fvecs(path)
        kept = back.copy()
        assert type(back) is np.ndarray and back.flags.owndata and back.flags.writeable
        with open(path, "r+b") as f:
            f.write(bytes(path.stat().st_size))
        assert np.array_equal(back, kept)
        path.unlink()
        assert np.array_equal(back, kept)

    def test_peak_memory_is_the_result(self, tmp_path):
        arr = np.random.default_rng(5).standard_normal((4096, 128))
        path = tmp_path / "m.fvecs"
        io.write_fvecs(arr, path)
        tracemalloc.start()
        try:
            back = io.read_fvecs(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, arr.astype(np.float32).astype(np.float64))
        assert peak <= back.nbytes + 2**20

    def test_finite_overflow_refused(self, tmp_path):
        path = tmp_path / "o.fvecs"
        for bad in ([[1e39, 1.0]], [[1.0, -3.5e38]], np.array([[1e300]])):
            with pytest.raises(FormatError, match="overflows"):
                io.write_fvecs(bad, path)
        assert not path.exists()

    def test_non_finite_and_float32_max_written(self, tmp_path):
        path = tmp_path / "n.fvecs"
        big = float(np.finfo(np.float32).max)
        io.write_fvecs([[np.nan, np.inf, -np.inf, big, -big]], path)
        back = io.read_fvecs(path)[0]
        assert np.isnan(back[0]) and back[1:3].tolist() == [np.inf, -np.inf]
        assert back[3:].tolist() == [big, -big]

    def test_float32_input_written_without_a_copy(self, tmp_path):
        arr = np.random.default_rng(6).standard_normal((4096, 128)).astype(np.float32)
        path = tmp_path / "w.fvecs"
        tracemalloc.start()
        try:
            io.write_fvecs(arr, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (N, d + 1) record array; a float64 copy first would add 2x arr
        assert peak <= arr.nbytes + 4 * len(arr) + 2**20
        assert np.array_equal(io.read_fvecs(path), arr)


class TestIvecs:
    def test_roundtrip(self, tmp_path):
        arr = np.array([[3, -7, 2**20], [0, 5, -1]], dtype=np.int64)
        path = tmp_path / "t.ivecs"
        io.write_ivecs(arr, path)
        assert np.array_equal(io.read_ivecs(path), arr)

    def test_hand_built_file(self, tmp_path):
        path = tmp_path / "hand.ivecs"
        path.write_bytes(struct.pack("<4i", 3, -2**31, 2**31 - 1, 0)
                         + struct.pack("<4i", 3, 7, -1, 42))
        back = io.read_ivecs(path)
        assert back.dtype == np.int32 and back.flags.owndata
        assert back.tolist() == [[-2**31, 2**31 - 1, 0], [7, -1, 42]]

    def test_out_of_range_refused(self, tmp_path):
        path = tmp_path / "o.ivecs"
        for bad in ([[2**40 + 3, -2**35, 2**31]], [[2**31]], [[-2**31 - 1]],
                    [[2**70]], np.array([[2**64 - 1]], dtype=np.uint64),
                    np.array([[np.nan]])):
            with pytest.raises(FormatError, match="int32"):
                io.write_ivecs(bad, path)
        assert not path.exists()

    @pytest.mark.parametrize("write", [io.write_fvecs, io.write_ivecs])
    def test_zero_rows_refused(self, tmp_path, write):
        path = tmp_path / "z.vecs"
        with pytest.raises(FormatError, match="non-empty"):
            write(np.empty((0, 4)), path)
        assert not path.exists()

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "t.ivecs"
        path.write_bytes(struct.pack("<2i", 1, 5) + struct.pack("<2i", 1, 6)
                         + struct.pack("<2i", 2, 7))
        with pytest.raises(FormatError) as err:
            io.read_ivecs(path)
        assert err.value.offset == 16  # third record header


def _make_index(construction="pinv"):
    data = Dataset(sample_sphere(24, Seed(2).generator(), size=40))
    part = random_assignment(40, 7, Seed(3).generator())
    return data, build_index(data, part, construction)


class TestIndexContainer:
    def test_golden_bytes(self, tmp_path):
        # units {2, 0} and {1}: header, float32 representatives, then
        # per unit a uint32 count followed by its uint32 ids
        index = MemoryIndex(representatives=np.array([[1.0, -2.0], [0.5, 0.25]]),
                            partition=Partition(np.array([2, 0, 1]), np.array([0, 2, 3])),
                            construction="pinv")
        path = tmp_path / "golden.mvix"
        io.write_index(index, path)
        expect = (b"MVIX" + bytes([1]) + struct.pack("<4I", 2, 3, 2, 1)
                  + struct.pack("<4f", 1.0, -2.0, 0.5, 0.25)
                  + struct.pack("<3I", 2, 2, 0) + struct.pack("<2I", 1, 1))
        assert path.read_bytes() == expect
        back = io.read_index(path)
        assert back.partition.offsets.tolist() == [0, 2, 3]
        assert back.partition.member_ids.tolist() == [2, 0, 1]
        assert np.array_equal(back.representatives, index.representatives)

    def test_representative_beyond_float32_refused(self, tmp_path):
        # float32 would hold 1e39 as inf, which read_index rejects
        index = MemoryIndex(representatives=np.array([[1e39, 0.0]]),
                            partition=Partition(np.array([0]), np.array([0, 1])),
                            construction="sum")
        path = tmp_path / "big.mvix"
        with pytest.raises(FormatError, match="overflows float32"):
            io.write_index(index, path)
        assert not path.exists()

    def test_roundtrip_semantics(self, tmp_path):
        for construction in ("sum", "pinv"):
            _, index = _make_index(construction)
            path = tmp_path / f"{construction}.mvix"
            io.write_index(index, path)
            back = io.read_index(path)
            assert back.construction == construction
            assert back.dim == index.dim and back.partition.M == index.partition.M
            assert np.array_equal(back.partition.offsets, index.partition.offsets)
            assert np.array_equal(back.partition.member_ids, index.partition.member_ids)
            assert np.array_equal(back.representatives,
                                  index.representatives.astype(np.float32))

    def test_ids_read_back_as_int32(self, tmp_path):
        _, index = _make_index()
        path = tmp_path / "w.mvix"
        io.write_index(index, path)
        back = io.read_index(path)
        assert back.partition.member_ids.dtype == back.partition.offsets.dtype == np.int32
        assert np.array_equal(back.partition.member_ids, index.partition.member_ids)

    def test_more_ids_than_int32_holds_rejected(self, tmp_path):
        # the header declares N = 2^31; one unit, as if its count said so
        path = tmp_path / "big.mvix"
        path.write_bytes(b"MVIX" + bytes([1]) + struct.pack("<4I", 1, 2**31, 1, 0)
                         + struct.pack("<f", 1.0) + struct.pack("<2I", 2**31, 0))
        with pytest.raises(FormatError, match="2147483648") as err:
            io.read_index(path)
        assert err.value.offset == 9

    def test_id_of_2_to_the_31_rejected(self, tmp_path):
        # uint32 ids read as int32: 2^31 would read as -2^31
        path = tmp_path / "neg.mvix"
        path.write_bytes(b"MVIX" + bytes([1]) + struct.pack("<4I", 1, 2, 1, 0)
                         + struct.pack("<f", 1.0) + struct.pack("<3I", 2, 0, 2**31))
        with pytest.raises(ModelError):
            io.read_index(path)

    def test_write_read_write_bit_exact(self, tmp_path):
        _, index = _make_index()
        p1, p2 = tmp_path / "a.mvix", tmp_path / "b.mvix"
        io.write_index(index, p1)
        io.write_index(io.read_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "z.mvix"
        path.write_bytes(b"MVIX" + bytes([1]) + struct.pack("<4I", 0, 1, 1, 0)
                         + struct.pack("<2I", 1, 0))
        with pytest.raises(FormatError) as err:
            io.read_index(path)
        assert err.value.offset == 5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvix"
        path.write_bytes(b"XXXX" + bytes(30))
        with pytest.raises(FormatError):
            io.read_index(path)

    def test_bad_version(self, tmp_path):
        _, index = _make_index()
        path = tmp_path / "v.mvix"
        io.write_index(index, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            io.read_index(path)
        assert err.value.offset == 4

    def test_trailing_bytes(self, tmp_path):
        _, index = _make_index()
        path = tmp_path / "t.mvix"
        io.write_index(index, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            io.read_index(path)

    def test_truncation(self, tmp_path):
        _, index = _make_index()
        path = tmp_path / "t.mvix"
        io.write_index(index, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 3])
        with pytest.raises(FormatError):
            io.read_index(path)

    # _make_index: d = 24, M = 6, so the representatives take bytes [21, 597)
    # and the first unit's count is 7
    @pytest.mark.parametrize("keep, says, offset", [
        (20, "truncated header", 0),
        (596, "truncated representatives", 596),
        (601, "truncated membership list", 597 + 4 * 8),
    ], ids=["header", "representatives", "membership"])
    def test_truncated_section(self, tmp_path, keep, says, offset):
        _, index = _make_index()
        path = tmp_path / "t.mvix"
        io.write_index(index, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError, match=says) as err:
            io.read_index(path)
        assert err.value.offset == offset

    def test_unknown_construction_tag(self, tmp_path):
        _, index = _make_index()
        path = tmp_path / "tag.mvix"
        io.write_index(index, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 17, 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unknown construction tag 2") as err:
            io.read_index(path)
        assert err.value.offset == 17

    def test_member_count_must_match_header(self, tmp_path):
        _, index = _make_index()
        path = tmp_path / "n.mvix"
        io.write_index(index, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 9, index.partition.N + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            io.read_index(path)
        assert err.value.offset == 9
