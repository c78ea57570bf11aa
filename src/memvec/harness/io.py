"""Binary file formats.

fvecs/ivecs: per record a 4-byte little-endian int32 d followed by d
little-endian float32 / int32 values; all records share d. fvecs data is
read as float32 and kept so: the kernels widen the rows they gather. The
writers refuse a value the file type cannot hold (a finite value beyond
the float32 range, an integer outside int32); NaN and +/-inf are written.

MVIX index container: magic b"MVIX", version byte 1, little-endian uint32
fields {d, N, M, construction tag (0 = sum, 1 = pinv)}, then the M
representatives as d consecutive float32 each, then the M membership
lists as uint32 count + uint32 ids. ``read_index`` passes the float32
representatives to ``MemoryIndex``, which widens them to float64. Member
ids and offsets are int32 in memory (``core.ID_DTYPE``) and uint32 on disk,
so N < 2^31: a header that declares more is refused.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..core import MAX_IDS, MemoryIndex, Partition
from ..errors import FormatError

__all__ = [
    "read_fvecs",
    "write_fvecs",
    "read_ivecs",
    "write_ivecs",
    "write_index",
    "read_index",
]

_MAGIC = b"MVIX"
_VERSION = 1
_TAGS = {"sum": 0, "pinv": 1}
_TAG_NAMES = {v: k for k, v in _TAGS.items()}
_INT32 = np.iinfo(np.int32)


def _read_vecs(path, dtype) -> np.ndarray:
    """Check an fvecs/ivecs file and return its (N, d) values as a strided
    ``dtype`` view of a read-only map of the file; nothing is copied."""
    size = os.path.getsize(path)
    if size == 0:
        raise FormatError(f"{path}: empty file", offset=0)
    if size < 4:
        raise FormatError(f"{path}: truncated header", offset=0)
    words = np.asarray(np.memmap(path, dtype="<i4", mode="r", shape=size // 4))
    d = int(words[0])
    if d <= 0:
        raise FormatError(f"{path}: non-positive dimension {d}", offset=0)
    rec = 4 + 4 * d
    if size % rec != 0:
        raise FormatError(f"{path}: truncated record", offset=size - size % rec)
    flat = words.reshape(size // rec, 1 + d)
    bad = np.flatnonzero(flat[:, 0] != d)
    if bad.size:
        raise FormatError(f"{path}: inconsistent dimension {flat[bad[0], 0]} != {d}",
                          offset=int(bad[0]) * rec)
    return flat[:, 1:].view(dtype)


# The readers copy the mapped values once, so the result owns its memory
# and the map is released when the reader returns.
def read_fvecs(path) -> np.ndarray:
    """Read an fvecs file into an (N, d) float32 array, as stored."""
    return _read_vecs(path, "<f4").astype(np.float32)


def read_ivecs(path) -> np.ndarray:
    """Read an ivecs file into an (N, d) int32 array."""
    return _read_vecs(path, "<i4").astype(np.int32)


def _write_vecs(arr: np.ndarray, path, dtype):
    # a 0-row file would be empty, which the readers refuse
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise FormatError("expected a non-empty (N, d) array")
    n, d = arr.shape
    out = np.empty((n, 1 + d), dtype=dtype)
    out.view("<i4")[:, 0] = d
    try:
        with np.errstate(over="raise"):
            out[:, 1:] = arr
    except FloatingPointError:
        raise FormatError(f"a finite value overflows {out.dtype}") from None
    out.tofile(path)


def write_fvecs(arr: np.ndarray, path):
    """Write an (N, d) array as little-endian float32 fvecs. A float32
    array is written as is; anything else is rounded through float64."""
    arr = np.asarray(arr)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    _write_vecs(arr, path, "<f4")


def write_ivecs(arr: np.ndarray, path):
    """Write an (N, d) integer array as little-endian int32 ivecs."""
    arr = np.asarray(arr)
    # written so that NaN fails too
    if arr.size and not (arr.min() >= _INT32.min and arr.max() <= _INT32.max):
        raise FormatError("a value lies outside the int32 range")
    _write_vecs(np.asarray(arr, dtype=np.int64), path, "<i4")


def write_index(index: MemoryIndex, path):
    """Serialize a MemoryIndex into the MVIX container. A representative
    beyond the float32 range raises FormatError before the file is opened."""
    try:
        with np.errstate(over="raise"):
            reps = index.representatives.astype("<f4")
    except FloatingPointError:
        raise FormatError("a representative overflows float32") from None
    part = index.partition
    with open(path, "wb") as f:
        f.write(_MAGIC + bytes([_VERSION]))
        f.write(struct.pack("<4I", index.dim, part.N, part.M,
                            _TAGS[index.construction]))
        reps.tofile(f)
        # each unit's uint32 count goes in front of its ids
        np.insert(part.member_ids.astype("<u4"), part.offsets[:-1],
                  part.sizes.astype("<u4")).tofile(f)


def read_index(path) -> MemoryIndex:
    """Load a MemoryIndex from an MVIX container (float32 widened)."""
    size = os.path.getsize(path)
    if size < 21:
        raise FormatError(f"{path}: truncated header", offset=0)
    raw = np.asarray(np.memmap(path, dtype=np.uint8, mode="r"))
    head = raw[:21].tobytes()
    if head[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {head[:4]!r}", offset=0)
    if head[4] != _VERSION:
        raise FormatError(f"{path}: unsupported version {head[4]}", offset=4)
    d, n_total, m, tag = struct.unpack_from("<4I", head, 5)
    if d == 0:
        raise FormatError(f"{path}: zero dimension", offset=5)
    if n_total > MAX_IDS:
        raise FormatError(f"{path}: N = {n_total} exceeds the {MAX_IDS} ids an index "
                          "holds", offset=9)
    if tag not in _TAG_NAMES:
        raise FormatError(f"{path}: unknown construction tag {tag}", offset=17)
    pos = 21
    need = 4 * d * m
    if size < pos + need:
        raise FormatError(f"{path}: truncated representatives", offset=size)
    reps = np.frombuffer(raw, dtype="<f4", count=d * m, offset=pos)
    pos += need
    # uint32 stream of (count, ids...) per unit: walk the counts
    stream = np.frombuffer(raw, dtype="<u4", count=(size - pos) // 4, offset=pos)
    heads, at = [], 0
    try:
        for _ in range(m):
            heads.append(at)
            at += 1 + int(stream[at])
    except IndexError:
        raise FormatError(f"{path}: truncated membership list", offset=pos + 4 * at) from None
    if pos + 4 * at != size:
        raise FormatError(f"{path}: membership lists end at byte {pos + 4 * at} "
                          f"of {size}", offset=pos + 4 * at)
    # summed in int64, so a corrupt count cannot wrap before it is compared
    offsets = np.concatenate(([0], np.cumsum(stream[heads], dtype=np.int64)))
    if offsets[-1] != n_total:
        raise FormatError(f"{path}: {offsets[-1]} member ids for N = {n_total}", offset=9)
    # Partition narrows the offsets; the ids are read as int32 in place, and
    # one of 2^31 or more reads as negative, rejected like any id outside [0, N)
    part = Partition(np.delete(stream, heads).view("<i4"), offsets)
    return MemoryIndex(representatives=reps.reshape(m, d), partition=part,
                       construction=_TAG_NAMES[tag])
