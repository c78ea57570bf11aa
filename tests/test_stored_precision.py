"""A float32 dataset, as read from an fvecs file, gives bit for bit what the
same rows widened to float64 give: every kernel widens the rows it gathers
and computes in float64, and none widens the whole dataset."""

import tracemalloc

import numpy as np
import pytest

from memvec import search
from memvec.assignment import KMeansConfig, random_assignment, spherical_kmeans
from memvec.construction import ConstructionConfig
from memvec.core import Dataset
from memvec.harness import io
from memvec.harness.evaluation import cosine_ground_truth
from memvec.sampling import Seed, h1_queries, make_clustered_dataset, sample_sphere
from memvec.search import binarize, build_index, query, query_batch, query_binary

from oracles import as_lists


@pytest.fixture(scope="module")
def pair():
    """(float32 dataset, the same rows widened to float64, H1 queries)."""
    data, _ = make_clustered_dataset(20, 40, 32, 0.85, Seed(21).generator())
    rows = data.vectors.astype(np.float32)
    wide = rows.astype(np.float64)
    queries = h1_queries(wide[::40], 0.8, Seed(22).generator())
    return Dataset(rows), Dataset(wide), queries


@pytest.fixture(scope="module")
def partition(pair):
    part, _ = spherical_kmeans(pair[1], KMeansConfig(M=80, mode="sum", max_iters=5,
                                                      seed=Seed(23)))
    return part


@pytest.mark.parametrize("mode,norm", [("sum", False), ("sum", True), ("pinv", False)])
def test_kmeans_identical(pair, mode, norm):
    cfg = KMeansConfig(M=80, mode=mode, normalize_representative=norm, max_iters=5,
                       seed=Seed(24))
    (p32, r32), (p64, r64) = (spherical_kmeans(ds, cfg) for ds in pair[:2])
    assert r32.dtype == np.float64
    assert np.array_equal(p32.unit_of, p64.unit_of) and np.array_equal(r32, r64)


@pytest.mark.parametrize("kind", ["sum", "pinv"])
def test_index_and_mvix_bytes_identical(pair, partition, kind, tmp_path):
    cfg = ConstructionConfig(kind=kind)
    i32, i64 = (build_index(ds, partition, cfg) for ds in pair[:2])
    assert np.array_equal(i32.representatives, i64.representatives)
    io.write_index(i32, tmp_path / "a.mvix")
    io.write_index(i64, tmp_path / "b.mvix")
    assert (tmp_path / "a.mvix").read_bytes() == (tmp_path / "b.mvix").read_bytes()


def test_queries_identical(pair, partition):
    ds32, ds64, queries = pair
    index = build_index(ds64, partition, ConstructionConfig(kind="pinv"))
    b32, b64 = binarize(index, ds32), binarize(index, ds64)
    assert np.array_equal(search._pack_signs(ds32.vectors), search._pack_signs(ds64.vectors))
    for kw in ({"top_units": 5}, {"tau": 0.5}):
        a32, a64 = ([as_lists(r) for r in query_batch(index, ds, queries, **kw)]
                    for ds in (ds32, ds64))
        assert a32 == a64
    for y in queries:
        for kw in ({"top_units": 5}, {"tau": 0.5}):
            assert as_lists(query(index, ds32, y, **kw)) == as_lists(query(index, ds64, y, **kw))
        for mode in ("asymmetric", "symmetric"):
            kw = {"top_units": 5, "mode": mode}
            assert as_lists(query_binary(b32, y, **kw)) == as_lists(query_binary(b64, y, **kw))


def test_ground_truth_identical(pair):
    ds32, ds64, queries = pair
    gt32, gt64 = (cosine_ground_truth(ds, queries, 0.7) for ds in (ds32, ds64))
    assert sum(g.size for g in gt64) > len(queries)
    assert all(np.array_equal(a, b) for a, b in zip(gt32, gt64))


def test_no_whole_dataset_widening():
    rows = sample_sphere(64, Seed(25).generator(), size=16384).astype(np.float32)
    tracemalloc.start()
    try:
        ds = Dataset(rows)
        part, _ = spherical_kmeans(ds, KMeansConfig(M=1024, mode="sum", max_iters=3,
                                                    seed=Seed(26)))
        build_index(ds, part, ConstructionConfig(kind="sum"))
        # sum k-means leaves units of over a thousand, whose pinv Gram alone is
        # larger than the bound; pinv is built over units of 16
        build_index(ds, random_assignment(len(rows), 16, Seed(27).generator()),
                    ConstructionConfig(kind="pinv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.size * 8  # one (N, d) float64 array
