import logging

import numpy as np
import pytest

from memvec.assignment import Partition, random_assignment
from memvec.construction import ConstructionConfig
from memvec.core import Dataset
from memvec.errors import DimensionError, DomainError, ModeError, NormalizationError
from memvec.sampling import Seed, sample_sphere
from memvec.search import (
    asymmetric_inner,
    binarize,
    build_index,
    hamming_inner,
    query,
    query_binary,
    sign_code,
)


def _units(index):
    """Member ids of each unit, from the CSR arrays."""
    return np.split(index.member_ids, index.offsets[1:-1])


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

    def test_sum_representatives(self):
        data = Dataset(sample_sphere(16, Seed(22).generator(), size=20))
        part = random_assignment(20, 5, Seed(23).generator())
        index = build_index(data, part, ConstructionConfig(kind="sum"))
        for j, ids in enumerate(_units(index)):
            expect = data.vectors[ids].sum(axis=0)
            assert np.allclose(index.representatives[j], expect, atol=1e-14)

    def test_pinv_fallback_logged(self, caplog):
        X = sample_sphere(16, Seed(36).generator(), size=20)
        part = Partition(unit_of=np.arange(20) // 5, M=4)
        with caplog.at_level(logging.WARNING, logger="memvec"):
            build_index(Dataset(X), part, ConstructionConfig(kind="pinv"))
            assert not caplog.records
            X = X.copy()
            X[1] = X[0]  # a duplicated member in unit 0
            build_index(Dataset(X), part, ConstructionConfig(kind="pinv"))
        [record] = caplog.records
        assert record.name == "memvec" and record.levelno == logging.WARNING
        assert "1 of 4 units" in record.getMessage()


class TestQuery:
    def test_recount_oracle(self, small_index):
        # recompute everything brute-force and compare
        data, index = small_index
        y = sample_sphere(32, Seed(24).generator())
        tau = 0.2
        res = query(index, data, y, tau=tau)

        scores = index.representatives @ y
        expect_pos = [j for j in range(index.num_units) if scores[j] > tau]
        assert [j for j, _ in res.positive_units] == expect_pos
        expect_ids = set()
        scanned = 0
        for j in expect_pos:
            expect_ids |= set(_units(index)[j].tolist())
            scanned += _units(index)[j].size
        assert set(i for i, _ in res.candidates) == expect_ids
        assert res.complexity == index.num_units + scanned
        assert res.complexity_ratio == pytest.approx(res.complexity / 120)
        # candidates sorted by descending true similarity
        sims = [s for _, s in res.candidates]
        assert sims == sorted(sims, reverse=True)
        for i, s in res.candidates:
            assert s == pytest.approx(float(data.vectors[i] @ y), abs=1e-15)

    def test_impossible_threshold_scans_nothing(self, small_index):
        data, index = small_index
        y = sample_sphere(32, Seed(25).generator())
        res = query(index, data, y, tau=2.0)
        assert res.candidates == () and res.positive_units == ()
        assert res.complexity == index.num_units

    def test_low_threshold_is_exhaustive(self, small_index):
        data, index = small_index
        y = sample_sphere(32, Seed(26).generator())
        res = query(index, data, y, tau=-np.inf)
        assert len(res.candidates) == data.size
        assert res.complexity == index.num_units + data.size

    def test_top_units_mode(self, small_index):
        data, index = small_index
        y = sample_sphere(32, Seed(27).generator())
        res = query(index, data, y, top_units=3)
        scores = index.representatives @ y
        expect = np.sort(np.argsort(-scores, kind="stable")[:3])
        assert [j for j, _ in res.positive_units] == expect.tolist()

    def test_selector_exclusivity(self, small_index):
        data, index = small_index
        y = sample_sphere(32, Seed(28).generator())
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


class TestQueryBoundary:
    """Both query paths reject bad input instead of answering."""

    @staticmethod
    def _paths(data, index):
        bindex = binarize(index, data)
        return (lambda y, tau: query(index, data, y, tau=tau),
                lambda y, tau: query_binary(bindex, y, tau=tau))

    def test_nan_tau_rejected(self, small_index):
        y = sample_sphere(32, Seed(37).generator())
        for run in self._paths(*small_index):
            with pytest.raises(DomainError):
                run(y, np.nan)

    def test_bad_query_vector_rejected(self, small_index):
        y = sample_sphere(32, Seed(38).generator())
        bad_nan = y.copy()
        bad_nan[0] = np.nan
        for run in self._paths(*small_index):
            for bad in (3.0 * y, bad_nan, np.full(32, np.inf)):
                with pytest.raises(NormalizationError):
                    run(bad, 0.5)

    def test_dataset_must_match_index(self, small_index):
        data, index = small_index
        other = Dataset(data.vectors[:100])
        y = sample_sphere(32, Seed(39).generator())
        for run in self._paths(other, index):
            with pytest.raises(DimensionError):
                run(y, 0.5)


class TestBinaryPrimitives:
    def test_hand_coded_bits(self):
        v = np.array([0.3, -0.1, 0.7, 0.2, -0.5, -0.9, 0.4, -0.2])
        assert sign_code(v).tolist() == [True, False, True, True,
                                         False, False, True, False]

    def test_zero_maps_to_positive_bit(self):
        assert sign_code(np.array([0.0]))[0]

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
        y = sample_sphere(32, Seed(32).generator())
        res = query_binary(bindex, y, tau=-2.0, mode="symmetric")
        cy = sign_code(y)
        for j, s in res.positive_units:
            expect = hamming_inner(bindex.unit_codes[j], cy) / 32
            assert s == pytest.approx(expect, abs=1e-12)

    def test_asymmetric_scores(self, small_index):
        data, index = small_index
        bindex = binarize(index, data)
        y = sample_sphere(32, Seed(33).generator())
        res = query_binary(bindex, y, tau=-np.inf, mode="asymmetric")
        for j, s in res.positive_units:
            expect = asymmetric_inner(y, bindex.unit_codes[j]) / np.sqrt(32)
            assert s == pytest.approx(expect, abs=1e-12)

    def test_real_rerank_matches_real_pipeline_order(self, small_index):
        # with every unit positive, binary + real rerank = exhaustive search
        data, index = small_index
        bindex = binarize(index, data)
        y = sample_sphere(32, Seed(34).generator())
        rb = query_binary(bindex, y, tau=-2.0, mode="symmetric", rerank="real")
        rr = query(index, data, y, tau=-np.inf)
        assert rb.candidates == rr.candidates

    def test_binary_rerank_uses_binarized_scores(self, small_index):
        data, index = small_index
        bindex = binarize(index, data)
        y = sample_sphere(32, Seed(35).generator())
        res = query_binary(bindex, y, tau=-2.0, mode="symmetric", rerank="binary")
        cy = sign_code(y)
        for i, s in res.candidates[:10]:
            expect = hamming_inner(bindex.codes[i], cy) / 32
            assert s == pytest.approx(expect, abs=1e-12)

    def test_unknown_modes(self, small_index):
        data, index = small_index
        bindex = binarize(index, data)
        y = sample_sphere(32, Seed(36).generator())
        with pytest.raises(ModeError):
            query_binary(bindex, y, tau=0.0, mode="hashy")
        with pytest.raises(ModeError):
            query_binary(bindex, y, tau=0.0, rerank="approximate")
