import numpy as np
import pytest

from memvec import analytic, construction
from memvec.assignment import KMeansConfig, random_assignment, spherical_kmeans
from memvec.construction import ConstructionConfig, representatives
from memvec.core import CONSTRUCTIONS, Dataset, MemoryIndex, Partition
from memvec.errors import (DimensionError, DomainError, EmptyUnitError, ModelError,
                           SingularGramError)
from memvec.harness.cli import main
from memvec.sampling import Seed, sample_sphere
from memvec.search import build_index

from oracles import pinv_vector


class TestConstructionConfig:
    def test_bad_values_are_domain_errors(self):
        with pytest.raises(DomainError):
            ConstructionConfig(kind="mean")

    @pytest.mark.parametrize("kind", CONSTRUCTIONS)
    def test_builds_the_index_its_kind_builds(self, kind):
        data = Dataset(sample_sphere(16, Seed(5).generator(), size=40))
        part = random_assignment(data.size, 4, Seed(6).generator())
        plain = build_index(data, part, kind)
        shim = build_index(data, part, ConstructionConfig(kind=kind))
        assert plain.construction == shim.construction == kind
        assert plain.representatives.tobytes() == shim.representatives.tobytes()


# 3 rows but 4 ids, and M = 0 or alpha = 2: each entry would refuse these too,
# so the unknown-kind message shows that the kind is checked before any work
_X = np.eye(4)[:3]
_PART = Partition(np.arange(4), np.array([0, 4]))
_ENTRIES = {
    "representatives": (DomainError, lambda kind: representatives(_X, _PART, kind)),
    "build_index": (DomainError, lambda kind: build_index(Dataset(_X), _PART, kind)),
    "KMeansConfig": (DomainError, lambda kind: KMeansConfig(M=0, mode=kind)),
    "MemoryIndex": (ModelError, lambda kind: MemoryIndex(_X, _PART, kind)),
    "score_law": (DomainError, lambda kind: analytic.score_law(kind, 2.0, 10, 128)),
}


# argparse refuses the choice as a usage error (exit 2) before a file is read or a row printed
_COMMANDS = {
    "memvec build": lambda kind, tmp: ["build", "--data", str(tmp / "missing.fvecs"),
                                       "--construction", kind, "--out", str(tmp / "x.mvix")],
    "memvec theory cap-stats": lambda kind, tmp: ["theory", "cap-stats", "--d", "128", "--n",
                                                  "10", "--alpha", "0.8", "--constructions",
                                                  "sum", kind],
    "memvec experiment roc": lambda kind, tmp: ["experiment", "roc", "--d", "32", "--n", "4",
                                                "--alpha", "0.8", "--constructions", "sum", kind],
}


@pytest.mark.parametrize("kind", ["mean", "", "PINV"])
@pytest.mark.parametrize("entry", [*_ENTRIES, *_COMMANDS])
def test_every_entry_refuses_an_unknown_kind_first(entry, kind, tmp_path, capsys):
    if entry in _COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main(_COMMANDS[entry](kind, tmp_path))
        assert exc.value.code == 2
        assert capsys.readouterr().out == "" and not any(tmp_path.iterdir())
        return
    error, call = _ENTRIES[entry]
    with pytest.raises(error, match="unknown"):
        call(kind)


class TestSumVector:
    def test_plain_sum(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        out = representatives(X, Partition(np.arange(3), np.array([0, 3])), "sum")
        assert np.array_equal(out, [[2.0, 3.0]])

    def test_empty_rejected(self):
        with pytest.raises(EmptyUnitError):
            representatives(np.zeros((0, 2)), Partition(np.arange(0), np.array([0, 0])), "sum")

    @pytest.mark.parametrize("kind", ["sum", "pinv"])
    def test_no_units_rejected(self, kind):
        # as MemoryIndex refuses it: a partition of no units has no representatives
        with pytest.raises(EmptyUnitError):
            representatives(np.zeros((0, 2)), Partition(np.arange(0), np.array([0])),
                            kind)


class TestPinvVector:
    def test_unit_constraints_hold(self):
        rng = Seed(1).generator()
        X = sample_sphere(100, rng, size=10)
        m = pinv_vector(X)
        assert np.max(np.abs(X @ m - 1.0)) < 1e-10

    def test_minimal_norm_solution(self):
        # m* must lie in the row space of X: the least-norm solution
        rng = Seed(2).generator()
        X = sample_sphere(50, rng, size=5)
        m = pinv_vector(X)
        lstsq = np.linalg.lstsq(X, np.ones(5), rcond=None)[0]
        assert np.allclose(m, lstsq, atol=1e-10)

    def test_orthonormal_members_reduce_to_sum(self):
        X = np.eye(6)[:3]
        assert np.allclose(pinv_vector(X), X.sum(axis=0), atol=1e-12)

    def test_duplicate_members_fall_back_to_ridge(self):
        rng = Seed(3).generator()
        x = sample_sphere(20, rng, size=1)[0]
        X = np.vstack([x, x, sample_sphere(20, rng, size=1)[0]])
        report = {}
        m = pinv_vector(X, report=report)
        assert report["fallbacks"] == 1
        gram = X @ X.T
        ridge = 1e-6 * np.mean(np.diag(gram))  # the fallback ridge
        assert np.allclose(m, X.T @ np.linalg.solve(gram + ridge * np.eye(3), np.ones(3)),
                           rtol=1e-8, atol=0.0)

    def test_more_members_than_dims_uses_ridge(self):
        rng = Seed(4).generator()
        X = sample_sphere(4, rng, size=9)
        report = {}
        m = pinv_vector(X, report=report)
        assert report["fallbacks"] == 1
        # ridge keeps the constraints nearly satisfied in aggregate
        assert np.all(np.isfinite(m)) and m.shape == (4,)

    def test_clean_solve_reports_no_ridge(self):
        rng = Seed(5).generator()
        X = sample_sphere(30, rng, size=4)
        report = {}
        m = pinv_vector(X, report=report)
        assert report["fallbacks"] == 0
        assert report["max_residual"] == pytest.approx(np.max(np.abs(X @ m - 1.0)), abs=1e-14)

    def test_zero_members_raise_singular_gram(self):
        # the ridge is relative to the Gram's diagonal, so it cannot save them
        with pytest.raises(SingularGramError):
            pinv_vector(np.zeros((3, 8)))
        X = sample_sphere(8, Seed(8).generator(), size=9)
        X[3:6] = 0.0
        with pytest.raises(SingularGramError):
            representatives(X, Partition(np.arange(9), np.array([0, 3, 6, 9])), "pinv")


class TestRepresentativesKernel:
    """The batched kernel against each unit alone: its row sum, or the
    kernel run on that one unit (``oracles.pinv_vector``)."""

    D = 16

    @pytest.fixture(scope="class")
    def layout(self):
        # uneven sum k-means units, one of them with a duplicated member
        X = sample_sphere(self.D, Seed(6).generator(), size=240)
        part, _ = spherical_kmeans(Dataset(X), KMeansConfig(
            M=24, mode="sum", max_iters=3, seed=Seed(7)))
        sizes = part.sizes
        assert np.unique(sizes).size >= 3 and sizes.max() > self.D
        j = int(np.flatnonzero((sizes >= 2) & (sizes <= self.D))[0])
        X = X.copy()
        first = part.offsets[j]
        X[part.member_ids[first + 1]] = X[part.member_ids[first]]
        return X, part

    @staticmethod
    def _units(X, part):
        return [X[part.member_ids[part.offsets[j]:part.offsets[j + 1]]] for j in range(part.M)]

    def test_sum_bit_identical(self, layout):
        report = {}
        reps = representatives(*layout, "sum", report)
        for rep, unit in zip(reps, self._units(*layout)):
            assert np.array_equal(rep, unit.sum(axis=0))
        assert report == {"fallbacks": 0, "max_residual": 0.0}

    def test_pinv_matches_per_unit(self, layout):
        report = {}
        reps = representatives(*layout, "pinv", report)
        fallbacks, worst = 0, 0.0
        for rep, unit in zip(reps, self._units(*layout)):
            unit_report = {}
            assert np.array_equal(rep, pinv_vector(unit, unit_report))
            fallbacks += unit_report["fallbacks"]
            worst = max(worst, unit_report["max_residual"])
        assert report["fallbacks"] == fallbacks > 0
        assert report["max_residual"] == worst

    @pytest.mark.parametrize("kind", ["sum", "pinv"])
    def test_batches_split_each_size(self, layout, kind, monkeypatch):
        # 3 D floats a batch: three units of size 1, one of any other size,
        # so every size held by two or more units spans two or more batches
        whole_report = {}
        whole = representatives(*layout, kind, whole_report)
        monkeypatch.setattr(construction, "_BATCH_FLOATS", 3 * self.D)
        sizes, counts = np.unique(layout[1].sizes, return_counts=True)
        steps = np.maximum(1, 3 * self.D // (sizes * self.D))
        assert np.all(steps[counts >= 2] < counts[counts >= 2])
        report = {}
        assert np.array_equal(representatives(*layout, kind, report), whole)
        assert report == whole_report

    def test_empty_unit_rejected(self, layout):
        X, part = layout
        with pytest.raises(EmptyUnitError):
            representatives(X, Partition(part.member_ids, np.array([0, 0, part.N])), "pinv")

    @pytest.mark.parametrize("kind", ["sum", "pinv"])
    @pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
    def test_rows_must_match_the_partition(self, layout, kind, extra):
        # one row more would build from the first N rows, one fewer index past the end
        X, part = layout
        X = np.vstack([X, X[:1]]) if extra > 0 else X[:-1]
        with pytest.raises(DimensionError, match="partition size does not match"):
            representatives(X, part, kind)


class TestNearDependentUnits:
    """Every unit's second member nearly repeats ("near") or nearly negates
    ("antipodal") its first. All units have size 4, so they form one batch;
    each unit must come out as it does alone: whether it falls back, and
    its representative bit for bit."""

    D, UNITS = 16, 295
    LAYOUTS = [("near", 1e-14), ("near", 1e-10), ("near", 1e-8), ("antipodal", 1e-6)]

    def _data(self, pair, noise):
        X = sample_sphere(self.D, Seed(20).generator(), size=4 * self.UNITS)
        rng = Seed(21).generator()
        for j in range(self.UNITS):
            x = (1.0 if pair == "near" else -1.0) * X[4 * j]
            x = x + noise * rng.standard_normal(self.D)
            X[4 * j + 1] = x / np.linalg.norm(x)
        return X

    @pytest.mark.parametrize("pair, noise", LAYOUTS)
    def test_units_do_not_depend_on_their_batch(self, pair, noise):
        X = self._data(pair, noise)
        units = Partition(np.arange(X.shape[0]), np.arange(0, X.shape[0] + 1, 4))
        report = {}
        reps = representatives(X, units, "pinv", report)

        fallbacks, worst = 0, 0.0
        for j in range(self.UNITS):
            unit = {}
            alone = representatives(X[4 * j:4 * j + 4], Partition(np.arange(4), np.array([0, 4])),
                                    "pinv", unit)
            assert np.array_equal(reps[j], alone[0])
            fallbacks += unit["fallbacks"]
            worst = max(worst, unit["max_residual"])
        assert report["fallbacks"] == fallbacks
        if pair == "antipodal":
            # no plain solve meets the constraint (test below): all fall back
            assert fallbacks == self.UNITS
        else:
            assert 0 < fallbacks < self.UNITS
        assert report["max_residual"] == worst

    @pytest.mark.parametrize("pair, noise", LAYOUTS)
    def test_accepted_units_meet_the_constraint(self, pair, noise):
        # the paper's promise is <m, x_i> = 1 for every member: a plain solve
        # is kept only when it holds. A kept m = z X lies in the members' row
        # space, so its norm is the minimal norm up to what the residual
        # allows: sqrt(n) 2e-8 / sigma_min(X)
        X = self._data(pair, noise)
        for j in range(self.UNITS):
            unit = X[4 * j:4 * j + 4]
            report = {}
            m = pinv_vector(unit, report)
            resid = np.max(np.abs(unit @ m - 1.0))
            assert report["max_residual"] == pytest.approx(resid, rel=1e-6, abs=1e-15)
            if report["fallbacks"] == 0:
                assert resid <= 2e-8
                least, _, _, sv = np.linalg.lstsq(unit, np.ones(4), rcond=None)
                assert abs(np.linalg.norm(m) - np.linalg.norm(least)) <= 2 * 2e-8 / sv.min()

    def test_singular_unit_leaves_its_batch_alone(self):
        # unit 7 repeats a member exactly, so the batch's solve raises and its
        # units are solved one by one: each comes out as it does alone
        X = self._data("near", 1e-8)
        X[29] = X[28]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(X[28:32] @ X[28:32].T, np.ones(4))
        report = {}
        units = Partition(np.arange(X.shape[0]), np.arange(0, X.shape[0] + 1, 4))
        reps = representatives(X, units, "pinv", report)
        fallbacks = 0
        for j in range(self.UNITS):
            unit = {}
            assert np.array_equal(reps[j], pinv_vector(X[4 * j:4 * j + 4], unit))
            fallbacks += unit["fallbacks"]
        assert report["fallbacks"] == fallbacks
