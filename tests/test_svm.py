import re

import numpy as np
import pytest

from cdfnet import svm as svm_mod
from cdfnet.errors import DegenerateLabels, DimError, NonFiniteValue
from cdfnet.svm import SvmModel, _dual_cd_l2svm, score_many, train_ova_svm
from cdfnet.tensor import SeededRng

from helpers import traced_peak
from train_oracle import (
    dual_cd_l2svm,
    primal_objectives,
    primal_svm,
    standardized_scores,
    standardized_svm,
)


def _solve(x, y, c_eff, max_epochs, tol):
    """_dual_cd_l2svm on x's Gram matrix with its stopping rule svm.MAX_EPOCHS
    and svm.TOL set, returning (w, objectives, max_pg) with w = coef @ x."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svm_mod, "MAX_EPOCHS", max_epochs)
        mp.setattr(svm_mod, "TOL", tol)
        coef, objectives, max_pg = _dual_cd_l2svm(x @ x.T, y, c_eff, SeededRng(0))
    return coef @ x, objectives, max_pg


def _recorded_solves(monkeypatch):
    """A list that collects (q, epochs) of every solve train_ova_svm runs."""
    solves = []

    def recording(q, *args):
        coef, objectives, max_pg = _dual_cd_l2svm(q, *args)
        solves.append((q, len(objectives)))
        return coef, objectives, max_pg

    monkeypatch.setattr(svm_mod, "_dual_cd_l2svm", recording)
    return solves


def _descs(values):
    return np.asarray(values, dtype=np.float64)


def _predict(model, descs):
    return np.argmax(score_many(model, descs), axis=1).tolist()


def _three_class_toy():
    rng = np.random.default_rng(0)
    centers = np.array([(0.0, 5.0), (5.0, -3.0), (-5.0, -3.0)])
    return np.concatenate([c + rng.normal(0, 0.4, (30, 2)) for c in centers]), np.arange(90) // 30


def _two_class_toy():
    # two clusters on the x-axis, margin well over 1
    pts = [(-3.0, 0.4), (-2.5, -0.2), (-3.2, 0.1), (-2.8, 0.0), (-3.1, -0.3),
           (3.0, 0.2), (2.6, -0.1), (3.3, 0.05), (2.9, 0.15), (3.1, -0.25)]
    labels = [0] * 5 + [1] * 5
    return _descs(pts), labels


class TestTrain:
    def test_separable_toy_perfect_training_accuracy(self):
        descs, labels = _two_class_toy()
        model = train_ova_svm(descs, labels, reg_c=1.0)
        assert _predict(model, descs) == labels

    def test_single_class_rejected(self):
        descs, _ = _two_class_toy()
        with pytest.raises(DegenerateLabels):
            train_ova_svm(descs, [1] * len(descs), reg_c=1.0)

    def test_negative_label_rejected(self):
        descs, labels = _two_class_toy()
        with pytest.raises(DegenerateLabels, match="labels must be non-negative"):
            train_ova_svm(descs, [-1] + labels[1:], reg_c=1.0)

    def test_duplication_invariance(self, monkeypatch):
        # the exact minimizer is identical because the per-point cost scales
        # as C/n; run the solver tight enough that we see that minimizer
        monkeypatch.setattr(svm_mod, "TOL", 1e-9)
        descs, labels = _two_class_toy()
        model_a = train_ova_svm(descs, labels, reg_c=4.0)
        model_b = train_ova_svm(np.vstack([descs, descs]), labels + labels, reg_c=4.0)
        probe = _descs([(0.5, 0.5), (-1.0, 2.0), (2.0, -2.0)])
        assert np.allclose(score_many(model_a, probe), score_many(model_b, probe), atol=1e-6)

    def test_deterministic(self):
        # the svm_fit-shaped set runs the Gram and weight products through BLAS
        for descs, labels in (_two_class_toy(), _svm_fit_shaped()):
            a = train_ova_svm(descs, labels, reg_c=2.0)
            b = train_ova_svm(descs, labels, reg_c=2.0)
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)

    def test_three_classes(self):
        descs, labels = _three_class_toy()
        model = train_ova_svm(descs, labels, reg_c=1.0)
        assert model.n_classes == 3
        assert _predict(model, descs) == labels.tolist()

    def test_constant_feature_is_harmless(self):
        # zero-variance dimension hits the std floor instead of dividing by 0
        descs = _descs([(1.0, -2.0), (1.0, -1.0), (1.0, 1.0), (1.0, 2.0)])
        model = train_ova_svm(descs, [0, 0, 1, 1], reg_c=1.0)
        assert np.all(np.isfinite(model.weights))
        assert np.all(np.isfinite(score_many(model, descs[:1])))

    @pytest.mark.parametrize("value", [0.3, 0.1, -1 / 3])
    def test_constant_feature_gets_weight_zero(self, value):
        # its standardized column would be rounding error over STD_FLOOR
        rng = np.random.default_rng(5)
        labels = np.arange(60) % 3
        descs = rng.standard_normal((60, 5)) + labels[:, None]
        descs[:, 0] = value
        model = train_ova_svm(descs, labels, reg_c=1.0)
        assert np.all(model.weights[:, 0] == 0.0)
        moved = descs[:10].copy()
        moved[:, 0] += 1.0
        assert np.array_equal(score_many(model, moved), score_many(model, descs[:10]))

    def test_mismatched_dims_rejected(self):
        # descriptors must be one (n_images, dim) matrix
        for bad in (np.zeros(2), np.zeros((2, 3, 1))):
            with pytest.raises(DimError):
                train_ova_svm(bad, [0, 1], reg_c=1.0)

    def test_label_count_mismatch(self):
        descs, labels = _two_class_toy()
        with pytest.raises(DimError):
            train_ova_svm(descs, labels[:-1], reg_c=1.0)

    def test_absent_intermediate_class(self):
        # labels {0, 2}: class 1 never appears but the model still has 3 rows
        descs, labels = _two_class_toy()
        labels = [0 if v == 0 else 2 for v in labels]
        model = train_ova_svm(descs, labels, reg_c=1.0)
        assert model.n_classes == 3
        assert _predict(model, descs) == labels


class TestObjective:
    def test_dual_objective_non_increasing(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 5))
        x = np.hstack([x, np.ones((60, 1))])
        y = np.where(rng.random(60) < 0.5, 1.0, -1.0)
        for c_eff in (0.01, 0.5, 10.0):
            _, objectives, _ = _solve(x, y, c_eff, 50, 0.0)
            diffs = np.diff(objectives)
            assert np.all(diffs <= 1e-9 * np.maximum(np.abs(objectives[:-1]), 1.0))

    def test_objectives_match_design_matrix_solver(self, monkeypatch):
        # w.w = (alpha * y).u is the oracle's w.w, epoch by epoch
        rng = np.random.default_rng(4)
        x = np.hstack([rng.standard_normal((50, 30)), np.ones((50, 1))])
        y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        w, objectives, max_pg = _solve(x, y, 0.05, 1000, 1e-6)
        monkeypatch.setattr(svm_mod, "TOL", 1e-6)
        want_w, want, want_pg = dual_cd_l2svm(x, y, 0.05, SeededRng(0))
        assert len(objectives) == len(want)
        assert np.allclose(objectives, want, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(w - want_w)) <= 1e-12 * np.max(np.abs(want_w))
        assert max_pg < 1e-6 and want_pg < 1e-6

    def test_converges_on_easy_problem(self):
        x = np.array([[-1.0, 1.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        w, objectives, max_pg = _solve(x, y, 1.0, 1000, 1e-4)
        assert max_pg < 1e-4 and len(objectives) < 1000  # stopped early on the gradient test
        assert w[0] > 0  # separates the two points


class TestConvergenceWarning:
    @staticmethod
    def _data():
        rng = np.random.default_rng(2)
        labels = np.arange(30) % 3
        return rng.standard_normal((30, 4)) + labels[:, None], labels

    def test_each_class_at_max_epochs_warns(self, caplog, monkeypatch):
        monkeypatch.setattr(svm_mod, "MAX_EPOCHS", 1)
        descs, labels = self._data()
        with caplog.at_level("WARNING", logger="cdfnet.svm"):
            model = train_ova_svm(descs, labels, reg_c=1.0)
        messages = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        pattern = (
            r"SVM class (\d+): dual CD ran 1 epochs without reaching tol 0\.0001"
            r" \(max projected gradient (\S+)\)"
        )
        matches = [re.fullmatch(pattern, m) for m in messages]
        assert all(matches), messages
        assert [int(m[1]) for m in matches] == [0, 1, 2]
        assert all(float(m[2]) >= 1e-4 for m in matches)
        # the warning changes nothing about the model
        caplog.clear()
        again = train_ova_svm(descs, labels, reg_c=1.0)
        assert np.array_equal(model.weights, again.weights)
        assert np.array_equal(model.biases, again.biases)

    def test_converged_classes_are_silent(self, caplog):
        descs, labels = self._data()
        with caplog.at_level("WARNING", logger="cdfnet.svm"):
            train_ova_svm(descs, labels, reg_c=1.0)
        assert not [r for r in caplog.records if r.levelname == "WARNING"]


class TestScore:
    def _model(self, weights, biases):
        return SvmModel(
            weights=np.asarray(weights, dtype=np.float64),
            biases=np.asarray(biases, dtype=np.float64),
        )

    def test_zero_weights_gives_biases(self):
        model = self._model(np.zeros((3, 2)), [0.3, -0.1, 4.0])
        s = score_many(model, np.array([[5.0, -7.0], [0.0, 1.0]]))
        assert np.array_equal(s, [[0.3, -0.1, 4.0], [0.3, -0.1, 4.0]])

    def test_one_hot_row_picks_component(self):
        model = self._model([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.0])
        s = score_many(model, np.array([[2.0, 3.0]]))
        assert s.shape == (1, 2)
        assert s[0, 0] == pytest.approx(3.5, abs=1e-15)
        assert s[0, 1] == pytest.approx(2.0, abs=1e-15)

    def test_dot_product_oracle(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        model = self._model(w, b)
        x = rng.standard_normal((5, 6))
        s = score_many(model, x)
        expect = np.array([[w[c] @ x[i] + b[c] for c in range(4)] for i in range(5)])
        assert np.allclose(s, expect, atol=1e-12)

    def test_linear_in_input(self):
        rng = np.random.default_rng(3)
        model = self._model(rng.standard_normal((3, 4)), rng.standard_normal(3))
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        s_ab, s_a, s_b = score_many(model, np.stack([a + b, a, b]))
        # score(a+b) + bias = score(a) + score(b)
        assert np.allclose(s_ab, s_a + s_b - model.biases, atol=1e-10)

    def test_dim_mismatch(self):
        model = self._model(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(DimError):
            score_many(model, np.zeros((1, 4)))
        with pytest.raises(DimError):
            score_many(model, np.zeros(3))

    def test_score_many_matches_loop(self):
        descs, labels = _two_class_toy()
        model = train_ova_svm(descs, labels, reg_c=1.0)
        batched = score_many(model, descs)
        assert batched.shape == (len(descs), model.n_classes)
        for i in range(len(descs)):
            assert np.allclose(batched[i], score_many(model, descs[i : i + 1])[0], atol=1e-12)


class TestValidation:
    def test_descriptor_rejects_nonfinite(self):
        descs, labels = _two_class_toy()
        model = train_ova_svm(descs, labels, reg_c=1.0)
        for bad in (np.nan, np.inf):
            poisoned = descs.copy()
            poisoned[3, 1] = bad
            with pytest.raises(NonFiniteValue, match="in descriptors") as exc:
                train_ova_svm(poisoned, labels, reg_c=1.0)
            assert exc.value.coord == (3, 1)
            with pytest.raises(NonFiniteValue):
                score_many(model, poisoned)

    @pytest.mark.parametrize("reg_c", [0.0, -1.0, np.nan, np.inf])
    def test_reg_c_positive_and_finite(self, reg_c):
        descs, labels = _two_class_toy()
        with pytest.raises(ValueError, match="reg_c"):
            train_ova_svm(descs, labels, reg_c=reg_c)

    def test_reg_c_default_is_one_constant(self):
        # train_ova_svm and NetworkConfig.svm_reg_c; cdfnet svm takes the latter
        import inspect

        from cdfnet.config import NetworkConfig
        from cdfnet.svm import DEFAULT_REG_C

        defaults = (
            inspect.signature(train_ova_svm).parameters["reg_c"].default,
            NetworkConfig().svm_reg_c,
        )
        assert defaults == (DEFAULT_REG_C,) * 2

    def test_model_needs_two_classes(self):
        with pytest.raises(DimError):
            SvmModel(weights=np.zeros((1, 3)), biases=np.zeros(1))

    @pytest.mark.parametrize(
        "weights, biases", [(np.zeros(3), np.zeros(1)), (np.zeros((2, 3)), np.zeros(3))]
    )
    def test_model_shapes_checked(self, weights, biases):
        with pytest.raises(DimError):
            SvmModel(weights=weights, biases=biases)


class TestStandardizedOracle:
    """The model is stored on raw descriptors; the solver still runs on
    standardized ones, so its scores are the standardized model's."""

    @staticmethod
    def _data(seed):
        rng = np.random.default_rng(seed)
        n, d = 60, 8
        labels = np.arange(n) % 3
        # features of unlike scales and offsets, one of them constant
        scale = rng.uniform(0.1, 10.0, d)
        offset = rng.uniform(-50.0, 50.0, d)
        descs = (rng.standard_normal((n, d)) + labels[:, None]) * scale + offset
        descs[:, 0] = offset[0]
        probe = rng.standard_normal((20, d)) * scale + offset
        return descs, labels, probe

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("reg_c", [0.5, 16.0])
    def test_scores_match_standardized_oracle(self, seed, reg_c):
        descs, labels, probe = self._data(seed)
        model = train_ova_svm(descs, labels, reg_c=reg_c)
        want = standardized_scores(*standardized_svm(descs, labels, reg_c)[:4], probe)
        got = score_many(model, probe)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


def _class_means(n, dim, n_classes, seed):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    means = rng.standard_normal((n_classes, dim))
    return means[labels] + rng.standard_normal((n, dim)), labels


def _svm_fit_shaped():
    # as many rows and dims as one svm_fit fold: class means plus noise;
    # visiting the rows in fixed order stops over 1e-7 short on this set
    return _class_means(100, 5625, 10, 0)


def _wide():
    # the descriptor dimension of n2, n3 and n5, far above the row count
    return _class_means(40, 22500, 4, 1)


class TestGramOracle:
    """The Gram-matrix solver takes the iterates of the solver that works
    on the design matrix itself; only rounding differs."""

    @pytest.mark.parametrize("make", [_svm_fit_shaped, _wide], ids=["svm_fit_shaped", "wide"])
    def test_matches_design_matrix_solver(self, make, monkeypatch):
        descs, labels = make()
        solves = _recorded_solves(monkeypatch)
        model = train_ova_svm(descs, labels)
        weights, biases, mean, std, epochs = standardized_svm(descs, labels, 1.0)
        assert [e for _, e in solves] == epochs
        want = weights / std
        assert np.max(np.abs(model.weights - want)) <= 1e-12 * np.max(np.abs(want))
        got_scores = score_many(model, descs)
        want_scores = standardized_scores(weights, biases, mean, std, descs)
        assert np.array_equal(np.argmax(got_scores, axis=1), np.argmax(want_scores, axis=1))

    def test_gram_matrix_is_exactly_symmetric(self, monkeypatch):
        # the solver reads row i of q as its column i
        descs, labels = _svm_fit_shaped()
        solves = _recorded_solves(monkeypatch)
        train_ova_svm(descs, labels)
        q = solves[0][0]
        assert q.shape == (100, 100)
        assert all(other is q for other, _ in solves)
        assert np.array_equal(q, q.T)


_ORACLE_SETS = {
    "two_class": lambda: (*_two_class_toy(), 1.0),
    "three_class": lambda: (*_three_class_toy(), 1.0),
    "standardized": lambda: (*TestStandardizedOracle._data(0)[:2], 16.0),
    "svm_fit_shaped": lambda: (*_svm_fit_shaped(), 1.0),
}


class TestPrimalOracle:
    """The solver reaches the optimum of the primal objective that an
    L-BFGS-B solve, sharing no code with it, finds on the same design
    matrix."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_SETS))
    def test_reaches_primal_optimum(self, name):
        descs, labels, reg_c = _ORACLE_SETS[name]()
        model = train_ova_svm(descs, labels, reg_c=reg_c)
        *oracle, optimum = primal_svm(descs, labels, reg_c)
        gap = primal_objectives(model, descs, labels, reg_c) - optimum
        assert np.all(np.abs(gap) <= 1e-7 * optimum), gap / optimum
        want = standardized_scores(*oracle, descs)
        assert np.array_equal(np.argmax(score_many(model, descs), axis=1), np.argmax(want, axis=1))

    # at the default tol the stop rule itself leaves the toys' scores
    # 3e-6 to 2e-5 of max|score| from the optimum, in either visiting order
    @pytest.mark.parametrize(
        "name, tol",
        [("two_class", 1e-6), ("three_class", 1e-6), ("standardized", 1e-6),
         ("svm_fit_shaped", svm_mod.TOL)],
    )
    def test_scores_match_primal_optimum(self, name, tol, monkeypatch):
        monkeypatch.setattr(svm_mod, "TOL", tol)
        descs, labels, reg_c = _ORACLE_SETS[name]()
        model = train_ova_svm(descs, labels, reg_c=reg_c)
        want = standardized_scores(*primal_svm(descs, labels, reg_c)[:4], descs)
        got = score_many(model, descs)
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


class TestMemory:
    """Peaks in copies of the (n, d) float64 descriptor matrix."""

    def test_training_builds_one_design_matrix(self):
        rng = np.random.default_rng(7)
        descs = rng.standard_normal((200, 4000))
        labels = np.arange(200) % 2
        model, peak = traced_peak(train_ova_svm, descs, labels)
        assert model.weights.shape == (2, 4000)
        assert peak <= 1.25 * descs.nbytes

    def test_scoring_copies_nothing(self):
        rng = np.random.default_rng(8)
        descs = rng.standard_normal((800, 4000))
        model = train_ova_svm(descs[:100], np.arange(100) % 3)
        scores, peak = traced_peak(score_many, model, descs)
        assert scores.shape == (800, 3)
        # the finiteness check's boolean mask is an eighth of the matrix
        assert peak <= 0.25 * descs.nbytes
