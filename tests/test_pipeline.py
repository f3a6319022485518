import dataclasses
import glob
import os

import numpy as np
import pytest

from cdfnet import pipeline
from cdfnet.augment import AugmentPlan, expand_set
from cdfnet.committee import read_score_file, sum_scores, table_predict
from cdfnet.config import Layer1Config, Layer2Config, NetworkConfig, Seeds, load_network_config
from cdfnet.errors import DimError, FormatError, InvalidGrouping, InvalidWindow
from cdfnet.kmeans import FilterBank
from cdfnet.layer import make_groups, run_layer
from cdfnet.model_io import read_container, write_container
from cdfnet.patches import PatchMatrix, ZcaTransform, fit_zca
from cdfnet.pipeline import (
    ExperimentReport,
    NetworkModel,
    ReportSection,
    descriptor_shape,
    evaluate_protocol,
    extract_descriptors,
    load_model,
    load_svm,
    render_report,
    report_csv,
    save_model,
    save_svm,
    train_and_score,
    train_network,
)
from cdfnet.stl10 import FoldPlan, LabeledImage
from cdfnet.svm import SvmModel
from cdfnet.tensor import SeededRng

import forward_oracle
import train_oracle
from helpers import stripe_dataset


def nano_config(name="nano", seeds=Seeds(1, 2, 3, 4), **overrides):
    """8-filter network sized for 32x32 inputs; descriptor is 2 groups x 6."""
    kwargs = dict(
        name=name,
        layer1=Layer1Config(
            k=8, patch_side=5, pool_side=8, pool_stride=5,
            lcn_window=5, lcn_sigma=1.25, n_patches=2000,
        ),
        layer2=Layer2Config(
            k_per_group=6, patch_side=3, group_size=4, pool_side=3, pool_stride=3,
            lcn_window=3, lcn_sigma=0.75, n_patches=1500,
        ),
        seeds=seeds,
        svm_reg_c=16.0,
    )
    kwargs.update(overrides)
    return NetworkConfig(**kwargs)


@pytest.fixture(scope="module")
def nano_model():
    return train_network(nano_config(), stripe_dataset(10, side=32, seed=3))


class TestTrain:
    def test_model_structure(self, nano_model):
        assert nano_model.input_shape == (32, 32)
        assert nano_model.bank1.filters.shape == (25, 8)
        assert nano_model.groups.n_groups == 2
        assert nano_model.bank2.filters.shape == (2, 3 * 3 * 4, 6)
        assert nano_model.bank2.whitening.matrix.shape == (2, 36, 36)

    def test_descriptor_shape_closed_form(self, nano_model):
        cfg = nano_model.config
        l1, l2, n_groups, dim = descriptor_shape(cfg, 32, 32)
        assert l1 == (5, 5, 8)
        assert l2 == (1, 1, 6)
        assert n_groups == 2
        descs = extract_descriptors(nano_model, stripe_dataset(3, side=32, seed=9))
        assert dim == 12
        assert descs.shape == (3, dim) and descs.dtype == np.float64

    def test_deterministic_retrain(self, nano_model):
        again = train_network(nano_config(), stripe_dataset(10, side=32, seed=3))
        assert np.array_equal(again.bank1.filters, nano_model.bank1.filters)
        assert again.groups.groups == nano_model.groups.groups
        assert np.array_equal(again.bank2.filters, nano_model.bank2.filters)
        probe = stripe_dataset(2, side=32, seed=11)
        assert np.array_equal(
            extract_descriptors(again, probe), extract_descriptors(nano_model, probe)
        )

    def test_seed_sensitivity(self, nano_model):
        other = train_network(
            nano_config(seeds=Seeds(10, 20, 30, 40)), stripe_dataset(10, side=32, seed=3)
        )
        assert not np.array_equal(other.bank1.filters, nano_model.bank1.filters)

    def test_bad_grouping_fails_before_training(self):
        cfg = nano_config(layer2=Layer2Config(
            k_per_group=6, patch_side=3, group_size=3, pool_side=2, pool_stride=2,
            lcn_window=3, lcn_sigma=0.75, n_patches=1500,
        ))
        # 8 maps into groups of 3 cannot work; must raise without training
        with pytest.raises(InvalidGrouping):
            train_network(cfg, stripe_dataset(10, side=32, seed=3))

    def test_mixed_sizes_rejected(self):
        imgs = stripe_dataset(4, side=32, seed=3) + stripe_dataset(2, side=48, seed=4, first_id=50)
        with pytest.raises(DimError):
            train_network(nano_config(), imgs)

    def test_banks_count_checked(self, nano_model):
        with pytest.raises(DimError):
            NetworkModel(
                nano_model.config, nano_model.bank1, nano_model.groups,
                FilterBank(nano_model.bank2.filters[:1], 3, 4), nano_model.input_shape,
            )


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class _Reached(Exception):
    """Raised by a stage that a test requires never to run."""


def _never(*args, **kwargs):
    raise _Reached


class TestFailBeforeCompute:
    @staticmethod
    def _n1_with_pool_90():
        # layer-1 convolution maps 96x96 to 81x81, so a pool window of 90 cannot fit
        cfg = load_network_config(os.path.join(CONFIG_DIR, "n1.ini"))
        return dataclasses.replace(
            cfg, layer1=dataclasses.replace(cfg.layer1, pool_side=90, pool_stride=90)
        )

    def test_descriptor_shape_raises_for_impossible_chain(self):
        with pytest.raises(InvalidWindow, match="pool window 90"):
            descriptor_shape(self._n1_with_pool_90(), 96, 96)
        # 300 layer-1 maps cannot form groups of 7
        cfg = nano_config(layer1=Layer1Config(k=300), layer2=Layer2Config(group_size=7))
        with pytest.raises(InvalidGrouping, match="group size 7"):
            descriptor_shape(cfg, 96, 96)

    def test_train_network_raises_before_patches_and_kmeans(self, monkeypatch):
        monkeypatch.setattr(pipeline, "extract_patches", _never)
        monkeypatch.setattr(pipeline, "kmeans", _never)
        with pytest.raises(InvalidWindow):
            train_network(self._n1_with_pool_90(), stripe_dataset(2, side=96, seed=3))

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(CONFIG_DIR, "n[1-5].ini"))), ids=os.path.basename
    )
    def test_shipped_config_shape_chain(self, path):
        l1, l2, n_groups, dim = descriptor_shape(load_network_config(path), 96, 96)
        assert min(l1) > 0 and min(l2) > 0 and n_groups > 0 and dim > 0


class TestExtract:
    def test_wrong_size_rejected(self, nano_model):
        with pytest.raises(DimError):
            extract_descriptors(nano_model, stripe_dataset(1, side=48, seed=5))

    @pytest.mark.parametrize("mode", ["layer2_only", "concat_layers"])
    def test_no_images(self, mode):
        cfg = nano_config(descriptor_mode=mode)
        model = train_network(cfg, stripe_dataset(8, side=32, seed=3))
        descs = extract_descriptors(model, [])
        assert descs.shape == (0, descriptor_shape(cfg, 32, 32)[3])

    def test_identical_images_identical_descriptors(self, nano_model):
        img = stripe_dataset(1, side=32, seed=17)[0]
        twin = LabeledImage(img.pixels.copy(), img.label, image_id=99)
        da, db = extract_descriptors(nano_model, [img, twin])
        assert np.array_equal(da, db)

    def test_ids_and_finiteness(self, nano_model):
        imgs = stripe_dataset(3, side=32, seed=7, first_id=100)
        descs = extract_descriptors(nano_model, imgs)
        # row i belongs to imgs[i], whatever the ids
        for i, img in enumerate(imgs):
            assert np.array_equal(descs[i], extract_descriptors(nano_model, [img])[0])
        assert np.all(np.isfinite(descs))

    def test_concat_layers_mode(self):
        cfg = nano_config(descriptor_mode="concat_layers")
        model = train_network(cfg, stripe_dataset(8, side=32, seed=3))
        l1, l2, n_groups, dim = descriptor_shape(cfg, 32, 32)
        assert dim == n_groups * np.prod(l2) + np.prod(l1)
        descs = extract_descriptors(model, stripe_dataset(2, side=32, seed=9))
        assert descs.shape == (2, dim)

    def test_scale_factor_rescales_internally(self):
        cfg = nano_config(scale_factor=0.5)
        native = stripe_dataset(8, side=64, seed=3)
        model = train_network(cfg, native)
        assert model.input_shape == (32, 32)
        descs = extract_descriptors(model, stripe_dataset(2, side=64, seed=9))
        assert descs.shape == (2, descriptor_shape(cfg, 64, 64)[3])
        # pre-scaled images no longer match after the internal rescale
        with pytest.raises(DimError):
            extract_descriptors(model, stripe_dataset(1, side=32, seed=9))


class TestModelPersistence:
    def test_round_trip_descriptors_bitwise(self, nano_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, nano_model)
        back = load_model(path)
        assert back.config == nano_model.config
        assert back.input_shape == nano_model.input_shape
        assert back.groups.groups == nano_model.groups.groups
        assert np.array_equal(back.bank1.filters, nano_model.bank1.filters)
        assert np.array_equal(back.bank1.whitening.matrix, nano_model.bank1.whitening.matrix)
        probe = stripe_dataset(3, side=32, seed=13)
        assert np.array_equal(
            extract_descriptors(back, probe), extract_descriptors(nano_model, probe)
        )

    def test_save_is_deterministic(self, nano_model, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(p1, nano_model)
        save_model(p2, nano_model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_tensor_reported(self, nano_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, nano_model)
        tensors, text = read_container(path)
        del tensors["layer1/zca_mean"]
        broken = tmp_path / "broken.bin"
        write_container(broken, tensors, text)
        with pytest.raises(FormatError, match="missing tensor"):
            load_model(broken)

    def test_n1_container_layout(self, tmp_path):
        # an n1-shaped model: 300 layer-1 filters, 75 groups of 4 maps
        cfg = load_network_config(os.path.join(CONFIG_DIR, "n1.ini"))
        rng = np.random.default_rng(1)
        l1, l2 = cfg.layer1, cfg.layer2
        d1, d2 = l1.patch_side**2, l2.patch_side**2 * l2.group_size
        groups = make_groups(l1.k, l2.group_size, SeededRng(cfg.seeds.grouping))
        g = groups.n_groups
        zca2 = fit_zca(PatchMatrix(rng.random((d2, 100)), l2.patch_side, l2.group_size), 0.1)
        model = NetworkModel(
            cfg,
            FilterBank(rng.standard_normal((d1, l1.k)), l1.patch_side, 1,
                       ZcaTransform(np.zeros(d1), np.eye(d1), l1.zca_epsilon), 1),
            groups,
            FilterBank(
                rng.standard_normal((g, d2, l2.k_per_group)), l2.patch_side, l2.group_size,
                ZcaTransform(rng.standard_normal((g, d2)),
                             np.tile(zca2.matrix, (g, 1, 1)), l2.zca_epsilon),
                2,
            ),
            (96, 96),
        )
        path = tmp_path / "n1.model"
        save_model(path, model)
        tensors, _ = read_container(path)
        assert list(tensors) == [
            "input_shape",
            "layer1/filters", "layer1/zca_mean", "layer1/zca_matrix", "layer1/zca_epsilon",
            "groups",
            "layer2/filters", "layer2/zca_mean", "layer2/zca_matrix", "layer2/zca_epsilon",
        ]
        back = load_model(path).bank2
        want = model.bank2
        assert back.filters.shape == (75, 36, 75)
        assert back.filters.tobytes() == want.filters.tobytes()
        assert back.whitening.mean.tobytes() == want.whitening.mean.tobytes()
        assert back.whitening.matrix.tobytes() == want.whitening.matrix.tobytes()
        assert back.whitening.epsilon == want.whitening.epsilon
        assert (back.patch_side, back.depth, back.layer_index) == (3, 4, 2)

    def test_svm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        svm = SvmModel(
            weights=rng.standard_normal((3, 7)),
            biases=rng.standard_normal(3),
            reg_c=0.125,
            feature_mean=rng.standard_normal(7),
            feature_std=rng.random(7) + 0.5,
        )
        path = tmp_path / "svm.bin"
        save_svm(path, svm)
        back = load_svm(path)
        assert back.reg_c == svm.reg_c
        assert np.array_equal(back.weights, svm.weights)
        assert np.array_equal(back.biases, svm.biases)
        assert np.array_equal(back.feature_mean, svm.feature_mean)
        assert np.array_equal(back.feature_std, svm.feature_std)


class TestReportSections:
    def test_mean_and_sample_std(self):
        sec = ReportSection("n1", (0, 1), (0.60, 0.62))
        assert sec.mean == pytest.approx(0.61, abs=1e-15)
        assert sec.std == pytest.approx(0.014142135623730951, abs=1e-12)

    def test_single_fold_std_zero(self):
        assert ReportSection("n1", (4,), (0.5,)).std == 0.0

    def test_render_report_mentions_members(self):
        report = ExperimentReport(
            networks=(ReportSection("a", (0,), (0.5,)), ReportSection("b", (0,), (0.7,))),
            committee=ReportSection("committee", (0,), (0.8,)),
            committee_members=("a", "b"),
        )
        text = render_report(report)
        assert "[committee]" in text
        assert "members a b" in text
        assert "fold 0 accuracy 0.8" in text

    def test_csv_layout(self):
        report = ExperimentReport(
            networks=(ReportSection("a", (0, 1), (0.5, 0.6)),),
            committee=ReportSection("committee", (0, 1), (0.55, 0.65)),
            committee_members=("a",),
        )
        lines = report_csv(report).splitlines()
        assert lines[0] == "fold,network,accuracy"
        assert lines[1] == "0,a,0.5"
        assert lines[-1] == "1,committee,0.65"


class TestProtocol:
    def test_train_and_score_table(self):
        cfg = nano_config()
        train = stripe_dataset(10, side=32, seed=3)
        test = stripe_dataset(6, side=32, seed=21, first_id=500)
        _, _, table = train_and_score(cfg, train, test)
        assert table.network_id == cfg.name
        assert table.normalized
        assert table.image_ids == tuple(range(500, 506))
        assert table.n_classes == 2

    def test_evaluate_protocol_outputs(self, tmp_path):
        cfgs = [nano_config("na", Seeds(1, 2, 3, 4)), nano_config("nb", Seeds(5, 6, 7, 8))]
        train = stripe_dataset(14, side=32, seed=3)
        test = stripe_dataset(6, side=32, seed=21, first_id=500)
        plan = FoldPlan(((0, 1, 2, 3, 4, 5, 6, 7), (6, 7, 8, 9, 10, 11, 12, 13)), n_train=14)
        out = tmp_path / "run"
        report = evaluate_protocol(cfgs, train, test, plan, out_dir=out)

        assert [s.name for s in report.networks] == ["na", "nb"]
        assert report.committee_members == ("na", "nb")
        assert report.committee.fold_indices == (0, 1)
        assert (out / "report.txt").exists() and (out / "report.csv").exists()

        # the report must be recomputable from the persisted score files
        test_labels = [img.label for img in test]
        for fi, fold in enumerate(report.committee.fold_indices):
            tables = [read_score_file(out / f"scores_fold{fold}_{c.name}.txt") for c in cfgs]
            for c, t in zip(cfgs, tables):
                acc = np.mean(np.array(table_predict(t)) == test_labels)
                section = next(s for s in report.networks if s.name == c.name)
                assert acc == section.accuracies[fi]
            fused = sum_scores(tables)
            acc = np.mean(np.array(table_predict(fused)) == test_labels)
            assert acc == report.committee.accuracies[fi]

    def test_fold_subset(self, tmp_path):
        cfgs = [nano_config("solo")]
        train = stripe_dataset(10, side=32, seed=3)
        test = stripe_dataset(4, side=32, seed=21, first_id=500)
        plan = FoldPlan(((0, 1, 2, 3, 4, 5), (4, 5, 6, 7, 8, 9)), n_train=10)
        report = evaluate_protocol(cfgs, train, test, plan, fold_indices=(1,))
        assert report.networks[0].fold_indices == (1,)
        assert len(report.networks[0].accuracies) == 1

    def test_fold_out_of_range_rejected_before_training(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_train", _never)
        plan = FoldPlan(((0, 1, 2, 3, 4, 5), (4, 5, 6, 7, 8, 9)), n_train=10)
        train = stripe_dataset(10, side=32, seed=3)
        for folds in ((0, 2), (0, -1)):
            with pytest.raises(ValueError, match=f"fold {folds[1]} out of range"):
                evaluate_protocol([nano_config("solo")], train, [], plan, fold_indices=folds)

    def test_fold_beyond_loaded_images_rejected_before_training(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_train", _never)
        plan = FoldPlan(((0, 1), (2, 3, 4, 5)), n_train=10)
        train = stripe_dataset(4, side=32, seed=3)
        with pytest.raises(ValueError, match="fold 1 lists image 4, but only 4 images"):
            evaluate_protocol([nano_config("solo")], train, [], plan, fold_indices=(0, 1))

    def test_failed_report_write_keeps_previous(self, tmp_path, monkeypatch):
        def broken(report):
            raise OSError("disk full")

        out = tmp_path / "run"
        out.mkdir()
        (out / "report.csv").write_text("previous\n")
        monkeypatch.setattr(pipeline, "report_csv", broken)
        plan = FoldPlan(((0, 1, 2, 3, 4, 5),), n_train=6)
        train = stripe_dataset(6, side=32, seed=3)
        test = stripe_dataset(4, side=32, seed=21, first_id=500)
        with pytest.raises(OSError, match="disk full"):
            evaluate_protocol([nano_config("solo")], train, test, plan, out_dir=out)
        assert (out / "report.csv").read_text() == "previous\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "report.csv", "report.txt", "scores_fold0_solo.txt"
        ]

    def test_duplicate_names_rejected(self):
        cfgs = [nano_config("same"), nano_config("same", Seeds(5, 6, 7, 8))]
        with pytest.raises(ValueError):
            evaluate_protocol(cfgs, [], [], FoldPlan(((0,),), n_train=1))


class TestStackedTraining:
    """Training on stacked arrays against the per-image, per-group oracle, bitwise."""

    VARIANTS = {
        "abs": {},
        "on_off": dict(rectifier="on_off"),
        "scale_factor": dict(scale_factor=0.5),
        "mirror_rotation": dict(augment=AugmentPlan(mirror=True, rotations_deg=(-10.0, 15.0))),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_train_oracle(self, variant):
        cfg = nano_config(variant, **self.VARIANTS[variant])
        side = 64 if cfg.scale_factor else 32
        images = stripe_dataset(6, side=side, seed=3)
        got = train_network(cfg, images)
        want = train_oracle.train_network(cfg, images)
        assert got.input_shape == want.input_shape
        assert got.groups == want.groups
        for a, b in ((got.bank1, want.bank1), (got.bank2, want.bank2)):
            assert np.array_equal(a.filters, b.filters)
            assert np.array_equal(a.whitening.mean, b.whitening.mean)
            assert np.array_equal(a.whitening.matrix, b.whitening.matrix)
            assert (a.patch_side, a.depth, a.layer_index) == (b.patch_side, b.depth, b.layer_index)


class TestBatchedForward:
    """The batched forward pass against the per-image, per-group oracle."""

    VARIANTS = {
        "abs": {},
        "on_off": dict(rectifier="on_off"),
        "concat_layers": dict(descriptor_mode="concat_layers"),
        "scale_factor": dict(scale_factor=0.5),
        # layer 1 pools disjoint tiles, layer 2 overlapping windows with alpha 2
        "pool_variants": dict(
            layer1=dataclasses.replace(nano_config().layer1, pool_side=5, pool_stride=5),
            layer2=dataclasses.replace(
                nano_config().layer2, pool_side=2, pool_stride=1, pool_alpha=2.0
            ),
        ),
        "no_dense_preprocess": dict(
            layer1=dataclasses.replace(nano_config().layer1, dense_preprocess=False),
            layer2=dataclasses.replace(nano_config().layer2, dense_preprocess=False),
        ),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_per_group_oracle(self, variant):
        cfg = nano_config(variant, **self.VARIANTS[variant])
        side = 64 if cfg.scale_factor else 32
        images = stripe_dataset(6, side=side, seed=3)
        model = train_network(cfg, images)
        got = extract_descriptors(model, images)
        expect = forward_oracle.extract_descriptors(model, images)
        assert got.shape == expect.shape == (6, descriptor_shape(cfg, side, side)[3])
        assert np.max(np.abs(got - expect)) <= 1e-9 * np.max(np.abs(expect))

    def test_train_and_score_runs_each_stage_once(self, monkeypatch):
        calls = {"expand_set": 0, "layer1": 0}

        def counting_expand(images, plan):
            calls["expand_set"] += 1
            return expand_set(images, plan)

        def counting_run_layer(fmset, bank, cfg, rectifier):
            calls["layer1"] += bank.layer_index == 1
            return run_layer(fmset, bank, cfg, rectifier)

        monkeypatch.setattr(pipeline, "expand_set", counting_expand)
        monkeypatch.setattr(pipeline, "run_layer", counting_run_layer)
        cfg = nano_config(augment=AugmentPlan(mirror=True))
        fold = stripe_dataset(6, side=32, seed=3)
        test = stripe_dataset(4, side=32, seed=21, first_id=500)
        train_and_score(cfg, fold, test)
        assert calls == {"expand_set": 1, "layer1": 2 * len(fold) + len(test)}
