import dataclasses
import glob
import os

import numpy as np
import pytest
# k-means imports scipy.sparse on its first call; loading it here keeps that
# one-time import out of the traced peaks below, whatever order tests run in
import scipy.sparse  # noqa: F401

from cdfnet import kmeans as kmeans_mod
from cdfnet import pipeline
from cdfnet.augment import AugmentPlan, expand_set
from cdfnet.committee import read_score_file, sum_scores, table_predict
from cdfnet.config import Layer1Config, Layer2Config, NetworkConfig, Seeds, load_network_config
from cdfnet.errors import DimError, FormatError, InvalidGrouping, InvalidK, InvalidWindow
from cdfnet.kmeans import FilterBank
from cdfnet.layer import make_groups, run_layer
from cdfnet.model_io import read_container, write_container
from cdfnet.patches import ZcaTransform, fit_zca
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
from cdfnet.stl10 import FoldPlan, LabeledImage, load_fold_plan, load_stl10
from cdfnet.svm import SvmModel
from cdfnet.tensor import SeededRng

import forward_oracle
import train_oracle
from helpers import assert_near_oracle, stripe_dataset, toy_config, traced_peak


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIG_DIR = os.path.join(ROOT, "configs")
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


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
        assert nano_model.groups.shape == (2, 4)
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
        assert np.array_equal(again.groups, nano_model.groups)
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

    def test_layer1_stack_is_float32(self):
        model, labels, outputs1 = pipeline._train(nano_config(), stripe_dataset(6, side=32, seed=3))
        assert outputs1.dtype == np.float32
        assert outputs1.shape == (len(labels), *descriptor_shape(model.config, 32, 32)[0])

    def test_banks_count_checked(self, nano_model):
        zca = nano_model.bank2.whitening
        one = ZcaTransform(zca.mean[:1], zca.matrix[:1], zca.epsilon)
        with pytest.raises(DimError, match="one bank"):
            NetworkModel(
                nano_model.config, nano_model.bank1, nano_model.groups,
                FilterBank(nano_model.bank2.filters[:1], 3, 4, one), nano_model.input_shape,
            )

    def test_filter_counts_checked(self, nano_model):
        # a layer-1 bank short of the config's 8 filters would index past its maps
        m = nano_model
        short = FilterBank(m.bank1.filters[:, :4], 5, 1, m.bank1.whitening, 1)
        with pytest.raises(DimError, match="filter counts 4, 6"):
            NetworkModel(m.config, short, m.groups, m.bank2, m.input_shape)
        narrow = FilterBank(m.bank2.filters[..., :5], 3, 4, m.bank2.whitening, 2)
        with pytest.raises(DimError, match="filter counts 8, 5"):
            NetworkModel(m.config, m.bank1, m.groups, narrow, m.input_shape)


class TestGroupTable:
    """NetworkModel checks its (G, n_k) group table against the config's shape chain."""

    @staticmethod
    def _model(base, groups):
        return NetworkModel(base.config, base.bank1, groups, base.bank2, base.input_shape)

    def test_must_partition(self, nano_model):
        table = nano_model.groups.copy()
        table[1, 0] = table[0, 0]  # a repeated map
        with pytest.raises(InvalidGrouping, match="partition"):
            self._model(nano_model, table)
        table = nano_model.groups.copy()
        table[table == 7] = 8  # a map the layer-1 output does not have
        with pytest.raises(InvalidGrouping, match="partition"):
            self._model(nano_model, table)
        table = nano_model.groups.astype(np.float64)
        table[0, 0] += 0.5  # not an integer
        with pytest.raises(InvalidGrouping, match="partition"):
            self._model(nano_model, table)

    def test_shape_is_the_configs(self, nano_model):
        # nano_config has 8 layer-1 maps in 2 groups of 4
        for table in (nano_model.groups.reshape(4, 2), nano_model.groups.ravel()):
            with pytest.raises(InvalidGrouping, match="2 groups of 4"):
                self._model(nano_model, table)

    def test_float_table_becomes_integers(self, nano_model):
        model = self._model(nano_model, nano_model.groups.astype(np.float64))
        assert model.groups.dtype.kind == "i"
        assert np.array_equal(model.groups, nano_model.groups)

    def test_earlier_container_loads_bitwise(self, tmp_path):
        # tiny_on_off.model and its descriptors were written at commit 1a75bfb,
        # when the group table was a tuple of tuples, the forward pass was
        # float64 and configs still named dense_preprocess and descriptor_mode:
        # an on_off network of 4 layer-1 filters on 16x16 images, so 8 maps in
        # 4 groups of 2
        path = os.path.join(DATA_DIR, "tiny_on_off.model")
        model = load_model(path)
        assert model.groups.shape == (4, 2)
        want = read_container(os.path.join(DATA_DIR, "tiny_on_off.desc"))[0]["descriptors"]
        got = extract_descriptors(model, stripe_dataset(3, side=16, seed=13))
        assert got.dtype == np.float64
        assert_near_oracle(got, want)
        # saving again keeps every tensor's bytes, the group table's included;
        # only the three retired config lines are gone
        save_model(tmp_path / "again.model", model)
        tensors, text = read_container(path)
        again, again_text = read_container(tmp_path / "again.model")
        assert list(again) == list(tensors)
        for name, tensor in tensors.items():
            assert again[name].tobytes() == tensor.tobytes(), name
        retired = ("descriptor_mode = layer2_only\n", "dense_preprocess = true\n")
        kept = [line for line in text.splitlines(keepends=True) if line not in retired]
        assert len(kept) == len(text.splitlines()) - 3
        assert again_text == "".join(kept)




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
        monkeypatch.setattr(pipeline, "kmeans_stack", _never)
        with pytest.raises(InvalidWindow):
            train_network(self._n1_with_pool_90(), stripe_dataset(2, side=96, seed=3))

    # (record, field, value, error): values a record refuses when it is built
    @pytest.mark.parametrize(
        "record, field, value, error",
        [
            ("layer1", "k", 0, InvalidK),
            ("layer2", "k_per_group", 0, InvalidK),
            ("layer1", "patch_side", 0, ValueError),
            ("layer2", "patch_side", 0, ValueError),
            ("layer1", "n_patches", 15, InvalidK),  # below k = 16
            ("layer2", "n_patches", 15, InvalidK),  # below k_per_group = 16
            ("layer1", "zca_epsilon", 0.0, ValueError),
            ("layer2", "zca_epsilon", -1.0, ValueError),
            (None, "svm_reg_c", 0.0, ValueError),
            (None, "svm_reg_c", -1.0, ValueError),
            (None, "svm_reg_c", float("nan"), ValueError),
            (None, "svm_reg_c", float("inf"), ValueError),
        ],
    )
    def test_bad_record_value_raises_before_patches(
        self, monkeypatch, record, field, value, error
    ):
        monkeypatch.setattr(pipeline, "extract_patches", _never)
        cfg = toy_config()
        with pytest.raises(error, match=field):
            if record is None:
                cfg = dataclasses.replace(cfg, **{field: value})
            else:
                layer = dataclasses.replace(getattr(cfg, record), **{field: value})
                cfg = dataclasses.replace(cfg, **{record: layer})
            train_network(cfg, stripe_dataset(2, side=64, seed=3))

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

    def test_no_images(self, nano_model):
        descs = extract_descriptors(nano_model, [])
        assert descs.shape == (0, descriptor_shape(nano_model.config, 32, 32)[3])

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
        assert np.array_equal(back.groups, nano_model.groups)
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

    def test_input_shape_must_be_two_sides(self, nano_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, nano_model)
        tensors, text = read_container(path)
        tensors["input_shape"] = np.array([32.0, 32.0, 1.0])
        broken = tmp_path / "three_sides.bin"
        write_container(broken, tensors, text)
        with pytest.raises(FormatError, match="input_shape"):
            load_model(broken)

    def test_n1_container_layout(self, tmp_path):
        # an n1-shaped model: 300 layer-1 filters, 75 groups of 4 maps
        cfg = load_network_config(os.path.join(CONFIG_DIR, "n1.ini"))
        rng = np.random.default_rng(1)
        l1, l2 = cfg.layer1, cfg.layer2
        d1, d2 = l1.patch_side**2, l2.patch_side**2 * l2.group_size
        groups = make_groups(l1.k, l2.group_size, SeededRng(cfg.seeds.grouping))
        g = len(groups)
        zca2 = fit_zca(rng.random((100, d2)), 0.1)
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
        assert np.array_equal(got.groups, want.groups)
        for a, b in ((got.bank1, want.bank1), (got.bank2, want.bank2)):
            assert np.array_equal(a.filters, b.filters)
            assert np.array_equal(a.whitening.mean, b.whitening.mean)
            assert np.array_equal(a.whitening.matrix, b.whitening.matrix)
            assert (a.patch_side, a.depth, a.layer_index) == (b.patch_side, b.depth, b.layer_index)


class TestTrainBankRows:
    """Filter learning on patch rows against the patches-as-columns path."""

    @pytest.mark.parametrize("base", [0, 1, 2])
    def test_matches_column_oracle(self, base, monkeypatch):
        pairs = []
        real_train_groups = pipeline._train_groups

        def paired_train_groups(maps, groups, layer, k, patch_rngs, kmeans_rngs):
            result, zca = real_train_groups(maps, groups, layer, k, patch_rngs, kmeans_rngs)
            for g, group in enumerate(groups):
                want = train_oracle.column_train_bank(
                    maps[..., group], layer, k, patch_rngs[g], kmeans_rngs[g]
                )
                pairs.append((result, zca, g, want))
            return result, zca

        monkeypatch.setattr(pipeline, "_train_groups", paired_train_groups)
        cfg = toy_config(seeds=Seeds().shifted(base))
        train_network(cfg, stripe_dataset(8, side=64, seed=base))
        assert len(pairs) == 1 + cfg.layer1.k // cfg.layer2.group_size
        for result, zca, g, (want_filters, want_zca, want) in pairs:
            for a, b in ((result.centroids[g], want_filters), (zca.mean[g], want_zca.mean),
                         (zca.matrix[g], want_zca.matrix)):
                assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))
            assert (result.n_iters[g], result.converged[g]) == (want.n_iters, want.converged)

    def test_layer1_peaks_at_two_patch_copies(self):
        # 5000 patches of 16 x 16: a 10 MB patch matrix, sampled from a stack
        # smaller (0.1 MB) and larger (13 MB) than it; a copy of the stack or
        # of a channel of it would push the larger case past the bound
        layer = dataclasses.replace(toy_config().layer1, patch_side=16, n_patches=5000)
        copy_bytes = layer.n_patches * layer.patch_side**2 * 8
        for n_images in (4, 400):
            maps = np.random.default_rng(0).random((n_images, 64, 64, 1))
            (result, _), peak = traced_peak(
                pipeline._train_groups, maps, np.zeros((1, 1), dtype=np.intp), layer,
                layer.k, [SeededRng(1)], [SeededRng(2)],
            )
            assert result.centroids.shape == (1, 256, 16)
            assert peak <= 2.2 * copy_bytes


class TestBatchedKmeans:
    """Layer-2 groups clustered in chunks by one stacked k-means."""

    @staticmethod
    def _record_inits(monkeypatch):
        """Check, on every k-means call training makes, that the norm-based
        k-means++ draws the centers the difference form draws."""
        calls = {"groups": 0}
        real_stack = pipeline.kmeans_stack

        def checked_stack(points, k, max_iters, rngs):
            norms = np.einsum("gnd,gnd->gn", points, points)
            got = kmeans_mod._plusplus_init(points, norms, k, [r.generator() for r in rngs])
            for g, rng in enumerate(rngs):
                drawn = []
                train_oracle.plusplus_init(points[g], k, rng.generator(), drawn)
                assert np.array_equal(got[g], points[g][drawn])
            calls["groups"] += len(rngs)
            return real_stack(points, k, max_iters, rngs)

        monkeypatch.setattr(pipeline, "kmeans_stack", checked_stack)
        return calls

    @pytest.mark.parametrize("base", [0, 1, 2])
    def test_same_plusplus_centers_on_toy_seeds(self, base, monkeypatch):
        calls = self._record_inits(monkeypatch)
        cfg = toy_config(seeds=Seeds().shifted(base))
        train_network(cfg, stripe_dataset(8, side=64, seed=base))
        assert calls["groups"] == 1 + cfg.layer1.k // cfg.layer2.group_size

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_plusplus_centers_on_benchmark_seeds(self, seed, monkeypatch, tmp_path):
        # the fold_job benchmark's n1 training: its data for this seed, fold 0
        monkeypatch.syspath_prepend(ROOT)
        from perfbench import data, workloads

        ds = data.write_dataset(str(tmp_path), seed, workloads.Workload.fold_images, 10)
        cfg = load_network_config(
            workloads.scaled_config(ROOT, "n1", workloads.Workload.patch_scale, str(tmp_path))
        )
        images = load_stl10(ds["paths"]["train_x"], ds["paths"]["train_y"])
        fold = [images[i] for i in load_fold_plan(ds["paths"]["folds"]).folds[0]]
        calls = self._record_inits(monkeypatch)
        train_network(cfg, fold)
        assert calls["groups"] == 1 + descriptor_shape(cfg, 96, 96)[2]

    def test_convergence_is_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(pipeline, "KMEANS_MAX_ITERS", 1)
        cfg = nano_config()
        with caplog.at_level("INFO", logger="cdfnet.pipeline"):
            train_network(cfg, stripe_dataset(6, side=32, seed=3))
        info = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert "nano: layer-1 k-means took 1/1/1 iterations (min/median/max), 0 reseeds" in info
        assert "nano: layer-2 k-means took 1/1/1 iterations (min/median/max), 0 reseeds" in info
        assert warnings == [
            "nano: layer-1 k-means stopped at 1 iterations without converging",
            "nano: layer-2 k-means stopped at 1 iterations without converging in groups 0, 1",
        ]

    def test_converged_training_warns_nothing(self, caplog):
        with caplog.at_level("INFO", logger="cdfnet.pipeline"):
            train_network(nano_config(), stripe_dataset(6, side=32, seed=3))
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        assert sum("k-means took" in r.getMessage() for r in caplog.records) == 2

    @staticmethod
    def _layer2(n_patches, k):
        return Layer2Config(
            k_per_group=k, patch_side=3, group_size=4, pool_side=3, pool_stride=3,
            lcn_window=3, lcn_sigma=0.75, n_patches=n_patches,
        )

    def test_chunk_of_one_group_peaks_as_one_group_did(self):
        # more patches than a chunk's rows: every chunk is one group
        layer = self._layer2(pipeline._CHUNK_ROWS + 1000, 16)
        outputs1 = np.random.default_rng(0).random((6, 20, 20, 8))
        groups = make_groups(8, 4, SeededRng(4))
        prng, krng = SeededRng(1), SeededRng(3)
        per_group = max(
            traced_peak(
                lambda g=g: train_oracle.per_group_train_bank(
                    outputs1[..., groups[g]], layer, layer.k_per_group,
                    prng.child(1 + g), krng.child(g),
                )
            )[1]
            for g in range(len(groups))
        )
        (result, _), peak = traced_peak(
            pipeline._train_groups, outputs1, groups, layer, layer.k_per_group,
            [prng.child(1 + g) for g in range(len(groups))],
            [krng.child(g) for g in range(len(groups))],
        )
        assert result.centroids.shape == (2, 36, 16)
        assert peak <= 1.1 * per_group

    def test_many_small_groups_peak_in_chunk_copies(self):
        # 16 groups of 200 patches all fit one chunk of 3200 rows
        layer = self._layer2(200, 8)
        outputs1 = np.random.default_rng(1).random((4, 12, 12, 64))
        groups = make_groups(64, 4, SeededRng(4))
        assert pipeline._CHUNK_ROWS // layer.n_patches >= len(groups)
        chunk_bytes = len(groups) * layer.n_patches * 36 * 8
        (result, zca), peak = traced_peak(
            pipeline._train_groups, outputs1, groups, layer, layer.k_per_group,
            [SeededRng(1).child(1 + g) for g in range(len(groups))],
            [SeededRng(3).child(g) for g in range(len(groups))],
        )
        assert result.centroids.shape == (16, 36, 8)
        out_bytes = result.centroids.nbytes + zca.mean.nbytes + zca.matrix.nbytes
        # the chunk, the copy the batch is compacted into once groups converge,
        # the distance block and per-group temporaries, plus the returned stacks
        assert peak <= 2.5 * chunk_bytes + out_bytes


class TestFloat32SmallCases:
    """Edge inputs of the float32 forward pass; a RuntimeWarning fails the suite."""

    def test_constant_image_is_the_zero_image(self, nano_model):
        # every patch of a constant image normalizes to exact zeros in
        # float32, as a zero image's patches do, so the layer-1 response is
        # the whitening offset alone
        images = [
            LabeledImage(np.full((32, 32), v), 0, image_id=i) for i, v in enumerate((0.0, 0.37, 1.0))
        ]
        descs = extract_descriptors(nano_model, images)
        assert np.all(np.isfinite(descs))
        assert np.array_equal(descs[1], descs[0]) and np.array_equal(descs[2], descs[0])
        assert_near_oracle(descs, forward_oracle.extract_descriptors(nano_model, images))


class TestBatchedForward:
    """The batched forward pass against the per-image, per-group oracle."""

    VARIANTS = {
        "abs": {},
        "on_off": dict(rectifier="on_off"),
        "scale_factor": dict(scale_factor=0.5),
        # layer 1 pools disjoint tiles, layer 2 overlapping windows with alpha 2
        "pool_variants": dict(
            layer1=dataclasses.replace(nano_config().layer1, pool_side=5, pool_stride=5),
            layer2=dataclasses.replace(
                nano_config().layer2, pool_side=2, pool_stride=1, pool_alpha=2.0
            ),
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
        assert got.dtype == np.float64
        assert_near_oracle(got, expect)

    def test_on_off_matches_oracle_at_benchmark_shape(self, monkeypatch, tmp_path):
        # n5 (ON/OFF, 600 layer-1 maps in 150 groups) on 96x96 images, trained
        # as the test_committee benchmark trains it: fold 0 of its seed-1 data
        monkeypatch.syspath_prepend(ROOT)
        from perfbench import data, workloads

        ds = data.write_dataset(str(tmp_path), 1, workloads.Workload.fold_images, 10)
        cfg = load_network_config(
            workloads.scaled_config(ROOT, "n5", workloads.TestCommittee.patch_scale, str(tmp_path))
        )
        images = load_stl10(ds["paths"]["train_x"], ds["paths"]["train_y"])
        model = train_network(cfg, [images[i] for i in load_fold_plan(ds["paths"]["folds"]).folds[0]])
        test = load_stl10(ds["paths"]["test_x"], ds["paths"]["test_y"])[:4]
        assert_near_oracle(
            extract_descriptors(model, test), forward_oracle.extract_descriptors(model, test)
        )

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
