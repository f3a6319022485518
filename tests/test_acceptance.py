"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-5 run at desk scale in a few minutes total. Criterion 6 is the
full-dataset reproduction; it needs the real STL-10 binaries and hours of
CPU, so it only runs when CDFNET_STL10_DIR points at the data (see README).
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from cdfnet.committee import accuracy, committee_predict, table_predict
from cdfnet.config import Layer1Config, Layer2Config, NetworkConfig, Seeds
from cdfnet.kmeans import FilterBank, kmeans_stack
from cdfnet.layer import (
    _convolve,
    _lcn_subtract,
    _pool,
    _rectify,
    conv_output_shape,
    make_groups,
    run_layer,
)
from cdfnet.patches import ZcaTransform, apply_zca, fit_zca, normalize_rows
from cdfnet.pipeline import (
    NetworkModel,
    descriptor_shape,
    extract_descriptors,
    train_and_score,
    train_network,
)
from cdfnet.stl10 import LabeledImage
from cdfnet.tensor import FeatureMapSet, SeededRng

from forward_oracle import normalize_patch
from helpers import assert_near_oracle, stripe_dataset, toy_config
from train_oracle import unroll_patch


@contextmanager
def _criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


# -- criterion 1: property suite ------------------------------------------------


def _check_zca_whitening():
    # d=32, N=5000 correlated Gaussian patches -> cov within 1e-3 of identity
    rng = np.random.default_rng(0)
    d, n = 32, 5000
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mix = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
    data = rng.standard_normal((n, d)) @ mix + rng.standard_normal(d)
    white = apply_zca(fit_zca(data, 1e-8), data)
    cov = np.cov(white, rowvar=False)
    assert np.max(np.abs(cov - np.eye(d))) < 1e-3


def _check_patch_normalization():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.standard_normal((1, rng.integers(2, 40))) * rng.uniform(0.1, 50.0)
        y = x.copy()
        normalize_rows(y)
        assert abs(y.mean()) <= 1e-12
        for c in (0.5, 3.0, 1e6):
            z = c * x
            normalize_rows(z)
            assert np.allclose(z, y, atol=1e-12)


def _check_on_off_identities():
    rng = np.random.default_rng(2)
    for _ in range(20):
        maps = rng.standard_normal((6, 5, 3))
        out = _rectify(maps, "on_off")
        on, off = out[:, :, 0::2], out[:, :, 1::2]
        assert np.array_equal(on - off, maps)
        assert np.array_equal(on + off, np.abs(maps))
        assert np.all(on * off == 0.0)


def _check_lcn_constants():
    for c in (0.0, 1.0, -3.7, 100.0):
        maps = np.full((12, 11, 4), c)
        _lcn_subtract(maps, window=5, sigma=1.25)
        assert np.max(np.abs(maps)) <= 1e-10


def _check_pooling_limits():
    rng = np.random.default_rng(3)
    for _ in range(20):
        maps = rng.random((13, 12, 2))
        # alpha=1 is the plain window sum
        summed = _pool(maps, pool_side=4, stride=3, alpha=1.0)
        for i in range(summed.shape[0]):
            for j in range(summed.shape[1]):
                win = maps[i * 3 : i * 3 + 4, j * 3 : j * 3 + 4, :]
                assert np.allclose(summed[i, j], win.sum(axis=(0, 1)), atol=1e-12)
        # alpha=64 approximates the window max
        maxish = _pool(maps, pool_side=4, stride=3, alpha=64.0)
        for i in range(maxish.shape[0]):
            for j in range(maxish.shape[1]):
                win = maps[i * 3 : i * 3 + 4, j * 3 : j * 3 + 4, :]
                assert np.max(np.abs(maxish[i, j] - win.max(axis=(0, 1)))) < 0.05


def _check_convolution_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = int(rng.integers(2, 4))
        h = int(rng.integers(p, p + 6))
        w = int(rng.integers(p, p + 6))
        depth = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        maps = rng.standard_normal((h, w, depth))
        zca = fit_zca(rng.random((200, p * p * depth)), 0.1)
        bank = FilterBank(rng.standard_normal((p * p * depth, k)), p, depth, zca)
        got = _convolve(maps, bank)
        want = np.empty(got.shape)
        for i in range(h - p + 1):
            for j in range(w - p + 1):
                patch = zca.matrix @ (normalize_patch(unroll_patch(maps, i, j, p)) - zca.mean)
                for f in range(k):
                    want[i, j, f] = patch @ bank.filters[:, f]
        assert_near_oracle(got, want)  # the forward pass is float32


def _check_kmeans_monotonicity():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 80))
        side = int(rng.integers(2, 4))
        k = int(rng.integers(2, 6))
        points = rng.standard_normal((1, n, side * side))
        result = kmeans_stack(points, k, max_iters=30, rngs=[SeededRng(seed)])
        hist = np.asarray(result.sse_history[0])
        assert np.all(np.diff(hist) <= 1e-9 * np.maximum(np.abs(hist[:-1]), 1.0))


def test_criterion_1_property_suite():
    with _criterion(1, "property suite"):
        _check_zca_whitening()
        _check_patch_normalization()
        _check_on_off_identities()
        _check_lcn_constants()
        _check_pooling_limits()
        _check_convolution_oracle()
        _check_kmeans_monotonicity()


# -- criterion 2: shape arithmetic ----------------------------------------------


def test_criterion_2_shape_arithmetic():
    with _criterion(2, "shape arithmetic"):
        # closed form at full size: 96x96 -> 81x81 conv -> 6x6x300 pooled
        cfg = NetworkConfig()
        assert conv_output_shape(96, 96, cfg.layer1.patch_side) == (81, 81)
        l1, l2, n_groups, dim = descriptor_shape(cfg, 96, 96)
        assert l1 == (6, 6, 300)
        assert l2 == (1, 1, 75)
        assert n_groups == 75 and dim == 75 * 75

        # executed shapes match the formula at reduced scale
        small = toy_config(k1=8, n_patches1=2000, n_patches2=1000)
        model = train_network(small, stripe_dataset(8, side=64, seed=7))
        descs = extract_descriptors(model, stripe_dataset(2, side=64, seed=8))
        assert descs.shape == (2, descriptor_shape(small, 64, 64)[3])

        # one full-size single-image pass with random filters
        rng = np.random.default_rng(0)
        d1 = cfg.layer1.patch_side**2
        bank1 = FilterBank(
            rng.standard_normal((d1, cfg.layer1.k)), cfg.layer1.patch_side, 1,
            ZcaTransform(np.zeros(d1), np.eye(d1), cfg.layer1.zca_epsilon), 1,
        )
        groups = make_groups(cfg.layer1.k, cfg.layer2.group_size, SeededRng(4))
        n_groups = len(groups)
        d2 = cfg.layer2.patch_side**2 * cfg.layer2.group_size
        bank2 = FilterBank(
            rng.standard_normal((n_groups, d2, cfg.layer2.k_per_group)),
            cfg.layer2.patch_side, cfg.layer2.group_size,
            ZcaTransform(
                np.zeros((n_groups, d2)), np.tile(np.eye(d2), (n_groups, 1, 1)),
                cfg.layer2.zca_epsilon,
            ),
            2,
        )
        full = NetworkModel(cfg, bank1, groups, bank2, (96, 96))
        img = LabeledImage(rng.random((96, 96)), 0, image_id=0)
        conv = _convolve(img.pixels[:, :, None], bank1)
        assert conv.shape == (81, 81, 300)
        out1 = run_layer(FeatureMapSet(img.pixels[:, :, None], 0), bank1, cfg.layer1, cfg.rectifier)
        assert out1.maps.shape == (6, 6, 300)
        assert extract_descriptors(full, [img]).shape == (1, dim)


# -- criteria 3 and 5: toy benchmark + determinism -------------------------------

TOY_TRAIN = 100
TOY_TEST = 200


def _toy_data():
    train = stripe_dataset(TOY_TRAIN, side=64, noise=0.15, seed=42)
    test = stripe_dataset(TOY_TEST, side=64, noise=0.15, seed=43, first_id=1000)
    return train, test


def _run_toy():
    train, test = _toy_data()
    _, _, table = train_and_score(toy_config(), train, test)
    return table, [img.label for img in test]


@pytest.fixture(scope="module")
def toy_run():
    return _run_toy()


def test_criterion_3_toy_end_to_end(toy_run):
    with _criterion(3, "toy end-to-end accuracy"):
        table, labels = toy_run
        acc = accuracy(table_predict(table), labels)
        assert acc >= 0.95, f"toy accuracy {acc}"


def test_criterion_5_determinism(toy_run, tmp_path):
    with _criterion(5, "bitwise determinism"):
        from cdfnet.committee import write_score_file

        table_a, _ = toy_run
        table_b, _ = _run_toy()
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_score_file(pa, table_a)
        write_score_file(pb, table_b)
        assert pa.read_bytes() == pb.read_bytes()


# -- criterion 4: committee dominance --------------------------------------------


def _committee_member(name, seeds, pool1, alpha=1.0):
    """32x32 network; members differ in seeds and pooling geometry/order."""
    return NetworkConfig(
        name=name,
        layer1=Layer1Config(
            k=8, patch_side=5, pool_side=pool1[0], pool_stride=pool1[1],
            pool_alpha=alpha, lcn_window=5, lcn_sigma=1.25, n_patches=2000,
        ),
        layer2=Layer2Config(
            k_per_group=6, patch_side=3, group_size=4, pool_side=3, pool_stride=3,
            lcn_window=3, lcn_sigma=0.75, n_patches=1500,
        ),
        seeds=seeds,
        svm_reg_c=16.0,
    )


def test_criterion_4_committee_dominance():
    with _criterion(4, "committee >= best member in >= 9/10 runs"):
        members = [
            _committee_member("c1", Seeds(11, 12, 13, 14), (8, 5)),
            _committee_member("c2", Seeds(21, 22, 23, 24), (4, 4), alpha=2.0),
            _committee_member("c3", Seeds(31, 32, 33, 34), (8, 4)),
            _committee_member("c4", Seeds(41, 42, 43, 44), (6, 5), alpha=4.0),
            _committee_member("c5", Seeds(51, 52, 53, 54), (10, 3), alpha=2.0),
        ]
        wins = 0
        for rep in range(10):
            train = stripe_dataset(60, side=32, noise=0.3, seed=1000 + rep)
            test = stripe_dataset(100, side=32, noise=0.3, seed=2000 + rep, first_id=500)
            labels = [img.label for img in test]
            tables = []
            best = 0.0
            for cfg in members:
                _, _, table = train_and_score(cfg, train, test)
                tables.append(table)
                best = max(best, accuracy(table_predict(table), labels))
            committee = accuracy(committee_predict(tables), labels)
            wins += committee >= best
        assert wins >= 9, f"committee dominated in only {wins}/10 repetitions"


# -- criterion 6: full-dataset reproduction (opt-in) ------------------------------


@pytest.mark.skipif(
    "CDFNET_STL10_DIR" not in os.environ,
    reason="full-scale run: set CDFNET_STL10_DIR to the STL-10 binary directory "
    "(train_X.bin, train_y.bin, test_X.bin, test_y.bin, fold_indices.txt); "
    "single fold takes CPU-hours, see README for the recipe",
)
def test_criterion_6_full_reproduction():
    with _criterion(6, "full-dataset reproduction"):
        from cdfnet.config import load_network_config
        from cdfnet.pipeline import evaluate_protocol
        from cdfnet.stl10 import load_fold_plan, load_stl10

        root = os.environ["CDFNET_STL10_DIR"]
        here = os.path.dirname(os.path.abspath(__file__))
        configs = os.path.join(here, os.pardir, "configs")

        train = load_stl10(
            os.path.join(root, "train_X.bin"), os.path.join(root, "train_y.bin")
        )
        test = load_stl10(
            os.path.join(root, "test_X.bin"), os.path.join(root, "test_y.bin")
        )
        plan = load_fold_plan(os.path.join(root, "fold_indices.txt"))

        if os.environ.get("CDFNET_FULL_COMMITTEE"):
            # all five networks, all ten folds: the committee target
            cfgs = [
                load_network_config(os.path.join(configs, f"n{i}.ini"))
                for i in range(1, 6)
            ]
            report = evaluate_protocol(
                cfgs, train, test, plan, out_dir=os.environ.get("CDFNET_OUT")
            )
            assert abs(report.committee.mean - 0.680) <= 0.015, report.committee
        else:
            # single fold of the first network
            cfg = load_network_config(os.path.join(configs, "n1.ini"))
            report = evaluate_protocol(
                [cfg], train, test, plan, fold_indices=(0,),
                out_dir=os.environ.get("CDFNET_OUT"),
            )
            acc = report.networks[0].accuracies[0]
            assert abs(acc - 0.6360) <= 0.025, f"single-fold accuracy {acc}"
