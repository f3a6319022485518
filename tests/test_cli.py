import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import cdfnet
from cdfnet import cli
from cdfnet.cli import main
from cdfnet.committee import read_score_file
from cdfnet.config import (
    Seeds,
    network_config_from_text,
    network_config_to_text,
    save_network_config,
)
from cdfnet.model_io import read_container, write_container
from cdfnet.pipeline import load_model, save_svm
from cdfnet.svm import train_ova_svm
from cdfnet.stl10 import write_stl10_images, write_stl10_labels

from helpers import container_declaring, micro_config, stl10_bytes, stripe_dataset


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A self-contained workspace: data files, fold plan, configs."""
    root = tmp_path_factory.mktemp("cli")

    train = stripe_dataset(12, side=96, seed=3)
    test = stripe_dataset(8, side=96, seed=21)
    write_stl10_images(root / "train_X.bin", stl10_bytes(np.stack([i.pixels for i in train])))
    write_stl10_labels(root / "train_y.bin", [i.label for i in train])
    write_stl10_images(root / "test_X.bin", stl10_bytes(np.stack([i.pixels for i in test])))
    write_stl10_labels(root / "test_y.bin", [i.label for i in test])

    folds = ["0 1 2 3 4 5 6 7", "4 5 6 7 8 9 10 11"] + ["0 1 2 3 4 5 6 7"] * 8
    (root / "folds.txt").write_text("\n".join(folds) + "\n")

    save_network_config(root / "m1.ini", micro_config("m1"))
    save_network_config(root / "m2.ini", micro_config("m2", seeds=Seeds(5, 6, 7, 8)))
    (root / "exp.ini").write_text(
        "[experiment]\nname = duo\nnetworks = m1.ini, m2.ini\nfolds = 0\n"
    )
    return root


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def trained_model(ws):
    out = ws / "m1.model"
    rc = run("train", "--config", ws / "m1.ini", "--train-x", ws / "train_X.bin",
             "--train-y", ws / "train_y.bin", "--folds", ws / "folds.txt",
             "--fold", 0, "--out", out)
    assert rc == 0
    return out


class TestTrain:
    def test_model_loads(self, ws, trained_model):
        model = load_model(trained_model)
        assert model.input_shape == (96, 96)
        assert model.config.name == "m1"

    def test_repeat_run_is_byte_identical(self, ws, trained_model):
        out2 = ws / "m1_again.model"
        rc = run("train", "--config", ws / "m1.ini", "--train-x", ws / "train_X.bin",
                 "--train-y", ws / "train_y.bin", "--folds", ws / "folds.txt",
                 "--fold", 0, "--out", out2)
        assert rc == 0
        assert out2.read_bytes() == trained_model.read_bytes()

    def test_seed_override_changes_model(self, ws, trained_model):
        out2 = ws / "m1_seed9.model"
        rc = run("train", "--config", ws / "m1.ini", "--train-x", ws / "train_X.bin",
                 "--train-y", ws / "train_y.bin", "--folds", ws / "folds.txt",
                 "--fold", 0, "--seed", 9, "--out", out2)
        assert rc == 0
        assert out2.read_bytes() != trained_model.read_bytes()

    def test_fold_without_plan(self, ws, capsys):
        rc = run("train", "--config", ws / "m1.ini", "--train-x", ws / "train_X.bin",
                 "--train-y", ws / "train_y.bin", "--fold", 0, "--out", ws / "x.model")
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config(self, ws, capsys):
        rc = run("train", "--config", ws / "nope.ini", "--train-x", ws / "train_X.bin",
                 "--train-y", ws / "train_y.bin", "--out", ws / "x.model")
        assert rc == 2

    @staticmethod
    def _no_image_reads(monkeypatch):
        def never(*args):
            raise AssertionError("images read")

        monkeypatch.setattr(cli, "load_stl10", never)

    @pytest.mark.parametrize("seed", [-1, 2**62])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_out_of_range_seed_base_fails_before_images(self, ws, capsys, monkeypatch,
                                                        command, seed):
        # 2**62 * 4 + 3 is past the 64-bit seed range
        self._no_image_reads(monkeypatch)
        data = ["--train-x", ws / "train_X.bin", "--train-y", ws / "train_y.bin"]
        if command == "train":
            rc = run("train", "--config", ws / "m1.ini", *data, "--seed", seed,
                     "--out", ws / "x.model")
        else:
            rc = run("evaluate", "--config", ws / "exp.ini", *data,
                     "--test-x", ws / "test_X.bin", "--test-y", ws / "test_y.bin",
                     "--folds", ws / "folds.txt", "--seed", seed)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seeds.") and "64-bit" in err and err.count("\n") == 1

    def test_out_of_range_config_seed_fails_at_load(self, ws, tmp_path, capsys, monkeypatch):
        self._no_image_reads(monkeypatch)
        text = network_config_to_text(micro_config("m1")).replace("kmeans2 = 3", "kmeans2 = -3")
        (tmp_path / "bad.ini").write_text(text)
        rc = run("train", "--config", tmp_path / "bad.ini", "--train-x", ws / "train_X.bin",
                 "--train-y", ws / "train_y.bin", "--out", tmp_path / "x.model")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad network config: seeds.kmeans2 = -3")
        assert err.count("\n") == 1


class TestChain:
    def test_extract_svm_score_committee(self, ws, trained_model):
        train_d = ws / "train.desc"
        rc = run("extract", "--model", trained_model, "--images", ws / "train_X.bin",
                 "--labels", ws / "train_y.bin", "--folds", ws / "folds.txt",
                 "--fold", 0, "--augment", "--out", train_d)
        assert rc == 0

        svm_path = ws / "m1.svm"
        rc = run("svm", "--descriptors", train_d, "--reg-c", 16.0, "--out", svm_path)
        assert rc == 0

        test_d = ws / "test.desc"
        rc = run("extract", "--model", trained_model, "--images", ws / "test_X.bin",
                 "--labels", ws / "test_y.bin", "--out", test_d)
        assert rc == 0

        scores = ws / "m1_scores.txt"
        rc = run("score", "--svm", svm_path, "--descriptors", test_d,
                 "--network-id", "m1", "--out", scores)
        assert rc == 0
        table = read_score_file(scores)
        assert table.network_id == "m1"
        assert table.normalized
        assert table.image_ids == tuple(range(8))
        assert table.n_classes == 2

        preds = ws / "preds.txt"
        rc = run("committee", scores, scores, "--labels", ws / "test_y.bin", "--out", preds)
        assert rc == 0
        lines = preds.read_text().splitlines()
        assert len(lines) == 8
        assert all(len(line.split()) == 2 for line in lines)

        # a network id with a space would corrupt the score-file header
        rc = run("score", "--svm", svm_path, "--descriptors", test_d,
                 "--network-id", "m 1", "--out", ws / "bad_scores.txt")
        assert rc == 2

    def test_unlabeled_extract_cannot_train_svm(self, ws, trained_model, capsys):
        unl = ws / "unlabeled.desc"
        rc = run("extract", "--model", trained_model, "--images", ws / "test_X.bin",
                 "--out", unl)
        assert rc == 0
        rc = run("svm", "--descriptors", unl, "--out", ws / "bad.svm")
        assert rc == 2
        assert "labels" in capsys.readouterr().err

    def test_score_ids_come_from_container(self, ws):
        x = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [-3.0, 0.5]])
        save_svm(ws / "tiny.svm", train_ova_svm(x, [0, 1, 0, 1]))
        desc = ws / "ids.desc"
        write_container(desc, {"descriptors": x, "labels": np.full(4, -1.0)}, "40\n7\n9\n1")
        out = ws / "ids_scores.txt"
        assert run("score", "--svm", ws / "tiny.svm", "--descriptors", desc,
                   "--network-id", "t", "--out", out) == 0
        assert read_score_file(out).image_ids == (40, 7, 9, 1)

    @pytest.mark.parametrize("command", ["svm", "score"])
    def test_nonfinite_descriptors_rejected(self, ws, capsys, command):
        x = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [-3.0, 0.5]])
        save_svm(ws / "tiny.svm", train_ova_svm(x, [0, 1, 0, 1]))
        x[2, 1] = np.nan
        desc = ws / "nan.desc"
        write_container(desc, {"descriptors": x, "labels": np.array([0.0, 1.0, 0.0, 1.0])},
                        "0\n1\n2\n3")
        args = {"svm": ["--out", ws / "nan.svm"],
                "score": ["--svm", ws / "tiny.svm", "--network-id", "t", "--out", ws / "nan.txt"]}
        assert run(command, "--descriptors", desc, *args[command]) == 2
        err = capsys.readouterr().err
        assert err == "error: non-finite value nan in descriptors at (2, 1)\n"

    def test_score_svm_config_parse_error(self, ws, capsys):
        x = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [-3.0, 0.5]])
        svm = train_ova_svm(x, [0, 1, 0, 1])
        dup = ws / "dup.svm"
        write_container(
            dup,
            {"weights": svm.weights, "biases": svm.biases,
             "feature_mean": svm.feature_mean, "feature_std": svm.feature_std},
            "[svm]\nreg_c = 1.0\nreg_c = 2.0\n",
        )
        desc = ws / "dup.desc"
        write_container(desc, {"descriptors": x, "labels": np.full(4, -1.0)}, "0\n1\n2\n3")
        out = ws / "dup_scores.txt"
        rc = run("score", "--svm", dup, "--descriptors", desc, "--network-id", "t",
                 "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dup}: bad SVM container: ")
        assert "option 'reg_c' in section 'svm' already exists" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_old_per_group_container_rejected(self, ws, trained_model, capsys):
        # the layout before layer 2 was stored as one stack: layer2/gNNNN/* per group
        tensors, text = read_container(trained_model)
        old = {k: v for k, v in tensors.items() if not k.startswith("layer2/")}
        for g in range(tensors["layer2/filters"].shape[0]):
            for name in ("filters", "zca_mean", "zca_matrix"):
                old[f"layer2/g{g:04d}/{name}"] = tensors[f"layer2/{name}"][g]
            old[f"layer2/g{g:04d}/zca_epsilon"] = tensors["layer2/zca_epsilon"]
        model = ws / "old_layout.model"
        write_container(model, old, text)
        rc = run("extract", "--model", model, "--images", ws / "test_X.bin",
                 "--out", ws / "old_layout.desc")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "layer2/filters" in err

    @pytest.mark.parametrize("dims", [(2**33,), (2**61,)], ids=str)
    def test_corrupt_header_size_rejected(self, ws, tmp_path, capsys, dims):
        model = tmp_path / "bad.model"
        model.write_bytes(container_declaring(dims))
        rc = run("extract", "--model", model, "--images", ws / "test_X.bin",
                 "--out", tmp_path / "bad.desc")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: truncated container") and err.count("\n") == 1

    def test_group_count_mismatch_rejected(self, ws, trained_model, capsys):
        tensors, text = read_container(trained_model)
        for name in ("filters", "zca_mean", "zca_matrix"):
            stack = tensors[f"layer2/{name}"]
            tensors[f"layer2/{name}"] = np.concatenate([stack, stack])
        model = ws / "extra_group.model"
        write_container(model, tensors, text)
        rc = run("extract", "--model", model, "--images", ws / "test_X.bin",
                 "--out", ws / "extra_group.desc")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "groups" in err

    @pytest.mark.parametrize("reg_c", ["0", "-1", "nan", "inf"])
    def test_svm_reg_c_rejected(self, ws, capsys, reg_c):
        x = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [-3.0, 0.5]])
        desc = ws / "reg_c.desc"
        write_container(desc, {"descriptors": x, "labels": np.array([0.0, 1.0, 0.0, 1.0])},
                        "0\n1\n2\n3")
        out = ws / "reg_c.svm"
        assert run("svm", "--descriptors", desc, f"--reg-c={reg_c}", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: reg_c must be finite and > 0") and err.count("\n") == 1
        assert not out.exists()

    def test_fractional_group_index_rejected(self, ws, trained_model, capsys):
        tensors, text = read_container(trained_model)
        tensors["groups"][0, 0] += 0.5  # truncates back to a valid index
        model = ws / "fractional_group.model"
        write_container(model, tensors, text)
        rc = run("extract", "--model", model, "--images", ws / "test_X.bin",
                 "--out", ws / "fractional_group.desc")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "partition" in err

    def test_group_table_checked_against_config_at_load(
        self, ws, trained_model, capsys, monkeypatch
    ):
        # the config asks for 8 layer-1 maps, two groups of 4; table and stack hold one
        tensors, text = read_container(trained_model)
        cfg = network_config_from_text(text)
        wider = replace(cfg, layer1=replace(cfg.layer1, k=8))
        model = ws / "one_group.model"
        write_container(model, tensors, network_config_to_text(wider))

        def never(*args):
            raise AssertionError("extraction started")

        monkeypatch.setattr(cli, "extract_descriptors", never)
        rc = run("extract", "--model", model, "--images", ws / "test_X.bin",
                 "--out", ws / "one_group.desc")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: group table (1, 4) is not the config's 2 groups of 4\n"

    def test_committee_rejects_garbage(self, ws, capsys):
        bad = ws / "garbage.txt"
        bad.write_text("not a score file\n")
        rc = run("committee", bad)
        assert rc == 2

    def test_committee_without_out_prints_predictions(self, ws, capsys):
        a = ws / "a_scores.txt"
        b = ws / "b_scores.txt"
        a.write_text("scores v1 a 2\n0 1.0 0.0\n1 0.25 0.75\n")
        b.write_text("scores v1 b 2\n0 0.5 0.0\n1 0.0 1.0\n")
        rc = run("committee", a, b)
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["0 0", "1 1"]


    def test_failed_predictions_write_keeps_previous_file(self, tmp_path, monkeypatch):
        class Unprintable:
            def __format__(self, spec):
                raise ValueError("unprintable prediction")

        scores = tmp_path / "a_scores.txt"
        scores.write_text("scores v1 a 2\n0 1.0 0.0\n1 0.25 0.75\n")
        preds = tmp_path / "preds.txt"
        preds.write_text("0 1\n1 0\n")
        # the first line is written before the second fails
        monkeypatch.setattr(cli, "committee_predict", lambda tables: [0, Unprintable()])
        assert run("committee", scores, "--out", preds) == 2
        assert preds.read_bytes() == b"0 1\n1 0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_scores.txt", "preds.txt"]

class TestFoldRange:
    """A fold index outside the plan exits 2, naming the fold, before any training."""

    @pytest.mark.parametrize("fold", [-1, 10])
    @pytest.mark.parametrize("command", ["train", "extract", "evaluate"])
    def test_out_of_range(self, ws, trained_model, capsys, command, fold):
        out = ws / f"range_{command}_{fold}"
        args = {
            "train": ["--config", ws / "m1.ini", "--train-x", ws / "train_X.bin",
                      "--train-y", ws / "train_y.bin"],
            "extract": ["--model", trained_model, "--images", ws / "train_X.bin"],
            "evaluate": ["--config", ws / "exp.ini", "--train-x", ws / "train_X.bin",
                         "--train-y", ws / "train_y.bin", "--test-x", ws / "test_X.bin",
                         "--test-y", ws / "test_y.bin"],
        }[command]
        rc = run(command, *args, "--folds", ws / "folds.txt", "--fold", fold, "--out", out)
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: fold {fold} out of range: the plan has 10 folds\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "extract", "evaluate"])
    def test_indices_beyond_loaded_images(self, ws, trained_model, capsys, command):
        # fold 0 lists images 0-7, the file holds 4
        few = ws / "train4_X.bin"
        if not few.exists():
            write_stl10_images(few, stl10_bytes(np.stack(
                [i.pixels for i in stripe_dataset(4, side=96, seed=3)]
            )))
            write_stl10_labels(ws / "train4_y.bin", [0, 1, 0, 1])
        out = ws / f"few_{command}"
        args = {
            "train": ["--config", ws / "m1.ini", "--train-x", few,
                      "--train-y", ws / "train4_y.bin"],
            "extract": ["--model", trained_model, "--images", few],
            "evaluate": ["--config", ws / "exp.ini", "--train-x", few,
                         "--train-y", ws / "train4_y.bin", "--test-x", ws / "test_X.bin",
                         "--test-y", ws / "test_y.bin"],
        }[command]
        rc = run(command, *args, "--folds", ws / "folds.txt", "--fold", 0, "--out", out)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: fold 0 lists image 4, but only 4 images were loaded\n"
        )
        assert not out.exists()


class TestEvaluate:
    def test_experiment_parse_error(self, ws, capsys):
        exp = ws / "dup.ini"
        exp.write_text("[experiment]\nnetworks = m1.ini\nnetworks = m2.ini\n")
        out = ws / "dup_run"
        rc = run("evaluate", "--config", exp,
                 "--train-x", ws / "train_X.bin", "--train-y", ws / "train_y.bin",
                 "--test-x", ws / "test_X.bin", "--test-y", ws / "test_y.bin",
                 "--folds", ws / "folds.txt", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad experiment config {exp}: ")
        assert "option 'networks' in section 'experiment' already exists" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_full_protocol(self, ws, capsys):
        out = ws / "run"
        rc = run("evaluate", "--config", ws / "exp.ini",
                 "--train-x", ws / "train_X.bin", "--train-y", ws / "train_y.bin",
                 "--test-x", ws / "test_X.bin", "--test-y", ws / "test_y.bin",
                 "--folds", ws / "folds.txt", "--out", out)
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "m1 mean" in stdout and "m2 mean" in stdout and "committee mean" in stdout

        assert (out / "scores_fold0_m1.txt").exists()
        assert (out / "scores_fold0_m2.txt").exists()
        csv = (out / "report.csv").read_text().splitlines()
        assert csv[0] == "fold,network,accuracy"
        assert {line.split(",")[1] for line in csv[1:]} == {"m1", "m2", "committee"}
        assert "members m1 m2" in (out / "report.txt").read_text()


def test_cli_import_leaves_out_scipy_ndimage():
    # ndimage costs every CLI process 0.2-0.5 s of start-up and LCN does
    # without it; sparse costs ~0.2 s and only k-means loads it, when it runs
    src = os.path.dirname(os.path.dirname(cdfnet.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for module in ("scipy.ndimage", "scipy.sparse"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, cdfnet.cli; print({module!r} in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", module


def test_console_help_runs():
    # the child imports the same cdfnet as this process, installed or not
    src = os.path.dirname(os.path.dirname(cdfnet.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cdfnet.cli", "--help"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    for command in ("train", "extract", "svm", "score", "committee", "evaluate"):
        assert command in proc.stdout
