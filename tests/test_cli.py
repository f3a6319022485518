import argparse
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import cdfnet
from cdfnet import cli, pipeline
from cdfnet.cli import main
from cdfnet.committee import read_score_file
from cdfnet.config import (
    network_config_from_text,
    network_config_to_text,
    save_network_config,
)
from cdfnet.model_io import read_container, write_container
from cdfnet.pipeline import load_model, save_svm
from cdfnet.stl10 import BYTES_PER_IMAGE
from cdfnet.svm import train_ova_svm
from helpers import (
    container_declaring,
    micro_config,
    stl10_bytes,
    stripe_dataset,
    traced,
    write_descriptors,
    write_stl10_images,
    write_stl10_labels,
)


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
    save_network_config(root / "m2.ini", micro_config("m2", seed=5))
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

    def test_seed_override_changes_model(self, ws, trained_model, tmp_path):
        # a member's seed is set in one place, its config's [network] seed
        save_network_config(tmp_path / "m1_seed9.ini", micro_config("m1", seed=9))
        out2 = tmp_path / "m1_seed9.model"
        rc = run("train", "--config", tmp_path / "m1_seed9.ini", "--train-x", ws / "train_X.bin",
                 "--train-y", ws / "train_y.bin", "--folds", ws / "folds.txt",
                 "--fold", 0, "--out", out2)
        assert rc == 0
        assert out2.read_bytes() != trained_model.read_bytes()

    def test_percent_in_name_is_literal(self, ws, tmp_path):
        # config values are read literally, so a '%' is written and read back as is
        save_network_config(tmp_path / "pct.ini", micro_config("a%b"))
        out = tmp_path / "pct.model"
        rc = run("train", "--config", tmp_path / "pct.ini", "--train-x", ws / "train_X.bin",
                 "--train-y", ws / "train_y.bin", "--folds", ws / "folds.txt",
                 "--fold", 0, "--out", out)
        assert rc == 0
        assert load_model(out).config == micro_config("a%b")

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

    @pytest.mark.parametrize("seed", [-1, 2, 2**62])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_out_of_range_seed_base_fails_before_images(self, ws, capsys, monkeypatch,
                                                        command, seed):
        # there is no --seed flag, so any base, in range or not, is refused
        # when the arguments are parsed
        self._no_image_reads(monkeypatch)
        data = ["--train-x", ws / "train_X.bin", "--train-y", ws / "train_y.bin"]
        with pytest.raises(SystemExit) as exc:
            if command == "train":
                run("train", "--config", ws / "m1.ini", *data, "--seed", seed,
                    "--out", ws / "x.model")
            else:
                run("evaluate", "--config", ws / "exp.ini", *data,
                    "--test-x", ws / "test_X.bin", "--test-y", ws / "test_y.bin",
                    "--folds", ws / "folds.txt", "--seed", seed)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --seed {seed}" in capsys.readouterr().err

    def test_out_of_range_config_seed_fails_at_load(self, ws, tmp_path, capsys, monkeypatch):
        self._no_image_reads(monkeypatch)
        text = network_config_to_text(micro_config("m1")).replace("seed = 1\n", "seed = -3\n")
        (tmp_path / "bad.ini").write_text(text)
        rc = run("train", "--config", tmp_path / "bad.ini", "--train-x", ws / "train_X.bin",
                 "--train-y", ws / "train_y.bin", "--out", tmp_path / "x.model")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'bad.ini'}: bad network config: "
                       "seed must be in 0 ... 2**64 - 4, got -3 (in [network])\n")

    @pytest.mark.parametrize("line, reason", [
        ("scale_factor = 1/0", "network.scale_factor: fraction '1/0' divides by zero"),
        ("name = r\u00e9seau", "network name must be non-empty ASCII without whitespace"),
        ("name = a/b", "without whitespace or path separators: 'a/b' (in [network])"),
    ], ids=["zero_denominator", "non_ascii_name", "path_separator_name"])
    def test_bad_config_value_refused_before_training(self, ws, tmp_path, capsys, monkeypatch,
                                                      line, reason):
        # refused at load: no image is read and no member trains
        self._no_image_reads(monkeypatch)

        def never(*args):
            raise AssertionError("trained")

        monkeypatch.setattr(pipeline, "_train", never)
        key = line.split(" = ")[0]
        text = network_config_to_text(micro_config("m1"))
        text = "\n".join(line if t.startswith(key + " =") else t for t in text.split("\n"))
        bad = tmp_path / "bad.ini"
        bad.write_text(text, encoding="utf-8")
        (tmp_path / "exp.ini").write_text("[experiment]\nnetworks = bad.ini\nfolds = 0\n")
        rc = run("evaluate", "--config", tmp_path / "exp.ini",
                 "--train-x", ws / "train_X.bin", "--train-y", ws / "train_y.bin",
                 "--test-x", ws / "test_X.bin", "--test-y", ws / "test_y.bin",
                 "--folds", ws / "folds.txt")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: bad network config: ") and reason in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, members, reason", [
        ("evaluate", ("m1", "m1"), "network names must be unique and not 'committee', "
                                   "got ['m1', 'm1']"),
        ("evaluate", ("m1", "committee"), "network names must be unique and not 'committee', "
                                          "got ['m1', 'committee']"),
        ("evaluate", ("m1", "wide"), "network wide: pool window 90 exceeds map size 89x89"),
        ("train", ("wide",), "network wide: pool window 90 exceeds map size 89x89"),
        ("extract", ("wide",), "{model}: pool window 90 exceeds map size 89x89"),
    ], ids=["evaluate-repeated_name", "evaluate-committee", "evaluate-pool_window_90",
            "train-pool_window_90", "extract-pool_window_90"])
    def test_member_error_fails_before_images(self, ws, trained_model, tmp_path, capsys,
                                              monkeypatch, command, members, reason):
        # a committee that cannot run on STL-10's 96x96 images is refused
        # before the images are decoded, with the message evaluate_protocol gives;
        # a model of such a member is refused when it loads
        self._no_image_reads(monkeypatch)
        for name in set(members):
            cfg = micro_config(name)
            if name == "wide":  # the 96x96 image's 89x89 layer-1 maps hold no 90x90 window
                cfg = replace(cfg, layer1=replace(cfg.layer1, pool_side=90))
            save_network_config(tmp_path / f"{name}.ini", cfg)
        data = ["--train-x", ws / "train_X.bin", "--train-y", ws / "train_y.bin"]
        model = tmp_path / "wide.model"
        if command == "train":
            rc = run("train", "--config", tmp_path / "wide.ini", *data,
                     "--out", tmp_path / "x.model")
        elif command == "extract":
            tensors, _ = read_container(trained_model)
            write_container(model, tensors, (tmp_path / "wide.ini").read_text())
            rc = run("extract", "--model", model, "--images", ws / "train_X.bin",
                     "--folds", ws / "folds.txt", "--fold", 0, "--out", tmp_path / "x.desc")
        else:
            (tmp_path / "exp.ini").write_text(
                "[experiment]\nnetworks = " + ", ".join(f"{m}.ini" for m in members) + "\n"
            )
            rc = run("evaluate", "--config", tmp_path / "exp.ini", *data,
                     "--test-x", ws / "test_X.bin", "--test-y", ws / "test_y.bin",
                     "--folds", ws / "folds.txt")
        assert rc == 2
        assert capsys.readouterr().err == f"error: {reason.format(model=model)}\n"


class TestChain:
    def test_extract_svm_score_committee(self, ws, trained_model):
        train_d = ws / "train.desc"
        rc = run("extract", "--model", trained_model, "--images", ws / "train_X.bin",
                 "--labels", ws / "train_y.bin", "--folds", ws / "folds.txt",
                 "--fold", 0, "--augment", "--out", train_d)
        assert rc == 0

        svm_path = ws / "m1.svm"
        rc = run("svm", "--descriptors", train_d, "--out", svm_path)
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
        assert np.array_equal(table.scores.min(axis=1), np.zeros(8))
        assert np.array_equal(table.scores.max(axis=1), np.ones(8))
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
        write_descriptors(desc, x, np.full(4, -1.0), [40, 7, 9, 1])
        out = ws / "ids_scores.txt"
        assert run("score", "--svm", ws / "tiny.svm", "--descriptors", desc,
                   "--network-id", "t", "--out", out) == 0
        assert read_score_file(out).image_ids == (40, 7, 9, 1)

    @pytest.mark.parametrize(
        "labels, ids",
        [
            ([0.0, 1.5, 0.0, 1.0], [0, 1, 2, 3]),  # would train as class 1
            ([0.0, np.nan, 0.0, 1.0], [0, 1, 2, 3]),
            ([0.0, 1.0, -2.0, 1.0], [0, 1, 2, 3]),  # -1 is the one unlabelled mark
            ([0.0, 1.0, 0.0, 1.0], [0, 1, 2.5, 3]),
            ([0.0, 1.0, 0.0, 1.0], [0, 1, np.nan, 3]),
        ],
        ids=["fractional_label", "nan_label", "label_below_-1", "fractional_id", "nan_id"],
    )
    @pytest.mark.parametrize("command", ["svm", "score"])
    def test_descriptor_labels_and_ids_must_be_integers(
        self, tmp_path, capsys, command, labels, ids
    ):
        x = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [-3.0, 0.5]])
        save_svm(tmp_path / "tiny.svm", train_ova_svm(x, [0, 1, 0, 1]))
        desc = tmp_path / "bad.desc"
        write_descriptors(desc, x, labels, ids)
        out = tmp_path / "out"
        args = {"svm": ["--out", out],
                "score": ["--svm", tmp_path / "tiny.svm", "--network-id", "t", "--out", out]}
        assert run(command, "--descriptors", desc, *args[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {desc}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["svm", "score"])
    def test_nonfinite_descriptors_rejected(self, ws, capsys, command):
        x = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [-3.0, 0.5]])
        save_svm(ws / "tiny.svm", train_ova_svm(x, [0, 1, 0, 1]))
        x[2, 1] = np.nan
        desc = ws / "nan.desc"
        write_descriptors(desc, x, [0.0, 1.0, 0.0, 1.0])
        args = {"svm": ["--out", ws / "nan.svm"],
                "score": ["--svm", ws / "tiny.svm", "--network-id", "t", "--out", ws / "nan.txt"]}
        assert run(command, "--descriptors", desc, *args[command]) == 2
        err = capsys.readouterr().err
        assert err == "error: non-finite value nan in descriptors at (2, 1)\n"

    @pytest.mark.parametrize("command", ["svm", "score"])
    def test_descriptor_config_parse_error(self, ws, capsys, command):
        x = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [-3.0, 0.5]])
        save_svm(ws / "tiny.svm", train_ova_svm(x, [0, 1, 0, 1]))
        desc = ws / "dup.desc"
        text = network_config_to_text(micro_config("m1"))
        write_descriptors(desc, x, [0.0, 1.0, 0.0, 1.0], config_text=text.replace(
            "svm_reg_c = 16.0\n", "svm_reg_c = 16.0\nsvm_reg_c = 2.0\n"))
        out = ws / "dup_out"
        args = {"svm": ["--out", out],
                "score": ["--svm", ws / "tiny.svm", "--network-id", "t", "--out", out]}
        assert run(command, "--descriptors", desc, *args[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {desc}: ")
        assert "option 'svm_reg_c' in section 'network' already exists" in err
        assert err.count("\n") == 1
        assert not out.exists()

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
        for name in ("filters", "offset"):
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

    def test_filter_dim_checked_against_config_at_load(self, ws, trained_model, capsys):
        # a layer-1 bank of one pixel less than the config's patch side squared
        tensors, text = read_container(trained_model)
        tensors["layer1/filters"] = tensors["layer1/filters"][:-1]
        model = ws / "short_filters.model"
        write_container(model, tensors, text)
        rc = run("extract", "--model", model, "--images", ws / "test_X.bin",
                 "--out", ws / "short_filters.desc")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: filters (d, K) of layers 1 and 2")
        assert err.count("\n") == 1
        assert not (ws / "short_filters.desc").exists()

    @pytest.mark.parametrize("damage", ["short_filter_row"])
    def test_bank_error_names_the_model_file(self, ws, trained_model, capsys, damage):
        tensors, text = read_container(trained_model)
        tensors["layer1/filters"] = tensors["layer1/filters"][:-1]
        model = ws / f"{damage}.model"
        write_container(model, tensors, text)
        rc = run("extract", "--model", model, "--images", ws / "test_X.bin",
                 "--out", ws / f"{damage}.desc")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and err.count("\n") == 1
        assert not (ws / f"{damage}.desc").exists()

    @pytest.mark.parametrize("reg_c", ["0", "-1", "nan", "inf"])
    def test_svm_reg_c_rejected(self, ws, capsys, reg_c):
        # C is the svm_reg_c of the config in the descriptor file, and only that
        x = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [-3.0, 0.5]])
        desc = ws / "reg_c.desc"
        write_descriptors(desc, x, [0.0, 1.0, 0.0, 1.0])
        out = ws / "reg_c.svm"
        with pytest.raises(SystemExit) as exc:
            run("svm", "--descriptors", desc, f"--reg-c={reg_c}", "--out", out)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --reg-c={reg_c}" in capsys.readouterr().err

        text = network_config_to_text(micro_config("m1"))
        write_descriptors(desc, x, [0.0, 1.0, 0.0, 1.0], config_text=text.replace(
            "svm_reg_c = 16.0\n", f"svm_reg_c = {reg_c}\n"))
        assert run("svm", "--descriptors", desc, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: {desc}: bad network config: svm_reg_c must be finite and > 0, "
            f"got {float(reg_c)} (in [network])\n"
        )
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
        wider = replace(cfg, layer1=replace(cfg.layer1, filters=8))
        model = ws / "one_group.model"
        write_container(model, tensors, network_config_to_text(wider))

        def never(*args):
            raise AssertionError("extraction started")

        monkeypatch.setattr(cli, "extract_descriptors", never)
        rc = run("extract", "--model", model, "--images", ws / "test_X.bin",
                 "--out", ws / "one_group.desc")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {model}: group table (1, 4) is not the config's 2 groups of 4\n"

    def test_committee_rejects_garbage(self, ws, capsys):
        bad = ws / "garbage.txt"
        bad.write_text("not a score file\n")
        rc = run("committee", bad)
        assert rc == 2

    @pytest.mark.parametrize("value", ["1.5", "nan", "inf"])
    def test_committee_rejects_out_of_range_scores(self, tmp_path, capsys, value):
        a = tmp_path / "a_scores.txt"
        a.write_text(f"scores v1 a 2\n0 1.0 0.0\n1 0.25 {value}\n")
        assert run("committee", a) == 2
        assert capsys.readouterr().err.startswith(f"error: {a}: table 'a' has scores outside")

    @pytest.mark.parametrize(
        "argv",
        [
            ["score", "--svm", "s", "--descriptors", "d", "--network-id", "n", "--out", "o"],
            ["evaluate", "--config", "c", "--train-x", "a", "--train-y", "b",
             "--test-x", "c", "--test-y", "d", "--folds", "f"],
        ],
        ids=["score", "evaluate"],
    )
    def test_retired_per_network_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--per-network")
        assert exc.value.code == 2
        assert "unrecognized arguments: --per-network" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "extract", "svm", "score", "committee"])
    def test_out_in_missing_directory_refused_before_reads(self, ws, trained_model, capsys,
                                                           monkeypatch, command):
        # the output could not be saved, so it is refused before any input is read
        reads = []
        for module, name in [(cli, "load_stl10"), (cli, "load_model"), (cli, "load_svm"),
                             (cli, "read_container"), (cli, "read_score_file"),
                             (pipeline, "_train")]:
            monkeypatch.setattr(module, name, lambda *args, name=name: reads.append(name))
        inputs = {
            "train": ["--config", ws / "m1.ini", "--train-x", ws / "train_X.bin",
                      "--train-y", ws / "train_y.bin"],
            "extract": ["--model", trained_model, "--images", ws / "test_X.bin"],
            "svm": ["--descriptors", ws / "x.desc"],
            "score": ["--svm", ws / "x.svm", "--descriptors", ws / "x.desc", "--network-id", "n"],
            "committee": [ws / "a_scores.txt"],
        }[command]
        (ws / "a_dir").mkdir(exist_ok=True)
        for out, reason in [(ws / "no_such_dir" / "out", "the directory of {} does not exist"),
                            (ws / "a_dir", "{} is a directory")]:
            with pytest.raises(SystemExit) as exc:
                run(command, *inputs, "--out", out)
            assert exc.value.code == 2
            assert f"argument --out: {reason.format(out)}" in capsys.readouterr().err
        assert reads == []

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

def _count_decodes(monkeypatch) -> list:
    """The argument tuples of every load_stl10 call the CLI makes from now on."""
    calls, real = [], cli.load_stl10

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "load_stl10", counting)
    return calls


def _experiment(ws, folds):
    """An experiment file running m1 and m2 on folds, the one place evaluate takes them from."""
    path = ws / f"exp_folds_{folds}.ini"
    path.write_text(f"[experiment]\nname = duo\nnetworks = m1.ini, m2.ini\nfolds = {folds}\n")
    return path


class TestFoldRange:
    """A fold outside the plan, or listing an image beyond the image file, exits 2
    naming the fold before any image is decoded."""

    @pytest.mark.parametrize("fold", [-1, 10])
    @pytest.mark.parametrize("command", ["train", "extract", "evaluate"])
    def test_out_of_range(self, ws, trained_model, capsys, monkeypatch, command, fold):
        decodes = _count_decodes(monkeypatch)
        out = ws / f"range_{command}_{fold}"
        args = {
            "train": ["--config", ws / "m1.ini", "--train-x", ws / "train_X.bin",
                      "--train-y", ws / "train_y.bin", "--fold", fold],
            "extract": ["--model", trained_model, "--images", ws / "train_X.bin",
                        "--fold", fold],
            "evaluate": ["--config", _experiment(ws, fold), "--train-x", ws / "train_X.bin",
                         "--train-y", ws / "train_y.bin", "--test-x", ws / "test_X.bin",
                         "--test-y", ws / "test_y.bin"],
        }[command]
        rc = run(command, *args, "--folds", ws / "folds.txt", "--out", out)
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: fold {fold} out of range: the plan has 10 folds\n"
        )
        assert not out.exists()
        assert decodes == []

    def test_plan_read_before_any_decode(self, ws, capsys, monkeypatch):
        decodes = _count_decodes(monkeypatch)
        data = ["--train-x", ws / "train_X.bin", "--train-y", ws / "train_y.bin"]
        rc = run("train", "--config", ws / "m1.ini", *data, "--fold", 0, "--out", ws / "nf.model")
        assert rc == 2
        assert capsys.readouterr().err == "error: --fold requires --folds\n"
        absent = ws / "absent_folds.txt"
        rc = run("train", "--config", ws / "m1.ini", *data, "--folds", absent,
                 "--out", ws / "nf.model")
        assert rc == 2
        assert capsys.readouterr().err == "error: --folds requires --fold\n"
        rc = run("evaluate", "--config", ws / "exp.ini", *data, "--test-x", ws / "test_X.bin",
                 "--test-y", ws / "test_y.bin", "--folds", absent, "--out", ws / "nf_run")
        assert rc == 2
        assert str(absent) in capsys.readouterr().err
        assert decodes == []

    def test_evaluate_has_no_fold_flag(self, ws, capsys, monkeypatch):
        # [experiment] folds is the one place a run's folds are set
        decodes = _count_decodes(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--config", ws / "exp.ini", "--train-x", ws / "train_X.bin",
                "--train-y", ws / "train_y.bin", "--test-x", ws / "test_X.bin",
                "--test-y", ws / "test_y.bin", "--folds", ws / "folds.txt", "--fold", 0)
        assert exc.value.code == 2
        assert "unrecognized arguments: --fold 0" in capsys.readouterr().err
        assert decodes == []

    @pytest.mark.parametrize("command", ["train", "extract", "evaluate"])
    def test_indices_beyond_loaded_images(self, ws, trained_model, capsys, monkeypatch,
                                          command):
        # fold 0 lists images 0-7, the file holds 4; its size tells so before decoding
        few = ws / "train4_X.bin"
        if not few.exists():
            write_stl10_images(few, stl10_bytes(np.stack(
                [i.pixels for i in stripe_dataset(4, side=96, seed=3)]
            )))
            write_stl10_labels(ws / "train4_y.bin", [0, 1, 0, 1])
        out = ws / f"few_{command}"
        decodes = _count_decodes(monkeypatch)
        args = {
            "train": ["--config", ws / "m1.ini", "--train-x", few,
                      "--train-y", ws / "train4_y.bin", "--fold", 0],
            "extract": ["--model", trained_model, "--images", few, "--fold", 0],
            "evaluate": ["--config", _experiment(ws, 0), "--train-x", few,
                         "--train-y", ws / "train4_y.bin", "--test-x", ws / "test_X.bin",
                         "--test-y", ws / "test_y.bin"],
        }[command]
        rc = run(command, *args, "--folds", ws / "folds.txt", "--out", out)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: fold 0 lists image 4, but only 4 images were loaded\n"
        )
        assert not out.exists()
        assert decodes == []


def test_fold_holds_only_its_own_pixels(tmp_path):
    # fold 0 is 10 of the file's 100 images; the split they came from is freed
    images, plan = tmp_path / "x.bin", tmp_path / "folds.txt"
    images.write_bytes(bytes(100 * BYTES_PER_IMAGE))
    plan.write_text("".join(" ".join(map(str, range(f, f + 10))) + "\n" for f in range(0, 100, 10)))
    fold, _, held = traced(cli._load_fold, argparse.Namespace(fold=0, folds=plan), images, None)
    assert [img.image_id for img in fold] == list(range(10))
    assert held <= 2 * sum(img.pixels.nbytes for img in fold)


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
        assert err.startswith(f"error: {exp}: ")
        assert "option 'networks' in section 'experiment' already exists" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_impossible_member_fails_before_training(self, ws, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(pipeline, "_train", lambda cfg, images: trained.append(cfg.name))
        bad = micro_config("bad")
        save_network_config(ws / "bad.ini", replace(bad, layer2=replace(bad.layer2, lcn_window=99)))
        exp = ws / "exp_bad.ini"
        exp.write_text("[experiment]\nname = duo\nnetworks = m1.ini, bad.ini\nfolds = 0\n")
        out = ws / "bad_run"
        rc = run("evaluate", "--config", exp,
                 "--train-x", ws / "train_X.bin", "--train-y", ws / "train_y.bin",
                 "--test-x", ws / "test_X.bin", "--test-y", ws / "test_y.bin",
                 "--folds", ws / "folds.txt", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: network bad: ") and err.count("\n") == 1
        assert trained == []
        assert not out.exists()

    def test_out_naming_a_file_refused_before_decodes(self, ws, capsys, monkeypatch):
        # a file at the path, or where a directory above it would be made
        decodes = _count_decodes(monkeypatch)
        afile = ws / "run_file"
        afile.write_text("not a directory\n")
        for out in (afile, afile / "run"):
            with pytest.raises(SystemExit) as exc:
                run("evaluate", "--config", ws / "exp.ini",
                    "--train-x", ws / "train_X.bin", "--train-y", ws / "train_y.bin",
                    "--test-x", ws / "test_X.bin", "--test-y", ws / "test_y.bin",
                    "--folds", ws / "folds.txt", "--out", out)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --out: {afile} exists and is not a directory" in err
        assert decodes == []
        assert afile.read_text() == "not a directory\n"

    def test_chain_reproduces_evaluate(self, ws, trained_model, tmp_path):
        # train -> extract --augment -> svm -> extract -> score on fold 0 writes
        # the score file evaluate writes: svm takes C (16 here) from the config
        # the descriptor file carries, as evaluate does
        exp = tmp_path / "m1_fold0.ini"
        exp.write_text(f"[experiment]\nnetworks = {ws / 'm1.ini'}\nfolds = 0\n")
        assert run("evaluate", "--config", exp,
                   "--train-x", ws / "train_X.bin", "--train-y", ws / "train_y.bin",
                   "--test-x", ws / "test_X.bin", "--test-y", ws / "test_y.bin",
                   "--folds", ws / "folds.txt", "--out", tmp_path / "run") == 0
        want = (tmp_path / "run" / "scores_fold0_m1.txt").read_bytes()

        train_d, test_d = tmp_path / "train.desc", tmp_path / "test.desc"
        assert run("extract", "--model", trained_model, "--images", ws / "train_X.bin",
                   "--labels", ws / "train_y.bin", "--folds", ws / "folds.txt",
                   "--fold", 0, "--augment", "--out", train_d) == 0
        assert run("extract", "--model", trained_model, "--images", ws / "test_X.bin",
                   "--labels", ws / "test_y.bin", "--out", test_d) == 0
        assert run("svm", "--descriptors", train_d, "--out", tmp_path / "m1.svm") == 0
        assert run("score", "--svm", tmp_path / "m1.svm", "--descriptors", test_d,
                   "--network-id", "m1", "--out", tmp_path / "scores.txt") == 0
        assert (tmp_path / "scores.txt").read_bytes() == want

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
