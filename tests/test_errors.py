"""A refused input file is named once, at the start of the message.

Every loader reports a damaged file as a FormatError whose message starts
with ``<path>: `` and names the path exactly once, however deeply the check
that refused it sits. The last test keeps that decision in errors.naming.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from cdfnet import cli
from cdfnet.cli import _read_descriptors, main
from cdfnet.committee import read_score_file
from cdfnet.config import (
    NetworkConfig,
    load_experiment_config,
    load_network_config,
    network_config_to_text,
)
from cdfnet.errors import FormatError, NonFiniteValue
from cdfnet.model_io import read_container, write_container
from cdfnet.pipeline import load_model, load_svm
from cdfnet.stl10 import (
    BYTES_PER_IMAGE,
    load_fold_plan,
    load_stl10,
    read_stl10_images,
    read_stl10_labels,
)
from helpers import write_descriptors

MODEL = Path(__file__).resolve().parent / "data" / "tiny_on_off.model"
SRC = Path(__file__).resolve().parent.parent / "src" / "cdfnet"


def _model(path, edit=lambda tensors: None, edit_text=lambda text: text):
    """MODEL with its tensors edited in place and its config text edited."""
    tensors, text = read_container(MODEL)
    edit(tensors)
    write_container(path, tensors, edit_text(text))


def _whitened(tensors, epsilon=False):
    """The eight-tensor layout of an earlier version: each layer's raw filters
    with an (identity) zca_mean and zca_matrix in place of its offset; with
    epsilon, the ten-tensor layout, which adds each layer's zca_epsilon."""
    old = {}
    for name, value in tensors.items():
        layer, _, kind = name.partition("/")
        if kind != "offset":
            old[name] = value
            continue
        d = tensors[f"{layer}/filters"].shape[-2]
        old[f"{layer}/zca_mean"] = np.zeros(value.shape[:-1] + (d,))
        old[f"{layer}/zca_matrix"] = np.zeros(value.shape[:-1] + (d, d)) + np.eye(d)
        if epsilon:
            old[f"{layer}/zca_epsilon"] = np.array([0.1])
    tensors.clear()
    tensors.update(old)


def _retired_keys(text):
    """text with a retired option in the section that held it."""
    return text.replace("[layer1]\n", "[layer1]\ndense_preprocess = true\n")


def _per_group(tensors):
    """The layout of an earlier version, before layer 2 was one stack:
    layer2/gNNNN/* per group, each its filters and (identity) whitening."""
    stack = tensors.pop("layer2/filters")
    del tensors["layer2/offset"]
    for g, filters in enumerate(stack):
        tensors[f"layer2/g{g:04d}/filters"] = filters
        tensors[f"layer2/g{g:04d}/zca_mean"] = np.zeros(len(filters))
        tensors[f"layer2/g{g:04d}/zca_matrix"] = np.eye(len(filters))


def _short_offset(tensors):
    tensors["layer1/offset"] = tensors["layer1/offset"][:-1]


def _stacked_layer1(tensors):
    # a stack of one bank: (d, K) matches the config, but layer 1 takes a single bank
    for name in ("layer1/filters", "layer1/offset"):
        tensors[name] = tensors[name][None]


def _nan_offset(tensors):
    tensors["layer2/offset"][0, 1] = np.nan


def _repeated_offset(path):
    """MODEL listing layer1/offset twice. A dict holds each name once, so the
    copy is written under another name of the same length, then renamed."""
    _model(path, lambda t: t.update({"layer1/OFFSET": t["layer1/offset"]}))
    path.write_bytes(path.read_bytes().replace(b"layer1/OFFSET", b"layer1/offset"))


def _svm(path, **extra):
    """An SVM of 2 classes and 3 features; extra tensors follow its own two,
    and a weights or biases keyword replaces its own."""
    tensors = {"weights": np.ones((2, 3)), "biases": np.zeros(2), **extra}
    write_container(path, tensors)


def _descriptors(path, labels, ids=(0, 1, 2), svm_reg_c="1.0"):
    """Three descriptors of dim 4 from a default network, whose config gives svm_reg_c."""
    text = network_config_to_text(NetworkConfig()).replace(
        "svm_reg_c = 1.0\n", f"svm_reg_c = {svm_reg_c}\n")
    write_descriptors(path, np.ones((3, 4)), labels, ids, text)


def _folds(path, lines):
    path.write_text("\n".join(lines) + "\n")


def _ten_folds(first):
    return [first] + ["0 1 2"] * 9


def _images(path, n):
    path.write_bytes(bytes(n * BYTES_PER_IMAGE))


def _other_tensor(name, kind):
    """The refusal of a container holding tensor name, which kind does not hold."""
    return (f"holds tensor {name!r}, which {kind} does not: a file of another kind, "
            "or one written by an earlier version (retrain it)")


def _load_stl10_pair(labels_path):
    return load_stl10(labels_path.with_name("x.bin"), labels_path)


# id -> (file name, write the damaged file at path, load it, part of the reason)
CASES = {
    "container_bad_magic": (
        "m.bin", lambda p: p.write_bytes(b"XXXX" + bytes(20)), read_container, "bad magic",
    ),
    "container_truncated": (
        "m.bin", lambda p: p.write_bytes(MODEL.read_bytes()[:-9]), read_container,
        "truncated container",
    ),
    "container_name_not_utf8": (
        "m.bin", lambda p: p.write_bytes(MODEL.read_bytes().replace(b"groups", b"gr\xffups")),
        read_container, "'utf-8' codec can't decode",
    ),
    "container_repeated_tensor": (
        "m.model", _repeated_offset, load_model, "tensor 'layer1/offset' appears twice",
    ),
    "model_missing_tensor": (
        "m.model", lambda p: _model(p, lambda t: t.pop("groups")), load_model,
        "missing 'groups'",
    ),
    "model_offset_wrong_shape": (
        "m.model", lambda p: _model(p, _short_offset), load_model,
        "filter offset (3,) does not match filters (9, 4)",
    ),
    "model_offset_non_finite": (
        "m.model", lambda p: _model(p, _nan_offset), load_model,
        "non-finite value nan in filter offset at (0, 1)",
    ),
    "model_layer1_stacked": (
        "m.model", lambda p: _model(p, _stacked_layer1), load_model,
        "layer-1 filters (1, 9, 4) must be one bank",
    ),
    "model_offset_missing": (
        "m.model", lambda p: _model(p, lambda t: t.pop("layer1/offset")), load_model,
        "missing 'layer1/offset'",
    ),
    "model_config_repeated_key": (
        "m.model",
        lambda p: _model(
            p, edit_text=lambda t: t.replace("[layer2]\n", "[layer2]\nlcn_window = 3\n")
        ),
        load_model, "option 'lcn_window' in section 'layer2' already exists",
    ),
    "model_config_repeated_section": (
        "m.model", lambda p: _model(p, edit_text=lambda t: t + "[layer1]\n"), load_model,
        "section 'layer1' already exists",
    ),
    # earlier versions' layouts are refused before their config is read
    "model_eight_tensor_layout": (
        "m.model", lambda p: _model(p, _whitened), load_model,
        _other_tensor("layer1/zca_mean", "a model"),
    ),
    "model_ten_tensor_layout": (
        "m.model",
        lambda p: _model(p, lambda t: _whitened(t, epsilon=True), _retired_keys),
        load_model, _other_tensor("layer1/zca_mean", "a model"),
    ),
    "model_per_group_layout": (
        "m.model", lambda p: _model(p, _per_group), load_model,
        _other_tensor("layer2/g0000/filters", "a model"),
    ),
    "svm_standardized_layout": (
        "s.svm",
        lambda p: _svm(p, feature_mean=np.zeros(3), feature_std=np.ones(3)),
        load_svm, _other_tensor("feature_mean", "an SVM"),
    ),
    # a container of another kind is not called an earlier version
    "model_given_an_svm": (
        "x.svm", lambda p: _svm(p), load_model,
        _other_tensor("weights", "a model"),
    ),
    "model_given_descriptors": (
        "x.desc", lambda p: _descriptors(p, [0.0, 1.0, 0.0]), load_model,
        _other_tensor("descriptors", "a model"),
    ),
    "svm_given_a_model": (
        "x.model", lambda p: _model(p), load_svm, _other_tensor("input_shape", "an SVM"),
    ),
    "svm_weight_non_finite": (
        "s.svm", lambda p: _svm(p, weights=np.array([[1, np.nan, 1], [1, 1, 1]])),
        load_svm, "non-finite value nan in SVM weights at (0, 1)",
    ),
    "svm_bias_non_finite": (
        "s.svm", lambda p: _svm(p, biases=np.array([0, -np.inf])),
        load_svm, "non-finite value -inf in SVM biases at (1,)",
    ),
    # an SVM is trained with the C of the config its descriptor file carries
    "svm_reg_c_not_a_number": (
        "d.desc", lambda p: _descriptors(p, [0.0, 1.0, 0.0], svm_reg_c="abc"),
        _read_descriptors, "network.svm_reg_c: could not convert string to float: 'abc'",
    ),
    "svm_reg_c_nan": (
        "d.desc", lambda p: _descriptors(p, [0.0, 1.0, 0.0], svm_reg_c="nan"),
        _read_descriptors, "svm_reg_c must be finite and > 0, got nan (in [network])",
    ),
    "svm_reg_c_negative": (
        "d.desc", lambda p: _descriptors(p, [0.0, 1.0, 0.0], svm_reg_c="-1"),
        _read_descriptors, "svm_reg_c must be finite and > 0, got -1.0 (in [network])",
    ),
    "svm_reg_c_zero": (
        "d.desc", lambda p: _descriptors(p, [0.0, 1.0, 0.0], svm_reg_c="0"),
        _read_descriptors, "svm_reg_c must be finite and > 0, got 0.0 (in [network])",
    ),
    # an earlier version's descriptor file, its image ids the config block's lines
    "descriptors_earlier_layout": (
        "d.desc",
        lambda p: write_container(
            p, {"descriptors": np.ones((3, 4)), "labels": np.zeros(3)}, "0\n1\n2"
        ),
        _read_descriptors, "missing 'image_ids'",
    ),
    "descriptors_bad_id": (
        "d.desc", lambda p: _descriptors(p, [0.0, 1.0, 0.0], [0, 0.5, 2]), _read_descriptors,
        "image ids must be integers",
    ),
    "descriptors_bad_label": (
        "d.desc", lambda p: _descriptors(p, [0.0, -2.0, 0.0]), _read_descriptors,
        "labels must be integers >= 0, or -1",
    ),
    "descriptors_label_count": (
        "d.desc", lambda p: _descriptors(p, [0.0, 1.0]), _read_descriptors,
        "with n image ids and n labels",
    ),
    "descriptors_scalar": (
        "d.desc",
        lambda p: write_descriptors(p, np.ones(()), np.zeros(1)),
        _read_descriptors, "with n image ids and n labels",
    ),
    "network_config_unknown_key": (
        "n.ini", lambda p: p.write_text("[network]\n[layer1]\nfilter = 3\n[layer2]\n"),
        load_network_config, "unknown key layer1.filter",
    ),
    "network_config_retired_key": (
        "n.ini", lambda p: p.write_text(_retired_keys("[network]\n[layer1]\n[layer2]\n")),
        load_network_config, "unknown key layer1.dense_preprocess",
    ),
    "network_config_bad_value": (
        "n.ini", lambda p: p.write_text("[network]\n[layer1]\nfilters = x\n[layer2]\n"),
        load_network_config, "layer1.filters: invalid literal",
    ),
    "network_config_zero_denominator": (
        "n.ini", lambda p: p.write_text("[network]\nscale_factor = 1/0\n[layer1]\n[layer2]\n"),
        load_network_config, "network.scale_factor: fraction '1/0' divides by zero",
    ),
    # config text of earlier versions: four seeds in their own section, and
    # an empty scale_factor for native resolution
    "model_seeds_section": (
        "m.model",
        lambda p: _model(p, edit_text=lambda t: t.replace("seed = 1\n", "") + (
            "[seeds]\npatches = 1\nkmeans1 = 2\nkmeans2 = 3\ngrouping = 4\n"
        )),
        load_model, "bad network config: unknown section [seeds]",
    ),
    "network_config_empty_scale_factor": (
        "n.ini", lambda p: p.write_text("[network]\nscale_factor = \n[layer1]\n[layer2]\n"),
        load_network_config, "network.scale_factor: could not convert string to float: ''",
    ),
    "network_config_repeated_key": (
        "n.ini", lambda p: p.write_text("[network]\nname = a\nname = b\n[layer1]\n[layer2]\n"),
        load_network_config, "option 'name' in section 'network' already exists",
    ),
    "network_config_refused_record": (
        "n.ini", lambda p: p.write_text("[network]\n[layer1]\nfilters = 0\n[layer2]\n"),
        load_network_config, "filters must be >= 1, got 0 (in [layer1])",
    ),
    # the name is joined into score-file paths
    "network_config_path_separator": (
        "n.ini", lambda p: p.write_text("[network]\nname = a/b\n[layer1]\n[layer2]\n"),
        load_network_config,
        "bad network config: network name must be non-empty ASCII without whitespace "
        "or path separators: 'a/b' (in [network])",
    ),
    "experiment_unknown_section": (
        "e.ini", lambda p: p.write_text("[experiment]\nnetworks = a.ini\n[other]\n"),
        load_experiment_config, "unknown section [other]",
    ),
    "experiment_no_networks": (
        "e.ini", lambda p: p.write_text("[experiment]\nnetworks = ,\n"),
        load_experiment_config, "experiment lists no networks",
    ),
    "experiment_missing_networks": (
        "e.ini", lambda p: p.write_text("[experiment]\nname = x\n"), load_experiment_config,
        "experiment lists no networks (in [experiment])",
    ),
    "experiment_bad_fold": (
        "e.ini", lambda p: p.write_text("[experiment]\nnetworks = a.ini\nfolds = 1 x\n"),
        load_experiment_config, "experiment.folds: invalid literal for int()",
    ),
    "scores_bad_header": (
        "s.txt", lambda p: p.write_text("score v1 n1 2\n0 0.0 1.0\n"), read_score_file,
        "bad score-file header",
    ),
    "scores_bad_token": (
        "s.txt", lambda p: p.write_text("scores v1 n1 2\n0 0.0 x\n"), read_score_file,
        "could not convert string to float: 'x'",
    ),
    "scores_outside_unit_interval": (
        "s.txt", lambda p: p.write_text("scores v1 n1 2\n0 0.0 2.0\n"), read_score_file,
        "has scores outside [0, 1]",
    ),
    "scores_blank_line": (
        "s.txt", lambda p: p.write_text("scores v1 n1 2\n0 0.0 1.0\n\n1 1.0 0.0\n"),
        read_score_file, "line 3: expected 3 tokens, got 0",
    ),
    "scores_not_ascii": (
        "s.txt", lambda p: p.write_bytes(b"scores v1 n\xff 2\n0 0.0 1.0\n"), read_score_file,
        "'ascii' codec can't decode",
    ),
    "fold_plan_duplicate_indices": (
        "f.txt", lambda p: _folds(p, _ten_folds("0 1 1")), load_fold_plan,
        "fold 0 contains duplicate indices",
    ),
    # the upper bound is the images loaded, which check_fold applies
    "fold_plan_negative_index": (
        "f.txt", lambda p: _folds(p, _ten_folds("0 -1")), load_fold_plan,
        "fold 0 lists negative index -1",
    ),
    "fold_plan_fold_count": (
        "f.txt", lambda p: _folds(p, ["0 1"] * 9), load_fold_plan, "expected 10 folds, got 9",
    ),
    "fold_plan_bad_token": (
        "f.txt", lambda p: _folds(p, _ten_folds("0 x")), load_fold_plan,
        "invalid literal for int()",
    ),
    "stl10_images_size": (
        "x.bin", lambda p: p.write_bytes(bytes(BYTES_PER_IMAGE + 1)), read_stl10_images,
        f"size {BYTES_PER_IMAGE + 1} is not a positive multiple of {BYTES_PER_IMAGE}",
    ),
    "stl10_labels_empty": (
        "y.bin", lambda p: p.write_bytes(b""), read_stl10_labels, "empty label file",
    ),
    "stl10_labels_range": (
        "y.bin", lambda p: p.write_bytes(b"\x01\x0b"), read_stl10_labels,
        "labels must be 1..10 on disk",
    ),
    "stl10_label_count": (
        "y.bin", lambda p: (_images(p.with_name("x.bin"), 3), p.write_bytes(b"\x01\x02")),
        _load_stl10_pair, "3 images but 2 labels",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_refused_file_is_named_once_at_the_start(tmp_path, case):
    name, damage, load, reason = CASES[case]
    path = tmp_path / name
    damage(path)
    with pytest.raises(FormatError) as info:
        load(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert message.count(str(path)) == 1
    assert reason in message


@pytest.mark.parametrize("kind", ["missing", "directory", "stl10_labels_missing"])
def test_unopenable_experiment_file_reports_the_system_error(tmp_path, capsys, kind):
    # the OSError already names the path, so it is not a FormatError
    config, images, absent = tmp_path / "e.ini", tmp_path / "x.bin", tmp_path / "absent.bin"
    folds = tmp_path / "folds.txt"
    folds.write_text("0\n" * 10)
    if kind == "directory":
        config.mkdir()
    if kind == "stl10_labels_missing":
        # found once the images are decoded
        (tmp_path / "n.ini").write_text("[network]\n[layer1]\n[layer2]\n")
        config.write_text("[experiment]\nnetworks = n.ini\n")
        _images(images, 1)
        path, load = absent, lambda: load_stl10(images, absent)
    else:
        path, load = config, lambda: load_experiment_config(config)
    with pytest.raises(OSError) as info:
        load()
    assert not isinstance(info.value, FormatError) and str(path) in str(info.value)
    rc = main(["evaluate", "--config", str(config), "--train-x", str(images),
               "--train-y", str(absent), "--test-x", str(images), "--test-y", str(absent),
               "--folds", str(folds)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_evaluate_names_the_bad_member_before_reading_images(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("images read")

    monkeypatch.setattr(cli, "load_stl10", never)
    for i in range(1, 6):
        (tmp_path / f"n{i}.ini").write_text("[network]\n[layer1]\n[layer2]\n")
    bad = tmp_path / "n4.ini"
    bad.write_text("[network]\n[layer1]\nfilter = 3\n[layer2]\n")
    exp = tmp_path / "exp.ini"
    exp.write_text("[experiment]\nnetworks = n1.ini, n2.ini, n3.ini, n4.ini, n5.ini\n")
    data = tmp_path / "absent.bin"
    rc = main(["evaluate", "--config", str(exp), "--train-x", str(data), "--train-y", str(data),
               "--test-x", str(data), "--test-y", str(data), "--folds", str(data)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count(str(bad)) == 1
    assert "unknown key layer1.filter" in err and err.count("\n") == 1


def test_committee_names_a_labels_file_of_another_length(tmp_path, capsys):
    # labels are matched to score rows by position, so rows that are not
    # images 0 to N-1 in order are refused like a count that differs
    scores, labels = tmp_path / "s.txt", tmp_path / "y.bin"
    in_order = "labels match score rows by position, so the rows must be images 0 to 1 in order"
    for ids, label_bytes, reason in [
        ((0, 1), b"\x01\x02\x01", "2 predictions but 3 labels"),
        ((0, 0), b"\x01\x02", in_order),  # a repeated image
        ((1, 0), b"\x01\x02", in_order),  # swapped images
    ]:
        scores.write_text("scores v1 n1 2\n{} 0.0 1.0\n{} 1.0 0.0\n".format(*ids))
        labels.write_bytes(label_bytes)
        assert main(["committee", str(scores), "--labels", str(labels)]) == 2
        assert capsys.readouterr().err == f"error: {labels}: {reason}\n"


def test_score_names_descriptors_of_another_dim(tmp_path, capsys):
    svm, descs = tmp_path / "s.svm", tmp_path / "d.desc"
    _svm(svm)
    _descriptors(descs, [0, 1, 0])
    assert main(["score", "--svm", str(svm), "--descriptors", str(descs),
                 "--network-id", "n1", "--out", str(tmp_path / "t.txt")]) == 2
    assert capsys.readouterr().err == (
        f"error: {descs}: descriptor dim 4 does not match model dim 3\n"
    )


def test_extract_names_images_of_another_size(tmp_path, capsys, monkeypatch):
    images = tmp_path / "x.bin"
    _images(images, 2)
    argv = ["extract", "--model", str(MODEL), "--images", str(images),
            "--out", str(tmp_path / "d.desc")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {images}: image 0 is (96, 96) after rescaling, not the working size (16, 16)\n"
    )

    # a fault of the forward pass is not the images' fault
    def overflow(model, images):
        raise NonFiniteValue("non-finite value inf in layer-1 output at (0, 0, 0)")

    monkeypatch.setattr(cli, "extract_descriptors", overflow)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: non-finite value inf in layer-1 output at (0, 0, 0)\n"


PATH_NAMES = {"path", "images_path", "labels_path", "p"}


def _path_formatted(call: ast.Call) -> bool:
    """Whether a FormatError(...) call builds its message from a path: a path
    variable anywhere in it, or an f-string that opens with `{...}: `."""
    for arg in call.args:
        if any(isinstance(n, ast.Name) and n.id in PATH_NAMES for n in ast.walk(arg)):
            return True
        if (isinstance(arg, ast.JoinedStr) and len(arg.values) > 1
                and isinstance(arg.values[0], ast.FormattedValue)
                and isinstance(arg.values[1], ast.Constant)
                and arg.values[1].value.startswith(": ")):
            return True
    return False


def test_only_naming_puts_a_path_in_a_format_error():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 10
    found = []
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        allowed = set()
        if source.name == "errors.py":
            naming = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "naming")
            allowed = {id(n) for n in ast.walk(naming)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "FormatError" and id(node) not in allowed
                    and _path_formatted(node)):
                found.append(f"{source.name}:{node.lineno}")
    assert found == [], f"FormatError messages built from a path outside errors.naming: {found}"
