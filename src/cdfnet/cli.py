"""Command-line entry points.

Six subcommands cover the pipeline end to end: `train` fits a network on one
fold, `extract` turns images into descriptors, `svm` fits the one-vs-all
classifier, `score` writes a [0, 1]-rescaled score table for the test set,
`committee` fuses score tables, and `evaluate` runs the whole fold protocol
for a committee described by an experiment file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .augment import expand_set
from .committee import (
    accuracy,
    committee_predict,
    normalize_table,
    read_score_file,
    table_predict,
    write_score_file,
)
from .config import NetworkConfig, load_experiment_config, load_network_config
from .config import network_config_from_text, network_config_to_text
from .errors import AlignmentError, CdfnetError, DimError, FormatError, naming
from .model_io import atomic_open, read_container, write_container
from .pipeline import (
    _check_members,
    _check_protocol,
    evaluate_protocol,
    extract_descriptors,
    load_model,
    load_svm,
    save_model,
    save_svm,
    train_network,
)
from .stl10 import (
    IMAGE_SIDE,
    LabeledImage,
    count_stl10_images,
    load_fold_plan,
    load_stl10,
    read_stl10_labels,
)
from .svm import score_many, train_ova_svm

logger = logging.getLogger(__name__)


def _out_file(path: str) -> str:
    """An --out file path, refused before any work if a directory or in a missing one."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"the directory of {path} does not exist")
    return path


def _out_dir(path: str) -> str:
    """evaluate's --out directory, refused before any work if it, or the
    nearest of its ancestors that exists, is not a directory."""
    existing = path
    while not os.path.exists(existing):
        existing = os.path.dirname(os.path.normpath(existing)) or os.curdir
    if not os.path.isdir(existing):
        raise argparse.ArgumentTypeError(f"{existing} exists and is not a directory")
    return path


def _load_fold(args, images_path, labels_path) -> list[LabeledImage]:
    """The images of fold --fold in the --folds plan, all images without
    either; the fold is checked against the image file's size before decoding."""
    if args.fold is None and args.folds is None:
        return load_stl10(images_path, labels_path)
    if args.folds is None:
        raise FormatError("--fold requires --folds")
    if args.fold is None:
        raise FormatError("--folds requires --fold")
    plan = load_fold_plan(args.folds)
    plan.check_fold(args.fold, count_stl10_images(images_path))
    images = load_stl10(images_path, labels_path)
    # copies: a view would keep the whole split's pixels alive with the fold
    return [LabeledImage(images[i].pixels.copy(), images[i].label, images[i].image_id)
            for i in plan.folds[args.fold]]


def _read_descriptors(path) -> tuple[np.ndarray, list[int], np.ndarray, NetworkConfig]:
    """The (n_images, dim) descriptor matrix, its integer image ids, its labels
    (integers >= 0, or -1 for an unlabelled row) and the extracting network's config."""
    tensors, config_text = read_container(path)
    with naming(path):
        data, ids, labels = tensors["descriptors"], tensors["image_ids"], tensors["labels"]
        cfg = network_config_from_text(config_text)
        if data.ndim != 2 or ids.shape != (data.shape[0],) or labels.shape != ids.shape:
            raise FormatError("descriptors must be (n, dim), with n image ids and n labels")
        if not all(v.is_integer() for v in ids.tolist()):
            raise FormatError("image ids must be integers")
        if not all(v.is_integer() and v >= -1 for v in labels.tolist()):
            raise FormatError("labels must be integers >= 0, or -1 for none")
    return data, [int(v) for v in ids.tolist()], labels, cfg


def _cmd_train(args) -> int:
    cfg = load_network_config(args.config)
    _check_members([cfg], (IMAGE_SIDE, IMAGE_SIDE))
    fold_images = _load_fold(args, args.train_x, args.train_y)
    logger.info("training %s on %d images", cfg.name, len(fold_images))
    model = train_network(cfg, fold_images)
    save_model(args.out, model)
    print(f"wrote model {args.out}")
    return 0


def _cmd_extract(args) -> int:
    model = load_model(args.model)
    images = _load_fold(args, args.images, args.labels)
    if args.augment:
        images = expand_set(images, model.config.augment)
    try:
        descs = extract_descriptors(model, images)
    except DimError as exc:  # images of a size the model was not trained at
        with naming(args.images):
            raise exc
    ids = [img.image_id for img in images]
    labels = [-1 if args.labels is None else img.label for img in images]
    tensors = {"descriptors": descs, "image_ids": ids, "labels": labels}
    write_container(args.out, tensors, network_config_to_text(model.config))
    print(f"wrote {len(descs)} descriptors to {args.out}")
    return 0


def _cmd_svm(args) -> int:
    descs, _, labels, cfg = _read_descriptors(args.descriptors)
    with naming(args.descriptors):
        if np.any(labels < 0):
            raise FormatError("labels missing, cannot train")
    model = train_ova_svm(descs, [int(v) for v in labels], reg_c=cfg.svm_reg_c)
    save_svm(args.out, model)
    print(f"wrote SVM {args.out}")
    return 0


def _cmd_score(args) -> int:
    svm = load_svm(args.svm)
    descs, image_ids, labels, _ = _read_descriptors(args.descriptors)
    try:
        raw = score_many(svm, descs)
    except DimError as exc:  # descriptors of another dim than the model's
        with naming(args.descriptors):
            raise exc
    table = normalize_table(args.network_id, image_ids, raw)
    write_score_file(args.out, table)
    if not np.any(labels < 0):
        acc = accuracy(table_predict(table), [int(v) for v in labels])
        print(f"accuracy {acc!r}")
    print(f"wrote scores {args.out}")
    return 0


def _cmd_committee(args) -> int:
    tables = [read_score_file(path) for path in args.scores]
    predictions = committee_predict(tables)
    if args.labels is not None:
        labels = read_stl10_labels(args.labels)
        with naming(args.labels):
            if tables[0].image_ids != tuple(range(len(predictions))):
                raise AlignmentError("labels match score rows by position, so the rows must "
                                     f"be images 0 to {len(predictions) - 1} in order")
            acc = accuracy(predictions, [int(v) for v in labels])
        print(f"committee accuracy {acc!r}")
    if args.out is not None:
        with atomic_open(args.out) as fh:
            for image_id, pred in zip(tables[0].image_ids, predictions):
                fh.write(f"{image_id} {pred}\n")
        print(f"wrote predictions {args.out}")
    elif args.labels is None:
        # with nothing else to report, show the predictions
        for image_id, pred in zip(tables[0].image_ids, predictions):
            print(f"{image_id} {pred}")
    return 0


def _cmd_evaluate(args) -> int:
    exp = load_experiment_config(args.config)
    cfgs = [load_network_config(p) for p in exp.networks]
    plan = load_fold_plan(args.folds)
    # evaluate_protocol's checks, on the files' sizes and STL-10's 96x96, before any decode
    side = (IMAGE_SIDE, IMAGE_SIDE)
    count_stl10_images(args.test_x)
    _check_protocol(cfgs, plan, exp.folds, count_stl10_images(args.train_x), side, {side})
    report = evaluate_protocol(
        cfgs, load_stl10(args.train_x, args.train_y), load_stl10(args.test_x, args.test_y),
        plan, fold_indices=exp.folds, out_dir=args.out,
    )
    for section in report.networks + (report.committee,):
        print(f"{section.name} mean {section.mean!r} std {section.std!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdfnet",
        description="Committees of k-means convolutional feature networks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one network on one training fold")
    p.add_argument("--config", required=True, help="network config file")
    p.add_argument("--train-x", required=True, help="training images (.bin)")
    p.add_argument("--train-y", required=True, help="training labels (.bin)")
    p.add_argument("--folds", help="fold index file")
    p.add_argument("--fold", type=int, help="fold number (omit: all images)")
    p.add_argument("--out", type=_out_file, required=True, help="model container path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("extract", help="compute descriptors for an image file")
    p.add_argument("--model", required=True, help="model container path")
    p.add_argument("--images", required=True, help="images (.bin)")
    p.add_argument("--labels", help="labels (.bin), optional")
    p.add_argument("--folds", help="fold index file")
    p.add_argument("--fold", type=int, help="restrict to one fold")
    p.add_argument("--augment", action="store_true", help="apply the training augment plan")
    p.add_argument("--out", type=_out_file, required=True, help="descriptor container path")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("svm", help="train the one-vs-all linear SVM")
    p.add_argument("--descriptors", required=True, help="descriptor container")
    p.add_argument("--out", type=_out_file, required=True, help="SVM container path")
    p.set_defaults(func=_cmd_svm)

    p = sub.add_parser("score", help="score descriptors and write a score table")
    p.add_argument("--svm", required=True, help="SVM container path")
    p.add_argument("--descriptors", required=True, help="descriptor container")
    p.add_argument("--network-id", required=True, help="network id for the table")
    p.add_argument("--out", type=_out_file, required=True, help="score file path")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("committee", help="fuse score tables and predict")
    p.add_argument("scores", nargs="+", help="score files to fuse")
    p.add_argument("--labels", help="labels (.bin) for accuracy")
    p.add_argument("--out", type=_out_file, help="predictions output path")
    p.set_defaults(func=_cmd_committee)

    # options match in full, so train's --fold is not taken for --folds here
    p = sub.add_parser("evaluate", help="full fold protocol for a committee", allow_abbrev=False)
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--train-x", required=True)
    p.add_argument("--train-y", required=True)
    p.add_argument("--test-x", required=True)
    p.add_argument("--test-y", required=True)
    p.add_argument("--folds", required=True, help="fold index file")
    p.add_argument("--out", type=_out_dir, help="output directory for scores and reports")
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(message)s",
    )
    try:
        return args.func(args)
    except (CdfnetError, OSError, ValueError) as exc:
        # ValueError covers dataclass contract checks (e.g. a --network-id
        # with spaces) that user input can reach.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
