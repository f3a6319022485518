"""Training orchestration, model persistence, and the 10-fold protocol.

A trained network is layer-1 filters (with their whitening transform), a
random group assignment, and the layer-2 filter banks of all groups stacked
into one (G, d, K) bank. Everything downstream of the seeds is
deterministic, so a NetworkConfig plus its seeds reproduces models,
descriptors, and score files bit for bit.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .augment import _scaled_shape, expand_set, scale
from .committee import (
    ScoreTable,
    accuracy,
    committee_predict,
    normalize_table,
    table_predict,
    write_score_file,
)
from .config import Layer1Config, Layer2Config, NetworkConfig
from .config import network_config_from_text, network_config_to_text
from .errors import DimError, FormatError, InvalidGrouping
from .kmeans import FilterBank, kmeans
from .layer import GroupAssignment, layer_output_shape, make_groups, run_groups, run_layer
from .model_io import atomic_open, read_container, write_container
from .patches import PatchMatrix, ZcaTransform, apply_zca, extract_patches, fit_zca, normalize_columns
from .stl10 import FoldPlan, LabeledImage
from .svm import SvmModel, score_many, train_ova_svm
from .tensor import FeatureMapSet, SeededRng

logger = logging.getLogger(__name__)

KMEANS_MAX_ITERS = 100


@dataclass(frozen=True)
class NetworkModel:
    """A trained feature extractor: both layers plus the group wiring.

    bank2 stacks one bank per group of ``groups``: (G, d, K) filters.
    """

    config: NetworkConfig
    bank1: FilterBank
    groups: GroupAssignment
    bank2: FilterBank
    input_shape: tuple[int, int]

    def __post_init__(self):
        if self.bank2.lead != (self.groups.n_groups,):
            raise DimError(
                f"layer-2 filters {self.bank2.filters.shape} do not stack one bank "
                f"for each of {self.groups.n_groups} groups"
            )


def _prepare_image(img: LabeledImage, factor: float | None) -> LabeledImage:
    return scale(img, factor) if factor is not None else img


def _train_bank(
    maps: np.ndarray,
    layer: Layer1Config | Layer2Config,
    k: int,
    patch_rng: SeededRng,
    kmeans_rng: SeededRng,
) -> tuple[np.ndarray, ZcaTransform]:
    """Sample the layer's patches from an (N, H, W, depth) stack, normalize,
    whiten, and cluster them into k filters; returns (filters, whitening)."""
    # each step rebinds `patches`, so the raw and normalized copies are
    # freed before k-means runs
    patches = extract_patches(maps, layer.patch_side, layer.n_patches, patch_rng)
    patches = PatchMatrix(normalize_columns(patches.data), layer.patch_side, patches.depth)
    zca = fit_zca(patches, layer.zca_epsilon)
    patches = apply_zca(zca, patches)
    return kmeans(patches, k, KMEANS_MAX_ITERS, kmeans_rng).centroids, zca


def _train(
    cfg: NetworkConfig, fold_images: list[LabeledImage]
) -> tuple[NetworkModel, list[int], np.ndarray]:
    """:func:`train_network`, also returning the augmented fold's labels and
    its layer-1 outputs as one (N, h, w, K1) array."""
    # the shape chain and the grouping depend only on the config and the
    # image size, so settle them before the heavy work
    input_shape = _working_shape(cfg, *fold_images[0].pixels.shape)
    l1_shape = _layer_shapes(cfg, *input_shape)[0]
    groups = make_groups(l1_shape[2], cfg.layer2.group_size, SeededRng(cfg.seeds.grouping))
    augmented = expand_set(fold_images, cfg.augment)
    images = np.empty((len(augmented), *input_shape, 1))
    for i, img in enumerate(augmented):
        pixels = _prepare_image(img, cfg.scale_factor).pixels
        if pixels.shape != input_shape:
            raise DimError(
                f"training images must share one size, got {input_shape} and {pixels.shape}"
            )
        images[i, :, :, 0] = pixels
    labels = [img.label for img in augmented]
    image_ids = [img.image_id for img in augmented]
    del augmented

    patches_rng = SeededRng(cfg.seeds.patches)
    logger.info("%s: training layer-1 filters (K=%d)", cfg.name, cfg.layer1.k)
    filters1, zca1 = _train_bank(
        images,
        cfg.layer1,
        k=cfg.layer1.k,
        patch_rng=patches_rng.child(0),
        kmeans_rng=SeededRng(cfg.seeds.kmeans1),
    )
    bank1 = FilterBank(filters1, cfg.layer1.patch_side, 1, zca1, layer_index=1)

    outputs1 = np.empty((len(images), *l1_shape))
    for i, image_id in enumerate(image_ids):
        outputs1[i] = run_layer(
            FeatureMapSet(images[i], image_id), bank1, cfg.layer1, cfg.rectifier
        ).maps
    del images  # nothing else holds a view of the stack
    logger.info(
        "%s: layer-1 output %dx%dx%d, %d groups of %d",
        cfg.name,
        *l1_shape,
        groups.n_groups,
        groups.group_size,
    )

    kmeans2_rng = SeededRng(cfg.seeds.kmeans2)
    trained = [
        _train_bank(
            outputs1[..., list(group)],
            cfg.layer2,
            k=cfg.layer2.k_per_group,
            patch_rng=patches_rng.child(1 + g),
            kmeans_rng=kmeans2_rng.child(g),
        )
        for g, group in enumerate(groups.groups)
    ]
    zca2 = ZcaTransform(
        mean=np.stack([zca.mean for _, zca in trained]),
        matrix=np.stack([zca.matrix for _, zca in trained]),
        epsilon=cfg.layer2.zca_epsilon,
    )
    bank2 = FilterBank(
        np.stack([filters for filters, _ in trained]),
        cfg.layer2.patch_side,
        cfg.layer2.group_size,
        zca2,
        layer_index=2,
    )
    model = NetworkModel(cfg, bank1, groups, bank2, input_shape)
    return model, labels, outputs1


def train_network(cfg: NetworkConfig, fold_images: list[LabeledImage]) -> NetworkModel:
    """Train both layers' filters on the (augmented) fold images."""
    return _train(cfg, fold_images)[0]


def _layer1_input(model: NetworkModel, img: LabeledImage) -> FeatureMapSet:
    pixels = _prepare_image(img, model.config.scale_factor).pixels
    if pixels.shape != model.input_shape:
        raise DimError(
            f"image {img.image_id!r} is {pixels.shape} after "
            f"rescaling, model was trained at {model.input_shape}"
        )
    return FeatureMapSet(pixels[:, :, np.newaxis], img.image_id)


def _descriptor_rows(model: NetworkModel, outputs1, n_images: int) -> np.ndarray:
    """Layer 2 over n_images (h, w, K1) layer-1 outputs; row i comes from the i-th.

    Consumes outputs1 one at a time, so a generator keeps a single image's
    layer-1 maps in memory.
    """
    cfg = model.config
    _, l2, n_groups, dim = _layer_shapes(cfg, *model.input_shape)
    n2 = n_groups * l2[0] * l2[1] * l2[2]
    perm = np.concatenate(model.groups.groups)
    descriptors = np.empty((n_images, dim))
    for row, out1 in zip(descriptors, outputs1):
        row[:n2] = run_groups(out1, perm, model.bank2, cfg.layer2, cfg.rectifier).ravel()
        if cfg.descriptor_mode == "concat_layers":
            row[n2:] = out1.ravel()
    return descriptors


def extract_descriptors(model: NetworkModel, images: list[LabeledImage]) -> np.ndarray:
    """Run both layers and flatten the final pooled maps into an (n_images, dim) matrix.

    Row i is the descriptor of images[i]. Images are rescaled to the model's
    working resolution internally; pass native-resolution images. Each
    image goes through layer 1 and then layer 2 before the next one starts.
    """
    cfg = model.config
    outputs1 = (
        run_layer(_layer1_input(model, img), model.bank1, cfg.layer1, cfg.rectifier).maps
        for img in images
    )
    return _descriptor_rows(model, outputs1, len(images))


def _working_shape(cfg: NetworkConfig, height: int, width: int) -> tuple[int, int]:
    """Image size after the network's rescaling, as :func:`cdfnet.augment.scale` makes it."""
    if cfg.scale_factor is None:
        return height, width
    return _scaled_shape(height, width, cfg.scale_factor)


def descriptor_shape(cfg: NetworkConfig, height: int, width: int):
    """Closed-form layer shapes and descriptor length for one native input size.

    Raises the errors training would raise for a shape chain that cannot run.
    """
    return _layer_shapes(cfg, *_working_shape(cfg, height, width))


def _layer_shapes(cfg: NetworkConfig, height: int, width: int):
    """:func:`descriptor_shape` for an input already at the working resolution."""
    l1 = layer_output_shape(height, width, cfg.layer1.k, cfg.layer1, cfg.rectifier)
    l2 = layer_output_shape(l1[0], l1[1], cfg.layer2.k_per_group, cfg.layer2, cfg.rectifier)
    n_groups, rest = divmod(l1[2], cfg.layer2.group_size)
    if rest:
        raise InvalidGrouping(
            f"group size {cfg.layer2.group_size} does not divide {l1[2]} feature maps"
        )
    dim = n_groups * l2[0] * l2[1] * l2[2]
    if cfg.descriptor_mode == "concat_layers":
        dim += l1[0] * l1[1] * l1[2]
    return l1, l2, n_groups, dim


# -- persistence --------------------------------------------------------------


def _bank_tensors(prefix: str, bank: FilterBank) -> dict[str, np.ndarray]:
    """Container tensors of a filter bank, stacked or not, and its whitening transform."""
    return {
        f"{prefix}/filters": bank.filters,
        f"{prefix}/zca_mean": bank.whitening.mean,
        f"{prefix}/zca_matrix": bank.whitening.matrix,
        f"{prefix}/zca_epsilon": np.array([bank.whitening.epsilon]),
    }


def _bank_from_tensors(
    tensors: dict[str, np.ndarray], prefix: str, patch_side: int, depth: int, layer_index: int
) -> FilterBank:
    """Inverse of :func:`_bank_tensors`; the shape fields come from the config."""
    return FilterBank(
        filters=tensors[f"{prefix}/filters"],
        patch_side=patch_side,
        depth=depth,
        whitening=ZcaTransform(
            mean=tensors[f"{prefix}/zca_mean"],
            matrix=tensors[f"{prefix}/zca_matrix"],
            epsilon=float(tensors[f"{prefix}/zca_epsilon"][0]),
        ),
        layer_index=layer_index,
    )


def save_model(path, model: NetworkModel) -> None:
    tensors = {
        "input_shape": np.array(model.input_shape, dtype=np.float64),
        **_bank_tensors("layer1", model.bank1),
        "groups": np.array(model.groups.groups, dtype=np.float64),
        **_bank_tensors("layer2", model.bank2),
    }
    write_container(path, tensors, network_config_to_text(model.config))


def load_model(path) -> NetworkModel:
    tensors, config_text = read_container(path)
    cfg = network_config_from_text(config_text)
    try:
        bank1 = _bank_from_tensors(tensors, "layer1", cfg.layer1.patch_side, 1, 1)
        groups = GroupAssignment(
            tuple(tuple(int(i) for i in row) for row in tensors["groups"])
        )
        bank2 = _bank_from_tensors(
            tensors, "layer2", cfg.layer2.patch_side, cfg.layer2.group_size, 2
        )
        input_shape = tuple(int(v) for v in tensors["input_shape"])
    except KeyError as exc:
        raise FormatError(f"{path}: missing tensor {exc}") from exc
    return NetworkModel(cfg, bank1, groups, bank2, input_shape)


def save_svm(path, model: SvmModel) -> None:
    tensors = {
        "weights": model.weights,
        "biases": model.biases,
        "feature_mean": model.feature_mean,
        "feature_std": model.feature_std,
    }
    write_container(path, tensors, f"[svm]\nreg_c = {model.reg_c!r}\n")


def load_svm(path) -> SvmModel:
    import configparser

    tensors, config_text = read_container(path)
    cp = configparser.ConfigParser()
    try:
        cp.read_string(config_text)
        reg_c = float(cp["svm"]["reg_c"])
        return SvmModel(
            weights=tensors["weights"],
            biases=tensors["biases"],
            reg_c=reg_c,
            feature_mean=tensors["feature_mean"],
            feature_std=tensors["feature_std"],
        )
    except (KeyError, configparser.Error) as exc:
        raise FormatError(f"{path}: bad SVM container: {exc}") from exc


# -- fold protocol -------------------------------------------------------------


@dataclass(frozen=True)
class ReportSection:
    """Per-fold accuracies for one network (or the committee)."""

    name: str
    fold_indices: tuple[int, ...]
    accuracies: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        if len(self.accuracies) < 2:
            return 0.0
        return float(np.std(self.accuracies, ddof=1))


@dataclass(frozen=True)
class ExperimentReport:
    networks: tuple[ReportSection, ...]
    committee: ReportSection
    committee_members: tuple[str, ...]


def train_and_score(
    cfg: NetworkConfig,
    fold_images: list[LabeledImage],
    test_images: list[LabeledImage],
    per_network_rescale: bool = False,
) -> tuple[NetworkModel, SvmModel, ScoreTable]:
    """One committee member on one fold: features, classifier, test scores."""
    model, labels, outputs1 = _train(cfg, fold_images)
    train_descriptors = _descriptor_rows(model, outputs1, len(labels))
    del outputs1
    svm = train_ova_svm(train_descriptors, labels, reg_c=cfg.svm_reg_c)
    del train_descriptors  # hold no training data while the test set runs
    raw = score_many(svm, extract_descriptors(model, test_images))
    image_ids = [img.image_id for img in test_images]
    table = normalize_table(cfg.name, image_ids, raw, per_network=per_network_rescale)
    return model, svm, table


def evaluate_protocol(
    cfgs: list[NetworkConfig],
    train_images: list[LabeledImage],
    test_images: list[LabeledImage],
    fold_plan: FoldPlan,
    fold_indices=None,
    out_dir=None,
    per_network_rescale: bool = False,
) -> ExperimentReport:
    """Train each network on each fold, score the test set, fuse, aggregate.

    When out_dir is given, per-(fold, network) score files, the text report,
    and the accuracy CSV are persisted there.
    """
    names = [cfg.name for cfg in cfgs]
    if len(set(names)) != len(names):
        raise ValueError(f"network names must be unique, got {names}")
    if fold_indices is None:
        fold_indices = tuple(range(len(fold_plan.folds)))
    fold_indices = tuple(int(f) for f in fold_indices)
    for fold in fold_indices:
        fold_plan.check_fold(fold, len(train_images))
    test_labels = [img.label for img in test_images]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    per_net_acc: dict[str, list[float]] = {name: [] for name in names}
    committee_acc: list[float] = []
    for fold in fold_indices:
        fold_images = [train_images[i] for i in fold_plan.folds[fold]]
        tables = []
        for cfg in cfgs:
            logger.info("fold %d: network %s", fold, cfg.name)
            _, _, table = train_and_score(
                cfg, fold_images, test_images, per_network_rescale
            )
            tables.append(table)
            acc = accuracy(table_predict(table), test_labels)
            per_net_acc[cfg.name].append(acc)
            logger.info("fold %d: %s accuracy %.4f", fold, cfg.name, acc)
            if out_dir is not None:
                write_score_file(
                    os.path.join(out_dir, f"scores_fold{fold}_{cfg.name}.txt"), table
                )
        acc = accuracy(committee_predict(tables), test_labels)
        committee_acc.append(acc)
        logger.info("fold %d: committee accuracy %.4f", fold, acc)

    report = ExperimentReport(
        networks=tuple(
            ReportSection(name, fold_indices, tuple(per_net_acc[name])) for name in names
        ),
        committee=ReportSection("committee", fold_indices, tuple(committee_acc)),
        committee_members=tuple(names),
    )
    if out_dir is not None:
        with atomic_open(os.path.join(out_dir, "report.txt")) as fh:
            fh.write(render_report(report))
        with atomic_open(os.path.join(out_dir, "report.csv")) as fh:
            fh.write(report_csv(report))
    return report


def render_report(report: ExperimentReport) -> str:
    lines = []
    for section in report.networks + (report.committee,):
        lines.append(f"[{section.name}]")
        if section.name == "committee":
            lines.append("members " + " ".join(report.committee_members))
        for fold, acc in zip(section.fold_indices, section.accuracies):
            lines.append(f"fold {fold} accuracy {acc!r}")
        lines.append(f"mean {section.mean!r}")
        lines.append(f"std {section.std!r}")
        lines.append("")
    return "\n".join(lines)


def report_csv(report: ExperimentReport) -> str:
    lines = ["fold,network,accuracy"]
    for section in report.networks + (report.committee,):
        for fold, acc in zip(section.fold_indices, section.accuracies):
            lines.append(f"{fold},{section.name},{acc!r}")
    return "\n".join(lines) + "\n"
