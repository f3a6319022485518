"""Training orchestration, model persistence, and the 10-fold protocol.

A trained network is layer-1 filters (with their whitening transform), a
random (G, n_k) table of layer-1 map indices, one group a row, and the
layer-2 filter banks of all groups stacked into one (G, d, K) bank.
Everything downstream of the seeds is deterministic, so a NetworkConfig plus
its seeds reproduces models, descriptors, and score files bit for bit.
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
from .kmeans import _BLOCK, FilterBank, KMeansResult, kmeans_stack
from .layer import layer_output_shape, make_groups, run_groups, run_layer
from .model_io import atomic_open, read_container, write_container
from .patches import ZcaTransform, apply_zca, extract_patches, fit_zca, normalize_rows
from .stl10 import FoldPlan, LabeledImage
from .svm import SvmModel, score_many, train_ova_svm
from .tensor import FeatureMapSet, SeededRng

logger = logging.getLogger(__name__)

KMEANS_MAX_ITERS = 100

# Groups are trained together in chunks of about this many patch rows, a
# quarter of a k-means distance block; at paper scale a chunk is one group,
# so memory stays that of training one group at a time.
_CHUNK_ROWS = _BLOCK // 4


@dataclass(frozen=True)
class NetworkModel:
    """A trained feature extractor: both layers plus the group wiring.

    groups is the (G, n_k) integer table of layer-1 map indices, one group a
    row, and bank2 the (G, d, K) stack of their banks; the table and both
    banks are checked against the config, since containers come from outside.
    """

    config: NetworkConfig
    bank1: FilterBank
    groups: np.ndarray
    bank2: FilterBank
    input_shape: tuple[int, int]

    def __post_init__(self):
        l1, _, n_groups, _ = _layer_shapes(self.config, *self.input_shape)
        table = np.asarray(self.groups)
        if table.shape != (n_groups, self.config.layer2.group_size):
            raise InvalidGrouping(
                f"group table {table.shape} is not the config's "
                f"{n_groups} groups of {self.config.layer2.group_size}"
            )
        # sorted, a partition of [0, K1) is 0..K1-1, which also rejects non-integers
        if not np.array_equal(np.sort(table, axis=None), np.arange(l1[2])):
            raise InvalidGrouping(f"groups must partition the {l1[2]} layer-1 maps exactly")
        if (self.bank1.k, self.bank2.k) != (self.config.layer1.k, self.config.layer2.k_per_group):
            raise DimError(f"filter counts {self.bank1.k}, {self.bank2.k} are not the config's")
        if self.bank2.lead != (n_groups,):
            raise DimError(
                f"layer-2 filters {self.bank2.filters.shape} do not stack one bank "
                f"for each of {n_groups} groups"
            )
        object.__setattr__(self, "groups", table.astype(np.intp))


def _prepare_image(img: LabeledImage, factor: float | None) -> LabeledImage:
    return scale(img, factor) if factor is not None else img


def _train_groups(
    maps: np.ndarray,
    groups: np.ndarray,
    layer: Layer1Config | Layer2Config,
    k: int,
    patch_rngs: list[SeededRng],
    kmeans_rngs: list[SeededRng],
) -> tuple[KMeansResult, ZcaTransform]:
    """Filter learning of one layer, one bank per row of the (G, n_k) channel table.

    Group g samples its patches from its channels of the (N, H, W, depth)
    stack with patch_rngs[g] and clusters them into k filters with
    kmeans_rngs[g]; layer 1 is the one group [[0]] of the image stack.
    Groups go a chunk of about _CHUNK_ROWS patch rows at a time: sampled into
    one (chunk, n, d) array, normalized and whitened in place by one stacked
    ZCA, and clustered by one :func:`kmeans_stack` call. The chunks fill
    preallocated (G, d, k) centroid and (G, d) / (G, d, d) whitening stacks.
    """
    n_groups, depth = groups.shape
    p, n = layer.patch_side, layer.n_patches
    dim = p * p * depth
    filters = np.empty((n_groups, dim, k))
    means = np.empty((n_groups, dim))
    matrices = np.empty((n_groups, dim, dim))
    n_iters = np.empty(n_groups, dtype=np.int64)
    converged = np.empty(n_groups, dtype=bool)
    reseeds = np.empty(n_groups, dtype=np.int64)
    history = []
    per_chunk = min(max(1, _CHUNK_ROWS // n), n_groups)
    buffer = np.empty((per_chunk, n, dim))  # every chunk's patch rows, in turn
    for start in range(0, n_groups, per_chunk):
        span = slice(start, min(start + per_chunk, n_groups))
        rows = buffer[: span.stop - start]
        for j, g in enumerate(range(start, span.stop)):
            rows[j] = extract_patches(maps, groups[g], p, n, patch_rngs[g])
        normalize_rows(rows)
        zca = fit_zca(rows, layer.zca_epsilon)
        means[span], matrices[span] = zca.mean, zca.matrix
        rows[...] = apply_zca(zca, rows)
        del zca  # copied into the stacks; k-means needs the memory
        result = kmeans_stack(rows, k, KMEANS_MAX_ITERS, kmeans_rngs[span])
        filters[span], n_iters[span] = result.centroids, result.n_iters
        converged[span], reseeds[span] = result.converged, result.reseeds
        history += result.sse_history
    result = KMeansResult(filters, tuple(history), n_iters, converged, reseeds)
    return result, ZcaTransform(means, matrices, layer.zca_epsilon)


def _log_kmeans(name: str, layer_index: int, result: KMeansResult) -> None:
    """One INFO line of a layer's k-means iterations and reseeds, and a
    WARNING naming what stopped at KMEANS_MAX_ITERS without converging."""
    n_iters = result.n_iters
    logger.info(
        "%s: layer-%d k-means took %d/%g/%d iterations (min/median/max), %d reseeds",
        name, layer_index, n_iters.min(), np.median(n_iters), n_iters.max(),
        np.sum(result.reseeds),
    )
    stuck = np.flatnonzero(~result.converged)
    if stuck.size:
        where = f" in groups {', '.join(map(str, stuck))}" if layer_index == 2 else ""
        logger.warning(
            "%s: layer-%d k-means stopped at %d iterations without converging%s",
            name, layer_index, KMEANS_MAX_ITERS, where,
        )


def _train(
    cfg: NetworkConfig, fold_images: list[LabeledImage]
) -> tuple[NetworkModel, list[int], np.ndarray]:
    """:func:`train_network`, also returning the augmented fold's labels and
    its layer-1 outputs as one float32 (N, h, w, K1) array."""
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
    result1, zca1 = _train_groups(
        images, np.zeros((1, 1), dtype=np.intp), cfg.layer1, cfg.layer1.k,
        [patches_rng.child(0)], [SeededRng(cfg.seeds.kmeans1)],
    )
    _log_kmeans(cfg.name, 1, result1)
    zca1 = ZcaTransform(zca1.mean[0], zca1.matrix[0], zca1.epsilon)
    bank1 = FilterBank(result1.centroids[0], cfg.layer1.patch_side, 1, zca1, layer_index=1)

    outputs1 = np.empty((len(images), *l1_shape), dtype=np.float32)
    for i, image_id in enumerate(image_ids):
        outputs1[i] = run_layer(
            FeatureMapSet(images[i], image_id), bank1, cfg.layer1, cfg.rectifier
        ).maps
    del images  # nothing else holds a view of the stack
    logger.info(
        "%s: layer-1 output %dx%dx%d, %d groups of %d", cfg.name, *l1_shape, *groups.shape
    )

    kmeans2_rng = SeededRng(cfg.seeds.kmeans2)
    result2, zca2 = _train_groups(
        outputs1, groups, cfg.layer2, cfg.layer2.k_per_group,
        [patches_rng.child(1 + g) for g in range(len(groups))],
        [kmeans2_rng.child(g) for g in range(len(groups))],
    )
    _log_kmeans(cfg.name, 2, result2)
    bank2 = FilterBank(
        result2.centroids, cfg.layer2.patch_side, cfg.layer2.group_size, zca2, layer_index=2
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
    descriptors = np.empty((n_images, _layer_shapes(cfg, *model.input_shape)[3]))
    for row, out1 in zip(descriptors, outputs1):
        row[:] = run_groups(out1, model.groups, model.bank2, cfg.layer2, cfg.rectifier).ravel()
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
    return l1, l2, n_groups, n_groups * l2[0] * l2[1] * l2[2]


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
        "groups": model.groups,
        **_bank_tensors("layer2", model.bank2),
    }
    write_container(path, tensors, network_config_to_text(model.config))


def load_model(path) -> NetworkModel:
    tensors, config_text = read_container(path)
    cfg = network_config_from_text(config_text)
    try:
        bank1 = _bank_from_tensors(tensors, "layer1", cfg.layer1.patch_side, 1, 1)
        bank2 = _bank_from_tensors(
            tensors, "layer2", cfg.layer2.patch_side, cfg.layer2.group_size, 2
        )
        groups, input_shape = tensors["groups"], tensors["input_shape"]
    except KeyError as exc:
        raise FormatError(f"{path}: missing tensor {exc}") from exc
    if input_shape.shape != (2,):
        raise FormatError(f"{path}: input_shape {input_shape} is not (height, width)")
    return NetworkModel(cfg, bank1, groups, bank2, tuple(int(v) for v in input_shape))


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
