"""Training orchestration, model persistence, and the 10-fold protocol.

A trained network is a layer-1 bank (float32 filters with the ZCA whitening
folded in, and an offset), a random (G, n_k) table of layer-1 map indices, one
group a row, and the layer-2 banks of all groups stacked into one (G, d, K)
bank. Everything downstream of the config's seed is deterministic, so a
NetworkConfig reproduces models, descriptors, and score files bit for bit.
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
from .errors import CdfnetError, DimError, FormatError, InvalidGrouping, naming
from .kmeans import kmeans_stack
from .layer import FilterBank, layer_output_shape, make_groups, run_groups, run_layer
from .model_io import atomic_open, read_container, write_container
from .patches import apply_zca, extract_patches, fit_zca, normalize_rows
from .stl10 import FoldPlan, LabeledImage
from .svm import SvmModel, score_many, train_ova_svm
from .tensor import FeatureMapSet, SeededRng

logger = logging.getLogger(__name__)

# Groups are trained together in chunks of about this many patch rows; at
# paper scale a chunk is one group, so memory stays that of training one
# group at a time.
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class NetworkModel:
    """A trained feature extractor: both layers plus the group wiring.

    groups is the (G, n_k) integer table of layer-1 map indices, one group a
    row, bank1 a single (d, K) bank and bank2 the (G, d, K) stack of the
    groups' banks; the table and both banks' (d, K) and stacking are checked
    against the config, since containers come from outside.
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
        c1, c2 = self.config.layer1, self.config.layer2
        want = ((c1.patch_side**2, c1.filters),
                (c2.patch_side**2 * c2.group_size, c2.filters_per_group))
        got = ((self.bank1.dim, self.bank1.k), (self.bank2.dim, self.bank2.k))
        if got != want:
            raise DimError(f"filters (d, K) of layers 1 and 2 are {got}, the config's are {want}")
        if (self.bank1.lead, self.bank2.lead) != ((), (n_groups,)):
            raise DimError(
                f"layer-1 filters {self.bank1.filters.shape} must be one bank and layer-2 "
                f"filters {self.bank2.filters.shape} one bank for each of {n_groups} groups"
            )
        object.__setattr__(self, "groups", table.astype(np.intp))


def _layer1_input(
    cfg: NetworkConfig, input_shape: tuple[int, int], img: LabeledImage
) -> np.ndarray:
    """img's pixels as layer 1 reads them: rescaled to the working resolution,
    and refused if that is not input_shape. Training and the forward pass share it."""
    pixels = scale(img, cfg.scale_factor).pixels
    if pixels.shape != input_shape:
        raise DimError(
            f"image {img.image_id!r} is {pixels.shape} after rescaling, "
            f"not the working size {input_shape}"
        )
    return pixels


def _learn_filters(
    name: str,
    layer_index: int,
    maps: np.ndarray,
    groups: np.ndarray,
    layer: Layer1Config | Layer2Config,
    k: int,
    patch_rngs: list[SeededRng],
    kmeans_rngs: list[SeededRng],
) -> tuple[np.ndarray, np.ndarray]:
    """Filter learning of one layer, one bank per row of the (G, n_k) channel table.

    Group g samples its patches from its channels of the (N, H, W, depth)
    stack with patch_rngs[g] and clusters them into k filters with
    kmeans_rngs[g]; layer 1 is the one group [[0]] of the image stack.
    Groups go a chunk of about _CHUNK_ROWS patch rows at a time: sampled into
    one (chunk, n, d) array, normalized and whitened by one stacked ZCA in
    place, clustered by one :func:`kmeans_stack` call, and the whitening
    folded into the centroids. Returns the float64 (G, d, k) filters and
    (G, k) offsets, and logs one INFO line of the k-means iterations and
    reseeds and a WARNING naming what stopped at k-means' round cap without
    converging.
    """
    n_groups, depth = groups.shape
    p, n = layer.patch_side, layer.patches
    filters = np.empty((n_groups, p * p * depth, k))
    offsets = np.empty((n_groups, k))
    n_iters = np.empty(n_groups, dtype=np.int64)
    converged = np.empty(n_groups, dtype=bool)
    reseeds = 0
    per_chunk = min(max(1, _CHUNK_ROWS // n), n_groups)
    for start in range(0, n_groups, per_chunk):
        span = slice(start, min(start + per_chunk, n_groups))
        samples = [extract_patches(maps, groups[g], p, n, patch_rngs[g])
                   for g in range(span.start, span.stop)]
        # a one-group chunk is its sample, so it holds one copy of its rows
        rows = samples[0][None] if len(samples) == 1 else np.stack(samples)
        del samples
        normalize_rows(rows)
        zca = fit_zca(rows, layer.zca_epsilon)
        apply_zca(zca, rows)
        result = kmeans_stack(rows, k, kmeans_rngs[span])
        filters[span], offsets[span] = zca.fold(result.centroids)
        n_iters[span], converged[span] = result.n_iters, result.converged
        reseeds += int(result.reseeds.sum())
        del rows  # free before the next chunk is sampled, or two samples coexist
    logger.info(
        "%s: layer-%d k-means took %d/%g/%d iterations (min/median/max), %d reseeds",
        name, layer_index, n_iters.min(), np.median(n_iters), n_iters.max(), reseeds,
    )
    stuck = np.flatnonzero(~converged)
    if stuck.size:
        where = f" in groups {', '.join(map(str, stuck))}" if layer_index == 2 else ""
        # a group that never converged ran exactly the cap
        logger.warning(
            "%s: layer-%d k-means stopped at %d iterations without converging%s",
            name, layer_index, n_iters[stuck[0]], where,
        )
    return filters, offsets


def _train(
    cfg: NetworkConfig, fold_images: list[LabeledImage]
) -> tuple[NetworkModel, list[int], np.ndarray]:
    """:func:`train_network`, also returning the augmented fold's labels and
    its layer-1 outputs as one float32 (N, h, w, K1) array."""
    if not fold_images:
        raise ValueError("no training images")
    # the shape chain and the grouping depend only on the config and the
    # image size, so settle them before the heavy work
    input_shape = _scaled_shape(*fold_images[0].pixels.shape, cfg.scale_factor)
    l1_shape = _layer_shapes(cfg, *input_shape)[0]
    # the config's four streams, in the order NetworkConfig.seed documents
    patches_rng, kmeans1_rng, kmeans2_rng, grouping_rng = map(
        SeededRng, range(cfg.seed, cfg.seed + 4)
    )
    groups = make_groups(l1_shape[2], cfg.layer2.group_size, grouping_rng)
    augmented = expand_set(fold_images, cfg.augment)
    images = np.empty((len(augmented), *input_shape, 1))
    for i, img in enumerate(augmented):
        images[i, ..., 0] = _layer1_input(cfg, input_shape, img)
    labels = [img.label for img in augmented]
    image_ids = [img.image_id for img in augmented]
    del augmented

    logger.info("%s: training layer-1 filters (K=%d)", cfg.name, cfg.layer1.filters)
    filters1, offset1 = _learn_filters(
        cfg.name, 1, images, np.zeros((1, 1), dtype=np.intp), cfg.layer1, cfg.layer1.filters,
        [patches_rng.child(0)], [kmeans1_rng],
    )
    bank1 = FilterBank(filters1[0], offset1[0])

    outputs1 = np.empty((len(images), *l1_shape), dtype=np.float32)
    for i, image_id in enumerate(image_ids):
        outputs1[i] = run_layer(
            FeatureMapSet(images[i], image_id), bank1, cfg.layer1, cfg.rectifier
        )
    del images  # nothing else holds a view of the stack
    logger.info(
        "%s: layer-1 output %dx%dx%d, %d groups of %d", cfg.name, *l1_shape, *groups.shape
    )

    bank2 = FilterBank(*_learn_filters(
        cfg.name, 2, outputs1, groups, cfg.layer2, cfg.layer2.filters_per_group,
        [patches_rng.child(1 + g) for g in range(len(groups))],
        [kmeans2_rng.child(g) for g in range(len(groups))],
    ))
    model = NetworkModel(cfg, bank1, groups, bank2, input_shape)
    return model, labels, outputs1


def train_network(cfg: NetworkConfig, fold_images: list[LabeledImage]) -> NetworkModel:
    """Train both layers' filters on the (augmented) fold images."""
    return _train(cfg, fold_images)[0]


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
        run_layer(FeatureMapSet(_layer1_input(cfg, model.input_shape, img), img.image_id),
                  model.bank1, cfg.layer1, cfg.rectifier)
        for img in images
    )
    return _descriptor_rows(model, outputs1, len(images))


def descriptor_shape(cfg: NetworkConfig, height: int, width: int):
    """Closed-form layer shapes and descriptor length for one native input size.

    Raises the errors training would raise for a shape chain that cannot run.
    """
    return _layer_shapes(cfg, *_scaled_shape(height, width, cfg.scale_factor))


def _check_members(cfgs: list[NetworkConfig], image_shape: tuple[int, int], test_shapes=()):
    """Refuse a committee :func:`evaluate_protocol` cannot run on native images
    of image_shape: repeated names, a member named ``committee`` (the
    committee's own report section), or, naming the member, a shape chain
    that fails or a member that cannot score test images of test_shapes."""
    names = [cfg.name for cfg in cfgs]
    if len(set(names)) != len(names) or "committee" in names:
        raise ValueError(f"network names must be unique and not 'committee', got {names}")
    for cfg in cfgs:
        try:
            descriptor_shape(cfg, *image_shape)
            working = _scaled_shape(*image_shape, cfg.scale_factor)
            for shape in test_shapes:
                if _scaled_shape(*shape, cfg.scale_factor) != working:
                    raise DimError(f"test images are {shape}, training images {image_shape}")
        except CdfnetError as exc:
            raise type(exc)(f"network {cfg.name}: {exc}") from exc


def _layer_shapes(cfg: NetworkConfig, height: int, width: int):
    """:func:`descriptor_shape` for an input already at the working resolution."""
    l1 = layer_output_shape(height, width, cfg.layer1.filters, cfg.layer1, cfg.rectifier)
    l2 = layer_output_shape(l1[0], l1[1], cfg.layer2.filters_per_group, cfg.layer2, cfg.rectifier)
    n_groups, rest = divmod(l1[2], cfg.layer2.group_size)
    if rest:
        raise InvalidGrouping(
            f"group size {cfg.layer2.group_size} does not divide {l1[2]} feature maps"
        )
    return l1, l2, n_groups, n_groups * l2[0] * l2[1] * l2[2]


# -- persistence --------------------------------------------------------------


# a container's tensors in file order; a container that holds any other
# tensor is a file of another kind, or one an earlier version wrote
_MODEL_TENSORS = (
    "input_shape", "layer1/filters", "layer1/offset", "groups", "layer2/filters", "layer2/offset"
)
_SVM_TENSORS = ("weights", "biases")


def _refuse_other_tensors(tensors: dict[str, np.ndarray], names: tuple[str, ...], kind: str):
    extra = [name for name in tensors if name not in names]
    if extra:
        raise FormatError(
            f"holds tensor {extra[0]!r}, which {kind} does not: a file of another kind, "
            "or one written by an earlier version (retrain it)"
        )


def save_model(path, model: NetworkModel) -> None:
    values = (
        np.array(model.input_shape, dtype=np.float64), model.bank1.filters, model.bank1.offset,
        model.groups, model.bank2.filters, model.bank2.offset,
    )
    write_container(path, dict(zip(_MODEL_TENSORS, values)), network_config_to_text(model.config))


def load_model(path) -> NetworkModel:
    tensors, config_text = read_container(path)
    with naming(path):
        _refuse_other_tensors(tensors, _MODEL_TENSORS, "a model")
        cfg = network_config_from_text(config_text)
        bank1 = FilterBank(tensors["layer1/filters"], tensors["layer1/offset"])
        bank2 = FilterBank(tensors["layer2/filters"], tensors["layer2/offset"])
        groups, input_shape = tensors["groups"], tensors["input_shape"]
        sides = input_shape.tolist()
        if input_shape.shape != (2,) or not all(v.is_integer() and v >= 1 for v in sides):
            raise ValueError(f"input_shape {input_shape} is not integer (height, width) >= 1")
        return NetworkModel(cfg, bank1, groups, bank2, tuple(int(v) for v in sides))


def save_svm(path, model: SvmModel) -> None:
    write_container(path, dict(zip(_SVM_TENSORS, (model.weights, model.biases))))


def load_svm(path) -> SvmModel:
    """Inverse of :func:`save_svm`; reads the tensors, not the config block."""
    tensors, _ = read_container(path)
    with naming(path):
        _refuse_other_tensors(tensors, _SVM_TENSORS, "an SVM")
        return SvmModel(tensors["weights"], tensors["biases"])


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
        return float(np.std(self.accuracies, ddof=1)) if len(self.accuracies) > 1 else 0.0


@dataclass(frozen=True)
class ExperimentReport:
    networks: tuple[ReportSection, ...]
    committee: ReportSection


def train_and_score(
    cfg: NetworkConfig,
    fold_images: list[LabeledImage],
    test_images: list[LabeledImage],
) -> tuple[NetworkModel, SvmModel, ScoreTable]:
    """One committee member on one fold: features, classifier, test scores."""
    model, labels, outputs1 = _train(cfg, fold_images)
    train_descriptors = _descriptor_rows(model, outputs1, len(labels))
    del outputs1
    svm = train_ova_svm(train_descriptors, labels, reg_c=cfg.svm_reg_c)
    del train_descriptors  # hold no training data while the test set runs
    raw = score_many(svm, extract_descriptors(model, test_images))
    image_ids = [img.image_id for img in test_images]
    table = normalize_table(cfg.name, image_ids, raw)
    return model, svm, table


def _check_protocol(cfgs: list[NetworkConfig], fold_plan: FoldPlan, fold_indices: tuple,
                    n_train: int, train_shape, test_shapes: set) -> None:
    """Refuse, before any member trains, what :func:`evaluate_protocol` would:
    fold_indices empty, repeated or not folds of n_train training images (of
    train_shape, None for none), no test images, or what :func:`_check_members` refuses."""
    if not fold_indices or len(set(fold_indices)) != len(fold_indices):
        raise ValueError(f"fold indices must be non-empty and distinct, got {fold_indices}")
    for fold in fold_indices:
        fold_plan.check_fold(fold, n_train)
    if not test_shapes:
        raise ValueError("the test set is empty")
    _check_members(cfgs, train_shape, test_shapes)


def evaluate_protocol(
    cfgs: list[NetworkConfig], train_images: list[LabeledImage],
    test_images: list[LabeledImage], fold_plan: FoldPlan, fold_indices=None, out_dir=None,
) -> ExperimentReport:
    """Train each network on each fold, score the test set, fuse, aggregate.

    When out_dir is given, per-(fold, network) score files, the text report,
    and the accuracy CSV are persisted there.
    """
    all_folds = range(len(fold_plan.folds))
    fold_indices = tuple(int(f) for f in (all_folds if fold_indices is None else fold_indices))
    _check_protocol(
        cfgs, fold_plan, fold_indices, len(train_images),
        train_images[0].pixels.shape if train_images else None,
        {img.pixels.shape for img in test_images},
    )
    test_labels = [img.label for img in test_images]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    per_net_acc: dict[str, list[float]] = {cfg.name: [] for cfg in cfgs}
    committee_acc: list[float] = []
    for fold in fold_indices:
        fold_images = [train_images[i] for i in fold_plan.folds[fold]]
        tables = []
        for cfg in cfgs:
            logger.info("fold %d: network %s", fold, cfg.name)
            _, _, table = train_and_score(cfg, fold_images, test_images)
            tables.append(table)
            acc = accuracy(table_predict(table), test_labels)
            per_net_acc[cfg.name].append(acc)
            logger.info("fold %d: %s accuracy %.4f", fold, cfg.name, acc)
            if out_dir is not None:
                write_score_file(os.path.join(out_dir, f"scores_fold{fold}_{cfg.name}.txt"),
                                 table)
        acc = accuracy(committee_predict(tables), test_labels)
        committee_acc.append(acc)
        logger.info("fold %d: committee accuracy %.4f", fold, acc)

    report = ExperimentReport(
        networks=tuple(
            ReportSection(name, fold_indices, tuple(accs)) for name, accs in per_net_acc.items()
        ),
        committee=ReportSection("committee", fold_indices, tuple(committee_acc)),
    )
    if out_dir is not None:
        for name, render in ("report.txt", render_report), ("report.csv", report_csv):
            with atomic_open(os.path.join(out_dir, name)) as fh:
                fh.write(render(report))
    return report


def render_report(report: ExperimentReport) -> str:
    lines = []
    for section in report.networks + (report.committee,):
        lines.append(f"[{section.name}]")
        if section is report.committee:
            lines.append("members " + " ".join(s.name for s in report.networks))
        for fold, acc in zip(section.fold_indices, section.accuracies):
            lines.append(f"fold {fold} accuracy {acc!r}")
        lines += [f"mean {section.mean!r}", f"std {section.std!r}", ""]
    return "\n".join(lines)


def report_csv(report: ExperimentReport) -> str:
    lines = ["fold,network,accuracy"]
    for section in report.networks + (report.committee,):
        for fold, acc in zip(section.fold_indices, section.accuracies):
            lines.append(f"{fold},{section.name},{acc!r}")
    return "\n".join(lines) + "\n"
