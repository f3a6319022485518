"""Reference training: per-image map lists and one sampling step per patch.

This is the training path the package used before it held the fold as
stacked arrays: layer 1 sampled from a list of per-image (H, W, 1) maps,
each layer-2 group from a fresh list of per-image (h, w, group_size) slices,
and every patch was unrolled on its own by :func:`unroll_patch`. Tests
compare :func:`cdfnet.pipeline.train_network` against it bitwise.
"""

from __future__ import annotations

import numpy as np

from cdfnet.augment import expand_set, scale
from cdfnet.kmeans import FilterBank, kmeans
from cdfnet.layer import make_groups, run_layer
from cdfnet.patches import PatchMatrix, ZcaTransform, apply_zca, fit_zca, normalize_columns
from cdfnet.pipeline import KMEANS_MAX_ITERS, NetworkModel
from cdfnet.tensor import FeatureMapSet, SeededRng


def unroll_patch(maps: np.ndarray, row: int, col: int, p: int) -> np.ndarray:
    """One p x p x depth block of (H, W, depth) maps as a vector, depth-major layout."""
    vol = maps[row : row + p, col : col + p, :]
    return np.ascontiguousarray(vol.transpose(2, 0, 1)).ravel()


def extract_patches(maps_list, p: int, n_patches: int, rng: SeededRng) -> PatchMatrix:
    """Image index, then row and column fractions; one patch per loop step."""
    gen = rng.generator()
    img_idx = gen.integers(0, len(maps_list), size=n_patches)
    row_u = gen.random(n_patches)
    col_u = gen.random(n_patches)
    depth = maps_list[0].shape[2]
    data = np.empty((p * p * depth, n_patches))
    for j in range(n_patches):
        maps = maps_list[img_idx[j]]
        row = int(row_u[j] * (maps.shape[0] - p + 1))
        col = int(col_u[j] * (maps.shape[1] - p + 1))
        data[:, j] = unroll_patch(maps, row, col, p)
    return PatchMatrix(data, p, depth)


def _train_bank(maps_list, layer, k, patch_rng, kmeans_rng, layer_index) -> FilterBank:
    raw = extract_patches(maps_list, layer.patch_side, layer.n_patches, patch_rng)
    normed = PatchMatrix(normalize_columns(raw.data), layer.patch_side, raw.depth)
    zca = fit_zca(normed, layer.zca_epsilon)
    result = kmeans(apply_zca(zca, normed), k, KMEANS_MAX_ITERS, kmeans_rng)
    return FilterBank(result.centroids, layer.patch_side, raw.depth, zca, layer_index)


def train_network(cfg, fold_images) -> NetworkModel:
    """Both layers' filters, trained image by image and group by group."""
    images = expand_set(fold_images, cfg.augment)
    if cfg.scale_factor is not None and cfg.scale_factor != 1.0:
        images = [scale(img, cfg.scale_factor) for img in images]
    maps1 = [img.pixels[:, :, np.newaxis] for img in images]
    k1 = cfg.layer1.k * (2 if cfg.rectifier == "on_off" else 1)
    groups = make_groups(k1, cfg.layer2.group_size, SeededRng(cfg.seeds.grouping))

    patches_rng = SeededRng(cfg.seeds.patches)
    bank1 = _train_bank(
        maps1, cfg.layer1, cfg.layer1.k, patches_rng.child(0), SeededRng(cfg.seeds.kmeans1), 1
    )
    outputs1 = [
        run_layer(FeatureMapSet(m), bank1, cfg.layer1, cfg.rectifier).maps for m in maps1
    ]
    kmeans2_rng = SeededRng(cfg.seeds.kmeans2)
    banks2 = tuple(
        _train_bank(
            [out[:, :, list(group)] for out in outputs1],
            cfg.layer2,
            cfg.layer2.k_per_group,
            patches_rng.child(1 + g),
            kmeans2_rng.child(g),
            2,
        )
        for g, group in enumerate(groups.groups)
    )
    bank2 = FilterBank(
        np.stack([b.filters for b in banks2]),
        cfg.layer2.patch_side,
        cfg.layer2.group_size,
        ZcaTransform(
            np.stack([b.whitening.mean for b in banks2]),
            np.stack([b.whitening.matrix for b in banks2]),
            cfg.layer2.zca_epsilon,
        ),
        2,
    )
    return NetworkModel(cfg, bank1, groups, bank2, maps1[0].shape[:2])

