"""Reference training paths that tests compare the package against.

:func:`train_network` is the path the package used before it held the fold
as stacked arrays: layer 1 sampled from a list of per-image (H, W, 1) maps,
each layer-2 group from a fresh list of per-image (h, w, group_size) slices,
and every patch was unrolled on its own by :func:`unroll_patch`. Its patches
are (n, dim) rows like the package's, and tests compare
:func:`cdfnet.pipeline.train_network` against it bitwise. Each bank is
whitened by :func:`fit_zca` and :func:`apply_zca`, the one-matrix ZCA the
package used before its ZCA took stacks, and folded into its filters on its
own; :func:`per_group_train_bank` learns one bank the same way. Of the
package's filter learning these share only
:func:`cdfnet.patches.normalize_rows` and the fold,
:meth:`cdfnet.patches.ZcaTransform.fold`.

:func:`column_train_bank` is the patches-as-columns path the package used
before its patches became rows: each patch normalized on its own by
:func:`normalize_patch`, the ZCA fitted on the column covariance and applied
as M (x - mu). Its sums run in another order, so tests compare the
package's filter learning against it within a tolerance.

:func:`per_group_kmeans` is the k-means the package ran before it clustered
all layer-2 groups in one batch: one group per call, k-means++ distances
from an (n, dim) difference buffer, centroid sums by ``np.add.at``. Both
training oracles cluster with it.

:func:`standardized_svm` is the classifier the package trained before its
SVM was stored on raw descriptors: standardized features stacked with a
bias column, :func:`cdfnet.svm._dual_cd_l2svm` per class on the package's
per-class row-order stream, and the weights kept on the standardized
features with the per-feature mean and std beside them.
:func:`standardized_scores` scores with them as ((x - mean) / std) w + b.

:func:`primal_svm` solves the same per-class objective without the
package's solver: scipy's L-BFGS-B on the primal, with its analytic
gradient, over the same standardized design matrix.
:func:`primal_objectives` evaluates that objective for a trained
:class:`cdfnet.svm.SvmModel`, so tests compare the package's optimum with
the oracle's.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
from scipy.optimize import minimize

from cdfnet import kmeans
from cdfnet.augment import expand_set, scale
from cdfnet.kmeans import _BLOCK
from cdfnet.layer import FilterBank, make_groups, run_layer
from cdfnet.patches import EIGENVALUE_FLOOR, ZcaTransform, normalize_rows
from cdfnet.pipeline import NetworkModel
from cdfnet.svm import ROW_ORDER_SEED, STD_FLOOR, _dual_cd_l2svm
from cdfnet.tensor import FeatureMapSet, SeededRng

from forward_oracle import normalize_patch


def _assignments(points: np.ndarray, centroids: np.ndarray):
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    sse = 0.0
    c_norms = np.einsum("kd,kd->k", centroids, centroids)
    for start in range(0, n, _BLOCK):
        block = points[start : start + _BLOCK]
        d2 = block @ centroids.T
        d2 *= -2.0
        d2 += c_norms
        idx = np.argmin(d2, axis=1)
        labels[start : start + _BLOCK] = idx
        picked = d2[np.arange(block.shape[0]), idx]
        sse += float(np.sum(picked) + np.einsum("nd,nd->", block, block))
    return labels, max(sse, 0.0)


def plusplus_init(points: np.ndarray, k: int, gen: np.random.Generator, drawn=None):
    """k-means++ with D^2 from differences; appends each drawn index to `drawn`."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    diff = np.empty_like(points)
    first = int(gen.integers(0, n))
    centers[0] = points[first]
    if drawn is not None:
        drawn.append(first)
    np.subtract(points, centers[0], out=diff)
    d2 = np.einsum("nd,nd->n", diff, diff)
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(gen.integers(0, n))
        else:
            r = gen.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        if drawn is not None:
            drawn.append(idx)
        centers[i] = points[idx]
        np.subtract(points, centers[i], out=diff)
        np.minimum(d2, np.einsum("nd,nd->n", diff, diff), out=d2)
    return centers


def _reseed_empty(points, labels, counts, sums, centroids, empty):
    diff = centroids[labels]
    np.subtract(points, diff, out=diff)
    d2 = np.einsum("nd,nd->n", diff, diff)
    for cluster in empty:
        far = int(np.argmax(np.where(counts[labels] > 1, d2, -1.0)))
        old = labels[far]
        labels[far] = cluster
        counts[old] -= 1
        counts[cluster] += 1
        sums[old] -= points[far]
        sums[cluster] += points[far]
        centroids[cluster] = points[far]


# One run of per_group_kmeans: centroids (dim, k) and scalar counts.
Run = namedtuple("Run", "centroids sse_history n_iters converged reseeds")


def per_group_kmeans(points: np.ndarray, k: int, max_iters: int, rng: SeededRng) -> Run:
    """Lloyd iterations from a k-means++ start on one (n, dim) set of patch
    rows, one group per call; reseeds counts the points moved into emptied
    clusters."""
    gen = rng.generator()
    centroids = plusplus_init(points, k, gen)
    labels = None
    history = []
    converged = False
    reseeds = 0
    for _ in range(max_iters):
        new_labels, sse = _assignments(points, centroids)
        history.append(sse)
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros((k, points.shape[1]), dtype=np.float64)
        np.add.at(sums, labels, points)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            _reseed_empty(points, labels, counts, sums, centroids, empty)
            reseeds += empty.size
        nonzero = counts > 0
        centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
    return Run(
        centroids=np.ascontiguousarray(centroids.T),
        sse_history=tuple(history),
        n_iters=len(history),
        converged=converged,
        reseeds=reseeds,
    )


def unroll_patch(maps: np.ndarray, row: int, col: int, p: int) -> np.ndarray:
    """One p x p x depth block of (H, W, depth) maps as a vector, depth-major layout."""
    vol = maps[row : row + p, col : col + p, :]
    return np.ascontiguousarray(vol.transpose(2, 0, 1)).ravel()


def extract_patches(maps_list, p: int, n_patches: int, rng: SeededRng) -> np.ndarray:
    """(n_patches, dim) rows sampled from a list of (H, W, depth) maps: image
    index, then row and column fractions; one patch per loop step."""
    gen = rng.generator()
    img_idx = gen.integers(0, len(maps_list), size=n_patches)
    row_u = gen.random(n_patches)
    col_u = gen.random(n_patches)
    depth = maps_list[0].shape[2]
    data = np.empty((n_patches, p * p * depth))
    for j in range(n_patches):
        maps = maps_list[img_idx[j]]
        row = int(row_u[j] * (maps.shape[0] - p + 1))
        col = int(col_u[j] * (maps.shape[1] - p + 1))
        data[j] = unroll_patch(maps, row, col, p)
    return data


def fit_zca(patches: np.ndarray, epsilon: float) -> ZcaTransform:
    """V (D + eps I)^(-1/2) V^T on the covariance of one (n, dim) set of rows."""
    mean = patches.mean(axis=0)
    centered = patches - mean
    cov = (centered.T @ centered) / max(patches.shape[0] - 1, 1)
    del centered
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.maximum(eigvals, EIGENVALUE_FLOOR * max(float(eigvals[-1]), 0.0))
    matrix = (eigvecs * (1.0 / np.sqrt(eigvals + epsilon))) @ eigvecs.T
    return ZcaTransform(mean, (matrix + matrix.T) / 2.0)


def apply_zca(transform: ZcaTransform, patches: np.ndarray) -> np.ndarray:
    """Rows x of one (n, dim) set whitened as x M^T - mu M^T."""
    data = patches @ transform.matrix.T
    data -= transform.mean @ transform.matrix.T
    return data


def per_group_train_bank(maps, layer, k, patch_rng, kmeans_rng):
    """One bank's (filters, whitening) as the package learned it before its
    groups were batched, from an (N, H, W, depth) stack: this module's
    sampling and whitening, then :func:`per_group_kmeans`."""
    patches = extract_patches(list(maps), layer.patch_side, layer.patches, patch_rng)
    normalize_rows(patches)
    zca = fit_zca(patches, layer.zca_epsilon)
    patches = apply_zca(zca, patches)
    return per_group_kmeans(patches, k, kmeans.MAX_ITERS, kmeans_rng).centroids, zca


def _train_bank(maps_list, layer, k, patch_rng, kmeans_rng) -> FilterBank:
    patches = extract_patches(maps_list, layer.patch_side, layer.patches, patch_rng)
    normalize_rows(patches)
    zca = fit_zca(patches, layer.zca_epsilon)
    result = per_group_kmeans(apply_zca(zca, patches), k, kmeans.MAX_ITERS, kmeans_rng)
    return FilterBank(*zca.fold(result.centroids))


def column_train_bank(
    maps: np.ndarray, layer, k: int, patch_rng: SeededRng, kmeans_rng: SeededRng
) -> tuple[np.ndarray, ZcaTransform, Run]:
    """Filters, whitening and k-means result of one bank, patches as columns.

    Samples the same patches as the package from an (N, H, W, depth) stack
    and hands k-means the whitened columns as contiguous rows, the copy it
    used to make of them itself.
    """
    rows = extract_patches(list(maps), layer.patch_side, layer.patches, patch_rng)
    cols = np.stack([normalize_patch(r) for r in rows], axis=1)  # (dim, n)
    mean = cols.mean(axis=1)
    centered = cols - mean[:, None]
    cov = (centered @ centered.T) / max(cols.shape[1] - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.maximum(eigvals, EIGENVALUE_FLOOR * max(float(eigvals[-1]), 0.0))
    matrix = (eigvecs * (1.0 / np.sqrt(eigvals + layer.zca_epsilon))) @ eigvecs.T
    zca = ZcaTransform(mean, (matrix + matrix.T) / 2.0)
    white = zca.matrix @ (cols - zca.mean[:, None])
    result = per_group_kmeans(np.ascontiguousarray(white.T), k, kmeans.MAX_ITERS, kmeans_rng)
    return result.centroids, zca, result


def train_network(cfg, fold_images) -> NetworkModel:
    """Both layers' filters, trained image by image and group by group."""
    images = expand_set(fold_images, cfg.augment)
    if cfg.scale_factor != 1.0:
        images = [scale(img, cfg.scale_factor) for img in images]
    maps1 = [img.pixels[:, :, np.newaxis] for img in images]
    k1 = cfg.layer1.filters * (2 if cfg.rectifier == "on_off" else 1)
    groups = make_groups(k1, cfg.layer2.group_size, SeededRng(cfg.seed + 3))

    patches_rng = SeededRng(cfg.seed)
    bank1 = _train_bank(
        maps1, cfg.layer1, cfg.layer1.filters, patches_rng.child(0), SeededRng(cfg.seed + 1)
    )
    outputs1 = [
        run_layer(FeatureMapSet(m), bank1, cfg.layer1, cfg.rectifier) for m in maps1
    ]
    kmeans2_rng = SeededRng(cfg.seed + 2)
    banks2 = tuple(
        _train_bank(
            [out[:, :, list(group)] for out in outputs1],
            cfg.layer2,
            cfg.layer2.filters_per_group,
            patches_rng.child(1 + g),
            kmeans2_rng.child(g),
        )
        for g, group in enumerate(groups)
    )
    bank2 = FilterBank(np.stack([b.filters for b in banks2]), np.stack([b.offset for b in banks2]))
    return NetworkModel(cfg, bank1, groups, bank2, maps1[0].shape[:2])


def _design(descriptors):
    """(standardized descriptors with a bias column, mean, std)."""
    mean = descriptors.mean(axis=0)
    std = np.maximum(descriptors.std(axis=0), STD_FLOOR)
    x = (descriptors - mean) / std
    x[:, std == STD_FLOOR] = 0.0  # a constant feature gets weight 0
    return np.hstack([x, np.ones((x.shape[0], 1))]), mean, std


def standardized_svm(descriptors, labels, reg_c: float):
    """(weights, biases, mean, std), the weights acting on standardized descriptors."""
    labels = np.asarray(labels)
    x, mean, std = _design(descriptors)
    n_classes = int(labels.max()) + 1
    weights = np.zeros((n_classes, x.shape[1] - 1))
    biases = np.zeros(n_classes)
    for cls in range(n_classes):
        y = np.where(labels == cls, 1.0, -1.0)
        rng = SeededRng(ROW_ORDER_SEED).child(cls)
        # the solver reads the stopping rule at call time, so a test's patch reaches it
        w, _, _ = _dual_cd_l2svm(x, y, reg_c / len(x), rng)
        weights[cls], biases[cls] = w[:-1], w[-1]
    return weights, biases, mean, std


def standardized_scores(weights, biases, mean, std, descriptors) -> np.ndarray:
    return ((descriptors - mean) / std) @ weights.T + biases


def _primal(w, x, y, c_eff):
    """0.5 ||w||^2 + c_eff * sum max(0, 1 - y w.x)^2 and its gradient."""
    slack = np.maximum(1.0 - y * (x @ w), 0.0)
    value = 0.5 * float(w @ w) + c_eff * float(slack @ slack)
    return value, w - (2.0 * c_eff) * (x.T @ (y * slack))


def primal_svm(descriptors, labels, reg_c: float):
    """(weights, biases, mean, std, objectives) like :func:`standardized_svm`,
    each class solved in the primal by L-BFGS-B to a gradient of ~1e-9.

    The optimum is a combination of the design matrix's rows, so each class
    is solved in an orthonormal basis of their span: the same objective in
    min(n, d + 1) coordinates instead of d + 1.
    """
    labels = np.asarray(labels)
    x, mean, std = _design(descriptors)
    basis, r = np.linalg.qr(x.T)  # x = r^T basis^T, basis (d + 1, n) orthonormal
    n_classes = int(labels.max()) + 1
    weights = np.zeros((n_classes, x.shape[1] - 1))
    biases = np.zeros(n_classes)
    objectives = np.zeros(n_classes)
    for cls in range(n_classes):
        y = np.where(labels == cls, 1.0, -1.0)
        result = minimize(
            _primal, np.zeros(r.shape[0]), args=(r.T, y, reg_c / len(x)), jac=True,
            method="L-BFGS-B", options={"maxiter": 20000, "ftol": 0.0, "gtol": 1e-10},
        )
        w = basis @ result.x
        weights[cls], biases[cls] = w[:-1], w[-1]
        objectives[cls] = result.fun
    return weights, biases, mean, std, objectives


def primal_objectives(model, descriptors, labels, reg_c: float) -> np.ndarray:
    """Each class's primal objective, of C = reg_c, at a raw-descriptor
    model's weights, unfolded onto the standardized design matrix of the
    training rows."""
    labels = np.asarray(labels)
    x, mean, std = _design(descriptors)
    objectives = np.zeros(model.n_classes)
    for cls in range(model.n_classes):
        w = np.append(model.weights[cls] * std, model.biases[cls] + model.weights[cls] @ mean)
        y = np.where(labels == cls, 1.0, -1.0)
        objectives[cls] = _primal(w, x, y, reg_c / len(x))[0]
    return objectives
