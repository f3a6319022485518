"""Volume-patch extraction, patch-wise normalization, and ZCA whitening.

A patch is a p x p x depth block unrolled into one row with depth as the
slowest axis, then rows, then columns (C-order over (depth, row, col)).
Training-time sampling (:func:`extract_patches`) and dense extraction at
convolution time (:func:`cdfnet.layer.dense_patches`) share this layout, and
both normalize their rows with :func:`normalize_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimError, InvalidPatchSize
from .tensor import SeededRng, assert_array_finite

# Eigenvalues below this fraction of the largest are numerical noise and are
# clamped before the inverse square root.
EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class PatchMatrix:
    """Unrolled patches as rows: data is (n_patches, patch_side^2 * depth)."""

    data: np.ndarray
    patch_side: int
    depth: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise DimError(f"patch matrix must be 2D, got ndim={data.ndim}")
        expected = self.patch_side * self.patch_side * self.depth
        if data.shape[1] != expected:
            raise DimError(
                f"patch matrix has {data.shape[1]} columns, expected "
                f"{self.patch_side}^2 * {self.depth} = {expected}"
            )
        if data.shape[0] < 1:
            raise DimError("patch matrix must contain at least one patch")
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def n_patches(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class ZcaTransform:
    """Whitening y = matrix @ (x - mean); matrix is symmetric PD.

    mean is (..., d) and matrix (..., d, d): a leading axis stacks one
    transform per layer-2 group.
    """

    mean: np.ndarray
    matrix: np.ndarray
    epsilon: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if mean.ndim < 1 or matrix.shape != mean.shape + mean.shape[-1:]:
            raise DimError(
                f"inconsistent ZCA shapes: mean {mean.shape}, matrix {matrix.shape}"
            )
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not np.allclose(matrix, np.swapaxes(matrix, -1, -2), atol=1e-9):
            raise ValueError("ZCA matrix must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def extract_patches(maps: np.ndarray, p: int, n_patches: int, rng: SeededRng) -> PatchMatrix:
    """Sample patches of an (N, H, W, depth) stack uniformly, with replacement.

    The image index is drawn first, then a valid top-left row and column
    inside it. One fancy index into a sliding-window view gathers every
    patch, already in the row layout of the result; only the gathered rows
    are made float64, so a float32 stack of layer-1 maps is never copied
    whole. Its checks of n_patches and the patch size guard direct calls; in
    training the layer records and :func:`cdfnet.layer.layer_output_shape`
    own these rules and fail first.
    """
    maps = np.asarray(maps)
    if maps.ndim != 4 or maps.shape[0] < 1:
        raise DimError(f"need an (N, H, W, depth) stack with N >= 1, got shape {maps.shape}")
    if n_patches < 1:
        raise ValueError(f"n_patches must be >= 1, got {n_patches}")
    n_images, height, width, depth = maps.shape
    if p > min(height, width):
        raise InvalidPatchSize(f"patch side {p} exceeds map size {height}x{width}")

    gen = rng.generator()
    img_idx = gen.integers(0, n_images, size=n_patches)
    rows = (gen.random(n_patches) * (height - p + 1)).astype(np.intp)
    cols = (gen.random(n_patches) * (width - p + 1)).astype(np.intp)

    windows = sliding_window_view(maps, (p, p), axis=(1, 2))  # (N, h, w, depth, p, p)
    data = windows[img_idx, rows, cols].reshape(n_patches, p * p * depth)
    return PatchMatrix(data, patch_side=p, depth=depth)


def normalize_rows(data: np.ndarray) -> None:
    """Scale every row (one patch) by 1/max|x_i|, then subtract its mean; in place.

    Training normalizes its sampled patches and dense convolution its im2col
    rows with this one kernel, so both reduce a patch the same way. max|x|
    is taken as max(max x, -min x), so no |x| temporary is made. A zero
    patch divides by 1 and stays zero.
    """
    peak = np.maximum(data.max(axis=-1, keepdims=True), -data.min(axis=-1, keepdims=True))
    data /= np.where(peak == 0.0, 1.0, peak)
    data -= data.mean(axis=-1, keepdims=True)


def fit_zca(patches: PatchMatrix, epsilon: float) -> ZcaTransform:
    """Fit V (D + eps I)^(-1/2) V^T on the covariance of the patch rows.

    The epsilon check guards direct calls (in training the layer records own
    the rule) and runs before sqrt(D + eps) could warn on a non-positive sum.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    assert_array_finite(patches.data, what="patch matrix")
    mean = patches.data.mean(axis=0)
    centered = patches.data - mean
    denom = max(patches.n_patches - 1, 1)
    cov = (centered.T @ centered) / denom
    del centered  # a full patch copy, not needed for the eigendecomposition
    eigvals, eigvecs = np.linalg.eigh(cov)
    floor = EIGENVALUE_FLOOR * max(float(eigvals[-1]), 0.0)
    eigvals = np.maximum(eigvals, floor)
    inv_sqrt = 1.0 / np.sqrt(eigvals + epsilon)
    matrix = (eigvecs * inv_sqrt) @ eigvecs.T
    matrix = (matrix + matrix.T) / 2.0
    return ZcaTransform(mean=mean, matrix=matrix, epsilon=float(epsilon))


def apply_zca(transform: ZcaTransform, patches: PatchMatrix) -> PatchMatrix:
    """Whiten every row x into M (x - mu) as x M^T - mu M^T, so no centered
    copy of the patches is made (the fold of :attr:`FilterBank.whitened_filters`)."""
    if patches.dim != transform.dim:
        raise DimError(
            f"patch dim {patches.dim} does not match transform dim {transform.dim}"
        )
    data = patches.data @ transform.matrix.T
    data -= transform.mean @ transform.matrix.T
    return PatchMatrix(data, patches.patch_side, patches.depth)
