"""Volume-patch extraction, patch-wise normalization, and ZCA whitening.

A patch is a p x p x depth block unrolled into one column with depth as the
slowest axis, then rows, then columns (C-order over (depth, row, col)).
Training-time sampling (:func:`extract_patches`) and dense extraction at
convolution time (:func:`cdfnet.layer.dense_patches`) share this layout.
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
# patches gathered per block by extract_patches: 2 MB of window copies at d = 256
_GATHER_BLOCK = 1024


@dataclass(frozen=True)
class PatchMatrix:
    """Unrolled patches as columns: data is (patch_side^2 * depth, n_patches)."""

    data: np.ndarray
    patch_side: int
    depth: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise DimError(f"patch matrix must be 2D, got ndim={data.ndim}")
        expected = self.patch_side * self.patch_side * self.depth
        if data.shape[0] != expected:
            raise DimError(
                f"patch matrix has {data.shape[0]} rows, expected "
                f"{self.patch_side}^2 * {self.depth} = {expected}"
            )
        if data.shape[1] < 1:
            raise DimError("patch matrix must contain at least one patch")
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def n_patches(self) -> int:
        return self.data.shape[1]


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
    inside it. The patches are gathered from a sliding-window view a block
    at a time, straight into the columns of the result.
    """
    maps = np.asarray(maps, dtype=np.float64)
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
    dim = p * p * depth
    data = np.empty((dim, n_patches), dtype=np.float64)
    for lo in range(0, n_patches, _GATHER_BLOCK):
        hi = min(lo + _GATHER_BLOCK, n_patches)
        block = windows[img_idx[lo:hi], rows[lo:hi], cols[lo:hi]]
        data[:, lo:hi] = block.reshape(hi - lo, dim).T
    return PatchMatrix(data, patch_side=p, depth=depth)


def normalize_columns(data: np.ndarray) -> np.ndarray:
    """Normalize every column of a (dim, n) matrix; see :func:`_normalize_along`."""
    out = np.array(data, dtype=np.float64)
    _normalize_along(out, axis=0)
    return out


def _normalize_along(data: np.ndarray, axis: int) -> None:
    """Scale every patch lying along `axis` by 1/max|x_i|, then subtract its mean.

    Works in place. Training normalizes sampled patches as columns (axis 0); dense
    convolution normalizes its im2col rows (axis -1). max|x| is taken as
    max(max x, -min x), so no |x| temporary is made. A zero patch divides
    by 1 and stays zero.
    """
    peak = np.maximum(data.max(axis=axis, keepdims=True), -data.min(axis=axis, keepdims=True))
    data /= np.where(peak == 0.0, 1.0, peak)
    data -= data.mean(axis=axis, keepdims=True)


def fit_zca(patches: PatchMatrix, epsilon: float) -> ZcaTransform:
    """Fit V (D + eps I)^(-1/2) V^T on the column covariance of the patches."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    assert_array_finite(patches.data, what="patch matrix")
    mean = patches.data.mean(axis=1)
    centered = patches.data - mean[:, None]
    denom = max(patches.n_patches - 1, 1)
    cov = (centered @ centered.T) / denom
    eigvals, eigvecs = np.linalg.eigh(cov)
    floor = EIGENVALUE_FLOOR * max(float(eigvals[-1]), 0.0)
    eigvals = np.maximum(eigvals, floor)
    inv_sqrt = 1.0 / np.sqrt(eigvals + epsilon)
    matrix = (eigvecs * inv_sqrt) @ eigvecs.T
    matrix = (matrix + matrix.T) / 2.0
    return ZcaTransform(mean=mean, matrix=matrix, epsilon=float(epsilon))


def apply_zca(transform: ZcaTransform, patches: PatchMatrix) -> PatchMatrix:
    """Whiten every column: y = matrix @ (x - mean)."""
    if patches.dim != transform.dim:
        raise DimError(
            f"patch dim {patches.dim} does not match transform dim {transform.dim}"
        )
    data = transform.matrix @ (patches.data - transform.mean[:, None])
    return PatchMatrix(data, patches.patch_side, patches.depth)
