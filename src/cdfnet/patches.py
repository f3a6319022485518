"""Volume-patch extraction, patch-wise normalization, and ZCA whitening.

A patch is a p x p x depth block unrolled into one row with depth as the
slowest axis, then rows, then columns (C-order over (depth, row, col)).
Training-time sampling (:func:`extract_patches`) and dense extraction at
convolution time (:func:`cdfnet.layer.dense_patches`) share this layout.
Training normalizes its rows with :func:`normalize_rows`; the convolution
never does. A normalized row x^ = x / peak - mean(x / peak) has zero mean, so
its product with filters F equals its product with the column-centered
W_c = F - mean_d(F), and since the columns of W_c sum to 0,
x^ F = ((x - c) W_c) / peak for any scalar c: the convolution multiplies raw
rows by W_c and divides each response by its window's peak (see
:class:`cdfnet.layer.FilterBank`). Patches are plain (n, dim) float64
arrays; the ZCA fit and its application also take (G, n, dim) stacks, one
independent set of rows per leading index.
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
# rows per block of the whitening's passes over a patch matrix: 8 MB at d = 256
_ROW_BLOCK = 4096


@dataclass(frozen=True)
class ZcaTransform:
    """Training's whitening y = matrix @ (x - mean); matrix is symmetric PD.

    mean is (..., d) and matrix (..., d, d): a leading axis stacks one
    transform per layer-2 group. The fit's epsilon is folded into matrix;
    its value belongs to the layer record.
    """

    mean: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if mean.ndim < 1 or matrix.shape != mean.shape + mean.shape[-1:]:
            raise DimError(
                f"inconsistent ZCA shapes: mean {mean.shape}, matrix {matrix.shape}"
            )
        if not np.allclose(matrix, np.swapaxes(matrix, -1, -2), atol=1e-9):
            raise ValueError("ZCA matrix must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    def fold(self, filters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(G, c) of (..., d, K) filters F learned behind this whitening, in
        float64: M is symmetric, so F^T M (x - mu) = G^T x - c with G = M F
        and c = mu^T G, shaped (..., K). A model stores only (G, c)."""
        if filters.shape[:-1] != self.mean.shape:
            raise DimError(
                f"whitening mean {self.mean.shape} does not match filters {filters.shape}"
            )
        folded = self.matrix @ filters
        return folded, (self.mean[..., None, :] @ folded)[..., 0, :]


def extract_patches(
    maps: np.ndarray, channels, p: int, n_patches: int, rng: SeededRng
) -> np.ndarray:
    """Sample patches of some channels of an (N, H, W, depth) stack uniformly,
    with replacement; returns (n_patches, p * p * len(channels)) float64 rows.

    The image index is drawn first, then a valid top-left row and column
    inside it. A broadcast fancy index into a sliding-window view gathers
    _ROW_BLOCK patches at a time over the listed channels, in the row layout
    of the float64 result they are written into, so neither the stack nor a
    channel subset of it is copied. Its checks of n_patches and the patch
    size guard direct calls; in training the layer records and
    :func:`cdfnet.layer.layer_output_shape` own these rules and fail first.
    """
    maps = np.asarray(maps)
    if maps.ndim != 4 or maps.shape[0] < 1:
        raise DimError(f"need an (N, H, W, depth) stack with N >= 1, got shape {maps.shape}")
    if n_patches < 1:
        raise ValueError(f"n_patches must be >= 1, got {n_patches}")
    n_images, height, width, _ = maps.shape
    if p > min(height, width):
        raise InvalidPatchSize(f"patch side {p} exceeds map size {height}x{width}")

    gen = rng.generator()
    img_idx = gen.integers(0, n_images, size=n_patches)
    rows = (gen.random(n_patches) * (height - p + 1)).astype(np.intp)
    cols = (gen.random(n_patches) * (width - p + 1)).astype(np.intp)

    windows = sliding_window_view(maps, (p, p), axis=(1, 2))  # (N, h, w, depth, p, p)
    data = np.empty((n_patches, len(channels), p, p))
    for lo in range(0, n_patches, _ROW_BLOCK):
        at = slice(lo, lo + _ROW_BLOCK)
        data[at] = windows[img_idx[at, None], rows[at, None], cols[at, None], channels]
    return data.reshape(n_patches, p * p * len(channels))


def normalize_rows(data: np.ndarray) -> None:
    """Scale every row (one patch) by 1/max|x_i|, then subtract its mean; in place.

    Training normalizes its sampled patches with this kernel; the dense
    convolution gets the same responses from raw rows (see the module
    docstring). max|x| is taken as max(max x, -min x), so no |x| temporary is
    made. A zero patch divides by 1 and stays zero.
    """
    peak = np.maximum(data.max(axis=-1, keepdims=True), -data.min(axis=-1, keepdims=True))
    data /= np.where(peak == 0.0, 1.0, peak)
    data -= data.mean(axis=-1, keepdims=True)


def fit_zca(patches: np.ndarray, epsilon: float) -> ZcaTransform:
    """Fit V (D + eps I)^(-1/2) V^T on the covariance of (..., n, d) patch rows.

    A leading axis stacks independent fits, one per slice, as a layer-2
    chunk's groups need; each slice's result equals a fit on that slice
    alone. The rows are checked and their covariance summed _ROW_BLOCK rows
    at a time, so neither a centered copy nor a boolean mask of the whole
    matrix is made. The epsilon check guards direct calls (in training the
    layer records own the rule) and runs before sqrt(D + eps) could warn on
    a non-positive sum.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim < 2 or patches.shape[-2] < 1:
        raise DimError(f"need (..., n, d) patch rows with n >= 1, got shape {patches.shape}")
    n = patches.shape[-2]
    blocks = [patches[..., lo : lo + _ROW_BLOCK, :] for lo in range(0, n, _ROW_BLOCK)]
    if not all(np.isfinite(block).all() for block in blocks):
        assert_array_finite(patches, what="patch rows")  # names the first bad value
    mean = patches.mean(axis=-2)
    cov = np.zeros(patches.shape[:-2] + patches.shape[-1:] * 2)
    for block in blocks:
        centered = block - mean[..., None, :]
        cov += np.swapaxes(centered, -1, -2) @ centered
        del centered  # so that one centered block is alive at a time
    cov /= max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    floor = EIGENVALUE_FLOOR * np.maximum(eigvals[..., -1:], 0.0)
    eigvals = np.maximum(eigvals, floor)
    inv_sqrt = 1.0 / np.sqrt(eigvals + epsilon)
    matrix = (eigvecs * inv_sqrt[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)
    matrix = (matrix + np.swapaxes(matrix, -1, -2)) / 2.0
    return ZcaTransform(mean=mean, matrix=matrix)


def apply_zca(transform: ZcaTransform, patches: np.ndarray) -> None:
    """Whiten (..., n, d) rows x into M (x - mu) in place, _ROW_BLOCK rows at a
    time, as x M^T - mu M^T, so no centered copy of the patches is made (as
    :meth:`ZcaTransform.fold` does for filters). A stacked transform whitens
    each slice of a matching stack with its own mean and matrix."""
    if patches.shape[-1] != transform.dim:
        raise DimError(
            f"patch dim {patches.shape[-1]} does not match transform dim {transform.dim}"
        )
    matrix_t = np.swapaxes(transform.matrix, -1, -2)
    shift = transform.mean[..., None, :] @ matrix_t
    for lo in range(0, patches.shape[-2], _ROW_BLOCK):
        block = patches[..., lo : lo + _ROW_BLOCK, :]
        block[...] = block @ matrix_t
        block -= shift
