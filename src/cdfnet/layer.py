"""One network layer: dense convolution, rectification, local contrast
normalization, Lp pooling, and the random-grouping connector between layers.

Stage order inside :func:`run_layer` is fixed: convolve -> rectify ->
subtractive LCN -> divisive LCN -> pool. All stages are pure functions of
their inputs, so images can be processed in parallel without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .errors import DimError, InvalidGrouping, InvalidWindow
from .kmeans import FilterBank
from .patches import apply_zca, normalize_columns, PatchMatrix
from .tensor import FeatureMapSet, SeededRng, assert_finite

if TYPE_CHECKING:
    from .config import Layer1Config, Layer2Config

RECTIFIERS = ("abs", "on_off")


def _signed_pool_alpha(alpha: float) -> bool:
    """True if Lp pooling with this alpha is defined on signed inputs."""
    return alpha == 1.0 or (alpha >= 2.0 and alpha % 2.0 == 0.0)


@dataclass(frozen=True)
class GroupAssignment:
    """Partition of feature-map indices into equal groups of size n_k."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        if not groups:
            raise InvalidGrouping("need at least one group")
        sizes = {len(g) for g in groups}
        if len(sizes) != 1:
            raise InvalidGrouping(f"groups have unequal sizes {sorted(sizes)}")
        flat = [i for g in groups for i in g]
        total = len(flat)
        if sorted(flat) != list(range(total)):
            raise InvalidGrouping("groups must partition [0, K) exactly")
        object.__setattr__(self, "groups", groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def group_size(self) -> int:
        return len(self.groups[0])


def _check_fits(what: str, side: int, height: int, width: int, error=InvalidWindow) -> None:
    """Raise `error` if a side x side window does not fit a height x width map."""
    if side > min(height, width):
        raise error(f"{what} {side} exceeds map size {height}x{width}")


def conv_output_shape(height: int, width: int, patch_side: int) -> tuple[int, int]:
    return height - patch_side + 1, width - patch_side + 1


def pool_output_shape(dim: int, pool_side: int, stride: int) -> int:
    return (dim - pool_side) // stride + 1


def dense_patches(maps: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, int]]:
    """All valid p x p x depth patches as columns, positions in row-major order.

    Column layout matches :func:`cdfnet.patches.unroll_patch` (depth-major,
    then rows, then columns).
    """
    windows = sliding_window_view(maps, (p, p), axis=(0, 1))
    out_h, out_w = windows.shape[0], windows.shape[1]
    cols = windows.reshape(out_h * out_w, -1)
    return np.ascontiguousarray(cols.T), (out_h, out_w)


def convolve_valid(
    fmset: FeatureMapSet, bank: FilterBank, dense_preprocess: bool = False
) -> FeatureMapSet:
    """Apply every filter to every patch position via dot products.

    Output depth is the filter count; spatial size shrinks to
    (m - p + 1, n - p + 1), stride 1. With dense_preprocess, each patch is
    patch-normalized and whitened with the bank's training-time transform
    before the dot product, so inference sees the space the filters were
    trained in.
    """
    if fmset.depth != bank.depth:
        raise DimError(
            f"input depth {fmset.depth} does not match filter depth {bank.depth}"
        )
    _check_fits("filter side", bank.patch_side, fmset.height, fmset.width, DimError)
    cols, (out_h, out_w) = dense_patches(fmset.maps, bank.patch_side)
    if dense_preprocess:
        if bank.whitening is None:
            raise DimError("dense_preprocess requires a whitening transform")
        cols = normalize_columns(cols)
        cols = apply_zca(
            bank.whitening, PatchMatrix(cols, bank.patch_side, bank.depth)
        ).data
    responses = bank.filters.T @ cols  # (K, positions)
    maps = responses.T.reshape(out_h, out_w, bank.k)
    return FeatureMapSet(maps, fmset.source_image_id)


def rectify_abs(fmset: FeatureMapSet) -> FeatureMapSet:
    return FeatureMapSet(np.abs(fmset.maps), fmset.source_image_id)


def rectify_on_off(fmset: FeatureMapSet) -> FeatureMapSet:
    """Split each map into max(0, x) and max(0, -x) channels, interleaved."""
    h, w, depth = fmset.maps.shape
    out = np.empty((h, w, 2 * depth), dtype=np.float64)
    out[:, :, 0::2] = np.maximum(fmset.maps, 0.0)
    out[:, :, 1::2] = np.maximum(-fmset.maps, 0.0)
    return FeatureMapSet(out, fmset.source_image_id)


def gaussian_window(side: int, sigma: float) -> np.ndarray:
    """Unnormalized 2D Gaussian on integer offsets, side x side, side odd."""
    half = (side - 1) // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g1 = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    return np.outer(g1, g1)


def _check_lcn_window(fmset: FeatureMapSet, window: int) -> None:
    if window % 2 == 0 or window < 3:
        raise InvalidWindow(f"LCN window must be odd and >= 3, got {window}")
    _check_fits("LCN window", window, fmset.height, fmset.width)


def _lcn_weighted_sum(stack: np.ndarray, window: int, sigma: float) -> np.ndarray:
    """Gaussian-weighted local sum over space and all maps, weights totalling 1.

    The weighting window is a single 2D Gaussian replicated across depth and
    normalized so it sums to 1 over (depth, rows, cols); the result is one 2D
    field. Borders reflect (symmetric half-sample padding).
    """
    depth = stack.shape[2]
    kernel = gaussian_window(window, sigma)
    kernel = kernel / (kernel.sum() * depth)
    depth_sum = stack.sum(axis=2)
    return ndimage.correlate(depth_sum, kernel, mode="reflect")


def lcn_subtractive(fmset: FeatureMapSet, window: int, sigma: float) -> FeatureMapSet:
    """Subtract the Gaussian-weighted local mean taken across all maps."""
    _check_lcn_window(fmset, window)
    local_mean = _lcn_weighted_sum(fmset.maps, window, sigma)
    return FeatureMapSet(fmset.maps - local_mean[:, :, None], fmset.source_image_id)


def lcn_divisive(fmset: FeatureMapSet, window: int, sigma: float) -> FeatureMapSet:
    """Divide by max(c, sigma_jk), the floored local standard deviation.

    sigma_jk is the square root of the Gaussian-weighted local energy across
    all maps; the floor c is the per-image mean of sigma_jk. An all-zero
    input stays all-zero.
    """
    _check_lcn_window(fmset, window)
    energy = _lcn_weighted_sum(fmset.maps**2, window, sigma)
    local_sd = np.sqrt(np.maximum(energy, 0.0))
    floor = float(local_sd.mean())
    if floor == 0.0:
        return fmset
    denom = np.maximum(local_sd, floor)
    return FeatureMapSet(fmset.maps / denom[:, :, None], fmset.source_image_id)


def pool(fmset: FeatureMapSet, pool_side: int, stride: int, alpha: float) -> FeatureMapSet:
    """Lp pooling y = (sum x^alpha)^(1/alpha) over pool_side windows.

    Windows advance by `stride` per feature map; partial windows at the
    right/bottom edges are dropped. alpha=1 is the window sum (average
    pooling up to a constant); large even alpha approaches the window max of |x|.
    Any alpha other than 1 or an even integer requires non-negative inputs:
    a fractional power of a negative value, or an odd power summing to a
    negative value, has no real root.
    """
    _check_fits("pool window", pool_side, fmset.height, fmset.width)
    if pool_side < 1 or stride < 1:
        raise InvalidWindow("pool_side and stride must be >= 1")
    if not _signed_pool_alpha(alpha) and np.any(fmset.maps < 0.0):
        raise ValueError(f"pooling alpha {alpha} requires non-negative inputs")
    windows = sliding_window_view(fmset.maps, (pool_side, pool_side), axis=(0, 1))
    windows = windows[::stride, ::stride]
    if alpha == 1.0:
        pooled = windows.sum(axis=(-2, -1))
    else:
        pooled = np.power(np.power(windows, alpha).sum(axis=(-2, -1)), 1.0 / alpha)
    return FeatureMapSet(pooled, fmset.source_image_id)


def make_groups(k1: int, n_k: int, rng: SeededRng) -> GroupAssignment:
    """Uniformly random partition of [0, k1) into k1/n_k groups of n_k."""
    if k1 < 1 or n_k < 1:
        raise InvalidGrouping("k1 and n_k must be >= 1")
    if k1 % n_k != 0:
        raise InvalidGrouping(f"group size {n_k} does not divide {k1} feature maps")
    perm = rng.generator().permutation(k1)
    groups = tuple(
        tuple(int(i) for i in perm[g : g + n_k]) for g in range(0, k1, n_k)
    )
    return GroupAssignment(groups)


def run_layer(
    fmset: FeatureMapSet, bank: FilterBank, cfg: Layer1Config | Layer2Config, rectifier: str
) -> FeatureMapSet:
    """Full layer: convolve, rectify, contrast-normalize, pool.

    cfg is the layer's record (``NetworkConfig.layer1`` or ``.layer2``);
    rectifier is the network's, one of :data:`RECTIFIERS`.
    """
    out = convolve_valid(fmset, bank, dense_preprocess=cfg.dense_preprocess)
    if rectifier == "abs":
        out = rectify_abs(out)
    elif rectifier == "on_off":
        out = rectify_on_off(out)
    else:
        raise ValueError(f"rectifier must be one of {RECTIFIERS}, got {rectifier!r}")
    out = lcn_subtractive(out, cfg.lcn_window, cfg.lcn_sigma)
    out = lcn_divisive(out, cfg.lcn_window, cfg.lcn_sigma)
    out = pool(out, cfg.pool_side, cfg.pool_stride, cfg.pool_alpha)
    assert_finite(out)
    return out


def layer_output_shape(
    height: int, width: int, bank_k: int, cfg: Layer1Config | Layer2Config, rectifier: str
) -> tuple[int, int, int]:
    """Closed-form output shape of :func:`run_layer` on a height x width input.

    Raises the window errors :func:`run_layer` would raise for that input,
    so an impossible shape chain fails before any training.
    """
    _check_fits("filter side", cfg.patch_side, height, width, DimError)
    conv_h, conv_w = conv_output_shape(height, width, cfg.patch_side)
    _check_fits("LCN window", cfg.lcn_window, conv_h, conv_w)
    _check_fits("pool window", cfg.pool_side, conv_h, conv_w)
    out_h = pool_output_shape(conv_h, cfg.pool_side, cfg.pool_stride)
    out_w = pool_output_shape(conv_w, cfg.pool_side, cfg.pool_stride)
    depth = bank_k * (2 if rectifier == "on_off" else 1)
    return out_h, out_w, depth
