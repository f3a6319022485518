"""One network layer: dense convolution, rectification, local contrast
normalization, Lp pooling, and the random-grouping connector between layers.

Stage order inside :func:`run_layer` is fixed: convolve -> rectify ->
subtractive LCN -> divisive LCN -> pool. The stages are private kernels on
(..., H, W, depth) arrays that work in place where they can, on arrays
made for them alone (a fresh convolution output or a copy); the public
FeatureMapSet stage functions and :func:`run_layer` (one image) and
:func:`run_groups` (all layer-2 groups of one image) are thin wrappers over
them. The public functions are pure, so images can be processed in parallel
without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .errors import DimError, InvalidGrouping, InvalidWindow
from .kmeans import FilterBank
from .patches import _normalize_along
from .tensor import FeatureMapSet, SeededRng, assert_array_finite, assert_finite

if TYPE_CHECKING:
    from .config import Layer1Config, Layer2Config

RECTIFIERS = ("abs", "on_off")
# patches per im2col band in dense convolution: 2 MB at d = 256
_CONV_ROWS = 1024


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
    """All valid p x p x depth patches of (..., H, W, depth) maps as rows.

    Returns a fresh (..., positions, p*p*depth) array with positions in
    row-major order, each row in the :mod:`cdfnet.patches` layout
    (depth-major, then rows, then columns), plus the output grid.
    """
    windows = sliding_window_view(maps, (p, p), axis=(-3, -2))
    rows = np.empty(windows.shape)
    rows[...] = windows
    *lead, out_h, out_w = windows.shape[:-3]
    return rows.reshape(*lead, out_h * out_w, -1), (out_h, out_w)


def _weights(bank: FilterBank, dense_preprocess: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(weights, offset) such that a patch row x responds x @ weights - offset."""
    if dense_preprocess:
        return bank.whitened_filters
    return bank.filters, None


def _convolve(maps, weights, offset, p: int, dense_preprocess: bool) -> np.ndarray:
    """(..., H, W, depth) maps against (..., d, K) weights: (..., H', W', K).

    Works through the output a band of rows at a time, so the patch copy
    holds about _CONV_ROWS patches, not one per output position.
    """
    out_h, out_w = conv_output_shape(*maps.shape[-3:-1], p)
    out = np.empty((*maps.shape[:-3], out_h * out_w, weights.shape[-1]))
    band = max(1, _CONV_ROWS // out_w)
    for top in range(0, out_h, band):
        rows, _ = dense_patches(maps[..., top : top + band + p - 1, :, :], p)
        if dense_preprocess:
            _normalize_along(rows, axis=-1)
        block = out[..., top * out_w : (top + band) * out_w, :]
        np.matmul(rows, weights, out=block)
        if offset is not None:
            block -= offset
    return out.reshape(*out.shape[:-2], out_h, out_w, out.shape[-1])


def convolve_valid(
    fmset: FeatureMapSet, bank: FilterBank, dense_preprocess: bool = False
) -> FeatureMapSet:
    """Apply every filter to every patch position via dot products.

    Output depth is the filter count; spatial size shrinks to
    (m - p + 1, n - p + 1), stride 1. With dense_preprocess, each patch is
    patch-normalized and whitened with the bank's training-time transform
    before the dot product, so inference sees the space the filters were
    trained in; the whitening is folded into the filters
    (:attr:`FilterBank.whitened_filters`).
    """
    return FeatureMapSet(_convolve_image(fmset, bank, dense_preprocess), fmset.source_image_id)


def _convolve_image(fmset: FeatureMapSet, bank: FilterBank, dense_preprocess: bool) -> np.ndarray:
    """The maps of :func:`convolve_valid` as a new array that no one else holds."""
    if fmset.depth != bank.depth:
        raise DimError(
            f"input depth {fmset.depth} does not match filter depth {bank.depth}"
        )
    _check_fits("filter side", bank.patch_side, fmset.height, fmset.width, DimError)
    weights, offset = _weights(bank, dense_preprocess)
    return _convolve(fmset.maps, weights, offset, bank.patch_side, dense_preprocess)


def _rectify(maps: np.ndarray, rectifier: str) -> np.ndarray:
    """abs in place, or a new array with the ON/OFF channels interleaved."""
    if rectifier == "abs":
        return np.abs(maps, out=maps)
    if rectifier == "on_off":
        out = np.empty((*maps.shape[:-1], 2 * maps.shape[-1]))
        np.maximum(maps, 0.0, out=out[..., 0::2])
        np.maximum(-maps, 0.0, out=out[..., 1::2])
        return out
    raise ValueError(f"rectifier must be one of {RECTIFIERS}, got {rectifier!r}")


def rectify_abs(fmset: FeatureMapSet) -> FeatureMapSet:
    return FeatureMapSet(_rectify(fmset.maps.copy(), "abs"), fmset.source_image_id)


def rectify_on_off(fmset: FeatureMapSet) -> FeatureMapSet:
    """Split each map into max(0, x) and max(0, -x) channels, interleaved."""
    return FeatureMapSet(_rectify(fmset.maps, "on_off"), fmset.source_image_id)


def gaussian_window(side: int, sigma: float) -> np.ndarray:
    """Unnormalized 2D Gaussian on integer offsets, side x side, side odd."""
    half = (side - 1) // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g1 = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    return np.outer(g1, g1)


def _check_lcn_window(maps: np.ndarray, window: int) -> None:
    if window % 2 == 0 or window < 3:
        raise InvalidWindow(f"LCN window must be odd and >= 3, got {window}")
    _check_fits("LCN window", window, *maps.shape[-3:-1])


def _lcn_weighted_sum(field: np.ndarray, depth: int, window: int, sigma: float) -> np.ndarray:
    """Gaussian-weighted local sum of (..., H, W) depth sums, weights totalling 1.

    The weighting window is a single 2D Gaussian replicated across depth and
    normalized so it sums to 1 over (depth, rows, cols); each leading index
    gets its own 2D field. Borders reflect (symmetric half-sample padding).
    """
    kernel = gaussian_window(window, sigma)
    kernel = kernel / (kernel.sum() * depth)
    kernel = kernel.reshape((1,) * (field.ndim - 2) + kernel.shape)
    return ndimage.correlate(field, kernel, mode="reflect")


def _lcn_subtract(maps: np.ndarray, window: int, sigma: float) -> None:
    """In place on (..., H, W, depth): subtract the local mean across all maps."""
    _check_lcn_window(maps, window)
    maps -= _lcn_weighted_sum(maps.sum(axis=-1), maps.shape[-1], window, sigma)[..., None]


def _lcn_divide(maps: np.ndarray, window: int, sigma: float) -> None:
    """In place on (..., H, W, depth): divide by the floored local standard deviation.

    The floor is the mean local standard deviation of each leading index
    (one image, or one group of one image); a stack whose floor is 0 is all
    zero and stays so.
    """
    _check_lcn_window(maps, window)
    energy = _lcn_weighted_sum(
        np.einsum("...d,...d->...", maps, maps), maps.shape[-1], window, sigma
    )
    local_sd = np.sqrt(np.maximum(energy, 0.0))
    floor = local_sd.mean(axis=(-2, -1), keepdims=True)
    maps /= np.maximum(local_sd, np.where(floor == 0.0, 1.0, floor))[..., None]


def lcn_subtractive(fmset: FeatureMapSet, window: int, sigma: float) -> FeatureMapSet:
    """Subtract the Gaussian-weighted local mean taken across all maps."""
    maps = fmset.maps.copy()
    _lcn_subtract(maps, window, sigma)
    return FeatureMapSet(maps, fmset.source_image_id)


def lcn_divisive(fmset: FeatureMapSet, window: int, sigma: float) -> FeatureMapSet:
    """Divide by max(c, sigma_jk), the floored local standard deviation.

    sigma_jk is the square root of the Gaussian-weighted local energy across
    all maps; the floor c is the per-image mean of sigma_jk. An all-zero
    input stays all-zero.
    """
    maps = fmset.maps.copy()
    _lcn_divide(maps, window, sigma)
    return FeatureMapSet(maps, fmset.source_image_id)


def _pool(maps: np.ndarray, pool_side: int, stride: int, alpha: float) -> np.ndarray:
    """Lp pooling of (..., H, W, depth) maps; see :func:`pool`."""
    _check_fits("pool window", pool_side, *maps.shape[-3:-1])
    if pool_side < 1 or stride < 1:
        raise InvalidWindow("pool_side and stride must be >= 1")
    if not _signed_pool_alpha(alpha) and np.any(maps < 0.0):
        raise ValueError(f"pooling alpha {alpha} requires non-negative inputs")
    windows = sliding_window_view(maps, (pool_side, pool_side), axis=(-3, -2))
    windows = windows[..., ::stride, ::stride, :, :, :]
    if alpha == 1.0:
        return windows.sum(axis=(-2, -1))
    return np.power(np.power(windows, alpha).sum(axis=(-2, -1)), 1.0 / alpha)


def pool(fmset: FeatureMapSet, pool_side: int, stride: int, alpha: float) -> FeatureMapSet:
    """Lp pooling y = (sum x^alpha)^(1/alpha) over pool_side windows.

    Windows advance by `stride` per feature map; partial windows at the
    right/bottom edges are dropped. alpha=1 is the window sum (average
    pooling up to a constant); large even alpha approaches the window max of |x|.
    Any alpha other than 1 or an even integer requires non-negative inputs:
    a fractional power of a negative value, or an odd power summing to a
    negative value, has no real root.
    """
    return FeatureMapSet(_pool(fmset.maps, pool_side, stride, alpha), fmset.source_image_id)


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


def _stages(maps: np.ndarray, cfg: Layer1Config | Layer2Config, rectifier: str) -> np.ndarray:
    """Rectify, subtractive LCN, divisive LCN and pool; overwrites maps."""
    maps = _rectify(maps, rectifier)
    _lcn_subtract(maps, cfg.lcn_window, cfg.lcn_sigma)
    _lcn_divide(maps, cfg.lcn_window, cfg.lcn_sigma)
    return _pool(maps, cfg.pool_side, cfg.pool_stride, cfg.pool_alpha)


def run_layer(
    fmset: FeatureMapSet, bank: FilterBank, cfg: Layer1Config | Layer2Config, rectifier: str
) -> FeatureMapSet:
    """Full layer: convolve, rectify, contrast-normalize, pool.

    cfg is the layer's record (``NetworkConfig.layer1`` or ``.layer2``);
    rectifier is the network's, one of :data:`RECTIFIERS`.
    """
    conv = _convolve_image(fmset, bank, cfg.dense_preprocess)
    out = FeatureMapSet(_stages(conv, cfg, rectifier), fmset.source_image_id)
    assert_finite(out)
    return out


def stack_weights(
    banks: tuple[FilterBank, ...], dense_preprocess: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The convolution weights of equal-shaped banks stacked for :func:`run_groups`.

    Returns (G, d, K) weights and, with dense_preprocess, (G, 1, K) offsets.
    """
    pairs = [_weights(bank, dense_preprocess) for bank in banks]
    weights = np.stack([w for w, _ in pairs])
    if not dense_preprocess:
        return weights, None
    return weights, np.stack([c for _, c in pairs])[:, None, :]


def run_groups(
    maps: np.ndarray,
    perm: np.ndarray,
    weights: np.ndarray,
    offset: np.ndarray | None,
    cfg: Layer2Config,
    rectifier: str,
) -> np.ndarray:
    """Layer 2 over every group of one image's (H, W, K1) layer-1 maps at once.

    perm lists the K1 map indices group after group; weights and offset come
    from :func:`stack_weights`. Returns (G, h, w, depth): group g equals
    :func:`run_layer` on ``maps[:, :, group g]`` with bank g, up to
    summation-order rounding, and the LCN floor is taken per group.
    """
    n_groups = weights.shape[0]
    h, w = maps.shape[:2]
    grouped = maps[:, :, perm].reshape(h, w, n_groups, -1).transpose(2, 0, 1, 3)
    if weights.shape[1] != cfg.patch_side**2 * grouped.shape[-1]:
        raise DimError(
            f"layer-2 filters of dim {weights.shape[1]} do not fit groups of "
            f"{grouped.shape[-1]} maps with patch side {cfg.patch_side}"
        )
    _check_fits("filter side", cfg.patch_side, h, w, DimError)
    conv = _convolve(grouped, weights, offset, cfg.patch_side, cfg.dense_preprocess)
    out = _stages(conv, cfg, rectifier)
    assert_array_finite(out, what="layer-2 feature maps")
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
