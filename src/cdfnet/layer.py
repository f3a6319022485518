"""One network layer: its filter bank, dense convolution, rectification,
local contrast normalization, Lp pooling, and the random-grouping connector
between layers.

Stage order inside the forward kernel :func:`_forward` is fixed: convolve ->
rectify -> subtractive LCN -> divisive LCN -> pool. The stages are private
kernels on (..., H, W, depth) arrays that work in place where they can, on
arrays made for them alone (a fresh convolution output); a leading axis of
the maps matches a leading axis of a stacked filter bank. :func:`run_layer`
(one image, one bank) and :func:`run_groups` (all layer-2 groups of one
image, the (G, d, K) bank stack) both call :func:`_forward`. The public
functions are pure, so images can be processed in parallel without
coordination.

The forward pass computes in float32: the convolution rounds its input maps
once and applies the bank's float32 centered filters and offset, and every
later stage keeps its input's dtype. Filter learning and the descriptors
handed to the SVM stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimError, InvalidGrouping, InvalidWindow
from .tensor import FeatureMapSet, SeededRng, assert_array_finite

if TYPE_CHECKING:
    from .config import Layer1Config, Layer2Config

RECTIFIERS = ("abs", "on_off")
# patches per im2col band in dense convolution: 2 MB at d = 256
_CONV_ROWS = 1024


@dataclass(frozen=True)
class FilterBank:
    """The map a layer applies to a normalized patch row x: x F - offset.

    filters is (..., d, K) and offset (..., K), in the forward pass's float32,
    with the training-time whitening folded in (see :mod:`cdfnet.patches`).
    d = p^2 * depth, with p from the layer record and depth from the maps. A
    leading axis stacks equal-shaped banks, one per layer-2 group.

    centered is derived from filters, not given: W_c = F - mean_d(F), each
    column less its mean over d, computed in float64 from the float32 filters
    and stored as float32, so a bank and its saved-and-loaded copy hold the
    same bits. A normalized row x^ = x / peak - mean(x / peak) has zero mean,
    so x^ F = x^ W_c; the columns of W_c sum to 0, so (x - c) W_c = x W_c for
    any scalar c. The forward pass applies the bank to a raw row x as
    ((x - c) W_c) / peak - offset, with peak = max|x|.
    """

    filters: np.ndarray
    offset: np.ndarray
    centered: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        filters = np.asarray(self.filters, dtype=np.float32)
        offset = np.asarray(self.offset, dtype=np.float32)
        if filters.ndim < 2 or filters.shape[-1] < 1:
            raise DimError(f"filter bank must be (..., d, K) with K >= 1, got {filters.shape}")
        if offset.shape != filters.shape[:-2] + filters.shape[-1:]:
            raise DimError(f"filter offset {offset.shape} does not match filters {filters.shape}")
        assert_array_finite(filters, what="filter bank")
        assert_array_finite(offset, what="filter offset")
        # the float64 loop works in buffered chunks, with no float64 copy of filters
        centered = np.empty_like(filters)
        np.subtract(filters, filters.mean(axis=-2, keepdims=True, dtype=np.float64), out=centered)
        object.__setattr__(self, "filters", filters)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "centered", centered)

    @property
    def lead(self) -> tuple[int, ...]:
        """Shape of the stacking axes; () for a single bank."""
        return self.filters.shape[:-2]

    @property
    def dim(self) -> int:
        return self.filters.shape[-2]

    @property
    def k(self) -> int:
        return self.filters.shape[-1]

    @property
    def layer_index(self) -> int:
        """1 for a single bank (:func:`run_layer`), 2 for a stack (:func:`run_groups`)."""
        return 2 if self.lead else 1


def conv_output_shape(height: int, width: int, patch_side: int) -> tuple[int, int]:
    return height - patch_side + 1, width - patch_side + 1


def pool_output_shape(dim: int, pool_side: int, stride: int) -> int:
    return (dim - pool_side) // stride + 1


def dense_patches(maps: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, int]]:
    """All valid p x p x depth patches of (..., H, W, depth) maps as rows.

    Returns a fresh (..., positions, p*p*depth) array of the maps' dtype,
    positions in row-major order, each row in the :mod:`cdfnet.patches`
    layout (depth-major, then rows, then columns), plus the output grid.
    """
    windows = sliding_window_view(maps, (p, p), axis=(-3, -2))
    rows = np.empty(windows.shape, dtype=maps.dtype)
    rows[...] = windows
    *lead, out_h, out_w = windows.shape[:-3]
    return rows.reshape(*lead, out_h * out_w, -1), (out_h, out_w)


def _sliding_max(values: np.ndarray, p: int, axis: int) -> np.ndarray:
    """Max over every run of p neighbours along axis; that axis shrinks by p - 1.

    Doubles the covered width with one np.maximum of two shifted views per
    step, then closes the remainder with one more, so it makes O(log p)
    passes over the array.
    """

    def part(arr, start, stop):
        return arr[(slice(None),) * (axis % arr.ndim) + (slice(start, stop),)]

    width = 1
    while 2 * width <= p:
        values = np.maximum(part(values, 0, -width), part(values, width, None))
        width *= 2
    rest = p - width
    if rest:
        values = np.maximum(part(values, 0, -rest), part(values, rest, None))
    return values


def _window_peaks(maps: np.ndarray, p: int) -> np.ndarray:
    """max|x| over each p x p x depth window of (L, H, W, depth) maps, 1 where it is 0.

    Each position's max(max x, -min x) over depth, then a separable sliding
    max down the rows and along the columns: (L, H', W').
    """
    peaks = np.maximum(maps.max(axis=-1), -maps.min(axis=-1))
    peaks = _sliding_max(_sliding_max(peaks, p, axis=-2), p, axis=-1)
    peaks[peaks == 0.0] = 1.0
    return peaks


def _convolve(maps: np.ndarray, bank: FilterBank, p: int) -> np.ndarray:
    """(..., H, W, depth) maps against a bank of the same leading shape: (..., H', W', K).

    Every p x p patch position, stride 1, gets the response of its
    normalized row x^ = x / peak - mean(x / peak) (peak = max|x| over the
    window) to the bank's filters, less the offset; the filters and offset
    carry the training-time whitening, so inference sees the space the
    filters were learned in. The rows are not normalized: with the bank's
    column-centered filters W_c, x^ F = ((x - c) W_c) / peak for any scalar c
    (see :class:`FilterBank`). So the maps are shifted by their midrange c,
    one scalar per leading index, which keeps a constant image at exactly
    -offset and scales the product's rounding with the pixels' spread, not
    their level; the raw shifted patches are multiplied by W_c, and each
    output row is divided by its window's peak, from a sliding max over the
    maps. All of it is float32: the maps are rounded once, and the patch
    rows and the output are float32. Works through a band of output rows of
    a few leading indices at a time, so the patch copy holds about
    _CONV_ROWS patches, not one per output position. The band's rows do not
    depend on the leading shape, because BLAS rounds a product differently
    when its row count changes.
    """
    lead = maps.shape[:-3]
    out_h, out_w = conv_output_shape(*maps.shape[-3:-1], p)
    maps = maps.reshape(-1, *maps.shape[-3:]).astype(np.float32, copy=False)
    peaks = _window_peaks(maps, p).reshape(len(maps), -1, 1)
    midrange = 0.5 * maps.max(axis=(1, 2, 3)) + 0.5 * maps.min(axis=(1, 2, 3))
    maps = maps - midrange[:, None, None, None]
    weights = bank.centered.reshape(-1, bank.dim, bank.k)
    offset = bank.offset.reshape(-1, 1, bank.k)
    out = np.empty((len(maps), out_h * out_w, bank.k), dtype=np.float32)
    band = max(1, _CONV_ROWS // out_w)
    chunk = max(1, _CONV_ROWS // (min(band, out_h) * out_w))
    for lo in range(0, len(maps), chunk):
        for top in range(0, out_h, band):
            rows, _ = dense_patches(maps[lo : lo + chunk, top : top + band + p - 1], p)
            positions = slice(top * out_w, (top + band) * out_w)
            block = out[lo : lo + chunk, positions]
            np.matmul(rows, weights[lo : lo + chunk], out=block)
            block /= peaks[lo : lo + chunk, positions]
            block -= offset[lo : lo + chunk]
    return out.reshape(*lead, out_h, out_w, bank.k)


def _rectify(maps: np.ndarray, rectifier: str) -> np.ndarray:
    """abs in place, or for on_off a new array of the maps' dtype with the
    ON/OFF channels interleaved."""
    if rectifier == "abs":
        return np.abs(maps, out=maps)
    out = np.empty((*maps.shape[:-1], 2 * maps.shape[-1]), dtype=maps.dtype)
    on, off = out[..., 0::2], out[..., 1::2]
    np.maximum(maps, 0.0, out=on)
    # negated in place: a -maps temporary takes n5's layer 1 past the heap's
    # trim threshold, and every image then faults its buffers in afresh
    np.maximum(np.negative(maps, out=off), 0.0, out=off)
    return out


def _lcn_weighted_sum(field: np.ndarray, depth: int, window: int, sigma: float) -> np.ndarray:
    """Gaussian-weighted local sum of (..., H, W) depth sums, weights totalling 1.

    The weighting window is a single 2D Gaussian replicated across depth and
    normalized so it sums to 1 over (depth, rows, cols); each leading index
    gets its own 2D field. Borders reflect (symmetric half-sample padding,
    ndimage's "reflect"). The 2D Gaussian is the outer product of a 1D one,
    so it is applied in the field's dtype as one 1D correlation down the
    rows and one along the columns.
    """
    half = window // 2
    taps = np.exp(-(np.arange(-half, half + 1, dtype=np.float64) ** 2) / (2.0 * sigma * sigma))
    taps = (taps / taps.sum()).astype(field.dtype)
    padded = np.pad(field, [(0, 0)] * (field.ndim - 2) + [(half, half)] * 2, mode="symmetric")
    height, width = field.shape[-2:]
    down = taps[0] * padded[..., :height, :]
    for i in range(1, window):
        down += taps[i] * padded[..., i : i + height, :]
    out = taps[0] * down[..., :width]
    for j in range(1, window):
        out += taps[j] * down[..., j : j + width]
    out /= depth
    return out


def _lcn_subtract(maps: np.ndarray, window: int, sigma: float) -> None:
    """In place on (..., H, W, depth): subtract the local mean across all maps."""
    maps -= _lcn_weighted_sum(maps.sum(axis=-1), maps.shape[-1], window, sigma)[..., None]


def _lcn_divide(maps: np.ndarray, window: int, sigma: float) -> None:
    """In place on (..., H, W, depth): divide by the floored local standard deviation.

    The floor is the mean local standard deviation of each leading index
    (one image, or one group of one image); a stack whose floor is 0 is all
    zero and stays so. Works in the maps' dtype.
    """
    energy = _lcn_weighted_sum(
        np.einsum("...d,...d->...", maps, maps), maps.shape[-1], window, sigma
    )
    local_sd = np.sqrt(np.maximum(energy, 0.0))
    floor = local_sd.mean(axis=(-2, -1), keepdims=True)
    maps /= np.maximum(local_sd, np.where(floor == 0.0, 1.0, floor))[..., None]


def _pool(maps: np.ndarray, pool_side: int, stride: int, alpha: float) -> np.ndarray:
    """Lp pooling y = (sum x^alpha)^(1/alpha) over pool_side windows.

    Works on (..., H, W, depth) maps. Windows advance by `stride` per
    feature map; partial windows at the right/bottom edges are dropped.
    alpha=1 is the window sum (average pooling up to a constant); large even
    alpha approaches the window max of |x|. The layer records admit only
    these alphas, which are defined on the signed LCN output. The result
    has the maps' dtype; the powers are summed in float64, where float32
    would overflow once alpha * log10|x| passes 38.
    """
    windows = sliding_window_view(maps, (pool_side, pool_side), axis=(-3, -2))
    windows = windows[..., ::stride, ::stride, :, :, :]
    if alpha == 1.0:
        return windows.sum(axis=(-2, -1))
    powers = np.power(windows, alpha, dtype=np.float64).sum(axis=(-2, -1))
    return np.power(powers, 1.0 / alpha).astype(maps.dtype, copy=False)


def make_groups(k1: int, n_k: int, rng: SeededRng) -> np.ndarray:
    """Uniformly random partition of [0, k1) into a (k1/n_k, n_k) table, one group a row."""
    if k1 < 1 or n_k < 1 or k1 % n_k != 0:
        raise InvalidGrouping(f"group size {n_k} does not divide {k1} feature maps")
    return rng.generator().permutation(k1).reshape(-1, n_k)


def _forward(
    maps: np.ndarray, bank: FilterBank, cfg: Layer1Config | Layer2Config, rectifier: str, what: str
) -> np.ndarray:
    """Convolve, rectify, subtractive LCN, divisive LCN and pool (..., H, W, depth) maps.

    The bank's leading shape must equal the maps' and its filter dim the
    record's patch side squared times the maps' depth; the maps must pass
    :func:`layer_output_shape`. Raises NonFiniteValue, naming `what`, if the
    output holds a NaN or Inf.
    """
    if bank.lead != maps.shape[:-3]:
        raise DimError(
            f"filter bank stacked as {bank.lead} does not fit maps of shape {maps.shape}"
        )
    p, depth = cfg.patch_side, maps.shape[-1]
    if bank.dim != p * p * depth:
        raise DimError(f"filter dim {bank.dim} is not the layer's {p}^2 * input depth {depth}")
    layer_output_shape(*maps.shape[-3:-1], bank.k, cfg, rectifier)
    maps = _rectify(_convolve(maps, bank, p), rectifier)
    _lcn_subtract(maps, cfg.lcn_window, cfg.lcn_sigma)
    _lcn_divide(maps, cfg.lcn_window, cfg.lcn_sigma)
    out = _pool(maps, cfg.pool_side, cfg.pool_stride, cfg.pool_alpha)
    assert_array_finite(out, what=what)
    return out


def run_layer(
    fmset: FeatureMapSet, bank: FilterBank, cfg: Layer1Config | Layer2Config, rectifier: str
) -> np.ndarray:
    """Full layer on one image's maps: convolve, rectify, contrast-normalize, pool.

    bank is a single (d, K) bank; cfg is the layer's record
    (``NetworkConfig.layer1`` or ``.layer2``), which gives the patch side p,
    so d must be p^2 times the maps' depth; rectifier is the network's, one
    of :data:`RECTIFIERS`. Returns the float32 (h, w, depth) output maps.
    """
    return _forward(
        fmset.maps, bank, cfg, rectifier, f"feature maps of image {fmset.source_image_id}"
    )


def run_groups(
    maps: np.ndarray, groups: np.ndarray, bank: FilterBank, cfg: Layer2Config, rectifier: str
) -> np.ndarray:
    """Layer 2 over every group of one image's (H, W, K1) layer-1 maps at once.

    groups is the (G, n_k) table of map indices, one group a row (see
    :func:`make_groups`); bank is the (G, d, K) stack, bank g for group g.
    Returns (G, h, w, depth): group g equals :func:`run_layer` on
    ``maps[:, :, groups[g]]`` with bank g, up to summation-order rounding,
    and the LCN floor is taken per group.
    """
    grouped = maps[:, :, groups].transpose(2, 0, 1, 3)
    return _forward(grouped, bank, cfg, rectifier, "layer-2 feature maps")


def layer_output_shape(
    height: int, width: int, bank_k: int, cfg: Layer1Config | Layer2Config, rectifier: str
) -> tuple[int, int, int]:
    """Closed-form output shape of :func:`run_layer` on a height x width input.

    Raises the errors :func:`run_layer` would raise for that input, so an
    impossible shape chain fails before any training; it is the one check
    that a window fits its map. It also refuses an unknown rectifier, which
    a NetworkConfig refuses when built but a direct caller may pass.
    """
    if rectifier not in RECTIFIERS:
        raise ValueError(f"rectifier must be one of {RECTIFIERS}, got {rectifier!r}")
    if cfg.patch_side > min(height, width):
        raise DimError(f"filter side {cfg.patch_side} exceeds map size {height}x{width}")
    conv_h, conv_w = conv_output_shape(height, width, cfg.patch_side)
    for what, side in (("LCN window", cfg.lcn_window), ("pool window", cfg.pool_side)):
        if side > min(conv_h, conv_w):
            raise InvalidWindow(f"{what} {side} exceeds map size {conv_h}x{conv_w}")
    out_h = pool_output_shape(conv_h, cfg.pool_side, cfg.pool_stride)
    out_w = pool_output_shape(conv_w, cfg.pool_side, cfg.pool_stride)
    depth = bank_k * (2 if rectifier == "on_off" else 1)
    return out_h, out_w, depth
