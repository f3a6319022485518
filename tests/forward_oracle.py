"""Reference forward pass: one image, one layer-2 group at a time.

This is the per-image, per-group path the package used before the batched
one: dense patches as columns, patch normalization and the ZCA applied to
every patch before the filter product, LCN by a 2D ``ndimage.correlate`` and
pooling one stack at a time, all in float64. Tests compare the package's
float32 :func:`cdfnet.pipeline.extract_descriptors` against it. A layer is
given either raw filters with their whitening, which it applies explicitly
(the reference for the fold), or a stored bank, whose folded filters and
offset it applies in float64.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from cdfnet.layer import FilterBank
from cdfnet.patches import ZcaTransform


def normalize_patch(patch: np.ndarray) -> np.ndarray:
    """Scale by 1/max|x_i|, then subtract the mean; the zero vector stays zero."""
    patch = np.asarray(patch, dtype=np.float64)
    peak = np.max(np.abs(patch))
    if peak == 0.0:
        return np.zeros_like(patch)
    scaled = patch / peak
    return scaled - scaled.mean()


def _convolve(maps, bank, p):
    """(H, W, depth) maps against one bank: every p x p patch normalized, then
    whitened and multiplied by raw (d, K) filters for a (filters, ZcaTransform)
    pair, or multiplied by a FilterBank's filters and shifted by its offset."""
    windows = sliding_window_view(maps, (p, p), axis=(0, 1))
    out_h, out_w = windows.shape[:2]
    cols = np.stack([normalize_patch(c) for c in windows.reshape(out_h * out_w, -1)], axis=1)
    if isinstance(bank, FilterBank):
        out = bank.filters.T.astype(np.float64) @ cols - bank.offset[:, None]
    else:
        filters, zca = bank
        out = filters.T @ (zca.matrix @ (cols - zca.mean[:, None]))
    return out.T.reshape(out_h, out_w, -1)


def _rectify(maps, rectifier):
    if rectifier == "abs":
        return np.abs(maps)
    out = np.empty(maps.shape[:2] + (2 * maps.shape[2],))
    out[:, :, 0::2] = np.maximum(maps, 0.0)
    out[:, :, 1::2] = np.maximum(-maps, 0.0)
    return out


def gaussian_window(side, sigma):
    """Unnormalized 2D Gaussian on integer offsets, side x side, side odd."""
    half = (side - 1) // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g1 = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    return np.outer(g1, g1)


def _weighted_sum(stack, window, sigma):
    kernel = gaussian_window(window, sigma)
    kernel = kernel / (kernel.sum() * stack.shape[2])
    return ndimage.correlate(stack.sum(axis=2), kernel, mode="reflect")


def _lcn(maps, window, sigma):
    maps = maps - _weighted_sum(maps, window, sigma)[:, :, None]
    local_sd = np.sqrt(np.maximum(_weighted_sum(maps**2, window, sigma), 0.0))
    floor = float(local_sd.mean())
    if floor == 0.0:
        return maps
    return maps / np.maximum(local_sd, floor)[:, :, None]


def _pool(maps, side, stride, alpha):
    windows = sliding_window_view(maps, (side, side), axis=(0, 1))[::stride, ::stride]
    if alpha == 1.0:
        return windows.sum(axis=(-2, -1))
    return np.power(np.power(windows, alpha).sum(axis=(-2, -1)), 1.0 / alpha)


def run_layer(maps, bank, cfg, rectifier):
    out = _convolve(maps, bank, cfg.patch_side)
    out = _lcn(_rectify(out, rectifier), cfg.lcn_window, cfg.lcn_sigma)
    return _pool(out, cfg.pool_side, cfg.pool_stride, cfg.pool_alpha)


def group_bank(bank, g: int):
    """Bank g of a (G, d, K) stack: a FilterBank, or a raw (filters, whitening) pair."""
    if isinstance(bank, FilterBank):
        return FilterBank(bank.filters[g], bank.offset[g])
    filters, zca = bank
    return filters[g], ZcaTransform(zca.mean[g], zca.matrix[g])


def extract_descriptors(model, images, raw_banks=None):
    """Descriptor matrix of images, computed image by image and group by group.

    raw_banks, if given, is the ((filters, whitening), (filters, whitening))
    pair of both layers before the fold, used in place of the model's banks.
    """
    from cdfnet.augment import scale

    cfg = model.config
    bank1, bank2 = raw_banks or (model.bank1, model.bank2)
    rows = []
    for img in images:
        if cfg.scale_factor != 1.0:
            img = scale(img, cfg.scale_factor)
        out1 = run_layer(img.pixels[:, :, None], bank1, cfg.layer1, cfg.rectifier)
        rows.append(np.concatenate([
            run_layer(out1[:, :, list(group)], group_bank(bank2, g), cfg.layer2, cfg.rectifier)
            .ravel()
            for g, group in enumerate(model.groups)
        ]))
    return np.array(rows)
