"""Deterministic training-set augmentation (mirroring, rotation) and scaling.

Labels are invariant under every transform here. Test images are never
augmented; :func:`scale` is the resolution change a network applies to every
image it sees (``NetworkConfig.scale_factor``), never an extra training copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stl10 import LabeledImage

MAX_ROTATION_DEG = 45.0


@dataclass(frozen=True)
class AugmentPlan:
    """Which transforms :func:`expand_set` applies to a training set."""

    mirror: bool = False
    rotations_deg: tuple[float, ...] = ()

    def __post_init__(self):
        rotations = tuple(float(a) for a in self.rotations_deg)
        for a in rotations:
            if not abs(a) <= MAX_ROTATION_DEG:  # NaN fails too
                raise ValueError(f"rotations_deg: |angle| must be <= {MAX_ROTATION_DEG}, got {a}")
        object.__setattr__(self, "rotations_deg", rotations)


def mirror_lr(img: LabeledImage) -> LabeledImage:
    """Left-right mirror: output[i, j] = input[i, W-1-j]."""
    return LabeledImage(img.pixels[:, ::-1].copy(), img.label, img.image_id)


def rotate(img: LabeledImage, angle_deg: float) -> LabeledImage:
    """Rotate about the image center with bilinear interpolation.

    Output size equals input size; samples falling outside the input take
    the value 0. Positive angles rotate content counterclockwise (row 0 at
    the top). Inverse mapping: each output pixel samples the input at the
    backward-rotated coordinate. Augmentation plans keep |angle| <= 45 so
    the clipped corners stay small; the function itself accepts any angle.
    """
    h, w = img.pixels.shape
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0

    rows = np.arange(h, dtype=np.float64)[:, None] - cy
    cols = np.arange(w, dtype=np.float64)[None, :] - cx
    src_r = cos_t * rows - sin_t * cols + cy
    src_c = sin_t * rows + cos_t * cols + cx

    out = _bilinear_sample(img.pixels, src_r, src_c)
    return LabeledImage(out, img.label, img.image_id)


def _bilinear_sample(pixels: np.ndarray, src_r: np.ndarray, src_c: np.ndarray) -> np.ndarray:
    """Sample at fractional coordinates; out-of-bounds neighbors read as 0."""
    h, w = pixels.shape
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = src_r - r0
    fc = src_c - c0

    out = np.zeros(np.broadcast(src_r, src_c).shape, dtype=np.float64)
    for dr, dc, weight in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        vals = np.where(inside, pixels[np.clip(rr, 0, h - 1), np.clip(cc, 0, w - 1)], 0.0)
        out += weight * vals
    return out


def scale(img: LabeledImage, factor: float) -> LabeledImage:
    """Downscale by area averaging; output dims are round(dim * factor)."""
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"factor must be in (0, 1], got {factor}")
    if factor == 1.0:
        return img
    h, w = img.pixels.shape
    out_h, out_w = _scaled_shape(h, w, factor)
    wy = _box_weights(h, out_h)
    wx = _box_weights(w, out_w)
    return LabeledImage(wy @ img.pixels @ wx.T, img.label, img.image_id)


def _scaled_shape(height: int, width: int, factor: float) -> tuple[int, int]:
    """Image size after :func:`scale`: round(side * factor), at least 1."""
    return max(1, round(height * factor)), max(1, round(width * factor))


def _box_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row i averages the source interval [i*s, (i+1)*s), s = n_in/n_out.

    Partial source-cell coverage is weighted by overlap length, so constants
    are preserved exactly and integer ratios reduce to block means.
    """
    s = n_in / n_out
    weights = np.zeros((n_out, n_in), dtype=np.float64)
    for i in range(n_out):
        lo = i * s
        hi = (i + 1) * s
        j0 = int(math.floor(lo))
        j1 = min(n_in, int(math.ceil(hi)))
        for j in range(j0, j1):
            overlap = min(hi, j + 1) - max(lo, j)
            if overlap > 0:
                weights[i, j] = overlap / s
    return weights


def expand_set(images: list[LabeledImage], plan: AugmentPlan) -> list[LabeledImage]:
    """Originals, then all mirrored copies, then each rotation in plan order."""
    out = list(images)
    if plan.mirror:
        out.extend(mirror_lr(img) for img in images)
    for angle in plan.rotations_deg:
        out.extend(rotate(img, angle) for img in images)
    return out
