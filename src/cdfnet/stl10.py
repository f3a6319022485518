"""STL-10 binary I/O, grayscale conversion, and the predefined fold protocol.

The on-disk layout is the published one: uint8 pixels, one image = 96*96
bytes of red, then green, then blue, each color plane stored column-major.
Labels are one byte per image, 1-based on disk and 0-based in memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, naming

IMAGE_SIDE = 96
BYTES_PER_IMAGE = IMAGE_SIDE * IMAGE_SIDE * 3  # 27648
LOAD_BLOCK = 64  # images converted to grayscale together by load_stl10
NUM_CLASSES = 10
NUM_FOLDS = 10


@dataclass(frozen=True)
class LabeledImage:
    """A grayscale image with values in [0, 1] and a 0-based class label."""

    pixels: np.ndarray
    label: int
    image_id: int = -1

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.ndim != 2:
            raise ValueError(f"pixels must be 2D, got ndim={pixels.ndim}")
        if self.label < 0:
            raise ValueError(f"label must be non-negative, got {self.label}")
        view = pixels.view()
        view.setflags(write=False)
        object.__setattr__(self, "pixels", view)


@dataclass(frozen=True)
class FoldPlan:
    """Lists of training-image indices, one list per fold.

    Indices must be non-negative and unique within a fold; :meth:`check_fold`
    bounds them by the number of images. The STL-10 plan has 10 folds of 1000
    indices into 5000 images; :func:`load_fold_plan` enforces the fold count,
    synthetic plans may be smaller.
    """

    folds: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        folds = tuple(tuple(int(i) for i in fold) for fold in self.folds)
        for fi, fold in enumerate(folds):
            if not fold:
                raise FormatError(f"fold {fi} is empty")
            if len(set(fold)) != len(fold):
                raise FormatError(f"fold {fi} contains duplicate indices")
            if min(fold) < 0:
                raise FormatError(f"fold {fi} lists negative index {min(fold)}")
        object.__setattr__(self, "folds", folds)

    def check_fold(self, fold: int, n_images: int) -> None:
        """Raise ValueError unless fold is in [0, number of folds) and all of
        its image indices are below n_images, the number of training images."""
        if not 0 <= fold < len(self.folds):
            raise ValueError(f"fold {fold} out of range: the plan has {len(self.folds)} folds")
        for i in self.folds[fold]:
            if i >= n_images:
                raise ValueError(
                    f"fold {fold} lists image {i}, but only {n_images} images were loaded"
                )


def to_grayscale(r, g, b):
    """ITU-R BT.601 luma: 0.299 r + 0.587 g + 0.114 b.

    Works elementwise on arrays. The association keeps (1,1,1) -> 1.0 exact.
    """
    return r * 0.299 + (g * 0.587 + b * 0.114)


def count_stl10_images(images_path) -> int:
    """The number of images in an STL-10 image file, told by its size alone,
    so that a fold can be checked against it before the file is decoded."""
    with open(images_path, "rb") as fh, naming(images_path):
        size = os.fstat(fh.fileno()).st_size
        if size == 0 or size % BYTES_PER_IMAGE != 0:
            raise FormatError(f"size {size} is not a positive multiple of {BYTES_PER_IMAGE}")
        return size // BYTES_PER_IMAGE


def read_stl10_images(images_path) -> np.ndarray:
    """Decode an STL-10 image file to a uint8 array (n, 96, 96, 3)."""
    n = count_stl10_images(images_path)
    raw = np.fromfile(images_path, dtype=np.uint8, count=n * BYTES_PER_IMAGE)
    # (n, channel, column, row) on disk; transpose to (n, row, column, channel)
    planes = raw.reshape(n, 3, IMAGE_SIDE, IMAGE_SIDE)
    return planes.transpose(0, 3, 2, 1)


def read_stl10_labels(labels_path) -> np.ndarray:
    """Decode an STL-10 label file to 0-based int labels."""
    raw = np.fromfile(labels_path, dtype=np.uint8)
    labels = raw.astype(np.int64) - 1
    with naming(labels_path):
        if raw.size == 0:
            raise FormatError("empty label file")
        if labels.min() < 0 or labels.max() >= NUM_CLASSES:
            raise FormatError(f"labels must be 1..{NUM_CLASSES} on disk")
    return labels


def load_stl10(images_path, labels_path=None) -> list[LabeledImage]:
    """Load an STL-10 split as grayscale images with 0-based labels.

    With no labels file every label reads as 0 — handy when only the pixels
    matter, e.g. descriptor extraction before unlabeled scoring.
    """
    rgb = read_stl10_images(images_path)
    if labels_path is None:
        labels = np.zeros(rgb.shape[0], dtype=np.int64)
    else:
        labels = read_stl10_labels(labels_path)
        with naming(labels_path):
            if labels.shape[0] != rgb.shape[0]:
                raise FormatError(f"{rgb.shape[0]} images but {labels.shape[0]} labels")
    # a float RGB copy of a whole split would hold 221 KB per image at once
    # (1.8 GB for the 8000 test images), so convert a block at a time
    gray = np.empty(rgb.shape[:3])
    for start in range(0, rgb.shape[0], LOAD_BLOCK):
        scaled = rgb[start : start + LOAD_BLOCK].astype(np.float64) / 255.0
        gray[start : start + LOAD_BLOCK] = to_grayscale(
            scaled[..., 0], scaled[..., 1], scaled[..., 2]
        )
    return [LabeledImage(gray[i], int(labels[i]), image_id=i) for i in range(len(gray))]


def load_fold_plan(path) -> FoldPlan:
    """Parse the 10-fold index file (10 lines, whitespace-separated, 0-based).

    The STL-10 plan has 1000 indices per line; shorter lines are accepted so
    synthetic protocols can reuse the format.
    """
    with open(path, "r", encoding="ascii") as fh, naming(path):
        folds = [tuple(int(t) for t in line.split()) for line in fh if line.strip()]
        if len(folds) != NUM_FOLDS:
            raise FormatError(f"expected {NUM_FOLDS} folds, got {len(folds)}")
        return FoldPlan(tuple(folds))
