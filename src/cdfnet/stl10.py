"""STL-10 binary I/O, grayscale conversion, and the predefined fold protocol.

The on-disk layout is the published one: uint8 pixels, one image = 96*96
bytes of red, then green, then blue, each color plane stored column-major.
Labels are one byte per image, 1-based on disk and 0-based in memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

IMAGE_SIDE = 96
BYTES_PER_IMAGE = IMAGE_SIDE * IMAGE_SIDE * 3  # 27648
LOAD_BLOCK = 64  # images converted to grayscale together by load_stl10
NUM_CLASSES = 10
NUM_FOLDS = 10
TRAIN_SIZE = 5000


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

    Indices must be unique within a fold and smaller than ``n_train``.
    The STL-10 plan has 10 folds of 1000 indices into 5000 images;
    :func:`load_fold_plan` enforces that shape, synthetic plans may be
    smaller.
    """

    folds: tuple[tuple[int, ...], ...]
    n_train: int = TRAIN_SIZE

    def __post_init__(self):
        folds = tuple(tuple(int(i) for i in fold) for fold in self.folds)
        for fi, fold in enumerate(folds):
            if len(set(fold)) != len(fold):
                raise FormatError(f"fold {fi} contains duplicate indices")
            for i in fold:
                if not 0 <= i < self.n_train:
                    raise FormatError(
                        f"fold {fi} index {i} outside [0, {self.n_train})"
                    )
        object.__setattr__(self, "folds", folds)

    def check_fold(self, fold: int, n_images: int) -> None:
        """Raise ValueError unless fold is in [0, number of folds) and all its
        image indices are below n_images, the number of images loaded."""
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


def read_stl10_images(images_path) -> np.ndarray:
    """Decode an STL-10 image file to a uint8 array (n, 96, 96, 3)."""
    raw = np.fromfile(images_path, dtype=np.uint8)
    if raw.size == 0 or raw.size % BYTES_PER_IMAGE != 0:
        raise FormatError(
            f"{images_path}: size {raw.size} is not a positive multiple "
            f"of {BYTES_PER_IMAGE}"
        )
    n = raw.size // BYTES_PER_IMAGE
    # (n, channel, column, row) on disk; transpose to (n, row, column, channel)
    planes = raw.reshape(n, 3, IMAGE_SIDE, IMAGE_SIDE)
    return planes.transpose(0, 3, 2, 1)


def write_stl10_images(images_path, rgb: np.ndarray) -> None:
    """Write uint8 images (n, 96, 96, 3) in the STL-10 binary layout."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 4 or rgb.shape[1:] != (IMAGE_SIDE, IMAGE_SIDE, 3):
        raise FormatError(f"expected (n, 96, 96, 3) uint8 array, got {rgb.shape}")
    planes = rgb.transpose(0, 3, 2, 1)
    planes.tofile(images_path)


def read_stl10_labels(labels_path) -> np.ndarray:
    """Decode an STL-10 label file to 0-based int labels."""
    raw = np.fromfile(labels_path, dtype=np.uint8)
    if raw.size == 0:
        raise FormatError(f"{labels_path}: empty label file")
    labels = raw.astype(np.int64) - 1
    if labels.min() < 0 or labels.max() >= NUM_CLASSES:
        raise FormatError(
            f"{labels_path}: labels must be 1..{NUM_CLASSES} on disk"
        )
    return labels


def write_stl10_labels(labels_path, labels) -> None:
    """Write 0-based labels as the 1-based uint8 STL-10 label file."""
    labels = np.asarray(labels, dtype=np.int64)
    (labels + 1).astype(np.uint8).tofile(labels_path)


def load_stl10(images_path, labels_path=None) -> list[LabeledImage]:
    """Load an STL-10 split as grayscale images with 0-based labels.

    With no labels file every label reads as 0 — handy when only the pixels
    matter, e.g. descriptor extraction before unlabeled scoring.
    """
    paths = (images_path,) if labels_path is None else (images_path, labels_path)
    for p in paths:
        if not os.path.exists(p):
            raise FormatError(f"no such file: {p}")
    rgb = read_stl10_images(images_path)
    if labels_path is None:
        labels = np.zeros(rgb.shape[0], dtype=np.int64)
    else:
        labels = read_stl10_labels(labels_path)
    if rgb.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{rgb.shape[0]} images but {labels.shape[0]} labels"
        )
    # a float RGB copy of a whole split would hold 221 KB per image at once
    # (1.8 GB for the 8000 test images), so convert a block at a time
    gray = np.empty(rgb.shape[:3])
    for start in range(0, rgb.shape[0], LOAD_BLOCK):
        scaled = rgb[start : start + LOAD_BLOCK].astype(np.float64) / 255.0
        gray[start : start + LOAD_BLOCK] = to_grayscale(
            scaled[..., 0], scaled[..., 1], scaled[..., 2]
        )
    return [
        LabeledImage(gray[i], int(labels[i]), image_id=i)
        for i in range(gray.shape[0])
    ]


def load_fold_plan(path) -> FoldPlan:
    """Parse the 10-fold index file (10 lines, whitespace-separated, 0-based).

    The STL-10 plan has 1000 indices per line; shorter lines are accepted so
    synthetic protocols can reuse the format.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.split() for line in fh if line.strip()]
    if len(lines) != NUM_FOLDS:
        raise FormatError(f"{path}: expected {NUM_FOLDS} folds, got {len(lines)}")
    folds = []
    for fi, tokens in enumerate(lines):
        try:
            folds.append(tuple(int(t) for t in tokens))
        except ValueError as exc:
            raise FormatError(f"{path}: fold {fi} has a non-integer token") from exc
    return FoldPlan(tuple(folds), n_train=TRAIN_SIZE)


def write_fold_plan(path, plan: FoldPlan) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for fold in plan.folds:
            fh.write(" ".join(str(i) for i in fold) + "\n")
