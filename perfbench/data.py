"""Seeded synthetic dataset in the STL-10 binary layout.

Ten classes: five orientation patterns times two spatial frequencies, 96x96
RGB, with random phase, contrast, brightness, colour tint and pixel noise.
An orientation pattern is a horizontal or a vertical grating, or a plaid of
the two gratings at +theta and -theta. Every pattern is its own left-right
mirror image, so the shipped configs' mirror augmentation keeps labels true,
and the patterns stay apart by more than their +-10 degree rotations.
"""

from __future__ import annotations

import os

import numpy as np

SIDE = 96
N_CLASSES = 10
N_FOLDS = 10
ORIENTATIONS_DEG = (0.0, 22.5, 45.0, 67.5, 90.0)
PERIODS_PX = (24.0, 8.0)
NOISE_SD = 0.3


def grating_rgb(label: int, noise_sd: float, rng: np.random.Generator) -> np.ndarray:
    """One float RGB image (96, 96, 3) in [0, 1] for the given class."""
    angle = ORIENTATIONS_DEG[label % 5]
    period = PERIODS_PX[label // 5]
    rows, cols = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    angles = (angle,) if angle in (0.0, 90.0) else (angle, -angle)
    wave = np.zeros((SIDE, SIDE))
    for a in angles:
        theta = np.deg2rad(a)
        t = cols * np.cos(theta) + rows * np.sin(theta)
        wave += np.sin(2.0 * np.pi * t / period + rng.uniform(0.0, 2.0 * np.pi))
    contrast = rng.uniform(0.3, 0.45)
    base = rng.uniform(0.4, 0.6)
    gray = base + contrast * wave / len(angles)
    tint = rng.uniform(0.85, 1.15, size=3)
    rgb = gray[:, :, None] * tint[None, None, :]
    rgb = rgb + rng.normal(0.0, noise_sd, size=rgb.shape)
    return np.clip(rgb, 0.0, 1.0)


def make_split(n: int, noise_sd: float, rng: np.random.Generator):
    """n images, every class n/10 times, in shuffled order: (float rgb, labels)."""
    labels = rng.permutation(np.arange(n) % N_CLASSES)
    rgb = np.stack([grating_rgb(int(c), noise_sd, rng) for c in labels])
    return rgb, labels


def expected_gray(rgb: np.ndarray) -> np.ndarray:
    """Luma of the float images, as README "Data files" defines it."""
    return rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114


def write_dataset(
    out_dir: str, seed: int, fold_size: int, n_test: int, noise_sd: float = NOISE_SD
) -> dict:
    """Write train/test images, labels and a 10-line fold file.

    As in STL-10 (5000 training images, ten overlapping folds of 1000), the
    training split holds 5 * fold_size images and each fold is a random
    subset of fold_size of them, here with every class equally often.
    Returns the file paths, the labels and the float grayscale the loader
    must reproduce.
    """
    if fold_size % N_CLASSES or n_test % N_CLASSES:
        raise ValueError(f"fold and test sizes must be multiples of {N_CLASSES}")
    rng = np.random.default_rng(seed)
    paths = {}
    gray = {}
    labels = {}
    for split, n in (("train", 5 * fold_size), ("test", n_test)):
        rgb, y = make_split(n, noise_sd, rng)
        x_path = os.path.join(out_dir, f"{split}_X.bin")
        y_path = os.path.join(out_dir, f"{split}_y.bin")
        # written here rather than by the package, so that check_loader
        # tests the package's reader against the documented layout: per
        # image the red, green and blue planes, each stored column-major
        pixels = np.rint(rgb * 255.0).astype(np.uint8)
        pixels.transpose(0, 3, 2, 1).tofile(x_path)
        (y + 1).astype(np.uint8).tofile(y_path)
        paths[f"{split}_x"], paths[f"{split}_y"] = x_path, y_path
        gray[split] = expected_gray(rgb)
        labels[split] = y
    by_class = [np.flatnonzero(labels["train"] == c) for c in range(N_CLASSES)]
    paths["folds"] = os.path.join(out_dir, "fold_indices.txt")
    with open(paths["folds"], "w", encoding="ascii") as fh:
        for _ in range(N_FOLDS):
            fold = np.concatenate(
                [rng.choice(idx, fold_size // N_CLASSES, replace=False) for idx in by_class]
            )
            fh.write(" ".join(str(i) for i in np.sort(fold)) + "\n")
    return {"paths": paths, "gray": gray, "labels": labels}


def check_loader(dataset: dict) -> float:
    """Largest |load_stl10 pixel - generated gray| over both splits.

    Raises if it exceeds 1/255 or a label differs, so a loader fault fails
    the run instead of only changing its speed.
    """
    from cdfnet import load_stl10

    worst = 0.0
    for split in ("train", "test"):
        paths = dataset["paths"]
        images = load_stl10(paths[f"{split}_x"], paths[f"{split}_y"])
        want = dataset["gray"][split]
        if len(images) != want.shape[0]:
            raise AssertionError(f"{split}: loaded {len(images)} images, wrote {want.shape[0]}")
        got = np.stack([img.pixels for img in images])
        worst = max(worst, float(np.max(np.abs(got - want))))
        got_labels = np.array([img.label for img in images])
        if not np.array_equal(got_labels, dataset["labels"][split]):
            raise AssertionError(f"{split}: loaded labels differ from the generated ones")
    if worst > 1.0 / 255.0:
        raise AssertionError(f"loader grayscale off by {worst:.5f} > 1/255")
    return worst
