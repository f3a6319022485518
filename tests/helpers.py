"""Shared fixtures: synthetic stripe datasets and small network configs.

The stripe task is two-class (horizontal vs vertical sinusoidal gratings with
random frequency/phase plus clipped Gaussian noise). Oriented 2D filters
separate it linearly, which makes it a cheap stand-in for the real data when
exercising the full train/score path.
"""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np

from cdfnet import AugmentPlan, LabeledImage
from cdfnet.config import Layer1Config, Layer2Config, NetworkConfig, network_config_to_text
from cdfnet.layer import FilterBank
from cdfnet.model_io import MAGIC, VERSION, write_container
from cdfnet.patches import ZcaTransform
from cdfnet.stl10 import IMAGE_SIDE


def stripe_image(horizontal: bool, side: int, noise: float, rng: np.random.Generator):
    freq = rng.uniform(2.0, 5.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.linspace(0.0, 2.0 * np.pi, side)
    wave = 0.5 + 0.5 * np.sin(freq * t + phase)
    if horizontal:
        img = np.tile(wave[:, None], (1, side))
    else:
        img = np.tile(wave[None, :], (side, 1))
    img = img + rng.normal(0.0, noise, (side, side))
    return np.clip(img, 0.0, 1.0)


def stripe_dataset(
    n: int, side: int = 64, noise: float = 0.15, seed: int = 0, first_id: int = 0
) -> list[LabeledImage]:
    """n alternating horizontal(0)/vertical(1) stripe images."""
    rng = np.random.default_rng(seed)
    images = []
    for i in range(n):
        horizontal = i % 2 == 0
        images.append(
            LabeledImage(
                stripe_image(horizontal, side, noise, rng),
                0 if horizontal else 1,
                image_id=first_id + i,
            )
        )
    return images


def toy_config(
    name: str = "toy",
    k1: int = 16,
    patch_side: int = 8,
    pool1: tuple[int, int] = (8, 8),
    k2: int = 16,
    pool2: tuple[int, int] = (5, 5),
    seed: int = 1,
    rectifier: str = "abs",
    mirror: bool = False,
    n_patches1: int = 20_000,
    n_patches2: int = 5_000,
    svm_reg_c: float = 16.0,
) -> NetworkConfig:
    """Reduced network for 64x64 inputs: descriptor = (k1/4) groups x k2."""
    return NetworkConfig(
        name=name,
        rectifier=rectifier,
        layer1=Layer1Config(
            filters=k1,
            patch_side=patch_side,
            pool_side=pool1[0],
            pool_stride=pool1[1],
            lcn_window=9,
            lcn_sigma=2.25,
            patches=n_patches1,
        ),
        layer2=Layer2Config(
            filters_per_group=k2,
            patch_side=3,
            group_size=4,
            pool_side=pool2[0],
            pool_stride=pool2[1],
            lcn_window=3,
            lcn_sigma=0.75,
            patches=n_patches2,
        ),
        augment=AugmentPlan(mirror=mirror),
        svm_reg_c=svm_reg_c,
        seed=seed,
    )


def micro_config(name: str = "micro", seed: int = 1) -> NetworkConfig:
    """Tiny 96x96 network for fast CLI / protocol tests."""
    return NetworkConfig(
        name=name,
        layer1=Layer1Config(
            filters=4,
            patch_side=8,
            pool_side=16,
            pool_stride=16,
            lcn_window=3,
            lcn_sigma=0.75,
            patches=500,
        ),
        layer2=Layer2Config(
            filters_per_group=4,
            patch_side=3,
            group_size=4,
            pool_side=3,
            pool_stride=3,
            lcn_window=3,
            lcn_sigma=0.75,
            patches=500,
        ),
        augment=AugmentPlan(mirror=True),
        svm_reg_c=16.0,
        seed=seed,
    )


def identity_whitening(dim: int, lead: tuple[int, ...] = ()) -> ZcaTransform:
    """The whitening that leaves a normalized patch as it is, stacked over lead."""
    return ZcaTransform(np.zeros((*lead, dim)), np.broadcast_to(np.eye(dim), (*lead, dim, dim)))


def folded_bank(filters, whitening: ZcaTransform | None = None) -> FilterBank:
    """The bank of raw (..., d, K) filters learned behind a whitening, folded
    as training folds them; without a whitening, the identity one."""
    filters = np.asarray(filters, dtype=np.float64)
    if whitening is None:
        whitening = identity_whitening(filters.shape[-2], filters.shape[:-2])
    return FilterBank(*whitening.fold(filters))


def container_declaring(dims) -> bytes:
    """Container bytes whose one tensor, named x, declares dims but holds no payload."""
    header = MAGIC + struct.pack("<III", VERSION, 1, 1) + b"x" + struct.pack("<I", len(dims))
    return header + b"".join(struct.pack("<Q", d) for d in dims)


def write_descriptors(path, descriptors, labels, image_ids=None, config_text=None) -> None:
    """A descriptor container as `cdfnet extract` writes it: image ids 0 to
    n - 1 unless given, and the default NetworkConfig's text (C = 1) unless
    config_text is given."""
    ids = range(len(labels)) if image_ids is None else image_ids
    text = network_config_to_text(NetworkConfig()) if config_text is None else config_text
    tensors = {"descriptors": descriptors, "image_ids": list(ids), "labels": labels}
    write_container(path, tensors, text)


def write_fold_plan(path, plan) -> None:
    """A fold plan as load_fold_plan reads it: one line of image indices per fold."""
    with open(path, "w", encoding="ascii") as fh:
        for fold in plan.folds:
            fh.write(" ".join(str(i) for i in fold) + "\n")


def write_stl10_images(path, rgb: np.ndarray) -> None:
    """Write uint8 images (n, 96, 96, 3) in the STL-10 binary layout, as
    load_stl10 reads it: per image the red, green and blue planes, each
    stored column-major."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    assert rgb.ndim == 4 and rgb.shape[1:] == (IMAGE_SIDE, IMAGE_SIDE, 3), rgb.shape
    rgb.transpose(0, 3, 2, 1).tofile(path)


def write_stl10_labels(path, labels) -> None:
    """Write 0-based labels as the 1-based uint8 STL-10 label file."""
    (np.asarray(labels, dtype=np.int64) + 1).astype(np.uint8).tofile(path)


def stl10_bytes(images01: np.ndarray) -> np.ndarray:
    """Convert (n, 96, 96) float [0,1] images to (n, 96, 96, 3) uint8 RGB."""
    u8 = np.clip(images01 * 255.0, 0, 255).astype(np.uint8)
    return np.repeat(u8[:, :, :, None], 3, axis=3)


# The forward pass computes in float32, its oracles in float64. The largest
# error measured against them is 3.2e-6 of max |oracle| (benchmark-shaped n1-n5
# and the toy variants); the bound leaves about 10x headroom.
FLOAT32_BOUND = 3e-5


def assert_near_oracle(got, want, bound=FLOAT32_BOUND):
    """got has want's shape and lies within bound * max|want| of it everywhere."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def traced(fn, *args, **kwargs):
    """fn(*args, **kwargs), the most bytes its allocations held at once, and
    the bytes they still hold once it has returned, its result's among them.

    Counts what tracemalloc sees allocated during the call, numpy array
    buffers included; memory held before the call is not counted.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base, held - base


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the most bytes its allocations held at once."""
    result, peak, _ = traced(fn, *args, **kwargs)
    return result, peak
