"""Dense feature-map containers and deterministic randomness.

Filter learning, the SVM and the descriptors it reads work in 64-bit floats;
the forward pass of both layers computes in 32-bit floats (see
:mod:`cdfnet.layer`). Every step keeps fixed shapes and reduction orders, so
results are reproducible bit for bit from one run to the next on one
machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue

# Every stochastic step in the package draws from this one generator family,
# Philox 4x64-10 seeded through numpy's SeedSequence. Philox is counter-based
# and SeedSequence hashing is documented and stable, so a (seed, stream-path)
# pair fully determines the draw sequence.
@dataclass(frozen=True)
class SeededRng:
    """A reproducible random source identified by a seed and a stream path.

    Parallel or per-group work must not share one generator; derive an
    independent stream with :meth:`child` instead.
    """

    seed: int
    stream: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "SeededRng":
        """Independent stream ``index`` derived from this one."""
        if index < 0:
            raise ValueError("stream index must be non-negative")
        return SeededRng(self.seed, self.stream + (int(index),))


@dataclass(frozen=True)
class FeatureMapSet:
    """Stack of 2D feature maps for one image, shaped (height, width, depth).

    Float32 and float64 maps keep their dtype (layer outputs are float32);
    other numbers become floats of at least 32 bits. Instances are
    immutable: the wrapped array view is marked read-only and may be shared
    freely across threads.
    """

    maps: np.ndarray
    source_image_id: int = -1

    def __post_init__(self):
        maps = np.asarray(self.maps)
        maps = maps.astype(np.promote_types(maps.dtype, np.float32), copy=False)
        if maps.ndim == 2:
            maps = maps[:, :, np.newaxis]
        if maps.ndim != 3:
            raise ValueError(f"feature maps must be 3D, got ndim={maps.ndim}")
        if min(maps.shape) < 1:
            raise ValueError(f"all dimensions must be >= 1, got {maps.shape}")
        view = maps.view()
        view.setflags(write=False)
        object.__setattr__(self, "maps", view)

    @property
    def height(self) -> int:
        return self.maps.shape[0]

    @property
    def width(self) -> int:
        return self.maps.shape[1]

    @property
    def depth(self) -> int:
        return self.maps.shape[2]


def assert_array_finite(arr: np.ndarray, what: str = "array") -> None:
    """Raise :class:`NonFiniteValue` at the first NaN/Inf coordinate."""
    finite = np.isfinite(arr)
    if finite.all():
        return
    flat_idx = int(np.argmin(finite))
    coord = tuple(int(i) for i in np.unravel_index(flat_idx, arr.shape))
    value = float(arr[coord])
    raise NonFiniteValue(f"non-finite value {value!r} in {what} at {coord}", coord=coord)
