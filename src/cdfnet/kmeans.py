"""Filter dictionaries learned by Lloyd's k-means with k-means++ seeding.

Centroids are used directly as convolution filters (no length
normalization). Everything is deterministic given the SeededRng: the same
seed and patch matrix reproduce the same filter bank bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimError, InvalidK
from .patches import PatchMatrix, ZcaTransform
from .tensor import SeededRng, assert_array_finite

# Points are processed in blocks so the (block x k) distance matrix stays
# small; the block order is fixed, keeping reductions deterministic.
_BLOCK = 16384


@dataclass(frozen=True)
class FilterBank:
    """K filters as columns (..., patch_side^2 * depth, K) plus their whitening.

    A leading axis stacks equal-shaped banks, one per layer-2 group; the
    whitening then carries the same leading axis.
    """

    filters: np.ndarray
    patch_side: int
    depth: int
    whitening: ZcaTransform | None = None
    layer_index: int = 0

    def __post_init__(self):
        filters = np.asarray(self.filters, dtype=np.float64)
        expected = self.patch_side * self.patch_side * self.depth
        if filters.ndim < 2 or filters.shape[-2] != expected:
            raise DimError(
                f"filter bank shape {filters.shape} inconsistent with "
                f"{self.patch_side}^2 * {self.depth} = {expected}"
            )
        if filters.shape[-1] < 1:
            raise DimError("filter bank must contain at least one filter")
        assert_array_finite(filters, what="filter bank")
        if self.whitening is not None and self.whitening.mean.shape != (
            *filters.shape[:-2], expected
        ):
            raise DimError(
                f"whitening mean {self.whitening.mean.shape} does not match "
                f"filters {filters.shape}"
            )
        object.__setattr__(self, "filters", filters)

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

    @cached_property
    def whitened_filters(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, c) with the whitening folded into the filters.

        M is symmetric, so F^T M (x - mu) = G^T x - c with G = M F and
        c = mu^T G, shaped (..., 1, K). Derived once per bank and never
        stored in containers.
        """
        if self.whitening is None:
            raise DimError("dense_preprocess requires a whitening transform")
        g = self.whitening.matrix @ self.filters
        return g, self.whitening.mean[..., None, :] @ g


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # (dim, k)
    sse_history: tuple[float, ...]  # one entry per Lloyd iteration
    n_iters: int
    converged: bool


def _assignments(points: np.ndarray, centroids: np.ndarray):
    """Nearest centroid per point plus the summed squared distance.

    points is (n, dim), centroids (k, dim). Distances use the expansion
    ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2 evaluated blockwise.
    """
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    sse = 0.0
    c_norms = np.einsum("kd,kd->k", centroids, centroids)
    for start in range(0, n, _BLOCK):
        block = points[start : start + _BLOCK]
        # built in place: c + (-2 x.c) is exactly c - 2 x.c
        d2 = block @ centroids.T
        d2 *= -2.0
        d2 += c_norms
        idx = np.argmin(d2, axis=1)
        labels[start : start + _BLOCK] = idx
        picked = d2[np.arange(block.shape[0]), idx]
        sse += float(np.sum(picked) + np.einsum("nd,nd->", block, block))
    return labels, max(sse, 0.0)


def _plusplus_init(points: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    """k-means++: each next center drawn with probability proportional to D^2."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    diff = np.empty_like(points)  # one buffer for every center's differences
    first = int(gen.integers(0, n))
    centers[0] = points[first]
    np.subtract(points, centers[0], out=diff)
    d2 = np.einsum("nd,nd->n", diff, diff)
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining points coincide with an existing center
            idx = int(gen.integers(0, n))
        else:
            r = gen.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers[i] = points[idx]
        np.subtract(points, centers[i], out=diff)
        np.minimum(d2, np.einsum("nd,nd->n", diff, diff), out=d2)
    return centers


def kmeans(
    patches: PatchMatrix, k: int, max_iters: int, rng: SeededRng
) -> KMeansResult:
    """Lloyd iterations from a k-means++ start.

    Stops on unchanged assignments or after max_iters. Clusters that empty
    out are re-seeded with the point currently farthest from its centroid,
    taken from a cluster that keeps at least one member. The patch rows are
    clustered without a copy; centroids come back as (dim, k) filter columns.
    """
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    if k > patches.n_patches:
        raise InvalidK(f"k={k} exceeds number of patches {patches.n_patches}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")

    points = patches.data
    gen = rng.generator()
    centroids = _plusplus_init(points, k, gen)

    labels = None
    history = []
    converged = False
    for _ in range(max_iters):
        new_labels, sse = _assignments(points, centroids)
        history.append(sse)
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels

        counts = np.bincount(labels, minlength=k)
        sums = np.zeros((k, points.shape[1]), dtype=np.float64)
        np.add.at(sums, labels, points)

        empty = np.flatnonzero(counts == 0)
        if empty.size:
            _reseed_empty(points, labels, counts, sums, centroids, empty)
        nonzero = counts > 0
        centroids[nonzero] = sums[nonzero] / counts[nonzero, None]

    return KMeansResult(
        centroids=np.ascontiguousarray(centroids.T),
        sse_history=tuple(history),
        n_iters=len(history),
        converged=converged,
    )


def _reseed_empty(points, labels, counts, sums, centroids, empty):
    """Move the farthest point into each empty cluster in turn, in place.

    The point is never the only member of its cluster, which would leave
    that cluster empty instead; with k <= n some cluster always has two.
    """
    diff = centroids[labels]
    np.subtract(points, diff, out=diff)
    d2 = np.einsum("nd,nd->n", diff, diff)
    for cluster in empty:
        far = int(np.argmax(np.where(counts[labels] > 1, d2, -1.0)))
        old = labels[far]
        labels[far] = cluster
        counts[old] -= 1
        counts[cluster] += 1
        sums[old] -= points[far]
        sums[cluster] += points[far]
        centroids[cluster] = points[far]
