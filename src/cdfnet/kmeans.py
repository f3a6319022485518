"""Filter dictionaries learned by Lloyd's k-means with k-means++ seeding.

:func:`kmeans_stack` is the one k-means: it clusters a (G, n, dim) stack of
patch rows, one independent run per group, and layer 1 is its G = 1 call.
Centroids are used directly as convolution filters (no length
normalization). Everything is deterministic given the SeededRngs: the same
seeds and patch rows reproduce the same filter banks bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimError, InvalidK
from .patches import ZcaTransform
from .tensor import assert_array_finite

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
    whitening: ZcaTransform
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
        if self.whitening.mean.shape != (*filters.shape[:-2], expected):
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
        """(G, c) with the whitening folded into the filters, in float32.

        M is symmetric, so F^T M (x - mu) = G^T x - c with G = M F and
        c = mu^T G, shaped (..., 1, K). Both are computed in float64 and
        rounded once to the forward pass's float32. Derived once per bank
        and never stored in containers.
        """
        g = self.whitening.matrix @ self.filters
        c = self.whitening.mean[..., None, :] @ g
        return g.astype(np.float32), c.astype(np.float32)


@dataclass(frozen=True)
class KMeansResult:
    """Centroids and convergence record of a stack of k-means runs.

    Each field has a leading group axis: centroids (G, dim, k), one tuple of
    per-iteration SSEs per group, and (G,) arrays of counts and flags.
    """

    centroids: np.ndarray
    sse_history: tuple
    n_iters: np.ndarray
    converged: np.ndarray
    reseeds: np.ndarray  # points moved into clusters that emptied out


def _assignments(points: np.ndarray, centroids: np.ndarray, block_sq: np.ndarray):
    """Nearest centroid per point plus each group's summed squared distance.

    points is (G, n, dim), centroids (G, k, dim) and block_sq (G, n_blocks)
    the squared norms summed over each row block. Distances use the expansion
    ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2 evaluated blockwise, so they take
    G x min(n, _BLOCK) x k floats at a time.
    """
    n_groups, n, _ = points.shape
    labels = np.empty((n_groups, n), dtype=np.int64)
    sse = np.zeros(n_groups)
    c_norms = np.einsum("gkd,gkd->gk", centroids, centroids)[:, None, :]
    # scaling by -2 is exact, so x.(-2c) is exactly -2 x.c and d2 is built
    # in place as c + (-2 x.c), exactly c - 2 x.c
    c_cols = np.swapaxes(centroids * -2.0, 1, 2)
    for b, start in enumerate(range(0, n, _BLOCK)):
        block = points[:, start : start + _BLOCK]
        d2 = block @ c_cols
        d2 += c_norms
        idx = np.argmin(d2, axis=2)
        labels[:, start : start + _BLOCK] = idx
        sse += np.take_along_axis(d2, idx[..., None], axis=2)[..., 0].sum(axis=1) + block_sq[:, b]
    return labels, np.maximum(sse, 0.0)


def _plusplus_init(points: np.ndarray, norms: np.ndarray, k: int, gens) -> np.ndarray:
    """k-means++ in every group: each next center drawn with probability
    proportional to D^2, from that group's own generator.

    D^2 to a new center c is ||x||^2 - 2 x.c + ||c||^2 from the precomputed
    norms, clamped at 0, so no (n, dim) difference buffer is made. x.c and the
    norms run through one einsum kernel, which makes D^2 exactly 0 for every
    copy of a center, as the difference form did.
    """
    n_groups, n, dim = points.shape
    rows = np.arange(n_groups)
    centers = np.empty((n_groups, k, dim))
    idx = np.array([gen.integers(0, n) for gen in gens], dtype=np.intp)
    d2 = None
    for i in range(k):
        if i:
            totals = d2.sum(axis=1)
            cumulative = np.cumsum(d2, axis=1)
            for g, gen in enumerate(gens):
                total = float(totals[g])
                if total <= 0.0:
                    # all remaining points coincide with an existing center
                    idx[g] = gen.integers(0, n)
                else:
                    r = gen.random() * total
                    idx[g] = min(int(np.searchsorted(cumulative[g], r, side="right")), n - 1)
        centers[:, i] = points[rows, idx]
        dist = np.einsum("gnd,gd->gn", points, centers[:, i])
        dist *= -2.0
        dist += norms
        dist += norms[rows, idx][:, None]
        np.maximum(dist, 0.0, out=dist)
        d2 = dist if d2 is None else np.minimum(d2, dist, out=d2)
    return centers


def _cluster_sums(points: np.ndarray, labels: np.ndarray, k: int):
    """Member counts (G, k) and coordinate sums (G, k, dim) of every cluster.

    The sums are one sparse one-hot matmul over group-offset labels; each
    cluster adds its members in point order, as np.add.at would. scipy.sparse
    is imported here, its one user, so the modules that only score, fuse or
    extract never load it.
    """
    from scipy import sparse

    n_groups, n, dim = points.shape
    rows = (labels + np.arange(0, n_groups * k, k)[:, None]).ravel()
    counts = np.bincount(rows, minlength=n_groups * k).reshape(n_groups, k)
    one_hot = sparse.csc_array(
        (np.ones(rows.size), rows, np.arange(rows.size + 1)), shape=(n_groups * k, rows.size)
    )
    sums = one_hot @ points.reshape(rows.size, dim)
    return counts, sums.reshape(n_groups, k, dim)


def kmeans_stack(points: np.ndarray, k: int, max_iters: int, rngs) -> KMeansResult:
    """Lloyd iterations from a k-means++ start, for G groups of points at once.

    points is (G, n, dim), one group per leading index, and rngs holds one
    SeededRng per group. Each group draws from its own generator in the order
    a run on that group alone would, and stops on unchanged assignments or
    after max_iters; a group that stops leaves the batch. Clusters that empty
    out are re-seeded with the point currently farthest from its centroid,
    taken from a cluster that keeps at least one member. Returns (G, dim, k)
    centroids; every group's run equals a run on that group alone.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 3:
        raise DimError(f"need (G, n, dim) points, got shape {points.shape}")
    n_groups, n, dim = points.shape
    if len(rngs) != n_groups:
        raise ValueError(f"{len(rngs)} generators for {n_groups} groups")
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    if k > n:
        raise InvalidK(f"k={k} exceeds number of patches {n}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")

    norms = np.einsum("gnd,gnd->gn", points, points)
    centroids = _plusplus_init(points, norms, k, [rng.generator() for rng in rngs])
    block_sq = np.array([
        [np.einsum("nd,nd->", p[start : start + _BLOCK], p[start : start + _BLOCK])
         for start in range(0, n, _BLOCK)]
        for p in points
    ])

    final = np.empty_like(centroids)
    history = [[] for _ in range(n_groups)]
    converged = np.zeros(n_groups, dtype=bool)
    reseeds = np.zeros(n_groups, dtype=np.int64)
    active = np.arange(n_groups)  # groups still iterating; the arrays below hold only them
    owned = False  # whether points is this call's own copy, free to reorder
    labels = None
    for _ in range(max_iters):
        new_labels, sse = _assignments(points, centroids, block_sq)
        for g, value in zip(active, sse):
            history[g].append(float(value))
        if labels is not None:
            done = np.all(new_labels == labels, axis=1)
            if done.any():
                converged[active[done]] = True
                final[active[done]] = centroids[done]
                keep = ~done
                active, centroids = active[keep], centroids[keep]
                block_sq, new_labels = block_sq[keep], new_labels[keep]
                if not active.size:
                    break
                points = _keep_groups(points, keep, owned)
                owned = True
        labels = new_labels

        counts, sums = _cluster_sums(points, labels, k)
        for j in np.flatnonzero(np.any(counts == 0, axis=1)):
            empty = np.flatnonzero(counts[j] == 0)
            _reseed_empty(points[j], labels[j], counts[j], sums[j], centroids[j], empty)
            reseeds[active[j]] += empty.size
        nonzero = counts > 0
        centroids[nonzero] = sums[nonzero] / counts[nonzero][:, None]
    final[active] = centroids

    return KMeansResult(
        centroids=np.ascontiguousarray(np.swapaxes(final, 1, 2)),
        sse_history=tuple(tuple(h) for h in history),
        n_iters=np.array([len(h) for h in history]),
        converged=converged,
        reseeds=reseeds,
    )


def _keep_groups(points: np.ndarray, keep: np.ndarray, owned: bool) -> np.ndarray:
    """The groups of points that keep marks. The caller's points are copied
    once; a copy of its own is compacted in place, moving groups forward."""
    if not owned:
        return points[keep]
    kept = np.flatnonzero(keep)
    for dst, src in enumerate(kept):
        if dst != src:
            points[dst] = points[src]
    return points[: kept.size]


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
