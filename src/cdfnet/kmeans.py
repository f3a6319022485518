"""Filter dictionaries learned by Lloyd's k-means with k-means++ seeding.

:func:`kmeans_stack` is the one k-means: it clusters a (G, n, dim) stack of
patch rows, one independent run per group, and layer 1 is its G = 1 call.
Centroids, with the whitening folded in, become a layer's filter bank (no
length normalization). Everything is deterministic given the SeededRngs:
the same seeds and patch rows reproduce the same filter banks bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimError, InvalidK

# Points are processed in blocks so the (block x k) distance matrix stays
# small; the block order is fixed, keeping reductions deterministic.
_BLOCK = 16384
# the most Lloyd rounds a group runs; one still moving then stops unconverged
MAX_ITERS = 100


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


def _assignments(points: np.ndarray, centroids: np.ndarray, norms: np.ndarray):
    """Nearest centroid per point and each point's squared distance to it.

    points is (G, n, dim), centroids (G, k, dim) and norms (G, n) the squared
    norms ||x||^2. Distances use the expansion ||x-c||^2 = ||x||^2 - 2 x.c +
    ||c||^2 evaluated blockwise, so they take G x min(n, _BLOCK) x k floats at
    a time. Returns (G, n) labels and (G, n) distances, clamped at 0.
    """
    n_groups, n, _ = points.shape
    labels = np.empty((n_groups, n), dtype=np.int64)
    dist = np.empty((n_groups, n))
    c_norms = np.einsum("gkd,gkd->gk", centroids, centroids)[:, None, :]
    # scaling by -2 is exact, so x.(-2c) is exactly -2 x.c and d2 is built
    # in place as c + (-2 x.c), exactly c - 2 x.c
    c_cols = np.swapaxes(centroids * -2.0, 1, 2)
    for start in range(0, n, _BLOCK):
        block = points[:, start : start + _BLOCK]
        d2 = block @ c_cols
        d2 += c_norms
        idx = np.argmin(d2, axis=2)
        labels[:, start : start + _BLOCK] = idx
        dist[:, start : start + _BLOCK] = np.take_along_axis(d2, idx[..., None], axis=2)[..., 0]
        del d2  # else the next block is made while this one is still held
    dist += norms
    np.maximum(dist, 0.0, out=dist)
    return labels, dist


def _plusplus_init(points: np.ndarray, norms: np.ndarray, k: int, gens) -> np.ndarray:
    """k-means++ in every group: each next center drawn with probability
    proportional to D^2, from that group's own generator.

    D^2 to a new center c is ||x||^2 - 2 x.c + ||c||^2 from the precomputed
    norms, clamped at 0, so no (n, dim) difference buffer is made. x.c and the
    norms run through one einsum kernel, which makes D^2 exactly 0 for every
    copy of a center.
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


def kmeans_stack(points: np.ndarray, k: int, rngs) -> KMeansResult:
    """Lloyd iterations from a k-means++ start, for G groups of points at once.

    points is (G, n, dim), one group per leading index, and rngs holds one
    SeededRng per group. Each group draws from its own generator in the order
    a run on that group alone would, and stops on unchanged assignments or
    after MAX_ITERS; a group that stops leaves the batch. Each round measures
    every point's squared distance to its centroid once: the SSE history sums
    it, and a cluster that empties out is re-seeded with the point farthest by
    it, taken from a cluster that keeps at least one member. Returns (G, dim, k)
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

    norms = np.einsum("gnd,gnd->gn", points, points)
    centroids = _plusplus_init(points, norms, k, [rng.generator() for rng in rngs])

    final = np.empty_like(centroids)
    history = [[] for _ in range(n_groups)]
    converged = np.zeros(n_groups, dtype=bool)
    reseeds = np.zeros(n_groups, dtype=np.int64)
    active = np.arange(n_groups)  # groups still iterating; the arrays below hold only them
    labels = None
    for _ in range(MAX_ITERS):
        new_labels, dist = _assignments(points, centroids, norms)
        for g, value in zip(active, dist.sum(axis=1)):
            history[g].append(float(value))
        if labels is not None:
            done = np.all(new_labels == labels, axis=1)
            if done.any():
                converged[active[done]] = True
                final[active[done]] = centroids[done]
                keep = ~done
                active, centroids = active[keep], centroids[keep]
                if not active.size:
                    break
                points, norms = points[keep], norms[keep]
                new_labels, dist = new_labels[keep], dist[keep]
        labels = new_labels

        counts, sums = _cluster_sums(points, labels, k)
        for j in np.flatnonzero(np.any(counts == 0, axis=1)):
            empty = np.flatnonzero(counts[j] == 0)
            _reseed_empty(points[j], dist[j], labels[j], counts[j], sums[j], centroids[j], empty)
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


def _reseed_empty(points, dist, labels, counts, sums, centroids, empty):
    """Move the farthest point into each empty cluster in turn, in place.

    dist holds each point's squared distance to its centroid, as the round's
    assignment measured it. The point is never the only member of its
    cluster, which would leave that cluster empty instead; with k <= n some
    cluster always has two.
    """
    for cluster in empty:
        far = int(np.argmax(np.where(counts[labels] > 1, dist, -1.0)))
        old = labels[far]
        labels[far] = cluster
        counts[old] -= 1
        counts[cluster] += 1
        sums[old] -= points[far]
        sums[cluster] += points[far]
        centroids[cluster] = points[far]
