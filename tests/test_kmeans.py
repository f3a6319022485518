import numpy as np
import pytest

from cdfnet.errors import DimError, InvalidK, NonFiniteValue
from cdfnet.kmeans import FilterBank, _reseed_empty, kmeans, sse
from cdfnet.patches import PatchMatrix, ZcaTransform, fit_zca
from cdfnet.tensor import SeededRng


def _pm(data):
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    return PatchMatrix(data, 1, data.shape[0])


def _lloyd_oracle(points, k, gen, iters=200):
    """Plain restart of Lloyd from random distinct points, for SSE comparison."""
    n = points.shape[0]
    centers = points[gen.choice(n, size=k, replace=False)].copy()
    for _ in range(iters):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new = centers.copy()
        for c in range(k):
            mask = labels == c
            if mask.any():
                new[c] = points[mask].mean(axis=0)
        if np.allclose(new, centers):
            break
        centers = new
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return centers, float(d2.min(axis=1).sum())


class TestKmeans:
    def test_two_point_masses(self):
        pm = _pm([[0.0, 0.0, 10.0, 10.0]])
        result = kmeans(pm, 2, 50, SeededRng(0))
        got = sorted(result.centroids.ravel())
        assert got == [0.0, 10.0]

    def test_k_equals_n_distinct(self):
        pts = np.array([[0.0, 3.0, 7.0, 11.0]])
        result = kmeans(_pm(pts), 4, 50, SeededRng(1))
        assert sorted(result.centroids.ravel()) == [0.0, 3.0, 7.0, 11.0]
        assert result.sse_history[-1] == 0.0

    def test_three_blobs_vs_multi_restart_oracle(self):
        rng = np.random.default_rng(42)
        blobs = np.concatenate(
            [
                rng.normal((0, 0), 0.3, (100, 2)),
                rng.normal((5, 5), 0.3, (100, 2)),
                rng.normal((-5, 5), 0.3, (100, 2)),
            ]
        )
        pm = PatchMatrix(blobs.T, 1, 2)
        result = kmeans(pm, 3, 50, SeededRng(7))
        ours = result.sse_history[-1]

        best = np.inf
        gen = np.random.default_rng(123)
        for _ in range(20):
            _, restart_sse = _lloyd_oracle(blobs, 3, gen)
            best = min(best, restart_sse)
        assert ours <= best * 1.01

    def test_sse_monotone_over_iterations(self):
        rng = np.random.default_rng(3)
        for seed in range(50):
            data = rng.standard_normal((4, 120))
            result = kmeans(PatchMatrix(data, 1, 4), 6, 30, SeededRng(seed))
            h = np.array(result.sse_history)
            assert np.all(np.diff(h) <= 1e-9 * np.maximum(h[:-1], 1.0))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((9, 500))
        pm = PatchMatrix(data, 3, 1)
        a = kmeans(pm, 10, 50, SeededRng(11))
        b = kmeans(pm, 10, 50, SeededRng(11))
        assert np.array_equal(a.centroids, b.centroids)
        assert a.sse_history == b.sse_history
        c = kmeans(pm, 10, 50, SeededRng(12))
        assert not np.array_equal(a.centroids, c.centroids)

    def test_centroids_distinct_on_distinct_data(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((2, 400))
        result = kmeans(PatchMatrix(data, 1, 2), 8, 60, SeededRng(2))
        cols = result.centroids.T
        for i in range(8):
            for j in range(i + 1, 8):
                assert not np.allclose(cols[i], cols[j], atol=0)

    def test_centroids_finite(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((4, 100))
        result = kmeans(PatchMatrix(data, 2, 1), 5, 40, SeededRng(3))
        assert np.all(np.isfinite(result.centroids))

    def test_k_too_large(self):
        with pytest.raises(InvalidK):
            kmeans(_pm([[1.0, 2.0]]), 3, 10, SeededRng(0))

    def test_k_positive(self):
        with pytest.raises(InvalidK):
            kmeans(_pm([[1.0, 2.0]]), 0, 10, SeededRng(0))

    def test_max_iters_positive(self):
        with pytest.raises(ValueError):
            kmeans(_pm([[1.0, 2.0]]), 1, 0, SeededRng(0))

    def test_duplicate_points_fewer_than_k(self):
        # more clusters than distinct values still terminates and stays finite
        pm = _pm([[1.0] * 10 + [2.0] * 10])
        result = kmeans(pm, 4, 30, SeededRng(8))
        assert np.all(np.isfinite(result.centroids))
        assert result.centroids.shape == (1, 4)

    def test_converges_early(self):
        pm = _pm([[0.0, 0.1, 9.9, 10.0]])
        result = kmeans(pm, 2, 100, SeededRng(1))
        assert result.converged
        assert result.n_iters < 100


class TestSse:
    def test_zero_when_centroids_cover_points(self):
        data = np.array([[0.0, 1.0, 2.0]])
        bank = FilterBank(data, 1, 1)
        assert sse(_pm(data), bank) == 0.0

    def test_single_centroid_at_mean(self):
        bank = FilterBank(np.array([[0.0]]), 1, 1)
        assert sse(_pm([[-1.0, 1.0]]), bank) == pytest.approx(2.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((5, 300))
        cent = rng.standard_normal((5, 9))
        bank = FilterBank(cent, 1, 5)
        d2 = ((data.T[:, None, :] - cent.T[None, :, :]) ** 2).sum(axis=2)
        expect = float(d2.min(axis=1).sum())
        assert sse(PatchMatrix(data, 1, 5), bank) == pytest.approx(expect, rel=1e-12)

    def test_dim_mismatch(self):
        bank = FilterBank(np.zeros((4, 2)), 2, 1)
        with pytest.raises(DimError):
            sse(_pm([[1.0, 2.0]]), bank)


class TestFilterBank:
    def test_shape_validation(self):
        with pytest.raises(DimError):
            FilterBank(np.zeros((5, 2)), 2, 1)  # 2*2*1 = 4 != 5

    def test_needs_filters(self):
        with pytest.raises(DimError):
            FilterBank(np.zeros((4, 0)), 2, 1)

    def test_rejects_nonfinite(self):
        bad = np.zeros((4, 2))
        bad[1, 1] = np.inf
        with pytest.raises(NonFiniteValue):
            FilterBank(bad, 2, 1)


class TestReseed:
    def _state(self, points, labels, centroids):
        points = np.asarray(points, dtype=np.float64)
        centroids = np.asarray(centroids, dtype=np.float64)
        labels = np.asarray(labels)
        k = centroids.shape[0]
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, points)
        return points, labels, counts, sums, centroids, np.flatnonzero(counts == 0)

    def test_singleton_member_is_not_taken(self):
        # the farthest point (10) is the only member of cluster 1; moving it
        # would empty cluster 1 instead of filling cluster 2
        state = self._state([[0.0], [10.0], [0.1], [0.3]], [0, 1, 0, 0], [[0.1], [0.0], [50.0]])
        labels, counts, sums, centroids = _reseed_empty(*state)
        assert np.all(counts > 0)
        assert np.array_equal(counts, np.bincount(labels, minlength=3))
        assert labels[1] == 1 and labels[3] == 2  # farthest point of a cluster of three
        assert centroids[2, 0] == 0.3
        assert np.allclose(sums[:, 0], [0.1, 10.0, 0.3])

    def test_fills_every_empty_cluster(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((12, 2))
        labels = np.array([0] * 6 + [1] * 5 + [2])
        state = self._state(points, labels, rng.standard_normal((6, 2)) * 5.0)
        labels, counts, _, _ = _reseed_empty(*state)
        assert np.all(counts > 0)
        assert np.array_equal(counts, np.bincount(labels, minlength=6))


class TestWhitenedFilters:
    def test_matches_whitening_then_filters(self):
        rng = np.random.default_rng(4)
        zca = fit_zca(PatchMatrix(rng.random((8, 200)), 2, 2), 0.1)
        bank = FilterBank(rng.standard_normal((8, 3)), 2, 2, zca)
        g, c = bank.whitened_filters
        x = rng.random((8, 5))
        expect = bank.filters.T @ (zca.matrix @ (x - zca.mean[:, None]))
        assert np.allclose(g.T @ x - c.T, expect, rtol=1e-12, atol=1e-12)
        assert bank.whitened_filters[0] is g  # derived once per bank

    def test_stack_equals_each_bank_bitwise(self):
        rng = np.random.default_rng(5)
        zcas = [fit_zca(PatchMatrix(rng.random((8, 200)), 2, 2), 0.1) for _ in range(3)]
        filters = rng.standard_normal((3, 8, 4))
        means = np.stack([z.mean for z in zcas])
        matrices = np.stack([z.matrix for z in zcas])
        stacked = FilterBank(filters, 2, 2, ZcaTransform(means, matrices, 0.1))
        g, c = stacked.whitened_filters
        assert g.shape == (3, 8, 4) and c.shape == (3, 1, 4)
        for i, zca in enumerate(zcas):
            gi, ci = FilterBank(filters[i], 2, 2, zca).whitened_filters
            assert np.array_equal(g[i], gi) and np.array_equal(c[i], ci)

    def test_stacked_whitening_must_match_filters(self):
        zca = ZcaTransform(np.zeros((2, 4)), np.tile(np.eye(4), (2, 1, 1)), 0.1)
        with pytest.raises(DimError):
            FilterBank(np.ones((3, 4, 2)), 2, 1, zca)

    def test_needs_whitening(self):
        with pytest.raises(DimError):
            FilterBank(np.ones((4, 2)), 2, 1).whitened_filters
