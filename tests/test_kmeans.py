import numpy as np
import pytest

from cdfnet.errors import DimError, InvalidK, NonFiniteValue
from cdfnet.kmeans import FilterBank, _plusplus_init, _reseed_empty, kmeans_stack
from cdfnet.patches import ZcaTransform, fit_zca
from cdfnet.tensor import SeededRng

import train_oracle
from helpers import assert_near_oracle, identity_whitening


def _pm(values):
    """One-dimensional points as (n, 1) rows."""
    return np.asarray(values, dtype=np.float64)[:, None]


def _one_run(points, k, max_iters, rng):
    """One run: the G = 1 call of kmeans_stack on (n, dim) rows, as the
    Run record of the oracle's single-group k-means."""
    got = kmeans_stack(points[None], k, max_iters, [rng])
    return train_oracle.Run(
        got.centroids[0], got.sse_history[0], int(got.n_iters[0]),
        bool(got.converged[0]), int(got.reseeds[0]),
    )


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
        pm = _pm([0.0, 0.0, 10.0, 10.0])
        result = _one_run(pm, 2, 50, SeededRng(0))
        got = sorted(result.centroids.ravel())
        assert got == [0.0, 10.0]

    def test_k_equals_n_distinct(self):
        result = _one_run(_pm([0.0, 3.0, 7.0, 11.0]), 4, 50, SeededRng(1))
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
        result = _one_run(blobs, 3, 50, SeededRng(7))
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
            data = rng.standard_normal((120, 4))
            result = _one_run(data, 6, 30, SeededRng(seed))
            h = np.array(result.sse_history)
            assert np.all(np.diff(h) <= 1e-9 * np.maximum(h[:-1], 1.0))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((500, 9))
        a = _one_run(data, 10, 50, SeededRng(11))
        b = _one_run(data, 10, 50, SeededRng(11))
        assert np.array_equal(a.centroids, b.centroids)
        assert a.sse_history == b.sse_history
        c = _one_run(data, 10, 50, SeededRng(12))
        assert not np.array_equal(a.centroids, c.centroids)

    def test_centroids_distinct_on_distinct_data(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((400, 2))
        result = _one_run(data, 8, 60, SeededRng(2))
        cols = result.centroids.T
        for i in range(8):
            for j in range(i + 1, 8):
                assert not np.allclose(cols[i], cols[j], atol=0)

    def test_centroids_finite(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((100, 4))
        result = _one_run(data, 5, 40, SeededRng(3))
        assert np.all(np.isfinite(result.centroids))

    def test_k_too_large(self):
        with pytest.raises(InvalidK):
            _one_run(_pm([1.0, 2.0]), 3, 10, SeededRng(0))

    def test_k_positive(self):
        with pytest.raises(InvalidK):
            _one_run(_pm([1.0, 2.0]), 0, 10, SeededRng(0))

    def test_max_iters_positive(self):
        with pytest.raises(ValueError):
            _one_run(_pm([1.0, 2.0]), 1, 0, SeededRng(0))

    def test_duplicate_points_fewer_than_k(self):
        # more clusters than distinct values still terminates and stays finite
        pm = _pm([1.0] * 10 + [2.0] * 10)
        result = _one_run(pm, 4, 30, SeededRng(8))
        assert np.all(np.isfinite(result.centroids))
        assert result.centroids.shape == (1, 4)

    def test_converges_early(self):
        pm = _pm([0.0, 0.1, 9.9, 10.0])
        result = _one_run(pm, 2, 100, SeededRng(1))
        assert result.converged
        assert result.n_iters < 100


class TestSse:
    """The last entry of sse_history is the SSE of the returned centroids once converged."""

    def test_zero_when_centroids_cover_points(self):
        result = _one_run(_pm([0.0, 1.0, 2.0]), 3, 10, SeededRng(0))
        assert result.converged
        assert result.sse_history[-1] == 0.0

    def test_single_centroid_at_mean(self):
        result = _one_run(_pm([-1.0, 1.0]), 1, 10, SeededRng(0))
        assert result.sse_history[-1] == pytest.approx(2.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((300, 5))
        result = _one_run(data, 9, 100, SeededRng(7))
        assert result.converged
        d2 = ((data[:, None, :] - result.centroids.T[None, :, :]) ** 2).sum(axis=2)
        expect = float(d2.min(axis=1).sum())
        assert result.sse_history[-1] == pytest.approx(expect, rel=1e-12)


class TestFilterBank:
    def test_shape_validation(self):
        with pytest.raises(DimError):
            FilterBank(np.zeros((5, 2)), 2, 1, identity_whitening(5))  # 2*2*1 = 4 != 5

    def test_needs_filters(self):
        with pytest.raises(DimError):
            FilterBank(np.zeros((4, 0)), 2, 1, identity_whitening(4))

    def test_rejects_nonfinite(self):
        bad = np.zeros((4, 2))
        bad[1, 1] = np.inf
        with pytest.raises(NonFiniteValue):
            FilterBank(bad, 2, 1, identity_whitening(4))


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
        _reseed_empty(*state)  # updates labels, counts, sums and centroids in place
        _, labels, counts, sums, centroids, _ = state
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
        _reseed_empty(*state)
        _, labels, counts, _, _, _ = state
        assert np.all(counts > 0)
        assert np.array_equal(counts, np.bincount(labels, minlength=6))


class TestWhitenedFilters:
    def test_matches_whitening_then_filters(self):
        rng = np.random.default_rng(4)
        zca = fit_zca(rng.random((200, 8)), 0.1)
        bank = FilterBank(rng.standard_normal((8, 3)), 2, 2, zca)
        g, c = bank.whitened_filters
        # folded in float64, then rounded once to the forward pass's float32
        assert g.dtype == c.dtype == np.float32
        assert np.array_equal(g, (zca.matrix @ bank.filters).astype(np.float32))
        x = rng.random((8, 5))
        expect = bank.filters.T @ (zca.matrix @ (x - zca.mean[:, None]))
        assert_near_oracle(g.T @ x - c.T, expect)
        assert bank.whitened_filters[0] is g  # derived once per bank

    def test_stack_equals_each_bank_bitwise(self):
        rng = np.random.default_rng(5)
        zcas = [fit_zca(rng.random((200, 8)), 0.1) for _ in range(3)]
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
        # the filters only mean something in the whitened space they were learned in
        with pytest.raises(TypeError, match="whitening"):
            FilterBank(np.ones((4, 2)), 2, 1)


class TestKmeansStack:
    """The batched kernel against the frozen one-group-per-call k-means, group by group."""

    @staticmethod
    def _matches_oracle(points, k, max_iters, rngs):
        got = kmeans_stack(points, k, max_iters, rngs)
        n_groups, _, dim = points.shape
        assert got.centroids.shape == (n_groups, dim, k)
        wants = []
        for g in range(n_groups):
            want = train_oracle.per_group_kmeans(points[g], k, max_iters, rngs[g])
            assert np.max(np.abs(got.centroids[g] - want.centroids)) <= 1e-9 * np.max(
                np.abs(want.centroids)
            )
            assert (
                got.n_iters[g], got.converged[g], len(got.sse_history[g]), got.reseeds[g]
            ) == (want.n_iters, want.converged, len(want.sse_history), want.reseeds)
            assert np.allclose(got.sse_history[g], want.sse_history, rtol=1e-9, atol=0.0)
            wants.append(want)
        return got, wants

    @pytest.mark.parametrize(
        "n_groups, n, dim, k", [(3, 400, 9, 6), (5, 1000, 36, 75), (2, 60, 2, 12), (4, 50, 1, 3)]
    )
    def test_random_stacks(self, n_groups, n, dim, k):
        points = np.random.default_rng(n).standard_normal((n_groups, n, dim))
        rngs = [SeededRng(9).child(g) for g in range(n_groups)]
        self._matches_oracle(points, k, 100, rngs)

    def test_groups_converge_at_different_iterations(self):
        rng = np.random.default_rng(11)
        blobs = np.concatenate([rng.normal(c, 0.05, (100, 2)) for c in ((0, 0), (9, 0), (0, 9))])
        points = np.stack([blobs, rng.standard_normal((300, 2)), rng.random((300, 2))])
        got, wants = self._matches_oracle(points, 3, 100, [SeededRng(4, (g,)) for g in range(3)])
        assert len(set(got.n_iters)) > 1  # groups left the batch at different iterations
        assert all(w.converged for w in wants)

    def test_group_that_reseeds(self):
        # 3 distinct values for 5 clusters: k-means++ repeats values, and the
        # clusters behind the repeated centers empty out after one assignment
        rng = np.random.default_rng(3)
        points = np.stack([
            np.repeat([[0.0], [1.0], [5.0]], 10, axis=0),
            rng.standard_normal((30, 1)),
        ])
        got, wants = self._matches_oracle(points, 5, 50, [SeededRng(8), SeededRng(8, (1,))])
        assert wants[0].reseeds > 0 and got.reseeds[0] == wants[0].reseeds
        assert np.all(np.isfinite(got.centroids))

    def test_group_of_duplicate_points(self):
        # every D^2 is 0 after the first center: the draw falls back to a uniform index
        rng = np.random.default_rng(4)
        points = np.stack([np.full((40, 3), 0.7), rng.standard_normal((40, 3))])
        got, _ = self._matches_oracle(points, 4, 20, [SeededRng(2), SeededRng(3)])
        assert np.allclose(got.centroids[0], 0.7, rtol=1e-12, atol=0.0)

    def test_single_group_at_a_layer1_shape(self):
        # toy layer 1: 20000 patches of 8 x 8, K = 16; more rows than one distance block
        points = np.random.default_rng(5).standard_normal((1, 20_000, 64))
        self._matches_oracle(points, 16, 30, [SeededRng(2)])

    def test_checks_fire_once_per_call(self):
        points = np.zeros((2, 3, 1))
        rngs = [SeededRng(0), SeededRng(1)]
        with pytest.raises(InvalidK, match="exceeds"):
            kmeans_stack(points, 4, 10, rngs)
        with pytest.raises(InvalidK):
            kmeans_stack(points, 0, 10, rngs)
        with pytest.raises(ValueError, match="max_iters"):
            kmeans_stack(points, 2, 0, rngs)
        with pytest.raises(ValueError, match="generators"):
            kmeans_stack(points, 2, 10, rngs[:1])
        with pytest.raises(DimError):
            kmeans_stack(points[0], 2, 10, rngs)


class TestPlusPlusFromNorms:
    def test_same_centers_as_difference_form(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            n, dim, k = int(rng.integers(50, 500)), int(rng.integers(1, 40)), int(rng.integers(2, 40))
            points = rng.standard_normal((n, dim))
            points[: n // 4] = points[n - 1]  # copies of one point
            drawn = []
            train_oracle.plusplus_init(points, k, SeededRng(trial).generator(), drawn)
            norms = np.einsum("nd,nd->n", points, points)[None]
            got = _plusplus_init(points[None], norms, k, [SeededRng(trial).generator()])
            assert np.array_equal(got[0], points[drawn])
