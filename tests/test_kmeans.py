import numpy as np
import pytest

from cdfnet import kmeans
from cdfnet.errors import DimError, InvalidK, NonFiniteValue
from cdfnet.kmeans import _assignments, _plusplus_init, _reseed_empty, kmeans_stack
from cdfnet.layer import FilterBank
from cdfnet.patches import ZcaTransform, fit_zca
from cdfnet.tensor import SeededRng

import train_oracle
from helpers import traced_peak


def _pm(values):
    """One-dimensional points as (n, 1) rows."""
    return np.asarray(values, dtype=np.float64)[:, None]


def _capped_stack(points, k, max_iters, rngs):
    """kmeans_stack with its round cap kmeans.MAX_ITERS set to max_iters."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmeans, "MAX_ITERS", max_iters)
        return kmeans_stack(points, k, rngs)


def _one_run(points, k, max_iters, rng):
    """One run: the G = 1 call of kmeans_stack on (n, dim) rows, as the
    Run record of the oracle's single-group k-means."""
    got = _capped_stack(points[None], k, max_iters, [rng])
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
        with pytest.raises(DimError, match=r"filter offset \(3,\) does not match filters \(5, 2\)"):
            FilterBank(np.zeros((5, 2)), np.zeros(3))  # K = 2, offset for 3
        with pytest.raises(DimError, match="offset"):
            FilterBank(np.zeros((3, 5, 2)), np.zeros(2))  # a stack needs a stacked offset
        with pytest.raises(DimError):
            FilterBank(np.zeros(5), np.zeros(5))  # not (d, K)

    def test_layer_index_is_the_stacking(self):
        single = FilterBank(np.zeros((4, 2)), np.zeros(2))
        stack = FilterBank(np.zeros((3, 4, 2)), np.zeros((3, 2)))
        assert (single.layer_index, stack.layer_index) == (1, 2)
        with pytest.raises(AttributeError):
            single.layer_index = 2
        with pytest.raises(TypeError):
            FilterBank(np.zeros((4, 2)), np.zeros(2), 1)  # the stacking, not an argument

    def test_needs_filters(self):
        with pytest.raises(DimError):
            FilterBank(np.zeros((4, 0)), np.zeros(0))

    def test_rejects_nonfinite(self):
        bad = np.zeros((4, 2))
        bad[1, 1] = np.inf
        with pytest.raises(NonFiniteValue, match="filter bank"):
            FilterBank(bad, np.zeros(2))
        with pytest.raises(NonFiniteValue, match="filter offset"):
            FilterBank(np.zeros((4, 2)), np.array([0.0, np.nan]))


class TestAssignments:
    def test_assignments_hold_one_distance_block(self):
        # 60000 points make four (16384, 60) distance blocks, each 0.26 copies
        # of the points; holding the last block while the next is made would
        # take the peak past half a copy
        rng = np.random.default_rng(8)
        points = rng.standard_normal((1, 60_000, 64))
        norms = np.einsum("gnd,gnd->gn", points, points)
        centroids = points[:, :60].copy()
        (labels, dist), peak = traced_peak(_assignments, points, centroids, norms)
        assert labels.shape == dist.shape == (1, 60_000)
        assert peak < 0.4 * points.nbytes


class TestReseed:
    def _state(self, points, labels, centroids):
        points = np.asarray(points, dtype=np.float64)
        centroids = np.asarray(centroids, dtype=np.float64)
        labels = np.asarray(labels)
        k = centroids.shape[0]
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, points)
        dist = np.sum((points - centroids[labels]) ** 2, axis=1)
        return points, dist, labels, counts, sums, centroids, np.flatnonzero(counts == 0)

    def test_singleton_member_is_not_taken(self):
        # the farthest point (10) is the only member of cluster 1; moving it
        # would empty cluster 1 instead of filling cluster 2
        state = self._state([[0.0], [10.0], [0.1], [0.3]], [0, 1, 0, 0], [[0.1], [0.0], [50.0]])
        _reseed_empty(*state)  # updates labels, counts, sums and centroids in place
        _, _, labels, counts, sums, centroids, _ = state
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
        _, _, labels, counts, _, _, _ = state
        assert np.all(counts > 0)
        assert np.array_equal(counts, np.bincount(labels, minlength=6))

    def test_reseeding_run_holds_no_copy_of_the_points(self):
        # 4 distinct rows for 8 clusters: 4 clusters empty out every round.
        # A reseed reads the round's assignment distances, so the run holds
        # per-point arrays and (block, k) distances, not an (n, dim) buffer.
        points = np.repeat(np.random.default_rng(7).standard_normal((4, 64)), 15_000, axis=0)[None]
        _capped_stack(points[:, :100], 8, 2, [SeededRng(1)])  # warm: scipy's lazy import
        got, peak = traced_peak(_capped_stack, points, 8, 10, [SeededRng(1)])
        assert got.reseeds[0] == 40
        assert peak < 0.5 * points.nbytes


class TestWhitenedFilters:
    """ZcaTransform.fold: a bank stores its filters with the whitening folded in."""

    @staticmethod
    def _check_fold(zca, filters, x):
        # x F' - c on raw rows x against F^T M (x - mu), in float64
        g, c = zca.fold(filters)
        assert g.dtype == c.dtype == np.float64
        assert g.shape == filters.shape and c.shape == filters.shape[:-2] + filters.shape[-1:]
        got = x @ g - c[..., None, :]
        centered = x - zca.mean[..., None, :]
        want = np.einsum("...dk,...de,...ne->...nk", filters, zca.matrix, centered)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        return g, c

    def test_matches_whitening_then_filters(self):
        rng = np.random.default_rng(4)
        zca = fit_zca(rng.random((200, 8)), 0.1)
        filters = rng.standard_normal((8, 3))
        g, c = self._check_fold(zca, filters, rng.random((5, 8)))
        # the bank rounds the float64 fold once to the forward pass's float32
        bank = FilterBank(g, c)
        assert bank.filters.dtype == bank.offset.dtype == np.float32
        assert np.array_equal(bank.filters, g.astype(np.float32))
        assert np.array_equal(bank.offset, c.astype(np.float32))

    def test_stack_equals_each_bank_bitwise(self):
        rng = np.random.default_rng(5)
        zcas = [fit_zca(rng.random((200, 8)), 0.1) for _ in range(3)]
        filters = rng.standard_normal((3, 8, 4))
        stacked = ZcaTransform(np.stack([z.mean for z in zcas]), np.stack([z.matrix for z in zcas]))
        g, c = self._check_fold(stacked, filters, rng.random((3, 5, 8)))
        assert g.shape == (3, 8, 4) and c.shape == (3, 4)
        for i, zca in enumerate(zcas):
            gi, ci = zca.fold(filters[i])
            assert np.array_equal(g[i], gi) and np.array_equal(c[i], ci)

    def test_stacked_whitening_must_match_filters(self):
        zca = ZcaTransform(np.zeros((2, 4)), np.tile(np.eye(4), (2, 1, 1)))
        with pytest.raises(DimError, match="whitening mean"):
            zca.fold(np.ones((3, 4, 2)))
        with pytest.raises(DimError, match="whitening mean"):
            zca.fold(np.ones((1, 4, 2)))  # would broadcast over the groups

    def test_needs_whitening(self):
        # the filters only mean something with the offset their folded
        # whitening leaves
        with pytest.raises(TypeError, match="offset"):
            FilterBank(np.ones((4, 2)))


class TestKmeansStack:
    """The batched kernel against the frozen one-group-per-call k-means, group by group."""

    @staticmethod
    def _matches_oracle(points, k, max_iters, rngs):
        got = _capped_stack(points, k, max_iters, rngs)
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
            kmeans_stack(points, 4, rngs)
        with pytest.raises(InvalidK):
            kmeans_stack(points, 0, rngs)
        with pytest.raises(ValueError, match="generators"):
            kmeans_stack(points, 2, rngs[:1])
        with pytest.raises(DimError):
            kmeans_stack(points[0], 2, rngs)


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
