import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdfnet.errors import DimError, InvalidPatchSize, NonFiniteValue
from cdfnet.patches import _ROW_BLOCK, ZcaTransform, apply_zca, extract_patches, fit_zca
from cdfnet.patches import normalize_rows
from cdfnet.tensor import SeededRng

import train_oracle
from forward_oracle import normalize_patch
from helpers import traced_peak
from train_oracle import unroll_patch


def _stack(*images):
    """(N, H, W, depth) stack of (H, W) or (H, W, depth) arrays."""
    return np.stack([np.atleast_3d(np.asarray(a, dtype=np.float64)) for a in images])


class TestUnroll:
    def test_depth_major_then_row_major(self):
        # 2x2x2 volume: expect [d0(r0c0), d0(r0c1), d0(r1c0), d0(r1c1), d1...]
        vol = np.zeros((2, 2, 2))
        vol[:, :, 0] = [[1, 2], [3, 4]]
        vol[:, :, 1] = [[5, 6], [7, 8]]
        expect = [1, 2, 3, 4, 5, 6, 7, 8]
        assert np.array_equal(unroll_patch(vol, 0, 0, 2), expect)
        # a 2x2 map has one 2x2 position, so every sampled row is that patch
        rows = extract_patches(_stack(vol), [0, 1], 2, 3, SeededRng(0))
        assert np.array_equal(rows, [expect] * 3)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(0)
        vol = rng.random((5, 6, 4))
        row, col, p = 1, 2, 3
        expect = []
        for d in range(4):
            for r in range(p):
                for c in range(p):
                    expect.append(vol[row + r, col + c, d])
        assert np.array_equal(unroll_patch(vol, row, col, p), expect)


class TestExtractPatches:
    def test_positions_within_valid_range(self):
        base = np.arange(16, dtype=np.float64).reshape(4, 4)
        rows = extract_patches(_stack(base), [0], 2, 500, SeededRng(1))
        assert rows.shape == (500, 4)
        valid = set()
        for r in range(3):
            for c in range(3):
                valid.add(tuple(unroll_patch(base[:, :, None], r, c, 2)))
        seen = {tuple(row) for row in rows}
        assert seen <= valid
        assert len(seen) > 1  # sampling actually varies position

    def test_constant_input(self):
        rows = extract_patches(_stack(np.full((5, 5), 7.0)), [0], 3, 20, SeededRng(2))
        assert np.all(rows == 7.0)

    def test_patch_too_large(self):
        with pytest.raises(InvalidPatchSize):
            extract_patches(_stack(np.zeros((4, 4))), [0], 5, 10, SeededRng(0))

    def test_n_patches_positive(self):
        with pytest.raises(ValueError):
            extract_patches(_stack(np.zeros((4, 4))), [0], 2, 0, SeededRng(0))

    @pytest.mark.parametrize("shape", [(4, 4, 1), (0, 4, 4, 1), (1, 1, 4, 4, 1)])
    def test_needs_nonempty_stack(self, shape):
        with pytest.raises(DimError):
            extract_patches(np.zeros(shape), [0], 2, 10, SeededRng(0))

    def test_deterministic(self):
        maps = _stack(*(np.random.default_rng(i).random((6, 6, 2)) for i in range(3)))
        a = extract_patches(maps, [0, 1], 3, 100, SeededRng(9))
        b = extract_patches(maps, [0, 1], 3, 100, SeededRng(9))
        assert np.array_equal(a, b)
        c = extract_patches(maps, [0, 1], 3, 100, SeededRng(10))
        assert not np.array_equal(a, c)

    def test_depth_recorded(self):
        # the row width is p^2 times the number of channels sampled, not the stack's depth
        maps = _stack(np.zeros((6, 6, 3)))
        assert extract_patches(maps, [0, 1, 2], 2, 5, SeededRng(0)).shape == (5, 2 * 2 * 3)
        assert extract_patches(maps, [2, 0], 2, 5, SeededRng(0)).shape == (5, 2 * 2 * 2)

    def test_float32_stack_widens_only_the_sampled_rows(self):
        # a float32 layer-1 stack of 0.5 MB, 100 patches of 3 x 3 x 8 (58 KB)
        maps = np.random.default_rng(3).random((10, 40, 40, 8)).astype(np.float32)
        channels = list(range(8))
        rows, peak = traced_peak(extract_patches, maps, channels, 3, 100, SeededRng(4))
        assert rows.dtype == np.float64
        wide = extract_patches(maps.astype(np.float64), channels, 3, 100, SeededRng(4))
        assert np.array_equal(rows, wide)
        assert peak <= 4 * rows.nbytes  # a float64 copy of the stack would be 1 MB

    def test_samples_across_images(self):
        maps = _stack(*(np.full((4, 4), float(i)) for i in range(4)))
        rows = extract_patches(maps, [0], 2, 400, SeededRng(3))
        assert {v for v in rows[:, 0]} == {0.0, 1.0, 2.0, 3.0}

    @pytest.mark.parametrize("p, depth", [(3, 1), (2, 4)])
    def test_matches_per_patch_oracle(self, p, depth):
        # on non-square maps, over all channels and over a reordered subset of them
        maps = np.random.default_rng(8).random((5, 9, 7, depth))
        for channels in (list(range(depth)), list(range(depth))[::-2]):
            rows = extract_patches(maps, channels, p, 2500, SeededRng(4, (1, 2)))
            want = train_oracle.extract_patches(
                list(maps[..., channels]), p, 2500, SeededRng(4, (1, 2))
            )
            assert np.array_equal(rows, want)
            assert rows.flags.c_contiguous


def _normalize(x):
    """The package's patch normalization on one patch."""
    out = np.array(x, dtype=np.float64)
    normalize_rows(out)
    return out


class TestNormalizePatch:
    def test_two_four(self):
        assert np.allclose(_normalize([2.0, 4.0]), [-0.25, 0.25])

    def test_zero_guard(self):
        assert np.array_equal(_normalize(np.zeros(3)), np.zeros(3))

    def test_negative(self):
        out = _normalize([-3.0, 1.0])
        assert np.allclose(out, [-2.0 / 3.0, 2.0 / 3.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_zero_mean(self, values):
        out = _normalize(values)
        assert abs(out.mean()) < 1e-12

    # Scaling can round a subnormal entry to zero (0.5 * 5e-324 == 0), after
    # which the patch really is different; invariance holds only while every
    # nonzero entry of lam * x stays a normal float.
    @given(
        st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=2, max_size=16),
        st.floats(1e-6, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariant(self, values, lam):
        x = np.array(values)
        scaled = np.abs(lam * x)
        assume(np.all((scaled == 0.0) | (scaled >= np.finfo(float).tiny)))
        a = _normalize(x)
        b = _normalize(lam * x)
        assert np.allclose(a, b, atol=1e-9)

    def test_range_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            out = _normalize(rng.normal(0, 10, 20))
            assert np.max(np.abs(out)) <= 2.0

    def test_rows_match_single(self):
        rng = np.random.default_rng(5)
        data = rng.normal(0, 3, (40, 6))
        data[7] = 0.0  # zero row goes through the guard
        rows = data.copy()
        normalize_rows(rows)
        for j in range(40):
            assert np.array_equal(rows[j], normalize_patch(data[j]))

    def test_in_place_on_any_leading_shape(self):
        rng = np.random.default_rng(6)
        data = rng.normal(0, 3, (3, 5, 6))
        out = data.copy()
        assert normalize_rows(out) is None
        for idx in np.ndindex(3, 5):
            assert np.array_equal(out[idx], normalize_patch(data[idx]))


def _white_patches(n=5000, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d))


def _whitened(transform, data):
    """A copy of data, whitened in place by apply_zca."""
    data = np.array(data, dtype=np.float64)
    assert apply_zca(transform, data) is None
    return data


def _mixed_stack(n, d, n_slices=3):
    """(n_slices, n, d) rows, each slice mixed by its own matrix and offset."""
    rng = np.random.default_rng(n + d)
    return np.stack([
        rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + rng.standard_normal(d)
        for _ in range(n_slices)
    ])


def _oracle_zcas(stack, epsilon=0.1):
    """Stacked means and matrices of the oracle's one-slice-at-a-time ZCA fits."""
    fits = [train_oracle.fit_zca(s, epsilon) for s in stack]
    return np.stack([f.mean for f in fits]), np.stack([f.matrix for f in fits])


class TestFitZca:
    def test_white_data_identity(self):
        pm = _white_patches()
        t = fit_zca(pm, 1e-12)
        # whitening of (approximately) white data is close to identity
        assert np.allclose(t.matrix, np.eye(8), atol=0.1)

    def test_d2_eigendecomposition_oracle(self):
        # anisotropic scaling of the 4-point set {(1,1),(-1,-1),(1,-1),(-1,1)}
        base = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
        data = np.diag([3.0, 0.5]) @ base  # one column per point
        eps = 1e-8
        t = fit_zca(data.T, eps)

        centered = data - data.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / (data.shape[1] - 1)
        evals, evecs = np.linalg.eigh(cov)
        oracle = evecs @ np.diag(1.0 / np.sqrt(evals + eps)) @ evecs.T
        assert np.allclose(t.matrix, oracle, atol=1e-9)
        assert np.allclose(t.mean, 0.0, atol=1e-12)

    def test_large_epsilon_dominates(self):
        pm = _white_patches(d=4)
        eps = 1e12
        t = fit_zca(pm, eps)
        assert np.allclose(t.matrix, np.eye(4) / np.sqrt(eps), rtol=1e-3)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((2000, 5)) @ rng.standard_normal((5, 5))
        t = fit_zca(data, 1e-6)
        assert np.allclose(t.matrix, t.matrix.T, atol=1e-9)
        assert np.all(np.linalg.eigvalsh(t.matrix) > 0)

    def test_nonfinite_rejected(self):
        data = np.zeros((10, 3))
        data[4, 1] = np.nan
        with pytest.raises(NonFiniteValue):
            fit_zca(data, 0.01)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            fit_zca(_white_patches(d=2), 0.0)
        # eigenvalues + eps < 0 would make sqrt warn, which the test settings
        # turn into an error: the check must fire first
        with pytest.raises(ValueError, match="epsilon"):
            fit_zca(_white_patches(d=2), -1e6)
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="epsilon"):
                fit_zca(_white_patches(d=2), eps)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0, 4), (4,)])
    def test_needs_rows(self, shape):
        with pytest.raises(DimError):
            fit_zca(np.zeros(shape), 0.1)

    @pytest.mark.parametrize("n, d", [(1000, 36), (777, 18), (200, 9)])
    def test_stack_equals_oracle_per_slice(self, n, d):
        stack = _mixed_stack(n, d)
        t = fit_zca(stack, 0.1)
        want_mean, want_matrix = _oracle_zcas(stack)
        assert t.mean.shape == (3, d) and t.matrix.shape == (3, d, d)
        assert np.array_equal(t.mean, want_mean)
        assert np.array_equal(t.matrix, want_matrix)


    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_blocked_fit_matches_direct_centered_fit(self, lead):
        # several row blocks and a short last one, far from zero mean, against
        # one centered float64 product over all rows
        rng = np.random.default_rng(9)
        n, d = 3 * _ROW_BLOCK + 123, 12
        stack = rng.standard_normal((*lead, n, d)) @ rng.standard_normal((d, d)) + 5.0
        t = fit_zca(stack, 0.1)
        for mean, matrix, rows in zip(t.mean.reshape(-1, d), t.matrix.reshape(-1, d, d),
                                      stack.reshape(-1, n, d)):
            want = train_oracle.fit_zca(rows, 0.1)
            assert np.max(np.abs(mean - want.mean)) <= 1e-12 * np.max(np.abs(want.mean))
            assert np.max(np.abs(matrix - want.matrix)) <= 1e-12 * np.max(np.abs(want.matrix))

    @pytest.mark.parametrize("shape", [(40000, 64), (2, 30000, 32)])
    def test_holds_a_fraction_of_its_input(self, shape):
        # no centered copy and no boolean mask of the whole matrix: row blocks only
        data = np.random.default_rng(10).random(shape)
        _, peak = traced_peak(fit_zca, data, 0.1)
        assert peak <= 0.2 * data.nbytes

    def test_nonfinite_in_a_later_block_named_by_its_coordinate(self):
        data = np.zeros((2 * _ROW_BLOCK, 3))
        data[_ROW_BLOCK + 5, 1] = np.inf
        with pytest.raises(NonFiniteValue, match=rf"at \({_ROW_BLOCK + 5}, 1\)"):
            fit_zca(data, 0.01)


class TestApplyZca:
    def test_identity_transform(self):
        pm = _white_patches(n=50, d=3)
        t = ZcaTransform(np.zeros(3), np.eye(3))
        assert np.array_equal(_whitened(t, pm), pm)

    def test_self_whitening_covariance(self):
        rng = np.random.default_rng(7)
        mix = rng.standard_normal((6, 6))
        data = rng.standard_normal((20000, 6)) @ mix
        t = fit_zca(data, 1e-8)
        white = _whitened(t, data)
        cov = white.T @ white / (white.shape[0] - 1)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-6
        assert np.allclose(np.diag(cov), 1.0, atol=1e-3)

    def test_dim_mismatch(self):
        t = ZcaTransform(np.zeros(3), np.eye(3))
        with pytest.raises(DimError):
            apply_zca(t, _white_patches(n=10, d=4))

    def test_subtracts_mean(self):
        data = np.array([[1.0, 2.0], [3.0, 6.0]])
        t = ZcaTransform(np.array([1.0, 2.0]), np.eye(2))
        assert np.array_equal(_whitened(t, data), [[0.0, 0.0], [2.0, 4.0]])

    def test_matches_column_form(self):
        rng = np.random.default_rng(8)
        data = rng.random((300, 8))
        t = fit_zca(data, 0.1)
        expect = t.matrix @ (data.T - t.mean[:, None])
        assert np.allclose(_whitened(t, data), expect.T, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n, d", [(1000, 36), (777, 18), (200, 9)])
    def test_stack_equals_oracle_per_slice(self, n, d):
        stack = _mixed_stack(n, d)
        t = ZcaTransform(*_oracle_zcas(stack))
        want = [train_oracle.apply_zca(ZcaTransform(m, a), s)
                for m, a, s in zip(t.mean, t.matrix, stack)]
        assert np.array_equal(_whitened(t, stack), want)

    @pytest.mark.parametrize("shape", [(2 * _ROW_BLOCK + 77, 8), (2, _ROW_BLOCK + 5, 8)],
                             ids=["rows", "stack"])
    def test_row_blocks_match_one_product(self, shape):
        # several row blocks and a short last one, against one product per slice
        data = np.random.default_rng(11).random(shape) * 3.0 + 2.0
        t = fit_zca(data, 0.1)
        want = (data - t.mean[..., None, :]) @ np.swapaxes(t.matrix, -1, -2)
        assert np.allclose(_whitened(t, data), want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    def test_holds_one_row_block_beside_its_input(self):
        data = np.random.default_rng(12).random((40000, 64))
        t = fit_zca(data, 0.1)
        _, peak = traced_peak(apply_zca, t, data)
        assert peak <= 0.15 * data.nbytes


class TestZcaTransformValidation:
    def test_symmetry_enforced(self):
        m = np.eye(2)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError):
            ZcaTransform(np.zeros(2), m)

    @pytest.mark.parametrize(
        "mean_shape, matrix_shape", [((), (1, 1)), ((3,), (2, 2)), ((2, 3), (3, 3, 3))]
    )
    def test_shapes_must_match(self, mean_shape, matrix_shape):
        with pytest.raises(DimError, match="inconsistent ZCA shapes"):
            ZcaTransform(np.zeros(mean_shape), np.zeros(matrix_shape))

    def test_epsilon_positive(self):
        # the transform holds no epsilon (it is folded into the matrix), so
        # the rule is checked where epsilon is used, in the fit
        assert [f.name for f in dataclasses.fields(ZcaTransform)] == ["mean", "matrix"]
        for eps in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="epsilon"):
                fit_zca(_white_patches(d=2), eps)
