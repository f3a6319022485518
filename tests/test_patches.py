import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdfnet.errors import DimError, InvalidPatchSize, NonFiniteValue
from cdfnet.patches import (
    PatchMatrix,
    ZcaTransform,
    apply_zca,
    extract_patches,
    fit_zca,
    normalize_rows,
)
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
        pm = extract_patches(_stack(vol), 2, 3, SeededRng(0))
        assert np.array_equal(pm.data, [expect] * 3)

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
        pm = extract_patches(_stack(base), 2, 500, SeededRng(1))
        assert pm.data.shape == (500, 4)
        valid = set()
        for r in range(3):
            for c in range(3):
                valid.add(tuple(unroll_patch(base[:, :, None], r, c, 2)))
        seen = {tuple(row) for row in pm.data}
        assert seen <= valid
        assert len(seen) > 1  # sampling actually varies position

    def test_constant_input(self):
        pm = extract_patches(_stack(np.full((5, 5), 7.0)), 3, 20, SeededRng(2))
        assert np.all(pm.data == 7.0)

    def test_patch_too_large(self):
        with pytest.raises(InvalidPatchSize):
            extract_patches(_stack(np.zeros((4, 4))), 5, 10, SeededRng(0))

    def test_n_patches_positive(self):
        with pytest.raises(ValueError):
            extract_patches(_stack(np.zeros((4, 4))), 2, 0, SeededRng(0))

    @pytest.mark.parametrize("shape", [(4, 4, 1), (0, 4, 4, 1), (1, 1, 4, 4, 1)])
    def test_needs_nonempty_stack(self, shape):
        with pytest.raises(DimError):
            extract_patches(np.zeros(shape), 2, 10, SeededRng(0))

    def test_deterministic(self):
        maps = _stack(*(np.random.default_rng(i).random((6, 6, 2)) for i in range(3)))
        a = extract_patches(maps, 3, 100, SeededRng(9))
        b = extract_patches(maps, 3, 100, SeededRng(9))
        assert np.array_equal(a.data, b.data)
        c = extract_patches(maps, 3, 100, SeededRng(10))
        assert not np.array_equal(a.data, c.data)

    def test_depth_recorded(self):
        pm = extract_patches(_stack(np.zeros((6, 6, 3))), 2, 5, SeededRng(0))
        assert pm.depth == 3
        assert pm.patch_side == 2
        assert pm.data.shape[1] == 2 * 2 * 3

    def test_float32_stack_widens_only_the_sampled_rows(self):
        # a float32 layer-1 stack of 0.5 MB, 100 patches of 3 x 3 x 8 (58 KB)
        maps = np.random.default_rng(3).random((10, 40, 40, 8)).astype(np.float32)
        pm, peak = traced_peak(extract_patches, maps, 3, 100, SeededRng(4))
        assert pm.data.dtype == np.float64
        wide = extract_patches(maps.astype(np.float64), 3, 100, SeededRng(4))
        assert np.array_equal(pm.data, wide.data)
        assert peak <= 4 * pm.data.nbytes  # a float64 copy of the stack would be 1 MB

    def test_samples_across_images(self):
        maps = _stack(*(np.full((4, 4), float(i)) for i in range(4)))
        pm = extract_patches(maps, 2, 400, SeededRng(3))
        assert {v for v in pm.data[:, 0]} == {0.0, 1.0, 2.0, 3.0}

    @pytest.mark.parametrize("p, depth", [(3, 1), (2, 4)])
    def test_matches_per_patch_oracle(self, p, depth):
        # on non-square maps
        maps = np.random.default_rng(8).random((5, 9, 7, depth))
        pm = extract_patches(maps, p, 2500, SeededRng(4, (1, 2)))
        want = train_oracle.extract_patches(list(maps), p, 2500, SeededRng(4, (1, 2)))
        assert np.array_equal(pm.data, want.data)
        assert pm.data.flags.c_contiguous


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
    return PatchMatrix(rng.standard_normal((n, d)), 1, d)


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
        pm = PatchMatrix(data.T, 1, 2)
        eps = 1e-8
        t = fit_zca(pm, eps)

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
        t = fit_zca(PatchMatrix(data, 1, 5), 1e-6)
        assert np.allclose(t.matrix, t.matrix.T, atol=1e-9)
        assert np.all(np.linalg.eigvalsh(t.matrix) > 0)

    def test_nonfinite_rejected(self):
        data = np.zeros((10, 3))
        data[4, 1] = np.nan
        with pytest.raises(NonFiniteValue):
            fit_zca(PatchMatrix(data, 1, 3), 0.01)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            fit_zca(_white_patches(d=2), 0.0)
        # eigenvalues + eps < 0 would make sqrt warn, which the test settings
        # turn into an error: the check must fire first
        with pytest.raises(ValueError, match="epsilon"):
            fit_zca(_white_patches(d=2), -1e6)


class TestApplyZca:
    def test_identity_transform(self):
        pm = _white_patches(n=50, d=3)
        t = ZcaTransform(np.zeros(3), np.eye(3), 1e-6)
        out = apply_zca(t, pm)
        assert np.array_equal(out.data, pm.data)

    def test_self_whitening_covariance(self):
        rng = np.random.default_rng(7)
        mix = rng.standard_normal((6, 6))
        data = rng.standard_normal((20000, 6)) @ mix
        pm = PatchMatrix(data, 1, 6)
        t = fit_zca(pm, 1e-8)
        white = apply_zca(t, pm).data
        cov = white.T @ white / (white.shape[0] - 1)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-6
        assert np.allclose(np.diag(cov), 1.0, atol=1e-3)

    def test_dim_mismatch(self):
        t = ZcaTransform(np.zeros(3), np.eye(3), 1e-6)
        with pytest.raises(DimError):
            apply_zca(t, _white_patches(n=10, d=4))

    def test_subtracts_mean(self):
        data = np.array([[1.0, 2.0], [3.0, 6.0]])
        t = ZcaTransform(np.array([1.0, 2.0]), np.eye(2), 1e-6)
        out = apply_zca(t, PatchMatrix(data, 1, 2))
        assert np.array_equal(out.data, [[0.0, 0.0], [2.0, 4.0]])

    def test_matches_column_form(self):
        rng = np.random.default_rng(8)
        pm = PatchMatrix(rng.random((300, 8)), 2, 2)
        t = fit_zca(pm, 0.1)
        expect = t.matrix @ (pm.data.T - t.mean[:, None])
        assert np.allclose(apply_zca(t, pm).data, expect.T, rtol=1e-12, atol=1e-12)


class TestPatchMatrixValidation:
    def test_row_consistency(self):
        with pytest.raises(DimError):
            PatchMatrix(np.zeros((10, 5)), 2, 1)  # 2*2*1 = 4 != 5

    def test_needs_patches(self):
        with pytest.raises(DimError):
            PatchMatrix(np.zeros((0, 4)), 2, 1)


class TestZcaTransformValidation:
    def test_symmetry_enforced(self):
        m = np.eye(2)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError):
            ZcaTransform(np.zeros(2), m, 0.01)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            ZcaTransform(np.zeros(2), np.eye(2), 0.0)
