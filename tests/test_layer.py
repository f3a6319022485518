import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from cdfnet import layer
from cdfnet.config import Layer1Config, Layer2Config, NetworkConfig
from cdfnet.errors import DimError, InvalidGrouping, InvalidWindow
from cdfnet.layer import (
    FilterBank,
    _convolve,
    _lcn_divide,
    _lcn_subtract,
    _lcn_weighted_sum,
    _pool,
    _rectify,
    conv_output_shape,
    dense_patches,
    layer_output_shape,
    make_groups,
    pool_output_shape,
    run_groups,
    run_layer,
)
from cdfnet.patches import fit_zca, ZcaTransform
from cdfnet.tensor import FeatureMapSet, SeededRng

import forward_oracle
from forward_oracle import gaussian_window, normalize_patch
from helpers import assert_near_oracle
from helpers import folded_bank as _bank
from train_oracle import unroll_patch

SRC = Path(__file__).resolve().parent.parent / "src" / "cdfnet"


def _fmset(arr):
    return FeatureMapSet(np.asarray(arr, dtype=np.float64))


def _stack(banks):
    """The (G, d, K) bank of equal-shaped banks."""
    return FilterBank(np.stack([b.filters for b in banks]), np.stack([b.offset for b in banks]))


def _conv(maps, bank, p):
    return _convolve(np.asarray(maps, dtype=np.float64), bank, p)


def _rect(maps, rectifier):
    """_rectify on a copy: abs works in place."""
    return _rectify(np.array(maps, dtype=np.float64), rectifier)


def _lcn_sub(maps, window, sigma):
    out = np.array(maps, dtype=np.float64)
    _lcn_subtract(out, window, sigma)
    return out


def _lcn_div(maps, window, sigma):
    out = np.array(maps, dtype=np.float64)
    _lcn_divide(out, window, sigma)
    return out


def _layer1(**kw):
    base = dict(
        pool_side=2, pool_stride=2, pool_alpha=1.0, lcn_window=3, lcn_sigma=0.75,
    )
    base.update(kw)
    return Layer1Config(**base)


def _conv_oracle(maps, bank, p):
    """Triple-loop convolution of one bank of p x p filters in float64,
    depth-major unroll: each patch normalized on its own, then one dot
    product per filter, less that filter's offset."""
    h, w, _ = maps.shape
    out = np.zeros((h - p + 1, w - p + 1, bank.k))
    for j in range(h - p + 1):
        for i in range(w - p + 1):
            x = normalize_patch(unroll_patch(maps, j, i, p))
            for f in range(bank.k):
                out[j, i, f] = float(x @ bank.filters[:, f]) - float(bank.offset[f])
    return out


class TestConvolve:
    def test_delta_filter_selects_window_corner(self):
        # under the identity whitening, the corner of each normalized window
        rng = np.random.default_rng(0)
        maps = rng.random((5, 5, 1))
        delta = np.zeros((9, 1))
        delta[0, 0] = 1.0
        out = _conv(maps, _bank(delta), 3)
        assert out.shape == (3, 3, 1)
        corners = [[normalize_patch(maps[j : j + 3, i : i + 3, 0])[0, 0] for i in range(3)]
                   for j in range(3)]
        assert_near_oracle(out[:, :, 0], corners)

    def test_constant_input_sums_filter(self):
        # a constant patch normalizes to zero, so the response is the offset
        # -mu^T M F alone; with mu = -1 and M = I that is each filter's sum
        filt = np.arange(4.0).reshape(4, 1)
        bank = _bank(filt, ZcaTransform(-np.ones(4), np.eye(4)))
        out = _conv(np.full((5, 5, 1), 0.3), bank, 2)
        assert np.array_equal(out, np.full((4, 4, 1), filt.sum()))

    def test_random_5x5_vs_triple_loop(self):
        rng = np.random.default_rng(1)
        maps = rng.random((5, 5, 1))
        bank = _bank(rng.standard_normal((9, 4)))
        assert_near_oracle(_conv(maps, bank, 3), _conv_oracle(maps, bank, 3))

    def test_multi_depth_vs_triple_loop(self):
        rng = np.random.default_rng(2)
        maps = rng.random((7, 6, 3))
        bank = _bank(rng.standard_normal((2 * 2 * 3, 5)))
        out = _conv(maps, bank, 2)
        assert out.dtype == np.float32
        assert_near_oracle(out, _conv_oracle(maps, bank, 2))

    def test_many_random_instances_vs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h = int(rng.integers(3, 8))
            w = int(rng.integers(3, 8))
            depth = int(rng.integers(1, 4))
            p = int(rng.integers(1, min(h, w) + 1))
            k = int(rng.integers(1, 5))
            maps = rng.standard_normal((h, w, depth))
            bank = _bank(rng.standard_normal((p * p * depth, k)))
            out = _conv(maps, bank, p)
            want = _conv_oracle(maps, bank, p)
            if np.any(want):
                assert_near_oracle(out, want)
            else:  # one-pixel patches normalize to zero
                assert not np.any(out)

    def test_depth_mismatch(self):
        # 3x3 filters over one map, fed two: d = 9 is not 3^2 * 2
        with pytest.raises(DimError, match="filter dim 9"):
            run_layer(
                _fmset(np.zeros((5, 5, 2))), _bank(np.zeros((9, 1))),
                _layer1(patch_side=3), "abs",
            )

    def test_filter_too_large(self):
        with pytest.raises(DimError):
            run_layer(
                _fmset(np.zeros((4, 4, 1))), _bank(np.zeros((25, 1))),
                _layer1(patch_side=5), "abs",
            )

    def test_dense_preprocess_matches_per_patch_oracle(self):
        # a fitted whitening; a positive rescale of the input normalizes away,
        # and a constant input normalizes to zero patches, leaving -mu^T M F
        rng = np.random.default_rng(5)
        maps = rng.random((6, 6, 2))
        zca = fit_zca(rng.random((500, 8)), 0.1)
        filters = rng.standard_normal((8, 3))
        bank = _bank(filters, zca)
        for x in (maps, 2.5 * maps, np.full((6, 6, 2), 0.7)):
            expect = np.empty((5, 5, 3))
            for j in range(5):
                for i in range(5):
                    patch = normalize_patch(unroll_patch(x, j, i, 2))
                    expect[j, i] = (zca.matrix @ (patch - zca.mean)) @ filters
            assert_near_oracle(_conv(x, bank, 2), expect)

    def test_dense_patch_positions_row_major(self):
        rng = np.random.default_rng(6)
        maps = rng.random((4, 5, 2))
        rows, (oh, ow) = dense_patches(maps, 2)
        assert (oh, ow) == (3, 4)
        for j in range(oh):
            for i in range(ow):
                assert np.array_equal(rows[j * ow + i], unroll_patch(maps, j, i, 2))


class TestCenteredConvolution:
    """Raw patches against centered filters, scaled by each window's peak,
    checked against the float64 normalize-then-multiply oracle."""

    @staticmethod
    def _whitened_bank(rng, d, k, lead=()):
        zcas = [fit_zca(rng.random((400, d)), 0.1) for _ in range(math.prod(lead))]
        banks = [_bank(rng.standard_normal((d, k)), zca) for zca in zcas]
        return banks[0] if not lead else _stack(banks)

    @pytest.mark.parametrize("side", [1, 2, 5, 9])
    def test_sliding_max_matches_window_view(self, side):
        values = np.random.default_rng(30).standard_normal((2, side, side + 3))
        for axis in (-2, -1):
            for p in range(1, values.shape[axis] + 1):
                want = sliding_window_view(values, p, axis=axis).max(axis=-1)
                assert np.array_equal(layer._sliding_max(values, p, axis), want), (axis, p)

    def test_near_saturated_image_with_flat_block(self):
        # pixels crowd 1, and one block is exactly flat: a product on the
        # unshifted rows would round at the level 1, not at the spread 0.02
        rng = np.random.default_rng(31)
        maps = 0.98 + 0.02 * rng.random((24, 24, 1))
        maps[4:16, 6:18] = 0.98
        bank = self._whitened_bank(rng, 64, 6)
        assert_near_oracle(_conv(maps, bank, 8), forward_oracle._convolve(maps, bank, 8))

    def test_zero_image_is_the_offset(self):
        rng = np.random.default_rng(32)
        bank = self._whitened_bank(rng, 25, 4)
        out = _conv(np.zeros((9, 9, 1)), bank, 5)
        assert np.array_equal(out, np.broadcast_to(-bank.offset, out.shape))

    def test_signed_stack_with_a_zero_group(self):
        # layer-2 shaped: signed maps, one bank per group, one group all zero
        rng = np.random.default_rng(33)
        maps = rng.standard_normal((3, 9, 9, 4))
        maps[1] = 0.0
        bank = self._whitened_bank(rng, 36, 5, lead=(3,))
        out = _conv(maps, bank, 3)
        for g in range(3):
            want = forward_oracle._convolve(maps[g], forward_oracle.group_bank(bank, g), 3)
            assert_near_oracle(out[g], want)
        assert np.array_equal(out[1], np.broadcast_to(-bank.offset[1], out[1].shape))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_peak_on_the_windows_last_row_and_column(self, sign):
        # one spike far above the rest sets max|x| of every window holding it;
        # the window with top-left (2, 3) holds it in its last row and column
        rng = np.random.default_rng(34)
        maps = 0.1 * rng.random((10, 11, 2))
        maps[6, 7, 1] = 3.0 * sign
        bank = self._whitened_bank(rng, 50, 3)
        assert_near_oracle(_conv(maps, bank, 5), forward_oracle._convolve(maps, bank, 5))

    def test_centered_filters_derived_from_the_stored_ones(self):
        # derived in float64 from the float32 filters, so rebuilding a bank
        # from its filters and offset, as loading a model does, gives its bits
        rng = np.random.default_rng(35)
        bank = self._whitened_bank(rng, 18, 4, lead=(2,))
        wide = bank.filters.astype(np.float64)
        want = (wide - wide.mean(axis=-2, keepdims=True)).astype(np.float32)
        assert bank.centered.dtype == np.float32
        assert np.array_equal(bank.centered, want)
        assert np.array_equal(FilterBank(bank.filters, bank.offset).centered, bank.centered)
        assert np.max(np.abs(bank.centered.sum(axis=-2))) <= 1e-5 * np.max(np.abs(wide))

    def test_convolution_does_not_normalize_rows(self):
        tree = ast.parse((SRC / "layer.py").read_text(encoding="utf-8"))
        assert "normalize_rows" not in set(_identifiers(tree))


class TestRectify:
    def test_abs_example(self):
        out = _rect(np.array([[[-1.0], [2.0]]]), "abs")
        assert np.array_equal(out.ravel(), [1.0, 2.0])

    def test_abs_fixed_point(self):
        x = np.abs(np.random.default_rng(7).standard_normal((3, 3, 2)))
        assert np.array_equal(_rect(x, "abs"), x)

    def test_abs_even(self):
        x = np.random.default_rng(8).standard_normal((4, 4, 2))
        a = _rect(x, "abs")
        b = _rect(-x, "abs")
        assert np.array_equal(a, b)

    def test_on_off_scalars(self):
        out = _rect(np.full((1, 1, 1), 3.0), "on_off")
        assert np.array_equal(out.ravel(), [3.0, 0.0])
        out = _rect(np.full((1, 1, 1), -2.0), "on_off")
        assert np.array_equal(out.ravel(), [0.0, 2.0])

    def test_on_off_identities(self):
        # exact in either float width, and the ON/OFF stack keeps the maps' dtype
        for dtype in (np.float64, np.float32):
            x = np.random.default_rng(9).standard_normal((5, 4, 3)).astype(dtype)
            out = _rectify(x.copy(), "on_off")
            assert out.dtype == dtype
            on, off = out[:, :, 0::2], out[:, :, 1::2]
            assert np.all(on >= 0) and np.all(off >= 0)
            assert np.array_equal(on - off, x)
            assert np.array_equal(on + off, np.abs(x))
            assert np.all(on * off == 0)

    def test_on_off_depth_doubles(self):
        out = _rect(np.zeros((2, 2, 5)), "on_off")
        assert out.shape[-1] == 10


def _gauss_field_oracle(stack, window, sigma):
    """Direct Gaussian-weighted sum over depth and window, reflect borders."""
    h, w, depth = stack.shape
    half = window // 2
    g1 = np.exp(-np.arange(-half, half + 1, dtype=float) ** 2 / (2 * sigma**2))
    w2 = np.outer(g1, g1)
    w2 = w2 / (w2.sum() * depth)
    padded = np.pad(stack, ((half, half), (half, half), (0, 0)), mode="symmetric")
    out = np.zeros((h, w))
    for j in range(h):
        for k in range(w):
            acc = 0.0
            for i in range(depth):
                for p in range(window):
                    for q in range(window):
                        acc += w2[p, q] * padded[j + p, k + q, i]
            out[j, k] = acc
    return out


class TestLcnSubtractive:
    def test_constant_maps_to_zero(self):
        out = _lcn_sub(np.full((7, 7, 3), 4.2), 5, 1.25)
        assert np.max(np.abs(out)) <= 1e-10

    def test_impulse_vs_direct_oracle(self):
        stack = np.zeros((9, 9, 1))
        stack[4, 4, 0] = 1.0
        out = _lcn_sub(stack, 5, 1.25)
        expect = stack - _gauss_field_oracle(stack, 5, 1.25)[:, :, None]
        assert np.allclose(out, expect, atol=1e-12)

    def test_random_vs_direct_oracle(self):
        rng = np.random.default_rng(10)
        stack = rng.standard_normal((8, 8, 2))
        out = _lcn_sub(stack, 3, 0.75)
        expect = stack - _gauss_field_oracle(stack, 3, 0.75)[:, :, None]
        assert np.allclose(out, expect, atol=1e-12)

    def test_constant_shift_removed(self):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((8, 8, 2))
        a = _lcn_sub(stack, 3, 0.75)
        b = _lcn_sub(stack + 3.7, 3, 0.75)
        assert np.allclose(a, b, atol=1e-10)

    @pytest.mark.parametrize(
        "shape, window, sigma",
        [((81, 81), 9, 2.25), ((75, 27, 27), 3, 0.75), ((2, 9, 9), 9, 2.25), ((3, 5), 3, 0.75)],
    )
    def test_weighted_sum_matches_ndimage(self, shape, window, sigma):
        # two 1D passes over a symmetric pad against one 2D ndimage correlate
        field = np.random.default_rng(25).standard_normal(shape)
        kernel = gaussian_window(window, sigma)
        kernel = kernel / (kernel.sum() * 4)
        expect = ndimage.correlate(
            field, kernel.reshape((1,) * (field.ndim - 2) + kernel.shape), mode="reflect"
        )
        assert np.max(np.abs(_lcn_weighted_sum(field, 4, window, sigma) - expect)) <= 1e-12
        got32 = _lcn_weighted_sum(field.astype(np.float32), 4, window, sigma)
        assert got32.dtype == np.float32
        assert_near_oracle(got32, expect)

    def test_window_validation(self):
        # the record owns the window's parity, the shape chain its fit
        with pytest.raises(InvalidWindow):
            _layer1(lcn_window=4)
        rng = np.random.default_rng(24)
        bank = _bank(rng.standard_normal((4, 1)))
        cfg = _layer1(patch_side=2, lcn_window=5)
        with pytest.raises(InvalidWindow, match="LCN window 5"):
            run_layer(_fmset(np.zeros((5, 5, 1))), bank, cfg, "abs")


class TestLcnDivisive:
    def test_all_zero_stays_zero(self):
        for dtype in (np.float64, np.float32):
            out = np.zeros((6, 6, 2), dtype=dtype)
            _lcn_divide(out, 3, 0.75)
            assert out.dtype == dtype
            assert np.array_equal(out, np.zeros((6, 6, 2)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((8, 8, 2))
        a = _lcn_div(v, 3, 0.75)
        b = _lcn_div(100.0 * v, 3, 0.75)
        assert np.allclose(a, b, atol=1e-10)

    def test_random_vs_direct_oracle(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal((8, 8, 2))
        out = _lcn_div(v, 3, 0.75)
        sd = np.sqrt(_gauss_field_oracle(v**2, 3, 0.75))
        c = sd.mean()
        expect = v / np.maximum(sd, c)[:, :, None]
        assert np.allclose(out, expect, atol=1e-12)

    def test_floor_is_mean_sigma(self):
        # far from edges, low-variance regions divide by c, not by tiny sigma
        v = np.zeros((12, 12, 1))
        v[2:4, 2:4, 0] = 5.0
        out = _lcn_div(v, 3, 0.75)
        sd = np.sqrt(_gauss_field_oracle(v**2, 3, 0.75))
        c = sd.mean()
        quiet = out[8:, 8:, 0]
        assert np.allclose(quiet, v[8:, 8:, 0] / c, atol=1e-12)


class TestPool:
    def _window(self):
        return np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]

    def test_alpha_one_is_sum(self):
        out = _pool(self._window(), 2, 2, 1.0)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 10.0

    def test_alpha_large_is_max(self):
        out = _pool(self._window(), 2, 2, 64.0)
        assert abs(out[0, 0, 0] - 4.0) < 0.05

    def test_alpha_two_sqrt30(self):
        out = _pool(self._window(), 2, 2, 2.0)
        assert out[0, 0, 0] == pytest.approx(np.sqrt(30.0), rel=1e-12)

    def test_output_shape_formula(self):
        x = np.zeros((81, 81, 3))
        assert _pool(x, 12, 12, 1.0).shape == (6, 6, 3)
        assert _pool(x, 12, 8, 1.0).shape == (9, 9, 3)
        assert pool_output_shape(81, 12, 12) == 6
        assert pool_output_shape(81, 12, 8) == 9

    def test_partial_windows_dropped(self):
        # 5 wide, window 2, stride 2 -> positions 0 and 2 only
        x = np.arange(5.0)[None, :, None] * np.ones((2, 1, 1))
        out = _pool(x, 2, 2, 1.0)
        assert out.shape == (1, 2, 1)
        assert np.array_equal(out.ravel(), [2.0 * (0 + 1), 2.0 * (2 + 3)])

    def test_per_map_independence(self):
        # maps pool independently (up to summation-order rounding)
        rng = np.random.default_rng(14)
        stack = rng.random((6, 6, 3))
        out = _pool(stack, 3, 3, 2.0)
        for d in range(3):
            single = _pool(stack[:, :, d : d + 1], 3, 3, 2.0)
            assert np.allclose(out[:, :, d], single[:, :, 0], atol=1e-12)

    def test_monotone_in_inputs(self):
        rng = np.random.default_rng(15)
        base = rng.random((4, 4, 1))
        for alpha in (1.0, 2.0, 7.5, 64.0):
            ref = _pool(base, 2, 2, alpha)
            bumped = base.copy()
            bumped[1, 1, 0] += 0.5
            out = _pool(bumped, 2, 2, alpha)
            assert np.all(out >= ref - 1e-12)

    def test_window_too_large(self):
        rng = np.random.default_rng(25)
        bank = _bank(rng.standard_normal((1, 1)))
        cfg = _layer1(patch_side=1, pool_side=5)
        with pytest.raises(InvalidWindow, match="pool window 5"):
            run_layer(_fmset(np.zeros((4, 4, 1))), bank, cfg, "abs")

    # LCN output is signed, so the records refuse every alpha whose Lp pool is
    # undefined on negative inputs, and no layer can reach _pool with one
    def test_negative_with_fractional_alpha(self):
        with pytest.raises(ValueError, match="signed"):
            _layer1(pool_alpha=2.5)

    @pytest.mark.parametrize("alpha", [3.0, 5.0])
    def test_negative_with_odd_alpha(self, alpha):
        # for alpha 3 the window power sum of [1, 2, -3, -4] is 1 + 8 - 27 - 64 < 0
        with pytest.raises(ValueError, match="signed"):
            Layer2Config(pool_alpha=alpha)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_signed_input_with_alpha_one_or_even(self, alpha):
        x = np.array([[-1.0, 2.0], [-3.0, 4.0]])
        out = _pool(x[:, :, None], 2, 2, alpha)[0, 0, 0]
        assert out == pytest.approx(np.sum(x**alpha) ** (1.0 / alpha), rel=1e-12)

    def test_float32_powers_do_not_overflow(self):
        # 10^40 is beyond float32; the result is float32 all the same
        x = np.random.default_rng(27).uniform(5.0, 10.0, (4, 4, 2))
        out = _pool(x.astype(np.float32), 2, 2, 40.0)
        assert out.dtype == np.float32
        assert_near_oracle(out, _pool(x.astype(np.float32).astype(np.float64), 2, 2, 40.0))


class TestMakeGroups:
    def test_partition_8_4(self):
        groups = make_groups(8, 4, SeededRng(0))
        assert groups.shape == (2, 4)
        assert np.array_equal(np.sort(groups, axis=None), np.arange(8))

    def test_300_filters_75_groups(self):
        assert make_groups(300, 4, SeededRng(1)).shape == (75, 4)

    def test_not_divisible(self):
        for k1, n_k in ((10, 4), (0, 4), (8, 0)):
            with pytest.raises(InvalidGrouping):
                make_groups(k1, n_k, SeededRng(0))

    def test_deterministic_and_seed_sensitive(self):
        a = make_groups(24, 4, SeededRng(5))
        b = make_groups(24, 4, SeededRng(5))
        c = make_groups(24, 4, SeededRng(6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_actually_shuffles(self):
        groups = make_groups(64, 4, SeededRng(2))
        assert not np.array_equal(groups, np.arange(64).reshape(16, 4))

    def test_rows_are_the_permutation_in_order(self):
        # the table is the seeded permutation cut into rows, so models keep their wiring
        perm = SeededRng(7).generator().permutation(12)
        assert np.array_equal(make_groups(12, 3, SeededRng(7)), perm.reshape(4, 3))

    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, n_groups, n_k, seed):
        k1 = n_groups * n_k
        groups = make_groups(k1, n_k, SeededRng(seed))
        assert groups.shape == (n_groups, n_k)
        assert np.array_equal(np.sort(groups, axis=None), np.arange(k1))


class TestRunLayer:
    def test_full_size_spatial_chain(self):
        # 96x96 input, 16x16 filters, pool 12 stride 12 -> 6x6
        rng = np.random.default_rng(16)
        maps = rng.random((96, 96, 1))
        bank = _bank(rng.standard_normal((256, 3)))
        cfg = _layer1(pool_side=12, pool_stride=12, lcn_window=9, lcn_sigma=2.25)
        out = run_layer(_fmset(maps), bank, cfg, "abs")
        assert out.shape == (6, 6, 3)

    def test_stride_8_gives_9x9(self):
        rng = np.random.default_rng(17)
        maps = rng.random((96, 96, 1))
        bank = _bank(rng.standard_normal((256, 2)))
        cfg = _layer1(pool_side=12, pool_stride=8, lcn_window=9, lcn_sigma=2.25)
        out = run_layer(_fmset(maps), bank, cfg, "abs")
        assert out.shape == (9, 9, 2)

    def test_on_off_doubles_depth(self):
        rng = np.random.default_rng(18)
        maps = rng.random((12, 12, 1))
        bank = _bank(rng.standard_normal((16, 5)))
        cfg = _layer1(patch_side=4, pool_side=3, pool_stride=3)
        out = run_layer(_fmset(maps), bank, cfg, "on_off")
        assert out.shape[2] == 10
        assert layer_output_shape(12, 12, 5, cfg, "on_off") == out.shape

    def test_stage_order(self):
        # run_layer must equal the hand-applied five-stage composition
        rng = np.random.default_rng(19)
        maps = rng.random((10, 10, 2))
        bank = _bank(rng.standard_normal((2 * 2 * 2, 4)))
        cfg = _layer1(patch_side=2)
        out = run_layer(_fmset(maps), bank, cfg, "abs")
        step = _convolve(maps, bank, 2)
        step = _rectify(step, "abs")
        _lcn_subtract(step, 3, 0.75)
        _lcn_divide(step, 3, 0.75)
        step = _pool(step, 2, 2, 1.0)
        assert np.array_equal(out, step)

    @pytest.mark.parametrize("rectifier", ["abs", "on_off"])
    @pytest.mark.parametrize("whitened", [True, False])
    def test_float32_maps_from_rounded_input(self, rectifier, whitened):
        # the convolution rounds its input once, so float64 maps and the same
        # maps rounded to float32 give the same float32 output, with a fitted
        # whitening and with the identity one (whose filter offset is 0)
        rng = np.random.default_rng(28)
        maps = rng.random((12, 12, 2))
        zca = fit_zca(rng.random((200, 18)), 0.1) if whitened else None
        bank = _bank(rng.standard_normal((18, 4)), zca)
        cfg = _layer1(patch_side=3)
        out = run_layer(_fmset(maps), bank, cfg, rectifier)
        assert out.dtype == np.float32
        rounded = FeatureMapSet(maps.astype(np.float32))
        assert np.array_equal(out, run_layer(rounded, bank, cfg, rectifier))

    def test_stacked_bank_rejected(self):
        rng = np.random.default_rng(22)
        bank = _bank(rng.standard_normal((2, 4, 3)))
        with pytest.raises(DimError, match="stacked"):
            run_layer(_fmset(rng.random((8, 8, 1))), bank, _layer1(patch_side=2), "abs")

    def test_bank_side_must_be_the_records(self):
        # a 3x3 bank under a patch_side 5 record would run, off the promised shape
        rng = np.random.default_rng(26)
        bank = _bank(rng.standard_normal((9, 2)))
        cfg = _layer1(patch_side=5)
        assert layer_output_shape(9, 9, 2, cfg, "abs") == (2, 2, 2)
        with pytest.raises(DimError, match=r"filter dim 9 is not the layer's 5\^2"):
            run_layer(_fmset(rng.random((9, 9, 1))), bank, cfg, "abs")

    def test_unknown_rectifier_fails_before_convolving(self, monkeypatch):
        def never(*args):
            raise AssertionError("convolved")

        monkeypatch.setattr(layer, "_convolve", never)
        bank = _bank(np.ones((4, 2)))
        with pytest.raises(ValueError, match="rectifier"):
            run_layer(_fmset(np.ones((8, 8, 1))), bank, _layer1(patch_side=2), "relu")

    @given(
        st.integers(10, 24),
        st.integers(10, 24),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 99),
    )
    @settings(max_examples=40, deadline=None)
    def test_shape_formula_property(self, h, w, k, p, stride, on_off, seed):
        pool_side = 2
        conv_h, conv_w = conv_output_shape(h, w, p)
        if min(conv_h, conv_w) < 3 or min(conv_h, conv_w) < pool_side:
            return  # config invalid for the 3-wide LCN window
        rng = np.random.default_rng(seed)
        maps = rng.random((h, w, 1))
        bank = _bank(rng.standard_normal((p * p, k)))
        cfg = _layer1(patch_side=p, pool_side=pool_side, pool_stride=stride)
        rectifier = "on_off" if on_off else "abs"
        out = run_layer(_fmset(maps), bank, cfg, rectifier)
        assert out.shape == layer_output_shape(h, w, k, cfg, rectifier)

    # (input side, layer record fields, error): shape chains that cannot run
    @pytest.mark.parametrize(
        "side, fields, error",
        [
            (5, dict(patch_side=6), DimError),  # filter larger than the input
            (8, dict(patch_side=4, lcn_window=7), InvalidWindow),  # LCN window > 5x5 conv map
            (8, dict(patch_side=4, pool_side=6), InvalidWindow),  # pool window > 5x5 conv map
        ],
    )
    def test_shape_raises_what_run_layer_raises(self, side, fields, error):
        rng = np.random.default_rng(20)
        cfg = _layer1(**fields)
        p = cfg.patch_side
        bank = _bank(rng.standard_normal((p * p, 2)))
        with pytest.raises(error):
            run_layer(_fmset(rng.random((side, side, 1))), bank, cfg, "abs")
        with pytest.raises(error):
            layer_output_shape(side, side, 2, cfg, "abs")


class TestRunGroups:
    @pytest.mark.parametrize("rectifier", ["abs", "on_off"])
    @pytest.mark.parametrize("whitened", [True, False])
    def test_matches_run_layer_per_group(self, rectifier, whitened):
        # each group with a fitted whitening of its own, or all with the identity
        rng = np.random.default_rng(20)
        maps = rng.random((7, 7, 12))
        # groups of very different scale: the LCN floor is taken per group
        maps[:, :, ::3] *= 50.0
        groups = make_groups(12, 4, SeededRng(5))
        banks = tuple(
            _bank(
                rng.standard_normal((36, 5)),
                fit_zca(rng.random((200, 36)), 0.1) if whitened else None,
            )
            for _ in groups
        )
        cfg = Layer2Config(
            filters_per_group=5, patch_side=3, group_size=4, pool_side=2, pool_stride=2,
            lcn_window=3, lcn_sigma=0.75,
        )
        out = run_groups(maps, groups, _stack(banks), cfg, rectifier)
        for g, (group, bank) in enumerate(zip(groups, banks)):
            one = run_layer(_fmset(maps[:, :, group]), bank, cfg, rectifier)
            assert np.allclose(out[g], one, rtol=1e-12, atol=1e-12 * np.abs(one).max())

    def test_filter_dim_must_fit_groups(self):
        cfg = Layer2Config(filters_per_group=2, patch_side=3, group_size=4, lcn_window=3)
        bank = _bank(np.zeros((2, 27, 2)))  # 3x3 filters over 3 maps, groups hold 4
        with pytest.raises(DimError, match="filter dim 27"):
            run_groups(np.ones((6, 6, 8)), np.arange(8).reshape(2, 4), bank, cfg, "abs")

    def test_band_holds_conv_rows_patches_over_all_groups(self, monkeypatch):
        copies = []

        def recording(maps, p):
            rows, grid = dense_patches(maps, p)
            copies.append(math.prod(rows.shape[:-1]))
            return rows, grid

        monkeypatch.setattr(layer, "dense_patches", recording)
        rng = np.random.default_rng(23)
        maps = rng.random((5, 40, 40, 2))
        banks = [_bank(rng.standard_normal((18, 3))) for _ in range(5)]
        out = _convolve(maps, _stack(banks), 3)
        assert len(copies) > 1 and max(copies) <= layer._CONV_ROWS
        for g, bank in enumerate(banks):
            assert_near_oracle(out[g], _conv_oracle(maps[g], bank, 3))


class TestLayerConfigValidation:
    """The stage checks: rectifier on NetworkConfig, pool and LCN on both layer records."""

    def test_bad_rectifier(self):
        with pytest.raises(ValueError):
            NetworkConfig(rectifier="relu")
        rng = np.random.default_rng(21)
        bank = _bank(rng.standard_normal((4, 2)))
        cfg = Layer1Config(patch_side=2, pool_side=2, pool_stride=2, lcn_window=3)
        with pytest.raises(ValueError, match="rectifier"):
            run_layer(_fmset(rng.random((8, 8, 1))), bank, cfg, "relu")

    def test_bad_pool(self):
        for record in (Layer1Config, Layer2Config):
            with pytest.raises(ValueError):
                record(pool_side=0)
            with pytest.raises(ValueError):
                record(pool_stride=0)
            for alpha in (0.5, 1.5, 3.0, 7.5):
                with pytest.raises(ValueError):
                    record(pool_alpha=alpha)

    def test_bad_lcn_window(self):
        for record in (Layer1Config, Layer2Config):
            with pytest.raises(InvalidWindow):
                record(lcn_window=4)
            with pytest.raises(InvalidWindow):
                record(lcn_window=1)
            for sigma in (0.0, float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    record(lcn_sigma=sigma)


def _identifiers(tree):
    """Every name a module binds or reads: variables, attributes, imports,
    arguments, keywords, functions and classes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_forward_pass_names_no_whitening():
    # a bank is the folded map the forward pass applies; the whitening it was
    # folded from belongs to training (cdfnet.patches, cdfnet.pipeline) alone
    found = []
    for name in ("layer.py", "kmeans.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        found += [f"{name}: {ident}" for ident in _identifiers(tree)
                  if ident == "ZcaTransform" or "whiten" in ident.lower()]
    assert found == [], f"the forward pass names the whitening: {found}"
