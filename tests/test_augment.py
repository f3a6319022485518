import numpy as np
import pytest

from cdfnet.augment import AugmentPlan, expand_set, mirror_lr, rotate, scale
from cdfnet.stl10 import LabeledImage


def _img(arr, label=3, image_id=7):
    return LabeledImage(np.asarray(arr, dtype=np.float64), label, image_id)


class TestMirror:
    def test_column_gradient(self):
        img = _img(np.tile(np.array([0.0, 0.5, 1.0]), (3, 1)))
        out = mirror_lr(img)
        assert np.array_equal(out.pixels, np.tile(np.array([1.0, 0.5, 0.0]), (3, 1)))

    def test_involution(self):
        rng = np.random.default_rng(0)
        img = _img(rng.random((8, 5)))
        assert np.array_equal(mirror_lr(mirror_lr(img)).pixels, img.pixels)

    def test_symmetric_fixed_point(self):
        img = _img(np.tile(np.array([1.0, 2.0, 1.0]), (3, 1)))
        assert np.array_equal(mirror_lr(img).pixels, img.pixels)

    def test_label_and_id_preserved(self):
        out = mirror_lr(_img(np.zeros((2, 2)), label=5, image_id=11))
        assert out.label == 5
        assert out.image_id == 11

    def test_definition(self):
        rng = np.random.default_rng(1)
        img = _img(rng.random((6, 9)))
        out = mirror_lr(img)
        w = img.pixels.shape[1]
        for i in range(6):
            for j in range(9):
                assert out.pixels[i, j] == img.pixels[i, w - 1 - j]


def _rotate_oracle(pixels, angle_deg):
    """Direct inverse-mapping bilinear rotation, written longhand."""
    h, w = pixels.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = np.deg2rad(angle_deg)
    cos, sin = np.cos(rad), np.sin(rad)
    out = np.zeros_like(pixels)
    for i in range(h):
        for j in range(w):
            dy, dx = i - cy, j - cx
            src_r = cos * dy - sin * dx + cy
            src_c = sin * dy + cos * dx + cx
            r0, c0 = int(np.floor(src_r)), int(np.floor(src_c))
            fr, fc = src_r - r0, src_c - c0
            acc = 0.0
            for (rr, wr) in ((r0, 1 - fr), (r0 + 1, fr)):
                for (cc, wc) in ((c0, 1 - fc), (c0 + 1, fc)):
                    if 0 <= rr < h and 0 <= cc < w:
                        acc += wr * wc * pixels[rr, cc]
            out[i, j] = acc
    return out


class TestRotate:
    def test_angle_zero_identity(self):
        rng = np.random.default_rng(2)
        img = _img(rng.random((9, 9)))
        out = rotate(img, 0.0)
        assert np.allclose(out.pixels, img.pixels, atol=1e-12)

    def test_constant_interior(self):
        img = _img(np.ones((21, 21)))
        out = rotate(img, 10.0)
        # interior stays 1, clipped corners go to 0
        assert np.allclose(out.pixels[8:13, 8:13], 1.0, atol=1e-12)
        assert out.pixels[0, 0] < 1.0
        assert np.all(out.pixels <= 1.0 + 1e-12)

    def test_single_pixel_90_degrees_vs_oracle(self):
        pixels = np.zeros((64, 64))
        pixels[10, 48] = 1.0
        img = _img(pixels)
        out = rotate(img, 90.0)
        assert np.allclose(out.pixels, _rotate_oracle(pixels, 90.0), atol=1e-12)

    @pytest.mark.parametrize("angle", [-10.0, 10.0, 33.0, -45.0])
    def test_random_image_vs_oracle(self, angle):
        rng = np.random.default_rng(4)
        pixels = rng.random((17, 13))
        out = rotate(_img(pixels), angle)
        assert np.allclose(out.pixels, _rotate_oracle(pixels, angle), atol=1e-12)

    def test_size_and_label_preserved(self):
        out = rotate(_img(np.ones((10, 12)), label=2), 10.0)
        assert out.pixels.shape == (10, 12)
        assert out.label == 2


class TestScale:
    def test_factor_one_identity(self):
        rng = np.random.default_rng(5)
        img = _img(rng.random((7, 7)))
        assert np.array_equal(scale(img, 1.0).pixels, img.pixels)

    def test_constant_third(self):
        img = _img(np.full((96, 96), 0.25))
        out = scale(img, 1.0 / 3.0)
        assert out.pixels.shape == (32, 32)
        assert np.allclose(out.pixels, 0.25, atol=1e-12)

    def test_checkerboard_half(self):
        board = np.indices((6, 6)).sum(axis=0) % 2
        out = scale(_img(board.astype(float)), 0.5)
        assert out.pixels.shape == (3, 3)
        assert np.allclose(out.pixels, 0.5, atol=1e-12)

    def test_area_average_blocks(self):
        # factor 1/2 on a 4x4: each output pixel is the mean of a 2x2 block
        rng = np.random.default_rng(6)
        pixels = rng.random((4, 4))
        out = scale(_img(pixels), 0.5)
        expect = pixels.reshape(2, 2, 2, 2).mean(axis=(1, 3))
        assert np.allclose(out.pixels, expect, atol=1e-12)

    def test_mean_preserved(self):
        # area averaging preserves the overall mean for exact divisors
        rng = np.random.default_rng(7)
        pixels = rng.random((12, 12))
        out = scale(_img(pixels), 1.0 / 3.0)
        assert out.pixels.mean() == pytest.approx(pixels.mean(), abs=1e-12)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            scale(_img(np.ones((4, 4))), 0.0)
        with pytest.raises(ValueError):
            scale(_img(np.ones((4, 4))), 1.5)


class TestPlan:
    def test_angle_bound(self):
        with pytest.raises(ValueError):
            AugmentPlan(rotations_deg=(50.0,))
        with pytest.raises(ValueError, match="rotations_deg"):
            AugmentPlan(rotations_deg=(10.0, float("nan")))
        AugmentPlan(rotations_deg=(-45.0, 45.0))


class TestExpandSet:
    def _images(self, n):
        rng = np.random.default_rng(8)
        return [_img(rng.random((6, 6)), label=i % 2, image_id=i) for i in range(n)]

    def test_mirror_only_doubles(self):
        out = expand_set(self._images(10), AugmentPlan(mirror=True))
        assert len(out) == 20

    def test_mirror_plus_two_rotations(self):
        plan = AugmentPlan(mirror=True, rotations_deg=(-10.0, 10.0))
        out = expand_set(self._images(10), plan)
        assert len(out) == 40

    def test_empty_plan_identity(self):
        imgs = self._images(4)
        out = expand_set(imgs, AugmentPlan())
        assert len(out) == 4
        for a, b in zip(imgs, out):
            assert np.array_equal(a.pixels, b.pixels)

    def test_ordering(self):
        imgs = self._images(3)
        plan = AugmentPlan(mirror=True, rotations_deg=(10.0,))
        out = expand_set(imgs, plan)
        # originals first, then all mirrored, then the rotation block
        for i in range(3):
            assert np.array_equal(out[i].pixels, imgs[i].pixels)
            assert np.array_equal(out[3 + i].pixels, mirror_lr(imgs[i]).pixels)
            assert np.allclose(out[6 + i].pixels, rotate(imgs[i], 10.0).pixels)

    def test_labels_copied(self):
        plan = AugmentPlan(mirror=True, rotations_deg=(-10.0, 10.0))
        out = expand_set(self._images(4), plan)
        assert [im.label for im in out] == [0, 1, 0, 1] * 4

    def test_keeps_resolution(self):
        # resolution is the network's scale_factor, applied by the pipeline
        plan = AugmentPlan(mirror=True, rotations_deg=(10.0,))
        out = expand_set(self._images(4), plan)
        assert len(out) == 12
        assert all(im.pixels.shape == (6, 6) for im in out)

    def test_deterministic(self):
        plan = AugmentPlan(mirror=True, rotations_deg=(7.0,))
        a = expand_set(self._images(5), plan)
        b = expand_set(self._images(5), plan)
        for x, y in zip(a, b):
            assert np.array_equal(x.pixels, y.pixels)
