import numpy as np
import pytest

from cdfnet.errors import FormatError
from cdfnet.stl10 import (
    BYTES_PER_IMAGE,
    FoldPlan,
    IMAGE_SIDE,
    LabeledImage,
    count_stl10_images,
    load_fold_plan,
    LOAD_BLOCK,
    load_stl10,
    read_stl10_images,
    read_stl10_labels,
    to_grayscale,
)

from helpers import write_fold_plan, write_stl10_images, write_stl10_labels


class TestGrayscale:
    def test_white_is_exactly_one(self):
        assert to_grayscale(1.0, 1.0, 1.0) == 1.0

    def test_black(self):
        assert to_grayscale(0.0, 0.0, 0.0) == 0.0

    def test_pure_red(self):
        assert to_grayscale(1.0, 0.0, 0.0) == 0.299

    def test_pure_green_blue(self):
        assert to_grayscale(0.0, 1.0, 0.0) == pytest.approx(0.587, abs=1e-15)
        assert to_grayscale(0.0, 0.0, 1.0) == pytest.approx(0.114, abs=1e-15)

    def test_bounded_by_channel_range(self):
        rng = np.random.default_rng(3)
        r, g, b = rng.random((3, 1000))
        y = to_grayscale(r, g, b)
        lo = np.minimum(np.minimum(r, g), b)
        hi = np.maximum(np.maximum(r, g), b)
        assert np.all(y >= lo - 1e-12)
        assert np.all(y <= hi + 1e-12)

    def test_elementwise_on_arrays(self):
        r = np.array([1.0, 0.0])
        out = to_grayscale(r, r, r)
        assert np.array_equal(out, np.array([1.0, 0.0]))


class TestBinaryLayout:
    def test_plane_order_and_column_major(self, tmp_path):
        # hand-built single image: distinctive bytes at known offsets
        raw = np.zeros(BYTES_PER_IMAGE, dtype=np.uint8)
        plane = IMAGE_SIDE * IMAGE_SIDE
        # red at (row=1, col=2): column-major offset col*96 + row
        raw[2 * IMAGE_SIDE + 1] = 37
        # green at (row=0, col=0)
        raw[plane + 0] = 101
        # blue at (row=95, col=95)
        raw[2 * plane + 95 * IMAGE_SIDE + 95] = 255
        path = tmp_path / "one.bin"
        path.write_bytes(raw.tobytes())

        rgb = read_stl10_images(path)
        assert rgb.shape == (1, IMAGE_SIDE, IMAGE_SIDE, 3)
        assert rgb[0, 1, 2, 0] == 37
        assert rgb[0, 0, 0, 1] == 101
        assert rgb[0, 95, 95, 2] == 255
        assert rgb.sum() == 37 + 101 + 255

    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        rgb = rng.integers(0, 256, (3, IMAGE_SIDE, IMAGE_SIDE, 3), dtype=np.uint8)
        path = tmp_path / "imgs.bin"
        write_stl10_images(path, rgb)
        assert np.array_equal(read_stl10_images(path), rgb)
        assert count_stl10_images(path) == 3  # from the size alone

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * (BYTES_PER_IMAGE + 1))
        with pytest.raises(FormatError):
            read_stl10_images(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            read_stl10_images(path)


class TestLabels:
    def test_one_based_on_disk(self, tmp_path):
        path = tmp_path / "y.bin"
        write_stl10_labels(path, [0, 9, 3])
        assert path.read_bytes() == bytes([1, 10, 4])
        assert np.array_equal(read_stl10_labels(path), [0, 9, 3])

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "y.bin"
        path.write_bytes(bytes([0]))  # 0 on disk is below the 1-based range
        with pytest.raises(FormatError):
            read_stl10_labels(path)
        path.write_bytes(bytes([11]))
        with pytest.raises(FormatError):
            read_stl10_labels(path)


class TestLoadStl10:
    def _write(self, tmp_path, n, labels=None):
        rng = np.random.default_rng(n)
        rgb = rng.integers(0, 256, (n, IMAGE_SIDE, IMAGE_SIDE, 3), dtype=np.uint8)
        write_stl10_images(tmp_path / "X.bin", rgb)
        if labels is not None:
            write_stl10_labels(tmp_path / "y.bin", labels)
        return rgb

    def test_two_images(self, tmp_path):
        rgb = self._write(tmp_path, 2, labels=[4, 7])
        images = load_stl10(tmp_path / "X.bin", tmp_path / "y.bin")
        assert len(images) == 2
        assert [im.label for im in images] == [4, 7]
        assert [im.image_id for im in images] == [0, 1]
        scaled = rgb[0].astype(np.float64) / 255.0
        expect = to_grayscale(scaled[..., 0], scaled[..., 1], scaled[..., 2])
        assert np.allclose(images[0].pixels, expect, atol=0)

    def test_blocks_match_whole_split_bitwise(self, tmp_path):
        # more images than one conversion block, last block partial
        n = 2 * LOAD_BLOCK + 3
        rgb = self._write(tmp_path, n)
        scaled = rgb.astype(np.float64) / 255.0
        expect = to_grayscale(scaled[..., 0], scaled[..., 1], scaled[..., 2])
        images = load_stl10(tmp_path / "X.bin")
        assert np.array_equal(np.stack([im.pixels for im in images]), expect)

    def test_all_white_is_ones(self, tmp_path):
        write_stl10_images(
            tmp_path / "X.bin", np.full((1, IMAGE_SIDE, IMAGE_SIDE, 3), 255, np.uint8)
        )
        write_stl10_labels(tmp_path / "y.bin", [0])
        (img,) = load_stl10(tmp_path / "X.bin", tmp_path / "y.bin")
        assert np.all(img.pixels == 1.0)

    def test_count_mismatch(self, tmp_path):
        self._write(tmp_path, 2, labels=[1, 2, 3])
        with pytest.raises(FormatError):
            load_stl10(tmp_path / "X.bin", tmp_path / "y.bin")

    def test_missing_file(self, tmp_path):
        # the system's error, which names the file
        with pytest.raises(FileNotFoundError, match="nope.bin"):
            load_stl10(tmp_path / "nope.bin", tmp_path / "nope_y.bin")

    def test_labels_optional(self, tmp_path):
        self._write(tmp_path, 2)
        images = load_stl10(tmp_path / "X.bin")
        assert [im.label for im in images] == [0, 0]


class TestLabeledImage:
    def test_rejects_negative_label(self):
        with pytest.raises(ValueError):
            LabeledImage(np.zeros((4, 4)), -1)

    @pytest.mark.parametrize("shape", [(4,), (4, 4, 1)])
    def test_rejects_pixels_not_2d(self, shape):
        with pytest.raises(ValueError, match=f"pixels must be 2D, got ndim={len(shape)}"):
            LabeledImage(np.zeros(shape), 0)

    def test_pixels_read_only(self):
        img = LabeledImage(np.zeros((4, 4)), 0)
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0


class TestFoldPlan:
    def _plan_lines(self, n_folds=10, size=4):
        return [
            " ".join(str(f * size + i) for i in range(size)) for f in range(n_folds)
        ]

    def test_valid_plan(self, tmp_path):
        path = tmp_path / "folds.txt"
        path.write_text("\n".join(self._plan_lines()) + "\n")
        plan = load_fold_plan(path)
        assert len(plan.folds) == 10
        assert plan.folds[1][0] == 4

    def test_wrong_line_count(self, tmp_path):
        path = tmp_path / "folds.txt"
        path.write_text("\n".join(self._plan_lines(n_folds=9)) + "\n")
        with pytest.raises(FormatError):
            load_fold_plan(path)

    def test_empty_fold_rejected(self):
        # training on it would fail on its first image, after the folds before it
        with pytest.raises(FormatError, match="fold 0 is empty"):
            FoldPlan(((), (0, 1)))

    def test_duplicate_index(self, tmp_path):
        lines = self._plan_lines()
        lines[3] = "1 1 2 3"
        path = tmp_path / "folds.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load_fold_plan(path)

    def test_index_at_bound_rejected(self, tmp_path):
        # the bound is the number of images loaded, checked once per fold
        lines = self._plan_lines()
        lines[0] = "0 1 2 5000"
        path = tmp_path / "folds.txt"
        path.write_text("\n".join(lines) + "\n")
        plan = load_fold_plan(path)
        with pytest.raises(ValueError, match="fold 0 lists image 5000, but only 5000 images"):
            plan.check_fold(0, 5000)
        plan.check_fold(0, 5001)

    def test_non_integer_token(self, tmp_path):
        lines = self._plan_lines()
        lines[0] = "0 1 2 x"
        path = tmp_path / "folds.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load_fold_plan(path)

    def test_round_trip(self, tmp_path):
        plan = FoldPlan(tuple(tuple(range(f * 3, f * 3 + 3)) for f in range(10)))
        path = tmp_path / "folds.txt"
        write_fold_plan(path, plan)
        assert load_fold_plan(path).folds == plan.folds

    def test_synthetic_plan_bounds(self):
        with pytest.raises(FormatError, match="fold 1 lists negative index -1"):
            FoldPlan(((0, 5), (3, -1)))
        FoldPlan(((0, 9999),)).check_fold(0, 10000)
