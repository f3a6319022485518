import numpy as np
import pytest

from cdfnet.errors import NonFiniteValue
from cdfnet.tensor import FeatureMapSet, SeededRng, assert_array_finite


def test_equal_seeds_equal_streams():
    # one million draws, bitwise identical
    a = SeededRng(123).generator().random(1_000_000)
    b = SeededRng(123).generator().random(1_000_000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = SeededRng(123).generator().random(100)
    b = SeededRng(124).generator().random(100)
    assert not np.array_equal(a, b)


def test_child_streams_independent():
    root = SeededRng(7)
    c0 = root.child(0).generator().random(100)
    c1 = root.child(1).generator().random(100)
    again = root.child(0).generator().random(100)
    assert np.array_equal(c0, again)
    assert not np.array_equal(c0, c1)
    # children don't replay the parent either
    assert not np.array_equal(c0, root.generator().random(100))


def test_grandchild_paths():
    root = SeededRng(7)
    assert root.child(1).child(2).stream == (1, 2)
    a = root.child(1).child(2).generator().random(10)
    b = SeededRng(7, stream=(1, 2)).generator().random(10)
    assert np.array_equal(a, b)


def test_seed_range_checked():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(2**64)
    SeededRng(2**64 - 1)  # fine


def test_generator_is_philox():
    # the family every stochastic step draws from
    assert isinstance(SeededRng(0).generator().bit_generator, np.random.Philox)


def test_child_index_nonnegative():
    with pytest.raises(ValueError):
        SeededRng(0).child(-1)


def _fmset(arr, image_id=-1):
    return FeatureMapSet(np.asarray(arr, dtype=np.float64), image_id)


class TestFeatureMapSet:
    def test_dims(self):
        s = _fmset(np.zeros((4, 5, 3)))
        assert (s.height, s.width, s.depth) == (4, 5, 3)

    def test_2d_promoted_to_depth_one(self):
        s = _fmset(np.zeros((4, 5)))
        assert s.depth == 1

    def test_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            _fmset(np.zeros(4))
        with pytest.raises(ValueError):
            _fmset(np.zeros((2, 2, 2, 2)))

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            _fmset(np.zeros((0, 5, 3)))

    def test_read_only(self):
        s = _fmset(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            s.maps[0, 0, 0] = 1.0

    def test_float64(self):
        # float64 maps stay float64, integers become float64
        for arr in (np.zeros((2, 2, 1)), np.zeros((2, 2, 1), dtype=np.int64)):
            assert FeatureMapSet(arr).maps.dtype == np.float64

    def test_float32_kept(self):
        # layer outputs are float32 and are not widened
        maps = np.arange(4, dtype=np.float32).reshape(2, 2, 1)
        s = FeatureMapSet(maps)
        assert s.maps.dtype == np.float32 and np.shares_memory(s.maps, maps)


class TestAssertFinite:
    def test_all_zero_passes(self):
        assert_array_finite(np.zeros((2, 2, 1)))

    def test_nan_reports_coordinate(self):
        arr = np.zeros((3, 4, 2))
        arr[1, 2, 0] = np.nan
        with pytest.raises(NonFiniteValue) as exc:
            assert_array_finite(arr)
        assert exc.value.coord == (1, 2, 0)

    def test_inf_rejected(self):
        arr = np.zeros((2, 2, 1))
        arr[0, 1, 0] = np.inf
        with pytest.raises(NonFiniteValue) as exc:
            assert_array_finite(arr)
        assert exc.value.coord == (0, 1, 0)

    def test_first_offender_reported(self):
        arr = np.zeros((2, 2, 1))
        arr[0, 1, 0] = np.nan
        arr[1, 1, 0] = np.inf
        with pytest.raises(NonFiniteValue) as exc:
            assert_array_finite(arr)
        assert exc.value.coord == (0, 1, 0)
