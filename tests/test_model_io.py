import os
import re
import struct

import numpy as np
import pytest

from cdfnet.errors import FormatError
from cdfnet.model_io import MAGIC, VERSION, atomic_open, read_container, write_container

from helpers import container_declaring, traced_peak


def _sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "flat": rng.standard_normal(17),
        "matrix": rng.standard_normal((3, 5)),
        "cube": rng.standard_normal((2, 3, 4)),
        "scalarish": np.array(3.75),
        "empty": np.zeros((2, 0, 3)),
    }


class TestRoundTrip:
    def test_bitwise(self, tmp_path):
        path = tmp_path / "m.bin"
        tensors = _sample_tensors()
        write_container(path, tensors, "alpha = 1\nbeta = two\n")
        back, text = read_container(path)
        assert text == "alpha = 1\nbeta = two\n"
        assert list(back) == list(tensors)  # insertion order preserved
        for name, arr in tensors.items():
            # ascontiguousarray promotes 0-d scalars to shape (1,) on write
            assert back[name].shape == np.atleast_1d(arr).shape
            assert np.array_equal(back[name].ravel(), np.ravel(arr))
            assert back[name].dtype == np.float64

    def test_write_is_deterministic(self, tmp_path):
        tensors = _sample_tensors()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(a, tensors, "cfg")
        write_container(b, tensors, "cfg")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_container(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_container(path, {}, "")
        tensors, text = read_container(path)
        assert tensors == {} and text == ""

    def test_unicode_config(self, tmp_path):
        path = tmp_path / "u.bin"
        write_container(path, {"x": np.zeros(2)}, "name = café\n")
        _, text = read_container(path)
        assert text == "name = café\n"

    def test_exotic_floats_survive(self, tmp_path):
        path = tmp_path / "f.bin"
        values = np.array([0.0, -0.0, np.pi, 1e-308, 1e308, np.nextafter(1.0, 2.0)])
        write_container(path, {"v": values}, "")
        back, _ = read_container(path)
        assert back["v"].tobytes() == values.tobytes()


class TestMemory:
    """Container I/O holds one copy of each tensor: the array it reads into,
    or the caller's array it writes from."""

    def test_one_copy_of_each_tensor(self, tmp_path):
        path = tmp_path / "big.bin"
        rng = np.random.default_rng(1)
        tensors = {"big": rng.standard_normal((1000, 1000)), "small": rng.standard_normal(7)}
        big = tensors["big"].nbytes
        _, added = traced_peak(write_container, path, tensors, "cfg")
        assert added <= 0.1 * big
        (back, text), peak = traced_peak(read_container, path)
        assert peak <= 1.1 * big
        assert text == "cfg" and all(np.array_equal(back[n], t) for n, t in tensors.items())
        # the documented layout, packed by hand
        layout = [MAGIC, struct.pack("<II", VERSION, 2)]
        for name, t in tensors.items():
            layout += [struct.pack("<I", len(name)), name.encode(), struct.pack("<I", t.ndim)]
            layout += [struct.pack("<Q", n) for n in t.shape] + [t.astype("<f8").tobytes()]
        layout += [struct.pack("<Q", 3), b"cfg"]
        assert path.read_bytes() == b"".join(layout)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + struct.pack("<I", VERSION))
        with pytest.raises(FormatError, match="magic"):
            read_container(path)

    def test_future_version(self, tmp_path):
        path = tmp_path / "v2.bin"
        path.write_bytes(MAGIC + struct.pack("<I", VERSION + 1) + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="version"):
            read_container(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.bin"
        write_container(path, _sample_tensors(), "cfg")
        data = path.read_bytes()
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError, match="truncated"):
            read_container(clipped)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.bin"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(FormatError, match="truncated"):
            read_container(path)

    # 2**33 floats would be a 64 GB buffer; 2**61 and 2**32 * 2**32 overflow
    # or wrap a 64-bit byte count
    @pytest.mark.parametrize("dims", [(2**33,), (2**61,), (2**32, 2**32)], ids=str)
    def test_declared_payload_beyond_file(self, tmp_path, dims):
        path = tmp_path / "big.bin"
        path.write_bytes(container_declaring(dims))
        with pytest.raises(FormatError, match="truncated container"):
            read_container(path)

    def test_declared_config_beyond_file(self, tmp_path):
        path = tmp_path / "m.bin"
        write_container(path, {"x": np.ones(3)}, "")
        data = path.read_bytes()
        path.write_bytes(data[:-8] + struct.pack("<Q", 2**62))
        with pytest.raises(FormatError, match="truncated container"):
            read_container(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.bin"
        write_container(path, {"x": np.ones(3)}, "cfg")
        padded = tmp_path / "padded.bin"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_container(padded)

    @pytest.mark.parametrize(
        "good, bad", [(b"xy", b"x\xff"), (b"cfg", b"cf\xff")], ids=["tensor_name", "config_block"]
    )
    def test_undecodable_bytes(self, tmp_path, good, bad):
        path = tmp_path / "m.bin"
        write_container(path, {"xy": np.ones(3)}, "cfg")
        data = path.read_bytes()
        assert data.count(good) == 1
        path.write_bytes(data.replace(good, bad))
        with pytest.raises(FormatError, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
            read_container(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "none.bin"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            read_container(path)


class TestAtomicOpen:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("old\n")
        with atomic_open(path) as fh:
            fh.write("new\n")
            assert path.read_text() == "old\n"
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.txt"]

    def test_leaves_neighbouring_files_alone(self, tmp_path):
        path = tmp_path / "r.txt"
        neighbour = tmp_path / "r.txt.tmp"
        neighbour.write_text("user data\n")
        with atomic_open(path) as fh:
            fh.write("new\n")
        assert neighbour.read_text() == "user data\n"
        assert path.read_text() == "new\n"

    def test_overlapping_writers_each_write_whole_file(self, tmp_path):
        path = tmp_path / "r.txt"
        with atomic_open(path) as first:
            first.write("first\n" * 100)
            with atomic_open(path) as second:
                second.write("second\n")
            assert path.read_text() == "second\n"
            first.write("first\n")
        assert path.read_text() == "first\n" * 101
        assert [p.name for p in tmp_path.iterdir()] == ["r.txt"]

    def test_binary_mode(self, tmp_path):
        path = tmp_path / "r.bin"
        with atomic_open(path, binary=True) as fh:
            fh.write(b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"

    def test_failed_container_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.bin"
        write_container(path, _sample_tensors(), "alpha = 1\n")
        before = path.read_bytes()
        # the first tensor is written before the second fails to convert
        with pytest.raises(ValueError):
            write_container(path, {"ok": np.ones(3), "bad": ["not", "numbers"]})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]

    def test_mode_of_a_plainly_created_file(self, tmp_path):
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        with atomic_open(tmp_path / "r.txt") as fh:
            fh.write("x")
        mode = os.stat(tmp_path / "plain.txt").st_mode & 0o777
        assert os.stat(tmp_path / "r.txt").st_mode & 0o777 == mode
