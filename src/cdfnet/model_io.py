"""Binary container for named float64 tensors plus a text config block.

Layout (all integers little-endian):

    magic   4 bytes  b"CDFN"
    version u32      currently 1
    count   u32      number of tensors
    count * [ name_len u32, name bytes (utf-8),
              ndim u32, ndim * (dim u64),
              payload: prod(dims) little-endian float64 ]
    config_len u64, config bytes (utf-8)

Everything is 64-bit floating point, so save/load round-trips are
bit-exact and language neutral.

:func:`atomic_open` is the all-or-nothing writer that containers, score
files, predictions and reports go through.
"""

from __future__ import annotations

import math
import os
import struct
import uuid
from contextlib import contextmanager

import numpy as np

from .errors import FormatError

MAGIC = b"CDFN"
VERSION = 1


def write_container(path, tensors: dict[str, np.ndarray], config_text: str = "") -> None:
    """Write named tensors and a trailing text block, all or nothing; order is preserved."""
    with atomic_open(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(tensors)))
        for name, tensor in tensors.items():
            arr = np.ascontiguousarray(tensor, dtype="<f8")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes())
        config_bytes = config_text.encode("utf-8")
        fh.write(struct.pack("<Q", len(config_bytes)))
        fh.write(config_bytes)


@contextmanager
def atomic_open(path, binary: bool = False):
    """ASCII text (or, with binary, bytes) handle whose content replaces path
    only once it is complete.

    Writes go to a fresh, uniquely named temporary file beside path, which is
    synced to disk and renamed over path when the block ends and removed if
    the block raises, so readers see the old file or the new one, never a
    partial one.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex}")
    # "x" refuses an existing file and, like plain open(), honours the umask
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="ascii")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def read_container(path) -> tuple[dict[str, np.ndarray], str]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version = _read_struct(fh, path, "<I")[0]
        if version != VERSION:
            raise FormatError(
                f"{path}: unsupported container version {version}, expected {VERSION}"
            )
        count = _read_struct(fh, path, "<I")[0]
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = _read_struct(fh, path, "<I")[0]
            name = _read_exact(fh, path, name_len).decode("utf-8")
            ndim = _read_struct(fh, path, "<I")[0]
            shape = tuple(
                _read_struct(fh, path, "<Q")[0] for _ in range(ndim)
            )
            payload = _read_exact(fh, path, math.prod(shape) * 8)
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        config_len = _read_struct(fh, path, "<Q")[0]
        config_text = _read_exact(fh, path, config_len).decode("utf-8")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after config block")
    return tensors, config_text


def _read_exact(fh, path, n: int) -> bytes:
    """The next n bytes; a size that a corrupt header declares is checked
    against the bytes left in the file before any buffer is made for it."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"{path}: truncated container (wanted {n} bytes, {left} left)")
    return fh.read(n)


def _read_struct(fh, path, fmt: str):
    return struct.unpack(fmt, _read_exact(fh, path, struct.calcsize(fmt)))
