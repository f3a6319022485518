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

from .errors import FormatError, naming

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
            fh.write(arr)
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
    with open(path, "rb") as fh, naming(path):
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version = _read_struct(fh, "<I")[0]
        if version != VERSION:
            raise FormatError(f"unsupported container version {version}, expected {VERSION}")
        count = _read_struct(fh, "<I")[0]
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = _read_struct(fh, "<I")[0]
            name = _read_exact(fh, name_len).decode("utf-8")
            if name in tensors:
                raise FormatError(f"tensor {name!r} appears twice")
            ndim = _read_struct(fh, "<I")[0]
            shape = tuple(_read_struct(fh, "<Q")[0] for _ in range(ndim))
            _check_left(fh, math.prod(shape) * 8)
            # read into the array itself: a bytes payload would be a second copy
            tensors[name] = np.empty(shape, dtype="<f8")
            fh.readinto(tensors[name])
        config_len = _read_struct(fh, "<Q")[0]
        config_text = _read_exact(fh, config_len).decode("utf-8")
        if fh.read(1):
            raise FormatError("trailing bytes after config block")
    return tensors, config_text


def _check_left(fh, n: int) -> None:
    """Refuse a size that a corrupt header declares before any buffer is
    made for it: it must fit in the bytes left in the file."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"truncated container (wanted {n} bytes, {left} left)")


def _read_exact(fh, n: int) -> bytes:
    _check_left(fh, n)
    return fh.read(n)


def _read_struct(fh, fmt: str):
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))
