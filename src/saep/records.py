"""Versioned little-endian binary record files: named float32 arrays.

File layout: magic ``SAEP``, format version u32, record count u32, then
per record: name length u32, UTF-8 name, rank u32, one u64 per extent,
and the raw float32 data row-major. Checkpoints, feature-cache files and
embedding archives are all record files.

Every file the program writes, except the loss log it appends to as a run
goes, is written through ``atomic_write``, so a reader finds the old file
or the new one, never part of one. Text files are read through
``text_lines``, which names a file that is not UTF-8.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
from typing import IO, Dict, Iterator, NoReturn, Tuple

import numpy as np

__all__ = ["MAGIC", "VERSION", "CheckpointFormatError", "atomic_write",
           "text_lines", "write_records", "read_records"]

MAGIC = b"SAEP"
VERSION = 1


class CheckpointFormatError(ValueError):
    """The file is not a well-formed record file of the expected version."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """``open(path, mode)`` for writing, through a new file beside ``path``
    that is closed and renamed over it once the block ends; on an error it
    is removed instead, and ``path`` is left as it was. There is no fsync:
    the rename guards against a failed or killed writer, not a power loss."""
    tmp = "%s.%s.tmp" % (path, os.urandom(4).hex())
    try:
        # "x" creates the file as "w" would, but never opens an existing one.
        fh = open(tmp, mode.replace("w", "x"), **kwargs)
    except OSError as exc:  # name the file asked for, not the temp file
        exc.filename = os.fspath(path)
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def text_lines(path, error: type = ValueError) -> Iterator[Tuple[int, str]]:
    """Number and text of each line of the UTF-8 text file ``path``. A byte
    that is not UTF-8 raises ``error``, naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:
            raise error("%s: not UTF-8 text: byte 0x%02x (%s)"
                        % (path, exc.object[exc.start], exc.reason)) from None


def write_records(path, records: Dict[str, np.ndarray]) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<II", VERSION, len(records)))
    for name, arr in records.items():
        arr = np.asarray(arr, dtype="<f4")
        name_bytes = name.encode("utf-8")
        buf.write(struct.pack("<I", len(name_bytes)))
        buf.write(name_bytes)
        buf.write(struct.pack("<I", arr.ndim))
        for extent in arr.shape:
            buf.write(struct.pack("<Q", extent))
        buf.write(arr.tobytes())
    with atomic_write(path) as fh:
        fh.write(buf.getvalue())


def read_records(path) -> Dict[str, np.ndarray]:
    """Every record of the file, by name. Each error names the file."""
    records: Dict[str, np.ndarray] = {}

    def fail(message: str) -> NoReturn:
        raise CheckpointFormatError("%s: %s" % (path, message)) from None

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def check(n: int, what: str) -> None:
            # Checked first, so a size beyond the file is never allocated.
            left = size - fh.tell()
            if n > left:
                fail("truncated file: %s claims %d bytes but only %d remain"
                     % (what, n, left))

        def take(n: int, what: str) -> bytes:
            check(n, what)
            return fh.read(n)

        magic = take(4, "magic")
        if magic != MAGIC:
            fail("bad magic %r (expected %r)" % (magic, MAGIC))
        version, count = struct.unpack("<II", take(8, "header"))
        if version != VERSION:
            fail("unsupported format version %d" % version)
        for index in range(count):
            (name_len,) = struct.unpack("<I", take(4, "name length"))
            raw_name = take(name_len, "record name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                fail("record %d has a name that is not UTF-8: %r"
                     % (index, raw_name))
            if name in records:
                fail("duplicate record %r" % name)
            (rank,) = struct.unpack("<I", take(4, "rank of %r" % name))
            shape = struct.unpack("<%dQ" % rank,
                                  take(8 * rank, "extents of %r" % name))
            check(4 * math.prod(shape), "data of %r" % name)
            try:
                records[name] = np.empty(shape, dtype="<f4")
            except ValueError:  # e.g. extents (0, 2**63): no data, no array
                fail("record %r has extents %s, too large for an array"
                     % (name, shape))
            fh.readinto(records[name].reshape(-1))
        if fh.tell() != size:
            fail("%d bytes left over after the last of %d records"
                 % (size - fh.tell(), count))
    return records
