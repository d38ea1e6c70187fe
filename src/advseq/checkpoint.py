"""Binary tensor container for checkpoints.

Layout, all integers little-endian u32:

    magic "MTGN" | version | 32-byte config digest | n_blocks |
    blocks... | crc32 of everything before it

Each block is: name length, utf-8 name, rows, cols, then rows*cols float64
values row-major. Every tensor is stored 2-D; vectors go in as one row and
scalars as 1x1. `write_atomic`, which every checkpoint and most text files
go through, writes a temp file and renames it, so a crash never tears one;
the trailing checksum turns silent truncation or corruption into a load error.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib

import numpy as np

MAGIC = b"MTGN"
VERSION = 1
DIGEST_LEN = 32


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or mismatched checkpoint file."""


def _pack_u32(x: int) -> bytes:
    return struct.pack("<I", x)


def save_tensors(path, tensors: dict[str, np.ndarray], digest: bytes) -> None:
    if len(digest) != DIGEST_LEN:
        raise ValueError(f"digest must be {DIGEST_LEN} bytes, got {len(digest)}")
    parts = [MAGIC, _pack_u32(VERSION), digest, _pack_u32(len(tensors))]
    for name, tensor in tensors.items():
        arr = np.ascontiguousarray(np.atleast_2d(np.asarray(tensor, dtype=np.float64)))
        if arr.ndim != 2:
            raise ValueError(f"tensor {name!r} has {arr.ndim} dims; only 2-D is stored")
        encoded = name.encode("utf-8")
        parts.append(_pack_u32(len(encoded)))
        parts.append(encoded)
        parts.append(_pack_u32(arr.shape[0]))
        parts.append(_pack_u32(arr.shape[1]))
        parts.append(arr.astype("<f8").tobytes(order="C"))
    body = b"".join(parts)
    write_atomic(path, body + _pack_u32(zlib.crc32(body) & 0xFFFFFFFF))


def write_atomic(path, blob: bytes) -> None:
    """Write `blob` to a temp file beside `path`, fsync it and rename it over
    `path`: old or new whole, no temp file left, and any OSError names `path`."""
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise OSError(f"{path}: {e.strerror or e}") from e
        raise


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_tensors(path) -> tuple[dict[str, np.ndarray], bytes]:
    """Read all blocks; returns (tensors, stored digest). Comparing the
    digest against the run's configuration is the caller's job."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read checkpoint: {e}") from None
    if len(blob) < 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    body, crc_bytes = blob[:-4], blob[-4:]
    if struct.unpack("<I", crc_bytes)[0] != (zlib.crc32(body) & 0xFFFFFFFF):
        raise CheckpointError(f"{path}: checksum mismatch; file is corrupt")
    r = _Reader(body, path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    digest = r.take(DIGEST_LEN)
    n_blocks = r.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_blocks):
        name = r.take(r.u32()).decode("utf-8")
        rows = r.u32()
        cols = r.u32()
        data = r.take(rows * cols * 8)
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor block {name!r}")
        tensors[name] = np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()
    if r.pos != len(body):
        raise CheckpointError(f"{path}: {len(body) - r.pos} trailing bytes after blocks")
    return tensors, digest
