"""Checkpoint container: roundtrips, atomicity, corruption detection."""

import struct
import zlib

import numpy as np
import pytest

from advseq.checkpoint import (DIGEST_LEN, MAGIC, VERSION, CheckpointError,
                               load_tensors, save_tensors)
from advseq.cli import CliError, restore_run_state, save_run_state

DIGEST = bytes(range(DIGEST_LEN))


def _reseal(body: bytes) -> bytes:
    """Append a fresh checksum so only the targeted defect trips."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _write(path, blob: bytes):
    path.write_bytes(blob)
    return path


@pytest.fixture
def sample(tmp_path):
    tensors = {
        "w": np.array([[1.5, -2.25], [0.0, 1e-300]]),
        "v": np.array([3.0, 4.0, 5.0]),
        "s": np.array(7.5),
    }
    path = tmp_path / "model.ckpt"
    save_tensors(path, tensors, DIGEST)
    return path, tensors


def test_roundtrip_values_and_shapes(sample):
    path, tensors = sample
    loaded, digest = load_tensors(path)
    assert digest == DIGEST
    assert list(loaded) == ["w", "v", "s"]
    assert np.array_equal(loaded["w"], tensors["w"])
    # vectors come back as a single row, scalars as 1x1
    assert loaded["v"].shape == (1, 3) and np.array_equal(loaded["v"][0], tensors["v"])
    assert loaded["s"].shape == (1, 1) and loaded["s"][0, 0] == 7.5
    assert all(a.dtype == np.float64 for a in loaded.values())


def test_resave_is_byte_identical(sample, tmp_path):
    path, _ = sample
    loaded, digest = load_tensors(path)
    again = tmp_path / "again.ckpt"
    save_tensors(again, loaded, digest)
    assert again.read_bytes() == path.read_bytes()


def test_no_temp_file_left_behind(sample, tmp_path):
    assert not (tmp_path / "model.ckpt.tmp").exists()


def test_empty_tensor_dict(tmp_path):
    path = tmp_path / "empty.ckpt"
    save_tensors(path, {}, DIGEST)
    loaded, digest = load_tensors(path)
    assert loaded == {} and digest == DIGEST


def test_noncontiguous_and_integer_inputs(tmp_path):
    base = np.arange(24, dtype=np.float64).reshape(4, 6)
    tensors = {"t": base.T, "strided": base[:, ::2], "ints": np.array([[1, 2]])}
    path = tmp_path / "odd.ckpt"
    save_tensors(path, tensors, DIGEST)
    loaded, _ = load_tensors(path)
    assert np.array_equal(loaded["t"], base.T)
    assert np.array_equal(loaded["strided"], base[:, ::2])
    assert loaded["ints"].dtype == np.float64


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_tensors(tmp_path / "nope.ckpt")


def test_single_bit_flip_detected(sample):
    path, _ = sample
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_tensors(path)


def test_short_file_is_truncated(tmp_path):
    path = _write(tmp_path / "t.ckpt", b"MT")
    with pytest.raises(CheckpointError, match="truncated"):
        load_tensors(path)


def test_bad_magic(tmp_path):
    body = b"XXXX" + struct.pack("<I", VERSION) + DIGEST + struct.pack("<I", 0)
    path = _write(tmp_path / "m.ckpt", _reseal(body))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_tensors(path)


def test_unsupported_version(tmp_path):
    body = MAGIC + struct.pack("<I", VERSION + 1) + DIGEST + struct.pack("<I", 0)
    path = _write(tmp_path / "v.ckpt", _reseal(body))
    with pytest.raises(CheckpointError, match="version"):
        load_tensors(path)


def test_digest_mismatch_refused(tmp_path):
    path = str(tmp_path / "table.ckpt")
    stored = np.arange(6.0).reshape(2, 3)
    save_run_state(path, DIGEST, {"embed": stored})
    table = np.zeros((2, 3))
    with pytest.raises(CliError, match="different configuration"):
        restore_run_state(path, bytes(DIGEST_LEN), {"embed": table})
    assert not table.any()
    restore_run_state(path, DIGEST, {"embed": table})
    assert np.array_equal(table, stored)


def test_truncated_body_passes_crc_still_caught(sample):
    # drop the tail of the last block but reseal, so only the block
    # reader can notice the damage
    path, _ = sample
    body = path.read_bytes()[:-4]
    path.write_bytes(_reseal(body[:-8]))
    with pytest.raises(CheckpointError, match="truncated"):
        load_tensors(path)


def test_trailing_bytes_detected(sample):
    path, _ = sample
    body = path.read_bytes()[:-4]
    path.write_bytes(_reseal(body + b"\x00\x00\x00"))
    with pytest.raises(CheckpointError, match="trailing"):
        load_tensors(path)


def test_duplicate_block_rejected(tmp_path):
    block = (struct.pack("<I", 1) + b"w" + struct.pack("<I", 1)
             + struct.pack("<I", 1) + struct.pack("<d", 2.0))
    body = MAGIC + struct.pack("<I", VERSION) + DIGEST + struct.pack("<I", 2)
    body += block + block
    path = _write(tmp_path / "d.ckpt", _reseal(body))
    with pytest.raises(CheckpointError, match="duplicate"):
        load_tensors(path)


def test_save_rejects_wrong_digest_length(tmp_path):
    with pytest.raises(ValueError, match="digest"):
        save_tensors(tmp_path / "x.ckpt", {}, b"short")


def test_save_rejects_higher_rank(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        save_tensors(tmp_path / "x.ckpt", {"t": np.zeros((2, 2, 2))}, DIGEST)
