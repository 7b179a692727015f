"""Bit-exact file formats: the raw-tensor container, PGM masks, PPM images.

Raw-tensor container layout, all integers little-endian:
  bytes 0-3   magic "CALT"
  bytes 4-5   version, u16 (currently 1)
  bytes 6-9   dtype tag, u32 (0 = float32)
  bytes 10-13 rank, u32
  then        rank dims, u32 each
  then        row-major float32 payload

Masks are binary PGM (P5, maxval 255) with 0 = normal pixel and 255 =
anomalous; synthesized images emit as binary PPM (P6, 8-bit).
"""

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"CALT"
VERSION = 1
DTYPE_F32 = 0


def save_tensor(path, array) -> None:
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float32))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HII", VERSION, DTYPE_F32, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def read_bytes(path) -> bytes:
    """The file's bytes; a DataError naming it if it cannot be read, such
    as a missing file, a directory or a file without read permission.
    The tensor, PGM, scorer and calibrator readers all read through here."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def load_tensor(path) -> np.ndarray:
    data = read_bytes(path)
    if data[:4] != MAGIC:
        raise DataError(f"{path}: not a raw-tensor container")
    if len(data) < 14:
        raise DataError(f"{path}: header truncated at {len(data)} bytes")
    version, dtype_tag, rank = struct.unpack_from("<HII", data, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    if dtype_tag != DTYPE_F32:
        raise DataError(f"{path}: unsupported dtype tag {dtype_tag}")
    if len(data) < 14 + 4 * rank:
        raise DataError(f"{path}: header truncated at {len(data)} bytes, "
                        f"rank {rank} needs {14 + 4 * rank}")
    dims = struct.unpack_from(f"<{rank}I", data, 14)
    payload = data[14 + 4 * rank:]
    expected = math.prod(dims) * 4
    if len(payload) != expected:
        raise DataError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(values))  # before the cast, which a NaN can trap
    if len(bad):
        raise DataError(f"{path}: payload value {bad[0]} is not finite")
    return values.reshape(dims).astype(np.float64)


def write_pgm(path, mask) -> None:
    """Binary mask to PGM: nonzero pixels map to 255."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError("mask must be 2-D")
    body = ((m > 0) * np.uint8(255)).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode())
        fh.write(body.tobytes())


def read_pgm(path) -> np.ndarray:
    """PGM to a binary 0/1 mask (any nonzero level counts as anomalous)."""
    data = read_bytes(path)
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos] not in b" \t\r\n":
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise DataError(f"{path}: not a binary PGM")
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise DataError(f"{path}: malformed or truncated PGM header") from None
    if min(width, height) < 0:
        raise DataError(f"{path}: negative PGM size {width}x{height}")
    if maxval > 255:
        raise DataError(f"{path}: 16-bit PGM is not supported")
    pos += 1  # single whitespace after maxval
    if len(data) - pos < width * height:
        raise DataError(f"{path}: PGM body is {max(len(data) - pos, 0)} bytes, "
                        f"expected {width * height}")
    body = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return (body.reshape(height, width) > 0).astype(np.uint8)


def write_ppm(path, image) -> None:
    """(3, h, w) or (1, h, w) image with values in [0, 1] to binary PPM."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise ValueError("image must be (1|3, h, w)")
    if img.shape[0] == 1:
        img = np.repeat(img, 3, axis=0)
    body = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    interleaved = np.moveaxis(body, 0, -1)  # (h, w, 3)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.shape[2]} {img.shape[1]}\n255\n".encode())
        fh.write(interleaved.tobytes())
