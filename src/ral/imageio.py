"""Image and tensor file formats.

Two on-disk families:

* Binary plain pixmaps, 8-bit maxval 255: P5 (grayscale) and P6 (RGB).
  Loaded as float arrays scaled to [0, 1] with shape HxWx1 or HxWx3;
  written from uint8 arrays as they are, or from [0, 1] floats.
* "RALT" raw tensors: magic b"RALT", then one tensor record: rank u32,
  dims u32 x rank, little-endian float32 values row-major. Lossless for
  float32 data. ``pack_tensor`` and ``unpack_tensor`` write and read the
  record for RALW checkpoints (``nn.checkpoint``) too.

Malformed files are rejected with the byte offset of the problem;
truncated files report how many bytes are missing, and bytes after a
file's last record or pixel are rejected.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

RALT_MAGIC = b"RALT"


class ImageFormatError(ValueError):
    pass


def load_image(path):
    """Read a P5/P6 pixmap or RALT tensor as a float32 array.

    Pixmaps come back HxWx1 or HxWx3, each byte b as float32(b) / 255 in
    one pass over the pixel data; RALT tensors keep their stored shape and
    values.
    """
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] == RALT_MAGIC:
        tensor, end = unpack_tensor(blob, 4, str(path), "tensor")
        need_end(blob, end, str(path))
        return tensor.astype(np.float32)
    if blob[:2] in (b"P5", b"P6"):
        return _decode_pixmap(blob, str(path))
    raise ImageFormatError(f"{path}: unknown magic {blob[:4]!r} at byte 0")


def to_uint8(pixels):
    """The bytes a pixmap stores for [0,1] values: x * 255 rounded half to
    even, clipped to [0, 255], in the input's float precision."""
    q = np.multiply(pixels, 255.0)
    np.rint(q, out=q)
    np.clip(q, 0, 255, out=q)
    return q.astype(np.uint8)


def save_image(path, pixels):
    """Write an image as P5 (1 channel) or P6 (3 channels).

    A uint8 array is written as it is; any other input is taken as [0,1]
    values and quantized by ``to_uint8``.
    """
    path = Path(path)
    arr = np.asarray(pixels)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ImageFormatError(f"cannot write shape {arr.shape} as a pixmap")
    h, w, c = arr.shape
    data = arr if arr.dtype == np.uint8 else to_uint8(arr)
    magic = b"P6" if c == 3 else b"P5"
    header = magic + f"\n{w} {h}\n255\n".encode()
    path.write_bytes(header + data.tobytes())
    return path


def save_ralt(path, tensor):
    path = Path(path)
    path.write_bytes(RALT_MAGIC + pack_tensor(tensor))
    return path


def pack_tensor(tensor):
    """The record of ``tensor`` as float32; a rank-0 tensor stays rank 0."""
    arr = np.asarray(tensor, dtype="<f4")
    return struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape) + arr.tobytes()


def need_bytes(blob, off, n, name, what):
    """Raise unless ``blob`` holds the ``n`` bytes of ``what`` at ``off``."""
    if off + n > len(blob):
        raise ImageFormatError(f"{name}: truncated reading {what} at byte {off}: "
                               f"need {off + n - len(blob)} more bytes")


def need_end(blob, off, name):
    """Raise unless the last record of ``blob`` ends at ``off``, its end."""
    if off != len(blob):
        raise ImageFormatError(f"{name}: {len(blob) - off} extra bytes after the last "
                               f"record at byte {off}")


def unpack_tensor(blob, off, name, what):
    """(tensor, offset after it) of the record of tensor ``what`` at byte
    ``off``; the tensor is a read-only little-endian float32 view of ``blob``."""
    need_bytes(blob, off, 4, name, f"{what} rank")
    (rank,) = struct.unpack_from("<I", blob, off)
    need_bytes(blob, off + 4, 4 * rank, name, f"{what} dims")
    dims = struct.unpack_from(f"<{rank}I", blob, off + 4)
    off += 4 + 4 * rank
    count = math.prod(dims)
    need_bytes(blob, off, 4 * count, name, f"{what} data")
    return np.frombuffer(blob, "<f4", count, off).reshape(dims), off + 4 * count


def _decode_pixmap(blob, name):
    magic = blob[:2]
    channels = 3 if magic == b"P6" else 1
    off = 2
    fields = []
    while len(fields) < 3:
        off = _skip_space_and_comments(blob, off)
        start = off
        while off < len(blob) and not blob[off:off + 1].isspace():
            off += 1
        token = blob[start:off]
        if not token:
            raise ImageFormatError(f"{name}: truncated header at byte {start}: "
                                   f"expected {'width height maxval'.split()[len(fields)]}")
        try:
            fields.append(int(token))
        except ValueError:
            raise ImageFormatError(f"{name}: bad header token {token!r} at byte {start}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"{name}: non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"{name}: unsupported maxval {maxval} (only 8-bit, 255)")
    if off >= len(blob):
        raise ImageFormatError(f"{name}: truncated at byte {off}: missing pixel data")
    off += 1  # single whitespace byte terminates the header
    need = width * height * channels
    have = len(blob) - off
    if have < need:
        raise ImageFormatError(f"{name}: truncated at byte {len(blob)}: "
                               f"need {need - have} more pixel bytes")
    need_end(blob, off + need, name)  # one image a file, as save_image writes
    data = np.frombuffer(blob, dtype=np.uint8, count=need, offset=off)
    return np.divide(data.reshape(height, width, channels), np.float32(255.0),
                     dtype=np.float32)


def _skip_space_and_comments(blob, off):
    """Offset of the first byte at or after ``off`` that is neither
    whitespace nor in a comment, or the blob's length."""
    while off < len(blob):
        ch = blob[off:off + 1]
        if ch.isspace():
            off += 1
        elif ch == b"#":
            while off < len(blob) and blob[off:off + 1] != b"\n":
                off += 1
        else:
            break
    return off
