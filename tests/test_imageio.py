import math
import re
import struct

import numpy as np
import pytest

from ral.imageio import (ImageFormatError, load_image, pack_tensor, save_image, save_ralt,
                         unpack_tensor)


def test_ralt_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(3, 5, 2), (), (2, 0)]:
        t = rng.standard_normal(shape).astype(np.float32)
        path = save_ralt(tmp_path / "t.ralt", t)
        back = load_image(path)
        assert back.dtype == np.float32 and back.shape == shape
        np.testing.assert_array_equal(back, t)


def test_pgm_known_bytes(tmp_path):
    # hand-written 2x2 grayscale fixture: values 0, 51, 102, 255
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 51, 102, 255]))
    img = load_image(path)
    assert img.shape == (2, 2, 1)
    np.testing.assert_allclose(img[:, :, 0],
                               np.array([[0, 51], [102, 255]]) / 255.0, atol=1e-7)


def test_ppm_round_trip_on_quantized_values(tmp_path):
    rng = np.random.default_rng(1)
    img = np.rint(rng.random((4, 6, 3)) * 255) / 255.0
    path = save_image(tmp_path / "img.ppm", img.astype(np.float32))
    back = load_image(path)
    np.testing.assert_allclose(back, img, atol=1e-7)


def test_header_comments_allowed(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([7, 9]))
    img = load_image(path)
    assert img.shape == (1, 2, 1)


def test_truncated_pixmap_names_missing_bytes(tmp_path):
    path = tmp_path / "trunc.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))  # needs 12 pixel bytes
    with pytest.raises(ImageFormatError, match="need 7 more pixel bytes"):
        load_image(path)


def test_bytes_after_the_pixels_rejected(tmp_path):
    path = save_image(tmp_path / "p.ppm", np.full((4, 4, 3), 0.5, np.float32))
    blob = path.read_bytes()
    assert len(blob) == 11 + 48  # b"P6\n4 4\n255\n", then the pixels
    path.write_bytes(blob + b"junk")
    with pytest.raises(ImageFormatError, match=r"p\.ppm: 4 extra bytes after the last "
                                               r"record at byte 59$"):
        load_image(path)


def record_ends(shape, start):
    """Where the rank, the dims and the data of a record at ``start`` end."""
    dims_end = start + 4 + 4 * len(shape)
    return [start + 4, dims_end, dims_end + 4 * math.prod(shape)]


def test_truncated_ralt_names_missing_bytes(tmp_path):
    path = tmp_path / "cut.ralt"
    for shape in [(2, 2), (), (3, 0, 2), (1, 2, 3)]:
        blob = save_ralt(tmp_path / "t.ralt", np.ones(shape, np.float32)).read_bytes()
        ends = record_ends(shape, 4)
        assert ends[-1] == len(blob)
        for cut in range(4, len(blob)):  # every cut past the magic
            path.write_bytes(blob[:cut])
            missing = min(e for e in ends if e > cut) - cut
            with pytest.raises(ImageFormatError,
                               match=f"truncated reading tensor .* need {missing} more bytes$"):
                load_image(path)


@pytest.mark.parametrize("shape", [(32, 32, 1), ()])
def test_bytes_after_the_record_rejected(tmp_path, shape):
    path = save_ralt(tmp_path / "t.ralt", np.full(shape, 0.5, np.float32))
    blob = path.read_bytes()
    for extra in range(1, 13):
        path.write_bytes(blob + bytes(range(extra)))
        with pytest.raises(ImageFormatError, match=f"{extra} extra bytes after the last "
                                                   f"record at byte {len(blob)}$"):
            load_image(path)


def test_record_bytes_are_rank_dims_and_little_endian_floats():
    t = np.array([[1.0, -2.0, 0.5]], dtype=np.float64)
    assert pack_tensor(t) == struct.pack("<3I3f", 2, 1, 3, 1.0, -2.0, 0.5)
    assert pack_tensor(np.float32(7.0)) == struct.pack("<If", 0, 7.0)


def test_records_read_back_to_back():
    tensors = [np.arange(6, dtype=np.float32).reshape(2, 3), np.float32(7.0),
               np.zeros((2, 0)), np.full((1, 2, 1), 0.25)]
    blob = b"".join(map(pack_tensor, tensors)) + b"tail"
    off = 0
    for t in tensors:
        back, off = unpack_tensor(blob, off, "blob", "tensor")
        assert back.shape == np.shape(t)
        np.testing.assert_array_equal(back, t)
    assert blob[off:] == b"tail"


def test_unknown_magic_rejected_with_offset(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XYZ!whatever")
    with pytest.raises(ImageFormatError, match="byte 0"):
        load_image(path)


def test_bad_maxval_rejected(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ImageFormatError, match="maxval"):
        load_image(path)


@pytest.mark.parametrize("blob, message", [
    (b"P5\n2 ", r"truncated header at byte 5: expected height$"),
    (b"P5\n# a comment", r"truncated header at byte 14: expected width$"),
    (b"P5\n2 x\n255\n", r"bad header token b'x' at byte 5$"),
    (b"P6\n0 2\n255\n", r"non-positive dimensions 0x2$"),
    (b"P5\n1 1\n255", r"truncated at byte 10: missing pixel data$"),
], ids=["header", "comment", "token", "dimensions", "pixels"])
def test_malformed_header_rejected(tmp_path, blob, message):
    path = tmp_path / "h.pgm"
    path.write_bytes(blob)
    with pytest.raises(ImageFormatError, match=r"h\.pgm: " + message):
        load_image(path)


@pytest.mark.parametrize("shape", [(3,), (3, 5, 2), (3, 5, 4), (2, 3, 5, 3)])
def test_unwritable_shape_rejected(tmp_path, shape):
    path = tmp_path / "w.ppm"
    message = f"cannot write shape {shape} as a pixmap"
    with pytest.raises(ImageFormatError, match=f"^{re.escape(message)}$"):
        save_image(path, np.zeros(shape, np.float32))
    assert not path.exists()


@pytest.mark.parametrize("shape", [(3, 5), (3, 5, 1), (3, 5, 3)])
def test_uint8_written_as_it_is(tmp_path, shape):
    arr = np.random.default_rng(2).integers(0, 256, size=shape).astype(np.uint8)
    path = save_image(tmp_path / "u.pnm", arr)
    magic = b"P6" if shape[-1] == 3 else b"P5"
    assert path.read_bytes() == magic + b"\n5 3\n255\n" + arr.tobytes()
    assert (load_image(path) * 255.0).round().astype(np.uint8).tobytes() == arr.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [1, 3])
def test_float_bytes_are_the_rounded_and_clipped_values(tmp_path, dtype, channels):
    rng = np.random.default_rng(3)
    arr = rng.uniform(-0.3, 1.3, size=(16, 50, channels)).astype(dtype)
    # every byte value, its rounding midpoints, and values far outside [0, 1]
    k = np.arange(256)
    arr.flat[:768] = np.concatenate([k / 255.0, (k + 0.5) / 255.0, (k - 0.5) / 255.0])
    arr.flat[-4:] = [-7.0, -0.0, 1.0 + 1e-6, 40.0]
    path = save_image(tmp_path / "f.pnm", arr)
    ref = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    magic = b"P6" if channels == 3 else b"P5"
    assert path.read_bytes() == magic + b"\n50 16\n255\n" + ref.tobytes()


@pytest.mark.parametrize("magic, channels", [(b"P5", 1), (b"P6", 3)])
def test_decode_is_float32_bytes_over_255_for_every_byte(tmp_path, magic, channels):
    data = np.repeat(np.arange(256, dtype=np.uint8), channels)
    path = tmp_path / "all.pnm"
    path.write_bytes(magic + b"\n16 16\n255\n" + data.tobytes())
    img = load_image(path)
    ref = data.reshape(16, 16, channels).astype(np.float32) / 255.0
    assert img.dtype == np.float32 and img.shape == (16, 16, channels)
    assert img.tobytes() == ref.tobytes()
