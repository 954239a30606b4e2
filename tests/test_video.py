"""Clip container validation and .vvid round trips."""

import struct

import numpy as np
import pytest

from vidcap.video import VideoClip, read_vvid, write_vvid


def test_clip_validation():
    with pytest.raises(ValueError, match=r"\(T, H, W, C\)"):
        VideoClip(np.zeros((4, 4, 1)))
    with pytest.raises(ValueError, match="empty video"):
        VideoClip(np.zeros((0, 4, 4, 1)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        VideoClip(np.full((1, 2, 2, 1), 1.5))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        VideoClip(np.full((1, 2, 2, 1), -0.1))

    clip = VideoClip(np.zeros((2, 3, 4, 3)))
    assert clip.frames == 2
    assert clip.shape == (2, 3, 4, 3)


def test_vvid_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    clip = VideoClip(rng.random((5, 6, 7, 3)))
    p = tmp_path / "clip.vvid"
    write_vvid(p, clip)
    back = read_vvid(p)
    # storage is float32, so the round trip is exact at f32 resolution
    assert back.shape == clip.shape
    assert np.array_equal(back.data, clip.data.astype("<f4").astype(np.float64))

    # writing the reread clip again is byte-identical (f32 fixpoint)
    p2 = tmp_path / "clip2.vvid"
    write_vvid(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_vvid_header_layout(tmp_path):
    clip = VideoClip(np.zeros((2, 3, 4, 1)))
    p = tmp_path / "c.vvid"
    write_vvid(p, clip)
    raw = p.read_bytes()
    assert raw[:4] == b"VVID"
    assert raw[4] == 1
    assert struct.unpack_from("<4I", raw, 5) == (2, 3, 4, 1)
    assert len(raw) == 21 + 2 * 3 * 4 * 1 * 4


def test_vvid_read_errors(tmp_path):
    p = tmp_path / "bad.vvid"

    p.write_bytes(b"VV")
    with pytest.raises(ValueError, match="truncated header"):
        read_vvid(p)

    p.write_bytes(b"NOPE" + bytes(17))
    with pytest.raises(ValueError, match="bad magic"):
        read_vvid(p)

    good = struct.pack("<4sB4I", b"VVID", 2, 1, 1, 1, 1) + bytes(4)
    p.write_bytes(good)
    with pytest.raises(ValueError, match="unsupported version"):
        read_vvid(p)

    short = struct.pack("<4sB4I", b"VVID", 1, 2, 2, 2, 1) + bytes(4)
    p.write_bytes(short)
    with pytest.raises(ValueError, match="payload"):
        read_vvid(p)


def _raw_vvid(path, payload):
    """A .vvid file holding payload, a float32 array, bypassing VideoClip."""
    path.write_bytes(struct.pack("<4sB4I", b"VVID", 1, *payload.shape) + payload.astype("<f4").tobytes())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_clip_rejects_nan_pixels(dtype, tmp_path):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        VideoClip(np.full((2, 2, 2, 1), np.nan, dtype=dtype))
    one = np.full((2, 2, 2, 1), 0.5, dtype=dtype)
    one[1, 0, 1, 0] = np.nan
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        VideoClip(one)

    p = tmp_path / "nan.vvid"
    _raw_vvid(p, one)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        read_vvid(p)


def test_dtype_contract():
    f32 = np.random.default_rng(1).random((3, 2, 2, 1)).astype(np.float32)
    assert VideoClip(f32).data is f32  # kept as given, no copy

    for other in (f32.astype(np.float16), np.zeros((1, 1, 1, 1), dtype=np.uint8), [[[[0.25]]]]):
        assert VideoClip(other).data.dtype == np.float64
    f64 = np.zeros((1, 2, 2, 1))
    assert VideoClip(f64).data is f64


def test_read_vvid_is_a_read_only_float32_view(tmp_path):
    clip = VideoClip(np.random.default_rng(2).random((4, 3, 5, 2)))
    p = tmp_path / "clip.vvid"
    write_vvid(p, clip)
    data = read_vvid(p).data
    assert data.dtype == np.float32
    assert not data.flags.writeable
    assert not data.flags.owndata  # a view of the file's bytes, no payload copy
    assert np.array_equal(data, clip.data.astype(np.float32))
