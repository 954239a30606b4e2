"""In-memory video clips and the .vvid flat file format.

A clip is a (T, H, W, C) float array with values in [0, 1].  On disk the
same layout is stored as float32 little-endian after a 21-byte header:
magic 'VVID', version byte 1, then T, H, W, C as uint32 little-endian.

Clip data is float32 or float64.  A float32 array is kept as given, so a
clip read from a .vvid file holds a read-only float32 view of the file's
payload; anything else is converted to float64.  Float32 pixels widen to
float64 exactly, so code that computes in float64 (frame dissimilarity,
the encoder's patch embedding) sees the same numbers either way.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"VVID"
VERSION = 1
_HEADER = struct.Struct("<4sB4I")


class VideoClip:
    """Frames in THWC order, pixel values in [0, 1].

    data is a float32 array kept as given (no copy; read-only when read
    from a file) or, for any other input, a float64 array.  Every axis
    holds at least one entry; NaN pixels are rejected along with
    out-of-range ones.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        if isinstance(data, np.ndarray) and data.dtype == np.float32:
            arr = data
        else:
            arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ValueError("clip must be (T, H, W, C)")
        if arr.shape[0] < 1:
            raise ValueError("empty video")
        if 0 in arr.shape:
            raise ValueError(f"clip of shape {arr.shape} has an empty row, column or channel axis")
        # written so that NaN, which fails every comparison, is rejected too
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        self.data = arr

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple:
        return self.data.shape


def write_vvid(path: str | Path, clip: VideoClip) -> None:
    t, h, w, c = clip.data.shape
    payload = clip.data.astype("<f4").tobytes()
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, t, h, w, c))
        f.write(payload)


def read_vvid(path: str | Path) -> VideoClip:
    """The clip stored at path; its data is a read-only float32 view of
    the file's bytes, not a copy."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, t, h, w, c = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    expect = t * h * w * c * 4
    size = len(raw) - _HEADER.size
    if size != expect:
        raise ValueError(f"{path}: payload is {size} bytes, expected {expect}")
    try:
        return VideoClip(np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(t, h, w, c))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
