"""In-memory video clips and the .vvid flat file format.

A clip is a (T, H, W, C) float array with values in [0, 1].  On disk the
same layout is stored as float32 little-endian after a 21-byte header:
magic 'VVID', version byte 1, then T, H, W, C as uint32 little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"VVID"
VERSION = 1
_HEADER = struct.Struct("<4sB4I")


@dataclass
class VideoClip:
    """Frames in THWC order, float64, pixel values in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 4:
            raise ValueError("clip must be (T, H, W, C)")
        if arr.shape[0] < 1:
            raise ValueError("empty video")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
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
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).astype(np.float64).reshape(t, h, w, c)
    return VideoClip(data)
