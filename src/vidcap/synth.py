"""Synthetic caption corpora: one colored shape moving on black.

Each video holds a shape still for a prefix of the timeline and then
slides it linearly in one direction; the paired captions are filled-in
templates naming color, shape, and direction.  Everything is driven by a
single seed, and rerunning a spec writes byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .textproc import CaptionRecord, save_corpus
from .video import VideoClip, write_vvid

COLOR_RGB = {
    "red": (1.0, 0.1, 0.1),
    "green": (0.1, 0.9, 0.1),
    "blue": (0.15, 0.25, 1.0),
    "yellow": (1.0, 0.95, 0.1),
    "purple": (0.6, 0.15, 0.85),
    "orange": (1.0, 0.55, 0.1),
    "cyan": (0.1, 0.9, 0.9),
    "magenta": (0.95, 0.1, 0.8),
    "white": (1.0, 1.0, 1.0),
    "pink": (1.0, 0.6, 0.75),
}

SHAPES = ("square", "circle", "triangle")

# (row step, col step) per unit of travel
MOTION_STEPS = {
    "left": (0, -1),
    "right": (0, 1),
    "up": (-1, 0),
    "down": (1, 0),
    "static": (0, 0),
}

MOVING_TEMPLATES = (
    "a {color} {shape} moves {direction}",
    "a {color} {shape} moving {direction}",
    "the {color} {shape} is moving {direction}",
    "a {color} {shape} slides {direction} across the screen",
)

STATIC_TEMPLATES = (
    "a {color} {shape} stays still",
    "a {color} {shape} staying still",
    "the {color} {shape} is staying still",
    "a {color} {shape} remains still",
)


@dataclass
class SyntheticSpec:
    videos: int = 16
    frames: int = 24
    height: int = 16
    width: int = 16
    shapes: tuple[str, ...] = ("square", "circle", "triangle")
    colors: tuple[str, ...] = ("red", "green", "blue", "yellow")
    motions: tuple[str, ...] = ("left", "right", "up", "down")
    static_prefix: float = 0.25
    paraphrases: int = 1
    seed: int = 0

    def __post_init__(self):
        if min(self.videos, self.frames, self.height, self.width) < 1:
            raise ValueError("need at least one video and one frame, of at least 1x1 pixels")
        if not (0.0 <= self.static_prefix < 1.0):
            raise ValueError("static prefix must be in [0, 1)")
        if not (1 <= self.paraphrases <= len(MOVING_TEMPLATES)):
            raise ValueError(f"paraphrases must be 1..{len(MOVING_TEMPLATES)}")
        if self.seed < 0:
            raise ValueError(f"spec seed must be non-negative, got {self.seed}")
        for kind, known in (("shape", SHAPES), ("color", COLOR_RGB), ("motion", MOTION_STEPS)):
            values = getattr(self, kind + "s")
            if not values:
                raise ValueError(f"spec {kind}s must list at least one value, got []")
            for v in values:
                if v not in known:
                    raise ValueError(f"unknown {kind} {v!r}")


def _draw_shape(frame: np.ndarray, shape: str, center: tuple[int, int], size: int, rgb) -> None:
    h, w, _ = frame.shape
    r0, c0 = center
    half = size // 2
    if shape == "square":
        rows = slice(max(r0 - half, 0), min(r0 + half + 1, h))
        cols = slice(max(c0 - half, 0), min(c0 + half + 1, w))
        frame[rows, cols] = rgb
    elif shape == "circle":
        rr, cc = np.ogrid[:h, :w]
        mask = (rr - r0) ** 2 + (cc - c0) ** 2 <= (size / 2.0) ** 2
        frame[mask] = rgb
    elif shape == "triangle":
        for dr in range(-half, half + 1):
            r = r0 + dr
            if not 0 <= r < h:
                continue
            k = (dr + half + 1) // 2
            frame[r, max(c0 - k, 0) : min(c0 + k + 1, w)] = rgb
    else:
        raise ValueError(f"unknown shape {shape!r}")


def render_video(
    shape: str,
    color: str,
    motion: str,
    frames: int,
    height: int,
    width: int,
    static_prefix: float,
    rng: np.random.Generator,
) -> tuple[VideoClip, int]:
    """Render one clip; returns it with the index of the first moved frame.

    The shape sits at its start position for the prefix frames and then
    interpolates linearly to the far side of the canvas.
    """
    size = max(3, min(height, width) // 3)
    margin = size // 2 + 1
    prefix = int(round(static_prefix * frames))
    prefix = min(max(prefix, 0), frames - 1) if frames > 1 else 0

    dr, dc = MOTION_STEPS[motion]
    lo_r, hi_r = margin, max(height - 1 - margin, margin)
    lo_c, hi_c = margin, max(width - 1 - margin, margin)
    row = int(rng.integers(lo_r, hi_r + 1))
    col = int(rng.integers(lo_c, hi_c + 1))
    if dr < 0:
        start, end = (hi_r, col), (lo_r, col)
    elif dr > 0:
        start, end = (lo_r, col), (hi_r, col)
    elif dc < 0:
        start, end = (row, hi_c), (row, lo_c)
    elif dc > 0:
        start, end = (row, lo_c), (row, hi_c)
    else:
        start = end = (row, col)

    data = np.zeros((frames, height, width, 3))
    rgb = np.array(COLOR_RGB[color])
    travel = frames - prefix
    for i in range(frames):
        if i < prefix or travel == 0 or start == end:
            center = start
        else:
            frac = (i - prefix + 1) / travel
            center = (
                int(round(start[0] + frac * (end[0] - start[0]))),
                int(round(start[1] + frac * (end[1] - start[1]))),
            )
        _draw_shape(data[i], shape, center, size, rgb)
    return VideoClip(data), prefix


def caption_templates(motion: str) -> tuple[str, ...]:
    return STATIC_TEMPLATES if motion == "static" else MOVING_TEMPLATES


def captions_for(shape: str, color: str, motion: str, paraphrases: int) -> list[str]:
    out = []
    for tpl in caption_templates(motion)[:paraphrases]:
        out.append(tpl.format(color=color, shape=shape, direction=motion))
    return out


def generate_synthetic_dataset(spec: SyntheticSpec, out_dir: str | Path) -> list[CaptionRecord]:
    """Write videos/, corpus.jsonl and meta.json under out_dir."""
    out = Path(out_dir)
    (out / "videos").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    # cycle each attribute over its own shuffled order: every shape, color
    # and motion shows up as soon as the video count allows, and
    # (shape, motion) pairs stay distinct until the grid is exhausted
    shapes = list(spec.shapes)
    colors = list(spec.colors)
    motions = list(spec.motions)
    for lst in (shapes, colors, motions):
        rng.shuffle(lst)
    picks = [
        (
            shapes[i % len(shapes)],
            colors[i % len(colors)],
            motions[(i // len(shapes)) % len(motions)],
        )
        for i in range(spec.videos)
    ]

    records = []
    metas = []
    for v, (shape, color, motion) in enumerate(picks):
        clip, motion_start = render_video(
            shape, color, motion, spec.frames, spec.height, spec.width, spec.static_prefix, rng
        )
        vid = f"vid{v:04d}"
        rel = f"videos/{vid}.vvid"
        write_vvid(out / rel, clip)
        records.append(
            CaptionRecord(
                id=vid,
                video=rel,
                captions=captions_for(shape, color, motion, spec.paraphrases),
                split="train",
            )
        )
        metas.append(
            {"id": vid, "shape": shape, "color": color, "motion": motion, "motion_start": motion_start}
        )
    save_corpus(out / "corpus.jsonl", records)
    meta = {"spec": asdict(spec), "videos": metas}
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return records
