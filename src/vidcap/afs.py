"""Adaptive frame selection.

Consecutive-frame dissimilarities are normalized into a piecewise-linear
CDF over the frame axis, and frames are picked by inverting that CDF at
evenly spaced quantiles.  Regions of the timeline where more changes
happen receive proportionally more of the selected frames; a flat profile
degrades to uniform sampling.
"""

from __future__ import annotations

import numpy as np

from .video import VideoClip

DISSIMILARITY_METRICS = ("mad", "patch")
MAD_CHUNK = 16  # frames widened and differenced at a time by the 'mad' metric
PATCH = 4  # side of the square patches the 'patch' metric averages


def frame_dissimilarity(clip: VideoClip, metric: str = "mad") -> np.ndarray:
    """Per-segment dissimilarity d[t] between frames t and t+1.

    'mad' is the mean absolute pixel difference.  'patch' compares frames
    through per-channel mean descriptors of non-overlapping 4x4 patches
    (partial patches at the edges are averaged over the pixels they have)
    and takes the L2 distance between consecutive descriptors.

    Both compute in float64: a float32 clip gives bitwise the values of
    the same clip widened to float64.
    """
    frames = clip.data
    if frames.shape[0] < 1:
        raise ValueError("empty video")
    if metric == "mad":
        # float32 widens exactly, so subtracting in float64 equals np.diff
        # of the widened clip without widening all of it first; each
        # frame's sum is its own reduction, so a chunk of MAD_CHUNK frames
        # at a time gives the same bits with a bounded float64 buffer, and
        # one division by the pixel count ends the mean as np.mean does
        segments = frames.shape[0] - 1
        out = np.empty(segments)
        buf = np.empty((min(segments, MAD_CHUNK),) + frames.shape[1:])
        for start in range(0, segments, MAD_CHUNK):
            stop = min(start + MAD_CHUNK, segments)
            diffs = buf[: stop - start]
            np.subtract(frames[start + 1 : stop + 1], frames[start:stop], out=diffs, dtype=np.float64)
            np.add.reduce(np.abs(diffs, out=diffs), axis=(1, 2, 3), out=out[start:stop])
        out /= frames[0].size
        return out
    if metric == "patch":
        # a patch's sum adds its pixels one at a time in row-major order, as
        # np.mean over a patch of two or more channels does: the pixel at
        # offset (dr, dc) of every patch of every frame is one strided view,
        # added in float64 into the patches that have it
        t, h, w, c = frames.shape
        sums = np.zeros((t, -(-h // PATCH), -(-w // PATCH), c))
        for dr in range(PATCH):
            for dc in range(PATCH):
                pixels = frames[:, dr::PATCH, dc::PATCH]
                sums[:, : pixels.shape[1], : pixels.shape[2]] += pixels
        rows = np.minimum(PATCH, h - np.arange(0, h, PATCH))
        cols = np.minimum(PATCH, w - np.arange(0, w, PATCH))
        desc = (sums / (rows[:, None, None] * cols[:, None])).reshape(t, -1)
        return np.sqrt(((np.diff(desc, axis=0)) ** 2).sum(axis=1))
    raise ValueError(f"unknown dissimilarity metric {metric!r}")


class FrameCdf:
    """Piecewise-linear CDF with breakpoints at integer frame positions.

    breakpoints[t] is F(t); mass[t] is the unnormalized weight of segment
    [t, t+1].  For a single-frame video both arrays degenerate ([0.0] and
    empty) and every quantile maps to frame 0.  Inversion runs on mass, not
    on the normalized pdf, so that integer-valued profiles invert without
    the rounding noise a cumsum-then-divide would add.
    """

    __slots__ = ("breakpoints", "mass")

    def __init__(self, breakpoints: np.ndarray, mass: np.ndarray):
        self.breakpoints = breakpoints
        self.mass = mass

    @property
    def m(self) -> int:
        return len(self.breakpoints)

    @property
    def pdf(self) -> np.ndarray:
        """Segment probabilities, mass normalized to sum to one."""
        return self.mass / self.mass.sum()

    def _segments(self) -> tuple[np.ndarray, float, bool]:
        """(cumulative mass, total, is-uniform) for inversion."""
        cum = np.concatenate([[0.0], np.cumsum(self.mass)])
        total = float(cum[-1])
        uniform = (
            self.m == 1
            or total == 0.0
            or float(self.mass.max()) == float(self.mass.min())
        )
        return cum, total, uniform


def build_cdf(d: np.ndarray, m: int) -> FrameCdf:
    """Normalize segment dissimilarities into a CDF over [0, m-1].

    Zero total mass (or a single frame) falls back to the uniform CDF
    F(x) = x/(m-1), i.e. equal mass per segment.
    """
    d = np.asarray(d, dtype=np.float64)
    if m < 1:
        raise ValueError("empty video")
    if d.shape != (max(m - 1, 0),):
        raise ValueError(f"need {m - 1} segment values for {m} frames, got {d.shape}")
    if d.size and d.min() < 0:
        raise ValueError("negative dissimilarity")
    if m == 1:
        return FrameCdf(breakpoints=np.zeros(1), mass=np.zeros(0))
    total = float(d.sum())
    if total == 0.0:
        breakpoints = np.arange(m, dtype=np.float64) / (m - 1)
        mass = np.ones(m - 1)
    else:
        breakpoints = np.concatenate([[0.0], np.cumsum(d) / total])
        mass = d.copy()
    breakpoints[-1] = 1.0
    return FrameCdf(breakpoints=breakpoints, mass=mass)


def _invert_mass(u: float, cum: np.ndarray, mass: np.ndarray) -> float:
    # min{x : C(x) >= u} on the unnormalized cumulative; side="left" lands
    # plateau hits on their left edge
    t = int(np.searchsorted(cum, u, side="left"))
    if t == 0:
        return 0.0
    return float((t - 1) + (u - cum[t - 1]) / mass[t - 1])


def inverse_cdf(cdf: FrameCdf, q: float) -> float:
    """Generalized inverse min{x : F(x) >= q}; plateaus map to their left edge."""
    if not (0.0 <= q <= 1.0):
        raise ValueError("quantile outside [0, 1]")
    if cdf.m == 1:
        return 0.0
    cum, total, uniform = cdf._segments()
    if uniform:
        return float(q * (cdf.m - 1))
    return _invert_mass(q * total, cum, cdf.mass)


def raw_positions(cdf: FrameCdf, n: int) -> np.ndarray:
    """Pre-rounding positions: the inverse CDF at quantiles k/n, k=0..n-1.

    The quantile family is evaluated as k*total/n (one correctly rounded
    division) rather than (k/n)*total, so positions whose exact value is a
    half-integer, which integer-valued profiles produce routinely, hit the
    rounding boundary dead on instead of a few ulp under it.
    """
    if n < 1:
        raise ValueError("need at least one frame")
    if cdf.m == 1:
        return np.zeros(n)
    cum, total, uniform = cdf._segments()
    if uniform:
        return np.array([k * (cdf.m - 1) / n for k in range(n)])
    return np.array([_invert_mass(k * total / n, cum, cdf.mass) for k in range(n)])


def _round_half_away(x: float) -> int:
    # positions are always >= 0, so half away from zero is floor(x + 0.5)
    return int(np.floor(x + 0.5))


class Selection:
    """indices: n frame indices in [0, m-1], non-decreasing."""

    __slots__ = ("indices",)

    def __init__(self, indices: list[int]):
        self.indices = indices


def select_frames(cdf: FrameCdf, n: int, dedupe: bool = False) -> Selection:
    """Pick n frame indices by rounding the inverse CDF at quantiles k/n.

    In dedupe mode duplicate picks are replaced by the unselected frames
    carrying the greatest adjacent segment mass (ties to the lowest index)
    until n distinct frames are chosen or the video runs out of frames, in
    which case the remaining slots repeat the last index.
    """
    positions = raw_positions(cdf, n)
    indices = [min(_round_half_away(x), cdf.m - 1) for x in positions]
    if not dedupe:
        return Selection(indices=indices)

    chosen = sorted(set(indices))
    if len(chosen) < n:
        pdf = cdf.pdf
        mass = np.zeros(cdf.m)
        mass[:-1] += pdf
        mass[1:] += pdf
        pool = [i for i in range(cdf.m) if i not in set(chosen)]
        pool.sort(key=lambda i: (-mass[i], i))
        for idx in pool:
            if len(chosen) >= n:
                break
            chosen.append(idx)
        chosen.sort()
        while len(chosen) < n:
            chosen.append(chosen[-1])
    return Selection(indices=chosen)


def apply_selection(clip: VideoClip, selection: Selection) -> VideoClip:
    """Gather the selected frames into a new clip of the source's dtype,
    pixel data copied verbatim (fancy indexing returns a fresh array)."""
    bad = [i for i in selection.indices if not 0 <= i < clip.frames]
    if bad:
        raise ValueError(f"selection indices {bad} outside [0, {clip.frames - 1}]")
    return VideoClip(clip.data[np.asarray(selection.indices, dtype=np.intp)])


def select_from_clip(clip: VideoClip, n: int, metric: str = "mad", dedupe: bool = False) -> Selection:
    """Convenience path: dissimilarity -> CDF -> selection in one call."""
    d = frame_dissimilarity(clip, metric=metric)
    cdf = build_cdf(d, clip.frames)
    return select_frames(cdf, n, dedupe=dedupe)
