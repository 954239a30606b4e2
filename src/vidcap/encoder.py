"""Windowed 3D attention over video patches, plus the concept head.

A batch of equally shaped clips is cut into non-overlapping 3D patches,
each linearly projected to a token on a (t, h, w) grid per clip; every
layer carries the leading batch axis.  Stages of pre-norm attention
blocks follow; within a stage, blocks alternate between plain and
shifted windows.  A shifted block cyclically rolls the grid by half a
window and masks attention so tokens only see tokens from the same
contiguous pre-shift region, which lets windows straddle the previous
block's boundaries without attending across the wrap-around seam.
Between stages a merge step halves the spatial grid and doubles the
channel width.  The final grid is pooled over space into one token per
time slot and projected to the output width, giving (B, t, token_dim).
Window attention is the shared nn.Attention core plus a learned
relative-position bias: one (heads, n, n) gather from the bias table,
which the score addition broadcasts over the batch and the windows, on
arrays and Tensors alike.

Which grid position sits in which window slot is decided once per
(dims, window, shift) by window_layout and cached as read-only index
arrays.  The roll is a shifted slot coordinate, and a grid that is not a
window multiple is edge-replicated by clamping that coordinate to the last
slice, so a block moves tokens with one ad.take into windows and one
back; a merge is the take into (1, 2, 2) windows and the patch partition a
np.take into patch-sized ones.  Only WindowAttention refuses a window
larger than its grid.

Every layer draws dropout from the rng it is handed; None is eval mode,
in which, with no tape active, the encoder feeds plain arrays through the
layers that training and any taped call feed Tensors.  Each layer's one
forward runs either, so the tokens are bitwise the same; the choice is
made once, where VideoEncoder.__call__ wraps the patch projection's input
in a Tensor only when taped.  ConceptHead.logits likewise takes either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Attention, LayerNorm, Linear, Module, normal_param
from .video import VideoClip

NEG_INF = -1e9


@dataclass
class EncoderConfig:
    frames: int = 8
    in_channels: int = 3
    patch: tuple[int, int, int] = (2, 4, 4)
    window: tuple[int, int, int] = (2, 2, 2)
    depths: tuple[int, ...] = (2, 2)
    heads: tuple[int, ...] = (2, 4)
    embed_dim: int = 16
    token_dim: int = 32
    mlp_ratio: int = 4
    qkv_bias: bool = True
    hidden_dropout: float = 0.0
    attn_dropout: float = 0.0
    layer_norm_eps: float = 1e-12
    concept_count: int = 16
    concept_hidden: tuple[int, int] = (48, 96)

    def __post_init__(self):
        for name in ("frames", "embed_dim", "token_dim", "mlp_ratio", "concept_count", "layer_norm_eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"encoder {name} must be positive, got {getattr(self, name)}")
        for name, n, count in (("patch", 3, "three"), ("window", 3, "three"), ("concept_hidden", 2, "two")):
            sizes = getattr(self, name)
            if len(sizes) != n or not all(isinstance(k, int) and k >= 1 for k in sizes):
                raise ValueError(f"encoder {name} must be {count} positive integers, got {list(sizes)}")
        if any(h < 1 for h in self.heads):
            raise ValueError(f"encoder heads must be positive, got {list(self.heads)}")
        for name in ("hidden_dropout", "attn_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"encoder {name} must be in [0, 1), got {getattr(self, name)}")
        if len(self.depths) != len(self.heads):
            raise ValueError("depths and heads must pair up stage by stage")
        if not self.depths or any(d < 1 for d in self.depths):
            raise ValueError(f"encoder depths must be one or more positive block counts, got {list(self.depths)}")
        for s, (width, h) in enumerate(zip(self.stage_widths, self.heads)):
            if width % h != 0:
                raise ValueError(f"stage {s} width {width} not divisible by {h} heads")

    @property
    def stage_widths(self) -> list[int]:
        return [self.embed_dim * (2**s) for s in range(len(self.depths))]

    @classmethod
    def paper(cls) -> "EncoderConfig":
        # full-scale preset: 32 input frames at 224x224
        return cls(
            frames=32,
            patch=(2, 4, 4),
            window=(8, 7, 7),
            depths=(2, 2, 18, 2),
            heads=(4, 8, 16, 32),
            embed_dim=128,
            token_dim=768,
            concept_count=768,
            concept_hidden=(1024, 2048),
        )


# ---------------------------------------------------------------------------
# window geometry


def shift_amounts(dims, window, shifted: bool) -> tuple[int, int, int]:
    """Per-axis cyclic shift: half a window, except axes covered by a
    single window where shifting would only fragment attention."""
    if not shifted:
        return (0, 0, 0)
    return tuple(w // 2 if d > w else 0 for d, w in zip(dims, window))


def _windows(grid: np.ndarray, window) -> np.ndarray:
    """(T, H, W) window multiples -> (num_windows, n), both row-major."""
    (t, h, w), (wt, wh, ww) = grid.shape, window
    x = grid.reshape(t // wt, wt, h // wh, wh, w // ww, ww).transpose(0, 2, 4, 1, 3, 5)
    return x.reshape(-1, wt * wh * ww)


@functools.lru_cache(maxsize=64)
def window_layout(dims, window, shift):
    """(slots, back, mask) for (t, h, w) grids in windows shifted by shift.

    slots (num_windows, n) is the row-major grid position each slot reads:
    per axis, slot coordinate r of P = ceil(d / w) * w reads grid
    coordinate min((r + s) % P, d - 1).  back (t, h, w) indexes
    slots.ravel() at the slot reading each position itself.  mask is the
    additive (num_windows, n, n) NEG_INF between slots of different
    pre-shift regions, or None without a shift.  Cached and read-only.
    """
    src, home = [], []
    for d, w, s in zip(dims, window, shift):
        r = np.arange(-(-d // w) * w)
        src.append(np.minimum((r + s) % r.size, d - 1))
        home.append((np.arange(d) - s) % r.size)
    padded = tuple(len(r) for r in src)
    slots = _windows(np.ravel_multi_index(np.ix_(*src), dims), window)
    slot_of = np.argsort(_windows(np.arange(slots.size).reshape(padded), window), axis=None)
    back = slot_of.reshape(padded)[np.ix_(*home)]
    mask = None
    if any(shift):
        # rolled coordinates [0, P-w), [P-w, P-s) and [P-s, P) come from
        # different stretches of the grid; without a shift each window
        # lies inside one label
        regions = [np.digitize(np.arange(p), (p - w, p - s)) for p, w, s in zip(padded, window, shift)]
        labels = _windows(np.ravel_multi_index(np.ix_(*regions), (3, 3, 3)), window)
        mask = np.where(labels[:, :, None] != labels[:, None, :], NEG_INF, 0.0)
        mask.flags.writeable = False
    slots.flags.writeable = back.flags.writeable = False
    return slots, back, mask


def _relative_index(window) -> np.ndarray:
    """(n, n) lookup into the bias table of pairwise in-window offsets."""
    coords = np.indices(window).reshape(3, -1)
    rel = coords[:, :, None] - coords[:, None, :] + (np.array(window) - 1)[:, None, None]
    return np.ravel_multi_index(tuple(rel), tuple(2 * w - 1 for w in window))


# ---------------------------------------------------------------------------
# layers


class WindowAttention(Attention):
    """Multi-head self-attention inside the 3D windows it is built for,
    with a learned relative position bias shared across windows."""

    def __init__(self, rng, dim: int, heads: int, window, qkv_bias: bool, attn_dropout: float):
        super().__init__(rng, dim, heads, qkv_bias, attn_dropout)
        self.window = tuple(window)
        table_len = math.prod(2 * w - 1 for w in window)
        self.bias_table = normal_param(rng, (table_len, heads))
        self.relative_index = _relative_index(window)

    def __call__(self, grid, shift, rng):
        """(B, t, h, w, dim) grids in and out, windows shifted by shift."""
        b, *dims, c = grid.shape
        if any(w > d for w, d in zip(self.window, dims)):
            raise ValueError(f"window {self.window} larger than grid {tuple(dims)}")
        slots, back, mask = window_layout(tuple(dims), self.window, shift)
        windows = grid.reshape((b, -1, c)).take(slots, 1)
        table = self.bias_table.data if isinstance(windows, np.ndarray) else self.bias_table
        bias = table.take(self.relative_index, 0).transpose((2, 0, 1))
        out = super().__call__(windows, windows, bias, mask, rng)
        return out.reshape((b, -1, c)).take(back, 1)


class WindowBlock(Module):
    """Pre-norm block: x + attn(LN(x)) inside (possibly shifted) windows,
    then x + MLP(LN(x))."""

    def __init__(self, rng, dim: int, heads: int, cfg: EncoderConfig):
        self.ln1 = LayerNorm(dim, cfg.layer_norm_eps)
        self.attn = WindowAttention(rng, dim, heads, cfg.window, cfg.qkv_bias, cfg.attn_dropout)
        self.ln2 = LayerNorm(dim, cfg.layer_norm_eps)
        self.fc1 = Linear(rng, dim, dim * cfg.mlp_ratio)
        self.fc2 = Linear(rng, dim * cfg.mlp_ratio, dim)
        self.hidden_dropout = cfg.hidden_dropout

    def __call__(self, x, shifted: bool, rng):
        """(B, t, h, w, C) grids in and out."""
        shift = shift_amounts(x.shape[1:4], self.attn.window, shifted)
        h = self.attn(self.ln1(x), shift, rng)
        x = x + ad.dropout(h, self.hidden_dropout, rng)
        m = self.fc2(ad.gelu(self.fc1(self.ln2(x))))
        return x + ad.dropout(m, self.hidden_dropout, rng)


class Stage(Module):
    """A stage's blocks, alternating plain and shifted windows."""

    def __init__(self, rng, dim: int, heads: int, depth: int, cfg: EncoderConfig):
        self.blocks = [WindowBlock(rng, dim, heads, cfg) for _ in range(depth)]

    def __call__(self, x, rng):
        for i, block in enumerate(self.blocks):
            x = block(x, shifted=(i % 2 == 1), rng=rng)
        return x


class PatchMerge(Module):
    """Concatenate 2x2 spatial neighborhoods, normalize, halve the width:
    (B, t, h, w, c) -> (B, t, ceil(h/2), ceil(w/2), 2c).  The neighborhoods
    are the (1, 2, 2) windows of window_layout, so odd sides are
    edge-replicated."""

    def __init__(self, rng, dim: int, eps: float):
        self.norm = LayerNorm(4 * dim, eps)
        self.reduce = Linear(rng, 4 * dim, 2 * dim, bias=False)

    def __call__(self, x):
        b, t, h, w, c = x.shape
        slots = window_layout((t, h, w), (1, 2, 2), (0, 0, 0))[0]
        x = x.reshape((b, -1, c)).take(slots, 1).reshape((b, t, (h + 1) // 2, (w + 1) // 2, 4 * c))
        return self.reduce(self.norm(x))


class VideoEncoder(Module):
    """Patch partition -> windowed attention stages -> per-time tokens."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        pt, ph, pw = cfg.patch
        self.patch_proj = Linear(rng, pt * ph * pw * cfg.in_channels, cfg.embed_dim)
        self.stages: list[Stage] = []
        self.merges: list[PatchMerge] = []
        widths = cfg.stage_widths
        for s, (width, depth, heads) in enumerate(zip(widths, cfg.depths, cfg.heads)):
            self.stages.append(Stage(rng, width, heads, depth, cfg))
            if s + 1 < len(cfg.depths):
                self.merges.append(PatchMerge(rng, width, cfg.layer_norm_eps))
        final_width = widths[-1]
        self.final_norm = LayerNorm(final_width, cfg.layer_norm_eps)
        self.out_proj = Linear(rng, final_width, cfg.token_dim)

    def _patches(self, clips: Sequence[VideoClip]) -> np.ndarray:
        """(B, t, h, w, patch volume * C) float64 patches of B equally shaped
        clips, cut by window_layout, which edge-replicates trailing frames,
        rows and columns."""
        if len({clip.data.shape for clip in clips}) != 1:
            raise ValueError("an encoder pass takes one or more clips of one shape")
        data = np.stack([clip.data for clip in clips])
        b, *dims, c = data.shape
        if c != self.cfg.in_channels:
            raise ValueError(f"clip has {c} channels, config expects {self.cfg.in_channels}")
        slots = window_layout(tuple(dims), self.cfg.patch, (0, 0, 0))[0]
        grid = [-(-d // p) for d, p in zip(dims, self.cfg.patch)]
        return np.asarray(np.take(data.reshape(b, -1, c), slots, axis=1).reshape(b, *grid, -1), dtype=np.float64)

    def __call__(self, clips: Sequence[VideoClip], rng=None) -> Tensor:
        """Tokens (B, t, token_dim) for B clips of any shapes, one row per
        clip in input order, from one pass per shape; in eval mode (no rng)
        with no tape active, computed on arrays and wrapped once."""
        taped = rng is not None or ad.tape_active()
        groups: dict[tuple, list[int]] = {}
        for i, clip in enumerate(clips):
            groups.setdefault(clip.data.shape, []).append(i)
        if len(groups) <= 1:  # _patches refuses an empty call
            x = self._forward(clips, rng, taped)
        else:
            parts = [self._forward([clips[i] for i in rows], rng, taped) for rows in groups.values()]
            # concatenated row r is clip order[r], so argsort(order) puts each clip back in place
            order = np.concatenate(list(groups.values()))
            x = ad.concat(parts, 0).take(np.argsort(order), 0)
        return x if taped else Tensor(x)

    def _forward(self, clips: Sequence[VideoClip], rng, taped: bool):
        """One pass over clips of one shape: tokens, a Tensor when taped."""
        x = self._patches(clips)
        x = self.patch_proj(Tensor(x) if taped else x)
        for s, stage in enumerate(self.stages):
            x = stage(x, rng)
            if s < len(self.merges):
                x = self.merges[s](x)
        return self.out_proj(self.final_norm(x).mean(3).mean(2))


class ConceptHead(Module):
    """Order-invariant multi-label head over the encoder tokens.

    A shared MLP lifts each token to h1, an elementwise max over the token
    axis merges them (this is what makes the head invariant to token
    order), and a two-layer MLP maps the pooled vector to K concept
    logits.  The dropout rate comes with each call, because the training
    phases use different rates.
    """

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        h1, h2 = cfg.concept_hidden
        self.fc1 = Linear(rng, cfg.token_dim, h1)
        self.fc2 = Linear(rng, h1, h2)
        self.fc3 = Linear(rng, h2, cfg.concept_count)

    def logits(self, tokens, rng=None, rate: float = 0.1):
        """(B, t, token_dim) tokens -> (B, concept_count) logits; arrays in
        eval mode, or Tensors.  Dropout at rate draws from rng."""
        h = ad.relu(self.fc1(tokens))
        h = ad.dropout(h, rate, rng)
        pooled = ad.max_reduce(h, axis=1)
        z = ad.relu(self.fc2(pooled))
        z = ad.dropout(z, rate, rng)
        return self.fc3(z)
