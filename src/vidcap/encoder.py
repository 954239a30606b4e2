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
relative-position bias.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Attention, LayerNorm, Linear
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
        if len(self.depths) != len(self.heads):
            raise ValueError("depths and heads must pair up stage by stage")
        if any(d < 1 for d in self.depths):
            raise ValueError("every stage needs at least one block")
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


def window_partition(x: Tensor, dims, window) -> Tensor:
    """(B, t, h, w, C) grids -> (B, num_windows, n, C) windows."""
    t, h, w = dims
    wt, wh, ww = window
    b, c = x.shape[0], x.shape[-1]
    x = ad.reshape(x, (b, t // wt, wt, h // wh, wh, w // ww, ww, c))
    x = ad.transpose(x, (0, 1, 3, 5, 2, 4, 6, 7))
    return ad.reshape(x, (b, (t // wt) * (h // wh) * (w // ww), wt * wh * ww, c))


def window_reverse(windows: Tensor, dims, window) -> Tensor:
    """(B, num_windows, n, C) windows -> (B, t, h, w, C) grids."""
    t, h, w = dims
    wt, wh, ww = window
    b, c = windows.shape[0], windows.shape[-1]
    x = ad.reshape(windows, (b, t // wt, h // wh, w // ww, wt, wh, ww, c))
    x = ad.transpose(x, (0, 1, 4, 2, 5, 3, 6, 7))
    return ad.reshape(x, (b, t, h, w, c))


def _mask_slices(d: int, w: int, s: int):
    if s == 0:
        return [slice(0, d)]
    return [slice(0, d - w), slice(d - w, d - s), slice(d - s, d)]


@functools.lru_cache(maxsize=64)
def shift_attention_mask(dims, window, shift) -> np.ndarray | None:
    """Additive (num_windows, n, n) mask for a cyclically shifted grid.

    Tokens are labelled by which contiguous pre-shift region they came
    from; pairs with different labels inside the same rolled window get
    NEG_INF so softmax zeroes them.  Without any shift there is nothing to
    mask and None is returned.  The mask is cached per (dims, window,
    shift), all tuples, and read-only; every clip of a batch shares it.
    """
    if all(s == 0 for s in shift):
        return None
    img = np.zeros(dims)
    cnt = 0
    for sl_t in _mask_slices(dims[0], window[0], shift[0]):
        for sl_h in _mask_slices(dims[1], window[1], shift[1]):
            for sl_w in _mask_slices(dims[2], window[2], shift[2]):
                img[sl_t, sl_h, sl_w] = cnt
                cnt += 1
    labels = window_partition(Tensor(img[None, ..., None]), dims, window).data[0, ..., 0]
    diff = labels[:, :, None] != labels[:, None, :]
    mask = np.where(diff, NEG_INF, 0.0)
    mask.flags.writeable = False
    return mask


def _relative_index(window) -> np.ndarray:
    """(n, n) lookup into the bias table of pairwise offsets, offsets
    clipped into the table's (2w-1) range per axis."""
    wt, wh, ww = window
    coords = np.stack(np.meshgrid(np.arange(wt), np.arange(wh), np.arange(ww), indexing="ij"), axis=-1)
    coords = coords.reshape(-1, 3)
    rel = coords[:, None, :] - coords[None, :, :]
    spans = np.array([wt, wh, ww])
    rel = np.clip(rel, -(spans - 1), spans - 1) + (spans - 1)
    strides = np.array([(2 * wh - 1) * (2 * ww - 1), 2 * ww - 1, 1])
    return (rel * strides).sum(axis=-1)


def pad_grid_edges(x: Tensor, dims, window) -> tuple[Tensor, tuple[int, int, int]]:
    """Replicate trailing slices of (B, t, h, w, C) grids until every grid
    axis is a window multiple."""
    padded = list(dims)
    for axis, (d, w) in enumerate(zip(dims, window), start=1):
        if w > d:
            raise ValueError(f"window {window} larger than grid {tuple(dims)}")
        extra = (-d) % w
        if extra:
            last = ad.slice_axis(x, axis, d - 1, d)
            shape = list(last.shape)
            shape[axis] = extra
            x = ad.concat([x, ad.broadcast_to(last, shape)], axis)
            padded[axis - 1] = d + extra
    return x, tuple(padded)


def crop_grid(x: Tensor, dims) -> Tensor:
    """Cut (B, t, h, w, C) grids back to dims."""
    for axis, d in enumerate(dims, start=1):
        if x.shape[axis] != d:
            x = ad.slice_axis(x, axis, 0, d)
    return x


# ---------------------------------------------------------------------------
# layers


class WindowAttention(Attention):
    """Multi-head self-attention inside the 3D windows it is built for,
    with a learned relative position bias shared across windows."""

    def __init__(self, rng, dim: int, heads: int, window, qkv_bias: bool, attn_dropout: float):
        super().__init__(rng, dim, heads, qkv_bias, attn_dropout)
        wt, wh, ww = window
        table_len = (2 * wt - 1) * (2 * wh - 1) * (2 * ww - 1)
        self.bias_table = Tensor(rng.normal(0.0, 0.02, size=(table_len, heads)), requires_grad=True)
        self.relative_index = _relative_index(window).ravel()

    def _bias(self, lead: tuple[int, ...], n: int) -> Tensor:
        b = ad.embedding(self.bias_table, self.relative_index)
        b = ad.reshape(b, (n, n, self.heads))
        b = ad.transpose(b, (2, 0, 1))
        b = ad.reshape(b, (1,) * len(lead) + (self.heads, n, n))
        return ad.broadcast_to(b, lead + (self.heads, n, n))

    def __call__(self, windows: Tensor, mask: np.ndarray | None, rng, training: bool) -> Tensor:
        """windows: (B, num_windows, n, dim); mask: additive (num_windows, n, n) or None."""
        lead, n = windows.data.shape[:-2], windows.data.shape[-2]
        return super().__call__(windows, windows, self._bias(lead, n), mask, rng, training)

    def named_parameters(self, prefix: str):
        yield from super().named_parameters(prefix)
        yield prefix + ".bias_table", self.bias_table


class WindowBlock:
    """Pre-norm block: x + attn(LN(x)) inside (possibly shifted) windows,
    then x + MLP(LN(x))."""

    def __init__(self, rng, dim: int, heads: int, cfg: EncoderConfig):
        self.window = tuple(cfg.window)
        self.ln1 = LayerNorm(dim, cfg.layer_norm_eps)
        self.attn = WindowAttention(rng, dim, heads, cfg.window, cfg.qkv_bias, cfg.attn_dropout)
        self.ln2 = LayerNorm(dim, cfg.layer_norm_eps)
        self.fc1 = Linear(rng, dim, dim * cfg.mlp_ratio)
        self.fc2 = Linear(rng, dim * cfg.mlp_ratio, dim)
        self.hidden_dropout = cfg.hidden_dropout

    def __call__(self, x: Tensor, shifted: bool, rng, training: bool) -> Tensor:
        """(B, t, h, w, C) grids in and out."""
        dims = x.shape[1:4]
        shifts = shift_amounts(dims, self.window, shifted)

        h = self.ln1(x)
        h, dims_p = pad_grid_edges(h, dims, self.window)
        if any(shifts):
            h = ad.roll(h, tuple(-s for s in shifts), axes=(1, 2, 3))
        windows = window_partition(h, dims_p, self.window)
        mask = shift_attention_mask(dims_p, self.window, shifts)
        attn_out = self.attn(windows, mask, rng, training)
        h = window_reverse(attn_out, dims_p, self.window)
        if any(shifts):
            h = ad.roll(h, shifts, axes=(1, 2, 3))
        h = crop_grid(h, dims)
        x = ad.add(x, ad.dropout(h, self.hidden_dropout, rng, training))

        m = self.fc2(ad.gelu(self.fc1(self.ln2(x))))
        return ad.add(x, ad.dropout(m, self.hidden_dropout, rng, training))

    def named_parameters(self, prefix: str):
        yield from self.ln1.named_parameters(prefix + ".ln1")
        yield from self.attn.named_parameters(prefix + ".attn")
        yield from self.ln2.named_parameters(prefix + ".ln2")
        yield from self.fc1.named_parameters(prefix + ".fc1")
        yield from self.fc2.named_parameters(prefix + ".fc2")


class PatchMerge:
    """Concatenate 2x2 spatial neighborhoods, normalize, halve the width:
    (B, t, h, w, c) -> (B, t, h/2, w/2, 2c).  Odd spatial dims are edge-padded."""

    def __init__(self, rng, dim: int, eps: float):
        self.norm = LayerNorm(4 * dim, eps)
        self.reduce = Linear(rng, 4 * dim, 2 * dim, bias=False)

    def __call__(self, x: Tensor) -> Tensor:
        b, c = x.shape[0], x.shape[-1]
        x, (t, h, w) = pad_grid_edges(x, x.shape[1:4], (1, 2, 2))
        x = ad.reshape(x, (b, t, h // 2, 2, w // 2, 2, c))
        x = ad.transpose(x, (0, 1, 2, 4, 3, 5, 6))
        x = ad.reshape(x, (b, t, h // 2, w // 2, 4 * c))
        return self.reduce(self.norm(x))

    def named_parameters(self, prefix: str):
        yield from self.norm.named_parameters(prefix + ".norm")
        yield from self.reduce.named_parameters(prefix + ".reduce")


class VideoEncoder:
    """Patch partition -> windowed attention stages -> per-time tokens."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        pt, ph, pw = cfg.patch
        self.patch_proj = Linear(rng, pt * ph * pw * cfg.in_channels, cfg.embed_dim)
        self.stages: list[list[WindowBlock]] = []
        self.merges: list[PatchMerge] = []
        widths = cfg.stage_widths
        for s, (width, depth, heads) in enumerate(zip(widths, cfg.depths, cfg.heads)):
            self.stages.append([WindowBlock(rng, width, heads, cfg) for _ in range(depth)])
            if s + 1 < len(cfg.depths):
                self.merges.append(PatchMerge(rng, width, cfg.layer_norm_eps))
        final_width = widths[-1]
        self.final_norm = LayerNorm(final_width, cfg.layer_norm_eps)
        self.out_proj = Linear(rng, final_width, cfg.token_dim)

    def partition(self, clips: Sequence[VideoClip]) -> Tensor:
        """(B, t, h, w, embed_dim) patch tokens of B equally shaped clips;
        trailing frames, rows and columns are edge-replicated to patch
        multiples."""
        pt, ph, pw = self.cfg.patch
        if len({clip.data.shape for clip in clips}) != 1:
            raise ValueError("an encoder call takes one or more clips of one shape")
        data = np.stack([clip.data for clip in clips])
        if data.shape[-1] != self.cfg.in_channels:
            raise ValueError(f"clip has {data.shape[-1]} channels, config expects {self.cfg.in_channels}")
        pads = [(-data.shape[i]) % p for i, p in enumerate((pt, ph, pw), start=1)]
        if any(pads):
            data = np.pad(data, [(0, 0), (0, pads[0]), (0, pads[1]), (0, pads[2]), (0, 0)], mode="edge")
        b, t, h, w, c = data.shape
        x = data.reshape(b, t // pt, pt, h // ph, ph, w // pw, pw, c)
        x = x.transpose(0, 1, 3, 5, 2, 4, 6, 7).reshape(b, t // pt, h // ph, w // pw, pt * ph * pw * c)
        return self.patch_proj(Tensor(x))

    def __call__(self, clips: Sequence[VideoClip], rng=None, training: bool = False) -> Tensor:
        """Tokens (B, t, token_dim) for B clips of one shape."""
        x = self.partition(clips)
        for s, blocks in enumerate(self.stages):
            for i, block in enumerate(blocks):
                x = block(x, shifted=(i % 2 == 1), rng=rng, training=training)
            if s < len(self.merges):
                x = self.merges[s](x)
        x = self.final_norm(x)
        x = ad.mean_reduce(x, axis=3)
        x = ad.mean_reduce(x, axis=2)
        return self.out_proj(x)

    def named_parameters(self, prefix: str = "encoder"):
        yield from self.patch_proj.named_parameters(prefix + ".patch_proj")
        for s, blocks in enumerate(self.stages):
            for i, block in enumerate(blocks):
                yield from block.named_parameters(f"{prefix}.stage{s}.block{i}")
        for s, merge in enumerate(self.merges):
            yield from merge.named_parameters(f"{prefix}.merge{s}")
        yield from self.final_norm.named_parameters(prefix + ".final_norm")
        yield from self.out_proj.named_parameters(prefix + ".out_proj")


class ConceptHead:
    """Order-invariant multi-label head over the encoder tokens.

    A shared MLP lifts each token to h1, an elementwise max over the token
    axis merges them (this is what makes the head invariant to token
    order), and a two-layer MLP maps the pooled vector to K concept
    logits.  Dropout rate is a mutable attribute because the training
    phases use different rates.
    """

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        h1, h2 = cfg.concept_hidden
        self.fc1 = Linear(rng, cfg.token_dim, h1)
        self.fc2 = Linear(rng, h1, h2)
        self.fc3 = Linear(rng, h2, cfg.concept_count)
        self.dropout_rate = 0.1

    def logits(self, tokens: Tensor, rng=None, training: bool = False) -> Tensor:
        """(B, t, token_dim) tokens -> (B, concept_count) logits."""
        h = ad.relu(self.fc1(tokens))
        h = ad.dropout(h, self.dropout_rate, rng, training)
        pooled = ad.max_reduce(h, axis=1)
        z = ad.relu(self.fc2(pooled))
        z = ad.dropout(z, self.dropout_rate, rng, training)
        return self.fc3(z)

    def __call__(self, tokens: Tensor, rng=None, training: bool = False) -> Tensor:
        return ad.sigmoid(self.logits(tokens, rng, training))

    def named_parameters(self, prefix: str = "concept_head"):
        yield from self.fc1.named_parameters(prefix + ".fc1")
        yield from self.fc2.named_parameters(prefix + ".fc2")
        yield from self.fc3.named_parameters(prefix + ".fc3")
