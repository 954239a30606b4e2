"""Encoder tests.

The window-attention oracle computes full token-space attention with an
explicit pair mask (same rolled window AND same contiguous pre-shift
region) and compares against the windowed implementation path on every
grid up to (4,6,6) with window (2,2,2), shifted and not, one clip at a
time and as a batch of two.
"""

import numpy as np
import pytest

from vidcap import autodiff as ad
from vidcap.autodiff import Tape, Tensor, backward
from vidcap.encoder import (
    ConceptHead,
    EncoderConfig,
    PatchMerge,
    VideoEncoder,
    WindowAttention,
    WindowBlock,
    pad_grid_edges,
    shift_amounts,
    shift_attention_mask,
    window_partition,
    window_reverse,
)
from vidcap.video import VideoClip


def _region_label(o: int, d: int, w: int, s: int) -> int:
    # contiguous pre-shift regions in original coordinates: the head [0,s)
    # that wraps around under the cyclic shift, the body, and the tail
    # [d-w+s, d) that shares a rolled window with the head; only pairs
    # from different regions are masked apart
    if s == 0:
        return 0
    if o < s:
        return 0
    return 1 if o < d - w + s else 2


def _oracle_window_attention(x: np.ndarray, attn: WindowAttention, window, shifts):
    """Global attention over all tokens, masked to (same rolled window,
    same pre-shift region) pairs, with the layer's own projections and
    relative-position bias table."""
    t, h, w_, c = x.shape
    dims = (t, h, w_)
    toks = x.reshape(-1, c)
    n = toks.shape[0]
    coords = np.indices(dims).reshape(3, -1).T  # original positions

    shifted = (coords - np.array(shifts)) % np.array(dims)
    winid = shifted // np.array(window)
    local = shifted % np.array(window)
    regions = np.array(
        [
            [_region_label(int(o), d, wi, s) for o, d, wi, s in zip(row, dims, window, shifts)]
            for row in coords
        ]
    )
    allowed = np.all(winid[:, None, :] == winid[None, :, :], axis=-1) & np.all(
        regions[:, None, :] == regions[None, :, :], axis=-1
    )

    def lin(layer, v):
        y = v @ layer.weight.data
        return y + layer.bias.data if layer.bias is not None else y

    q = lin(attn.wq, toks)
    k = lin(attn.wk, toks)
    v = lin(attn.wv, toks)
    hd = attn.head_dim
    wt, wh, ww = window
    rel = local[:, None, :] - local[None, :, :]
    bias_idx = (
        (rel[..., 0] + wt - 1) * (2 * wh - 1) * (2 * ww - 1)
        + (rel[..., 1] + wh - 1) * (2 * ww - 1)
        + (rel[..., 2] + ww - 1)
    )
    out = np.empty((n, c))
    for head in range(attn.heads):
        qh = q[:, head * hd : (head + 1) * hd]
        kh = k[:, head * hd : (head + 1) * hd]
        vh = v[:, head * hd : (head + 1) * hd]
        scores = qh @ kh.T / np.sqrt(hd) + attn.bias_table.data[bias_idx, head]
        scores = np.where(allowed, scores, -np.inf)
        scores -= scores.max(axis=1, keepdims=True)
        p = np.exp(scores)
        p /= p.sum(axis=1, keepdims=True)
        out[:, head * hd : (head + 1) * hd] = p @ vh
    return (lin(attn.wo, out)).reshape(x.shape)


def _impl_window_attention(x: np.ndarray, attn: WindowAttention, window, shifts):
    """The windowed path on a (B, t, h, w, C) batch of grids."""
    dims = x.shape[1:4]
    xs = np.roll(x, tuple(-s for s in shifts), axis=(1, 2, 3))
    windows = window_partition(Tensor(xs), dims, window)
    mask = shift_attention_mask(dims, window, shifts)
    out = attn(windows, mask, rng=None, training=False)
    rev = window_reverse(out, dims, window).data
    return np.roll(rev, shifts, axis=(1, 2, 3))


def test_window_attention_matches_bruteforce_oracle():
    window = (2, 2, 2)
    rng = np.random.default_rng(0)
    c, heads = 4, 2
    attn = WindowAttention(rng, c, heads, window, qkv_bias=True, attn_dropout=0.0)
    for t in (2, 4):
        for h in (2, 4, 6):
            for w in (2, 4, 6):
                x = rng.normal(size=(t, h, w, c))
                for shifted in (False, True):
                    shifts = shift_amounts((t, h, w), window, shifted)
                    got = _impl_window_attention(x[None], attn, window, shifts)[0]
                    want = _oracle_window_attention(x, attn, window, shifts)
                    assert np.abs(got - want).max() < 1e-10, (t, h, w, shifted)


def test_batched_window_attention_matches_oracle_per_clip():
    # a B=2 batch: each clip matches the brute-force oracle and its own
    # single-clip result
    window = (2, 2, 2)
    rng = np.random.default_rng(20)
    c, heads = 4, 2
    attn = WindowAttention(rng, c, heads, window, qkv_bias=True, attn_dropout=0.0)
    for dims in ((2, 2, 2), (2, 4, 6), (4, 6, 4)):
        xb = rng.normal(size=(2, *dims, c))
        for shifted in (False, True):
            shifts = shift_amounts(dims, window, shifted)
            got = _impl_window_attention(xb, attn, window, shifts)
            for b in range(2):
                want = _oracle_window_attention(xb[b], attn, window, shifts)
                assert np.abs(got[b] - want).max() < 1e-10, (dims, shifted, b)
                single = _impl_window_attention(xb[b : b + 1], attn, window, shifts)[0]
                assert np.array_equal(got[b], single), (dims, shifted, b)


def test_single_window_no_shift_is_full_attention():
    # one window covering the whole grid, no mask: plain self-attention
    window = (2, 2, 2)
    rng = np.random.default_rng(1)
    attn = WindowAttention(rng, 6, 3, window, qkv_bias=True, attn_dropout=0.0)
    x = rng.normal(size=(2, 2, 2, 6))
    got = _impl_window_attention(x[None], attn, window, (0, 0, 0))[0]
    want = _oracle_window_attention(x, attn, window, (0, 0, 0))
    assert np.abs(got - want).max() < 1e-10
    # and the mask helper agrees there is nothing to mask
    assert shift_attention_mask((2, 2, 2), window, (0, 0, 0)) is None


def test_shift_mask_matches_exhaustive_labeling():
    window = (2, 2, 2)
    for dims in ((4, 4, 4), (2, 4, 6), (4, 6, 6)):
        shifts = shift_amounts(dims, window, True)
        mask = shift_attention_mask(dims, window, shifts)
        assert mask is not None
        assert not mask.flags.writeable
        assert shift_attention_mask(dims, window, shifts) is mask  # cached
        nw = mask.shape[0]

        # independent labeling: for each token, (rolled window id, region id)
        coords = np.indices(dims).reshape(3, -1).T
        shifted = (coords - np.array(shifts)) % np.array(dims)
        flat_win = np.ravel_multi_index(
            tuple((shifted // np.array(window)).T), tuple(d // w for d, w in zip(dims, window))
        )
        order = np.lexsort((np.arange(len(coords)), flat_win))
        regions = np.array(
            [
                [_region_label(int(o), d, wi, s) for o, d, wi, s in zip(row, dims, window, shifts)]
                for row in coords
            ]
        )
        n = mask.shape[1]
        for widx in range(nw):
            members = [i for i in order if flat_win[i] == widx]
            assert len(members) == n
            for a in range(n):
                for b in range(n):
                    same = (regions[members[a]] == regions[members[b]]).all()
                    assert (mask[widx, a, b] == 0.0) == bool(same)


def test_window_larger_than_grid_errors():
    with pytest.raises(ValueError, match="larger than grid"):
        pad_grid_edges(Tensor(np.zeros((1, 1, 2, 2, 4))), (1, 2, 2), (2, 2, 2))


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(2)
    window = (2, 2, 2)
    attn = WindowAttention(rng, 4, 2, window, qkv_bias=True, attn_dropout=0.0)
    attn.capture_attention = True
    x = rng.normal(size=(1, 2, 4, 4, 4))
    _impl_window_attention(x, attn, window, (0, 2 // 2, 1))
    rows = attn.last_attention.sum(axis=-1)
    assert np.abs(rows - 1.0).max() < 1e-12


def test_patch_partition_shapes_and_linearity():
    cfg = EncoderConfig()
    rng = np.random.default_rng(3)
    enc = VideoEncoder(cfg, np.random.default_rng(0))

    grid = enc.partition([VideoClip(rng.random((8, 16, 16, 3)))])
    assert grid.shape[1:4] == (4, 4, 4)
    assert grid.shape == (1, 4, 4, 4, cfg.embed_dim)

    # zero clip: every token equals the projection bias
    zgrid = enc.partition([VideoClip(np.zeros((8, 16, 16, 3)))])
    assert np.abs(zgrid.data - enc.patch_proj.bias.data).max() == 0.0

    # single-patch clip equals the projection of the flattened clip
    cfg1 = EncoderConfig(in_channels=1, depths=(1,), heads=(2,))
    enc1 = VideoEncoder(cfg1, np.random.default_rng(4))
    clip = VideoClip(rng.random((2, 4, 4, 1)))
    g = enc1.partition([clip])
    assert g.shape[1:4] == (1, 1, 1)
    flat = clip.data.reshape(1, -1)
    want = flat @ enc1.patch_proj.weight.data + enc1.patch_proj.bias.data
    assert np.abs(g.data.reshape(1, -1) - want).max() < 1e-12


def test_patch_partition_pad_by_replication():
    cfg = EncoderConfig()
    enc = VideoEncoder(cfg, np.random.default_rng(5))
    # 7 frames, 15x14 pixels: pad to 8, 16, 16 by edge replication
    clip = VideoClip(np.random.default_rng(6).random((7, 15, 14, 3)))
    grid = enc.partition([clip])
    assert grid.shape[1:4] == (4, 4, 4)

    # a batch of clips of different shapes is refused
    with pytest.raises(ValueError, match="one shape"):
        enc.partition([clip, VideoClip(np.zeros((8, 16, 16, 3)))])


def test_float32_clip_tokens_equal_widened_clip_tokens():
    from vidcap.decoder import DecoderConfig
    from vidcap.model import CaptionModel

    model = CaptionModel(EncoderConfig(concept_count=8), DecoderConfig(vocab_size=20, concept_dim=8), seed=2)
    # not a patch multiple, so the float32 frames are edge-padded too
    f32 = np.random.default_rng(8).random((7, 15, 14, 3)).astype(np.float32)
    tokens = model.video_tokens([VideoClip(f32)]).data
    wide = model.video_tokens([VideoClip(f32.astype(np.float64))]).data
    assert tokens.dtype == np.float64
    assert tokens.tobytes() == wide.tobytes()


def test_patch_merge():
    rng = np.random.default_rng(7)
    c = 8
    merge = PatchMerge(rng, c, eps=1e-12)

    grid = Tensor(rng.normal(size=(1, 4, 4, 4, c)))
    out = merge(grid)
    assert out.shape[1:4] == (4, 2, 2)
    assert out.shape == (1, 4, 2, 2, 2 * c)

    # identical tokens everywhere stay identical after merging
    tok = rng.normal(size=c)
    same = Tensor(np.tile(tok, (1, 2, 4, 4, 1)))
    mo = merge(same).data
    assert np.abs(mo - mo[0, 0, 0, 0]).max() == 0.0

    # hand evaluation on a single 2x2 spatial group
    g = Tensor(rng.normal(size=(1, 1, 2, 2, c)))
    got = merge(g).data.reshape(2 * c)
    x = g.data[0]
    v = np.concatenate([x[0, 0, 0], x[0, 0, 1], x[0, 1, 0], x[0, 1, 1]])
    mu, var = v.mean(), v.var()
    normed = (v - mu) / np.sqrt(var + 1e-12)
    want = normed @ merge.reduce.weight.data
    assert np.abs(got - want).max() < 1e-12


def test_encoder_output_contract():
    cfg = EncoderConfig()
    enc = VideoEncoder(cfg, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    clip = VideoClip(rng.random((8, 16, 16, 3)))

    tokens = enc([clip])
    assert tokens.shape == (1, 4, cfg.token_dim)
    assert np.isfinite(tokens.data).all()

    # eval-mode determinism is bitwise
    again = enc([clip])
    assert np.array_equal(tokens.data, again.data)

    # temporal sensitivity: frame reversal must change the output
    rev = VideoClip(clip.data[::-1].copy())
    assert np.abs(tokens.data - enc([rev]).data).max() > 0.0

    # a batch gives every clip its single-clip tokens
    both = enc([clip, rev]).data
    assert both.shape == (2, 4, cfg.token_dim)
    assert np.array_equal(both[0], tokens.data[0])
    assert np.array_equal(both[1], enc([rev]).data[0])


def test_stage_width_schedule():
    assert EncoderConfig().stage_widths == [16, 32]
    assert EncoderConfig.paper().stage_widths == [128, 256, 512, 1024]
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(embed_dim=6, heads=(4, 4))


def test_concept_head_permutation_invariance_exact():
    cfg = EncoderConfig()
    head = ConceptHead(cfg, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    tokens = rng.normal(size=(1, 5, cfg.token_dim))
    base = head(Tensor(tokens)).data
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(5)
        out = head(Tensor(tokens[:, perm])).data
        assert np.array_equal(base, out)

    # all-identical tokens equal the single-token evaluation
    one = rng.normal(size=(1, 1, cfg.token_dim))
    rep = np.tile(one, (1, 4, 1))
    assert np.array_equal(head(Tensor(one)).data, head(Tensor(rep)).data)


def test_concept_head_matches_hand_forward():
    cfg = EncoderConfig()
    head = ConceptHead(cfg, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    tokens = rng.normal(size=(4, cfg.token_dim))

    h = np.maximum(tokens @ head.fc1.weight.data + head.fc1.bias.data, 0.0)
    pooled = h.max(axis=0)
    z = np.maximum(pooled @ head.fc2.weight.data + head.fc2.bias.data, 0.0)
    logits = z @ head.fc3.weight.data + head.fc3.bias.data
    want = 1.0 / (1.0 + np.exp(-logits))

    got = head(Tensor(tokens[None])).data[0]
    assert got.shape == (cfg.concept_count,)
    assert np.abs(got - want).max() < 1e-12
    assert ((got > 0.0) & (got < 1.0)).all()


def test_gradcheck_through_window_block():
    cfg = EncoderConfig(embed_dim=4, depths=(2,), heads=(2,))
    rng = np.random.default_rng(14)
    block = WindowBlock(rng, 4, 2, cfg)
    x = rng.normal(size=(1, 2, 2, 4, 4))
    mix = rng.normal(size=(1, 2, 2, 4, 4))

    params = dict(block.named_parameters("blk"))
    probe = {name: rng.normal(size=p.data.shape) for name, p in params.items()}

    def forward() -> float:
        grid = Tensor(x)
        out = block(grid, shifted=True, rng=None, training=False)
        return float((out.data * mix).sum())

    with Tape() as tape:
        grid = Tensor(x)
        out = block(grid, shifted=True, rng=None, training=False)
        loss = ad.sum_reduce(ad.mul(out, Tensor(mix)))
        grads = backward(loss, tape)

    h = 1e-5
    for name in ("blk.attn.wq.weight", "blk.attn.bias_table", "blk.fc1.weight", "blk.ln1.gamma"):
        p = params[name]
        analytic = float((grads[p] * probe[name]).sum())
        p.data = p.data + h * probe[name]
        up = forward()
        p.data = p.data - 2 * h * probe[name]
        down = forward()
        p.data = p.data + h * probe[name]
        numeric = (up - down) / (2 * h)
        denom = max(1.0, abs(analytic), abs(numeric))
        assert abs(analytic - numeric) / denom < 1e-4, name
