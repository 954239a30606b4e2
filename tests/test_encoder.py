"""Encoder tests.

The window-attention oracle computes full token-space attention with an
explicit pair mask (same rolled window AND same contiguous pre-shift
region) and compares against the windowed implementation path on every
grid up to (4,6,6) with window (2,2,2), shifted and not, one clip at a
time and as a batch of two.  A numpy copy of the layout that window_layout
replaced (pad, roll, partition, reverse, crop) checks WindowBlock and
PatchMerge on grids that are not window multiples.
"""

import itertools

import numpy as np
import pytest

from vidcap import autodiff as ad
from vidcap.autodiff import Tape, Tensor, backward
from vidcap.encoder import (
    NEG_INF,
    ConceptHead,
    EncoderConfig,
    PatchMerge,
    VideoEncoder,
    WindowAttention,
    WindowBlock,
    shift_amounts,
    window_layout,
)
from vidcap.nn import Attention
from vidcap.video import VideoClip

from test_autodiff import check_grads


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
    return attn(Tensor(x), shifts, rng=None).data


# The layout before window_layout, kept as a numpy oracle: edge pad, roll,
# partition into windows; then reverse, roll back and crop.  Each step and
# its adjoint is recorded on the tape so gradients can be compared too.


def _old_partition(x, window, shift):
    """(B, T, H, W, C) window-multiple grids -> rolled (B, nw, n, C) windows."""
    x = np.roll(x, tuple(-s for s in shift), axis=(1, 2, 3))
    b, t, h, w, c = x.shape
    wt, wh, ww = window
    x = x.reshape(b, t // wt, wt, h // wh, wh, w // ww, ww, c).transpose(0, 1, 3, 5, 2, 4, 6, 7)
    return x.reshape(b, -1, wt * wh * ww, c)


def _old_reverse(windows, padded, window, shift):
    """Inverse of _old_partition."""
    b, c = windows.shape[0], windows.shape[-1]
    (t, h, w), (wt, wh, ww) = padded, window
    x = windows.reshape(b, t // wt, h // wh, w // ww, wt, wh, ww, c).transpose(0, 1, 4, 2, 5, 3, 6, 7)
    return np.roll(x.reshape(b, t, h, w, c), shift, axis=(1, 2, 3))


def _pad_widths(dims, window):
    return [(0, 0)] + [(0, -d % w) for d, w in zip(dims, window)] + [(0, 0)]


def _fold_edges(g, dims):
    """Adjoint of edge padding: add the replicated slices into the last
    slice of each grid axis and crop."""
    for axis, d in enumerate(dims, start=1):
        g, extra = np.split(g, [d], axis)
        g = g.copy()
        last = [slice(None)] * g.ndim
        last[axis] = slice(d - 1, d)
        g[tuple(last)] += extra.sum(axis, keepdims=True)
    return g


def _old_mask(padded, window, shift):
    if not any(shift):
        return None

    def regions(d, w, s):
        return [slice(0, d)] if s == 0 else [slice(0, d - w), slice(d - w, d - s), slice(d - s, d)]

    img = np.zeros(padded)
    for label, region in enumerate(itertools.product(*map(regions, padded, window, shift))):
        img[region] = label
    labels = _old_partition(img[None, ..., None], window, (0, 0, 0))[0, ..., 0]
    return np.where(labels[:, :, None] != labels[:, None, :], NEG_INF, 0.0)


def _old_window_attention(grid: Tensor, attn: WindowAttention, shift) -> Tensor:
    dims, window = grid.shape[1:4], attn.window
    pads = _pad_widths(dims, window)
    padded = tuple(d + extra for d, (_, extra) in zip(dims, pads[1:4]))
    crop = (slice(None),) + tuple(slice(0, d) for d in dims)
    windows = ad._record(
        "old_layout",
        (grid,),
        _old_partition(np.pad(grid.data, pads, mode="edge"), window, shift),
        lambda g: (_fold_edges(_old_reverse(g, padded, window, shift), dims),),
    )
    mask = _old_mask(padded, window, shift)
    bias = ad.transpose(ad.take(attn.bias_table, attn.relative_index, 0), (2, 0, 1))
    out = Attention.__call__(attn, windows, windows, bias, mask, None)
    return ad._record(
        "old_reverse",
        (out,),
        _old_reverse(out.data, padded, window, shift)[crop],
        lambda g: (_old_partition(np.pad(g, pads), window, shift),),
    )


def _old_block(block: WindowBlock, x: Tensor, shifted: bool) -> Tensor:
    shift = shift_amounts(x.shape[1:4], block.attn.window, shifted)
    x = ad.add(x, _old_window_attention(block.ln1(x), block.attn, shift))
    return ad.add(x, block.fc2(ad.gelu(block.fc1(block.ln2(x)))))


def _old_merge(merge: PatchMerge, x: Tensor) -> Tensor:
    b, t, h, w, c = x.shape
    pads = _pad_widths((t, h, w), (1, 2, 2))
    h2, w2 = (h + 1) // 2, (w + 1) // 2

    def fwd(a):
        a = np.pad(a, pads, mode="edge").reshape(b, t, h2, 2, w2, 2, c)
        return a.transpose(0, 1, 2, 4, 3, 5, 6).reshape(b, t, h2, w2, 4 * c)

    def bwd(g):
        g = g.reshape(b, t, h2, w2, 2, 2, c).transpose(0, 1, 2, 4, 3, 5, 6)
        return (_fold_edges(g.reshape(b, t, 2 * h2, 2 * w2, c), (t, h, w)),)

    return merge.reduce(merge.norm(ad._record("old_merge", (x,), fwd(x.data), bwd)))


@pytest.mark.parametrize("dims, window", [((3, 5, 5), (2, 2, 2)), ((5, 3, 7), (2, 2, 2)), ((1, 5, 3), (1, 2, 2))])
@pytest.mark.parametrize("shifted", [False, True])
def test_padded_grids_match_the_old_layout(dims, window, shifted):
    # forwards bitwise; gradients within 1e-14 of each array's largest
    # entry, since replicated edges now sum in another order
    rng = np.random.default_rng(40)
    block = WindowBlock(rng, 8, 2, EncoderConfig(window=window))
    merge = PatchMerge(rng, 8, 1e-12)
    params = [p for _, p in [*block.named_parameters("b"), *merge.named_parameters("m")]]
    x = rng.normal(size=(2, *dims, 8))
    new = (lambda g: block(g, shifted, None), merge)
    old = (lambda g: _old_block(block, g, shifted), lambda y: _old_merge(merge, y))
    runs = []
    for run_block, run_merge in (new, old):
        grid = Tensor(x, requires_grad=True)
        with Tape() as tape:
            y = run_block(grid)
            z = run_merge(y)
            mix = np.random.default_rng(41)
            loss = ad.add(
                ad.sum_reduce(ad.mul(y, Tensor(mix.normal(size=y.shape)))),
                ad.sum_reduce(ad.mul(z, Tensor(mix.normal(size=z.shape)))),
            )
            grads = backward(loss, tape)
        # the key bias cannot move a softmax, so its gradient is rounding noise
        runs.append((y.data, z.data, [grads[t] for t in [grid, *params] if t is not block.attn.wk.bias]))
    (y, z, g), (y_old, z_old, g_old) = runs
    assert y.tobytes() == y_old.tobytes()
    assert z.tobytes() == z_old.tobytes()
    for got, want in zip(g, g_old):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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
    # and the layout agrees there is nothing to mask
    assert window_layout((2, 2, 2), window, (0, 0, 0))[2] is None


def test_shift_mask_matches_exhaustive_labeling():
    window = (2, 2, 2)
    for dims in ((4, 4, 4), (2, 4, 6), (4, 6, 6)):
        shifts = shift_amounts(dims, window, True)
        mask = window_layout(dims, window, shifts)[2]
        assert mask is not None
        assert not mask.flags.writeable
        assert window_layout(dims, window, shifts)[2] is mask  # cached
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
    attn = WindowAttention(np.random.default_rng(0), 4, 2, (2, 2, 2), qkv_bias=True, attn_dropout=0.0)
    with pytest.raises(ValueError, match="larger than grid"):
        attn(Tensor(np.zeros((1, 1, 2, 2, 4))), (0, 0, 0), None)


def test_merge_on_a_one_wide_grid():
    # a (t, 1, 1) grid is edge-replicated into all four slots of its merge
    rng = np.random.default_rng(41)
    merge = PatchMerge(rng, 8, 1e-12)
    x = rng.normal(size=(2, 3, 1, 1, 8))
    want = merge.reduce(merge.norm(Tensor(np.tile(x, 4)))).data
    assert np.array_equal(merge(Tensor(x)).data, want)
    # so an encoder whose 4x4 clips leave a one-wide grid before its merge runs
    enc = VideoEncoder(EncoderConfig(window=(2, 1, 1)), rng)
    assert enc([VideoClip(rng.random((8, 4, 4, 3)))]).shape == (1, 4, 32)


def test_attention_rows_sum_to_one(softmax_outputs):
    rng = np.random.default_rng(2)
    window = (2, 2, 2)
    attn = WindowAttention(rng, 4, 2, window, qkv_bias=True, attn_dropout=0.0)
    x = rng.normal(size=(1, 2, 4, 4, 4))
    _impl_window_attention(x, attn, window, (0, 2 // 2, 1))
    [probs] = softmax_outputs
    assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12


def _partition(enc, clips):
    """(B, t, h, w, embed_dim) taped patch tokens, as the encoder's taped call embeds them."""
    return enc.patch_proj(Tensor(enc._patches(clips)))


def test_patch_partition_shapes_and_linearity():
    cfg = EncoderConfig()
    rng = np.random.default_rng(3)
    enc = VideoEncoder(cfg, np.random.default_rng(0))

    grid = _partition(enc, [VideoClip(rng.random((8, 16, 16, 3)))])
    assert grid.shape[1:4] == (4, 4, 4)
    assert grid.shape == (1, 4, 4, 4, cfg.embed_dim)

    # zero clip: every token equals the projection bias
    zgrid = _partition(enc, [VideoClip(np.zeros((8, 16, 16, 3)))])
    assert np.abs(zgrid.data - enc.patch_proj.bias.data).max() == 0.0

    # single-patch clip equals the projection of the flattened clip
    cfg1 = EncoderConfig(in_channels=1, depths=(1,), heads=(2,))
    enc1 = VideoEncoder(cfg1, np.random.default_rng(4))
    clip = VideoClip(rng.random((2, 4, 4, 1)))
    g = _partition(enc1, [clip])
    assert g.shape[1:4] == (1, 1, 1)
    flat = clip.data.reshape(1, -1)
    want = flat @ enc1.patch_proj.weight.data + enc1.patch_proj.bias.data
    assert np.abs(g.data.reshape(1, -1) - want).max() < 1e-12


def test_patch_partition_pad_by_replication():
    cfg = EncoderConfig()
    enc = VideoEncoder(cfg, np.random.default_rng(5))
    # 7 frames, 15x14 pixels: pad to 8, 16, 16 by edge replication
    clip = VideoClip(np.random.default_rng(6).random((7, 15, 14, 3)))
    grid = _partition(enc, [clip])
    assert grid.shape[1:4] == (4, 4, 4)

    # a batch of clips of different shapes is refused
    with pytest.raises(ValueError, match="one shape"):
        _partition(enc, [clip, VideoClip(np.zeros((8, 16, 16, 3)))])


def test_a_call_on_mixed_shapes_equals_per_clip_calls_in_input_order():
    # three interleaved shapes: one pass per shape, then every row goes back
    # to its clip, in eval mode and on the tape
    cfg = EncoderConfig(frames=8, patch=(2, 4, 4), window=(2, 2, 2), depths=(2, 2), heads=(2, 4), embed_dim=16, token_dim=32)
    enc = VideoEncoder(cfg, np.random.default_rng(40))
    rng = np.random.default_rng(41)
    shapes = [(8, 12, 12, 3), (8, 12, 16, 3), (7, 13, 12, 3), (8, 12, 16, 3), (8, 12, 12, 3), (7, 13, 12, 3)]
    clips = [VideoClip(rng.random(shape)) for shape in shapes]
    singles = np.concatenate([enc([clip]).data for clip in clips])
    assert np.array_equal(enc(clips).data, singles)
    with Tape():
        taped = enc(clips).data
        taped_singles = np.concatenate([enc([clip]).data for clip in clips])
    assert np.array_equal(taped, taped_singles)

    # gradients through the per-shape passes and the row gather back to input order
    batch = clips[1:5]
    mix = Tensor(rng.normal(size=(len(batch), 4, cfg.token_dim)))

    def build(t):
        enc.patch_proj.bias, enc.final_norm.gamma = t
        return ad.sum_reduce(ad.mul(enc(batch), mix))

    check_grads(build, [enc.patch_proj.bias.data.copy(), enc.final_norm.gamma.data.copy()])


def _old_patches(data, patch):
    """The partition before window_layout, kept as a numpy oracle: edge pad
    (B, T, H, W, C) clips to patch multiples, then reshape and transpose
    to (B, t, h, w, patch volume * C)."""
    data = np.pad(data, _pad_widths(data.shape[1:4], patch), mode="edge")
    b, t, h, w, c = data.shape
    pt, ph, pw = patch
    x = data.reshape(b, t // pt, pt, h // ph, ph, w // pw, pw, c).transpose(0, 1, 3, 5, 2, 4, 6, 7)
    return x.reshape(b, t // pt, h // ph, w // pw, pt * ph * pw * c)


@pytest.mark.parametrize(
    "shape, patch",
    [((8, 16, 16, 3), (2, 4, 4)), ((7, 15, 14, 3), (2, 4, 4)), ((1, 5, 3, 3), (2, 4, 4)), ((3, 9, 10, 1), (3, 2, 5))],
)
def test_patch_partition_matches_the_old_layout(shape, patch):
    enc = VideoEncoder(EncoderConfig(in_channels=shape[-1], patch=patch), np.random.default_rng(7))
    rng = np.random.default_rng(8)
    clips = [VideoClip(rng.random(shape)) for _ in range(2)]
    want = enc.patch_proj(Tensor(_old_patches(np.stack([c.data for c in clips]), patch))).data
    assert np.array_equal(_partition(enc, clips).data, want)


def test_float32_clip_tokens_equal_widened_clip_tokens():
    from vidcap.decoder import DecoderConfig
    from vidcap.model import CaptionModel

    model = CaptionModel(EncoderConfig(concept_count=8), DecoderConfig(vocab_size=20, concept_dim=8), seed=2)
    # not a patch multiple, so the float32 frames are edge-padded too
    f32 = np.random.default_rng(8).random((7, 15, 14, 3)).astype(np.float32)
    tokens = model.encoder([VideoClip(f32)]).data
    wide = model.encoder([VideoClip(f32.astype(np.float64))]).data
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
    base = ad.sigmoid(head.logits(Tensor(tokens))).data
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(5)
        out = ad.sigmoid(head.logits(Tensor(tokens[:, perm]))).data
        assert np.array_equal(base, out)

    # all-identical tokens equal the single-token evaluation
    one = rng.normal(size=(1, 1, cfg.token_dim))
    rep = np.tile(one, (1, 4, 1))
    assert np.array_equal(ad.sigmoid(head.logits(Tensor(one))).data, ad.sigmoid(head.logits(Tensor(rep))).data)


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

    got = ad.sigmoid(head.logits(Tensor(tokens[None]))).data[0]
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
        out = block(grid, shifted=True, rng=None)
        return float((out.data * mix).sum())

    with Tape() as tape:
        grid = Tensor(x)
        out = block(grid, shifted=True, rng=None)
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


# grids after the patch partition: (4, 4, 4) is a window multiple, (5, 5, 3)
# and (3, 7, 5) are edge-padded with odd sides, before and after the merge
ARRAY_CLIPS = [(8, 16, 16, 3), (10, 20, 12, 3), (6, 27, 17, 3)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("shape", ARRAY_CLIPS)
def test_array_encoder_is_bitwise_the_tensor_path(shape, batch, dtype, softmax_outputs):
    # eval mode with no tape runs on arrays; an active tape takes the
    # Tensor path, which must record and give the same bits
    rng = np.random.default_rng(60)
    enc = VideoEncoder(EncoderConfig(), rng)
    head = ConceptHead(EncoderConfig(), rng)
    blocks = sum(len(stage.blocks) for stage in enc.stages)
    clips = [VideoClip(rng.random(shape).astype(dtype)) for _ in range(batch)]
    got = enc(clips).data
    with Tape() as tape:
        want = enc(clips).data
    assert tape.nodes
    assert got.shape == (batch, -(-shape[0] // 2), 32)
    assert np.array_equal(got, want)
    # one attention map per block and call: the array call's, then the taped call's
    assert len(softmax_outputs) == 2 * blocks
    for array_attention, taped_attention in zip(softmax_outputs[:blocks], softmax_outputs[blocks:]):
        assert np.array_equal(array_attention, taped_attention)
    assert np.array_equal(head.logits(got), head.logits(Tensor(got)).data)


@pytest.mark.parametrize("dims", [(4, 4, 4), (5, 5, 3), (3, 7, 5)])
def test_array_block_and_merge_are_bitwise_the_tensor_layers(dims):
    cfg = EncoderConfig()
    rng = np.random.default_rng(61)
    block, merge = WindowBlock(rng, 16, 2, cfg), PatchMerge(rng, 16, cfg.layer_norm_eps)
    for batch in (1, 3):
        x = rng.normal(size=(batch, *dims, 16))
        for shifted in (False, True):
            y = block(x, shifted, None)
            assert type(y) is np.ndarray
            assert np.array_equal(y, block(Tensor(x), shifted, None).data), (batch, shifted)
        assert np.array_equal(merge(x), merge(Tensor(x)).data), batch
