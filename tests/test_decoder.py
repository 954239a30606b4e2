"""Decoder and generation-strategy tests, including the exhaustive beam
search oracle and sampling frequency checks."""

import gc
import itertools
import math

import numpy as np
import pytest
from test_autodiff import check_grads, sum_reduce

from vidcap import autodiff as ad
from vidcap.autodiff import Tensor
from vidcap.decoder import (
    NEG_INF,
    CaptionDecoder,
    DecoderConfig,
    GenerationRequest,
    _DecoderLayer,
    generate,
    log_softmax,
    sample_tokens,
)
from vidcap.nn import _head_axes
from vidcap.textproc import EOS_ID


def _rows(prefixes, clips=None, parents=None):
    """A step's (clips, parents, tokens) argument for equal-length prefixes;
    clip 0 and the previous rows in order unless given."""
    count = len(prefixes)
    clips = np.zeros(count, dtype=np.intp) if clips is None else np.asarray(clips, dtype=np.intp)
    parents = np.arange(count) if parents is None else np.asarray(parents, dtype=np.intp)
    return clips, parents, np.array(prefixes, dtype=np.intp).reshape(count, -1)


def _small_decoder(seed=0, **overrides):
    kwargs = dict(vocab_size=11, hidden=8, layers=2, heads=2, concept_dim=8, dropout=0.0)
    kwargs.update(overrides)
    cfg = DecoderConfig(**kwargs)
    return CaptionDecoder(cfg, np.random.default_rng(seed)), cfg


def test_causality_exact():
    dec, cfg = _small_decoder()
    rng = np.random.default_rng(1)
    sem = Tensor(rng.normal(size=(1, cfg.concept_dim)))
    enc = Tensor(rng.normal(size=(1, 4, cfg.hidden)))
    tokens = [4, 7, 1, 9, 3]

    base = dec(dec.embed_with_semantic_sos(sem, [tokens]), enc).data[0]
    for j in range(len(tokens)):
        mutated = list(tokens)
        mutated[j] = (mutated[j] + 5) % cfg.vocab_size
        out = dec(dec.embed_with_semantic_sos(sem, [mutated]), enc).data[0]
        # token j sits at position j+1; rows 0..j may not move at all
        assert np.array_equal(base[: j + 1], out[: j + 1]), j
        assert np.abs(base[j + 1 :] - out[j + 1 :]).max() > 0.0


def test_semantic_sos_embedding_rules():
    dec, cfg = _small_decoder()
    pos0 = dec.pos_emb.table.data[0]

    zero = dec.embed_with_semantic_sos(Tensor(np.zeros((1, cfg.hidden))), [[]])
    assert zero.shape == (1, 1, cfg.hidden)
    assert np.abs(zero.data[0, 0] - pos0).max() == 0.0

    e1 = np.zeros((1, cfg.hidden))
    e1[0, 0] = 1.0
    out = dec.embed_with_semantic_sos(Tensor(e1), [[3, 5]])
    assert np.abs(out.data[0, 0] - (e1[0] + pos0)).max() == 0.0

    # position-0 state ignores the token ids entirely
    out2 = dec.embed_with_semantic_sos(Tensor(e1), [[9, 1]])
    assert np.array_equal(out.data[0, 0], out2.data[0, 0])

    # a batch embeds each row as it would alone
    both = dec.embed_with_semantic_sos(Tensor(np.concatenate([e1, -e1])), [[3, 5], [9, 1]])
    assert np.array_equal(both.data[:1], out.data)


def test_adapter_configuration():
    # the decoder has an adapter exactly when the concept and hidden widths differ
    same, cfg = _small_decoder()
    assert cfg.concept_dim == cfg.hidden
    assert same.adapter is None
    assert not any(".adapter." in name for name, _ in same.named_parameters("decoder"))

    cfg = DecoderConfig(vocab_size=11, hidden=32, concept_dim=16)
    dec = CaptionDecoder(cfg, np.random.default_rng(0))
    assert dec.adapter is not None
    assert dec.adapter.weight.data.shape == (16, 32)
    out = dec.embed_with_semantic_sos(Tensor(np.zeros((1, 16))), [[1]])
    assert out.shape == (1, 2, 32)


def test_forward_shapes_and_conditioning():
    dec, cfg = _small_decoder()
    rng = np.random.default_rng(2)
    enc = Tensor(rng.normal(size=(1, 4, cfg.hidden)))

    one = dec(dec.embed_with_semantic_sos(Tensor(rng.normal(size=(1, cfg.hidden))), [[]]), enc)
    assert one.shape == (1, 1, cfg.vocab_size)

    # semantic conditioning reaches the first-step logits
    s1, s2 = rng.normal(size=(1, cfg.hidden)), rng.normal(size=(1, cfg.hidden))
    l1 = dec(dec.embed_with_semantic_sos(Tensor(s1), [[]]), enc).data
    l2 = dec(dec.embed_with_semantic_sos(Tensor(s2), [[]]), enc).data
    assert np.abs(l1 - l2).max() > 0.0

    # cross-attention reaches the logits
    enc2 = Tensor(rng.normal(size=(1, 4, cfg.hidden)))
    l3 = dec(dec.embed_with_semantic_sos(Tensor(s1), [[]]), enc2).data
    assert np.abs(l1 - l3).max() > 0.0


def test_gradcheck_through_decoder_layer():
    # causal self-attention plus cross-attention, checked with respect to
    # the layer input, the encoder tokens and all eight attention weights
    rng = np.random.default_rng(21)
    cfg = DecoderConfig(vocab_size=5, hidden=6, heads=2, concept_dim=6, dropout=0.0)
    layer = _DecoderLayer(rng, cfg)
    attns = (layer.self_attn, layer.cross_attn)
    projections = [proj for attn in attns for proj in (attn.wq, attn.wk, attn.wv, attn.wo)]
    x = rng.normal(size=(4, cfg.hidden))
    enc = rng.normal(size=(3, cfg.hidden))
    weights = [rng.normal(scale=0.5, size=p.weight.shape) for p in projections]
    mix = Tensor(rng.normal(size=(4, cfg.hidden)))
    causal = np.triu(np.full((4, 4), NEG_INF), k=1)

    def build(t):
        for proj, w in zip(projections, t[2:]):
            proj.weight = w
        out = layer(t[0], t[1], causal, None)
        return sum_reduce(ad.mul(out, mix))

    check_grads(build, [x, enc, *weights])


def test_max_positions_error():
    dec, cfg = _small_decoder(max_positions=4)
    with pytest.raises(ValueError, match="positions"):
        dec.embed_with_semantic_sos(Tensor(np.zeros((1, cfg.concept_dim))), [[1, 2, 3, 4]])


def _desk_inputs(seed):
    cfg = DecoderConfig(vocab_size=40, concept_dim=16, dropout=0.0)
    dec = CaptionDecoder(cfg, np.random.default_rng(seed))
    r = np.random.default_rng(seed + 1)
    return dec, cfg, Tensor(r.random((1, cfg.concept_dim))), Tensor(r.normal(size=(1, 24, cfg.hidden)))


def test_cached_step_matches_full_forward():
    dec, cfg, sem, enc = _desk_inputs(13)
    rng = np.random.default_rng(14)
    # a second clip, so rows gather their own clip's keys/values
    sem = Tensor(np.concatenate([sem.data, rng.random((1, cfg.concept_dim))]))
    enc = Tensor(np.concatenate([enc.data, rng.normal(size=(1, 24, cfg.hidden))]))

    def full(clip, prefix):
        hidden = dec.embed_with_semantic_sos(Tensor(sem.data[clip : clip + 1]), [prefix])
        return log_softmax(dec(hidden, Tensor(enc.data[clip : clip + 1])).data[0, -1])

    def check(step, clips, parents, prefixes):
        got = step(_rows(prefixes, clips, parents))
        assert got.shape == (len(prefixes), cfg.vocab_size)
        for row, clip, prefix in zip(got, clips, prefixes):
            assert np.abs(row - full(clip, prefix)).max() < 1e-12

    # one growing prefix: its parent is always the previous row in order
    path = rng.integers(0, cfg.vocab_size, size=20).tolist()
    step = dec.step_fn(Tensor(sem.data[:1]), Tensor(enc.data[:1]))
    for n in range(21):
        check(step, [0], [0], [path[:n]])

    # rows over both clips whose parents come in order, permuted or repeated
    step = dec.step_fn(sem, enc)
    clips, prefixes = [0, 1, 1], [[], [], []]
    check(step, clips, [0, 0, 0], prefixes)
    for n in range(1, 21):
        kind = n % 3
        if kind == 0:
            parents = np.arange(len(prefixes))
        elif kind == 1:
            parents = rng.permutation(len(prefixes))
        else:
            parents = rng.integers(0, len(prefixes), size=int(rng.integers(1, 6)))
        clips = [clips[p] for p in parents]
        prefixes = [prefixes[p] + [int(rng.integers(cfg.vocab_size))] for p in parents]
        check(step, clips, parents, prefixes)


def _tensor_attention(attn, q_seq, k, v):
    """Attention.__call__ of the Tensor-op step, from q_seq to precomputed
    keys/values, in eval mode with no bias or mask."""
    rows = q_seq.data.shape[:-1]
    split, key_t = _head_axes(len(rows) + 2)
    q = ad.transpose(ad.reshape(attn.wq(q_seq), rows + (attn.heads, attn.head_dim)), split)
    probs = ad.softmax(ad.mul(ad.matmul(q, ad.transpose(k, key_t)), attn.scale), axis=-1)
    out = ad.transpose(ad.matmul(probs, v), split)
    return attn.wo(ad.reshape(out, rows + (attn.dim,)))


def _tensor_step(dec, semantic, enc_tokens):
    """step_fn wired through Tensor ops: each layer concatenates its new
    keys/values to the cached ones with ad.concat and attends through the
    tape ops, gathering keys/values exactly where step_fn gathers them.
    Kept as step_fn's bitwise oracle."""
    cfg = dec.cfg
    clip_count = semantic.shape[0]
    sos = dec.embed_with_semantic_sos(semantic, np.zeros((clip_count, 0))).data[:, 0]
    cross = [tuple(Tensor(t.data) for t in layer.cross_attn.keys_values(enc_tokens)) for layer in dec.layers]
    kv = []

    def step(rows):
        clips, parents, tokens = rows
        count, n = tokens.shape
        if n:
            x = ad.add(dec.tok_emb(tokens[:, -1]), dec.pos_emb(np.full(count, n)))
        else:
            x = Tensor(sos[clips])
        x = ad.reshape(x, (count, 1, cfg.hidden))
        gather_cross = not np.array_equal(clips, np.arange(clip_count))
        gather_self = n and not np.array_equal(parents, np.arange(len(kv[0][0])))
        for i, layer in enumerate(dec.layers):
            if n:
                past = tuple(Tensor(t[parents] if gather_self else t) for t in kv[i])
            else:
                past = (Tensor(np.zeros((count, cfg.heads, 0, cfg.hidden // cfg.heads))),) * 2
            cross_kv = tuple(Tensor(t.data[clips]) for t in cross[i]) if gather_cross else cross[i]
            a = layer.ln1(x)
            k, v = layer.self_attn.keys_values(a)
            k, v = ad.concat([past[0], k], axis=2), ad.concat([past[1], v], axis=2)
            x = ad.add(x, _tensor_attention(layer.self_attn, a, k, v))
            x = ad.add(x, _tensor_attention(layer.cross_attn, layer.ln2(x), *cross_kv))
            x = ad.add(x, layer.fc2(ad.gelu(layer.fc1(layer.ln3(x)))))
            kv[i:i + 1] = [(k.data, v.data)]
        return log_softmax(dec.out_proj(dec.final_norm(x)).data[:, -1])

    return step


def test_array_step_is_bitwise_the_tensor_step():
    dec, cfg, sem, enc = _desk_inputs(19)
    rng = np.random.default_rng(20)
    sem = Tensor(np.concatenate([sem.data, rng.random((1, cfg.concept_dim))]))
    enc = Tensor(np.concatenate([enc.data, rng.normal(size=(1, 24, cfg.hidden))]))
    for mixed in (False, True):
        ours, theirs = dec.step_fn(sem, enc), _tensor_step(dec, sem, enc)
        clips, parents, prefixes = [0, 1], [0, 1], [[], []]
        for n in range(21):
            if n:
                kind = n % 3 if mixed else 0
                if kind == 0:
                    parents = np.arange(len(prefixes))
                elif kind == 1:
                    parents = rng.permutation(len(prefixes))
                else:
                    parents = rng.integers(0, len(prefixes), size=int(rng.integers(1, 6)))
                clips = [clips[p] for p in parents]
                prefixes = [prefixes[p] + [int(rng.integers(cfg.vocab_size))] for p in parents]
            rows = _rows(prefixes, clips, parents)
            got, want = ours(rows), theirs(rows)
            assert got.shape == want.shape == (len(prefixes), cfg.vocab_size)
            assert (got == want).all(), (mixed, n)


def test_step_enforces_extending_the_latest_call_by_one_token():
    dec, cfg = _small_decoder()
    step = dec.step_fn(Tensor(np.zeros((1, cfg.concept_dim))), Tensor(np.ones((1, 3, cfg.hidden))))
    with pytest.raises(ValueError, match="length 2 must extend .* made no call"):
        step(_rows([[1, 2]]))
    step(_rows([[]]))
    with pytest.raises(ValueError, match="length 3 must extend .* was at length 0"):
        step(_rows([[1, 2, 3]]))
    step(_rows([[1], [2]], clips=[0, 0], parents=[0, 0]))
    for parents in ([2], [0, -1], [5, 1, 0]):
        bad = [p for p in parents if not 0 <= p < 2]
        with pytest.raises(ValueError, match=rf"parent rows \[{', '.join(map(str, bad))}\] .* had 2"):
            step(_rows([[1, 1]] * len(parents), clips=[0] * len(parents), parents=parents))
    with pytest.raises(ValueError, match="out of range"):
        step(_rows([[1, -1]], clips=[0], parents=[0]))
    # a rejected call leaves the latest call in place, and empty prefixes start over
    assert step(_rows([[1, 1], [2, 1]], clips=[0, 0], parents=[1, 0])).shape == (2, cfg.vocab_size)
    assert step(_rows([[]])).shape == (1, cfg.vocab_size)


def test_step_rejects_clip_ids_outside_its_clips():
    dec, cfg = _small_decoder()
    r = np.random.default_rng(5)
    step = dec.step_fn(r.random((2, cfg.concept_dim)), r.normal(size=(2, 3, cfg.hidden)))
    for clips in ([-1], [2], [0, 3, 1, -2]):
        bad = [c for c in clips if not 0 <= c < 2]
        with pytest.raises(ValueError, match=rf"clip ids \[{', '.join(map(str, bad))}\] .* has 2"):
            step(_rows([[]] * len(clips), clips=clips))
    assert step(_rows([[], []], clips=[1, 0])).shape == (2, cfg.vocab_size)
    with pytest.raises(ValueError, match=r"clip ids \[-1\]"):
        step(_rows([[4], [4]], clips=[1, -1], parents=[0, 1]))
    assert step(_rows([[4], [4]], clips=[1, 0], parents=[0, 1])).shape == (2, cfg.vocab_size)
    # N is one count: as many concept vectors as clips
    with pytest.raises(ValueError, match="3 concept vectors for 2 clips"):
        dec.step_fn(r.random((3, cfg.concept_dim)), r.normal(size=(2, 3, cfg.hidden)))


def test_step_rejects_mixed_lengths_and_overlong_prefixes():
    dec, cfg = _small_decoder(max_positions=4)
    step = dec.step_fn(Tensor(np.zeros((1, cfg.concept_dim))), Tensor(np.ones((1, 3, cfg.hidden))))
    with pytest.raises(ValueError, match="positions"):
        step(_rows([[1, 2, 3, 4]]))
    for n in range(4):
        assert step(_rows([[1, 2, 3][:n]])).shape == (1, cfg.vocab_size)
    with pytest.raises(ValueError, match="positions"):
        step(_rows([[1, 2, 3, 4]]))


def test_step_leaves_no_reference_cycle():
    dec, cfg, sem, enc = _desk_inputs(15)
    gc.collect()
    gc.disable()
    try:
        step = dec.step_fn(sem, enc)
        generate(step, GenerationRequest(strategy="beam", beam_width=3, max_len=8))
        generate(step, GenerationRequest(strategy="topp", p=0.9, max_len=8, seed=0))
        del step
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_generation_request_validation():
    with pytest.raises(ValueError, match="strategy"):
        GenerationRequest(strategy="viterbi")
    with pytest.raises(ValueError, match="positive"):
        GenerationRequest(beam_width=0)
    with pytest.raises(ValueError, match="top-p"):
        GenerationRequest(p=0.0)
    for temperature in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature"):
            GenerationRequest(temperature=temperature)
    with pytest.raises(ValueError, match="seed must be non-negative or None, got -1"):
        GenerationRequest("topk", seed=-1)
    assert GenerationRequest("topk", seed=None).seed is None


# ---------------------------------------------------------------------------
# strategy behavior on synthetic next-token tables


def _table_step(tables):
    """StepFn backed by an explicit prefix -> probability table, the same
    for every clip."""

    def step(rows):
        _, _, tokens = rows
        return np.log(np.asarray([tables[tuple(p)] for p in tokens.tolist()], dtype=np.float64))

    return step


def test_beam_beats_greedy_on_two_step_toy():
    # ids: 0 and 1 are words, 2 is EOS (kept negligible)
    eps = 1e-300
    tables = {
        (): [0.6, 0.4 - eps, eps],
        (0,): [0.4, 0.35, 0.25],
        (1,): [0.9, 0.05, 0.05],
        (0, 0): [eps, eps, 1.0 - 2 * eps],
        (1, 0): [eps, eps, 1.0 - 2 * eps],
    }
    step = _table_step(tables)

    (greedy,) = generate(step, GenerationRequest(strategy="greedy", max_len=2))
    assert greedy.tokens == [0, 0]
    assert abs(greedy.logprob - math.log(0.6 * 0.4)) < 1e-9

    (beam,) = generate(step, GenerationRequest(strategy="beam", beam_width=2, max_len=2))
    assert beam.tokens == [1, 0]
    assert abs(beam.logprob - math.log(0.4 * 0.9)) < 1e-9

    # width 1 degenerates to greedy
    (b1,) = generate(step, GenerationRequest(strategy="beam", beam_width=1, max_len=2))
    assert b1.tokens == greedy.tokens
    assert abs(b1.logprob - greedy.logprob) < 1e-12


def _random_tables(v: int, max_len: int, rng) -> dict:
    tables = {}

    def fill(prefix):
        if len(prefix) >= max_len:
            return
        probs = rng.dirichlet(np.ones(v))
        tables[prefix] = probs
        for tok in range(v):
            if tok != EOS_ID:
                fill(prefix + (tok,))

    fill(())
    return tables


def _exhaustive_best(tables, v: int, max_len: int):
    """Enumerate every hypothesis (EOS-terminated or length-capped)."""
    best = None

    def consider(tokens, score):
        nonlocal best
        cand = (-score, tokens)
        if best is None or cand < best:
            best = cand

    def walk(prefix, score, depth):
        lp = np.log(tables[tuple(prefix)])
        for tok in range(v):
            s = score + float(lp[tok])
            if tok == EOS_ID:
                consider(list(prefix), s)
            elif depth + 1 == max_len:
                consider(list(prefix) + [tok], s)
            else:
                walk(list(prefix) + [tok], s, depth + 1)

    walk([], 0.0, 0)
    return best[1], -best[0]


def test_full_width_beam_equals_exhaustive_search():
    rng = np.random.default_rng(3)
    for v, max_len, trials in ((3, 3, 10), (4, 3, 10), (5, 4, 5)):
        for _ in range(trials):
            tables = _random_tables(v, max_len, rng)
            step = _table_step(tables)
            want_tokens, want_score = _exhaustive_best(tables, v, max_len)
            (got,) = generate(step, GenerationRequest(strategy="beam", beam_width=v**max_len, max_len=max_len))
            assert got.tokens == want_tokens
            assert abs(got.logprob - want_score) < 1e-9


def test_beam_steps_once_per_length_and_breaks_ties_lexicographically():
    # every non-EOS continuation ties and EOS never wins
    probs = np.full(5, 0.25)
    probs[EOS_ID] = 1e-300
    calls = []

    def step(rows):
        _, _, tokens = rows
        calls.append({len(p) for p in tokens})
        return np.log(np.tile(probs, (len(tokens), 1)))

    (hyp,) = generate(step, GenerationRequest(strategy="beam", beam_width=3, max_len=4))
    assert calls == [{0}, {1}, {2}, {3}]
    assert hyp.tokens == [0, 0, 0, 0]


def test_beam1_greedy_topk1_identical():
    rng = np.random.default_rng(4)
    for trial in range(10):
        tables = _random_tables(4, 3, rng)
        step = _table_step(tables)
        (g,) = generate(step, GenerationRequest(strategy="greedy", max_len=3))
        (b,) = generate(step, GenerationRequest(strategy="beam", beam_width=1, max_len=3))
        (t,) = generate(step, GenerationRequest(strategy="topk", k=1, max_len=3, seed=trial))
        assert g.tokens == b.tokens == t.tokens
        assert abs(g.logprob - b.logprob) < 1e-12
        assert abs(g.logprob - t.logprob) < 1e-12

    # and end-to-end through a real decoder
    dec, cfg = _small_decoder(seed=5)
    r = np.random.default_rng(6)
    step = dec.step_fn(Tensor(r.normal(size=(1, cfg.concept_dim))), Tensor(r.normal(size=(1, 3, cfg.hidden))))
    (g,) = generate(step, GenerationRequest(strategy="greedy", max_len=6))
    (b,) = generate(step, GenerationRequest(strategy="beam", beam_width=1, max_len=6))
    (t,) = generate(step, GenerationRequest(strategy="topk", k=1, max_len=6, seed=0))
    assert g.tokens == b.tokens == t.tokens


def test_lockstep_generation_equals_one_clip_at_a_time():
    # clips with their own tables stop at their own lengths; each strategy
    # must give every clip what it gives that clip decoded alone, with one
    # step call per length for all clips still running
    rng = np.random.default_rng(17)
    tables = [_random_tables(4, 4, rng) for _ in range(6)]
    calls = []

    def step(rows):
        clips, _, tokens = rows
        calls.append({len(p) for p in tokens})
        return np.log(np.asarray([tables[c][tuple(p)] for c, p in zip(clips, tokens.tolist())], dtype=np.float64))

    for request in (
        GenerationRequest(strategy="greedy", max_len=4),
        GenerationRequest(strategy="beam", beam_width=3, max_len=4),
        GenerationRequest(strategy="topk", k=2, max_len=4, seed=5),
        GenerationRequest(strategy="topp", p=0.8, max_len=4, seed=5),
    ):
        calls.clear()
        together = generate(step, request, clips=len(tables))
        assert all(len(lengths) == 1 for lengths in calls) and len(calls) <= 4
        for table, hyp in zip(tables, together):
            (alone,) = generate(_table_step(table), request)
            assert (hyp.tokens, hyp.logprob) == (alone.tokens, alone.logprob)
        assert len({len(h.tokens) for h in together}) > 1, request.strategy


def test_every_strategy_matches_recorded_hypotheses():
    # recorded tokens and log-probs of four clips that stop at different
    # lengths; a change in pick order, draw order or score summation shows
    # here as a changed number
    rng = np.random.default_rng(23)
    tables = [_random_tables(5, 4, rng) for _ in range(4)]

    def step(rows):
        clips, _, tokens = rows
        return np.log(np.asarray([tables[c][tuple(p)] for c, p in zip(clips, tokens.tolist())], dtype=np.float64))

    recorded = [
        (GenerationRequest(strategy="greedy", max_len=4), [
            ([4], -0.8516933497700189), ([1, 0, 0], -3.1114910468050287),
            ([], -0.470652320224719), ([3], -2.3098985825099225)]),
        (GenerationRequest(strategy="beam", beam_width=3, max_len=4), [
            ([4], -0.8516933497700189), ([], -1.4178308334441643),
            ([], -0.470652320224719), ([], -1.3862076671311954)]),
        (GenerationRequest(strategy="topk", k=2, max_len=4, seed=5), [
            ([3, 4, 3, 4], -4.472223232415541), ([], -1.4178308334441643),
            ([1, 4, 3, 0], -3.8718256832683524), ([4], -2.8098783887111045)]),
        (GenerationRequest(strategy="topp", p=0.8, max_len=4, seed=5), [
            ([3, 0, 1], -5.109265308470291), ([], -1.4178308334441643),
            ([1, 4, 3, 0], -3.8718256832683524), ([1, 1, 4, 1], -4.448527974862811)]),
    ]
    for request, want in recorded:
        got = [(h.tokens, h.logprob) for h in generate(step, request, clips=4)]
        assert got == want, request.strategy


def test_logprobs_accumulate_nonpositive_terms():
    rng = np.random.default_rng(7)
    tables = _random_tables(4, 4, rng)
    step = _table_step(tables)
    (hyp,) = generate(step, GenerationRequest(strategy="greedy", max_len=4))
    # replay the path: every per-step term is a log-probability <= 0,
    # so the running total is non-increasing
    total = 0.0
    prev = 0.0
    for i, tok in enumerate(hyp.tokens):
        term = float(step(_rows([hyp.tokens[:i]]))[0][tok])
        assert term <= 0.0
        total += term
        assert total <= prev + 1e-15
        prev = total
    if len(hyp.tokens) < 4:
        total += float(step(_rows([hyp.tokens]))[0][EOS_ID])
    assert abs(total - hyp.logprob) < 1e-12


def sample_token(logits: np.ndarray, strategy: str, k: int, p: float, temperature: float, rng) -> int:
    """One draw.  Candidates are ordered by (probability desc, id asc);
    top-k keeps the k best, top-p the smallest prefix reaching mass p,
    greedy the single best.  Temperature divides the logits first."""
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    probs = np.exp(log_softmax(scaled))
    order = np.lexsort((np.arange(len(probs)), -probs))
    if strategy == "greedy":
        return int(order[0])
    if strategy == "topk":
        pool = order[: min(k, len(order))]
    elif strategy == "topp":
        cum = np.cumsum(probs[order])
        cut = int(np.searchsorted(cum, p, side="left"))
        pool = order[: min(cut + 1, len(order))]
    else:
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    weights = probs[pool]
    weights = weights / weights.sum()
    r = rng.random()
    idx = int(np.searchsorted(np.cumsum(weights), r, side="right"))
    return int(pool[min(idx, len(pool) - 1)])


def _pick(logits, rng, **request) -> int:
    """The library picker on a one-row input."""
    return int(sample_tokens(np.asarray(logits)[None], GenerationRequest(**request), [rng])[0])


def test_batched_picker_matches_sample_token_row_by_row():
    # 25,600 rows, most with tied probabilities: few distinct logit values,
    # rows whose low half underflows to probability 0, and rows whose
    # distinct logits round to one probability
    rng = np.random.default_rng(31)
    vocab, count = 12, 25_600
    logits = rng.integers(-4, 3, size=(count, vocab)) * 0.75
    logits[::4] = rng.normal(scale=3.0, size=(count // 4, vocab))
    logits[1::4, : vocab // 2] -= 800.0
    logits[3::4] = rng.integers(0, 3, size=(count // 4, vocab)) * 1e-17
    # a quarter of the rows per temperature, each with its own k and p
    settings = [(1e-3, 1, 0.3), (0.7, 3, 0.8), (1.0, 5, 0.95), (3.0, vocab + 2, 1.0)]
    for strategy in ("greedy", "topk", "topp"):
        for part, (temperature, k, p) in zip(np.split(logits, len(settings)), settings):
            request = GenerationRequest(strategy=strategy, k=k, p=p, temperature=temperature)
            ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
            got = sample_tokens(part, request, [ours] * len(part))
            want = [sample_token(row, strategy, k, p, temperature, theirs) for row in part]
            assert got.tolist() == want, (strategy, temperature)
            assert ours.random() == theirs.random()


def test_topp_full_distribution_frequencies():
    probs = np.array([0.2, 0.5, 0.3])
    logits = np.log(probs)
    rng = np.random.default_rng(8)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[_pick(logits, rng, strategy="topp", k=3, p=1.0, temperature=1.0)] += 1
    for i in range(3):
        sd = math.sqrt(n * probs[i] * (1 - probs[i]))
        assert abs(counts[i] - n * probs[i]) <= 3 * sd, (i, counts)


def test_topk_restricts_support_and_temperature_sharpens():
    probs = np.array([0.05, 0.6, 0.2, 0.15])
    logits = np.log(probs)
    rng = np.random.default_rng(9)
    seen = {_pick(logits, rng, strategy="topk", k=2, p=1.0, temperature=1.0) for _ in range(2000)}
    assert seen == {1, 2}  # the two most probable ids only

    # very low temperature concentrates all mass on the argmax
    seen = {_pick(logits, rng, strategy="topk", k=4, p=1.0, temperature=1e-3) for _ in range(200)}
    assert seen == {1}


def test_topp_cut_is_minimal_prefix():
    probs = np.array([0.5, 0.3, 0.2])
    logits = np.log(probs)
    rng = np.random.default_rng(10)
    # p=0.5: the single most probable token already reaches the mass
    seen = {_pick(logits, rng, strategy="topp", k=3, p=0.5, temperature=1.0) for _ in range(500)}
    assert seen == {0}
    # p=0.75: needs the top two
    seen = {_pick(logits, rng, strategy="topp", k=3, p=0.75, temperature=1.0) for _ in range(2000)}
    assert seen == {0, 1}


def test_seeded_sampling_is_reproducible():
    dec, cfg = _small_decoder(seed=11)
    r = np.random.default_rng(12)
    sem = Tensor(r.normal(size=(1, cfg.concept_dim)))
    enc = Tensor(r.normal(size=(1, 3, cfg.hidden)))
    step = dec.step_fn(sem, enc)
    req = GenerationRequest(strategy="topp", p=0.9, max_len=8, seed=123)
    (a,) = generate(step, req)
    (b,) = generate(step, req)
    assert a.tokens == b.tokens and a.logprob == b.logprob
