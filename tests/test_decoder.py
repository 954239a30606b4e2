"""Decoder and generation-strategy tests, including the exhaustive beam
search oracle and sampling frequency checks."""

import gc
import itertools
import math

import numpy as np
import pytest
from test_autodiff import check_grads

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
    sample_token,
)
from vidcap.textproc import EOS_ID


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
        out = layer(t[0], t[1], causal, None, False)
        return ad.sum_reduce(ad.mul(out, mix))

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

    def full(prefix):
        return log_softmax(dec(dec.embed_with_semantic_sos(sem, [prefix]), enc).data[0, -1])

    def check(step, prefixes):
        got = step([(0, p) for p in prefixes])
        assert got.shape == (len(prefixes), cfg.vocab_size)
        for row, prefix in zip(got, prefixes):
            assert np.abs(row - full(list(prefix))).max() < 1e-12

    # one growing prefix, and three at a time (all three start empty)
    paths = rng.integers(0, cfg.vocab_size, size=(4, 20)).tolist()
    step = dec.step_fn(sem, enc)
    for n in range(21):
        check(step, [paths[0][:n]])
        check(step, [p[:n] for p in paths[1:]])
    # cold prefixes: no ancestor was ever stepped, and two share ancestors
    cold = dec.step_fn(sem, enc)
    check(cold, [paths[0][:12], paths[0][:11] + [7]])
    check(cold, [paths[1][:3]])


def test_step_rejects_mixed_lengths_and_overlong_prefixes():
    dec, cfg = _small_decoder(max_positions=4)
    step = dec.step_fn(Tensor(np.zeros((1, cfg.concept_dim))), Tensor(np.ones((1, 3, cfg.hidden))))
    with pytest.raises(ValueError):
        step([(0, [1]), (0, [1, 2])])
    with pytest.raises(ValueError, match="positions"):
        step([(0, [1, 2, 3, 4])])
    assert step([(0, [1, 2, 3])]).shape == (1, cfg.vocab_size)


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
    with pytest.raises(ValueError, match="temperature"):
        GenerationRequest(temperature=-1.0)


# ---------------------------------------------------------------------------
# strategy behavior on synthetic next-token tables


def _table_step(tables):
    """StepFn backed by an explicit prefix -> probability table, the same
    for every clip."""

    def step(rows):
        return np.log(np.asarray([tables[tuple(p)] for _, p in rows], dtype=np.float64))

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
        calls.append({len(p) for _, p in rows})
        return np.log(np.tile(probs, (len(rows), 1)))

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
        calls.append({len(p) for _, p in rows})
        return np.log(np.asarray([tables[c][tuple(p)] for c, p in rows], dtype=np.float64))

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
        return np.log(np.asarray([tables[c][tuple(p)] for c, p in rows], dtype=np.float64))

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
        term = float(step([(0, hyp.tokens[:i])])[0][tok])
        assert term <= 0.0
        total += term
        assert total <= prev + 1e-15
        prev = total
    if len(hyp.tokens) < 4:
        total += float(step([(0, hyp.tokens)])[0][EOS_ID])
    assert abs(total - hyp.logprob) < 1e-12


def test_topp_full_distribution_frequencies():
    probs = np.array([0.2, 0.5, 0.3])
    logits = np.log(probs)
    rng = np.random.default_rng(8)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[sample_token(logits, "topp", k=3, p=1.0, temperature=1.0, rng=rng)] += 1
    for i in range(3):
        sd = math.sqrt(n * probs[i] * (1 - probs[i]))
        assert abs(counts[i] - n * probs[i]) <= 3 * sd, (i, counts)


def test_topk_restricts_support_and_temperature_sharpens():
    probs = np.array([0.05, 0.6, 0.2, 0.15])
    logits = np.log(probs)
    rng = np.random.default_rng(9)
    seen = {sample_token(logits, "topk", k=2, p=1.0, temperature=1.0, rng=rng) for _ in range(2000)}
    assert seen == {1, 2}  # the two most probable ids only

    # very low temperature concentrates all mass on the argmax
    seen = {sample_token(logits, "topk", k=4, p=1.0, temperature=1e-3, rng=rng) for _ in range(200)}
    assert seen == {1}


def test_topp_cut_is_minimal_prefix():
    probs = np.array([0.5, 0.3, 0.2])
    logits = np.log(probs)
    rng = np.random.default_rng(10)
    # p=0.5: the single most probable token already reaches the mass
    seen = {sample_token(logits, "topp", k=3, p=0.5, temperature=1.0, rng=rng) for _ in range(500)}
    assert seen == {0}
    # p=0.75: needs the top two
    seen = {sample_token(logits, "topp", k=3, p=0.75, temperature=1.0, rng=rng) for _ in range(2000)}
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
