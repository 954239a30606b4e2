"""Causal transformer decoder conditioned on video tokens and a concept
probability vector.

The concept vector, projected to the hidden width when its own width
differs (the adapter), becomes the position-0 input in place of a
start-of-sequence embedding, so every generated word is conditioned on
it.  Each layer runs causal self-attention, cross-attention over the
encoder tokens (both through the shared nn.Attention core), and a feed
forward block, all pre-norm with residuals.  Training runs B
right-padded captions in one teacher-forced call: padding sits after
every real position, so the causal mask already hides it from every
real query.

Generation is incremental and runs many clips in lockstep: step_fn
computes each layer's cross-attention keys/values once per clip, and a
step maps R rows, each a clip id, the row of the previous call it
extends and a token prefix (an (R, n) matrix), to next-token
log-probabilities, running one new position per row on the cached
self-attention keys/values of its parent row.  The step and its setup
feed plain arrays, without Tensors or a tape, through the layers' one
forward, which the teacher-forced call feeds Tensors.
One length-synchronous search serves every strategy, holding the live
hypotheses of all clips as arrays and advancing every clip by one
length per step call; the strategies differ only in how continuations
are picked: beam search (summed log probabilities, no length
normalization, ties broken toward the lexicographically smallest token
sequence) or ancestral sampling with greedy / top-k / top-p truncation
and a temperature knob, one generator per clip.  One clip is the batch
of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, Tensor
from .nn import MLP_RATIO, Attention, Embedding, LayerNorm, Linear, Module
from .textproc import EOS_ID

NEG_INF = -1e9


@dataclass
class DecoderConfig:
    vocab_size: int
    hidden: int = 32
    layers: int = 2
    heads: int = 4
    max_positions: int = 32
    dropout: float = 0.3
    concept_dim: int = 16

    def __post_init__(self):
        for name in ("vocab_size", "hidden", "layers", "max_positions", "concept_dim"):
            if not getattr(self, name) > 0:
                raise ValueError(f"decoder {name} must be positive, got {getattr(self, name)}")
        if self.heads < 1:
            raise ValueError(f"decoder heads must be at least 1, got {self.heads}")
        if self.hidden % self.heads:
            raise ValueError(f"decoder hidden width {self.hidden} must divide into {self.heads} heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"decoder dropout must be in [0, 1), got {self.dropout}")

    @classmethod
    def paper(cls) -> "DecoderConfig":
        return cls(
            vocab_size=30522,
            hidden=768,
            layers=12,
            heads=12,
            max_positions=512,
            dropout=0.3,
            concept_dim=768,
        )


class _DecoderLayer(Module):
    def __init__(self, rng, cfg: DecoderConfig):
        d = cfg.hidden
        self.ln1 = LayerNorm(d)
        self.self_attn = Attention(rng, d, cfg.heads, cfg.dropout)
        self.ln2 = LayerNorm(d)
        self.cross_attn = Attention(rng, d, cfg.heads, cfg.dropout)
        self.ln3 = LayerNorm(d)
        self.fc1 = Linear(rng, d, d * MLP_RATIO)
        self.fc2 = Linear(rng, d * MLP_RATIO, d)
        self.dropout = cfg.dropout

    def __call__(self, x, enc, causal: np.ndarray | None, rng, cache: list | None = None):
        """With a cache [self_kv, cross_kv], x follows the prefix whose
        keys/values are self_kv, which the call extends; enc is unused."""
        a = self.ln1(x)
        self_kv = cross_kv = None
        if cache is not None:
            (past_k, past_v), cross_kv = cache
            k, v = self.self_attn.keys_values(a)
            cache[0] = self_kv = (ad.concat([past_k, k], axis=2), ad.concat([past_v, v], axis=2))
        x = x + self.self_attn(a, a, None, causal, rng, self_kv)
        x = x + self.cross_attn(self.ln2(x), enc, None, None, rng, cross_kv)
        h = self.fc1(self.ln3(x))
        h = ad.dropout(ad.gelu(h), self.dropout, rng)
        return x + self.fc2(h)


class CaptionDecoder(Module):
    def __init__(self, cfg: DecoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.tok_emb = Embedding(rng, cfg.vocab_size, cfg.hidden)
        self.pos_emb = Embedding(rng, cfg.max_positions, cfg.hidden)
        self.adapter = Linear(rng, cfg.concept_dim, cfg.hidden) if cfg.concept_dim != cfg.hidden else None
        self.layers = [_DecoderLayer(rng, cfg) for _ in range(cfg.layers)]
        self.final_norm = LayerNorm(cfg.hidden)
        self.out_proj = Linear(rng, cfg.hidden, cfg.vocab_size)

    def embed_with_semantic_sos(self, semantic: Tensor, tokens) -> Tensor:
        """Hidden inputs (B, n + 1, hidden) for B concept vectors (B,
        concept_dim) and B rows of n token ids: the adapted concept vector
        at position 0, then the token embeddings, each plus its absolute
        position embedding."""
        batch = semantic.shape[0]
        ids = np.asarray(tokens, dtype=np.intp)
        if ids.ndim != 2 or ids.shape[0] != batch:
            raise ValueError(f"token ids {ids.shape} are not one row per concept vector")
        length = ids.shape[1] + 1
        self._check_positions(length)
        sem = semantic if self.adapter is None else self.adapter(semantic)
        x = ad.concat([ad.reshape(sem, (batch, 1, self.cfg.hidden)), self.tok_emb(ids)], axis=1)
        return ad.add(x, self.pos_emb(np.broadcast_to(np.arange(length), (batch, length))))

    def _check_positions(self, length: int) -> None:
        if length > self.cfg.max_positions:
            raise ValueError(f"sequence of {length} exceeds {self.cfg.max_positions} positions")

    def __call__(self, hidden, enc_tokens, rng=None, cache: list | None = None):
        """Logits (B, L, V) for every position of B embedded sequences
        (B, L, hidden) attending to their clips' tokens (B, t, dim); or, with
        a cache of one [self_kv, cross_kv] pair per layer (enc_tokens is
        then unused), the logits (R, 1, V) for R new positions (R, 1,
        hidden) after their cached prefixes; each layer extends its self_kv."""
        causal = None
        if cache is None:
            length = hidden.shape[1]
            causal = np.triu(np.full((length, length), NEG_INF), k=1)
            cache = [None] * len(self.layers)
        x = hidden
        for layer, layer_cache in zip(self.layers, cache):
            x = layer(x, enc_tokens, causal, rng, layer_cache)
        return self.out_proj(self.final_norm(x))

    def step_fn(self, semantic, enc_tokens) -> "StepFn":
        """Next-token log-probabilities (R, V) in eval mode for R rows over
        N clips: semantic is (N, concept_dim) and enc_tokens (N, t, dim),
        arrays or Tensors.  A call takes one (clips, parents, tokens)
        triple: the clip id in [0, N) of each row (R,), the row of the
        latest call each row extends (R,), unused when the prefixes are
        empty (which starts over), and the (R, n) token prefixes, one token
        longer than the latest call's.  Each layer's cross-attention
        keys/values are computed here, once per clip; the latest call's rows
        keep their self-attention keys/values, so every call runs one new
        position per row."""
        return _CachedStep(self, semantic, enc_tokens)


StepFn = Callable[[tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray]


class _CachedStep:
    """The step returned by CaptionDecoder.step_fn.  Holds no reference
    back to itself, so dropping it frees its cache without the cyclic GC."""

    def __init__(self, decoder: CaptionDecoder, semantic, enc_tokens):
        semantic, enc_tokens = ad.array_of(semantic), ad.array_of(enc_tokens)
        if len(semantic) != len(enc_tokens):
            raise ValueError(f"{len(semantic)} concept vectors for {len(enc_tokens)} clips")
        self.decoder = decoder
        # embed_with_semantic_sos at length 0
        sem = semantic if decoder.adapter is None else decoder.adapter(semantic)
        self.sos = sem + decoder.pos_emb.table.data[0]
        self.cross_kv = [layer.cross_attn.keys_values(enc_tokens) for layer in decoder.layers]
        # per layer the latest call's self-attention (k, v), each (rows, heads, n + 1, head_dim)
        self.kv: list[tuple[np.ndarray, np.ndarray]] = []
        self.length = None  # the latest call's prefix length

    def __call__(self, rows: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        clips, parents, tokens = rows
        dec, cfg = self.decoder, self.decoder.cfg
        count, n = tokens.shape
        dec._check_positions(n + 1)
        _refuse_outside(clips, len(self.sos), "clip ids {} are not clips of this step, which has {}")
        if n:
            if n - 1 != self.length:
                had = "made no call" if self.length is None else f"was at length {self.length}"
                raise ValueError(f"prefixes of length {n} must extend the latest call's by one token; it {had}")
            latest = len(self.kv[0][0])
            _refuse_outside(parents, latest, "parent rows {} are not rows of the latest call, which had {}")
            ids = ad.checked_index(tokens[:, -1], cfg.vocab_size)
            x = dec.tok_emb.table.data[ids] + dec.pos_emb.table.data[n]
        else:
            x = self.sos[clips]
        # rows that are the clips, or the previous rows, in order attend to
        # their keys/values as they are
        gather_cross = not np.array_equal(clips, np.arange(len(self.sos)))
        gather_self = n and not np.array_equal(parents, np.arange(latest))
        caches = []
        for i, cross_kv in enumerate(self.cross_kv):
            if n:
                past = tuple(t[parents] for t in self.kv[i]) if gather_self else self.kv[i]
            else:
                past = (np.zeros((count, cfg.heads, 0, cfg.hidden // cfg.heads)),) * 2
            if gather_cross:
                cross_kv = tuple(t[clips] for t in cross_kv)
            caches.append([past, cross_kv])
        logits = dec(x.reshape(count, 1, cfg.hidden), None, cache=caches)[:, -1]
        if not np.all(np.isfinite(logits)):
            raise NumericError("non-finite logits")
        self.kv = [kv for kv, _ in caches]
        self.length = n
        return log_softmax(logits)


def _refuse_outside(ids: np.ndarray, size: int, message: str) -> None:
    bad = ids[(ids < 0) | (ids >= size)]
    if len(bad):
        raise ValueError(message.format(bad.tolist(), size))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis."""
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class Hypothesis:
    def __init__(self, tokens: list[int], logprob: float):
        self.tokens, self.logprob = tokens, logprob


STRATEGIES = ("beam", "greedy", "topk", "topp")


class GenerationRequest:
    def __init__(
        self, strategy: str = "beam", beam_width: int = 3, k: int = 20, p: float = 0.95,
        temperature: float = 1.0, max_len: int = 20, seed: int | None = None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown decode strategy {strategy!r}")
        if beam_width < 1 or k < 1 or max_len < 1:
            raise ValueError("beam width, k and max length must be positive")
        if not (0.0 < p <= 1.0):
            raise ValueError("top-p mass must be in (0, 1]")
        if not 0.0 < temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {temperature}")
        if seed is not None and seed < 0:
            raise ValueError(f"seed must be non-negative or None, got {seed}")
        self.strategy, self.beam_width, self.k, self.p = strategy, beam_width, k, p
        self.temperature, self.max_len, self.seed = temperature, max_len, seed


def sample_tokens(logprobs: np.ndarray, request: GenerationRequest, rngs: Sequence) -> np.ndarray:
    """One draw per row of logprobs (R, V), or of any logits, row r drawing
    from rngs[r].  Candidates are ordered by (probability desc, id asc);
    top-k keeps the k best, top-p the smallest prefix reaching mass p,
    greedy the single best (and draws nothing).  Temperature divides the
    logits first."""
    r = request
    probs = np.exp(log_softmax(logprobs / r.temperature))
    if r.strategy == "greedy":
        return probs.argmax(axis=1)
    rows, vocab = np.arange(len(probs)), probs.shape[1]
    order = np.argsort(-probs, axis=1, kind="stable")
    ranked = probs[rows[:, None], order]
    if r.strategy == "topk":
        widths = [min(r.k, vocab)] * len(probs)
    else:
        # cumsum runs along each row, so a row's running mass is what it is alone
        widths = np.minimum((np.cumsum(ranked, axis=1) < r.p).sum(axis=1) + 1, vocab).tolist()
    picks = []
    for row, width, rng in zip(ranked, widths, rngs):
        pool = row[:width]
        cdf = np.cumsum(pool / pool.sum())
        picks.append(min(int(np.searchsorted(cdf, rng.random(), side="right")), width - 1))
    return order[rows, picks]


def generate(step: StepFn, request: GenerationRequest, clips: int = 1) -> list[Hypothesis]:
    """One hypothesis per clip, the clips advanced in lockstep.

    The live hypotheses of all clips are rows of arrays (clip id, parent
    row in the latest step call, token matrix, score), each clip's rows
    ordered by tokens, and each step call expands all of them.  Beam
    search keeps per clip the `beam_width` best continuations by summed
    log-probability, ties going to the smaller token sequence.  Greedy,
    top-k and top-p keep one hypothesis per clip and pick its
    continuation with sample_tokens, clip c drawing from its own generator
    seeded with request.seed, so a clip draws what it would draw decoded
    alone.  Scores sum the full (untruncated, temperature-free)
    distribution's terms.  A continuation ending in EOS retires with the
    EOS term included in its score; at max_len the survivors retire as
    they are.  The best retiree of each clip, by (score desc, tokens), wins.
    """
    r = request
    beam = r.strategy == "beam"
    rngs = [np.random.default_rng(r.seed) for _ in range(clips)] if r.strategy in ("topk", "topp") else None
    clip = parent = np.arange(clips)
    tokens = np.zeros((clips, 0), dtype=np.intp)
    score = np.zeros(clips)
    best: list[tuple[float, list[int]] | None] = [None] * clips  # per clip: (-score, tokens)

    def retire(clip, score, tokens):
        for c, key in zip(clip.tolist(), zip((-score).tolist(), tokens.tolist())):
            if best[c] is None or key < best[c]:
                best[c] = key

    for _ in range(r.max_len):
        if not len(clip):
            break
        logprobs = step((clip, parent, tokens))
        if beam:
            vocab = logprobs.shape[1]
            cand_clip = np.repeat(clip, vocab)
            # lexsort is stable, so equal scores keep (row, token) order, which
            # is token order; sorting by clip first leaves each clip's
            # candidates in their block, so a rank is the offset in the block
            order = np.lexsort((-(score[:, None] + logprobs).ravel(), cand_clip))
            rank = np.arange(len(order)) - np.searchsorted(cand_clip, cand_clip)
            row, tok = np.divmod(order[rank < r.beam_width], vocab)
        else:
            row = np.arange(len(clip))
            tok = sample_tokens(logprobs, r, [rngs[c] for c in clip.tolist()] if rngs else ())
        score = score[row] + logprobs[row, tok]
        done = tok == EOS_ID
        if done.any():
            retire(clip[row[done]], score[done], tokens[row[done]])
            row, tok, score = row[~done], tok[~done], score[~done]
        clip, parent, tokens = clip[row], row, np.concatenate([tokens[row], tok[:, None]], axis=1)
        # each clip's rows stay ordered by tokens; one row per clip already is
        if beam:
            order = np.lexsort((*tokens.T[::-1], clip))
            clip, parent, score, tokens = clip[order], parent[order], score[order], tokens[order]
    retire(clip, score, tokens)
    return [Hypothesis(tokens=tokens, logprob=-neg) for neg, tokens in best]
