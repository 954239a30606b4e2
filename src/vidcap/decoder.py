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
step maps rows of (clip, prefix) pairs, every prefix one length, to
next-token log-probabilities, running one new position per row through
the same layers as the teacher-forced forward on the cached
self-attention keys/values of its parent.  One length-synchronous search
serves every strategy, advancing every clip by one length per step call;
the strategies differ only in how continuations are picked: beam search
(summed log probabilities, no length normalization, ties broken toward
the lexicographically smallest token sequence) or ancestral sampling
with greedy / top-k / top-p truncation and a temperature knob, one
generator per clip.  One clip is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, Tensor
from .nn import Attention, Embedding, LayerNorm, Linear
from .textproc import EOS_ID

NEG_INF = -1e9


@dataclass
class DecoderConfig:
    vocab_size: int
    hidden: int = 32
    layers: int = 2
    heads: int = 4
    mlp_ratio: int = 4
    max_positions: int = 32
    dropout: float = 0.3
    concept_dim: int = 16
    layer_norm_eps: float = 1e-12

    def __post_init__(self):
        if self.hidden % self.heads:
            raise ValueError("hidden width must divide into heads")

    @classmethod
    def paper(cls, vocab_size: int = 30522) -> "DecoderConfig":
        return cls(
            vocab_size=vocab_size,
            hidden=768,
            layers=12,
            heads=12,
            max_positions=512,
            dropout=0.3,
            concept_dim=768,
        )


class LayerCache:
    """Keys/values one layer attends to in an incremental step, each
    (B, heads, L, head_dim): self-attention over the prefixes so far, which
    the layer extends by the new position, and cross-attention over the
    encoder tokens."""

    def __init__(self, self_kv: tuple[Tensor, Tensor], cross_kv: tuple[Tensor, Tensor]):
        self.self_kv, self.cross_kv = self_kv, cross_kv


class _DecoderLayer:
    def __init__(self, rng, cfg: DecoderConfig):
        d = cfg.hidden
        self.ln1 = LayerNorm(d, cfg.layer_norm_eps)
        self.self_attn = Attention(rng, d, cfg.heads, qkv_bias=True, dropout=cfg.dropout)
        self.ln2 = LayerNorm(d, cfg.layer_norm_eps)
        self.cross_attn = Attention(rng, d, cfg.heads, qkv_bias=True, dropout=cfg.dropout)
        self.ln3 = LayerNorm(d, cfg.layer_norm_eps)
        self.fc1 = Linear(rng, d, d * cfg.mlp_ratio)
        self.fc2 = Linear(rng, d * cfg.mlp_ratio, d)
        self.dropout = cfg.dropout

    def __call__(
        self, x: Tensor, enc: Tensor, causal: np.ndarray | None, rng, training: bool, cache: LayerCache | None = None
    ) -> Tensor:
        a = self.ln1(x)
        self_kv = cross_kv = None
        if cache is not None:
            k, v = self.self_attn.keys_values(a)
            past_k, past_v = cache.self_kv
            cache.self_kv = self_kv = (ad.concat([past_k, k], axis=2), ad.concat([past_v, v], axis=2))
            cross_kv = cache.cross_kv
        x = ad.add(x, self.self_attn(a, a, None, causal, rng, training, kv=self_kv))
        x = ad.add(x, self.cross_attn(self.ln2(x), enc, None, None, rng, training, kv=cross_kv))
        h = self.fc1(self.ln3(x))
        h = ad.dropout(ad.gelu(h), self.dropout, rng, training)
        return ad.add(x, self.fc2(h))

    def named_parameters(self, prefix: str):
        yield from self.ln1.named_parameters(prefix + ".ln1")
        yield from self.self_attn.named_parameters(prefix + ".self_attn")
        yield from self.ln2.named_parameters(prefix + ".ln2")
        yield from self.cross_attn.named_parameters(prefix + ".cross_attn")
        yield from self.ln3.named_parameters(prefix + ".ln3")
        yield from self.fc1.named_parameters(prefix + ".fc1")
        yield from self.fc2.named_parameters(prefix + ".fc2")


class CaptionDecoder:
    def __init__(self, cfg: DecoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.tok_emb = Embedding(rng, cfg.vocab_size, cfg.hidden)
        self.pos_emb = Embedding(rng, cfg.max_positions, cfg.hidden)
        self.adapter = Linear(rng, cfg.concept_dim, cfg.hidden) if cfg.concept_dim != cfg.hidden else None
        self.layers = [_DecoderLayer(rng, cfg) for _ in range(cfg.layers)]
        self.final_norm = LayerNorm(cfg.hidden, cfg.layer_norm_eps)
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

    def __call__(
        self, hidden: Tensor, enc_tokens: Tensor, rng=None, training: bool = False, cache: list | None = None
    ) -> Tensor:
        """Logits (B, L, V) for every position of B embedded sequences
        (B, L, hidden) attending to their clips' tokens (B, t, dim), or,
        with one LayerCache per layer (enc_tokens is then unused), (B, 1,
        V) for B new positions of shape (B, 1, hidden) that each follow
        their cached prefix."""
        if cache is None:
            length = hidden.shape[1]
            causal = np.triu(np.full((length, length), NEG_INF), k=1)
            cache = [None] * len(self.layers)
        else:
            causal = None
        x = hidden
        for layer, layer_cache in zip(self.layers, cache):
            x = layer(x, enc_tokens, causal, rng, training, layer_cache)
        return self.out_proj(self.final_norm(x))

    def named_parameters(self, prefix: str = "decoder"):
        yield from self.tok_emb.named_parameters(prefix + ".tok_emb")
        yield from self.pos_emb.named_parameters(prefix + ".pos_emb")
        if self.adapter is not None:
            yield from self.adapter.named_parameters(prefix + ".adapter")
        for i, layer in enumerate(self.layers):
            yield from layer.named_parameters(f"{prefix}.layer{i}")
        yield from self.final_norm.named_parameters(prefix + ".final_norm")
        yield from self.out_proj.named_parameters(prefix + ".out_proj")

    def step_fn(self, semantic: Tensor, enc_tokens: Tensor) -> "StepFn":
        """Next-token log-probabilities (R, V) for R rows in eval mode, each
        row a (clip, prefix) pair over N clips: semantic is (N,
        concept_dim) and enc_tokens (N, t, dim).  Every prefix of one call
        has one length.  Cross-attention keys/values are computed here,
        once per clip, and gathered per row; the prefixes of the latest
        call keep their self-attention keys/values, so a call whose
        parents were the latest call's prefixes runs one new position per
        row, and any other call first recomputes its ancestors."""
        return _CachedStep(self, semantic, enc_tokens)


StepFn = Callable[[Sequence[tuple[int, Sequence[int]]]], np.ndarray]


class _CachedStep:
    """The step returned by CaptionDecoder.step_fn.  Holds no reference
    back to itself, so dropping it frees its cache without the cyclic GC."""

    def __init__(self, decoder: CaptionDecoder, semantic: Tensor, enc_tokens: Tensor):
        self.decoder = decoder
        clips = semantic.shape[0]
        self.sos = decoder.embed_with_semantic_sos(semantic, np.zeros((clips, 0))).data[:, 0]
        self.cross_kv = [tuple(t.data for t in layer.cross_attn.keys_values(enc_tokens)) for layer in decoder.layers]
        # the latest call's rows: (clip, prefix) -> row, and per layer the
        # self-attention (k, v), each (rows, heads, len + 1, head_dim)
        self.rows: dict[tuple[int, tuple[int, ...]], int] = {}
        self.kv: list[tuple[np.ndarray, np.ndarray]] = []

    def __call__(self, rows: Sequence[tuple[int, Sequence[int]]]) -> np.ndarray:
        keys = [(int(clip), tuple(prefix)) for clip, prefix in rows]
        lengths = {len(prefix) for _, prefix in keys}
        if len(lengths) != 1:
            raise ValueError("a step takes one or more prefixes of one length")
        n = lengths.pop()
        self.decoder._check_positions(n + 1)
        if n and any((clip, prefix[:-1]) not in self.rows for clip, prefix in keys):
            for length in range(n):
                self._advance(list(dict.fromkeys((clip, prefix[:length]) for clip, prefix in keys)))
        return self._advance(keys)

    def _advance(self, keys: list[tuple[int, tuple[int, ...]]]) -> np.ndarray:
        """Run position len(prefix) of every key, whose parent the latest
        call ran, and keep only these keys' keys/values."""
        dec, cfg, n = self.decoder, self.decoder.cfg, len(keys[0][1])
        clips = np.array([clip for clip, _ in keys], dtype=np.intp)
        if n:
            x = ad.add(dec.tok_emb([prefix[-1] for _, prefix in keys]), dec.pos_emb(np.full(len(keys), n)))
            parents = np.array([self.rows[clip, prefix[:-1]] for clip, prefix in keys], dtype=np.intp)
        else:
            x = Tensor(self.sos[clips])
        caches = []
        for i, cross_kv in enumerate(self.cross_kv):
            if n:
                past = tuple(Tensor(t[parents]) for t in self.kv[i])
            else:
                past = (Tensor(np.zeros((len(keys), cfg.heads, 0, cfg.hidden // cfg.heads))),) * 2
            caches.append(LayerCache(self_kv=past, cross_kv=tuple(Tensor(t[clips]) for t in cross_kv)))
        logits = dec(ad.reshape(x, (len(keys), 1, cfg.hidden)), None, cache=caches).data[:, -1]
        if not np.all(np.isfinite(logits)):
            raise NumericError("non-finite logits")
        self.rows = {key: r for r, key in enumerate(keys)}
        self.kv = [(c.self_kv[0].data, c.self_kv[1].data) for c in caches]
        return log_softmax(logits)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis."""
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


@dataclass
class Hypothesis:
    tokens: list[int]
    logprob: float


STRATEGIES = ("beam", "greedy", "topk", "topp")


@dataclass
class GenerationRequest:
    strategy: str = "beam"  # one of STRATEGIES
    beam_width: int = 3
    k: int = 20
    p: float = 0.95
    temperature: float = 1.0
    max_len: int = 20
    seed: int | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown decode strategy {self.strategy!r}")
        if self.beam_width < 1 or self.k < 1 or self.max_len < 1:
            raise ValueError("beam width, k and max length must be positive")
        if not (0.0 < self.p <= 1.0):
            raise ValueError("top-p mass must be in (0, 1]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


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


def generate(step: StepFn, request: GenerationRequest, clips: int = 1) -> list[Hypothesis]:
    """One hypothesis per clip, the clips advanced in lockstep.

    All live hypotheses share a length; each step call expands every live
    hypothesis of every clip still running.  Beam search keeps per clip
    the `beam_width` best continuations by summed log-probability, ties
    going to the smaller token sequence.  Greedy, top-k and top-p keep one
    hypothesis per clip and pick its continuation with sample_token, clip
    c drawing from its own generator seeded with request.seed, so a clip
    draws what it would draw decoded alone.  Scores sum the full
    (untruncated, temperature-free) distribution's terms.  Continuations
    ending in EOS retire to the clip's completed pool with the EOS term
    included in their score; at max_len the survivors retire as they are.
    The best retiree of each clip wins.
    """
    r = request
    beam, sampling = r.strategy == "beam", r.strategy in ("topk", "topp")
    rngs = [np.random.default_rng(r.seed) if sampling else None for _ in range(clips)]
    # per clip: live hypotheses sorted by tokens, and the retired ones
    live: list[list[tuple[tuple[int, ...], float]]] = [[((), 0.0)] for _ in range(clips)]
    completed: list[list[tuple[list[int], float]]] = [[] for _ in range(clips)]
    for _ in range(r.max_len):
        active = [c for c in range(clips) if live[c]]
        if not active:
            break
        logprobs = step([(c, tokens) for c in active for tokens, _ in live[c]])
        start = 0
        for c in active:
            n = len(live[c])
            if beam:
                # a live rank orders its hypothesis lexicographically, so (score
                # desc, rank, token) orders the continuations as (score desc, tokens)
                scores = np.array([score for _, score in live[c]])[:, None] + logprobs[start : start + n]
                vocab = scores.shape[1]
                order = np.lexsort((np.tile(np.arange(vocab), n), np.repeat(np.arange(n), vocab), -scores.ravel()))
                picks = [divmod(int(i), vocab) for i in order[: r.beam_width]]
            else:
                picks = [(0, sample_token(logprobs[start], r.strategy, r.k, r.p, r.temperature, rngs[c]))]
            kept = []
            for rank, tok in picks:
                tokens, score = live[c][rank][0], live[c][rank][1] + float(logprobs[start + rank, tok])
                if tok == EOS_ID:
                    completed[c].append((list(tokens), score))
                else:
                    kept.append((tokens + (tok,), score))
            live[c] = sorted(kept)
            start += n
    best = []
    for pool, survivors in zip(completed, live):
        pool.extend((list(tokens), score) for tokens, score in survivors)
        tokens, score = min(pool, key=lambda h: (-h[1], h[0]))
        best.append(Hypothesis(tokens=tokens, logprob=score))
    return best
