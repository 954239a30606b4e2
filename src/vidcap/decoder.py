"""Causal transformer decoder conditioned on video tokens and a concept
probability vector.

The concept vector is adapted to the hidden width and becomes the
position-0 input in place of a start-of-sequence embedding, so every
generated word is conditioned on it.  Each layer runs causal
self-attention, cross-attention over the encoder tokens (both through the
shared nn.Attention core), and a feed forward block, all pre-norm with
residuals.

Generation strategies: length-synchronous beam search (summed log
probabilities, no length normalization, ties broken toward the
lexicographically smallest token sequence) and ancestral sampling with
greedy / top-k / top-p truncation and a temperature knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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
    adapter: str = "auto"  # auto | linear | identity
    layer_norm_eps: float = 1e-12

    def __post_init__(self):
        if self.hidden % self.heads:
            raise ValueError("hidden width must divide into heads")
        if self.adapter not in ("auto", "linear", "identity"):
            raise ValueError(f"unknown adapter mode {self.adapter!r}")
        if self.adapter == "identity" and self.concept_dim != self.hidden:
            raise ValueError("identity adapter needs concept width equal to hidden width")

    @property
    def needs_adapter(self) -> bool:
        if self.adapter == "linear":
            return True
        if self.adapter == "identity":
            return False
        return self.concept_dim != self.hidden

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

    def __call__(self, x: Tensor, enc: Tensor, causal: np.ndarray, rng, training: bool) -> Tensor:
        a = self.ln1(x)
        x = ad.add(x, self.self_attn(a, a, None, causal, rng, training))
        x = ad.add(x, self.cross_attn(self.ln2(x), enc, None, None, rng, training))
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
        self.adapter = Linear(rng, cfg.concept_dim, cfg.hidden) if cfg.needs_adapter else None
        if self.adapter is None and cfg.concept_dim != cfg.hidden:
            raise ValueError("concept width differs from hidden width and no adapter is configured")
        self.layers = [_DecoderLayer(rng, cfg) for _ in range(cfg.layers)]
        self.final_norm = LayerNorm(cfg.hidden, cfg.layer_norm_eps)
        self.out_proj = Linear(rng, cfg.hidden, cfg.vocab_size)

    def embed_with_semantic_sos(self, semantic: Tensor, tokens: Sequence[int]) -> Tensor:
        """Sequence of hidden inputs: adapted concept vector at position 0,
        then token embeddings, each plus its absolute position embedding."""
        length = len(tokens) + 1
        if length > self.cfg.max_positions:
            raise ValueError(f"sequence of {length} exceeds {self.cfg.max_positions} positions")
        sem = ad.reshape(semantic, (1, semantic.shape[-1]))
        if self.adapter is not None:
            sem = self.adapter(sem)
        pos = self.pos_emb(np.arange(length))
        if not tokens:
            return ad.add(sem, pos)
        tok = self.tok_emb(np.asarray(tokens, dtype=np.intp))
        return ad.add(ad.concat([sem, tok], axis=0), pos)

    def __call__(self, hidden: Tensor, enc_tokens: Tensor, rng=None, training: bool = False) -> Tensor:
        """Logits (L, V) for every position of the embedded sequence."""
        length = hidden.shape[0]
        causal = np.triu(np.full((length, length), NEG_INF), k=1)
        x = hidden
        for layer in self.layers:
            x = layer(x, enc_tokens, causal, rng, training)
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
        """Log-probabilities of the next token given a generated prefix.
        Runs in eval mode; each call re-runs the forward pass."""

        def step(prefix: Sequence[int]) -> np.ndarray:
            hidden = self.embed_with_semantic_sos(semantic, list(prefix))
            logits = self(hidden, enc_tokens)
            return log_softmax(logits.data[-1])

        return step


StepFn = Callable[[Sequence[int]], np.ndarray]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max()
    z = logits - m
    return z - np.log(np.exp(z).sum())


@dataclass
class Hypothesis:
    tokens: list[int]
    logprob: float


@dataclass
class GenerationRequest:
    strategy: str = "beam"  # beam | greedy | topk | topp
    beam_width: int = 3
    k: int = 20
    p: float = 0.95
    temperature: float = 1.0
    max_len: int = 20
    seed: int | None = None

    def __post_init__(self):
        if self.strategy not in ("beam", "greedy", "topk", "topp"):
            raise ValueError(f"unknown decode strategy {self.strategy!r}")
        if self.beam_width < 1 or self.k < 1 or self.max_len < 1:
            raise ValueError("beam width, k and max length must be positive")
        if not (0.0 < self.p <= 1.0):
            raise ValueError("top-p mass must be in (0, 1]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


def generate_beam(step: StepFn, max_len: int, width: int, eos_id: int = EOS_ID) -> Hypothesis:
    """Length-synchronous beam search.

    All live hypotheses share a length; each step expands every live
    hypothesis over the whole vocabulary and keeps the `width` best
    continuations by summed log-probability, ties going to the smaller
    token sequence.  Continuations ending in EOS retire to a completed
    pool with the EOS term included in their score; at the length limit
    the survivors retire as they are.  The best retiree wins.
    """
    live: list[tuple[list[int], float]] = [([], 0.0)]
    completed: list[tuple[list[int], float]] = []
    for _ in range(max_len):
        candidates: list[tuple[list[int], float]] = []
        for tokens, score in live:
            logprobs = step(tokens)
            for tok in range(len(logprobs)):
                candidates.append((tokens + [tok], score + float(logprobs[tok])))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for tokens, score in candidates[:width]:
            if tokens[-1] == eos_id:
                completed.append((tokens[:-1], score))
            else:
                live.append((tokens, score))
        if not live:
            break
    completed.extend(live)
    tokens, score = min(completed, key=lambda c: (-c[1], c[0]))
    return Hypothesis(tokens=tokens, logprob=score)


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


def generate_sample(
    step: StepFn,
    strategy: str,
    max_len: int,
    k: int = 20,
    p: float = 0.95,
    temperature: float = 1.0,
    rng: np.random.Generator | None = None,
    eos_id: int = EOS_ID,
) -> Hypothesis:
    """Ancestral decoding; the reported log-prob accumulates the full
    (untruncated, temperature-free) distribution's terms."""
    if strategy != "greedy" and rng is None:
        raise ValueError("stochastic decoding needs an rng")
    tokens: list[int] = []
    score = 0.0
    for _ in range(max_len):
        logprobs = step(tokens)
        tok = sample_token(logprobs, strategy, k, p, temperature, rng)
        score += float(logprobs[tok])
        if tok == eos_id:
            return Hypothesis(tokens=tokens, logprob=score)
        tokens.append(tok)
    return Hypothesis(tokens=tokens, logprob=score)


def generate(step: StepFn, request: GenerationRequest, eos_id: int = EOS_ID) -> Hypothesis:
    if request.strategy == "beam":
        return generate_beam(step, request.max_len, request.beam_width, eos_id)
    rng = np.random.default_rng(request.seed)
    return generate_sample(
        step,
        request.strategy,
        request.max_len,
        k=request.k,
        p=request.p,
        temperature=request.temperature,
        rng=rng,
        eos_id=eos_id,
    )
