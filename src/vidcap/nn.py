"""Small parameter-holding layers shared by the encoder and decoder,
including the one multi-head attention core both transformers use.

Each layer exposes named_parameters(prefix) so the full model can be
flattened into a sorted name -> Tensor map for optimization and
checkpointing.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_STD = 0.02  # normal init range shared by all projections and embeddings


def normal_param(rng: np.random.Generator, shape, std: float = INIT_STD) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


class Linear:
    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int, bias: bool = True):
        self.weight = normal_param(rng, (in_dim, out_dim))
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)

    def named_parameters(self, prefix: str):
        yield prefix + ".weight", self.weight
        if self.bias is not None:
            yield prefix + ".bias", self.bias


class LayerNorm:
    def __init__(self, dim: int, eps: float = 1e-12):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta, self.eps)

    def named_parameters(self, prefix: str):
        yield prefix + ".gamma", self.gamma
        yield prefix + ".beta", self.beta


class Embedding:
    def __init__(self, rng: np.random.Generator, count: int, dim: int):
        self.table = normal_param(rng, (count, dim))

    def __call__(self, ids) -> Tensor:
        return ad.embedding(self.table, ids)

    def named_parameters(self, prefix: str):
        yield prefix + ".table", self.table


def _head_axes(ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(head split, key transpose) permutations for a (..., L, heads,
    head_dim) array of rank ndim.  A head split swaps two axes, so it is
    also the head merge."""
    lead = tuple(range(ndim - 3))
    return lead + (ndim - 2, ndim - 3, ndim - 1), lead + (ndim - 3, ndim - 1, ndim - 2)


class Attention:
    """Multi-head attention from a query sequence to a key/value sequence.

    Inputs are (..., L, dim): any leading axes (batch, windows) index
    independent sequences.  bias is an optional additive Tensor of the
    score shape (..., heads, Lq, Lk); mask is an optional additive array
    that broadcasts to (..., Lq, Lk), shared by all heads.  With
    capture_attention set, last_attention keeps a copy of the
    post-softmax, pre-dropout weights of the latest call.
    """

    def __init__(self, rng: np.random.Generator, dim: int, heads: int, qkv_bias: bool, dropout: float):
        if dim % heads:
            raise ValueError("attention width must divide into heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.dropout = dropout
        self.wq = Linear(rng, dim, dim, bias=qkv_bias)
        self.wk = Linear(rng, dim, dim, bias=qkv_bias)
        self.wv = Linear(rng, dim, dim, bias=qkv_bias)
        self.wo = Linear(rng, dim, dim, bias=True)
        self.capture_attention = False
        self.last_attention: np.ndarray | None = None

    def keys_values(self, kv_seq: Tensor) -> tuple[Tensor, Tensor]:
        """Head-split keys and values of kv_seq, each (..., heads, Lk, head_dim)."""
        split = _head_axes(kv_seq.data.ndim + 1)[0]
        heads_shape = kv_seq.data.shape[:-1] + (self.heads, self.head_dim)
        k = ad.transpose(ad.reshape(self.wk(kv_seq), heads_shape), split)
        v = ad.transpose(ad.reshape(self.wv(kv_seq), heads_shape), split)
        return k, v

    def __call__(
        self,
        q_seq: Tensor,
        kv_seq: Tensor | None,
        bias: Tensor | None,
        mask: np.ndarray | None,
        rng,
        training: bool,
        kv: tuple[Tensor, Tensor] | None = None,
    ) -> Tensor:
        """Attend from q_seq to kv_seq, or to kv, its precomputed
        keys_values() pair, when one is given."""
        q_shape = q_seq.data.shape
        lead, lq = q_shape[:-2], q_shape[-2]
        split, key_t = _head_axes(q_seq.data.ndim + 1)
        q = ad.transpose(ad.reshape(self.wq(q_seq), lead + (lq, self.heads, self.head_dim)), split)
        k, v = self.keys_values(kv_seq) if kv is None else kv
        scores = ad.scale(ad.matmul(q, ad.transpose(k, key_t)), self.scale)
        if bias is not None:
            scores = ad.add(scores, bias)
        if mask is not None:
            scores = ad.add(scores, Tensor(np.broadcast_to(mask[..., None, :, :], scores.data.shape)))
        probs = ad.softmax(scores, axis=-1)
        if self.capture_attention:
            self.last_attention = probs.data.copy()
        probs = ad.dropout(probs, self.dropout, rng, training)
        out = ad.transpose(ad.matmul(probs, v), split)
        return self.wo(ad.reshape(out, lead + (lq, self.dim)))

    def named_parameters(self, prefix: str):
        yield from self.wq.named_parameters(prefix + ".wq")
        yield from self.wk.named_parameters(prefix + ".wk")
        yield from self.wv.named_parameters(prefix + ".wv")
        yield from self.wo.named_parameters(prefix + ".wo")
