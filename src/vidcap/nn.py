"""Small parameter-holding layers shared by the encoder and decoder,
including the one multi-head attention core both transformers use.

Every layer is a Module, whose one named_parameters walk names each
trainable Tensor by the attributes that lead to it, in assignment order:
a Tensor with requires_grad is named by its attribute, a sub-Module adds
its attribute to the prefix, and the items of a list attribute xs are
x0, x1 and so on.  These dotted names (encoder.stage0.block1.attn.wq.weight)
are the checkpoint format, so a renamed attribute is a checkpoint format
change; sorted, they are also the order of training's flat parameter vector.

Linear, LayerNorm, Embedding and Attention also run in eval mode on plain
arrays (on_array, Attention.step), through the same kernels, for the
encoder's tape-free forward and the decoder's step.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_STD = 0.02  # normal init range shared by all projections and embeddings


def normal_param(rng: np.random.Generator, shape, std: float = INIT_STD) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


class Module:
    """A layer whose parameters are found by walking its attributes."""

    def named_parameters(self, prefix: str = ""):
        for attr, value in vars(self).items():
            name = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(name)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    yield from item.named_parameters(f"{name[:-1]}{i}")


class Linear(Module):
    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int, bias: bool = True):
        self.weight = normal_param(rng, (in_dim, out_dim))
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)

    def on_array(self, x: np.ndarray) -> np.ndarray:
        return ad.linear_kernel(x, self.weight.data, None if self.bias is None else self.bias.data)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-12):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta, self.eps)

    def on_array(self, x: np.ndarray) -> np.ndarray:
        return ad.layer_norm_kernel(x, self.gamma.data, self.beta.data, self.eps)[0]


class Embedding(Module):
    def __init__(self, rng: np.random.Generator, count: int, dim: int):
        self.table = normal_param(rng, (count, dim))

    def __call__(self, ids) -> Tensor:
        return ad.embedding(self.table, ids)

    def on_array(self, ids) -> np.ndarray:
        return self.table.data[ad.checked_index(ids, len(self.table.data))]


@lru_cache(maxsize=None)
def _head_axes(ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(head split, key transpose) permutations for a (..., L, heads,
    head_dim) array of rank ndim.  A head split swaps two axes, so it is
    also the head merge."""
    lead = tuple(range(ndim - 3))
    return lead + (ndim - 2, ndim - 3, ndim - 1), lead + (ndim - 3, ndim - 1, ndim - 2)


class Attention(Module):
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
        self._split_tail = (heads, self.head_dim)  # (..., L, dim) -> (..., L, heads, head_dim)
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.dropout = dropout
        self.wq = Linear(rng, dim, dim, bias=qkv_bias)
        self.wk = Linear(rng, dim, dim, bias=qkv_bias)
        self.wv = Linear(rng, dim, dim, bias=qkv_bias)
        self.wo = Linear(rng, dim, dim, bias=True)
        self.capture_attention = False
        self.last_attention: np.ndarray | None = None

    def keys_values(self, kv_seq):
        """Head-split keys and values of kv_seq, each (..., heads, Lk,
        head_dim): Tensors for a Tensor, arrays for an array."""
        shape = kv_seq.shape
        split = _head_axes(len(shape) + 1)[0]
        heads_shape = shape[:-1] + self._split_tail
        if isinstance(kv_seq, np.ndarray):
            return tuple(w.on_array(kv_seq).reshape(heads_shape).transpose(split) for w in (self.wk, self.wv))
        k = ad.transpose(ad.reshape(self.wk(kv_seq), heads_shape), split)
        v = ad.transpose(ad.reshape(self.wv(kv_seq), heads_shape), split)
        return k, v

    def __call__(
        self, q_seq: Tensor, kv_seq: Tensor, bias: Tensor | None, mask: np.ndarray | None, rng, training: bool
    ) -> Tensor:
        rows = q_seq.data.shape[:-1]
        split, key_t = _head_axes(len(rows) + 2)
        q = ad.transpose(ad.reshape(self.wq(q_seq), rows + self._split_tail), split)
        k, v = self.keys_values(kv_seq)
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
        return self.wo(ad.reshape(out, rows + (self.dim,)))

    def step(
        self, q_seq: np.ndarray, new: np.ndarray | None, past: tuple,
        bias: np.ndarray | None = None, mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, tuple]:
        """__call__ on arrays in eval mode: q_seq attends to past's
        keys/values (..., heads, Lk, head_dim), then new's if given, with an
        optional bias array that broadcasts to the scores and mask as in
        __call__.  Returns the output and the keys/values attended to."""
        rows = q_seq.shape[:-1]
        split, key_t = _head_axes(len(rows) + 2)
        q = self.wq.on_array(q_seq).reshape(rows + self._split_tail).transpose(split)
        k, v = past
        if new is not None:
            k, v = (np.concatenate([old, extra], axis=-2) for old, extra in zip(past, self.keys_values(new)))
        scores = q @ k.transpose(key_t)
        scores *= self.scale
        if bias is not None:
            scores += bias
        if mask is not None:
            scores += mask[..., None, :, :]
        probs = ad.softmax_kernel(scores, -1)
        if self.capture_attention:
            self.last_attention = probs.copy()
        out = (probs @ v).transpose(split)
        return self.wo.on_array(out.reshape(rows + (self.dim,))), (k, v)
