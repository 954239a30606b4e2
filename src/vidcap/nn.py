"""Small parameter-holding layers shared by the encoder and decoder,
including the one multi-head attention core both transformers use.

Every layer is a Module, whose one named_parameters walk names each
trainable Tensor by the attributes that lead to it, in assignment order:
a Tensor with requires_grad is named by its attribute, a sub-Module adds
its attribute to the prefix, and the items of a list attribute xs are
x0, x1 and so on.  These dotted names (encoder.stage0.block1.attn.wq.weight)
are the checkpoint format, so a renamed attribute is a checkpoint format
change; sorted, they order CaptionModel.flat, the model's parameter vector.

Each layer's forward is written once and tests no types: handed plain
arrays in eval mode, the autodiff ops it calls return arrays and every
other line runs as numpy, so the encoder's tape-free forward and the
decoder's step run the same code as a taped call, with the same bits.
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

    def __call__(self, x):
        return ad.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-12):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x):
        return ad.layer_norm(x, self.gamma, self.beta, self.eps)


class Embedding(Module):
    def __init__(self, rng: np.random.Generator, count: int, dim: int):
        self.table = normal_param(rng, (count, dim))

    def __call__(self, ids) -> Tensor:
        return ad.embedding(self.table, ids)


@lru_cache(maxsize=None)
def _head_axes(ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(head split, key transpose) permutations for a (..., L, heads,
    head_dim) array of rank ndim.  A head split swaps two axes, so it is
    also the head merge."""
    lead = tuple(range(ndim - 3))
    return lead + (ndim - 2, ndim - 3, ndim - 1), lead + (ndim - 3, ndim - 1, ndim - 2)


class Attention(Module):
    """Multi-head attention from a query sequence to a key/value sequence.

    Inputs are (..., L, dim) Tensors, or arrays in eval mode: any leading
    axes (batch, windows) index independent sequences.  bias is an
    optional additive term of the score shape (..., heads, Lq, Lk), which
    an array may reach by broadcasting; mask is an optional additive array
    that broadcasts to (..., Lq, Lk), shared by all heads.  The weights
    drop out with draws from rng; None is eval mode.
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

    def keys_values(self, kv_seq):
        """Head-split keys and values of kv_seq, each (..., heads, Lk, head_dim)."""
        shape = kv_seq.shape
        split = _head_axes(len(shape) + 1)[0]
        heads_shape = shape[:-1] + self._split_tail
        return tuple(w(kv_seq).reshape(heads_shape).transpose(split) for w in (self.wk, self.wv))

    def __call__(self, q_seq, kv_seq, bias, mask: np.ndarray | None, rng, kv: tuple | None = None):
        """Attend from q_seq to kv_seq, or to kv, its precomputed
        keys_values() pair, when one is given."""
        rows = q_seq.shape[:-1]
        split, key_t = _head_axes(len(rows) + 2)
        q = self.wq(q_seq).reshape(rows + self._split_tail).transpose(split)
        k, v = self.keys_values(kv_seq) if kv is None else kv
        # on a Tensor, += and *= rebind to the recorded op; on the fresh
        # scores array they run in place
        scores = q @ k.transpose(key_t)
        scores *= self.scale
        if bias is not None:
            scores += bias
        if mask is not None:
            scores += mask[..., None, :, :]
        probs = ad.dropout(ad.softmax(scores, axis=-1), self.dropout, rng)
        out = (probs @ v).transpose(split)
        return self.wo(out.reshape(rows + (self.dim,)))
