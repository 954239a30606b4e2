"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every operation is a plain numpy computation plus a closure that maps the
output gradient back to input gradients.  Operations executed while a Tape
is active are recorded in execution order, which is already a valid
topological order for the reverse sweep.  With no active tape the same
functions run as ordinary numpy code (inference mode).

Broadcasting in binary ops is deliberately restricted: shapes must match
exactly, or one operand must be a single element.  Any other expansion has
to go through broadcast_to() so the backward rule is explicit.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_TAPE_STACK: list["Tape"] = []


def active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A numpy float64 array plus a requires_grad flag.

    Tensors are value holders only; the graph lives on the tape.  Data is
    treated as immutable once wrapped, except for explicit optimizer
    updates which build replacement arrays.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class NumericError(ValueError):
    """A non-finite value where the computation needs a finite one."""


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class _Node:
    __slots__ = ("op", "inputs", "out_id", "backward")

    def __init__(self, op: str, inputs: tuple, out_id: int, backward: Callable):
        self.op = op
        self.inputs = inputs
        self.out_id = out_id
        self.backward = backward


class Tape:
    """Ordered record of primitive applications for one backward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._produced: set[int] = set()
        self._leaves: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


def _record(op: str, inputs: tuple, out_data: np.ndarray, backward: Callable) -> Tensor:
    tape = active_tape()
    grad_needed = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=grad_needed)
    if grad_needed:
        for t in inputs:
            if t.requires_grad and id(t) not in tape._produced:
                tape._leaves[id(t)] = t
        tape.nodes.append(_Node(op, inputs, id(out), backward))
        tape._produced.add(id(out))
    return out


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """Reverse sweep over the tape.

    Returns a map from each requires_grad leaf reachable from the loss to
    its gradient array.  The loss must be a scalar.
    """
    if loss.data.size != 1:
        raise ValueError("loss must be scalar")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(node.out_id, None)
        if g is None:
            continue
        for inp, contrib in zip(node.inputs, node.backward(g)):
            if contrib is None or not inp.requires_grad:
                continue
            acc = grads.get(id(inp))
            grads[id(inp)] = contrib if acc is None else acc + contrib
    return {t: grads[i] for i, t in tape._leaves.items() if i in grads}


# ---------------------------------------------------------------------------
# elementwise and structural primitives


def _binary_check(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} neither match nor are scalar")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    # reduce a full-shape gradient back to a single-element operand
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _binary_check(a, b, "add")

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", (a, b), a.data + b.data, bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _binary_check(a, b, "mul")

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", (a, b), a.data * b.data, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _record("scale", (a,), a.data * c, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.  Either b is 2-D (shared weight applied to any stack
    of row blocks) or a and b carry identical leading batch dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires at least 2-D operands")
    if b.ndim == 2:
        if a.shape[-1] != b.shape[0]:
            raise ValueError(f"matmul: inner dims {a.shape} @ {b.shape}")

        def bwd(g):
            ga = g @ b.data.T
            k, m = b.shape
            gb = a.data.reshape(-1, k).T @ g.reshape(-1, m)
            return ga, gb

    else:
        if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul: incompatible batched shapes {a.shape} @ {b.shape}")

        def bwd(g):
            ga = g @ np.swapaxes(b.data, -1, -2)
            gb = np.swapaxes(a.data, -1, -2) @ g
            return ga, gb

    return _record("matmul", (a, b), a.data @ b.data, bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight (+ bias) for x of shape (..., in), weight (in, out) and
    bias (out,), recorded as one op; the bias gradient sums over every
    leading axis of x."""
    if bias is None:
        return matmul(x, weight)
    if weight.ndim != 2 or x.shape[-1:] != weight.shape[:1] or bias.shape != weight.shape[1:]:
        raise ValueError(f"linear: shapes {x.shape} @ {weight.shape} + {bias.shape}")
    out = x.data @ weight.data
    out += bias.data
    k, m = weight.shape

    def bwd(g):
        g2 = g.reshape(-1, m)
        gx = g @ weight.data.T if x.requires_grad else None
        return gx, x.data.reshape(-1, k).T @ g2, g2.sum(axis=0)

    return _record("linear", (x, weight, bias), out, bwd)


def relu(a: Tensor) -> Tensor:
    def bwd(g):
        return (g * (a.data > 0),)

    return _record("relu", (a,), np.maximum(a.data, 0.0), bwd)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    # tanh form; exact-erf and tanh-form differ by <1e-3 and the tanh form
    # keeps the derivative closed-form
    x = a.data
    # x * x * x rather than x**3, which numpy hands to libm pow
    x3 = x * x
    x3 *= x
    u = _GELU_C * (x + 0.044715 * x3)
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)

    def bwd(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du),)

    return _record("gelu", (a,), out, bwd)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    # exp only ever sees non-positive arguments, so it cannot overflow
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    s = _stable_sigmoid(a.data)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _record("sigmoid", (a,), s, bwd)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup into a (V, D) table; gradient scatter-adds into rows."""
    idx = np.asarray(ids, dtype=np.intp)
    if table.ndim != 2:
        raise ValueError("embedding table must be 2-D")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError("embedding id out of range")

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.ravel(), g.reshape(-1, table.shape[1]))
        return (gt,)

    return _record("embedding", (table,), table.data[idx], bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ts = tuple(tensors)
    if not ts:
        raise ValueError("concat of zero tensors")
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record("concat", ts, np.concatenate([t.data for t in ts], axis=axis), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _record("reshape", (a,), a.data.reshape(shape), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inv),)

    return _record("transpose", (a,), a.data.transpose(axes), bwd)


def broadcast_to(a: Tensor, shape) -> Tensor:
    """Explicit expansion; backward sums over the expanded axes."""
    shape = tuple(shape)
    out = np.broadcast_to(a.data, shape)

    def bwd(g):
        lead = g.ndim - a.ndim
        if lead:
            g = g.sum(axis=tuple(range(lead)))
        keep = tuple(i for i in range(a.ndim) if a.shape[i] == 1 and g.shape[i] != 1)
        if keep:
            g = g.sum(axis=keep, keepdims=True)
        return (g,)

    return _record("broadcast_to", (a,), np.ascontiguousarray(out), bwd)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[sl] = g
        return (ga,)

    return _record("slice_axis", (a,), a.data[sl].copy(), bwd)


def roll(a: Tensor, shifts, axes) -> Tensor:
    shifts = tuple(int(s) for s in shifts)
    axes = tuple(axes)

    def bwd(g):
        return (np.roll(g, tuple(-s for s in shifts), axis=axes),)

    return _record("roll", (a,), np.roll(a.data, shifts, axis=axes), bwd)


def mean_reduce(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    n = a.shape[axis]

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / n,)

    return _record("mean", (a,), a.data.mean(axis=axis, keepdims=keepdims), bwd)


def max_reduce(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max over one axis; ties route the gradient to the first maximum."""
    idx = np.argmax(a.data, axis=axis)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, np.expand_dims(idx, axis), g, axis=axis)
        return (ga,)

    return _record("max", (a,), a.data.max(axis=axis, keepdims=keepdims), bwd)


def sum_reduce(a: Tensor, axis: int | None = None) -> Tensor:
    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _record("sum", (a,), a.data.sum(axis=axis), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout.  Identity in eval mode or at rate 0; in train mode
    the keep mask comes from rng so a fixed seed reproduces it."""
    if not (0.0 <= rate < 1.0):
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def bwd(g):
        return (g * keep,)

    return _record("dropout", (a,), a.data * keep, bwd)


# ---------------------------------------------------------------------------
# fused numerically-sensitive ops


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise NumericError("non-finite input")
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax", (a,), y, bwd)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis with population variance, then affine."""
    c = a.shape[-1] if a.ndim else 0
    if c == 0:
        raise ValueError("layer_norm over zero-length axis")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError("layer_norm affine params must match last axis")
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / c  # np.var's own steps, a - mu taken once
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        da = inv * (dxhat - m1 - xhat * m2)
        return da, dgamma, dbeta

    return _record("layer_norm", (a, gamma, beta), xhat * gamma.data + beta.data, bwd)


def cross_entropy_masked(logits: Tensor, targets, ignore_id: int) -> Tensor:
    """Token-level cross entropy of (..., L, V) logits against (..., L)
    target ids: each row's mean over positions whose target is not
    ignore_id, then the mean over rows.  Raises if a row has no position
    left."""
    t = np.asarray(targets, dtype=np.intp)
    if logits.ndim < 2 or t.shape != logits.shape[:-1]:
        raise ValueError(f"cross_entropy_masked: targets {t.shape} do not match logits {logits.shape}")
    vocab = logits.shape[-1]
    z = logits.data.reshape(-1, t.shape[-1], vocab)
    t = t.reshape(z.shape[:2])
    valid = t != ignore_id
    counts = valid.sum(axis=1)
    if counts.min() == 0:
        raise ValueError("empty loss")
    if t[valid].min() < 0 or t[valid].max() >= vocab:
        raise ValueError("target id out of range")
    rows, cols = np.indices(t.shape)
    safe = np.where(valid, t, 0)
    m = z.max(axis=2, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(z - m).sum(axis=2))
    row_means = np.where(valid, lse - z[rows, cols, safe], 0.0).sum(axis=1) / counts
    loss = float(row_means.mean())

    def bwd(g):
        p = np.exp(z - lse[..., None])
        p[rows, cols, safe] -= 1.0
        p *= (valid * (float(g) / (len(counts) * counts[:, None])))[..., None]
        return (p.reshape(logits.shape),)

    return _record("cross_entropy_masked", (logits,), np.float64(loss), bwd)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross entropy against {0,1} targets, computed in the
    numerically stable max(z,0) - z*t + log1p(exp(-|z|)) form."""
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ValueError("bce_with_logits shape mismatch")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("bce targets must be 0 or 1")
    z = logits.data
    elem = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.size
    loss = float(elem.sum() / n)

    def bwd(g):
        return ((_stable_sigmoid(z) - t) * (float(g) / n),)

    return _record("bce_with_logits", (logits,), np.float64(loss), bwd)
