"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every operation is a plain numpy computation plus a closure that maps the
output gradient back to input gradients.  Operations executed while a Tape
is active are recorded in execution order, which is already a valid
topological order for the reverse sweep.  With no active tape the same
functions run as ordinary numpy code (inference mode): _record wraps the
output at once and nothing is recorded, so a tape-free op returns a Tensor
with requires_grad False and its closure is dropped unrun.

The tape keeps only what backward reads.  A node names Tensors by their
key, a serial number unique in the process (id() is reused once a Tensor
dies), so it holds no Tensor and an activation lives on only if a closure
reads its array.  Each closure captures the arrays and shapes its rule
reads, never a Tensor.  backward drops each node's keys and closure as
soon as it has run the node, so a tape serves one backward pass, and the
saved arrays are freed as the gradients that replace them are made.

Layers write each forward once, in numpy spelling; only this module tells
an eval-mode array from a Tensor.  Tensor records +, *, @, reshape,
transpose, mean and take, and linear, layer_norm, gelu, relu, sigmoid,
softmax, concat and max_reduce hand a plain array to numpy or to the
op's forward kernel (*_kernel).  So an eval-mode array runs a taped
call's lines and gets its bits; tape_active() tells an entry point which
type to feed in.  An array left of a Tensor raises TypeError.
Kernels may compute in place (``out=``, ``*=``) to save temporaries, as
long as each step keeps the operands and order of operations of the plain
formula, so the bits do not change.  They never write into an op's
input, into an incoming gradient (one array may be the gradient of two
inputs), or into an array that a backward closure still reads.

The module keeps only the ops a training step records, each with one
rule.  add is the one broadcast: its second operand, a Tensor or a
constant array, broadcasts into the first operand's shape, never enlarging
it, and its gradient is summed over the broadcast axes (a constant gets
none).  mul is the one elementwise product, of operands of one shape or
where either is a single element, a number included.  linear is the one
weight product, with or without a bias, and matmul multiplies operands
with equal leading axes (attention's scores and weighted values).  take()
is the one gather, behind nn.Embedding, the encoder's window layouts and
its relative-position bias.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

_TAPE_STACK: list["Tape"] = []
_F64 = np.dtype(np.float64)
_SERIAL = itertools.count()


class Tensor:
    """A numpy float64 array plus a requires_grad flag.

    Tensors are value holders only; the graph lives on the tape.  A float64
    ndarray is wrapped as it is, without a copy; anything else is converted
    with np.asarray.  Data is treated as immutable once wrapped, except for
    optimizer updates and checkpoint loads, which write in place into the
    model's parameter vector that a parameter's data views (CaptionModel.flat).
    key is the Tensor's serial number, by which a tape names it.
    """

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.key = next(_SERIAL)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ndarray (op) Tensor raises TypeError instead of building an object array
    __array_ufunc__ = None


class NumericError(ValueError):
    """A non-finite value where the computation needs a finite one."""


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def array_of(x) -> np.ndarray:
    """A Tensor's data, or an array as it is."""
    return x.data if isinstance(x, Tensor) else x


class _Node:
    """One recorded op: its name, the key of each input that needs a
    gradient (None for one that does not), its output's key, and the
    closure that maps the output gradient to one gradient per input.
    backward sets inputs and backward to None once it has run the node."""

    __slots__ = ("op", "inputs", "out_id", "backward")

    def __init__(self, op: str, inputs: tuple, out_id: int, backward: Callable):
        self.op = op
        self.inputs = inputs
        self.out_id = out_id
        self.backward = backward


class Tape:
    """Ordered record of primitive applications for one backward pass.

    Nodes name Tensors by key.  The tape holds as Tensors only its leaves,
    the requires_grad inputs that no recorded op produced, to key the
    gradients backward returns; _produced holds the key of every recorded
    output.  Once backward has run, the nodes keep only their op names.
    """

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


def tape_active() -> bool:
    """Whether ops are being recorded for a backward pass."""
    return bool(_TAPE_STACK)


def _record(op: str, inputs: tuple, out_data: np.ndarray, backward: Callable) -> Tensor:
    if not _TAPE_STACK:
        return Tensor(out_data)
    tape = _TAPE_STACK[-1]
    keys = tuple(t.key if t.requires_grad else None for t in inputs)
    grad_needed = keys.count(None) < len(keys)
    out = Tensor(out_data, requires_grad=grad_needed)
    if grad_needed:
        for t, key in zip(inputs, keys):
            if key is not None and key not in tape._produced:
                tape._leaves[key] = t
        tape.nodes.append(_Node(op, keys, out.key, backward))
        tape._produced.add(out.key)
    return out


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """Reverse sweep over the tape, which it uses up.

    Returns a map from each requires_grad leaf reachable from the loss to
    its gradient array.  The loss must be a scalar.  Each node's keys and
    closure are dropped right after it runs, freeing the arrays only it
    read, so a second backward on the same tape is refused.
    """
    if loss.data.size != 1:
        raise ValueError("loss must be scalar")
    if tape.nodes and tape.nodes[-1].backward is None:
        raise ValueError("tape already used by a backward pass")
    grads: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(node.out_id, None)
        if g is not None:
            for key, contrib in zip(node.inputs, node.backward(g)):
                if contrib is None or key is None:
                    continue
                acc = grads.get(key)
                grads[key] = contrib if acc is None else acc + contrib
        node.inputs = node.backward = None
    return {t: grads[k] for k, t in tape._leaves.items() if k in grads}


# ---------------------------------------------------------------------------
# elementwise and structural primitives


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """g summed over the axes along which an operand of shape was broadcast."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    spread = tuple(lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=tuple(range(lead)) + spread).reshape(shape)


def add(a: Tensor, b) -> Tensor:
    """a + b for b a Tensor or a constant array that broadcasts into a's
    shape, never enlarging it.  b's gradient sums over the broadcast axes,
    and is made only when b needs one."""
    y = b.data if isinstance(b, Tensor) else b
    sa, sb = a.shape, y.shape
    if sa != sb and np.broadcast_shapes(sa, sb) != sa:
        raise ValueError(f"add: shape {sb} would enlarge {sa}")
    b = _wrap(b)
    need_b = b.requires_grad

    def bwd(g):
        return g, _unbroadcast(g, sb) if need_b else None

    return _record("add", (a, b), a.data + y, bwd)


def mul(a, b) -> Tensor:
    """a * b for operands of one shape, or where either is a single element
    (a number included); a gradient is made only for an operand that needs
    one."""
    a, b = _wrap(a), _wrap(b)
    x, y = a.data, b.data
    sa, sb = x.shape, y.shape
    if sa != sb and x.size != 1 and y.size != 1:
        raise ValueError(f"mul: shapes {sa} and {sb} neither match nor are scalar")
    # each closure keeps only the other operand, and only if it is read
    for_a = y if a.requires_grad else None
    for_b = x if b.requires_grad else None

    def bwd(g):
        ga = None if for_a is None else _unbroadcast(g * for_a, sa)
        return ga, None if for_b is None else _unbroadcast(g * for_b, sb)

    return _record("mul", (a, b), x * y, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (..., n, k) @ (..., k, m) of operands with equal
    leading axes."""
    x, y = a.data, b.data
    sa, sb = x.shape, y.shape
    if len(sa) < 2 or len(sa) != len(sb) or sa[:-2] != sb[:-2] or sa[-1] != sb[-2]:
        raise ValueError(f"matmul: shapes {sa} @ {sb} need equal leading axes")

    def bwd(g):
        return g @ np.swapaxes(y, -1, -2), np.swapaxes(x, -1, -2) @ g

    return _record("matmul", (a, b), x @ y, bwd)


def linear_kernel(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    out = x @ weight
    if bias is not None:
        out += bias
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight (+ bias) for x of shape (..., in), weight (in, out) and
    bias (out,) or None, recorded as one op; the bias gradient sums over
    every leading axis of x."""
    b = None if bias is None else bias.data
    if isinstance(x, np.ndarray):
        return linear_kernel(x, weight.data, b)
    sx, sw = x.data.shape, weight.data.shape
    if len(sw) != 2 or sx[-1:] != sw[:1] or (b is not None and b.shape != sw[1:]):
        raise ValueError(f"linear: shapes {sx} @ {sw} + {None if b is None else b.shape}")
    xd, w, need_gx = x.data, weight.data, x.requires_grad
    out = linear_kernel(xd, w, b)
    k, m = sw

    def bwd(g):
        g2 = g.reshape(-1, m)
        gx = g @ w.T if need_gx else None
        gw = xd.reshape(-1, k).T @ g2
        return (gx, gw) if b is None else (gx, gw, np.add.reduce(g2, 0))

    return _record("linear", (x, weight) if b is None else (x, weight, bias), out, bwd)


def relu(a: Tensor) -> Tensor:
    if isinstance(a, np.ndarray):
        return np.maximum(a, 0.0)
    x = a.data

    def bwd(g):
        return (g * (x > 0),)

    return _record("relu", (a,), np.maximum(x, 0.0), bwd)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gelu's output and the tanh term t its backward reads."""
    # tanh form; exact-erf and tanh-form differ by <1e-3 and the tanh form
    # keeps the derivative closed-form.  In place, the steps of
    # t = tanh(_GELU_C * (x + 0.044715 * x**3)) and out = 0.5 * x * (1.0 + t);
    # x * x * x rather than x**3, which numpy hands to libm pow
    t = np.multiply(x, x, out=np.empty_like(x))  # an array even when x is 0-d
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.multiply(x, 0.5)
    out *= np.add(t, 1.0)
    return out, t


def gelu(a: Tensor) -> Tensor:
    if isinstance(a, np.ndarray):
        return gelu_kernel(a)[0]
    x = a.data
    out, t = gelu_kernel(x)

    def bwd(g):
        # g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du) with
        # du = _GELU_C * (1.0 + 3 * 0.044715 * x**2), step by step
        du = x * x
        du *= 3 * 0.044715
        du += 1.0
        du *= _GELU_C
        rest = np.multiply(t, t, out=np.empty_like(t))
        np.subtract(1.0, rest, out=rest)
        da = np.multiply(x, 0.5)
        da *= rest
        da *= du
        np.add(t, 1.0, out=rest)
        rest *= 0.5
        rest += da
        rest *= g
        return (rest,)

    return _record("gelu", (a,), out, bwd)


def sigmoid_kernel(z: np.ndarray) -> np.ndarray:
    # exp only ever sees non-positive arguments, so it cannot overflow
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    if isinstance(a, np.ndarray):
        return sigmoid_kernel(a)
    s = sigmoid_kernel(a.data)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _record("sigmoid", (a,), s, bwd)


def checked_index(index, size: int) -> np.ndarray:
    """index as an intp array, refused unless every entry is in [0, size)."""
    idx = np.asarray(index, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ValueError(f"take index out of range for axis of length {size}")
    return idx


def take(a: Tensor, index, axis: int) -> Tensor:
    """np.take(a, index, axis) for an integer index array of any shape.
    Backward is one np.bincount over the flat source position of each entry
    of g, which adds repeated reads in index order, as np.add.at does."""
    axis %= a.ndim
    shape, size = a.shape, a.shape[axis]
    idx = checked_index(index, size)

    def bwd(g):
        outer, inner = math.prod(shape[:axis]), math.prod(shape[axis + 1 :])
        pos = (np.arange(outer)[:, None, None] * size + idx.reshape(1, -1, 1)) * inner + np.arange(inner)
        return (np.bincount(pos.ravel(), g.ravel(), math.prod(shape)).reshape(shape),)

    return _record("take", (a,), np.take(a.data, idx, axis), bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ts = tuple(tensors)
    if not ts:
        raise ValueError("concat of zero tensors")
    if isinstance(ts[0], np.ndarray):
        return np.concatenate(ts, axis=axis)
    sizes = [t.data.shape[axis] for t in ts]

    def bwd(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _record("concat", ts, np.concatenate([t.data for t in ts], axis=axis), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape, old = tuple(shape), a.shape

    def bwd(g):
        return (g.reshape(old),)

    return _record("reshape", (a,), a.data.reshape(shape), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)

    def bwd(g):
        return (g.transpose(np.argsort(axes)),)

    return _record("transpose", (a,), a.data.transpose(axes), bwd)


def mean_reduce(a: Tensor, axis: int) -> Tensor:
    shape = a.shape
    n = shape[axis]

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape) / n,)

    return _record("mean", (a,), a.data.mean(axis=axis), bwd)


def max_reduce(a: Tensor, axis: int) -> Tensor:
    """Max over one axis; ties route the gradient to the first maximum."""
    if isinstance(a, np.ndarray):
        return a.max(axis=axis)
    idx, shape = np.argmax(a.data, axis=axis), a.shape

    def bwd(g):
        ga = np.zeros(shape)
        np.put_along_axis(ga, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        return (ga,)

    return _record("max", (a,), a.data.max(axis=axis), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout.  Identity with no generator (eval mode), which
    checks nothing, or at rate 0; otherwise the keep mask is drawn from
    rng, so a fixed seed reproduces it."""
    if rng is None or rate == 0.0:
        return a
    if not (0.0 <= rate < 1.0):
        raise ValueError("dropout rate must be in [0, 1)")
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def bwd(g):
        return (g * keep,)

    return _record("dropout", (a,), a.data * keep, bwd)


# numpy spelling of the ops, so one layer body serves arrays and Tensors;
# on a Tensor, `t += u` and `t *= c` rebind t to the recorded result
Tensor.__add__, Tensor.__mul__, Tensor.__matmul__ = add, mul, matmul
Tensor.reshape, Tensor.transpose, Tensor.mean, Tensor.take = reshape, transpose, mean_reduce, take


# ---------------------------------------------------------------------------
# fused numerically-sensitive ops


# np.maximum.reduce along an axis makes one pass per output, slow for the
# short rows of attention scores.  From this many elements on, one
# elementwise maximum over a copy with the axis moved first is faster
# (evaluate's (4, 32, 2, 8, 8) stage-0 scores: 123 -> 21 us); below it the
# copy's fixed cost is not repaid (a decoder step's (1, 4, 1, 11): 1.3 -> 7.4
# us, and (4, 4, 9, 9): 6.2 -> 8.4 us).  Measured on 2 cores, numpy 2.4.
_ROW_MAX_CUT = 2048


def row_max(x: np.ndarray, axis: int) -> np.ndarray:
    """np.maximum.reduce(x, axis, keepdims=True).  max does not round, so
    the order of the comparisons changes at most the sign of a zero
    maximum, which x - max and exp then erase."""
    if x.size < _ROW_MAX_CUT:
        return np.maximum.reduce(x, axis, keepdims=True)
    return np.expand_dims(np.maximum.reduce(np.moveaxis(x, axis, 0).copy(), 0), axis)


def softmax_kernel(x: np.ndarray, axis: int = -1) -> np.ndarray:
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise NumericError("non-finite input")
    # y = exp(x - max) / sum(exp(x - max)), in one buffer
    y = np.subtract(x, row_max(x, axis))
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis, keepdims=True)
    return y


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if isinstance(a, np.ndarray):
        return softmax_kernel(a, axis)
    y = softmax_kernel(a.data, axis)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax", (a,), y, bwd)


def layer_norm_kernel(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """layer_norm's output, and the xhat and inv its backward reads."""
    # the steps of np.mean and np.var, x - mu taken once:
    # xhat = (x - mu) * (1.0 / sqrt(mean((x - mu)**2) + eps))
    mu = np.add.reduce(x, -1, keepdims=True)
    mu /= x.shape[-1]
    xhat = x - mu
    out = np.multiply(xhat, xhat)
    inv = np.add.reduce(out, -1, keepdims=True)
    inv /= x.shape[-1]
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gamma, out=out)
    out += beta
    return out, xhat, inv


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis with population variance, then affine."""
    if isinstance(a, np.ndarray):
        return layer_norm_kernel(a, gamma.data, beta.data, eps)[0]
    x = a.data
    c = x.shape[-1] if x.ndim else 0
    if c == 0:
        raise ValueError("layer_norm over zero-length axis")
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError("layer_norm affine params must match last axis")
    gd = gamma.data
    out, xhat, inv = layer_norm_kernel(x, gd, beta.data, eps)

    def bwd(g):
        # dxhat = g * gamma; da = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        lead = tuple(range(g.ndim - 1))
        tmp = np.multiply(g, xhat)
        dgamma = np.add.reduce(tmp, lead)
        dbeta = np.add.reduce(g, lead)
        da = np.multiply(g, gd)
        m1 = np.add.reduce(da, -1, keepdims=True)
        m1 /= c
        np.multiply(da, xhat, out=tmp)
        m2 = np.add.reduce(tmp, -1, keepdims=True)
        m2 /= c
        da -= m1
        da -= np.multiply(xhat, m2, out=tmp)
        da *= inv
        return da, dgamma, dbeta

    return _record("layer_norm", (a, gamma, beta), out, bwd)


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
    shape = logits.shape

    def bwd(g):
        p = np.exp(z - lse[..., None])
        p[rows, cols, safe] -= 1.0
        p *= (valid * (float(g) / (len(counts) * counts[:, None])))[..., None]
        return (p.reshape(shape),)

    return _record("cross_entropy_masked", (logits,), np.float64(loss), bwd)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross entropy against {0,1} targets, computed in the
    numerically stable max(z,0) - z*t + log1p(exp(-|z|)) form."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ValueError("bce_with_logits shape mismatch")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("bce targets must be 0 or 1")
    z = logits.data
    elem = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.size
    loss = float(elem.sum() / n)

    def bwd(g):
        return ((sigmoid_kernel(z) - t) * (float(g) / n),)

    return _record("bce_with_logits", (logits,), np.float64(loss), bwd)
