"""Gradient clipping and AdamW with decoupled weight decay, over the stretch
of a model's one float64 parameter vector (flatten) that a phase updates."""

from __future__ import annotations

import numpy as np

from .autodiff import NumericError, Tensor


def flatten(tensors: list[Tensor]) -> np.ndarray:
    """The tensors' data concatenated in order, each tensor's data rebound
    to a view of its stretch, so in-place writes show on both sides."""
    flat = np.concatenate([p.data.ravel() for p in tensors])
    ends = np.cumsum([p.data.size for p in tensors])
    for p, end in zip(tensors, ends):
        p.data = flat[end - p.data.size : end].reshape(p.data.shape)
    return flat


def clip_global_norm(grad: np.ndarray, max_norm: float) -> tuple[np.ndarray, float]:
    """Scale grad in place so its L2 norm is at most max_norm; return it and
    the norm it has afterwards.  Applying the clip twice never rescales
    twice: a clipped vector is already inside the ball."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = float(np.sqrt(np.sum(grad * grad)))
    if norm <= max_norm:
        return grad, norm
    grad *= max_norm / norm
    return grad, float(np.sqrt(np.sum(grad * grad)))


class AdamWState:
    """Moment estimates of one parameter vector, step counter, hyperparameters."""

    def __init__(self, size: int, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.lr, self.beta1, self.beta2, self.eps, self.weight_decay = lr, beta1, beta2, eps, weight_decay


def adamw_step(params: np.ndarray, grad: np.ndarray, state: AdamWState) -> None:
    """One AdamW update of the parameter vector in place; grad is used up as scratch.

    Weight decay is decoupled: p <- p - lr*(m_hat/(sqrt(v_hat)+eps)) - lr*wd*p.
    Non-finite gradients abort rather than poisoning the moments.
    """
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient")
    state.t += 1
    # in place, with each operation's operands and order as in the formula
    # above, so the bits equal those of the out-of-place form; grad becomes
    # the step, so one update allocates a single vector
    scratch = np.multiply(1.0 - state.beta2, grad)
    scratch *= grad
    step = np.multiply(1.0 - state.beta1, grad, out=grad)
    state.m *= state.beta1
    state.m += step
    state.v *= state.beta2
    state.v += scratch
    np.divide(state.m, 1.0 - state.beta1**state.t, out=step)
    np.divide(state.v, 1.0 - state.beta2**state.t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.eps
    step /= scratch
    np.multiply(state.weight_decay, params, out=scratch)
    step += scratch
    step *= state.lr
    params -= step
