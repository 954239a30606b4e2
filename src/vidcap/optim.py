"""Gradient clipping and AdamW with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor


def clip_global_norm(grads: dict, max_norm: float) -> tuple[dict, float]:
    """Scale the whole gradient map so its joint L2 norm is at most max_norm.

    Returns the (possibly rescaled) map and the norm it has afterwards.
    Applying the clip twice never rescales twice: a clipped map is already
    inside the ball, so the second call is the identity.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g) ** 2))
    norm = float(np.sqrt(total))
    if norm <= max_norm:
        return grads, norm
    factor = max_norm / norm
    clipped = {k: np.asarray(g) * factor for k, g in grads.items()}
    achieved = float(np.sqrt(sum(float(np.sum(g**2)) for g in clipped.values())))
    return clipped, achieved


@dataclass
class AdamWState:
    """Per-parameter first/second moment estimates and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class AdamWHyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01


def adamw_step(
    params: dict[str, Tensor],
    grads: dict[Tensor, np.ndarray],
    state: dict[str, AdamWState],
    hyper: AdamWHyper,
) -> None:
    """One AdamW update in place.

    Weight decay is decoupled: p <- p - lr*(m_hat/(sqrt(v_hat)+eps)) - lr*wd*p.
    Parameters without a gradient this step are left untouched, moments
    included.  Non-finite gradients abort rather than poisoning the moments.
    """
    for name in sorted(params):
        p = params[name]
        g = grads.get(p)
        if g is None:
            continue
        g = np.asarray(g, dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient")
        st = state.get(name)
        if st is None:
            st = state[name] = AdamWState(m=np.zeros_like(p.data), v=np.zeros_like(p.data))
        st.t += 1
        st.m = hyper.beta1 * st.m + (1.0 - hyper.beta1) * g
        st.v = hyper.beta2 * st.v + (1.0 - hyper.beta2) * g * g
        m_hat = st.m / (1.0 - hyper.beta1**st.t)
        v_hat = st.v / (1.0 - hyper.beta2**st.t)
        p.data = p.data - hyper.lr * (m_hat / (np.sqrt(v_hat) + hyper.eps) + hyper.weight_decay * p.data)
