"""Optimizer and gradient-clipping contracts over one flat parameter vector."""

import numpy as np
import pytest

from vidcap import autodiff as ad
from vidcap.autodiff import NumericError, Tensor
from vidcap.optim import AdamWState, adamw_step, clip_global_norm, flatten


def test_clip_scales_to_max_norm():
    clipped, norm = clip_global_norm(np.array([1.0, 0.0]), 0.05)
    assert np.allclose(clipped, [0.05, 0.0])
    assert norm <= 0.05 + 1e-12


def test_clip_below_threshold_unchanged():
    g = np.array([0.006, 0.008])  # norm 0.01
    clipped, norm = clip_global_norm(g.copy(), 0.05)
    assert np.array_equal(clipped, g)
    assert abs(norm - 0.01) < 1e-15


def test_clip_zero_grads():
    clipped, norm = clip_global_norm(np.zeros(7), 0.05)
    assert norm == 0.0
    assert np.array_equal(clipped, np.zeros(7))


def test_clip_is_global_across_entries():
    clipped, norm = clip_global_norm(np.array([3.0, 4.0]), 1.0)  # joint norm 5
    assert abs(norm - 1.0) < 1e-12
    assert np.allclose(clipped, [0.6, 0.8])


def test_clip_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.normal(size=rng.integers(3, 18))
        once, n1 = clip_global_norm(g, 0.05)
        twice, n2 = clip_global_norm(once.copy(), 0.05)
        assert np.allclose(once, twice, atol=1e-15)
        assert abs(n1 - n2) < 1e-12


def test_clip_rejects_bad_max():
    with pytest.raises(ValueError):
        clip_global_norm(np.ones(2), 0.0)


def test_flatten_returns_views_in_order():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.array([10.0]), requires_grad=True)
    c = Tensor(np.arange(4.0).reshape(2, 1, 2) + 20, requires_grad=True)
    flat = flatten([a, b, c])
    assert flat.tolist() == [0, 1, 2, 3, 4, 5, 10, 20, 21, 22, 23]
    assert (a.shape, b.shape, c.shape) == ((2, 3), (1,), (2, 1, 2))
    flat *= 2.0  # an in-place write to the vector shows in every tensor
    flat[6] = -1.0
    assert a.data.tolist() == [[0, 2, 4], [6, 8, 10]]
    assert b.data.tolist() == [-1.0]
    assert c.data.ravel().tolist() == [40, 42, 44, 46]
    c.data[0, 0, 1] = 7.0  # and a write to a tensor shows in the vector
    assert flat[8] == 7.0
    assert all(np.shares_memory(flat, t.data) for t in (a, b, c))


def _reference_adamw(params, grads, state, lr, beta1, beta2, eps, weight_decay):
    """AdamW one tensor at a time, as the formula reads: the oracle for the flat update."""
    for name, p in params.items():
        g = grads[name]
        m, v, t = state.get(name, (np.zeros_like(p), np.zeros_like(p), 0))
        t += 1
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        params[name] = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p)
        state[name] = (m, v, t)


HYPERS = ("lr", "beta1", "beta2", "eps", "weight_decay")


@pytest.mark.parametrize("hyper", [{}, {"lr": 0.05, "beta1": 0.8, "beta2": 0.99, "eps": 1e-6, "weight_decay": 0.3}])
def test_flat_adamw_equals_per_tensor_update_bitwise(hyper):
    rng = np.random.default_rng(11)
    shapes = {"a": (3, 5), "b": (7,), "c": (2, 1, 4), "d": (1,), "e": (4, 4)}
    scales = {"a": 1e-6, "b": 1.0, "c": 1e3, "d": 0.0, "e": 1e-2}
    ref = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    tensors = [Tensor(ref[name].copy(), requires_grad=True) for name in sorted(ref)]
    flat = flatten(tensors)
    state = AdamWState(flat.size, **hyper)
    ref_state: dict = {}
    for _ in range(12):
        grads = {name: rng.normal(size=shapes[name]) * scales[name] for name in shapes}
        _reference_adamw(ref, grads, ref_state, **{h: getattr(state, h) for h in HYPERS})
        adamw_step(flat, np.concatenate([grads[name].ravel() for name in sorted(grads)]), state)
        for name, t in zip(sorted(ref), tensors):
            assert np.array_equal(t.data, ref[name]), name
    assert state.t == 12


def _single(value, grads, **hyper):
    """The one parameter left after AdamW steps on a one-element vector."""
    p = Tensor(np.array([value]), requires_grad=True)
    flat = flatten([p])
    state = AdamWState(1, **hyper)
    for g in grads:
        adamw_step(flat, np.array([g]), state)
    return float(p.data[0])


def test_adamw_state_defaults():
    state = AdamWState(3)
    assert {h: getattr(state, h) for h in HYPERS} == {
        "lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "weight_decay": 0.01
    }
    assert state.t == 0 and state.m.tolist() == state.v.tolist() == [0.0] * 3


def test_adamw_single_step_hand_value():
    p = _single(1.0, [1.0], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8) + 0.01 * 1.0)
    assert abs(p - expected) < 1e-12
    assert abs(p - 0.899) < 1e-6


def test_adamw_zero_grad_zero_decay_fixed_point():
    assert _single(2.5, [0.0], lr=0.1, weight_decay=0.0) == 2.5


def test_adamw_wd_zero_matches_plain_adam_recurrence():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4,))
    p = Tensor(x.copy(), requires_grad=True)
    flat = flatten([p])
    state = AdamWState(4, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0)
    grads = [rng.normal(size=(4,)) for _ in range(3)]

    # independent Adam recurrence
    ref = x.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        ref -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)

    for g in grads:
        adamw_step(flat, g, state)
    assert np.allclose(p.data, ref, atol=1e-12)


def test_adamw_decay_is_decoupled():
    # with zero gradient history the moment term stays 0; only decay moves p
    assert abs(_single(3.0, [0.0], lr=0.1, weight_decay=0.5) - (3.0 - 0.1 * 0.5 * 3.0)) < 1e-15


def test_adamw_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite gradient"):
        _single(1.0, [np.nan])


def test_non_finite_failures_are_numeric_errors():
    # typed, so callers route them without matching message text
    with pytest.raises(NumericError):
        _single(1.0, [np.inf])
    with pytest.raises(NumericError):
        ad.softmax(Tensor(np.array([np.nan, 0.0])))


def test_adamw_rejects_non_finite_before_touching_state():
    flat = np.ones(3)
    state = AdamWState(3)
    with pytest.raises(NumericError):
        adamw_step(flat, np.array([0.1, np.nan, 0.2]), state)
    assert state.t == 0 and not state.m.any() and not state.v.any()
    assert flat.tolist() == [1.0, 1.0, 1.0]


def test_adamw_deterministic():
    def run():
        rng = np.random.default_rng(7)
        flat = np.ones(3)
        state = AdamWState(3, lr=0.05)
        for _ in range(5):
            adamw_step(flat, rng.normal(size=3), state)
        return flat

    a, b = run(), run()
    assert np.array_equal(a, b)
