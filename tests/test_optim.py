"""Optimizer and gradient-clipping contracts."""

import numpy as np
import pytest

from vidcap import autodiff as ad
from vidcap.autodiff import NumericError, Tensor
from vidcap.optim import AdamWHyper, adamw_step, clip_global_norm


def test_clip_scales_to_max_norm():
    g = {"w": np.array([1.0, 0.0])}
    clipped, norm = clip_global_norm(g, 0.05)
    assert np.allclose(clipped["w"], [0.05, 0.0])
    assert norm <= 0.05 + 1e-12


def test_clip_below_threshold_unchanged():
    g = {"w": np.array([0.006, 0.008])}  # norm 0.01
    clipped, norm = clip_global_norm(g, 0.05)
    assert np.array_equal(clipped["w"], g["w"])
    assert abs(norm - 0.01) < 1e-15


def test_clip_zero_grads():
    g = {"a": np.zeros(3), "b": np.zeros((2, 2))}
    clipped, norm = clip_global_norm(g, 0.05)
    assert norm == 0.0
    for k in g:
        assert np.array_equal(clipped[k], g[k])


def test_clip_is_global_across_entries():
    g = {"a": np.array([3.0]), "b": np.array([4.0])}  # joint norm 5
    clipped, norm = clip_global_norm(g, 1.0)
    assert abs(norm - 1.0) < 1e-12
    assert np.allclose(clipped["a"], [0.6])
    assert np.allclose(clipped["b"], [0.8])


def test_clip_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = {f"p{i}": rng.normal(size=rng.integers(1, 6)) for i in range(3)}
        once, n1 = clip_global_norm(g, 0.05)
        twice, n2 = clip_global_norm({k: v.copy() for k, v in once.items()}, 0.05)
        for k in once:
            assert np.allclose(once[k], twice[k], atol=1e-15)
        assert abs(n1 - n2) < 1e-12


def test_clip_rejects_bad_max():
    with pytest.raises(ValueError):
        clip_global_norm({"w": np.ones(2)}, 0.0)


def _step(params, grad_map, state, hyper):
    grads = {p: grad_map[name] for name, p in params.items()}
    adamw_step(params, grads, state, hyper)


def test_adamw_single_step_hand_value():
    p = Tensor(np.array([1.0]), requires_grad=True)
    params = {"p": p}
    state = {}
    hyper = AdamWHyper(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
    _step(params, {"p": np.array([1.0])}, state, hyper)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8) + 0.01 * 1.0)
    assert abs(float(p.data[0]) - expected) < 1e-12
    assert abs(float(p.data[0]) - 0.899) < 1e-6


def test_adamw_zero_grad_zero_decay_fixed_point():
    p = Tensor(np.array([2.5]), requires_grad=True)
    state = {}
    _step({"p": p}, {"p": np.zeros(1)}, state, AdamWHyper(lr=0.1, weight_decay=0.0))
    assert float(p.data[0]) == 2.5


def test_adamw_wd_zero_matches_plain_adam_recurrence():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4,))
    p = Tensor(x.copy(), requires_grad=True)
    state = {}
    hyper = AdamWHyper(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0)
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
        _step({"p": p}, {"p": g}, state, hyper)
    assert np.allclose(p.data, ref, atol=1e-12)


def test_adamw_decay_is_decoupled():
    # with zero gradient history the moment term stays 0; only decay moves p
    p = Tensor(np.array([3.0]), requires_grad=True)
    state = {}
    _step({"p": p}, {"p": np.zeros(1)}, state, AdamWHyper(lr=0.1, weight_decay=0.5))
    assert abs(float(p.data[0]) - (3.0 - 0.1 * 0.5 * 3.0)) < 1e-15


def test_adamw_rejects_non_finite():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match="non-finite gradient"):
        _step({"p": p}, {"p": np.array([np.nan])}, {}, AdamWHyper())


def test_non_finite_failures_are_numeric_errors():
    # typed, so callers route them without matching message text
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(NumericError):
        _step({"p": p}, {"p": np.array([np.inf])}, {}, AdamWHyper())
    with pytest.raises(NumericError):
        ad.softmax(Tensor(np.array([np.nan, 0.0])))


def test_adamw_skips_params_without_grads():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([5.0]), requires_grad=True)
    state = {}
    adamw_step({"p": p, "q": q}, {p: np.array([1.0])}, state, AdamWHyper(lr=0.1))
    assert float(q.data[0]) == 5.0  # untouched, no decay either
    assert float(p.data[0]) != 1.0
    assert "q" not in state


def test_adamw_deterministic():
    def run():
        rng = np.random.default_rng(7)
        p = Tensor(np.ones(3), requires_grad=True)
        state = {}
        for _ in range(5):
            _step({"p": p}, {"p": rng.normal(size=3)}, state, AdamWHyper(lr=0.05))
        return p.data.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)
